"""Weighted-graph transfer for based complexes with an acyclic partial matching.

Cells and differential come in with a chosen basis; a matching pairs some
cells across adjacent degrees.  Reversing each matched arrow with weight
-1/(matched coefficient) ("dotted") and keeping the other differential
components ("thick") turns alternating dotted/thick walks into the three
standard transfer maps: projection p onto critical cells, inclusion i of
critical cells, and the homotopy h between them, plus the induced differential
on the critical complex.
"""
from __future__ import annotations

from .presentation import FormalSum, qdiv

__all__ = ["BasedComplex", "verify_sdr"]


class BasedComplex:
    """A finite nonnegatively graded complex with basis, plus a matching.

    `cells_by_degree`: {degree: iterable of hashable cells}
    `diff`: cell -> FormalSum over cells one degree lower
    `matching`: {lower_cell: upper_cell} pairs, upper one degree above lower;
        the coefficient of lower in diff(upper) must be nonzero.
    """

    def __init__(self, cells_by_degree, diff, matching):
        self.cells_by_degree = {d: tuple(cs) for d, cs in cells_by_degree.items() if cs}
        self.degree_of = {}
        for d, cs in self.cells_by_degree.items():
            for c in cs:
                if c in self.degree_of:
                    raise ValueError(f"cell {c!r} listed twice")
                self.degree_of[c] = d
        self._diff_fn = diff
        self._diff_cache: dict = {}
        self.up = dict(matching)
        self.down = {}
        for lo, hi in self.up.items():
            if self.degree_of[hi] != self.degree_of[lo] + 1:
                raise ValueError(f"matched pair {lo!r}/{hi!r} not in adjacent degrees")
            if hi in self.down:
                raise ValueError(f"cell {hi!r} matched twice")
            self.down[hi] = lo
        if set(self.up) & set(self.down):
            raise ValueError("a cell is matched both up and down")
        self._weight = {}
        for lo, hi in self.up.items():
            c = self.diff(hi).coeff(lo)
            if not c:
                raise ValueError(f"matched coefficient of {lo!r} in d({hi!r}) is zero")
            self._weight[lo] = qdiv(-1, c)
        self._p_cache: dict = {}
        self._I_cache: dict = {}
        self._busy: set = set()

    # -- structure -----------------------------------------------------------

    def diff(self, cell) -> FormalSum:
        got = self._diff_cache.get(cell)
        if got is None:
            got = self._diff_cache[cell] = self._diff_fn(cell)
        return got

    def status(self, cell) -> str:
        if cell in self.up:
            return "lower"
        if cell in self.down:
            return "upper"
        return "critical"

    def critical(self, degree: int):
        return tuple(c for c in self.cells_by_degree.get(degree, ()) if self.status(c) == "critical")

    def dotted_weight(self, lower):
        return self._weight[lower]

    def thick(self, cell) -> FormalSum:
        d = self.diff(cell)
        if cell in self.down:
            lo = self.down[cell]
            d = d - FormalSum.lift(lo, d.coeff(lo))
        return d

    # -- transfer maps ---------------------------------------------------------

    def p(self, cell) -> FormalSum:
        """Projection onto critical cells (same degree)."""
        got = self._p_cache.get(cell)
        if got is not None:
            return got
        st = self.status(cell)
        if st == "critical":
            got = FormalSum.lift(cell)
        elif st == "upper":
            got = FormalSum()
        else:
            key = ("p", cell)
            if key in self._busy:
                raise ValueError("zigzag cycle detected")
            self._busy.add(key)
            got = self.thick(self.up[cell]).map_terms(self.p).scale(self.dotted_weight(cell))
            self._busy.discard(key)
        self._p_cache[cell] = got
        return got

    def _walk_up(self, cell) -> FormalSum:
        # cell plus every continuation thick-then-dotted; lands on cell + uppers
        got = self._I_cache.get(cell)
        if got is not None:
            return got
        key = ("i", cell)
        if key in self._busy:
            raise ValueError("zigzag cycle detected")
        self._busy.add(key)
        out = FormalSum.lift(cell)
        for y, w in self.thick(cell).terms.items():
            if y in self.up:
                out.add_scaled(self._walk_up(self.up[y]), w * self.dotted_weight(y))
        self._busy.discard(key)
        self._I_cache[cell] = out
        return out

    def i(self, cell) -> FormalSum:
        """Inclusion of a critical cell into the complex."""
        if self.status(cell) != "critical":
            raise ValueError(f"i expects a critical cell, got {cell!r}")
        return self._walk_up(cell)

    def h(self, cell) -> FormalSum:
        """The homotopy (degree +1); zero off the up-matched cells."""
        if self.status(cell) != "lower":
            return FormalSum()
        return self._walk_up(self.up[cell]).scale(-self.dotted_weight(cell))

    def morse_diff(self, cell) -> FormalSum:
        """Differential induced on critical cells."""
        if self.status(cell) != "critical":
            raise ValueError(f"morse_diff expects a critical cell, got {cell!r}")
        return self.diff(cell).map_terms(self.p)


def verify_sdr(cx: BasedComplex, max_degree: int | None = None) -> list[str]:
    """Check the transfer identities on every cell of degree <= `max_degree`
    (all when None); return human-readable violations."""
    bad = []
    degrees = [d for d in sorted(cx.cells_by_degree) if max_degree is None or d <= max_degree]
    cells = [c for d in degrees for c in cx.cells_by_degree[d]]

    for c in cells:
        if cx.diff(c).map_terms(cx.diff):
            bad.append(f"d∘d != 0 at {c!r}")
        hc = cx.h(c)
        lhs = FormalSum.lift(c) - cx.p(c).map_terms(cx.i)
        rhs = hc.map_terms(cx.diff) + cx.diff(c).map_terms(cx.h)
        if lhs != rhs:
            bad.append(f"id - i∘p != d∘h + h∘d at {c!r}")
        if hc.map_terms(cx.h):
            bad.append(f"h∘h != 0 at {c!r}")
        if hc.map_terms(cx.p):
            bad.append(f"p∘h != 0 at {c!r}")
    for d in degrees:
        for c in cx.critical(d):
            if cx.i(c).map_terms(cx.p) != FormalSum.lift(c):
                bad.append(f"p∘i != id at {c!r}")
            if cx.i(c).map_terms(cx.h):
                bad.append(f"h∘i != 0 at {c!r}")
    return bad
