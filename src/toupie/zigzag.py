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
    """A nonnegatively graded complex with basis plus a matching, read on demand.

    `diff`: cell -> FormalSum over cells one degree lower
    `match`: cell -> ("critical", None) | ("lower", upper) | ("upper", lower);
        the upper cell lies one degree above its lower partner, and the
        coefficient of lower in diff(upper) must be nonzero.
    `degree`: cell -> int

    Differentials, statuses and dotted weights are computed on first use and
    kept.  A matched pair is checked the first time either cell is read;
    `match(cell)` hands out the checked (status, partner).
    """

    def __init__(self, diff, match, degree):
        self._diff_fn = diff
        self._match = match
        self.degree = degree
        self._diff_cache: dict = {}
        self._status: dict = {}  # cell -> (status, partner)
        self._weight: dict = {}  # lower cell -> dotted weight
        self._p_cache: dict = {}
        self._I_cache: dict = {}
        self._busy: set = set()

    # -- structure -----------------------------------------------------------

    def diff(self, cell) -> FormalSum:
        got = self._diff_cache.get(cell)
        if got is None:
            got = self._diff_cache[cell] = self._diff_fn(cell)
        return got

    def _read(self, cell):
        """(status, partner) of a cell not read before; checks and keeps its pair."""
        got = self._match(cell)
        st, partner = got
        if st == "critical":
            self._status[cell] = got
            return got
        lo, hi = (cell, partner) if st == "lower" else (partner, cell)
        if self.degree(hi) != self.degree(lo) + 1:
            raise ValueError(f"matched pair {lo!r}/{hi!r} not in adjacent degrees")
        if self._match(partner) != (("upper", lo) if st == "lower" else ("lower", hi)):
            raise ValueError(f"{partner!r} does not match back to {cell!r}")
        c = self.diff(hi).coeff(lo)
        if not c:
            raise ValueError(f"matched coefficient of {lo!r} in d({hi!r}) is zero")
        self._weight[lo] = qdiv(-1, c)
        self._status[lo] = ("lower", hi)
        self._status[hi] = ("upper", lo)
        return got

    def match(self, cell):
        """(status, partner) of `cell`, its pair checked on first read."""
        return self._status.get(cell) or self._read(cell)

    def status(self, cell) -> str:
        return self.match(cell)[0]

    def thick(self, cell) -> FormalSum:
        d = self.diff(cell)
        st, lo = self.match(cell)
        if st == "upper":
            d = d - FormalSum.lift(lo, d.coeff(lo))
        return d

    # -- transfer maps ---------------------------------------------------------

    def p(self, cell) -> FormalSum:
        """Projection onto critical cells (same degree)."""
        got = self._p_cache.get(cell)
        if got is not None:
            return got
        st, hi = self.match(cell)
        if st == "critical":
            got = FormalSum.lift(cell)
        elif st == "upper":
            got = FormalSum()
        else:
            key = ("p", cell)
            if key in self._busy:
                raise ValueError("zigzag cycle detected")
            self._busy.add(key)
            got = self.thick(hi).map_terms(self.p).scale(self._weight[cell])
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
        status = self._status
        for y, w in self.thick(cell).terms.items():
            st, hi = status.get(y) or self._read(y)
            if st == "lower":
                out.add_scaled(self._walk_up(hi), w * self._weight[y])
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
        st, hi = self.match(cell)
        if st != "lower":
            return FormalSum()
        return self._walk_up(hi).scale(-self._weight[cell])

    def morse_diff(self, cell) -> FormalSum:
        """Differential induced on critical cells."""
        if self.status(cell) != "critical":
            raise ValueError(f"morse_diff expects a critical cell, got {cell!r}")
        return self.diff(cell).map_terms(self.p)


def verify_sdr(cx: BasedComplex, cells) -> list[str]:
    """Check the transfer identities on `cells`, taken in degree order; return
    human-readable violations."""
    bad = []
    cells = sorted(cells, key=cx.degree)
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
    for c in cells:
        if cx.status(c) == "critical":
            if cx.i(c).map_terms(cx.p) != FormalSum.lift(c):
                bad.append(f"p∘i != id at {c!r}")
            if cx.i(c).map_terms(cx.h):
                bad.append(f"h∘i != 0 at {c!r}")
    return bad
