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

from types import MappingProxyType

from .presentation import FormalSum, qdiv

__all__ = ["BasedComplex", "verify_sdr"]

# the one zero value that `p` keeps and `h` hands out; its terms are a
# read-only view, so an edit in place raises instead of changing every zero
_ZERO = FormalSum()
_ZERO.terms = MappingProxyType({})


class BasedComplex:
    """A nonnegatively graded complex with basis plus a matching, read on demand.

    `diff`: cell -> FormalSum over cells one degree lower
    `match`: cell -> ("critical", None) | ("lower", upper) | ("upper", lower);
        the upper cell lies one degree above its lower partner, and the
        coefficient of lower in diff(upper) must be nonzero.
    `degree`: cell -> int

    Differentials, statuses, dotted weights, the values of `p` and `i` and the
    nonzero values of `h` are computed on first use and kept, so read them
    without editing.  Every zero value of `p` and `h` is one shared read-only
    empty sum.  A matched pair is checked the first time either cell is
    read; `match(cell)` hands out the checked (status, partner).
    """

    def __init__(self, diff, match, degree):
        self._diff_fn = diff
        self._match = match
        self.degree = degree
        self._diff_cache: dict = {}
        self._status: dict = {}  # cell -> (status, partner)
        self._weight: dict = {}  # lower cell -> dotted weight
        self._p_cache: dict = {}
        self._h_cache: dict = {}
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
            # a copy without the matched term, whose coefficient `_read` found nonzero
            d = d.scale(1)
            del d.terms[lo]
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
            got = _ZERO
        else:
            key = ("p", cell)
            if key in self._busy:
                raise ValueError("zigzag cycle detected")
            self._busy.add(key)
            got = FormalSum().add_composite(self.thick(hi), self.p, self._weight[cell]) or _ZERO
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
        got = self._h_cache.get(cell)
        if got is None:
            st, hi = self.match(cell)
            if st != "lower":
                return _ZERO
            walk, c = self._walk_up(hi), -self._weight[cell]
            # a unit weight hands out the kept walk itself, not a copy
            got = self._h_cache[cell] = walk if c == 1 else walk.scale(c)
        return got

    def morse_diff(self, cell) -> FormalSum:
        """Differential induced on critical cells."""
        if self.status(cell) != "critical":
            raise ValueError(f"morse_diff expects a critical cell, got {cell!r}")
        return self.diff(cell).map_terms(self.p)


def verify_sdr(cx: BasedComplex, cells) -> list[str]:
    """Check the transfer identities on `cells`, taken in degree order; return
    human-readable violations.  A zero d(c), h(c) or p(c) is not composed: its
    composites are zero."""
    bad = []
    cells = sorted(cells, key=cx.degree)
    for c in cells:
        dc = cx.diff(c)
        if dc and dc.map_terms(cx.diff):
            bad.append(f"d∘d != 0 at {c!r}")
        hc, pc = cx.h(c), cx.p(c)
        # c - i∘p(c) - d∘h(c) - h∘d(c), tested for zero
        defect = FormalSum.lift(c).add_composite(pc, cx.i, -1)
        defect.add_composite(hc, cx.diff, -1).add_composite(dc, cx.h, -1)
        if defect:
            bad.append(f"id - i∘p != d∘h + h∘d at {c!r}")
        if hc and hc.map_terms(cx.h):
            bad.append(f"h∘h != 0 at {c!r}")
        if hc and hc.map_terms(cx.p):
            bad.append(f"p∘h != 0 at {c!r}")
    for c in cells:
        if cx.status(c) == "critical":
            ic = cx.i(c)
            if FormalSum.lift(c, -1).add_composite(ic, cx.p):
                bad.append(f"p∘i != id at {c!r}")
            if ic.map_terms(cx.h):
                bad.append(f"h∘i != 0 at {c!r}")
    return bad
