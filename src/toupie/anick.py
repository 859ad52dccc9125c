"""The minimal bimodule resolution indexed by chains.

Same word cells as the reduced bar complex, with coefficients in A (x) A: a
term is (left path, cell, right path), both decorations in normal form, and the
bar complex's chain matching leaves one generator per chain.
"""
from __future__ import annotations

from .chains import ChainGraph
from .presentation import FormalSum, Path, compose, qdiv
from .rewriting import GroebnerData

__all__ = ["AnickResolution", "betti_numbers"]


def betti_numbers(gd: GroebnerData, up_to: int) -> list[int]:
    """Ranks of the minimal resolution: vertices, then chain counts per degree."""
    cg = ChainGraph(gd)
    ranks = [len(gd.quiver.vertices)]
    for d in range(up_to):
        count = len(cg.chains(d))
        if not count:
            # chains nest, so past the first empty degree every rank is zero
            return ranks + [0] * (up_to - d)
        ranks.append(count)
    return ranks


class AnickResolution:
    """The two-sided resolution collapsed along the bar complex's chain matching.

    The two-sided differential of [w1|...|wn] is w1 (x) [w2|...|wn] minus the
    bar differential plus (-1)^n [w1|...|w_{n-1}] (x) wn.  The projection p
    onto the chains is zero on an upper cell hi, so p(d(hi)) = 0, which gives
    p of its lower partner w, whose coefficient c in `cx.diff(hi)` is nonzero:

        p(w) = (p(end terms of hi) - sum of c_y p(y) over y in cx.thick(hi)) / c.

    A chain's differential is the same with `cx.diff(chain)` for thick, undivided.
    """

    def __init__(self, gd: GroebnerData):
        from . import morse

        # the chain matching, its pair checks and the merges are the bar complex's
        sdr = morse.BarSDR(gd)
        self.gd = gd
        self.cg = sdr.cg
        self.cx = sdr.complex
        self._p_cache: dict = {}
        self._d_cache: dict = {}

    def _sandwich(self, term, fn) -> FormalSum:
        """left * fn(y) * right for a term (left, y, right), in normal form."""
        left, y, right = term
        out = FormalSum()
        for (l2, cell, r2), c in fn(y).terms.items():
            for lp, lc in self.gd.normal_form(compose(left, l2)).terms.items():
                for rp, rc in self.gd.normal_form(compose(r2, right)).terms.items():
                    out.add_term((lp, cell, rp), c * lc * rc)
        return out

    def _p_of_d(self, word, inner: FormalSum) -> FormalSum:
        """p of the two-sided differential of `word`, whose bar part is `inner`."""
        w1, wn = word[0], word[-1]
        e_s, e_t = Path(w1.source, ()), Path(wn.target, ())
        if len(word) == 1:
            out = FormalSum({(w1, e_t, e_t): 1, (e_s, e_s, w1): -1})
        else:
            out = self._sandwich((w1, word[1:], e_t), self.p)
            out.add_scaled(self._sandwich((e_s, word[:-1], wn), self.p), (-1) ** len(word))
        return out.add_composite(inner, self.p, -1)

    def p(self, word) -> FormalSum:
        """Projection of a word onto the chains; kept and shared, so callers only read it."""
        got = self._p_cache.get(word)
        if got is None:
            st, hi = self.cx.match(word)
            if st == "critical":
                got = FormalSum.lift((Path(word[0].source, ()), word, Path(word[-1].target, ())))
            elif st == "upper":
                got = FormalSum()
            else:
                c = self.cx.diff(hi).coeff(word)
                got = self._p_of_d(hi, self.cx.thick(hi)).scale(qdiv(1, c))
            self._p_cache[word] = got
        return got

    def differential(self, chain) -> FormalSum:
        """Induced differential on a chain; kept and shared, so callers only read it."""
        got = self._d_cache.get(chain)
        if got is None:
            if self.cx.status(chain) != "critical":
                raise ValueError(f"not a chain generator: {chain!r}")
            got = self._d_cache[chain] = self._p_of_d(chain, self.cx.diff(chain))
        return got

    def augmentation(self, fs: FormalSum) -> FormalSum:
        """Multiply the two decorations through a degree-0 cell."""
        out = FormalSum()
        for (l, cell, r), c in fs.terms.items():
            if not (isinstance(cell, Path) and cell.is_trivial):
                raise ValueError(f"augmentation needs degree-0 terms, got {cell!r}")
            for q, cq in self.gd.normal_form(compose(l, r)).terms.items():
                out.add_term(q, c * cq)
        return out

    def check(self, max_degree: int) -> dict:
        """Exactness data: d∘d, augmentation∘d1, and minimality, per degree."""
        report = {"square_zero": True, "augmented": True, "minimal": True, "violations": []}
        for d in range(1, max_degree + 1):
            chains = self.cg.chains(d - 1)
            if not chains:
                break  # chains nest: every later layer is empty too
            for chain in chains:
                dv = self.differential(chain)
                for l, y, r in dv.terms:
                    if l.is_trivial and r.is_trivial:
                        report["minimal"] = False
                        report["violations"].append(f"non-minimal term at {chain!r}")
                if d == 1:
                    if self.augmentation(dv):
                        report["augmented"] = False
                        report["violations"].append(f"augmentation does not kill d({chain!r})")
                elif FormalSum().add_composite(dv, lambda t: self._sandwich(t, self.differential)):
                    report["square_zero"] = False
                    report["violations"].append(f"d∘d != 0 at {chain!r}")
        return report
