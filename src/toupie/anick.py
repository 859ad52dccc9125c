"""The minimal bimodule resolution indexed by chains.

Same word cells as the reduced bar complex, but with coefficients in the
bimodule A (x) A: each term of a differential is (left path, cell, right path)
with both decorations in normal form.  The standard two-sided differential
splits letters off both ends and merges inside; collapsing with the chain
matching leaves one generator per chain, and the induced differential is
computed by the same projection recursion, now transporting the decorations.
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
    def __init__(self, gd: GroebnerData):
        from . import morse

        # the chain matching, its pair checks and the merges are the bar complex's
        sdr = morse.BarSDR(gd)
        self.gd = gd
        self.cg = sdr.cg
        self.cx = sdr.complex
        self._p_cache: dict = {}
        self._d_cache: dict = {}

    # -- the two-sided word differential -------------------------------------

    def bimodule_diff(self, cell) -> FormalSum:
        """Terms (left, cell, right); ends split off, middles merge in normal form."""
        out = FormalSum()
        if not isinstance(cell, Path):
            word = cell
            n = len(word)
            src = word[0].source
            tgt = word[-1].target
            out.add_term((word[0], word[1:] if n > 1 else Path(tgt, ()), Path(tgt, ())), 1)
            # the inner merges are the bar differential's, each sign flipped:
            # (-1)^(j+1) = -(-1)^j
            for w, c in self.cx.diff(word).terms.items():
                out.add_term((Path(src, ()), w, Path(tgt, ())), -c)
            out.add_term(
                (Path(src, ()), word[:-1] if n > 1 else Path(src, ()), word[-1]),
                (-1) ** n,
            )
        return out

    def _sandwich(self, left: Path, right: Path, fs: FormalSum) -> FormalSum:
        out = FormalSum()
        for (l2, cell, r2), c in fs.terms.items():
            for lp, lc in self.gd.normal_form(compose(left, l2)).terms.items():
                for rp, rc in self.gd.normal_form(compose(r2, right)).terms.items():
                    out.add_term((lp, cell, rp), c * lc * rc)
        return out

    # -- transfer to the chain generators -------------------------------------

    def p(self, cell) -> FormalSum:
        got = self._p_cache.get(cell)
        if got is not None:
            return got
        st, partner = self.cx.match(cell)
        if st == "critical":
            src = cell.source if isinstance(cell, Path) else cell[0].source
            tgt = cell.target if isinstance(cell, Path) else cell[-1].target
            got = FormalSum.lift((Path(src, ()), cell, Path(tgt, ())))
        elif st == "upper":
            got = FormalSum()
        else:
            d_up = self.bimodule_diff(partner)
            src = cell[0].source
            tgt = cell[-1].target
            me = (Path(src, ()), cell, Path(tgt, ()))
            # minus the pair's bar coefficient, which `match` has checked is nonzero
            lam = d_up.coeff(me)
            got = FormalSum()
            for (l, y, r), c in d_up.terms.items():
                if (l, y, r) == me:
                    continue
                got.add_scaled(self._sandwich(l, r, self.p(y)), qdiv(-c, lam))
        self._p_cache[cell] = got
        return got

    def differential(self, chain) -> FormalSum:
        """Induced differential on a chain generator (or a vertex: zero); kept
        per chain and shared, so callers only read it."""
        got = self._d_cache.get(chain)
        if got is not None:
            return got
        if self.cx.status(chain) != "critical":
            raise ValueError(f"not a chain generator: {chain!r}")
        out = FormalSum()
        for (l, y, r), c in self.bimodule_diff(chain).terms.items():
            out.add_scaled(self._sandwich(l, r, self.p(y)), c)
        self._d_cache[chain] = out
        return out

    def augmentation(self, fs: FormalSum) -> FormalSum:
        """Multiply the two decorations through a degree-0 cell."""
        out = FormalSum()
        for (l, cell, r), c in fs.terms.items():
            if not (isinstance(cell, Path) and cell.is_trivial):
                raise ValueError(f"augmentation needs degree-0 terms, got {cell!r}")
            for q, cq in self.gd.normal_form(compose(l, r)).terms.items():
                out.add_term(q, c * cq)
        return out

    # -- checks ---------------------------------------------------------------

    def check(self, max_degree: int) -> dict:
        """Exactness data: d∘d, augmentation∘d1, and minimality, per degree."""
        report = {"square_zero": True, "augmented": True, "minimal": True, "violations": []}
        for d in range(1, max_degree + 1):
            chains = self.cg.chains(d - 1)
            if not chains:
                break  # chains nest: every later layer is empty too
            for chain in chains:
                dv = self.differential(chain)
                for (l, y, r), c in dv.terms.items():
                    if l.is_trivial and r.is_trivial:
                        report["minimal"] = False
                        report["violations"].append(f"non-minimal term at {chain!r}")
                if d == 1:
                    if self.augmentation(dv):
                        report["augmented"] = False
                        report["violations"].append(f"augmentation does not kill d({chain!r})")
                else:
                    dd = FormalSum()
                    for (l, y, r), c in dv.terms.items():
                        dd.add_scaled(self._sandwich(l, r, self.differential(y)), c)
                    if dd:
                        report["square_zero"] = False
                        report["violations"].append(f"d∘d != 0 at {chain!r}")
        return report
