"""Chains: the overlap graph of tips and its admissible words.

A word [w1|...|w_{n+1}] of nontrivial nontips is an n-chain when w1 is an
arrow and every product w_i w_{i+1} lands in the tip ideal while no proper
prefix of it does.  Each nontrivial path lies in one branch, so a letter w_i
has exactly one candidate successor: its cut, the shortest path v after w_i
with w_i v in the tip ideal (`TipIdeal.cut`).  w_{i+1} must be that cut and a
nontip.  Chains are the critical cells of the bar resolution and index its
minimal model; each chain is determined by its underlying path, and parsing a
path back into its chain word follows the cuts from its first arrow.
"""
from __future__ import annotations

from itertools import combinations

from .presentation import Path, compose
from .rewriting import GroebnerData

__all__ = ["ChainGraph", "underlying_path"]


def underlying_path(word) -> Path:
    p = word[0]
    for w in word[1:]:
        p = compose(p, w)
    return p


class ChainGraph:
    """Checks, parses and enumerates chain words over the tips of `gd`."""

    def __init__(self, gd: GroebnerData):
        self.gd = gd
        self._parse_cache: dict = {}

    # -- words ---------------------------------------------------------------

    def prefix_chain_length(self, word) -> int:
        """Largest k such that the first k letters form a chain (0 if none)."""
        if not word or len(word[0]) != 1:
            return 0
        ideal = self.gd.tip_ideal
        k = 1
        while k < len(word):
            x = word[k]
            if x is not ideal.cut(word[k - 1]) or x in ideal:
                break
            k += 1
        return k

    def is_chain(self, word) -> bool:
        return len(word) > 0 and self.prefix_chain_length(word) == len(word)

    def parse(self, path: Path):
        """The chain word with underlying path `path`, or None.

        The first letter is the first arrow, each next letter the cut of the
        one before; the path parses when the cuts tile it and are nontips.
        """
        got = self._parse_cache.get(path, False)
        if got is not False:
            return got
        word = self._parse(path)
        self._parse_cache[path] = word
        return word

    def _parse(self, path: Path):
        if len(path) == 0:
            return None
        ideal = self.gd.tip_ideal
        letters = [path.slice(0, 1)]
        i = 1
        while i < len(path):
            v = ideal.cut(letters[-1])
            if v is None or i + len(v) > len(path) or v in ideal:
                return None
            letters.append(v)  # the cut starts where the path goes on
            i += len(v)
        return tuple(letters)

    def chains(self, degree: int):
        """All chains of the given degree (a d-chain has d+1 letters), d >= 0."""
        got = getattr(self, "_chains", None)
        if got is None:
            got = self._chains = {}
        ideal = self.gd.tip_ideal
        while degree >= len(got):
            d = len(got)
            if d == 0:
                # every tip has length >= 2, so every arrow is a nontip
                layer = [(Path(a.src, (a,)),) for a in self.gd.quiver.arrows]
            else:
                layer = []
                for word in got[d - 1]:
                    v = ideal.cut(word[-1])
                    if v is not None and v not in ideal:
                        layer.append(word + (v,))
            got[d] = sorted(layer, key=lambda w: underlying_path(w).sort_key())
        return got[degree]

    def max_chain_degree(self) -> int:
        d = 0
        while self.chains(d):
            d += 1
        return d - 1

    def decompositions(self, word, n: int):
        """All ways to cut the underlying path into n consecutive chains.

        Returns tuples of chain words.  Cuts run over the path, not the letter
        boundaries: a block may end mid-letter as long as it parses.
        """
        path = underlying_path(word)
        out = []
        for cuts in combinations(range(1, len(path)), n - 1):
            bounds = (0,) + cuts + (len(path),)
            blocks = []
            for a, b in zip(bounds, bounds[1:]):
                blk = self.parse(path.slice(a, b))
                if blk is None:
                    break
                blocks.append(blk)
            else:
                out.append(tuple(blocks))
        return out
