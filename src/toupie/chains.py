"""Chains: the overlap graph of tips and its admissible words.

A word [w1|...|w_{n+1}] of nontrivial nontips is an n-chain when w1 is an
arrow and every product w_i w_{i+1} lands in the tip ideal while no proper
prefix of it does.  Each nontrivial path lies in one branch, so a letter w_i
has exactly one candidate successor: its cut, the shortest path v after w_i
with w_i v in the tip ideal (`TipIdeal.cut`).  w_{i+1} must be that cut and a
nontip.  So every chain is a prefix of its first arrow's *run*, the word that
starts at the arrow and appends cuts while they exist and are nontips.  Chains
are the critical cells of the bar resolution and index its minimal model; each
chain is determined by its underlying path, and parsing a path back into its
chain word is one lookup of its length among the run prefixes of its first
arrow.
"""
from __future__ import annotations

from .presentation import Path
from .rewriting import GroebnerData

__all__ = ["ChainGraph", "underlying_path"]


def underlying_path(word) -> Path:
    """The letters of `word` composed in order (ValueError if they do not compose)."""
    if len(word) == 1:
        return word[0]
    for p, q in zip(word, word[1:]):
        if p.target != q.source:
            raise ValueError(f"paths not composable: {p!r} ends at {p.target!r}, {q!r} starts at {q.source!r}")
    return Path(word[0].source, [a for w in word for a in w.arrows])


class ChainGraph:
    """Checks, parses and enumerates chain words over the tips of `gd`.

    Holds one run per arrow (`runs`) and, per arrow, a map from the path
    length of each run prefix to its letter count (`prefix_letters`); every
    chain question is answered from these two tables.
    """

    def __init__(self, gd: GroebnerData):
        self.gd = gd
        ideal = gd.tip_ideal
        self.runs: dict = {}
        self.prefix_letters: dict = {}
        for a in gd.quiver.arrows:
            # every tip has length >= 2, so every arrow is a nontip
            run = [Path(a.src, (a,))]
            letters = {1: 1}
            size = 1
            while (v := ideal.cut(run[-1])) is not None and v not in ideal:
                run.append(v)
                size += len(v)
                letters[size] = len(run)
            self.runs[a] = tuple(run)
            self.prefix_letters[a] = letters
        self._chain_paths: dict = {}
        # the cuts of branch intervals into two or more chains, shared by every
        # `decompositions` call, keyed (first arrow, length, blocks, degree)
        self._walk: dict = {}

    # -- words ---------------------------------------------------------------

    def prefix_chain_length(self, word) -> int:
        """Largest k such that the first k letters form a chain (0 if none)."""
        if not word or len(word[0]) != 1:
            return 0
        run = self.runs[word[0].arrows[0]]
        k = 1
        while k < len(word) and k < len(run) and word[k] is run[k]:
            k += 1
        return k

    def is_chain(self, word) -> bool:
        return len(word) > 0 and self.prefix_chain_length(word) == len(word)

    def path(self, word) -> Path:
        """The underlying path of `word`, kept once read."""
        got = self._chain_paths.get(word)
        if got is None:
            got = self._chain_paths[word] = underlying_path(word)
        return got

    def parse(self, path: Path):
        """The chain word with underlying path `path`, or None."""
        if len(path) == 0:
            return None
        a = path.arrows[0]
        k = self.prefix_letters[a].get(len(path))
        return None if k is None else self.runs[a][:k]

    def chains(self, degree: int):
        """All chains of the given degree (a d-chain has d+1 letters), d >= 0."""
        layer = [run[: degree + 1] for run in self.runs.values() if len(run) > degree]
        # one chain per first arrow, and arrow names are unique, so this key
        # orders the layer as the underlying paths' sort keys do
        layer.sort(key=lambda w: (sum(map(len, w)), w[0].source, w[0].arrows[0].name))
        return layer

    def max_chain_degree(self) -> int:
        return max(map(len, self.runs.values()), default=0) - 1

    def decompositions(self, word, n: int, degree: int):
        """All ways to cut the underlying path into n consecutive chains of
        total degree `degree`, in increasing order of the cut positions.

        Returns tuples of chain words, in a list shared with later calls: read
        it without editing.  Cuts run over the path, not the letter
        boundaries: a block may end mid-letter as long as it parses.
        """
        path = underlying_path(word)
        return self._tails(path.arrows[0], len(path), n, degree)

    def _tails(self, a, size: int, left: int, deg: int) -> list:
        # the cuts of the branch interval of `size` arrows from arrow `a` into
        # `left` chains of total degree `deg`; a d-chain spans >= d + 1 arrows
        if size < deg + left:
            return []
        if left == 1:
            k = self.prefix_letters[a].get(size)
            return [(self.runs[a][:k],)] if k == deg + 1 else []
        key = (a, size, left, deg)
        got = self._walk.get(key)
        if got is None:
            got = self._walk[key] = []
            run = self.runs[a]
            ideal = self.gd.tip_ideal
            b, i = ideal.at[a]
            arrows = ideal.branches[b].arrows
            # the first block is a run prefix that fits
            for length, k in self.prefix_letters[a].items():
                if k - 1 > deg or length >= size:
                    break
                head = run[:k]
                rest = self._tails(arrows[i + length], size - length, left - 1, deg - k + 1)
                got.extend((head,) + t for t in rest)
        return got
