"""The reduced bar complex, its chain matching, and closed-form transfer maps.

Cells in degree n are words [a1|...|an] of nontrivial nontips with composable
underlying paths (degree 0: a vertex).  The matching pairs each non-chain word
across one degree: words whose longest chain prefix cannot be extended inside
the next letter merge down; the rest split up.  Critical cells are exactly the
chain words, and the transfer maps of the matching admit closed forms on
*attached* words (all adjacent letter products in the tip ideal), implemented
here next to the generic zigzag oracle for cross-checking.
"""
from __future__ import annotations

from . import zigzag
from .chains import ChainGraph
from .presentation import FormalSum, Path, compose
from .rewriting import GroebnerData
from .zigzag import BasedComplex

__all__ = ["bar_words", "bar_differential", "classify_word", "BarSDR"]


def _word_key(word):
    # the underlying path's sort_key and the letter lengths, without building the path
    names = sum([p.names for p in word], ())
    return (len(names), word[0].source, names), tuple(map(len, word))


def bar_words(gd: GroebnerData, max_degree: int | None = None) -> dict[int, list]:
    """Stacked-word cells by degree, up to `max_degree` (all of them when
    None); degree 0 holds the vertices as trivial paths."""
    starting_at: dict = {}
    for ps in gd.nontips_by_degree.values():
        for p in ps:
            if not p.is_trivial:
                starting_at.setdefault(p.source, []).append(p)
    by_deg: dict[int, list] = {0: [Path(v, ()) for v in gd.quiver.vertices]}
    layer = [(p,) for ps in starting_at.values() for p in ps]
    d = 1
    while layer and (max_degree is None or d <= max_degree):
        by_deg[d] = sorted(layer, key=_word_key)
        if d == max_degree:
            break
        layer = [w + (p,) for w in layer for p in starting_at.get(w[-1].target, ())]
        d += 1
    return by_deg


def bar_differential(gd: GroebnerData, word) -> FormalSum:
    """Merge adjacent letters, alternating signs, first merge positive.

    Merged letters are taken in normal form; a merge that dies in the quotient
    drops out.  Degree 0 and 1 cells have zero differential.
    """
    out = FormalSum()
    if isinstance(word, Path) or len(word) < 2:
        return out
    for j in range(len(word) - 1):
        merged = gd.normal_form(compose(word[j], word[j + 1]))
        for q, c in merged.terms.items():
            out.add_term(word[:j] + (q,) + word[j + 2 :], (-1) ** j * c)
    return out


def classify_word(cg: ChainGraph, word):
    """('critical', None) | ('lower', split partner) | ('upper', merge partner)."""
    k = cg.prefix_chain_length(word)
    if k == len(word):
        return "critical", None
    w = word[k]
    if k == 0:
        # first letter is not an arrow: split off its first arrow
        pr_len = 1
    else:
        cut = cg.gd.tip_ideal.cut(word[k - 1])
        if cut is None or len(cut) > len(w):
            # nothing to split: this word absorbs its successor instead
            merged = compose(word[k - 1], w)
            return "upper", word[: k - 1] + (merged,) + word[k + 1 :]
        pr_len = len(cut)
        if pr_len == len(w):
            # w is the prefix's cut but no run letter, so a tip: no bar word has one
            raise ValueError(f"letter {w!r} lies in the tip ideal: {word!r}")
    split = word[:k] + (w.slice(0, pr_len), w.slice(pr_len, len(w))) + word[k + 1 :]
    return "lower", split


def build_matching(cg: ChainGraph):
    """The chain matching as a function of a cell: a vertex is critical, a
    word goes to `classify_word`."""

    def match(cell):
        if isinstance(cell, Path):
            return "critical", None
        return classify_word(cg, cell)

    return match


def _cell_degree(cell) -> int:
    return 0 if isinstance(cell, Path) else len(cell)


class BarSDR:
    """Closed transfer maps on the reduced bar complex, checked against the zigzag oracle."""

    def __init__(self, gd: GroebnerData):
        self.gd = gd
        self.cg = ChainGraph(gd)
        self._cx: BasedComplex | None = None

    @property
    def complex(self) -> BasedComplex:
        if self._cx is None:
            # the differential closes over gd, not self: no BarSDR <-> complex cycle,
            # so a finished job frees its bar complex without the cyclic collector
            gd = self.gd
            self._cx = BasedComplex(
                lambda w: bar_differential(gd, w), build_matching(self.cg), _cell_degree
            )
        return self._cx

    # -- closed forms ----------------------------------------------------------

    def is_attached(self, word) -> bool:
        """Every adjacent letter product falls in the tip ideal."""
        if isinstance(word, Path):
            return False
        ideal = self.gd.tip_ideal
        return all(compose(a, b) in ideal for a, b in zip(word, word[1:]))

    def _split_merge(self, word):
        """Iterated split-and-merge on an attached non-chain: (homotopy terms, projection)."""
        h = FormalSum()
        cur = word
        while True:
            kind, split = classify_word(self.cg, cur)
            if kind == "critical":
                return h, FormalSum.lift(cur)
            if kind == "upper":
                raise ValueError(f"input not attached: {cur!r}")
            # the split cut letter k of cur into split[k] and split[k + 1]
            k = self.cg.prefix_chain_length(cur)
            h.add_term(split, (-1) ** k)
            if self.cg.is_chain(split):
                # can only happen on formal words whose own letters hide a tip
                return h, FormalSum.lift(split)
            if k + 1 == len(cur):
                return h, FormalSum()
            merged = self.gd.normal_form(compose(split[k + 1], cur[k + 1]))
            if merged.is_zero:
                return h, FormalSum()
            ((q, c),) = merged.terms.items()
            if c != 1 or len(merged.terms) != 1:
                raise AssertionError(f"merged letter not a single path: {merged!r}")
            cur = split[: k + 1] + (q,) + cur[k + 2 :]

    def _closed(self, word):
        """(homotopy, projection) in closed form on a chain or an attached word;
        None on any other word."""
        if self.cg.is_chain(word):
            return FormalSum(), FormalSum.lift(word)
        if self.is_attached(word):
            return self._split_merge(word)
        return None

    def sdr_h(self, word) -> FormalSum:
        """Closed homotopy; defined on chains (zero) and attached words."""
        got = self._closed(word)
        if got is None:
            raise ValueError(f"input not attached: {word!r}")
        return got[0]

    def sdr_p(self, word) -> FormalSum:
        """Closed projection; defined on chains (themselves) and attached words."""
        got = self._closed(word)
        if got is None:
            raise ValueError(f"input not attached: {word!r}")
        return got[1]

    def sdr_i(self, word) -> FormalSum:
        """Closed inclusion of a chain: nontrivial only on 1-chains over long relations."""
        if not self.cg.is_chain(word):
            raise ValueError(f"not a chain: {word!r}")
        if len(word) != 2:
            return FormalSum.lift(word)
        tip = self.cg.path(word)
        out = FormalSum()
        for q, c in self.gd.tip_inverse(tip).terms.items():
            out.add_term((q.slice(0, 1), q.slice(1, len(q))), c)
        return out

    # -- verification ------------------------------------------------------------

    def verify(self, max_degree: int | None = None) -> list[str]:
        """Oracle identities plus closed-vs-oracle agreement on the cells of
        degree <= `max_degree` (all when None); returns violations."""
        cells = [w for ws in bar_words(self.gd, max_degree).values() for w in ws]
        cx = self.complex
        bad = zigzag.verify_sdr(cx, cells)
        for w in cells:
            # the closed forms are defined on chains and attached words only
            got = self._closed(w)
            if got is None:
                continue
            h, p = got
            if p != cx.p(w):
                bad.append(f"closed p != oracle p at {w!r}")
            if h != cx.h(w):
                bad.append(f"closed h != oracle h at {w!r}")
            if self.cg.is_chain(w) and self.sdr_i(w) != cx.i(w):
                bad.append(f"closed i != oracle i at {w!r}")
        return bad
