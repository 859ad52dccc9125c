import gc
import weakref

import pytest

from tests.conftest import (
    brute_force_cut,
    lines_presentation,
    plain_beside_quadratic_presentation,
    single_chain_presentation,
    three_branch_presentation,
)
from toupie.chains import ChainGraph, underlying_path
from toupie.morse import BarSDR, bar_differential, bar_words, classify_word
from toupie.presentation import FormalSum, Path, compose
from toupie.random_presentations import random_presentation
from toupie.rewriting import build_groebner


def lift(*words):
    out = FormalSum()
    sign = 1
    for w in words:
        if w in (+1, -1):
            sign = w
            continue
        out.add_term(w, sign)
        sign = 1
    return out


def test_bar_cells_three_branch(three_branch):
    gd = build_groebner(three_branch)
    cells = bar_words(gd)
    assert [len(cells.get(d, ())) for d in range(5)] == [6, 10, 6, 1, 0]


def test_bar_differential_signs(three_branch):
    gd = build_groebner(three_branch)
    q = gd.quiver
    b1, b2 = q.path("b1"), q.path("b2")
    c12 = q.path("c1", "c2")
    # the first merge comes in positive; b1 b2 rewrites to c1 c2
    assert bar_differential(gd, (b1, b2)) == lift((c12,))
    a1, a2, a3 = q.path("a1"), q.path("a2"), q.path("a3")
    a12, a23 = q.path("a1", "a2"), q.path("a2", "a3")
    assert bar_differential(gd, (a1, a2, a3)) == lift((a12, a3), -1, (a1, a23))
    assert bar_differential(gd, (a1,)).is_zero
    assert bar_differential(gd, Path("0", ())).is_zero


def test_matching_pairs_three_branch(three_branch):
    gd = build_groebner(three_branch)
    cg = ChainGraph(gd)
    q = gd.quiver
    pairs = {
        (q.path("c1", "c2"),): (q.path("c1"), q.path("c2")),
        (q.path("a1", "a2"),): (q.path("a1"), q.path("a2")),
        (q.path("a2", "a3"),): (q.path("a2"), q.path("a3")),
        (q.path("a1", "a2"), q.path("a3")): (q.path("a1"), q.path("a2"), q.path("a3")),
    }
    for lo, hi in pairs.items():
        assert classify_word(cg, lo) == ("lower", hi)
        assert classify_word(cg, hi) == ("upper", lo)
    assert classify_word(cg, (q.path("b1"), q.path("b2")))[0] == "critical"
    assert classify_word(cg, (q.path("a1"), q.path("a2", "a3")))[0] == "critical"


def test_criticals_are_chains(three_branch, overlap_monomial):
    for pres in (three_branch, overlap_monomial):
        gd = build_groebner(pres)
        sdr = BarSDR(gd)
        cx = sdr.complex
        cells = bar_words(gd)
        for d in sorted(cells):
            crit = {c for c in cells[d] if cx.status(c) == "critical"}
            if d == 0:
                assert crit == set(cells[0])
            else:
                assert crit == set(sdr.cg.chains(d - 1))


def test_partner_of_partner(three_branch):
    gd = build_groebner(three_branch)
    sdr = BarSDR(gd)
    cx = sdr.complex
    lower = [w for ws in bar_words(gd).values() for w in ws if cx.status(w) == "lower"]
    assert lower
    for lo in lower:
        st, hi = classify_word(sdr.cg, lo)
        assert st == "lower" and cx.status(hi) == "upper"
        assert classify_word(sdr.cg, hi) == ("upper", lo)


def test_closed_maps_frozen_values(three_branch):
    gd = build_groebner(three_branch)
    sdr = BarSDR(gd)
    q = gd.quiver
    c12 = (q.path("c1", "c2"),)
    assert sdr._closed(c12) == (lift((q.path("c1"), q.path("c2"))), FormalSum())
    split = (q.path("a1", "a2"), q.path("a3"))
    assert sdr._closed(split) == (
        lift((q.path("a1"), q.path("a2"), q.path("a3"))),
        lift((q.path("a1"), q.path("a2", "a3"))),
    )
    # inclusion corrects 1-chains by the rest of their relation
    assert sdr.sdr_i((q.path("b1"), q.path("b2"))) == lift(
        (q.path("b1"), q.path("b2")), -1, (q.path("c1"), q.path("c2"))
    )
    assert sdr.sdr_i((q.path("a1"), q.path("a2", "a3"))) == lift(
        (q.path("a1"), q.path("a2", "a3")), -1, (q.path("c1"), q.path("c2"))
    )
    assert sdr.sdr_i((q.path("a1"),)) == lift((q.path("a1"),))
    assert sdr._closed((q.path("b1"), q.path("b2")))[0].is_zero


def test_closed_h_rejects_unattached(three_branch):
    gd = build_groebner(three_branch)
    sdr = BarSDR(gd)
    q = gd.quiver
    # (a1, a2) is neither a chain nor attached: no closed maps
    assert sdr._closed((q.path("a1"), q.path("a2"))) is None
    # (d2, d3d4): the second letter is the first one's cut, and a tip; no bar
    # word has such a letter, so the split rule and the closed maps refuse it
    gd = build_groebner(single_chain_presentation([["d1", "d2"], ["d3", "d4"]]))
    sdr = BarSDR(gd)
    word = (gd.quiver.path("d2"), gd.quiver.path("d3", "d4"))
    assert sdr.is_attached(word) and not sdr.cg.is_chain(word)
    for refuse in (sdr._closed, lambda w: classify_word(sdr.cg, w)):
        with pytest.raises(ValueError, match="lies in the tip ideal"):
            refuse(word)


def test_verify_catches_corrupted_closed_p(three_branch):
    gd = build_groebner(three_branch)
    sdr = BarSDR(gd)
    q = gd.quiver
    split = (q.path("a1", "a2"), q.path("a3"))
    assert sdr.is_attached(split) and not sdr.cg.is_chain(split)
    # verify reads both closed maps of a word from one `_closed` call
    closed = sdr._closed
    sdr._closed = lambda w: (closed(w)[0], closed(w)[1].scale(-1)) if w == split else closed(w)
    assert sdr._closed(split)[1] == sdr.complex.p(split).scale(-1)
    assert sdr.verify() == [f"closed p != oracle p at {split!r}"]


def test_verify_catches_corrupted_closed_i(three_branch):
    gd = build_groebner(three_branch)
    sdr = BarSDR(gd)
    q = gd.quiver
    chain = (q.path("a1"), q.path("a2", "a3"))
    # over the long relation a1a2a3 - c1c2 the inclusion carries a second term
    assert sdr.sdr_i(chain) == lift(chain) - lift((q.path("c1"), q.path("c2")))
    closed = sdr.sdr_i
    sdr.sdr_i = lambda w: lift(w) if w == chain else closed(w)
    assert sdr.verify() == [f"closed i != oracle i at {chain!r}"]


def test_formal_words_with_tip_letters():
    pres = single_chain_presentation([["d1", "d2"], ["d2", "d3"]])
    gd = build_groebner(pres)
    sdr = BarSDR(gd)
    q = gd.quiver
    w = (q.path("d1", "d2"), q.path("d3"))
    expected = lift((q.path("d1"), q.path("d2"), q.path("d3")))
    assert sdr._closed(w) == (expected, expected)


def test_monomial_algebra_has_no_matched_cells(overlap_monomial):
    gd = build_groebner(overlap_monomial)
    cx = BarSDR(gd).complex
    for cells in bar_words(gd).values():
        for w in cells:
            assert cx.status(w) == "critical"
            assert cx.morse_diff(w).is_zero


def test_induced_differential_vanishes(three_branch):
    gd = build_groebner(three_branch)
    cx = BarSDR(gd).complex
    for cells in bar_words(gd).values():
        for w in cells:
            if cx.status(w) == "critical":
                assert cx.morse_diff(w).is_zero


def test_closed_maps_match_oracle_everywhere(three_branch, overlap_monomial):
    for pres in (three_branch, overlap_monomial):
        assert BarSDR(build_groebner(pres)).verify() == []


def test_oracle_identities_on_longer_tips():
    pres = single_chain_presentation([["d1", "d2", "d3"], ["d3", "d4"]])
    assert BarSDR(build_groebner(pres)).verify() == []
    pres = single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]])
    assert BarSDR(build_groebner(pres)).verify() == []


def test_bar_complex_freed_without_the_cyclic_collector(three_branch):
    gd = build_groebner(three_branch)
    sdr = BarSDR(gd)
    assert not sdr.verify(2)
    cx = weakref.ref(sdr.complex)
    gc.disable()
    try:
        del sdr
        assert cx() is None
    finally:
        gc.enable()


def _classify_by_paths(cg, word):
    """Oracle for `classify_word`: the split and merge rule read off the cut
    found by brute force from the tips and the merge built by `compose`."""
    k = cg.prefix_chain_length(word)
    if k == len(word):
        return "critical", None
    w, pr_len = word[k], 1
    if k:
        cut = brute_force_cut(cg.gd, word[k - 1])
        if cut is None or len(cut) > len(w):
            return "upper", word[: k - 1] + (compose(word[k - 1], w),) + word[k + 1 :]
        pr_len = len(cut)
    return "lower", word[:k] + (w.slice(0, pr_len), w.slice(pr_len, len(w))) + word[k + 1 :]


@pytest.mark.parametrize(
    "make",
    [
        three_branch_presentation,
        lambda: plain_beside_quadratic_presentation(5),
        lambda: lines_presentation(2, 5, 2),
        lambda: lines_presentation(1, 10, 3),
        *[lambda seed=seed: random_presentation(seed) for seed in range(40)],
    ],
    ids=["running-example", "plain-5", "2xline-5-2", "line-10-3", *[f"random-{s}" for s in range(40)]],
)
def test_matching_branch_arithmetic_equals_the_path_rules(make):
    gd = build_groebner(make())
    sdr = BarSDR(gd)
    ideal = gd.tip_ideal
    for d, words in bar_words(gd, 4).items():
        if not d:
            continue
        # a layer in the order of its underlying paths, then of its letter lengths
        assert words == sorted(words, key=lambda w: (underlying_path(w).sort_key(), tuple(map(len, w))))
        for w in words:
            assert classify_word(sdr.cg, w) == _classify_by_paths(sdr.cg, w)
            assert sdr.is_attached(w) == all(compose(a, b) in ideal for a, b in zip(w, w[1:]))


def test_is_attached_refuses_letters_that_do_not_compose(three_branch):
    sdr = BarSDR(build_groebner(three_branch))
    q = sdr.gd.quiver
    with pytest.raises(ValueError, match="paths not composable"):
        sdr.is_attached((q.path("a1"), q.path("b2")))
