import json

import pytest
from hypothesis import given, settings

from tests.conftest import (
    anick_reference,
    fixed_violators,
    lines_presentation,
    monomial_presentations,
    overlap_monomial_presentation,
    plain_beside_quadratic_presentation,
    single_chain_presentation,
    three_branch_presentation,
)
from toupie import morse
from toupie.anick import AnickResolution, betti_numbers
from toupie.chains import ChainGraph
from toupie.cli import main, presentation_payload
from toupie.presentation import FormalSum, Path
from toupie.random_presentations import random_presentation
from toupie.rewriting import build_groebner


def test_degree_one_differential(three_branch):
    gd = build_groebner(three_branch)
    res = AnickResolution(gd)
    q = gd.quiver
    a1 = q.path("a1")
    d = res.differential((a1,))
    assert d == FormalSum(
        {(a1, Path("a12", ()), Path("a12", ())): 1, (Path("0", ()), Path("0", ()), a1): -1}
    )
    assert res.augmentation(d).is_zero


def test_degree_two_differential_rewrites_tail(three_branch):
    gd = build_groebner(three_branch)
    res = AnickResolution(gd)
    q = gd.quiver
    b1, b2, c1, c2 = (q.path(n) for n in ("b1", "b2", "c1", "c2"))
    e0, ew = Path("0", ()), Path("w", ())
    d = res.differential((b1, b2))
    assert d == FormalSum(
        {
            (b1, (b2,), ew): 1,
            (e0, (b1,), b2): 1,
            (c1, (c2,), ew): -1,
            (e0, (c1,), c2): -1,
        }
    )


def test_projection_of_rewritable_word(three_branch):
    gd = build_groebner(three_branch)
    res = AnickResolution(gd)
    q = gd.quiver
    c1, c2 = q.path("c1"), q.path("c2")
    c12 = q.path("c1", "c2")
    assert res.p((c12,)) == FormalSum(
        {(c1, (c2,), Path("w", ())): 1, (Path("0", ()), (c1,), c2): 1}
    )


def test_resolution_checks(three_branch, overlap_monomial):
    for pres, expected in (
        (three_branch, [6, 7, 2, 0]),
        (overlap_monomial, [4, 3, 2, 1]),
    ):
        gd = build_groebner(pres)
        assert betti_numbers(gd, len(expected) - 1) == expected
        report = AnickResolution(gd).check(5)
        assert report["violations"] == []
        assert report["square_zero"] and report["augmented"] and report["minimal"]


def test_resolution_checks_longer_tips():
    for tips in ([["d1", "d2", "d3"], ["d3", "d4"]], [["d1", "d2", "d3"], ["d2", "d3", "d4"]]):
        gd = build_groebner(single_chain_presentation(tips))
        report = AnickResolution(gd).check(5)
        assert report["violations"] == []


def assert_matches_the_reference(pres, max_degree=None):
    """`p` on every bar word of degree 1 to `max_degree` (all when None) and
    `differential` on every chain equal the triple-building reference."""
    gd = build_groebner(pres)
    res = AnickResolution(gd)
    ref_p, ref_differential = anick_reference(gd)
    words = morse.bar_words(gd, max_degree)
    for d in range(1, len(words)):
        for w in words[d]:
            assert res.p(w) == ref_p(w), w
    for d in range(res.cg.max_chain_degree() + 1):
        for chain in res.cg.chains(d):
            assert res.differential(chain) == ref_differential(chain), chain


@pytest.mark.parametrize(
    "pres",
    [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        single_chain_presentation([["d1", "d2", "d3"], ["d3", "d4"]]),
        single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]]),
        plain_beside_quadratic_presentation(3),
        lines_presentation(2, 6, 3),
    ]
    + [pres for _, pres in fixed_violators()],
    ids=["three-branch", "overlap", "cubic-overlap", "cubic-pair", "plain-quadratic", "2xline-6-3"]
    + [f"violator-{i}" for i in range(len(fixed_violators()))],
)
def test_projection_and_differential_match_the_reference_on_fixtures(pres):
    assert_matches_the_reference(pres)


@pytest.mark.parametrize("seed", range(30))
def test_projection_and_differential_match_the_reference_on_random_presentations(seed):
    assert_matches_the_reference(random_presentation(seed))


@given(monomial_presentations())
@settings(max_examples=40, deadline=None)
def test_projection_and_differential_match_the_reference_on_overlapping_monomials(pres):
    assert_matches_the_reference(pres, 4)


def _flip_first_term(letters: int):
    """`_p_of_d` with the sign of its first term flipped on words of `letters` letters."""
    p_of_d = AnickResolution._p_of_d

    def corrupted(self, word, inner):
        out = p_of_d(self, word, inner)
        if len(word) == letters:
            out = FormalSum(out.terms)
            first = next(iter(out.terms))
            out.terms[first] = -out.terms[first]
        return out

    return corrupted


def _with_undecorated_term(self, chain, differential=AnickResolution.differential):
    """`differential` plus the term (e, (w1,), e) on 2-letter chains."""
    out = differential(self, chain)
    if len(chain) == 2:
        w1 = chain[0]
        out = FormalSum(out.terms)
        out.add_term((Path(w1.source, ()), (w1,), Path(w1.target, ())), 1)
    return out


ONE_LETTER_AUGMENTATION = [
    f"augmentation does not kill d(({x},))" for x in ("a1", "b1", "c1", "a2", "a3", "b2", "c2")
]
SQUARE_DEFECTS = ["d∘d != 0 at (b1, b2)", "d∘d != 0 at (a1, a2*a3)"]


@pytest.mark.parametrize(
    "attr, corrupted, flags, violations",
    [
        (
            "_p_of_d",
            _flip_first_term(1),
            (False, False, True),
            ONE_LETTER_AUGMENTATION + SQUARE_DEFECTS,
        ),
        ("_p_of_d", _flip_first_term(2), (False, True, True), SQUARE_DEFECTS),
        (
            "differential",
            _with_undecorated_term,
            (False, True, False),
            [
                "non-minimal term at (b1, b2)",
                SQUARE_DEFECTS[0],
                "non-minimal term at (a1, a2*a3)",
                SQUARE_DEFECTS[1],
            ],
        ),
    ],
    ids=["augmentation", "square-zero", "minimality"],
)
def test_resolution_check_reports_each_violation(monkeypatch, attr, corrupted, flags, violations):
    monkeypatch.setattr(AnickResolution, attr, corrupted)
    report = AnickResolution(build_groebner(three_branch_presentation())).check(3)
    assert (report["square_zero"], report["augmented"], report["minimal"]) == flags
    assert report["violations"] == violations


def test_resolution_check_command_exits_1_on_a_violation(monkeypatch, capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(presentation_payload(three_branch_presentation())))
    monkeypatch.setattr(AnickResolution, "_p_of_d", _flip_first_term(2))
    code = main(["resolution-check", str(path), "--degree", "3", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["status"]) == (1, "violation")
    assert report["result"]["square_zero"] is False
    assert report["result"]["violations"] == SQUARE_DEFECTS


def _unmatched_upper(monkeypatch, gd):
    """`classify_word` with the upper cell (c1, c2) claimed critical, so its
    lower partner (c1*c2,) finds no partner that matches back."""
    q = gd.quiver
    upper = (q.path("c1"), q.path("c2"))
    classify_word = morse.classify_word
    assert classify_word(ChainGraph(gd), upper) == ("upper", (q.path("c1", "c2"),))
    monkeypatch.setattr(
        morse,
        "classify_word",
        lambda cg, word: ("critical", None) if word == upper else classify_word(cg, word),
    )


UNMATCHED = "(c1, c2) does not match back to (c1*c2,)"


def test_projection_reads_the_checked_bar_matching(monkeypatch):
    gd = build_groebner(three_branch_presentation())
    _unmatched_upper(monkeypatch, gd)
    with pytest.raises(ValueError) as err:
        AnickResolution(gd).check(3)
    assert str(err.value) == UNMATCHED


def test_unmatched_pair_is_a_violation_report(monkeypatch, capsys, tmp_path):
    pres = three_branch_presentation()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(presentation_payload(pres)))
    _unmatched_upper(monkeypatch, build_groebner(pres))
    code = main(["resolution-check", str(path), "--degree", "3", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["status"], report["result"]) == (1, "violation", {"reason": UNMATCHED})


def test_resolution_check_stops_at_the_longest_chain(monkeypatch, capsys, tmp_path):
    pres = three_branch_presentation()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(presentation_payload(pres)))
    calls = []
    chains = ChainGraph.chains
    monkeypatch.setattr(ChainGraph, "chains", lambda cg, d: calls.append(d) or chains(cg, d))
    code = main(["resolution-check", str(path), "--degree", "1000", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["status"]) == (0, "ok")
    assert report["result"]["betti"] == [6, 7, 2] + [0] * 998
    # one pass of the check and one of the ranks, each up to the first empty layer
    top = ChainGraph(build_groebner(pres)).max_chain_degree()
    assert len(calls) <= 2 * (top + 2)
