"""End-to-end gate: one test per advertised guarantee.

Everything here is exact rational arithmetic; the two timed tests assert the
stated wall-clock budgets on top of correctness.
"""

import time
from fractions import Fraction

import pytest

from tests.conftest import (
    fixed_violators,
    overlap_monomial_presentation,
    record_bar_differentials,
    three_branch_presentation,
    word_degree,
)
from toupie.ainf import (
    ExtAlgebra,
    TorCoalgebra,
    algebra_table,
    coalgebra_table,
    stasheff_algebra_defects,
    stasheff_coalgebra_defects,
)
from toupie.anick import AnickResolution, betti_numbers
from toupie.duality import (
    HypothesesError,
    double_dual,
    gr_algebra,
    hypotheses_check,
    ideal_equal,
    yoneda_presentation,
)
from toupie.morse import BarSDR, bar_words
from toupie.presentation import FormalSum
from toupie.random_presentations import random_presentation
from toupie.rewriting import build_groebner, special_basis


@pytest.fixture(scope="module")
def corpus():
    # default generator bounds: at most 5 branches of length at most 4
    return [random_presentation(seed) for seed in range(25)]


def test_01_ext_products_on_running_example_exact_and_fast():
    start = time.perf_counter()
    gd = build_groebner(three_branch_presentation())
    ext = ExtAlgebra(TorCoalgebra(gd))
    q = gd.quiver
    u = (q.path("a1"), q.path("a2", "a3"))
    v = (q.path("b1"), q.path("b2"))

    def dual(name):
        return (q.path(name),)

    table = algebra_table(ext, 5)
    expected = {
        2: {
            (dual("b1"), dual("b2")): FormalSum({v: Fraction(-1)}),
            (dual("c1"), dual("c2")): FormalSum({u: Fraction(1), v: Fraction(1)}),
        },
        3: {(dual("a1"), dual("a2"), dual("a3")): FormalSum({u: Fraction(1)})},
        4: {},
        5: {},
    }
    # the table drops zero products, so equality also proves every other
    # generator tuple multiplies to zero
    assert {n: table[n] for n in range(2, 6)} == expected
    assert time.perf_counter() - start < 1.0


def test_02_special_basis_four_by_seven_frozen():
    c = [
        [1, 0, 0, 0, 1, 0, 1],
        [0, 1, 0, 0, 0, 1, 1],
        [0, 0, 1, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 1, 0],
    ]
    want = [
        [1, -1, -1, 1, 0, 0, 0],
        [0, 1, 0, -1, 0, 0, 1],
        [0, 0, 1, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 1, 0],
    ]
    got = special_basis([[Fraction(x) for x in row] for row in c])
    assert got == [[Fraction(x) for x in row] for row in want]


def test_03_graded_and_double_dual_on_running_example():
    pres = three_branch_presentation()
    gd = build_groebner(pres)
    q = gd.quiver
    b12 = q.path("b1", "b2")
    c12 = q.path("c1", "c2")

    graded = gr_algebra(pres)
    assert graded.relations == (
        FormalSum({b12: Fraction(1)}),
        FormalSum({b12: Fraction(1), c12: Fraction(-1)}),
    )
    dd = double_dual(pres)
    assert dd.relations == (
        FormalSum({b12: Fraction(1)}),
        FormalSum({c12: Fraction(1)}),
    )
    assert ideal_equal(dd, graded)
    assert gd.dim == 16
    assert build_groebner(graded).dim == 16


def test_04_sdr_closed_forms_match_zigzag_oracle(monkeypatch):
    start = time.perf_counter()
    built = record_bar_differentials(monkeypatch)
    for pres in (three_branch_presentation(), overlap_monomial_presentation()):
        # verify() replays the five identities (id - ip = dh + hd, pi = id,
        # hh = 0, hi = 0, ph = 0) and compares closed-form h, p, i against the
        # generic zigzag evaluator on every cell
        gd = build_groebner(pres)
        built.clear()
        assert BarSDR(gd).verify(4) == []
        # "every cell": verify(4) checks degree <= 4, and both complexes stop at 3
        assert max(bar_words(gd)) <= 4
        assert built and max(map(word_degree, built)) <= 4
    assert time.perf_counter() - start < 10.0


def test_05_closed_coproduct_matches_transfer_everywhere(corpus):
    assert len(corpus) >= 20
    subjects = [three_branch_presentation(), overlap_monomial_presentation(), *corpus]
    for pres in subjects:
        tor = TorCoalgebra(build_groebner(pres))
        for chain in tor.all_chains():
            for n in range(2, 6):
                assert tor.closed_delta(n, chain) == tor.transfer_delta(n, chain)


def test_06_coherence_suites_hold_and_catch_corruption(corpus):
    subjects = [three_branch_presentation(), overlap_monomial_presentation(), *corpus]
    for pres in subjects:
        tor = TorCoalgebra(build_groebner(pres))
        ext = ExtAlgebra(tor)
        ctab = coalgebra_table(tor, 5)
        atab = algebra_table(ext, 5)
        assert stasheff_coalgebra_defects(ctab, tor.all_chains(), 5) == []
        assert stasheff_algebra_defects(atab, tor.all_chains(), 5) == []

    # negative control: flipping one sign must break the arity-3 identity
    tor = TorCoalgebra(build_groebner(overlap_monomial_presentation()))
    ext = ExtAlgebra(tor)
    atab = algebra_table(ext, 3)
    q = tor.gd.quiver
    key = ((q.path("d1"),), (q.path("d2"),))
    atab[2] = dict(atab[2])
    atab[2][key] = atab[2][key].scale(-1)
    assert any(n == 3 for n, _, _ in stasheff_algebra_defects(atab, tor.all_chains(), 3))


def test_07_resolution_square_zero_minimal_betti():
    for pres in (three_branch_presentation(), overlap_monomial_presentation()):
        gd = build_groebner(pres)
        report = AnickResolution(gd).check(5)
        assert report["square_zero"], report["violations"]
        assert report["augmented"], report["violations"]
        assert report["minimal"], report["violations"]
    assert betti_numbers(build_groebner(three_branch_presentation()), 3) == [6, 7, 2, 0]


def test_08_dimension_matches_graded_dimension(corpus):
    for pres in [three_branch_presentation(), *corpus]:
        gd = build_groebner(pres)
        graded = build_groebner(gr_algebra(pres))
        assert gd.dim == graded.dim


def test_09_double_dual_equals_graded_for_passers_and_refusals(corpus):
    passers = 0
    for pres in corpus:
        gd = build_groebner(pres)
        if hypotheses_check(gd):
            passers += 1
            assert ideal_equal(double_dual(pres), gr_algebra(pres))
        else:
            with pytest.raises(HypothesesError):
                yoneda_presentation(pres)
    assert passers >= 1

    violators = fixed_violators()
    assert len(violators) >= 3
    for label, pres in violators:
        report = hypotheses_check(build_groebner(pres))
        assert not report and report.reasons, label
        with pytest.raises(HypothesesError) as err:
            double_dual(pres)
        assert err.value.reasons == report.reasons
