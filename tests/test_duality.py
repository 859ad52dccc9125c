import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toupie.duality
import toupie.rewriting
from tests.conftest import fraction_rref, ideal_rows, lines_presentation, single_chain_presentation
from toupie.ainf import ExtAlgebra, TorCoalgebra
from toupie.duality import (
    HypothesesError,
    double_dual,
    gamma_graph,
    gr_algebra,
    hypotheses_check,
    ideal_equal,
    opposite_quiver,
    quadratic_blocks,
    yoneda_presentation,
)
from toupie.presentation import FormalSum, Presentation, Quiver, branches_of
from toupie.random_presentations import fixed_violators, random_presentation
from toupie.rewriting import build_groebner


def two_pair_presentation():
    """Four parallel length-2 branches, linked in two disjoint pairs."""
    names = "abcd"
    vertices = ["0", "w"] + [f"{n}v" for n in names]
    arrows = []
    for n in names:
        arrows += [(f"{n}1", "0", f"{n}v"), (f"{n}2", f"{n}v", "w")]
    q = Quiver(vertices, arrows)
    pair = lambda x, y: FormalSum(
        {q.path(f"{x}1", f"{x}2"): Fraction(1), q.path(f"{y}1", f"{y}2"): Fraction(-1)}
    )
    return Presentation(q, (pair("a", "b"), pair("c", "d")), order=("a1", "b1", "c1", "d1"))


# -- link graph ---------------------------------------------------------------


def test_gamma_graph_three_branch(three_branch):
    g = gamma_graph(build_groebner(three_branch))
    first = [v.arrows[0].name for v in g.vertices]
    assert first == ["a1", "b1", "c1"]
    assert len(g.components) == 1
    assert len(g.components[0]) == 3
    assert {(u.arrows[0].name, v.arrows[0].name) for u, v in g.edges} == {
        ("a1", "c1"),
        ("b1", "c1"),
    }


def test_gamma_graph_two_components():
    g = gamma_graph(build_groebner(two_pair_presentation()))
    assert len(g.vertices) == 4
    assert [len(c) for c in g.components] == [2, 2]


def test_gamma_graph_empty_without_nonmonomial(overlap_monomial):
    g = gamma_graph(build_groebner(overlap_monomial))
    assert g.vertices == () and g.edges == () and g.components == ()


# -- hypotheses ---------------------------------------------------------------


def test_hypotheses_hold_for_three_branch(three_branch):
    report = hypotheses_check(build_groebner(three_branch))
    assert report
    assert report.reasons == ()


def test_violators_are_refused_with_reasons():
    for label, pres in fixed_violators():
        report = hypotheses_check(build_groebner(pres))
        assert not report, label
        assert report.reasons
        with pytest.raises(HypothesesError) as err:
            yoneda_presentation(pres)
        assert err.value.reasons == report.reasons
    reasons = [hypotheses_check(build_groebner(p)).reasons for _, p in fixed_violators()]
    assert "length 3" in reasons[0][0]
    assert "non-quadratic tips" in reasons[1][0]
    assert "length 4" in reasons[2][0]
    assert "no quadratic block" in reasons[3][0]


def test_passers_need_quadratic_graded_replacement():
    # the linked-component condition alone is not enough: a relation whose
    # blocks are all cubic passes it, yet its graded replacement cannot be
    # matched by any quadratic dual, so the check refuses it
    _, pres = fixed_violators()[3]
    report = hypotheses_check(build_groebner(pres))
    assert report.reasons == (
        "relation with tip a1*a2*a3 has no quadratic block: "
        "its graded replacement is homogeneous of length 3",
    )


# -- associated graded --------------------------------------------------------


def test_gr_three_branch_frozen(three_branch):
    grp = gr_algebra(three_branch)
    q = three_branch.quiver
    b12, c12 = q.path("b1", "b2"), q.path("c1", "c2")
    assert grp.quiver is q
    assert grp.relations == (
        FormalSum.lift(b12),
        FormalSum({b12: Fraction(1), c12: Fraction(-1)}),
    )
    assert build_groebner(three_branch).dim == 16
    assert build_groebner(grp).dim == 16


def test_gr_keeps_homogeneous_relations():
    # already homogeneous: the special-basis rows come back unchanged
    pres = two_pair_presentation()
    grp = gr_algebra(pres)
    assert grp.relations == tuple(rel for _, rel in build_groebner(pres).nonmono_rows)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 150))
def test_gr_homogeneous_and_dimension_preserving(seed):
    pres = random_presentation(seed)
    grp = gr_algebra(pres)
    for rel in grp.relations:
        assert len({len(p) for p in rel.terms}) == 1
    assert build_groebner(pres).dim == build_groebner(grp).dim


# -- dual presentations -------------------------------------------------------


def test_yoneda_three_branch_frozen(three_branch):
    y = yoneda_presentation(three_branch)
    op = y.quiver
    assert {(a.name, a.src, a.dst) for a in op.arrows} == {
        (a.name + "*", a.dst, a.src) for a in three_branch.quiver.arrows
    }
    assert y.relations == (
        FormalSum.lift(op.path("a2*", "a1*")),
        FormalSum.lift(op.path("a3*", "a2*")),
    )
    assert y.order == ("a3*", "b2*", "c2*")


def test_yoneda_monomial_complement():
    # quadratic dual of <d1d2> on the four-arrow chain: the complement squares
    pres = single_chain_presentation([["d1", "d2"]])
    y = yoneda_presentation(pres)
    assert y.relations == (
        FormalSum.lift(y.quiver.path("d3*", "d2*")),
        FormalSum.lift(y.quiver.path("d4*", "d3*")),
    )


def test_yoneda_no_relations_kills_all_squares():
    q = single_chain_presentation([["d1", "d2"]]).quiver
    y = yoneda_presentation(Presentation(q, ()))
    op = y.quiver
    assert y.relations == (
        FormalSum.lift(op.path("d2*", "d1*")),
        FormalSum.lift(op.path("d3*", "d2*")),
        FormalSum.lift(op.path("d4*", "d3*")),
    )


def test_quadratic_blocks_round_trip(three_branch):
    from toupie.rewriting import rref

    ext = ExtAlgebra(TorCoalgebra(build_groebner(three_branch)))
    y = yoneda_presentation(three_branch)
    op = y.quiver
    for _, slots, rows, kernel in quadratic_blocks(ext):
        # rank + nullity fills the slot space
        rank = len(rref(rows)[0]) if rows else 0
        assert rank + len(kernel) == len(slots)
        # every kernel vector really kills the product matrix
        for vec in kernel:
            assert all(sum(c * r[j] for j, c in enumerate(vec)) == 0 for r in rows)
        # the exported relations re-expand to exactly this kernel
        slot_paths = [op.path(yy.name + "*", xx.name + "*") for xx, yy in slots]
        derived = [
            [rel.coeff(p) for p in slot_paths]
            for rel in y.relations
            if set(rel.terms) <= set(slot_paths)
        ]
        assert rref([list(v) for v in kernel])[0] == rref(derived)[0]


def test_double_dual_three_branch_frozen(three_branch):
    dd = double_dual(three_branch)
    q = three_branch.quiver
    assert dd.quiver is q
    assert dd.relations == (
        FormalSum.lift(q.path("b1", "b2")),
        FormalSum.lift(q.path("c1", "c2")),
    )
    assert ideal_equal(dd, gr_algebra(three_branch))
    assert build_groebner(dd).dim == 16


def test_double_dual_involutive_on_quadratic_monomial():
    pres = single_chain_presentation([["d1", "d2"]])
    dd = double_dual(pres)
    assert ideal_equal(dd, pres)


# -- ideal comparison ---------------------------------------------------------


def test_ideal_equal_frozen_examples(three_branch):
    q = three_branch.quiver
    b12, c12 = q.path("b1", "b2"), q.path("c1", "c2")
    mixed = Presentation(q, (FormalSum.lift(b12), FormalSum({b12: 1, c12: -1})))
    split = Presentation(q, (FormalSum.lift(b12), FormalSum.lift(c12)))
    assert ideal_equal(mixed, split)
    assert not ideal_equal(
        Presentation(q, (FormalSum.lift(b12),)), Presentation(q, (FormalSum.lift(c12),))
    )
    scaled = Presentation(q, tuple(r.scale(3) for r in mixed.relations))
    assert ideal_equal(mixed, scaled)
    assert not ideal_equal(
        Presentation(q, (FormalSum({b12: 1, c12: -1}),)),
        Presentation(q, (FormalSum({b12: 1, c12: -2}),)),
    )


def test_ideal_equal_requires_same_quiver(three_branch, overlap_monomial):
    with pytest.raises(ValueError):
        ideal_equal(three_branch, overlap_monomial)


def _invertible(n: int, rng: random.Random) -> list:
    pool = [Fraction(a, b) for a in (-3, -2, -1, 0, 1, 2, 5) for b in (1, 2, 3)]
    while True:
        m = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if len(fraction_rref(m)) == n:
            return m


def _same_ideal_variants(p: Presentation, rng: random.Random) -> dict:
    """Presentations of the ideal of p written differently."""
    q, rels = p.quiver, list(p.relations)
    k = rng.randrange(len(rels))
    shuffled = rng.sample(rels, len(rels))
    names = [b.arrows[0].name for b in branches_of(q)]
    mono = [r for r in rels if len(r.terms) == 1]
    nonmono = [r for r in rels if len(r.terms) > 1]
    mixed = []
    for row in _invertible(len(nonmono), rng):
        rel = FormalSum()
        for c, r in zip(row, nonmono):
            rel.add_scaled(r, c)
        mixed.append(rel)
    scale = rng.choice([Fraction(-3, 2), Fraction(2, 7), -1, 5])
    return {
        "permuted-reversed": Presentation(q, tuple(shuffled), tuple(reversed(names))),
        "recombined": Presentation(q, tuple(mono + mixed), p.order),
        "scaled": Presentation(q, tuple(r.scale(scale) if i == k else r for i, r in enumerate(rels)), p.order),
        "duplicated": Presentation(q, tuple(rels + [rels[k]]), p.order),
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300))
def test_ideal_equal_matches_span_oracle(seed):
    p = random_presentation(seed)
    rng = random.Random(seed)
    k = rng.randrange(len(p.relations))
    others = {
        "gr": gr_algebra(p),
        "dropped": Presentation(p.quiver, p.relations[:k] + p.relations[k + 1 :], p.order),
    }
    rel = p.relations[k]
    if len(rel.terms) > 1:  # the same branches, one coefficient changed
        b, c = next(iter(rel.terms.items()))
        changed = rel + FormalSum.lift(b, c)
        others["reweighted"] = Presentation(
            p.quiver, p.relations[:k] + (changed,) + p.relations[k + 1 :], p.order
        )
    if hypotheses_check(build_groebner(p)):
        others["double-dual"] = double_dual(p)
    same = _same_ideal_variants(p, rng)
    want = ideal_rows(p)
    for label, c in {**others, **same}.items():
        expected = ideal_rows(c) == want
        assert ideal_equal(p, c) == expected, label
        assert ideal_equal(c, p) == expected, label
        if label in same:
            assert expected, label


def test_ideal_equal_answers_for_dependent_relations(three_branch):
    q = three_branch.quiver
    twice = Presentation(q, three_branch.relations * 2, three_branch.order)
    got, want = build_groebner(twice), build_groebner(three_branch)
    assert (got.mono_tips, got.nonmono_rows) == (want.mono_tips, want.nonmono_rows)
    assert ideal_equal(twice, three_branch) and ideal_equal(three_branch, twice)
    rel1, rel2 = three_branch.relations
    assert ideal_equal(Presentation(q, (rel1, rel2, rel1 - rel2)), three_branch)
    assert not ideal_equal(Presentation(q, (rel1, rel1.scale(2))), three_branch)


def test_ideal_equal_row_reduces_only_the_relations(monkeypatch):
    # line(30,2): spanning path x relation x path would row-reduce thousands
    # of rows; the reduced data needs no more rows than there are relations
    p = lines_presentation(1, 30, 2)
    dd, gr = double_dual(p), gr_algebra(p)
    sizes = []
    real = toupie.rewriting.rref

    def counting_rref(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(toupie.rewriting, "rref", counting_rref)
    assert ideal_equal(dd, gr)
    assert sizes and max(sizes) <= min(len(dd.relations), len(gr.relations))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 150))
def test_double_dual_matches_gr_on_passers(seed):
    pres = random_presentation(seed)
    if hypotheses_check(build_groebner(pres)):
        assert ideal_equal(double_dual(pres), gr_algebra(pres))
    else:
        with pytest.raises(HypothesesError):
            double_dual(pres)
