"""Row reduction, the special column sweep, tips and normal forms."""
from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toupie.presentation import FormalSum, Path, Presentation, Quiver, compose
from toupie.random_presentations import random_presentation
from toupie.rewriting import GroebnerData, build_groebner, classify_branches, rref, special_basis
from tests.conftest import (
    all_paths,
    fraction_rref,
    lines_presentation,
    monomial_presentations,
    occurs,
    overlap_monomial_presentation,
    parallel_presentation,
    plain_beside_quadratic_presentation,
    single_chain_presentation,
    three_branch_presentation,
    wide_matrix,
)

entries = st.one_of(
    st.just(0),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=50),
)


@st.composite
def matrices(draw, max_rows=7, max_cols=9):
    """Up to 7x9, ints and Fractions, list or tuple rows, with zero and duplicated rows."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=max_rows - 2))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    shape = draw(st.sampled_from([list, tuple]))
    return [shape(row) for row in rows]


def all_fractions(rows):
    # callers divide entries (gr_algebra: c / c0); an int there would give a float
    return all(type(x) is Fraction for row in rows for x in row)


@given(matrices())
@example([])
@settings(max_examples=80)
def test_rref_matches_sympy(rows):
    ours, pivots = rref(rows)
    assert all_fractions(ours)
    if not rows:
        assert (ours, pivots) == ([], [])
        return
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    ref, piv = m.rref()
    assert list(pivots) == list(piv)
    kept = [[Fraction(int(ref[i, j].p), int(ref[i, j].q)) for j in range(ref.cols)] for i in range(len(piv))]
    assert ours == kept


def assert_rref_exact(rows):
    """`rref` equals plain Gauss-Jordan over Fraction: rows, pivots and entry types."""
    ours, pivots = rref(rows)
    want = fraction_rref(rows)
    assert ours == want
    assert pivots == [next(j for j, x in enumerate(row) if x) for row in want]
    assert all_fractions(ours)


def test_rref_wide_matrix():
    """24 dense rows over 32 columns (8 free), and its transpose (no free column)."""
    m = wide_matrix()
    assert len(rref(m)[1]) == 24
    assert_rref_exact(m)
    assert_rref_exact([list(col) for col in zip(*m)])


def test_rref_kernel_style_rows():
    """Rows with ~20-digit denominators beside an identity block, as the dual
    constructions reduce them: the wide matrix's reduced free block X next to
    I_24, and its kernel basis (-X^T beside I_8)."""
    x = [row[24:] for row in fraction_rref(wide_matrix())]
    assert max(len(str(a.denominator)) for row in x for a in row) >= 18
    assert_rref_exact([row + [int(i == j) for j in range(24)] for i, row in enumerate(x)])
    assert_rref_exact([[-row[f] for row in x] + [int(f == j) for j in range(8)] for f in range(8)])


@st.composite
def rank_deficient_matrices(draw, max_rows=12, max_cols=16):
    """Up to 12x16: combinations of fewer echelon rows than rows, with pivots at
    random columns (so free columns between them), plus a zero and a duplicate row."""
    ncols = draw(st.integers(2, max_cols))
    pivots = draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=min(ncols - 1, max_rows - 3)))
    basis = []
    for c in sorted(pivots):
        tail = draw(st.lists(entries, min_size=ncols - c - 1, max_size=ncols - c - 1))
        basis.append([0] * c + [draw(entries.filter(bool))] + tail)
    combos = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
    rows = [
        [sum(a * b[j] for a, b in zip(k, basis)) for j in range(ncols)]
        for k in draw(st.lists(combos, min_size=len(basis) + 1, max_size=max_rows - 2))
    ]
    rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return rows


@given(rank_deficient_matrices())
@settings(max_examples=60)
def test_rref_rank_deficient_matches_fraction_gauss_jordan(rows):
    assert_rref_exact(rows)


def textbook_special_basis(rows):
    """The sweep of `special_basis`, entry by entry over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    for c in reversed(range(len(m[0]) if m else 0)):
        ends_here = [i for i, row in enumerate(m) if row[c] != 0 and not any(row[c + 1 :])]
        if not ends_here:
            break
        i = ends_here[-1]
        for j in range(i):
            if m[j][c] != 0:
                f = m[j][c] / m[i][c]
                m[j] = [a - f * b for a, b in zip(m[j], m[i])]
    return m


@given(matrices(), st.booleans())
@example([], False)
@settings(max_examples=80)
def test_special_basis_matches_textbook_sweep(rows, reduce_first):
    if reduce_first:
        rows, _ = rref(rows)
    swept = special_basis(rows)
    assert swept == textbook_special_basis(rows)
    assert all_fractions(swept)


def rowspace(rows):
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return m.rowspace()


@given(matrices())
@settings(max_examples=40)
def test_special_basis_preserves_rowspace(rows):
    reduced, _ = rref(rows)
    if not reduced:
        return
    swept = special_basis(reduced)
    assert len(swept) == len(reduced)
    a = sympy.Matrix([[sympy.Rational(x) for x in r] for r in reduced])
    b = sympy.Matrix([[sympy.Rational(x) for x in r] for r in swept])
    assert a.rank() == b.rank() == sympy.Matrix.vstack(a, b).rank()


def test_special_basis_four_by_seven():
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
    assert special_basis(c) == [[Fraction(x) for x in row] for row in want]


def test_special_basis_diagonal_fixed():
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert special_basis(m) == [[Fraction(x) for x in row] for row in m]


def test_special_basis_two_by_three():
    m = [[1, 0, -1], [0, 1, -1]]
    assert special_basis(m) == [
        [Fraction(1), Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(-1)],
    ]


def test_tips_and_nontips(three_branch):
    gd = build_groebner(three_branch)
    q = three_branch.quiver
    assert sorted(t.names for t in gd.tips) == [("a1", "a2", "a3"), ("b1", "b2")]
    assert gd.mono_tips == ()
    by_deg = {d: len(ps) for d, ps in gd.nontips_by_degree.items()}
    assert by_deg == {0: 6, 1: 7, 2: 3}
    assert gd.dim == 16
    assert set(gd.nontips_by_degree[2]) == {
        q.path("a1", "a2"),
        q.path("a2", "a3"),
        q.path("c1", "c2"),
    }


def test_tips_monomial(overlap_monomial):
    gd = build_groebner(overlap_monomial)
    assert sorted(t.names for t in gd.mono_tips) == [("d1", "d2"), ("d2", "d3")]
    assert gd.dim == 4 + 3  # vertices + arrows; every length-2 path is a tip


def ideal_span_dim(pres):
    """dim kQ/I by plain linear algebra: count paths, subtract the rank of {p*rel*q}."""
    q = pres.quiver
    paths = all_paths(q)
    index = {p: i for i, p in enumerate(paths)}
    rows = []
    for rel in pres.relations:
        for left in paths:
            for right in paths:
                row = [Fraction(0)] * len(paths)
                touched = False
                for mid, c in rel.terms.items():
                    if left.target == mid.source and mid.target == right.source:
                        row[index[Path(left.source, left.arrows + mid.arrows + right.arrows)]] += c
                        touched = True
                if touched and any(row):
                    rows.append([sympy.Rational(x) for x in row])
    rank = sympy.Matrix(rows).rank() if rows else 0
    return len(paths) - rank


def test_dim_matches_linear_algebra(three_branch, overlap_monomial):
    assert build_groebner(three_branch).dim == ideal_span_dim(three_branch) == 16
    assert build_groebner(overlap_monomial).dim == ideal_span_dim(overlap_monomial)


def test_normal_form(three_branch):
    gd = build_groebner(three_branch)
    q = three_branch.quiver
    cc = q.path("c1", "c2")
    assert gd.normal_form(q.path("a1", "a2", "a3")) == FormalSum.lift(cc)
    assert gd.normal_form(q.path("b1", "b2")) == FormalSum.lift(cc)
    assert gd.normal_form(cc) == FormalSum.lift(cc)
    # linear + idempotent
    x = FormalSum({q.path("a1", "a2", "a3"): 2, q.path("b1", "b2"): -3, q.path("a1"): 1})
    nf = x.map_terms(gd.normal_form)
    assert nf == FormalSum({cc: -1, q.path("a1"): 1})
    assert nf.map_terms(gd.normal_form) == nf


def test_normal_form_kills_relations(three_branch):
    gd = build_groebner(three_branch)
    for rel in three_branch.relations:
        assert rel.map_terms(gd.normal_form).is_zero


def test_normal_form_monomial(overlap_monomial):
    gd = build_groebner(overlap_monomial)
    q = overlap_monomial.quiver
    assert gd.normal_form(q.path("d1", "d2")).is_zero
    assert gd.normal_form(q.path("d1", "d2", "d3")).is_zero
    assert gd.normal_form(q.path("d3")) == FormalSum.lift(q.path("d3"))


def test_pre_reduction_of_mixed_presentation(three_branch):
    # the associated-graded shape: {b1b2, b1b2 - c1c2} must come out as tips {b1b2, c1c2}
    q = three_branch.quiver
    rels = (
        FormalSum.lift(q.path("b1", "b2")),
        FormalSum({q.path("b1", "b2"): 1, q.path("c1", "c2"): -1}),
    )
    gd = build_groebner(Presentation(q, rels, order=("a1", "b1", "c1")))
    assert sorted(t.names for t in gd.mono_tips) == [("b1", "b2"), ("c1", "c2")]
    assert gd.nonmono_rows == ()
    assert gd.dim == 16


def reduced_data(pres):
    gd = build_groebner(pres)
    return (
        gd.mono_tips,
        gd.nonmono_rows,
        gd.branch_order,
        gd.tip_ideal.ends,
        gd.dim,
        gd.special_rows,
        classify_branches(gd),
    )


def test_dependent_relations_reduce_to_their_minimal_generating_set(three_branch):
    q = three_branch.quiver
    b12, c12 = q.path("b1", "b2"), q.path("c1", "c2")
    rel = FormalSum({b12: 1, c12: -1})
    twice = Presentation(q, (rel, FormalSum({b12: 2, c12: -2})))
    gd = build_groebner(twice)
    assert gd.mono_tips == ()
    assert gd.nonmono_rows == ((b12, rel),)
    assert reduced_data(twice) == reduced_data(Presentation(q, (rel,)))

    # two branches a1 a2 and b1 b2: each redundant set reduces like its minimal one
    q = Quiver(
        ["0", "a", "b", "w"],
        [("a1", "0", "a"), ("a2", "a", "w"), ("b1", "0", "b"), ("b2", "b", "w")],
    )
    a, b = FormalSum.lift(q.path("a1", "a2")), FormalSum.lift(q.path("b1", "b2"))
    diff = a - b
    cases = [
        ((diff, diff.scale(2)), (diff,)),
        ((a, a), (a,)),
        ((a, b, diff), (a, b)),
    ]
    for given_rels, minimal in cases:
        got = reduced_data(Presentation(q, given_rels))
        assert got == reduced_data(Presentation(q, minimal)), given_rels
    assert build_groebner(Presentation(q, (a, b, diff))).nonmono_rows == ()


COMBINATION_COEFFS = st.sampled_from([-3, -1, Fraction(1, 2), 2, Fraction(-5, 7)])


@given(st.integers(0, 10**4), st.lists(COMBINATION_COEFFS, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_appended_combinations_leave_the_reduction_unchanged(seed, coeffs):
    # a combination of the non-monomial relations adds nothing to the ideal
    p = random_presentation(seed)
    nonmono = [r for r in p.relations if len(r.terms) > 1]
    extra = FormalSum()
    for c, r in zip(coeffs, nonmono):
        extra.add_scaled(r, c)
    if extra.is_zero:
        return
    bigger = Presentation(p.quiver, p.relations + (extra, extra.scale(3)), p.order)
    assert reduced_data(bigger) == reduced_data(p)


def test_redundant_monomial_relations_collapse():
    # d1d2 makes d1d2d3 redundant
    q = Quiver(
        ["0", "v1", "v2", "w"],
        [("d1", "0", "v1"), ("d2", "v1", "v2"), ("d3", "v2", "w")],
    )
    rels = (FormalSum.lift(q.path("d1", "d2")), FormalSum.lift(q.path("d1", "d2", "d3")))
    gd = build_groebner(Presentation(q, rels))
    assert [t.names for t in gd.mono_tips] == [("d1", "d2")]


def test_tail_of(three_branch):
    gd = build_groebner(three_branch)
    q = three_branch.quiver
    tip = q.path("a1", "a2", "a3")
    assert gd.tail_of(tip) == FormalSum.lift(q.path("c1", "c2"))
    assert gd.tip_inverse(tip).coeff(tip) == 1
    with pytest.raises(KeyError):
        gd.tip_inverse(q.path("c1", "c2"))


# -- the tip ideal against a brute-force subpath search ------------------------


def assert_tip_ideal_is_brute_force(pres):
    gd = build_groebner(pres)
    ideal = gd.tip_ideal
    paths = all_paths(pres.quiver)
    in_ideal = {p: any(occurs(p, t) for t in gd.tips) for p in paths}
    for p in paths:
        assert (p in ideal) == in_ideal[p], p
    for prev in paths:
        if prev.is_trivial or in_ideal[prev]:
            continue
        heads = [
            v for v in paths
            if not v.is_trivial and v.source == prev.target and in_ideal[compose(prev, v)]
        ]
        assert ideal.cut(prev) is min(heads, key=len, default=None), prev
    # the nontip basis: the paths containing no tip, grouped by length in
    # increasing key order
    by_len: dict = {}
    for p in sorted((p for p in paths if not in_ideal[p]), key=Path.sort_key):
        by_len.setdefault(len(p), []).append(p)
    want = {d: tuple(ps) for d, ps in sorted(by_len.items())}
    assert list(gd.nontips_by_degree.items()) == list(want.items())


@pytest.mark.parametrize(
    "pres",
    [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]]),
        single_chain_presentation([["d1", "d2", "d3"], ["d3", "d4"]]),
        lines_presentation(1, 8, 3),
        lines_presentation(3, 6, 3),
    ],
    ids=["three-branch", "overlap", "cubic-overlap", "gapped", "line-8-3", "3xline-6-3"],
)
def test_tip_ideal_matches_brute_force_on_fixtures(pres):
    assert_tip_ideal_is_brute_force(pres)


@given(st.integers(0, 10**4))
@settings(max_examples=25, deadline=None)
def test_tip_ideal_matches_brute_force_on_random_draws(seed):
    assert_tip_ideal_is_brute_force(random_presentation(seed))


@given(monomial_presentations())
@settings(max_examples=40, deadline=None)
def test_tip_ideal_matches_brute_force_on_overlapping_monomials(pres):
    assert_tip_ideal_is_brute_force(pres)
    # the reduced monomial tips: the relations that contain no other relation
    rels = {p for rel in pres.relations for p in rel.terms}
    minimal = sorted(
        (p for p in rels if not any(q is not p and occurs(p, q) for q in rels)), key=Path.sort_key
    )
    assert list(build_groebner(pres).mono_tips) == minimal


def _dim_subjects():
    fixed = [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        plain_beside_quadratic_presentation(8),
        parallel_presentation([5, 1]),
        lines_presentation(1, 10, 2),
        lines_presentation(1, 10, 3),
    ]
    return fixed + [random_presentation(seed) for seed in range(30)]


@pytest.mark.parametrize("pres", _dim_subjects())
def test_dim_counts_the_nontip_basis_without_building_it(pres, monkeypatch):
    gd = build_groebner(pres)
    # the count reads the tip ideal only: the nontip paths stay unbuilt
    unbuilt = property(lambda self: pytest.fail("dim built the nontips"))
    monkeypatch.setattr(GroebnerData, "nontips_by_degree", unbuilt)
    dim = gd.dim
    monkeypatch.undo()
    assert dim == sum(map(len, gd.nontips_by_degree.values()))


def test_groebner_data_is_freed_without_the_cyclic_collector():
    # the data is stored on its presentation but does not point back to it,
    # so dropping both frees the data by reference counting alone
    pres = three_branch_presentation()
    gc.disable()
    try:
        gd = build_groebner(pres)
        gd.normal_form(pres.quiver.path("a1", "a2", "a3"))
        assert gd.special_rows and classify_branches(gd)
        ref = weakref.ref(gd)
        del pres, gd
        assert ref() is None
    finally:
        gc.enable()
