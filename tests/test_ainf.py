import random
from collections import Counter

import pytest
from hypothesis import given, settings

from tests.conftest import (
    closed_m,
    composable_tuples,
    lines_presentation,
    monomial_presentations,
    overlap_monomial_presentation,
    plain_beside_quadratic_presentation,
    single_chain_presentation,
    stasheff_algebra_defects_by_tuples,
    stasheff_coalgebra_defects_dense,
    three_branch_presentation,
    unprojected_transfer,
)
from toupie.ainf import (
    ExtAlgebra,
    TorCoalgebra,
    algebra_table,
    coalgebra_table,
    stasheff_algebra_defects,
    stasheff_coalgebra_defects,
)
from toupie.anick import AnickResolution
from toupie.chains import underlying_path
from toupie.morse import BarSDR
from toupie.presentation import FormalSum
from toupie.random_presentations import random_presentation
from toupie.rewriting import build_groebner


def lift(*terms):
    out = FormalSum()
    sign = 1
    for t in terms:
        if t in (+1, -1):
            sign = t
            continue
        out.add_term(t, sign)
        sign = 1
    return out


@pytest.fixture
def tor3(three_branch):
    return TorCoalgebra(build_groebner(three_branch))


def test_coproducts_three_branch_frozen(tor3):
    q = tor3.gd.quiver
    u = tor3.cg.parse(q.path("a1", "a2", "a3"))
    v = tor3.cg.parse(q.path("b1", "b2"))
    b = lambda *names: (q.path(n) for n in names)
    b1, b2 = b("b1", "b2")
    c1, c2 = b("c1", "c2")
    a1, a2, a3 = b("a1", "a2", "a3")
    want2v = lift(((b1,), (b2,)), -1, ((c1,), (c2,)))
    want2u = lift(-1, ((c1,), (c2,)))
    want3u = lift(((a1,), (a2,), (a3,)))
    for delta in (tor3.transfer_delta, tor3.closed_delta):
        assert delta(2, v) == want2v
        assert delta(2, u) == want2u
        assert delta(3, u) == want3u
        assert delta(3, v).is_zero
        assert delta(2, (a1,)).is_zero


def test_coproduct_monomial_two_chain_signs(overlap_monomial):
    tor = TorCoalgebra(build_groebner(overlap_monomial))
    q = tor.gd.quiver
    d1, d2, d3 = q.path("d1"), q.path("d2"), q.path("d3")
    got = tor.closed_delta(2, (d1, d2, d3))
    assert got == lift(((d1,), (d2, d3)), ((d1, d2), (d3,)))
    assert got == tor.transfer_delta(2, (d1, d2, d3))


def test_coproduct_gapped_tips_single_term():
    # tips d1d2d3 and d3d4: the cut after d1 does not parse, so one term survives
    pres = single_chain_presentation([["d1", "d2", "d3"], ["d3", "d4"]])
    tor = TorCoalgebra(build_groebner(pres))
    q = tor.gd.quiver
    d1, d4 = q.path("d1"), q.path("d4")
    d23 = q.path("d2", "d3")
    two = tor.cg.parse(q.path("d1", "d2", "d3", "d4"))
    assert two == (d1, d23, d4)
    got = tor.closed_delta(2, two)
    assert got == lift(((d1, d23), (d4,)))
    assert got == tor.transfer_delta(2, two)


def test_coproduct_shifted_cubic_tips_both_terms():
    pres = single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]])
    tor = TorCoalgebra(build_groebner(pres))
    q = tor.gd.quiver
    d1, d2, d4 = q.path("d1"), q.path("d2"), q.path("d4")
    d23, d34 = q.path("d2", "d3"), q.path("d3", "d4")
    two = (d1, d23, d4)
    got = tor.closed_delta(2, two)
    assert got == lift(((d1,), (d2, d34)), ((d1, d23), (d4,)))
    assert got == tor.transfer_delta(2, two)


TRANSFER_INPUTS = {
    "three-branch": three_branch_presentation,
    "line-10-3": lambda: lines_presentation(1, 10, 3),
    "line-12-7": lambda: lines_presentation(1, 12, 7),
    "2xline-6-3": lambda: lines_presentation(2, 6, 3),
    "plain-8": lambda: plain_beside_quadratic_presentation(8),
    **{f"random-{seed}": (lambda seed=seed: random_presentation(seed)) for seed in range(10)},
}


def assert_transfer_is_unprojected_oracle(pres):
    gd = build_groebner(pres)
    tor = TorCoalgebra(gd)
    # the oracle reads its own bar complex, so no cached value is shared
    oracle = unprojected_transfer(BarSDR(gd).complex)
    for n in range(2, 6):
        for c in tor.all_chains():
            assert tor.transfer_delta(n, c) == oracle(n, c), (n, c)


@pytest.mark.parametrize("name", list(TRANSFER_INPUTS))
def test_transfer_delta_equals_unprojected_oracle(name):
    assert_transfer_is_unprojected_oracle(TRANSFER_INPUTS[name]())


@pytest.mark.stress
def test_transfer_delta_equals_unprojected_oracle_on_random_draws():
    for seed in range(40):
        assert_transfer_is_unprojected_oracle(random_presentation(seed))


def test_closed_equals_transfer_on_fixtures(three_branch, overlap_monomial):
    presentations = [
        three_branch,
        overlap_monomial,
        single_chain_presentation([["d1", "d2", "d3"], ["d3", "d4"]]),
        single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]]),
        single_chain_presentation([["d1", "d2"], ["d2", "d3", "d4"]]),
        single_chain_presentation([["d1", "d2"], ["d2", "d3"], ["d3", "d4"]]),
        single_chain_presentation([["d1", "d2"], ["d3", "d4"]]),
    ]
    for pres in presentations:
        tor = TorCoalgebra(build_groebner(pres))
        for c in tor.all_chains():
            for n in range(2, 6):
                assert tor.closed_delta(n, c) == tor.transfer_delta(n, c)


def test_coproduct_degree_bookkeeping(three_branch, overlap_monomial):
    # every output word of Delta_n carries total degree |c| + n - 2
    for pres in (three_branch, overlap_monomial):
        tor = TorCoalgebra(build_groebner(pres))
        for c in tor.all_chains():
            for n in range(2, 6):
                for word in tor.closed_delta(n, c).terms:
                    assert sum(len(w) for w in word) == len(c) + n - 2
                    assert all(tor.cg.is_chain(w) for w in word)


def test_coproduct_local_finiteness(tor3):
    # arities beyond the underlying path length vanish
    for c in tor3.all_chains():
        for n in range(len(underlying_path(c)) + 1, len(underlying_path(c)) + 4):
            assert tor3.closed_delta(n, c).is_zero


def test_ext_products_three_branch_frozen(tor3):
    ext = ExtAlgebra(tor3)
    q = tor3.gd.quiver
    u = tor3.cg.parse(q.path("a1", "a2", "a3"))
    v = tor3.cg.parse(q.path("b1", "b2"))
    dual = lambda name: (q.path(name),)
    assert ext.m((dual("b1"), dual("b2"))) == lift(-1, v)
    assert ext.m((dual("c1"), dual("c2"))) == lift(u, v)
    assert ext.m((dual("a1"), dual("a2"), dual("a3"))) == lift(u)
    # everything else among the generators vanishes
    gens = [dual(a.name) for a in q.arrows]
    hits = {}
    for f in gens:
        for g in gens:
            got = ext.m((f, g))
            if got:
                hits[(f[0].names, g[0].names)] = got
    assert set(hits) == {(("b1",), ("b2",)), (("c1",), ("c2",))}
    for f in gens:
        for g in gens:
            for h in gens:
                got = ext.m((f, g, h))
                if got:
                    assert (f[0].names, g[0].names, h[0].names) == (("a1",), ("a2",), ("a3",))


def test_ext_products_match_oracle_pipeline(tor3):
    # the same transpose over the zigzag coproducts reproduces m
    ext = ExtAlgebra(tor3)
    for n in (2, 3):
        oracle = ExtAlgebra.transpose(n, {c: tor3.transfer_delta(n, c) for c in tor3.all_chains()})
        tuples = composable_tuples(ext, n)
        assert set(oracle) <= set(tuples)
        for tup in tuples:
            assert ext.m(tup) == oracle.get(tup, FormalSum())


def test_closed_delta_runs_once_per_arity_and_chain(tor3, monkeypatch):
    calls = Counter()
    closed_delta = TorCoalgebra.closed_delta

    def counted(self, n, chain):
        calls[(n, tuple(chain))] += 1
        return closed_delta(self, n, chain)

    monkeypatch.setattr(TorCoalgebra, "closed_delta", counted)
    ext = ExtAlgebra(tor3)
    coalgebra_table(tor3, 4)
    algebra_table(ext, 4)
    for n in (2, 3, 4):
        for tup in composable_tuples(ext, n):
            ext.m(tup)
    assert set(calls) == {(n, c) for n in (2, 3, 4) for c in tor3.all_chains()}
    assert max(calls.values()) == 1


def test_corrupted_tables_leave_products_intact(overlap_monomial):
    tor = TorCoalgebra(build_groebner(overlap_monomial))
    ext = ExtAlgebra(tor)
    q = tor.gd.quiver
    key = ((q.path("d1"),), (q.path("d2"),))
    ctab = coalgebra_table(tor, 3)
    atab = algebra_table(ext, 3)
    want = atab[2][key].scale(1)
    # flip signs in place: replace one entry, edit every other value's terms
    atab[2][key] = atab[2][key].scale(-1)
    for table in (ctab, atab):
        for row in table.values():
            for fs in row.values():
                fs.terms.update((k, -c) for k, c in fs.terms.items())
    ext.m(key).terms.clear()
    assert ext.m(key) == want
    assert algebra_table(ext, 3)[2][key] == want
    assert coalgebra_table(tor, 3) == coalgebra_table(TorCoalgebra(tor.gd), 3)
    for n in (2, 3):
        for tup in composable_tuples(ext, n):
            assert ext.m(tup) == closed_m(ext, tup), (n, tup)


def assert_product_rows_in_composable_order(pres):
    ext = ExtAlgebra(TorCoalgebra(build_groebner(pres)))
    table = algebra_table(ext, 5)
    for n in range(2, 6):
        layer = ext.layer(n)
        assert list(table[n]) == [t for t in composable_tuples(ext, n) if t in layer], n


@pytest.mark.parametrize(
    "pres",
    [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        single_chain_presentation([["d1", "d2"], ["d2", "d3"], ["d3", "d4"]]),
        lines_presentation(1, 6, 2),
        lines_presentation(2, 6, 3),
    ],
    ids=["three-branch", "overlap", "quadratic-line", "line-6-2", "2xline-6-3"],
)
def test_product_rows_follow_composable_order(pres):
    assert_product_rows_in_composable_order(pres)


def test_product_rows_follow_composable_order_on_random_draws():
    for seed in range(30):
        assert_product_rows_in_composable_order(random_presentation(seed))


@given(monomial_presentations())
@settings(max_examples=30, deadline=None)
def test_product_rows_follow_composable_order_on_overlapping_monomials(pres):
    assert_product_rows_in_composable_order(pres)


def test_products_associative_monomial(overlap_monomial):
    # with m_1 = 0, coherence at arity 3 is associativity of m_2 on the nose
    tor = TorCoalgebra(build_groebner(overlap_monomial))
    ext = ExtAlgebra(tor)
    q = tor.gd.quiver
    d1, d2, d3 = ((q.path(n),) for n in ("d1", "d2", "d3"))
    left = ext.m((d1, d2)).map_terms(lambda g: ext.m((g, d3)))
    right = ext.m((d2, d3)).map_terms(lambda g: ext.m((d1, g)))
    full = tor.cg.parse(q.path("d1", "d2", "d3"))
    assert left == right == lift(-1, full)


def test_one_term_product_form_agrees(three_branch, overlap_monomial):
    presentations = [
        three_branch,
        overlap_monomial,
        single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]]),
        single_chain_presentation([["d1", "d2"], ["d2", "d3"], ["d3", "d4"]]),
    ]
    for pres in presentations:
        ext = ExtAlgebra(TorCoalgebra(build_groebner(pres)))
        for n in range(2, 6):
            for tup in composable_tuples(ext, n):
                assert ext.m(tup) == closed_m(ext, tup), (n, tup)


def test_stasheff_identities_hold(three_branch, overlap_monomial):
    for pres in (three_branch, overlap_monomial):
        tor = TorCoalgebra(build_groebner(pres))
        ext = ExtAlgebra(tor)
        ctab = coalgebra_table(tor, 5)
        atab = algebra_table(ext, 5)
        assert stasheff_coalgebra_defects(ctab, tor.all_chains(), 5) == []
        assert stasheff_algebra_defects(atab, tor.all_chains(), 5) == []


def test_stasheff_catches_corrupted_sign(overlap_monomial):
    tor = TorCoalgebra(build_groebner(overlap_monomial))
    ext = ExtAlgebra(tor)
    q = tor.gd.quiver
    atab = algebra_table(ext, 5)
    key = ((q.path("d1"),), (q.path("d2"),))
    atab[2] = dict(atab[2])
    atab[2][key] = atab[2][key].scale(-1)
    bad = stasheff_algebra_defects(atab, tor.all_chains(), 5)
    assert any(n == 3 for n, _, _ in bad)


def corrupted_tables(table: dict, rng: random.Random) -> list:
    """Copies of an algebra table with one entry sign-flipped, scaled by 2 or dropped."""
    entries = [(n, key) for n in sorted(table) for key in table[n]]
    out = []
    for edit in (lambda fs: fs.scale(-1), lambda fs: fs.scale(2), None):
        if not entries:
            break
        n, key = rng.choice(entries)
        bad = {m: dict(row) for m, row in table.items()}
        if edit is None:
            del bad[n][key]
        else:
            bad[n][key] = edit(bad[n][key])
        out.append(bad)
    return out


def assert_defects_match_tuple_oracle(pres, n_max: int, seed: int = 0) -> int:
    """The defects read off the table's entries equal the tuple-by-tuple oracle's,
    on the clean table and on three corruptions; returns how many corrupted
    tables were caught."""
    tor = TorCoalgebra(build_groebner(pres))
    ext = ExtAlgebra(tor)
    chains = tor.all_chains()
    tuples = {n: composable_tuples(ext, n) for n in range(2, n_max + 1)}
    clean = algebra_table(ext, n_max)
    assert stasheff_algebra_defects(clean, chains, n_max) == []
    assert stasheff_algebra_defects_by_tuples(clean, tuples, n_max) == []
    caught = 0
    for table in corrupted_tables(clean, random.Random(seed)):
        got = stasheff_algebra_defects(table, chains, n_max)
        assert got == stasheff_algebra_defects_by_tuples(table, tuples, n_max)
        caught += bool(got)
    return caught


@pytest.mark.parametrize(
    "pres, composes",
    [
        (three_branch_presentation(), False),
        (overlap_monomial_presentation(), True),
        (lines_presentation(1, 6, 2), True),
        (lines_presentation(2, 6, 3), True),
    ],
    ids=["three-branch", "overlap", "line-6-2", "2xline-6-3"],
)
def test_stasheff_defects_match_tuple_oracle(pres, composes):
    caught = sum(assert_defects_match_tuple_oracle(pres, 5, seed) for seed in range(3))
    # three-branch has no product whose value feeds another, so no identity
    # can see a corrupted entry; elsewhere every corruption is caught
    assert caught == (9 if composes else 0)


def test_stasheff_defects_match_tuple_oracle_on_random_draws():
    for seed in range(40):
        assert_defects_match_tuple_oracle(random_presentation(seed), 4, seed)


@given(monomial_presentations())
@settings(max_examples=30, deadline=None)
def test_stasheff_defects_match_tuple_oracle_on_overlapping_monomials(pres):
    assert_defects_match_tuple_oracle(pres, 5)


def test_stasheff_reads_a_non_composable_key(overlap_monomial):
    # the tuple oracle never looks at a key whose chains do not concatenate
    tor = TorCoalgebra(build_groebner(overlap_monomial))
    ext = ExtAlgebra(tor)
    q = tor.gd.quiver
    d1, d2 = (q.path("d1"),), (q.path("d2"),)
    atab = algebra_table(ext, 3)
    atab[2] = dict(atab[2])
    atab[2][(d2, d1)] = atab[2][(d1, d2)].scale(1)
    tuples = {n: composable_tuples(ext, n) for n in (2, 3)}
    assert stasheff_algebra_defects_by_tuples(atab, tuples, 3) == []
    bad = stasheff_algebra_defects(atab, tor.all_chains(), 3)
    assert bad
    assert all(n == 3 and tup not in tuples[3] for n, tup, _ in bad)


# -- coalgebra coherence from nonzero entries against the dense loop -----------


def assert_coalgebra_defects_match_dense(pres, n_max: int, seed: int = 0) -> int:
    """The coalgebra defects read off the table's entries equal the dense
    loop's, order included, on the clean table and on three corruptions;
    returns how many corrupted tables were caught."""
    tor = TorCoalgebra(build_groebner(pres))
    chains = tor.all_chains()
    clean = coalgebra_table(tor, n_max)
    assert stasheff_coalgebra_defects(clean, chains, n_max) == []
    assert stasheff_coalgebra_defects_dense(clean, chains, n_max) == []
    caught = 0
    for table in corrupted_tables(clean, random.Random(seed)):
        got = stasheff_coalgebra_defects(table, chains, n_max)
        assert got == stasheff_coalgebra_defects_dense(table, chains, n_max)
        caught += bool(got)
        # only the chains asked about are checked
        some = chains[::2]
        assert stasheff_coalgebra_defects(table, some, n_max) == stasheff_coalgebra_defects_dense(
            table, some, n_max
        )
    return caught


@pytest.mark.parametrize(
    "pres",
    [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]]),
        lines_presentation(1, 6, 2),
        lines_presentation(2, 6, 3),
    ],
    ids=["three-branch", "overlap", "cubic-overlap", "line-6-2", "2xline-6-3"],
)
def test_coalgebra_defects_match_dense_loop(pres):
    for seed in range(3):
        assert_coalgebra_defects_match_dense(pres, 5, seed)


def test_coalgebra_defects_match_dense_loop_on_random_draws():
    for seed in range(10):
        assert_coalgebra_defects_match_dense(random_presentation(seed), 4, seed)


@pytest.mark.parametrize("k", [3, 4])
def test_coalgebra_defects_match_dense_loop_on_every_corruption(k):
    # each entry of the line(10,k) coproduct table doubled or dropped in turn
    tor = TorCoalgebra(build_groebner(lines_presentation(1, 10, k)))
    chains = tor.all_chains()
    clean = coalgebra_table(tor, 5)
    rng = random.Random(0)
    entries = [(n, gamma) for n in sorted(clean) for gamma in clean[n]]
    factors = {x for row in clean.values() for fs in row.values() for w in fs.terms for x in w}
    assert len(entries) == {3: 34, 4: 21}[k]
    for n, gamma in entries:
        bad = {m: dict(row) for m, row in clean.items()}
        if rng.random() < 0.5:
            bad[n][gamma] = bad[n][gamma].scale(2)
        else:
            del bad[n][gamma]
        got = stasheff_coalgebra_defects(bad, chains, 5)
        assert got == stasheff_coalgebra_defects_dense(bad, chains, 5), (n, gamma)
        # the identities read Delta_n(gamma) as an outer value and as an
        # inner value under every word with gamma as a factor; on these
        # tables the outer terms vanish on their own, so a corruption shows
        # exactly when gamma is a factor (all but the top-degree chains)
        assert bool(got) == (gamma in factors), (n, gamma)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_algebra_defects_catch_every_corruption_on_lines(k):
    # each entry of the line(10,k) product table doubled or dropped in turn
    tor = TorCoalgebra(build_groebner(lines_presentation(1, 10, k)))
    chains = tor.all_chains()
    clean = algebra_table(ExtAlgebra(tor), 5)
    assert stasheff_algebra_defects(clean, chains, 5) == []
    rng = random.Random(0)
    entries = [(n, key) for n in sorted(clean) for key in clean[n]]
    assert len(entries) == {2: 165, 3: 80, 4: 42}[k]
    for n, key in entries:
        bad = {m: dict(row) for m, row in clean.items()}
        if rng.random() < 0.5:
            bad[n][key] = bad[n][key].scale(2)
        else:
            del bad[n][key]
        assert stasheff_algebra_defects(bad, chains, 5), (n, key)


def line_product_rows(length: int, k: int, n: int) -> int:
    """Nonzero rows of m_n on line(length, k), counted from chain spans alone,
    sharing no code with `chains` or `ainf`.  A d-chain is any run of span(d)
    arrows, so a row is n adjacent runs of degrees d_1..d_n whose spans add up
    to the span of a chain of degree d_1 + ... + d_n + 1, their join.  Each row
    has that one chain as its value, so no row cancels."""

    def span(d):
        return (d // 2) * k + 1 if d % 2 == 0 else (d + 1) // 2 * k

    def rows(left, total, degree):
        if left == 0:
            whole = span(degree + 1)
            return max(length - whole + 1, 0) if whole == total else 0
        count, d = 0, 0
        while total + span(d) <= length:
            count += rows(left - 1, total + span(d), degree + d)
            d += 1
        return count

    return rows(n, 0, 0)


@pytest.mark.parametrize(
    "copies, length, k, want",
    [
        (1, 10, 2, {2: 165}),
        (1, 10, 3, {2: 45, 3: 35}),
        (1, 10, 4, {2: 23, 4: 19}),
        (1, 12, 5, {2: 25, 5: 23}),
        (1, 12, 6, {2: 13, 6: 13}),
        (2, 7, 3, {2: 28, 3: 22}),
        (2, 9, 4, {2: 32, 4: 28}),
    ],
)
def test_monomial_lines_multiply_only_in_arities_two_and_k(copies, length, k, want):
    # relations all monomials of one length k: only m_2 and m_k are nonzero,
    # the pattern of Tamaroff's A-infinity structure on monomial algebras
    ext = ExtAlgebra(TorCoalgebra(build_groebner(lines_presentation(copies, length, k))))
    table = algebra_table(ext, 6)
    assert {n: len(rows) for n, rows in table.items() if rows} == want
    # the copies are disjoint, and each holds the rows of one line
    assert want == {n: copies * c for n in range(2, 7) if (c := line_product_rows(length, k, n))}


def interval_chains(length: int, k: int) -> dict:
    """The chains of line(length, k) as integer intervals, listed from the
    minimal tips [i, i + k) alone, sharing no code with `chains`, `morse`,
    `ainf` or `Path`: (start, stop) -> degree.

    A chain of degree d is a run of stops p_0 < p_1 < ... < p_d on the branch,
    its letters the arrow intervals [p_{j-1}, p_j).  Degree 1 is one arrow
    (p_1 = p_0 + 1).  A letter [a, b) is followed by [b, c) for the least c
    such that some tip [t, c) starts inside it (a <= t < b) and ends past it."""
    tips = [(i, i + k) for i in range(length - k + 1)]
    out = {}
    layer, degree = [(s, s + 1) for s in range(length)], 1
    while layer:
        out.update({(stops[0], stops[-1]): degree for stops in layer})
        grown = []
        for stops in layer:
            a, b = stops[-2:]
            ends = [c for t, c in tips if a <= t < b < c]
            if ends:
                grown.append(stops + (min(ends),))
        layer, degree = grown, degree + 1
    return out


def interval_products(length: int, k: int, n_max: int) -> dict:
    """arity -> {argument intervals: joined interval}: Tamaroff's products of
    the monomial algebra line(length, k), read off the interval chains.

    Overlap rule: m_n(c_1, ..., c_n) is nonzero exactly when each c_i starts
    where c_{i-1} stops and the joined interval is itself a chain, of degree
    deg c_1 + ... + deg c_n + 2 - n; its value is then +1 or -1 times that
    chain."""
    chains = interval_chains(length, k)
    by_start = {}
    for span in chains:
        by_start.setdefault(span[0], []).append(span)
    rows = {n: {} for n in range(2, n_max + 1)}

    def extend(args, degrees):
        n = len(args)
        joined = (args[0][0], args[-1][1])
        if n >= 2 and chains.get(joined) == degrees + 2 - n:
            rows[n][tuple(args)] = joined
        if n < n_max:
            for span in by_start.get(args[-1][1], ()):
                extend(args + [span], degrees + chains[span])

    for span, degree in chains.items():
        extend([span], degree)
    return rows


def word_interval(word) -> tuple:
    """A chain word of `lines_presentation(1, ...)` as its arrow interval:
    arrow x0_j is [j - 1, j)."""
    names = [name for letter in word for name in letter.names]
    return int(names[0].split("_")[1]) - 1, int(names[-1].split("_")[1])


# the sign of every nonzero m_k on line(L, k); every nonzero m_2 is +1
M_K_SIGN = {3: 1, 4: 1, 5: -1, 6: -1, 7: 1, 8: 1}


@pytest.mark.parametrize(
    "length, k",
    [(10, 3), (12, 4), (13, 5), (14, 6), (16, 7), (17, 8), (20, 3), (24, 4)],
)
def test_monomial_line_products_match_the_interval_oracle(length, k):
    # every row of the table, key and value, is the oracle's, with its sign
    table = algebra_table(ExtAlgebra(TorCoalgebra(build_groebner(lines_presentation(1, length, k)))), k + 1)
    want = interval_products(length, k, k + 1)
    assert {n for n, rows in want.items() if rows} == {2, k}
    sign = {2: 1, k: M_K_SIGN[k]}
    for n in range(2, k + 2):
        got = {
            tuple(map(word_interval, args)): {word_interval(w): c for w, c in value.items()}
            for args, value in table[n].items()
        }
        assert got == {args: {joined: sign[n]} for args, joined in want[n].items()}, n


@pytest.mark.parametrize("name", ["chains", "transfer_delta", "bimodule_diff", "nontips_by_degree"])
def test_each_call_hands_out_a_fresh_result(name):
    # a result edited in place leaves the answer of the next call intact
    gd = build_groebner(three_branch_presentation())
    tor = TorCoalgebra(gd)
    resolution = AnickResolution(gd)
    chain = tor.cg.chains(1)[0]
    read = {
        "chains": lambda: tor.cg.chains(1),
        "transfer_delta": lambda: tor.transfer_delta(2, chain),
        "bimodule_diff": lambda: resolution.bimodule_diff(chain),
        "nontips_by_degree": lambda: gd.nontips_by_degree,
    }[name]
    got = read()
    if isinstance(got, FormalSum):
        want = FormalSum(got.terms)
        got.terms.clear()
    else:
        want = type(got)(got)
        got.clear()
    assert want and read() == want
