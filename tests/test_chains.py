"""Chain words, their graph, parses and decompositions."""
from __future__ import annotations

import gc
from itertools import combinations, product

import pytest
from hypothesis import given, settings

from toupie.ainf import TorCoalgebra, coalgebra_table
from toupie.chains import ChainGraph, underlying_path
from toupie.presentation import Path, compose
from toupie.random_presentations import random_presentation
from toupie.rewriting import build_groebner
from tests.conftest import (
    all_paths,
    brute_force_cut,
    fold_path,
    lines_presentation,
    monomial_presentations,
    occurs,
    overlap_monomial_presentation,
    plain_beside_quadratic_presentation,
    single_chain_presentation,
    three_branch_presentation,
)


def names(word):
    return tuple(p.names for p in word)


@pytest.fixture
def cg3(three_branch):
    return ChainGraph(build_groebner(three_branch))


@pytest.fixture
def cgm(overlap_monomial):
    return ChainGraph(build_groebner(overlap_monomial))


def test_chain_counts_three_branch(cg3):
    assert len(cg3.chains(0)) == 7
    assert sorted(names(w) for w in cg3.chains(1)) == [
        ((("a1",), ("a2", "a3"))),
        ((("b1",), ("b2",))),
    ]
    assert cg3.chains(2) == []
    assert cg3.max_chain_degree() == 1


def test_chain_counts_overlap(cgm):
    assert len(cgm.chains(0)) == 3
    assert sorted(names(w) for w in cgm.chains(1)) == [
        ((("d1",), ("d2",))),
        ((("d2",), ("d3",))),
    ]
    assert [names(w) for w in cgm.chains(2)] == [(("d1",), ("d2",), ("d3",))]
    assert cgm.chains(3) == []


def test_one_chains_match_tips(cg3, cgm):
    for cg in (cg3, cgm):
        paths = {underlying_path(w) for w in cg.chains(1)}
        assert paths == set(cg.gd.tips)


def test_cubic_overlapping_tips():
    pres = single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]])
    cg = ChainGraph(build_groebner(pres))
    assert sorted(names(w) for w in cg.chains(1)) == [
        (("d1",), ("d2", "d3")),
        (("d2",), ("d3", "d4")),
    ]
    assert [names(w) for w in cg.chains(2)] == [(("d1",), ("d2", "d3"), ("d4",))]
    assert cg.chains(3) == []


def test_gapped_tips():
    pres = single_chain_presentation([["d1", "d2", "d3"], ["d3", "d4"]])
    cg = ChainGraph(build_groebner(pres))
    assert sorted(names(w) for w in cg.chains(1)) == [
        (("d1",), ("d2", "d3")),
        (("d3",), ("d4",)),
    ]
    assert [names(w) for w in cg.chains(2)] == [(("d1",), ("d2", "d3"), ("d4",))]


def test_parse_inverts_underlying_path(cg3, cgm):
    pres = single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]])
    cgo = ChainGraph(build_groebner(pres))
    for cg in (cg3, cgm, cgo):
        d = 0
        while cg.chains(d):
            for w in cg.chains(d):
                assert cg.parse(underlying_path(w)) == w
            d += 1
        # distinct chains, distinct paths
        for k in range(d):
            layer = cg.chains(k)
            assert len({underlying_path(w) for w in layer}) == len(layer)


def test_parse_rejects_non_chain_paths(cg3):
    q = cg3.gd.quiver
    assert cg3.parse(q.path("a1", "a2")) is None
    assert cg3.parse(q.path("c1", "c2")) is None
    assert cg3.parse(q.path("a1", "a2", "a3")) == (q.path("a1"), q.path("a2", "a3"))
    # a trivial path is no chain: chains have nontrivial letters
    for v in q.vertices:
        assert cg3.parse(Path(v, ())) is None


def test_decompositions_none_for_long_tip_chain(cg3):
    q = cg3.gd.quiver
    u = (q.path("a1"), q.path("a2", "a3"))
    assert cg3.decompositions(u, 2, 0) == []


def test_decompositions_overlap(cgm):
    q = cgm.gd.quiver
    w = (q.path("d1"), q.path("d2"), q.path("d3"))
    got = cgm.decompositions(w, 2, 1)
    assert sorted(tuple(names(b) for b in d) for d in got) == [
        (((("d1",),)), ((("d2",), ("d3",)))),
        (((("d1",), ("d2",))), ((("d3",),))),
    ]


def test_decomposition_can_cross_letter_boundaries():
    pres = single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]])
    cg = ChainGraph(build_groebner(pres))
    q = pres.quiver
    w = (q.path("d1"), q.path("d2", "d3"), q.path("d4"))
    got = cg.decompositions(w, 2, 1)
    # the cut (d1, d2 d3 d4) does not respect the letter boundary of w
    assert sorted(tuple(names(b) for b in d) for d in got) == [
        ((("d1",),), (("d2",), ("d3", "d4"))),
        ((("d1",), ("d2", "d3")), (("d4",),)),
    ]


def test_prefix_chain_length(cg3):
    q = cg3.gd.quiver
    assert cg3.prefix_chain_length((q.path("a1"), q.path("a2", "a3"))) == 2
    assert cg3.prefix_chain_length((q.path("a1"), q.path("a2"))) == 1
    assert cg3.prefix_chain_length((q.path("a1", "a2"), q.path("a3"))) == 0
    assert cg3.prefix_chain_length((q.path("c1"), q.path("c2"))) == 1
    # formal words with a tip letter never start a chain prefix past it
    assert cg3.prefix_chain_length((q.path("b1", "b2"),)) == 0


# -- chains against the letter-graph definition, enumerated by brute force ------


def brute_force_chains(gd, max_degree):
    """Chain layers 0..max_degree by the letter-graph definition.

    Letters are the arrows and the proper right factors of tips; u -> v is an
    edge when u v contains a tip and u v without its last arrow does not.  A
    d-chain is an arrow followed by d nontip letters along edges.
    """
    def in_ideal(p):
        return any(occurs(p, t) for t in gd.tips)

    arrows = [Path(a.src, (a,)) for a in gd.quiver.arrows]
    letters = set(arrows) | {t.slice(i, len(t)) for t in gd.tips for i in range(1, len(t))}
    successors = {
        u: [
            v for v in letters
            if u.target == v.source
            and not in_ideal(v)
            and in_ideal(compose(u, v))
            and not in_ideal(compose(u, v).slice(0, len(u) + len(v) - 1))
        ]
        for u in letters
    }
    layers = [[(a,) for a in arrows if not in_ideal(a)]]
    for _ in range(max_degree):
        layers.append([w + (v,) for w in layers[-1] for v in successors[w[-1]]])
    return layers


def assert_chains_are_brute_force(pres):
    cg = ChainGraph(build_groebner(pres))
    paths = all_paths(pres.quiver)
    # a d-chain has at least d + 1 arrows, so these layers are all of them
    layers = brute_force_chains(cg.gd, max(len(p) for p in paths))
    assert layers[-1] == []
    for d, layer in enumerate(layers):
        assert cg.chains(d) == sorted(layer, key=lambda w: fold_path(w).sort_key()), d
        for w in cg.chains(d):
            assert cg.is_chain(w)
            # the kept path is the composed one, the very object
            assert cg.path(w) is fold_path(w) is underlying_path(w)
    by_path = {fold_path(w): w for layer in layers for w in layer}
    for p in paths:
        if p.is_trivial:
            continue
        assert cg.parse(p) == by_path.get(p), p
        # every way to write p as a word, tip-containing letters included
        for cuts in product((False, True), repeat=len(p) - 1):
            bounds = [0] + [j + 1 for j, c in enumerate(cuts) if c] + [len(p)]
            word = tuple(p.slice(a, b) for a, b in zip(bounds, bounds[1:]))
            assert cg.is_chain(word) == (by_path.get(p) == word), word
            # any word's kept path is its letters composed
            assert cg.path(word) is p is underlying_path(word), word


@pytest.mark.parametrize(
    "pres",
    [lines_presentation(1, 6, 2), lines_presentation(1, 8, 3), lines_presentation(3, 6, 3)],
    ids=["line-6-2", "line-8-3", "3xline-6-3"],
)
def test_chains_match_brute_force_on_lines(pres):
    assert_chains_are_brute_force(pres)


def test_chains_match_brute_force_on_random_draws():
    for seed in range(30):
        assert_chains_are_brute_force(random_presentation(seed))


@given(monomial_presentations())
@settings(max_examples=30, deadline=None)
def test_chains_match_brute_force_on_overlapping_monomials(pres):
    assert_chains_are_brute_force(pres)


def test_chain_counts_scale_with_branch_copies():
    # copies share only the source and sink, so no chain crosses between them
    def counts(copies):
        cg = ChainGraph(build_groebner(lines_presentation(copies, 8, 3)))
        return [len(cg.chains(d)) for d in range(6)]

    one = counts(1)
    assert one == [8, 6, 5, 3, 2, 0]
    for copies in (2, 3):
        assert counts(copies) == [copies * n for n in one]


def test_chain_paths_are_built_only_for_the_chains_read():
    # on line(200,2) every arrow's run reaches the sink, so keeping the path of
    # every run prefix would build ~20,000 paths; chains(1) needs 199
    cg = ChainGraph(build_groebner(lines_presentation(1, 200, 2)))
    gc.collect()
    before = len(Path._table)
    layer = cg.chains(1)
    assert len(layer) == 199
    assert len(Path._table) - before <= len(layer)
    assert [cg.path(w) for w in layer] == [fold_path(w) for w in layer]


# -- Euler-Cartan identity: the chains resolve the algebra ----------------------


def nontip_counts(q, tips) -> dict:
    """{(i, j): number of paths from i to j containing no tip}, trivial paths
    included, by a scan of every path for tips as consecutive arrow runs."""
    counts: dict = {}
    for p in all_paths(q):
        if not any(occurs(p, t) for t in tips):
            counts[p.source, p.target] = counts.get((p.source, p.target), 0) + 1
    return counts


def euler_cartan_defect(gd, chain_layers) -> dict:
    """sum_n (-1)^n C B_n C - C, nonzero entries only.

    C[i][j] counts the nontips from vertex i to vertex j, found by brute force
    from the tips; B_0 is the identity and B_n (n >= 1) counts the chains of n
    letters, `chain_layers[n - 1]`, by (first source, last target).  The chains
    index a resolution of the algebra by projective bimodules, so the
    alternating sum is C.
    """
    verts = gd.quiver.vertices
    cartan = nontip_counts(gd.quiver, gd.tips)
    total = {(i, j): -c for (i, j), c in cartan.items()}
    counts = [{(v, v): 1 for v in verts}]
    for layer in chain_layers:
        counts.append({})
        for w in layer:
            ends = (w[0].source, w[-1].target)
            counts[-1][ends] = counts[-1].get(ends, 0) + 1
    for n, b in enumerate(counts):
        for (s, t), m in b.items():
            for i in verts:
                for j in verts:
                    c = cartan.get((i, s), 0) * m * cartan.get((t, j), 0)
                    total[i, j] = total.get((i, j), 0) + (-1) ** n * c
    return {k: v for k, v in total.items() if v}


def all_chain_layers(cg) -> list:
    return [cg.chains(d) for d in range(cg.max_chain_degree() + 1)]


@pytest.mark.parametrize(
    "pres",
    [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        lines_presentation(1, 10, 3),
        lines_presentation(1, 12, 7),
        plain_beside_quadratic_presentation(8),
        *(random_presentation(seed) for seed in range(40)),
    ],
    ids=[
        "three-branch", "overlap", "line-10-3", "line-12-7", "plain-8",
        *(f"seed-{s}" for s in range(40)),
    ],
)
def test_chains_satisfy_the_euler_cartan_identity(pres):
    cg = ChainGraph(build_groebner(pres))
    assert cg.chains(cg.max_chain_degree() + 1) == []
    assert euler_cartan_defect(cg.gd, all_chain_layers(cg)) == {}


def test_euler_cartan_identity_sees_a_missing_chain():
    # negative control: one chain fewer in any layer of line(10,3) breaks the sum
    cg = ChainGraph(build_groebner(lines_presentation(1, 10, 3)))
    layers = all_chain_layers(cg)
    for d in range(len(layers)):
        short = layers[:d] + [layers[d][1:]] + layers[d + 1 :]
        assert euler_cartan_defect(cg.gd, short) != {}, d


# -- decompositions against the cut-subset enumeration ------------------------


def cut_walk_parse(gd, path):
    """The chain word of `path`: its first arrow, then cuts (`brute_force_cut`)
    while they fit and contain no tip."""
    letters = [path.slice(0, 1)]
    i = 1
    while i < len(path):
        v = brute_force_cut(gd, letters[-1])
        if v is None or i + len(v) > len(path) or any(occurs(v, t) for t in gd.tips):
            return None
        letters.append(v)
        i += len(v)
    return tuple(letters)


def cut_subset_decompositions(gd, path, n):
    """Every (n-1)-subset of inner cut points whose blocks all parse, in subset order."""
    out = []
    for cuts in combinations(range(1, len(path)), n - 1):
        bounds = (0,) + cuts + (len(path),)
        blocks = tuple(cut_walk_parse(gd, path.slice(a, b)) for a, b in zip(bounds, bounds[1:]))
        if None not in blocks:
            out.append(blocks)
    return out


def assert_decompositions_are_cut_subsets(pres, arities=range(2, 6)):
    """On one ChainGraph, whose walk every call shares, asked arity by arity
    in the given order."""
    cg = ChainGraph(build_groebner(pres))
    gd = cg.gd
    # (word, degree r) for every chain, and for every support path of every 1-chain
    words = [(w, d) for d in range(cg.max_chain_degree() + 1) for w in cg.chains(d)]
    words += [((q,), 1) for c in cg.chains(1) for q in gd.tip_inverse(underlying_path(c)).terms]
    for n in arities:
        for word, r in words:
            every = cut_subset_decompositions(gd, underlying_path(word), n)
            for degree in range(r + 1):
                want = [bs for bs in every if sum(len(b) - 1 for b in bs) == degree]
                assert cg.decompositions(word, n, degree) == want, (word, n, degree)


@pytest.mark.parametrize(
    "pres",
    [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]]),
        single_chain_presentation([["d1", "d2", "d3"], ["d3", "d4"]]),
        lines_presentation(1, 6, 2),
        lines_presentation(1, 8, 3),
        lines_presentation(3, 6, 3),
    ],
    ids=["three-branch", "overlap", "cubic-overlap", "gapped", "line-6-2", "line-8-3", "3xline-6-3"],
)
def test_decompositions_match_cut_subsets_on_fixtures(pres):
    assert_decompositions_are_cut_subsets(pres)


def test_decompositions_match_cut_subsets_on_random_draws():
    for seed in range(30):
        assert_decompositions_are_cut_subsets(random_presentation(seed))


@given(monomial_presentations())
@settings(max_examples=30, deadline=None)
def test_decompositions_match_cut_subsets_on_overlapping_monomials(pres):
    assert_decompositions_are_cut_subsets(pres)


# -- the shared walk: one memo per ChainGraph, read in any order -----------------


@pytest.mark.parametrize("arities", [(4, 3, 2), (2, 3, 4)], ids=["4-3-2", "2-3-4"])
def test_shared_walk_matches_cut_subsets_in_any_arity_order(arities):
    presentations = [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        single_chain_presentation([["d1", "d2", "d3"], ["d2", "d3", "d4"]]),
        lines_presentation(1, 8, 3),
        lines_presentation(2, 7, 2),
        *(random_presentation(seed) for seed in range(10)),
    ]
    for pres in presentations:
        assert_decompositions_are_cut_subsets(pres, arities)


@pytest.mark.parametrize(
    "pres",
    [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        plain_beside_quadratic_presentation(6),
        *(random_presentation(seed) for seed in range(20)),
        *(lines_presentation(b, length, k) for b, length, k in ((2, 10, 2), (3, 9, 3), (4, 8, 4))),
    ],
    ids=[
        "three-branch", "overlap", "plain-6", *(f"seed-{s}" for s in range(20)),
        "2xline-10-2", "3xline-9-3", "4xline-8-4",
    ],
)
def test_chain_layers_ordered_as_underlying_paths(pres):
    cg = ChainGraph(build_groebner(pres))
    for d in range(cg.max_chain_degree() + 2):
        layer = cg.chains(d)
        assert layer == sorted(layer, key=lambda w: underlying_path(w).sort_key()), d


@pytest.mark.parametrize("length, k, bound", [(10, 2, 180), (10, 3, 247)])
def test_walk_states_at_arity_four(length, k, bound):
    # every coproduct of arity <= 4 on every chain reads one shared walk, and
    # a suffix too short for its blocks is never stored
    tor = TorCoalgebra(build_groebner(lines_presentation(1, length, k)))
    coalgebra_table(tor, 4)
    assert 0 < len(tor.cg._walk) <= bound


def line_chain_count(length: int, k: int, d: int) -> int:
    """Closed form for line(length, k), sharing no code with `ChainGraph`: a
    d-chain spans (d/2)·k + 1 arrows for even d and ((d+1)/2)·k for odd d, and
    one starts at every arrow that leaves it room."""
    span = (d // 2) * k + 1 if d % 2 == 0 else (d + 1) // 2 * k
    return max(length - span + 1, 0)


def assert_line_chain_counts(length: int, k: int):
    cg = ChainGraph(build_groebner(lines_presentation(1, length, k)))
    top = max(d for d in range(length + 1) if line_chain_count(length, k, d))
    assert cg.max_chain_degree() == top
    # every degree up to one past the top
    for d in range(top + 2):
        assert len(cg.chains(d)) == line_chain_count(length, k, d), d


@pytest.mark.parametrize(
    "length, k",
    [
        (10, 2), (10, 3), (10, 4), (12, 7), (9, 3), (13, 4),
        (17, 5), (11, 2), (30, 2), (40, 2), (7, 7), (8, 8),
    ],
)
def test_line_chain_counts_match_closed_form(length, k):
    assert_line_chain_counts(length, k)


@pytest.mark.stress
def test_line_chain_counts_match_closed_form_line_600_2():
    assert_line_chain_counts(600, 2)
