"""Paths, sums, quiver shape checks."""
from __future__ import annotations

import ast
import gc
import json
import pathlib
import tokenize
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toupie.presentation import (
    Arrow,
    FormalSum,
    Path,
    Presentation,
    Quiver,
    branches_of,
    compose,
    qdiv,
    validate_toupie,
)
import toupie
import toupie.cli
from toupie.ainf import ExtAlgebra, TorCoalgebra, algebra_table, coalgebra_table
from toupie.anick import AnickResolution
from toupie.chains import underlying_path
from toupie.cli import main, parse_presentation, presentation_payload
from toupie.duality import gr_algebra
from toupie.morse import bar_words, classify_word
from toupie.random_presentations import random_presentation
from toupie.rewriting import build_groebner, classify_branches
from toupie.zigzag import BasedComplex
from tests.conftest import (
    fold_path,
    lincomb_mul,
    listed_matching,
    occurs,
    overlap_monomial_presentation,
    three_branch_presentation,
)


def test_path_compose_and_slice(three_branch):
    q = three_branch.quiver
    p = q.path("a1", "a2", "a3")
    assert len(p) == 3 and p.source == "0" and p.target == "w"
    assert p.slice(1, 3) == q.path("a2", "a3")
    assert p.slice(0, 0).is_trivial and p.slice(0, 0).source == "0"
    assert compose(q.path("a1"), q.path("a2", "a3")) == p
    with pytest.raises(ValueError):
        compose(q.path("a1"), q.path("a1"))


def test_brute_force_subpath_search(three_branch):
    # `occurs` is the tests' stand-in for a generic subpath search
    q = three_branch.quiver
    p = q.path("a1", "a2", "a3")
    assert occurs(p, q.path("a2"))
    assert occurs(p, q.path("a2", "a3")) and occurs(p, p)
    assert not occurs(p, q.path("b1"))
    assert not occurs(q.path("a2"), p)
    assert occurs(p, Path("a12", ()))  # trivial path at an inner vertex
    assert not occurs(p, Path("b12", ()))


def test_bad_path_rejected():
    a = Arrow("x", "u", "v")
    b = Arrow("y", "w", "z")
    for _ in range(2):  # a rejected path is not interned, so it is rejected again
        with pytest.raises(ValueError):
            Path("u", (a, b))
    assert ("u", (a, b)) not in Path._table


def test_a_path_freed_by_the_cyclic_collector_leaves_the_table():
    key = ("u", (Arrow("cyclic", "u", "v"),))
    gc.disable()
    try:
        box = [Path(*key)]
        box.append(box)  # a cycle: only the collector frees the list and its path
        del box
        assert Path._table[key]() is not None
    finally:
        gc.enable()
    gc.collect()
    assert key not in Path._table


def test_a_stale_callback_keeps_a_newer_live_entry():
    # a cyclic collection clears every weak reference before it runs their
    # callbacks, so a callback can run after a new path has taken its key
    key = ("u", (Arrow("stale", "u", "v"),))
    p = Path(*key)
    old = Path._table[key]
    forget = old.__callback__
    del p
    assert key not in Path._table
    q = Path(*key)
    forget(old)
    assert Path._table[key]() is q and Path(*key) is q


def test_equal_paths_are_one_object(three_branch):
    q = three_branch.quiver
    p = q.path("a1", "a2", "a3")
    assert Path("0", list(p.arrows)) is p
    assert p.slice(1, 3) is q.path("a2", "a3")
    assert compose(q.path("a1"), q.path("a2", "a3")) is p
    assert Path("a12", ()) is p.slice(1, 1)
    with pytest.raises(AttributeError):
        p.source = "w"
    # a second quiver parsed from the same JSON builds the very same paths
    again = parse_presentation(json.loads(json.dumps(presentation_payload(three_branch))))
    assert again.quiver is not q
    assert again.quiver.path("a1", "a2", "a3") is p
    assert all(x is y for x, y in zip(branches_of(again.quiver), branches_of(q)))


def test_compose_with_a_trivial_path_returns_the_other_path(three_branch):
    q = three_branch.quiver
    for p in (q.path("a1"), q.path("a2", "a3"), q.path("b1", "b2")):
        start, end = Path(p.source, ()), Path(p.target, ())
        assert compose(start, p) is p and compose(p, end) is p
        assert compose(start, start) is start
        # the endpoint check still runs when one side is trivial
        with pytest.raises(ValueError):
            compose(end, p)
        with pytest.raises(ValueError):
            compose(p, start)


def test_underlying_path_is_the_fold_of_compose(three_branch):
    for pres in (three_branch, overlap_monomial_presentation(), random_presentation(3)):
        gd = build_groebner(pres)
        words = [w for d, ws in bar_words(gd, 4).items() if d for w in ws]
        assert words
        for w in words:
            assert underlying_path(w) is fold_path(w), w
    q = three_branch.quiver
    a1, a2, a3, b2 = (q.path(n) for n in ("a1", "a2", "a3", "b2"))
    a12, w = Path("a12", ()), Path("w", ())
    # trivial letters compose like any other
    word = (a1, a12, a2, a3)
    assert underlying_path(word) is fold_path(word) is q.path("a1", "a2", "a3")
    # non-composable words raise, also where the arrows alone would compose
    for bad in ((a1, b2), (a1, a3), (a1, w), (a1, a2, w), (w, a1)):
        with pytest.raises(ValueError):
            fold_path(bad)
        with pytest.raises(ValueError):
            underlying_path(bad)


def _run_acceptance_jobs(pres) -> list:
    """The library objects behind the acceptance checks, kept alive."""
    gd = build_groebner(pres)
    tor = TorCoalgebra(gd)
    ext = ExtAlgebra(tor)
    tables = [coalgebra_table(tor, 4), algebra_table(ext, 4)]
    assert tor.sdr.verify(3) == []
    res = AnickResolution(gd)
    assert res.check(3)["square_zero"]
    for chain in tor.all_chains():
        for n in (2, 3):
            assert tor.closed_delta(n, chain) == tor.transfer_delta(n, chain)
    return [gd, tor, ext, tables, res, gr_algebra(pres)]


def test_kept_names_and_sort_keys_equal_recomputation():
    subjects = [three_branch_presentation(), overlap_monomial_presentation()]
    subjects += [random_presentation(seed) for seed in range(25)]
    alive = [_run_acceptance_jobs(pres) for pres in subjects]
    paths = [ref() for ref in list(Path._table.values())]  # the table holds weak references
    assert alive and len(paths) > 100 and None not in paths
    for p in paths:
        names = p.names
        assert names == tuple(a.name for a in p.arrows), p
        assert p.sort_key() == (len(p.arrows), p.source, names), p
        # kept: the same objects on every read
        assert p.names is names and p.sort_key() is p.sort_key()
    with pytest.raises(AttributeError):
        paths[0]._key = None


def test_same_names_other_endpoints_stay_distinct():
    x_to_v, x_to_w = Arrow("x", "u", "v"), Arrow("x", "u", "w")
    p, r = Path("u", (x_to_v,)), Path("u", (x_to_w,))
    assert p != r and p is not r
    assert (p.target, r.target) == ("v", "w")
    assert repr(p) == repr(r) == "x"


ALL_COMMANDS = (
    "validate",
    "branches",
    "tips",
    "chains",
    "betti",
    "resolution-check",
    "sdr-check",
    "tor-coalgebra",
    "ext-products",
    "stasheff",
    "yoneda",
    "gr",
    "double-dual",
    "oracle-diff",
)


def test_intern_table_does_not_leak(tmp_path, capsys):
    # every command, so the paths kept by each job's caches (chain paths,
    # memoised transfer maps) are all freed when the job ends
    assert set(ALL_COMMANDS) == set(toupie.cli._COMMAND_NAMES)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(presentation_payload(three_branch_presentation())))
    gc.collect()
    before = len(Path._table)
    for command in ALL_COMMANDS:
        main([command, str(path), "--format", "json"])
        capsys.readouterr()
        gc.collect()
        assert len(Path._table) == before, command


coeffs = st.fractions(max_denominator=20)


scalars = st.one_of(
    st.sampled_from([0, 1, -1, True, False, Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-3, 3),
    coeffs,
)
sum_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 3), scalars),
        st.tuples(st.just("scale"), st.none(), scalars),
    ),
    max_size=12,
)


@given(sum_ops)
def test_formal_sum_never_stores_zero(ops):
    s, model = FormalSum(), {}
    for op, key, c in ops:
        if op == "add":
            s.add_term(key, c)
            model[key] = model.get(key, Fraction(0)) + Fraction(c)
        else:
            before = dict(s.terms)
            scaled = s.scale(c)
            assert scaled.terms is not s.terms and s.terms == before
            s = scaled
            model = {k: v * Fraction(c) for k, v in model.items()}
        assert s.terms == {k: v for k, v in model.items() if v}
        # exact and never zero; an int coefficient cannot turn a quotient into a
        # float, as every quotient goes through qdiv (see test_no_true_division_outside_qdiv)
        assert all(type(v) in (int, Fraction) and v for v in s.terms.values())


def test_float_coefficients_are_rejected():
    s = FormalSum.lift("x", 2)
    with pytest.raises(TypeError, match="float"):
        s.add_term("y", 0.5)
    with pytest.raises(TypeError, match="float"):
        s.scale(0.5)
    with pytest.raises(TypeError, match="float"):
        FormalSum({"x": 0.5})
    with pytest.raises(TypeError, match="float"):
        FormalSum().add_scaled(s, 1.0)
    assert s == FormalSum.lift("x", 2)


def test_coefficients_are_int_when_integral():
    s = FormalSum({"x": Fraction(4, 2), "y": Fraction(1, 2)})
    assert type(s.coeff("x")) is int and type(s.coeff("y")) is Fraction
    s.add_term("y", Fraction(1, 2))
    assert s.terms == {"x": 2, "y": 1} and type(s.coeff("y")) is int
    half = s.scale(Fraction(1, 2))
    assert half.terms == {"x": 1, "y": Fraction(1, 2)} and type(half.coeff("x")) is int
    assert s.coeff("z") == 0


def test_formal_sum_repr(three_branch):
    # terms in `_term_key` order: paths by their sort key, then other keys;
    # a unit magnitude is written without its coefficient
    q = three_branch.quiver
    s = FormalSum(
        {"x": Fraction(1, 2), q.path("c1"): Fraction(-3, 2), q.path("b1", "b2"): -1,
         q.path("a1", "a2", "a3"): 1}
    )
    assert repr(s) == "-3/2*c1 -b1*b2 +a1*a2*a3 +1/2*'x'"
    assert repr(FormalSum()) == "0"


def test_term_key_orders_paths_then_tuples_then_strings(three_branch):
    q = three_branch.quiver
    a, b = q.path("a1", "a2"), q.path("b1")
    s = FormalSum({"x": 1, (a, b): 2, a: 3, (b,): 4, b: 5})
    assert [k for k, _ in s.items()] == [b, a, (b,), (a, b), "x"]


def test_add_scaled_of_itself_doubles():
    x = FormalSum({"x": 1, "y": Fraction(-1, 2)})
    assert x.add_scaled(x) is x
    assert x.terms == {"x": 2, "y": -1} and type(x.coeff("y")) is int


@given(
    st.one_of(st.integers(-50, 50), coeffs),
    st.one_of(st.integers(-50, 50), coeffs).filter(bool),
)
def test_qdiv_is_the_exact_quotient(a, b):
    q = qdiv(a, b)
    exact = Fraction(a) / Fraction(b)
    assert q == exact
    assert type(q) is (int if exact.denominator == 1 else Fraction)


def test_dotted_weight_of_a_non_unit_match_is_exact():
    # d(y) = 2x with x matched to y: the dotted arrow x -> y weighs -1/2
    diff = {"x": FormalSum(), "y": FormalSum.lift("x", 2)}
    cx = BasedComplex(diff.__getitem__, *listed_matching({0: ["x"], 1: ["y"]}, {"x": "y"}))
    h = cx.h("x")
    assert h.terms == {"y": Fraction(1, 2)} and type(h.coeff("y")) is Fraction


def test_anick_transfer_is_exact_over_a_non_unit_relation():
    # a1a2a3 rewrites to 2 c1c2, so the projection recursion divides by the
    # matched coefficient and multiplies by 2 in its decorations
    pres = three_branch_presentation()
    q = pres.quiver
    rel = FormalSum({q.path("a1", "a2", "a3"): 1, q.path("c1", "c2"): -2})
    gd = build_groebner(Presentation(q, (rel,), pres.order))
    res = AnickResolution(gd)
    words = [w for cells in bar_words(gd).values() for w in cells]
    lower = [w for w in words if classify_word(res.cg, w)[0] == "lower"]
    projected = [res.p(w) for w in lower]
    assert lower and any(projected)
    differentials = [res.differential(c) for d in range(3) for c in res.cg.chains(d)]
    values = [c for fs in projected + differentials for c in fs.terms.values()]
    assert 2 in values or -2 in values
    assert all(type(c) in (int, Fraction) for c in values)
    assert res.check(3) == {"square_zero": True, "augmented": True, "minimal": True, "violations": []}


@pytest.mark.parametrize(
    "coeffs, expected",
    [((2, 3, -1), Fraction(-1, 3)), ((1, -2, 4), -2)],
    ids=["fraction", "integral"],
)
def test_gr_rescaling_is_exact(coeffs, expected):
    # one relation over all three branches: its graded block is b1b2 + (c/c0) c1c2
    pres = three_branch_presentation()
    q = pres.quiver
    branches = (q.path("a1", "a2", "a3"), q.path("b1", "b2"), q.path("c1", "c2"))
    rel = FormalSum(dict(zip(branches, coeffs)))
    (graded,) = gr_algebra(Presentation(q, (rel,), pres.order)).relations
    assert graded.terms == {branches[1]: 1, branches[2]: expected}
    assert type(graded.coeff(branches[2])) is type(expected)


def test_no_true_division_outside_qdiv():
    # an int coefficient divided with `/` is a float; every quotient goes through qdiv
    found = []
    for src in sorted(pathlib.Path(toupie.__file__).parent.glob("*.py")):
        text = src.read_text()
        spans = [
            (node.lineno, node.end_lineno)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name == "qdiv"
        ]
        with src.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                line = tok.start[0]
                if tok.type == tokenize.OP and tok.string in ("/", "/=") and not any(
                    lo <= line <= hi for lo, hi in spans
                ):
                    found.append(f"{src.name}:{line}")
    assert found == []


# int and Fraction coefficients that cancel one another often
unit_coeffs = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])
unit_sums = st.lists(st.tuples(st.integers(0, 4), unit_coeffs), max_size=6)


@given(unit_sums, st.lists(unit_sums, min_size=2, max_size=2), unit_sums,
       st.sampled_from([0, 1, -1, 2, Fraction(1, 3)]))
def test_add_composite_is_the_naive_term_loop(outer_terms, values, start, c):
    outer = FormalSum(outer_terms)
    # fn hands out kept sums, as the zigzag caches do: key 0 maps to the zero
    # sum, keys 1 and 2 to their own sums, and keys 3 and 4 share key 2's
    kept = [FormalSum(), FormalSum(values[0]), FormalSum(values[1])]
    fn = lambda k: kept[min(k, 2)]
    before = [list(s.terms.items()) for s in (outer, *kept)]
    got, want = FormalSum(start), FormalSum(start)
    assert got.add_composite(outer, fn, c) is got
    for k, a in outer.terms.items():
        for key, v in fn(k).terms.items():
            want.add_term(key, Fraction(c) * a * v)
    # equal terms in equal insertion order, exact and never zero
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(v) is int or type(v) is Fraction and v.denominator != 1 for v in got.terms.values())
    assert all(got.terms.values())
    naive = FormalSum()
    for k, a in outer.terms.items():
        for key, v in fn(k).terms.items():
            naive.add_term(key, a * v)
    assert list(outer.map_terms(fn).terms.items()) == list(naive.terms.items())
    assert [list(s.terms.items()) for s in (outer, *kept)] == before


@given(
    st.lists(st.tuples(st.integers(0, 3), coeffs), max_size=6),
    st.lists(st.tuples(st.integers(0, 3), coeffs), max_size=6),
    coeffs,
)
def test_formal_sum_linear(xs, ys, c):
    a, b = FormalSum(xs), FormalSum(ys)
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)
    assert a - a == FormalSum()
    assert (a + b) - b == a


def test_lincomb_mul_drops_noncomposable(three_branch):
    q = three_branch.quiver
    x = FormalSum({q.path("a1"): 2})
    y = FormalSum({q.path("a2"): 3, q.path("b2"): 5})
    assert lincomb_mul(x, y) == FormalSum({q.path("a1", "a2"): 6})


def test_lincomb_mul_associative(three_branch):
    q = three_branch.quiver
    x = FormalSum({q.path("a1"): 1, q.path("b1"): 2})
    y = FormalSum({q.path("a2"): 3, q.path("b2"): Fraction(1, 2)})
    z = FormalSum({q.path("a3"): 7})
    assert lincomb_mul(lincomb_mul(x, y), z) == lincomb_mul(x, lincomb_mul(y, z))
    e = FormalSum({Path(v, ()): 1 for v in q.vertices})  # the identity of kQ
    assert lincomb_mul(e, y) == y and lincomb_mul(y, e) == y


def test_validate_toupie_accepts_fixtures(three_branch, overlap_monomial):
    assert validate_toupie(three_branch.quiver) == ("0", "w")
    assert validate_toupie(overlap_monomial.quiver) == ("0", "w")


def kahn_is_acyclic(vertices, arrows) -> bool:
    """Kahn's algorithm: peel off vertices with no remaining incoming arrow."""
    indeg = {v: 0 for v in vertices}
    for _, _, dst in arrows:
        indeg[dst] += 1
    ready = [v for v in vertices if not indeg[v]]
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for _, src, dst in arrows:
            if src == v:
                indeg[dst] -= 1
                if not indeg[dst]:
                    ready.append(dst)
    return peeled == len(vertices)


def brute_force_is_toupie(q: Quiver) -> bool:
    # degrees counted from the arrow list, not from the quiver's adjacency maps
    inn = {v: sum(a.dst == v for a in q.arrows) for v in q.vertices}
    out = {v: sum(a.src == v for a in q.arrows) for v in q.vertices}
    sources = [v for v in q.vertices if not inn[v]]
    sinks = [v for v in q.vertices if not out[v]]
    if len(sources) != 1 or len(sinks) != 1 or sources == sinks:
        return False
    if not q.arrows or not kahn_is_acyclic(q.vertices, q.arrows):
        return False
    return all(
        inn[v] == 1 and out[v] == 1 for v in q.vertices if v not in (sources[0], sinks[0])
    )


def test_validate_toupie_iff_small_quivers():
    # every digraph on 3 and on 4 vertices with at most one arrow per ordered
    # pair; 4 is the least vertex count whose degrees can pass around a
    # directed cycle (two inner vertices swapping arrows beside the
    # source-sink arrow)
    for verts in (["p", "q", "r"], ["p", "q", "r", "s"]):
        pairs = [(u, v) for u in verts for v in verts if u != v]
        for mask in range(2 ** len(pairs)):
            arrows = [
                (f"e{i}", u, v) for i, (u, v) in enumerate(pairs) if mask >> i & 1
            ]
            q = Quiver(verts, arrows)
            ok = brute_force_is_toupie(q)
            try:
                validate_toupie(q)
                assert ok, f"accepted non-toupie {arrows}"
            except ValueError:
                assert not ok, f"rejected toupie {arrows}"


def test_validate_toupie_rejects_cycle_off_to_the_side():
    q = Quiver(
        ["0", "w", "x", "y"],
        [("m", "0", "w"), ("p", "x", "y"), ("q", "y", "x")],
    )
    with pytest.raises(ValueError, match="cycle"):
        validate_toupie(q)


def test_validate_toupie_rejects_parallel_double_arrowheads():
    q = Quiver(["0", "m", "w"], [("x", "0", "m"), ("y", "0", "m"), ("z", "m", "w")])
    with pytest.raises(ValueError):
        validate_toupie(q)


def test_parallel_arrows_are_fine():
    q = Quiver(["0", "w"], [("x", "0", "w"), ("y", "0", "w")])
    assert validate_toupie(q) == ("0", "w")
    assert len(branches_of(q)) == 2


def test_branches(three_branch):
    bs = branches_of(three_branch.quiver)
    assert sorted(b.names for b in bs) == [("a1", "a2", "a3"), ("b1", "b2"), ("c1", "c2")]


@pytest.mark.parametrize(
    "order, message",
    [
        (("zz",), "order[0]: unknown arrow 'zz'"),
        (("a1", 3), "order[1]: unknown arrow 3"),
        ((["a1"],), "order[0]: unknown arrow ['a1']"),
        (("a2",), "order[0]: arrow 'a2' starts no branch"),
        (("b1", "b1", "a1"), "order[1]: duplicate arrow 'b1'"),
    ],
    ids=["unknown", "not-a-string", "unhashable", "inner-arrow", "repeated"],
)
def test_presentation_rejects_a_bad_order(three_branch, order, message):
    with pytest.raises(ValueError) as info:
        Presentation(three_branch.quiver, three_branch.relations, order)
    assert str(info.value) == message


def _stray_monomial(pres):
    # z*y composes, but neither arrow is in the quiver
    z, y = Arrow("z", "0", "m"), Arrow("y", "m", "w")
    return build_groebner(Presentation(pres.quiver, (FormalSum.lift(Path("0", (z, y))),)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda pres: Quiver(["0", "w", "0"], [("a", "0", "w")]), "duplicate vertex names"),
        (
            lambda pres: Quiver(["0", "w"], [("a", "0", "w"), ("a", "0", "w")]),
            "duplicate arrow names",
        ),
        (
            lambda pres: Quiver(["0", "w"], [("a", "0", "x")]),
            "arrow Arrow(name='a', src='0', dst='x') touches unknown vertex",
        ),
        (
            lambda pres: build_groebner(Presentation(pres.quiver, (FormalSum(),))),
            "zero relation",
        ),
        (_stray_monomial, "relation not of branch form: z*y is not a subpath of a branch"),
    ],
    ids=["duplicate-vertex", "duplicate-arrow", "unknown-endpoint", "zero-relation", "stray-arrows"],
)
def test_library_refusals_name_the_fault(three_branch, build, message):
    with pytest.raises(ValueError) as info:
        build(three_branch)
    assert str(info.value) == message


def test_classify_branches(three_branch):
    classes = classify_branches(build_groebner(three_branch))
    # descending length, ties by the a > b > c order
    assert [(b.names, cls) for b, cls in classes.items()] == [
        (("a1", "a2", "a3"), "nonmonomial"),
        (("b1", "b2"), "nonmonomial"),
        (("c1", "c2"), "nonmonomial"),
    ]


def test_classify_branches_monomial(overlap_monomial):
    classes = classify_branches(build_groebner(overlap_monomial))
    assert [(b.names, cls) for b, cls in classes.items()] == [(("d1", "d2", "d3"), "monomial")]


def test_classify_branch_in_both_reduces_to_monomials():
    # b1*b2 is monomial and in both long relations: the reduction turns
    # b1b2 - c1c2 into the monomial c1c2, and then a1a2a3 - c1c2 into a1a2a3
    pres = three_branch_presentation()
    q = pres.quiver
    rels = pres.relations + (FormalSum.lift(q.path("b1", "b2")),)
    classes = classify_branches(build_groebner(Presentation(q, rels, pres.order)))
    assert [(b.names, cls) for b, cls in classes.items()] == [
        (("a1", "a2", "a3"), "monomial"),
        (("b1", "b2"), "monomial"),
        (("c1", "c2"), "monomial"),
    ]


def test_classify_rejects_non_branch_relation(three_branch):
    q = three_branch.quiver
    # a1*a2 + b1*b2 is not a combination of whole branches
    bad = FormalSum({q.path("a1", "a2"): 1, q.path("b1", "b2"): 1})
    with pytest.raises(ValueError, match="not of branch form"):
        classify_branches(build_groebner(Presentation(q, (bad,))))
