"""Shared fixtures: the two algebras every other test file leans on."""
from __future__ import annotations

import pytest
from hypothesis import strategies as st

from toupie.chains import underlying_path
from toupie.presentation import FormalSum, Path, Presentation, Quiver


def three_branch_presentation() -> Presentation:
    """Three parallel branches (lengths 3, 2, 2), both long relations tied to c1*c2.

    Quiver: 0 ==> w via a1 a2 a3, b1 b2, c1 c2.  Relations a1a2a3 - c1c2 and
    b1b2 - c1c2, branch order a > b > c.
    """
    q = Quiver(
        ["0", "a12", "a23", "b12", "c12", "w"],
        [
            ("a1", "0", "a12"),
            ("a2", "a12", "a23"),
            ("a3", "a23", "w"),
            ("b1", "0", "b12"),
            ("b2", "b12", "w"),
            ("c1", "0", "c12"),
            ("c2", "c12", "w"),
        ],
    )
    rel1 = FormalSum({q.path("a1", "a2", "a3"): 1, q.path("c1", "c2"): -1})
    rel2 = FormalSum({q.path("b1", "b2"): 1, q.path("c1", "c2"): -1})
    return Presentation(q, (rel1, rel2), order=("a1", "b1", "c1"))


def overlap_monomial_presentation() -> Presentation:
    """One branch d1 d2 d3 with overlapping quadratic monomial relations d1d2, d2d3."""
    q = Quiver(
        ["0", "d12", "d23", "w"],
        [("d1", "0", "d12"), ("d2", "d12", "d23"), ("d3", "d23", "w")],
    )
    rels = (FormalSum.lift(q.path("d1", "d2")), FormalSum.lift(q.path("d2", "d3")))
    return Presentation(q, rels)


def single_chain_presentation(tip_names: list[list[str]]) -> Presentation:
    """One branch d1..d4 with the given monomial relations (lists of arrow names)."""
    q = Quiver(
        ["0", "v1", "v2", "v3", "w"],
        [
            ("d1", "0", "v1"),
            ("d2", "v1", "v2"),
            ("d3", "v2", "v3"),
            ("d4", "v3", "w"),
        ],
    )
    rels = tuple(FormalSum.lift(q.path(*names)) for names in tip_names)
    return Presentation(q, rels)


def parallel_presentation(lengths, monomials=()) -> Presentation:
    """Parallel branches 0 ==> w of the given lengths, with monomial relations.

    Branch b has arrows x{b}_1 .. x{b}_n; a monomial is a (branch, start, stop)
    interval of arrow positions.
    """
    vertices, arrows = ["0", "w"], []
    for b, n in enumerate(lengths):
        inner = [f"v{b}_{j}" for j in range(1, n)]
        vertices.extend(inner)
        stops = ["0"] + inner + ["w"]
        arrows.extend((f"x{b}_{j + 1}", stops[j], stops[j + 1]) for j in range(n))
    q = Quiver(vertices, arrows)
    rels = tuple(
        FormalSum.lift(q.path(*(f"x{b}_{j + 1}" for j in range(i, k))))
        for b, i, k in dict.fromkeys(monomials)
    )
    return Presentation(q, rels)


def lines_presentation(copies: int, length: int, k: int) -> Presentation:
    """`copies` parallel copies of line(length, k): a length-k monomial at every position."""
    monos = [(b, i, i + k) for b in range(copies) for i in range(length - k + 1)]
    return parallel_presentation([length] * copies, monos)


def plain_beside_quadratic_presentation(length: int) -> Presentation:
    """A relation-free branch p of `length` arrows beside two length-2
    branches b, c tied by the one quadratic relation b1 b2 - 2 c1 c2."""
    vertices = ["0", "w", *(f"p{j}" for j in range(1, length)), "b", "c"]
    stops = ["0", *(f"p{j}" for j in range(1, length)), "w"]
    arrows = [(f"p{j + 1}", s, t) for j, (s, t) in enumerate(zip(stops, stops[1:]))]
    arrows += [("b1", "0", "b"), ("b2", "b", "w"), ("c1", "0", "c"), ("c2", "c", "w")]
    q = Quiver(vertices, arrows)
    rel = FormalSum({q.path("b1", "b2"): 1, q.path("c1", "c2"): -2})
    return Presentation(q, (rel,), order=("b1", "c1"))


@st.composite
def monomial_presentations(draw):
    """Up to 4 parallel branches of length <= 7 with up to 8 (often overlapping) monomials."""
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    intervals = draw(
        st.lists(
            st.tuples(st.integers(0, len(lengths) - 1), st.integers(0, 5), st.integers(2, 5)),
            max_size=8,
        )
    )
    monos = [(b, i, i + k) for b, i, k in intervals if i + k <= lengths[b]]
    return parallel_presentation(lengths, monos)


def occurs(p: Path, sub: Path) -> bool:
    """Brute-force consecutive-subpath search: does `sub` occur in `p`?"""
    if sub.is_trivial:
        return sub.source == p.source or any(a.dst == sub.source for a in p.arrows)
    m = len(sub.arrows)
    return any(p.arrows[i : i + m] == sub.arrows for i in range(len(p.arrows) - m + 1))


def composable_tuples(ext, arity: int) -> list[tuple]:
    """All arity-tuples of chains whose underlying paths concatenate, nested in
    the order of `all_chains`."""
    chains = ext.tor.all_chains()
    by_source: dict = {}
    for c in chains:
        by_source.setdefault(underlying_path(c).source, []).append(c)
    tuples = [(c,) for c in chains]
    for _ in range(arity - 1):
        tuples = [
            t + (c,)
            for t in tuples
            for c in by_source.get(underlying_path(t[-1]).target, ())
        ]
    return tuples


def _table_get(table: dict, arity: int, key) -> FormalSum:
    return table.get(arity, {}).get(key) or FormalSum()


def stasheff_algebra_defects_by_tuples(table: dict, tuples_by_arity: dict, n_max: int) -> list:
    """Oracle for `stasheff_algebra_defects`: for each given tuple and n <= n_max,
    the signed sum of m_{r+1+t}(id^r x m_s x id^t), evaluated window by window."""
    bad = []
    for n in range(2, n_max + 1):
        for tup in tuples_by_arity.get(n, ()):
            total = FormalSum()
            for s in range(2, n + 1):
                for r in range(0, n - s + 1):
                    t = n - s - r
                    if r + 1 + t < 2:
                        continue
                    inner = _table_get(table, s, tup[r : r + s])
                    if inner.is_zero:
                        continue
                    koszul = (-1) ** (s * sum(len(f) for f in tup[:r]))
                    sign = (-1) ** (r + s * t)
                    for gamma, c in inner.terms.items():
                        outer = _table_get(table, r + 1 + t, tup[:r] + (gamma,) + tup[r + s :])
                        total.add_scaled(outer, sign * koszul * c)
            if total:
                bad.append((n, tup, total))
    return bad


@pytest.fixture
def three_branch():
    return three_branch_presentation()


@pytest.fixture
def overlap_monomial():
    return overlap_monomial_presentation()
