"""Shared fixtures: the two algebras every other test file leans on."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

import toupie.morse
from toupie.presentation import FormalSum, Path, Presentation, Quiver, compose


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


def fixed_violators() -> list[tuple[str, Presentation]]:
    """Presentations that each break one hypothesis of the double-dual construction."""
    out = []

    q = Quiver(
        ["0", "v1", "v2", "w"],
        [("d1", "0", "v1"), ("d2", "v1", "v2"), ("d3", "v2", "w")],
    )
    out.append(
        ("cubic monomial relation", Presentation(q, (FormalSum.lift(q.path("d1", "d2", "d3")),)))
    )

    q = Quiver(
        ["0", "a1v", "a2v", "b1v", "b2v", "c1v", "w"],
        [
            ("a1", "0", "a1v"),
            ("a2", "a1v", "a2v"),
            ("a3", "a2v", "w"),
            ("b1", "0", "b1v"),
            ("b2", "b1v", "b2v"),
            ("b3", "b2v", "w"),
            ("c1", "0", "c1v"),
            ("c2", "c1v", "w"),
        ],
    )
    rel1 = FormalSum({q.path("a1", "a2", "a3"): Fraction(1), q.path("c1", "c2"): Fraction(-1)})
    rel2 = FormalSum({q.path("b1", "b2", "b3"): Fraction(1), q.path("c1", "c2"): Fraction(-1)})
    out.append(
        (
            "two non-quadratic tips in one linked component",
            Presentation(q, (rel1, rel2), order=("a1", "b1", "c1")),
        )
    )

    q = Quiver(
        ["0", "v1", "v2", "v3", "w"],
        [
            ("d1", "0", "v1"),
            ("d2", "v1", "v2"),
            ("d3", "v2", "v3"),
            ("d4", "v3", "w"),
        ],
    )
    out.append(
        (
            "quartic monomial relation",
            Presentation(q, (FormalSum.lift(q.path("d1", "d2", "d3", "d4")),)),
        )
    )

    # a lone relation with no quadratic block: its graded replacement is cubic,
    # out of reach of any quadratic dual presentation
    q = Quiver(
        ["0", "a1v", "a2v", "b1v", "b2v", "w"],
        [
            ("a1", "0", "a1v"),
            ("a2", "a1v", "a2v"),
            ("a3", "a2v", "w"),
            ("b1", "0", "b1v"),
            ("b2", "b1v", "b2v"),
            ("b3", "b2v", "w"),
        ],
    )
    rel = FormalSum({q.path("a1", "a2", "a3"): Fraction(1), q.path("b1", "b2", "b3"): Fraction(1)})
    out.append(
        (
            "non-monomial relation without a quadratic block",
            Presentation(q, (rel,), order=("a1", "b1")),
        )
    )
    return out


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


def all_paths(q: Quiver) -> list[Path]:
    """Every path of the quiver, trivial ones included, shortest first
    (finite: a toupie quiver is acyclic)."""
    out = frontier = [Path(v, ()) for v in q.vertices]
    while frontier:
        frontier = [Path(p.source, p.arrows + (a,)) for p in frontier for a in q.out[p.target]]
        out = out + frontier
    return out


def fold_path(word) -> Path:
    """Oracle for underlying paths: the letters of `word` composed one
    `compose` at a time, left to right."""
    p = word[0]
    for w in word[1:]:
        p = compose(p, w)
    return p


def lincomb_mul(a: FormalSum, b: FormalSum) -> FormalSum:
    """Product in the path algebra: bilinear, non-composable pairs multiply to 0."""
    out = FormalSum()
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            if p.target == q.source:
                out.add_term(compose(p, q), cp * cq)
    return out


def fraction_rref(rows: list) -> list:
    """Reduced row echelon form by plain Gauss-Jordan over `Fraction`, zero rows dropped."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return m[:r]


def ideal_rows(p: Presentation) -> list:
    """Oracle for `ideal_equal`: the full linear span of the ideal, reduced
    over the path basis.

    The quiver is acyclic, so the ideal is the span of the finitely many
    products path * relation * path; the reduced form is a canonical label
    for it (columns ordered by path length, then lexicographically).
    """
    paths = all_paths(p.quiver)
    basis = sorted((x for x in paths if not x.is_trivial), key=Path.sort_key)
    col = {x: j for j, x in enumerate(basis)}
    rows = set()
    for rel in p.relations:
        for left in paths:
            lr = lincomb_mul(FormalSum.lift(left), rel)
            if lr.is_zero:
                continue
            for right in paths:
                v = lincomb_mul(lr, FormalSum.lift(right))
                if v.is_zero:
                    continue
                row = [0] * len(basis)
                for pth, c in v.terms.items():
                    row[col[pth]] = c
                rows.add(tuple(row))
    return fraction_rref(sorted(rows))


def composable_tuples(ext, arity: int) -> list[tuple]:
    """All arity-tuples of chains whose underlying paths concatenate, nested in
    the order of `all_chains`."""
    chains = ext.tor.all_chains()
    by_source: dict = {}
    for c in chains:
        by_source.setdefault(fold_path(c).source, []).append(c)
    tuples = [(c,) for c in chains]
    for _ in range(arity - 1):
        tuples = [
            t + (c,)
            for t in tuples
            for c in by_source.get(fold_path(t[-1]).target, ())
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


def stasheff_coalgebra_defects_dense(table: dict, chains, n_max: int) -> list:
    """Oracle for `stasheff_coalgebra_defects`: for each chain and n <= n_max,
    the signed sum of (id^r x Delta_s x id^t) Delta_{r+1+t}, evaluated over
    every (s, r) whether or not the table holds an entry there."""
    bad = []
    for n in range(2, n_max + 1):
        for gamma in chains:
            total = FormalSum()
            for s in range(2, n):
                for r in range(0, n - s + 1):
                    t = n - s - r
                    outer = _table_get(table, r + 1 + t, gamma)
                    sign = (-1) ** (r + s * t)
                    for word, c in outer.terms.items():
                        koszul = (-1) ** (s * sum(len(word[j]) for j in range(r)))
                        for inner, c2 in _table_get(table, s, word[r]).terms.items():
                            total.add_term(
                                word[:r] + inner + word[r + 1 :], sign * koszul * c * c2
                            )
            if total:
                bad.append((n, gamma, total))
    return bad


def closed_m(ext, duals) -> FormalSum:
    """Oracle for `ExtAlgebra.m`: the one-term product formula on composable tuples.

    All-arrow tuples sweep the relations containing the concatenated path
    (sign (-1)^(n(n+1)/2), coefficient from the relation); otherwise the
    concatenation must parse as a chain of the matching degree and the
    value is that chain's dual with sign (-1)^M.
    """
    duals = tuple(tuple(f) for f in duals)
    n = len(duals)
    out = FormalSum()
    if n < 2:
        return out
    paths = [fold_path(f) for f in duals]
    if any(f.target != g.source for f, g in zip(paths, paths[1:])):
        return out
    concat = fold_path(paths)
    degs = [len(f) - 1 for f in duals]
    if not any(degs):
        # every factor an arrow: the products live on the relations
        sign = (-1) ** (n * (n + 1) // 2)
        for t in ext.gd.tips:
            c = ext.gd.tip_inverse(t).coeff(concat)
            if c:
                out.add_term(ext.cg.parse(t), sign * c)
        return out
    gamma = ext.cg.parse(concat)
    if gamma is None or len(gamma) != sum(degs) + 2:
        return out
    m_exp = (
        degs[0]
        + sum((n + i + 2) * degs[i] for i in range(n))
        + sum(degs[i] * degs[j] for i in range(n) for j in range(i + 1, n))
        + n * (n + 1) // 2
    )
    out.add_term(gamma, (-1) ** m_exp)
    return out


def listed_matching(cells_by_degree: dict, matching: dict):
    """`match` and `degree` for `BasedComplex`, read off listed data: cells by
    degree and {lower: upper} pairs.  An upper cell listed for two lower cells
    keeps the last one as its partner, so the other does not match back."""
    degree_of = {c: d for d, cs in cells_by_degree.items() for c in cs}
    down = {hi: lo for lo, hi in matching.items()}

    def match(cell):
        if cell in matching:
            return "lower", matching[cell]
        if cell in down:
            return "upper", down[cell]
        return "critical", None

    return match, degree_of.__getitem__


def word_degree(cell) -> int:
    """Degree of a bar cell: 0 for a vertex, else the number of letters."""
    return 0 if isinstance(cell, Path) else len(cell)


def record_bar_differentials(monkeypatch) -> list:
    """Patch `toupie.morse.bar_differential` to record every word it is
    evaluated on; returns the list it appends to."""
    built = []
    bar_differential = toupie.morse.bar_differential

    def recording(gd, word):
        built.append(word)
        return bar_differential(gd, word)

    monkeypatch.setattr(toupie.morse, "bar_differential", recording)
    return built


@pytest.fixture
def three_branch():
    return three_branch_presentation()


@pytest.fixture
def overlap_monomial():
    return overlap_monomial_presentation()
