"""Dual presentations: the link graph, gr via the special basis, double duals.

Branches occurring in non-monomial relations are *linked* when they share a
relation.  When every monomial relation is quadratic and each linked component
carries at most one relation with a non-quadratic tip, the dual algebra lives
on the opposite quiver and is presented by quadratic relations: the kernel of
the product map on arrow duals.  Dualizing twice then recovers the associated
graded algebra, which `gr_algebra` computes independently from the special
basis of the relation matrix — `ideal_equal` checks the two agree.

`ideal_equal` compares reduced data, not spans: under one branch order the
minimal monomial tips and the reduced non-monomial rows determine the ideal,
so two presentations are reduced under the first one's order and compared.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import presentation, rewriting
from .presentation import (
    FormalSum,
    Path,
    Presentation,
    Quiver,
    _term_key,
    qdiv,
)
from .rewriting import GroebnerData, _reduce

__all__ = [
    "GammaGraph",
    "HypothesesError",
    "HypothesesReport",
    "gamma_graph",
    "hypotheses_check",
    "gr_algebra",
    "opposite_quiver",
    "quadratic_blocks",
    "yoneda_presentation",
    "double_dual",
    "ideal_equal",
]

@dataclass(frozen=True)
class GammaGraph:
    """Non-oriented graph on the branches involved in non-monomial relations."""

    vertices: tuple[Path, ...]
    edges: tuple[tuple[Path, Path], ...]
    components: tuple[tuple[Path, ...], ...]


def gamma_graph(g: GroebnerData) -> GammaGraph:
    """Link two branches whenever some non-monomial relation involves both."""
    rels = [rel for _, rel in g.nonmono_rows]
    pos = {b: i for i, b in enumerate(g.branch_order)}
    vertices = [b for b in g.branch_order if any(b in rel.terms for rel in rels)]
    edge_set = set()
    for rel in rels:
        supp = sorted(rel.terms, key=pos.get)
        edge_set.update((u, v) for i, u in enumerate(supp) for v in supp[i + 1 :])
    edges = tuple(sorted(edge_set, key=lambda e: (pos[e[0]], pos[e[1]])))
    adj: dict[Path, set[Path]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[Path] = set()
    comps = []
    for v in vertices:
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for x in adj[u]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        comps.append(tuple(sorted(comp, key=pos.get)))
    return GammaGraph(tuple(vertices), edges, tuple(comps))


@dataclass(frozen=True)
class HypothesesReport:
    ok: bool
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


class HypothesesError(ValueError):
    """Raised when a dual presentation is requested but the hypotheses fail."""

    def __init__(self, reasons):
        self.reasons = tuple(reasons)
        super().__init__("; ".join(self.reasons))


def hypotheses_check(g: GroebnerData) -> HypothesesReport:
    """Can the double dual recover the associated graded algebra?

    Requires all monomial relations quadratic, at most one non-quadratic tip
    per linked component, and a quadratic shortest block in every special-basis
    relation (so the graded replacement ideal is quadratic — the dual side is
    presented by quadratic relations and can only reach quadratic ideals).
    """
    reasons = []
    for t in g.mono_tips:
        if len(t) != 2:
            reasons.append(f"monomial relation {t!r} has length {len(t)}, not 2")
    graph = gamma_graph(g)
    comp_of = {b: comp for comp in graph.components for b in comp}
    offenders: dict[tuple, list[Path]] = {}
    for tip, _ in g.nonmono_rows:
        if len(tip) > 2:
            offenders.setdefault(comp_of[tip], []).append(tip)
    for comp, tips in offenders.items():
        if len(tips) > 1:
            reasons.append(
                "linked component {%s} has %d non-quadratic tips: %s"
                % (
                    ", ".join(repr(b) for b in comp),
                    len(tips),
                    ", ".join(repr(t) for t in tips),
                )
            )
    for supp in g.special_rows:
        min_len = min(len(b) for b, _ in supp)
        if min_len != 2:
            reasons.append(
                f"relation with tip {supp[0][0]!r} has no quadratic block: "
                f"its graded replacement is homogeneous of length {min_len}"
            )
    return HypothesesReport(not reasons, tuple(reasons))


def gr_algebra(pres: Presentation) -> Presentation:
    """The associated graded presentation, from the special basis of the rows.

    Each special-basis relation (branch blocks ordered by descending length)
    is truncated at its first minimal-length block and rescaled so that block
    leads with coefficient 1; what survives is homogeneous.  Monomial
    relations pass through unchanged.
    """
    g = rewriting.build_groebner(pres)
    rels_out = []
    for supp in g.special_rows:
        min_len = min(len(b) for b, _ in supp)
        k0 = next(i for i, (b, _) in enumerate(supp) if len(b) == min_len)
        c0 = supp[k0][1]
        out = FormalSum.lift(supp[k0][0])
        for b, c in supp[k0 + 1 :]:
            out.add_term(b, qdiv(c, c0))
        assert {len(b) for b in out.terms} == {min_len}, "graded replacement not homogeneous"
        rels_out.append(out)
    rels_out.extend(FormalSum.lift(t) for t in g.mono_tips)
    return Presentation(pres.quiver, tuple(rels_out), pres.order)


def opposite_quiver(q: Quiver) -> Quiver:
    """Same vertices; every arrow reversed and renamed with a trailing star."""
    return Quiver(q.vertices, tuple((a.name + "*", a.dst, a.src) for a in q.arrows))


def _nullspace(rows, ncols):
    """Basis of the kernel of the matrix (one generator per free column)."""
    reduced, pivots = rewriting.rref(rows)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(v)
    return basis


def quadratic_blocks(ext):
    """Endpoint blocks of the product map of an `ainf.ExtAlgebra` on arrow-dual pairs.

    Returns (endpoints, slots, rows, kernel) per block: slots are the
    composable arrow pairs sharing those endpoints, rows the matrix of the
    binary product over the two-letter dual chains (one row per chain), and
    kernel a basis of its nullspace.
    """
    q = ext.gd.quiver
    blocks: dict = {}
    for x in q.arrows:
        for y in q.out[x.dst]:
            blocks.setdefault((x.src, y.dst), []).append((x, y))
    out = []
    for endpoints in sorted(blocks):
        slots = sorted(blocks[endpoints], key=lambda xy: (xy[0].name, xy[1].name))
        values = [ext.m(((q.path(x.name),), (q.path(y.name),))) for x, y in slots]
        keys = sorted({k for v in values for k in v.terms}, key=_term_key)
        rows = [[v.coeff(k) for v in values] for k in keys]
        out.append((endpoints, slots, rows, _nullspace(rows, len(slots))))
    return out


def yoneda_presentation(pres: Presentation) -> Presentation:
    """The dual algebra on the opposite quiver, with its quadratic relations.

    A composable arrow pair (x, y) corresponds to the reversed path y*.x* in
    the opposite quiver; the relations are the per-block kernels of the binary
    product on arrow duals.  Branch order carries over through the duals of
    the last arrows.  Raises HypothesesError (with the reasons) when the
    hypotheses fail — the dual then needs higher products and has no
    quadratic presentation here.
    """
    g = rewriting.build_groebner(pres)
    report = hypotheses_check(g)
    if not report:
        raise HypothesesError(report.reasons)
    from .ainf import ExtAlgebra, TorCoalgebra

    ext = ExtAlgebra(TorCoalgebra(g))
    op = opposite_quiver(pres.quiver)
    rels = []
    for _, slots, _, kernel in quadratic_blocks(ext):
        for vec in kernel:
            rels.append(
                FormalSum(
                    (op.path(y.name + "*", x.name + "*"), c)
                    for (x, y), c in zip(slots, vec)
                    if c
                )
            )
    branches = sorted(presentation.branches_of(pres.quiver), key=pres.branch_order_key())
    order = tuple(b.arrows[-1].name + "*" for b in branches)
    return Presentation(op, tuple(rels), order)


def double_dual(pres: Presentation) -> Presentation:
    """Dual of the dual, renamed back onto the original quiver (a** -> a)."""
    twice = yoneda_presentation(yoneda_presentation(pres))
    q = pres.quiver
    rels = tuple(
        FormalSum(
            (q.path(*(n[:-2] for n in p.names)), c) for p, c in rel.terms.items()
        )
        for rel in twice.relations
    )
    return Presentation(q, rels, tuple(n[:-2] for n in twice.order))


def _reduced_data(p: Presentation, order: tuple[str, ...]):
    """The monomial tips and reduced non-monomial rows of p under `order`.

    Unlike `build_groebner` this answers for linearly dependent relations too:
    the reduced rows span them either way.
    """
    if p.order != order:
        p = Presentation(p.quiver, p.relations, order)
    gd = p._groebner if p._groebner is not None else _reduce(p)[0]
    return gd.mono_tips, gd.nonmono_rows


def ideal_equal(p1: Presentation, p2: Presentation) -> bool:
    """Do two presentations of algebras on the same quiver cut the same ideal?

    Compares the reduced data of both under p1's branch order.  No combination
    of reduced non-monomial rows is a single branch, so the paths in the ideal
    are those in the ideal of the minimal monomial tips; and a nontrivial path
    times a whole-branch relation is 0, so the ideal is that monomial ideal
    plus the span of the reduced rows, in reduced row echelon form over the
    ordered branches.  Raises when the quivers differ (ideal comparison needs
    a shared path basis) or, as `build_groebner` does, when a relation is not
    of branch form.
    """
    q1, q2 = p1.quiver, p2.quiver
    if q1.vertices != q2.vertices or q1.arrows != q2.arrows:
        raise ValueError("presentations live on different quivers")
    return _reduced_data(p1, p1.order) == _reduced_data(p2, p1.order)
