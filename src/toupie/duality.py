"""Dual presentations: the hypotheses, gr via the special basis, double duals.

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
from .rewriting import GroebnerData

__all__ = [
    "HypothesesError",
    "HypothesesReport",
    "hypotheses_check",
    "gr_algebra",
    "opposite_quiver",
    "quadratic_blocks",
    "yoneda_presentation",
    "double_dual",
    "ideal_equal",
]


@dataclass(frozen=True)
class HypothesesReport:
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return not self.reasons


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
    # comp[b]: the branches linked to b, one shared set per component
    comp: dict[Path, set[Path]] = {}
    for _, rel in g.nonmono_rows:
        linked = set(rel.terms).union(*(comp[b] for b in rel.terms if b in comp))
        for b in linked:
            comp[b] = linked
    offenders: dict[int, list[Path]] = {}
    for tip, _ in g.nonmono_rows:
        if len(tip) > 2:
            offenders.setdefault(id(comp[tip]), []).append(tip)
    for tips in offenders.values():
        if len(tips) > 1:
            reasons.append(
                "linked component {%s} has %d non-quadratic tips: %s"
                % (
                    ", ".join(repr(b) for b in g.branch_order if b in comp[tips[0]]),
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
    return HypothesesReport(tuple(reasons))


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
    """Dual of the dual, renamed back onto the original quiver (a** -> a).

    The second `yoneda_presentation` checks the hypotheses on the dual
    presentation, and always passes: every dual relation is quadratic.
    """
    twice = yoneda_presentation(yoneda_presentation(pres))
    q = pres.quiver
    rels = tuple(
        FormalSum(
            (q.path(*(n[:-2] for n in p.names)), c) for p, c in rel.terms.items()
        )
        for rel in twice.relations
    )
    return Presentation(q, rels, tuple(n[:-2] for n in twice.order))


def ideal_equal(p1: Presentation, p2: Presentation) -> bool:
    """Do two presentations of algebras on the same quiver cut the same ideal?

    Compares the reduced data of both under p1's branch order.  No combination
    of reduced non-monomial rows is a single branch, so the paths in the ideal
    are those in the ideal of the minimal monomial tips; and a nontrivial path
    times a whole-branch relation is 0, so the ideal is that monomial ideal
    plus the span of the reduced rows, in reduced row echelon form over the
    ordered branches.  Both sides are reduced by `build_groebner`, so this
    raises when it does (a relation not of branch form), and when the quivers
    differ (ideal comparison needs a shared path basis).
    """
    q1, q2 = p1.quiver, p2.quiver
    if q1.vertices != q2.vertices or q1.arrows != q2.arrows:
        raise ValueError("presentations live on different quivers")
    if p2.order != p1.order:
        p2 = Presentation(q2, p2.relations, p1.order)
    g1, g2 = rewriting.build_groebner(p1), rewriting.build_groebner(p2)
    return (g1.mono_tips, g1.nonmono_rows) == (g2.mono_tips, g2.nonmono_rows)
