"""Rewriting machinery: row reduction, tips, normal forms.

Relations are put in reduced row echelon form over the branches (longest
branch first, ties broken by the presentation's order).  The leading branch of
each reduced relation is its *tip*; together with the monomial relations the
tips generate the ideal of leading terms, and the tip-free paths ("nontips")
form a linear basis of the quotient algebra.  `_split_relations` is the one
place that rejects malformed relations, and `classify_branches` reads the
branch classes off the reduced data.

The ideal of leading terms is a `TipIdeal`.  Every nontrivial path is the
interval [i, i + len) of exactly one branch, so the ideal keeps a map
arrow -> (branch, offset) and, per branch b, a suffix-minimum array: ends[b][i]
is the least end of a tip on b that starts at or after i (len(b) + 1 if none).
A path [i, j) of b contains a tip exactly when ends[b][i] <= j, and the
shortest continuation of a nontip [i, e) into the ideal is [e, ends[b][i]).
A whole-branch tip is contained only in itself, so one such index serves
monomial and non-monomial tips alike.

`rref` and `special_basis` are fraction-free: they clear each row's
denominators once and work on integer vectors, so no entry is normalised per
operation (`rref` eliminates below each pivot, then back-substitutes on the free
columns only).  Their results are exactly those of the same work over `Fraction`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import presentation
from .presentation import FormalSum, Path, Presentation

__all__ = [
    "rref", "special_basis", "TipIdeal", "GroebnerData", "build_groebner", "classify_branches"
]


_ZERO = Fraction(0)  # shared by every zero entry returned
_ONE = Fraction(1)  # shared by every pivot entry of `rref`


def _integer_row(row):
    """(integer vector, positive common denominator) whose quotient is `row`."""
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _primitive(v):
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return [a // g for a in v] if g > 1 else v


def rref(rows):
    """Reduced row echelon form over Q.  Returns (rows_without_zero_rows, pivot_columns).

    Fraction-free, in two phases: forward elimination clears each pivot from the
    rows below it over Z (p*row - f*pivot_row right of the pivot, kept primitive),
    then back-substitution walks up the pivot rows on the free columns only, each
    row an integer vector over a positive denominator.  Entries are `Fraction`s.
    """
    m = [_primitive(_integer_row(row)[0]) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots, free = [], []
    r = 0
    for c in range(ncols):
        for pivot in range(r, len(m)):
            if m[pivot][c]:
                break
        else:
            free.append(c)
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p, tail = m[r][c], m[r][c + 1 :]
        for row in m[r + 1 :]:
            f = row[c]
            if f:  # row[c] is left as it is: no later step reads it
                row[c + 1 :] = _primitive([p * a - f * b for a, b in zip(row[c + 1 :], tail)])
        pivots.append(c)
        r += 1
    if not (r and free):  # no pivot, or no free column: nothing to back-substitute
        return [[_ONE if j == c else _ZERO for j in range(ncols)] for c in pivots], pivots
    out, solved = [None] * r, [None] * r  # solved[k] = (v, d): row k is v/d on `free`
    for k in range(r - 1, -1, -1):
        row = m[k]
        v, d = [row[j] for j in free], 1
        for j in range(k + 1, r):
            a = row[pivots[j]]
            if a:  # v/d - a * vj/dj over the least common denominator
                vj, dj = solved[j]
                g = gcd(d, dj)
                s, t = dj // g, a * (d // g)
                v, d = [x * s - t * y for x, y in zip(v, vj)], d * s
        d *= row[pivots[k]]
        g = gcd(d, *v) if d > 0 else -gcd(d, *v)  # to lowest terms, denominator positive
        if g != 1:
            v, d = [x // g for x in v], d // g
        solved[k] = v, d
        line = out[k] = [_ZERO] * ncols
        line[pivots[k]] = _ONE
        for j, x in zip(free, v):
            if x:
                line[j] = Fraction(x, d)
    return out, pivots


def special_basis(rows):
    """Sweep a reduced matrix into its special form.

    Scan columns right to left; in each column pick the bottom-most row whose
    nonzero entry there is its last (everything strictly to the right is zero),
    and clear the column above that row.  The first column with no such row
    stops the whole sweep.

    Fraction-free: each row is kept as an integer vector over a positive
    denominator, cleared as (v_j*p - f*v_i) / (d_j*p) and reduced by the common
    gcd; the entries returned are `Fraction`s.
    """
    m = [_integer_row(row) for row in rows]
    if not m:
        return []
    for c in range(len(m[0][0]) - 1, -1, -1):
        i = next(
            (i for i in range(len(m) - 1, -1, -1) if m[i][0][c] and not any(m[i][0][c + 1 :])),
            None,
        )
        if i is None:
            break
        vi = m[i][0]
        p = vi[c]
        for j in range(i):
            vj, dj = m[j]
            f = vj[c]
            if f:
                v = [p * a - f * b for a, b in zip(vj, vi)]
                d = dj * p
                if d < 0:
                    v, d = [-a for a in v], -d
                g = gcd(d, *v)
                m[j] = [a // g for a in v], d // g
    return [[Fraction(a, d) if a else _ZERO for a in v] for v, d in m]


def _split_relations(pres: Presentation):
    """Relations as (monomial paths, non-monomial combinations), with shape checks."""
    arrows = set(pres.quiver.arrows)
    branch_set = set(presentation.branches_of(pres.quiver))
    mono, nonmono = [], []
    for rel in pres.relations:
        if rel.is_zero:
            raise ValueError("zero relation")
        terms = list(rel.terms)
        if len(terms) == 1:
            p = terms[0]
            if len(p) < 2:
                raise ValueError(f"monomial relation {p!r} shorter than 2")
            # composable arrows of a toupie quiver run along one branch
            if not arrows.issuperset(p.arrows):
                raise ValueError(f"relation not of branch form: {p!r} is not a subpath of a branch")
            mono.append(p)
        else:
            for p in terms:
                if p not in branch_set or len(p) < 2:
                    raise ValueError(
                        f"relation not of branch form: {p!r} must be a whole branch of length >= 2"
                    )
            nonmono.append(rel)
    return mono, nonmono


class TipIdeal:
    """The monomial ideal generated by a set of tips, indexed by branch interval."""

    def __init__(self, quiver):
        self.branches = presentation.branches_of(quiver)
        self.at = {a: (b, i) for b, br in enumerate(self.branches) for i, a in enumerate(br.arrows)}
        self.ends = [[len(br) + 1] * (len(br) + 1) for br in self.branches]

    def add(self, tip: Path) -> None:
        b, i = self.at[tip.arrows[0]]
        j = i + len(tip.arrows)
        ends = self.ends[b]
        # ends[b] is nondecreasing, so the update stops at the first entry <= j
        while i >= 0 and ends[i] > j:
            ends[i] = j
            i -= 1

    def __contains__(self, p: Path) -> bool:
        """Does p contain a tip?"""
        if not p.arrows:
            return False
        b, i = self.at[p.arrows[0]]
        return self.ends[b][i] <= i + len(p.arrows)

    def cut(self, prev: Path):
        """The shortest path v after nontrivial nontip prev with prev * v in the ideal, or None."""
        b, i = self.at[prev.arrows[0]]
        j = self.ends[b][i]  # past the end of prev, as prev is a nontip
        br = self.branches[b]
        return br.slice(i + len(prev.arrows), j) if j <= len(br) else None


class GroebnerData:
    """Tips, tails and the nontip basis of a presentation."""

    def __init__(self, quiver, order_key, mono_tips, nonmono_rows, branch_order, tip_ideal):
        self.quiver = quiver
        # the presentation's branch order key; the presentation itself is not
        # kept, as it holds this data (no reference cycle)
        self.order_key = order_key
        self.mono_tips: tuple[Path, ...] = tuple(sorted(mono_tips, key=Path.sort_key))
        # each row: (tip branch, full relation with tip coefficient 1)
        self.nonmono_rows: tuple[tuple[Path, FormalSum], ...] = tuple(nonmono_rows)
        # the branches of the reduced rows, in the presentation's branch order
        self.branch_order: tuple[Path, ...] = tuple(branch_order)
        self.nonmono_by_tip = {t: rel for t, rel in self.nonmono_rows}
        self.tips = frozenset(self.mono_tips) | frozenset(self.nonmono_by_tip)
        self.tip_ideal: TipIdeal = tip_ideal  # generated by self.tips
        self._nf_cache: dict = {}

    def tip_inverse(self, t: Path) -> FormalSum:
        """The reduced relation with tip t (a monomial tip is its own relation)."""
        rel = self.nonmono_by_tip.get(t)
        if rel is not None:
            return rel
        if t in self.tips:  # not a nonmonomial tip, so a monomial one
            return FormalSum.lift(t)
        raise KeyError(f"{t!r} is not a tip")

    def tail_of(self, t: Path) -> FormalSum:
        """What the tip rewrites to: tip - relation."""
        return FormalSum.lift(t) - self.tip_inverse(t)

    # -- normal forms --------------------------------------------------------

    def normal_form(self, p: Path) -> FormalSum:
        """The normal form of a path: the cached sum itself, shared, so read it
        without editing.  A sum reduces as `fs.map_terms(gd.normal_form)`."""
        got = self._nf_cache.get(p)
        if got is None:
            if p in self.nonmono_by_tip:
                got = self.tail_of(p).map_terms(self.normal_form)
            elif p in self.tip_ideal:  # contains a monomial tip
                got = FormalSum()
            else:
                got = FormalSum.lift(p)
            self._nf_cache[p] = got
        return got

    # -- nontip basis --------------------------------------------------------

    @property
    def nontips_by_degree(self) -> dict[int, tuple[Path, ...]]:
        """The nontips of each length: the intervals [i, j) of a branch b with j < ends[b][i]."""
        by_deg: dict[int, list[Path]] = {0: [Path(v, ()) for v in self.quiver.vertices]}
        ti = self.tip_ideal
        for br, ends in zip(ti.branches, ti.ends):
            for i in range(len(br)):
                for j in range(i + 1, ends[i]):
                    by_deg.setdefault(j - i, []).append(br.slice(i, j))
        return {d: tuple(sorted(ps, key=Path.sort_key)) for d, ps in sorted(by_deg.items())}

    @property
    def special_rows(self) -> tuple[tuple[tuple[Path, Fraction], ...], ...]:
        """Support of each special-basis relation, branch blocks longest first."""
        got = getattr(self, "_special", None)
        if got is None:
            rows = [[rel.coeff(b) for b in self.branch_order] for _, rel in self.nonmono_rows]
            got = self._special = tuple(
                tuple((self.branch_order[j], c) for j, c in enumerate(row) if c)
                for row in special_basis(rows)
            )
        return got

    @property
    def dim(self) -> int:
        """The number of nontips in `nontips_by_degree`, counted off the tip ideal:
        the vertices, plus per branch position i the intervals [i, j) with
        i < j < ends[b][i]."""
        ends = self.tip_ideal.ends
        return len(self.quiver.vertices) + sum(
            max(0, e - i - 1) for row in ends for i, e in enumerate(row)
        )


def build_groebner(pres: Presentation) -> GroebnerData:
    """Reduce the relations to tip/tail form (see `_reduce`).

    Every generating set is accepted, linearly dependent ones included: the
    result depends only on the ideal and the branch order.  It is stored on
    `pres`, so the reduction runs once per presentation however often this is
    asked.
    """
    if pres._groebner is None:
        object.__setattr__(pres, "_groebner", _reduce(pres))  # Presentation is frozen
    return pres._groebner


def _reduce(pres: Presentation) -> GroebnerData:
    """The reduced data of `pres`.

    Branch terms containing a monomial tip are dropped from the non-monomial
    relations, and what is left is row-reduced over the ordered branches.  A
    reduced row with a single term is a whole branch in the ideal, so a
    monomial tip: a unit vector in the row space is always a row of its reduced
    echelon form, and no other row uses its pivot column.  The data is
    canonical for the ideal and the branch order: the minimal monomial tips,
    and the reduced rows over the branches they leave.
    """
    mono, nonmono = _split_relations(pres)

    # reduced monomial set: shortest first, drop any monomial containing a kept one
    ideal = TipIdeal(pres.quiver)
    mono_tips = []
    for p in sorted(set(mono), key=Path.sort_key):
        if p not in ideal:
            ideal.add(p)
            mono_tips.append(p)

    key = pres.branch_order_key()
    stripped = [{p: c for p, c in rel.terms.items() if p not in ideal} for rel in nonmono]
    involved = sorted({p for rel in stripped for p in rel}, key=key)
    reduced, pivots = rref([[rel.get(b, 0) for b in involved] for rel in stripped])

    nonmono_rows, single = [], set()
    for row, pc in zip(reduced, pivots):
        tip = involved[pc]
        ideal.add(tip)
        rel = FormalSum({involved[j]: c for j, c in enumerate(row) if c})
        if len(rel.terms) == 1:
            mono_tips.append(tip)
            single.add(tip)
        else:
            nonmono_rows.append((tip, rel))
    branch_order = [b for b in involved if b not in single]
    return GroebnerData(pres.quiver, key, mono_tips, nonmono_rows, branch_order, ideal)


def classify_branches(gd: GroebnerData) -> dict:
    """{branch: class} over every branch, in the presentation's branch order.

    The classes are read off the reduced relations: `arrow` for a length-1
    branch, `monomial` for a branch containing a monomial tip, `nonmonomial`
    for a branch in a reduced non-monomial relation, `plain` otherwise.  They
    are exclusive, because the reduction drops every branch term that contains
    a monomial tip from the non-monomial relations; so a branch in the tip
    ideal that is in no non-monomial relation contains a monomial tip.
    """
    in_nonmono = {b for _, rel in gd.nonmono_rows for b in rel.terms}
    out = {}
    for b in sorted(presentation.branches_of(gd.quiver), key=gd.order_key):
        if len(b) == 1:
            out[b] = "arrow"
        elif b in in_nonmono:
            out[b] = "nonmonomial"
        elif b in gd.tip_ideal:
            out[b] = "monomial"
        else:
            out[b] = "plain"
    return out
