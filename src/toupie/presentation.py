"""Quivers, paths and rational linear combinations.

A *toupie* quiver has one source vertex, one sink vertex, and every other
vertex has exactly one incoming and one outgoing arrow, so the arrows split
into parallel *branches* (maximal source-to-sink paths), and every nontrivial
path lies in exactly one branch: it is the interval of that branch that starts
at its first arrow.  Algebras are presented as a quotient of the path algebra
over Q by relations that are either a subpath of a branch (monomial) or a
linear combination of whole branches (non-monomial).  The relation shape
checks and the branch classes live with the reduced relations in `rewriting`.

Paths are interned: equal paths are one object, so the dicts and sets keyed
by paths (and by tuples of paths, such as bar cells) hash and compare them by
identity; the intern table holds each path by a weak reference, so a path no
longer used is freed (see `Path`).  Formal sums store exact rationals (`int`
when integral, else `Fraction`), never float: every coefficient enters
through one normaliser, and every quotient of coefficients is taken by `qdiv`.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

__all__ = [
    "Arrow",
    "Path",
    "FormalSum",
    "qdiv",
    "Quiver",
    "Presentation",
    "compose",
    "validate_toupie",
    "branches_of",
]


class Arrow(NamedTuple):
    """A named arrow src -> dst.  A named tuple, so the path intern key,
    which holds the arrows, hashes and compares without Python calls."""

    name: str
    src: str
    dst: str


class _Ref(weakref.ref):
    # a weak reference to an interned path that carries the path's table key;
    # it defines no `__new__` or `__init__`, so C code alone builds it
    __slots__ = ("key",)


_interned: "dict[tuple, _Ref]" = {}
_GONE = weakref.ref(set())  # a dead reference: calling it gives None


def _forget(ref: _Ref, table=_interned) -> None:
    # called when ref's path is freed; the entry goes only while it is still
    # this dead ref, so a late callback (a cyclic collection clears every
    # reference before it runs their callbacks) never drops a newer live path.
    # The table is a default argument, so no module global is read when a
    # path is freed late in interpreter shutdown.
    if table.get(ref.key) is ref:
        del table[ref.key]


_name_of = attrgetter("name")


class Path:
    """A path: a source vertex plus a (possibly empty) run of composable arrows.

    Paths are interned: `Path(source, arrows)` returns the one live path with
    that source and those arrows (compared by `Arrow` equality), so equal
    paths are the same object and hashing and `==` are identity.  The
    composability check runs only when a new path is created.  Paths are
    immutable.  The sort key, which holds the arrow names, is kept on the path
    when first read.

    The intern table `Path._table` is a plain dict from (source, arrows) to a
    weak reference to the path, so unused paths are freed: a lookup is one
    `dict.get` and one call of the reference, and the reference's callback
    removes the entry when its path is freed, by reference count or by the
    cyclic collector alike.
    """

    __slots__ = ("source", "arrows", "_key", "__weakref__")
    _table = _interned

    source: str
    arrows: tuple[Arrow, ...]

    def __new__(cls, source: str, arrows) -> "Path":
        arrows = tuple(arrows)
        key = (source, arrows)
        self = cls._table.get(key, _GONE)()
        if self is None:
            at = source
            for a in arrows:
                if a.src != at:
                    raise ValueError(f"arrows do not compose at {at!r}: {a}")
                at = a.dst
            self = object.__new__(cls)
            object.__setattr__(self, "source", source)
            object.__setattr__(self, "arrows", arrows)
            object.__setattr__(self, "_key", None)  # filled on first read
            ref = _Ref(self, _forget)
            ref.key = key
            cls._table[key] = ref
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Path is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"Path is immutable (cannot delete {name!r})")

    @property
    def target(self) -> str:
        return self.arrows[-1].dst if self.arrows else self.source

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    @property
    def names(self) -> tuple[str, ...]:
        return self.sort_key()[2]

    def sort_key(self):
        key = self._key
        if key is None:
            key = (len(self.arrows), self.source, tuple(map(_name_of, self.arrows)))
            object.__setattr__(self, "_key", key)
        return key

    def __repr__(self) -> str:
        if not self.arrows:
            return f"e({self.source})"
        return "*".join(a.name for a in self.arrows)

    def slice(self, i: int, j: int) -> "Path":
        """Subpath spanning arrow positions [i, j)."""
        if not 0 <= i <= j <= len(self.arrows):
            raise IndexError((i, j))
        src = self.source if i == 0 else self.arrows[i - 1].dst
        return Path(src, self.arrows[i:j])


def compose(p: Path, q: Path) -> Path:
    """p then q; a trivial side returns the other path itself."""
    if p.target != q.source:
        raise ValueError(f"paths not composable: {p!r} ends at {p.target!r}, {q!r} starts at {q.source!r}")
    if not (p.arrows and q.arrows):
        return p if not q.arrows else q
    return Path(p.source, p.arrows + q.arrows)


def _term_key(x):
    # Universal deterministic sort key for FormalSum keys (paths, tuples of
    # paths, strings).
    if isinstance(x, Path):
        return (1, x.sort_key())
    if isinstance(x, tuple):
        return (2, tuple(_term_key(y) for y in x))
    return (3, x)


def _exact(c):
    """The exact rational c: an `int` when integral, else a `Fraction`; a float raises."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"coefficients are exact rationals, not float: {c!r}")
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def qdiv(a, b):
    """The exact quotient a / b: an `int` when integral, else a `Fraction`."""
    if type(a) is int and type(b) is int and b and not a % b:
        return a // b
    return _exact(Fraction(a, b))


class FormalSum:
    """A finite Q-linear combination of hashable terms.  Zero terms are never stored.

    Coefficients are exact rationals: an `int` when integral, else a `Fraction`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = {}
        if terms:
            for k, c in terms.items() if isinstance(terms, dict) else terms:
                self.add_term(k, c)

    @classmethod
    def lift(cls, key, coeff=1) -> "FormalSum":
        s = cls()
        c = coeff if type(coeff) is int else _exact(coeff)
        if c:
            s.terms[key] = c
        return s

    def add_term(self, key, coeff) -> None:
        if type(coeff) is not int:
            coeff = _exact(coeff)
        old = self.terms.get(key)
        if old is not None:
            coeff += old
            if not coeff:
                del self.terms[key]
                return
            if type(coeff) is not int:
                coeff = _exact(coeff)
        if coeff:
            self.terms[key] = coeff

    def add_scaled(self, other: "FormalSum", c=1) -> "FormalSum":
        """self += c * other, in place; returns self."""
        if type(c) is not int:
            c = _exact(c)
        if not c:
            return self
        terms = self.terms
        items = other.terms.items()
        if c == -1:
            items = [(k, -v) for k, v in items]
        elif c != 1:
            items = [(k, _exact(v * c)) for k, v in items]
        elif other is self:
            items = list(items)
        for k, v in items:
            old = terms.get(k)
            if old is None:
                terms[k] = v
            else:
                v += old
                if not v:
                    del terms[k]
                else:
                    terms[k] = v if type(v) is int else _exact(v)
        return self

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return self.scale(1).add_scaled(other)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self.scale(1).add_scaled(other, -1)

    def scale(self, c) -> "FormalSum":
        out = FormalSum()
        if type(c) is not int:
            c = _exact(c)
        if c == 1:
            out.terms = dict(self.terms)
        elif c == -1:
            out.terms = {k: -v for k, v in self.terms.items()}
        elif c:
            out.add_scaled(self, c)
        return out

    def add_composite(self, outer: "FormalSum", fn, c=1) -> "FormalSum":
        """self += c * (the sum of outer[k] * fn(k) over the keys k of outer),
        in place and in one pass; returns self.  `outer` and the values of
        `fn` are read, never edited, and may not be self."""
        if type(c) is not int:
            c = _exact(c)
        if not c:
            return self
        terms = self.terms
        for k, a in outer.terms.items():
            if c != 1:
                a *= c
            for key, v in fn(k).terms.items():
                if a != 1:
                    v = -v if a == -1 else v * a
                old = terms.get(key)
                if old is not None:
                    v += old
                    if not v:
                        del terms[key]
                        continue
                terms[key] = v if type(v) is int else _exact(v)
        return self

    def map_terms(self, fn) -> "FormalSum":
        """Linear extension of fn(key) -> FormalSum."""
        return FormalSum().add_composite(self, fn)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self):
        return sorted(self.terms.items(), key=lambda kc: _term_key(kc[0]))

    def coeff(self, key):
        return self.terms.get(key, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k, c in self.items():
            sign = "-" if c < 0 else ("+" if bits else "")
            mag = abs(c)
            coeff = "" if mag == 1 else f"{mag}*"
            bits.append(f"{sign}{coeff}{k!r}" if sign else f"{coeff}{k!r}")
        return " ".join(bits)


class Quiver:
    """Finite quiver with named vertices and arrows; lookups precomputed."""

    def __init__(self, vertices, arrows):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arrows: tuple[Arrow, ...] = tuple(
            [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
        )
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        if len(out) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        self.arrow_by_name = {a.name: a for a in self.arrows}
        if len(self.arrow_by_name) != len(self.arrows):
            raise ValueError("duplicate arrow names")
        inn: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.src not in out or a.dst not in out:
                raise ValueError(f"arrow {a} touches unknown vertex")
            out[a.src].append(a)
            inn[a.dst].append(a)
        self.out = {v: tuple(arrows) for v, arrows in out.items()}
        self.inn = {v: tuple(arrows) for v, arrows in inn.items()}
        self._branches: tuple[Path, ...] | None = None  # filled by validate_toupie

    def path(self, *arrow_names: str) -> Path:
        arrows = tuple(self.arrow_by_name[n] for n in arrow_names)
        return Path(arrows[0].src, arrows)


def validate_toupie(q: Quiver):
    """Return (source, sink) if q is a toupie quiver, else raise ValueError.

    Required shape: exactly one vertex with no incoming arrows, exactly one
    with no outgoing arrows, all remaining vertices with in-degree and
    out-degree exactly 1, no directed cycles, at least one arrow.

    After the degree checks the branches are walked from the source and
    stored on `q` for `branches_of`.  The walk cannot loop: each step enters
    an inner vertex through its one incoming arrow.  So an arrow the walk
    misses lies on a directed cycle.
    """
    if not q.arrows:
        raise ValueError("toupie quiver needs at least one arrow")
    inn, out = q.inn, q.out
    sources = [v for v in q.vertices if not inn[v]]
    sinks = [v for v in q.vertices if not out[v]]
    if len(sources) != 1:
        raise ValueError(f"expected a unique source vertex, found {sources}")
    if len(sinks) != 1:
        raise ValueError(f"expected a unique sink vertex, found {sinks}")
    src, snk = sources[0], sinks[0]
    if src == snk:
        raise ValueError("source and sink coincide")
    for v in q.vertices:
        if (len(inn[v]) != 1 or len(out[v]) != 1) and v != src and v != snk:
            raise ValueError(
                f"inner vertex {v!r} has degree ({len(inn[v])}, {len(out[v])}), expected (1, 1)"
            )
    branches, walked = [], 0
    for first in out[src]:
        arrows = [first]
        while arrows[-1].dst != snk:
            arrows.append(out[arrows[-1].dst][0])
        walked += len(arrows)
        branches.append(Path(src, tuple(arrows)))
    if walked != len(q.arrows):
        raise ValueError("quiver has a directed cycle")
    q._branches = tuple(branches)
    return src, snk


def branches_of(q: Quiver) -> tuple[Path, ...]:
    """The branches (maximal source-to-sink paths), one per arrow out of the source.

    The first call validates the toupie shape, which walks the branches and
    stores them on `q`, so the shape check runs once per quiver however often
    this is asked.
    """
    if q._branches is None:
        validate_toupie(q)
    return q._branches


@dataclass(frozen=True)
class Presentation:
    """A toupie algebra kQ/I: quiver, relations, and a tie-breaking branch order.

    `order` lists first-arrow names of branches, each at most once (ValueError
    otherwise); it breaks ties between equal-length branches when relations
    are put in row-reduced form.  Branches not listed keep quiver order after
    the listed ones.
    """

    quiver: Quiver
    relations: tuple[FormalSum, ...]
    order: tuple[str, ...] = ()
    # the reduced relations, filled by rewriting.build_groebner
    _groebner: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        by_name = self.quiver.arrow_by_name
        listed = set()
        for i, name in enumerate(self.order):
            if not (isinstance(name, str) and name in by_name):
                raise ValueError(f"order[{i}]: unknown arrow {name!r}")
            # a branch starts at an arrow out of a vertex with no incoming arrow
            if self.quiver.inn[by_name[name].src]:
                raise ValueError(f"order[{i}]: arrow {name!r} starts no branch")
            if name in listed:
                raise ValueError(f"order[{i}]: duplicate arrow {name!r}")
            listed.add(name)

    def branch_order_key(self):
        # longer branches first, then user order, then quiver order
        branches = branches_of(self.quiver)
        listed = {n: i for i, n in enumerate(self.order)}
        pos = {b: i for i, b in enumerate(branches)}
        return lambda b: (-len(b.arrows), listed.get(b.arrows[0].name, len(listed) + pos[b]))
