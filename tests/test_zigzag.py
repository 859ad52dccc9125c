from fractions import Fraction

import pytest

from tests.conftest import listed_matching
from toupie.presentation import FormalSum
from toupie.zigzag import BasedComplex, verify_sdr


def span(**kw):
    return FormalSum(dict(kw))


def listed(cells_by_degree, diff, matching):
    """A complex from listed data, and its cells in degree order."""
    cx = BasedComplex(diff, *listed_matching(cells_by_degree, matching))
    return cx, [c for d in sorted(cells_by_degree) for c in cells_by_degree[d]]


def test_two_cell_pair_homotopy_inverts_weight():
    # d(b) = (5/3) a, a matched up to b
    cx, cells = listed(
        {0: ["a"], 1: ["b"]},
        lambda c: span(a=Fraction(5, 3)) if c == "b" else FormalSum(),
        {"a": "b"},
    )
    assert cx.h("a") == span(b=Fraction(3, 5))
    assert cx.h("b").is_zero
    assert cx.p("a").is_zero and cx.p("b").is_zero
    assert verify_sdr(cx, cells) == []


def test_critical_cell_inclusion_corrects_through_matching():
    # y kills 3x, so the critical z with d(z) = 2x includes as z - (2/3) y
    cx, cells = listed(
        {0: ["x"], 1: ["y", "z"]},
        lambda c: {"y": span(x=3), "z": span(x=2)}.get(c, FormalSum()),
        {"x": "y"},
    )
    assert cx.status("z") == "critical"
    assert cx.i("z") == span(z=1, y=Fraction(-2, 3))
    assert cx.morse_diff("z").is_zero
    assert cx.status("x") == "lower"
    assert verify_sdr(cx, cells) == []


def test_two_step_complex_identities():
    diffs = {
        "y1": span(x1=1, x2=-1),
        "y2": span(x2=1, x1=-1),
        "z": span(y1=1, y2=1),
    }
    cx, cells = listed(
        {0: ["x1", "x2"], 1: ["y1", "y2"], 2: ["z"]},
        lambda c: diffs.get(c, FormalSum()),
        {"x1": "y1", "y2": "z"},
    )
    assert cx.p("x1") == span(x2=1)
    assert cx.h("x1") == span(y1=1)
    assert verify_sdr(cx, cells) == []
    # the cells are checked in degree order, whatever order they come in
    assert verify_sdr(cx, cells[::-1]) == []


def test_degree_bound_reads_no_cell_past_the_next_degree():
    # checking cells of degree <= 2 reads differentials up to degree 3 only
    # through h, and h vanishes on the critical z: w's differential is never
    # asked for
    def diff(c):
        if c == "w":
            raise LookupError("differential of a cell past the bound")
        return span(x=1) if c == "y" else FormalSum()

    cx, cells = listed({0: ["x"], 1: ["y"], 2: ["z"], 3: ["w"]}, diff, {"x": "y"})
    assert verify_sdr(cx, cells[:2]) == verify_sdr(cx, cells[:3]) == []
    with pytest.raises(LookupError):
        verify_sdr(cx, cells)


def test_mutually_feeding_pairs_detected_as_cycle():
    diffs = {"b1": span(a1=1, a2=1), "b2": span(a1=1, a2=1)}
    cx, _ = listed(
        {0: ["a1", "a2"], 1: ["b1", "b2"]},
        lambda c: diffs.get(c, FormalSum()),
        {"a1": "b1", "a2": "b2"},
    )
    with pytest.raises(ValueError, match="zigzag cycle detected"):
        cx.p("a1")
    with pytest.raises(ValueError, match="zigzag cycle detected"):
        cx.h("a1")


def test_matched_pair_validation():
    cx, _ = listed({0: ["a"], 1: ["b"]}, lambda c: FormalSum(), {"a": "b"})
    with pytest.raises(ValueError, match="coefficient"):
        cx.status("a")
    cx, _ = listed(
        {0: ["a"], 2: ["b"]},
        lambda c: span(a=1) if c == "b" else FormalSum(),
        {"a": "b"},
    )
    with pytest.raises(ValueError, match="adjacent degrees"):
        cx.status("a")
    # b matched twice: it keeps a2 as its partner, and a's pair fails
    cx, _ = listed(
        {0: ["a", "a2"], 1: ["b"]},
        lambda c: span(a=1, a2=1) if c == "b" else FormalSum(),
        {"a": "b", "a2": "b"},
    )
    assert cx.status("b") == "upper"
    with pytest.raises(ValueError, match="does not match back"):
        cx.status("a")


# each broken pair touches a (degree 0) and b; c is a critical bystander
BROKEN_PAIRS = {
    "adjacent degrees": (
        {"a": ("lower", "b"), "b": ("upper", "a")},
        {"a": 0, "b": 2, "c": 0},
        {"b": span(a=1)},
    ),
    # a claims b and b claims a2, whose own partner is b2
    "does not match back": (
        {"a": ("lower", "b"), "b": ("upper", "a2"), "a2": ("lower", "b2"), "b2": ("upper", "a")},
        {"a": 0, "a2": 0, "b": 1, "b2": 1, "c": 0},
        {"b": span(a=1, a2=1), "b2": span(a=1, a2=1)},
    ),
    "coefficient .* is zero": (
        {"a": ("lower", "b"), "b": ("upper", "a")},
        {"a": 0, "b": 1, "c": 0},
        {"b": span(c=1)},
    ),
}


@pytest.mark.parametrize("cell", ["a", "b"])
@pytest.mark.parametrize("reader", ["p", "h", "status"])
@pytest.mark.parametrize("message", list(BROKEN_PAIRS))
def test_a_broken_pair_raises_on_first_use(message, reader, cell):
    statuses, degrees, diffs = BROKEN_PAIRS[message]
    calls = []

    def diff(c):
        calls.append(c)
        return diffs.get(c, FormalSum())

    cx = BasedComplex(diff, lambda c: statuses.get(c, ("critical", None)), degrees.__getitem__)
    # nothing is read when the complex is made, and a cell off the pair reads fine
    assert calls == []
    assert cx.status("c") == "critical" and cx.p("c") == span(c=1)
    with pytest.raises(ValueError, match=message):
        getattr(cx, reader)(cell)
    # a failed check keeps nothing: the next use raises again
    with pytest.raises(ValueError, match=message):
        cx.status(cell)


# x1 -> y1 and y2 -> z matched; x2, w and v critical (d(w) = d(v) = 0)
SQUARE = (
    {0: ["x1", "x2"], 1: ["y1", "y2", "w"], 2: ["z", "v"]},
    {"x1": "y1", "y2": "z"},
)


def square_complex(d_z=None):
    cells, matching = SQUARE
    diffs = {"y1": span(x1=1, x2=-1), "y2": span(x2=1, x1=-1), "z": d_z or span(y1=1, y2=1)}
    return listed(cells, lambda c: diffs.get(c, FormalSum()), matching)


def corrupt(cx, name, cell, extra):
    """Shadow `cx.<name>` on the instance: its value at `cell` gains `extra`."""
    good = getattr(cx, name)
    setattr(cx, name, lambda c: good(c) + extra if c == cell else good(c))


def _id(c):
    return f"id - i∘p != d∘h + h∘d at {c!r}"


# (map, cell, added term, violations in report order)
CORRUPTIONS = [
    ("h", "x1", span(y2=1), [_id("x1"), "h∘h != 0 at 'x1'", _id("y1"), _id("y2")]),
    ("h", "x1", span(w=1), ["p∘h != 0 at 'x1'", _id("y1"), _id("y2")]),
    ("h", "w", span(z=1), [_id("w"), "h∘i != 0 at 'w'"]),
    # y2 has d(y2) != 0 and p(y2) = 0
    ("h", "y2", span(v=1), ["p∘h != 0 at 'y2'", _id("z")]),
    ("p", "y1", span(w=1), ["p∘h != 0 at 'x1'", _id("y1")]),
    ("p", "w", span(w=1), [_id("w"), "p∘i != id at 'w'"]),
    ("i", "w", span(y2=1), [_id("w"), "h∘i != 0 at 'w'"]),
    ("i", "w", span(w=1), [_id("w"), "p∘i != id at 'w'"]),
]


@pytest.mark.parametrize("name, cell, extra, want", CORRUPTIONS)
def test_verify_sdr_reports_a_corrupted_map(name, cell, extra, want):
    cx, cells = square_complex()
    assert verify_sdr(cx, cells) == []
    corrupt(cx, name, cell, extra)
    assert verify_sdr(cx, cells) == want


def test_verify_sdr_reports_every_violation_kind():
    # a non-differential d(z) = 2 y1 + y2 breaks d∘d at z; together with the
    # corruptions above, each of the six identities is reported somewhere
    cx, cells = square_complex(span(y1=2, y2=1))
    got = verify_sdr(cx, cells)
    assert got == [_id("y2"), "d∘d != 0 at 'z'"]
    kinds = {m.split(" at ")[0] for _, _, _, want in CORRUPTIONS for m in want + got}
    assert kinds == {"d∘d != 0", "id - i∘p != d∘h + h∘d", "h∘h != 0", "p∘h != 0", "p∘i != id", "h∘i != 0"}
