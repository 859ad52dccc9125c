from fractions import Fraction

import pytest

from toupie.presentation import FormalSum
from toupie.zigzag import BasedComplex, verify_sdr


def span(**kw):
    return FormalSum(dict(kw))


def test_two_cell_pair_homotopy_inverts_weight():
    # d(b) = (5/3) a, a matched up to b
    cx = BasedComplex(
        {0: ["a"], 1: ["b"]},
        lambda c: span(a=Fraction(5, 3)) if c == "b" else FormalSum(),
        {"a": "b"},
    )
    assert cx.h("a") == span(b=Fraction(3, 5))
    assert cx.h("b").is_zero
    assert cx.p("a").is_zero and cx.p("b").is_zero
    assert verify_sdr(cx) == []


def test_critical_cell_inclusion_corrects_through_matching():
    # y kills 3x, so the critical z with d(z) = 2x includes as z - (2/3) y
    cx = BasedComplex(
        {0: ["x"], 1: ["y", "z"]},
        lambda c: {"y": span(x=3), "z": span(x=2)}.get(c, FormalSum()),
        {"x": "y"},
    )
    assert cx.status("z") == "critical"
    assert cx.i("z") == span(z=1, y=Fraction(-2, 3))
    assert cx.morse_diff("z").is_zero
    assert cx.critical(0) == ()
    assert verify_sdr(cx) == []


def test_two_step_complex_identities():
    diffs = {
        "y1": span(x1=1, x2=-1),
        "y2": span(x2=1, x1=-1),
        "z": span(y1=1, y2=1),
    }
    cx = BasedComplex(
        {0: ["x1", "x2"], 1: ["y1", "y2"], 2: ["z"]},
        lambda c: diffs.get(c, FormalSum()),
        {"x1": "y1", "y2": "z"},
    )
    assert cx.p("x1") == span(x2=1)
    assert cx.h("x1") == span(y1=1)
    assert verify_sdr(cx) == []


def test_degree_bound_reads_no_cell_past_the_next_degree():
    # verify_sdr(cx, 2) reads differentials up to degree 3 only through h,
    # and h vanishes on the critical z: w's differential is never asked for
    def diff(c):
        if c == "w":
            raise LookupError("differential of a cell past the bound")
        return span(x=1) if c == "y" else FormalSum()

    cx = BasedComplex({0: ["x"], 1: ["y"], 2: ["z"], 3: ["w"]}, diff, {"x": "y"})
    assert verify_sdr(cx, 1) == verify_sdr(cx, 2) == []
    with pytest.raises(LookupError):
        verify_sdr(cx)


def test_mutually_feeding_pairs_detected_as_cycle():
    diffs = {"b1": span(a1=1, a2=1), "b2": span(a1=1, a2=1)}
    cx = BasedComplex(
        {0: ["a1", "a2"], 1: ["b1", "b2"]},
        lambda c: diffs.get(c, FormalSum()),
        {"a1": "b1", "a2": "b2"},
    )
    with pytest.raises(ValueError, match="zigzag cycle detected"):
        cx.p("a1")
    with pytest.raises(ValueError, match="zigzag cycle detected"):
        cx.h("a1")


def test_matched_pair_validation():
    with pytest.raises(ValueError, match="coefficient"):
        BasedComplex(
            {0: ["a"], 1: ["b"]},
            lambda c: FormalSum(),
            {"a": "b"},
        )
    with pytest.raises(ValueError, match="adjacent degrees"):
        BasedComplex(
            {0: ["a"], 2: ["b"]},
            lambda c: span(a=1) if c == "b" else FormalSum(),
            {"a": "b"},
        )
