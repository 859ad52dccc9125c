"""Metamorphic invariance of the reports.

Permuting the relations, permuting the terms inside each relation and scaling
each relation by a nonzero rational leave the ideal and the branch order as
they were, so no command may change its exit code, `status` or `result`.
"""
import json
import random
from fractions import Fraction

import pytest

from tests.conftest import overlap_monomial_presentation, three_branch_presentation
from toupie.cli import _COMMAND_NAMES, main, presentation_payload
from toupie.random_presentations import random_presentation

SCALES = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 7))


def edited(payload: dict, rng: random.Random) -> dict:
    """`payload` with relation i scaled by SCALES[i % 4], the terms of each
    relation shuffled, and then the relations shuffled."""
    rels = []
    for i, rel in enumerate(payload["relations"]):
        scale = SCALES[i % len(SCALES)]
        terms = [{"coeff": str(Fraction(t["coeff"]) * scale), "path": t["path"]} for t in rel]
        rng.shuffle(terms)
        rels.append(terms)
    rng.shuffle(rels)
    return dict(payload, relations=rels)


def reports(capsys, path) -> list:
    out = []
    for command in _COMMAND_NAMES:
        code = main([command, str(path), "--degree", "3", "--arity", "4", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        out.append((command, code, report["status"], report["result"]))
    return out


def assert_reports_invariant(capsys, tmp_path, pres, seed: int):
    payload = presentation_payload(pres)
    base = tmp_path / "base.json"
    base.write_text(json.dumps(payload))
    moved = tmp_path / "edited.json"
    moved.write_text(json.dumps(edited(payload, random.Random(seed))))
    assert reports(capsys, moved) == reports(capsys, base)


def test_edit_scales_shuffles_and_keeps_terms():
    payload = presentation_payload(three_branch_presentation())
    got = edited(payload, random.Random(0))

    def paths(doc):
        return sorted(sorted(tuple(t["path"]) for t in rel) for rel in doc["relations"])

    assert paths(got) == paths(payload)
    coeffs = {tuple(t["path"]): t["coeff"] for rel in got["relations"] for t in rel}
    # a1a2a3 - c1c2 scaled by 2, b1b2 - c1c2 by -3 (c1c2 sits in both)
    assert coeffs[("a1", "a2", "a3")] == "2" and coeffs[("b1", "b2")] == "-3"


@pytest.mark.parametrize(
    "make", [three_branch_presentation, overlap_monomial_presentation], ids=["e1", "overlap"]
)
def test_reports_invariant_on_fixtures(capsys, tmp_path, make):
    assert_reports_invariant(capsys, tmp_path, make(), 0)


@pytest.mark.parametrize("seed", range(6))
def test_reports_invariant_on_random_draws(capsys, tmp_path, seed):
    assert_reports_invariant(capsys, tmp_path, random_presentation(seed), seed)


@pytest.mark.stress
def test_reports_invariant_on_forty_random_draws(capsys, tmp_path):
    for seed in range(40):
        assert_reports_invariant(capsys, tmp_path, random_presentation(seed), seed)
