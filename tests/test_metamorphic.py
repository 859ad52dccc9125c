"""Metamorphic invariance of the reports.

Permuting the relations, permuting the terms inside each relation, scaling
each relation by a nonzero rational, recombining the non-monomial relations by
an invertible matrix and appending a combination of them all leave the ideal
and the branch order as they were, so no command may change its exit code,
`status` or `result`.

Renaming vertices and arrows is an isomorphism of presentations.  A renaming
that keeps the sorted order of the names keeps every name-based tie-break, so
each report, with the names mapped back, is the original byte for byte.  A
renaming that reverses the order may break ties the other way, so only the
facts that hold no names are compared: exit code, `status`, Betti numbers,
dimension, chain counts per degree and table rows per arity.
"""
import itertools
import json
import random
import re
import string
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


# the entries above the diagonal of the unit upper-triangular recombination
UPPER = (Fraction(2), Fraction(-3), Fraction(1), Fraction(1, 2), Fraction(-5, 7))


def combination(rels: list, coeffs) -> list:
    """sum(c * rel) over payload relations, as a payload relation."""
    total: dict = {}
    for c, rel in zip(coeffs, rels):
        for t in rel:
            p = tuple(t["path"])
            total[p] = total.get(p, 0) + c * Fraction(t["coeff"])
    return [{"coeff": str(c), "path": list(p)} for p, c in total.items() if c]


def recombined(payload: dict) -> dict:
    """`payload` with its non-monomial relations replaced by U times them, for
    the unit upper-triangular U whose entries above the diagonal run through UPPER."""
    mono = [rel for rel in payload["relations"] if len(rel) == 1]
    nonmono = [rel for rel in payload["relations"] if len(rel) > 1]
    n, upper = len(nonmono), itertools.cycle(UPPER)
    rows = [[1 if j == i else next(upper) if j > i else 0 for j in range(n)] for i in range(n)]
    return dict(payload, relations=mono + [combination(nonmono, row) for row in rows])


def appended(payload: dict, rng: random.Random) -> dict:
    """`payload` with a random rational combination of its non-monomial relations appended."""
    nonmono = [rel for rel in payload["relations"] if len(rel) > 1]
    extra = combination(nonmono, [rng.choice(SCALES + UPPER) for _ in nonmono])
    return dict(payload, relations=payload["relations"] + [extra]) if extra else payload


def reports(capsys, path) -> list:
    out = []
    for command in _COMMAND_NAMES:
        code = main([command, str(path), "--degree", "3", "--arity", "4", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        out.append((command, code, report["status"], report["result"]))
    return out


def payload_reports(capsys, tmp_path, payload: dict) -> list:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return reports(capsys, path)


def assert_reports_invariant(capsys, tmp_path, pres, seed: int):
    payload = presentation_payload(pres)
    want = payload_reports(capsys, tmp_path, payload)
    assert payload_reports(capsys, tmp_path, edited(payload, random.Random(seed))) == want


def assert_reports_survive_recombination(capsys, tmp_path, pres, seed: int):
    payload = presentation_payload(pres)
    want = payload_reports(capsys, tmp_path, payload)
    for label, moved in (
        ("recombined", recombined(payload)),
        ("appended", appended(payload, random.Random(seed))),
    ):
        assert payload_reports(capsys, tmp_path, moved) == want, label


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


def test_recombination_edits_on_the_running_example():
    payload = presentation_payload(three_branch_presentation())
    a, b, c = ("a1", "a2", "a3"), ("b1", "b2"), ("c1", "c2")

    def coeffs(rel):
        return {tuple(t["path"]): Fraction(t["coeff"]) for t in rel}

    # rel1 = a - c, rel2 = b - c: U = [[1, 2], [0, 1]] gives rel1 + 2 rel2 and rel2
    got = recombined(payload)["relations"]
    assert [coeffs(rel) for rel in got] == [{a: 1, b: 2, c: -3}, {b: 1, c: -1}]
    more = appended(payload, random.Random(0))["relations"]
    assert more[:2] == payload["relations"] and len(more) == 3
    assert set(coeffs(more[2])) <= {a, b, c} and len(coeffs(more[2])) >= 2


@pytest.mark.parametrize(
    "make", [three_branch_presentation, overlap_monomial_presentation], ids=["e1", "overlap"]
)
def test_reports_survive_recombination_on_fixtures(capsys, tmp_path, make):
    assert_reports_survive_recombination(capsys, tmp_path, make(), 0)


@pytest.mark.parametrize("seed", range(6))
def test_reports_survive_recombination_on_random_draws(capsys, tmp_path, seed):
    assert_reports_survive_recombination(capsys, tmp_path, random_presentation(seed), seed)


@pytest.mark.stress
def test_reports_survive_recombination_on_forty_random_draws(capsys, tmp_path):
    for seed in range(40):
        assert_reports_survive_recombination(capsys, tmp_path, random_presentation(seed), seed)


# ---------------------------------------------------------------------------
# renaming vertices and arrows

FRESH = re.compile(r"(?<![A-Za-z0-9_])[VA][a-z]{8}(?![A-Za-z0-9_])")


def renamed(payload: dict, rng: random.Random, reverse: bool) -> tuple[dict, dict]:
    """`payload` with fresh vertex and arrow names that keep (or, with
    `reverse`, reverse) the sorted order of the old ones; returns it with
    the map from new names to old."""

    def fresh(names, tag):
        canon = sorted(set(names))
        new = set()
        while len(new) < len(canon):
            new.add(tag + "".join(rng.choices(string.ascii_lowercase, k=8)))
        return dict(zip(canon, sorted(new, reverse=reverse)))

    vmap = fresh(payload["vertices"], "V")
    amap = fresh([a["name"] for a in payload["arrows"]], "A")
    out = {
        "vertices": [vmap[v] for v in payload["vertices"]],
        "arrows": [
            {"name": amap[a["name"]], "src": vmap[a["src"]], "dst": vmap[a["dst"]]}
            for a in payload["arrows"]
        ],
        "relations": [
            [{"coeff": t["coeff"], "path": [amap[n] for n in t["path"]]} for t in rel]
            for rel in payload["relations"]
        ],
    }
    if "order" in payload:
        out["order"] = [amap[n] for n in payload["order"]]
    inverse = {new: old for old, new in vmap.items()}
    inverse.update((new, old) for old, new in amap.items())
    return out, inverse


def written_reports(capsys, tmp_path, payload: dict) -> list:
    """(command, exit code, written text of `result` through `status`) per command."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = []
    for command in _COMMAND_NAMES:
        code = main([command, str(path), "--degree", "3", "--arity", "4", "--format", "json"])
        text = capsys.readouterr().out
        out.append((command, code, text[text.index('\n  "result": ') : text.index('\n  "tool": ')]))
    return out


def rows_per_arity(table: dict) -> dict:
    return {n: len(rows) for n, rows in table.items()}


def name_free(command: str, code: int, text: str) -> tuple:
    """The facts of one report that hold no vertex or arrow name."""
    report = json.loads("{" + text.rstrip(",") + "}")
    result = report["result"]
    facts = {}
    for key in ("betti", "dimension", "counts"):
        if key in result:
            facts[key] = result[key]
    if "coproducts" in result:
        facts["coproducts"] = rows_per_arity(result["coproducts"])
    if "products" in result:
        facts["products"] = rows_per_arity(result["products"])
    return command, code, report["status"], facts


def assert_renaming_invariant(capsys, tmp_path, pres, seed: int):
    payload = presentation_payload(pres)
    want = written_reports(capsys, tmp_path, payload)
    rng = random.Random(seed)

    moved, inverse = renamed(payload, rng, reverse=False)
    back = [
        (command, code, FRESH.sub(lambda m: inverse.get(m.group(0), m.group(0)), text))
        for command, code, text in written_reports(capsys, tmp_path, moved)
    ]
    assert back == want

    moved, _ = renamed(payload, rng, reverse=True)
    got = written_reports(capsys, tmp_path, moved)
    assert [name_free(*row) for row in got] == [name_free(*row) for row in want]


def test_renaming_maps_names_in_and_out_of_order():
    payload = presentation_payload(three_branch_presentation())
    for reverse in (False, True):
        moved, inverse = renamed(payload, random.Random(0), reverse)
        assert all(FRESH.fullmatch(name) for name in inverse)
        for names in (moved["vertices"], [a["name"] for a in moved["arrows"]]):
            assert sorted(names, key=inverse.get) == sorted(names, reverse=reverse)
        assert [inverse[a["name"]] for a in moved["arrows"]] == [
            a["name"] for a in payload["arrows"]
        ]


@pytest.mark.parametrize(
    "make", [three_branch_presentation, overlap_monomial_presentation], ids=["e1", "overlap"]
)
def test_reports_invariant_under_renaming_on_fixtures(capsys, tmp_path, make):
    assert_renaming_invariant(capsys, tmp_path, make(), 0)


@pytest.mark.parametrize("seed", range(10))
def test_reports_invariant_under_renaming_on_random_draws(capsys, tmp_path, seed):
    assert_renaming_invariant(capsys, tmp_path, random_presentation(seed), seed)
