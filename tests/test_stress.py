"""Large inputs, deselected by default; run with `pytest -m stress`."""
import json

import pytest

from tests.conftest import composable_tuples, lines_presentation, stasheff_algebra_defects_by_tuples
from toupie.ainf import ExtAlgebra, TorCoalgebra, algebra_table, stasheff_algebra_defects
from toupie.cli import main, presentation_payload
from toupie.rewriting import build_groebner

pytestmark = pytest.mark.stress


def test_stasheff_line_20_2_arity_6(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(presentation_payload(lines_presentation(1, 20, 2))))
    assert main(["stasheff", str(path), "--arity", "6", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["result"]["input"] == {"algebra_defects": [], "coalgebra_defects": []}


def test_stasheff_defects_match_tuple_oracle_line_20_2_arity_5():
    tor = TorCoalgebra(build_groebner(lines_presentation(1, 20, 2)))
    ext = ExtAlgebra(tor)
    table = algebra_table(ext, 5)
    tuples = {n: composable_tuples(ext, n) for n in range(2, 6)}
    chains = tor.all_chains()
    assert stasheff_algebra_defects(table, chains, 5) == []
    assert stasheff_algebra_defects_by_tuples(table, tuples, 5) == []
    key = next(iter(table[2]))
    table[2] = dict(table[2])
    table[2][key] = table[2][key].scale(-1)
    got = stasheff_algebra_defects(table, chains, 5)
    assert got and got == stasheff_algebra_defects_by_tuples(table, tuples, 5)


def test_double_dual_line_30_2(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(presentation_payload(lines_presentation(1, 30, 2))))
    assert main(["double-dual", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["result"]["matches_gr"] is True


def test_oracle_diff_line_24_4(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(presentation_payload(lines_presentation(1, 24, 4))))
    args = ["oracle-diff", str(path), "--degree", "1", "--arity", "3", "--format", "json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
