import argparse
import gc
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toupie.ainf
import toupie.chains
import toupie.cli
import toupie.presentation
import toupie.rewriting
from tests.conftest import (
    all_paths,
    lines_presentation,
    overlap_monomial_presentation,
    three_branch_presentation,
)
from toupie.cli import (
    _COMMAND_NAMES,
    chain_payload,
    main,
    parse_presentation,
    presentation_payload,
    render_report,
)
from toupie.presentation import Path
from toupie.random_presentations import GeneratorConfig, random_presentation
from toupie.rewriting import build_groebner, classify_branches


def write_input(tmp_path, pres, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(presentation_payload(pres), indent=2) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


@pytest.fixture
def e1_path(tmp_path):
    return write_input(tmp_path, three_branch_presentation())


def non_toupie_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["0", "m", "w"],
                "arrows": [
                    {"name": "a", "src": "0", "dst": "m"},
                    {"name": "b", "src": "0", "dst": "m"},
                    {"name": "c", "src": "m", "dst": "w"},
                ],
                "relations": [],
            }
        )
    )
    return str(path)


def cubic_mono_path(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["0", "v1", "v2", "w"],
                "arrows": [
                    {"name": "d1", "src": "0", "dst": "v1"},
                    {"name": "d2", "src": "v1", "dst": "v2"},
                    {"name": "d3", "src": "v2", "dst": "w"},
                ],
                "relations": [[{"coeff": "1", "path": ["d1", "d2", "d3"]}]],
            }
        )
    )
    return str(path)


def test_validate_reports_shape(capsys, e1_path):
    code, out, _ = run_cli(capsys, "validate", e1_path)
    assert code == 0
    assert "status: ok" in out
    assert "dimension: 16" in out
    assert "sha256=" in out
    assert "toupie 0.1.0" in out


def test_betti_example(capsys, e1_path):
    code, report = run_json(capsys, "betti", e1_path)
    assert code == 0
    assert report["result"]["betti"] == [6, 7, 2, 0]
    assert report["status"] == "ok"
    assert report["tool"] == {"name": "toupie", "version": "0.1.0"}


@pytest.mark.parametrize(
    "make", [three_branch_presentation, lambda: lines_presentation(1, 10, 2)], ids=["e1", "line-10-2"]
)
def test_betti_work_stops_at_the_arrow_count(capsys, tmp_path, monkeypatch, make):
    # no chain has a degree at or above the arrow count, so a huge --degree
    # asks for no more chain degrees than that, and reports the same ranks
    pres = make()
    path = write_input(tmp_path, pres)
    arrows = len(pres.quiver.arrows)
    _, want = run_json(capsys, "betti", path, "--degree", str(arrows + 3))  # 10 on e1
    calls = []
    real = toupie.chains.ChainGraph.chains

    def counting_chains(self, d):
        calls.append(d)
        return real(self, d)

    monkeypatch.setattr(toupie.chains.ChainGraph, "chains", counting_chains)
    code, got = run_json(capsys, "betti", path, "--degree", "1000000")
    assert code == 0
    assert (got["status"], got["result"]) == (want["status"], want["result"])
    assert 0 < len(calls) <= arrows + 1


def test_ext_products_frozen_table(capsys, e1_path):
    code, report = run_json(capsys, "ext-products", e1_path)
    assert code == 0
    products = report["result"]["products"]
    u = [["a1"], ["a2", "a3"]]
    v = [["b1"], ["b2"]]
    assert products["2"] == [
        {"args": [[["b1"]], [["b2"]]], "terms": [{"chain": v, "coeff": "-1"}]},
        {
            "args": [[["c1"]], [["c2"]]],
            "terms": [{"chain": u, "coeff": "1"}, {"chain": v, "coeff": "1"}],
        },
    ]
    assert products["3"] == [
        {"args": [[["a1"]], [["a2"]], [["a3"]]], "terms": [{"chain": u, "coeff": "1"}]}
    ]
    assert products["4"] == [] and products["5"] == []


def test_yoneda_round_trip(capsys, tmp_path, e1_path):
    code, report = run_json(capsys, "yoneda", e1_path)
    assert code == 0
    payload = report["result"]["presentation"]
    # the emitted presentation must parse back through the same schema
    pres = parse_presentation(payload)
    assert presentation_payload(pres) == payload

    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps(payload))
    code2, out, _ = run_cli(capsys, "validate", str(dual_path))
    assert code2 == 0 and "status: ok" in out
    code3, report3 = run_json(capsys, "yoneda", str(dual_path))
    assert code3 == 0  # the dual is quadratic, so its own dual always exists


def test_yoneda_refusal_is_structured(capsys, tmp_path):
    code, report = run_json(capsys, "yoneda", cubic_mono_path(tmp_path))
    assert code == 1
    assert report["status"] == "refused"
    reasons = report["result"]["reasons"]
    assert reasons and "length 3" in reasons[0]
    # the operation tables still ship with the refusal
    assert report["result"]["products"]["3"] != []


def test_double_dual_and_gr(capsys, e1_path):
    code, report = run_json(capsys, "double-dual", e1_path)
    assert code == 0
    assert report["result"]["matches_gr"] is True
    rels = report["result"]["presentation"]["relations"]
    assert rels == [
        [{"coeff": "1", "path": ["b1", "b2"]}],
        [{"coeff": "1", "path": ["c1", "c2"]}],
    ]

    code, report = run_json(capsys, "gr", e1_path)
    assert code == 0
    assert report["result"]["dimension"] == {"gr": 16, "input": 16}


def test_dual_reports_carry_provenance(capsys, e1_path):
    for command in ("yoneda", "gr"):
        code, report = run_json(capsys, command, e1_path)
        assert code == 0, command
        assert report["result"]["provenance"] == command


def long_branch_path(tmp_path, length, side_cycle=0):
    """One branch of `length` arrows with a quadratic monomial relation at
    every position, beside a directed cycle on `side_cycle` extra vertices."""
    names = [f"x{i}" for i in range(length)]
    verts = ["0"] + [f"v{i}" for i in range(1, length)] + ["w"]
    arrows = [{"name": n, "src": s, "dst": t} for n, s, t in zip(names, verts, verts[1:])]
    ring = [f"c{i}" for i in range(side_cycle)]
    arrows += [
        {"name": f"y{i}", "src": s, "dst": t}
        for i, (s, t) in enumerate(zip(ring, ring[1:] + ring[:1]))
    ]
    rels = [[{"coeff": "1", "path": names[i : i + 2]}] for i in range(length - 1)]
    path = tmp_path / f"line-{length}-{side_cycle}.json"
    path.write_text(json.dumps({"vertices": verts + ring, "arrows": arrows, "relations": rels}))
    return str(path)


def test_long_branch_needs_no_deep_recursion(capsys, tmp_path):
    line = long_branch_path(tmp_path, 600)
    for argv in (["tips"], ["chains", "--degree", "1"], ["validate"]):
        code, report = run_json(capsys, argv[0], line, *argv[1:])
        assert code == 0, argv
    assert report["result"]["branch_lengths"] == [600]


def test_long_branch_beside_a_long_cycle_is_rejected(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", long_branch_path(tmp_path, 600, side_cycle=600))
    assert code == 1
    assert "directed cycle" in out


def test_validate_rejects_non_toupie(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", non_toupie_path(tmp_path))
    assert code == 1
    assert "status: violation" in out
    assert "degree (2, 1)" in out


def test_json_error_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": ["0"],\n  "arrows": oops\n}')
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert ":2:" in err


def test_schema_error_reports_path(capsys, tmp_path):
    path = tmp_path / "coeff.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["0", "w"],
                "arrows": [{"name": "a", "src": "0", "dst": "w"}],
                "relations": [[{"coeff": "0.5", "path": ["a"]}]],
            }
        )
    )
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "relations[0][0].coeff" in err

    path.write_text(
        json.dumps(
            {
                "vertices": ["0", "w"],
                "arrows": [{"name": "a", "src": "0", "dst": "w", "color": "red"}],
                "relations": [],
            }
        )
    )
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "arrows[0]" in err and "color" in err


_TWO_ARROWS = [{"name": "a", "src": "0", "dst": "m"}, {"name": "b", "src": "m", "dst": "w"}]
_B = _TWO_ARROWS[1]
_DROP = object()


def _doc(**fields) -> dict:
    """The document 0 -a-> m -b-> w with no relations, top-level fields
    replaced by `fields` (dropped where the value is `_DROP`)."""
    data = {"vertices": ["0", "m", "w"], "arrows": _TWO_ARROWS, "relations": []}
    data.update(fields)
    return {k: v for k, v in data.items() if v is not _DROP}


def _second_arrow(item) -> dict:
    return _doc(arrows=[_TWO_ARROWS[0], item])


def _second_relation(*terms) -> dict:
    """A valid relation a*b, then one with the given terms."""
    return _doc(relations=[[{"coeff": "1", "path": ["a", "b"]}], list(terms)])


_NOT_RATIONAL = '.relations[1][0].coeff: expected an exact rational written "n" or "n/d"'
_TOO_LONG = f".relations[1][0].coeff: more than {sys.get_int_max_str_digits()} digits"

# one case per check in `parse_presentation`, with its exact message after the
# input file name
_SCHEMA_ERRORS = {
    "not-object": ([1], ": expected a JSON object"),
    "unknown-top-key": (_doc(colour=1), ": unknown keys ['colour']"),
    "missing-vertices": (_doc(vertices=_DROP), ": missing key 'vertices'"),
    "missing-arrows": (_doc(arrows=_DROP), ": missing key 'arrows'"),
    "missing-relations": (_doc(relations=_DROP), ": missing key 'relations'"),
    "vertices-empty": (_doc(vertices=[]), ".vertices: expected a nonempty list"),
    "vertex-not-string": (_doc(vertices=["0", 1, "w"]), ".vertices[1]: expected a string"),
    "vertices-duplicate": (_doc(vertices=["0", "m", "m"]), ".vertices: duplicate vertex names"),
    "arrows-not-list": (_doc(arrows={}), ".arrows: expected a list"),
    "arrow-not-object": (_second_arrow("b"), ".arrows[1]: expected an object"),
    "arrow-unknown-keys": (
        _second_arrow({**_B, "colour": "red", "alpha": 1}),
        ".arrows[1]: unknown keys ['alpha', 'colour']",
    ),
    "arrow-missing-key": (_second_arrow({"name": "b", "dst": "w"}), ".arrows[1]: missing key 'src'"),
    "arrow-name-not-string": (_second_arrow({**_B, "name": 2}), ".arrows[1].name: expected a string"),
    "arrow-src-not-string": (_second_arrow({**_B, "src": None}), ".arrows[1].src: expected a string"),
    "arrow-dst-not-string": (_second_arrow({**_B, "dst": ["w"]}), ".arrows[1].dst: expected a string"),
    # the keys are checked in order, each for presence and then for type
    "arrow-bad-name-and-missing-src": (
        _second_arrow({"name": 5, "dst": "w"}), ".arrows[1].name: expected a string"
    ),
    "unknown-vertex": (_second_arrow({**_B, "dst": "v"}), ".arrows[1].dst: unknown vertex 'v'"),
    "unknown-src-vertex": (_second_arrow({**_B, "src": "v"}), ".arrows[1].src: unknown vertex 'v'"),
    "duplicate-arrow": (
        _second_arrow({**_B, "name": "a"}), ".arrows[1].name: duplicate arrow name 'a'"
    ),
    "relations-not-list": (_doc(relations={}), ".relations: expected a list"),
    "relation-not-list": (
        _doc(relations=[{"coeff": "1", "path": ["a"]}]),
        ".relations[0]: expected a nonempty list of terms",
    ),
    "relation-empty": (_second_relation(), ".relations[1]: expected a nonempty list of terms"),
    "term-not-object": (_second_relation("1"), ".relations[1][0]: expected an object"),
    "term-unknown-keys": (
        _second_relation({"coeff": "1", "path": ["a"], "z": 0, "y": 1}),
        ".relations[1][0]: unknown keys ['y', 'z']",
    ),
    "term-missing-coeff": (
        _second_relation({"path": ["a"]}), ".relations[1][0]: missing key 'coeff'"
    ),
    "term-missing-path": (_second_relation({"coeff": "1"}), ".relations[1][0]: missing key 'path'"),
    "coeff-not-string": (_second_relation({"coeff": 1, "path": ["a"]}), _NOT_RATIONAL),
    "coeff-decimal": (_second_relation({"coeff": "0.5", "path": ["a"]}), _NOT_RATIONAL),
    "coeff-zero-denominator": (_second_relation({"coeff": "1/0", "path": ["a"]}), _NOT_RATIONAL),
    # `int` and `Fraction` would take these, so the pattern must refuse them
    "coeff-trailing-newline": (_second_relation({"coeff": "1\n", "path": ["a"]}), _NOT_RATIONAL),
    "coeff-negative-trailing-newline": (
        _second_relation({"coeff": "-1\n", "path": ["a"]}), _NOT_RATIONAL
    ),
    "coeff-fraction-trailing-newline": (
        _second_relation({"coeff": "1/2\n", "path": ["a"]}), _NOT_RATIONAL
    ),
    "coeff-non-ascii-digit": (_second_relation({"coeff": "\u0661", "path": ["a"]}), _NOT_RATIONAL),
    # past the runtime's int-string digit limit, `int` and `Fraction` raise
    "coeff-too-many-digits": (_second_relation({"coeff": "1" * 5000, "path": ["a"]}), _TOO_LONG),
    "coeff-negative-too-many-digits": (
        _second_relation({"coeff": "-" + "1" * 5000, "path": ["a"]}), _TOO_LONG
    ),
    "coeff-denominator-too-many-digits": (
        _second_relation({"coeff": "1/" + "1" * 5000, "path": ["a"]}), _TOO_LONG
    ),
    "path-empty": (
        _second_relation({"coeff": "1", "path": []}),
        ".relations[1][0].path: expected a nonempty list of arrow names",
    ),
    "path-not-list": (
        _second_relation({"coeff": "1", "path": "ab"}),
        ".relations[1][0].path: expected a nonempty list of arrow names",
    ),
    "path-element-not-string": (
        _second_relation({"coeff": "1", "path": ["a", 3]}),
        ".relations[1][0].path[1]: expected a string",
    ),
    "path-element-unhashable": (
        _second_relation({"coeff": "1", "path": ["a", ["b"]]}),
        ".relations[1][0].path[1]: expected a string",
    ),
    "unknown-arrow-in-path": (
        _second_relation({"coeff": "1", "path": ["a", "c"]}),
        ".relations[1][0].path[1]: unknown arrow 'c'",
    ),
    "path-not-composable": (
        _second_relation({"coeff": "1", "path": ["b", "a"]}),
        ".relations[1][0].path: arrows do not compose at 'w': Arrow(name='a', src='0', dst='m')",
    ),
    "terms-cancel": (
        _second_relation({"coeff": "1", "path": ["a"]}, {"coeff": "-1", "path": ["a"]}),
        ".relations[1]: terms cancel to zero",
    ),
    "order-not-list": (_doc(order="a"), ".order: expected a list"),
    "order-unknown-arrow": (_doc(order=["a", "c"]), ".order[1]: unknown arrow 'c'"),
    "order-not-string": (_doc(order=[["a"]]), ".order[0]: unknown arrow ['a']"),
    "order-inner-arrow": (
        dict(presentation_payload(three_branch_presentation()), order=["a2"]),
        ".order[0]: arrow 'a2' starts no branch",
    ),
    "order-repeated": (
        dict(presentation_payload(three_branch_presentation()), order=["b1", "b1", "a1"]),
        ".order[1]: duplicate arrow 'b1'",
    ),
}


@pytest.mark.parametrize(
    "data, message", list(_SCHEMA_ERRORS.values()), ids=list(_SCHEMA_ERRORS)
)
def test_schema_error_messages(capsys, tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == f"toupie: error: {path}{message}\n"


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


def _subclassed(value):
    """`value` with every str, dict and list replaced by an instance of a subclass."""
    if isinstance(value, dict):
        return _Dict({_subclassed(k): _subclassed(v) for k, v in value.items()})
    if isinstance(value, list):
        return _List(_subclassed(x) for x in value)
    return _Str(value) if isinstance(value, str) else value


def test_parse_accepts_subclasses_of_the_json_types():
    # the parser's exact-type fast checks fall back to isinstance
    plain = presentation_payload(three_branch_presentation())
    plain["relations"].append([{"coeff": "-3/6", "path": ["a2", "a3"]}])
    want = parse_presentation(plain)
    got = parse_presentation(_subclassed(plain))
    assert got.quiver.vertices == want.quiver.vertices
    assert got.quiver.arrows == want.quiver.arrows and got.order == want.order
    assert [r.terms for r in got.relations] == [r.terms for r in want.relations]
    assert [p for r in got.relations for p in r.terms] == [p for r in want.relations for p in r.terms]
    assert json.dumps(presentation_payload(got)) == json.dumps(presentation_payload(want))


_RELATION_A = [{"coeff": "1", "path": ["a", "b"]}]

# values that no JSON document decodes to, with the parser's exact message
_NON_JSON_ERRORS = [
    ([("vertices", ["0"])], "in: expected a JSON object"),
    ({**_doc(), 1: 2}, "in: unknown keys [1]"),
    (_doc(vertices=("0", "m", "w")), "in.vertices: expected a nonempty list"),
    (_doc(vertices=["0", True, "w"]), "in.vertices[1]: expected a string"),
    (_doc(arrows=tuple(_TWO_ARROWS)), "in.arrows: expected a list"),
    (_second_arrow(("b", "m", "w")), "in.arrows[1]: expected an object"),
    (_second_arrow({**_B, "name": b"b"}), "in.arrows[1].name: expected a string"),
    (_doc(relations=(_RELATION_A,)), "in.relations: expected a list"),
    (_doc(relations=[tuple(_RELATION_A)]), "in.relations[0]: expected a nonempty list of terms"),
    (_doc(relations=[[("1", ["a", "b"])]]), "in.relations[0][0]: expected an object"),
    (
        _doc(relations=[[{"coeff": True, "path": ["a", "b"]}]]),
        'in.relations[0][0].coeff: expected an exact rational written "n" or "n/d"',
    ),
    (
        _doc(relations=[[{"coeff": Fraction(1, 2), "path": ["a", "b"]}]]),
        'in.relations[0][0].coeff: expected an exact rational written "n" or "n/d"',
    ),
    (
        _doc(relations=[[{"coeff": "1", "path": ("a", "b")}]]),
        "in.relations[0][0].path: expected a nonempty list of arrow names",
    ),
    (_doc(relations=[[{"coeff": "1", "path": ["a", True]}]]), "in.relations[0][0].path[1]: expected a string"),
    (_doc(order=("a",)), "in.order: expected a list"),
    (_doc(order=[True]), "in.order[0]: unknown arrow True"),
]


@pytest.mark.parametrize("data, message", _NON_JSON_ERRORS)
def test_parse_rejects_non_json_values_with_located_messages(data, message):
    with pytest.raises(toupie.cli.InputError) as err:
        parse_presentation(data, "in")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "coeff, reported",
    [("4/2", "2"), ("-3/6", "-1/2"), ("007", "7"), ("-0", None)],
    ids=["integral-fraction", "unreduced-fraction", "leading-zeros", "negative-zero"],
)
def test_coefficients_are_exact_rationals(capsys, tmp_path, coeff, reported):
    path = tmp_path / "coeff.json"
    path.write_text(json.dumps(two_branch_payload([[(1, ["a1", "a2"]), (coeff, ["b1", "b2"])]])))
    code, report = run_json(capsys, "tips", str(path))
    assert code == 0
    if reported is None:  # a zero coefficient drops its term: a monomial relation
        assert report["result"]["monomial"] == [["a1", "a2"]]
        assert report["result"]["nonmonomial"] == []
    else:
        assert report["result"]["nonmonomial"] == [
            {
                "tip": ["a1", "a2"],
                "relation": [
                    {"coeff": "1", "path": ["a1", "a2"]},
                    {"coeff": reported, "path": ["b1", "b2"]},
                ],
            }
        ]


def test_usage_errors(capsys, e1_path):
    code, _, err = run_cli(capsys, "frobnicate", e1_path)
    assert code == 2 and "unknown command" in err
    code, _, err = run_cli(capsys, "betti", e1_path, "--degree", "0")
    assert code == 2 and ">= 1" in err
    code, _, err = run_cli(capsys, "betti", "/nonexistent/input.json")
    assert code == 2


@pytest.mark.parametrize(
    "where, reason",
    [
        ("missing/input.json", "No such file or directory"),
        (".", "Is a directory"),
        ("input.json/", "Not a directory"),
        ("", "No such file or directory"),
    ],
    ids=["missing-directory", "directory", "trailing-slash", "empty"],
)
def test_unreadable_input_is_an_input_error(capsys, monkeypatch, tmp_path, e1_path, where, reason):
    # the file is opened as named: a trailing slash or an empty name does not
    # reach the input file beside it or the working directory
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "validate", where)
    assert (code, out) == (2, "")
    assert err == f"toupie: error: {where}: {reason}\n"


def test_reports_are_byte_stable(capsys, e1_path):
    _, out1, _ = run_cli(capsys, "ext-products", e1_path, "--format", "json")
    _, out2, _ = run_cli(capsys, "ext-products", e1_path, "--format", "json")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "tor-coalgebra", e1_path)
    _, out4, _ = run_cli(capsys, "tor-coalgebra", e1_path)
    assert out3 == out4


def test_job_settings_come_only_from_flags(capsys, monkeypatch, e1_path):
    # the environment is not read: defaults live in the argument parser alone
    monkeypatch.setenv("TOUPIE_DEGREE", "2")
    monkeypatch.setenv("TOUPIE_FORMAT", "json")
    code, out, _ = run_cli(capsys, "betti", e1_path)
    assert code == 0 and out.startswith("toupie ")
    assert "parameters: arity=5 degree=5\n" in out
    code, report = run_json(capsys, "betti", e1_path, "--degree", "2", "--arity", "3")
    assert report["parameters"] == {"degree": 2, "arity": 3}
    assert report["result"]["betti"] == [6, 7, 2]
    with pytest.raises(SystemExit) as exc:  # no flag picks a second subject
        main(["betti", e1_path, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_golden_bless_match_mismatch(capsys, tmp_path, e1_path):
    golden = tmp_path / "golden.txt"
    code, out1, err = run_cli(capsys, "betti", e1_path, "--golden", str(golden))
    assert code == 0 and "golden file written" in err
    assert golden.read_text() == out1

    code, out2, err = run_cli(capsys, "betti", e1_path, "--golden", str(golden))
    assert code == 0 and err == "" and out2 == out1

    code, _, err = run_cli(capsys, "betti", e1_path, "--degree", "2", "--golden", str(golden))
    assert code == 1
    assert "differs from golden" in err and "---" in err


@pytest.mark.parametrize(
    "where, reason",
    [
        ("missing/golden.txt", "No such file or directory"),
        (".", "Is a directory"),
        ("golden.txt/", "Not a directory"),
        ("", "No such file or directory"),
    ],
    ids=["missing-directory", "directory", "trailing-slash", "empty"],
)
def test_unusable_golden_path_is_an_input_error(capsys, monkeypatch, tmp_path, e1_path, where, reason):
    # exit 2 with the path as named and the reason, as for an unreadable input
    # file; a trailing slash or an empty name does not reach the golden file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "golden.txt").write_text("stale\n")
    code, _, err = run_cli(capsys, "betti", e1_path, "--golden", where)
    assert code == 2
    assert err == f"toupie: error: {where}: {reason}\n"
    assert (tmp_path / "golden.txt").read_text() == "stale\n"


def test_chains_and_tips(capsys, e1_path):
    code, report = run_json(capsys, "chains", e1_path)
    assert code == 0
    assert report["result"]["counts"] == [7, 2, 0]
    assert report["result"]["by_degree"]["1"] == [
        [["b1"], ["b2"]],
        [["a1"], ["a2", "a3"]],
    ]

    code, report = run_json(capsys, "tips", e1_path)
    assert code == 0
    tips = [row["tip"] for row in report["result"]["nonmonomial"]]
    assert tips == [["a1", "a2", "a3"], ["b1", "b2"]]
    assert report["result"]["monomial"] == []


def test_consistency_commands_pass(capsys, tmp_path, e1_path):
    drawn = write_input(tmp_path, random_presentation(3), "drawn.json")
    for path in (e1_path, drawn):
        for cmd, extra in (
            ("resolution-check", ("--degree", "4")),
            ("sdr-check", ("--degree", "4")),
            ("stasheff", ("--arity", "4")),
            ("oracle-diff", ("--arity", "3", "--degree", "3")),
        ):
            code, report = run_json(capsys, cmd, path, *extra)
            assert code == 0, (path, cmd)
            assert report["status"] == "ok", (path, cmd)


@pytest.mark.parametrize("which", ["first-nonzero", "top"])
def test_doubled_coproduct_is_reported(capsys, tmp_path, monkeypatch, which):
    # line(10,3) with Delta_2 of one chain doubled in the closed form
    pres = lines_presentation(1, 10, 3)
    path = write_input(tmp_path, pres)
    tor = toupie.ainf.TorCoalgebra(build_groebner(pres))
    chains = tor.all_chains()
    if which == "top":
        target = chains[-1]
    else:
        target = next(c for c in chains if tor.closed_delta(2, c))
        assert chain_payload(target) == [["x0_1"], ["x0_2", "x0_3"], ["x0_4"]]
    closed_delta = toupie.ainf.TorCoalgebra.closed_delta

    def doubled(self, n, chain):
        out = closed_delta(self, n, chain)
        return out.scale(2) if n == 2 and chain == target else out

    monkeypatch.setattr(toupie.ainf.TorCoalgebra, "closed_delta", doubled)
    args = ("--arity", "5", "--degree", "1")
    code, report = run_json(capsys, "oracle-diff", path, *args)
    assert (code, report["status"]) == (1, "violation")
    rows = report["result"]["input"]["coproduct_mismatches"]
    assert len(rows) == 1
    assert set(rows[0]) == {"arity", "chain", "closed", "transfer"}
    assert (rows[0]["arity"], rows[0]["chain"]) == (2, chain_payload(target))

    code, report = run_json(capsys, "stasheff", path, *args)
    defects = report["result"]["input"]
    if which == "top":
        # the top chain is a factor of no coproduct word, and the identities
        # on its own coproducts still hold with Delta_2 doubled: neither
        # Stasheff side sees the change, only oracle-diff does
        assert (code, report["status"]) == (0, "ok")
        assert defects == {"coalgebra_defects": [], "algebra_defects": []}
        return
    assert (code, report["status"]) == (1, "violation")
    assert len(defects["coalgebra_defects"]) == 4
    assert len(defects["algebra_defects"]) == 10
    assert all(set(row) == {"arity", "chain", "defect"} for row in defects["coalgebra_defects"])
    assert all(set(row) == {"args", "arity", "defect"} for row in defects["algebra_defects"])


def test_module_entry_point(e1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "toupie", "betti", e1_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "betti: [6, 7, 2, 0]" in proc.stdout


def test_classify_branches_matches_branches_command(capsys, tmp_path):
    cfg = GeneratorConfig(max_branches=6, max_branch_length=4, max_nonmono=4)
    for seed in range(30):
        pres = random_presentation(seed, cfg)
        code, report = run_json(capsys, "branches", write_input(tmp_path, pres, f"{seed}.json"))
        assert code == 0, seed
        gd = build_groebner(pres)
        classes = classify_branches(gd)
        assert report["result"]["branches"] == [
            {"arrows": list(b.names), "length": len(b), "classes": [cls]}
            for b, cls in classes.items()
        ], seed
        # independently: exactly the monomial branches vanish in the quotient
        for b, cls in classes.items():
            assert (cls == "monomial") == gd.normal_form(b).is_zero, (seed, b)


def test_one_shape_check_per_job(capsys, monkeypatch, e1_path):
    orig = toupie.presentation.validate_toupie
    calls = []

    def counted(q):
        calls.append(q)
        return orig(q)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "toupie" and getattr(mod, "validate_toupie", None) is orig:
            monkeypatch.setattr(mod, "validate_toupie", counted)
    for command in ("validate", "branches", "tips"):
        calls.clear()
        code, _, _ = run_cli(capsys, command, e1_path)
        assert code == 0, command
        assert len(calls) == 1, (command, len(calls))


def test_repeated_main_builds_no_argument_parser(capsys, monkeypatch, e1_path):
    run_cli(capsys, "validate", e1_path)  # the first call may build the parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for command in ("validate", "tips", "validate"):
        code, _, _ = run_cli(capsys, command, e1_path)
        assert code == 0, command
    code, _, _ = run_cli(capsys, "validate", "/nonexistent/input.json")
    assert code == 2
    assert built == []


def test_one_reduction_per_presentation(capsys, monkeypatch, e1_path):
    orig = toupie.rewriting._split_relations
    reduced = []

    def counted(pres):
        reduced.append(pres)
        return orig(pres)

    monkeypatch.setattr(toupie.rewriting, "_split_relations", counted)
    for command in ("gr", "yoneda", "double-dual"):
        reduced.clear()
        run_cli(capsys, command, e1_path)
        # the parsed input among them: no presentation is reduced twice
        assert reduced and len({id(p) for p in reduced}) == len(reduced), command


def test_one_special_sweep_per_reduction(capsys, monkeypatch, e1_path):
    orig = toupie.rewriting.special_basis
    swept = []

    def counted(rows):
        swept.append(rows)
        return orig(rows)

    monkeypatch.setattr(toupie.rewriting, "special_basis", counted)
    # gr and yoneda sweep the input; double-dual sweeps the input and its dual
    for command, sweeps in (("gr", 1), ("yoneda", 1), ("double-dual", 2)):
        swept.clear()
        run_cli(capsys, command, e1_path)
        assert len(swept) == sweeps, command
        assert len({id(rows) for rows in swept}) == sweeps, command


def test_reports_do_not_depend_on_the_intern_table(capsys, monkeypatch, tmp_path, e1_path):
    # paths hash by identity, so set order follows memory addresses; no
    # report may depend on it
    drawn = write_input(tmp_path, random_presentation(3), "drawn.json")

    def reports():
        return [
            run_cli(capsys, command, path, "--format", "json")[:2]
            for path in (e1_path, drawn)
            for command in _COMMAND_NAMES
        ]

    monkeypatch.setattr(Path, "_table", {})  # a fresh intern table: every path built anew
    fresh = reports()
    monkeypatch.undo()
    other = write_input(tmp_path, overlap_monomial_presentation(), "other.json")
    for command in _COMMAND_NAMES:
        run_cli(capsys, command, other)
    specs = [(p.source, p.arrows) for p in all_paths(three_branch_presentation().quiver)]
    for seed in range(8):
        gc.collect()
        random.Random(seed).shuffle(specs)
        live = [Path(*spec) for spec in specs]  # the example's paths, at shuffled addresses
        assert reports() == fresh, seed
        del live


def two_branch_payload(relations) -> dict:
    """Branches a1 a2 and b1 b2 from 0 to w; relations as lists of (coeff, path)."""
    return {
        "vertices": ["0", "a", "b", "w"],
        "arrows": [
            {"name": "a1", "src": "0", "dst": "a"},
            {"name": "a2", "src": "a", "dst": "w"},
            {"name": "b1", "src": "0", "dst": "b"},
            {"name": "b2", "src": "b", "dst": "w"},
        ],
        "relations": [[{"coeff": str(c), "path": p} for c, p in rel] for rel in relations],
    }


def random_invertible_2x2(seed: int) -> list:
    rng = random.Random(seed)
    pool = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 5) for d in (1, 2, 3)]
    while True:
        m = [[rng.choice(pool) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
            return m


@pytest.mark.parametrize(
    "matrix",
    [[[1, -1], [1, 1]], random_invertible_2x2(7)],
    ids=["sum-and-difference", "random-invertible"],
)
def test_recombined_monomials_report_as_monomials(capsys, tmp_path, matrix):
    # two-term relations spanning the same space as a1a2 and b1b2 reduce to
    # one-term rows, which are monomial tips
    ab = (["a1", "a2"], ["b1", "b2"])
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(two_branch_payload([list(zip(row, ab)) for row in matrix])))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(two_branch_payload([[(1, ab[0])], [(1, ab[1])]])))
    for command in _COMMAND_NAMES:
        _, got = run_json(capsys, command, str(mixed))
        _, want = run_json(capsys, command, str(plain))
        assert (got["status"], got["result"]) == (want["status"], want["result"]), command
    _, tips = run_json(capsys, "tips", str(mixed))
    assert tips["result"]["nonmonomial"] == []


@pytest.mark.parametrize(
    "case, reason",
    [
        ("non-toupie", "inner vertex 'm' has degree (2, 1), expected (1, 1)"),
        ("not-branch-form", "relation not of branch form: a1 must be a whole branch of length >= 2"),
        ("one-arrow-monomial", "monomial relation a1 shorter than 2"),
    ],
)
def test_refused_reduction_gives_one_report_for_every_command(capsys, tmp_path, case, reason):
    relations = {
        "not-branch-form": [[(1, ["a1"]), (-1, ["b1"])]],
        "one-arrow-monomial": [[(1, ["a1"])]],
    }
    if case == "non-toupie":
        path = non_toupie_path(tmp_path)
    else:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(two_branch_payload(relations[case])))
    outcomes = set()
    for command in _COMMAND_NAMES:
        code, report = run_json(capsys, command, str(path))
        outcomes.add((code, report["status"], json.dumps(report["result"], sort_keys=True)))
    assert outcomes == {(1, "violation", json.dumps({"reason": reason}))}


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "\u00e9\u20ac\U0001d11e", "\ud834", ""])
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids)
    | st.lists(st.text())
    | st.dictionaries(st.text(), kids)
    | st.dictionaries(st.integers(), kids, max_size=3)
    | st.tuples(kids, kids),
    max_leaves=40,
)


def assert_writer_matches_json_dumps(value):
    assert render_report(value, "json") == json.dumps(value, indent=2, sort_keys=True) + "\n"


@given(json_trees)
@settings(max_examples=300, deadline=None)
def test_json_report_writer_matches_json_dumps(tree):
    for value in (tree, {"result": tree, "status": [tree, {}]}):
        assert_writer_matches_json_dumps(value)


# the writer keeps the text of a list of string lists by its id and indent;
# these trees hold one such list object at several places and indents
chain_shaped = st.lists(st.lists(st.text(max_size=4), min_size=1, max_size=3), min_size=1, max_size=4)


@st.composite
def shared_trees(draw):
    """A tree whose leaves are drawn from a few list objects, each reused as is."""
    pool = draw(
        st.lists(
            chain_shaped | st.lists(json_leaves | chain_shaped, max_size=3), min_size=1, max_size=4
        )
    )
    return draw(
        st.recursive(
            st.sampled_from(pool) | json_leaves,
            lambda kids: st.lists(kids, max_size=4)
            | st.dictionaries(st.text(max_size=3), kids, max_size=4),
            max_leaves=20,
        )
    )


@given(shared_trees())
@settings(max_examples=200, deadline=None)
def test_json_report_writer_matches_json_dumps_on_shared_lists(tree):
    for value in (tree, {"result": tree, "status": [tree, {"x": [[tree]]}]}):
        assert_writer_matches_json_dumps(value)


def test_json_report_writer_on_one_chain_at_every_indent():
    chain = [["a1"], ["a2", "a3"]]
    letters = ["b1", "b2"]
    tree = {
        "chain": chain,
        "rows": [chain, {"args": [chain, chain], "terms": [{"chain": chain, "coeff": "-1"}]}],
        "deep": [[[chain, letters]], chain, letters],
        "names": letters,
        "edited": [[chain[0], ["a2", "a3"]], chain[1:], [chain[0], 1]],
    }
    assert_writer_matches_json_dumps(tree)
    assert_writer_matches_json_dumps([tree, tree["rows"], {"again": tree}])


@pytest.mark.parametrize("command", ["tor-coalgebra", "ext-products", "stasheff", "oracle-diff"])
def test_json_reports_with_shared_chain_payloads_match_json_dumps(
    capsys, tmp_path, monkeypatch, command
):
    # the command hands the writer one list per chain, shared by every place
    # the chain occurs; the report it writes is still json.dumps's text
    reports = []

    def keep(report, fmt):
        reports.append(report)
        return render_report(report, fmt)

    monkeypatch.setattr(toupie.cli, "render_report", keep)
    outs = [
        run_cli(capsys, command, write_input(tmp_path, pres), "--arity", "4", "--format", "json")[1]
        for pres in (random_presentation(3), lines_presentation(1, 10, 3))
    ]
    for out, report in zip(outs, reports, strict=True):
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    if command in ("tor-coalgebra", "ext-products"):
        list_ids = []

        def walk(x):
            if isinstance(x, dict):
                x = x.values()
            elif isinstance(x, list):
                list_ids.append(id(x))
            else:
                return
            for y in x:
                walk(y)

        walk(report)
        assert len(set(list_ids)) < len(list_ids)  # some list sits at two places
