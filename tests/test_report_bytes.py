"""The exact bytes of every command's JSON report, pinned on three inputs.

Each digest is the sha256 (first 16 hex digits) of the written text from the
report's `result` member through its `status` member: the report's keys are
sorted, so that stretch sits between `"parameters"` and `"tool"`, and it holds
neither the input's path nor the package version.  A change to what a report
holds, or to how the writer lays it out, changes a digest.
"""
import hashlib
import json

import pytest

from tests.conftest import lines_presentation, three_branch_presentation
from toupie.cli import _COMMAND_NAMES, main, presentation_payload

INPUTS = {
    "e1": (three_branch_presentation, ()),
    "line-10-3": (lambda: lines_presentation(1, 10, 3), ("--arity", "5")),
    "line-12-7": (lambda: lines_presentation(1, 12, 7), ("--degree", "3")),
}

# (exit code, digest) per input and command
DIGESTS = {
    "e1": {
        "validate": (0, "6ae20cda143bbcd3"),
        "branches": (0, "4a37e983e86a5751"),
        "tips": (0, "8db077a17ab0ae17"),
        "chains": (0, "5958d02804d301b0"),
        "betti": (0, "f5b1d5b15000736f"),
        "resolution-check": (0, "d4efa3fb2df915e4"),
        "sdr-check": (0, "cac91d18e2249b6c"),
        "tor-coalgebra": (0, "1ef70f5fc301c10e"),
        "ext-products": (0, "7b058be3542d19e2"),
        "stasheff": (0, "fa1ef2b45e95a586"),
        "yoneda": (0, "fb97dea6a3625cac"),
        "gr": (0, "57eab04d471a031b"),
        "double-dual": (0, "612ed2326c423fda"),
        "oracle-diff": (0, "526520e7e275d635"),
    },
    "line-10-3": {
        "validate": (0, "0b8feb8122a6311f"),
        "branches": (0, "94b26193f10d7e78"),
        "tips": (0, "83e5378cda7ea124"),
        "chains": (0, "c58e4b91a332abc6"),
        "betti": (0, "cd54df6d81e03d58"),
        "resolution-check": (0, "1039f325632d745c"),
        "sdr-check": (0, "cac91d18e2249b6c"),
        "tor-coalgebra": (0, "977d5577a67452f9"),
        "ext-products": (0, "0b37d47bee69dd5a"),
        "stasheff": (0, "fa1ef2b45e95a586"),
        "yoneda": (1, "feeb0d9d7950a0c7"),
        "gr": (0, "05ffa24eab2802d8"),
        "double-dual": (1, "feeb0d9d7950a0c7"),
        "oracle-diff": (0, "ece957db7edc0d8d"),
    },
    "line-12-7": {
        "validate": (0, "648603f12f7ed95b"),
        "branches": (0, "dd49286e08792190"),
        "tips": (0, "49163e11f94ea681"),
        "chains": (0, "5f2012424578893c"),
        "betti": (0, "2334668f7c8ec859"),
        "resolution-check": (0, "2e577ff430110d27"),
        "sdr-check": (0, "a0ddf47343afd527"),
        "tor-coalgebra": (0, "7251ecf9a4922e13"),
        "ext-products": (0, "b44458c38100aa6d"),
        "stasheff": (0, "fa1ef2b45e95a586"),
        "yoneda": (1, "8e9d7d1dcdee98f0"),
        "gr": (0, "6a24616bd70f8751"),
        "double-dual": (1, "8e9d7d1dcdee98f0"),
        "oracle-diff": (0, "453dbc8e77d10cb0"),
    },
}


def status_and_result_digest(out: str) -> str:
    core = out[out.index('\n  "result": ') : out.index('\n  "tool": ')]
    return hashlib.sha256(core.encode("utf-8")).hexdigest()[:16]


def test_every_command_is_pinned():
    for label in INPUTS:
        assert tuple(DIGESTS[label]) == _COMMAND_NAMES, label


@pytest.mark.parametrize("label", list(INPUTS))
def test_report_bytes_are_pinned(capsys, tmp_path, label):
    make, flags = INPUTS[label]
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(presentation_payload(make())))
    got = {}
    for command in _COMMAND_NAMES:
        code = main([command, str(path), *flags, "--format", "json"])
        got[command] = (code, status_and_result_digest(capsys.readouterr().out))
    assert got == DIGESTS[label]
