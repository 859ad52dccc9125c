"""The bar complex read up to a degree against the whole of it.

`bar_words(gd, d)` lists the cells up to degree d; `BarSDR(gd).verify(d)`
checks those cells and must report exactly what the full `verify()` reports
at degree <= d.  The complex is read on demand, so such a check evaluates no
bar differential past degree d + 1, the top of what it reads.
"""
import json

import pytest

import toupie.morse
from tests.conftest import (
    fold_path,
    lines_presentation,
    overlap_monomial_presentation,
    plain_beside_quadratic_presentation,
    record_bar_differentials,
    three_branch_presentation,
    word_degree,
)
from toupie.ainf import TorCoalgebra
from toupie.chains import ChainGraph
from toupie.cli import main, presentation_payload
from toupie.morse import BarSDR, bar_words, classify_word
from toupie.presentation import Path
from toupie.random_presentations import random_presentation
from toupie.rewriting import build_groebner


def _subjects():
    fixed = [
        three_branch_presentation(),
        overlap_monomial_presentation(),
        lines_presentation(1, 10, 3),
        plain_beside_quadratic_presentation(8),
    ]
    return fixed + [random_presentation(seed) for seed in range(30)]


SUBJECTS = [build_groebner(p) for p in _subjects()]
LARGE = SUBJECTS[2:4]  # line(10,3) and the plain branch beside a quadratic relation


def _brute_force_words(gd):
    # every composable word of nontrivial nontips, layer by layer, each layer
    # in the underlying path's order, then by letter lengths
    letters = [p for ps in gd.nontips_by_degree.values() for p in ps if not p.is_trivial]
    out = {0: [Path(v, ()) for v in gd.quiver.vertices]}
    layer = [(p,) for p in letters]
    while layer:
        key = lambda w: (fold_path(w).sort_key(), tuple(len(p) for p in w))
        out[len(layer[0])] = sorted(layer, key=key)
        layer = [w + (p,) for w in layer for p in letters if w[-1].target == p.source]
    return out


def _violations_up_to(gd, violations: list, d: int) -> list:
    # the violations whose cell lies in degree <= d; each message ends "at <cell>"
    degree = {repr(w): k for k, ws in bar_words(gd).items() for w in ws}
    return [v for v in violations if degree[v.split(" at ", 1)[1]] <= d]


@pytest.mark.parametrize("gd", SUBJECTS[:4] + SUBJECTS[4::6])
def test_bar_words_match_brute_force_and_truncate_as_a_prefix(gd):
    full = bar_words(gd)
    assert full == _brute_force_words(gd)
    for d in range(0, max(full) + 2):
        assert bar_words(gd, d) == {k: ws for k, ws in full.items() if k <= d}


def test_full_complex_has_no_lower_word_at_its_top():
    # so reading the whole complex needs no word past its longest one
    for gd in SUBJECTS:
        sdr = BarSDR(gd)
        cells = bar_words(gd)
        for w in cells[max(cells)]:
            assert classify_word(sdr.cg, w)[0] != "lower"
            assert sdr.complex.status(w) != "lower"


def test_truncated_verify_equals_full_violations_up_to_degree():
    for gd in SUBJECTS:
        everything = BarSDR(gd).verify()
        for d in range(1, max(bar_words(gd)) + 1):
            assert BarSDR(gd).verify(d) == _violations_up_to(gd, everything, d) == []


def _corruptible(gd) -> dict:
    # per degree, the first word whose closed homotopy is checked and nonzero
    sdr, out = BarSDR(gd), {}
    for k, ws in sorted(bar_words(gd).items()):
        for w in ws:
            if k and sdr.is_attached(w) and not sdr.cg.is_chain(w) and sdr.sdr_h(w):
                out[k] = w
                break
    return out


def _corrupt_closed_h(sdr: BarSDR, bad_words):
    # verify reads both closed maps of a word from one `_closed` call
    closed = sdr._closed
    sdr._closed = lambda w: (closed(w)[0].scale(-1), closed(w)[1]) if w in bad_words else closed(w)
    return sdr


def test_corrupted_closed_h_reported_identically_below_the_top(monkeypatch):
    gd = SUBJECTS[2]  # line(10,3): attached non-chains in degrees 1 to 6
    full_top = max(bar_words(gd))
    targets = _corruptible(gd)
    assert sorted(targets) == [1, 2, 3, 4, 5, 6]
    bad = set(targets.values())
    messages = {k: f"closed h != oracle h at {w!r}" for k, w in targets.items()}
    assert _corrupt_closed_h(BarSDR(gd), bad).verify() == list(messages.values())
    built = record_bar_differentials(monkeypatch)
    for d in range(1, full_top + 1):
        built.clear()
        assert _corrupt_closed_h(BarSDR(gd), bad).verify(d) == [m for k, m in messages.items() if k <= d]
        assert all(w not in built for k, w in targets.items() if k > d + 1)


@pytest.mark.parametrize("gd", LARGE)
def test_corrupted_differential_reported_identically_below_the_top(gd, monkeypatch):
    # doubling the differential of a word that is itself a face breaks d∘d on
    # its cofaces, and with it the oracle identities; a check bounded by
    # degree must see the same breakage below its top, and never evaluate a
    # word above
    good = BarSDR(gd).complex
    cells = bar_words(gd)
    full_top = max(cells)
    targets = {}
    for k in range(2, full_top):
        faces = {f for u in cells[k + 1] for f in good.diff(u).terms}
        w = next((c for c in cells[k] if good.diff(c) and c in faces), None)
        if w is not None:
            targets[k] = w
    assert len(targets) >= 4
    bad = set(targets.values())
    bar_differential = toupie.morse.bar_differential
    built = []

    def corrupted(g, word):
        built.append(word)
        out = bar_differential(g, word)
        return out.scale(2) if word in bad else out

    monkeypatch.setattr(toupie.morse, "bar_differential", corrupted)
    everything = BarSDR(gd).verify()
    assert len({s.split(" at ", 1)[1] for s in everything}) >= len(targets)
    for d in range(1, full_top + 1):
        built.clear()
        assert BarSDR(gd).verify(d) == _violations_up_to(gd, everything, d)
        assert max(map(word_degree, built)) <= d + 1
        assert all(w not in built for k, w in targets.items() if k > d + 1)


def test_transfer_reads_no_word_past_the_longest_chain_word(monkeypatch):
    built = record_bar_differentials(monkeypatch)
    for gd in SUBJECTS:
        tor = TorCoalgebra(gd)
        built.clear()
        for chain in tor.all_chains():
            for n in range(2, 6):
                assert tor.transfer_delta(n, chain) == tor.closed_delta(n, chain)
        # a chain word of degree r + 1 reads cells up to its own degree
        assert max(map(word_degree, built), default=0) <= tor.cg.max_chain_degree() + 1


@pytest.mark.parametrize("command", ["sdr-check", "oracle-diff"])
def test_degree_bounds_the_words_built(command, tmp_path, monkeypatch, capsys):
    pres = lines_presentation(1, 10, 3)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(presentation_payload(pres)))
    built = record_bar_differentials(monkeypatch)
    for degree in (1, 2, 3):
        built.clear()
        assert main([command, str(path), "--degree", str(degree), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        # sdr-check reads one degree past --degree; oracle-diff reads up to
        # the longest chain word (degree 7 on line(10,3)) as well
        bound = degree + 1
        if command == "oracle-diff":
            bound = max(bound, ChainGraph(build_groebner(pres)).max_chain_degree() + 1)
        assert max(map(word_degree, built)) == bound


def test_oracle_diff_work_is_bounded_by_the_words_it_reads(tmp_path, monkeypatch, capsys):
    # line(18,4) lists 105,929 bar words up to its longest chain word plus
    # one; the transfer and a degree-1 check read a few hundred of them
    path = tmp_path / "line.json"
    path.write_text(json.dumps(presentation_payload(lines_presentation(1, 18, 4))))
    built = record_bar_differentials(monkeypatch)
    args = ["oracle-diff", str(path), "--degree", "1", "--arity", "3", "--format", "json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert 0 < len(built) < 2000
