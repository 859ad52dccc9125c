"""The bar complex cut at a top degree against the full one.

`BarSDR(gd, top)` builds cells up to degree `top` only; its oracle must agree
with the full complex on every cell below the top, and `verify(d)` with
`top = d + 1` must report exactly what the full complex reports at degree
<= d.
"""
import json

import pytest

import toupie.morse
from tests.conftest import (
    lines_presentation,
    overlap_monomial_presentation,
    plain_beside_quadratic_presentation,
    three_branch_presentation,
)
from toupie.ainf import TorCoalgebra
from toupie.chains import ChainGraph, underlying_path
from toupie.cli import main, presentation_payload
from toupie.morse import BarSDR, bar_words, classify_word
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


def _top(cx) -> int:
    return max(cx.cells_by_degree)


def _brute_force_words(gd):
    # every composable word of nontrivial nontips, layer by layer, each layer
    # in the underlying path's order, then by letter lengths
    letters = [p for ps in gd.nontips_by_degree.values() for p in ps if not p.is_trivial]
    out = {0: [gd.quiver.trivial(v) for v in gd.quiver.vertices]}
    layer = [(p,) for p in letters]
    while layer:
        key = lambda w: (underlying_path(w).sort_key(), tuple(len(p) for p in w))
        out[len(layer[0])] = sorted(layer, key=key)
        layer = [w + (p,) for w in layer for p in letters if w[-1].target == p.source]
    return out


def _violations_up_to(sdr: BarSDR, violations: list, d: int) -> list:
    # the violations whose cell lies in degree <= d; each message ends "at <cell>"
    degree = {repr(c): k for c, k in sdr.complex.degree_of.items()}
    return [v for v in violations if degree[v.split(" at ", 1)[1]] <= d]


@pytest.mark.parametrize("gd", SUBJECTS[:4] + SUBJECTS[4::6])
def test_bar_words_match_brute_force_and_truncate_as_a_prefix(gd):
    full = bar_words(gd)
    assert full == _brute_force_words(gd)
    for top in range(1, max(full) + 2):
        assert bar_words(gd, top) == {d: ws for d, ws in full.items() if d <= top}


def test_full_complex_has_no_lower_word_at_its_top():
    for gd in SUBJECTS:
        sdr = BarSDR(gd)
        cx = sdr.complex
        for w in cx.cells_by_degree[_top(cx)]:
            assert classify_word(sdr.cg, w)[0] != "lower"


def test_truncated_oracle_equals_full_below_the_top():
    for gd in SUBJECTS:
        full = BarSDR(gd).complex
        for d in range(1, _top(full) + 1):
            cut = BarSDR(gd, d + 1).complex
            assert _top(cut) <= d + 1
            for k in range(d + 2):
                assert cut.cells_by_degree.get(k) == full.cells_by_degree.get(k)
            for k in range(d + 1):
                for c in full.cells_by_degree.get(k, ()):
                    assert cut.diff(c) == full.diff(c)
                    assert cut.status(c) == full.status(c)
                    assert cut.p(c) == full.p(c)
                    assert cut.h(c) == full.h(c)
                    if full.status(c) == "critical":
                        assert cut.i(c) == full.i(c)


def test_truncated_verify_equals_full_violations_up_to_degree():
    for gd in SUBJECTS:
        full = BarSDR(gd)
        everything = full.verify()
        for d in range(1, _top(full.complex) + 1):
            assert BarSDR(gd, d + 1).verify(d) == _violations_up_to(full, everything, d) == []


def test_verify_refuses_to_read_the_top_degree():
    gd = SUBJECTS[2]
    sdr = BarSDR(gd, 3)
    for d in (3, 4, None):
        with pytest.raises(ValueError, match="past the top degree 3"):
            sdr.verify(d)
    assert sdr.verify(2) == []
    assert max(sdr.complex.cells_by_degree) == 3


def _corruptible(sdr: BarSDR) -> dict:
    # per degree, the first word whose closed homotopy is checked and nonzero
    cx, out = sdr.complex, {}
    for k in sorted(cx.cells_by_degree):
        for w in cx.cells_by_degree[k]:
            if k and sdr.is_attached(w) and not sdr.cg.is_chain(w) and sdr.sdr_h(w):
                out[k] = w
                break
    return out


def _corrupt_closed_h(sdr: BarSDR, bad_words):
    sdr_h = sdr.sdr_h
    sdr.sdr_h = lambda w: sdr_h(w).scale(-1) if w in bad_words else sdr_h(w)
    return sdr


def test_corrupted_closed_h_reported_identically_below_the_top():
    gd = SUBJECTS[2]  # line(10,3): attached non-chains in degrees 1 to 6
    full_top = _top(BarSDR(gd).complex)
    targets = _corruptible(BarSDR(gd))
    assert sorted(targets) == [1, 2, 3, 4, 5, 6]
    bad = set(targets.values())
    messages = {k: f"closed h != oracle h at {w!r}" for k, w in targets.items()}
    assert _corrupt_closed_h(BarSDR(gd), bad).verify() == list(messages.values())
    for d in range(1, full_top + 1):
        cut = _corrupt_closed_h(BarSDR(gd, d + 1), bad)
        assert cut.verify(d) == [m for k, m in messages.items() if k <= d]
        assert all(w not in cut.complex.degree_of for k, w in targets.items() if k > d + 1)


@pytest.mark.parametrize("gd", LARGE)
def test_corrupted_differential_reported_identically_below_the_top(gd, monkeypatch):
    # doubling the differential of a word that is itself a face breaks d∘d on
    # its cofaces, and with it the oracle identities; the truncated oracle
    # must see the same breakage below its top, and never build a word above
    good = BarSDR(gd).complex
    full_top = _top(good)
    targets = {}
    for k in range(2, full_top):
        faces = {f for u in good.cells_by_degree[k + 1] for f in good.diff(u).terms}
        w = next((c for c in good.cells_by_degree[k] if good.diff(c) and c in faces), None)
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
    full = BarSDR(gd)
    everything = full.verify()
    assert len({s.split(" at ", 1)[1] for s in everything}) >= len(targets)
    for d in range(1, full_top + 1):
        built.clear()
        assert BarSDR(gd, d + 1).verify(d) == _violations_up_to(full, everything, d)
        assert all(w not in built for k, w in targets.items() if k > d + 1)


def test_transfer_through_the_truncated_complex_equals_full():
    for gd in SUBJECTS:
        full = TorCoalgebra(gd)
        chain_top = full.cg.max_chain_degree() + 1
        cut = TorCoalgebra(gd, chain_top + 1)
        for chain in full.all_chains():
            for n in range(2, 6):
                assert cut.transfer_delta(n, chain) == full.transfer_delta(n, chain)
        assert max(cut.sdr.complex.cells_by_degree) <= chain_top + 1


def test_transfer_refuses_a_chain_at_the_top():
    gd = SUBJECTS[2]
    top = ChainGraph(gd).max_chain_degree() + 1
    tor = TorCoalgebra(gd, top)
    longest = tor.cg.chains(top - 1)[0]
    with pytest.raises(ValueError, match="past the top degree"):
        tor.transfer_delta(2, longest)


@pytest.mark.parametrize("command", ["sdr-check", "oracle-diff"])
def test_degree_bounds_the_words_built(command, tmp_path, monkeypatch, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(presentation_payload(lines_presentation(1, 10, 3))))
    built = []

    def counting(gd, top=None):
        out = bar_words(gd, top)
        built.append(max(out))
        return out

    monkeypatch.setattr(toupie.morse, "bar_words", counting)
    assert main([command, str(path), "--degree", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    # sdr-check reads one degree past --degree; oracle-diff one past the
    # longest chain word (degree 6 on line(10,3)) as well
    assert built == [2 if command == "sdr-check" else 8]
