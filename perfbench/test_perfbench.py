"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def _traced_run(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "random-mix",
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_count_metrics_repeat_for_the_same_seed():
    first, second = _traced_run(5), _traced_run(5)
    assert first["correct"] and second["correct"]
    counts = {k: v for k, v in first["metrics"].items() if v["unit"] in ("count", "ratio")}
    assert counts and counts["cli.parse_presentation.calls"]["value"] > 0
    assert counts == {k: second["metrics"][k] for k in counts}


def test_traced_and_untraced_runs_give_identical_digests(alarm_handler):
    sys.path.insert(0, str(run.SRC))
    toupie = run.import_toupie()
    expected = json.loads((HERE / "expected.json").read_text())
    jobs, inputs = run.setup(toupie, "random-mix", 3, expected, HERE / "_work" / "test")
    main = toupie.cli.main
    far = perf_counter() + 600

    def digests(rows):
        assert [run.check(r, inputs, expected) for r in rows] == [None] * len(rows)
        return [run.wl.report_digest(r[2], inputs[r[0].input_id][1]) for r in rows]

    _, plain = run.run_batch(main, jobs, inputs, far)
    tracer = Tracer()
    tracer.install()
    tracer.patch()
    try:
        _, traced = run.run_batch(main, jobs, inputs, far)
    finally:
        tracer.unpatch()
    assert tracer.layer_metrics()["functions"]["cli.render_report"]["calls"] == len(jobs)
    assert digests(plain) == digests(traced)


def test_a_job_past_its_time_limit_fails_instead_of_stalling(alarm_handler):
    def hang(argv):
        while True:
            pass

    t0 = perf_counter()
    code, stdout, note = run.run_job(hang, [], 1)
    assert code is None and stdout == "" and "timed out" in note
    assert perf_counter() - t0 < 5
