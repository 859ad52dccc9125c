#!/usr/bin/env python3
"""Benchmark runner for the toupie CLI.

    python3 perfbench/run.py --workload line-ainf --seed 1 --seconds 30 --trace 0

Single process, closed loop: one client runs the workload's job list again
and again, one job at a time, each job being `toupie.cli.main(argv)` called
in-process on a generated input.  A batch is one pass over the job list;
batches repeat while the next one is expected to end within `--seconds`.
Each job's exit code and report digest are checked against `expected.json`,
and the self-check commands must report "ok".  A job that raises, answers
wrongly or runs past its time limit (SIGALRM, no threads) counts as failed.

With `--trace 0` the last line of stdout reports the end-to-end metrics:
median batch time, median set-up time (import `toupie`, generate and write
the inputs; repeated SETUP_REPS times) and peak RSS.  Both times are rescaled
by a host-speed probe (`SpeedProbe`): on a shared host the CPU speed drifts by
15-40% over seconds to minutes and moves every timing alike, so a fixed
reference loop is timed between jobs and the times are reported as they would
read on a host where one reference chunk takes REF_CHUNK_S.  With `--trace 1`,
untraced and traced batches alternate: the untraced ones give the
per-command-group times, the traced ones the per-layer spans and counts (see
tracer.py and README.md), and the difference of their medians is the tracing
overhead.  The spans of the first traced batch are written to
`_work/<workload>/spans.jsonl`.  The exit status is 0 only when every job
passed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracer import COUNTS, FUNCTIONS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 20
JOB_TIMEOUT_S = 60
HARD_LIMIT_S = 160  # whole run, set-up included; a batch past it is cut short
REF_CHUNK_S = 0.004  # nominal time of one reference chunk, the scale of reported times
REF_SHARE = 0.1  # reference chunks take about this share of the probed time

# layers that must record calls on the workload where they do most of the work
HOT = {
    "line-ainf": (
        "chains.ChainGraph.chains",
        "chains.ChainGraph.decompositions",
        "ainf.ExtAlgebra.m",
        "ainf.TorCoalgebra.closed_delta",
        "ainf.algebra_table",
        "ainf.coalgebra_table",
        "ainf.stasheff_coalgebra_defects",
        "ainf.stasheff_algebra_defects",
        "anick.AnickResolution.__init__",
        "anick.AnickResolution.check",
        "anick.betti_numbers",
    ),
    "bar-sdr": (
        "ainf.TorCoalgebra.transfer_delta",
        "morse.bar_words",
        "morse.build_matching",
        "morse.BarSDR.verify",
        "zigzag.verify_sdr",
        "zigzag.BasedComplex.__init__",
    ),
    "wide-dual": (
        "rewriting.rref",
        "rewriting.build_groebner",
        "rewriting.special_basis",
        "duality.gr_algebra",
        "duality.yoneda_presentation",
        "duality.double_dual",
        "duality.ideal_equal",
        "duality.hypotheses_check",
        "duality.quadratic_blocks",
    ),
    "random-mix": (
        "presentation.validate_toupie",
        "presentation.branches_of",
        "cli.parse_presentation",
        "cli.render_report",
        "random_presentations.random_presentation",
    ),
}


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def ref_chunk() -> int:
    """The host-speed reference: a fixed integer loop that allocates no containers."""
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Measures the host's current speed by timing reference chunks between
    pieces of work, about REF_SHARE of their time, so that the chunks sample
    the same stretch of time as the work does."""

    def __init__(self):
        self.work = self.ref = 0.0
        self.chunks = 0

    def after(self, work_s: float):
        self.work += work_s
        while self.chunks == 0 or self.ref < REF_SHARE * self.work:
            t0 = perf_counter()
            ref_chunk()
            self.ref += perf_counter() - t0
            self.chunks += 1

    def scaled(self, seconds: float) -> float:
        """`seconds` as it would read on a host where one chunk takes REF_CHUNK_S."""
        return seconds * REF_CHUNK_S * self.chunks / self.ref


def import_toupie():
    """A fresh import of the package under test, from this checkout only."""
    for name in [n for n in sys.modules if n == "toupie" or n.startswith("toupie.")]:
        del sys.modules[name]
    toupie = importlib.import_module("toupie")
    importlib.import_module("toupie.cli")
    if Path(toupie.__file__).resolve().parent != SRC / "toupie":
        raise ImportError(f"toupie imported from {toupie.__file__}, not from {SRC}")
    return toupie


def setup(toupie, workload: str, seed: int, expected: dict, workdir: Path):
    """Generate, relabel and write the inputs; returns (jobs, {input id: (file, inverse map)})."""
    rng = random.Random(f"{workload}/{seed}")
    canon = wl.canonical_inputs(toupie, workload, rng, expected["mix_by_cost"])
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.glob("*.json"):
        stale.unlink()
    inputs = {}
    for input_id, data in canon.items():
        data, inverse = wl.relabel(data, rng)
        path = workdir / f"{input_id}.json"
        path.write_text(json.dumps(data))
        inputs[input_id] = (str(path), inverse)
    return wl.jobs_for(workload, canon), inputs


def run_job(main, argv, limit: int):
    """(exit code or None, stdout, error note)."""
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(limit)
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.alarm(0)
    except JobTimeout:
        return None, "", f"timed out after {limit} s"
    except Exception:
        return None, "", traceback.format_exc(limit=-3)
    return code, out.getvalue(), err.getvalue()


def run_batch(main, jobs, inputs, hard_deadline: float, probe: SpeedProbe | None = None):
    """Run the job list once; returns (seconds in jobs, [(job, code, stdout, note, seconds)]).
    A `probe` times reference chunks after each job."""
    rows = []
    for job in jobs:
        path, _ = inputs[job.input_id]
        t0 = perf_counter()
        limit = min(JOB_TIMEOUT_S, int(hard_deadline - t0))
        if limit < 1:
            rows.append((job, None, "", "run time limit reached", 0.0))
            continue
        code, stdout, note = run_job(main, [job.command, path, "--format", "json", *job.args[1:]], limit)
        seconds = perf_counter() - t0
        rows.append((job, code, stdout, note, seconds))
        if probe:
            probe.after(seconds)
    return sum(row[4] for row in rows), rows


def check(row, inputs, expected) -> str | None:
    """None if the job's exit code and digest match the record, else why not."""
    job, code, stdout, note, _ = row
    want = expected["jobs"].get(job.input_id, {}).get(job.key)
    if want is None:
        return "no recorded result"
    if code is None:
        return note.strip()
    if code != want[0]:
        return f"exit {code}, expected {want[0]}"
    try:
        status, digest = wl.report_digest(stdout, inputs[job.input_id][1])
    except (ValueError, KeyError) as err:
        return f"unreadable report: {err}"
    if job.command in wl.SELF_CHECKS and status != "ok":
        return f"status {status!r}"
    if digest != want[1]:
        return f"digest {digest}, expected {want[1]}"
    return None


def group_times(rows) -> dict:
    out = dict.fromkeys(sorted(set(wl.GROUPS.values())), 0.0)
    for job, _, _, _, seconds in rows:
        out[wl.GROUPS[job.command]] += seconds
    return out


def write_spans(path: Path, spans: list):
    t0 = spans[0][2] if spans else 0.0
    with path.open("w") as fh:
        for idx, (name, parent, start, end, raised) in enumerate(spans):
            fh.write(json.dumps([idx, parent, name, start - t0, end - t0, raised]) + "\n")


def layer_report(traced, untraced, setup_layers) -> dict:
    """Per-layer metrics: medians over traced batches, counts from the first one."""
    metrics = {}
    for fn in FUNCTIONS:
        src = setup_layers if fn.startswith("random_presentations.") else None
        rows = [src["functions"][fn]] if src else [b["functions"][fn] for b in traced]
        metrics[f"{fn}.calls"] = (rows[0]["calls"], "count")
        metrics[f"{fn}.self_s"] = (statistics.median(r["self_s"] for r in rows), "s")
        metrics[f"{fn}.total_s"] = (statistics.median(r["total_s"] for r in rows), "s")
    counts = dict(traced[0]["counts"])
    counts["random_presentations.retries"] = setup_layers["counts"]["random_presentations.retries"]
    for c in COUNTS:
        metrics[c] = (counts[c], "count")
    tried = counts["chains.cuts_tried"]
    metrics["chains.cut_yield"] = (counts["chains.cuts_parsed"] / tried if tried else 0.0, "ratio")
    groups = [g for _, _, g in untraced]
    for name in groups[0]:
        metrics[name] = (statistics.median(g[name] for g in groups), "s")
    overhead = statistics.median(b["busy"] for b in traced) - statistics.median(b for _, b, _ in untraced)
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics


def measure(args) -> tuple[dict, int, int, list]:
    """Set up, run batches for args.seconds; returns (metrics, attempted, failed, problems)."""
    run_start = perf_counter()
    hard_deadline = run_start + HARD_LIMIT_S
    expected = json.loads((HERE / "expected.json").read_text())
    workdir = HERE / "_work" / args.workload
    tracer = Tracer() if args.trace else None

    ref_chunk()  # warm-up
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        toupie = import_toupie()
        if tracer:
            tracer.reset()
            tracer.install()
            tracer.patch()
        jobs, inputs = setup(toupie, args.workload, args.seed, expected, workdir)
        seconds = perf_counter() - t0
        if tracer:
            tracer.unpatch()
        probe = SpeedProbe()
        probe.after(seconds)
        setup_times.append(probe.scaled(seconds))
    setup_layers = tracer.layer_metrics() if tracer else None
    main = sys.modules["toupie.cli"].main

    signal.signal(signal.SIGALRM, _on_alarm)
    attempted = failed = 0
    problems, untraced, traced = [], [], []
    first_spans = None
    deadline = perf_counter() + args.seconds
    while True:
        trace_this = bool(tracer) and len(untraced) > len(traced)
        gc.collect()  # no batch pays for the garbage of the one before it
        probe = SpeedProbe()
        if trace_this:
            tracer.reset()
            tracer.patch()
        start = perf_counter()
        try:
            busy, rows = run_batch(main, jobs, inputs, hard_deadline, probe)
        finally:
            if trace_this:
                tracer.unpatch()
        wall = perf_counter() - start
        for row in rows:
            attempted += 1
            why = check(row, inputs, expected)
            if why is not None:
                failed += 1
                problems.append(f"{row[0].input_id} {row[0].key}: {why}")
        if trace_this:
            traced.append({"busy": busy, **tracer.layer_metrics()})
            if first_spans is None:
                first_spans = list(tracer.spans)
        else:
            untraced.append((probe.scaled(busy), busy, group_times(rows)))
        now = perf_counter()
        if now >= hard_deadline:
            problems.append(f"run stopped at the {HARD_LIMIT_S} s limit")
            break
        # stop when one more batch would overrun the measuring window
        if now + wall > deadline and (not tracer or traced):
            break

    if not tracer:
        metrics = {
            "batch_s": (statistics.median(scaled for scaled, _, _ in untraced), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return metrics, attempted, failed, problems

    if not traced:
        return {}, attempted, failed, problems + ["no traced batch completed"]
    metrics = layer_report(traced, untraced, setup_layers)
    for fn in HOT[args.workload]:
        if metrics[f"{fn}.calls"][0] == 0:
            problems.append(f"layer {fn} recorded no calls on its hot workload")
    write_spans(workdir / "spans.jsonl", first_spans)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toupie" / "__init__.py").is_file():
        print(f"perfbench: no toupie sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    metrics, attempted, failed, problems = measure(args)
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
