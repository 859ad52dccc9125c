#!/usr/bin/env python3
"""Record the expected exit code and report digest of every benchmark job.

    python3 perfbench/record.py

Runs each workload's jobs once on the canonical (not relabelled) inputs,
including all MIX_POOL draws of `random-mix`, and writes `expected.json`:
`jobs` maps input id -> job key -> [exit code, digest], and `mix_by_cost`
lists the pool seeds by the measured time of their 14 jobs (the best of
two passes), which `random-mix` cuts into cost strata.  Run it only on a
commit whose outputs are trusted; the benchmark then holds later commits to
the same outputs.
"""
from __future__ import annotations

import json
import signal
import sys
from time import perf_counter

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    toupie = run.import_toupie()
    signal.signal(signal.SIGALRM, run._on_alarm)
    main_fn = toupie.cli.main
    workdir = run.HERE / "_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs_out: dict = {}
    mix_cost: dict = {}
    bad = []
    for workload in wl.WORKLOADS:
        canon = wl.canonical_inputs(toupie, workload, None)
        for input_id, data in canon.items():
            path = workdir / f"{input_id}.json"
            path.write_text(json.dumps(data))
            cost = None
            for _ in range(2):
                t0 = perf_counter()
                for job in wl.jobs_for(workload, [input_id]):
                    if job.input_id != input_id:
                        continue
                    argv = [job.command, str(path), "--format", "json", *job.args[1:]]
                    code, stdout, note = run.run_job(main_fn, argv, 600)
                    if code is None:
                        bad.append(f"{input_id} {job.key}: {note}")
                        continue
                    status, digest = wl.report_digest(stdout, {})
                    if job.command in wl.SELF_CHECKS and status != "ok":
                        bad.append(f"{input_id} {job.key}: status {status}")
                    jobs_out.setdefault(input_id, {})[job.key] = [code, digest]
                elapsed = perf_counter() - t0
                cost = elapsed if cost is None else min(cost, elapsed)
            if workload == "random-mix":
                mix_cost[int(input_id.split("-")[1])] = cost
            print(f"{workload} {input_id} {cost:.3f} s", file=sys.stderr)
    for line in bad:
        print(f"record: {line}", file=sys.stderr)
    record = {
        "mix_by_cost": sorted(mix_cost, key=mix_cost.get),
        "jobs": jobs_out,
    }
    out = run.HERE / "expected.json"
    with out.open("w") as fh:
        fh.write("{\n")
        fh.write(f'"mix_by_cost": {json.dumps(record["mix_by_cost"])},\n"jobs": {{\n')
        rows = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(jobs_out.items())]
        fh.write(",\n".join(rows))
        fh.write("\n}}\n")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
