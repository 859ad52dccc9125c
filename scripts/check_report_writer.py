#!/usr/bin/env python3
"""Check the JSON report writer against `json.dumps` on this Python.

Runs every command in-process with `--format json` on the three-branch
running example and on line(10,3) (one branch of 10 arrows, a length-3
monomial relation at every position).  Each report must equal
`json.dumps(json.loads(report), indent=2, sort_keys=True) + "\\n"`.  Prints one
line per mismatch and a summary; exits 1 on any mismatch.  Needs only the
standard library.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from demo_running_example import running_example

from toupie.cli import _COMMAND_NAMES, main as toupie_main, presentation_payload

# line(n, k) comes from the benchmark's input builders (stdlib only), so one
# module says how that input is built
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import line  # noqa: E402


def main() -> int:
    inputs = {
        "running-example": presentation_payload(running_example()),
        "line-10-3": line(10, 3),
    }
    bad = runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, payload in inputs.items():
            path = Path(tmp) / f"{label}.json"
            path.write_text(json.dumps(payload))
            for command in _COMMAND_NAMES:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    toupie_main([command, str(path), "--format", "json"])
                text = out.getvalue()
                runs += 1
                if text != json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n":
                    bad += 1
                    print(f"{label} {command}: report differs from json.dumps")
    print(f"{runs} reports, {bad} differ from json.dumps (Python {sys.version.split()[0]})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
