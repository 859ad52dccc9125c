#!/usr/bin/env python3
"""Check that the README's command-line examples run as written.

Writes the README's example presentation (its first `json` block) as
`example.json` in a temporary directory, then runs each line of the `sh`
block that follows it in-process through `toupie.cli.main`, with
`example.json` naming that file.  Each line must exit 0, and a line whose
comment holds `-> TEXT` must print TEXT as a line of its report.  Prints one
line per failure and a summary; exits 1 on any failure.  Needs only the
standard library.
"""

import contextlib
import io
import re
import shlex
import sys
import tempfile
from pathlib import Path

from toupie.cli import main as toupie_main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```(\w+)\n(.*?)^```$", re.M | re.S)


def example_blocks(text: str) -> tuple[str, list[str]]:
    """The example JSON and the lines of the first `sh` block after it."""
    blocks = [(m.group(1), m.group(2), m.start()) for m in BLOCK.finditer(text)]
    _, payload, at = next(b for b in blocks if b[0] == "json")
    _, commands, _ = next(b for b in blocks if b[0] == "sh" and b[2] > at)
    return payload, [line for line in commands.splitlines() if line.strip()]


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = toupie_main(argv)
        except SystemExit as exc:  # a usage error from the argument parser
            code = exc.code
    return code, out.getvalue() + err.getvalue()


def main() -> int:
    payload, lines = example_blocks(README.read_text(encoding="utf-8"))
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "example.json"
        path.write_text(payload, encoding="utf-8")
        for line in lines:
            command, _, comment = line.partition("#")
            words = shlex.split(command)
            if words[0] != "toupie":
                bad += 1
                print(f"{line}: not a toupie command")
                continue
            argv = [str(path) if w == "example.json" else w for w in words[1:]]
            code, text = run(argv)
            note = comment.strip()[3:] if comment.strip().startswith("-> ") else None
            if code != 0:
                bad += 1
                print(f"{line}: exit {code}\n{text}", end="")
            elif note is not None and note not in text.splitlines():
                bad += 1
                print(f"{line}: report has no line {note!r}")
    print(f"{len(lines)} README commands, {bad} failed (Python {sys.version.split()[0]})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
