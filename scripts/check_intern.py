#!/usr/bin/env python3
"""Check the path intern table on this Python.

`Path._table` is a plain dict from (source, arrows) to a weak reference
whose callback removes the entry when its path is freed, so the table rests
on when this interpreter runs weak reference callbacks.  Checks:

- equal paths are one object, and a rejected path is not interned;
- an entry goes when its path is freed by reference count, and when it is
  freed by the cyclic collector;
- a late callback of a freed path leaves a newer live path under its key;
- every command on the three-branch running example leaves the table as it
  found it.

Prints one line per failed check and a summary; exits 1 on any failure.
Needs only the standard library.
"""

import contextlib
import gc
import io
import json
import sys
import tempfile
from pathlib import Path as FilePath

from demo_running_example import running_example

from toupie.cli import _COMMAND_NAMES, main as toupie_main, presentation_payload
from toupie.presentation import Arrow, Path


def _identity() -> bool:
    a, b = Arrow("check-a", "u", "v"), Arrow("check-b", "v", "w")
    p = Path("u", (a, b))
    try:
        Path("u", (b, a))
    except ValueError:
        rejected = ("u", (b, a)) not in Path._table
    else:
        rejected = False
    return Path("u", [a, b]) is p and p.slice(0, 1) is Path("u", (a,)) and rejected


def _refcount_free() -> bool:
    key = ("u", (Arrow("check-refcount", "u", "v"),))
    p = Path(*key)
    kept = Path._table[key]() is p
    del p
    return kept and key not in Path._table


def _cyclic_free() -> bool:
    key = ("u", (Arrow("check-cyclic", "u", "v"),))
    gc.disable()
    try:
        box = [Path(*key)]
        box.append(box)  # only the cyclic collector frees the list, and with it the path
        del box
        kept = key in Path._table and Path._table[key]() is not None
    finally:
        gc.enable()
    gc.collect()
    return kept and key not in Path._table


def _late_callback() -> bool:
    key = ("u", (Arrow("check-late", "u", "v"),))
    p = Path(*key)
    old = Path._table[key]
    forget = old.__callback__  # None once the path is freed
    del p
    q = Path(*key)
    forget(old)  # the freed path's callback, run after a newer path took its key
    kept = Path._table.get(key)
    return kept is not None and kept() is q and Path(*key) is q


def _no_leak() -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        path = FilePath(tmp) / "running-example.json"
        path.write_text(json.dumps(presentation_payload(running_example())))
        gc.collect()
        before = len(Path._table)
        grown = []
        for command in _COMMAND_NAMES:
            with contextlib.redirect_stdout(io.StringIO()):
                toupie_main([command, str(path), "--format", "json"])
            gc.collect()
            if len(Path._table) != before:
                grown.append(command)
    for command in grown:
        print(f"{command}: the intern table kept paths after the job")
    return not grown


CHECKS = {
    "equal paths are one object": _identity,
    "a path freed by reference count leaves the table": _refcount_free,
    "a path freed by the cyclic collector leaves the table": _cyclic_free,
    "a late callback keeps a newer live path": _late_callback,
    "no command leaks paths into the table": _no_leak,
}


def main() -> int:
    failed = [name for name, check in CHECKS.items() if not check()]
    for name in failed:
        print(f"failed: {name}")
    print(f"{len(CHECKS)} intern checks, {len(failed)} failed (Python {sys.version.split()[0]})")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
