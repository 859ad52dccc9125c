"""What a process imports: `import toupie` loads no submodule, and a CLI
command loads only the modules it runs.  Each check runs in a fresh
interpreter, since this test session has already imported every module."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toupie
from tests.conftest import three_branch_presentation
from toupie.cli import _COMMAND_NAMES, presentation_payload

SRC = str(Path(__file__).resolve().parent.parent / "src")
SUBMODULES = (
    "presentation", "rewriting", "chains", "zigzag", "morse", "anick", "ainf", "duality",
    "random_presentations",
)
LOADED = "import json\nprint(json.dumps(sorted(m[7:] for m in sys.modules if m.startswith('toupie.'))))"

# the toupie modules a fresh process holds after one command
BASE = {"cli", "presentation", "rewriting"}
CHAINS = BASE | {"chains"}
MORSE = CHAINS | {"zigzag", "morse"}
AINF = MORSE | {"ainf"}
COMMAND_MODULES = {
    "validate": BASE,
    "branches": BASE,
    "tips": BASE,
    "chains": CHAINS,
    "betti": CHAINS | {"anick"},
    "resolution-check": MORSE | {"anick"},
    "sdr-check": MORSE,
    "tor-coalgebra": AINF,
    "ext-products": AINF,
    "stasheff": AINF,
    "yoneda": AINF | {"duality"},
    "gr": BASE | {"duality"},
    "double-dual": AINF | {"duality"},
    "oracle-diff": AINF,
}


def run_fresh(code: str, *args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_command(*argv):
    """The submodules loaded by one `main(argv)` in a fresh process."""
    code = (
        "import contextlib, io, sys\n"
        "import toupie.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    toupie.cli.main(sys.argv[1:])\n" + LOADED
    )
    return set(run_fresh(code, *argv))


@pytest.fixture
def e1_path(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(presentation_payload(three_branch_presentation())))
    return str(path)


def test_bare_import_loads_no_submodule():
    assert run_fresh("import sys, toupie\n" + LOADED) == []
    assert run_fresh("import sys, toupie.cli\n" + LOADED) == ["cli", "presentation"]


def test_every_command_loads_only_its_modules(e1_path):
    assert set(COMMAND_MODULES) == set(_COMMAND_NAMES)
    for command, want in COMMAND_MODULES.items():
        assert run_command(command, e1_path, "--degree", "2", "--arity", "2") == want, command


def test_no_command_loads_the_generator(e1_path):
    # every command in one process: the generator is test and benchmark input only
    code = (
        "import contextlib, io, sys\n"
        "import toupie.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for command in toupie.cli._COMMAND_NAMES:\n"
        "        toupie.cli.main([command, sys.argv[1], '--degree', '2', '--arity', '2'])\n"
        + LOADED
    )
    loaded = set(run_fresh(code, e1_path))
    assert loaded == set().union(*COMMAND_MODULES.values())
    assert "random_presentations" not in loaded


def test_public_names_resolve_on_first_use():
    code = """
import json, sys, toupie
names = [n for n in toupie.__all__ if n != "__version__"]
wrong = [n for n in names if getattr(toupie, n) is not vars(sys.modules[getattr(toupie, n).__module__])[n]]
subs = [s for s in SUBS if getattr(toupie, s) is not sys.modules["toupie." + s]]
star = {}
exec("from toupie import *", star)
unbound = sorted(set(toupie.__all__) - set(star))
undir = sorted(set(toupie.__all__) - set(dir(toupie)))
print(json.dumps([wrong, subs, unbound, undir, hasattr(toupie, "no_such_name"), len(names)]))
""".replace("SUBS", repr(SUBMODULES))
    wrong, subs, unbound, undir, unknown, count = run_fresh(code)
    assert (wrong, subs, unbound, undir, unknown) == ([], [], [], [], False)
    assert count == 42


def test_exports_list_every_module_all():
    # `toupie._EXPORTS` is the one list of public names: each module's `__all__`
    assert set(toupie._EXPORTS) == set(SUBMODULES)
    for module in SUBMODULES:
        names = importlib.import_module("toupie." + module).__all__
        assert sorted(names) == sorted(toupie._EXPORTS[module]), module


# A wrapped function called from another module must be read through its module
# at call time: a by-name copy taken when the caller module was loaded escapes a
# patch applied later to the defining module (the benchmark tracer patches after
# the modules are loaded, and so do the spies in these tests).


@pytest.mark.parametrize(
    "module, name, argv",
    [
        ("zigzag", "verify_sdr", ("sdr-check", "--degree", "2")),
        ("morse", "build_matching", ("resolution-check", "--degree", "3")),
        ("rewriting", "build_groebner", ("double-dual",)),
        ("rewriting", "rref", ("double-dual",)),
        ("presentation", "branches_of", ("double-dual",)),
    ],
)
def test_patch_in_defining_module_reaches_every_caller(e1_path, module, name, argv):
    code = f"""
import contextlib, io, json, sys
import toupie.cli
from toupie import *  # every module loaded before the patch
mod = sys.modules["toupie.{module}"]
orig = mod.{name}
holders = [m for k, m in sys.modules.items() if k.startswith("toupie") and vars(m).get("{name}") is orig]
counts = []
for targets in ([mod], holders):
    calls = []
    def spy(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    for m in targets:
        setattr(m, "{name}", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        toupie.cli.main(sys.argv[1:])
    for m in targets:
        setattr(m, "{name}", orig)
    counts.append(len(calls))
print(json.dumps(counts))
"""
    only_defining, every_holder = run_fresh(code, argv[0], e1_path, *argv[1:])
    assert only_defining == every_holder > 0
