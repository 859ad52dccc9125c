"""The scripts under scripts/ run against the current library API."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_random_runs_clean(capsys):
    sweep = load_script("sweep_random")
    assert sweep.main(["--seeds", "2", "--arity", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 seeds, 0 with failures"
