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


def test_demo_running_example_runs_clean(capsys):
    demo = load_script("demo_running_example")
    assert demo.main([]) is None
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "double dual generates the same ideal as gr: True"


def test_check_report_writer_runs_clean(capsys, monkeypatch):
    # the script imports the running example from its neighbour, as it does
    # when run as `python scripts/check_report_writer.py`
    monkeypatch.syspath_prepend(str(SCRIPTS))
    check = load_script("check_report_writer")
    assert check.main() == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "28 reports, 0 differ from json.dumps"
    )


def test_check_intern_runs_clean(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    check = load_script("check_intern")
    assert check.main() == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("5 intern checks, 0 failed")


def test_check_readme_runs_clean(capsys):
    check = load_script("check_readme")
    assert check.main() == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("6 README commands, 0 failed")
