"""Smoke test of scripts/random_sweep.py: it runs from any directory, and
a typed error in a case is a failed case, not the end of the run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from dxdy.roots import RootFindingError

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "random_sweep.py"


def _sweep_module():
    spec = importlib.util.spec_from_file_location("random_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--count", "2", "--seed", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "2/2 cases within 1e-07 (scaled)" in done.stdout


def test_typed_errors_count_as_failed_cases(monkeypatch, capsys):
    sweep = _sweep_module()

    def fails(*args, **kwargs):
        raise RootFindingError("no consistent root structure")

    monkeypatch.setattr(sweep, "differential_check", fails)
    monkeypatch.setattr(sweep, "integrate_real_line", fails)
    assert sweep.main(["--count", "2", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    for index in range(2):
        assert (f"FAIL case {index}: RootFindingError: no consistent root "
                f"structure") in out
        assert (f"FAIL real-line case {index}: RootFindingError: no "
                f"consistent root structure") in out
    assert "0/2 cases within" in out
    assert "0/2 real-line cases within" in out
