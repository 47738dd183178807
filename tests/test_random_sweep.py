"""Smoke test of scripts/random_sweep.py: it runs from any directory, and
a typed error in a case is a failed case, not the end of the run."""

import os
import subprocess
import sys

from dxdy.roots import RootFindingError
from helpers import SWEEP_SCRIPT, sweep_module


def test_sweep_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SWEEP_SCRIPT), "--count", "2", "--seed", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "2/2 cases within 1e-07 (scaled)" in done.stdout


def test_typed_errors_count_as_failed_cases(monkeypatch, capsys):
    sweep = sweep_module()

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
