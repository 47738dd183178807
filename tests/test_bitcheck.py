"""Smoke test of scripts/bitcheck.py: one hash line per benchmark workload."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_inputs():
    """perfbench/inputs.py, loaded without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bitcheck_all_prints_one_hash_line_per_workload():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bitcheck.py"),
         "--workload", "all", "--seeds", "1", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    inputs = _perfbench_inputs()
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == list(inputs.ROUNDS)
    for line in lines:
        match = re.fullmatch(
            r"(\w+) seeds 1 rounds 1: (\d+) ops, sha256 ([0-9a-f]{64})", line)
        assert match, line
        workload, count = match.group(1), int(match.group(2))
        assert count == len(inputs.make_rounds(workload, 1, 1)[0])
