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


def bitcheck(*argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bitcheck.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_bitcheck_all_prints_one_hash_line_per_workload():
    done = bitcheck("--workload", "all", "--seeds", "1", "--rounds", "1")
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


def test_bitcheck_against_itself_matches_every_workload():
    done = bitcheck("--workload", "all", "--seeds", "1", "--rounds", "1",
                    "--against", str(ROOT))
    assert done.returncode == 0, done.stderr
    names = list(_perfbench_inputs().ROUNDS)
    verdicts = done.stdout.splitlines()[-len(names):]
    assert ([line.split()[:2] for line in verdicts]
            == [[f"{name}:", "match"] for name in names])


def test_bitcheck_against_other_hashes_exits_one(tmp_path):
    # a checkout whose bitcheck prints a different hash for every workload
    fake = tmp_path / "scripts" / "bitcheck.py"
    fake.parent.mkdir()
    fake.write_text("print('session seeds 1 rounds 1: 1 ops, sha256 0')\n")
    done = bitcheck("--workload", "session", "--seeds", "1", "--rounds", "1",
                    "--against", str(tmp_path))
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[-1].startswith("session: mismatch")
