"""Smoke test of scripts/bitcheck.py: one hash line per benchmark workload."""

import ast
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from helpers import script_module, sweep_module

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


def test_bitcheck_names_the_first_operation_that_differs(tmp_path):
    # a checkout whose laurent verb alone prints a different document
    for part in ("src", "perfbench", "scripts"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    cli = tmp_path / "src" / "dxdy" / "cli.py"
    text = cli.read_text()
    assert text.count('"window": ') == 1
    cli.write_text(text.replace('"window": ', '"Window": '))
    done = bitcheck("--workload", "session", "--seeds", "1", "--rounds", "1",
                    "--against", str(tmp_path))
    assert done.returncode == 1, done.stderr
    report = done.stdout.splitlines()[-4:]
    assert report[0].startswith(
        "session: first difference at seed 1 round 1, laurent "
        "{'argv': ['laurent',")
    assert report[1].startswith("    here:  (0, ")
    assert '"window": ' in report[1]
    assert report[2].startswith("    there: (0, ")
    assert '"Window": ' in report[2]
    assert report[3].startswith("session: mismatch")


def test_bitcheck_lists_every_difference_with_its_size(tmp_path):
    # a checkout whose residues verb prints each residue part doubled, and
    # whose laurent verb names its window another way
    for part in ("src", "perfbench", "scripts"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    cli = tmp_path / "src" / "dxdy" / "cli.py"
    text = cli.read_text()
    residue = "[residue(f, p) for p in poles]"
    assert text.count(residue) == 1 and text.count('"window": ') == 1
    cli.write_text(text.replace(residue, "[residue(f, p) + residue(f, p) "
                                         "for p in poles]")
                   .replace('"window": ', '"Window": '))
    done = bitcheck("--workload", "session", "--seeds", "1", "--rounds", "1",
                    "--against", str(tmp_path))
    assert done.returncode == 1, done.stderr
    summary, residues, here, there, laurent, *_ = done.stdout.splitlines()[1:]
    # x here, 2x there: each change is |x|, relative to 2x a half
    parts = [part for pole in json.loads(ast.literal_eval(here[11:])[1])
             ["poles"] for part in pole["residue"] if part]
    largest = f"{max(map(abs, parts)):.3g}"
    count = len(_perfbench_inputs().make_rounds("session", 1, 1)[0])
    assert summary == (f"session: 2 of {count} operations differ, largest "
                       f"change {largest} absolute, 0.5 relative; 1 changed "
                       f"more than numbers, size unknown")
    assert residues.startswith(
        "session: first difference at seed 1 round 1, residues ")
    assert re.search(f": {len(parts)} of \\d+ numbers differ, largest change "
                     f"{largest} absolute, 0.5 relative$", residues)
    assert here.startswith("    here:  (0, ")
    assert there.startswith("    there: (0, ")
    assert laurent.startswith(
        "session: next difference at seed 1 round 1, laurent ")
    assert laurent.endswith(": the text around the numbers differs")
    assert done.stdout.splitlines()[-1].startswith("session: mismatch")


def test_roots_workload_corpus_and_its_comparison(monkeypatch):
    # in process: the corpus each seed draws, and --against running this
    # script on the other checkout's source, whose own bitcheck may not
    # know the workload
    module = script_module("bitcheck")
    cases = list(module.root_cases(1))
    assert len(cases) == 100 + 30 + 12 + 100 + 1500 + 200
    assert all(coeffs[-1] == 1 for _, coeffs in cases)
    labels = [label for label, _ in cases]
    assert labels[99].startswith("z^100+") and labels[129] == "(z-1)^30"
    u, v, _, m = list(module.decimal_poles(1, 1500))[-1]
    assert labels[-201] == f"(z-({u!r}+{v!r}*I))^{m}"
    # the sweep's denominators, as random_sweep.py --seed 1 draws them
    _, den, _, _ = list(sweep_module().contour_cases(1, 200))[-1]
    assert cases[-1] == ("sweep 1:199", list(den.coeffs))
    calls = []
    monkeypatch.setattr(module, "_run",
                        lambda argv, checkout: calls.append(argv) or "")
    module.their_lines(ROOT, "roots", [1], 1)
    module.their_lines(ROOT, "poles", [1], 1)
    assert calls[0][:3] == [str(module.SCRIPT), "--source", str(ROOT)]
    assert calls[1][0] == str(ROOT / "scripts" / "bitcheck.py")


def test_bitcheck_counts_changes_of_shape_apart(monkeypatch):
    # in process: each differing root table changed its shape (three
    # simple roots there, one triple root here), so no change has a size
    # and the summary must not read "largest change 0"
    module = script_module("bitcheck")
    ours = [(1, 1, "find_roots", "(z-1)^3", "[((1+0j), 3)]"),
            (1, 1, "find_roots", "(z-2)^3", "[((2+0j), 3)]"),
            (1, 1, "find_roots", "z-3", "[((3+0j), 1)]")]
    theirs = [(*case[:4], "[((0.99+0j), 1), ((1.01+0j), 1), "
                          "((1+0.01j), 1)]") for case in ours[:2]]
    monkeypatch.setattr(module, "outcomes", lambda *_: iter(ours))
    monkeypatch.setattr(module, "_run", lambda argv, checkout: "\n".join(
        json.dumps(case) for case in [*theirs, ours[2]]))
    summary, first, *_ = module.differences(ROOT, "roots", [1], 1)
    assert summary == ("roots: 2 of 3 operations differ; 2 changed more "
                       "than numbers, size unknown")
    assert first.endswith("(z-1)^3: the text around the numbers differs")
