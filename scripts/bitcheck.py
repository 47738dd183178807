#!/usr/bin/env python3
"""One hash over every output of a benchmark workload, for bit-identity.

Runs the given rounds of a perfbench workload at each seed, with the inputs
and calls of the benchmark itself, and prints one sha256 over the reprs of
all outputs in order; an operation that raises contributes
``type: message`` instead.  Two checkouts whose hashes agree computed the
same bits for every operation.  ``--workload all`` prints one such line
per workload.  ``--against CHECKOUT`` also runs CHECKOUT's own bitcheck on
the same workloads, seeds and rounds, prints ``match`` or ``mismatch`` per
workload and exits 1 on any mismatch.

    python3 scripts/bitcheck.py --workload verify --seeds 1-4 --rounds 3
    python3 scripts/bitcheck.py --workload all --seeds 1-4 --rounds 3
    python3 scripts/bitcheck.py --workload all --seeds 1-4 --against ../parent

Run it from the root of a source checkout; dxdy is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def seeds(text: str) -> list[int]:
    """'1-4' or '1,3,5' (or a mix) as a list of seeds."""
    out = []
    for item in text.split(","):
        low, _, high = item.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def outcome(op) -> str:
    try:
        # CLI verbs print their errors on stderr; the status is the output
        with contextlib.redirect_stderr(io.StringIO()):
            return repr(workloads.execute(op))
    except Exception as err:  # noqa: BLE001 - a failure is an outcome
        return f"{type(err).__name__}: {err}"


def digest_line(workload: str, seed_list: list[int], rounds: int) -> str:
    digest = hashlib.sha256()
    count = 0
    for seed in seed_list:
        for ops in inputs.make_rounds(workload, seed, rounds):
            for op in ops:
                digest.update(outcome(op).encode())
                digest.update(b"\n")
                count += 1
    return (f"{workload} seeds {','.join(map(str, seed_list))} rounds "
            f"{rounds}: {count} ops, sha256 {digest.hexdigest()}")


def their_lines(checkout: Path, workload: str, seed_list: list[int],
                rounds: int) -> dict[str, str]:
    """The hash lines of another checkout's bitcheck, by workload."""
    done = subprocess.run(
        [sys.executable, str(checkout / "scripts" / "bitcheck.py"),
         "--workload", workload, "--seeds", ",".join(map(str, seed_list)),
         "--rounds", str(rounds)],
        cwd=checkout, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    return {line.split()[0]: line for line in done.stdout.splitlines()
            if line.strip()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seeds", type=seeds, required=True,
                        help="seeds as '1-4' or '1,3,5'")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="compare with CHECKOUT's bitcheck on the same "
                             "arguments; exit 1 on any mismatch")
    args = parser.parse_args(argv)
    workloads.bind(run._import_dxdy())
    chosen = run.WORKLOADS if args.workload == "all" else (args.workload,)
    ours = {}
    for workload in chosen:
        ours[workload] = digest_line(workload, args.seeds, args.rounds)
        print(ours[workload], flush=True)
    if args.against is None:
        return 0
    theirs = their_lines(args.against.resolve(), args.workload, args.seeds,
                         args.rounds)
    status = 0
    for workload, line in ours.items():
        same = theirs.get(workload) == line
        print(f"{workload}: {'match' if same else 'mismatch'} against "
              f"{args.against}")
        status |= not same
    return status


if __name__ == "__main__":
    sys.exit(main())
