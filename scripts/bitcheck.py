#!/usr/bin/env python3
"""One hash over every output of a benchmark workload, for bit-identity.

Runs the given rounds of a perfbench workload at each seed, with the inputs
and calls of the benchmark itself, and prints one sha256 over the reprs of
all outputs in order; an operation that raises contributes
``type: message`` instead.  Two checkouts whose hashes agree computed the
same bits for every operation.  ``--workload all`` prints one such line
per workload.  ``--against CHECKOUT`` also runs CHECKOUT's own bitcheck on
the same workloads, seeds and rounds, prints ``match`` or ``mismatch`` per
workload and exits 1 on any mismatch.  Before those verdicts it prints,
for each mismatching workload, the first operation whose output differs:
seed, round, kind, params and both reprs.  Those come from this script
run on CHECKOUT's ``src/`` and ``perfbench/`` (``--source CHECKOUT
--outcomes``, one JSON line per operation), since CHECKOUT's own bitcheck
may print only hashes.

    python3 scripts/bitcheck.py --workload verify --seeds 1-4 --rounds 3
    python3 scripts/bitcheck.py --workload all --seeds 1-4 --rounds 3
    python3 scripts/bitcheck.py --workload all --seeds 1-4 --against ../parent

Run it from the root of a source checkout; dxdy is imported from ``src/``,
or from CHECKOUT's with ``--source CHECKOUT``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent


def load(root: Path) -> tuple[str, ...]:
    """Import perfbench and dxdy from the checkout at root; its workloads."""
    global inputs, workloads
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import inputs
    import run
    import workloads
    workloads.bind(run._import_dxdy())
    return run.WORKLOADS


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


def outcomes(workload: str, seed_list: list[int], rounds: int):
    """(seed, round, kind, params, output) of each operation, in order."""
    for seed in seed_list:
        for number, ops in enumerate(
                inputs.make_rounds(workload, seed, rounds), 1):
            for op in ops:
                yield seed, number, op.kind, repr(op.params), outcome(op)


def digest_line(workload: str, seed_list: list[int], rounds: int) -> str:
    digest = hashlib.sha256()
    count = 0
    for *_, output in outcomes(workload, seed_list, rounds):
        digest.update(output.encode())
        digest.update(b"\n")
        count += 1
    return (f"{workload} seeds {','.join(map(str, seed_list))} rounds "
            f"{rounds}: {count} ops, sha256 {digest.hexdigest()}")


def _run(argv: list[str], checkout: Path) -> str:
    done = subprocess.run([sys.executable, *argv], cwd=checkout,
                          capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    return done.stdout


def their_lines(checkout: Path, workload: str, seed_list: list[int],
                rounds: int) -> dict[str, str]:
    """The hash lines of another checkout's bitcheck, by workload."""
    out = _run([str(checkout / "scripts" / "bitcheck.py"),
                "--workload", workload, "--seeds",
                ",".join(map(str, seed_list)), "--rounds", str(rounds)],
               checkout)
    return {line.split()[0]: line for line in out.splitlines()
            if line.strip()}


def first_difference(checkout: Path, workload: str, seed_list: list[int],
                     rounds: int) -> list[str]:
    """The first operation whose output differs in CHECKOUT, as lines."""
    out = _run([str(SCRIPT), "--source", str(checkout), "--outcomes",
                "--workload", workload, "--seeds",
                ",".join(map(str, seed_list)), "--rounds", str(rounds)],
               checkout)
    theirs = [tuple(json.loads(line)) for line in out.splitlines()]
    ours = list(outcomes(workload, seed_list, rounds))
    for here, there in zip(ours, theirs):
        if here != there:
            seed, number, kind, params, output = here
            return [f"{workload}: first difference at seed {seed} round "
                    f"{number}, {kind} {params}",
                    f"    here:  {output}",
                    f"    there: {there[4]}" if here[:4] == there[:4]
                    else f"    there: {there}"]
    if len(ours) != len(theirs):
        return [f"{workload}: {len(ours)} operations here, {len(theirs)} "
                f"there"]
    return [f"{workload}: no operation differs on a rerun"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a perfbench workload, or all")
    parser.add_argument("--seeds", type=seeds, required=True,
                        help="seeds as '1-4' or '1,3,5'")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="compare with CHECKOUT's bitcheck on the same "
                             "arguments; exit 1 on any mismatch")
    parser.add_argument("--source", type=Path, default=ROOT,
                        metavar="CHECKOUT",
                        help="import dxdy and perfbench from CHECKOUT")
    parser.add_argument("--outcomes", action="store_true",
                        help="print each operation as a JSON line "
                             "[seed, round, kind, params, output] instead "
                             "of the hashes")
    args = parser.parse_args(argv)
    names = load(args.source.resolve())
    if args.workload not in names + ("all",):
        parser.error(f"--workload must be one of {names} or all")
    chosen = names if args.workload == "all" else (args.workload,)
    if args.outcomes:
        for workload in chosen:
            for item in outcomes(workload, args.seeds, args.rounds):
                print(json.dumps(item))
        return 0
    ours = {}
    for workload in chosen:
        ours[workload] = digest_line(workload, args.seeds, args.rounds)
        print(ours[workload], flush=True)
    if args.against is None:
        return 0
    checkout = args.against.resolve()
    theirs = their_lines(checkout, args.workload, args.seeds, args.rounds)
    verdicts = []
    status = 0
    for workload, line in ours.items():
        same = theirs.get(workload) == line
        status |= not same
        if not same:
            print("\n".join(first_difference(checkout, workload, args.seeds,
                                             args.rounds)), flush=True)
        verdicts.append(f"{workload}: {'match' if same else 'mismatch'} "
                        f"against {args.against}")
    # the verdicts come last, one line per workload
    print("\n".join(verdicts))
    return status


if __name__ == "__main__":
    sys.exit(main())
