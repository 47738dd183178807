#!/usr/bin/env python3
"""One hash over every output of a benchmark workload, for bit-identity.

Runs the given rounds of a perfbench workload at each seed, with the inputs
and calls of the benchmark itself, and prints one sha256 over the reprs of
all outputs in order; an operation that raises contributes
``type: message`` instead.  Two checkouts whose hashes agree computed the
same bits for every operation.  ``--workload all`` prints one such line
per workload.  ``--against CHECKOUT`` also runs CHECKOUT's own bitcheck on
the same workloads, seeds and rounds, prints ``match`` or ``mismatch`` per
workload and exits 1 on any mismatch.  Before those verdicts it lists,
for each mismatching workload, every operation whose output differs:
seed, round, kind, params, both reprs, and the size of the change over
the numbers in the reprs (how many differ, the largest absolute and the
largest relative change, relative to CHECKOUT's value); an operation
whose text also changed around its numbers has no such size, and the
summary counts those apart.  Those come from this script run on CHECKOUT's ``src/`` and ``perfbench/`` (``--source
CHECKOUT --outcomes``, one JSON line per operation), since CHECKOUT's own
bitcheck may print only hashes.

``--workload roots`` is not a benchmark workload and ``all`` leaves it
out: it hashes the root tables of ``find_roots``, errors included, over a
corpus that each seed draws (``root_cases``; ``--rounds`` does not apply),
and ``--against`` runs this script on CHECKOUT's ``src/`` for it.

    python3 scripts/bitcheck.py --workload verify --seeds 1-4 --rounds 3
    python3 scripts/bitcheck.py --workload all --seeds 1-4 --rounds 3
    python3 scripts/bitcheck.py --workload all --seeds 1-4 --against ../parent
    python3 scripts/bitcheck.py --workload roots --seeds 1 --against ../parent

Run it from the root of a source checkout; dxdy is imported from ``src/``,
or from CHECKOUT's with ``--source CHECKOUT``.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent

#: the root-table workload, outside perfbench's
ROOTS = "roots"


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


def decimal_poles(seed: int, count: int):
    """(u, v, k, m) of count functions z^k/(z-a)^m, a = u + v*I at
    three-decimal u, v in [-2.5, 2.5], m in 2..16 and k in 0..m+1."""
    rng = random.Random(seed)
    for _ in range(count):
        u = rng.randint(-2500, 2500) / 1000
        v = rng.randint(-2500, 2500) / 1000
        m = rng.randint(2, 16)
        yield u, v, rng.randint(0, m + 1), m


def root_cases(seed: int):
    """(label, monic coefficients) of the roots workload at seed:
    z^n + c for n = 1..100 with |c| in [0.5, 2]; (z-1)^m for m = 1..30;
    near pairs (z-a)(z-a-d), d = 1e-1 .. 1e-12; 100 dense polynomials of
    degree 1..20 with Gaussian coefficients; the folded denominators
    (z-a)^m of decimal_poles(seed, 1500); and the denominators of
    random_sweep.py --count 200 --seed seed, labelled sweep seed:case."""
    from dxdy.functions import meromorphic_from_text
    rng = random.Random(seed)
    for n in range(1, 101):
        c = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        yield f"z^{n}+{c!r}", [c, *[0j] * (n - 1), 1 + 0j]
    for m in range(1, 31):
        yield f"(z-1)^{m}", [complex(math.comb(m, k) * (-1) ** (m - k))
                             for k in range(m + 1)]
    for e in range(1, 13):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = a + 10.0 ** -e
        yield f"(z-{a!r})(z-{b!r})", [a * b, -(a + b), 1 + 0j]
    for _ in range(100):
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
                  for _ in range(rng.randint(1, 20))]
        yield repr(coeffs), [*coeffs, 1 + 0j]
    for u, v, _, m in decimal_poles(seed, 1500):
        text = f"(z-({u!r}+{v!r}*I))^{m}"
        yield text, list(meromorphic_from_text(text).num.coeffs)
    sweep = _script_module("random_sweep")
    for case, (_, den, _, _) in enumerate(sweep.contour_cases(seed, 200)):
        yield f"sweep {seed}:{case}", list(den.coeffs)


def _script_module(name: str):
    """scripts/<name>.py next to this script, imported as a module; dxdy
    is imported already, from the checkout load() chose."""
    spec = importlib.util.spec_from_file_location(
        name, SCRIPT.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def root_table(coeffs: list[complex]) -> str:
    """find_roots's table as its repr, or its error."""
    from dxdy.roots import RootFindingError, find_roots
    try:
        return repr(find_roots(coeffs))
    except RootFindingError as err:
        return f"RootFindingError: {err}"


def outcomes(workload: str, seed_list: list[int], rounds: int):
    """(seed, round, kind, params, output) of each operation, in order."""
    if workload == ROOTS:
        for seed in seed_list:
            for label, coeffs in root_cases(seed):
                yield seed, 1, "find_roots", label, root_table(coeffs)
        return
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
    """The hash lines of another checkout's bitcheck, by workload; for
    roots, of this script on the checkout's source."""
    script = ([str(SCRIPT), "--source", str(checkout)] if workload == ROOTS
              else [str(checkout / "scripts" / "bitcheck.py")])
    out = _run([*script, "--workload", workload, "--seeds",
                ",".join(map(str, seed_list)), "--rounds", str(rounds)],
               checkout)
    return {line.split()[0]: line for line in out.splitlines()
            if line.strip()}


#: a decimal number in a repr, with its sign if it has one; the digits
#: that end a name, as in gap4, are none
NUMBER = re.compile(r"((?:[-+]|(?<![\w.]))"
                    r"(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|inf(?![a-ik-z])|nan(?![a-ik-z])))")


def change(here: str, there: str) -> tuple[str, tuple[float, float] | None]:
    """How the numbers in here differ from those in there: a description,
    and the largest absolute and the largest relative change (to there),
    or None when the text around the numbers differs too."""
    ours, theirs = NUMBER.split(here), NUMBER.split(there)
    if ours[::2] != theirs[::2]:  # no size to give
        return "the text around the numbers differs", None
    pairs = [(float(a), float(b))
             for a, b in zip(ours[1::2], theirs[1::2]) if a != b]
    largest = relative = 0.0
    for a, b in pairs:
        size = abs(a - b)
        if not size <= math.inf:  # a nan on either side, or inf - inf
            size = math.inf
        largest = max(largest, size)
        relative = max(relative, size / abs(b) if 0.0 < abs(b) < math.inf
                       else math.inf if size else 0.0)
    return (f"{len(pairs)} of {len(ours) // 2} numbers differ, largest "
            f"change {largest:.3g} absolute, {relative:.3g} relative",
            (largest, relative))


def differences(checkout: Path, workload: str, seed_list: list[int],
                rounds: int) -> list[str]:
    """Every operation whose output differs in CHECKOUT, as lines."""
    out = _run([str(SCRIPT), "--source", str(checkout), "--outcomes",
                "--workload", workload, "--seeds",
                ",".join(map(str, seed_list)), "--rounds", str(rounds)],
               checkout)
    theirs = [tuple(json.loads(line)) for line in out.splitlines()]
    ours = list(outcomes(workload, seed_list, rounds))
    lines = []
    count = unsized = 0
    largest = relative = 0.0
    for here, there in zip(ours, theirs):
        if here == there:
            continue
        count += 1
        seed, number, kind, params, output = here
        if here[:4] == there[:4]:
            size, sizes = change(output, there[4])
            shown = f"    there: {there[4]}"
        else:
            size, sizes = "another operation there", None
            shown = f"    there: {there}"
        if sizes is None:
            unsized += 1
        else:
            largest, relative = max(largest, sizes[0]), max(relative, sizes[1])
        lines += [f"{workload}: {'first' if count == 1 else 'next'} "
                  f"difference at seed {seed} round {number}, {kind} "
                  f"{params}: {size}",
                  f"    here:  {output}", shown]
    if len(ours) != len(theirs):
        lines.append(f"{workload}: {len(ours)} operations here, "
                     f"{len(theirs)} there")
    if not lines:
        return [f"{workload}: no operation differs on a rerun"]
    summary = f"{workload}: {count} of {len(ours)} operations differ"
    if count > unsized:
        summary += (f", largest change {largest:.3g} absolute, "
                    f"{relative:.3g} relative")
    if unsized:  # counted apart: a change of shape has no size
        summary += f"; {unsized} changed more than numbers, size unknown"
    return [summary, *lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"a perfbench workload, all of them, or "
                             f"{ROOTS}")
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
    if args.workload not in names + ("all", ROOTS):
        parser.error(f"--workload must be one of {names}, all or {ROOTS}")
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
            print("\n".join(differences(checkout, workload, args.seeds,
                                        args.rounds)), flush=True)
        verdicts.append(f"{workload}: {'match' if same else 'mismatch'} "
                        f"against {args.against}")
    # the verdicts come last, one line per workload
    print("\n".join(verdicts))
    return status


if __name__ == "__main__":
    sys.exit(main())
