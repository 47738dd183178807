"""dxdy benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload poles --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; dxdy is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  See README.md for the workloads, metrics and reference
figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("poles", "verify", "session")

#: seconds one round takes on the reference host (see README); a run does
#: round(seconds / NOMINAL_ROUND_S) rounds, so its operation count is fixed
#: by --seconds alone and never by the speed of the code under test
NOMINAL_ROUND_S = {"poles": 5.5, "verify": 2.0, "session": 0.14}

#: the tail latency is the highest one with this many samples beyond it
TAIL_BEYOND = 10
#: fewest operations in a run, so the tail is a percentile above p90
MIN_OPS = 100

#: set-up (import, inputs, warm-up) is repeated and its median reported
SETUP_REPEATS = 5

#: operations that fail on every run because of a known fault, by input:
#: the order ladder at m = 9 and 12 falls back to m simple roots, and at
#: m = 13 splits the pole as orders [12, 1]
KNOWN_FAULTS = {("order", 9), ("order", 12), ("order", 13)}

DXDY_MODULES = ("algebra", "polynomials", "series", "exactmath", "roots",
                "expressions", "functions", "residues", "contours",
                "oracle", "checks", "cli")


def _import_dxdy() -> SimpleNamespace:
    """Import dxdy afresh; its submodules as attributes."""
    for name in [n for n in sys.modules if n == "dxdy" or n.startswith("dxdy.")]:
        del sys.modules[name]
    package = importlib.import_module("dxdy")
    if Path(package.__file__).resolve().parent != SRC / "dxdy":
        raise ImportError(f"dxdy imported from {package.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"dxdy.{name}")
                              for name in DXDY_MODULES})


def rounds_for(workload: str, seconds: float) -> int:
    per_round = len(inputs.ROUNDS[workload](random.Random(0)))
    return max(round(seconds / NOMINAL_ROUND_S[workload]),
               -(-MIN_OPS // per_round))


def setup(workload: str, seed: int, count: int):
    """Import dxdy, generate the inputs, run the warm-up pass."""
    intervals = []
    with hostspeed.Timeline() as timeline:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            workloads.bind(_import_dxdy())
            rounds = inputs.make_rounds(workload, seed, count)
            for op in inputs.WARMUPS[workload]():
                workloads.execute(op)
            intervals.append((start, time.perf_counter()))
    return rounds, statistics.median(timeline.normalized(intervals))


class Tally:
    """Time intervals and failures of the operations of a run."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.failures: list[tuple[object, str]] = []

    @property
    def correct(self) -> bool:
        return all((op.kind, op.params.get("m")) in KNOWN_FAULTS
                   for op, _ in self.failures)

    def run(self, rounds, execute=workloads.execute) -> None:
        """Execute and check every op, round by round."""
        for ops in rounds:
            gc.collect()
            for op in ops:
                start = time.perf_counter()
                try:
                    output = execute(op)
                except Exception as err:  # a failed op is counted, not fatal
                    output, miss = None, f"{type(err).__name__}: {err}"
                else:
                    miss = None
                self.intervals.append((start, time.perf_counter()))
                if miss is None:
                    miss = workloads.verify(op, output)
                if miss is not None:
                    self.failures.append((op, miss))


def end_to_end(rounds, setup_s: float) -> tuple[Tally, dict]:
    tally = Tally()
    with hostspeed.Timeline() as timeline:
        tally.run(rounds)
    lat = sorted(timeline.normalized(tally.intervals))
    tail = lat[-TAIL_BEYOND - 1]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    raw = timeline.raw(tally.intervals)
    probes = [end - start for start, end in timeline.probes]
    print(f"tail: p{100 * (1 - TAIL_BEYOND / len(lat)):.2f} of {len(lat)} "
          f"ops; wall: {len(raw) / sum(raw):.4g} ops/s; probe median "
          f"{statistics.median(probes) * 1e3:.4g} ms", file=sys.stderr)
    return tally, metrics


def traced(workload: str, seed: int, rounds) -> tuple[Tally, dict]:
    """Alternate an untraced reference round (its own inputs) with a traced
    round of the run's inputs; per-layer figures are per traced op."""
    reference = inputs.make_rounds(workload, seed, len(rounds), "reference")
    tracer = spans.Tracer()
    plain, tally = Tally(), Tally()
    with hostspeed.Timeline() as timeline:
        for ref_ops, ops in zip(reference, rounds):
            plain.run([ref_ops])
            tracer.install()
            try:
                tally.run([ops], lambda op: tracer.run_op(workloads.execute, op))
            finally:
                tracer.restore()
    traced_s = timeline.normalized(tally.intervals)
    plain_s = timeline.normalized(plain.intervals)
    factors = [n / r for n, r in zip(traced_s, timeline.raw(tally.intervals))]
    metrics = tracer.per_op(factors)
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(traced_s) / len(traced_s) / (sum(plain_s) / len(plain_s)) - 1.0)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return tally, {name: (value, spans.UNITS[name.rpartition(".")[2]])
                   for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dxdy" / "__init__.py").is_file():
        print(f"error: no dxdy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    count = rounds_for(args.workload, args.seconds)
    rounds, setup_s = setup(args.workload, args.seed, count)
    if args.trace:
        tally, metrics = traced(args.workload, args.seed, rounds)
    else:
        tally, metrics = end_to_end(rounds, setup_s)
    for op, miss in tally.failures:
        print(f"failed {op.kind} {op.params.get('m', '')}: {miss}",
              file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": len(tally.intervals),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
