"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function of dxdy wherever a
caller looks it up (the defining module and every dxdy module that
imported the name, e.g. ``dxdy.functions.find_roots``) with a wrapper that
records a span; ``restore`` puts the originals back.  Spans stay in memory
as (op, parent, layer, start_ns, end_ns) and are written out once, at the
end.  A layer's self time is its span minus the spans of its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

#: (layer, module, function names); ``None`` means every public function
#: the module defines
LAYERS = (
    ("expressions.parse", "expressions", ("parse",)),
    ("cli.main", "cli", ("main",)),
    ("functions.to_meromorphic", "functions", ("to_meromorphic",)),
    ("functions.normalize_rational", "functions", ("normalize_rational",)),
    ("roots.find_roots", "roots", ("find_roots",)),
    ("functions.find_poles", "functions", ("find_poles",)),
    ("exactmath", "exactmath", None),
    ("functions.local_expansion", "functions", ("local_expansion",)),
    ("series", "series", None),
    ("residues.residue", "residues", ("residue",)),
    ("residues.order_reduction", "residues", ("residue_by_order_reduction",)),
    ("residues.derivative_formula", "residues",
     ("residue_by_derivative_formula",)),
    ("residues.laurent_expand", "residues", ("laurent_expand",)),
    ("residues.cauchy", "residues",
     ("cauchy_evaluate", "cauchy_derivative", "cauchy_integral_value")),
    ("contours.integrate_closed", "contours", ("integrate_closed",)),
    ("contours.integrate_real_line", "contours", ("integrate_real_line",)),
    ("oracle.quad_circle", "oracle", ("quad_circle",)),
    ("oracle.real_line_quadrature", "oracle", ("real_line_quadrature",)),
    ("oracle.differential_check", "oracle", ("differential_check",)),
)

#: integrand factories whose returned callables are counted as samples of
#: the named layer
SAMPLERS = (
    ("oracle.quad_circle", "one_form_components"),
    ("oracle.quad_circle", "dual_form_components"),
    ("oracle.real_line_quadrature", "axis_evaluator"),
)

#: unit of each kind of per-layer metric, by the last part of its name
UNITS = {"calls": "count", "self_ms": "ms", "degree_sum": "count",
         "repeat_calls": "count", "samples": "count", "overhead_pct": "%"}

PACKAGE = "dxdy"
FIND_ROOTS = "roots.find_roots"
OP = "op"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, _, _ in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms"]
        if layer == FIND_ROOTS:
            names += [f"{layer}.degree_sum", f"{layer}.repeat_calls"]
        if any(layer == target for target, _ in SAMPLERS):
            names.append(f"{layer}.samples")
    return names + ["trace.overhead_pct"]


def _public_functions(module) -> list[str]:
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and not name.startswith("_")
            and value.__module__ == module.__name__]


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._rooted: set[tuple] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, layer: str) -> int:
        self.counts[f"{layer}.calls"] += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _leave(self, index: int, layer: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (self.op, parent, layer, start, end)

    def span(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(layer)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(index, layer, start)
        return traced

    def run_op(self, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op += 1
        self._rooted.clear()
        return self.span(OP, fn)(*args)

    # -- layer-specific counters ----------------------------------------------

    def _find_roots(self, fn):
        traced = self.span(FIND_ROOTS, fn)

        @functools.wraps(fn)
        def counted(coeffs, *args, **kwargs):
            key = tuple(coeffs)
            while key and key[-1] == 0:
                key = key[:-1]
            self.counts[f"{FIND_ROOTS}.degree_sum"] += max(len(key) - 1, 0)
            if key in self._rooted:
                self.counts[f"{FIND_ROOTS}.repeat_calls"] += 1
            self._rooted.add(key)
            return traced(coeffs, *args, **kwargs)
        return counted

    def _sampler(self, layer: str, factory):
        name = f"{layer}.samples"

        def count(fn):
            def sample(*args):
                self.counts[name] += 1
                return fn(*args)
            return sample

        @functools.wraps(factory)
        def counting_factory(f):
            made = factory(f)
            if isinstance(made, tuple):
                return tuple(count(fn) for fn in made)
            return count(made)
        return counting_factory

    # -- install / restore ----------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Rebind ``original`` in every loaded module of the package."""
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for layer, module_name, names in LAYERS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for name in names or _public_functions(module):
                original = getattr(module, name)
                wrapper = (self._find_roots(original) if layer == FIND_ROOTS
                           else self.span(layer, original))
                self._replace(original, wrapper)
        oracle = sys.modules[f"{PACKAGE}.oracle"]
        for layer, name in SAMPLERS:
            original = getattr(oracle, name)
            self._replace(original, self._sampler(layer, original))

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def self_ns(self, factors: list[float]) -> Counter[str]:
        """Total self time per layer: span minus the spans of its children,
        each op's spans scaled by that op's host-speed factor."""
        children: Counter[int] = Counter()
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Counter[str] = Counter()
        for index, (op, _, layer, start, end) in enumerate(self.spans):
            totals[layer] += (end - start - children[index]) * factors[op]
        return totals

    def per_op(self, factors: list[float]) -> dict[str, float]:
        """Every per-layer metric except the overhead, averaged per op;
        ``factors`` holds one host-speed factor per traced op."""
        ops = len(factors)
        self_ns = self.self_ns(factors)
        out = {}
        for name in metric_names()[:-1]:
            layer, _, kind = name.rpartition(".")
            if kind == "self_ms":
                out[name] = self_ns[layer] / 1e6 / ops
            else:
                out[name] = self.counts[name] / ops
        return out

    def write(self, path) -> None:
        """The spans as JSON lines: [op, parent, layer, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
