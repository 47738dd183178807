"""The traced benchmark's tables name functions that dxdy defines.

``perfbench/spans.py`` looks each traced function and each sampler factory
up by name when it installs its tracer, so a renamed or removed function
breaks ``perfbench/run.py --trace 1``; these tests read those tables only.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _spans():
    """perfbench/spans.py, loaded without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("layer, module, names", SPANS.LAYERS,
                         ids=[layer for layer, _, _ in SPANS.LAYERS])
def test_every_traced_layer_resolves(layer, module, names):
    found = importlib.import_module(f"{SPANS.PACKAGE}.{module}")
    if names is None:  # every public function of the module
        assert SPANS._public_functions(found), layer
    for name in names or ():
        assert inspect.isfunction(getattr(found, name, None)), (layer, name)


@pytest.mark.parametrize("layer, name", SPANS.SAMPLERS,
                         ids=[name for _, name in SPANS.SAMPLERS])
def test_every_sampler_factory_resolves(layer, name):
    oracle = importlib.import_module(f"{SPANS.PACKAGE}.oracle")
    assert inspect.isfunction(getattr(oracle, name, None)), name
    assert layer in [traced for traced, _, _ in SPANS.LAYERS]
