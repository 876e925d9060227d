"""The benchmark's tracer wraps package callables by name; a refactor that
renames or moves one must fail here, not in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.PATCHES


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _, _ in _patches()])
def test_patch_target_resolves(module, path):
    # Tracer.patch reads owner.__dict__[attr], so an inherited or missing
    # attribute would fail there
    owner = importlib.import_module(f"coupledmil.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = owner.__dict__[cls]
    assert attr in owner.__dict__, f"coupledmil.{module}.{path}"
