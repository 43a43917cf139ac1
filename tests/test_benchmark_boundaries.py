"""Every function the benchmark wraps exists.

``perfbench/spans.py`` lists the pipeline and per-layer boundaries it
times. A boundary whose function is gone is reported as missing and its
metric as null, so renaming or deleting one of these functions must
first retire its boundary there. The lists are read, not copied, so this
test follows whatever the benchmark wraps.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_the_benchmark_wraps_boundaries():
    assert spans.PIPELINE and spans.LAYERS


@pytest.mark.parametrize("boundary", spans.PIPELINE + spans.LAYERS, ids=lambda b: b.name)
def test_boundary_resolves(boundary):
    function = getattr(importlib.import_module(boundary.module), boundary.function)
    assert callable(function)
