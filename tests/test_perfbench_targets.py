"""The package names the benchmark's tracer rebinds must exist.

`perfbench/tracer.py` wraps entry points by name from outside the
package; a renamed or removed one silently drops the metrics built on it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _targets()])
def test_tracer_target_exists(module, attr):
    assert getattr(importlib.import_module(f"trimfem.{module}"), attr, None) is not None
