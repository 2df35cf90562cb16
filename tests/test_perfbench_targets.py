"""The package names the benchmark's tracer rebinds must exist.

`perfbench/tracer.py` wraps entry points by name from outside the
package; a renamed or removed one silently drops the metrics built on it,
and a name a module imports but never looks up is rebound to no effect.
"""

import ast
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


def _tree(module):
    return ast.parse(Path(importlib.import_module(f"trimfem.{module}").__file__).read_text())


def _imported(module):
    """Names that a module's import statements bind."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(_tree(module)) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


@pytest.mark.parametrize("module, attr",
                         [(m, a) for m, a, _ in _targets() if a in _imported(m)])
def test_imported_tracer_target_is_used(module, attr):
    # an import binds aliases, never Name nodes, so any Name is a use
    assert any(isinstance(node, ast.Name) and node.id == attr
               for node in ast.walk(_tree(module))), (
        f"trimfem.{module} imports {attr} but never uses it")
