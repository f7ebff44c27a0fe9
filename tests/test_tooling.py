"""The benchmark tracer's hooks name real bindings in the package.

perfbench/tracing.py patches each (module, name) in its EXTERNALS on
aqsim.<module> by attribute name, so a binding that disappears from the
program breaks every traced benchmark run.  The tuple is read from the
source without importing or changing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _externals():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "EXTERNALS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no EXTERNALS assignment in {TRACING}")


def test_tracer_externals_are_bound_in_the_package():
    externals = _externals()
    assert externals
    for module, name in externals:
        assert hasattr(importlib.import_module(f"aqsim.{module}"), name), (
            f"aqsim.{module} no longer binds {name!r}, which {TRACING.name} patches")
