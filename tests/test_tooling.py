"""The benchmark tracer's hooks name real bindings in the package.

perfbench/tracing.py patches each (module, name) in its EXTERNALS on
aqsim.<module> by attribute name, so a binding that disappears from the
program breaks every traced benchmark run.  perfbench/run.py declares a
per-layer metric for each "layer.name" in its SPAN_METRICS, so each must
name a binding of aqsim.<layer> too.  Both tuples are read from the source
without importing or changing the benchmark.  The tracer also wraps
open_system.DensityMatrix.__post_init__ and the public
open_system.build_liouvillian by name.
"""

import ast
import importlib
import inspect
from pathlib import Path

from aqsim import open_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RUN = PERFBENCH / "run.py"


def _literal(path, name):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {path}")


def test_tracer_externals_are_bound_in_the_package():
    externals = _literal(TRACING, "EXTERNALS")
    assert externals
    for module, name in externals:
        assert hasattr(importlib.import_module(f"aqsim.{module}"), name), (
            f"aqsim.{module} no longer binds {name!r}, which {TRACING.name} patches")


def test_span_metrics_are_bound_in_the_package():
    spans = _literal(RUN, "SPAN_METRICS")
    assert spans
    for span in spans:
        module, name = span.split(".")
        assert hasattr(importlib.import_module(f"aqsim.{module}"), name), (
            f"aqsim.{module} no longer binds {name!r}, which {RUN.name} reports as a span")


def test_tracer_patch_targets_exist_in_open_system():
    # the tracer wraps DensityMatrix.__post_init__ by name, and it wraps
    # (and reads the generator size off) build_liouvillian because that is
    # a public function of the module
    assert inspect.isfunction(getattr(open_system.DensityMatrix, "__post_init__", None))
    build = getattr(open_system, "build_liouvillian", None)
    assert inspect.isfunction(build) and build.__module__ == open_system.__name__
