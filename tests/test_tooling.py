"""The benchmark tracer's hooks name real bindings in the package.

perfbench/tracing.py patches each (module, name) in its EXTERNALS on
aqsim.<module> by attribute name, so a binding that disappears from the
program breaks every traced benchmark run.  perfbench/run.py declares a
per-layer metric for each "layer.name" in its SPAN_METRICS, so each must
name a binding of aqsim.<layer> too.  Both tuples are read from the source
without importing or changing the benchmark.  The tracer also wraps
open_system.DensityMatrix.__post_init__ and the public
open_system.build_liouvillian by name.  It wraps every public function of
its LAYERS as a span, and the benchmark's self-check fails on a span that
SPAN_METRICS does not declare, so a helper the CLI reaches must be private
or declared.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aqsim
from aqsim import cli, open_system

from conftest import DATA_DIR, detuned_dimer

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


def _package_imports(module: str) -> set:
    """The aqsim modules that aqsim.<module> imports anywhere in its source."""
    source = Path(aqsim.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "aqsim")
        elif isinstance(node, ast.ImportFrom):
            base = (".".join(filter(None, ("aqsim", node.module))) if node.level
                    else node.module)
            if base == "aqsim":
                found.update(f"aqsim.{a.name}" for a in node.names)
            elif base.split(".")[0] == "aqsim":
                found.add(base)
    return found


@pytest.mark.parametrize("module, imports", [
    ("hamiltonians", set()),
    *((engine, {"aqsim.hamiltonians"})
      for engine in ("walk", "bose_hubbard", "open_system", "validation", "netfiles")),
])
def test_engines_import_only_hamiltonians_from_the_package(module, imports):
    # the shared failure types and precision bound live in hamiltonians, so
    # no engine imports another for them
    assert _package_imports(module) == imports


def test_cli_builds_no_hamiltonians():
    # bh-scan's sector projection and J loop live in the engine: the CLI
    # takes from bose_hubbard only its config types, failures, entry points
    # and the drive's tol floor, and no scipy at all
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {alias.name for node in imports
             if isinstance(node, ast.ImportFrom) and node.module == "bose_hubbard"
             for alias in node.names}
    assert names == {"BasisSizeError", "BoseHubbardParams", "DriveCouplingError",
                     "enumerate_basis", "modulation_absorption", "_gap_scan",
                     "_MIN_DRIVE_TOL"}
    modules = [node.module if isinstance(node, ast.ImportFrom) else alias.name
               for node in imports for alias in node.names]
    assert not [m for m in modules if m and m.split(".")[0] == "scipy"]


def test_engine_failures_derive_from_the_exit_table_row_types():
    # the exit table names one type per row of the engines' failures
    assert issubclass(aqsim.NegativeAbsorptionError, aqsim.StateInvariantError)
    assert issubclass(aqsim.EigenConvergenceError, np.linalg.LinAlgError)
    assert aqsim.StateInvariantError is open_system.StateInvariantError
    assert cli._EXIT_CODES[1][0] == (np.linalg.LinAlgError,)
    assert cli._EXIT_CODES[2][0] == (aqsim.StateInvariantError, aqsim.ReportRoleError)


# Runs in a fresh interpreter on the checkout's src: imports aqsim's CLI,
# runs cli.main on the arguments if any, and prints the exit code and every
# scipy or concurrent module loaded by then as its last line.
SCIPY_PROBE = """
import sys
from aqsim import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
print(code, *sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent")))
"""


def _fresh_scipy_footprint(*args, cwd=None):
    """(exit code or "None", loaded scipy and concurrent modules, stderr) of
    SCIPY_PROBE."""
    src = str(Path(aqsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *args], env=env, cwd=cwd,
                         check=True, capture_output=True, text=True)
    code, *loaded = run.stdout.splitlines()[-1].split()
    return code, set(loaded), run.stderr


def test_import_leaves_the_ode_integrator_unloaded():
    # importing the package and its CLI loads numpy only: each engine
    # imports the scipy it calls on first use, and only bh-spectrum's drive
    # integrates an ODE; the walk ensemble imports its thread pool
    # (concurrent.futures) on first use too
    assert _fresh_scipy_footprint() == ("None", set(), "")
    # the tracer's open_system.solve_ivp hook still resolves, on first use
    import scipy.integrate
    assert open_system.solve_ivp is scipy.integrate.solve_ivp
    with pytest.raises(AttributeError, match="no attribute 'not_a_binding'"):
        open_system.not_a_binding


def test_scipy_seams_resolve_to_scipy_on_first_access():
    # low_spectrum calls eigsh as a module attribute, which a test and the
    # tracer patch; transport imports expm where it calls it, and binds none
    import scipy.sparse.linalg
    from aqsim import bose_hubbard
    assert bose_hubbard.eigsh is scipy.sparse.linalg.eigsh
    aqsim.goldilocks_sweep(*detuned_dimer(), [1.0], t_max=30.0)
    for module, name in ((open_system, "not_a_binding"), (bose_hubbard, "not_a_binding"),
                         (bose_hubbard, "solve_ivp"), (open_system, "expm")):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(module, name)


def test_lanczos_stops_at_a_tolerance_under_the_residual_check(monkeypatch):
    # a positive ARPACK tol, so Lanczos stops short of machine precision,
    # and at least 10x under the RESIDUAL_TOL * ||H|| checked afterwards
    import scipy.sparse as sp
    import scipy.sparse.linalg
    from aqsim import bose_hubbard
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return scipy.sparse.linalg.eigsh(*args, **kwargs)

    monkeypatch.setattr(bose_hubbard, "eigsh", recording)
    h = sp.diags(np.arange(500.0)).tocsr()  # over the dense limit: Lanczos path
    bose_hubbard.low_spectrum(h, 3)
    (kwargs,) = calls
    assert 0 < kwargs.get("tol", 0) <= bose_hubbard.RESIDUAL_TOL / 10


@pytest.mark.parametrize("command, change, want_code, loads, skips", [
    ("walk", None, "0", ("concurrent.futures",), ("scipy",)),
    ("validate", None, "0", (), ("scipy",)),
    ("enaqt-sweep", None, "0", ("scipy.linalg",), ("scipy.sparse", "scipy.integrate")),
    # 3 sites, 3 bosons: a dense eigensolve, so ARPACK may stay unloaded
    ("bh-scan", None, "0", ("scipy.sparse",), ("scipy.integrate",)),
    # refused by FockBasis, before any matrix is built
    ("bh-scan", ("L 3\nN 3\n", "L 200000\nN 1\n"), "2", (), ("scipy",)),
], ids=["walk", "validate", "enaqt-sweep", "bh-scan", "bh-scan-config-error"])
def test_commands_load_only_the_scipy_they_call(tmp_path, command, change, want_code,
                                                loads, skips):
    text = f"command {command}\n{COMMAND_CONFIGS[command]}output out\n"
    if change is not None:
        assert change[0] in text
        text = text.replace(*change)
    (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
    code, loaded, err = _fresh_scipy_footprint(command, "run.cfg", cwd=tmp_path)
    assert code == want_code, err
    assert set(loads) <= loaded
    assert not {m for m in loaded for top in skips if m == top or m.startswith(top + ".")}


def _public_layer_functions():
    """Code object -> "layer.name" of every function the tracer wraps as a span."""
    names = {}
    for layer in _literal(TRACING, "LAYERS"):
        module = importlib.import_module(f"aqsim.{layer}")
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")):
                names[fn.__code__] = f"{layer}.{attr}"
    return names


COMMAND_CONFIGS = {
    "enaqt-sweep": f"""network {DATA_DIR}/dimer.net
source 0
sink 1
trap_rate 1.0
recombination_rate 0.05
gamma_min 0.1
gamma_max 1.0
gamma_steps 3
t_max 20.0
disorder_sigma 0.5
seed 3
""",
    "walk": f"""network {DATA_DIR}/fmo7.net
input_mode 0
time 1.0
phase_sigma 0.3
n_segments 4
shots 20
seed 1
""",
    "bh-scan": """L 3
N 3
j_min 0.02
j_max 0.2
j_steps 2
k 4
""",
    "validate": f"""network_a {DATA_DIR}/wg7.net
network_b {DATA_DIR}/fmo7.net
mapping {DATA_DIR}/fmo_to_wg.map
tolerance 1e-12
role simulation
hardness_proof false
efficient_classical_known false
scalable_accuracy false
""",
}


@pytest.mark.parametrize("command", ["enaqt-sweep", "walk", "bh-scan"])
def test_layer_functions_a_command_calls_are_declared_spans(tmp_path, command):
    public = _public_layer_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in public:
            called.add(public[frame.f_code])

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command {command}\n{COMMAND_CONFIGS[command]}output out.csv\n",
                   encoding="utf-8")
    sys.setprofile(profile)
    try:
        code = cli.main([command, str(cfg)])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert "cli.main" in called
    undeclared = called - set(_literal(RUN, "SPAN_METRICS"))
    assert not undeclared, f"{command} calls undeclared public functions {sorted(undeclared)}"
