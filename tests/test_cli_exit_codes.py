"""Every CLI run ends in a documented exit code, for the reason it names.

cli.main is driven over small generated configs of all five commands:
networks dimer.net and fmo7.net, L and N up to 3, up to 40 shots, 6
segments and 3 frequencies, with extreme finite numbers (5e-324, 1e-300,
1e300, 1.79e308) and grid ends one ulp apart mixed into the values.  Each
run returns 0, 2, 3 or 4 and raises nothing; exit 4 comes only from a type
of the exit table's invariant row; and a run that succeeds reruns to the
same bytes.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import aqsim.cli
from aqsim.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK, main

from conftest import DATA_DIR

EXTREMES = [5e-324, 1e-300, 1e300, 1.79e308]
INVARIANT_TYPES = next(types for types, code, _ in aqsim.cli._EXIT_CODES
                       if code == EXIT_INVARIANT)
NETWORKS = {"dimer.net": 2, "fmo7.net": 7}


def number(lo, hi):
    """A float in [lo, hi], or one of the extremes."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(EXTREMES))


@st.composite
def grid(draw, name, lo, hi, max_steps, min_steps=2):
    """<name>_min, _max and _steps lines; the ends may be one ulp apart."""
    start, stop = sorted([draw(number(lo, hi)), draw(number(lo, hi))])
    if draw(st.booleans()):
        stop = math.nextafter(start, math.inf)
    steps = draw(st.integers(min_steps, max_steps))
    return [(f"{name}_min", start), (f"{name}_max", stop), (f"{name}_steps", steps)]


def optional(key, values):
    return st.one_of(st.just([]), values.map(lambda value: [(key, value)]))


def given_as(key, values):
    return values.map(lambda value: [(key, value)])


@st.composite
def network(draw, *site_keys):
    """A network line, and a site index line (one past the end at most)
    for each of site_keys."""
    name = draw(st.sampled_from(sorted(NETWORKS)))
    return [("network", DATA_DIR / name)] + [
        (key, draw(st.integers(0, NETWORKS[name]))) for key in site_keys]


def lines(command, *parts):
    """Config text from lists of (key, value) pairs."""
    return st.tuples(*parts).map(lambda groups: "\n".join(
        [f"command {command}", "output out.csv"]
        + [f"{key} {value!r}" if isinstance(value, float) else f"{key} {value}"
           for group in groups for key, value in group]) + "\n")


SEED = given_as("seed", st.integers(-3, 2 ** 64))
# L sites as a chain or as a plaquette of rows x cols
LATTICE = st.one_of(
    st.integers(1, 3).map(lambda n: [("L", n)]),
    st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1)]).map(lambda shape: [
        ("L", shape[0] * shape[1]), ("geometry", "plaquette"),
        ("rows", shape[0]), ("cols", shape[1])]))
SWEEP = lines("enaqt-sweep", network("source", "sink"),
              given_as("trap_rate", number(0.1, 10.0)),
              optional("recombination_rate", number(0.0, 1.0)),
              grid("gamma", 1e-3, 1e3, 4),
              optional("t_max", number(1.0, 300.0)),
              optional("tol", number(1e-10, 1e-3)),
              optional("disorder_sigma", number(0.0, 2.0)), SEED)
WALK = lines("walk", network("input_mode"),
             st.one_of(given_as("time", number(0.0, 50.0)),
                       st.tuples(number(0.0, 1e-6), number(1.0, 2.0)).map(
                           lambda zn: [("length", zn[0]), ("n_index", zn[1])])),
             optional("phase_sigma", number(0.0, 2.0)),
             given_as("n_segments", st.integers(1, 6)),
             given_as("shots", st.integers(1, 40)), SEED)
SPECTRUM = lines("bh-spectrum", LATTICE,
                 given_as("N", st.integers(0, 3)),
                 given_as("J", number(0.0, 2.0)),
                 given_as("U", number(0.0, 2.0)),
                 given_as("delta", number(0.0, 0.1)),
                 grid("nu", 0.0, 2.0, 3, min_steps=1),
                 given_as("t_drive", number(0.1, 5.0)),
                 optional("tol", number(1e-9, 1e-6)))
SCAN = lines("bh-scan", LATTICE.filter(lambda pairs: pairs[0][1] >= 2),
             given_as("N", st.integers(2, 3)),
             optional("U", number(0.1, 10.0)),
             grid("j", 1e-3, 1.0, 3),
             optional("k", st.integers(2, 10)))
VALIDATE = lines("validate",
                 given_as("network_a", st.sampled_from(["dimer.net", "fmo7.net"]).map(
                     lambda name: DATA_DIR / name)),
                 given_as("network_b", st.sampled_from(["fmo7.net", "wg7.net"]).map(
                     lambda name: DATA_DIR / name)),
                 st.just([("mapping", DATA_DIR / "fmo_to_wg.map")]),
                 given_as("tolerance", number(1e-14, 1.0)),
                 optional("role", st.sampled_from(["simulation", "emulation"])),
                 *(given_as(key, st.sampled_from(["true", "false"]))
                   for key in ("hardness_proof", "efficient_classical_known",
                               "scalable_accuracy")))


def run_cli(config: Path):
    """(exit code, type raised by cli.run or None) of one quiet CLI run."""
    raised = []
    run = aqsim.cli.run

    def recording(parsed):
        try:
            return run(parsed)
        except Exception as exc:
            raised.append(type(exc))
            raise

    quiet = io.StringIO()
    with mock.patch.object(aqsim.cli, "run", recording), \
            contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        code = main([config.read_text().split()[1], str(config)])
    return code, (raised or [None])[0]


def outputs(folder: Path) -> dict:
    return {p.name: p.read_bytes() for p in folder.iterdir() if p.name != "run.cfg"}


# a drive frequency below 1/t_drive is a documented warning, not a failure
@pytest.mark.filterwarnings("ignore:drive frequencies below 1/t_drive:UserWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(SWEEP, WALK, SPECTRUM, SCAN, VALIDATE))
@example(f"command enaqt-sweep\nnetwork {DATA_DIR}/dimer.net\nsource 0\nsink 1\n"
         "trap_rate 1.0\ngamma_min 1.0\ngamma_max 1.0000000000000002\n"
         "gamma_steps 3\noutput out.csv\n")
@example("command bh-spectrum\nL 2\nN 2\nJ 1.0\nU 1.0\ndelta 0.03\nnu_min 0.5\n"
         "nu_max 0.5000000000000001\nnu_steps 3\nt_drive 10.0\noutput out.csv\n")
# steps far beyond eps ||G dt||_1 = 1e-10: the trace holds without
# recombination (exit 0) and drifts, within the step's rounding, with it (3)
@example(f"command enaqt-sweep\nnetwork {DATA_DIR}/dimer.net\nsource 0\nsink 1\n"
         "trap_rate 1e20\ngamma_min 0.1\ngamma_max 10.0\ngamma_steps 5\n"
         "t_max 300.0\noutput out.csv\n")
@example(f"command enaqt-sweep\nnetwork {DATA_DIR}/dimer.net\nsource 0\nsink 1\n"
         "trap_rate 1e20\nrecombination_rate 1e-3\ngamma_min 0.1\ngamma_max 10.0\n"
         "gamma_steps 5\nt_max 300.0\noutput out.csv\n")
@example("command bh-scan\nL 3\nN 3\nj_min 0.1\nj_max 0.10000000000000002\n"
         "j_steps 3\noutput out.csv\n")
@example(f"command walk\nnetwork {DATA_DIR}/dimer.net\ninput_mode 0\n"
         "length 1e300\nn_index 1e300\noutput out.csv\n")
@example("command bh-spectrum\nL 2\nN 2\nJ 1.0\nU 1.0\ndelta 0.03\nnu_min 0.5\n"
         "nu_max 0.8\nnu_steps 3\nt_drive 1e300\noutput out.csv\n")
# eigenstates whose integrator norm drift once read as negative absorption
@example("command bh-spectrum\nL 1\nN 3\nJ 1.5\nU 0.9336\ndelta 0.05\nnu_min 1.5\n"
         "nu_max 2.0\nnu_steps 2\nt_drive 1.5\ntol 1e-05\noutput out.csv\n")
@example("command bh-spectrum\nL 1\nN 6\nJ 0.0\nU 5.0\ndelta 0.05\nnu_min 1.5\n"
         "nu_max 2.0\nnu_steps 2\nt_drive 1.5\noutput out.csv\n")
def test_every_run_ends_in_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as folder:
        config = Path(folder) / "run.cfg"
        config.write_text(text)
        code, raised = run_cli(config)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INVARIANT)
        if code == EXIT_INVARIANT:
            assert raised is not None and issubclass(raised, INVARIANT_TYPES), raised
        if code != EXIT_OK:
            assert outputs(config.parent) == {}
            return
        first = outputs(config.parent)
        assert run_cli(config) == (EXIT_OK, None)
        assert outputs(config.parent) == first
