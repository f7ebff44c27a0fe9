import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aqsim
from aqsim import cli, walk
from aqsim.bose_hubbard import (BasisSizeError, BoseHubbardParams,
                                DriveCouplingError, EigenConvergenceError, FockBasis,
                                NegativeAbsorptionError, enumerate_basis)
from aqsim.cli import ConfigError, config_hash, main, parse_config
from aqsim.netfiles import NetfileError
from aqsim.open_system import StateInvariantError
from aqsim.validation import ReportRoleError

from oracles import scan_point_by_lookup
from test_bose_hubbard import recording_solves
from test_open_system import DIMER_ETA_ORACLE, DIMER_GAMMA_GRID


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def sweep_config(data_dir, output="sweep.csv", tol="1e-9"):
    return f"""# detuned dimer sweep fixture
command enaqt-sweep
network {data_dir}/dimer.net
source 0
sink 1
trap_rate 1.0
recombination_rate 0.05
gamma_min 0.01
gamma_max 100.0
gamma_steps 9
t_max 300.0
tol {tol}
output {output}
"""


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_parse_minimal_walk_config_fills_defaults(tmp_path, data_dir):
    cfg = parse_config(
        f"command walk\nnetwork {data_dir}/dimer.net\ninput_mode 0\n"
        "time 1.0\nseed -1\noutput out.csv\n", base_dir=tmp_path)
    assert cfg.command == "walk"
    assert cfg.values["phase_sigma"] == 0.0  # documented default
    assert cfg.values["seed"] == -1  # walk seeds wrap modulo 2**64


def test_parse_unknown_key_names_key_and_line(tmp_path, data_dir):
    text = (f"command enaqt-sweep\nnetwork {data_dir}/dimer.net\nsource 0\n"
            "sink 1\ntrap_rate 1.0\ngamma_min 0.1\ngamma_max 1.0\n"
            "gamma_steps 3\ngamm 0.5\noutput o.csv\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    assert any("line 9" in v and "'gamm'" in v for v in err.value.violations)


def test_parse_descending_grid(tmp_path, data_dir):
    text = (f"command bh-spectrum\nL 2\nN 2\nJ 1.0\nU 1.0\ndelta 0.03\n"
            "nu_min 2.0\nnu_max 1.0\nnu_steps 5\nt_drive 10.0\noutput o.csv\n")
    with pytest.raises(ConfigError, match="grid must ascend"):
        parse_config(text, base_dir=tmp_path)


@pytest.mark.parametrize("command, text, line, name", [
    ("enaqt-sweep", "network {data}/dimer.net\nsource 0\nsink 1\ntrap_rate 1.0\n"
     "gamma_min 1.0\ngamma_max 1.0000000000000002\ngamma_steps 3\n", 9, "gamma"),
    ("bh-spectrum", "L 2\nN 2\nJ 1.0\nU 1.0\ndelta 0.03\nnu_min 0.5\n"
     "nu_max 0.5000000000000001\nnu_steps 3\nt_drive 10.0\n", 10, "nu"),
    ("bh-scan", "L 3\nN 3\nj_min 0.1\nj_max 0.10000000000000002\nj_steps 3\n",
     7, "j"),
])
def test_colliding_grid_points_are_a_config_error(tmp_path, data_dir, capsys, command,
                                                  text, line, name):
    # ends one ulp apart leave room for two of the three points at most
    cfg = write_config(tmp_path, "grid.cfg", f"command {command}\noutput out.csv\n"
                       + text.format(data=data_dir))
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {line}: {name}_steps 3 puts two grid points at the same "
        f"value between {name}_min and {name}_max\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.cfg"]


@pytest.mark.parametrize("command, text, message", [
    ("walk", "network {data}/dimer.net\ninput_mode 0\nlength 1e300\nn_index 1e300\n",
     "line 5: length 1e+300 at n_index 1e+300 overflows the evolution time"),
    ("bh-spectrum", "L 2\nN 2\nJ 1e300\nU 1.0\ndelta 0.03\nnu_min 0.5\n"
     "nu_max 0.8\nnu_steps 3\nt_drive 10.0\n",
     "line 5: J 1e+300 lets ||H|| reach 3.2e+301 at N 2, above 1e+100"),
    ("bh-scan", "L 3\nN 3\nU 1.79e308\nj_min 0.02\nj_max 0.2\nj_steps 3\n",
     "line 5: U 1.79e+308 lets ||H|| reach inf at N 3, above 1e+100"),
    ("bh-scan", "L 3\nN 3\nj_min 0.02\nj_max 1e300\nj_steps 3\n",
     "line 6: j_max 1e+300 lets ||H|| reach 7.2e+301 at N 3, above 1e+100"),
    ("bh-spectrum", "L 2\nN 2\nJ 1.0\nU 1.0\ndelta 0.03\nnu_min 0.5\nnu_max 0.8\n"
     "nu_steps 3\nt_drive 1.79e308\ntol 5e-324\n",
     "line 11: t_drive must lie in (0, 1e+300]\n"
     "error: line 12: tol must be >= 2.220446049250313e-14"),
    ("bh-scan", "L 3\nN 3\nU 5e-324\nj_min 5e-324\nj_max 0.2\nj_steps 3\n",
     "the drive annihilates the ground state to double precision: "
     "no state is drive-coupled"),
])
def test_overflowing_and_vanishing_values_are_config_errors(tmp_path, data_dir, capsys,
                                                            command, text, message):
    # values whose arithmetic overflows or vanishes are refused where they
    # enter, on their own line where one key is to blame
    cfg = write_config(tmp_path, "run.cfg", f"command {command}\noutput out.csv\n"
                       + text.format(data=data_dir))
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("extra, message", [
    ("gamma_max 1.79e308", "step matrix of grid point 1 (dephasing rates up to "
     "4.23084e+153, trap_rate 1) has non-finite entries"),
    ("gamma_max 10.0\nt_max 1.79e308", "step matrix of grid point 0 (dephasing "
     "rates up to 0.1, trap_rate 1) has non-finite entries"),
    ("gamma_max 10.0\ndisorder_sigma 1.79e308\nseed 3",
     "disorder of width 1.79e+308 overflows the on-site energies"),
])
def test_sweep_values_that_overflow_are_numerical_failures(tmp_path, data_dir, capsys,
                                                           extra, message):
    # an overflowed generator fails the step matrix's finite test, and an
    # overflowed disorder draw is refused before any step
    cfg = write_config(tmp_path, "sweep.cfg", f"""command enaqt-sweep
network {data_dir}/dimer.net
source 0
sink 1
trap_rate 1.0
gamma_min 0.1
gamma_steps 3
{extra}
output sweep.csv
""")
    assert main(["enaqt-sweep", str(cfg)]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


def test_drive_beyond_the_phase_precision_is_refused_before_any_solve(
        tmp_path, monkeypatch, capsys):
    # the bound is checked before the eigensolve and every integration
    import scipy.integrate

    def integrating(*args, **kwargs):
        raise AssertionError("the drive was integrated")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", integrating)
    text = spectrum_config(tmp_path).read_text().replace("t_drive 40.0", "t_drive 1e300")
    cfg = write_config(tmp_path, "bh.cfg", text)
    assert main(["bh-spectrum", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: eps * (||H|| + 2 pi nu_max) * t_drive = 1.751e+285 "
        "exceeds 1e-10: the drive phases carry too few significant bits\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bh.cfg"]


def test_parse_rejects_non_finite_floats(tmp_path, data_dir):
    # every float key: inf or nan would otherwise reach the engines
    text = sweep_config(data_dir).replace("trap_rate 1.0", "trap_rate inf")
    text = text.replace("gamma_max 100.0", "gamma_max nan")
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    assert "line 6: trap_rate: must be finite" in err.value.violations
    assert "line 9: gamma_max: must be finite" in err.value.violations


def test_numbers_must_be_ascii_decimal_literals(tmp_path, capsys):
    # int() and float() alone would read these as 10, 3 and 10.0
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("command bh-scan\nL 1_0\nN \u0663\nj_min inf\nj_max 1_0\n"
                   "j_steps 3\noutput scan.csv\n", encoding="utf-8")
    assert main(["bh-scan", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: line 2: L: not an ASCII decimal number: '1_0'",
        "error: line 3: N: not an ASCII decimal number: '\u0663'",
        "error: line 4: j_min: must be finite",
        "error: line 5: j_max: not an ASCII decimal number: '1_0'",
    ]
    assert not (tmp_path / "scan.csv").exists()


def test_parse_rejects_words_outside_their_choices(tmp_path):
    for text, violation in [("command bh-scan\ngeometry ring\n",
                             "line 2: geometry must be chain or plaquette"),
                            ("command validate\nrole observer\n",
                             "line 2: role must be simulation or emulation")]:
        with pytest.raises(ConfigError) as err:
            parse_config(text, base_dir=tmp_path)
        assert violation in err.value.violations


def test_parse_collects_all_violations(tmp_path):
    text = ("command enaqt-sweep\nnetwork missing.net\nsource -1\n"
            "trap_rate 0.0\ngamma_min 1.0\ngamma_max 0.1\ngamma_steps 1\n"
            "bogus 3\nseed -1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    text_all = "\n".join(err.value.violations)
    for fragment in ("bogus", "source", "trap_rate", "gamma_steps",
                     "grid must ascend", "not found", "missing required key 'sink'",
                     "missing required key 'output'",
                     "line 9: seed must be non-negative"):
        assert fragment in text_all, fragment
    # a key given with a bad value is reported once, not also as missing
    assert "missing required key 'source'" not in text_all


def test_parse_seed_required_for_stochastic_runs(tmp_path, data_dir):
    text = (f"command walk\nnetwork {data_dir}/dimer.net\ninput_mode 0\n"
            "time 1.0\nphase_sigma 0.5\nn_segments 10\nshots 100\noutput o.csv\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(text, base_dir=tmp_path)


def test_parse_time_xor_length(tmp_path, data_dir):
    base = f"command walk\nnetwork {data_dir}/dimer.net\ninput_mode 0\noutput o.csv\n"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(base + "time 1.0\nlength 0.01\nn_index 1.5\n", base_dir=tmp_path)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(base, base_dir=tmp_path)
    with pytest.raises(ConfigError, match="n_index"):
        parse_config(base + "length 0.01\n", base_dir=tmp_path)


SPECTRUM_KEYS = ("command bh-spectrum\nL 2\nN 2\nJ 1.0\nU 1.0\ndelta 0.03\n"
                 "nu_min 0.5\nnu_max 0.8\nnu_steps 3\nt_drive 10.0\noutput out.csv\n")


@pytest.mark.parametrize("text, message", [
    (lambda data_dir: sweep_config(data_dir) + "disorder_sigma 0.5\n",
     "config: seed required when disorder_sigma > 0"),
    (lambda data_dir: SPECTRUM_KEYS + "geometry plaquette\ncols 2\n",
     "config: plaquette geometry requires 'rows'"),
    (lambda data_dir: SPECTRUM_KEYS + "geometry plaquette\nrows 2\n",
     "config: plaquette geometry requires 'cols'"),
    (lambda data_dir: SPECTRUM_KEYS + "geometry plaquette\nrows 2\ncols 2\n",
     "config: rows * cols must equal L"),
    (lambda data_dir: SPECTRUM_KEYS.replace("L 2\n", "L 2 3\n"),
     "line 2: key 'L' takes a single value"),
    (lambda data_dir: SPECTRUM_KEYS.replace("L 2\n", "L\n"),
     "line 2: key 'L' needs a value"),
    (lambda data_dir: validate_config(data_dir).replace(
        "note single-particle fixture check", "note"),
     "line 10: key 'note' needs a value"),
    (lambda data_dir: validate_config(data_dir).replace(
        "hardness_proof false", "hardness_proof yes"),
     "line 7: hardness_proof: expected 'true' or 'false'"),
], ids=["seed", "rows", "cols", "rows-cols", "single-value", "no-value", "no-note",
        "boolean"])
def test_config_violations_exit_2_with_their_place(tmp_path, data_dir, capsys, text,
                                                   message):
    config = text(data_dir)
    cfg = write_config(tmp_path, "run.cfg", config)
    command = next(line.split()[1] for line in config.splitlines()
                   if line.startswith("command "))
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_parse_command_mismatch(tmp_path, data_dir):
    with pytest.raises(ConfigError, match="invoked as"):
        parse_config("command walk\n", base_dir=tmp_path, expected_command="validate")


def test_config_hash_semantics(tmp_path, data_dir):
    cfg_a = parse_config(sweep_config(data_dir), base_dir=tmp_path)
    # output path and comments are not semantic
    cfg_b = parse_config(sweep_config(data_dir, output="elsewhere.csv")
                         + "# a comment\n", base_dir=tmp_path)
    assert config_hash(cfg_a) == config_hash(cfg_b)
    cfg_c = parse_config(sweep_config(data_dir).replace("trap_rate 1.0",
                                                        "trap_rate 1.5"),
                         base_dir=tmp_path)
    assert config_hash(cfg_a) != config_hash(cfg_c)
    # moving the network file keeps the hash, editing it changes it
    moved = tmp_path / "copy.net"
    moved.write_bytes((data_dir / "dimer.net").read_bytes())
    cfg_d = parse_config(sweep_config(data_dir).replace(
        f"network {data_dir}/dimer.net", f"network {moved}"), base_dir=tmp_path)
    assert config_hash(cfg_d) == config_hash(cfg_a)
    moved.write_text(moved.read_text().replace("5.0", "5.5"))
    assert config_hash(cfg_d) != config_hash(cfg_a)


def test_enaqt_sweep_matches_oracle_fixture(tmp_path, data_dir, capsys):
    cfg = write_config(tmp_path, "sweep.cfg", sweep_config(data_dir))
    assert main(["enaqt-sweep", str(cfg)]) == 0
    assert capsys.readouterr().err == ""  # every point converged
    meta, header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["gamma", "eta", "converged"]
    assert meta["tool"].startswith("aqsim ")
    assert len(meta["config_sha256"]) == 64
    assert len(rows) == 9
    gammas = np.array([float(r[0]) for r in rows])
    etas = np.array([float(r[1]) for r in rows])
    assert np.allclose(gammas, DIMER_GAMMA_GRID, rtol=1e-12)
    assert np.abs(etas - DIMER_ETA_ORACLE).max() <= 1e-6
    sidecar = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert sidecar["command"] == "enaqt-sweep"
    assert sidecar["t_max"] == 300.0
    assert len(sidecar["gamma_grid"]) == 9


def test_enaqt_sweep_warns_on_unconverged_points(tmp_path, data_dir, capsys):
    text = sweep_config(data_dir).replace("gamma_min 0.01", "gamma_min 1e2")
    text = text.replace("gamma_max 100.0", "gamma_max 1e4")
    text = text.replace("gamma_steps 9", "gamma_steps 3")
    cfg = write_config(tmp_path, "sweep.cfg", text.replace("t_max 300.0", "t_max 50"))
    assert main(["enaqt-sweep", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / "sweep.csv")
    assert [r[2] for r in rows] == ["false"] * 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: 3 of 3 sweep points did not converge")


def test_enaqt_sweep_overflowed_step_matrix_exits_numerical(tmp_path, data_dir, capsys):
    # a valid, finite trap rate whose step matrix overflows in expm
    text = sweep_config(data_dir).replace("trap_rate 1.0", "trap_rate 1e300")
    cfg = write_config(tmp_path, "sweep.cfg", text)
    assert main(["enaqt-sweep", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: step matrix of grid point 0 (dephasing rates up to "
        "0.01, trap_rate 1e+300) has non-finite entries\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


# Runs in a fresh interpreter: counts the argparse parsers that importing
# the CLI builds.
PARSER_PROBE = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
import aqsim.cli
print(len(built))
"""


def test_parser_is_built_once_on_first_use(tmp_path, data_dir, capsys):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", PARSER_PROBE], env=env,
                         check=True, capture_output=True, text=True)
    assert run.stdout == "0\n"
    assert cli._build_parser() is cli._build_parser()
    # every main call parses as the first did: a run, a config error, --version
    cfg = write_config(tmp_path, "sweep.cfg", sweep_config(data_dir))
    bad = write_config(tmp_path, "bad.cfg", "command enaqt-sweep\nbogus 1\n")

    def calls():
        outcomes = [(main(["enaqt-sweep", str(cfg)]), capsys.readouterr()),
                    (main(["enaqt-sweep", str(bad)]), capsys.readouterr())]
        with pytest.raises(SystemExit) as version:
            main(["--version"])
        return outcomes + [(version.value.code, capsys.readouterr())]

    first = calls()
    assert [code for code, _ in first] == [0, 2, 0]
    assert first[2][1].out == f"aqsim {aqsim.__version__}\n"
    assert calls() == calls() == first


def test_cli_outputs_are_byte_identical_on_rerun(tmp_path, data_dir):
    cfg = write_config(tmp_path, "walk.cfg", f"""command walk
network {data_dir}/fmo7.net
input_mode 0
time 4.0
phase_sigma 0.3
n_segments 20
shots 200
seed 7
output walk.csv
""")
    assert main(["walk", str(cfg)]) == 0
    first_csv = (tmp_path / "walk.csv").read_bytes()
    first_meta = (tmp_path / "walk.csv.meta.json").read_bytes()
    assert main(["walk", str(cfg)]) == 0
    assert (tmp_path / "walk.csv").read_bytes() == first_csv
    assert (tmp_path / "walk.csv.meta.json").read_bytes() == first_meta
    _, header, rows = read_csv(tmp_path / "walk.csv")
    assert header == ["site", "population"]
    total = sum(float(r[1]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_phase_sigma_beyond_one_over_eps_is_a_config_error(tmp_path, data_dir, capsys):
    # above 1/eps = 2^52 one ulp of phase_sigma * z is about |z| radians, so
    # the kicks carry nothing; near the largest double the half phases
    # 0.5 * phase_sigma * z used to overflow and end in exit 4
    for sigma, code in (("1.7e308", 2), ("4503599627370497", 2), ("4503599627370496", 0)):
        cfg = write_config(tmp_path, "walk.cfg", f"""command walk
network {data_dir}/dimer.net
input_mode 0
time 1.0
phase_sigma {sigma}
n_segments 4
shots 20
seed 3
output walk.csv
""")
        assert main(["walk", str(cfg)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: line 5: phase_sigma must lie in [0, 4503599627370496]\n"
            assert not (tmp_path / "walk.csv").exists()
            assert not (tmp_path / "walk.csv.meta.json").exists()


def golden_walk_config(data_dir, time="3.0"):
    # 6769 shots of 11 kicks on 21 sites: three chunks of the default
    # budget, the last with a lone trailing shot
    return f"""command walk
network {data_dir}/chain21.net
input_mode 10
time {time}
phase_sigma 0.7
n_segments 12
shots 6769
seed 2024
output walk.csv
"""


def test_walk_matches_golden_output(tmp_path, data_dir):
    # pinned bytes, written when the ensemble began summing populations in
    # shot order by 16-shot blocks
    assert walk._chunk_bounds(6769, walk._chunk_width(12, 21))[-1] == (4512, 6769)
    cfg = write_config(tmp_path, "walk.cfg", golden_walk_config(data_dir))
    assert main(["walk", str(cfg)]) == 0
    for name, golden in (("walk.csv", "chain21_walk.csv"),
                         ("walk.csv.meta.json", "chain21_walk.csv.meta.json")):
        assert (tmp_path / name).read_bytes() == (data_dir / golden).read_bytes()


GOLDEN_CONFIGS = {
    # the fmo7 sigma = 0.5 panel's seed 3 at the benchmark's rates and grid
    "fmo7_sweep": ("enaqt-sweep", """command enaqt-sweep
network {data_dir}/fmo7.net
source 0
sink 6
trap_rate 1.0
recombination_rate 0.05
gamma_min 1e-3
gamma_max 1e2
gamma_steps 11
t_max 600.0
tol 1e-8
disorder_sigma 0.5
seed 3
"""),
    "bh5_scan": ("bh-scan", """command bh-scan
L 5
N 5
U 1.0
j_min 0.02
j_max 0.3
j_steps 4
"""),
    "bh2_spectrum": ("bh-spectrum", """command bh-spectrum
L 2
N 2
J 1.0
U 1.0
delta 0.03
nu_min 0.2
nu_max 1.0
nu_steps 9
t_drive 40.0
"""),
}


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_command_matches_golden_output(tmp_path, data_dir, name):
    # pinned bytes, written before transport screened positivity by Cholesky
    command, text = GOLDEN_CONFIGS[name]
    cfg = write_config(tmp_path, f"{name}.cfg",
                       text.format(data_dir=data_dir) + f"output {name}.csv\n")
    assert main([command, str(cfg)]) == 0
    for suffix in (".csv", ".csv.meta.json"):
        assert ((tmp_path / (name + suffix)).read_bytes()
                == (data_dir / (name + suffix)).read_bytes())


@pytest.mark.parametrize("recombination, trap_rate, rounding", [
    ("0", "1e4", None), ("0", "1e6", "1.332e-09"), ("0", "1e12", "1.332e-03"),
    ("0", "1e14", None), ("0", "1e20", None), ("1e-3", "1e6", "1.332e-09"),
    ("1e-3", "1e14", "1.332e-01"), ("1e-3", "1e20", "1.332e+05")])
def test_sweep_fails_numerically_where_the_step_rounding_explains_the_drift(
        tmp_path, data_dir, capsys, recombination, trap_rate, rounding):
    # expm of these steps stays finite, and eps * ||G dt||_1, about
    # 2 trap_rate * 3 eps, is far above 1e-10 from trap 1e6 on.  Where the
    # trace still holds, eta is the Zeno limit 4 J^2 t_max / trap_rate; where
    # it drifts, the step's own probability defect is within that rounding,
    # and the drift within the checkpoint's count of it
    cfg = write_config(tmp_path, "sweep.cfg", f"""command enaqt-sweep
network {data_dir}/dimer.net
source 0
sink 1
trap_rate {trap_rate}
recombination_rate {recombination}
gamma_min 0.1
gamma_max 10.0
gamma_steps 5
t_max 300.0
output sweep.csv
""")
    if rounding is None:
        assert main(["enaqt-sweep", str(cfg)]) == 0
        etas = np.array([float(r[1]) for r in read_csv(tmp_path / "sweep.csv")[2]])
        if float(trap_rate) > 1e12:
            zeno = 4 * 300.0 / float(trap_rate)
            assert np.abs(etas / zeno - 1).max() <= 1e-12
        return
    assert main(["enaqt-sweep", str(cfg)]) == 3
    err = capsys.readouterr().err
    point = re.escape(f"grid point 0 (dephasing rates up to 0.1, "
                      f"trap_rate {float(trap_rate):g})")
    match = re.fullmatch(
        rf"numerical failure: step matrix of {point} keeps too few significant bits: "
        r"its probability defect (\S+) is within its rounding eps \* \|\|G dt\|\|_1 = "
        rf"{re.escape(rounding)}, and the trace drift (\S+) at checkpoint (\d+) "
        r"within \3 times that\n", err)
    assert match, err
    defect, drift, checkpoint = map(float, match.groups())
    assert defect <= float(rounding) and 1e-9 < drift <= checkpoint * float(rounding)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


@pytest.mark.parametrize("time, sigma, error", [
    ("1e300", "0.0", "4.441e+284"), ("1e300", "0.7", "4.441e+284"),
    ("2.3e5", "0.0", "1.021e-10"), ("2.2e5", "0.0", None)])
def test_walk_beyond_the_phase_precision_is_a_numerical_failure(tmp_path, data_dir,
                                                                 capsys, time, sigma,
                                                                 error):
    # at t = 1e300 exp(-i lambda t) keeps no significant bits; the run used
    # to exit 0 with normalized but meaningless populations.  The chain's
    # max row sum is 2, so the bound falls at t = 1e-10 / (2 eps) = 2.25e5
    text = golden_walk_config(data_dir, time=time).replace(
        "phase_sigma 0.7", f"phase_sigma {sigma}")
    cfg = write_config(tmp_path, "walk.cfg", text)
    if error is None:
        assert main(["walk", str(cfg)]) == 0
        return
    assert main(["walk", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: eps * ||H|| * t = {error} exceeds 1e-10: "
        "the evolution phases carry too few significant bits\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["walk.cfg"]


def test_walk_whose_phase_error_overflows_fails_without_a_warning(tmp_path, capsys):
    # eps * ||H|| * t overflows to inf; the bound refuses it with no numpy
    # overflow warning (an error under this suite's warning filter)
    (tmp_path / "big.net").write_text("sites 2\nsite 0 a 0.0\nsite 1 b 1e200\n"
                                      "coupling 0 1 1.0\n")
    cfg = write_config(tmp_path, "walk.cfg", "command walk\nnetwork big.net\n"
                       "input_mode 0\ntime 1e200\noutput walk.csv\n")
    assert main(["walk", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: eps * ||H|| * t = inf exceeds 1e-10: "
        "the evolution phases carry too few significant bits\n")


@pytest.mark.parametrize("sites, errors", [
    ("source 2\nsink 1", ["line 4: source 2 out of range for 2-site network"]),
    ("source 0\nsink 5", ["line 5: sink 5 out of range for 2-site network"]),
    ("sink 3\nsource 2", ["line 5: source 2 out of range for 2-site network",
                          "line 4: sink 3 out of range for 2-site network"]),
], ids=["source", "sink", "both"])
def test_sweep_sites_out_of_range_name_their_lines(tmp_path, data_dir, capsys,
                                                   sites, errors):
    text = sweep_config(data_dir).replace("source 0\nsink 1", sites)
    cfg = write_config(tmp_path, "sweep.cfg", text)
    assert main(["enaqt-sweep", str(cfg)]) == 2
    assert capsys.readouterr().err == "".join(f"error: {e}\n" for e in errors)
    assert not (tmp_path / "sweep.csv").exists()


def test_walk_input_mode_out_of_range_names_its_line(tmp_path, data_dir, capsys):
    text = golden_walk_config(data_dir).replace("input_mode 10", "input_mode 21")
    cfg = write_config(tmp_path, "walk.cfg", text)
    assert main(["walk", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: input_mode 21 out of range for 21-site network\n")
    assert not (tmp_path / "walk.csv").exists()


def test_config_built_without_line_numbers_reports_at_config(tmp_path, data_dir):
    from aqsim.cli import ExperimentConfig, run

    parsed = parse_config(sweep_config(data_dir).replace("source 0", "source 2"),
                          base_dir=tmp_path)
    bare = ExperimentConfig(parsed.command, parsed.values, parsed.base_dir)
    assert bare == parsed
    with pytest.raises(ConfigError) as err:
        run(bare)
    assert err.value.violations == ["config: source 2 out of range for 2-site network"]


def test_walk_length_input(tmp_path, data_dir):
    cfg = write_config(tmp_path, "walk.cfg", f"""command walk
network {data_dir}/dimer.net
input_mode 0
length 0.03
n_index 1.5
output walk.csv
""")
    assert main(["walk", str(cfg)]) == 0
    sidecar = json.loads((tmp_path / "walk.csv.meta.json").read_text())
    assert sidecar["evolution_time"] == 1.5 * 0.03 / 299_792_458.0


def test_outputs_get_the_mode_of_a_plainly_opened_file(tmp_path, data_dir):
    cfg = write_config(tmp_path, "walk.cfg", f"""command walk
network {data_dir}/dimer.net
input_mode 0
time 1.0
output walk.csv
""")
    umask = os.umask(0o022)
    try:
        assert main(["walk", str(cfg)]) == 0
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(umask)
    modes = {name: (tmp_path / name).stat().st_mode
             for name in ("walk.csv", "walk.csv.meta.json", "plain.txt")}
    assert modes["walk.csv"] == modes["walk.csv.meta.json"] == modes["plain.txt"]


def test_invalid_network_file_fails_parse_without_outputs(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.net"
    cfg = write_config(tmp_path, "sweep.cfg",
                       sweep_config(tmp_path, output="out.csv").replace(
                           f"network {tmp_path}/dimer.net", f"network {bad}"))
    for content, fragment in [
            (b"sites 2\nsite 0 a 0.0\n", "missing 'site' records"),
            (b"sites 2\nsite 0 \xff 0.0\n", "line 2: not UTF-8 text"),
            (b"sites 99999999999999999999\n",
             "line 1: site count 99999999999999999999 is too large")]:
        bad.write_bytes(content)
        assert main(["enaqt-sweep", str(cfg)]) == 2
        assert f"error: network ({bad}): {fragment}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out.csv.meta.json").exists()


def test_unknown_key_exit_code(tmp_path, data_dir, capsys):
    cfg = write_config(tmp_path, "sweep.cfg",
                       sweep_config(data_dir) + "gamm 1.0\n")
    assert main(["enaqt-sweep", str(cfg)]) == 2
    assert "'gamm'" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code, prefix", [
    (ConfigError(["line 3: first", "config: second"]), 2, "error"),
    (NetfileError("line 1: bad record"), 2, "error"),
    (BasisSizeError("basis over the cap"), 2, "error"),
    (np.linalg.LinAlgError("no convergence"), 3, "numerical failure"),
    (EigenConvergenceError("residual too large"), 3, "numerical failure"),
    (StateInvariantError("trace drift"), 4, "invariant violation"),
    (NegativeAbsorptionError("below -1e-9"), 4, "invariant violation"),
    (ReportRoleError("a report needs at least one internal check"), 4,
     "invariant violation"),
    (DriveCouplingError("raise k"), 2, "error"),
])
def test_exit_code_table(tmp_path, monkeypatch, capsys, exc, code, prefix):
    import aqsim.cli

    def failing(config):
        raise exc

    monkeypatch.setattr(aqsim.cli, "run", failing)
    assert main(["bh-spectrum", str(spectrum_config(tmp_path))]) == code
    messages = getattr(exc, "violations", [str(exc)])
    assert capsys.readouterr().err == "".join(f"{prefix}: {m}\n" for m in messages)


@pytest.mark.parametrize("exc", [
    KeyError("no such column"), ValueError("dimension mismatch"),
    RuntimeError("integrator failed")])
def test_unmapped_exception_propagates(tmp_path, monkeypatch, exc):
    # only the package's own failure types have exit codes: a builtin
    # error is a program fault, whatever its base class
    import aqsim.cli

    def failing(config):
        raise exc

    monkeypatch.setattr(aqsim.cli, "run", failing)
    with pytest.raises(type(exc)) as info:  # exit code 1 from the interpreter
        main(["bh-spectrum", str(spectrum_config(tmp_path))])
    assert info.value is exc


def test_exit_code_rows_are_disjoint():
    # no type of one row derives from a type of another, so an exception
    # matches one row at most and the order of the rows cannot matter
    import aqsim.cli

    rows = [types for types, _, _ in aqsim.cli._EXIT_CODES]
    for i, row in enumerate(rows):
        for other in rows[i + 1:]:
            for a in row:
                for b in other:
                    assert not issubclass(a, b) and not issubclass(b, a), (a, b)


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"command walk\n# \xff\n")
    assert main(["walk", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read config: line 2: not UTF-8 text (invalid start byte)\n")
    assert main(["walk", str(tmp_path / "missing.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config:")


def spectrum_config(tmp_path):
    return write_config(tmp_path, "bh.cfg", """command bh-spectrum
L 2
N 2
J 1.0
U 1.0
delta 0.03
nu_min 0.5
nu_max 0.8
nu_steps 7
t_drive 40.0
output spec.csv
""")


def test_bh_spectrum_refuses_a_basis_over_the_table_cap(tmp_path, capsys):
    # 200000 states is within BASIS_CAP, but their table is 4e10 entries
    text = spectrum_config(tmp_path).read_text().replace("L 2\nN 2\n", "L 200000\nN 1\n")
    cfg = write_config(tmp_path, "big.cfg", text)
    assert main(["bh-spectrum", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: basis for 200000 sites / 1 bosons needs tables of")
    assert not (tmp_path / "spec.csv").exists()


def test_bh_spectrum_cli(tmp_path):
    cfg = spectrum_config(tmp_path)
    assert main(["bh-spectrum", str(cfg)]) == 0
    _, header, rows = read_csv(tmp_path / "spec.csv")
    assert header == ["nu", "absorbed_energy"]
    assert len(rows) == 7
    assert all(float(r[1]) >= -1e-9 for r in rows)


def test_bh_scan_cli(tmp_path):
    cfg = write_config(tmp_path, "scan.cfg", """command bh-scan
L 4
N 4
j_min 0.02
j_max 0.2
j_steps 3
k 8
output scan.csv
""")
    assert main(["bh-scan", str(cfg)]) == 0
    _, header, rows = read_csv(tmp_path / "scan.csv")
    assert header == ["j_ratio", "gap", "condensate_fraction"]
    gaps = [float(r[1]) for r in rows]
    assert gaps[0] > gaps[-1]  # softening visible even on the small chain


def test_bh_spectrum_negative_absorption_is_an_invariant_violation(
        tmp_path, monkeypatch, capsys):
    import aqsim.bose_hubbard

    def shifted(h, k):  # a ground energy 1 above the true one
        energies, vectors = aqsim.low_spectrum(h, k)
        return energies + 1.0, vectors

    monkeypatch.setattr(aqsim.bose_hubbard, "low_spectrum", shifted)
    assert main(["bh-spectrum", str(spectrum_config(tmp_path))]) == 4
    err = capsys.readouterr().err
    assert "invariant violation" in err and "below -1e-9" in err
    assert not (tmp_path / "spec.csv").exists()


@pytest.mark.parametrize("bosons, hopping, interaction, tol", [
    *((3, 1.5, 0.9336, tol) for tol in ("1e-8", "1e-7", "1e-6", "1e-5")),
    (6, 0.0, 5.0, "1e-9"),
])
def test_bh_spectrum_norm_drift_of_an_eigenstate_is_not_absorption(
        tmp_path, bosons, hopping, interaction, tol):
    # one site's Fock state is an eigenstate, E0 = U N (N - 1) / 2, and
    # absorbs nothing.  The integrator's norm drift times E0 falls below
    # -1e-9 at these tolerances; the gain divides <H0> by |psi|^2, so the
    # drift no longer reaches it
    cfg = write_config(tmp_path, "bh.cfg", f"""command bh-spectrum
L 1
N {bosons}
J {hopping}
U {interaction}
delta 0.05
nu_min 1.5
nu_max 2.0
nu_steps 2
t_drive 1.5
tol {tol}
output spec.csv
""")
    assert main(["bh-spectrum", str(cfg)]) == 0
    e0 = interaction * bosons * (bosons - 1) / 2
    _, _, rows = read_csv(tmp_path / "spec.csv")
    gains = [float(row[1]) for row in rows]
    assert all(abs(gain) <= 1e-12 * e0 for gain in gains)


def scan_config(tmp_path, sites, bosons, k=10, j_steps=3, output="scan.csv",
                geometry=""):
    return write_config(tmp_path, "scan.cfg", f"""command bh-scan
L {sites}
N {bosons}
j_min 0.02
j_max 0.2
j_steps {j_steps}
k {k}
output {output}
{geometry}""")


# every even sector is dense-eigh sized except chain7's, 472 states (Lanczos)
@pytest.mark.parametrize("sites, bosons, shape, interaction", [
    (3, 3, None, 1.0), (4, 4, None, 1.0), (5, 5, None, 1.0), (6, 6, None, 1.0),
    (4, 4, (2, 2), 1.0), (6, 5, (2, 3), 1.0), (5, 5, None, 2.5), (7, 6, None, 1.0),
], ids=["chain3", "chain4", "chain5", "chain6", "plaquette2x2", "plaquette2x3",
        "chain5-U2.5", "chain7"])
def test_bh_scan_matches_full_basis_dense_oracle(tmp_path, sites, bosons, shape,
                                                 interaction):
    geometry = f"U {interaction!r}\n" + ("" if shape is None else (
        f"geometry plaquette\nrows {shape[0]}\ncols {shape[1]}\n"))
    cfg = scan_config(tmp_path, sites, bosons, geometry=geometry)
    assert main(["bh-scan", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / "scan.csv")
    assert len(rows) == 3
    basis = enumerate_basis(sites, bosons)
    for j, gap, fraction in (map(float, row) for row in rows):
        hopping = j * interaction
        params = (BoseHubbardParams.chain(sites, hopping, interaction) if shape is None
                  else BoseHubbardParams.plaquette(*shape, hopping, interaction))
        want_gap, want_fraction = scan_point_by_lookup(params, basis, 10)
        assert abs(gap - want_gap) <= 1e-10
        assert abs(fraction - want_fraction) <= 1e-10


def scan_rows(tmp_path, sites, bosons, geometry, output):
    cfg = scan_config(tmp_path, sites, bosons, output=output, geometry=geometry)
    assert main(["bh-scan", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / output)
    return np.array(rows, dtype=float)


# N 6: a 236-state even sector (dense eigh); N 8: 651 states (Lanczos)
@pytest.mark.parametrize("bosons", [6, 8])
def test_bh_scan_plaquette_and_its_transpose_agree(tmp_path, bosons):
    wide = scan_rows(tmp_path, 6, bosons, "geometry plaquette\nrows 2\ncols 3\n",
                     "wide.csv")
    tall = scan_rows(tmp_path, 6, bosons, "geometry plaquette\nrows 3\ncols 2\n",
                     "tall.csv")
    assert np.array_equal(wide[:, 0], tall[:, 0])
    assert np.abs(wide[:, 1:] - tall[:, 1:]).max() <= 1e-13


# unit filling, where every gap is O(U): a 236-state even sector (dense
# eigh) and a 3235-state one (Lanczos)
@pytest.mark.parametrize("rows, cols", [(2, 3), (2, 4)])
def test_bh_scan_gap_scales_with_j_and_u_and_the_fraction_does_not(tmp_path, rows,
                                                                   cols):
    # J = j_ratio U, so the same grid at U = scale scales J and U together
    plaquette = f"geometry plaquette\nrows {rows}\ncols {cols}\n"
    sites = rows * cols
    unit = scan_rows(tmp_path, sites, sites, plaquette, "unit.csv")
    for scale in (0.3, 7.0):
        scaled = scan_rows(tmp_path, sites, sites, f"U {scale!r}\n{plaquette}",
                           "scaled.csv")
        assert np.array_equal(unit[:, 0], scaled[:, 0])
        assert np.abs(scaled[:, 1] / (scale * unit[:, 1]) - 1).max() <= 1e-13
        assert np.abs(scaled[:, 2] / unit[:, 2] - 1).max() <= 1e-13


@pytest.mark.parametrize("j_steps", [2, 5])
def test_bh_scan_ranks_fock_states_once_for_the_mirror(tmp_path, monkeypatch, j_steps):
    # hops shift ranks through the basis's tables; only _reflection_sector
    # ranks, once, the mirror of every state
    calls = []
    rank = FockBasis._rank

    def counting(basis, occ):
        calls.append(occ.shape)
        return rank(basis, occ)

    monkeypatch.setattr(FockBasis, "_rank", counting)
    assert main(["bh-scan", str(scan_config(tmp_path, 5, 5, j_steps=j_steps))]) == 0
    assert calls == [(126, 5)]


def test_bh_scan_oversized_basis_is_a_config_error(tmp_path, capsys):
    cfg = scan_config(tmp_path, 14, 14)
    assert main(["bh-scan", str(cfg)]) == 2
    assert "over the cap" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()
    assert not (tmp_path / "scan.csv.meta.json").exists()


@pytest.mark.parametrize("sites, bosons, message", [
    (3, 0, "line 3: N must be >= 2"),  # the drive annihilates N < 2
    (3, 1, "line 3: N must be >= 2"),
    (1, 3, "line 2: L must be >= 2"),  # one state: nothing to excite
])
def test_bh_scan_needs_two_sites_and_two_bosons(tmp_path, capsys, sites, bosons,
                                                message):
    assert main(["bh-scan", str(scan_config(tmp_path, sites, bosons))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "scan.csv").exists()


def test_bh_scan_solves_once_per_j_point(tmp_path, monkeypatch):
    # k bounds the states a point may solve: on a chain's sector state 1 is
    # drive-coupled, so each point asks Lanczos for two states and no more
    calls = recording_solves(monkeypatch)
    cfg = scan_config(tmp_path, 7, 6, k=10, j_steps=4)  # 472 even states: Lanczos path
    assert main(["bh-scan", str(cfg)]) == 0
    assert calls == [2] * 4


def test_bh_scan_k_one_is_a_config_error(tmp_path, monkeypatch, capsys):
    # one state holds no excitation: the config check refuses it before any solve
    calls = recording_solves(monkeypatch)
    assert main(["bh-scan", str(scan_config(tmp_path, 7, 6, k=1))]) == 2
    assert capsys.readouterr().err == "error: line 7: k must be >= 2\n"
    assert calls == []
    assert not (tmp_path / "scan.csv").exists()


def test_bh_scan_linear_algebra_failure_is_numerical(tmp_path, monkeypatch, capsys):
    import aqsim.bose_hubbard

    def failing(h, k):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(aqsim.bose_hubbard, "low_spectrum", failing)
    assert main(["bh-scan", str(scan_config(tmp_path, 3, 3))]) == 3
    assert "numerical failure: Eigenvalues did not converge" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


def test_bh_scan_k_above_basis_size(tmp_path):
    cfg = scan_config(tmp_path, 2, 2, k=10)  # 3 states
    assert main(["bh-scan", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / "scan.csv")
    assert len(rows) == 3
    assert all(float(r[1]) > 0 for r in rows)
    sidecar = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert sidecar["basis_states"] == 3 and sidecar["k"] == 10
    assert sidecar["sector_states"] == 2


def test_bh_scan_k_two_fills_the_even_block(tmp_path):
    # the odd state (2,0) - (0,2) is not in the solve; the even block on
    # (2,0) + (0,2) and (1,1) is [[U, -2J], [-2J, 0]], gap sqrt(U^2 + 16 J^2)
    cfg = scan_config(tmp_path, 2, 2, k=2)
    assert main(["bh-scan", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / "scan.csv")
    assert len(rows) == 3
    for j, gap, _ in (map(float, row) for row in rows):
        assert abs(gap - np.sqrt(1.0 + 16.0 * j * j)) <= 1e-12


@pytest.mark.parametrize("output", ["outdir", "."])
def test_output_naming_a_directory_is_a_config_error(tmp_path, capsys, output):
    (tmp_path / "outdir").mkdir()
    cfg = scan_config(tmp_path, 3, 3, output=output)
    assert main(["bh-scan", str(cfg)]) == 2
    target = tmp_path / output
    assert capsys.readouterr().err == (
        f"error: line 8: output names a directory: {target}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "scan.cfg"]


def test_second_command_line_is_a_duplicate_key(tmp_path, capsys):
    cfg = scan_config(tmp_path, 3, 3)
    cfg.write_text(cfg.read_text() + "command validate\n")
    assert main(["bh-scan", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: line 9: duplicate key 'command'\n"
    assert not (tmp_path / "scan.csv").exists()


def test_bh_scan_is_byte_identical_on_rerun(tmp_path):
    cfg = scan_config(tmp_path, 6, 6, k=10)
    assert main(["bh-scan", str(cfg)]) == 0
    first_csv = (tmp_path / "scan.csv").read_bytes()
    first_meta = (tmp_path / "scan.csv.meta.json").read_bytes()
    assert main(["bh-scan", str(cfg)]) == 0
    assert (tmp_path / "scan.csv").read_bytes() == first_csv
    assert (tmp_path / "scan.csv.meta.json").read_bytes() == first_meta


def validate_config(data_dir, role="simulation"):
    return f"""command validate
network_a {data_dir}/wg7.net
network_b {data_dir}/fmo7.net
mapping {data_dir}/fmo_to_wg.map
tolerance 1e-12
role {role}
hardness_proof false
efficient_classical_known false
scalable_accuracy false
note single-particle fixture check
output report.json
"""


def test_validate_cli(tmp_path, data_dir):
    cfg = write_config(tmp_path, "val.cfg", validate_config(data_dir))
    assert main(["validate", str(cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["internally_valid"] is True
    assert report["externally_valid"] is False
    assert report["speedup"]["class_id"] == 3
    assert report["internal_checks"][0]["metric"] <= 1e-12
    assert report["meta"]["tool"].startswith("aqsim ")


def test_validate_emulation_role_is_rejected(tmp_path, data_dir, capsys):
    # the CLI can only produce internal checks, so an emulation claim fails
    cfg = write_config(tmp_path, "val.cfg", validate_config(data_dir, "emulation"))
    assert main(["validate", str(cfg)]) == 4
    assert "external" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("net_a, net_b, mapping, sizes", [
    ("dimer.net", "fmo7.net", "fmo_to_wg.map", "2 sites), network_b (7 sites) and mapping (7"),
    ("dimer.net", "dimer.net", "fmo_to_wg.map", "2 sites), network_b (2 sites) and mapping (7"),
])
def test_validate_size_mismatch_is_a_config_error(tmp_path, data_dir, capsys, net_a,
                                                  net_b, mapping, sizes):
    text = validate_config(data_dir).replace("wg7.net", net_a).replace(
        f"{data_dir}/fmo7.net", f"{data_dir}/{net_b}").replace("fmo_to_wg.map", mapping)
    cfg = write_config(tmp_path, "val.cfg", text)
    assert main(["validate", str(cfg)]) == 2
    # reported on the line of the mapping, the file that pairs the networks
    assert capsys.readouterr().err == (
        f"error: line 4: network_a ({sizes} entries) differ in size\n")
    assert not (tmp_path / "report.json").exists()


def test_validate_determinism(tmp_path, data_dir):
    cfg = write_config(tmp_path, "val.cfg", validate_config(data_dir))
    assert main(["validate", str(cfg)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    # pinned bytes: any change to the report's content or layout shows here
    assert first == (data_dir / "wg7_fmo7_report.json").read_bytes()
    assert main(["validate", str(cfg)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first
