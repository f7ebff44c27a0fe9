import json

import numpy as np
import pytest

from aqsim.cli import ConfigError, config_hash, main, parse_config

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
        "time 1.0\noutput out.csv\n", base_dir=tmp_path)
    assert cfg.command == "walk"
    assert cfg.values["phase_sigma"] == 0.0  # documented default


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


def test_parse_rejects_non_finite_floats(tmp_path, data_dir):
    # every float key: inf or nan would otherwise reach the engines
    text = sweep_config(data_dir).replace("trap_rate 1.0", "trap_rate inf")
    text = text.replace("gamma_max 100.0", "gamma_max nan")
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    assert "line 6: trap_rate: must be finite" in err.value.violations
    assert "line 9: gamma_max: must be finite" in err.value.violations


def test_parse_collects_all_violations(tmp_path):
    text = ("command enaqt-sweep\nnetwork missing.net\nsource -1\n"
            "trap_rate 0.0\ngamma_min 1.0\ngamma_max 0.1\ngamma_steps 1\n"
            "bogus 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    text_all = "\n".join(err.value.violations)
    for fragment in ("bogus", "source", "trap_rate", "gamma_steps",
                     "grid must ascend", "not found", "missing required key 'sink'",
                     "missing required key 'output'"):
        assert fragment in text_all, fragment


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


def test_enaqt_sweep_matches_oracle_fixture(tmp_path, data_dir):
    cfg = write_config(tmp_path, "sweep.cfg", sweep_config(data_dir))
    assert main(["enaqt-sweep", str(cfg)]) == 0
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


def test_invalid_network_file_fails_parse_without_outputs(tmp_path, data_dir):
    bad = tmp_path / "bad.net"
    bad.write_text("sites 2\nsite 0 a 0.0\n")  # site 1 missing
    cfg = write_config(tmp_path, "sweep.cfg",
                       sweep_config(tmp_path, output="out.csv").replace(
                           f"network {tmp_path}/dimer.net", f"network {bad}"))
    assert main(["enaqt-sweep", str(cfg)]) == 2
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.csv.meta.json").exists()


def test_unknown_key_exit_code(tmp_path, data_dir, capsys):
    cfg = write_config(tmp_path, "sweep.cfg",
                       sweep_config(data_dir) + "gamm 1.0\n")
    assert main(["enaqt-sweep", str(cfg)]) == 2
    assert "'gamm'" in capsys.readouterr().err


def test_bh_spectrum_cli(tmp_path):
    cfg = write_config(tmp_path, "bh.cfg", """command bh-spectrum
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


def scan_config(tmp_path, sites, bosons, k=10, j_steps=3, output="scan.csv"):
    return write_config(tmp_path, "scan.cfg", f"""command bh-scan
L {sites}
N {bosons}
j_min 0.02
j_max 0.2
j_steps {j_steps}
k {k}
output {output}
""")


def test_bh_scan_oversized_basis_is_a_config_error(tmp_path, capsys):
    cfg = scan_config(tmp_path, 14, 14)
    assert main(["bh-scan", str(cfg)]) == 2
    assert "over the cap" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()
    assert not (tmp_path / "scan.csv.meta.json").exists()


def test_bh_scan_solves_once_per_j_point(tmp_path, monkeypatch):
    import aqsim.cli

    calls = []

    def counting(h, k):
        calls.append(k)
        return aqsim.low_spectrum(h, k)

    monkeypatch.setattr(aqsim.cli, "low_spectrum", counting)
    cfg = scan_config(tmp_path, 6, 6, k=10, j_steps=4)  # 462 states: Lanczos path
    assert main(["bh-scan", str(cfg)]) == 0
    assert calls == [10] * 4


def test_bh_scan_k_above_basis_size(tmp_path):
    cfg = scan_config(tmp_path, 2, 2, k=10)  # 3 states
    assert main(["bh-scan", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / "scan.csv")
    assert len(rows) == 3
    assert all(float(r[1]) > 0 for r in rows)
    sidecar = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert sidecar["basis_states"] == 3 and sidecar["k"] == 10


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


def test_validate_determinism(tmp_path, data_dir):
    cfg = write_config(tmp_path, "val.cfg", validate_config(data_dir))
    assert main(["validate", str(cfg)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert main(["validate", str(cfg)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first
