"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Stated runtime budgets are asserted, so a slow
environment fails loudly rather than silently degrading.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import linregress

import aqsim
from aqsim.cli import main
from aqsim.open_system import build_liouvillian, initial_excitation

from conftest import DATA_DIR, detuned_dimer, disordered_seven_site, make_chain
from oracles import (liouvillian_runge_kutta, random_density_matrix,
                     random_transport_instance)

GOLDILOCKS_GRID = np.geomspace(1e-3, 1e3, 13)


def _report(criterion: int, message: str):
    print(f"\n[criterion {criterion:02d}] PASS - {message}")


@pytest.fixture(scope="module")
def goldilocks_curves():
    """Efficiency curves for both transport fixtures, timed once."""
    start = time.monotonic()
    curves = {}
    for name, (h, spec) in (("dimer", detuned_dimer()),
                            ("seven_site", disordered_seven_site())):
        curves[name] = aqsim.goldilocks_sweep(h, spec, GOLDILOCKS_GRID,
                                              t_max=600.0, tol=1e-6)
    return curves, time.monotonic() - start


def test_criterion_01_oracle_equivalence_open_systems():
    start = time.monotonic()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(200):
        h, spec = random_transport_instance(rng)
        gen = build_liouvillian(h, spec)
        rho0 = aqsim.DensityMatrix(random_density_matrix(rng, gen.dim))
        t = float(rng.uniform(0.0, 5.0))
        out = aqsim.evolve(rho0, gen, t)
        want = liouvillian_runge_kutta(h, spec, rho0.matrix, t)
        worst = max(worst, float(np.abs(out.matrix - want).max()))
    elapsed = time.monotonic() - start
    assert 0.0 < worst <= 1e-8  # exactly 0 would mean the oracle shares the method
    assert elapsed <= 30.0
    _report(1, f"200 random instances vs Runge-Kutta oracle on the kron-built "
               f"generator: max entrywise error {worst:.2e} <= 1e-8 in {elapsed:.1f}s")


def test_criterion_02_conservation_suite():
    trace_drift = 0.0
    min_eig = math.inf
    norm_drift = 0.0

    def track(state: aqsim.DensityMatrix):
        nonlocal trace_drift, min_eig
        trace_drift = max(trace_drift, abs(np.trace(state.matrix).real - 1.0))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(state.matrix).min()))

    rng = np.random.default_rng(77)
    for _ in range(40):
        h, spec = random_transport_instance(rng)
        gen = build_liouvillian(h, spec)
        state = aqsim.DensityMatrix(random_density_matrix(rng, gen.dim))
        for t in (0.5, 2.0, 8.0):
            track(aqsim.evolve(state, gen, t))
    for h, spec in (detuned_dimer(), disordered_seven_site()):
        for gamma in (1e-3, 1.0, 1e3):
            gen = build_liouvillian(h, spec.with_uniform_dephasing(gamma))
            rho = initial_excitation(spec.n_sites, spec.source_site)
            for t in (5.0, 50.0):
                track(aqsim.evolve(rho, gen, t))
    chain = make_chain(101)
    for t in (1.0, 5.0, 20.0):
        amps = aqsim.evolve_unitary(chain, 50, t).amplitudes
        norm_drift = max(norm_drift, abs(np.vdot(amps, amps).real - 1.0))
    assert trace_drift <= 1e-9
    assert min_eig >= -1e-8
    assert norm_drift <= 1e-10
    _report(2, f"corpus of {40 * 3 + 12} evolutions: trace drift "
               f"{trace_drift:.2e} <= 1e-9, min eigenvalue {min_eig:.2e} >= "
               f"-1e-8, walk norm drift {norm_drift:.2e} <= 1e-10")


def test_criterion_03_goldilocks_reproduction(goldilocks_curves):
    curves, elapsed = goldilocks_curves
    margins = {}
    for name, curve in curves.items():
        eff = curve.efficiencies
        i = curve.argmax()
        assert 0 < i < eff.size - 1, f"{name}: argmax not interior"
        assert eff[i] >= eff[0] + 0.02, f"{name}: low-dephasing margin"
        assert eff[i] >= eff[-1] + 0.02, f"{name}: high-dephasing margin"
        margins[name] = (eff[i] - eff[0], eff[i] - eff[-1])
    assert elapsed <= 120.0
    _report(3, "interior efficiency maximum on both fixtures "
               f"(margins dimer {margins['dimer'][0]:.3f}/{margins['dimer'][1]:.3f}, "
               f"7-site {margins['seven_site'][0]:.3f}/{margins['seven_site'][1]:.3f})"
               f" in {elapsed:.1f}s <= 120s")


def test_criterion_04_localization_and_zeno_brackets(goldilocks_curves):
    curves, _ = goldilocks_curves
    for name, curve in curves.items():
        eff = curve.efficiencies
        best = eff[curve.argmax()]
        assert eff[0] < best, f"{name}: coherent-limit bracket"
        assert eff[-1] < best, f"{name}: strong-dephasing bracket"
    _report(4, "eta(gamma_min) < eta(gamma*) and eta(gamma_max) < eta(gamma*) "
               "on both fixtures")


def test_criterion_05_walk_spreading():
    start = time.monotonic()
    chain = make_chain(101)
    times = np.arange(1.0, 21.0)
    coherent = aqsim.spreading_stats(chain, times)
    sigma = np.array([s for _, s in coherent])
    fit = linregress(times, sigma)
    r_squared = fit.rvalue ** 2
    assert r_squared >= 0.999
    dephasing = aqsim.DephasingEnsembleSpec(n_segments=48, phase_sigma=2 * np.pi,
                                            shots=10_000, seed=12345)
    dt = np.array([4.0, 8.0, 12.0, 16.0, 20.0, 24.0])
    diffusive = aqsim.spreading_stats(chain, dt, dephasing=dephasing)
    dsigma = np.array([s for _, s in diffusive])
    dfit = linregress(np.log(dt), np.log(dsigma))
    elapsed = time.monotonic() - start
    assert abs(dfit.slope - 0.5) <= 0.1
    assert elapsed <= 60.0
    _report(5, f"coherent fit R^2 = {r_squared:.6f} >= 0.999; dephased "
               f"exponent {dfit.slope:.3f} within 0.5 +/- 0.1 "
               f"({dephasing.shots} shots) in {elapsed:.1f}s")


def test_criterion_06_bose_hubbard_closed_forms():
    basis = aqsim.enumerate_basis(2, 2)
    cases = [
        (0.0, 4.0, [0.0, 4.0, 4.0]),
        (1.0, 0.0, [-2.0, 0.0, 2.0]),
        (1.0, 1.0, [(1 - math.sqrt(17)) / 2, 1.0, (1 + math.sqrt(17)) / 2]),
    ]
    worst = 0.0
    for hop, interaction, want in cases:
        h = aqsim.build_bh(aqsim.BoseHubbardParams.chain(2, hop, interaction), basis)
        vals = np.linalg.eigvalsh(h.toarray())
        worst = max(worst, float(np.abs(vals - np.sort(want)).max()))
    assert worst <= 1e-12
    _report(6, f"L=2 N=2 eigenvalues match the three closed forms, max error "
               f"{worst:.2e} <= 1e-12")


def test_criterion_07_spectroscopy_peak_location():
    basis = aqsim.enumerate_basis(2, 2)
    params = aqsim.BoseHubbardParams.chain(2, 1.0, 1.0)
    grid = np.linspace(0.1, 1.2, 56)
    step = grid[1] - grid[0]
    spectrum = aqsim.modulation_absorption(params, basis, 0.03, grid, 60.0)
    gap_nu = math.sqrt(17.0) / (2 * math.pi)  # drive-coupled ED gap
    offset = abs(spectrum.peak_frequency() - gap_nu)
    assert offset <= step
    peak = spectrum.absorbed_energy.max()
    far = 10 * math.sqrt(17.0) / (2 * math.pi)
    off_res = aqsim.modulation_absorption(params, basis, 0.03,
                                          np.array([far]), 60.0)
    ratio = off_res.absorbed_energy[0] / peak
    assert ratio <= 1e-3
    _report(7, f"absorption peak within {offset:.4f} (< one grid step {step:.3f}) "
               f"of the ED gap; off-resonance ratio {ratio:.1e} <= 1e-3")


def test_criterion_08_gap_softening():
    start = time.monotonic()
    basis = aqsim.enumerate_basis(8, 8)
    assert len(basis) == 6435
    gaps = []
    for j in (0.01, 0.02, 0.05, 0.1, 0.2):
        h = aqsim.build_bh(aqsim.BoseHubbardParams.chain(8, j, 1.0), basis)
        gaps.append(aqsim.drive_coupled_gap(*aqsim.low_spectrum(h, 10), basis))
    elapsed = time.monotonic() - start
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert elapsed <= 300.0
    _report(8, "drive-coupled gap decreases monotonically over j grid "
               f"({', '.join(f'{g:.3f}' for g in gaps)}) in {elapsed:.1f}s")


def test_criterion_09_isomorphism_round_trip():
    h_fmo = aqsim.build_tight_binding(aqsim.load_network(DATA_DIR / "fmo7.net"))
    h_wg = aqsim.build_tight_binding(aqsim.load_network(DATA_DIR / "wg7.net"))
    rec = aqsim.load_mapping(DATA_DIR / "fmo_to_wg.map")
    check = aqsim.check_isomorphism(h_wg, h_fmo, rec, tol=1e-12)
    assert check.passed and check.metric <= 1e-12
    back = aqsim.check_isomorphism(h_fmo, h_wg, rec.inverse(), tol=1e-12 / rec.unit_scale)
    assert back.passed
    perm = np.asarray(rec.site_bijection)
    worst = 0.0
    for t in (1.0, 3.0, 7.0):
        pops_fmo = aqsim.evolve_unitary(h_fmo, 0, t).populations()
        pops_wg = aqsim.evolve_unitary(h_wg, rec.site_bijection[0],
                                       t / rec.unit_scale).populations()
        worst = max(worst, float(np.abs(pops_wg[perm] - pops_fmo).max()))
    assert worst <= 1e-12
    _report(9, f"network-form mapping passes at metric {check.metric:.1e} and "
               f"time-rescaled walk populations agree to {worst:.1e} <= 1e-12")


def test_criterion_10_speedup_classifier():
    assignments = [
        ((True, False, False), 1),   # hardness proof (sampling-style problems)
        ((False, False, True), 2),   # no proof, classically hard, scales
        ((False, False, False), 3),  # the modulation-spectroscopy experiment
        ((False, True, True), 4),    # classical efficient, better scaling
    ]
    for answers, want in assignments:
        got = aqsim.classify_speedup(*answers)
        assert got.class_id == want, (answers, got.class_id)
    _report(10, "classifier reproduces the four canonical class assignments "
                "including class 3 for the modulation-spectroscopy case")


def test_criterion_11_cli_determinism(tmp_path):
    fixtures = {
        "enaqt-sweep": f"""command enaqt-sweep
network {DATA_DIR}/dimer.net
source 0
sink 1
trap_rate 1.0
recombination_rate 0.05
gamma_min 0.1
gamma_max 10.0
gamma_steps 5
t_max 120.0
tol 1e-8
output sweep.csv
""",
        "walk": f"""command walk
network {DATA_DIR}/fmo7.net
input_mode 0
time 3.0
phase_sigma 0.4
n_segments 16
shots 400
seed 21
output walk.csv
""",
        "bh-spectrum": """command bh-spectrum
L 2
N 2
J 1.0
U 1.0
delta 0.03
nu_min 0.5
nu_max 0.8
nu_steps 5
t_drive 30.0
output spectrum.csv
""",
        "bh-scan": """command bh-scan
L 3
N 3
j_min 0.05
j_max 0.2
j_steps 3
k 6
output scan.csv
""",
        "validate": f"""command validate
network_a {DATA_DIR}/wg7.net
network_b {DATA_DIR}/fmo7.net
mapping {DATA_DIR}/fmo_to_wg.map
tolerance 1e-12
hardness_proof false
efficient_classical_known false
scalable_accuracy false
output report.json
""",
    }
    for command, text in fixtures.items():
        workdir = tmp_path / command
        workdir.mkdir()
        cfg = workdir / "run.cfg"
        cfg.write_text(text)
        assert main([command, str(cfg)]) == 0
        snapshots = {p.name: p.read_bytes() for p in workdir.iterdir()
                     if p.name != "run.cfg"}
        assert snapshots
        assert main([command, str(cfg)]) == 0
        for name, blob in snapshots.items():
            assert (workdir / name).read_bytes() == blob, (command, name)
    _report(11, f"all {len(fixtures)} CLI fixtures rerun byte-identically")
