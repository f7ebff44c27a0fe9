from dataclasses import replace
from functools import cache

import numpy as np
import pytest
import scipy.linalg

import aqsim
from aqsim import (DensityMatrix, NoSinkError, StateInvariantError,
                   TransportSpec, WalkState)
from aqsim.hamiltonians import NetworkError
from aqsim import open_system
from aqsim.open_system import TRACE_TOL, build_liouvillian, initial_excitation

from conftest import DATA_DIR, detuned_dimer, make_chain
from oracles import (liouvillian_by_kron, liouvillian_runge_kutta,
                     random_density_matrix, random_transport_instance,
                     transport_efficiency_at_infinity, transport_efficiency_full_space)

# Sink population of the detuned dimer at t = 300 over geomspace(0.01, 100, 9),
# tabulated with a dense exponential of the generator before any integrator
# existed.
DIMER_GAMMA_GRID = np.geomspace(0.01, 100.0, 9)
DIMER_ETA_ORACLE = np.array([
    0.437335315918, 0.445716970175, 0.470216955390, 0.531820500689,
    0.639355694455, 0.727682583235, 0.694858806378, 0.508923187989,
    0.266953972694,
])


def test_transport_spec_validation():
    with pytest.raises(ValueError):
        TransportSpec(0, 2, 1.0, 0.0, np.zeros(2))  # sink out of range
    with pytest.raises(ValueError):
        TransportSpec(-1, 0, 1.0, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        TransportSpec(0, 1, -1.0, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        TransportSpec(0, 1, 1.0, 0.0, [0.1, -0.1])
    # a non-integral site is refused, not truncated to 0 and 1
    with pytest.raises(ValueError, match="source_site must be an integer"):
        TransportSpec(0.9, 1.7, 1.0, 0.0, np.zeros(2))
    with pytest.raises(ValueError, match="sink_site must be an integer"):
        TransportSpec(0, 1.0, 1.0, 0.0, np.zeros(2))
    spec = TransportSpec(np.int64(0), np.int32(1), 1.0, 0.0, np.zeros(2))
    assert (spec.source_site, spec.sink_site) == (0, 1)
    assert type(spec.sink_site) is int


def test_density_matrix_invariants():
    with pytest.raises(StateInvariantError):
        DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(StateInvariantError):
        DensityMatrix(np.array([[1.0, 1e-3], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(StateInvariantError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, error", [
    (lambda: WalkState([NAN, 0.0], 0.0), ValueError),
    (lambda: WalkState([INF, 0.0], 0.0), ValueError),
    (lambda: WalkState([1.0, 0.0], NAN), ValueError),
    (lambda: aqsim.DephasingEnsembleSpec(4, INF, 10, 1), ValueError),
    (lambda: aqsim.Hamiltonian([[NAN, 0.0], [0.0, 1.0]]), ValueError),
    (lambda: aqsim.Hamiltonian([[INF, 0.0], [0.0, 1.0]]), ValueError),
    (lambda: aqsim.SiteNetwork([NAN, 0.0], np.zeros((2, 2))), NetworkError),
    (lambda: aqsim.SiteNetwork([0.0, 0.0], [[0.0, INF], [INF, 0.0]]), NetworkError),
    (lambda: DensityMatrix(np.full((2, 2), NAN)), StateInvariantError),
    (lambda: TransportSpec(0, 1, INF, 0.0, np.zeros(2)), ValueError),
    (lambda: TransportSpec(0, 1, 1.0, NAN, np.zeros(2)), ValueError),
    (lambda: TransportSpec(0, 1, 1.0, 0.0, [0.1, NAN]), ValueError),
    (lambda: aqsim.transport_efficiency(*detuned_dimer(), t_max=INF), ValueError),
], ids=["walk-nan", "walk-inf", "walk-time-nan", "phase-sigma-inf",
        "hamiltonian-nan", "hamiltonian-inf", "network-on-site-nan",
        "network-coupling-inf", "density-nan", "trap-inf", "recombination-nan",
        "dephasing-nan", "horizon-inf"])
def test_invariant_checks_reject_non_finite_entries(build, error):
    with pytest.raises(error, match="finite"):
        build()


def test_liouvillian_preserves_trace():
    # 2-site system with every channel on: Tr(L rho) = 0 for random rho
    h, spec = detuned_dimer()
    gen = build_liouvillian(h, spec.with_uniform_dephasing(0.3))
    rng = np.random.default_rng(17)
    d = gen.dim
    trace_picker = np.eye(d).reshape(-1, order="F")
    for _ in range(100):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a + a.conj().T
        deriv = (gen.matrix @ rho.reshape(-1, order="F"))
        assert abs(trace_picker @ deriv) <= 1e-12


def test_closed_limit_conserves_purity():
    h = make_chain(3)
    spec = TransportSpec(0, 2, 0.0, 0.0, np.zeros(3))
    gen = build_liouvillian(h, spec)
    rho = initial_excitation(3, 0)
    out = aqsim.evolve(rho, gen, 2.5)
    assert abs(out.purity() - 1.0) <= 1e-9


def test_single_site_dephasing_is_null():
    # one site has no coherences to destroy
    h = aqsim.Hamiltonian([[0.0]])
    spec = TransportSpec(0, 0, 0.0, 0.0, [0.8])
    gen = build_liouvillian(h, spec)
    out = aqsim.evolve(initial_excitation(1, 0), gen, 3.0)
    assert out.population(0) == pytest.approx(1.0, abs=1e-10)


def test_evolve_time_zero_returns_input():
    h, spec = detuned_dimer()
    gen = build_liouvillian(h, spec)
    rho = initial_excitation(2, 0)
    assert aqsim.evolve(rho, gen, 0.0) is rho


def test_closed_dimer_rabi_oscillation():
    # P2(t) = sin^2(C t); full transfer at C t = pi/2
    h = make_chain(2)
    spec = TransportSpec(0, 1, 0.0, 0.0, np.zeros(2))
    gen = build_liouvillian(h, spec)
    out = aqsim.evolve(initial_excitation(2, 0), gen, np.pi / 2)
    assert out.population(1) == pytest.approx(1.0, abs=1e-8)
    mid = aqsim.evolve(initial_excitation(2, 0), gen, 0.7)
    assert mid.population(1) == pytest.approx(np.sin(0.7) ** 2, abs=1e-8)


def test_evolve_matches_dense_exponential_oracle():
    rng = np.random.default_rng(99)
    for _ in range(20):
        h, spec = random_transport_instance(rng)
        gen = build_liouvillian(h, spec)
        rho0 = DensityMatrix(random_density_matrix(rng, gen.dim))
        t = float(rng.uniform(0.0, 5.0))
        out = aqsim.evolve(rho0, gen, t)
        want = liouvillian_runge_kutta(h, spec, rho0.matrix, t)
        assert np.abs(out.matrix - want).max() <= 1e-8


def test_generator_matches_kron_oracle():
    rng = np.random.default_rng(2008)
    for _ in range(250):
        h, spec = random_transport_instance(rng, max_sites=6)
        got = build_liouvillian(h, spec).matrix
        want = liouvillian_by_kron(h, spec)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_evolve_rejects_bad_arguments():
    h, spec = detuned_dimer()
    gen = build_liouvillian(h, spec)
    rho = initial_excitation(2, 0)
    with pytest.raises(ValueError):
        aqsim.evolve(rho, gen, -1.0)
    with pytest.raises(ValueError):
        aqsim.evolve(initial_excitation(3, 0), gen, 1.0)
    for t in (NAN, INF):
        with pytest.raises(ValueError, match="finite"):
            aqsim.evolve(rho, gen, t)
    with pytest.raises(ValueError, match="site must be an integer"):
        initial_excitation(2, 0.9)


@pytest.mark.parametrize("gamma", [1e6, 1e18])
def test_absurd_dephasing_gives_zeno_frozen_state(gamma):
    # hopping out of the source slows to the rate 2 C^2 / gamma, so the
    # evolved state is valid and the source keeps 1 - 2 C^2 t / gamma
    h = make_chain(2)
    spec = TransportSpec(0, 1, 1.0, 0.0, np.full(2, gamma))
    gen = build_liouvillian(h, spec)
    out = aqsim.evolve(initial_excitation(2, 0), gen, 10.0)
    assert out.population(0) == pytest.approx(1.0 - 20.0 / gamma, abs=1e-9)


def test_efficiency_requires_sink():
    h, spec = detuned_dimer()
    with pytest.raises(NoSinkError):
        aqsim.transport_efficiency(h, TransportSpec(0, 1, 0.0, 0.0, np.zeros(2)))


def test_efficiency_disconnected_network():
    # no coupling at all: the excitation never reaches the trapped site
    h = aqsim.build_tight_binding(aqsim.SiteNetwork([0.0, 5.0], np.zeros((2, 2))))
    spec = TransportSpec(0, 1, 1.0, 0.0, np.zeros(2))
    eta, converged = aqsim.transport_efficiency(h, spec, t_max=50.0, tol=1e-8)
    assert eta == 0.0
    assert not converged


def test_efficiency_unique_absorbing_state():
    # connected coupler, no recombination: sink takes everything
    h = make_chain(2)
    spec = TransportSpec(0, 1, 1.0, 0.0, np.zeros(2))
    eta, converged = aqsim.transport_efficiency(h, spec, t_max=100.0, tol=1e-8)
    assert eta >= 0.99
    assert converged


def test_detuned_dimer_matches_frozen_oracle_table():
    h, spec = detuned_dimer()
    for gamma, want in zip(DIMER_GAMMA_GRID, DIMER_ETA_ORACLE):
        eta, _ = aqsim.transport_efficiency(
            h, spec.with_uniform_dephasing(gamma), t_max=300.0, tol=1e-9)
        assert eta == pytest.approx(want, abs=1e-6)


def test_monotone_sink_accumulation():
    h, spec = detuned_dimer()
    gen = build_liouvillian(h, spec.with_uniform_dephasing(2.0))
    rho = initial_excitation(2, 0)
    last = 0.0
    for t in np.linspace(0.5, 30.0, 20):
        sink = aqsim.evolve(rho, gen, float(t)).population(gen.sink_index)
        assert sink >= last - 1e-10
        last = sink


def test_goldilocks_sweep_range_and_determinism():
    h = make_chain(2)
    spec = TransportSpec(0, 1, 1.0, 0.0, np.zeros(2))
    grid = np.geomspace(0.1, 10.0, 5)
    a = aqsim.goldilocks_sweep(h, spec, grid, t_max=60.0, tol=1e-8)
    b = aqsim.goldilocks_sweep(h, spec, grid, t_max=60.0, tol=1e-8)
    assert np.all((a.efficiencies >= 0) & (a.efficiencies <= 1))
    assert np.array_equal(a.efficiencies, b.efficiencies)
    assert a.h_hash == h.content_hash()


def test_detuned_dimer_has_interior_maximum():
    h, spec = detuned_dimer()
    grid = np.geomspace(1e-3, 1e3, 13)
    curve = aqsim.goldilocks_sweep(h, spec, grid, t_max=300.0, tol=1e-7)
    i = curve.argmax()
    assert 0 < i < grid.size - 1
    assert curve.efficiencies[i] > curve.efficiencies[0] + 0.02
    assert curve.efficiencies[i] > curve.efficiencies[-1] + 0.02


def _no_work(monkeypatch):
    def refuse(a):
        raise AssertionError("a step matrix was computed")
    # transport imports expm when it runs, so it reads this
    monkeypatch.setattr(scipy.linalg, "expm", refuse)


def test_sweep_rejects_bad_grid(monkeypatch):
    h, spec = detuned_dimer()
    _no_work(monkeypatch)
    # non-finite points are refused before any work, not after the batch
    for grid in ([1.0, 0.5], [-1.0, 1.0], [NAN], [1.0, INF], [NAN, 1.0]):
        with pytest.raises(ValueError, match="gamma grid"):
            aqsim.goldilocks_sweep(h, spec, grid)
    for grid, eff in (([1.0, 2.0], [0.5, 1.2]), ([1.0, NAN], [0.5, 0.5]),
                      ([1.0, INF], [0.5, 0.5]), ([1.0, 2.0], [0.5, NAN])):
        with pytest.raises(ValueError):
            aqsim.EfficiencyCurve(np.array(grid), np.array(eff), (True, True), "x")


def test_efficiency_rejects_bad_tolerance(monkeypatch):
    h, spec = detuned_dimer()
    _no_work(monkeypatch)
    for tol in (NAN, -1.0, 0.0, INF):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            aqsim.transport_efficiency(h, spec, t_max=30.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            aqsim.goldilocks_sweep(h, spec, [0.5, 1.0], t_max=30.0, tol=tol)


FMO_GAMMA_GRID = np.geomspace(1e-3, 1e2, 11)


def fmo7_panel(seeds=range(1, 7)):
    """The fmo7 sigma = 0.5 disorder panel, one Hamiltonian per seed, with
    its transport spec."""
    h = aqsim.build_tight_binding(aqsim.load_network(DATA_DIR / "fmo7.net"))
    spec = TransportSpec(0, 6, 1.0, 0.05, np.zeros(7))
    return [aqsim.apply_static_disorder(h, 0.5, seed) for seed in seeds], spec


@cache
def fmo7_panel_oracle():
    """(eta, converged) of the full-space oracle at every panel point, one
    row per Hamiltonian, at t_max 600."""
    hs, spec = fmo7_panel()
    return [[transport_efficiency_full_space(h, spec.with_uniform_dephasing(gamma),
                                             t_max=600.0, tol=1e-8)[:2]
             for gamma in FMO_GAMMA_GRID] for h in hs]


def test_efficiency_matches_full_space_oracle_on_fmo_panel():
    hs, spec = fmo7_panel()
    for h, row in zip(hs, fmo7_panel_oracle()):
        for gamma, (want, want_converged) in zip(FMO_GAMMA_GRID, row):
            point = spec.with_uniform_dephasing(gamma)
            eta, converged = aqsim.transport_efficiency(h, point, t_max=600.0, tol=1e-8)
            assert abs(eta - want) <= 1e-12
            assert converged == want_converged


def test_sweep_matches_full_space_oracle_on_fmo_panel():
    hs, spec = fmo7_panel()
    for h, row in zip(hs, fmo7_panel_oracle()):
        curve = aqsim.goldilocks_sweep(h, spec, FMO_GAMMA_GRID, t_max=600.0, tol=1e-8)
        want, want_converged = zip(*row)
        assert np.abs(curve.efficiencies - want).max() <= 1e-12
        assert curve.converged == want_converged


def test_sweep_does_not_depend_on_the_chunk_width(monkeypatch):
    hs, spec = fmo7_panel()
    assert open_system._chunk_width(7) >= FMO_GAMMA_GRID.size
    whole = [aqsim.goldilocks_sweep(h, spec, FMO_GAMMA_GRID, t_max=600.0) for h in hs]
    # chunks of one point, and of 4, 4 and 3 points
    for budget, width in ((1, 1), (600_000, 4)):
        monkeypatch.setattr(open_system, "_CHUNK_BYTES", budget)
        assert open_system._chunk_width(7) == width
        for h, want in zip(hs, whole):
            curve = aqsim.goldilocks_sweep(h, spec, FMO_GAMMA_GRID, t_max=600.0)
            assert np.array_equal(curve.efficiencies, want.efficiencies)
            assert curve.converged == want.converged


def test_chunk_width_keeps_the_step_matrices_within_the_byte_budget():
    for n in (1, 2, 7, 30, 60):
        assert open_system._chunk_width(n) >= 1
    for n in (7, 30):
        step_bytes = 8 * (n * n + 2) ** 2
        assert open_system._chunk_width(n) * step_bytes <= open_system._CHUNK_BYTES


def test_transport_never_builds_the_full_space_generator(monkeypatch):
    hs, spec = fmo7_panel()
    want = fmo7_panel_oracle()  # the oracle itself runs on build_liouvillian

    def refuse(*args):
        raise AssertionError("transport built the full-space generator")
    monkeypatch.setattr(open_system, "build_liouvillian", refuse)
    monkeypatch.setattr(open_system, "Liouvillian", refuse)
    for h, row in zip(hs, want):
        curve = aqsim.goldilocks_sweep(h, spec, FMO_GAMMA_GRID, t_max=600.0, tol=1e-8)
        assert np.abs(curve.efficiencies - [eta for eta, _ in row]).max() <= 1e-12
        eta, converged = aqsim.transport_efficiency(
            h, spec.with_uniform_dephasing(FMO_GAMMA_GRID[5]), t_max=600.0, tol=1e-8)
        assert abs(eta - row[5][0]) <= 1e-12 and converged == row[5][1]


def test_efficiency_matches_runge_kutta_at_the_stop_time():
    hs, spec = fmo7_panel()
    h, point = hs[2], spec.with_uniform_dephasing(1.0)
    eta, converged = aqsim.transport_efficiency(h, point, t_max=600.0, tol=1e-8)
    _, _, t_stop = transport_efficiency_full_space(h, point, t_max=600.0, tol=1e-8)
    rho = liouvillian_runge_kutta(h, point, initial_excitation(7, 0).matrix, t_stop)
    assert converged and t_stop < 600.0
    assert abs(eta - rho[7, 7].real) <= 1e-8


def test_converged_efficiency_is_within_tol_of_eta_at_infinity():
    # a run stops once its undelivered population u is at most tol, and the
    # sink and loss registers only fill, so eta <= eta(inf) <= eta + u
    hs, spec = fmo7_panel(range(1, 11))
    for h in hs:
        want = np.array([transport_efficiency_at_infinity(h, spec.with_uniform_dephasing(g))
                         for g in FMO_GAMMA_GRID])
        for t_max in (600.0, 1000.0):
            curve = aqsim.goldilocks_sweep(h, spec, FMO_GAMMA_GRID, t_max=t_max, tol=1e-8)
            assert all(curve.converged)
            gap = want - curve.efficiencies
            assert np.all((gap >= -1e-12) & (gap <= 1e-8)), (t_max, gap)


@pytest.mark.parametrize("trap, t_max", [(5e3, 4000.0), (1e4, 1e4)])
def test_zeno_run_that_has_not_delivered_is_not_converged(trap, t_max):
    # at these trap rates the sink-site population stays near 4 J^2 / trap^2
    # times the undelivered part, below tol long before the sink has filled
    h = aqsim.build_tight_binding(aqsim.load_network(DATA_DIR / "dimer.net"))
    spec = TransportSpec(0, 1, trap, 0.0, np.full(2, 0.1))
    eta, converged = aqsim.transport_efficiency(h, spec, t_max=t_max, tol=1e-8)
    assert not converged
    assert eta < transport_efficiency_at_infinity(h, spec) - 0.01


def _counted_steps(monkeypatch):
    """A list that gets, for each batched product transport steps, its
    number of points."""
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out):
            calls.append(a.shape[0])
            np.matmul(a, b, out=out)

    monkeypatch.setattr(open_system, "np", CountingNumpy())
    return calls


def test_stepping_ends_at_the_last_stop(monkeypatch):
    hs, spec = fmo7_panel([1])
    stops = [round(transport_efficiency_full_space(
        hs[0], spec.with_uniform_dephasing(gamma), t_max=600.0, tol=1e-8)[2] / 6.0)
        for gamma in FMO_GAMMA_GRID]
    assert max(stops) < 100
    calls = _counted_steps(monkeypatch)
    curve = aqsim.goldilocks_sweep(hs[0], spec, FMO_GAMMA_GRID, t_max=600.0, tol=1e-8)
    assert all(curve.converged)
    assert calls == [FMO_GAMMA_GRID.size] * max(stops)
    # a Zeno dimer row never stops and steps to the horizon
    calls.clear()
    h = aqsim.build_tight_binding(aqsim.load_network(DATA_DIR / "dimer.net"))
    zeno = TransportSpec(0, 1, 5e3, 0.0, np.full(2, 0.1))
    assert not aqsim.transport_efficiency(h, zeno, t_max=4000.0, tol=1e-8)[1]
    assert calls == [1] * 100


def _patched_step(monkeypatch, change):
    real = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: change(real, a))


def _patched_points(monkeypatch, changes):
    """Patch expm so that the k-th step matrix of a stack gets changes[k]."""
    def change(expm, a):
        return np.array([fault(expm, m) for fault, m in zip(changes, a)])
    _patched_step(monkeypatch, change)


def test_scaled_step_raises_trace_drift(monkeypatch):
    _patched_step(monkeypatch, lambda expm, a: 1.01 * expm(a))
    with pytest.raises(StateInvariantError, match="trace drift"):
        aqsim.transport_efficiency(*detuned_dimer(), t_max=300.0, tol=1e-8)


def test_backward_step_raises_negative_eigenvalue(monkeypatch):
    # expm(-L dt) runs time backwards: the sink and loss registers give
    # up population they never had, at trace 1 and Hermitian
    _patched_step(monkeypatch, lambda expm, a: expm(-a))
    with pytest.raises(StateInvariantError, match="negative eigenvalue"):
        aqsim.transport_efficiency(*detuned_dimer(), t_max=300.0, tol=1e-8)


def test_step_failing_after_the_stop_does_not_raise(monkeypatch):
    h, spec = detuned_dimer()
    _, converged, t_stop = transport_efficiency_full_space(h, spec, t_max=300.0, tol=1e-8)
    stop = round(t_stop / 3.0)
    assert converged and stop < 100
    # the trace drifts by about eps per checkpoint and passes TRACE_TOL
    # between the stop and the checkpoint after it
    eps = TRACE_TOL / (stop + 0.5)
    _patched_step(monkeypatch, lambda expm, a: (1.0 + eps) * expm(a))
    eta, converged = aqsim.transport_efficiency(h, spec, t_max=300.0, tol=1e-8)
    assert converged and eta > 0.0
    # the same steps checked up to the horizon do fail
    with pytest.raises(StateInvariantError, match="trace drift"):
        aqsim.transport_efficiency(h, spec, t_max=300.0, tol=1e-300)


def test_sweep_raises_the_first_failure_in_grid_order(monkeypatch):
    h, spec = detuned_dimer()
    grid = np.array([0.5, 1.0, 2.0])
    # at tol 1e-300 no run stops early: the drifting point passes TRACE_TOL
    # near checkpoint 50, the backward one goes negative at checkpoint 1, so
    # only a point-by-point order puts the drift first
    eps = TRACE_TOL / 50.0
    clean = lambda expm, a: expm(a)
    drift = lambda expm, a: (1.0 + eps) * expm(a)
    backward = lambda expm, a: expm(-a)
    for faults, message in (((clean, drift, backward), "trace drift"),
                            ((clean, backward, drift), "negative eigenvalue")):
        monkeypatch.undo()
        _patched_points(monkeypatch, faults[1:2])
        with pytest.raises(StateInvariantError, match=message) as alone:
            aqsim.transport_efficiency(h, spec.with_uniform_dephasing(grid[1]),
                                       t_max=30.0, tol=1e-300)
        monkeypatch.undo()
        _patched_points(monkeypatch, faults)
        with pytest.raises(StateInvariantError) as swept:
            aqsim.goldilocks_sweep(h, spec, grid, t_max=30.0, tol=1e-300)
        assert str(swept.value) == str(alone.value)


def test_sink_population_out_of_range_raises_after_its_states_pass(monkeypatch):
    # the faulty step moves the source population to the sink at 1 + 1.05e-8
    # and to the loss register at -1e-8: the trace and positivity checks pass,
    # the sink's range does not
    h, spec = detuned_dimer()
    n = spec.n_sites
    source = spec.source_site * (n + 1)

    def overfill(expm, a):
        step = np.eye(a.shape[0])
        step[:, source] = 0.0
        step[[n * n, n * n + 1], source] = [1.0 + 1.05e-8, -1e-8]
        return step
    backward = lambda expm, a: expm(-a)
    message = r"sink population 1\.0000000105 outside \[0, 1\]"
    _patched_points(monkeypatch, (overfill,))
    with pytest.raises(StateInvariantError, match=message):
        aqsim.transport_efficiency(h, spec, t_max=30.0)
    # as one by one in grid order: the range error of point 0 wins over the
    # negative eigenvalue of point 1, and with the points swapped it loses
    for faults, want in (((overfill, backward), message),
                         ((backward, overfill), "negative eigenvalue")):
        monkeypatch.undo()
        _patched_points(monkeypatch, faults)
        with pytest.raises(StateInvariantError, match=want):
            aqsim.goldilocks_sweep(h, spec, [0.5, 1.0], t_max=30.0)


def test_overflowed_step_matrix_is_a_numerical_failure():
    # expm of a 1e300 trap rate times the step comes back with NaN entries
    # and no warning: a failed computation, not a violated invariant of a
    # finite one
    h, spec = detuned_dimer()
    flooded = replace(spec, trap_rate=1e300)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"grid point 0 .*trap_rate 1e\+300\) has non-finite entries"):
        aqsim.transport_efficiency(h, flooded, t_max=300.0)
    with pytest.raises(np.linalg.LinAlgError, match="grid point 0 "):
        aqsim.goldilocks_sweep(h, flooded, [0.5, 1.0], t_max=300.0)
    gen = build_liouvillian(h, flooded)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite entries at t = 1"):
        aqsim.evolve(initial_excitation(2, 0), gen, 1.0)


def test_sweep_names_the_first_overflowed_point_after_the_points_before_it(monkeypatch):
    h, spec = detuned_dimer()
    grid = np.array([0.5, 1.0, 2.0])
    clean = lambda expm, a: expm(a)
    backward = lambda expm, a: expm(-a)
    overflow = lambda expm, a: np.full_like(a, np.nan)
    _patched_points(monkeypatch, (clean, overflow, backward))
    with pytest.raises(np.linalg.LinAlgError, match=r"grid point 1 \(dephasing rates up to 1,"):
        aqsim.goldilocks_sweep(h, spec, grid, t_max=30.0)
    # a point before the overflowed one still fails first, as one by one
    monkeypatch.undo()
    _patched_points(monkeypatch, (backward, overflow, clean))
    with pytest.raises(StateInvariantError, match="negative eigenvalue"):
        aqsim.goldilocks_sweep(h, spec, grid, t_max=30.0)


def test_sweep_names_the_first_imprecise_point_after_the_points_before_it(monkeypatch):
    # at a dephasing rate of 1e12 expm(G dt) is finite but keeps too few
    # bits: its trace drifts, by a defect its rounding accounts for
    h, spec = detuned_dimer()
    grid = np.array([0.5, 1.0, 1e12])
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"grid point 2 \(dephasing rates up to 1e\+12, trap_rate 1\) "
                             r"keeps too few significant bits: its probability defect "
                             r"2\.095e-06 is within its rounding eps \* \|\|G dt\|\|_1 = "
                             r"6\.661e-05, and the trace drift 6\.057e-07 at checkpoint 1 "
                             r"within 1 times that"):
        aqsim.goldilocks_sweep(h, spec, grid, t_max=30.0)
    # a point before it still fails first, as one by one
    clean = lambda expm, a: expm(a)
    backward = lambda expm, a: expm(-a)
    _patched_points(monkeypatch, (clean, backward, clean))
    with pytest.raises(StateInvariantError, match="negative eigenvalue"):
        aqsim.goldilocks_sweep(h, spec, grid, t_max=30.0)


def test_drift_the_step_rounding_cannot_explain_raises_trace_drift(monkeypatch):
    # a stepping fault leaks 1e-3 into site 0 at every checkpoint; the step
    # matrices are expm's own, their defect within their rounding, even at
    # the imprecise 1e12, but the drift is beyond what that rounding sums to
    class LeakyNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out):
            np.matmul(a, b, out=out)
            out[:, 0] += 1e-3

    monkeypatch.setattr(open_system, "np", LeakyNumpy())
    h, spec = detuned_dimer()
    for grid in ([1.0], [1e12]):
        with pytest.raises(StateInvariantError, match=r"trace drift 1\.00\de-03 exceeds"):
            aqsim.goldilocks_sweep(h, spec, grid, t_max=30.0)


def test_step_with_an_entry_beyond_two_is_a_numerical_failure():
    # on the 21-site chain at trap 1e10 and t_max 1e4, expm's squarings lose
    # the step: its entries reach 1e100 and more, where no exact step's exceed 2
    h = aqsim.build_tight_binding(aqsim.load_network(DATA_DIR / "chain21.net"))
    spec = TransportSpec(0, 20, 1e10, 0.0, np.full(21, 0.1))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"grid point 0 \(dephasing rates up to 0\.1, trap_rate 1e\+10\) "
                             r"keeps too few significant bits: it has an entry of \S+e\+\d+, "
                             r"and no step of its trace-preserving generator has one beyond 2"):
        aqsim.transport_efficiency(h, spec, t_max=1e4)


def test_generator_that_breaks_the_trace_raises_trace_drift(monkeypatch):
    # a sink fed from the source population is a bookkeeping fault, also
    # where its steps have entries far beyond 2
    real = open_system._real_generators

    def misfed(h, spec, rates):
        gen = real(h, spec, rates)
        feeds = np.array([spec.sink_site, spec.source_site]) * (spec.n_sites + 1)
        gen[:, spec.n_sites ** 2, feeds] = [0.0, spec.trap_rate]
        return gen

    monkeypatch.setattr(open_system, "_real_generators", misfed)
    h, spec = detuned_dimer()
    for trap_rate in (1.0, 1e6, 1e20):
        with pytest.raises(StateInvariantError, match="trace drift"):
            aqsim.goldilocks_sweep(h, replace(spec, trap_rate=trap_rate), [1.0], t_max=300.0)


def test_stack_check_reports_the_first_failing_state_and_test():
    # each stack of Hermitian states is also checked as transport passes it,
    # in real coordinates: R = Re rho + Im rho of the 2 x 2 site block (R_ij
    # at i + 2 j) plus the two register populations, and must fail the same way
    def coordinates(stack):
        blocks = stack[:, :2, :2]
        return np.hstack([(blocks.real + blocks.imag).transpose(0, 2, 1).reshape(-1, 4),
                          np.diagonal(stack[:, 2:, 2:], axis1=1, axis2=2).real])

    good = initial_excitation(2, 0).matrix
    heavy = 1.5 * good  # trace drift 0.5
    lopsided = good + np.diag([0.0, 0.0, 0.2, -0.2])  # eigenvalue -0.2
    skew = heavy + np.triu(np.full((4, 4), 1e-3), 1)  # not Hermitian, drift 0.5
    nan = np.full((4, 4), np.nan)
    cases = [([good, heavy, nan], "trace drift 5.000e-01"),
             ([good, nan, heavy], "non-finite"),
             ([good, 1.25 * good, heavy], "trace drift 2.500e-01"),
             ([good, skew], "not Hermitian"),
             ([lopsided, heavy], "negative eigenvalue -2.000e-01")]
    open_system._check_states(np.array([good, good]))
    open_system._check_coordinates(coordinates(np.array([good, good])), 2)
    for states, message in cases:
        stack = np.array(states)
        with pytest.raises(StateInvariantError, match=message) as embedded:
            open_system._check_states(stack)
        if message == "not Hermitian":
            continue  # no coordinate vector stands for a non-Hermitian block
        with pytest.raises(StateInvariantError) as split:
            open_system._check_coordinates(coordinates(stack), 2)
        assert str(split.value) == str(embedded.value)


def test_real_coordinates_map_back_to_hermitian_site_blocks():
    rng = np.random.default_rng(113)
    for n in range(1, 8):
        x = rng.normal(size=(20, n * n))
        blocks = open_system._site_blocks(x, n)
        assert np.array_equal(blocks, blocks.conj().transpose(0, 2, 1))
        assert np.array_equal(np.diagonal(blocks, axis1=1, axis2=2), x[:, ::n + 1])
        norms = np.linalg.norm(blocks, axis=(1, 2))
        assert np.abs(norms - np.linalg.norm(x, axis=1)).max() <= 1e-15 * norms.max()
        # R_ij at i + n j; Re + Im undoes the map up to the rounding of
        # (R_ij + R_ji) / 2 and (R_ij - R_ji) / 2
        back = (blocks.real + blocks.imag).transpose(0, 2, 1).reshape(-1, n * n)
        assert np.abs(back - x).max() <= 2 * np.finfo(float).eps * np.abs(x).max()


def _density_matrix(coords, n):
    """The (n + 2) x (n + 2) matrix of real coordinates: the site block
    mapped back, the sink and loss populations, and no site-register
    coherences."""
    rho = np.zeros((n + 2, n + 2), dtype=complex)
    rho[:n, :n] = open_system._site_blocks(coords[:n * n], n)[0]
    rho[n, n], rho[n + 1, n + 1] = coords[n * n:]
    return rho


def test_real_generator_acts_as_the_liouvillian():
    # the site-register coherences of L rho must come out 0: the
    # coordinates span an invariant subspace
    rng = np.random.default_rng(1130)
    for _ in range(250):
        h, spec = random_transport_instance(rng, max_sites=6)
        n, gen = spec.n_sites, build_liouvillian(h, spec).matrix
        x = rng.normal(size=n * n + 2)
        real_gen = open_system._real_generators(h, spec, spec.dephasing_rates[np.newaxis])[0]
        got = _density_matrix(real_gen @ x, n)
        want = (gen @ _density_matrix(x, n).reshape(-1, order="F")).reshape(got.shape, order="F")
        assert np.abs(got - want).max() <= 1e-14 * np.abs(gen).max()


def test_dephasing_is_a_diagonal_shift_in_real_coordinates():
    rng = np.random.default_rng(1131)
    for _ in range(250):
        h, spec = random_transport_instance(rng, max_sites=6)
        n, gamma = spec.n_sites, spec.dephasing_rates
        full, bare = open_system._real_generators(h, spec, np.array([gamma, np.zeros(n)]))
        # entry i + n j decays at (gamma_i + gamma_j) / 2 for i != j;
        # populations and registers do not decay
        damping = [0.5 * (gamma[i] + gamma[j]) if i != j else 0.0
                   for j in range(n) for i in range(n)] + [0.0, 0.0]
        scale = np.abs(build_liouvillian(h, spec).matrix).max()
        assert np.abs(full - (bare - np.diag(damping))).max() <= 1e-14 * scale


def test_efficiency_matches_full_space_oracle_on_random_instances():
    # complex couplings and a different dephasing rate on every site
    rng = np.random.default_rng(2009)
    for _ in range(100):
        h, spec = random_transport_instance(rng, max_sites=6)
        eta, converged = aqsim.transport_efficiency(h, spec, t_max=60.0, tol=1e-8)
        want, want_converged, _ = transport_efficiency_full_space(
            h, spec, t_max=60.0, tol=1e-8)
        assert abs(eta - want) <= 1e-12
        assert converged == want_converged


def _symmetric_instances(rng, h, spec):
    """Transport instances with the same efficiency as (h, spec)."""
    n, m = spec.n_sites, h.matrix
    to = rng.permutation(n)  # site k becomes site to[k]
    moved = np.empty_like(m)
    moved[np.ix_(to, to)] = m
    rates = np.empty(n)
    rates[to] = spec.dephasing_rates
    relabelled = replace(spec, source_site=int(to[spec.source_site]),
                         sink_site=int(to[spec.sink_site]), dephasing_rates=rates)
    phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    return {
        "site permutation": (aqsim.Hamiltonian(moved), relabelled),
        "gauge": (aqsim.Hamiltonian(phases[:, np.newaxis] * m * phases.conj()), spec),
        "time reversal": (aqsim.Hamiltonian(-m.conj()), spec),
        "energy shift": (aqsim.Hamiltonian(m + rng.uniform(-3.0, 3.0) * np.eye(n)), spec),
    }


def test_efficiency_is_invariant_under_relabelling_gauge_time_reversal_and_shift():
    # the gauge and time-reversal cases reach the Im H terms of the
    # generator, which a real Hamiltonian leaves at zero
    rng = np.random.default_rng(1601)
    conjugate_shift = 0.0
    for _ in range(60):
        h, spec = random_transport_instance(rng, max_sites=6)
        want, want_converged = aqsim.transport_efficiency(h, spec, t_max=60.0, tol=1e-8)
        for name, (other, other_spec) in _symmetric_instances(rng, h, spec).items():
            eta, converged = aqsim.transport_efficiency(other, other_spec, t_max=60.0, tol=1e-8)
            assert abs(eta - want) <= 1e-14, name
            assert converged == want_converged, name
        conj, _ = aqsim.transport_efficiency(aqsim.Hamiltonian(h.matrix.conj()), spec,
                                             t_max=60.0, tol=1e-8)
        conjugate_shift = max(conjugate_shift, abs(conj - want))
    # H -> conj(H) alone is not a symmetry
    assert conjugate_shift > 1e-3
