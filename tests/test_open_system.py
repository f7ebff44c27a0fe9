import numpy as np
import pytest

import aqsim
from aqsim import (DensityMatrix, NoSinkError, StateInvariantError,
                   TransportSpec, WalkState)
from aqsim.hamiltonians import NetworkError
from aqsim.open_system import build_liouvillian, initial_excitation

from conftest import detuned_dimer, make_chain
from oracles import (liouvillian_runge_kutta, random_density_matrix,
                     random_transport_instance)

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
        want = liouvillian_runge_kutta(gen.matrix, rho0.matrix, t)
        assert np.abs(out.matrix - want).max() <= 1e-8


def test_evolve_rejects_bad_arguments():
    h, spec = detuned_dimer()
    gen = build_liouvillian(h, spec)
    rho = initial_excitation(2, 0)
    with pytest.raises(ValueError):
        aqsim.evolve(rho, gen, -1.0)
    with pytest.raises(ValueError):
        aqsim.evolve(initial_excitation(3, 0), gen, 1.0)


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


def test_sweep_rejects_bad_grid():
    h, spec = detuned_dimer()
    with pytest.raises(ValueError):
        aqsim.goldilocks_sweep(h, spec, [1.0, 0.5])
    with pytest.raises(ValueError):
        aqsim.goldilocks_sweep(h, spec, [-1.0, 1.0])
    with pytest.raises(ValueError):
        aqsim.EfficiencyCurve(np.array([1.0, 2.0]), np.array([0.5, 1.2]),
                              (True, True), "x", spec, 10.0, 1e-8)
