import numpy as np
import pytest
from scipy.stats import linregress

import aqsim
from aqsim import DephasingEnsembleSpec, WalkState

from conftest import make_chain, make_ring
from oracles import chain_walk_populations, classical_segment_walk


def test_time_zero_identity():
    h = make_chain(4)
    state = aqsim.evolve_unitary(h, 2, 0.0)
    want = np.zeros(4)
    want[2] = 1.0
    assert np.array_equal(state.populations(), want)


def test_input_mode_range():
    h = make_chain(3)
    with pytest.raises(ValueError):
        aqsim.evolve_unitary(h, 3, 1.0)
    with pytest.raises(ValueError):
        aqsim.evolve_unitary(h, 0, -1.0)


def test_fifty_fifty_coupler():
    h = make_chain(2)
    pops = aqsim.evolve_unitary(h, 0, np.pi / 4).populations()
    assert pops == pytest.approx([0.5, 0.5], abs=1e-12)


def test_chain_matches_closed_form_modes():
    # analytic sine-mode eigensystem of the open chain as the oracle
    for n, mode, t in [(3, 0, 1.7), (3, 1, 4.0), (7, 2, 3.3)]:
        got = aqsim.evolve_unitary(make_chain(n), mode, t).populations()
        assert np.abs(got - chain_walk_populations(n, mode, t)).max() <= 1e-10


def test_norm_preserved():
    h = make_chain(5)
    for t in (0.3, 2.0, 17.0):
        amps = aqsim.evolve_unitary(h, 2, t).amplitudes
        assert abs(np.vdot(amps, amps).real - 1.0) <= 1e-10


def test_semigroup_property():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = aqsim.Hamiltonian(0.5 * (a + a.conj().T))
    one = aqsim.evolve_unitary(h, 1, 0.9 + 1.4).amplitudes
    u = aqsim.propagator(h, 1.4)
    two = u @ aqsim.evolve_unitary(h, 1, 0.9).amplitudes
    assert np.abs(one - two).max() <= 1e-9


def test_walk_state_norm_guard():
    with pytest.raises(ValueError):
        WalkState(np.array([1.0, 0.5]), 0.0)


def test_large_chain_matches_small_chain_in_the_bulk():
    # far from both boundaries a long chain evolves like a short one
    n = 515
    h = make_chain(n)
    t = 1.3
    state = aqsim.evolve_unitary(h, n // 2, t)
    assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) <= 1e-10
    small = aqsim.evolve_unitary(make_chain(51), 25, t).populations()
    mid = state.populations()[n // 2 - 25: n // 2 + 26]
    assert np.abs(mid - small).max() <= 1e-8  # far from both boundaries


def test_length_time_conversion():
    assert aqsim.length_to_time(0.0, 1.5) == 0.0
    want = 1.5 * 0.03 / 299_792_458.0
    assert aqsim.length_to_time(0.03, 1.5) == want
    z = 0.0473
    back = aqsim.time_to_length(aqsim.length_to_time(z, 1.46), 1.46)
    assert back == pytest.approx(z, rel=1e-15)
    with pytest.raises(ValueError):
        aqsim.length_to_time(1.0, 0.0)
    with pytest.raises(ValueError):
        aqsim.length_to_time(-1.0, 1.5)
    with pytest.raises(ValueError):
        aqsim.time_to_length(1.0, -2.0)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        DephasingEnsembleSpec(0, 0.1, 10, 1)
    with pytest.raises(ValueError):
        DephasingEnsembleSpec(4, -0.1, 10, 1)
    with pytest.raises(ValueError):
        DephasingEnsembleSpec(4, 0.1, 0, 1)  # zero shots


def test_dephased_walk_noiseless_equals_unitary():
    h = make_chain(4)
    spec = DephasingEnsembleSpec(n_segments=8, phase_sigma=0.0, shots=3, seed=5)
    got = aqsim.dephased_walk(h, 1, 2.7, spec)
    want = aqsim.evolve_unitary(h, 1, 2.7).populations()
    assert np.array_equal(got, want)


def test_dephased_walk_seed_determinism():
    h = make_chain(4)
    spec = DephasingEnsembleSpec(n_segments=10, phase_sigma=0.4, shots=64, seed=77)
    a = aqsim.dephased_walk(h, 0, 3.0, spec)
    b = aqsim.dephased_walk(h, 0, 3.0, spec)
    assert np.array_equal(a, b)
    other = DephasingEnsembleSpec(10, 0.4, 64, 78)
    assert not np.array_equal(a, aqsim.dephased_walk(h, 0, 3.0, other))


def test_strong_dephasing_ring_approaches_uniform():
    # fully randomized phases turn the walk into the classical |U|^2 chain
    n, tau, segs = 5, 0.3, 40
    h = make_ring(n)
    spec = DephasingEnsembleSpec(segs, 2 * np.pi, 20_000, seed=99)
    got = aqsim.dephased_walk(h, 0, tau * segs, spec)
    oracle = classical_segment_walk(aqsim.propagator(h, tau), 0, segs)
    noise = np.sqrt(got * (1 - got) / spec.shots)
    assert np.all(np.abs(got - oracle) <= 3 * noise + 1e-4)
    assert np.abs(got - 1.0 / n).max() <= 0.02


def test_ensemble_matches_lindblad_at_equivalent_rate():
    # gamma = phase_sigma^2 * n_segments / t reproduces Lindblad dephasing
    h = make_chain(3)
    t, gamma = 2.0, 0.5
    spec_open = aqsim.TransportSpec(0, 2, 0.0, 0.0, np.full(3, gamma))
    gen = aqsim.build_liouvillian(h, spec_open)
    lind = aqsim.evolve(aqsim.initial_excitation(3, 0), gen, t).populations()[:3]
    for segs in (40, 80):  # also checks convergence in the discretization
        sigma = np.sqrt(gamma * t / segs)
        spec = DephasingEnsembleSpec(segs, sigma, 10_000, seed=4242)
        assert aqsim.equivalent_dephasing_rate(spec, t) == pytest.approx(gamma)
        pops = aqsim.dephased_walk(h, 0, t, spec)
        noise = np.sqrt(pops * (1 - pops) / spec.shots)
        assert np.all(np.abs(pops - lind) <= 5 * np.maximum(noise, 1e-4))


def test_spreading_coherent_ballistic():
    h = make_chain(21)
    stats = aqsim.spreading_stats(h, 10, np.arange(0.0, 4.5, 0.5))
    assert stats[0] == (0.0, 0.0)
    ts = np.array([t for t, _ in stats[1:]])
    sig = np.array([s for _, s in stats[1:]])
    # ballistic: sigma = sqrt(2) C t while the wavefront is far from the edge
    early = ts <= 2.5
    assert np.abs(sig[early] - np.sqrt(2.0) * ts[early]).max() <= 1e-6
    fit = linregress(ts, sig)
    assert fit.rvalue ** 2 >= 0.999


def test_spreading_requires_centered_input():
    h = make_chain(21)
    with pytest.raises(ValueError, match="not centered"):
        aqsim.spreading_stats(h, 3, [1.0])
    with pytest.raises(ValueError):
        aqsim.spreading_stats(make_chain(4), 2, [1.0])  # even chain
    with pytest.raises(ValueError):
        aqsim.spreading_stats(h, 10, [2.0, 1.0])  # not ascending


def test_spreading_dephased_diffusive():
    h = make_chain(41)
    times = np.array([3.0, 6.0, 9.0, 12.0])
    spec = DephasingEnsembleSpec(n_segments=24, phase_sigma=2 * np.pi,
                                 shots=2000, seed=31)
    stats = aqsim.spreading_stats(h, 20, times, dephasing=spec)
    sig = np.array([s for _, s in stats])
    # segment duration tau = 0.5 held fixed: sigma^2 = 2 C^2 tau t exactly
    assert np.abs(sig ** 2 - times).max() <= 0.12
    fit = linregress(np.log(times), np.log(sig))
    assert abs(fit.slope - 0.5) <= 0.1


def test_spreading_dephased_times_must_align():
    h = make_chain(21)
    spec = DephasingEnsembleSpec(n_segments=10, phase_sigma=1.0, shots=10, seed=1)
    with pytest.raises(ValueError, match="multiple"):
        aqsim.spreading_stats(h, 10, [1.05, 2.0], dephasing=spec)
