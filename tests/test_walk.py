import threading

import numpy as np
import pytest
from scipy.stats import linregress

import aqsim
from aqsim import DephasingEnsembleSpec, StateInvariantError, WalkState

from aqsim import walk

from conftest import make_chain, make_ring
from oracles import (chain_eigensystem, chain_walk_populations,
                     classical_segment_walk, ensemble_populations_by_segment,
                     mean_dephasing_channel)


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
    with pytest.raises(ValueError, match="input mode must be an integer"):
        aqsim.evolve_unitary(h, 0.9, 1.0)
    assert aqsim.evolve_unitary(h, np.int64(1), 0.0).populations()[1] == 1.0
    spec = DephasingEnsembleSpec(4, 0.3, 8, 1)
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            aqsim.evolve_unitary(h, 0, t)
        with pytest.raises(ValueError, match="finite"):
            aqsim.dephased_walk(h, 0, t, spec)
    with pytest.raises(ValueError, match="input mode must be an integer"):
        aqsim.dephased_walk(h, 0.9, 1.0, spec)


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
    for bad in (np.nan, np.inf):
        for args in ((bad, 1.5), (1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                aqsim.length_to_time(*args)
            with pytest.raises(ValueError, match="finite"):
                aqsim.time_to_length(*args)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        DephasingEnsembleSpec(0, 0.1, 10, 1)
    with pytest.raises(ValueError):
        DephasingEnsembleSpec(4, -0.1, 10, 1)
    with pytest.raises(ValueError):
        DephasingEnsembleSpec(4, 0.1, 0, 1)  # zero shots
    # non-integral counts and seeds are refused, not truncated
    for args, name in (((2.5, 0.3, 3, 1), "n_segments"), ((2, 0.3, 3.9, 1), "shots"),
                       ((2, 0.3, 3, 1.5), "seed")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            DephasingEnsembleSpec(*args)
    spec = DephasingEnsembleSpec(np.int64(2), 0.3, np.int32(3), np.uint64(2**63))
    assert (spec.n_segments, spec.shots, spec.seed) == (2, 3, 2**63)
    # above 1/eps a phase carries no bits mod 2 pi
    assert DephasingEnsembleSpec(2, 2.0 ** 52, 3, 1).phase_sigma == 2.0 ** 52
    for sigma in (np.nextafter(2.0 ** 52, np.inf), 1.7e308, np.inf, np.nan):
        with pytest.raises(ValueError, match="phase_sigma must be finite and in"):
            DephasingEnsembleSpec(2, sigma, 3, 1)
    # the equivalent rate needs a positive, finite total time
    for t in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            aqsim.equivalent_dephasing_rate(spec, t)


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
    stats = aqsim.spreading_stats(h, np.arange(0.0, 4.5, 0.5))
    assert stats[0] == (0.0, 0.0)
    ts = np.array([t for t, _ in stats[1:]])
    sig = np.array([s for _, s in stats[1:]])
    # ballistic: sigma = sqrt(2) C t while the wavefront is far from the edge
    early = ts <= 2.5
    assert np.abs(sig[early] - np.sqrt(2.0) * ts[early]).max() <= 1e-6
    fit = linregress(ts, sig)
    assert fit.rvalue ** 2 >= 0.999


def test_spreading_requires_odd_chain_and_ascending_times():
    h = make_chain(21)
    with pytest.raises(ValueError):
        aqsim.spreading_stats(make_chain(4), [1.0])  # even chain: no middle site
    with pytest.raises(ValueError):
        aqsim.spreading_stats(h, [2.0, 1.0])  # not ascending


def test_spreading_dephased_diffusive():
    h = make_chain(41)
    times = np.array([3.0, 6.0, 9.0, 12.0])
    spec = DephasingEnsembleSpec(n_segments=24, phase_sigma=2 * np.pi,
                                 shots=2000, seed=31)
    stats = aqsim.spreading_stats(h, times, dephasing=spec)
    sig = np.array([s for _, s in stats])
    # segment duration tau = 0.5 held fixed: sigma^2 = 2 C^2 tau t exactly
    assert np.abs(sig ** 2 - times).max() <= 0.12
    fit = linregress(np.log(times), np.log(sig))
    assert abs(fit.slope - 0.5) <= 0.1


def test_spreading_dephased_times_must_align():
    h = make_chain(21)
    spec = DephasingEnsembleSpec(n_segments=10, phase_sigma=1.0, shots=10, seed=1)
    with pytest.raises(ValueError, match="multiple"):
        aqsim.spreading_stats(h, [1.05, 2.0], dephasing=spec)
    # non-finite times are refused before any shot runs; a NaN would pass
    # the alignment test, since every comparison with it is false
    for times in ([1.0, np.inf], [np.nan, 2.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            aqsim.spreading_stats(h, times, dephasing=spec)


CHUNK_CHAIN, CHUNK_SEGS, CHUNK_SIGMA, CHUNK_SEED = 21, 12, 0.7, 2024
# the kick arithmetic differs from the oracle's exp(-1j * phases): agreement
# to within a few ulps of a unit population, not bit for bit
ORACLE_ATOL = 1e-14


def _chunk_shot_counts():
    chunk = walk._chunk_width(CHUNK_SEGS, CHUNK_CHAIN)
    return [1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3]


def _use_16_shot_chunks(monkeypatch):
    # a budget of 21 shots' phases (one row per kick), rounded down to
    # chunks of 16
    monkeypatch.setattr(walk, "_PHASE_BYTES", 21 * 8 * (CHUNK_SEGS - 1) * CHUNK_CHAIN)
    assert walk._chunk_width(CHUNK_SEGS, CHUNK_CHAIN) == 16


@pytest.mark.parametrize("shots", _chunk_shot_counts())
def test_dephased_walk_is_chunk_invariant(monkeypatch, shots):
    # one bulk draw per shot gives the same bytes in one chunk or in many
    h = make_chain(CHUNK_CHAIN)
    spec = DephasingEnsembleSpec(CHUNK_SEGS, CHUNK_SIGMA, shots, CHUNK_SEED)
    whole = aqsim.dephased_walk(h, 10, 3.0, spec)
    _use_16_shot_chunks(monkeypatch)
    assert np.array_equal(aqsim.dephased_walk(h, 10, 3.0, spec), whole)


@pytest.mark.parametrize("shots", _chunk_shot_counts())
def test_dephased_walk_matches_segment_by_segment_ensemble(shots):
    h = make_chain(CHUNK_CHAIN)
    t = 3.0
    spec = DephasingEnsembleSpec(CHUNK_SEGS, CHUNK_SIGMA, shots, CHUNK_SEED)
    got = aqsim.dephased_walk(h, 10, t, spec)
    want = ensemble_populations_by_segment(h, 10, t / CHUNK_SEGS, CHUNK_SEGS,
                                           CHUNK_SIGMA, shots, CHUNK_SEED)
    np.testing.assert_allclose(got, want[CHUNK_SEGS], rtol=0, atol=ORACLE_ATOL)


SPREAD_TAU = 0.25
SPREAD_SEGS = [0, 3, 7, CHUNK_SEGS]
SPREAD_TIMES = SPREAD_TAU * np.array(SPREAD_SEGS)


@pytest.mark.parametrize("shots", _chunk_shot_counts())
def test_spreading_stats_are_chunk_invariant(monkeypatch, shots):
    h = make_chain(CHUNK_CHAIN)
    spec = DephasingEnsembleSpec(CHUNK_SEGS, CHUNK_SIGMA, shots, CHUNK_SEED)
    whole = aqsim.spreading_stats(h, SPREAD_TIMES, dephasing=spec)
    _use_16_shot_chunks(monkeypatch)
    assert aqsim.spreading_stats(h, SPREAD_TIMES, dephasing=spec) == whole


@pytest.mark.parametrize("shots", _chunk_shot_counts())
def test_spreading_stats_match_segment_by_segment_ensemble(shots):
    h = make_chain(CHUNK_CHAIN)
    spec = DephasingEnsembleSpec(CHUNK_SEGS, CHUNK_SIGMA, shots, CHUNK_SEED)
    got = aqsim.spreading_stats(h, SPREAD_TIMES, dephasing=spec)
    pops = ensemble_populations_by_segment(h, 10, SPREAD_TAU, CHUNK_SEGS,
                                           CHUNK_SIGMA, shots, CHUNK_SEED,
                                           sample_at=SPREAD_SEGS)
    offsets = np.arange(CHUNK_CHAIN) - 10
    want = [np.sqrt(np.sum(pops[k] * offsets ** 2)) for k in SPREAD_SEGS]
    assert [t for t, _ in got] == list(SPREAD_TIMES)
    np.testing.assert_allclose([s for _, s in got], want, rtol=0, atol=ORACLE_ATOL)


# many chunks, a lone trailing shot, and sample points at zero, repeated and
# out of order
SMALL_SHOTS = [1, 15, 16, 17, 33, 35, 49]
SMALL_SAMPLE_AT = [0, 5, 5, CHUNK_SEGS, 2]


@pytest.mark.parametrize("shots", SMALL_SHOTS)
def test_small_chunks_match_default_chunks(monkeypatch, shots):
    h = make_chain(CHUNK_CHAIN)
    spec = DephasingEnsembleSpec(CHUNK_SEGS, CHUNK_SIGMA, shots, CHUNK_SEED)
    args = (h, 10, 0.25, spec)
    whole = walk._ensemble_populations(*args, sample_at=SMALL_SAMPLE_AT)
    _use_16_shot_chunks(monkeypatch)
    got = walk._ensemble_populations(*args, sample_at=SMALL_SAMPLE_AT)
    assert list(got) == list(whole) == [0, 2, 5, CHUNK_SEGS]
    assert all(np.array_equal(got[k], whole[k]) for k in whole)


@pytest.mark.parametrize("shots", SMALL_SHOTS)
def test_small_chunks_match_segment_by_segment_ensemble(monkeypatch, shots):
    _use_16_shot_chunks(monkeypatch)
    h = make_chain(CHUNK_CHAIN)
    spec = DephasingEnsembleSpec(CHUNK_SEGS, CHUNK_SIGMA, shots, CHUNK_SEED)
    got = walk._ensemble_populations(h, 10, 0.25, spec, sample_at=SMALL_SAMPLE_AT)
    want = ensemble_populations_by_segment(h, 10, 0.25, CHUNK_SEGS, CHUNK_SIGMA,
                                           shots, CHUNK_SEED,
                                           sample_at=SMALL_SAMPLE_AT)
    assert list(got) == list(want) == [0, 2, 5, CHUNK_SEGS]
    for k in want:
        np.testing.assert_allclose(got[k], want[k], rtol=0, atol=ORACLE_ATOL)


KICK_ANGLES = [0.0, 1e-8, -1e-8, np.pi / 2, -np.pi / 2, np.pi - 1e-12,
               -(np.pi - 1e-12), np.pi, -np.pi, 1e3, -1e3]


@pytest.mark.parametrize("phi", [np.array(KICK_ANGLES),
                                 0.5 * np.random.default_rng(3).standard_normal(10_000),
                                 10 * np.random.default_rng(4).standard_normal(10_000)],
                         ids=["edge-angles", "sigma-0.5", "sigma-10"])
def test_half_angle_kick_is_exp_minus_i_phi(phi):
    kick = walk._half_angle_kick(np.tan(0.5 * phi), np.empty(phi.shape, dtype=complex),
                                 np.empty(phi.shape))
    assert np.abs(kick - np.exp(-1j * phi)).max() <= 1e-15
    assert np.abs(np.abs(kick) - 1.0).max() <= 1e-15


def test_long_ensemble_keeps_unit_population():
    # 2000 kicks in a row: a kick off the unit circle would compound.  On
    # uncoupled sites U is the identity, so only the kicks act (a coupled
    # chain's eigh propagator alone drifts the sum by ~1e-15 per segment)
    h = aqsim.Hamiltonian(np.zeros((5, 5)))
    spec = DephasingEnsembleSpec(n_segments=2000, phase_sigma=3.0, shots=32, seed=5)
    pops = aqsim.dephased_walk(h, 2, 200.0, spec)
    assert abs(pops.sum() - 1.0) <= 1e-12


def test_nan_population_sum_fails_the_norm_check(monkeypatch):
    # a NaN sum compares false with the drift bound and must raise, not
    # pass as no drift
    monkeypatch.setattr(walk, "propagator", lambda h, t: np.full((h.dim, h.dim), np.nan))
    spec = DephasingEnsembleSpec(n_segments=4, phase_sigma=0.5, shots=20, seed=3)
    with pytest.raises(StateInvariantError, match="ensemble populations sum to nan"):
        aqsim.dephased_walk(make_chain(2), 0, 1.0, spec)


def test_dephased_walk_matches_exact_mean_channel():
    # the infinite-shot mean, from closed-form chain modes: no Monte Carlo
    n, mode, t, segs, sigma = 21, 10, 4.0, 30, 0.5
    spec = DephasingEnsembleSpec(segs, sigma, 4000, seed=8)
    got = aqsim.dephased_walk(make_chain(n), mode, t, spec)
    energies, modes = chain_eigensystem(n)
    u_seg = (modes * np.exp(-1j * energies * t / segs)) @ modes.T
    exact = mean_dephasing_channel(u_seg, mode, segs, sigma)
    # a shot's population lies in [0, 1], so its variance is at most p(1 - p)
    noise = np.sqrt(exact * (1 - exact) / spec.shots)
    assert np.all(np.abs(got - exact) <= 5 * noise + 1e-12)


class HelperFault(Exception):
    pass


@pytest.mark.parametrize("bad_shot", [0, 20, 48])
def test_phase_draw_failure_reaches_the_caller(monkeypatch, bad_shot):
    # shots 0, 20 and 48 are drawn for the first, second and last 16-shot
    # chunk, on the helper thread; its exception type reaches the caller,
    # so the CLI's exit codes keep their meaning, and no thread outlives it
    _use_16_shot_chunks(monkeypatch)
    h = make_chain(CHUNK_CHAIN)
    spec = DephasingEnsembleSpec(CHUNK_SEGS, CHUNK_SIGMA, 49, CHUNK_SEED)
    before = threading.active_count()
    walk._ensemble_populations(h, 10, 0.25, spec)
    assert threading.active_count() == before
    default_rng = np.random.default_rng

    def failing_rng(seed):
        if seed[1] == bad_shot:
            raise HelperFault(f"shot {seed[1]}")
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", failing_rng)
    with pytest.raises(HelperFault, match=f"^shot {bad_shot}$"):
        walk._ensemble_populations(h, 10, 0.25, spec)
    assert threading.active_count() == before


@pytest.mark.parametrize("shots", [1, 17, 40])
def test_one_segment_ensemble_is_the_unitary_walk(shots):
    # one segment has no kick, hence no phases to draw: every shot is the
    # coherent walk
    h = make_chain(CHUNK_CHAIN)
    spec = DephasingEnsembleSpec(1, CHUNK_SIGMA, shots, CHUNK_SEED)
    got = aqsim.dephased_walk(h, 10, 3.0, spec)
    want = aqsim.evolve_unitary(h, 10, 3.0).populations()
    assert np.abs(got - want).max() <= 1e-15


def test_walk_beyond_the_phase_precision_raises():
    # eps * ||H|| * t above 1e-10 leaves too few bits in exp(-i lambda t);
    # the chain's max row sum is 2
    h = make_chain(CHUNK_CHAIN)
    spec = DephasingEnsembleSpec(CHUNK_SEGS, CHUNK_SIGMA, 16, CHUNK_SEED)
    t = 1e-10 / (2 * np.finfo(float).eps)
    aqsim.evolve_unitary(h, 10, t)
    for call in (lambda: aqsim.evolve_unitary(h, 10, 1.01 * t),
                 lambda: aqsim.dephased_walk(h, 10, 1.01 * t, spec),
                 lambda: aqsim.spreading_stats(h, [1.0, 1.01 * t]),
                 lambda: aqsim.spreading_stats(h, [1.01 * t], dephasing=spec)):
        with pytest.raises(np.linalg.LinAlgError, match="too few significant bits"):
            call()
