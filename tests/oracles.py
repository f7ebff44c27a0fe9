"""Independent reference computations the tests check the package against.

These deliberately avoid the code paths they validate: the generator
oracle builds the master equation one dense kron dissipator per channel
(the implementation folds every decay into one non-Hermitian H_eff and
writes one entry per jump), and the master-equation oracle builds its own
generator that way and integrates it with an adaptive Runge-Kutta stepper
(the implementation takes a dense matrix exponential of its own
generator); the full-space transport oracle steps the whole (n + 2)^2
density matrix under build_liouvillian's complex generator and validates
it checkpoint by checkpoint (the implementation writes a real generator of
the invariant site block plus the two register populations directly from
Re H, Im H and the rates, never calls build_liouvillian, and validates the
checkpoints as one stack); the chain
oracle is the closed-form eigensystem (the implementation calls a
numerical eigensolver), the Fock-state oracle filters the whole occupation
grid by its total and sorts it (the implementation places bars between
bosons, stars and bars, in combination order), the strong-dephasing oracle
is a classical Markov chain, the mean-channel oracle evolves the density
matrix of the infinite-shot ensemble, the segment-by-segment ensemble draws
each shot's phases one segment at a time over one state holding every shot
(the implementation draws a shot's phases at once and runs shots in
chunks), the Fock-space oracles find each hop's target state in a dict
of occupation tuples, one state at a time (the implementation ranks whole
batches of states), and the scan-point oracle diagonalizes the full-basis
Hamiltonian densely (the implementation solves the reversal-even sector).
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm


def _dissipator_term(a: np.ndarray) -> np.ndarray:
    d = a.shape[0]
    eye = np.eye(d)
    ada = a.conj().T @ a
    return (np.kron(a.conj(), a)
            - 0.5 * np.kron(eye, ada)
            - 0.5 * np.kron(ada.T, eye))


def liouvillian_by_kron(h, spec) -> np.ndarray:
    """Vectorized generator (column stacking) on sites + sink + loss, one
    kron dissipator D[A] per channel with A the channel's jump operator."""
    n = spec.n_sites
    d = n + 2
    sink, loss = n, n + 1
    hd = np.zeros((d, d), dtype=complex)
    hd[:n, :n] = h.matrix
    eye = np.eye(d)
    gen = -1j * (np.kron(eye, hd) - np.kron(hd.T, eye))
    for m, gamma in enumerate(spec.dephasing_rates):
        if gamma > 0:
            a = np.zeros((d, d))
            a[m, m] = 1.0
            gen = gen + gamma * _dissipator_term(a)
    if spec.trap_rate > 0:
        a = np.zeros((d, d))
        a[sink, spec.sink_site] = 1.0
        gen = gen + spec.trap_rate * _dissipator_term(a)
    if spec.recombination_rate > 0:
        for m in range(n):
            a = np.zeros((d, d))
            a[loss, m] = 1.0
            gen = gen + spec.recombination_rate * _dissipator_term(a)
    return gen


def liouvillian_runge_kutta(h, spec, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) by DOP853 on liouvillian_by_kron's generator, at tight tolerances."""
    generator = liouvillian_by_kron(h, spec)
    d = rho0.shape[0]
    sol = solve_ivp(lambda _, y: generator @ y, (0.0, t), rho0.reshape(-1, order="F"),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y[:, -1].reshape((d, d), order="F")


def transport_efficiency_full_space(h, spec, t_max: float, tol: float,
                                    checkpoints: int = 100) -> tuple:
    """(eta, converged, stop time) of a transport run on the full space.

    One step matrix expm(L t_max / checkpoints) of build_liouvillian's
    whole (n + 2)^2 generator, and a DensityMatrix validated at every
    checkpoint until the sink feed has risen above tol and dropped back
    below it (the implementation steps only the invariant site block plus
    the register populations, under a real generator it assembles
    directly, and validates the checkpoints as one stack).
    """
    from aqsim.open_system import (DensityMatrix, StateInvariantError,
                                   build_liouvillian, initial_excitation)

    gen = build_liouvillian(h, spec)
    state = initial_excitation(spec.n_sites, spec.source_site)
    sink, site = gen.sink_index, spec.sink_site
    step = expm(gen.matrix * (t_max / checkpoints))
    armed = state.population(site) > tol
    converged = False
    vec = state.matrix.reshape(-1, order="F")
    reached = 0
    for _ in range(checkpoints):
        vec = step @ vec
        reached += 1
        state = DensityMatrix(vec.reshape((gen.dim, gen.dim), order="F"))
        feed = state.population(site)
        if feed > tol:
            armed = True
        elif armed:
            converged = True
            break
    eta = state.population(sink)
    if not -1e-8 <= eta <= 1 + 1e-8:
        raise StateInvariantError(f"sink population {eta} outside [0, 1]")
    return float(min(max(eta, 0.0), 1.0)), converged, reached * t_max / checkpoints


def chain_eigensystem(n: int, coupling: float = 1.0):
    """Closed-form modes of the open uniform chain.

    Energies 2 C cos(pi k / (n+1)), modes sqrt(2/(n+1)) sin(pi k m / (n+1)).
    """
    k = np.arange(1, n + 1)
    m = np.arange(1, n + 1)
    energies = 2.0 * coupling * np.cos(np.pi * k / (n + 1))
    modes = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(m, k) * np.pi / (n + 1))
    return energies, modes


def chain_walk_populations(n: int, input_mode: int, t: float,
                           coupling: float = 1.0) -> np.ndarray:
    energies, modes = chain_eigensystem(n, coupling)
    amps = modes @ (np.exp(-1j * energies * t) * modes[input_mode])
    return np.abs(amps) ** 2


def classical_segment_walk(segment_unitary: np.ndarray, start: int,
                           n_segments: int) -> np.ndarray:
    """Fully dephased limit: populations hop with the |U|^2 transition matrix."""
    transition = np.abs(segment_unitary) ** 2
    p = np.zeros(transition.shape[0])
    p[start] = 1.0
    for _ in range(n_segments):
        p = transition @ p
    return p


def mean_dephasing_channel(segment_unitary: np.ndarray, start: int,
                           n_segments: int, sigma: float) -> np.ndarray:
    """Infinite-shot populations: rho -> D_sigma(U rho U^dag) per segment,
    where D_sigma damps every coherence by exp(-sigma^2)."""
    n = segment_unitary.shape[0]
    damp = np.full((n, n), math.exp(-sigma ** 2))
    np.fill_diagonal(damp, 1.0)
    rho = np.zeros((n, n), dtype=complex)
    rho[start, start] = 1.0
    for _ in range(n_segments):
        rho = (segment_unitary @ rho @ segment_unitary.conj().T) * damp
    return np.diagonal(rho).real.copy()


def ensemble_populations_by_segment(h, input_mode: int, tau: float,
                                    n_segments: int, phase_sigma: float,
                                    shots: int, seed: int,
                                    sample_at=None) -> dict:
    """Stochastic-phase ensemble over one (dim, shots) state, segment by
    segment, each shot drawing dim phases per segment from its (seed, k)
    stream; mean populations after each requested segment count."""
    import aqsim

    dim = h.dim
    u_seg = aqsim.propagator(h, tau)
    wanted = sorted(set(sample_at if sample_at is not None else [n_segments]))
    amps = np.zeros((dim, shots), dtype=complex)
    amps[input_mode, :] = 1.0
    base = int(np.uint64(seed % (1 << 64)))
    rngs = [np.random.default_rng(np.random.SeedSequence([base, k]))
            for k in range(shots)]
    out = {}
    if wanted and wanted[0] == 0:
        out[0] = np.abs(amps) ** 2
    for seg in range(1, n_segments + 1):
        amps = u_seg @ amps
        phases = np.empty((dim, shots))
        for k, rng in enumerate(rngs):
            phases[:, k] = rng.normal(0.0, phase_sigma, dim)
        amps *= np.exp(-1j * phases)
        if seg in wanted:
            out[seg] = np.abs(amps) ** 2
    return {seg: pops.mean(axis=1) for seg, pops in out.items()}


def random_density_matrix(rng: np.random.Generator, dim: int,
                          rank: int = 3) -> np.ndarray:
    """Random valid state: convex mixture of random pure states."""
    psi = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    weights = rng.uniform(0.1, 1.0, rank)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for w, column in zip(weights, psi.T):
        rho += w * np.outer(column, column.conj()) / np.vdot(column, column).real
    return rho


def random_transport_instance(rng: np.random.Generator, max_sites: int = 4):
    """Random small (H, spec) pair for oracle-equivalence sweeps."""
    import aqsim

    n = int(rng.integers(1, max_sites + 1))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = aqsim.Hamiltonian(0.5 * (a + a.conj().T))
    spec = aqsim.TransportSpec(
        source_site=int(rng.integers(0, n)),
        sink_site=int(rng.integers(0, n)),
        trap_rate=float(rng.uniform(0.0, 2.0)),
        recombination_rate=float(rng.uniform(0.0, 0.5)),
        dephasing_rates=rng.uniform(0.0, 2.0, n))
    return h, spec


def fock_states_by_product(n_sites: int, n_bosons: int) -> np.ndarray:
    """Every occupation row of n_bosons on n_sites, in descending order.

    Filters the whole grid range(N + 1)^L by its total and sorts the
    survivors, first site most significant.
    """
    rows = sorted((occ for occ in itertools.product(range(n_bosons + 1), repeat=n_sites)
                   if sum(occ) == n_bosons), reverse=True)
    return np.array(rows, dtype=np.int64).reshape(len(rows), n_sites)


def fock_lookup(basis) -> dict:
    """Occupation tuple -> basis position, read off the enumerated states."""
    return {tuple(int(n) for n in row): i for i, row in enumerate(basis.states)}


def hopping_matrix_by_lookup(params, basis) -> sp.csr_matrix:
    """-J sum_<j,k> (b_j^dag b_k + h.c.), one state and one edge at a time."""
    lookup = fock_lookup(basis)
    rows, cols, vals = [], [], []
    for s, state in enumerate(basis.states):
        for j, k in params.edges:
            for src, dst in ((k, j), (j, k)):
                if state[src] == 0:
                    continue
                target = state.copy()
                target[src] -= 1
                target[dst] += 1
                rows.append(lookup[tuple(int(n) for n in target)])
                cols.append(s)
                vals.append(-params.hopping * math.sqrt(state[src] * (state[dst] + 1)))
    dim = len(basis)
    return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def one_body_density_matrix_by_lookup(psi: np.ndarray, basis) -> np.ndarray:
    """<b_i^dag b_j> summed state by state over every ordered pair (i, j)."""
    lookup = fock_lookup(basis)
    n = basis.n_sites
    rho = np.zeros((n, n), dtype=complex)
    for s, state in enumerate(basis.states):
        for j in range(n):
            if state[j] == 0:
                continue
            for i in range(n):
                if i == j:
                    rho[i, i] += abs(psi[s]) ** 2 * state[i]
                    continue
                target = state.copy()
                target[j] -= 1
                target[i] += 1
                t = lookup[tuple(int(m) for m in target)]
                rho[i, j] += np.conj(psi[t]) * math.sqrt(state[j] * (state[i] + 1)) * psi[s]
    return rho


def scan_point_by_lookup(params, basis, k: int) -> tuple:
    """(gap, condensate fraction) of one bh-scan point on the full basis.

    H is the lookup hopping matrix plus U times the pair count read off the
    occupations, diagonalized whole with dense eigh.  The gap is that of the
    first of the k lowest states whose pair-count element with the ground
    state exceeds 1e-8 of ||pair-count applied to the ground state||.
    """
    pairs = np.array([sum(n * (n - 1) // 2 for n in state)
                      for state in basis.states.tolist()], dtype=float)
    h = hopping_matrix_by_lookup(params, basis).toarray() + np.diag(
        params.interaction * pairs)
    energies, vectors = np.linalg.eigh(h)
    ground = vectors[:, 0]
    driven = pairs * ground
    floor = 1e-8 * np.linalg.norm(driven)
    gap = next(energies[i] - energies[0] for i in range(1, k)
               if energies[i] - energies[0] > 1e-10
               and abs(vectors[:, i] @ driven) > floor)
    rho = one_body_density_matrix_by_lookup(ground, basis)
    return float(gap), float(np.linalg.eigvalsh(rho).max()) / basis.n_bosons
