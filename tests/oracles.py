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
checkpoints as one stack); the eta(inf) oracle solves the site block of
the kron generator once, densely, for the whole time integral of the sink
feed (the implementation steps to a finite horizon); the state-check
oracle diagonalizes each whole block-diagonal state on its own (the
implementation screens a stack's site blocks with one Cholesky
factorization and diagonalizes the blocks, never the whole states, only
when the screen fails); the chain oracle is the closed-form eigensystem
(the implementation calls a numerical eigensolver), the Fock-state oracle filters the whole occupation
grid by its total and sorts it (the implementation places bars between
bosons, stars and bars, in combination order), the strong-dephasing oracle
is a classical Markov chain, the mean-channel oracle evolves the density
matrix of the infinite-shot ensemble, the segment-by-segment ensemble draws
each shot's phases one segment at a time over one state holding every shot
(the implementation draws a shot's phases at once and runs shots in
chunks), the shot-array ensemble keeps every shot's populations at each
sampled segment and takes one mean over them (the implementation keeps one
running sum per sampled segment, added to in shot order by 16-shot
blocks), the Fock-space oracles find each hop's target state in a dict
of occupation tuples, one state at a time (the implementation never ranks
a moved state: it shifts each source's rank by two entries of the basis's
prefix-sum tables), the scan-point oracle diagonalizes the full-basis
Hamiltonian densely (the implementation solves the reversal-even sector),
the sector scan-point oracle looks up each state's mirror and diagonalizes
the whole reversal-even block densely (the implementation ranks the
mirrors and asks Lanczos for two states, and for k only when state 1 is
not drive-coupled),
the inertia oracle counts the eigenvalues below a shift from the pivots of
one sparse symmetric factorization (the implementation runs Lanczos and
checks only the residuals of what it found),
and the absorption oracles are second-order perturbation theory on the
dense full-basis spectrum and the drive integrated one frequency at a time
on the full basis (the implementation integrates a chunk of frequencies at
once on the reversal-even sector).
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, expm
from scipy.sparse.linalg import splu


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
    checkpoint until its site populations sum to at most tol (the
    implementation steps only the invariant site block plus the register
    populations, under a real generator it assembles directly, and
    validates the checkpoints as one stack).
    """
    from aqsim.open_system import (DensityMatrix, StateInvariantError,
                                   build_liouvillian, initial_excitation)

    gen = build_liouvillian(h, spec)
    state = initial_excitation(spec.n_sites, spec.source_site)
    step = expm(gen.matrix * (t_max / checkpoints))
    converged = False
    vec = state.matrix.reshape(-1, order="F")
    reached = 0
    for _ in range(checkpoints):
        vec = step @ vec
        reached += 1
        state = DensityMatrix(vec.reshape((gen.dim, gen.dim), order="F"))
        if state.populations()[:spec.n_sites].sum() <= tol:
            converged = True
            break
    eta = state.population(gen.sink_index)
    if not -1e-8 <= eta <= 1 + 1e-8:
        raise StateInvariantError(f"sink population {eta} outside [0, 1]")
    return float(min(max(eta, 0.0), 1.0)), converged, reached * t_max / checkpoints


def transport_efficiency_at_infinity(h, spec) -> float:
    """eta(inf) = trap_rate * int_0^inf rho_kk dt (k the sink site), by one
    dense solve of the site block of liouvillian_by_kron's generator: the
    site block evolves on its own, so int_0^inf vec rho_S dt is
    -L_SS^-1 vec rho_S(0) (the implementation steps to a finite horizon
    with expm)."""
    n, d = spec.n_sites, spec.n_sites + 2
    site = (np.arange(n)[:, None] + d * np.arange(n)).ravel(order="F")  # rho_ij at i + d j
    block = liouvillian_by_kron(h, spec)[np.ix_(site, site)]
    rho0 = np.zeros(n * n, dtype=complex)
    rho0[spec.source_site * (n + 1)] = 1.0
    integral = np.linalg.solve(-block, rho0)
    return float(spec.trap_rate * integral[spec.sink_site * (n + 1)].real)


def state_check_failure(blocks, registers) -> str | None:
    """The message of the first failed test of the first failing state, or
    None: each state is the whole block-diagonal (m + r)-square matrix of
    its (m, m) block and its r register populations, tested for finite
    entries, Hermiticity, unit trace and then positivity by eigvalsh of its
    Hermitian part."""
    from aqsim.open_system import HERM_TOL, POSITIVITY_FLOOR, TRACE_TOL

    for block, pops in zip(blocks, registers):
        m, r = block.shape[0], len(pops)
        rho = np.zeros((m + r, m + r), dtype=complex)
        rho[:m, :m] = block
        rho[range(m, m + r), range(m, m + r)] = pops
        if not np.isfinite(rho).all():
            return "density matrix has non-finite entries"
        herm = np.abs(rho - rho.conj().T).max()
        if herm > HERM_TOL:
            return f"not Hermitian: max |rho - rho^dag| = {herm:.3e}"
        trace = np.trace(rho)
        drift = abs(trace.real - 1.0) + abs(trace.imag)
        if drift > TRACE_TOL:
            return f"trace drift {drift:.3e} exceeds {TRACE_TOL}"
        lowest = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
        if lowest < POSITIVITY_FLOOR:
            return f"negative eigenvalue {lowest:.3e}"
    return None


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


def ensemble_populations_by_shot_array(h, input_mode: int, tau: float, spec,
                                       sample_at=None) -> dict:
    """The walk engine's ensemble, with its kicks, over one (dim, shots) state
    and one (dim, shots) population array per sampled segment, averaged by
    .mean(axis=1), a pairwise sum over all shots at once, where the engine
    adds _SHOT_ALIGN-shot block sums in shot order."""
    import aqsim
    from aqsim import walk

    dim, n_segments = h.dim, spec.n_segments
    wanted = sorted(set(sample_at if sample_at is not None else [n_segments]))
    base = spec.seed % (1 << 64)
    normals = np.stack([np.random.default_rng([base, k]).standard_normal((n_segments - 1, dim))
                        for k in range(spec.shots)], axis=-1)
    half_tan = np.tan(normals * (0.5 * spec.phase_sigma))  # (kick, site, shot)
    u_seg = aqsim.propagator(h, tau)
    amps = np.zeros((dim, spec.shots), dtype=complex)
    amps[input_mode, :] = 1.0
    pops = {0: np.abs(amps) ** 2} if 0 in wanted else {}
    for seg in range(1, n_segments + 1):
        amps = u_seg @ amps
        if seg < n_segments:
            amps *= walk._half_angle_kick(half_tan[seg - 1], np.empty_like(amps),
                                          np.empty(amps.shape))
        if seg in wanted:
            pops[seg] = np.abs(amps) ** 2
    return {seg: p.mean(axis=1) for seg, p in pops.items()}


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


def hops_by_lookup(basis, src: int, dst: int) -> tuple:
    """b_dst^dag b_src as (sources, targets, elements), state by state in
    basis order: each state with a boson on src, the looked-up position of
    the state with that boson moved to dst, and sqrt(n_src (n_dst + 1))."""
    lookup = fock_lookup(basis)
    sources, targets, amps = [], [], []
    for s, state in enumerate(basis.states.tolist()):
        if state[src] == 0:
            continue
        amps.append(math.sqrt(state[src] * (state[dst] + 1)))
        state[src] -= 1
        state[dst] += 1
        sources.append(s)
        targets.append(lookup[tuple(state)])
    return (np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64),
            np.array(amps, dtype=float))


def hopping_matrix_by_lookup(params, basis) -> sp.csr_matrix:
    """-J sum_<j,k> (b_j^dag b_k + h.c.), one state and one edge at a time."""
    lookup = fock_lookup(basis)
    rows, cols, vals = [], [], []
    for s, state in enumerate(basis.states.tolist()):
        for j, k in params.edges:
            for src, dst in ((k, j), (j, k)):
                if state[src] == 0:
                    continue
                target = list(state)
                target[src] -= 1
                target[dst] += 1
                rows.append(lookup[tuple(target)])
                cols.append(s)
                vals.append(-params.hopping * math.sqrt(state[src] * (state[dst] + 1)))
    dim = len(basis)
    return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def one_body_density_matrix_by_lookup(psi: np.ndarray, basis) -> np.ndarray:
    """<b_i^dag b_j> summed state by state over every ordered pair (i, j)."""
    lookup = fock_lookup(basis)
    n = basis.n_sites
    rho = np.zeros((n, n), dtype=complex)
    for s, state in enumerate(basis.states.tolist()):
        for j in range(n):
            if state[j] == 0:
                continue
            for i in range(n):
                if i == j:
                    rho[i, i] += abs(psi[s]) ** 2 * state[i]
                    continue
                target = list(state)
                target[j] -= 1
                target[i] += 1
                t = lookup[tuple(target)]
                rho[i, j] += np.conj(psi[t]) * math.sqrt(state[j] * (state[i] + 1)) * psi[s]
    return rho


def _pair_count_by_lookup(basis) -> np.ndarray:
    """sum_j n_j (n_j - 1) / 2 read off each state's occupations."""
    return np.array([sum(n * (n - 1) // 2 for n in state)
                     for state in basis.states.tolist()], dtype=float)


def _hamiltonian_by_lookup(params, basis) -> tuple:
    """(dense H, pair count): the lookup hopping matrix plus U times the pair
    count read off the occupations."""
    pairs = _pair_count_by_lookup(basis)
    h = hopping_matrix_by_lookup(params, basis).toarray() + np.diag(
        params.interaction * pairs)
    return h, pairs


def _scan_point(energies, vectors, pairs, basis, k: int) -> tuple:
    """(gap, condensate fraction) from ascending eigenpairs on the full basis.

    The gap is that of the first of the k lowest states more than 1e-10
    above the ground state whose pair-count element with the ground state
    exceeds 1e-8 of ||pair-count applied to the ground state||.
    """
    ground = vectors[:, 0]
    driven = pairs * ground
    floor = 1e-8 * np.linalg.norm(driven)
    gap = next(energies[i] - energies[0] for i in range(1, k)
               if energies[i] - energies[0] > 1e-10
               and abs(vectors[:, i] @ driven) > floor)
    rho = one_body_density_matrix_by_lookup(ground, basis)
    return float(gap), float(np.linalg.eigvalsh(rho).max()) / basis.n_bosons


def scan_point_by_lookup(params, basis, k: int) -> tuple:
    """(gap, condensate fraction) of one bh-scan point on the full basis.

    H is _hamiltonian_by_lookup's, diagonalized whole with dense eigh, and
    _scan_point applies the gap rules.
    """
    h, pairs = _hamiltonian_by_lookup(params, basis)
    energies, vectors = np.linalg.eigh(h)
    return _scan_point(energies, vectors, pairs, basis, k)


def drive_coupled_gap_dense(params, basis, k: int) -> tuple:
    """(gap, condensate fraction) of one bh-scan point on the reversal-even
    sector, for sectors too large for a dense full-basis solve.

    Each state's mirror (its occupations reversed) is looked up; the rows
    of P are a state with its mirror, weights 1/sqrt(2) each, or a
    palindrome alone.  P H P^T, with H the lookup hopping matrix plus U
    times the pair count, goes whole to LAPACK's dense eigh for its k
    lowest states, those are lifted by P^T, and _scan_point applies the gap
    rules.
    """
    lookup = fock_lookup(basis)
    mirrors = [(s, lookup[tuple(state[::-1])])
               for s, state in enumerate(basis.states.tolist())]
    reps = [(s, mirror) for s, mirror in mirrors if s <= mirror]
    p = sp.lil_matrix((len(reps), len(basis)))
    for row, (s, mirror) in enumerate(reps):
        if s == mirror:
            p[row, s] = 1.0
        else:
            p[row, s] = p[row, mirror] = 1.0 / math.sqrt(2.0)
    p = p.tocsr()
    pairs = _pair_count_by_lookup(basis)
    h = hopping_matrix_by_lookup(params, basis) + sp.diags(params.interaction * pairs)
    energies, vectors = eigh((p @ h @ p.T).toarray(), subset_by_index=[0, k - 1])
    return _scan_point(energies, p.T @ vectors, pairs, basis, k)


def eigenvalues_below(h, sigma: float) -> int:
    """How many eigenvalues of the real symmetric sparse h lie below sigma.

    Sylvester's law of inertia: H - sigma I = L D L^T has as many negative
    pivots as H has eigenvalues below sigma.  SuperLU in symmetric mode,
    with a symmetric ordering and every pivot taken on the diagonal, makes
    that factorization as P (H - sigma I) P^T = L U with U = D L^T, so the
    count is the number of negative entries of diag(U).  Asserts that the
    row and column permutations agree, without which the pivots are not D.
    """
    shifted = (h - sigma * sp.identity(h.shape[0])).tocsc()
    lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
              options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_r, lu.perm_c), "the factorization left the diagonal"
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def absorption_by_linear_response(params, basis, delta: float, nu_grid,
                                  t_drive: float) -> np.ndarray:
    """Second-order absorbed energy from the exact full-basis spectrum.

    (U delta)^2 sum_k w_k0 |<k|C|0>|^2 |int_0^T sin(2 pi nu t) e^{i w_k0 t} dt|^2
    with C the pair count, w_k0 = E_k - E_0 from dense eigh of
    _hamiltonian_by_lookup's H, and the integral in closed form: with
    I(a) = int_0^T e^{i a t} dt = T e^{i a T / 2} sinc(a T / 2 pi), it is
    (I(w + 2 pi nu) - I(w - 2 pi nu)) / 2i.  Exact to O(delta^4).
    """
    h, pairs = _hamiltonian_by_lookup(params, basis)
    energies, vectors = np.linalg.eigh(h)
    omega = energies[1:] - energies[0]
    coupling = np.abs(vectors[:, 1:].T @ (pairs * vectors[:, 0])) ** 2
    drive = 2 * math.pi * np.asarray(nu_grid, dtype=float)[:, None]

    def phase_integral(a):
        return t_drive * np.exp(0.5j * a * t_drive) * np.sinc(a * t_drive / (2 * math.pi))

    overlap = (phase_integral(omega + drive) - phase_integral(omega - drive)) / 2j
    return (params.interaction * delta) ** 2 * (np.abs(overlap) ** 2 * omega * coupling).sum(axis=1)


def absorption_per_nu_full_basis(params, basis, delta: float, nu_grid,
                                 t_drive: float, tol: float = 1e-9) -> np.ndarray:
    """Absorbed energy with one DOP853 solve per frequency on the full basis.

    The drive as it ran before it moved to the reversal-even sector and to
    chunks of frequencies: H_0 is _hamiltonian_by_lookup's, the ground state
    its dense eigh's, each frequency integrates alone at rtol tol and atol
    1e-3 tol, and the gain is <psi|H_0|psi> / |psi|^2 - E_0.
    """
    h0, pairs = _hamiltonian_by_lookup(params, basis)
    energies, vectors = np.linalg.eigh(h0)
    psi0 = vectors[:, 0].astype(complex)
    drive_scale = params.interaction * delta
    gains = []
    for nu in nu_grid:
        omega = 2 * math.pi * nu

        def rhs(t, psi):
            return -1j * (h0 @ psi + drive_scale * math.sin(omega * t) * pairs * psi)

        sol = solve_ivp(rhs, (0.0, t_drive), psi0, method="DOP853",
                        rtol=tol, atol=tol * 1e-3)
        assert sol.success, sol.message
        psi = sol.y[:, -1]
        gains.append(np.vdot(psi, h0 @ psi).real / np.vdot(psi, psi).real - energies[0])
    return np.array(gains)
