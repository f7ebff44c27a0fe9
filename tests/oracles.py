"""Independent reference computations the tests check the package against.

These deliberately avoid the code paths they validate: the master-equation
oracle integrates the ODE with an adaptive Runge-Kutta stepper (the
implementation takes a dense matrix exponential), the chain oracle is the
closed-form eigensystem (the implementation calls a numerical eigensolver),
the strong-dephasing oracle is a classical Markov chain, and the Fock-space
oracles find each hop's target state in a dict of occupation tuples, one
state at a time (the implementation ranks whole batches of states).
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp


def liouvillian_runge_kutta(generator: np.ndarray, rho0: np.ndarray,
                            t: float) -> np.ndarray:
    """rho(t) by DOP853 on the vectorized master equation, at tight tolerances."""
    d = rho0.shape[0]
    sol = solve_ivp(lambda _, y: generator @ y, (0.0, t), rho0.reshape(-1, order="F"),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y[:, -1].reshape((d, d), order="F")


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
