"""Lindblad evolution with dephasing, sink trapping, and recombination.

The density matrix lives on the system sites plus two absorbing registers,
sink and loss, appended after the sites.  Trapping moves population from
the sink site into the sink register at the trap rate; recombination moves
population from every site into the loss register.  Both channels are
ordinary Lindblad dissipators, so the generator is trace preserving and
transport efficiency is a plain population readout on the sink register.

Master equation:

    d rho/dt = -i[H, rho] + sum_m gamma_m D[|m><m|] rho
               + trap_rate D[|sink><sink_site|] rho
               + recombination_rate sum_m D[|loss><m|] rho

with D[A] rho = A rho A^dag - (A^dag A rho + rho A^dag A) / 2.

Every jump is a matrix unit A = |a><b| with a rate, so A^dag A = |b><b|
and A rho A^dag = rho_bb |a><a|.  The anticommutators fold into the
non-Hermitian H_eff = H - (i/2) sum rate |b><b|, and the generator on
vectorized rho (column stacking, rho_ij at index i + d j) is

    L = -i (1 (x) H_eff - conj(H_eff) (x) 1)

plus, per jump, rate at row a + d a, column b + d b.

The generator does not depend on time, so states are propagated exactly by
the matrix exponential expm(L t) (scaling and squaring) rather than by an
ODE stepper: large rates cost a few more squarings, not more steps.

Transport starts from a site population and never leaves the invariant
subspace of the n^2 site-block entries plus the sink and loss populations:
every jump refills a population, never a site-register coherence, and the
register rows of H_eff are zero.  Transport steps only those n^2 + 2
coordinates, and real ones: the site block as R = Re rho + Im rho (R_ij at
i + n j), then the two register populations.  R's symmetric part is Re rho
and its antisymmetric part Im rho, so rho = ((1 + i) R + (1 - i) R^T) / 2
maps every real vector, isometrically, to an exactly Hermitian site block,
with the population rho_ii = R_ii at i (n + 1).

In these coordinates the generator is real, and transport writes it down
directly instead of slicing build_liouvillian's.  With H = A + i B (A = Re H,
B = Im H), -i[H, rho] becomes dR/dt = [B, R] - [A, R^T], that is
kron(1, B) + kron(B, 1) + (kron(A, 1) - kron(1, A)) P on vec R, where P
transposes the site block.  Each jump only damps entry i + n j, at
(G_i + G_j) / 2 with G_m = gamma_m + r + kappa [m = sink_site] (r the
recombination and kappa the trap rate), except that a population keeps
only r + kappa [i = sink_site]: the dephasing refill cancels the dephasing
decay.  The register rows hold kappa at column sink_site (n + 1) and r at
every i (n + 1).  Dephasing only moves the diagonal, and a sweep steps one
generator per grid point, all points at once.

Every state a run reaches up to its stop is validated: finite entries,
Hermiticity (tested on DensityMatrix input, by construction on transport
states), unit trace and positivity, with the floors below.  Positivity is
screened by one batched Cholesky factorization of the states shifted by
half the floor, and only a stack that fails the screen is diagonalized
(_check_states, _check_coordinates).  A transport step S that overflowed
is a numerical failure, and so is a trace drift S's rounding explains:
S's probability defect max |w^T S - w^T| (w the trace) within
eps ||G dt||_1, and the drift after c steps within c eps ||G dt||_1.  So
is a drift under an S with an entry beyond 2 whose G keeps the trace
(w^T G within that rounding), as no exact S has one: a coordinate vector
is a Hermitian matrix of trace norm at most sqrt 2, which a
trace-preserving positive map does not increase, and a coordinate
Re rho_ij + Im rho_ij is at most sqrt 2 times a trace norm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonians import Hamiltonian, StateInvariantError, _integer

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
POSITIVITY_FLOOR = -1e-8
# transport: equal steps from 0 to t_max at which the undelivered population
# is checked and the state validated
_CHECKPOINTS = 100
# transport: a dephasing grid runs in chunks of points whose step matrices,
# checkpoint paths and validated site blocks fit in this many bytes
_CHUNK_BYTES = 8 << 20


def __getattr__(name):
    # solve_ivp is resolved on first access and then kept as a module
    # global.  Nothing here calls it: perfbench/tracing.py wraps it by name,
    # and it goes once the benchmark drops that hook (ROADMAP item 1).
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import solve_ivp
    globals()[name] = solve_ivp
    return solve_ivp


class NoSinkError(ValueError):
    """Transport efficiency needs a non-zero trap rate."""


@dataclass(frozen=True)
class TransportSpec:
    """Source/sink layout and rates for a transport run.

    dephasing_rates holds one rate per system site; trap_rate feeds the sink
    register from sink_site, recombination_rate drains every site into loss.
    """

    source_site: int
    sink_site: int
    trap_rate: float
    recombination_rate: float
    dephasing_rates: np.ndarray

    def __post_init__(self):
        gamma = np.array(self.dephasing_rates, dtype=float, copy=True)
        if gamma.ndim != 1 or gamma.size == 0:
            raise ValueError("dephasing_rates must be a non-empty 1-d sequence")
        n = gamma.size
        for name in ("source_site", "sink_site"):
            idx = _integer(getattr(self, name), name)
            if not 0 <= idx < n:
                raise ValueError(f"{name} {idx} out of range for {n} sites")
            object.__setattr__(self, name, idx)
        rates = np.append(gamma, [self.trap_rate, self.recombination_rate])
        if not np.isfinite(rates).all():
            raise ValueError("rates must be finite")
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        gamma.setflags(write=False)
        object.__setattr__(self, "trap_rate", float(self.trap_rate))
        object.__setattr__(self, "recombination_rate", float(self.recombination_rate))
        object.__setattr__(self, "dephasing_rates", gamma)

    @property
    def n_sites(self) -> int:
        return self.dephasing_rates.size

    def with_uniform_dephasing(self, gamma: float) -> "TransportSpec":
        return replace(self, dephasing_rates=np.full(self.n_sites, float(gamma)))


def _check_states(states: np.ndarray) -> None:
    """Validate a (k, m, m) stack of whole density matrices, DensityMatrix's
    form (transport states, Hermitian by construction, go to
    _check_coordinates): finite entries, Hermiticity, unit trace and
    positivity.  Raises StateInvariantError for the first failing state
    and, within it, for the first failing test in that order; states from
    the first non-finite one on are not checked further.

    Positivity is screened first (_lowest_eigenvalues) by one batched
    Cholesky factorization of the Hermitian parts shifted by half the floor,
    rho + 5e-9 1: one that succeeds with finite entries shows every lowest
    eigenvalue above POSITIVITY_FLOOR, as its backward error, about
    m eps ||rho|| (~1e-15 for a state), is far below the 5e-9 margin.  Only
    a stack that fails the screen is diagonalized (eigvalsh), so verdicts
    and messages are those of diagonalizing every state.
    """
    finite = np.isfinite(states).all(axis=(1, 2))
    m = states[:_finite_prefix(finite)]
    dagger = m.conj().transpose(0, 2, 1)
    trace = np.trace(m, axis1=1, axis2=2)
    _raise_first_failure(finite, np.abs(m - dagger).max(axis=(1, 2)),
                         np.abs(trace.real - 1.0) + np.abs(trace.imag),
                         _lowest_eigenvalues(0.5 * (m + dagger)))


def _check_coordinates(states: np.ndarray, n: int) -> None:
    """_check_states on a (k, n^2 + 2) stack of transport states in real
    coordinates (module docstring), whose site blocks are exactly Hermitian:
    the trace is the populations at i (n + 1) plus the registers, and the
    lowest eigenvalue the least of the site block's and the registers'."""
    finite = np.isfinite(states).all(axis=1)
    x = states[:_finite_prefix(finite)]
    registers = x[:, n * n:]
    drift = np.abs(x[:, :n * n:n + 1].sum(axis=1) + registers.sum(axis=1) - 1.0)
    lowest = np.minimum(_lowest_eigenvalues(_site_blocks(x[:, :n * n], n)),
                        registers.min(axis=1))
    _raise_first_failure(finite, np.zeros_like(drift), drift, lowest)


def _finite_prefix(finite: np.ndarray) -> int:
    """The number of states before the first non-finite one."""
    return finite.size if finite.all() else int(np.argmin(finite))


def _raise_first_failure(finite, herm, drift, lowest) -> None:
    """Raise for the first failing state, at its first failing test, of the
    finite prefix with these checks, else for the first non-finite state."""
    failing = (herm > HERM_TOL) | (drift > TRACE_TOL) | (lowest < POSITIVITY_FLOOR)
    if failing.any():
        i = int(np.argmax(failing))
        if herm[i] > HERM_TOL:
            raise StateInvariantError(f"not Hermitian: max |rho - rho^dag| = {herm[i]:.3e}")
        if drift[i] > TRACE_TOL:
            raise StateInvariantError(f"trace drift {drift[i]:.3e} exceeds {TRACE_TOL}")
        raise StateInvariantError(f"negative eigenvalue {lowest[i]:.3e}")
    if not finite.all():
        raise StateInvariantError("density matrix has non-finite entries")


def _lowest_eigenvalues(hermitian: np.ndarray) -> np.ndarray:
    """Each (m, m) block's lowest eigenvalue, or +inf for every block when
    the Cholesky screen of _check_states shows them all above the floor."""
    shifted = hermitian - (POSITIVITY_FLOOR / 2) * np.eye(hermitian.shape[-1])
    try:
        if np.isfinite(np.linalg.cholesky(shifted)).all():
            return np.full(hermitian.shape[0], np.inf)
    except np.linalg.LinAlgError:
        pass
    return np.linalg.eigvalsh(hermitian).min(axis=1)


@dataclass(frozen=True)
class DensityMatrix:
    """Positive unit-trace state over system sites + sink + loss registers."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateInvariantError(f"density matrix must be square, got {m.shape}")
        _check_states(m[np.newaxis])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def population(self, index: int) -> float:
        return float(self.matrix[index, index].real)

    def populations(self) -> np.ndarray:
        return np.diagonal(self.matrix).real.copy()

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def initial_excitation(n_sites: int, site: int) -> DensityMatrix:
    """Pure state with the excitation on one site, sink and loss empty."""
    if not 0 <= _integer(site, "site") < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    m = np.zeros((n_sites + 2, n_sites + 2), dtype=complex)
    m[site, site] = 1.0
    return DensityMatrix(m)


@dataclass(frozen=True)
class Liouvillian:
    """Vectorized master-equation generator (column-stacking convention)."""

    matrix: np.ndarray
    n_sites: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        """Dimension of the density matrix the generator acts on."""
        return self.n_sites + 2

    @property
    def sink_index(self) -> int:
        return self.n_sites


def build_liouvillian(h: Hamiltonian, spec: TransportSpec) -> Liouvillian:
    """Assemble the generator for a Hamiltonian and a transport spec.

    The Hamiltonian acts on the system sites and is embedded in the
    site + sink + loss space with zero rows for the registers.  Each jump
    (a, b, rate) stands for rate D[|a><b|]: its decay enters H_eff, and its
    refill rho_bb -> rho_aa is one generator entry.
    """
    n = spec.n_sites
    if h.dim != n:
        raise ValueError(f"Hamiltonian dimension {h.dim} does not match spec with {n} sites")
    d = n + 2
    sink, loss = n, n + 1
    jumps = ([(m, m, gamma) for m, gamma in enumerate(spec.dephasing_rates)]
             + [(sink, spec.sink_site, spec.trap_rate)]
             + [(loss, m, spec.recombination_rate) for m in range(n)])
    h_eff = np.zeros((d, d), dtype=complex)
    h_eff[:n, :n] = h.matrix
    for _, b, rate in jumps:
        h_eff[b, b] -= 0.5j * rate
    # the two Kronecker products 1 (x) H_eff and conj(H_eff) (x) 1, each
    # indexed [i, k, j, l] -> row i d + k, column j d + l
    eye = np.eye(d)
    gen = -1j * (eye[:, None, :, None] * h_eff[None, :, None, :]
                 - h_eff.conj()[:, None, :, None] * eye[None, :, None, :]).reshape(d * d, d * d)
    for a, b, rate in jumps:
        gen[a + d * a, b + d * b] += rate
    return Liouvillian(gen, n)


def evolve(rho0: DensityMatrix, gen: Liouvillian, t: float) -> DensityMatrix:
    """Propagate a density matrix for time t under the generator.

    The generator does not depend on time, so the state is propagated
    exactly: expm(L t) applied to the vectorized density matrix.  An
    overflowed expm (rates times t too large) raises LinAlgError.  The
    returned state is re-validated, so trace drift raises instead of being
    renormalized away.
    """
    if not 0 <= t < np.inf:
        raise ValueError("evolution time must be non-negative and finite")
    if rho0.dim != gen.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match generator {gen.dim}")
    if t == 0:
        return rho0
    from scipy.linalg import expm  # here, so that `import aqsim` loads numpy only
    step = expm(gen.matrix * t)
    if not np.isfinite(step).all():
        raise np.linalg.LinAlgError(f"expm(L t) has non-finite entries at t = {t:g}")
    vec = step @ rho0.matrix.reshape(-1, order="F")
    return DensityMatrix(vec.reshape((gen.dim, gen.dim), order="F"))


def _real_generators(h: Hamiltonian, spec: TransportSpec, rates: np.ndarray) -> np.ndarray:
    """The transport generator in the real coordinates of the module
    docstring, one (n^2 + 2)-square matrix per row of rates, each row the
    per-site dephasing rates that stand in for spec.dephasing_rates."""
    n = spec.n_sites
    if h.dim != n:
        raise ValueError(f"Hamiltonian dimension {h.dim} does not match spec with {n} sites")
    a, b, eye = h.matrix.real, h.matrix.imag, np.eye(n)
    flip = np.arange(n * n).reshape(n, n).T.ravel()  # R -> R^T
    pop_decay = spec.recombination_rate + spec.trap_rate * (np.arange(n) == spec.sink_site)
    decay = rates + pop_decay
    damping = 0.5 * (decay[:, :, np.newaxis] + decay[:, np.newaxis])
    damping[:, np.arange(n), np.arange(n)] = pop_decay
    gen = np.zeros((rates.shape[0], n * n + 2, n * n + 2))
    gen[:, :n * n, :n * n] = (np.kron(eye, b) + np.kron(b, eye)
                              + (np.kron(a, eye) - np.kron(eye, a))[:, flip])
    coords = np.arange(n * n)
    gen[:, coords, coords] -= damping.reshape(-1, n * n)
    gen[:, n * n, spec.sink_site * (n + 1)] = spec.trap_rate
    gen[:, n * n + 1, coords[::n + 1]] = spec.recombination_rate
    return gen


def _site_blocks(coords: np.ndarray, n: int) -> np.ndarray:
    """Site blocks rho = ((1 + i) R + (1 - i) R^T) / 2 of a (k, n^2) stack of
    real site coordinates, R_ij at i + n j (module docstring)."""
    r = coords.reshape(-1, n, n)  # r[k, j, i] = R_ij
    return 0.5 * ((1 + 1j) * r.transpose(0, 2, 1) + (1 - 1j) * r)


def _chunk_width(n: int) -> int:
    """Grid points per chunk at n sites: as many as keep one chunk's real
    step matrices and checkpoint paths plus its complex site blocks within
    _CHUNK_BYTES, and at least one."""
    size = n * n + 2
    per_point = 8 * size * (size + _CHECKPOINTS + 1) + 16 * _CHECKPOINTS * n * n
    return max(1, _CHUNK_BYTES // per_point)


# rates or horizons near the top of the double range overflow expm, and a
# step lost to rounding overflows the path; the tests below catch either
@np.errstate(over="ignore", invalid="ignore")
def _transport_batch(h: Hamiltonian, spec: TransportSpec, rates: np.ndarray,
                     t_max: float, tol: float) -> tuple:
    """transport_efficiency at every row of rates, one row of per-site
    dephasing rates per grid point, in place of spec.dephasing_rates.

    The points run in chunks of _chunk_width(n).  A chunk assembles its
    real generators (_real_generators), which differ only on the diagonal,
    takes one expm of its stacked step matrices and steps a real
    (checkpoint, point, coordinate) path, each point by its own step
    matrix, up to its last stop; every point's result is the same as when
    it runs alone.  The validation and the sink range check then act on the
    whole chunk, and the error raised is the one that running the points
    one by one in grid order would raise first: the checkpoints up to each
    point's stop are validated as one stack, point by point in grid order,
    and only up to the first point whose sink population is out of range,
    whose range error is raised if its states pass.  A step matrix that
    overflowed, or one whose trace drift rounding explains (module
    docstring), raises LinAlgError after the points before it ran as usual.
    Returns the clamped efficiencies and the converged flags, one per row.
    """
    if spec.trap_rate == 0:
        raise NoSinkError("transport efficiency needs trap_rate > 0")
    if not 0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    n = spec.n_sites
    w = np.append(np.eye(n).ravel(), [1.0, 1.0])  # the trace: populations and registers
    checkpoints = np.arange(_CHECKPOINTS + 1)
    eta = np.empty(rates.shape[0])
    converged = np.empty(rates.shape[0], dtype=bool)
    width = _chunk_width(n)
    from scipy.linalg import expm  # here, so that `import aqsim` loads numpy only

    def step_matrix(point):
        return (f"step matrix of grid point {point} (dephasing rates up to "
                f"{rates[point].max():g}, trap_rate {spec.trap_rate:g})")
    for lo in range(0, rates.shape[0], width):
        scaled = _real_generators(h, spec, rates[lo:lo + width]) * (t_max / _CHECKPOINTS)
        steps = expm(scaled)
        finite = np.isfinite(steps).all(axis=(1, 2))
        rounding = np.finfo(float).eps * np.abs(scaled).sum(axis=1).max(axis=1)
        defect = np.abs(w @ steps - w).max(axis=1)
        peak = np.abs(steps).max(axis=(1, 2))
        # an entry beyond 2 under a generator that keeps the trace is expm's loss
        lost = (peak > 2) & (np.abs(w @ scaled).max(axis=1) <= rounding)
        k = _finite_prefix(finite)
        steps, points = steps[:k], slice(lo, lo + k)
        # site population rho_ii at i (n + 1), sink population at n^2
        path = np.zeros((_CHECKPOINTS + 1,) + steps.shape[:2])
        path[0, :, spec.source_site * (n + 1)] = 1.0
        # done[c]: undelivered population within tol after c + 1 steps
        done = np.zeros((_CHECKPOINTS, k), dtype=bool)
        stopped = np.zeros(k, dtype=bool)
        for c in range(_CHECKPOINTS):
            np.matmul(steps, path[c, :, :, np.newaxis], out=path[c + 1, :, :, np.newaxis])
            done[c] = path[c + 1, :, :n * n:n + 1].sum(axis=1) <= tol
            stopped |= done[c]
            if stopped.all():
                break
        converged[points] = stopped
        stop = np.where(stopped, done.argmax(axis=0) + 1, _CHECKPOINTS)
        sink_pop = path[stop, np.arange(k), n * n]
        outside = ~((sink_pop >= -1e-8) & (sink_pop <= 1 + 1e-8))
        checked = int(np.argmax(outside)) + 1 if outside.any() else k
        # point-major, so the first failing state belongs to the earliest point
        owner, taken = np.nonzero((0 < checkpoints) & (checkpoints <= stop[:checked, np.newaxis]))
        states = path[taken, owner]  # taken: steps taken to the state
        # validated up to the first drift that the rounding explains
        drift = np.abs(states @ w - 1.0)
        imprecise = (defect <= rounding)[owner] & (drift <= taken * rounding[owner])
        explained = (drift > TRACE_TOL) & (imprecise | lost[owner])
        j = int(np.argmax(explained)) if explained.any() else explained.size
        _check_coordinates(states[:j], n)
        if j < explained.size:
            p, c = owner[j], taken[j]
            why = (f"its probability defect {defect[p]:.3e} is within its rounding "
                   f"eps * ||G dt||_1 = {rounding[p]:.3e}, and the trace drift "
                   f"{drift[j]:.3e} at checkpoint {c} within {c} times that"
                   if imprecise[j] else f"it has an entry of {peak[p]:.3e}, and no "
                   f"step of its trace-preserving generator has one beyond 2")
            raise np.linalg.LinAlgError(
                f"{step_matrix(lo + p)} keeps too few significant bits: {why}")
        if outside.any():
            raise StateInvariantError(f"sink population {sink_pop[checked - 1]} outside [0, 1]")
        eta[points] = np.clip(sink_pop, 0.0, 1.0)
        if k < finite.size:
            raise np.linalg.LinAlgError(f"{step_matrix(lo + k)} has non-finite entries")
    return eta, converged


def transport_efficiency(h: Hamiltonian, spec: TransportSpec,
                         t_max: float = 1000.0, tol: float = 1e-8) -> tuple:
    """Sink population at the stop or at the horizon.

    The run stops at the first checkpoint whose undelivered population, the
    trace of the site block, is at most tol, and as sink and loss only fill,
    a run that stops has eta <= eta(inf) <= eta + tol.

    Only the invariant subspace of the module docstring evolves: the real
    site block and the two register populations, n^2 + 2 coordinates (51
    at n = 7), under a real generator G written directly from Re H, Im H
    and the rates, one step matrix expm(G t_max / _CHECKPOINTS) per point,
    applied at every checkpoint up to the stop, where stepping ends.  The
    checkpoints up to the stop are validated as one stack, which raises for
    the first invalid state just as checking each in turn would.  This is
    the one-point case of goldilocks_sweep's batch.
    Returns (eta, converged) where converged reports whether the run
    stopped by t_max.
    """
    eta, converged = _transport_batch(h, spec, spec.dephasing_rates[np.newaxis], t_max, tol)
    return float(eta[0]), bool(converged[0])


def _check_grid(grid: np.ndarray) -> None:
    if not (np.isfinite(grid).all() and np.all(grid > 0) and np.all(np.diff(grid) > 0)):
        raise ValueError("gamma grid must be finite, strictly ascending and positive")


@dataclass(frozen=True)
class EfficiencyCurve:
    """Transport efficiency over a dephasing-rate grid, plus the Hamiltonian's hash."""

    gamma_grid: np.ndarray
    efficiencies: np.ndarray
    converged: tuple
    h_hash: str

    def __post_init__(self):
        grid = np.array(self.gamma_grid, dtype=float, copy=True)
        eff = np.array(self.efficiencies, dtype=float, copy=True)
        if grid.shape != eff.shape or grid.ndim != 1:
            raise ValueError("gamma grid and efficiencies must be 1-d and equal length")
        _check_grid(grid)
        if not np.all((eff >= 0) & (eff <= 1)):  # NaN fails too
            raise ValueError("efficiencies must lie in [0, 1]")
        if len(self.converged) != grid.size:
            raise ValueError("one converged flag per grid point required")
        grid.setflags(write=False)
        eff.setflags(write=False)
        object.__setattr__(self, "gamma_grid", grid)
        object.__setattr__(self, "efficiencies", eff)
        object.__setattr__(self, "converged", tuple(bool(c) for c in self.converged))

    def argmax(self) -> int:
        return int(np.argmax(self.efficiencies))


def goldilocks_sweep(h: Hamiltonian, spec_template: TransportSpec,
                     gamma_grid, t_max: float = 1000.0,
                     tol: float = 1e-8) -> EfficiencyCurve:
    """Sweep uniform dephasing over a grid and collect efficiencies.

    Every grid point gets the result transport_efficiency would give it,
    and a failing point raises the error that running the points one by
    one in grid order would raise first.  The points run as one batch
    (_transport_batch): per chunk of the grid, one generator per point,
    one stacked expm and one stepping loop.  Results are returned in grid order.
    """
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("gamma grid must be a non-empty 1-d sequence")
    _check_grid(grid)
    rates = np.repeat(grid[:, np.newaxis], spec_template.n_sites, axis=1)
    eff, flags = _transport_batch(h, spec_template, rates, t_max, tol)
    return EfficiencyCurve(grid, eff, flags, h.content_hash())
