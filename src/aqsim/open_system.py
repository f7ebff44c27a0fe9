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
subspace spanned by the n^2 site-block entries plus the sink and loss
populations (n^2 + 2 of the (n + 2)^2 coordinates): every jump refills a
population, never a coherence between a site and a register, and the
register rows of H_eff are zero, so those coherences start at 0 and stay
exactly 0.  Transport therefore exponentiates only that block of the
generator, and does so in real coordinates: the site block is stored as
R = Re rho + Im rho (R_ij at i + n j), then the sink and loss populations.
The symmetric part of R is Re rho and its antisymmetric part is Im rho, so

    rho = ((1 + i) R + (1 - i) R^T) / 2,

and R -> rho is an isometry of real matrices onto Hermitian ones: every
real vector maps back to an exactly Hermitian site block, and the
population rho_ii = R_ii sits at i (n + 1).  The generator maps Hermitian
matrices to Hermitian matrices, so in these coordinates it is a real
matrix, stepped by a real step matrix.

In these coordinates site dephasing is a diagonal shift.  The rate
gamma_m damps every coherence rho_ij with i or j = m, so entry i + n j
with i != j decays at (gamma_i + gamma_j) / 2, while on a population the
refill gamma_m rho_mm cancels the decay it adds to H_eff.  A dephasing
sweep therefore builds one generator G_0 without dephasing and steps every
grid point under G_0 minus its own diagonal, all points at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
# Not called: perfbench/tracing.py wraps open_system.solve_ivp by name when it
# traces this layer, so the binding stays until that hook is dropped.
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.linalg import expm

from .hamiltonians import Hamiltonian, _integer

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
POSITIVITY_FLOOR = -1e-8
# transport: equal steps from 0 to t_max at which the sink feed is checked
# and the state validated
_CHECKPOINTS = 100
# transport: a dephasing grid runs in chunks of points whose step matrices,
# checkpoint paths and validated site blocks fit in this many bytes
_CHUNK_BYTES = 8 << 20


class StateInvariantError(RuntimeError):
    """Density-matrix bookkeeping broke: non-finite entries, trace drift,
    Hermiticity, positivity."""


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


def _check_states(blocks: np.ndarray, registers: np.ndarray | None = None) -> None:
    """Validate a stack of k density matrices, each given as a (k, m, m)
    block plus, optionally, (k, r) populations on the diagonal after it.

    The block-diagonal state is never formed: its trace is the block's
    plus the populations, and its eigenvalues are the block's plus the
    populations.  Tests finite entries, Hermiticity, unit trace and
    positivity, and raises StateInvariantError for the first failing state
    and, within it, for the first failing test in that order.  States from
    the first non-finite one on are not diagonalized.
    """
    if registers is None:
        registers = np.zeros((blocks.shape[0], 0))
    finite = np.isfinite(blocks).all(axis=(1, 2)) & np.isfinite(registers).all(axis=1)
    non_finite = np.flatnonzero(~finite)
    k = non_finite[0] if non_finite.size else blocks.shape[0]
    m, pops = blocks[:k], registers[:k]
    dagger = m.conj().transpose(0, 2, 1)
    herm = np.abs(m - dagger).max(axis=(1, 2))
    trace = np.trace(m, axis1=1, axis2=2) + pops.sum(axis=1)
    drift = np.abs(trace.real - 1.0) + np.abs(trace.imag)
    lowest = np.minimum(np.linalg.eigvalsh(0.5 * (m + dagger)).min(axis=1),
                        pops.min(axis=1, initial=np.inf))
    failing = (herm > HERM_TOL) | (drift > TRACE_TOL) | (lowest < POSITIVITY_FLOOR)
    if failing.any():
        i = int(np.argmax(failing))
        if herm[i] > HERM_TOL:
            raise StateInvariantError(f"not Hermitian: max |rho - rho^dag| = {herm[i]:.3e}")
        if drift[i] > TRACE_TOL:
            raise StateInvariantError(f"trace drift {drift[i]:.3e} exceeds {TRACE_TOL}")
        raise StateInvariantError(f"negative eigenvalue {lowest[i]:.3e}")
    if non_finite.size:
        raise StateInvariantError("density matrix has non-finite entries")


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
    h_eff[:n, :n] = h.dense()
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
    exactly: expm(L t) applied to the vectorized density matrix.  The
    returned state is re-validated, so trace drift raises instead of being
    renormalized away.
    """
    if not 0 <= t < np.inf:
        raise ValueError("evolution time must be non-negative and finite")
    if rho0.dim != gen.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match generator {gen.dim}")
    if t == 0:
        return rho0
    vec = expm(gen.matrix * t) @ rho0.matrix.reshape(-1, order="F")
    return DensityMatrix(vec.reshape((gen.dim, gen.dim), order="F"))


def _real_generator(h: Hamiltonian, spec: TransportSpec) -> np.ndarray:
    """build_liouvillian's invariant block B in the real coordinates of the
    module docstring: Re(B M) + Im(B M), where B M = ((1 + i) B + (1 - i) B P)
    / 2 and the permutation P transposes the site block."""
    gen = build_liouvillian(h, spec)
    n, d = spec.n_sites, gen.dim
    sink, loss = gen.sink_index, gen.sink_index + 1
    # rho_ij sits at i + d j; the site block in column-stacking order, then
    # the two register populations
    keep = np.concatenate([(np.arange(n) + d * np.arange(n)[:, None]).ravel(),
                           [sink + d * sink, loss + d * loss]])
    flip = np.append(np.arange(n * n).reshape(n, n).T.ravel(), [n * n, n * n + 1])
    block = gen.matrix[np.ix_(keep, keep)]
    mixed = 0.5 * ((1 + 1j) * block + (1 - 1j) * block[:, flip])
    return mixed.real + mixed.imag


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


def _transport_batch(h: Hamiltonian, spec: TransportSpec, rates: np.ndarray,
                     t_max: float, tol: float) -> tuple:
    """transport_efficiency at every row of rates, one row of per-site
    dephasing rates per grid point, in place of spec.dephasing_rates.

    The real generator G_0 (_real_generator) is built once, without
    dephasing, and each point's generator is G_0 minus its diagonal
    coherence damping (module docstring).  The points run in chunks of
    _chunk_width(n).  A chunk takes one expm of its stacked step matrices
    and steps a real (checkpoint, point, coordinate) path, each point by
    its own step matrix; every point's result is the same as when it runs
    alone.  The stop rule, the validation and the sink range check then act on the
    whole chunk, and the error raised is the one that running the points
    one by one in grid order would raise first: the checkpoints up to each
    point's stop are validated as one stack, point by point in grid order,
    and only up to the first point whose sink population is out of range,
    whose range error is raised if its states pass.  Returns the clamped
    efficiencies and the converged flags, one per row.
    """
    if spec.trap_rate == 0:
        raise NoSinkError("transport efficiency needs trap_rate > 0")
    if not 0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    real_gen = _real_generator(h, spec.with_uniform_dephasing(0.0))
    n, size = spec.n_sites, real_gen.shape[0]
    damping = np.zeros((rates.shape[0], size))
    pairs = 0.5 * (rates[:, :, np.newaxis] + rates[:, np.newaxis])
    damping[:, :n * n] = pairs.reshape(-1, n * n)
    damping[:, :n * n:n + 1] = 0.0  # populations do not decay
    diagonal = np.arange(size)
    checkpoints = np.arange(1, _CHECKPOINTS + 1)
    eta = np.empty(rates.shape[0])
    converged = np.empty(rates.shape[0], dtype=bool)
    width = _chunk_width(n)
    for lo in range(0, rates.shape[0], width):
        points = slice(lo, lo + width)
        shift = damping[points]
        a = np.repeat(real_gen[np.newaxis], shift.shape[0], axis=0)
        a[:, diagonal, diagonal] -= shift
        a *= t_max / _CHECKPOINTS
        steps = expm(a)
        # site population rho_ii at i (n + 1), sink population at n^2
        path = np.zeros((_CHECKPOINTS + 1, shift.shape[0], size))
        path[0, :, spec.source_site * (n + 1)] = 1.0
        for c in range(_CHECKPOINTS):
            np.matmul(steps, path[c, :, :, np.newaxis], out=path[c + 1, :, :, np.newaxis])
        # a run is armed once some earlier feed exceeded tol and stops at the
        # first armed checkpoint whose feed is back at or below it
        above = path[:, :, spec.sink_site * (n + 1)] > tol
        fired = np.logical_or.accumulate(above, axis=0)[:-1] & ~above[1:]
        converged[points] = fired.any(axis=0)
        stop = np.where(converged[points], fired.argmax(axis=0) + 1, _CHECKPOINTS)
        sink_pop = path[stop, np.arange(shift.shape[0]), n * n]
        outside = ~((sink_pop >= -1e-8) & (sink_pop <= 1 + 1e-8))
        checked = int(np.argmax(outside)) + 1 if outside.any() else shift.shape[0]
        # point-major, so the first failing state belongs to the earliest point
        states = path[1:, :checked].transpose(1, 0, 2)[checkpoints <= stop[:checked, np.newaxis]]
        _check_states(_site_blocks(states[:, :n * n], n), states[:, n * n:])
        if outside.any():
            raise StateInvariantError(f"sink population {sink_pop[checked - 1]} outside [0, 1]")
        eta[points] = np.clip(sink_pop, 0.0, 1.0)
    return eta, converged


def transport_efficiency(h: Hamiltonian, spec: TransportSpec,
                         t_max: float = 1000.0, tol: float = 1e-8) -> tuple:
    """Sink population at the flow-convergence time or at the horizon.

    The sink fills at trap_rate * rho[sink_site, sink_site]; the run stops
    early once that feed rate has risen above tol * trap_rate and dropped
    back below it (checked at checkpoint times).

    Only the invariant subspace of the module docstring evolves, in its
    real coordinates: n^2 + 2 of build_liouvillian's (n + 2)^2 coordinates
    (51 of 81 at n = 7).  One real step matrix expm(G t_max / _CHECKPOINTS)
    carries them from checkpoint to checkpoint.  The whole trajectory is
    stepped first; the checkpoints up to the stop are then mapped back to
    their site blocks and validated, with the two register populations, as
    one stack, which raises for the first invalid state just as checking
    each checkpoint in turn would.  This is the one-point case of the batch
    that goldilocks_sweep runs.  Returns (eta, converged) where converged
    reports whether the flow criterion fired before t_max.
    """
    eta, converged = _transport_batch(h, spec, spec.dephasing_rates[np.newaxis], t_max, tol)
    return float(eta[0]), bool(converged[0])


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
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("gamma grid must be strictly ascending and positive")
        if np.any(eff < 0) or np.any(eff > 1):
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
    (_transport_batch): one generator without dephasing, shifted by each
    point's damping, one stacked expm and one stepping loop per chunk of
    the grid.  Results are returned in grid order.
    """
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("gamma grid must be a non-empty 1-d sequence")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("gamma grid must be strictly ascending and positive")

    rates = np.repeat(grid[:, np.newaxis], spec_template.n_sites, axis=1)
    eff, flags = _transport_batch(h, spec_template, rates, t_max, tol)
    return EfficiencyCurve(grid, eff, flags, h.content_hash())
