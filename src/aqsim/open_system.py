"""Lindblad evolution with dephasing, sink trapping, and recombination.

The density matrix lives on the system sites plus two absorbing registers,
sink and loss, appended after the sites.  Trapping moves population from
the sink site into the sink register at the trap rate; recombination moves
population from every site into the loss register.  Both channels are
ordinary Lindblad dissipators, so the generator is trace preserving and
transport efficiency is a plain population readout on the sink register.

Generator, acting on vectorized rho (column stacking):

    d rho/dt = -i[H, rho] + sum_m gamma_m D[|m><m|] rho
               + trap_rate D[|sink><sink_site|] rho
               + recombination_rate sum_m D[|loss><m|] rho

with D[A] rho = A rho A^dag - (A^dag A rho + rho A^dag A) / 2.

The generator does not depend on time, so states are propagated exactly by
the matrix exponential expm(L t) (scaling and squaring) rather than by an
ODE stepper: large rates cost a few more squarings, not more steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
# Not called: perfbench/tracing.py wraps open_system.solve_ivp by name when it
# traces this layer, so the binding stays until that hook is dropped.
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.linalg import expm

from .hamiltonians import Hamiltonian

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
POSITIVITY_FLOOR = -1e-8


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
        for name, idx in (("source_site", self.source_site), ("sink_site", self.sink_site)):
            if not 0 <= int(idx) < n:
                raise ValueError(f"{name} {idx} out of range for {n} sites")
        rates = np.append(gamma, [self.trap_rate, self.recombination_rate])
        if not np.isfinite(rates).all():
            raise ValueError("rates must be finite")
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        gamma.setflags(write=False)
        object.__setattr__(self, "source_site", int(self.source_site))
        object.__setattr__(self, "sink_site", int(self.sink_site))
        object.__setattr__(self, "trap_rate", float(self.trap_rate))
        object.__setattr__(self, "recombination_rate", float(self.recombination_rate))
        object.__setattr__(self, "dephasing_rates", gamma)

    @property
    def n_sites(self) -> int:
        return self.dephasing_rates.size

    def with_uniform_dephasing(self, gamma: float) -> "TransportSpec":
        return replace(self, dephasing_rates=np.full(self.n_sites, float(gamma)))


@dataclass(frozen=True)
class DensityMatrix:
    """Positive unit-trace state over system sites + sink + loss registers."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateInvariantError(f"density matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise StateInvariantError("density matrix has non-finite entries")
        herm = np.abs(m - m.conj().T).max()
        if herm > HERM_TOL:
            raise StateInvariantError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        drift = abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag)
        if drift > TRACE_TOL:
            raise StateInvariantError(f"trace drift {drift:.3e} exceeds {TRACE_TOL}")
        lowest = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
        if lowest < POSITIVITY_FLOOR:
            raise StateInvariantError(f"negative eigenvalue {lowest:.3e}")
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
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    m = np.zeros((n_sites + 2, n_sites + 2), dtype=complex)
    m[site, site] = 1.0
    return DensityMatrix(m)


@dataclass(frozen=True)
class Liouvillian:
    """Vectorized master-equation generator (column-stacking convention)."""

    matrix: np.ndarray
    n_sites: int
    spec: TransportSpec
    h_hash: str

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

    @property
    def loss_index(self) -> int:
        return self.n_sites + 1


def _dissipator_term(a: np.ndarray) -> np.ndarray:
    d = a.shape[0]
    eye = np.eye(d)
    ada = a.conj().T @ a
    return (np.kron(a.conj(), a)
            - 0.5 * np.kron(eye, ada)
            - 0.5 * np.kron(ada.T, eye))


def build_liouvillian(h: Hamiltonian, spec: TransportSpec) -> Liouvillian:
    """Assemble the generator for a Hamiltonian and a transport spec.

    The Hamiltonian acts on the system sites and is embedded in the
    site + sink + loss space with zero rows for the registers.
    """
    n = spec.n_sites
    if h.dim != n:
        raise ValueError(f"Hamiltonian dimension {h.dim} does not match spec with {n} sites")
    d = n + 2
    sink, loss = n, n + 1
    hd = np.zeros((d, d), dtype=complex)
    hd[:n, :n] = h.dense()
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
    return Liouvillian(gen, n, spec, h.content_hash())


def evolve(rho0: DensityMatrix, gen: Liouvillian, t: float) -> DensityMatrix:
    """Propagate a density matrix for time t under the generator.

    The generator does not depend on time, so the state is propagated
    exactly: expm(L t) applied to the vectorized density matrix.  The
    returned state is re-validated, so trace drift raises instead of being
    renormalized away.
    """
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    if rho0.dim != gen.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match generator {gen.dim}")
    if t == 0:
        return rho0
    vec = expm(gen.matrix * t) @ rho0.matrix.reshape(-1, order="F")
    return DensityMatrix(vec.reshape((gen.dim, gen.dim), order="F"))


def transport_efficiency(h: Hamiltonian, spec: TransportSpec,
                         t_max: float = 1000.0, tol: float = 1e-8,
                         _checkpoints: int = 100) -> tuple:
    """Sink population at the flow-convergence time or at the horizon.

    The sink fills at trap_rate * rho[sink_site, sink_site]; the run stops
    early once that feed rate has risen above tol * trap_rate and dropped
    back below it (checked at checkpoint times).  One exact step matrix
    expm(L t_max / _checkpoints) carries the state from checkpoint to
    checkpoint, and every checkpoint state is re-validated.  Returns
    (eta, converged) where converged reports whether the flow criterion
    fired before t_max.
    """
    if spec.trap_rate == 0:
        raise NoSinkError("transport efficiency needs trap_rate > 0")
    if not 0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    gen = build_liouvillian(h, spec)
    state = initial_excitation(spec.n_sites, spec.source_site)
    sink, site = gen.sink_index, spec.sink_site
    step = expm(gen.matrix * (t_max / _checkpoints))
    armed = state.population(site) > tol
    converged = False
    vec = state.matrix.reshape(-1, order="F")
    for _ in range(_checkpoints):
        vec = step @ vec
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
    return float(min(max(eta, 0.0), 1.0)), converged


@dataclass(frozen=True)
class EfficiencyCurve:
    """Transport efficiency over a dephasing-rate grid, plus run metadata."""

    gamma_grid: np.ndarray
    efficiencies: np.ndarray
    converged: tuple
    h_hash: str
    spec: TransportSpec
    t_max: float
    tol: float

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

    Each grid point is one transport_efficiency run; results are returned
    in grid order.
    """
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("gamma grid must be a non-empty 1-d sequence")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("gamma grid must be strictly ascending and positive")

    results = [transport_efficiency(h, spec_template.with_uniform_dephasing(gamma),
                                    t_max=t_max, tol=tol)
               for gamma in grid]
    eff = np.array([r[0] for r in results])
    flags = tuple(r[1] for r in results)
    return EfficiencyCurve(grid, eff, flags, h.content_hash(), spec_template,
                           float(t_max), float(tol))
