"""Closed-system single-particle walks and stochastic-phase dephasing.

A single excitation injected into one mode evolves as exp(-iHt)|m>.  The
photonic reading: H is the waveguide-array Hamiltonian, the evolution time
maps to propagation length through z = c t / n_index, and injecting bright
classical light realizes the same amplitude equations (same code path, two
interpretations).

Dephasing is modelled as an ensemble of unitary trajectories: the evolution
is sliced into segments and each segment ends with independent Gaussian
random phases on every site, mimicking programmable phase-shifter noise.
In the many-segment limit the ensemble average reproduces Lindblad pure
dephasing with rate

    gamma = phase_sigma**2 * n_segments / t

(each segment multiplies site coherences by exp(-phase_sigma**2), because
E[exp(i(phi_m - phi_n))] = exp(-phase_sigma**2) for independent phases).
The shot-index-keyed random streams make runs reproducible regardless of
batching or parallel execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import Hamiltonian

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
NORM_TOL = 1e-10


@dataclass(frozen=True)
class WalkState:
    """Amplitude vector over sites at a given time; always unit norm."""

    amplitudes: np.ndarray
    time: float

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex, copy=True)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d vector")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm_err = abs(np.vdot(amps, amps).real - 1.0)
        if norm_err > NORM_TOL:
            raise ValueError(f"norm drift {norm_err:.3e} exceeds {NORM_TOL}")
        if not 0 <= self.time < np.inf:
            raise ValueError("time must be non-negative and finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "time", float(self.time))

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DephasingEnsembleSpec:
    """Stochastic-phase ensemble: segment count, phase width, shots, seed."""

    n_segments: int
    phase_sigma: float
    shots: int
    seed: int

    def __post_init__(self):
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        if not 0 <= self.phase_sigma < np.inf:
            raise ValueError("phase_sigma must be non-negative and finite")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        object.__setattr__(self, "n_segments", int(self.n_segments))
        object.__setattr__(self, "phase_sigma", float(self.phase_sigma))
        object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "seed", int(self.seed))


def propagator(h: Hamiltonian, t: float) -> np.ndarray:
    """Unitary exp(-iHt), by eigendecomposition of the Hermitian H."""
    w, v = np.linalg.eigh(h.dense())
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def evolve_unitary(h: Hamiltonian, input_mode: int, t: float) -> WalkState:
    """State exp(-iHt)|input_mode> of a walk started on one site."""
    if not 0 <= input_mode < h.dim:
        raise ValueError(f"input mode {input_mode} out of range for dimension {h.dim}")
    if t < 0:
        raise ValueError("time must be non-negative")
    if t == 0:
        amps = np.zeros(h.dim, dtype=complex)
        amps[input_mode] = 1.0
        return WalkState(amps, 0.0)
    w, v = np.linalg.eigh(h.dense())
    return WalkState(v @ (np.exp(-1j * w * t) * v[input_mode].conj()), t)


def length_to_time(z: float, n_index: float) -> float:
    """Propagation length (metres) to evolution time: t = n_index * z / c."""
    if z < 0:
        raise ValueError("length must be non-negative")
    if n_index <= 0:
        raise ValueError("refractive index must be positive")
    return n_index * z / SPEED_OF_LIGHT


def time_to_length(t: float, n_index: float) -> float:
    """Inverse of length_to_time: z = c * t / n_index."""
    if t < 0:
        raise ValueError("time must be non-negative")
    if n_index <= 0:
        raise ValueError("refractive index must be positive")
    return SPEED_OF_LIGHT * t / n_index


def _shot_generators(seed: int, shots: int):
    base = int(np.uint64(seed % (1 << 64)))
    return [np.random.default_rng(np.random.SeedSequence([base, k])) for k in range(shots)]


def _ensemble_populations(h: Hamiltonian, input_mode: int, tau: float,
                          n_segments: int, phase_sigma: float, shots: int,
                          seed: int, sample_at=None) -> dict:
    """Ensemble-averaged populations after selected segment counts.

    Every shot k draws its phases from a stream keyed on (seed, k), with the
    segments of one shot drawn in order, so results do not depend on how
    shots are batched or distributed.
    """
    dim = h.dim
    u_seg = propagator(h, tau)
    wanted = sorted(set(sample_at if sample_at is not None else [n_segments]))
    amps = np.zeros((dim, shots), dtype=complex)
    amps[input_mode, :] = 1.0
    rngs = _shot_generators(seed, shots)
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
    averaged = {}
    for seg, pops in out.items():
        mean = pops.mean(axis=1)
        total = mean.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"ensemble populations sum to {total}, drift > 1e-9")
        averaged[seg] = mean
    return averaged


def dephased_walk(h: Hamiltonian, input_mode: int, t: float,
                  spec: DephasingEnsembleSpec) -> np.ndarray:
    """Ensemble-averaged site populations of the stochastic-phase walk.

    With phase_sigma == 0 the ensemble is a single noiseless trajectory and
    the exact unitary populations are returned directly.
    """
    if not 0 <= input_mode < h.dim:
        raise ValueError(f"input mode {input_mode} out of range for dimension {h.dim}")
    if t < 0:
        raise ValueError("time must be non-negative")
    if spec.phase_sigma == 0.0:
        return evolve_unitary(h, input_mode, t).populations()
    pops = _ensemble_populations(h, input_mode, t / spec.n_segments,
                                 spec.n_segments, spec.phase_sigma,
                                 spec.shots, spec.seed)
    return pops[spec.n_segments]


def equivalent_dephasing_rate(spec: DephasingEnsembleSpec, t: float) -> float:
    """Lindblad pure-dephasing rate matching the ensemble at total time t."""
    if t <= 0:
        raise ValueError("time must be positive")
    return spec.phase_sigma ** 2 * spec.n_segments / t


def _sigma_x(populations: np.ndarray, center: int) -> float:
    offsets = np.arange(populations.size) - center
    return float(np.sqrt(np.sum(populations * offsets ** 2)))


def spreading_stats(h: Hamiltonian, input_center: int, times,
                    dephasing: DephasingEnsembleSpec = None) -> list:
    """Spatial spread sqrt(<(m - m0)^2>) of a centred walk at given times.

    The chain must have odd length with the walker launched at the middle
    site.  With a dephasing spec, segment duration is held fixed at
    times[-1] / n_segments so the equivalent dephasing rate is the same at
    every sampled time; each requested time must then sit on a segment
    boundary.
    """
    if h.dim % 2 == 0:
        raise ValueError("spreading statistics require an odd chain length")
    center = (h.dim - 1) // 2
    if input_center != center:
        raise ValueError(f"input not centered: expected site {center}, got {input_center}")
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("times must be non-negative and strictly ascending")
    if dephasing is None or dephasing.phase_sigma == 0.0:
        return [(float(t), _sigma_x(evolve_unitary(h, center, t).populations(), center))
                for t in ts]
    tau = ts[-1] / dephasing.n_segments
    segs = ts / tau
    rounded = np.rint(segs).astype(int)
    if np.any(np.abs(segs - rounded) > 1e-9):
        raise ValueError(
            "with dephasing, every time must be a multiple of times[-1] / n_segments")
    pops = _ensemble_populations(h, center, tau, dephasing.n_segments,
                                 dephasing.phase_sigma, dephasing.shots,
                                 dephasing.seed, sample_at=list(rounded))
    return [(float(t), _sigma_x(pops[k], center)) for t, k in zip(ts, rounded)]
