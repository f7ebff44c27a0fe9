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
Each shot draws all of its phases in one call, from a random stream keyed
on (seed, shot index), and the shots run in chunks whose phase block fits a
fixed byte budget.  The chunk size has no effect on results: a run is
reproducible whatever the batching.  A kick exp(-i phi) is built from the
half-angle tangent t = tan(phi / 2) as ((1 - t^2) - 2i t) / (1 + t^2), with
one tan over each chunk's contiguous block of half phases; the last segment
gets no kick, since a diagonal phase leaves populations unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import Hamiltonian, _integer

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
NORM_TOL = 1e-10
# byte budget of one shot chunk's phase block in the stochastic-phase ensemble
_PHASE_BYTES = 4 << 20
# chunk widths are whole multiples of this many shots (see _ensemble_populations)
_SHOT_ALIGN = 16


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
        for name in ("n_segments", "shots", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        if not 0 <= self.phase_sigma < np.inf:
            raise ValueError("phase_sigma must be non-negative and finite")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        object.__setattr__(self, "phase_sigma", float(self.phase_sigma))


def propagator(h: Hamiltonian, t: float) -> np.ndarray:
    """Unitary exp(-iHt), by eigendecomposition of the Hermitian H."""
    w, v = np.linalg.eigh(h.matrix)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _check_walk(h: Hamiltonian, input_mode: int, t: float) -> None:
    """Reject an input mode that is not a site index of h and a negative or
    non-finite time, before any work."""
    if not 0 <= _integer(input_mode, "input mode") < h.dim:
        raise ValueError(f"input mode {input_mode} out of range for dimension {h.dim}")
    if not 0 <= t < np.inf:
        raise ValueError("time must be non-negative and finite")


def evolve_unitary(h: Hamiltonian, input_mode: int, t: float) -> WalkState:
    """State exp(-iHt)|input_mode> of a walk started on one site."""
    _check_walk(h, input_mode, t)
    if t == 0:
        amps = np.zeros(h.dim, dtype=complex)
        amps[input_mode] = 1.0
        return WalkState(amps, 0.0)
    w, v = np.linalg.eigh(h.matrix)
    return WalkState(v @ (np.exp(-1j * w * t) * v[input_mode].conj()), t)


def length_to_time(z: float, n_index: float) -> float:
    """Propagation length (metres) to evolution time: t = n_index * z / c."""
    if not 0 <= z < np.inf:
        raise ValueError("length must be non-negative and finite")
    if not 0 < n_index < np.inf:
        raise ValueError("refractive index must be positive and finite")
    return n_index * z / SPEED_OF_LIGHT


def time_to_length(t: float, n_index: float) -> float:
    """Inverse of length_to_time: z = c * t / n_index."""
    if not 0 <= t < np.inf:
        raise ValueError("time must be non-negative and finite")
    if not 0 < n_index < np.inf:
        raise ValueError("refractive index must be positive and finite")
    return SPEED_OF_LIGHT * t / n_index


def _chunk_width(n_segments: int, dim: int) -> int:
    """Shots per chunk: as many as keep one chunk's phases within _PHASE_BYTES,
    rounded down to a whole number of _SHOT_ALIGN-shot blocks."""
    fit = _PHASE_BYTES // (8 * n_segments * dim)
    return max(_SHOT_ALIGN, fit - fit % _SHOT_ALIGN)


def _chunk_bounds(shots: int, chunk: int) -> list:
    """(start, stop) shot ranges of width chunk; a lone trailing shot joins
    the range before it, so no range but a one-shot ensemble has width 1."""
    edges = list(range(0, shots, chunk)) + [shots]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _half_angle_kick(t: np.ndarray, kick: np.ndarray,
                     scratch: np.ndarray) -> np.ndarray:
    """Write exp(-i phi) into kick from t = tan(phi / 2), as
    ((1 - t^2) - 2i t) / (1 + t^2); scratch is a real buffer of t's shape.

    tan of a finite double is below ~1.7e16 in magnitude, so t^2 cannot
    overflow and |phi| at pi gives a kick of -1."""
    np.multiply(t, t, out=scratch)
    scratch += 1.0
    np.divide(-2.0, scratch, out=scratch)  # -2 / (1 + t^2)
    np.multiply(t, scratch, out=kick.imag)
    np.subtract(-1.0, scratch, out=kick.real)
    return kick


def _ensemble_populations(h: Hamiltonian, input_mode: int, tau: float,
                          n_segments: int, phase_sigma: float, shots: int,
                          seed: int, sample_at=None) -> dict:
    """Ensemble-averaged populations after selected segment counts.

    Shot k draws all its phases, (n_segments, dim), in one call on a stream
    keyed on (seed, k), so results do not depend on how shots are batched.
    Shots run in chunks whose phase block stays within _PHASE_BYTES; each
    chunk carries a (dim, chunk) state through every segment.  The chunk
    size has no effect on results: the columns of a matrix product are
    independent, and a chunk spans whole _SHOT_ALIGN-shot blocks, so each
    shot's column meets the same BLAS kernel as in one product over all
    shots (a one-column product would take the matrix-vector kernel, hence
    no lone trailing shot).

    The kick exp(-i phi) is built from the half-angle tangent (see
    _half_angle_kick): one tan over the chunk's whole contiguous block of
    half phases, so every element takes the same ufunc loop whatever the
    chunk width.  The last segment gets no kick: a diagonal phase leaves
    populations unchanged and no later segment reads the state.
    """
    dim = h.dim
    u_seg = propagator(h, tau)
    wanted = sorted(set(sample_at if sample_at is not None else [n_segments]))
    pops = {seg: np.empty((dim, shots)) for seg in wanted}  # |amps|^2 per shot
    base = int(np.uint64(seed % (1 << 64)))
    for lo, hi in _chunk_bounds(shots, _chunk_width(n_segments, dim)):
        width = hi - lo
        half = np.empty((width, n_segments, dim))
        for j in range(width):
            rng = np.random.default_rng(np.random.SeedSequence([base, lo + j]))
            rng.standard_normal(out=half[j])
        half *= 0.5 * phase_sigma
        np.tan(half, out=half)
        amps = np.zeros((dim, width), dtype=complex)
        amps[input_mode, :] = 1.0
        kick = np.empty((dim, width), dtype=complex)
        scratch = np.empty((dim, width))
        if 0 in pops:
            pops[0][:, lo:hi] = np.abs(amps) ** 2
        for seg in range(1, n_segments + 1):
            amps = u_seg @ amps
            if seg < n_segments:
                amps *= _half_angle_kick(half[:, seg - 1].T, kick, scratch)
            if seg in pops:
                pops[seg][:, lo:hi] = np.abs(amps) ** 2
    averaged = {}
    for seg, p in pops.items():
        mean = p.mean(axis=1)
        total = mean.sum()
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"ensemble populations sum to {total}, drift > 1e-9")
        averaged[seg] = mean
    return averaged


def dephased_walk(h: Hamiltonian, input_mode: int, t: float,
                  spec: DephasingEnsembleSpec) -> np.ndarray:
    """Ensemble-averaged site populations of the stochastic-phase walk.

    With phase_sigma == 0 the ensemble is a single noiseless trajectory and
    the exact unitary populations are returned directly.
    """
    _check_walk(h, input_mode, t)
    if spec.phase_sigma == 0.0:
        return evolve_unitary(h, input_mode, t).populations()
    pops = _ensemble_populations(h, input_mode, t / spec.n_segments,
                                 spec.n_segments, spec.phase_sigma,
                                 spec.shots, spec.seed)
    return pops[spec.n_segments]


def equivalent_dephasing_rate(spec: DephasingEnsembleSpec, t: float) -> float:
    """Lindblad pure-dephasing rate matching the ensemble at total time t."""
    if not 0 < t < np.inf:
        raise ValueError("time must be positive and finite")
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
    if not (np.isfinite(ts).all() and ts[0] >= 0 and np.all(np.diff(ts) > 0)):
        raise ValueError("times must be finite, non-negative and strictly ascending")
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
