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
The last segment gets no kick, since a diagonal phase leaves populations
unchanged, so each shot draws n_segments - 1 rows of phases, all in one
call, from a random stream keyed on (seed, shot index).  The shots run in
chunks whose phase block fits a fixed byte budget, except that a chunk holds
at least 16 shots: past 1/16 of the budget per shot (256 KiB, e.g. 101 sites
x 325 kicks) even the smallest chunk exceeds it.  The chunk size has no
effect on results: a run is reproducible whatever the batching.  A kick
exp(-i phi) is built from the half-angle tangent t = tan(phi / 2) as
((1 - t^2) - 2i t) / (1 + t^2), with one tan over each chunk's contiguous
shot-major block of half phases.

One helper thread keeps one chunk ahead: it draws, scales and tans chunk
k + 1's block and transposes it to segment-major (kick, site, shot) order
while the calling thread runs chunk k's segment products and kicks on the
segment-major block it was handed.  At most three blocks are live at once,
each within the budget: the one being applied, and the next chunk's
shot-major draw and its segment-major copy.  The populations are the same
bytes as with no helper.

A walk refuses (numpy.linalg.LinAlgError) a time at which eps * ||H|| * t
exceeds 1e-10: exp(-i lambda t) then keeps too few significant bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import Hamiltonian, _integer
from .open_system import StateInvariantError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
NORM_TOL = 1e-10
# byte budget of one shot chunk's phase block in the stochastic-phase ensemble
_PHASE_BYTES = 4 << 20
# chunk widths are whole multiples of this many shots (see _ensemble_populations)
_SHOT_ALIGN = 16
# largest phase_sigma, 1/eps: beyond it one ulp of a phase sigma z is about
# |z| radians, so a kick carries no bits mod 2 pi (and 0.5 sigma z is finite)
_MAX_PHASE_SIGMA = 2 ** 52
# largest eps * ||H|| * t of a walk: eigh's eigenvalues are off by about
# eps * ||H|| and lambda * t is rounded, so each phase exp(-i lambda t) is off
# by about eps * ||H|| * t radians; beyond this bound populations may be off
# by more than the norm drift a walk state tolerates
_MAX_PHASE_ERROR = NORM_TOL


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
        if not 0 <= self.phase_sigma <= _MAX_PHASE_SIGMA:
            raise ValueError(f"phase_sigma must be finite and in [0, {_MAX_PHASE_SIGMA}]")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        object.__setattr__(self, "phase_sigma", float(self.phase_sigma))


def propagator(h: Hamiltonian, t: float) -> np.ndarray:
    """Unitary exp(-iHt), by eigendecomposition of the Hermitian H."""
    w, v = np.linalg.eigh(h.matrix)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _check_walk(h: Hamiltonian, input_mode: int, t: float) -> None:
    """Reject an input mode that is not a site index of h and a negative or
    non-finite time, before any work; raise LinAlgError when eps * ||H|| * t
    exceeds _MAX_PHASE_ERROR, with ||H|| bounded by the max row sum of |H|
    (no eigensolve)."""
    if not 0 <= _integer(input_mode, "input mode") < h.dim:
        raise ValueError(f"input mode {input_mode} out of range for dimension {h.dim}")
    if not 0 <= t < np.inf:
        raise ValueError("time must be non-negative and finite")
    phase_error = np.finfo(float).eps * np.abs(h.matrix).sum(axis=1).max() * t
    if phase_error > _MAX_PHASE_ERROR:
        raise np.linalg.LinAlgError(
            f"eps * ||H|| * t = {phase_error:.3e} exceeds {_MAX_PHASE_ERROR:g}: "
            "the evolution phases carry too few significant bits")


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
    """Shots per chunk: as many as keep one chunk's phase block, 8 * dim *
    (n_segments - 1) bytes per shot, within _PHASE_BYTES, rounded down to a
    whole number of _SHOT_ALIGN-shot blocks, but at least _SHOT_ALIGN: once a
    shot's phases exceed _PHASE_BYTES / _SHOT_ALIGN, a chunk's block exceeds
    the budget.  A one-segment ensemble has no phases; it is sized as if it
    had one kick."""
    fit = _PHASE_BYTES // (8 * max(n_segments - 1, 1) * dim)
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


def _phase_block(base: int, n_kicks: int, dim: int, half_sigma: float,
                 lo: int, hi: int) -> np.ndarray:
    """tan(phi / 2) of shots lo..hi-1, segment-major: (n_kicks, dim, hi - lo).

    Each shot draws its (n_kicks, dim) normals in one call on the stream
    keyed on (base, shot); one scale and one tan run over the contiguous
    shot-major block, which is then transposed so that each kick reads a
    contiguous (dim, width) slab."""
    half = np.empty((hi - lo, n_kicks, dim))
    for j in range(hi - lo):
        np.random.default_rng([base, lo + j]).standard_normal(out=half[j])
    half *= half_sigma
    np.tan(half, out=half)
    return np.ascontiguousarray(half.transpose(1, 2, 0))


def _ensemble_populations(h: Hamiltonian, input_mode: int, tau: float,
                          spec: DephasingEnsembleSpec, sample_at=None) -> dict:
    """Ensemble-averaged populations after selected segment counts.

    Shot k draws its n_segments - 1 rows of dim phases, one per kick, in one
    call on a stream keyed on (seed, k), so results do not depend on how
    shots are batched; the last segment gets no kick, since a diagonal phase
    leaves populations unchanged and no later segment reads the state.
    Shots run in chunks sized by _chunk_width (within _PHASE_BYTES where
    _SHOT_ALIGN shots fit in it); each chunk carries a (dim, chunk) state
    through every segment.  The chunk size has no effect on results: the
    columns of a matrix product are independent, and a chunk spans whole
    _SHOT_ALIGN-shot blocks, so each shot's column meets the same BLAS
    kernel as in one product over all shots (a one-column product would
    take the matrix-vector kernel, hence no lone trailing shot).

    The kick exp(-i phi) is built from the half-angle tangent (see
    _half_angle_kick), with one tan over the chunk's whole contiguous block
    of half phases, so every element takes the same ufunc loop whatever the
    chunk width.  The block is handed over segment-major (_phase_block), so
    a kick reads contiguous memory; the kick's arithmetic gives the same
    bits in any layout.

    One helper thread draws chunk k + 1's block while this thread runs chunk
    k's segment products and kicks: the RNG fill, the tan and the matrix
    products all release the GIL.  The next chunk is submitted only once
    this one's block is taken, so at most three blocks of up to _PHASE_BYTES
    each are live: the one being applied, and the next chunk's shot-major
    draw and its segment-major copy while the helper transposes.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept out of import aqsim

    dim, n_segments = h.dim, spec.n_segments
    wanted = sorted(set(sample_at if sample_at is not None else [n_segments]))
    pops = {seg: np.empty((dim, spec.shots)) for seg in wanted}  # |amps|^2 per shot
    bounds = _chunk_bounds(spec.shots, _chunk_width(n_segments, dim))
    args = (spec.seed % (1 << 64), n_segments - 1, dim, 0.5 * spec.phase_sigma)
    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(_phase_block, *args, *bounds[0])
        u_seg = propagator(h, tau)
        for i, (lo, hi) in enumerate(bounds):
            phases = pending.result()
            if i + 1 < len(bounds):
                pending = helper.submit(_phase_block, *args, *bounds[i + 1])
            width = hi - lo
            amps = np.zeros((dim, width), dtype=complex)
            amps[input_mode, :] = 1.0
            kick = np.empty((dim, width), dtype=complex)
            scratch = np.empty((dim, width))
            if 0 in pops:
                pops[0][:, lo:hi] = np.abs(amps) ** 2
            for seg in range(1, n_segments + 1):
                amps = u_seg @ amps
                if seg < n_segments:
                    amps *= _half_angle_kick(phases[seg - 1], kick, scratch)
                if seg in pops:
                    pops[seg][:, lo:hi] = np.abs(amps) ** 2
    averaged = {}
    for seg, p in pops.items():
        mean = p.mean(axis=1)
        total = mean.sum()
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise StateInvariantError(f"ensemble populations sum to {total}, drift > 1e-9")
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
    pops = _ensemble_populations(h, input_mode, t / spec.n_segments, spec)
    return pops[spec.n_segments]


def equivalent_dephasing_rate(spec: DephasingEnsembleSpec, t: float) -> float:
    """Lindblad pure-dephasing rate matching the ensemble at total time t."""
    if not 0 < t < np.inf:
        raise ValueError("time must be positive and finite")
    return spec.phase_sigma ** 2 * spec.n_segments / t


def _sigma_x(populations: np.ndarray, center: int) -> float:
    offsets = np.arange(populations.size) - center
    return float(np.sqrt(np.sum(populations * offsets ** 2)))


def spreading_stats(h: Hamiltonian, times,
                    dephasing: DephasingEnsembleSpec = None) -> list:
    """Spatial spread sqrt(<(m - m0)^2>) of a centred walk at given times.

    The chain must have odd length; the walker is launched at its middle
    site m0 = (dim - 1) // 2.  With a dephasing spec, segment duration is held fixed at
    times[-1] / n_segments so the equivalent dephasing rate is the same at
    every sampled time; each requested time must then sit on a segment
    boundary.
    """
    if h.dim % 2 == 0:
        raise ValueError("spreading statistics require an odd chain length")
    center = (h.dim - 1) // 2
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not (np.isfinite(ts).all() and ts[0] >= 0 and np.all(np.diff(ts) > 0)):
        raise ValueError("times must be finite, non-negative and strictly ascending")
    if dephasing is None or dephasing.phase_sigma == 0.0:
        return [(float(t), _sigma_x(evolve_unitary(h, center, t).populations(), center))
                for t in ts]
    _check_walk(h, center, ts[-1])
    tau = ts[-1] / dephasing.n_segments
    segs = ts / tau
    rounded = np.rint(segs).astype(int)
    if np.any(np.abs(segs - rounded) > 1e-9):
        raise ValueError(
            "with dephasing, every time must be a multiple of times[-1] / n_segments")
    pops = _ensemble_populations(h, center, tau, dephasing,
                                 sample_at=list(rounded))
    return [(float(t), _sigma_x(pops[k], center)) for t, k in zip(ts, rounded)]
