"""Site networks, their Hamiltonians, and the engines' shared failure vocabulary.

Single-excitation tight-binding models: a network of sites with on-site
energies and pairwise couplings, and its dense Hamiltonian.  All energies
are angular frequencies with hbar = 1; see the README units note.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
# largest eps * ||H|| * t of a walk or a drive, about the rounding error of
# its phases in radians.  Beyond it a walk's populations may be off by more
# than walk.NORM_TOL, and no test after the run can tell: the propagator
# stays unitary to rounding error however many phase bits are lost.
# Transport has no such bound; it judges each step by the trace drift it
# causes (open_system._transport_batch).
_MAX_PHASE_ERROR = 1e-10


class StateInvariantError(RuntimeError):
    """A run's state broke an invariant (trace drift, positivity, absorbed
    energy, ...); every run-time invariant check raises it or a subclass."""


class NetworkError(ValueError):
    """Inconsistent site network (shape mismatch, asymmetry, bad diagonal)."""


class MappingError(ValueError):
    """Invalid site mapping (not a permutation, wrong length, bad scale)."""


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _integer(value, name: str) -> int:
    """value as an int (numpy integers too); a float or any other
    non-integral value raises ValueError rather than being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_phase_error(rate, t, product: str, phases: str) -> None:
    """Raise LinAlgError when eps * rate * t (spelled product) exceeds the
    bound, computed in Python floats, which overflow to inf without a warning."""
    error = float(np.finfo(float).eps) * float(rate) * float(t)
    if error > _MAX_PHASE_ERROR:
        raise np.linalg.LinAlgError(
            f"{product} = {error:.3e} exceeds {_MAX_PHASE_ERROR:g}: "
            f"the {phases} phases carry too few significant bits")


def _default_labels(prefix: str, n: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(n))


@dataclass(frozen=True)
class SiteNetwork:
    """Sites with on-site energies and symmetric pairwise couplings."""

    on_site: np.ndarray
    couplings: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        eps = _frozen_array(self.on_site, float)
        if eps.ndim != 1 or eps.size == 0:
            raise NetworkError("on_site must be a non-empty 1-d sequence")
        n = eps.size
        v = _frozen_array(self.couplings, float)
        if v.shape != (n, n):
            raise NetworkError(f"couplings shape {v.shape} does not match {n} sites")
        if not (np.isfinite(eps).all() and np.isfinite(v).all()):
            raise NetworkError("on-site energies and couplings must be finite")
        if not np.array_equal(v, v.T):
            raise NetworkError("couplings must be symmetric")
        if np.any(np.diagonal(v) != 0.0):
            raise NetworkError("couplings diagonal must be exactly zero")
        labels = tuple(self.labels) or _default_labels("s", n)
        if len(labels) != n:
            raise NetworkError(f"{len(labels)} labels for {n} sites")
        object.__setattr__(self, "on_site", eps)
        object.__setattr__(self, "couplings", v)
        object.__setattr__(self, "labels", labels)

    @property
    def n_sites(self) -> int:
        return self.on_site.size


@dataclass(frozen=True)
class MappingRecord:
    """Site bijection plus the unit scale relating two Hamiltonians."""

    site_bijection: tuple
    unit_scale: float = 1.0

    def __post_init__(self):
        try:
            perm = tuple(_integer(p, "site bijection entry") for p in self.site_bijection)
        except ValueError as exc:
            raise MappingError(str(exc)) from None
        if sorted(perm) != list(range(len(perm))):
            raise MappingError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
        if not self.unit_scale > 0.0:
            raise MappingError("unit_scale must be positive")
        object.__setattr__(self, "site_bijection", perm)
        object.__setattr__(self, "unit_scale", float(self.unit_scale))

    def inverse(self) -> "MappingRecord":
        inv = np.argsort(np.asarray(self.site_bijection))
        return MappingRecord(tuple(int(i) for i in inv), 1.0 / self.unit_scale)


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian operator over a labelled finite basis of sites.

    The matrix is dense complex; Hermiticity is checked entrywise at
    construction.  The Bose-Hubbard engine works on scipy sparse matrices
    directly and does not use this class.
    """

    matrix: np.ndarray
    basis_labels: tuple = ()

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        deviation = np.abs(m - m.conj().T).max() if m.size else 0.0
        if deviation > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {deviation:.3e}")
        m.setflags(write=False)
        labels = tuple(self.basis_labels) or _default_labels("b", m.shape[0])
        if len(labels) != m.shape[0]:
            raise ValueError(f"{len(labels)} labels for dimension {m.shape[0]}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "basis_labels", labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def content_hash(self) -> str:
        """SHA-256 over dimension, labels and matrix entries."""
        h = hashlib.sha256()
        h.update(str(self.dim).encode())
        h.update("\x1f".join(self.basis_labels).encode())
        h.update(np.ascontiguousarray(self.matrix).tobytes())
        return h.hexdigest()


def build_tight_binding(net: SiteNetwork) -> Hamiltonian:
    """Hamiltonian with on-site energies on the diagonal and couplings off it."""
    h = net.couplings.astype(complex)
    h[np.diag_indices(net.n_sites)] = net.on_site
    return Hamiltonian(h, net.labels)


def map_network(h_target: Hamiltonian, rec: MappingRecord) -> Hamiltonian:
    """Carry a Hamiltonian across a site bijection with a unit rescale.

    Returns H_source with H_source[p(m), p(n)] = unit_scale * H_target[m, n]
    for the bijection p in ``rec``.  Basis labels travel with their sites.
    """
    perm = np.asarray(rec.site_bijection)
    if perm.size != h_target.dim:
        raise MappingError(
            f"permutation length {perm.size} does not match dimension {h_target.dim}")
    inv = np.argsort(perm)
    out = rec.unit_scale * h_target.matrix[np.ix_(inv, inv)]
    labels = tuple(np.asarray(h_target.basis_labels, dtype=object)[inv])
    return Hamiltonian(out, labels)


def apply_static_disorder(h: Hamiltonian, sigma: float, seed: int) -> Hamiltonian:
    """Add independent Gaussian offsets of width sigma to the diagonal.

    Off-diagonal entries are untouched; a fixed seed gives identical output.
    Raises LinAlgError when a disordered energy overflows.
    """
    if not sigma >= 0:  # NaN fails too
        raise ValueError("disorder sigma must be non-negative")
    if sigma == 0:
        return Hamiltonian(h.matrix, h.basis_labels)
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, sigma, h.dim)
    out = np.array(h.matrix, copy=True)
    with np.errstate(over="ignore"):
        out[np.diag_indices(h.dim)] += offsets
    if not np.isfinite(out).all():
        raise np.linalg.LinAlgError(
            f"disorder of width {sigma:g} overflows the on-site energies")
    return Hamiltonian(out, h.basis_labels)
