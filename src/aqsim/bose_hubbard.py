"""Bose-Hubbard exact diagonalization and lattice-modulation spectroscopy.

Number-conserving Fock basis on small lattices, the Hamiltonian on it as a
plain scipy CSR matrix

    H = -J sum_<j,k> (b_j^dag b_k + b_k^dag b_j)
        + (U/2) sum_j n_j (n_j - 1)

low-lying spectra, the condensate fraction as finite-size superfluid
diagnostic, and energy absorption under a periodic modulation of the
interaction U(t) = U (1 + delta sin(2 pi nu t)).  Absorption peaks sit at
transition frequencies (E_k - E_0) / 2 pi of states the modulation couples
to, which is how the gap and its softening show up at desk scale.

The gap scan (_gap_scan) and the drive (modulation_absorption) both solve
in the sector of states even under the site reversal j -> L - 1 - j
(the private isometry _reflection_sector): the ground state and every
state the drive couples to lie there, so each needs only about half the
Fock basis.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .hamiltonians import (HERMITICITY_TOL, StateInvariantError,
                           _check_phase_error, _integer)

if TYPE_CHECKING:
    import scipy.sparse as sp

BASIS_CAP = 200_000
# FockBasis: most entries in either of its integer tables, the states
# (states x sites, as each shift table) and the fillings ((sites + 1) x
# (bosons + 1)); a basis under BASIS_CAP can still ask for far more, e.g.
# 200000 sites, 1 boson
_TABLE_CAP = 1 << 22
_DENSE_LIMIT = 400
RESIDUAL_TOL = 1e-9
# low_spectrum's Lanczos stopping tolerance: ARPACK's test is relative to
# |theta| <= ||H||, so this stops 100x under the RESIDUAL_TOL * ||H|| check;
# iterating on to machine precision buys nothing that check or an output sees
_LANCZOS_TOL = RESIDUAL_TOL / 100
# drive_coupled_gap: smallest pair-count overlap, relative to its norm, that
# counts an excited state as reached by the modulation
_COUPLING_FLOOR = 1e-8
_DRIVE_BYTES = 1 << 20  # modulation_absorption: a chunk's (sector x nu) state
# least drive tol: the integrator raises a smaller rtol to this, and its
# atol, tol * 1e-3, must not underflow to zero
_MIN_DRIVE_TOL = 100 * float(np.finfo(float).eps)


def __getattr__(name):
    # eigsh is resolved on first access and then kept as a module global, so
    # that `import aqsim` does not load scipy.sparse; low_spectrum calls it
    # as a module attribute, so a patch of bose_hubbard.eigsh (a test, and
    # perfbench/tracing.py's span) reaches the call.
    if name != "eigsh":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.sparse.linalg import eigsh
    globals()[name] = eigsh
    return eigsh


class BasisSizeError(ValueError):
    """Requested Fock basis has more than BASIS_CAP states, or tables of more
    than _TABLE_CAP entries."""


class EigenConvergenceError(np.linalg.LinAlgError):
    """Sparse eigensolver failed to converge within its iteration cap."""


class NegativeAbsorptionError(StateInvariantError):
    """A driven state ended below the ground-state energy."""


class DriveCouplingError(ValueError):
    """No drive-coupled excitation among the k lowest states: k is too small,
    or the drive annihilates the ground state."""


class FockBasis:
    """Occupation-number states for n_sites sites and n_bosons conserved bosons.

    States are ordered lexicographically with the first site most
    significant, descending: for 2 sites / 2 bosons the order is
    (2,0), (1,1), (0,2).

    The states are built by stars and bars: a state is the gaps between
    L - 1 bars placed in N + L - 1 slots.  itertools.combinations yields the
    bar positions in ascending lexicographic order, which is ascending
    order of the occupations, so the reversed rows are the basis.

    A state's index is its rank in that order, computed rather than looked
    up (the combinatorial number system).  The states that precede a state
    n agree with it up to some site p and hold more bosons there, so fewer
    than a_p = N - (n_0 + ... + n_p) on the L - 1 - p sites after it.
    There are as many of those as ways to put a_p - 1 bosons on L - p
    sites, C(a_p + L - p - 2, a_p - 1), and the rank is their sum over p.
    A table of C(b + s - 1, b), the fillings of s sites with b bosons,
    makes that one vectorized pass over any batch of occupation rows.

    A hop b_dst^dag b_src moves a state to a known rank without ranking
    it again.  Write g_p(a) for the term C(a + L - p - 2, a - 1) (0 at
    a = 0).  The hop lowers a_p by one for dst <= p < src when dst < src,
    and raises it by one for src <= p < dst when dst > src; no other a_p
    changes.  The target's rank is therefore the source's plus the sum of
    g_p(a_p - 1) - g_p(a_p) (or g_p(a_p + 1) - g_p(a_p)) over that run of
    sites, which is a difference of two entries of a table of exclusive
    prefix sums along p.  _shifts holds the two tables, one per direction,
    each of the shape of states; they are built on the first hop and are
    read-only.  _pair_hops holds the hops of every site pair that the
    one-body density matrix reads, built on its first call and read-only
    too.

    Raises ValueError for a non-integral size, n_sites < 1 or n_bosons < 0,
    and BasisSizeError before allocating anything if the binomial count
    C(N + L - 1, N) exceeds BASIS_CAP or either table, the states (count x L)
    or the fillings ((L + 1) x (N + 1)), would hold more than _TABLE_CAP
    entries.
    """

    def __init__(self, n_sites: int, n_bosons: int):
        self.n_sites = _integer(n_sites, "n_sites")
        self.n_bosons = _integer(n_bosons, "n_bosons")
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if self.n_bosons < 0:
            raise ValueError("n_bosons must be >= 0")
        count = basis_size(self.n_sites, self.n_bosons)
        if count > BASIS_CAP:
            raise BasisSizeError(
                f"basis for {self.n_sites} sites / {self.n_bosons} bosons has "
                f"{count} states, over the cap of {BASIS_CAP}")
        entries = max(count * self.n_sites, (self.n_sites + 1) * (self.n_bosons + 1))
        if entries > _TABLE_CAP:
            raise BasisSizeError(
                f"basis for {self.n_sites} sites / {self.n_bosons} bosons needs "
                f"tables of {entries} entries, over the cap of {_TABLE_CAP}")
        slots, n_bars = self.n_bosons + self.n_sites - 1, self.n_sites - 1
        bars = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(slots), n_bars)),
            dtype=np.int64, count=count * n_bars).reshape(count, n_bars)
        self.states = np.diff(bars[::-1], axis=1, prepend=-1, append=slots) - 1
        self.states.setflags(write=False)
        self._fillings = np.array(
            [[math.comb(b + s - 1, b) if s else int(b == 0)
              for b in range(self.n_bosons + 1)]
             for s in range(self.n_sites + 1)], dtype=np.int64)

    def __len__(self) -> int:
        return self.states.shape[0]

    def _preceding(self, after: np.ndarray) -> np.ndarray:
        """g_p(a_p) for a batch of rows of a_p, a_p in 0..N + 1."""
        sites_from = np.arange(self.n_sites, 0, -1)  # L - p at site p
        preceding = self._fillings[sites_from, np.maximum(after - 1, 0)]
        return np.where(after > 0, preceding, 0)

    def _rank(self, occ: np.ndarray) -> np.ndarray:
        """Basis positions of a batch of valid occupation rows."""
        return self._preceding(self.n_bosons - np.cumsum(occ, axis=1)).sum(axis=1)

    @functools.cached_property
    def _shifts(self) -> tuple:
        """(down, up): per state, the exclusive prefix sums along p of
        g_p(a_p - 1) - g_p(a_p) and of g_p(a_p + 1) - g_p(a_p)."""
        after = self.n_bosons - np.cumsum(self.states, axis=1)
        here = self._preceding(after)
        tables = []
        for step in (-1, 1):
            # column-major: a hop reads two whole columns
            table = np.zeros(self.states.shape, dtype=np.int64, order="F")
            np.cumsum((self._preceding(after + step) - here)[:, :-1], axis=1,
                      out=table[:, 1:])
            table.setflags(write=False)
            tables.append(table)
        return tuple(tables)

    @functools.cached_property
    def _pair_hops(self) -> tuple:
        """(bounds, sources, targets, amps): _hops(self, j, i), the hop
        b_i^dag b_j, for every site pair i < j in row-major order,
        concatenated so that pair p holds entries bounds[p]:bounds[p + 1]."""
        n = self.n_sites
        hops = [_hops(self, j, i) for i in range(n) for j in range(i + 1, n)]
        empty = (np.zeros(0, np.int64),) * 2 + (np.zeros(0),)  # one site: no pairs
        tables = (np.cumsum([0] + [sources.size for sources, _, _ in hops]),
                  *(np.concatenate(part) for part in zip(empty, *hops)))
        for table in tables:
            table.setflags(write=False)
        return tables

    def index(self, occupation) -> int:
        """Position of an occupation vector in the basis ordering."""
        entries = tuple(occupation)
        try:
            key = tuple(int(n) for n in entries)
        except (ValueError, OverflowError):  # nan, inf
            key = None
        if key != entries:
            raise KeyError(f"{[float(n) for n in entries]} is not integral")
        if (len(key) != self.n_sites or min(key) < 0
                or sum(key) != self.n_bosons):
            raise KeyError(f"{key} is not a state of this basis")
        return int(self._rank(np.array([key], dtype=np.int64))[0])


def basis_size(n_sites: int, n_bosons: int) -> int:
    return math.comb(n_bosons + n_sites - 1, n_bosons)


def enumerate_basis(n_sites: int, n_bosons: int) -> FockBasis:
    """The full fixed-number Fock basis, FockBasis(n_sites, n_bosons)."""
    return FockBasis(n_sites, n_bosons)


def chain_edges(n_sites: int) -> tuple:
    """Open-chain nearest-neighbour edge list."""
    return tuple((i, i + 1) for i in range(n_sites - 1))


def plaquette_edges(rows: int, cols: int) -> tuple:
    """Rectangular-grid edge list, sites numbered row-major."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            if c + 1 < cols:
                edges.append((site, site + 1))
            if r + 1 < rows:
                edges.append((site, site + cols))
    return tuple(edges)


@dataclass(frozen=True)
class BoseHubbardParams:
    """Hopping J, on-site interaction U, and the lattice edge list."""

    n_sites: int
    hopping: float
    interaction: float
    edges: tuple

    def __post_init__(self):
        n_sites = _integer(self.n_sites, "n_sites")
        if n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if not (0 <= self.hopping < math.inf and 0 <= self.interaction < math.inf):
            raise ValueError("hopping and interaction must be finite and non-negative")
        seen = set()
        edges = []
        for edge in self.edges:
            j, k = (_integer(end, "edge endpoint") for end in edge)
            if j == k:
                raise ValueError(f"self-edge ({j}, {k}) not allowed")
            if not (0 <= j < n_sites and 0 <= k < n_sites):
                raise ValueError(f"edge ({j}, {k}) outside 0..{n_sites - 1}")
            pair = (min(j, k), max(j, k))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            edges.append(pair)
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "hopping", float(self.hopping))
        object.__setattr__(self, "interaction", float(self.interaction))
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def j_ratio(self) -> float:
        if self.interaction == 0:
            raise ValueError("j_ratio undefined at zero interaction")
        return self.hopping / self.interaction

    @classmethod
    def chain(cls, n_sites: int, hopping: float, interaction: float):
        return cls(n_sites, hopping, interaction, chain_edges(n_sites))

    @classmethod
    def plaquette(cls, rows: int, cols: int, hopping: float, interaction: float):
        return cls(rows * cols, hopping, interaction, plaquette_edges(rows, cols))


def onsite_pair_count(basis: FockBasis) -> np.ndarray:
    """Diagonal of sum_j n_j (n_j - 1) / 2 per basis state.

    This is the operator the interaction multiplies, and therefore the
    operator a modulation of U drives.
    """
    occ = basis.states
    return (occ * (occ - 1)).sum(axis=1) / 2.0


def _hops(basis: FockBasis, src: int, dst: int) -> tuple:
    """b_dst^dag b_src on the basis: sources, targets and matrix elements.

    The sources are the states with a boson on src; each goes to one
    target with element sqrt(n_src (n_dst + 1)).  A source's rank is its
    row, so no moved state is ranked again: the target is
    sources + C[sources, src] - C[sources, dst] with C the basis's down
    shift table when dst < src, and sources + C[sources, dst] -
    C[sources, src] with C its up table otherwise (FockBasis).
    """
    occ = basis.states[:, src]
    (sources,) = np.nonzero(occ)
    amps = np.sqrt(occ[sources] * (basis.states[sources, dst] + 1))
    down, up = basis._shifts
    if dst < src:
        shift = down[:, src] - down[:, dst]
    else:
        shift = up[:, dst] - up[:, src]
    return sources, sources + shift[sources], amps


def hopping_matrix(params: BoseHubbardParams, basis: FockBasis) -> sp.csr_matrix:
    """Sparse kinetic part -J sum_<j,k> (b_j^dag b_k + h.c.) on the basis."""
    import scipy.sparse as sp

    if params.n_sites != basis.n_sites:
        raise ValueError(
            f"geometry has {params.n_sites} sites, basis has {basis.n_sites}")
    dim = len(basis)
    hops = [_hops(basis, src, dst)
            for j, k in params.edges for src, dst in ((k, j), (j, k))]
    if not hops:
        return sp.csr_matrix((dim, dim))
    sources, targets, amps = (np.concatenate(part) for part in zip(*hops))
    mat = sp.coo_matrix((-params.hopping * amps, (targets, sources)),
                        shape=(dim, dim))
    return mat.tocsr()


def _reflection_sector(params: BoseHubbardParams, basis: FockBasis) -> sp.csr_matrix:
    """Isometry P (m x dim, orthonormal rows) onto the reversal-even states.

    The site reversal j -> L - 1 - j maps each Fock state to its mirror,
    ranked as basis._rank(states[:, ::-1]).  A state is a representative
    when its index is at most its mirror's; a mirror pair enters its row of
    P with weights 1/sqrt(2) on both states, a palindrome with weight 1.
    Rows follow the representatives' basis order.

    When the edge set maps onto itself under the reversal (the chain's
    mirror, the row-major plaquette's 180 degree rotation), H commutes with
    it and P H P^T is H on the even sector.  For J > 0 on a connected
    lattice the ground state is unique and nodeless (Perron-Frobenius), so
    it is even; the pair-count drive commutes with every site permutation,
    so only even states couple to it.  The gap and the condensate fraction
    therefore need only the even sector.  Raises ValueError for an edge set
    the reversal does not preserve.
    """
    import scipy.sparse as sp

    if params.n_sites != basis.n_sites:
        raise ValueError(
            f"geometry has {params.n_sites} sites, basis has {basis.n_sites}")
    last = params.n_sites - 1
    mirrored = {(last - k, last - j) for j, k in params.edges}  # edges are j < k
    if mirrored != set(params.edges):
        raise ValueError("edge set is not invariant under site reversal")
    mirror = basis._rank(basis.states[:, ::-1])
    (reps,) = np.nonzero(np.arange(len(basis)) <= mirror)
    partners = mirror[reps]
    paired = partners != reps
    weights = np.where(paired, math.sqrt(0.5), 1.0)
    rows = np.arange(reps.size)
    return sp.csr_matrix(
        (np.concatenate([weights, weights[paired]]),
         (np.concatenate([rows, rows[paired]]),
          np.concatenate([reps, partners[paired]]))),
        shape=(reps.size, len(basis)))


def build_bh(params: BoseHubbardParams, basis: FockBasis) -> sp.csr_matrix:
    """Assemble the real symmetric Bose-Hubbard Hamiltonian as a CSR matrix."""
    import scipy.sparse as sp

    diag = params.interaction * onsite_pair_count(basis)
    return (hopping_matrix(params, basis) + sp.diags(diag)).tocsr()


def low_spectrum(h: sp.spmatrix, k: int) -> tuple:
    """k lowest eigenpairs of a sparse Hermitian matrix, ascending; each
    residual checked to 1e-9 ||H||.

    h must match its conjugate transpose entrywise to HERMITICITY_TOL; a
    non-finite entry fails that check too.  Small or near-full problems go
    through dense eigh; larger ones through Lanczos (ARPACK) with a
    deterministic start vector and a Lanczos space of 3k vectors (at
    least 20).

    Lanczos stops at ARPACK tolerance _LANCZOS_TOL = 1e-11 rather than at
    machine precision: a Ritz pair is accepted once its residual is at most
    1e-11 |theta| <= 1e-11 ||H||, 100 times under the check above, and the
    eigenvalue error of a symmetric matrix is then at most ||r||^2 / gap
    (Parlett, The Symmetric Eigenvalue Problem).  Iterating further moves
    neither the check nor any printed digit; it cost about a fifth of the
    matrix-vector products of a bh-scan point.  ||H|| is the max row sum of
    |H|.
    """
    dim = h.shape[0]
    k = _integer(k, "k")
    if not 1 <= k <= dim:
        raise ValueError(f"k = {k} out of range for dimension {dim}")
    asym = abs(h - h.conj().T)
    deviation = asym.max() if asym.nnz else 0.0
    if not deviation <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {deviation:.3e}")
    if dim <= _DENSE_LIMIT or k > dim - 2:
        vals, vecs = np.linalg.eigh(h.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        from scipy.sparse.linalg import ArpackError

        eigsh = sys.modules[__name__].eigsh
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        try:
            vals, vecs = eigsh(h, k=k, which="SA", v0=v0, tol=_LANCZOS_TOL,
                               ncv=min(dim - 1, max(3 * k, 20)),
                               maxiter=max(10 * dim, 10000))
        except ArpackError as exc:  # ArpackNoConvergence included
            raise EigenConvergenceError(
                f"Lanczos failed for k={k}, dim={dim}: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    scale = float(abs(h).sum(axis=1).max()) or 1.0
    residuals = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
    (failing,) = np.nonzero(residuals > RESIDUAL_TOL * scale)
    if failing.size:
        i = failing[0]
        raise EigenConvergenceError(
            f"eigenpair {i} residual {residuals[i]:.3e} exceeds {RESIDUAL_TOL:g} * ||H||")
    return np.real(vals), vecs


def one_body_density_matrix(state: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Matrix <b_i^dag b_j> in a normalized many-body state."""
    psi = np.asarray(state).ravel()
    if psi.size != len(basis):
        raise ValueError("state length does not match basis size")
    n = basis.n_sites
    rho = np.zeros((n, n), dtype=complex)
    rho[np.diag_indices(n)] = (np.abs(psi) ** 2) @ basis.states
    bounds, sources, targets, amps = basis._pair_hops
    landed, moved = psi[targets], amps * psi[sources]
    for start, stop, i, j in zip(bounds[:-1], bounds[1:], *np.triu_indices(n, 1)):
        rho[i, j] = np.vdot(landed[start:stop], moved[start:stop])
        rho[j, i] = np.conj(rho[i, j])
    return rho


def condensate_fraction(ground_state: np.ndarray, basis: FockBasis) -> float:
    """Largest one-body eigenvalue over the boson number; 1 = full condensate.

    In a number-conserving basis <b_i> vanishes identically, so the usual
    order parameter is useless here; macroscopic occupation of one natural
    orbital is the finite-size superfluid diagnostic instead.
    """
    if basis.n_bosons == 0:
        raise ValueError("condensate fraction undefined for zero bosons")
    rho = one_body_density_matrix(ground_state, basis)
    top = float(np.linalg.eigvalsh(rho).max())
    return min(max(top / basis.n_bosons, 0.0), 1.0)


@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Absorbed energy versus drive frequency for one modulation run."""

    nu_grid: np.ndarray
    absorbed_energy: np.ndarray

    def __post_init__(self):
        grid = np.array(self.nu_grid, dtype=float, copy=True)
        energy = np.array(self.absorbed_energy, dtype=float, copy=True)
        if grid.shape != energy.shape or grid.ndim != 1:
            raise ValueError("nu grid and energies must be 1-d and equal length")
        if not np.all(np.isfinite(grid)):
            raise ValueError("nu grid must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("nu grid must be strictly ascending")
        if not np.all(np.isfinite(energy)):
            raise ValueError("absorbed energies must be finite")
        grid.setflags(write=False)
        energy.setflags(write=False)
        object.__setattr__(self, "nu_grid", grid)
        object.__setattr__(self, "absorbed_energy", energy)

    def peak_frequency(self) -> float:
        return float(self.nu_grid[int(np.argmax(self.absorbed_energy))])


def modulation_absorption(params: BoseHubbardParams, basis: FockBasis,
                          delta: float, nu_grid, t_drive: float,
                          tol: float = 1e-9) -> AbsorptionSpectrum:
    """Energy absorbed from a sinusoidal interaction modulation.

    Starting from the ground state of H_0 = build_bh(params, basis),
    H(t) = H_0 + U delta sin(2 pi nu t) * pair-count is integrated for t_drive
    on the reversal-even sector (_reflection_sector; an edge set the
    reversal does not preserve is a ValueError), and the gain
    <psi|H_0|psi> / |psi|^2 - E_0 recorded, which the integrator's norm drift
    does not bias.  The frequencies run in chunks of _DRIVE_BYTES / (16 x
    sector size), one DOP853 solve each; tol bounds each driven state's
    error, with rtol raised to at least _MIN_DRIVE_TOL.  A lattice-depth
    modulation would shake J and U together; driving U alone keeps the
    selection rule and the peak frequencies.  delta = 0 yields the null
    spectrum.  The nu grid must be finite and strictly ascending, and
    t_drive and tol finite and positive.  Raises LinAlgError
    before any solve when eps * (||H|| + 2 pi nu_max) * t_drive, with the full
    basis's ||H||, exceeds hamiltonians._MAX_PHASE_ERROR (1e-10), and when
    the integration fails.  Only a gain below -1e-9 - |E_0| |1 - |psi|^2| is
    a NegativeAbsorptionError.
    """
    if not 0.0 <= delta <= 0.1:
        raise ValueError("drive amplitude delta must lie in [0, 0.1]")
    if params.hopping == 0 and params.interaction == 0:
        raise ValueError("spectroscopy needs J and U not both zero")
    if not 0.0 < t_drive < math.inf:
        raise ValueError("t_drive must be finite and positive")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    grid = np.asarray(nu_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("nu grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise ValueError("nu grid must be finite and strictly ascending")
    if grid[0] < 1.0 / t_drive:
        warnings.warn(
            "drive frequencies below 1/t_drive are unresolved; a gapless "
            "response aliases into them", UserWarning, stacklevel=2)
    # the drive is the package's only ODE: import the integrator here so that
    # importing aqsim does not load scipy.integrate
    from scipy.integrate import solve_ivp

    h0 = build_bh(params, basis)
    pairs = onsite_pair_count(basis)
    drive_scale = params.interaction * delta
    # hamiltonians._MAX_PHASE_ERROR, with ||H(t)|| at most the max row sum of
    # |H_0| plus U delta max(pair count); the drive phase 2 pi nu t is
    # rounded too, so the largest drive frequency adds to the rate (summed
    # in Python floats, which overflow to inf without a warning)
    rate = (float(abs(h0).sum(axis=1).max()) + drive_scale * float(pairs.max())
            + 2.0 * math.pi * float(grid[-1]))
    _check_phase_error(rate, t_drive, "eps * (||H|| + 2 pi nu_max) * t_drive", "drive")
    sector = _reflection_sector(params, basis)
    h0 = sector @ h0 @ sector.T
    drive = drive_scale * (sector.multiply(sector) @ pairs)  # a mirror pair's pair count
    (e0,), vecs = low_spectrum(h0, 1)
    gains = np.zeros(grid.size)
    width = max(1, _DRIVE_BYTES // (16 * h0.shape[0]))
    for start in range(0, grid.size if drive_scale else 0, width):
        omega = 2.0 * math.pi * grid[start:start + width]

        def rhs(t, y):
            psi = y.reshape(-1, omega.size)
            return -1j * (h0 @ psi + np.outer(drive, np.sin(omega * t)) * psi).ravel()
        scaled = tol / math.sqrt(omega.size)  # DOP853's error norm is the chunk's RMS
        sol = solve_ivp(rhs, (0.0, t_drive), np.repeat(vecs[:, 0].astype(complex), omega.size),
                        method="DOP853", t_eval=[t_drive],
                        rtol=max(scaled, _MIN_DRIVE_TOL), atol=scaled * 1e-3)
        if not sol.success:
            raise np.linalg.LinAlgError(
                f"drive integration failed from nu={grid[start]:g}: {sol.message}")
        psi = sol.y.reshape(-1, omega.size)
        norm2 = np.linalg.norm(psi, axis=0) ** 2
        gains[start:start + width] = (psi.conj() * (h0 @ psi)).sum(axis=0).real / norm2 - e0
        for nu, gain, drift in zip(grid[start:], gains[start:], np.abs(1.0 - norm2)):
            if gain < -1e-9 - abs(e0) * drift:
                raise NegativeAbsorptionError(
                    f"absorbed energy {gain:.3e} below -1e-9 - |E0| * norm drift "
                    f"{drift:.3e} at nu={nu:g}")
    return AbsorptionSpectrum(grid, gains)


def drive_coupled_gap(energies: np.ndarray, vectors: np.ndarray, basis: FockBasis) -> float:
    """Lowest excitation gap reachable by the interaction modulation.

    Takes the k lowest eigenpairs as low_spectrum returns them and returns
    min(E_i - E_0) over excited states whose pair-count matrix element with
    the ground state is non-negligible relative to ||pair-count applied to
    the ground state||.  Raises DriveCouplingError when that norm is zero
    or none of the k states is drive-coupled.
    """
    k = len(energies)
    driven = onsite_pair_count(basis) * vectors[:, 0]
    scale = np.linalg.norm(driven)
    if scale == 0:
        raise DriveCouplingError("the drive annihilates the ground state to double "
                                 "precision: no state is drive-coupled")
    for i in range(1, k):
        gap = energies[i] - energies[0]
        if gap <= 1e-10:
            continue
        if abs(np.vdot(vectors[:, i], driven)) > _COUPLING_FLOOR * scale:
            return float(gap)
    raise DriveCouplingError(
        f"no drive-coupled excitation among the lowest k = {k} states; raise k")


def _gap_scan(params: BoseHubbardParams, basis: FockBasis, j_ratios, k: int) -> tuple:
    """(drive-coupled gaps, condensate fractions, sector size) at J = j U for
    each j of j_ratios, solved in the reversal-even sector with the k lowest
    states, k clamped to the sector size.  params sets the lattice and U at
    hopping 1."""
    import scipy.sparse as sp

    # J > 0: the ground state and all it is drive-coupled to are even
    sector = _reflection_sector(params, basis)
    k = min(k, sector.shape[0])
    # only J changes along the scan: project the unit-J hopping and the
    # U pair-count parts once, then H_s(J) = J hop_s + pairs_s
    hop = sector @ hopping_matrix(params, basis) @ sector.T
    pairs = sector @ sp.diags(params.interaction * onsite_pair_count(basis)) @ sector.T
    gaps, fractions = [], []
    for j in j_ratios:
        h = (j * params.interaction) * hop + pairs
        energies, even = low_spectrum(h, k)
        vectors = sector.T @ even
        gaps.append(drive_coupled_gap(energies, vectors, basis))
        fractions.append(condensate_fraction(vectors[:, 0], basis))
    return gaps, fractions, sector.shape[0]
