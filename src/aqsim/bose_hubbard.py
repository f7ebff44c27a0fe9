"""Bose-Hubbard exact diagonalization and lattice-modulation spectroscopy.

Number-conserving Fock basis on small lattices, sparse Hamiltonian

    H = -J sum_<j,k> (b_j^dag b_k + b_k^dag b_j)
        + (U/2) sum_j n_j (n_j - 1)

low-lying spectra, the condensate fraction as finite-size superfluid
diagnostic, and energy absorption under a periodic modulation of the
interaction U(t) = U (1 + delta sin(2 pi nu t)).  Absorption peaks sit at
transition frequencies (E_k - E_0) / 2 pi of states the modulation couples
to, which is how the gap and its softening show up at desk scale.

The gap scan solves in the sector of states even under the site reversal
j -> L - 1 - j (reflection_sector): the ground state and every state the
drive couples to lie there, so the eigensolve needs only about half the
Fock basis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .hamiltonians import Hamiltonian

BASIS_CAP = 200_000
_DENSE_LIMIT = 400
RESIDUAL_TOL = 1e-9
# drive_coupled_gap: smallest pair-count overlap, relative to its norm, that
# counts an excited state as reached by the modulation
_COUPLING_FLOOR = 1e-8


class BasisSizeError(ValueError):
    """Requested Fock basis has more than BASIS_CAP states."""


class EigenConvergenceError(RuntimeError):
    """Sparse eigensolver failed to converge within its iteration cap."""


class NegativeAbsorptionError(RuntimeError):
    """A driven state ended below the ground-state energy."""


class DriveCouplingError(ValueError):
    """No drive-coupled excitation among the k lowest states; k is too small."""


class FockBasis:
    """Occupation-number states for n_sites sites and n_bosons conserved bosons.

    States are ordered lexicographically with the first site most
    significant, descending: for 2 sites / 2 bosons the order is
    (2,0), (1,1), (0,2).

    A state's index is its rank in that order, computed rather than looked
    up (the combinatorial number system).  The states that precede a state
    n agree with it up to some site p and hold more bosons there, so fewer
    than a_p = N - (n_0 + ... + n_p) on the L - 1 - p sites after it.
    There are as many of those as ways to put a_p - 1 bosons on L - p
    sites, C(a_p + L - p - 2, a_p - 1), and the rank is their sum over p.
    A table of C(b + s - 1, b), the fillings of s sites with b bosons,
    makes that one vectorized pass over any batch of occupation rows.
    ``states`` must be the full basis in this order, as enumerate_basis
    builds it.
    """

    def __init__(self, n_sites: int, n_bosons: int, states: np.ndarray):
        self.n_sites = int(n_sites)
        self.n_bosons = int(n_bosons)
        self.states = states
        self.states.setflags(write=False)
        self._fillings = np.array(
            [[math.comb(b + s - 1, b) if s else int(b == 0)
              for b in range(self.n_bosons + 1)]
             for s in range(self.n_sites + 1)], dtype=np.int64)
        self._labels = None
        if (states.shape != (basis_size(self.n_sites, self.n_bosons), self.n_sites)
                or states.min() < 0 or np.any(states.sum(axis=1) != self.n_bosons)
                or not np.array_equal(self._rank(states), np.arange(len(states)))):
            raise ValueError("states must be the full basis in enumeration order")

    def __len__(self) -> int:
        return self.states.shape[0]

    def _rank(self, occ: np.ndarray) -> np.ndarray:
        """Basis positions of a batch of valid occupation rows."""
        after = self.n_bosons - np.cumsum(occ, axis=1)
        sites_from = np.arange(self.n_sites, 0, -1)  # L - p at site p
        preceding = self._fillings[sites_from, np.maximum(after - 1, 0)]
        return np.where(after > 0, preceding, 0).sum(axis=1)

    def index(self, occupation) -> int:
        """Position of an occupation vector in the basis ordering."""
        key = tuple(int(n) for n in occupation)
        if (len(key) != self.n_sites or min(key) < 0
                or sum(key) != self.n_bosons):
            raise KeyError(f"{key} is not a state of this basis")
        return int(self._rank(np.array([key], dtype=np.int64))[0])

    def labels(self) -> tuple:
        if self._labels is None:
            self._labels = tuple(",".join(map(str, row))
                                 for row in self.states.tolist())
        return self._labels


def basis_size(n_sites: int, n_bosons: int) -> int:
    return math.comb(n_bosons + n_sites - 1, n_bosons)


def enumerate_basis(n_sites: int, n_bosons: int) -> FockBasis:
    """Enumerate the full fixed-number Fock basis.

    Raises BasisSizeError before allocating anything if the binomial count
    C(N + L - 1, N) exceeds BASIS_CAP.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if n_bosons < 0:
        raise ValueError("n_bosons must be >= 0")
    count = basis_size(n_sites, n_bosons)
    if count > BASIS_CAP:
        raise BasisSizeError(
            f"basis for {n_sites} sites / {n_bosons} bosons has {count} states, "
            f"over the cap of {BASIS_CAP}")
    states = np.empty((count, n_sites), dtype=np.int64)
    occ = np.zeros(n_sites, dtype=np.int64)

    def fill(pos: int, remaining: int, row: int) -> int:
        if pos == n_sites - 1:
            occ[pos] = remaining
            states[row] = occ
            return row + 1
        for n in range(remaining, -1, -1):
            occ[pos] = n
            row = fill(pos + 1, remaining - n, row)
        return row

    filled = fill(0, n_bosons, 0)
    assert filled == count
    return FockBasis(n_sites, n_bosons, states)


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
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if self.hopping < 0 or self.interaction < 0:
            raise ValueError("hopping and interaction must be non-negative")
        seen = set()
        edges = []
        for edge in self.edges:
            j, k = int(edge[0]), int(edge[1])
            if j == k:
                raise ValueError(f"self-edge ({j}, {k}) not allowed")
            if not (0 <= j < self.n_sites and 0 <= k < self.n_sites):
                raise ValueError(f"edge ({j}, {k}) outside 0..{self.n_sites - 1}")
            pair = (min(j, k), max(j, k))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            edges.append(pair)
        object.__setattr__(self, "n_sites", int(self.n_sites))
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
    target with element sqrt(n_src (n_dst + 1)).
    """
    (sources,) = np.nonzero(basis.states[:, src])
    moved = basis.states[sources]
    amps = np.sqrt(moved[:, src] * (moved[:, dst] + 1))
    moved[:, src] -= 1
    moved[:, dst] += 1
    return sources, basis._rank(moved), amps


def hopping_matrix(params: BoseHubbardParams, basis: FockBasis) -> sp.csr_matrix:
    """Sparse kinetic part -J sum_<j,k> (b_j^dag b_k + h.c.) on the basis."""
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


def reflection_sector(params: BoseHubbardParams, basis: FockBasis) -> sp.csr_matrix:
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


def build_bh(params: BoseHubbardParams, basis: FockBasis) -> Hamiltonian:
    """Assemble the sparse Hermitian Bose-Hubbard Hamiltonian."""
    diag = params.interaction * onsite_pair_count(basis)
    return _assemble(hopping_matrix(params, basis), diag, basis)


def _assemble(hop: sp.csr_matrix, diag: np.ndarray, basis: FockBasis) -> Hamiltonian:
    return Hamiltonian((hop + sp.diags(diag)).tocsr(), basis.labels())


def _matrix_scale(m) -> float:
    if sp.issparse(m):
        return float(abs(m).sum(axis=1).max()) if m.nnz else 1.0
    s = float(np.abs(m).sum(axis=1).max())
    return s if s > 0 else 1.0


def low_spectrum(h: Hamiltonian, k: int) -> tuple:
    """k lowest eigenpairs, ascending; each residual checked to 1e-9 ||H||.

    Small or near-full problems go through dense eigh; larger sparse ones
    through Lanczos (ARPACK) with a deterministic start vector and a
    Lanczos space of 3k vectors (at least 20).
    """
    dim = h.dim
    if not 1 <= k <= dim:
        raise ValueError(f"k = {k} out of range for dimension {dim}")
    use_dense = dim <= _DENSE_LIMIT or k > dim - 2 or not h.is_sparse
    if use_dense:
        vals, vecs = np.linalg.eigh(h.dense())
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        try:
            vals, vecs = eigsh(h.matrix, k=k, which="SA", v0=v0,
                               ncv=min(dim - 1, max(3 * k, 20)),
                               maxiter=max(10 * dim, 10000))
        except ArpackNoConvergence as exc:
            raise EigenConvergenceError(
                f"Lanczos did not converge for k={k}, dim={dim}: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    scale = _matrix_scale(h.matrix)
    for i in range(k):
        residual = np.linalg.norm(h.matrix @ vecs[:, i] - vals[i] * vecs[:, i])
        if residual > RESIDUAL_TOL * scale:
            raise EigenConvergenceError(
                f"eigenpair {i} residual {residual:.3e} exceeds {RESIDUAL_TOL:g} * ||H||")
    return np.real(vals), vecs


def one_body_density_matrix(state: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Matrix <b_i^dag b_j> in a normalized many-body state."""
    psi = np.asarray(state).ravel()
    if psi.size != len(basis):
        raise ValueError("state length does not match basis size")
    n = basis.n_sites
    rho = np.zeros((n, n), dtype=complex)
    rho[np.diag_indices(n)] = (np.abs(psi) ** 2) @ basis.states
    for i in range(n):
        for j in range(i + 1, n):
            sources, targets, amps = _hops(basis, j, i)
            rho[i, j] = np.vdot(psi[targets], amps * psi[sources])
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
        if np.any(np.diff(grid) <= 0):
            raise ValueError("nu grid must be strictly ascending")
        if np.any(energy < -1e-9):
            raise ValueError("absorbed energy below -1e-9")
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

    Starting from the ground state, H(t) = H_hop + U (1 + delta sin(2 pi nu
    t)) * pair-count is integrated for t_drive at each drive frequency, and
    the gain <H_0> - E_0 recorded.  A physical lattice-depth modulation
    would shake J and U together; driving U alone is the minimal version
    with the same spectroscopic content (same selection rule, peaks at the
    same transition frequencies).  delta = 0 is allowed and yields the null
    spectrum.
    """
    if not 0.0 <= delta <= 0.1:
        raise ValueError("drive amplitude delta must lie in [0, 0.1]")
    if params.hopping == 0 and params.interaction == 0:
        raise ValueError("spectroscopy needs J and U not both zero")
    if not t_drive > 0:
        raise ValueError("t_drive must be positive")
    grid = np.asarray(nu_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("nu grid must be a non-empty 1-d sequence")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("nu grid must be strictly ascending")
    if grid[0] < 1.0 / t_drive:
        warnings.warn(
            "drive frequencies below 1/t_drive are unresolved; a gapless "
            "response aliases into them", UserWarning, stacklevel=2)
    hop = hopping_matrix(params, basis)
    pairs = onsite_pair_count(basis)
    diag0 = params.interaction * pairs
    (e0,), vecs = low_spectrum(_assemble(hop, diag0, basis), 1)
    psi0 = vecs[:, 0].astype(complex)
    drive_scale = params.interaction * delta

    def absorbed(nu: float) -> float:
        if drive_scale == 0.0:
            return 0.0
        omega = 2.0 * math.pi * nu

        def rhs(t, psi):
            mod = drive_scale * math.sin(omega * t)
            return -1j * (hop @ psi + (diag0 + mod * pairs) * psi)

        sol = solve_ivp(rhs, (0.0, t_drive), psi0, method="DOP853",
                        rtol=tol, atol=tol * 1e-3)
        if not sol.success:
            raise RuntimeError(f"drive integration failed at nu={nu:g}: {sol.message}")
        psi = sol.y[:, -1]
        energy = float(np.vdot(psi, hop @ psi).real + diag0 @ (np.abs(psi) ** 2))
        gain = energy - e0
        if gain < -1e-9:
            raise NegativeAbsorptionError(
                f"absorbed energy {gain:.3e} below -1e-9 at nu={nu:g}")
        return gain

    return AbsorptionSpectrum(grid, np.array([absorbed(nu) for nu in grid]))


def drive_coupled_gap(energies: np.ndarray, vectors: np.ndarray, basis: FockBasis) -> float:
    """Lowest excitation gap reachable by the interaction modulation.

    Takes the k lowest eigenpairs as low_spectrum returns them and returns
    min(E_i - E_0) over excited states whose pair-count matrix element with
    the ground state is non-negligible relative to ||pair-count applied to
    the ground state||.  Raises DriveCouplingError when none of the k
    states is drive-coupled.
    """
    k = len(energies)
    driven = onsite_pair_count(basis) * vectors[:, 0]
    scale = np.linalg.norm(driven)
    if scale == 0:
        raise ValueError("drive operator annihilates the ground state")
    for i in range(1, k):
        gap = energies[i] - energies[0]
        if gap <= 1e-10:
            continue
        if abs(np.vdot(vectors[:, i], driven)) > _COUPLING_FLOOR * scale:
            return float(gap)
    raise DriveCouplingError(
        f"no drive-coupled excitation among the lowest k = {k} states; raise k")
