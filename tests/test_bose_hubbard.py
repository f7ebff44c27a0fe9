import gc
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import eigsh

import aqsim
from aqsim import BasisSizeError, BoseHubbardParams, DriveCouplingError
from aqsim.bose_hubbard import (_gap_scan, _hops, _max_row_sum, _reflection_sector,
                                basis_size, hopping_matrix, onsite_pair_count)

from oracles import (absorption_by_linear_response, absorption_per_nu_full_basis,
                     chain_eigensystem, drive_coupled_gap_dense, eigenvalues_below,
                     fock_states_by_product,
                     hopping_matrix_by_lookup, hops_by_lookup,
                     one_body_density_matrix_by_lookup)

SQRT17 = math.sqrt(17.0)


def test_basis_enumeration_order():
    basis = aqsim.enumerate_basis(2, 2)
    assert [tuple(s) for s in basis.states] == [(2, 0), (1, 1), (0, 2)]
    assert len(basis) == 3


def test_basis_vacuum():
    basis = aqsim.enumerate_basis(3, 0)
    assert [tuple(s) for s in basis.states] == [(0, 0, 0)]


def test_basis_count():
    basis = aqsim.enumerate_basis(4, 4)
    assert len(basis) == 35 == math.comb(7, 4)
    assert all(s.sum() == 4 for s in basis.states)


def test_basis_index_bijective():
    basis = aqsim.enumerate_basis(3, 3)
    for i, state in enumerate(basis.states):
        assert basis.index(state) == i
    with pytest.raises(KeyError):
        basis.index((3, 1, 0))  # wrong total


@pytest.mark.parametrize("sites, bosons", [(1, 0), (1, 4), (3, 0), (2, 5),
                                            (4, 4), (5, 3), (7, 2)])
def test_basis_index_round_trips_and_rejects_non_states(sites, bosons):
    basis = aqsim.enumerate_basis(sites, bosons)
    for i, state in enumerate(basis.states):
        assert basis.index(state) == i
        assert basis.index(list(state)) == i
    state = list(basis.states[-1])
    wrong_total = state[:-1] + [state[-1] + 1]
    wrong_length = state + [0]
    negative = [bosons + 1] + [0] * (sites - 2) + [-1] if sites > 1 else [-1]
    fractional = [-0.5] * (sites - 1) + [bosons + 0.5]  # int() gives state
    not_a_number = [math.nan] + state[1:]  # int() raises ValueError
    infinite = [math.inf] + state[1:]  # int() raises OverflowError
    for bad in (wrong_total, wrong_length, negative, state[:-1], fractional,
                not_a_number, infinite):
        with pytest.raises(KeyError):
            basis.index(bad)


@pytest.mark.parametrize("sites", range(1, 7))
def test_basis_states_and_index_match_product_oracle(sites):
    for bosons in range(7):
        want = fock_states_by_product(sites, bosons)
        basis = aqsim.FockBasis(sites, bosons)
        assert np.array_equal(basis.states, want)
        assert basis.states.dtype == np.int64
        assert [basis.index(state) for state in want] == list(range(len(want)))


def test_basis_of_one_boson_on_many_sites():
    # deeper than Python's default recursion limit of 1000 frames
    basis = aqsim.enumerate_basis(1200, 1)
    assert len(basis) == 1200
    assert np.array_equal(basis.states, np.eye(1200, dtype=np.int64))
    assert basis.index(basis.states[-1]) == 1199


@pytest.mark.parametrize("sites, bosons, message", [
    (3.0, 2, "n_sites must be an integer"),
    (3, 2.5, "n_bosons must be an integer"),
    (0, 2, "n_sites must be >= 1"),
    (3, -1, "n_bosons must be >= 0"),
])
def test_fock_basis_refuses_bad_sizes(sites, bosons, message):
    for build in (aqsim.FockBasis, aqsim.enumerate_basis):
        with pytest.raises(ValueError, match=message):
            build(sites, bosons)


def test_basis_cap():
    # ~5.9e16 states: refused before anything of that size is allocated
    for build in (aqsim.FockBasis, aqsim.enumerate_basis):
        with pytest.raises(BasisSizeError, match="over the cap of 200000"):
            build(30, 30)
    assert basis_size(30, 30) == math.comb(59, 30)


@pytest.mark.parametrize("sites, bosons, entries", [
    (200_000, 1, 200_000 ** 2),      # at BASIS_CAP states: a 4e10-entry table
    (2100, 1, 2100 ** 2),
    (1, 10 ** 9, 2 * (10 ** 9 + 1)),  # one state, a 2e9-entry filling table
])
def test_basis_table_cap(sites, bosons, entries):
    # refused before either integer table is allocated
    for build in (aqsim.FockBasis, aqsim.enumerate_basis):
        with pytest.raises(BasisSizeError, match=(
                f"needs tables of {entries} entries, over the cap of 4194304")):
            build(sites, bosons)


@pytest.mark.parametrize("hop, interaction, want", [
    (0.0, 4.0, [0.0, 4.0, 4.0]),
    (1.0, 0.0, [-2.0, 0.0, 2.0]),
    (1.0, 1.0, [(1 - SQRT17) / 2, 1.0, (1 + SQRT17) / 2]),
])
def test_two_site_closed_forms(hop, interaction, want):
    basis = aqsim.enumerate_basis(2, 2)
    h = aqsim.build_bh(BoseHubbardParams.chain(2, hop, interaction), basis)
    vals = np.linalg.eigvalsh(h.toarray())
    assert np.abs(vals - np.sort(want)).max() <= 1e-12


def test_build_bh_is_hermitian_and_number_conserving():
    basis = aqsim.enumerate_basis(4, 3)
    h = aqsim.build_bh(BoseHubbardParams.chain(4, 0.7, 1.3), basis)
    m = h.tocoo()
    assert abs(h - h.getH()).max() == 0.0
    totals = basis.states.sum(axis=1)
    for r, c in zip(m.row, m.col):
        assert totals[r] == totals[c] == 3
    number_op = sp.diags(totals.astype(float))
    comm = h @ number_op - number_op @ h
    assert (abs(comm).max() if comm.nnz else 0.0) <= 1e-12


def test_geometry_site_mismatch():
    basis = aqsim.enumerate_basis(3, 2)
    with pytest.raises(ValueError):
        aqsim.build_bh(BoseHubbardParams.chain(4, 1.0, 1.0), basis)


def test_params_validation():
    with pytest.raises(ValueError):
        BoseHubbardParams(3, 1.0, 1.0, ((0, 0),))
    with pytest.raises(ValueError):
        BoseHubbardParams(3, 1.0, 1.0, ((0, 3),))
    with pytest.raises(ValueError):
        BoseHubbardParams(3, 1.0, 1.0, ((0, 1), (1, 0)))
    # a fractional site count or endpoint is refused, not truncated
    with pytest.raises(ValueError, match="n_sites must be an integer"):
        BoseHubbardParams(3.9, 1, 1, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="edge endpoint must be an integer"):
        BoseHubbardParams(3, 1, 1, ((0.5, 1.9), (1, 2.99)))
    with pytest.raises(ValueError):  # an edge joins exactly two sites
        BoseHubbardParams(3, 1, 1, ((0, 1, 2),))
    params = BoseHubbardParams(np.int64(3), 1, 1, ((np.int32(0), 1),))
    assert (params.n_sites, params.edges) == (3, ((0, 1),))
    for hopping, interaction in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                 (1.0, np.inf), (-1.0, 1.0), (1.0, -0.5)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            BoseHubbardParams.chain(3, hopping, interaction)
    with pytest.raises(ValueError):
        BoseHubbardParams.chain(2, 1.0, 0.0).j_ratio
    assert BoseHubbardParams.chain(2, 1.0, 4.0).j_ratio == 0.25


def test_plaquette_edges():
    assert len(aqsim.plaquette_edges(2, 2)) == 4
    assert len(aqsim.plaquette_edges(2, 3)) == 7
    params = BoseHubbardParams.plaquette(2, 2, 1.0, 1.0)
    assert params.n_sites == 4


def test_spectrum_invariant_under_relabeling():
    basis = aqsim.enumerate_basis(4, 4)
    chain = BoseHubbardParams.chain(4, 1.0, 2.0)
    perm = (2, 0, 3, 1)
    relabeled = BoseHubbardParams(
        4, 1.0, 2.0, tuple((perm[a], perm[b]) for a, b in chain.edges))
    va = np.linalg.eigvalsh(aqsim.build_bh(chain, basis).toarray())
    vb = np.linalg.eigvalsh(aqsim.build_bh(relabeled, basis).toarray())
    assert np.abs(va - vb).max() <= 1e-10


def test_free_boson_spectrum_from_single_particle_energies():
    # U = 0: every many-body level is an occupation filling of chain modes
    for sites in (2, 3, 4):
        single, _ = chain_eigensystem(sites, coupling=-1.0)  # hopping sign: -J
        for bosons in (0, 1, 2, 3):
            basis = aqsim.enumerate_basis(sites, bosons)
            h = aqsim.build_bh(BoseHubbardParams.chain(sites, 1.0, 0.0), basis)
            got = np.sort(np.linalg.eigvalsh(h.toarray()))
            want = np.sort(basis.states @ np.sort(single))
            assert np.abs(got - want).max() <= 1e-8


def test_low_spectrum_diagonal_case():
    diag = sp.diags([3.0, -1.0, 2.0]).tocsr()
    vals, _ = aqsim.low_spectrum(diag, 3)
    assert np.array_equal(vals, [-1.0, 2.0, 3.0])


def test_low_spectrum_ground_state_closed_form():
    basis = aqsim.enumerate_basis(2, 2)
    h = aqsim.build_bh(BoseHubbardParams.chain(2, 1.0, 1.0), basis)
    vals, vecs = aqsim.low_spectrum(h, 1)
    assert vals[0] == pytest.approx((1 - SQRT17) / 2, abs=1e-12)
    residual = np.linalg.norm(h @ vecs[:, 0] - vals[0] * vecs[:, 0])
    assert residual <= 1e-9


@pytest.mark.parametrize("j_ratio", [0.01, 0.2, 5.0])
def test_low_spectrum_sparse_matches_dense(j_ratio):
    # Lanczos stops short of machine precision: its residuals must still
    # sit well under the RESIDUAL_TOL * ||H|| that low_spectrum checks
    basis = aqsim.enumerate_basis(8, 6)  # 1716 states: Lanczos path
    h = aqsim.build_bh(BoseHubbardParams.chain(8, j_ratio, 1.0), basis)
    vals, vecs = aqsim.low_spectrum(h, 6)
    dense = np.linalg.eigvalsh(h.toarray())[:6]
    assert np.abs(vals - dense).max() <= 1e-10
    norm = abs(h).sum(axis=1).max()
    residuals = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
    assert residuals.max() <= aqsim.bose_hubbard.RESIDUAL_TOL * norm / 10


def test_low_spectrum_k_range():
    basis = aqsim.enumerate_basis(2, 2)
    h = aqsim.build_bh(BoseHubbardParams.chain(2, 1.0, 1.0), basis)
    with pytest.raises(ValueError):
        aqsim.low_spectrum(h, 4)
    with pytest.raises(ValueError, match="k must be an integer"):
        aqsim.low_spectrum(h, 1.5)
    assert len(aqsim.low_spectrum(h, np.int64(2))[0]) == 2


def test_low_spectrum_rejects_non_hermitian_and_non_finite():
    lopsided = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        aqsim.low_spectrum(lopsided, 1)
    with pytest.raises(ValueError, match="not Hermitian"):
        aqsim.low_spectrum(sp.diags([0.0, np.nan, 1.0]).tocsr(), 1)
    # the check is entrywise to HERMITICITY_TOL, as in the dense Hamiltonian
    nudged = sp.csr_matrix(np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]]))
    assert aqsim.low_spectrum(nudged, 1)[0][0] == pytest.approx(-1.0, abs=1e-12)


def test_low_spectrum_names_the_first_pair_over_the_residual_bound(monkeypatch):
    import aqsim.bose_hubbard as bh

    def skewed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        # pairs 1 and 2 are off, pair 0 is exact: each of e_1, e_2 gains
        # 1e-3 e_0, which leaves its Rayleigh quotient 1 or 2 and puts
        # 1e-3 * (1 - 0) and 1e-3 * (2 - 0) into its residual
        vecs[:, 1:] += 1e-3 * vecs[:, :1]
        return vals, vecs

    monkeypatch.setattr(bh, "eigsh", skewed)
    h = sp.diags(np.arange(500.0)).tocsr()  # over the dense limit: Lanczos path
    with pytest.raises(aqsim.EigenConvergenceError,
                       match=r"eigenpair 1 residual 1\.000e-03 exceeds 1e-09"):
        aqsim.low_spectrum(h, 3)


def test_low_spectrum_reports_any_arpack_error_as_a_convergence_failure(monkeypatch):
    # ArpackNoConvergence is one ArpackError among others, and a bare
    # RuntimeError has no exit code of its own
    import aqsim.bose_hubbard as bh
    from scipy.sparse.linalg import ArpackError

    def failing(*args, **kwargs):
        raise ArpackError(-9)

    monkeypatch.setattr(bh, "eigsh", failing)
    h = sp.diags(np.arange(500.0)).tocsr()  # over the dense limit: Lanczos path
    with pytest.raises(aqsim.EigenConvergenceError,
                       match="Lanczos failed for k=3, dim=500: ARPACK error -9"):
        aqsim.low_spectrum(h, 3)


def _random_symmetric(dim):
    rng = np.random.default_rng(7)
    a = sp.random(dim, dim, density=0.02, random_state=rng, format="csr")
    a.data = rng.standard_normal(a.nnz)
    return (a + a.T).tocsr()


@pytest.mark.parametrize("dim", [300, 600], ids=["dense", "lanczos"])
@pytest.mark.parametrize("convert", [
    lambda h: h.astype(np.float32),
    lambda h: h.astype(np.complex64),
    lambda h: sp.csr_matrix(np.rint(4 * h.toarray()).astype(np.int64)),
    lambda h: h.tocsc(),
    lambda h: h.tocoo(),
    sp.csr_array,
], ids=["float32", "complex64", "int64", "csc", "coo", "csr_array"])
def test_low_spectrum_solves_any_sparse_input_in_double_precision(dim, convert):
    # in single precision eigh and ARPACK leave residuals of 1e-7 to 1e-5,
    # far over the RESIDUAL_TOL * ||H|| check; the products' kernel needs
    # data of its output dtype, which integer input does not have
    h = convert(_random_symmetric(dim))
    dense = h.toarray().astype(np.result_type(h.dtype, np.float64))
    vals, _ = aqsim.low_spectrum(h, 4)
    bound = aqsim.bose_hubbard.RESIDUAL_TOL * np.abs(dense).sum(axis=1).max()
    assert np.abs(vals - np.linalg.eigvalsh(dense)[:4]).max() <= bound


@pytest.mark.parametrize("seed", range(10))
def test_max_row_sum_is_the_row_sum_norm_over_the_stored_entries(seed):
    # low_spectrum's ||H||, taken without the copy abs(h) needs to leave h's
    # indices as they were: numpy's reduction of abs(h).sum(axis=1) on a
    # canonical matrix, so bit for bit there; rows of up to 30 entries
    # reach its pairwise summation, which a plain running sum does not match
    rng = np.random.default_rng(seed)
    n = 40
    lengths = rng.integers(0, 31, n)
    lengths[::7] = 0  # empty rows
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.concatenate([np.sort(rng.choice(n, m, replace=False)) for m in lengths])
    data = rng.standard_normal(indices.size)
    data[::5] = 0.0  # explicit zeros
    canonical = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    assert canonical.has_canonical_format and canonical.nnz == data.size
    norm = abs(canonical).sum(axis=1).max()
    assert _max_row_sum(canonical) == norm
    assert _max_row_sum(sp.csr_matrix((n, n))) == 0.0

    # unsorted indices (as _gap_scan's sector matrices have): the same
    # entries summed in another order, within rounding, and left unsorted
    order = np.concatenate([start + rng.permutation(m)
                            for start, m in zip(indptr[:-1], lengths)])
    shuffled = sp.csr_matrix((data[order], indices[order], indptr), shape=(n, n))
    assert not shuffled.has_sorted_indices
    kept = shuffled.indices.copy()
    within = 2 * lengths.max() * np.finfo(float).eps  # two orders of the longest row
    assert _max_row_sum(shuffled) == pytest.approx(norm, rel=within, abs=0)
    assert np.array_equal(shuffled.indices, kept)

    # duplicates count by their absolute values: halves of one sign sum to
    # the entry, while a cancelling pair raises the bound
    halves = sp.csr_matrix((np.repeat(data / 2, 2), np.repeat(indices, 2), 2 * indptr),
                           shape=(n, n))
    assert _max_row_sum(halves) == pytest.approx(norm, rel=within, abs=0)
    row = int(np.argmax(abs(canonical).sum(axis=1)))
    free = np.setdiff1d(np.arange(n), indices[indptr[row]:indptr[row + 1]])[0]
    end = indptr[row + 1]
    cancelling = sp.csr_matrix(
        (np.insert(data, end, [1.0, -1.0]), np.insert(indices, end, [free, free]),
         indptr + 2 * (np.arange(n + 1) > row)), shape=(n, n))
    assert abs(cancelling.copy()).sum(axis=1).max() == pytest.approx(norm, rel=within, abs=0)
    assert _max_row_sum(cancelling) == pytest.approx(norm + 2.0, rel=within, abs=0)


def _scan_matrix(params, bosons, j_ratio, sector):
    """J hop + U pairs at J = j_ratio U, with params at hopping 1, on the full
    basis or on the reversal-even sector, in the form _gap_scan builds."""
    basis = aqsim.enumerate_basis(params.n_sites, bosons)
    hop = hopping_matrix(params, basis)
    pairs = sp.diags(params.interaction * onsite_pair_count(basis))
    if sector:
        p = _reflection_sector(params, basis)
        hop, pairs = p @ hop @ p.T, p @ pairs @ p.T
    return (j_ratio * params.interaction) * hop + pairs


def _complex_hermitian(dim):
    rng = np.random.default_rng(5)
    a = (sp.random(dim, dim, density=0.01, random_state=rng)
         + 1j * sp.random(dim, dim, density=0.01, random_state=rng))
    return (a + a.conj().T).tocsr()


@pytest.mark.parametrize("make", [
    lambda: _scan_matrix(BoseHubbardParams.chain(7, 1.0, 1.0), 7, 0.01, True),
    lambda: _scan_matrix(BoseHubbardParams.chain(7, 1.0, 1.0), 7, 0.2, True),
    lambda: _complex_hermitian(500),
], ids=["chain7-N7-sector-J0.01", "chain7-N7-sector-J0.2", "complex-500"])
def test_lanczos_operator_is_h_shifted_by_twice_its_norm(monkeypatch, make):
    # low_spectrum hands eigsh h + 2 ||H|| I and takes the eigenvalues as
    # Rayleigh quotients on h: they agree with eigsh on h itself within the
    # ||r||^2 / gap of both solves plus the rounding of a quotient, and a
    # rerun keeps every bit
    import aqsim.bose_hubbard as bh

    h = make()
    dim = h.shape[0]
    assert dim > bh._DENSE_LIMIT
    calls = []

    def recording(operator, **kwargs):
        calls.append((operator, kwargs))
        return eigsh(operator, **kwargs)

    monkeypatch.setattr(bh, "eigsh", recording)
    vals, vecs = bh.low_spectrum(h, 6)
    again = bh.low_spectrum(h, 6)
    assert np.array_equal(vals, again[0]) and np.array_equal(vecs, again[1])
    (operator, kwargs), _ = calls
    norm = _max_row_sum(h)
    assert operator.shift == 2 * norm

    # the kernel adds each row's products to shift * x in stored order
    rng = np.random.default_rng(3)
    x = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if h.dtype.kind == "c" else 0)
    terms = np.diff(h.indptr).max() + 1
    within = terms * np.finfo(float).eps * 3 * norm * np.abs(x).max()
    assert np.abs(operator.matvec(x) - (operator.shift * x + h @ x)).max() <= within

    want_vals, want_vecs = eigsh(h, **kwargs)
    order = np.argsort(want_vals)
    want_vals, want_vecs = want_vals[order], want_vecs[:, order]
    spectrum = np.linalg.eigvalsh(h.toarray())
    gaps = np.minimum(np.diff(spectrum)[:6], np.diff(spectrum, prepend=-np.inf)[:6])
    squares = sum(np.linalg.norm(h @ v - v * w, axis=0) ** 2
                  for w, v in ((vals, vecs), (want_vals, want_vecs)))
    rounding = 16 * np.finfo(float).eps * norm
    assert np.all(np.abs(vals - want_vals) <= squares / gaps + rounding)


def test_shifted_lanczos_makes_fewer_products_than_on_the_matrix(monkeypatch):
    # ARPACK accepts a Ritz pair once ||r|| <= tol |theta|: unshifted, the
    # ground state of bh-scan's sector (E0 -0.0027, ||H|| 21) would be held
    # to 1e-11 |E0|, far under the RESIDUAL_TOL * ||H|| that is checked
    import aqsim.bose_hubbard as bh
    from scipy.sparse.linalg import LinearOperator

    def counted(operator):
        count = []

        def matvec(x):
            count.append(1)
            return operator @ x
        return LinearOperator(operator.shape, matvec=matvec, dtype=operator.dtype), count

    calls = []

    def recording(operator, **kwargs):
        wrapped, count = counted(operator)
        calls.append((count, kwargs))
        return eigsh(wrapped, **kwargs)

    monkeypatch.setattr(bh, "eigsh", recording)
    h = _scan_matrix(BoseHubbardParams.chain(7, 1.0, 1.0), 7, 0.0107, True)
    vals, vecs = bh.low_spectrum(h, 2)
    ((shifted, kwargs),) = calls
    wrapped, unshifted = counted(h)
    eigsh(wrapped, **kwargs)
    assert 0 < len(shifted) < len(unshifted)
    residuals = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
    assert residuals.max() <= bh.RESIDUAL_TOL * _max_row_sum(h) / 10


def test_low_spectrum_leaves_its_matrix_as_it_was():
    # _gap_scan's sector matrix has unsorted column indices: sorting them in
    # place would change the rounding of the next call's products
    h = _scan_matrix(BoseHubbardParams.chain(7, 1.0, 1.0), 7, 0.2, True)
    assert not h.has_sorted_indices
    before = h.indices.copy(), h.indptr.copy(), h.data.copy()
    first = aqsim.low_spectrum(h, 10)
    second = aqsim.low_spectrum(h, 10)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    for kept, was in zip((h.indices, h.indptr, h.data), before):
        assert np.array_equal(kept, was)


def test_low_spectrum_frees_its_matrix_without_the_cyclic_collector():
    # the operator holds h as an attribute: a class or a closure made per
    # call would sit in a reference cycle and keep h alive until gc ran
    h = sp.diags(np.arange(500.0)).tocsr()  # over the dense limit: Lanczos path
    alive = weakref.ref(h)
    gc.disable()
    try:
        aqsim.low_spectrum(h, 3)
        del h
        assert alive() is None
    finally:
        gc.enable()


# (sites, bosons, sector) of chains whose reversal-even sector is over
# _DENSE_LIMIT: the sector quotients out the chain's one lattice symmetry,
# so no symmetry keeps the uniform Lanczos start orthogonal to an eigenvector
_CHAIN_SECTORS = [(7, 7, True), (8, 6, True), (9, 5, True)]


def _assert_nothing_skipped(h, k):
    # each returned value is within m = RESIDUAL_TOL ||H|| of an eigenvalue
    # (low_spectrum checks the residuals to m), so H has exactly as many
    # eigenvalues below E_k - m as were returned there unless Lanczos
    # skipped one; a cluster straddling E_k adds to neither side
    vals, _ = aqsim.low_spectrum(h, k)
    sigma = vals[-1] - aqsim.bose_hubbard.RESIDUAL_TOL * abs(h).sum(axis=1).max()
    assert eigenvalues_below(h, sigma) == np.count_nonzero(vals < sigma)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_CHAIN_SECTORS), st.floats(0.01, 0.5), st.integers(1, 10))
@example((8, 6, False), 0.2, 6)  # the full basis: eigsh at tol 1e-9 skips states here
def test_lanczos_skips_no_eigenvalue_by_sylvester_inertia(chain, j_ratio, k):
    sites, bosons, sector = chain
    h = _scan_matrix(BoseHubbardParams.chain(sites, 1.0, 1.0), bosons, j_ratio, sector)
    _assert_nothing_skipped(h, k)


@pytest.mark.xfail(strict=True, reason=(
    "the uniform Lanczos start is invariant under every lattice symmetry, so "
    "Lanczos reaches the other symmetry classes of H only through rounding, "
    "and on the full 3x3 basis it finds one state of each degenerate pair"))
@pytest.mark.parametrize("params, bosons, j_ratio, sector, k", [
    (BoseHubbardParams.chain(7, 1.0, 1.0), 7, 0.2, False, 2),  # a reversal-odd state
    (BoseHubbardParams.plaquette(2, 4, 1.0, 1.0), 6, 0.2, True, 3),  # a mirror-odd state
    (BoseHubbardParams.plaquette(3, 3, 1.0, 1.0), 5, 0.1, True, 2),
    (BoseHubbardParams.plaquette(3, 3, 1.0, 1.0), 5, 0.2, False, 10),
], ids=["chain7-N7-full", "plaquette2x4-N6-sector", "plaquette3x3-N5-sector",
        "plaquette3x3-N5-full"])
def test_lanczos_skips_no_eigenvalue_where_h_keeps_a_lattice_symmetry(
        params, bosons, j_ratio, sector, k):
    _assert_nothing_skipped(_scan_matrix(params, bosons, j_ratio, sector), k)


def test_condensate_fraction_mott_and_free():
    basis = aqsim.enumerate_basis(2, 2)
    mott = np.zeros(3)
    mott[basis.index((1, 1))] = 1.0
    assert aqsim.condensate_fraction(mott, basis) == pytest.approx(0.5, abs=1e-12)
    basis4 = aqsim.enumerate_basis(4, 4)
    h = aqsim.build_bh(BoseHubbardParams.chain(4, 1.0, 0.0), basis4)
    _, vecs = aqsim.low_spectrum(h, 1)
    assert aqsim.condensate_fraction(vecs[:, 0], basis4) == pytest.approx(1.0, abs=1e-9)


def test_condensate_fraction_monotone_in_interaction():
    basis = aqsim.enumerate_basis(4, 4)
    fractions = []
    for ratio in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
        h = aqsim.build_bh(BoseHubbardParams.chain(4, 1.0, ratio), basis)
        _, vecs = aqsim.low_spectrum(h, 1)
        fractions.append(aqsim.condensate_fraction(vecs[:, 0], basis))
    assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_condensate_fraction_rejects_vacuum():
    basis = aqsim.enumerate_basis(2, 0)
    with pytest.raises(ValueError):
        aqsim.condensate_fraction(np.ones(1), basis)


def test_one_body_matrix_is_hermitian_with_trace_n():
    rng = np.random.default_rng(8)
    basis = aqsim.enumerate_basis(3, 3)
    psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    psi /= np.linalg.norm(psi)
    rho = aqsim.one_body_density_matrix(psi, basis)
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.trace(rho).real == pytest.approx(3.0, abs=1e-12)


def test_absorption_peak_at_drive_coupled_gap():
    # ED fixes the expected transition: the pair-count drive couples the
    # ground state to the symmetric excited state, gap sqrt(17)
    basis = aqsim.enumerate_basis(2, 2)
    params = BoseHubbardParams.chain(2, 1.0, 1.0)
    grid = np.linspace(0.4, 0.9, 26)
    spectrum = aqsim.modulation_absorption(params, basis, 0.03, grid, 60.0)
    step = grid[1] - grid[0]
    assert abs(spectrum.peak_frequency() - SQRT17 / (2 * np.pi)) <= step
    peak = spectrum.absorbed_energy.max()
    far = 10 * SQRT17 / (2 * np.pi)
    off = aqsim.modulation_absorption(params, basis, 0.03, np.array([far]), 60.0)
    assert off.absorbed_energy[0] <= 1e-3 * peak


def test_absorption_builds_hopping_matrix_once(monkeypatch):
    import aqsim.bose_hubbard as bh

    basis = aqsim.enumerate_basis(2, 2)
    params = BoseHubbardParams.chain(2, 1.0, 1.0)
    sector = _reflection_sector(params, basis)
    want = sector @ aqsim.build_bh(params, basis) @ sector.T
    calls, solved = [], []

    def counting(p, b):
        calls.append(1)
        return hopping_matrix(p, b)

    def recording(h, k):
        solved.append(h)
        return aqsim.low_spectrum(h, k)

    monkeypatch.setattr(bh, "hopping_matrix", counting)
    monkeypatch.setattr(bh, "low_spectrum", recording)
    aqsim.modulation_absorption(params, basis, 0.03, [0.5, 0.7], 10.0)
    assert len(calls) == 1
    # the ground state comes from build_bh's Hamiltonian on the even sector
    (h,) = solved
    assert h.shape == want.shape and (h != want).nnz == 0


@pytest.mark.parametrize("sites, t_drive", [(2, 60.0), (3, 40.0)])
def test_absorption_matches_linear_response(sites, t_drive):
    # the oracle is exact to second order in delta, so the drive may differ
    # by O(delta^2) relative; it reached 0.78 and 0.22 of this bound
    delta = 0.01
    basis = aqsim.enumerate_basis(sites, sites)
    params = BoseHubbardParams.chain(sites, 1.0, 1.0)
    grid = np.linspace(0.1, 1.2, 23)
    got = aqsim.modulation_absorption(params, basis, delta, grid, t_drive).absorbed_energy
    want = absorption_by_linear_response(params, basis, delta, grid, t_drive)
    assert np.abs(got - want).max() <= 100 * delta ** 2 * want.max()


@pytest.mark.parametrize("sites, hopping, grid, t_drive", [
    (2, 1.0, np.linspace(0.1, 1.2, 56), 60.0),  # criterion 07's grid
    (4, 0.3, np.linspace(0.1, 1.2, 20), 20.0),
], ids=["criterion07", "chain4"])
def test_absorption_matches_the_per_nu_full_basis_drive(sites, hopping, grid, t_drive):
    # the drive before it moved to the even sector and to chunks of
    # frequencies; measured 1.25e-8 on criterion 07's grid, 6.4e-12 at L = 4
    basis = aqsim.enumerate_basis(sites, sites)
    params = BoseHubbardParams.chain(sites, hopping, 1.0)
    got = aqsim.modulation_absorption(params, basis, 0.03, grid, t_drive).absorbed_energy
    want = absorption_per_nu_full_basis(params, basis, 0.03, grid, t_drive)
    assert np.abs(got - want).max() <= 5e-8


@pytest.mark.parametrize("width", [1, 4])
def test_absorption_runs_one_solve_per_chunk_of_frequencies(monkeypatch, width):
    import scipy.integrate

    import aqsim.bose_hubbard as bh

    basis = aqsim.enumerate_basis(3, 3)
    params = BoseHubbardParams.chain(3, 1.0, 1.0)
    grid = np.linspace(0.1, 1.2, 30)
    whole = aqsim.modulation_absorption(params, basis, 0.03, grid, 10.0).absorbed_energy
    solve_ivp, solves = scipy.integrate.solve_ivp, []

    def counting(*args, **kwargs):
        solves.append(1)
        return solve_ivp(*args, **kwargs)

    # modulation_absorption imports solve_ivp when it runs, so it reads this
    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
    sector_size = _reflection_sector(params, basis).shape[0]
    monkeypatch.setattr(bh, "_DRIVE_BYTES", 16 * sector_size * width)
    chunked = aqsim.modulation_absorption(params, basis, 0.03, grid, 10.0).absorbed_energy
    assert len(solves) == math.ceil(grid.size / width)
    assert np.abs(chunked - whole).max() <= 1e-8


def test_absorption_gain_is_unbiased_by_the_norm_drift():
    # E0 < 0 here, so a gain taken on the unrenormalized psi rises by
    # |E0| (1 - |psi|^2) as the integrator loses norm: at tol 1e-5 it read
    # 3.95e-4 at nu 0.05, where the gain is 3.9e-6
    basis = aqsim.enumerate_basis(3, 3)
    params = BoseHubbardParams.chain(3, 1.0, 1.0)
    grid = [0.05, 0.3, 0.6]
    loose, tight = (aqsim.modulation_absorption(params, basis, 0.05, grid, 60.0,
                                                tol=tol).absorbed_energy
                    for tol in (1e-5, 1e-10))
    assert np.abs(loose - tight).max() <= 1e-5


def test_absorption_zero_drive():
    basis = aqsim.enumerate_basis(2, 2)
    params = BoseHubbardParams.chain(2, 1.0, 1.0)
    spectrum = aqsim.modulation_absorption(params, basis, 0.0,
                                           np.linspace(0.3, 0.8, 4), 20.0)
    assert np.all(spectrum.absorbed_energy <= 1e-9)


def test_absorption_validation():
    basis = aqsim.enumerate_basis(2, 2)
    params = BoseHubbardParams.chain(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        aqsim.modulation_absorption(params, basis, 0.2, [0.5], 10.0)
    with pytest.raises(ValueError):
        aqsim.modulation_absorption(params, basis, 0.03, [0.5, 0.4], 10.0)
    with pytest.raises(ValueError):
        aqsim.modulation_absorption(BoseHubbardParams.chain(2, 0.0, 0.0),
                                    basis, 0.03, [0.5], 10.0)


@pytest.mark.parametrize("grid, t_drive, tol, message", [
    ([np.nan], 10.0, 1e-9, "nu grid must be finite"),
    ([1.0, np.inf], 10.0, 1e-9, "nu grid must be finite"),
    ([-np.inf, 0.5], 10.0, 1e-9, "nu grid must be finite"),
    ([0.5], np.inf, 1e-9, "t_drive must be finite and positive"),
    ([0.5], np.nan, 1e-9, "t_drive must be finite and positive"),
    ([0.5], 0.0, 1e-9, "t_drive must be finite and positive"),
    # unchecked, tol nan ran on past 120 s, tol inf returned gains of 8.9
    # where tol 1e-9 gives 0.019 and 0.003, and a negative tol leaked
    # scipy's "atol must be positive"
    ([0.5, 1.0], 20.0, np.nan, "tol must be positive and finite"),
    ([0.5, 1.0], 20.0, np.inf, "tol must be positive and finite"),
    ([0.5, 1.0], 20.0, 0.0, "tol must be positive and finite"),
    ([0.5, 1.0], 20.0, -1e-6, "tol must be positive and finite"),
])
def test_absorption_refuses_bad_grid_time_or_tol_before_driving(
        monkeypatch, grid, t_drive, tol, message):
    import scipy.integrate

    def no_drive(*args, **kwargs):
        raise AssertionError("drive integrated before the inputs were checked")

    # modulation_absorption imports solve_ivp when it runs, so it reads this
    monkeypatch.setattr(scipy.integrate, "solve_ivp", no_drive)
    basis = aqsim.enumerate_basis(2, 2)
    params = BoseHubbardParams.chain(2, 1.0, 1.0)
    with pytest.raises(ValueError, match=message):
        aqsim.modulation_absorption(params, basis, 0.03, grid, t_drive, tol=tol)


@pytest.mark.parametrize("grid, energy, message", [
    ([np.nan, 0.5], [0.0, np.nan], "nu grid must be finite"),
    ([0.4, np.inf], [0.0, 0.1], "nu grid must be finite"),
    ([0.4, 0.5], [0.0, np.nan], "absorbed energies must be finite"),
    ([0.4, 0.5], [np.inf, 0.1], "absorbed energies must be finite"),
])
def test_absorption_spectrum_refuses_non_finite_values(grid, energy, message):
    # NaN passes the ascending and non-negative checks, and argmax would
    # report a NaN energy as the peak
    with pytest.raises(ValueError, match=message):
        aqsim.AbsorptionSpectrum(grid, energy)


def test_absorption_flags_unresolved_low_frequencies():
    basis = aqsim.enumerate_basis(2, 2)
    params = BoseHubbardParams.chain(2, 1.0, 1.0)
    with pytest.warns(UserWarning, match="unresolved"):
        aqsim.modulation_absorption(params, basis, 0.03, [0.01, 0.7], 20.0)


def test_drive_coupled_gap_skips_uncoupled_state():
    # first excited state (antisymmetric, gap (1+sqrt17)/2 - E0 ... ) has no
    # pair-count matrix element; the reported gap is the symmetric one
    basis = aqsim.enumerate_basis(2, 2)
    h = aqsim.build_bh(BoseHubbardParams.chain(2, 1.0, 1.0), basis)
    gap = aqsim.drive_coupled_gap(*aqsim.low_spectrum(h, 3), basis)
    assert gap == pytest.approx(SQRT17, abs=1e-9)


def test_drive_coupled_gap_with_ground_state_alone_raises():
    basis = aqsim.enumerate_basis(2, 2)
    h = aqsim.build_bh(BoseHubbardParams.chain(2, 1.0, 1.0), basis)
    with pytest.raises(DriveCouplingError, match="lowest k = 1 states; raise k"):
        aqsim.drive_coupled_gap(*aqsim.low_spectrum(h, 1), basis)


def recording_solves(monkeypatch):
    """The k of each low_spectrum call that bose_hubbard makes, in order."""
    import aqsim.bose_hubbard as bh

    calls = []

    def recording(h, k):
        calls.append(k)
        return aqsim.low_spectrum(h, k)

    monkeypatch.setattr(bh, "low_spectrum", recording)
    return calls


def test_gap_scan_solves_k_states_where_state_1_is_not_drive_coupled(monkeypatch):
    # the 3x3 plaquette's reversal-even sector keeps states of other
    # symmetry classes of the square, which Lanczos reaches only through
    # rounding; at N 6, J/U 0.02 the two-state solve's state 1 is one
    params = BoseHubbardParams.plaquette(3, 3, 1.0, 1.0)
    basis = aqsim.enumerate_basis(9, 6)
    calls = recording_solves(monkeypatch)
    (gap,), (fraction,), _ = _gap_scan(params, basis, [0.02], 10)
    assert calls == [2, 10]
    sector = _reflection_sector(params, basis)
    energies, even = aqsim.low_spectrum(_scan_matrix(params, 6, 0.02, True), 10)
    vectors = sector.T @ even
    assert abs(gap - aqsim.drive_coupled_gap(energies, vectors, basis)) <= 1e-12
    assert abs(fraction - aqsim.condensate_fraction(vectors[:, 0], basis)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_gap_scan_with_k_at_most_two_solves_once_per_point(monkeypatch, k):
    # on the chain's 472-state sector (Lanczos) state 1 is drive-coupled;
    # k = 1 holds no excited state at all, and a k-solve's failure propagates
    basis = aqsim.enumerate_basis(7, 6)
    params = BoseHubbardParams.chain(7, 1.0, 1.0)
    calls = recording_solves(monkeypatch)
    if k == 1:
        with pytest.raises(DriveCouplingError, match="lowest k = 1 states; raise k"):
            _gap_scan(params, basis, [0.1, 0.2], k)
        assert calls == [1]
    else:
        (gap, _), _, _ = _gap_scan(params, basis, [0.1, 0.2], k)
        assert calls == [2, 2]
        want_gap, _ = drive_coupled_gap_dense(BoseHubbardParams.chain(7, 0.1, 1.0), basis, k)
        assert abs(gap - want_gap) <= 1e-10


# every chain sector here is over _DENSE_LIMIT, so _gap_scan runs Lanczos
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(7, 6), (7, 7), (8, 6), (8, 7)]), st.floats(0.01, 0.5),
       st.integers(2, 10))
def test_gap_scan_matches_the_dense_sector_oracle(chain, j_ratio, k):
    sites, bosons = chain
    basis = aqsim.enumerate_basis(sites, bosons)
    (gap,), (fraction,), _ = _gap_scan(BoseHubbardParams.chain(sites, 1.0, 1.0), basis,
                                       [j_ratio], k)
    want_gap, want_fraction = drive_coupled_gap_dense(
        BoseHubbardParams.chain(sites, j_ratio, 1.0), basis, k)
    assert abs(gap - want_gap) <= 1e-10
    assert abs(fraction - want_fraction) <= 1e-10


@pytest.mark.parametrize("params, bosons, even", [
    (BoseHubbardParams.chain(7, 0.1, 1.0), 7, 868),
    (BoseHubbardParams.plaquette(2, 3, 0.3, 1.0), 5, 126),  # no palindromes
], ids=["chain7-N7", "plaquette2x3-N5"])
def test_reflection_sector_is_an_isometry_that_h_keeps(params, bosons, even):
    basis = aqsim.enumerate_basis(params.n_sites, bosons)
    p = _reflection_sector(params, basis)
    assert p.shape == (even, len(basis))
    assert np.abs(p @ p.T - sp.identity(even)).max() <= 1e-15
    h = aqsim.build_bh(params, basis)
    leak = abs(h @ p.T - p.T @ (p @ h @ p.T)).max()
    assert leak <= 1e-14 * abs(h).sum(axis=1).max()


def test_reflection_sector_size_on_the_3x3_plaquette():
    basis = aqsim.enumerate_basis(9, 9)
    p = _reflection_sector(BoseHubbardParams.plaquette(3, 3, 0.1, 1.0), basis)
    assert p.shape == (12190, 24310)


def test_reflection_sector_rejects_edges_reversal_moves():
    basis = aqsim.enumerate_basis(4, 2)
    params = BoseHubbardParams(4, 1.0, 1.0, ((0, 1), (1, 2)))  # reversal: (2, 3), (1, 2)
    with pytest.raises(ValueError, match="not invariant under site reversal"):
        _reflection_sector(params, basis)


def test_gap_softens_toward_crossover():
    basis = aqsim.enumerate_basis(6, 6)
    gaps = []
    for j in (0.02, 0.05, 0.1, 0.2):
        h = aqsim.build_bh(BoseHubbardParams.chain(6, j, 1.0), basis)
        gaps.append(aqsim.drive_coupled_gap(*aqsim.low_spectrum(h, 8), basis))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_pair_count_diagonal():
    basis = aqsim.enumerate_basis(2, 2)
    assert np.array_equal(onsite_pair_count(basis), [1.0, 0.0, 1.0])
    hop = hopping_matrix(BoseHubbardParams.chain(2, 1.0, 9.9), basis)
    assert hop[basis.index((2, 0)), basis.index((1, 1))] == pytest.approx(-np.sqrt(2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 6))
@example(1, 0)
@example(1, 1)
@example(1, 4)
@example(4, 0)
@example(6, 1)
def test_hops_match_lookup_oracle_for_every_ordered_pair(sites, bosons):
    # rank shifts for every run of sites a hop crosses, src == dst included
    basis = aqsim.enumerate_basis(sites, bosons)
    for src, dst in itertools.product(range(sites), repeat=2):
        got = _hops(basis, src, dst)
        want = hops_by_lookup(basis, src, dst)
        for part, expected in zip(got, want):
            assert part.dtype == expected.dtype
            assert np.array_equal(part, expected)


def test_shift_tables_are_built_on_the_first_hop_and_read_only():
    basis = aqsim.enumerate_basis(5, 4)
    basis.index((1, 0, 2, 0, 1))
    assert "_shifts" not in vars(basis)  # building and ranking leave them out
    _hops(basis, 3, 1)
    tables = vars(basis)["_shifts"]
    assert len(tables) == 2
    for table in tables:
        assert table.shape == basis.states.shape
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 1] = 0
        assert not table[:, 0].any()  # prefix sums exclude their own site
    assert basis._shifts is tables


@pytest.mark.parametrize("params, bosons", [
    (BoseHubbardParams.chain(5, 0.7, 1.0), 5),
    (BoseHubbardParams.plaquette(2, 3, 1.3, 0.4), 4),
    (BoseHubbardParams.plaquette(3, 2, 1.3, 0.4), 4),   # hops jump two sites
    (BoseHubbardParams.plaquette(2, 3, 0.9, 0.0), 1),
    (BoseHubbardParams.chain(1, 1.0, 1.0), 3),      # one site: no hops
    (BoseHubbardParams.chain(4, 1.0, 1.0), 0),      # vacuum
], ids=["chain5-N5", "plaquette2x3-N4", "plaquette3x2-N4", "plaquette2x3-N1", "L1",
        "N0"])
def test_hopping_matrix_matches_lookup_oracle_exactly(params, bosons):
    basis = aqsim.enumerate_basis(params.n_sites, bosons)
    got = hopping_matrix(params, basis)
    want = hopping_matrix_by_lookup(params, basis)
    assert got.shape == want.shape == (len(basis), len(basis))
    assert got.nnz == want.nnz
    assert np.array_equal(got.toarray(), want.toarray())
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("sites, bosons", [(5, 5), (6, 4), (1, 3), (3, 1)])
def test_one_body_density_matrix_matches_lookup_oracle(sites, bosons):
    rng = np.random.default_rng(2010)
    basis = aqsim.enumerate_basis(sites, bosons)
    psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    psi /= np.linalg.norm(psi)
    got = aqsim.one_body_density_matrix(psi, basis)
    want = one_body_density_matrix_by_lookup(psi, basis)
    assert np.abs(got - want).max() <= 1e-13
