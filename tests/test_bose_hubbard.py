import math

import numpy as np
import pytest
import scipy.sparse as sp

import aqsim
from aqsim import BasisSizeError, BoseHubbardParams, DriveCouplingError
from aqsim.bose_hubbard import basis_size, hopping_matrix, onsite_pair_count

from oracles import (chain_eigensystem, hopping_matrix_by_lookup,
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
    for bad in (wrong_total, wrong_length, negative, state[:-1]):
        with pytest.raises(KeyError):
            basis.index(bad)


def test_fock_basis_rejects_states_out_of_order():
    states = aqsim.enumerate_basis(3, 2).states
    with pytest.raises(ValueError, match="enumeration order"):
        aqsim.FockBasis(3, 2, states[::-1].copy())
    with pytest.raises(ValueError, match="enumeration order"):
        aqsim.FockBasis(3, 2, states[1:].copy())
    with pytest.raises(ValueError, match="enumeration order"):
        aqsim.FockBasis(3, 3, states.copy())


def test_basis_labels_are_built_once():
    basis = aqsim.enumerate_basis(2, 2)
    assert basis.labels() == ("2,0", "1,1", "0,2")
    assert basis.labels() is basis.labels()
    params = BoseHubbardParams.chain(2, 1.0, 1.0)
    assert aqsim.build_bh(params, basis).basis_labels is basis.labels()


def test_basis_cap():
    with pytest.raises(BasisSizeError):
        aqsim.enumerate_basis(30, 30)
    assert basis_size(30, 30) == math.comb(59, 30)


@pytest.mark.parametrize("hop, interaction, want", [
    (0.0, 4.0, [0.0, 4.0, 4.0]),
    (1.0, 0.0, [-2.0, 0.0, 2.0]),
    (1.0, 1.0, [(1 - SQRT17) / 2, 1.0, (1 + SQRT17) / 2]),
])
def test_two_site_closed_forms(hop, interaction, want):
    basis = aqsim.enumerate_basis(2, 2)
    h = aqsim.build_bh(BoseHubbardParams.chain(2, hop, interaction), basis)
    vals = np.linalg.eigvalsh(h.dense())
    assert np.abs(vals - np.sort(want)).max() <= 1e-12


def test_build_bh_is_hermitian_and_number_conserving():
    basis = aqsim.enumerate_basis(4, 3)
    h = aqsim.build_bh(BoseHubbardParams.chain(4, 0.7, 1.3), basis)
    m = h.matrix.tocoo()
    assert abs(h.matrix - h.matrix.getH()).max() == 0.0
    totals = basis.states.sum(axis=1)
    for r, c in zip(m.row, m.col):
        assert totals[r] == totals[c] == 3
    number_op = sp.diags(totals.astype(float))
    comm = h.matrix @ number_op - number_op @ h.matrix
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
    va = np.linalg.eigvalsh(aqsim.build_bh(chain, basis).dense())
    vb = np.linalg.eigvalsh(aqsim.build_bh(relabeled, basis).dense())
    assert np.abs(va - vb).max() <= 1e-10


def test_free_boson_spectrum_from_single_particle_energies():
    # U = 0: every many-body level is an occupation filling of chain modes
    for sites in (2, 3, 4):
        single, _ = chain_eigensystem(sites, coupling=-1.0)  # hopping sign: -J
        for bosons in (0, 1, 2, 3):
            basis = aqsim.enumerate_basis(sites, bosons)
            h = aqsim.build_bh(BoseHubbardParams.chain(sites, 1.0, 0.0), basis)
            got = np.sort(np.linalg.eigvalsh(h.dense()))
            want = np.sort(basis.states @ np.sort(single))
            assert np.abs(got - want).max() <= 1e-8


def test_low_spectrum_diagonal_case():
    diag = sp.diags([3.0, -1.0, 2.0]).tocsr()
    h = aqsim.Hamiltonian(diag)
    vals, _ = aqsim.low_spectrum(h, 3)
    assert np.array_equal(vals, [-1.0, 2.0, 3.0])


def test_low_spectrum_ground_state_closed_form():
    basis = aqsim.enumerate_basis(2, 2)
    h = aqsim.build_bh(BoseHubbardParams.chain(2, 1.0, 1.0), basis)
    vals, vecs = aqsim.low_spectrum(h, 1)
    assert vals[0] == pytest.approx((1 - SQRT17) / 2, abs=1e-12)
    residual = np.linalg.norm(h.matrix @ vecs[:, 0] - vals[0] * vecs[:, 0])
    assert residual <= 1e-9


def test_low_spectrum_sparse_matches_dense():
    basis = aqsim.enumerate_basis(8, 6)  # 1716 states: Lanczos path
    h = aqsim.build_bh(BoseHubbardParams.chain(8, 1.0, 3.0), basis)
    vals, _ = aqsim.low_spectrum(h, 6)
    dense = np.linalg.eigvalsh(h.dense())[:6]
    assert np.abs(vals - dense).max() <= 1e-10


def test_low_spectrum_k_range():
    basis = aqsim.enumerate_basis(2, 2)
    h = aqsim.build_bh(BoseHubbardParams.chain(2, 1.0, 1.0), basis)
    with pytest.raises(ValueError):
        aqsim.low_spectrum(h, 4)


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
    want = aqsim.build_bh(params, basis).matrix
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
    # the ground state comes from the Hamiltonian build_bh assembles
    (h,) = solved
    assert (h.matrix != want).nnz == 0


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


@pytest.mark.parametrize("params, bosons, even", [
    (BoseHubbardParams.chain(7, 0.1, 1.0), 7, 868),
    (BoseHubbardParams.plaquette(2, 3, 0.3, 1.0), 5, 126),  # no palindromes
], ids=["chain7-N7", "plaquette2x3-N5"])
def test_reflection_sector_is_an_isometry_that_h_keeps(params, bosons, even):
    basis = aqsim.enumerate_basis(params.n_sites, bosons)
    p = aqsim.reflection_sector(params, basis)
    assert p.shape == (even, len(basis))
    assert np.abs(p @ p.T - sp.identity(even)).max() <= 1e-15
    h = aqsim.build_bh(params, basis).matrix
    leak = abs(h @ p.T - p.T @ (p @ h @ p.T)).max()
    assert leak <= 1e-14 * abs(h).sum(axis=1).max()


def test_reflection_sector_size_on_the_3x3_plaquette():
    basis = aqsim.enumerate_basis(9, 9)
    p = aqsim.reflection_sector(BoseHubbardParams.plaquette(3, 3, 0.1, 1.0), basis)
    assert p.shape == (12190, 24310)


def test_reflection_sector_rejects_edges_reversal_moves():
    basis = aqsim.enumerate_basis(4, 2)
    params = BoseHubbardParams(4, 1.0, 1.0, ((0, 1), (1, 2)))  # reversal: (2, 3), (1, 2)
    with pytest.raises(ValueError, match="not invariant under site reversal"):
        aqsim.reflection_sector(params, basis)


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


@pytest.mark.parametrize("params, bosons", [
    (BoseHubbardParams.chain(5, 0.7, 1.0), 5),
    (BoseHubbardParams.plaquette(2, 3, 1.3, 0.4), 4),
    (BoseHubbardParams.chain(1, 1.0, 1.0), 3),      # one site: no hops
    (BoseHubbardParams.chain(4, 1.0, 1.0), 0),      # vacuum
], ids=["chain5-N5", "plaquette2x3-N4", "L1", "N0"])
def test_hopping_matrix_matches_lookup_oracle_exactly(params, bosons):
    basis = aqsim.enumerate_basis(params.n_sites, bosons)
    got = hopping_matrix(params, basis)
    want = hopping_matrix_by_lookup(params, basis)
    assert got.shape == want.shape == (len(basis), len(basis))
    assert got.nnz == want.nnz
    assert np.array_equal(got.toarray(), want.toarray())


@pytest.mark.parametrize("sites, bosons", [(5, 5), (6, 4), (1, 3), (3, 1)])
def test_one_body_density_matrix_matches_lookup_oracle(sites, bosons):
    rng = np.random.default_rng(2010)
    basis = aqsim.enumerate_basis(sites, bosons)
    psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    psi /= np.linalg.norm(psi)
    got = aqsim.one_body_density_matrix(psi, basis)
    want = one_body_density_matrix_by_lookup(psi, basis)
    assert np.abs(got - want).max() <= 1e-13
