import numpy as np
import pytest
import scipy.sparse as sp

import aqsim
from aqsim import Hamiltonian, MappingError, MappingRecord, NetworkError, SiteNetwork


def test_single_site():
    h = aqsim.build_tight_binding(SiteNetwork([3.0], [[0.0]]))
    assert h.matrix.shape == (1, 1)
    assert h.matrix[0, 0] == 3.0


def test_symmetric_coupler():
    h = aqsim.build_tight_binding(SiteNetwork([0.0, 0.0], [[0, 1], [1, 0]]))
    assert np.array_equal(h.matrix, np.array([[0, 1], [1, 0]], dtype=complex))


def test_seven_site_file_round_trip(data_dir):
    # entries of the built Hamiltonian must equal the ingested file values
    net = aqsim.load_network(data_dir / "fmo7.net")
    h = aqsim.build_tight_binding(net)
    assert h.dim == 7
    assert np.array_equal(np.diagonal(h.matrix).real, net.on_site)
    off = np.array(h.matrix.real, copy=True)
    np.fill_diagonal(off, 0.0)
    assert np.array_equal(off, net.couplings)
    assert np.abs(h.matrix - h.matrix.conj().T).max() <= 1e-12
    assert h.basis_labels == net.labels


def test_network_invariants():
    with pytest.raises(NetworkError):
        SiteNetwork([0.0, 0.0], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(NetworkError):
        SiteNetwork([0.0, 0.0], [[1, 0], [0, 0]])  # nonzero diagonal
    with pytest.raises(NetworkError):
        SiteNetwork([0.0, 0.0], [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(NetworkError):
        SiteNetwork([0.0], [[0.0]], labels=("a", "b"))


def test_build_is_linear():
    rng = np.random.default_rng(5)
    nets = []
    for _ in range(2):
        c = rng.normal(size=(4, 4))
        c = c + c.T
        np.fill_diagonal(c, 0.0)
        nets.append(SiteNetwork(rng.normal(size=4), c))
    h_sum = aqsim.build_tight_binding(
        SiteNetwork(nets[0].on_site + nets[1].on_site,
                    nets[0].couplings + nets[1].couplings))
    assert np.allclose(h_sum.matrix,
                       aqsim.build_tight_binding(nets[0]).matrix
                       + aqsim.build_tight_binding(nets[1]).matrix,
                       atol=1e-15)


def test_map_network_identity():
    h = aqsim.build_tight_binding(SiteNetwork([1.0, 2.0], [[0, 0.5], [0.5, 0]]))
    out = aqsim.map_network(h, MappingRecord((0, 1), 1.0))
    assert np.array_equal(out.matrix, h.matrix)
    assert out.basis_labels == h.basis_labels


def test_map_network_swap_symmetric():
    h = Hamiltonian([[0, 1], [1, 0]])
    out = aqsim.map_network(h, MappingRecord((1, 0), 1.0))
    assert np.array_equal(out.matrix, h.matrix)


def test_map_network_scale():
    h = Hamiltonian([[1.0, 0.5], [0.5, 0.0]])
    out = aqsim.map_network(h, MappingRecord((0, 1), 2.0))
    assert np.array_equal(out.matrix, np.array([[2, 1], [1, 0]], dtype=complex))


def test_map_network_moves_entries_to_mapped_sites():
    h = aqsim.build_tight_binding(
        SiteNetwork([1.0, 2.0, 3.0], np.zeros((3, 3)), ("a", "b", "c")))
    rec = MappingRecord((2, 0, 1), 1.0)
    out = aqsim.map_network(h, rec)
    # site m of the input lands on site p(m) of the output
    for m in range(3):
        assert out.matrix[rec.site_bijection[m], rec.site_bijection[m]] == h.matrix[m, m]
        assert out.basis_labels[rec.site_bijection[m]] == h.basis_labels[m]


def test_map_network_length_mismatch():
    h = Hamiltonian(np.zeros((3, 3)))
    with pytest.raises(MappingError):
        aqsim.map_network(h, MappingRecord((1, 0), 1.0))


def test_mapping_record_validation():
    with pytest.raises(MappingError):
        MappingRecord((0, 2), 1.0)
    with pytest.raises(MappingError):
        MappingRecord((0, 1), 0.0)
    # non-integral entries are refused, not truncated to a permutation
    with pytest.raises(MappingError, match="must be an integer"):
        MappingRecord((0.9, 1.7, 2.2))
    assert MappingRecord(np.arange(3)[::-1]).site_bijection == (2, 1, 0)


def test_map_inverse_round_trip():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = Hamiltonian(0.5 * (a + a.conj().T))
    rec = MappingRecord((3, 0, 4, 1, 2), 2.5)
    back = aqsim.map_network(aqsim.map_network(h, rec), rec.inverse())
    assert np.abs(back.matrix - h.matrix).max() <= 1e-14


def test_map_network_preserves_spectrum_at_unit_scale():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = Hamiltonian(0.5 * (a + a.conj().T))
    out = aqsim.map_network(h, MappingRecord((5, 2, 0, 4, 1, 3), 1.0))
    assert np.allclose(np.linalg.eigvalsh(out.matrix),
                       np.linalg.eigvalsh(h.matrix), atol=1e-12)


def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        Hamiltonian([[0.0, 1.0], [0.0, 0.0]])


def test_hamiltonian_is_dense_only():
    # sparse matrices belong to the Bose-Hubbard engine, not to Hamiltonian
    with pytest.raises((TypeError, ValueError)):
        Hamiltonian(sp.identity(3, format="csr"))


def test_disorder_zero_sigma_bitwise():
    h = aqsim.build_tight_binding(SiteNetwork([0.1, -0.2], [[0, 0.3], [0.3, 0]]))
    out = aqsim.apply_static_disorder(h, 0.0, seed=1)
    assert out.matrix.tobytes() == h.matrix.tobytes()


def test_disorder_deterministic_and_diagonal_only():
    h = aqsim.build_tight_binding(SiteNetwork(np.zeros(4), np.eye(4)[::-1] * 0))
    ha = aqsim.apply_static_disorder(h, 0.7, seed=42)
    hb = aqsim.apply_static_disorder(h, 0.7, seed=42)
    assert ha.matrix.tobytes() == hb.matrix.tobytes()
    hc = aqsim.apply_static_disorder(h, 0.7, seed=43)
    assert not np.array_equal(ha.matrix, hc.matrix)
    off_mask = ~np.eye(4, dtype=bool)
    assert np.array_equal(ha.matrix[off_mask], h.matrix[off_mask])


def test_disorder_sample_std():
    # Monte Carlo on the generator: 1e4 draws of a 1-site system
    h = aqsim.build_tight_binding(SiteNetwork([0.0], [[0.0]]))
    offsets = np.array([
        aqsim.apply_static_disorder(h, 1.0, seed=s).matrix[0, 0].real
        for s in range(10_000)])
    assert abs(offsets.std() - 1.0) <= 0.05


def test_disorder_negative_sigma():
    h = aqsim.build_tight_binding(SiteNetwork([0.0], [[0.0]]))
    # a NaN width is an input error too, not an overflow of the draw
    for sigma in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="non-negative"):
            aqsim.apply_static_disorder(h, sigma, seed=0)
    with pytest.raises(np.linalg.LinAlgError, match="overflows"):
        aqsim.apply_static_disorder(h, float("inf"), seed=0)


def test_content_hash_tracks_matrix():
    h1 = Hamiltonian([[0.0, 1.0], [1.0, 0.0]])
    h2 = Hamiltonian([[0.0, 1.0 + 1e-13], [1.0 + 1e-13, 0.0]])
    assert h1.content_hash() != h2.content_hash()
    assert h1.content_hash() == Hamiltonian([[0.0, 1.0], [1.0, 0.0]]).content_hash()
