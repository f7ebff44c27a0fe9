import numpy as np
import pytest

import aqsim
from aqsim.netfiles import (NetfileError, dumps_mapping, dumps_network,
                            loads_mapping, loads_network)


def test_canonical_files_round_trip_bytes(data_dir):
    for name in ("dimer.net", "fmo7.net", "wg7.net"):
        text = (data_dir / name).read_text()
        assert dumps_network(loads_network(text)) == text
    text = (data_dir / "fmo_to_wg.map").read_text()
    assert dumps_mapping(loads_mapping(text)) == text


def test_network_value_exact_round_trip():
    rng = np.random.default_rng(9)
    c = rng.normal(size=(5, 5))
    c = c + c.T
    np.fill_diagonal(c, 0.0)
    net = aqsim.SiteNetwork(rng.normal(size=5), c)
    text = dumps_network(net)
    back = loads_network(text)
    assert np.array_equal(back.on_site, net.on_site)
    assert np.array_equal(back.couplings, net.couplings)
    assert back.labels == net.labels
    assert dumps_network(back) == text


def test_finite_decimal_inputs_parse_exact():
    text = "sites 2\nsite 0 a 12410.5\nsite 1 b -0.125\ncoupling 0 1 3e-2\n"
    net = loads_network(text)
    assert net.on_site[0] == 12410.5
    assert net.on_site[1] == -0.125
    assert net.couplings[0, 1] == 0.03
    # canonical re-serialization is stable from then on
    assert dumps_network(loads_network(dumps_network(net))) == dumps_network(net)
    # the exponent and signed-zero forms that repr(float) writes
    back = loads_network("sites 2\nsite 0 a 1e-05\nsite 1 b -0.0\n").on_site
    assert back[0] == 1e-05 and back[1] == 0.0 and np.signbit(back[1])


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nsites 1  # trailing\nsite 0 a 1.0\n"
    assert loads_network(text).on_site[0] == 1.0


@pytest.mark.parametrize("text, fragment", [
    ("sites 2\nsite 0 a 0\nsite 1 b 0\nfoo 1 2\n", "unknown record 'foo'"),
    ("sites 2\nsite 0 a 0\nsite 0 b 0\n", "duplicate site 0"),
    ("sites 2\nsite 0 a 0\n", "missing 'site' records for indices [1]"),
    ("sites 2\nsite 0 a 0\nsite 1 b 0\ncoupling 0 2 1\n", "out of range"),
    ("sites 2\nsite 0 a 0\nsite 1 b zz\n", "must be a number"),
    ("sites 2\nsite 0 a 0\nsite 1 b 0\ncoupling 0 0 1\n", "distinct sites"),
    ("sites 2\nsite 0 a 0\nsite 1 b 0\ncoupling 0 1 1\ncoupling 1 0 2\n",
     "duplicate coupling"),
    ("site 0 a 0\n", "'site' before 'sites'"),
    ("", "missing 'sites'"),
    ("sites 1\nsite 0 a inf\n", "must be finite"),
    ("sites 99999999999999999999\n", "line 1: site count 99999999999999999999 is too large"),
    # numbers are ASCII decimal literals: int() and float() would take these
    ("sites 1_0\n", "line 1: site count must be an integer, got '1_0'"),
    ("sites \u0663\n", "line 1: site count must be an integer"),
    ("sites 1\nsite 0 s \uff11\n", "line 2: site energy must be a number"),
    ("sites 2\nsite 0 a 0\nsite 1 b 0\ncoupling 0 1 1_0.5\n", "line 4: coupling must be a number"),
    ("sites 1\nsites 1\n", "line 2: duplicate 'sites' record"),
    ("sites 1 2\n", "line 1: 'sites' takes one value"),
    ("sites 0\n", "line 1: site count must be >= 1"),
    ("sites 1\nsite 0 a\n", "line 2: 'site' takes index, label, site energy"),
    ("sites 2\nsite 0 a 0\nsite 1 b 0\ncoupling 0 1\n", "line 4: 'coupling' takes m, n, value"),
    # keywords of the retired waveguide-geometry format are not network records
    ("sites 1\nsite 0 a 0\ncoupling_scale 1\n", "line 3: unknown record 'coupling_scale'"),
    ("sites 1\nsite 0 a 0\nguide 0 a 0\n", "line 3: unknown record 'guide'"),
    ("guides 1\n", "line 1: unknown record 'guides'"),
    ("sites 2\nsite 0 a 0\nsite 1 b 0\nseparation 0 1 1\n",
     "line 4: unknown record 'separation'"),
    ("sites 1\nsite 0 a 0\ndecay_length 1\n", "line 3: unknown record 'decay_length'"),
])
def test_network_errors(text, fragment):
    with pytest.raises(NetfileError) as err:
        loads_network(text)
    assert fragment in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(NetfileError, match="line 4"):
        loads_network("sites 2\nsite 0 a 0\nsite 1 b 0\nbogus x\n")


@pytest.mark.parametrize("loads, text, message", [
    (loads_mapping, "permutation 1 0\nunit_scale -2\n",
     "line 2: unit scale must be positive"),
    (loads_network, "sites 1\nsite 3 a 0\n", "line 2: site index 3 out of range 0..0"),
    (loads_mapping, "permutation 0\npermutation 0\n", "line 2: duplicate 'permutation'"),
    (loads_mapping, "permutation\n", "line 1: 'permutation' needs at least one index"),
    (loads_mapping, "permutation 0\nunit_scale 1\nunit_scale 1\n",
     "line 3: duplicate 'unit_scale'"),
    (loads_mapping, "permutation 0\nunit_scale 1 2\n", "line 2: 'unit_scale' takes one value"),
    # the unit scale is finite and strictly positive
    (loads_mapping, "permutation 0\nunit_scale 0\n",
     "line 2: unit scale must be positive, got '0'"),
    (loads_mapping, "permutation 0\nunit_scale -0.0\n",
     "line 2: unit scale must be positive, got '-0.0'"),
    (loads_mapping, "permutation 0\nunit_scale nan\n",
     "line 2: unit scale must be finite, got 'nan'"),
    (loads_mapping, "permutation 0\nunit_scale inf\n",
     "line 2: unit scale must be finite, got 'inf'"),
    (loads_mapping, "permutation 0\nunit_scale 1_0\n",
     "line 2: unit scale must be a number, got '1_0'"),
    (loads_mapping, "permutation 0 x\n", "line 1: permutation entry must be an integer, got 'x'"),
    (loads_mapping, "unit_scale 1\n", "missing 'permutation' record"),
    (loads_mapping, "permutation 0\nsites 1\n", "line 2: unknown record 'sites'"),
])
def test_model_rules_are_netfile_errors_with_line_numbers(loads, text, message):
    with pytest.raises(NetfileError) as err:
        loads(text)
    assert message in str(err.value)


@pytest.mark.parametrize("labels, index, label", [
    (("a b", "c"), 0, "a b"),
    (("a", "x#1"), 1, "x#1"),
    (("", "c"), 0, ""),
    (("a", " c"), 1, " c"),
    (("a", "c\t"), 1, "c\t"),
])
def test_writers_reject_labels_the_readers_cannot_read(labels, index, label):
    with pytest.raises(NetfileError) as err:
        dumps_network(aqsim.SiteNetwork([0, 1], np.zeros((2, 2)), labels))
    assert f"site {index}: label {label!r} must be one token without '#'" in str(err.value)


@pytest.mark.parametrize("load", [aqsim.load_network, aqsim.load_mapping])
def test_load_rejects_non_utf8(tmp_path, load):
    path = tmp_path / "latin1.txt"
    path.write_bytes("# header\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(NetfileError, match="line 2: not UTF-8 text"):
        load(path)


def test_mapping_round_trip_and_defaults():
    rec = loads_mapping("permutation 2 0 1\n")
    assert rec.site_bijection == (2, 0, 1)
    assert rec.unit_scale == 1.0
    text = dumps_mapping(aqsim.MappingRecord((1, 0), 0.25))
    assert loads_mapping(text).unit_scale == 0.25


def test_mapping_rejects_non_permutation():
    with pytest.raises(NetfileError, match="line 1: .* not a permutation") as err:
        loads_mapping("permutation 0 0 1\nunit_scale 1.0\n")
    assert isinstance(err.value.__cause__, aqsim.MappingError)


def test_file_io_round_trip(tmp_path, data_dir):
    net = aqsim.load_network(data_dir / "fmo7.net")
    out = tmp_path / "copy.net"
    aqsim.save_network(net, out)
    assert out.read_bytes() == (data_dir / "fmo7.net").read_bytes()


def test_mapping_file_io_round_trip(tmp_path, data_dir):
    rec = aqsim.load_mapping(data_dir / "fmo_to_wg.map")
    out = tmp_path / "copy.map"
    aqsim.save_mapping(rec, out)
    assert out.read_bytes() == (data_dir / "fmo_to_wg.map").read_bytes()
