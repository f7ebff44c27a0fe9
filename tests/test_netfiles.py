import numpy as np
import pytest

import aqsim
from aqsim.netfiles import (NetfileError, dumps_geometry, dumps_mapping,
                            dumps_network, loads_geometry, loads_mapping,
                            loads_network)


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
    # the geometry grammar's keywords are not network records
    ("sites 1\nsite 0 a 0\ncoupling_scale 1\n", "line 3: unknown record 'coupling_scale'"),
    ("sites 1\nsite 0 a 0\nguide 0 a 0\n", "line 3: unknown record 'guide'"),
])
def test_network_errors(text, fragment):
    with pytest.raises(NetfileError) as err:
        loads_network(text)
    assert fragment in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(NetfileError, match="line 4"):
        loads_network("sites 2\nsite 0 a 0\nsite 1 b 0\nbogus x\n")


def test_geometry_round_trip():
    sep = np.array([[0.0, 1.5, 3.0], [1.5, 0.0, 1.5], [3.0, 1.5, 0.0]])
    geom = aqsim.WaveguideGeometry(sep, [0.1, 0.2, 0.3], 2.0, 0.9, ("u", "v", "w"))
    text = dumps_geometry(geom)
    back = loads_geometry(text)
    assert np.array_equal(back.separations, geom.separations)
    assert np.array_equal(back.prop_constants, geom.prop_constants)
    assert back.coupling_scale == geom.coupling_scale
    assert back.decay_length == geom.decay_length
    assert dumps_geometry(back) == text


def test_geometry_requires_all_pairs():
    text = ("guides 3\nguide 0 a 0.0\nguide 1 b 0.0\nguide 2 c 0.0\n"
            "separation 0 1 1.0\nseparation 0 2 2.0\n"
            "coupling_scale 1.0\ndecay_length 1.0\n")
    with pytest.raises(NetfileError, match="missing 'separation'"):
        loads_geometry(text)


def test_geometry_missing_scales():
    text = "guides 1\nguide 0 a 0.0\n"
    with pytest.raises(NetfileError, match="coupling_scale"):
        loads_geometry(text)


@pytest.mark.parametrize("loads, text, message", [
    (loads_geometry, "guides 2\nguide 0 a 0\nguide 1 b 0\nseparation 0 1 -1.5\n",
     "line 4: separation must be positive, got '-1.5'"),
    (loads_geometry, "guides 1\nguide 0 a 0\ncoupling_scale 0\n",
     "line 3: coupling scale must be positive"),
    (loads_geometry, "guides 1\nguide 0 a 0\ncoupling_scale 1\ndecay_length -2\n",
     "line 4: decay length must be positive"),
    (loads_geometry, "guides 99999999999999999999\n",
     "line 1: guide count 99999999999999999999 is too large"),
    # the network grammar's keywords are not geometry records
    (loads_geometry, "guides 2\nguide 0 a 0\nguide 1 b 0\ncoupling 0 1 1\n",
     "line 4: unknown record 'coupling'"),
    (loads_geometry, "sites 2\n", "line 1: unknown record 'sites'"),
    (loads_mapping, "permutation 1 0\nunit_scale -2\n",
     "line 2: unit scale must be positive"),
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
@pytest.mark.parametrize("dumps, model", [
    (dumps_network, lambda labels: aqsim.SiteNetwork([0, 1], np.zeros((2, 2)), labels)),
    (dumps_geometry, lambda labels: aqsim.WaveguideGeometry(
        [[0, 1], [1, 0]], [0, 0], 1.0, 1.0, labels)),
])
def test_writers_reject_labels_the_readers_cannot_read(labels, index, label, dumps, model):
    with pytest.raises(NetfileError) as err:
        dumps(model(labels))
    assert f" {index}: label {label!r} must be one token without '#'" in str(err.value)


@pytest.mark.parametrize("load", [aqsim.load_network, aqsim.load_geometry,
                                  aqsim.load_mapping])
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
