"""The config and parameter-file parsers are total.

Any text either parses or raises the parser's typed error: ConfigError for
a config, NetfileError for a network or mapping file.  Inputs are drawn
from each grammar's own keywords and value shapes (small, negative, huge
and non-finite numbers, words, arbitrary text), mixed with free text.
"""

from hypothesis import example, given, settings, strategies as st

import aqsim.cli
from aqsim.cli import ConfigError, parse_config
from aqsim.netfiles import NetfileError, loads_mapping, loads_network

from conftest import DATA_DIR

CONFIG_WORDS = sorted({"command", *aqsim.cli._COMMON,
                       *(key for c in aqsim.cli._COMMANDS.values() for key in c.keys)})
VALUES = st.one_of(
    st.integers(-2, 8).map(str),
    st.floats().map(repr),
    st.sampled_from(["99999999999999999999", "1e999", "-0", "1_0", "0x1", "true",
                     "false", "plaquette", "emulation", "dimer.net", "a", "#", "\x00",
                     *aqsim.cli._COMMANDS]),
    st.text(max_size=8),
)


# the network reader also meets the keywords of the retired waveguide-geometry
# format, which it must reject as unknown records
NETFILE_WORDS = ["sites", "site", "coupling",
                 "guides", "guide", "separation", "coupling_scale", "decay_length"]


def documents(keywords):
    record = st.tuples(st.sampled_from(keywords), st.lists(VALUES, max_size=4)).map(
        lambda parts: " ".join([parts[0], *parts[1]]))
    return st.lists(st.one_of(record, st.text(max_size=20)), max_size=14).map("\n".join)


def parses_or_raises(parse, error, text):
    try:
        parse(text)
    except error:
        pass


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(documents(CONFIG_WORDS))
@example("command bh-scan\nL 99999999999999999999\nN -1\n")
@example("command bh-scan\nL 1_0\nN \u0663\nj_max 1_0\n")  # not ASCII decimals
@example("command walk\nnetwork " + "x" * 300 + "\n")  # a name too long to stat
def test_parse_config_is_total(text):
    parses_or_raises(lambda t: parse_config(t, base_dir=DATA_DIR), ConfigError, text)


@PROPERTY
@given(documents(NETFILE_WORDS))
@example("sites 99999999999999999999\n")
def test_loads_network_is_total(text):
    parses_or_raises(loads_network, NetfileError, text)


@PROPERTY
@given(documents(["permutation", "unit_scale"]))
@example("permutation 0 0\nunit_scale 0\n")
def test_loads_mapping_is_total(text):
    parses_or_raises(loads_mapping, NetfileError, text)
