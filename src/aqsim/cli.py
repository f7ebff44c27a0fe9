"""Command-line surface: config files in, deterministic CSV/JSON out.

One executable with subcommands enaqt-sweep, walk, bh-spectrum, bh-scan,
and validate.  Each subcommand takes a single plain-text config file of
``key value`` lines (``#`` comments); unknown keys are hard errors, numbers
are ASCII decimal literals as in the parameter files, and all violations
are reported at once with their line numbers.  Paths inside a
config are resolved relative to the config file.

Outputs are written atomically (write to a temp file, then rename), with
the mode a plain open() would give them, and are byte-identical for
identical config + seed.  Every output carries a
metadata header: tool version, config hash, and seed.  The config hash
covers the semantic content (with referenced files replaced by their
content digest), not the file paths, and excludes the output location.

Exit codes: 0 success, 1 unexpected error, 2 config/parse failure,
3 numerical failure (LinAlgError, EigenConvergenceError among them),
4 invariant violation (StateInvariantError, NegativeAbsorptionError among
them, and ReportRoleError): _EXIT_CODES picks the code by the type of a
failure alone.  Any other exception, a builtin ValueError or RuntimeError
included, propagates with its traceback, which is exit 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bose_hubbard import (_MIN_DRIVE_TOL, BasisSizeError, BoseHubbardParams,
                           DriveCouplingError, _gap_scan, enumerate_basis,
                           modulation_absorption)
from .hamiltonians import (StateInvariantError, apply_static_disorder,
                           build_tight_binding)
from .netfiles import (NetfileError, _decimal, _read_text, _records,
                       load_mapping, load_network)
from .open_system import TransportSpec, goldilocks_sweep
from .validation import (ReportRoleError, ValidationReport, _report_payload,
                         check_isomorphism, classify_speedup)
from .walk import (_MAX_PHASE_SIGMA, DephasingEnsembleSpec, dephased_walk,
                   evolve_unitary, length_to_time)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

SIDECAR_SCHEMA_VERSION = 1

_EXIT_CODE_HELP = """exit codes:
  0  success
  1  unexpected error (any other exception; a traceback follows)
  2  config or input-file failure (ConfigError, NetfileError, BasisSizeError,
     DriveCouplingError)
  3  numerical failure (LinAlgError: an overflowed step matrix or one whose
     rounding explains a trace drift, walk or drive phases, integrator or
     eigensolver)
  4  invariant violation (StateInvariantError, ReportRoleError: state
     bookkeeping, ensemble population sum, absorbed energy or report rules)
"""


class ConfigError(ValueError):
    """Config rejected; .violations lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# (exception types, exit code, stderr prefix): disjoint rows; others give exit 1
_EXIT_CODES = (
    ((ConfigError, NetfileError, BasisSizeError, DriveCouplingError),
     EXIT_CONFIG, "error"),
    ((np.linalg.LinAlgError,), EXIT_NUMERICAL, "numerical failure"),
    ((StateInvariantError, ReportRoleError), EXIT_INVARIANT, "invariant violation"),
)


@dataclass
class ExperimentConfig:
    """Parsed config: command, validated values, and path context."""

    command: str
    values: dict
    base_dir: Path
    # line number of every key the config file gave
    _linenos: dict = field(default_factory=dict, repr=False, compare=False)

    def path(self, key: str) -> Path:
        return (self.base_dir / self.values[key]).resolve()

    def _at(self, key: str) -> str:
        """Where a violation that involves key is reported."""
        lineno = self._linenos.get(key)
        return "config" if lineno is None else f"line {lineno}"


def _parse_bool(token: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ValueError("expected 'true' or 'false'")


@dataclass(frozen=True)
class _Key:
    convert: object
    required: bool = False
    default: object = None
    check: object = None
    is_path: bool = False
    rest_of_line: bool = False


def _integer(token: str) -> int:
    return int(_decimal(token))


def _finite_float(token: str) -> float:
    value = float(_decimal(token))
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _positive(x):
    return None if x > 0 else "must be positive"


def _non_negative(x):
    return None if x >= 0 else "must be non-negative"


def _at_least(n):
    return lambda x: None if x >= n else f"must be >= {n}"


def _within(lo, hi):
    return lambda x: None if lo <= x <= hi else f"must lie in [{lo}, {hi}]"


def _positive_at_most(hi):
    return lambda x: None if 0 < x <= hi else f"must lie in (0, {hi:g}]"


def _one_of(*words):
    return lambda x: None if x in words else f"must be {' or '.join(words)}"


_COMMON = {
    "command": _Key(str, required=True),
    "output": _Key(str, required=True, is_path=True),
}


@dataclass(frozen=True)
class _Command:
    """One subcommand: help line, keys beyond _COMMON, cross-check, runner."""

    help: str
    keys: dict
    check: object
    run: object


# most points of a grid: the cross-checks build each grid in full
_MAX_STEPS = 10 ** 6
# most bh-spectrum t_drive: the integrator grows its step up to tenfold, and
# times near the top of the double range overflow it
_MAX_DRIVE_TIME = 1e300
# most ||H|| of the Bose-Hubbard commands: the eigen residuals and the
# drive's step control square the norms of vectors of H, far from overflow
_MAX_BH_NORM = 1e100
# spacing of each command's grid of <name>_steps points from <name>_min to
# <name>_max
_SPACINGS = {"gamma": np.geomspace, "nu": np.linspace, "j": np.geomspace}


def _grid(values, name):
    ends = (values[f"{name}_{end}"] for end in ("min", "max", "steps"))
    return _SPACINGS[name](*ends)


# Cross-checks take the parsed values and the line number of every key
# given, valid or not, and yield one message per violation that involves
# more than one key; a key given with a bad value counts as present, so
# that it is reported once.
def _check_grid(values, linenos, name):
    lo, hi, steps = (f"{name}_{end}" for end in ("min", "max", "steps"))
    if lo in values and hi in values and not values[lo] < values[hi]:
        yield f"line {linenos[hi]}: grid must ascend ({lo} < {hi})"
    elif all(key in values for key in (lo, hi, steps)):
        if not np.all(np.diff(_grid(values, name)) > 0):
            yield (f"line {linenos[steps]}: {steps} {values[steps]} puts two grid "
                   f"points at the same value between {lo} and {hi}")


def _check_sweep(values, linenos):
    yield from _check_grid(values, linenos, "gamma")
    if values.get("disorder_sigma", 0.0) > 0 and "seed" not in linenos:
        yield "config: seed required when disorder_sigma > 0"


def _check_walk(values, linenos):
    has_time = "time" in linenos
    has_length = "length" in linenos
    if has_time == has_length:
        yield "config: give exactly one of 'time' or 'length'"
    if has_length and "n_index" not in linenos:
        yield "config: 'length' requires 'n_index'"
    if "length" in values and "n_index" in values:
        if length_to_time(values["length"], values["n_index"]) == math.inf:
            yield (f"line {linenos['length']}: length {values['length']!r} at "
                   f"n_index {values['n_index']!r} overflows the evolution time")
    if values.get("phase_sigma", 0.0) > 0:
        for key in ("n_segments", "shots", "seed"):
            if key not in linenos:
                yield f"config: '{key}' required when phase_sigma > 0"


def _check_plaquette(values, linenos):
    if values.get("geometry") == "plaquette":
        for key in ("rows", "cols"):
            if key not in linenos:
                yield f"config: plaquette geometry requires '{key}'"
        if "rows" in values and "cols" in values and "L" in values:
            if values["rows"] * values["cols"] != values["L"]:
                yield "config: rows * cols must equal L"


def _check_bh_norm(values, linenos, bound, culprit):
    """||H||_inf <= bound N^2, since a state has at most N^2 / 2 pairs and
    4 N hops, each of amplitude at most N + 1; report on culprit's line."""
    n = min(values.get("N", 0), 1 << 22)  # the basis check refuses more bosons
    if n and not bound * n * n <= _MAX_BH_NORM:
        yield (f"line {linenos[culprit]}: {culprit} {values[culprit]!r} "
               f"lets ||H|| reach {bound * n * n:.3g} at N {values['N']}, "
               f"above {_MAX_BH_NORM:g}")


def _check_spectrum(values, linenos):
    yield from _check_grid(values, linenos, "nu")
    if values.get("J") == 0 and values.get("U") == 0:
        yield "config: J and U must not both be zero"
    if "J" in values and "U" in values:
        u, eight_j = values["U"], 8 * values["J"]
        yield from _check_bh_norm(values, linenos, u + eight_j,
                                  "U" if u >= eight_j else "J")
    yield from _check_plaquette(values, linenos)


def _check_scan(values, linenos):
    yield from _check_grid(values, linenos, "j")
    if "j_max" in values and "U" in values:  # J = j U
        u, ratio = values["U"], 1 + 8 * values["j_max"]
        yield from _check_bh_norm(values, linenos, u * ratio,
                                  "U" if u >= ratio else "j_max")
    yield from _check_plaquette(values, linenos)


def parse_config(text: str, base_dir=".", expected_command=None) -> ExperimentConfig:
    """Parse a config file; collect every violation before raising.

    Returns a config with defaults filled in, or raises ConfigError whose
    .violations holds one message per problem, each with its line number
    where one exists.
    """
    base = Path(base_dir)
    violations = []
    values = {}
    linenos = {}
    entries = list(_records(text))

    command = None
    for lineno, key, rest in entries:
        if key == "command":
            command = rest.strip()
            linenos["command"] = lineno
            break
    if command is None:
        raise ConfigError(["config: missing 'command' key"])
    if command not in _COMMANDS:
        raise ConfigError([f"line {linenos['command']}: unknown command {command!r}"])
    if expected_command is not None and command != expected_command:
        raise ConfigError([
            f"line {linenos['command']}: config is for {command!r}, "
            f"invoked as {expected_command!r}"])
    schema = {**_COMMON, **_COMMANDS[command].keys}
    values["command"] = command

    for lineno, key, rest in entries:
        if lineno == linenos["command"]:
            continue
        if key not in schema:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in linenos:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        linenos[key] = lineno
        spec = schema[key]
        token = rest.strip() if spec.rest_of_line else rest.split()[0] if rest.split() else ""
        if not spec.rest_of_line and len(rest.split()) > 1:
            violations.append(f"line {lineno}: key {key!r} takes a single value")
            continue
        if token == "":
            violations.append(f"line {lineno}: key {key!r} needs a value")
            continue
        try:
            value = spec.convert(token)
        except ValueError as exc:
            detail = str(exc) or f"cannot parse {token!r}"
            violations.append(f"line {lineno}: {key}: {detail}")
            continue
        if spec.check is not None:
            problem = spec.check(value)
            if problem:
                violations.append(f"line {lineno}: {key} {problem}")
                continue
        values[key] = value

    for key, spec in schema.items():
        if key in linenos:
            continue
        if spec.required:
            violations.append(f"config: missing required key {key!r}")
        elif spec.default is not None:
            values[key] = spec.default

    for key, spec in schema.items():
        if spec.is_path and key in values and key != "output":
            target = base / values[key]
            # unlike Path.is_file, False (not OSError) for a name too long
            if not os.path.isfile(target):
                violations.append(f"line {linenos.get(key, '?')}: "
                                  f"{key} file not found: {target}")
    if "output" in values and os.path.isdir(base / values["output"]):
        violations.append(f"line {linenos['output']}: "
                          f"output names a directory: {base / values['output']}")

    violations.extend(_COMMANDS[command].check(values, linenos))
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(command=command, values=values, base_dir=base,
                            _linenos=linenos)


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over the semantic config content.

    Referenced input files enter through their content digest, so moving a
    file does not change the hash but editing it does.  The output path is
    excluded.
    """
    schema = _COMMANDS[config.command].keys
    payload = {"command": config.command}
    for key in sorted(config.values):
        if key in ("command", "output"):
            continue
        value = config.values[key]
        if schema[key].is_path:
            digest = hashlib.sha256(config.path(key).read_bytes()).hexdigest()
            payload[key] = {"sha256": digest}
        else:
            payload[key] = value
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        # mkstemp makes the file 0600; give it the mode open(path, "w") gets
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict):
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _meta(config: ExperimentConfig) -> dict:
    seed = config.values.get("seed")
    return {
        "tool": f"aqsim {__version__}",
        "config_sha256": config_hash(config),
        "seed": "none" if seed is None else str(seed),
    }


def _write_csv(config: ExperimentConfig, header, rows, extra: dict) -> list:
    """Write the CSV under its metadata block plus its .meta.json sidecar."""
    meta = _meta(config)
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt_cell(cell) for cell in row))
    out = config.path("output")
    _atomic_write(out, "\n".join(lines) + "\n")
    payload = {
        "schema_version": SIDECAR_SCHEMA_VERSION,
        "tool": meta["tool"],
        "command": config.command,
        "config_sha256": meta["config_sha256"],
        "seed": config.values.get("seed"),
        **extra,
    }
    sidecar = out.with_name(out.name + ".meta.json")
    _write_json(sidecar, payload)
    return [out, sidecar]


def _load_checked(config: ExperimentConfig, key: str, load):
    try:
        return load(config.path(key))
    except NetfileError as exc:
        raise ConfigError([f"{key} ({config.values[key]}): {exc}"]) from exc


def _run_enaqt_sweep(config: ExperimentConfig) -> list:
    v = config.values
    net = _load_checked(config, "network", load_network)
    problems = []
    for key in ("source", "sink"):
        if v[key] >= net.n_sites:
            problems.append(f"{config._at(key)}: {key} {v[key]} out of range for "
                            f"{net.n_sites}-site network")
    if problems:
        raise ConfigError(problems)
    h = build_tight_binding(net)
    if v["disorder_sigma"] > 0:
        h = apply_static_disorder(h, v["disorder_sigma"], v["seed"])
    spec = TransportSpec(v["source"], v["sink"], v["trap_rate"],
                         v["recombination_rate"], np.zeros(net.n_sites))
    grid = _grid(v, "gamma")
    curve = goldilocks_sweep(h, spec, grid, t_max=v["t_max"], tol=v["tol"])
    rows = zip(curve.gamma_grid, curve.efficiencies, curve.converged)
    written = _write_csv(config, ["gamma", "eta", "converged"], rows, {
        "gamma_grid": [float(g) for g in curve.gamma_grid],
        "t_max": v["t_max"],
        "tol": v["tol"],
        "disorder_sigma": v["disorder_sigma"],
        "hamiltonian_sha256": curve.h_hash,
    })
    missed = curve.converged.count(False)
    if missed:
        print(f"warning: {missed} of {len(grid)} sweep points did not converge "
              f"by t_max {v['t_max']} (converged=false)", file=sys.stderr)
    return written


def _run_walk(config: ExperimentConfig) -> list:
    v = config.values
    net = _load_checked(config, "network", load_network)
    if v["input_mode"] >= net.n_sites:
        raise ConfigError([f"{config._at('input_mode')}: input_mode "
                           f"{v['input_mode']} out of range for {net.n_sites}-site network"])
    h = build_tight_binding(net)
    if "time" in v:
        t = v["time"]
    else:
        t = length_to_time(v["length"], v["n_index"])
    if v["phase_sigma"] > 0:
        spec = DephasingEnsembleSpec(v["n_segments"], v["phase_sigma"],
                                     v["shots"], v["seed"])
        pops = dephased_walk(h, v["input_mode"], t, spec)
    else:
        pops = evolve_unitary(h, v["input_mode"], t).populations()
    return _write_csv(config, ["site", "population"], enumerate(pops), {
        "evolution_time": t,
        "input_mode": v["input_mode"],
        "phase_sigma": v["phase_sigma"],
        "n_segments": v.get("n_segments"),
        "shots": v.get("shots"),
    })


def _bh_params(values: dict, hopping: float, interaction: float) -> BoseHubbardParams:
    if values.get("geometry") == "plaquette":
        return BoseHubbardParams.plaquette(values["rows"], values["cols"],
                                           hopping, interaction)
    return BoseHubbardParams.chain(values["L"], hopping, interaction)


def _run_bh_spectrum(config: ExperimentConfig) -> list:
    v = config.values
    basis = enumerate_basis(v["L"], v["N"])
    params = _bh_params(v, v["J"], v["U"])
    grid = _grid(v, "nu")
    spectrum = modulation_absorption(params, basis, v["delta"], grid,
                                     v["t_drive"], tol=v["tol"])
    rows = zip(spectrum.nu_grid, spectrum.absorbed_energy)
    return _write_csv(config, ["nu", "absorbed_energy"], rows, {
        "nu_grid": [float(g) for g in grid],
        "t_drive": v["t_drive"],
        "tol": v["tol"],
        "delta": v["delta"],
        "basis_states": len(basis),
    })


def _run_bh_scan(config: ExperimentConfig) -> list:
    v = config.values
    basis = enumerate_basis(v["L"], v["N"])
    grid = _grid(v, "j")
    gaps, fractions, sector_states = _gap_scan(_bh_params(v, 1.0, v["U"]), basis,
                                               grid, v["k"])
    rows = zip(grid, gaps, fractions)
    return _write_csv(config, ["j_ratio", "gap", "condensate_fraction"], rows, {
        "j_grid": [float(g) for g in grid],
        "k": v["k"],
        "basis_states": len(basis),
        "sector_states": sector_states,
    })


def _run_validate(config: ExperimentConfig) -> list:
    v = config.values
    net_a = _load_checked(config, "network_a", load_network)
    net_b = _load_checked(config, "network_b", load_network)
    rec = _load_checked(config, "mapping", load_mapping)
    n_a, n_b, n_map = net_a.n_sites, net_b.n_sites, len(rec.site_bijection)
    if not n_a == n_b == n_map:
        raise ConfigError([f"{config._at('mapping')}: network_a ({n_a} sites), "
                           f"network_b ({n_b} sites) and mapping ({n_map} entries) "
                           f"differ in size"])
    h_a = build_tight_binding(net_a)
    h_b = build_tight_binding(net_b)
    check = check_isomorphism(h_a, h_b, rec, v["tolerance"])
    speedup = classify_speedup(v["hardness_proof"],
                               v["efficient_classical_known"],
                               v["scalable_accuracy"])
    narrative = {"note": v["note"]} if v["note"] else {}
    report = ValidationReport(v["role"], [check], speedup, narrative)
    out = config.path("output")
    _write_json(out, {**_report_payload(report), "meta": _meta(config)})
    return [out]


_COMMANDS = {
    "enaqt-sweep": _Command(
        "dephasing sweep of transport efficiency (CSV gamma,eta,converged)", {
            "network": _Key(str, required=True, is_path=True),
            "source": _Key(_integer, required=True, check=_non_negative),
            "sink": _Key(_integer, required=True, check=_non_negative),
            "trap_rate": _Key(_finite_float, required=True, check=_positive),
            "recombination_rate": _Key(_finite_float, default=0.0, check=_non_negative),
            "gamma_min": _Key(_finite_float, required=True, check=_positive),
            "gamma_max": _Key(_finite_float, required=True, check=_positive),
            "gamma_steps": _Key(_integer, required=True, check=_within(2, _MAX_STEPS)),
            "t_max": _Key(_finite_float, default=1000.0, check=_positive),
            "tol": _Key(_finite_float, default=1e-8, check=_positive),
            "disorder_sigma": _Key(_finite_float, default=0.0, check=_non_negative),
            "seed": _Key(_integer, check=_non_negative),
        }, _check_sweep, _run_enaqt_sweep),
    "walk": _Command(
        "single-excitation walk populations (CSV site,population)", {
            "network": _Key(str, required=True, is_path=True),
            "input_mode": _Key(_integer, required=True, check=_non_negative),
            "time": _Key(_finite_float, check=_non_negative),
            "length": _Key(_finite_float, check=_non_negative),
            "n_index": _Key(_finite_float, check=_positive),
            "n_segments": _Key(_integer, check=_at_least(1)),
            "phase_sigma": _Key(_finite_float, default=0.0, check=_within(0, _MAX_PHASE_SIGMA)),
            "shots": _Key(_integer, check=_at_least(1)),
            "seed": _Key(_integer),
        }, _check_walk, _run_walk),
    "bh-spectrum": _Command(
        "interaction-modulation absorption spectrum (CSV nu,absorbed_energy)", {
            "L": _Key(_integer, required=True, check=_at_least(1)),
            "N": _Key(_integer, required=True, check=_non_negative),
            "J": _Key(_finite_float, required=True, check=_non_negative),
            "U": _Key(_finite_float, required=True, check=_non_negative),
            "delta": _Key(_finite_float, required=True, check=_within(0, 0.1)),
            "nu_min": _Key(_finite_float, required=True, check=_non_negative),
            "nu_max": _Key(_finite_float, required=True, check=_positive),
            "nu_steps": _Key(_integer, required=True, check=_within(1, _MAX_STEPS)),
            "t_drive": _Key(_finite_float, required=True,
                            check=_positive_at_most(_MAX_DRIVE_TIME)),
            "tol": _Key(_finite_float, default=1e-9, check=_at_least(_MIN_DRIVE_TOL)),
            "geometry": _Key(str, default="chain", check=_one_of("chain", "plaquette")),
            "rows": _Key(_integer, check=_at_least(1)),
            "cols": _Key(_integer, check=_at_least(1)),
        }, _check_spectrum, _run_bh_spectrum),
    "bh-scan": _Command(
        "gap and condensate fraction over J/U (CSV j_ratio,gap,condensate_fraction)", {
            # the drive needs two bosons and a second site to excite
            "L": _Key(_integer, required=True, check=_at_least(2)),
            "N": _Key(_integer, required=True, check=_at_least(2)),
            "U": _Key(_finite_float, default=1.0, check=_positive),
            "j_min": _Key(_finite_float, required=True, check=_positive),
            "j_max": _Key(_finite_float, required=True, check=_positive),
            "j_steps": _Key(_integer, required=True, check=_within(2, _MAX_STEPS)),
            "k": _Key(_integer, default=10, check=_at_least(2)),
            "geometry": _Key(str, default="chain", check=_one_of("chain", "plaquette")),
            "rows": _Key(_integer, check=_at_least(1)),
            "cols": _Key(_integer, check=_at_least(1)),
        }, _check_scan, _run_bh_scan),
    "validate": _Command(
        "isomorphism check and validation report (JSON)", {
            "network_a": _Key(str, required=True, is_path=True),
            "network_b": _Key(str, required=True, is_path=True),
            "mapping": _Key(str, required=True, is_path=True),
            "tolerance": _Key(_finite_float, required=True, check=_positive),
            "role": _Key(str, default="simulation", check=_one_of("simulation", "emulation")),
            "hardness_proof": _Key(_parse_bool, required=True),
            "efficient_classical_known": _Key(_parse_bool, required=True),
            "scalable_accuracy": _Key(_parse_bool, required=True),
            "note": _Key(str, default="", rest_of_line=True),
        }, lambda values, linenos: (), _run_validate),
}


def run(config: ExperimentConfig) -> list:
    """Execute a parsed config; returns the list of files written."""
    return _COMMANDS[config.command].run(config)


# built on the first main call, not at import; parsing leaves it unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqsim",
        description="Desk-scale transport, walk, and lattice-spectroscopy runs",
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"aqsim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, epilog=_EXIT_CODE_HELP,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("config", help="path to the experiment config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config_path = Path(args.config)
    try:
        text = _read_text(config_path)
    except (OSError, NetfileError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text, base_dir=config_path.parent,
                              expected_command=args.subcommand)
        written = run(config)
    except Exception as exc:
        for types, code, prefix in _EXIT_CODES:
            if isinstance(exc, types):
                for message in getattr(exc, "violations", [exc]):
                    print(f"{prefix}: {message}", file=sys.stderr)
                return code
        raise
    for path in written:
        print(path)
    return EXIT_OK


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
