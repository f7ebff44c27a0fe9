"""Plain-text parameter files for networks, geometries, and mappings.

Grammar (one record per line, ``#`` starts a comment, blank lines ignored):

network file
    sites <n>
    site <index> <label> <energy>          one line per site, 0-based
    coupling <m> <n> <value>               m != n, each unordered pair once

geometry file
    guides <n>
    guide <index> <label> <beta>
    separation <m> <n> <distance>          micrometres, every pair required
    coupling_scale <C0>
    decay_length <d0>                      distance, C0 and d0 positive

mapping file
    permutation <p0> <p1> ... <p(n-1)>
    unit_scale <s>                         positive

Files are UTF-8.  Every malformed file raises NetfileError, with the line
number where one applies.  Numbers are decimal literals.  Serializers write the shortest decimal that
round-trips the stored double, so save -> load -> save is byte-identical
and any finite decimal input is re-read to the exact same value.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import MappingRecord, SiteNetwork, WaveguideGeometry


class NetfileError(ValueError):
    """Malformed parameter file; message carries the offending line number."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _records(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise NetfileError(f"line {lineno}: {what} must be an integer, got {token!r}") from None


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise NetfileError(f"line {lineno}: {what} must be a number, got {token!r}") from None
    if not np.isfinite(value):
        raise NetfileError(f"line {lineno}: {what} must be finite, got {token!r}")
    return value


def _parse_positive(token: str, lineno: int, what: str) -> float:
    value = _parse_float(token, lineno, what)
    if not value > 0:
        raise NetfileError(f"line {lineno}: {what} must be positive, got {token!r}")
    return value


def _square_zeros(n: int, lineno: int, what: str) -> np.ndarray:
    try:
        return np.zeros((n, n))
    except (ValueError, MemoryError):  # numpy's limits on shape and memory
        raise NetfileError(f"line {lineno}: {what} {n} is too large") from None


def _site_index(token: str, lineno: int, n: int, what: str = "site index") -> int:
    idx = _parse_int(token, lineno, what)
    if not 0 <= idx < n:
        raise NetfileError(f"line {lineno}: {what} {idx} out of range 0..{n - 1}")
    return idx


def loads_network(text: str) -> SiteNetwork:
    n = None
    energies = labels = None
    seen_sites = set()
    seen_pairs = set()
    couplings = None
    for lineno, fields in _records(text):
        key, args = fields[0], fields[1:]
        if key == "sites":
            if n is not None:
                raise NetfileError(f"line {lineno}: duplicate 'sites' record")
            if len(args) != 1:
                raise NetfileError(f"line {lineno}: 'sites' takes one value")
            n = _parse_int(args[0], lineno, "site count")
            if n < 1:
                raise NetfileError(f"line {lineno}: site count must be >= 1")
            couplings = _square_zeros(n, lineno, "site count")
            energies = np.zeros(n)
            labels = [""] * n
        elif key == "site":
            if n is None:
                raise NetfileError(f"line {lineno}: 'site' before 'sites'")
            if len(args) != 3:
                raise NetfileError(f"line {lineno}: 'site' takes index, label, energy")
            idx = _site_index(args[0], lineno, n)
            if idx in seen_sites:
                raise NetfileError(f"line {lineno}: duplicate site {idx}")
            seen_sites.add(idx)
            labels[idx] = args[1]
            energies[idx] = _parse_float(args[2], lineno, "site energy")
        elif key == "coupling":
            if n is None:
                raise NetfileError(f"line {lineno}: 'coupling' before 'sites'")
            if len(args) != 3:
                raise NetfileError(f"line {lineno}: 'coupling' takes m, n, value")
            a = _site_index(args[0], lineno, n)
            b = _site_index(args[1], lineno, n)
            if a == b:
                raise NetfileError(f"line {lineno}: coupling requires two distinct sites")
            pair = (min(a, b), max(a, b))
            if pair in seen_pairs:
                raise NetfileError(f"line {lineno}: duplicate coupling for pair {pair}")
            seen_pairs.add(pair)
            value = _parse_float(args[2], lineno, "coupling value")
            couplings[a, b] = couplings[b, a] = value
        else:
            raise NetfileError(f"line {lineno}: unknown record {key!r}")
    if n is None:
        raise NetfileError("missing 'sites' record")
    if len(seen_sites) != n:
        missing = sorted(set(range(n)) - seen_sites)
        raise NetfileError(f"missing 'site' records for indices {missing}")
    return SiteNetwork(energies, couplings, tuple(labels))


def dumps_network(net: SiteNetwork) -> str:
    lines = [f"sites {net.n_sites}"]
    for i in range(net.n_sites):
        lines.append(f"site {i} {net.labels[i]} {_fmt(net.on_site[i])}")
    for a in range(net.n_sites):
        for b in range(a + 1, net.n_sites):
            if net.couplings[a, b] != 0.0:
                lines.append(f"coupling {a} {b} {_fmt(net.couplings[a, b])}")
    return "\n".join(lines) + "\n"


def loads_geometry(text: str) -> WaveguideGeometry:
    n = None
    betas = labels = separations = None
    seen_guides = set()
    seen_pairs = set()
    scale = decay = None
    for lineno, fields in _records(text):
        key, args = fields[0], fields[1:]
        if key == "guides":
            if n is not None:
                raise NetfileError(f"line {lineno}: duplicate 'guides' record")
            if len(args) != 1:
                raise NetfileError(f"line {lineno}: 'guides' takes one value")
            n = _parse_int(args[0], lineno, "guide count")
            if n < 1:
                raise NetfileError(f"line {lineno}: guide count must be >= 1")
            separations = _square_zeros(n, lineno, "guide count")
            betas = np.zeros(n)
            labels = [""] * n
        elif key == "guide":
            if n is None:
                raise NetfileError(f"line {lineno}: 'guide' before 'guides'")
            if len(args) != 3:
                raise NetfileError(f"line {lineno}: 'guide' takes index, label, beta")
            idx = _site_index(args[0], lineno, n, "guide index")
            if idx in seen_guides:
                raise NetfileError(f"line {lineno}: duplicate guide {idx}")
            seen_guides.add(idx)
            labels[idx] = args[1]
            betas[idx] = _parse_float(args[2], lineno, "propagation constant")
        elif key == "separation":
            if n is None:
                raise NetfileError(f"line {lineno}: 'separation' before 'guides'")
            if len(args) != 3:
                raise NetfileError(f"line {lineno}: 'separation' takes m, n, distance")
            a = _site_index(args[0], lineno, n, "guide index")
            b = _site_index(args[1], lineno, n, "guide index")
            if a == b:
                raise NetfileError(f"line {lineno}: separation requires two distinct guides")
            pair = (min(a, b), max(a, b))
            if pair in seen_pairs:
                raise NetfileError(f"line {lineno}: duplicate separation for pair {pair}")
            seen_pairs.add(pair)
            separations[a, b] = separations[b, a] = _parse_positive(
                args[2], lineno, "separation")
        elif key == "coupling_scale":
            if scale is not None:
                raise NetfileError(f"line {lineno}: duplicate 'coupling_scale'")
            if len(args) != 1:
                raise NetfileError(f"line {lineno}: 'coupling_scale' takes one value")
            scale = _parse_positive(args[0], lineno, "coupling scale")
        elif key == "decay_length":
            if decay is not None:
                raise NetfileError(f"line {lineno}: duplicate 'decay_length'")
            if len(args) != 1:
                raise NetfileError(f"line {lineno}: 'decay_length' takes one value")
            decay = _parse_positive(args[0], lineno, "decay length")
        else:
            raise NetfileError(f"line {lineno}: unknown record {key!r}")
    if n is None:
        raise NetfileError("missing 'guides' record")
    if len(seen_guides) != n:
        missing = sorted(set(range(n)) - seen_guides)
        raise NetfileError(f"missing 'guide' records for indices {missing}")
    if n > 1 and len(seen_pairs) != n * (n - 1) // 2:
        raise NetfileError("missing 'separation' records for some guide pair")
    if scale is None:
        raise NetfileError("missing 'coupling_scale' record")
    if decay is None:
        raise NetfileError("missing 'decay_length' record")
    return WaveguideGeometry(separations, betas, scale, decay, tuple(labels))


def dumps_geometry(geom: WaveguideGeometry) -> str:
    lines = [f"guides {geom.n_guides}"]
    for i in range(geom.n_guides):
        lines.append(f"guide {i} {geom.labels[i]} {_fmt(geom.prop_constants[i])}")
    for a in range(geom.n_guides):
        for b in range(a + 1, geom.n_guides):
            lines.append(f"separation {a} {b} {_fmt(geom.separations[a, b])}")
    lines.append(f"coupling_scale {_fmt(geom.coupling_scale)}")
    lines.append(f"decay_length {_fmt(geom.decay_length)}")
    return "\n".join(lines) + "\n"


def loads_mapping(text: str) -> MappingRecord:
    perm = None
    scale = None
    for lineno, fields in _records(text):
        key, args = fields[0], fields[1:]
        if key == "permutation":
            if perm is not None:
                raise NetfileError(f"line {lineno}: duplicate 'permutation'")
            if not args:
                raise NetfileError(f"line {lineno}: 'permutation' needs at least one index")
            perm = tuple(_parse_int(a, lineno, "permutation entry") for a in args)
            perm_line = lineno
        elif key == "unit_scale":
            if scale is not None:
                raise NetfileError(f"line {lineno}: duplicate 'unit_scale'")
            if len(args) != 1:
                raise NetfileError(f"line {lineno}: 'unit_scale' takes one value")
            scale = _parse_positive(args[0], lineno, "unit scale")
        else:
            raise NetfileError(f"line {lineno}: unknown record {key!r}")
    if perm is None:
        raise NetfileError("missing 'permutation' record")
    try:
        return MappingRecord(perm, 1.0 if scale is None else scale)
    except ValueError as exc:  # MappingError: not a permutation
        raise NetfileError(f"line {perm_line}: {exc}") from exc


def dumps_mapping(rec: MappingRecord) -> str:
    perm = " ".join(str(p) for p in rec.site_bijection)
    return f"permutation {perm}\nunit_scale {_fmt(rec.unit_scale)}\n"


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise NetfileError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None


def load_network(path) -> SiteNetwork:
    return loads_network(_read_text(path))


def save_network(net: SiteNetwork, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_network(net))


def load_geometry(path) -> WaveguideGeometry:
    return loads_geometry(_read_text(path))


def save_geometry(geom: WaveguideGeometry, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_geometry(geom))


def load_mapping(path) -> MappingRecord:
    return loads_mapping(_read_text(path))


def save_mapping(rec: MappingRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_mapping(rec))
