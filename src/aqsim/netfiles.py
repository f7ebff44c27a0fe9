"""Plain-text parameter files for networks, geometries, and mappings.

One record per line, ``#`` starts a comment, blank lines are ignored.
Network and geometry files share one record grammar:

    <count> <n>                            n >= 1, before any item or pair
    <item> <index> <label> <value>         one per index, 0-based
    <pair> <m> <n> <value>                 m != n, each unordered pair once
    <scalar> <value>                       at most once

A label is one token without ``#``.

network file
    sites <n>
    site <index> <label> <energy>
    coupling <m> <n> <value>               pairs not listed are uncoupled

geometry file
    guides <n>
    guide <index> <label> <beta>
    separation <m> <n> <distance>          micrometres, every pair required
    coupling_scale <C0>                    required
    decay_length <d0>                      required; distance, C0, d0 positive

mapping file
    permutation <p0> <p1> ... <p(n-1)>
    unit_scale <s>                         positive

Files are UTF-8.  Every malformed file raises NetfileError, with the line
number where one applies.  Numbers are ASCII decimal literals (no ``_``
separators, no other scripts' digits).  Serializers write the shortest
decimal that round-trips the stored double, so save -> load -> save is
byte-identical and any finite decimal input is re-read to the exact same
value; they raise NetfileError for a label the readers could not read back.
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


def _decimal(token: str) -> str:
    # int() and float() also take '_' separators and non-ASCII digits;
    # the config parser shares this rule
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII decimal number: {token!r}")
    return token


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(_decimal(token))
    except ValueError:
        raise NetfileError(f"line {lineno}: {what} must be an integer, got {token!r}") from None


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(_decimal(token))
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


def _site_index(token: str, lineno: int, n: int, what: str) -> int:
    idx = _parse_int(token, lineno, what)
    if not 0 <= idx < n:
        raise NetfileError(f"line {lineno}: {what} {idx} out of range 0..{n - 1}")
    return idx


def _read_indexed(text: str, count: str, item: str, value_name: str, pair: str,
                  pair_value, scalars: tuple = ()):
    """Read the count, indexed item, symmetric pair and positive scalar records.

    Returns (labels, item values, pair matrix, {keyword: value} of the count
    and scalar records found).
    """
    n = None
    seen, seen_pairs, found = set(), set(), {}
    for lineno, fields in _records(text):
        key, args = fields[0], fields[1:]
        if key == count or key in scalars:
            if key in found:
                raise NetfileError(f"line {lineno}: duplicate '{key}' record")
            if len(args) != 1:
                raise NetfileError(f"line {lineno}: '{key}' takes one value")
            if key in scalars:
                found[key] = _parse_positive(args[0], lineno, key.replace("_", " "))
                continue
            n = found[key] = _parse_int(args[0], lineno, f"{item} count")
            if n < 1:
                raise NetfileError(f"line {lineno}: {item} count must be >= 1")
            matrix = _square_zeros(n, lineno, f"{item} count")
            values, labels = np.zeros(n), [""] * n
        elif key not in (item, pair):
            raise NetfileError(f"line {lineno}: unknown record {key!r}")
        elif n is None:
            raise NetfileError(f"line {lineno}: '{key}' before '{count}'")
        elif len(args) != 3:
            shape = f"index, label, {value_name}" if key == item else "m, n, value"
            raise NetfileError(f"line {lineno}: '{key}' takes {shape}")
        elif key == item:
            idx = _site_index(args[0], lineno, n, f"{item} index")
            if idx in seen:
                raise NetfileError(f"line {lineno}: duplicate {item} {idx}")
            seen.add(idx)
            labels[idx] = args[1]
            values[idx] = _parse_float(args[2], lineno, value_name)
        else:
            a, b = (_site_index(t, lineno, n, f"{item} index") for t in args[:2])
            if a == b:
                raise NetfileError(f"line {lineno}: {pair} requires two distinct {item}s")
            ab = (min(a, b), max(a, b))
            if ab in seen_pairs:
                raise NetfileError(f"line {lineno}: duplicate {pair} for pair {ab}")
            seen_pairs.add(ab)
            matrix[a, b] = matrix[b, a] = pair_value(args[2], lineno, pair)
    if n is None:
        raise NetfileError(f"missing '{count}' record")
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise NetfileError(f"missing '{item}' records for indices {missing}")
    return tuple(labels), values, matrix, found


def _label(label, i: int, item: str) -> str:
    label = str(label)
    if label.split() != [label] or "#" in label:
        raise NetfileError(f"{item} {i}: label {label!r} must be one token without '#'")
    return label


def loads_network(text: str) -> SiteNetwork:
    labels, energies, couplings, _ = _read_indexed(
        text, "sites", "site", "site energy", "coupling", _parse_float)
    return SiteNetwork(energies, couplings, labels)


def dumps_network(net: SiteNetwork) -> str:
    lines = [f"sites {net.n_sites}"]
    for i in range(net.n_sites):
        lines.append(f"site {i} {_label(net.labels[i], i, 'site')} {_fmt(net.on_site[i])}")
    for a in range(net.n_sites):
        for b in range(a + 1, net.n_sites):
            if net.couplings[a, b] != 0.0:
                lines.append(f"coupling {a} {b} {_fmt(net.couplings[a, b])}")
    return "\n".join(lines) + "\n"


def loads_geometry(text: str) -> WaveguideGeometry:
    labels, betas, separations, found = _read_indexed(
        text, "guides", "guide", "propagation constant", "separation", _parse_positive,
        ("coupling_scale", "decay_length"))
    n = len(labels)
    if np.count_nonzero(separations) != n * (n - 1):  # separations are positive
        raise NetfileError("missing 'separation' records for some guide pair")
    for key in ("coupling_scale", "decay_length"):
        if key not in found:
            raise NetfileError(f"missing '{key}' record")
    return WaveguideGeometry(separations, betas, found["coupling_scale"],
                             found["decay_length"], labels)


def dumps_geometry(geom: WaveguideGeometry) -> str:
    lines = [f"guides {geom.n_guides}"]
    for i in range(geom.n_guides):
        lines.append(f"guide {i} {_label(geom.labels[i], i, 'guide')} "
                     f"{_fmt(geom.prop_constants[i])}")
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
