"""Plain-text parameter files for networks and mappings.

One record per line, ``#`` starts a comment, blank lines are ignored.

network file
    sites <n>                              n >= 1, once, before any site or coupling
    site <index> <label> <energy>          one per index, 0-based
    coupling <m> <n> <value>               m != n, each unordered pair once;
                                           pairs not listed are uncoupled

A label is one token without ``#``.

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

from .hamiltonians import MappingRecord, SiteNetwork


class NetfileError(ValueError):
    """Malformed parameter file; message carries the offending line number."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _records(text: str):
    """(line number, key, rest of line) of each line that is not blank or
    a comment; the config parser reads its files through this too."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, *rest = line.split(None, 1)
            yield lineno, key, rest[0] if rest else ""


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


def _site_index(token: str, lineno: int, n: int) -> int:
    idx = _parse_int(token, lineno, "site index")
    if not 0 <= idx < n:
        raise NetfileError(f"line {lineno}: site index {idx} out of range 0..{n - 1}")
    return idx


def _label(label, i: int) -> str:
    label = str(label)
    if label.split() != [label] or "#" in label:
        raise NetfileError(f"site {i}: label {label!r} must be one token without '#'")
    return label


def loads_network(text: str) -> SiteNetwork:
    n = None
    seen, seen_pairs = set(), set()
    for lineno, key, rest in _records(text):
        args = rest.split()
        if key == "sites":
            if n is not None:
                raise NetfileError(f"line {lineno}: duplicate 'sites' record")
            if len(args) != 1:
                raise NetfileError(f"line {lineno}: 'sites' takes one value")
            n = _parse_int(args[0], lineno, "site count")
            if n < 1:
                raise NetfileError(f"line {lineno}: site count must be >= 1")
            try:
                couplings = np.zeros((n, n))
            except (ValueError, MemoryError):  # numpy's limits on shape and memory
                raise NetfileError(f"line {lineno}: site count {n} is too large") from None
            energies, labels = np.zeros(n), [""] * n
        elif key not in ("site", "coupling"):
            raise NetfileError(f"line {lineno}: unknown record {key!r}")
        elif n is None:
            raise NetfileError(f"line {lineno}: '{key}' before 'sites'")
        elif len(args) != 3:
            shape = "index, label, site energy" if key == "site" else "m, n, value"
            raise NetfileError(f"line {lineno}: '{key}' takes {shape}")
        elif key == "site":
            idx = _site_index(args[0], lineno, n)
            if idx in seen:
                raise NetfileError(f"line {lineno}: duplicate site {idx}")
            seen.add(idx)
            labels[idx] = args[1]
            energies[idx] = _parse_float(args[2], lineno, "site energy")
        else:
            a, b = (_site_index(t, lineno, n) for t in args[:2])
            if a == b:
                raise NetfileError(f"line {lineno}: coupling requires two distinct sites")
            ab = (min(a, b), max(a, b))
            if ab in seen_pairs:
                raise NetfileError(f"line {lineno}: duplicate coupling for pair {ab}")
            seen_pairs.add(ab)
            couplings[a, b] = couplings[b, a] = _parse_float(args[2], lineno, "coupling")
    if n is None:
        raise NetfileError("missing 'sites' record")
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise NetfileError(f"missing 'site' records for indices {missing}")
    return SiteNetwork(energies, couplings, tuple(labels))


def dumps_network(net: SiteNetwork) -> str:
    lines = [f"sites {net.n_sites}"]
    for i in range(net.n_sites):
        lines.append(f"site {i} {_label(net.labels[i], i)} {_fmt(net.on_site[i])}")
    for a in range(net.n_sites):
        for b in range(a + 1, net.n_sites):
            if net.couplings[a, b] != 0.0:
                lines.append(f"coupling {a} {b} {_fmt(net.couplings[a, b])}")
    return "\n".join(lines) + "\n"


def loads_mapping(text: str) -> MappingRecord:
    perm = None
    scale = None
    for lineno, key, rest in _records(text):
        args = rest.split()
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
            scale = _parse_float(args[0], lineno, "unit scale")
            if not scale > 0:
                raise NetfileError(f"line {lineno}: unit scale must be positive, got {args[0]!r}")
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


def load_mapping(path) -> MappingRecord:
    return loads_mapping(_read_text(path))


def save_mapping(rec: MappingRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_mapping(rec))
