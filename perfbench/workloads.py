"""Workload definitions: seeded inputs, op configs and work-unit counts.

Each workload turns (seed, op index) into one aqsim config plus the input
files it names.  Nothing here imports aqsim: the program only ever sees the
files written by ``write_op``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
FMO_NET = REPO / "tests" / "data" / "fmo7.net"

# A fixed disorder ensemble, swept once per round in a seed-shuffled order:
# with a fresh random realization per op, op times of the 13-point sweep to
# 1e3 spread from 4.2 to 7.4 s, too wide for the few ops a run holds.  Seeds 1, 2 and 6 hit the
# Hermiticity defect (exit 4); t_max 600 is what exposes it.
FMO = dict(source=0, sink=6, trap_rate=1.0, recombination_rate=0.05,
           gamma_min=1e-3, gamma_max=1e2, gamma_steps=11, t_max=600.0,
           tol=1e-8, disorder_sigma=0.5, disorder_seeds=(1, 2, 3, 4, 5, 6))
WALK = dict(n_sites=101, input_mode=50, time=20.0, phase_sigma=0.5,
            n_segments=48, shots=4000)
SCAN = dict(L=7, N=7, U=1.0, j_min=0.01, j_max=0.2, j_steps=4, k=10)


@dataclass
class Op:
    """One CLI invocation: subcommand, config values, input files, and the
    facts its reference needs (the Hamiltonian, the op's work units)."""

    command: str
    values: dict
    inputs: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def _rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def network_text(on_site, couplings) -> str:
    n = len(on_site)
    lines = [f"sites {n}"]
    lines += [f"site {i} s{i} {float(on_site[i])!r}" for i in range(n)]
    lines += [f"coupling {i} {j} {float(couplings[i, j])!r}"
              for i in range(n) for j in range(i + 1, n) if couplings[i, j] != 0]
    return "\n".join(lines) + "\n"


def parse_network(text: str):
    """(on_site, couplings) from a network file, independently of aqsim."""
    on_site, couplings = None, None
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "sites":
            n = int(parts[1])
            on_site, couplings = np.zeros(n), np.zeros((n, n))
        elif parts[0] == "site":
            on_site[int(parts[1])] = float(parts[3])
        elif parts[0] == "coupling":
            i, j, v = int(parts[1]), int(parts[2]), float(parts[3])
            couplings[i, j] = couplings[j, i] = v
    return on_site, couplings


def _enaqt_fmo(seed: int, op: int) -> Op:
    panel = FMO["disorder_seeds"]
    order = np.random.default_rng([seed, op // len(panel)]).permutation(len(panel))
    disorder_seed = panel[order[op % len(panel)]]
    values = {key: FMO[key] for key in ("source", "sink", "trap_rate",
                                        "recombination_rate", "gamma_min",
                                        "gamma_max", "gamma_steps", "t_max",
                                        "tol", "disorder_sigma")}
    values = {"network": "net.net", **values, "seed": disorder_seed}
    text = FMO_NET.read_text(encoding="utf-8")
    on_site, couplings = parse_network(text)
    disorder = np.random.default_rng(disorder_seed).normal(
        0.0, FMO["disorder_sigma"], on_site.size)
    return Op("enaqt-sweep", values, {"net.net": text},
              {"on_site": on_site + disorder, "couplings": couplings,
               "units": FMO["gamma_steps"]})


def _walk_ensemble(seed: int, op: int) -> Op:
    p = WALK
    n = p["n_sites"]
    couplings = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    values = {"network": "net.net",
              **{key: p[key] for key in ("input_mode", "time", "phase_sigma",
                                         "n_segments", "shots")},
              "seed": seed * 1000 + op}
    return Op("walk", values,
              {"net.net": network_text(np.zeros(n), couplings)},
              {"on_site": np.zeros(n), "couplings": couplings,
               "units": p["shots"]})


def _bh_scan(seed: int, op: int) -> Op:
    rng = _rng(seed, op)
    p = SCAN
    values = {"L": p["L"], "N": p["N"], "U": p["U"],
              "j_min": p["j_min"] * (1.0 + 0.2 * rng.random()),
              "j_max": p["j_max"] * (1.0 - 0.1 * rng.random()),
              "j_steps": p["j_steps"], "k": p["k"]}
    return Op("bh-scan", values, {}, {"units": p["j_steps"]})


BUILDERS = {
    "enaqt_fmo": _enaqt_fmo,
    "walk_ensemble": _walk_ensemble,
    "bh_scan": _bh_scan,
}

# ops per round; a run stops only at a round boundary
ROUND_OPS = {"enaqt_fmo": len(FMO["disorder_seeds"])}

UNIT_NAMES = {
    "enaqt_fmo": "gamma points",
    "walk_ensemble": "shots",
    "bh_scan": "J points",
}


def make_op(workload: str, seed: int, op: int) -> Op:
    return BUILDERS[workload](seed, op)


def write_op(op: Op, directory: Path, index) -> tuple:
    """Write op's inputs and config under directory; returns (cfg, output).

    ``index`` prefixes every file name, so ops never share a file.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in op.inputs.items():
        (directory / f"{index}-{name}").write_text(text, encoding="utf-8")
    output = directory / f"{index}-out.csv"
    lines = [f"command {op.command}"]
    for key, value in op.values.items():
        if value in op.inputs:
            value = f"{index}-{value}"
        lines.append(f"{key} {value!r}" if isinstance(value, float) else f"{key} {value}")
    lines.append(f"output {output.name}")
    cfg = directory / f"{index}.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg, output


def working_set_bytes(workload: str) -> dict:
    """The dominant arrays each workload's hot loop touches, in bytes."""
    if workload == "enaqt_fmo":
        d = 7 + 2
        return {"generator": 16 * d ** 4}
    if workload == "walk_ensemble":
        n, shots = WALK["n_sites"], WALK["shots"]
        return {"shot_state": 16 * n * shots, "phases": 8 * n * shots}
    dim, L = comb(SCAN["N"] + SCAN["L"] - 1, SCAN["N"]), SCAN["L"]
    nnz = dim * (1 + 2 * (L - 1))  # upper bound: diagonal + both hops per edge
    ncv = max(2 * SCAN["k"] + 1, 20)
    return {"basis": 8 * dim * L, "hamiltonian_csr": 12 * nnz,
            "lanczos_basis": 8 * dim * ncv}
