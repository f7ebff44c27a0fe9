"""Span tracing of aqsim's layers, installed from outside the program.

``Tracer.install`` replaces every public function of the layer modules at
every aqsim namespace that binds it (``cli`` binds most of them through
from-imports), plus ``DensityMatrix`` construction and the scipy entry
points the modules bind: ``solve_ivp`` in ``open_system`` and ``eigsh``
in ``bose_hubbard``.  ``uninstall`` puts the originals back.  Spans stay
in memory; ``write`` dumps them as JSON lines.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "netfiles", "hamiltonians", "open_system", "walk", "bose_hubbard")
EXTERNALS = (("open_system", "solve_ivp"), ("bose_hubbard", "eigsh"))
NAMESPACES = ("aqsim",) + tuple(f"aqsim.{m}" for m in LAYERS) + ("aqsim.validation",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def _open_system_solve(counts, args, result):
    counts["open_system.solve_ivp.nfev"] += result.nfev
    dim2 = len(args[2])  # vectorized density matrix: (n + 2)^2 entries
    counts["open_system.matvec_flops"] += result.nfev * 8 * dim2 ** 2


def _transport(counts, args, result):
    counts["open_system.converged"] += bool(result[1])


def _liouvillian(counts, args, result):
    key = "open_system.generator_bytes"
    counts[key] = max(counts[key], 16 * result.dim ** 4)


def _dephased_walk(counts, args, result):
    n, spec = args[0].dim, args[3]
    draws = spec.shots * spec.n_segments
    counts["walk.shot_segments"] += draws
    counts["walk.rng_draws"] += n * draws
    counts["walk.segment_flops"] += 8 * n * n * draws
    counts["walk.state_bytes"] = max(counts["walk.state_bytes"], 16 * n * spec.shots)


def _basis(counts, args, result):
    key = "bose_hubbard.basis_states"
    counts[key] = max(counts[key], len(result))


def _build_bh(counts, args, result):
    key = "bose_hubbard.hamiltonian_nnz"
    counts[key] = max(counts[key], result.matrix.nnz)


# counters, named after their metrics, read from a layer call's arguments
# and result; keyed by span name
OBSERVERS = {
    "open_system.solve_ivp": _open_system_solve,
    "open_system.transport_efficiency": _transport,
    "open_system.build_liouvillian": _liouvillian,
    "walk.dephased_walk": _dephased_walk,
    "bose_hubbard.enumerate_basis": _basis,
    "bose_hubbard.build_bh": _build_bh,
}


class Tracer:
    """Records nested spans of wrapped layer calls, tagged with an op id."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)
            if observe is not None:
                observe(self.counts[self.op], args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        wrappers = {}
        for layer in LAYERS:
            module = modules[f"aqsim.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules.values():
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    self._patch(module, attr, wrappers[fn])
        for layer, attr in EXTERNALS:
            module = modules[f"aqsim.{layer}"]
            self._patch(module, attr, self._wrap(f"{layer}.{attr}", getattr(module, attr)))
        density = modules["aqsim.open_system"].DensityMatrix
        self._patch(density, "__post_init__",
                    self._wrap("open_system.DensityMatrix", density.__post_init__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def op_spans(self, op: int) -> list:
        return [(i, s) for i, s in enumerate(self.spans) if s.op == op]

    def self_times(self, op: int) -> dict:
        """Per span index of one op: duration minus child coverage."""
        spans = self.op_spans(op)
        children = defaultdict(list)
        for i, span in spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        result = {}
        for i, span in spans:
            covered, reach = 0.0, span.start
            for start, end in sorted(children[i]):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            result[i] = (span.end - span.start) - covered
        return result

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")
