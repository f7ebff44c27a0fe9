"""aqsim benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each op is one in-process ``aqsim.cli.main([command, config])`` call that
writes one result file; the next op starts when the previous one is done.
Ops run until ``--seconds`` have passed, at least MIN_OK have succeeded and
a round of the workload's ops is complete.  Op 0 first runs once
unmeasured, as a warm-up whose output the measured op 0 must repeat byte
for byte.  Each output is checked against an independent reference.  A
fixed calibration kernel runs before the first op and after every op; the
op times that the end-to-end metrics bound are in units of the kernel's
time around the op.  The last stdout line is a JSON result: with
``--trace 0`` it carries the end-to-end metrics; with ``--trace 1`` every
op runs once under the layer tracer and once without it, and it carries
the per-layer metrics.  Lines before it are a readable report.  A run in which no op completes exits 3 without a result.
Inputs are generated from ``--seed`` into ``.perfbench/`` at the checkout
root, the only place the benchmark writes.
"""

from __future__ import annotations

import os
import sys

# BLAS reads its thread count when numpy loads it: one thread, whatever the
# core count, so that two runs on a shared two-core host stay comparable.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import references  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = tuple(workloads.BUILDERS)
SETUP_SAMPLES = 5
MIN_OK = 3
LOOP_CAP_S = 120.0

# every span the three workloads produce, so that an op's *.self_s metrics
# sum to its root span; cli.run holds the private per-command runners,
# output formatting and the atomic write
SPAN_METRICS = (
    "cli.main", "cli.parse_config", "cli.config_hash", "cli.run",
    "netfiles.load_network", "netfiles.loads_network",
    "hamiltonians.build_tight_binding", "hamiltonians.apply_static_disorder",
    "open_system.goldilocks_sweep", "open_system.transport_efficiency",
    "open_system.initial_excitation", "open_system.build_liouvillian",
    "open_system.solve_ivp", "open_system.DensityMatrix",
    "walk.dephased_walk", "walk.propagator",
    "bose_hubbard.basis_size", "bose_hubbard.chain_edges",
    "bose_hubbard.enumerate_basis", "bose_hubbard.hopping_matrix",
    "bose_hubbard.onsite_pair_count", "bose_hubbard.build_bh",
    "bose_hubbard.low_spectrum", "bose_hubbard.eigsh",
    "bose_hubbard.one_body_density_matrix", "bose_hubbard.condensate_fraction",
    "bose_hubbard.drive_coupled_gap",
)
# counters the tracer keeps per op, averaged over traced ops
COUNTER_UNITS = {
    "cli.output_bytes": "B",
    "open_system.generator_bytes": "B",
    "open_system.matvec_flops": "flop",
    "open_system.solve_ivp.nfev": "count",
    "walk.shot_segments": "count",
    "walk.rng_draws": "count",
    "walk.segment_flops": "flop",
    "walk.state_bytes": "B",
    "bose_hubbard.basis_states": "count",
    "bose_hubbard.hamiltonian_nnz": "count",
}
END_TO_END_UNITS = {"setup_s": "s", "op_p50_cal": "cal", "work_per_cal": "units/cal",
                    "peak_rss_mb": "MB"}

# On a shared host the CPU's speed can drift by up to 2x within a minute
# (seen on a 2-vCPU Xeon VM), which no run length inside the benchmark's
# time budget averages out.  Timing this fixed kernel, interpreted Python plus small
# numpy products like the program's own inner loops, before and after each
# op and dividing the op's wall time by it cancels most of the drift.  One
# "cal" is the kernel's time, about 0.1 s on a 2-vCPU Xeon VM.
CAL_PY_STEPS = 600_000
CAL_NP_STEPS = 12_000
CAL_MATRIX = np.random.default_rng(0).random((24, 24))


def calibration_s() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_PY_STEPS):
        acc = (acc + i * i) % 1_000_003
    x = np.ones(CAL_MATRIX.shape[0])
    for _ in range(CAL_NP_STEPS):
        x = CAL_MATRIX @ x
        x /= np.abs(x).sum()
    return time.perf_counter() - start


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for span in SPAN_METRICS:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_s"] = "s"
    names.update(COUNTER_UNITS)
    names.update({
        "open_system.converged_ratio": "ratio",
        "bose_hubbard.low_spectrum.calls_per_point": "ratio",
        "trace.op_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return names


def load_program():
    """Import aqsim from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import aqsim
        import aqsim.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import aqsim from {SRC}: {exc}")
    if Path(aqsim.__file__).resolve().parent != SRC / "aqsim":
        raise SystemExit(f"error: aqsim imported from {aqsim.__file__}, not {SRC}")
    return aqsim.cli


def measure_setup(workload: str, seed: int, work: Path) -> list:
    """Fresh-process set-up times, spawn to ready, of SETUP_SAMPLES children."""
    samples = []
    for k in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve().with_name("setup_probe.py")),
               workload, str(seed), str(work / f"setup{k}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit(f"error: set-up probe exited {child.returncode}")
        samples.append(ready - start)
    return samples


class Run:
    """State of one workload run: ops, their outcomes, and the tracer."""

    def __init__(self, workload: str, seed: int, work: Path, tracer=None):
        self.workload, self.seed, self.work = workload, seed, work
        self.tracer = tracer
        self.cli = load_program()
        self.ops = []  # measured ops: dicts of index, wall, ok, traced, units, reason

    def run_op(self, index: int, label=None, traced=False) -> dict:
        """Run op ``index`` and check it; ``label`` marks a rerun's files."""
        op = workloads.make_op(self.workload, self.seed, index)
        cfg, out = workloads.write_op(op, self.work / "ops", label or index)
        if traced:
            self.tracer.op = index
            self.tracer.install()
        captured_out, captured_err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured_out), \
                    contextlib.redirect_stderr(captured_err):
                code = self.cli.main([op.command, str(cfg)])
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, captured_err = None, io.StringIO(f"uncaught {exc!r}")
        wall = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        outputs = [out, out.with_name(out.name + ".meta.json")]
        record = {"index": index, "wall": wall, "traced": traced, "exit": code,
                  "units": op.facts["units"], "stderr": captured_err.getvalue().strip(),
                  "outputs": outputs, "reason": None, "incorrect": False,
                  "config": op.values}
        if code != 0:
            record["reason"] = f"exit {code}: {record['stderr'].splitlines()[-1:]}"
        elif not all(path.is_file() for path in outputs):
            record["reason"] = "missing output"
        else:
            try:
                problems = references.CHECKS[self.workload](op.values, op.facts, out)
            except (ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                record["reason"] = "check failed: " + "; ".join(problems)
                record["incorrect"] = True
        record["ok"] = record["reason"] is None
        if traced:
            self.tracer.counts[index]["cli.output_bytes"] = sum(
                p.stat().st_size for p in outputs if p.is_file())
        return record

    def run_pair(self, index: int) -> dict:
        """Run op ``index`` traced and untraced, in alternating order.

        Returns the traced record with the untraced twin's wall time, so
        the tracer's overhead is measured on the same inputs; the twin's
        output must equal the traced op's byte for byte.
        """
        if index % 2 == 0:
            traced = self.run_op(index, traced=True)
            plain = self.run_op(index, label=f"{index}-plain")
        else:
            plain = self.run_op(index, label=f"{index}-plain")
            traced = self.run_op(index, traced=True)
        traced["plain_wall"] = plain["wall"]
        if plain["ok"] and traced["ok"] and not same_outputs(traced, plain):
            traced.update(ok=False, incorrect=True,
                          reason="traced output differs from the untraced one")
        return traced

    def loop(self, seconds: float) -> bool:
        """Measure ops; returns whether op 0 matched its unmeasured warm-up run.

        The warm-up runs op 0's inputs first, so lazy imports and first-call
        costs stay out of the measured ops, and its output must equal the
        measured op 0's byte for byte.
        """
        warm = self.run_op(0, label="warmup")
        start = time.perf_counter()
        before = calibration_s()
        round_ops = workloads.ROUND_OPS.get(self.workload, 1)
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= LOOP_CAP_S:
                break
            if (index >= 2 and index % round_ops == 0 and elapsed >= seconds
                    and self._enough()):
                break
            if self.ops and elapsed >= seconds and not any(op["ok"] for op in self.ops):
                break  # every op so far failed: the program, not the sample
            if self.tracer is None:
                op = self.run_op(index)
            else:
                op = self.run_pair(index)
            after = calibration_s()
            op["cal"] = (before + after) / 2.0
            before = after
            self.ops.append(op)
            index += 1
        return same_outputs(warm, self.ops[0])

    def _enough(self) -> bool:
        return sum(op["ok"] for op in self.ops) >= MIN_OK


def same_outputs(a: dict, b: dict) -> bool:
    """Whether two runs of one op exited alike and wrote identical files."""
    if (a["exit"], a["stderr"]) != (b["exit"], b["stderr"]):
        return False
    return all((x.read_bytes() if x.is_file() else None)
               == (y.read_bytes() if y.is_file() else None)
               for x, y in zip(a["outputs"], b["outputs"]))


def end_to_end(run: Run, setup: list) -> dict:
    ok = [op for op in run.ops if op["ok"]]
    # with every output wrong, time the ops that completed; correct is false
    timed = ok or [op for op in run.ops if op["exit"] == 0]
    busy = sum(op["wall"] / op["cal"] for op in run.ops)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_cal": statistics.median(op["wall"] / op["cal"] for op in timed),
        "work_per_cal": sum(op["units"] for op in ok) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run) -> dict:
    tracer = run.tracer
    names = per_layer_names()
    totals = dict.fromkeys(names, 0.0)
    traced = [op for op in run.ops if op["ok"] and op["traced"]]
    for op in traced:
        spans = dict(tracer.op_spans(op["index"]))
        self_times = tracer.self_times(op["index"])
        calls = {}
        for i, span in spans.items():
            calls[span.name] = calls.get(span.name, 0) + 1
            if f"{span.name}.self_s" in totals:
                totals[f"{span.name}.self_s"] += self_times[i]
                totals[f"{span.name}.calls"] += 1
        counts = tracer.counts[op["index"]]
        for metric in COUNTER_UNITS:
            totals[metric] += counts.get(metric, 0.0)
        attempts = calls.get("open_system.transport_efficiency", 0)
        if attempts:
            totals["open_system.converged_ratio"] += (
                counts.get("open_system.converged", 0.0) / attempts)
        totals["bose_hubbard.low_spectrum.calls_per_point"] += (
            calls.get("bose_hubbard.low_spectrum", 0) / op["units"])
    metrics = {name: value / max(len(traced), 1) for name, value in totals.items()}
    if traced:
        metrics["trace.op_s"] = statistics.median(op["wall"] for op in traced)
        metrics["trace.overhead_ratio"] = statistics.median(
            op["wall"] / op["plain_wall"] for op in traced)
    return metrics


def self_time_table(run: Run) -> list:
    """Readable lines: each span name's share of the traced ops' root time."""
    tracer = run.tracer
    by_name, root = {}, 0.0
    for op in run.ops:
        if not (op["ok"] and op["traced"]):
            continue
        for i, self_time in tracer.self_times(op["index"]).items():
            span = tracer.spans[i]
            by_name[span.name] = by_name.get(span.name, 0.0) + self_time
            if span.parent is None:
                root += span.end - span.start
    return [f"  {share:6.1%}  {name}" for name, share in
            sorted(((n, t / root) for n, t in by_name.items()),
                   key=lambda item: -item[1]) if share >= 0.001]


def report(run: Run, metrics: dict, units: dict, setup: list) -> list:
    ok = [op for op in run.ops if op["ok"]]
    failed = len(run.ops) - len(ok)
    unit_name = workloads.UNIT_NAMES[run.workload]
    counts = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "op_p50_cal": f"median of {len(ok)} successful ops",
        "work_per_cal": (f"{sum(op['units'] for op in ok)} {unit_name} in "
                         f"{sum(op['wall'] / op['cal'] for op in run.ops):.1f} cal "
                         f"({sum(op['wall'] for op in run.ops):.2f} s) of {len(run.ops)} ops"),
        "peak_rss_mb": "ru_maxrss of this process",
        "trace.op_s": f"median of {len(ok)} traced ops",
        "trace.overhead_ratio": f"median over {len(ok)} traced/untraced pairs of one op",
    }
    lines = [f"workload {run.workload} seed {run.seed}: "
             f"{len(run.ops)} ops attempted, {failed} failed"]
    for name, value in metrics.items():
        note = counts.get(name, "")
        lines.append(f"  {name:44s} {value:14.6g} {units[name]:8s} {note}")
    if run.tracer is None:
        lines.append(f"  {'error_rate':44s} {failed / len(run.ops):14.6g} {'ratio':8s} "
                     f"{failed} of {len(run.ops)} ops")
        walls = [op["wall"] for op in ok or run.ops]
        lines.append(f"  {'op wall time, not bounded':44s} {statistics.median(walls):14.6g} "
                     f"{'s':8s} median of {len(walls)} ops")
        lines.append(f"  {'calibration kernel':44s} "
                     f"{statistics.median(op['cal'] for op in run.ops):14.6g} {'s':8s} "
                     f"median over {len(run.ops)} ops = 1 cal")
    for op in run.ops:
        if not op["ok"]:
            seed = op["config"].get("seed", "-")
            lines.append(f"  failed op {op['index']} (seed {seed}): {op['reason']}")
    return lines


def run_workload(args) -> int:
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_program()
    setup = measure_setup(args.workload, args.seed, work)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    run = Run(args.workload, args.seed, work, tracer)
    repeat_ok = run.loop(args.seconds)
    if not any(op["exit"] == 0 for op in run.ops):
        for op in run.ops:
            print(f"op {op['index']}: {op['reason']}", file=sys.stderr)
        print("error: no op completed", file=sys.stderr)
        return 3
    correct = repeat_ok and not any(op["incorrect"] for op in run.ops)
    if args.trace:
        units = per_layer_names()
        metrics = per_layer(run)
        tracer.write(work / "spans.jsonl")
    else:
        units = END_TO_END_UNITS
        metrics = end_to_end(run, setup)
    for line in report(run, metrics, units, setup):
        print(line)
    if args.trace:
        print("  self time, share of traced ops' root spans:")
        for line in self_time_table(run):
            print(line)
    if not repeat_ok:
        print("  op 0 did not match its warm-up run byte for byte")
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "setup_samples": setup,
               "ops": [{k: v for k, v in op.items() if k != "outputs"} for op in run.ops]}
    (work / "summary.json").write_text(json.dumps(summary, indent=1, default=float) + "\n")
    shutil.rmtree(work / "ops")
    result = {
        "correct": correct,
        "attempted": len(run.ops),
        "failed": sum(not op["ok"] for op in run.ops),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, reports in sequence."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
