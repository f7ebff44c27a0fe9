"""Self-check of the benchmark harness on tiny inputs (about half a minute).

    python3 perfbench/selfcheck.py

Shrinks every workload to toy sizes, then checks that
  1. each run prints every metric BENCHMARK.json names, with its unit;
  2. an op whose output file is corrupted after the program wrote it (a
     wrong value, NaN, or text that is no number) counts as a failed,
     incorrect op;
  3. in a traced op, the self times of all spans, and the declared
     ``*.self_s`` metrics, sum to the wall time of the op's root span.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run
import workloads
from tracing import Tracer

TINY = {
    "FMO": dict(gamma_max=1e-1, gamma_steps=3, t_max=5.0),
    "WALK": dict(n_sites=11, input_mode=5, time=2.0, n_segments=4, shots=50),
    "SCAN": dict(L=5, N=5, j_steps=2, k=4),
}


def fail(message: str):
    print(f"FAIL {message}")
    sys.exit(1)


def check_metrics_printed(workload: str, declared: dict):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, trace=trace)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            run.run_workload(args)
        lines = captured.getvalue().splitlines()
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"{workload}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            fail(f"{workload} trace {trace}: {lines}")
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            fail(f"{workload} trace {trace}: metrics {got} != declared {want}")
        report = "\n".join(lines[:-1])
        missing = [n for n, unit in want.items()
                   if not any(n in line and unit in line for line in report.splitlines())]
        if missing:
            fail(f"{workload} trace {trace}: report lacks {missing}")
    print(f"PASS {workload}: every declared metric printed with its unit")


class CorruptingCli:
    """Runs the real CLI, then overwrites the first value column."""

    def __init__(self, cli, value: str):
        self.cli, self.value = cli, value

    def main(self, argv):
        code = self.cli.main(argv)
        config = Path(argv[1])
        output = config.with_name(config.stem + "-out.csv")
        lines = output.read_text().splitlines()
        body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
        for i in body:
            cells = lines[i].split(",")
            cells[1] = self.value
            lines[i] = ",".join(cells)
        output.write_text("\n".join(lines) + "\n")
        return code


def check_corruption_fails(workload: str):
    session = run.Run(workload, 1, run.WORK / f"selfcheck-{workload}")
    real_cli = session.cli
    for value in ("0.5", "nan", "garbage"):
        session.cli = CorruptingCli(real_cli, value)
        record = session.run_op(0)
        if record["exit"] != 0 or record["ok"] or not record["incorrect"]:
            fail(f"{workload}: output corrupted to {value!r} passed: {record['reason']}")
    print(f"PASS {workload}: corrupted output counts as a failed op")


def check_self_times(workload: str):
    tracer = Tracer()
    session = run.Run(workload, 1, run.WORK / f"selfcheck-{workload}", tracer)
    record = session.run_pair(0)
    if not (record["traced"] and record["ok"]):
        fail(f"{workload}: op 0 not traced or failed: {record['reason']}")
    spans = dict(tracer.op_spans(0))
    roots = [s for s in spans.values() if s.parent is None]
    if len(roots) != 1 or roots[0].name != "cli.main":
        fail(f"{workload}: roots {[s.name for s in roots]}")
    wall = roots[0].end - roots[0].start
    tolerance = 1e-9 * max(len(spans), 1) + 1e-12
    total = sum(tracer.self_times(0).values())
    if abs(total - wall) > tolerance:
        fail(f"{workload}: self times sum to {total}, root span {wall}")
    session.ops = [record]
    metrics = run.per_layer(session)
    declared = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    if abs(declared - wall) > tolerance:
        undeclared = {s.name for s in spans.values()} - set(run.SPAN_METRICS)
        fail(f"{workload}: declared *.self_s sum to {declared}, root span {wall}; "
             f"undeclared spans {sorted(undeclared)}")
    print(f"PASS {workload}: {len(spans)} spans; self times and the declared "
          f"*.self_s metrics sum to the root span, {wall:.4f} s")


def main() -> int:
    for name, values in TINY.items():
        getattr(workloads, name).update(values)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        check_metrics_printed(workload, declared)
        check_corruption_fails(workload)
        check_self_times(workload)
        shutil.rmtree(run.WORK / f"selfcheck-{workload}")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
