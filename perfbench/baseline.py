"""Repeat the benchmark over ten seeds and summarize its spread.

    python3 perfbench/baseline.py OUT.json

Runs ``run.py`` for seeds 1-10, each seed running every workload in turn
in a fresh process, so that a slow stretch of the host falls on all
workloads rather than on one.  The run length is ``run_seconds`` of
BENCHMARK.json.  Reports for every end-to-end metric the median, the
quartiles and the spread (q3 - q1) / median over the seeds, then does one
traced run per workload with seed 1 for the per-layer numbers.  Writes all
of it, with the machine's environment and the failed ops seen, as JSON to
OUT.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import run
import workloads

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result dict, readable report lines, run summary) of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    summary = run.WORK / f"{workload}-seed{seed}-trace{trace}" / "summary.json"
    return json.loads(lines[-1]), lines[:-1], json.loads(summary.read_text())


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        read = lambda name: (index / name).read_text().strip()  # noqa: E731
        kind = {"Data": "d", "Instruction": "i"}.get(read("type"), "")
        caches[f"L{read('level')}{kind}"] = {"size": read("size"),
                                             "shared_cpu_list": read("shared_cpu_list")}
    return caches


def _bytes(size: str) -> int:
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(size[:-1]) * scale[size[-1]] if size[-1] in scale else int(size)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = _cache_sizes()
    l2 = _bytes(caches.get("L2", {}).get("size", "0"))
    l3 = _bytes(caches.get("L3", {}).get("size", "0"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {var: run.BLAS_THREADS for var in run.THREAD_VARS}},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "caches": caches,
        "working_set_bytes": {
            w: {**workloads.working_set_bytes(w), "L2_per_core": l2, "L3": l3}
            for w in run.WORKLOADS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = {w: [] for w in run.WORKLOADS}
    failures = {w: [] for w in run.WORKLOADS}
    for seed in SEEDS:
        for workload in run.WORKLOADS:
            result, _, summary = bench(workload, seed, seconds, 0)
            results[workload].append(result)
            failures[workload] += [{"seed": seed, "op": op["index"],
                                    "op_seed": op["config"].get("seed"),
                                    "reason": op["reason"]}
                                   for op in summary["ops"] if not op["ok"]]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                + f", failed {result['failed']}/{result['attempted']}", flush=True)
    out = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "metrics": {name: spread([r["metrics"][name]["value"] for r in runs])
                        for name in runs[0]["metrics"]},
            "failures": failures[workload],
        }
        for name, stats in entry["metrics"].items():
            print(f"  {workload} {name}: median {stats['median']:.5g} "
                  f"spread {stats['spread']:.4f}", flush=True)
        out["workloads"][workload] = entry
    for workload, entry in out["workloads"].items():
        result, lines, _ = bench(workload, TRACE_SEED, seconds, 1)
        entry["trace"] = {"seed": TRACE_SEED,
                          "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                          "self_time_shares": [line.strip() for line in lines
                                               if "%  " in line]}
        print("\n".join(lines[-12:]), flush=True)
    out["environment"] = environment()
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
