"""One set-up sample, spawned by run.py: what every CLI run pays first.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY

Imports aqsim and its CLI from the checkout's src/, writes op 0's inputs
under DIRECTORY and prints ``ready``.  It imports nothing of the
benchmark's references or tracer, so only program set-up is timed.
"""

import sys
from pathlib import Path

import workloads


def main():
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(workloads.REPO / "src"))
    import aqsim.cli  # noqa: F401
    workloads.write_op(workloads.make_op(workload, seed, 0), directory, 0)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
