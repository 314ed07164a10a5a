"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds spent importing discop (with numpy and scipy) and parsing
every config of the workload.  ``run.py`` starts several of these to take a
median of set-up times.
"""

import sys
import time

import workloads


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(workloads.SRC))
    experiments = workloads.build(workload, seed)
    start = time.perf_counter()
    workloads.setup(experiments)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
