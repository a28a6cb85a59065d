"""Set up one workload in a fresh interpreter and print when it is ready.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints time.monotonic() once imports, config, source image(s) and operator
are ready; the parent subtracts the moment it started this process, which
gives set-up time from interpreter start. run.py starts it with the BLAS
thread count already pinned in the environment.
"""

import sys
import time
from pathlib import Path

import workloads

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.setup(Path(__file__).resolve().parent.parent, workload, seed, workdir)
    print(repr(time.monotonic()))
