"""Cold start of an in-process workload, timed by the benchmark: import
the program and build the workload's inputs, then exit.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import importlib
import sys

from common import import_repro

if __name__ == "__main__":
    import_repro()
    importlib.import_module(sys.argv[1]).build_inputs(int(sys.argv[2]))
