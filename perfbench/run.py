"""Benchmark of the compile path, the compile farm and the simulators.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper_suite, farm_vqe_loop, noisy_qpe (see NOTES.md and each
module's docstring).  The run prints its record -- checks, cache
configuration, failed jobs with their errors, metrics -- and, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``).  Every time it reports is CPU
time scaled by the host's speed (see common.py).  It exits 1 when a
reference, determinism, cache-declaration or CPU-accounting check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import signal
import sys

from checks import Checks
from common import ROOT, import_repro

WORKLOADS = ("paper_suite", "farm_vqe_loop", "noisy_qpe")


def declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the processes it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_repro()

    workload = importlib.import_module(args.workload)
    checks = Checks()
    jobs, metrics = workload.run(args.seed, args.seconds, bool(args.trace), checks)
    metrics = {name: (float(value), unit) for name, (value, unit) in metrics.items()}

    units = declared(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    for name, (value, unit) in metrics.items():
        if unit != units[name] or not math.isfinite(value):
            raise RuntimeError(f"metric {name}: {value} {unit}, declared unit {units[name]}")

    failed = [job for job in jobs if job.error is not None]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"caches: {workload.CACHES}")
    for name, passed, detail in checks.findings:
        print(f"check {name}: {'ok' if passed else 'FAILED'} -- {detail}")
    for text in checks.notes:
        print(text)
    print(f"jobs: {len(jobs)} attempted, {len(failed)} failed")
    for job in failed:
        print(f"failed {job.key}: {job.error}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:48s} {value:14.6g} {unit}")
    record = {
        "correct": checks.ok,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(record))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
