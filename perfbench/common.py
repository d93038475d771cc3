"""Plumbing shared by the workloads: the repository import, CPU clocks
and host-speed calibration, job records, gate counts, statistics,
process memory and the set-up probe."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Pipelines the paper compares; ``level3`` is the baseline of every ratio.
BASELINE = "level3"
RPO = "rpo"
#: Routing seed of every compile.  The workload seed draws the circuits'
#: random angles and unitaries and the simulator seeds, not the routing,
#: so a circuit class costs about the same in every run.
ROUTING_SEED = 0

#: Result-property key the program sets on answers served from its
#: compiled-result cache ("hit" or "template"); absent on fresh compiles.
CACHE_PROPERTY = "result_cache"


def import_repro() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or stop.

    The benchmark measures the program of the checkout it sits in; it
    never falls back to another installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {SRC}; run from the root of "
            "a full checkout of the repository"
        )
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for child processes: the checkout's ``src`` on the
    path, and no ``REPRO_*`` switch (the sanitizer stays off)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# -- CPU time and host speed ---------------------------------------------
#
# Every time the benchmark reports is CPU time, not wall time.  On a
# shared host (measured on a 2-vCPU Xeon guest) the cores are lent to
# other guests: wall times of one program moved by 50 % and more from run
# to run, while the kernel accounts the time a core was lent away as
# steal, outside every process's CPU clock.  CPU time also leaves out the
# time a process waits for a core behind the other processes of the run.
#
# What CPU time keeps is the host's speed, which drifts by 10-20 % over
# minutes: on that guest the same compiles took 10.2 to 11.0 jobs per CPU
# second in consecutive runs, and a fixed pure-Python loop timed on the
# other core moved with them (0.79 to 0.84 ms).  So every reported time
# is scaled by that loop (``HostSpeed``), timed in CPU time between the
# jobs of the same run: a reported time is the measured one divided by
# (median loop time / ``CALIBRATION_REFERENCE_S``).  The loop does not
# touch the program, so a slower program still reads slower; a slower
# host does not.

#: Median CPU time of the calibration loop on the reference host.
CALIBRATION_REFERENCE_S = 0.8e-3


def _calibration_work() -> int:
    total = 0
    for i in range(20000):
        total += i * i
    return total


class HostSpeed:
    """The calibration loop's CPU times, sampled between jobs."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.thread_time()
            _calibration_work()
            self.samples.append(time.thread_time() - start)

    @property
    def factor(self) -> float:
        """How much slower than the reference host the run went."""
        return statistics.median(self.samples) / CALIBRATION_REFERENCE_S


def process_cpu_s(pid: int) -> float:
    """CPU seconds used so far by process ``pid`` and all its threads,
    exited ones included (Linux's per-process CPU clock)."""
    # clock_getcpuclockid(pid): CPUCLOCK_SCHED of the whole thread group
    return time.clock_gettime(((~pid) << 3) | 2)


def children_cpu_s() -> float:
    """CPU seconds used by this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class TreeCpu:
    """CPU clock of this process plus a process tree it talks to: the
    sum of their CPU seconds.  The tree's members are found when it is
    made; ``members_changed()`` tells if one has come or gone since."""

    def __init__(self, root: int):
        self.root = root
        self.pids = [root, *descendants(root)]

    def seconds(self) -> float:
        return time.process_time() + sum(process_cpu_s(pid) for pid in self.pids)

    def members_changed(self) -> bool:
        return sorted(self.pids) != sorted([self.root, *descendants(self.root)])


# -- job records ---------------------------------------------------------


@dataclass
class Job:
    """One attempted unit of user-visible work.

    ``key`` names what was computed: two jobs with equal keys must give
    equal outputs (the determinism check relies on it).  ``cpu`` is the
    CPU time the job cost, ``latency`` its wall time (for the record).
    """

    key: str
    latency: float
    cpu: float = 0.0
    error: str | None = None
    result: object = None  # TranspileResult of the job's compile, if any
    extra: dict = field(default_factory=dict)


@dataclass
class Window:
    """Jobs of one timed window, the wall time they took, the CPU time of
    every process that did their work, and the host's speed meanwhile.
    Rates and CPU times are host-scaled."""

    jobs: list
    elapsed: float
    cpu: float
    host: HostSpeed

    @property
    def ok(self) -> list:
        return [job for job in self.jobs if job.error is None]

    @property
    def jobs_per_cpu_s(self) -> float:
        return len(self.ok) / self.cpu * self.host.factor

    def cpu_ms(self) -> list:
        return [job.cpu * 1e3 / self.host.factor for job in self.ok]

    def times(self) -> dict:
        """The window's end-to-end time metrics."""
        cpu_ms = self.cpu_ms()
        return {
            "jobs_per_cpu_s": (self.jobs_per_cpu_s, "1/s"),
            "job_cpu_ms_p50": (percentile(cpu_ms, 50), "ms"),
            "job_cpu_ms_p95": (percentile(cpu_ms, 95), "ms"),
        }

    def describe(self) -> str:
        wall = [job.latency * 1e3 for job in self.ok]
        cpu = [job.cpu * 1e3 for job in self.ok]
        return (
            f"window: {len(self.jobs)} jobs in {self.elapsed:.1f} s wall, {self.cpu:.1f} s CPU; "
            f"host factor {self.host.factor:.4f}; unscaled {len(self.ok) / self.cpu:.4g} "
            f"jobs per CPU s, CPU p50 {percentile(cpu, 50):.4g} ms, "
            f"p95 {percentile(cpu, 95):.4g} ms; wall {len(self.ok) / self.elapsed:.4g} jobs/s, "
            f"p50 {percentile(wall, 50):.4g} ms, p95 {percentile(wall, 95):.4g} ms"
        )


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- circuits ------------------------------------------------------------


def gate_counts(circuit) -> tuple[int, int, int]:
    """``(cx, one-qubit gates, depth)`` of a compiled circuit."""
    cx = oneq = 0
    for instruction in circuit.data:
        operation = instruction.operation
        if not operation.is_gate():
            continue
        if operation.name == "cx":
            cx += 1
        elif operation.num_qubits == 1:
            oneq += 1
    return cx, oneq, circuit.depth()


def fingerprint(circuit) -> str:
    """Exact structural digest: gate names, wires and parameter bits."""
    digest = hashlib.sha1()
    for instruction in circuit.data:
        operation = instruction.operation
        params = ",".join(float(p).hex() for p in operation.params)
        digest.update(f"{operation.name}{instruction.qubits}{instruction.clbits}{params};".encode())
    return digest.hexdigest()


# -- statistics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- memory --------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def descendants(pid: int) -> list[int]:
    """The live descendants of ``pid``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found = []
    stack = list(children.get(pid, ()))
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(children.get(current, ()))
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and its live descendants."""
    total_kib = 0
    for current in [pid, *descendants(pid)]:
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


# -- set-up --------------------------------------------------------------

#: Cold starts per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: calibration loops timed before and after each cold start
SETUP_CALIBRATION = 25


def setup_seconds(start_once, release=None) -> tuple[float, object]:
    """Median host-scaled CPU time of ``SETUP_REPEATS`` calls of
    ``start_once``, and what the last call returned.

    ``start_once()`` returns ``(started, cpu_s)``: what it started and
    the CPU seconds that took, in every process involved.  ``release``
    is applied, untimed, to what the other calls started.
    """
    times = []
    for repeat in range(SETUP_REPEATS):
        host = HostSpeed()
        host.sample(SETUP_CALIBRATION)
        started, cpu_s = start_once()
        host.sample(SETUP_CALIBRATION)
        times.append(cpu_s / host.factor)
        if release is not None and repeat < SETUP_REPEATS - 1:
            release(started)
    return statistics.median(times), started


def cold_start_seconds(workload: str, seed: int) -> float:
    """Set-up time of an in-process workload: the CPU time of a fresh
    interpreter that imports the program and builds the workload's inputs
    (``setup_probe.py``)."""

    def start_once():
        before = children_cpu_s()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=program_env(),
            check=True,
            timeout=120,
        )
        return None, children_cpu_s() - before

    seconds, _ = setup_seconds(start_once)
    return seconds


# -- compiling -----------------------------------------------------------


def settle() -> None:
    """Collect garbage and freeze what survives, outside a job's timing.

    The collections a job triggers then scan only objects made since,
    not the results of every earlier job the benchmark keeps: a full
    collection over that growing heap took up to 40 ms and landed in
    whichever job came next.
    """
    gc.collect()
    gc.freeze()


def compile_job(key: str, circuit, backend, pipeline: str, seed: int) -> Job:
    """One cold, serial, in-process ``transpile()``: a fresh
    ``AnalysisCache``, no result cache, sanitizer off."""
    from repro.transpiler import AnalysisCache, transpile

    circuit = circuit.copy()
    settle()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        result = transpile(
            circuit,
            backend=backend,
            pipeline=pipeline,
            seed=seed,
            executor="serial",
            analysis_cache=AnalysisCache(),
            result_cache=None,
            validate="off",
            full_result=True,
        )
    except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
        return Job(
            key,
            time.perf_counter() - start,
            time.process_time() - cpu_start,
            error=error_text(exc),
        )
    return Job(key, time.perf_counter() - start, time.process_time() - cpu_start, result=result)


def distinct(jobs) -> dict:
    """The first successful job of each key."""
    first: dict = {}
    for job in jobs:
        if job.error is None:
            first.setdefault(job.key, job)
    return first


def count_totals(jobs) -> dict:
    """``cx_total``, ``oneq_total`` and ``depth_total`` over ``jobs``."""
    cx, oneq, depth = np.sum([gate_counts(job.result.circuit) for job in jobs], axis=0)
    return {
        "cx_total": (cx, "count"),
        "oneq_total": (oneq, "count"),
        "depth_total": (depth, "count"),
    }


def level3_ratios(jobs) -> dict:
    """rpo over level3: ``cx_vs_level3`` and ``time_vs_level3``, each a
    geometric mean over cases.

    Jobs carry ``case``, ``pipeline`` and ``round`` in ``extra``; their
    CPU time is the compile time.  A case's time ratio sums each
    pipeline's compiles over the rounds in which both ran.  The two
    compiles of one round run next to each other, so host speed drift
    between rounds cancels.
    """
    by_slot = {
        (job.extra["case"], job.extra["pipeline"], job.extra["round"]): job
        for job in jobs
        if job.error is None
    }
    cx_ratio: dict = {}
    times: dict = {}
    for (case, pipeline, rnd), job in by_slot.items():
        base = by_slot.get((case, BASELINE, rnd))
        if pipeline != RPO or base is None:
            continue
        cx_ratio[case] = gate_counts(job.result.circuit)[0] / gate_counts(base.result.circuit)[0]
        rpo_s, base_s = times.get(case, (0.0, 0.0))
        times[case] = (rpo_s + job.cpu, base_s + base.cpu)
    return {
        "cx_vs_level3": (geomean(cx_ratio.values()), "ratio"),
        "time_vs_level3": (geomean(rpo_s / base_s for rpo_s, base_s in times.values()), "ratio"),
    }
