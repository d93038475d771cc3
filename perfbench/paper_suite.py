"""paper_suite: cold, serial, in-process ``transpile()`` of the Table II
circuits on melbourne.

Why: it is the only place the paper's CX and compile-time claims can be
checked, and it is the compile path's hot layer (``ConsolidateBlocks``
two-qubit resynthesis plus ``QuantumCircuit.append``).

The workload seed draws the RY angles and quantum-volume unitaries;
every job routes with one fixed seed, so each circuit class costs about
the same in every run and the CPU-time percentiles stay within a class.

Caches: a fresh ``AnalysisCache`` per job and no result cache, so every
job compiles from nothing, as in the paper's timing protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from checks import Checks, determinism, fig11_probe, no_result_cache_hits, reference
from common import (
    BASELINE,
    HostSpeed,
    ROUTING_SEED,
    RPO,
    Window,
    cold_start_seconds,
    compile_job,
    count_totals,
    distinct,
    level3_ratios,
    self_peak_rss_mb,
)
from layers import in_process_cache, layer_metrics
from tracer import traced_windows

FAMILIES = ("qpe", "vqe", "qv", "grover")
SIZES = range(4, 11)
GROVER_MAX = 8
PIPELINES = (BASELINE, "hoare", RPO)
#: the p95 needs ten samples beyond it
MIN_SAMPLES = 200
#: calibration loops timed after each job
CALIBRATION_PER_JOB = 2

CACHES = "analysis cache: fresh per job; result cache: off"


@dataclass
class Case:
    name: str
    circuit: object


def build_inputs(seed: int):
    from repro.algorithms import (
        grover_circuit,
        quantum_phase_estimation,
        quantum_volume_circuit,
        ry_ansatz,
    )
    from repro.backends import FakeMelbourne

    rng = np.random.default_rng(seed)
    makers = {
        "qpe": lambda n: quantum_phase_estimation(n - 1),
        "vqe": lambda n: ry_ansatz(n, depth=3, seed=rng, measure=True),
        "qv": lambda n: quantum_volume_circuit(n, seed=rng, measure=True),
        "grover": lambda n: grover_circuit(n),
    }
    cases = []
    for n in SIZES:
        for family in FAMILIES:
            if family == "grover" and n > GROVER_MAX:
                continue
            cases.append(Case(f"{family}{n}", makers[family](n)))
    return FakeMelbourne(), cases


def timed_window(backend, cases, seconds: float, min_samples: int, tracer=None) -> Window:
    """Whole passes over the suite, each case under the three pipelines
    back to back, until ``seconds`` have passed and ``min_samples`` jobs
    are done.  Whole passes keep the mix fixed."""
    jobs = []
    host = HostSpeed()
    start, cpu_start = time.perf_counter(), time.process_time()
    rnd = 0
    while True:
        for case in cases:
            for pipeline in PIPELINES:
                if tracer is not None:
                    tracer.set_job(f"{case.name}/{pipeline}/{rnd}")
                key = f"{case.name}/{pipeline}"
                job = compile_job(key, case.circuit, backend, pipeline, ROUTING_SEED)
                job.extra.update(case=case.name, pipeline=pipeline, round=rnd)
                jobs.append(job)
                host.sample(CALIBRATION_PER_JOB)
        rnd += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(jobs) >= min_samples:
            cpu = time.process_time() - cpu_start - sum(host.samples)
            return Window(jobs, elapsed, cpu, host)


def end_to_end(window: Window, backend, seed: int, checks: Checks) -> dict:
    def compile_circuit(circuit, pipeline):
        job = compile_job("fig11", circuit, backend, pipeline, ROUTING_SEED)
        if job.error is not None:
            raise RuntimeError(f"Fig. 11 probe compile failed: {job.error}")
        return job.result.circuit

    return {
        **window.times(),
        **count_totals(distinct(window.jobs).values()),
        **level3_ratios(window.jobs),
        **fig11_probe(compile_circuit, backend, seed, checks),
    }


def check(jobs, cases, checks: Checks) -> None:
    problems, repeats = determinism(jobs)
    checks.add("determinism", problems, f"{repeats} repeated compiles bit-identical")
    sources = {c.name: c.circuit for c in cases}
    problems, count = reference(
        (job.key, sources[job.extra["case"]], job.result.circuit)
        for job in jobs
        if job.error is None
    )
    checks.add("reference", problems, f"{count} distinct outputs match their inputs")
    checks.add("caches", no_result_cache_hits(jobs), f"{CACHES}; no result-cache hit")


def run(seed: int, seconds: float, trace: bool, checks: Checks):
    """One run; returns ``(attempted jobs, metrics)``."""
    if trace:
        backend, cases = build_inputs(seed)
        plain, traced, tracer = traced_windows(
            lambda s, t: timed_window(backend, cases, s, 0, t), seconds
        )
        results = [job.result for job in traced.ok]
        supplied = {
            **in_process_cache(results),
            "trace.overhead_share": 1.0 - traced.jobs_per_cpu_s / plain.jobs_per_cpu_s,
        }
        jobs = plain.jobs + traced.jobs
        metrics = layer_metrics(tracer, results, supplied)
    else:
        setup = cold_start_seconds("paper_suite", seed)
        backend, cases = build_inputs(seed)
        window = timed_window(backend, cases, seconds, MIN_SAMPLES)
        checks.note(window.describe())
        jobs = window.jobs
        metrics = {
            "setup_s": (setup, "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "completed_share": (len(window.ok) / len(jobs), "ratio"),
            **end_to_end(window, backend, seed, checks),
        }
    check(jobs, cases, checks)
    return jobs, metrics
