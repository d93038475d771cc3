"""noisy_qpe: the paper's Fig. 11 experiment as a job stream.

Each job compiles QPE (3 or 4 counting qubits) with ``level3`` or ``rpo``
for melbourne, almaden or rochester, removes idle qubits and samples 1024
shots from ``NoisySimulator(NoiseModel.from_backend(device), seed)``.

Why: simulation is 85-95 % of each job, so the simulator layer sets the
pace here, and the success-rate claim (2.30x at 3 qubits on the real
devices) is deterministic under fixed seeds.

The circuits are the paper's and compile with the fixed routing seed;
the workload seed draws the simulator seeds.

Caches: a fresh ``AnalysisCache`` per compile and no result cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from checks import Checks, determinism, no_result_cache_hits, reference
from common import (
    BASELINE,
    ROUTING_SEED,
    RPO,
    HostSpeed,
    Job,
    Window,
    cold_start_seconds,
    compile_job,
    count_totals,
    distinct,
    error_text,
    geomean,
    level3_ratios,
    self_peak_rss_mb,
)
from layers import in_process_cache, layer_metrics
from refsim import distribution, heavy_outcomes, success
from tracer import traced_windows

COUNTING = (3, 4)
PIPELINES = (BASELINE, RPO)
SHOTS = 1024
#: calibration loops timed after each job
CALIBRATION_PER_JOB = 20
#: compile-only rounds after the window, for the compile-time ratio and
#: the determinism check
RECOMPILE_ROUNDS = 3
#: the job the determinism check simulates a second time
RESAMPLE = "fake_melbourne/qpe3/rpo"

CACHES = "analysis cache: fresh per compile; result cache: off"


@dataclass
class Case:
    name: str
    circuit: object
    backend: object
    noise: object
    sim_seed: int


def build_inputs(seed: int):
    from repro.algorithms import quantum_phase_estimation
    from repro.backends import FakeAlmaden, FakeMelbourne, FakeRochester
    from repro.simulators import NoiseModel

    rng = np.random.default_rng(seed)
    cases = []
    for device in (FakeMelbourne, FakeAlmaden, FakeRochester):
        backend = device()
        noise = NoiseModel.from_backend(backend)
        for counting in COUNTING:
            name = f"{backend.name}/qpe{counting}"
            circuit = quantum_phase_estimation(counting)
            cases.append(Case(name, circuit, backend, noise, int(rng.integers(2**31))))
    return cases


def compile_case(case: Case, pipeline: str) -> Job:
    job = compile_job(f"{case.name}/{pipeline}", case.circuit, case.backend, pipeline, ROUTING_SEED)
    job.extra.update(case=case.name, pipeline=pipeline)
    return job


def noisy_job(case: Case, pipeline: str) -> Job:
    """Compile, drop idle qubits, sample ``SHOTS`` noisy shots; the
    job's times are the compile's plus the rest."""
    from repro.circuit import remove_idle_qubits
    from repro.simulators import NoisySimulator

    job = compile_case(case, pipeline)
    if job.error is None:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            compact, _ = remove_idle_qubits(job.result.circuit)
            simulator = NoisySimulator(case.noise, seed=case.sim_seed)
            sim_start = time.process_time()
            counts = simulator.run(compact, shots=SHOTS)
            job.extra.update(sim_s=time.process_time() - sim_start, counts=dict(counts))
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            job.error = error_text(exc)
        job.latency += time.perf_counter() - start
        job.cpu += time.process_time() - cpu_start
    return job


def timed_window(cases, seconds: float, tracer=None) -> Window:
    """Whole passes over the twelve jobs until ``seconds`` have passed."""
    jobs = []
    host = HostSpeed()
    start, cpu_start = time.perf_counter(), time.process_time()
    rnd = 0
    while True:
        for case in cases:
            for pipeline in PIPELINES:
                if tracer is not None:
                    tracer.set_job(f"{case.name}/{pipeline}/{rnd}")
                job = noisy_job(case, pipeline)
                job.extra["round"] = rnd
                jobs.append(job)
                host.sample(CALIBRATION_PER_JOB)
        rnd += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            cpu = time.process_time() - cpu_start - sum(host.samples)
            return Window(jobs, elapsed, cpu, host)


def recompile(cases) -> list:
    """Compile-only rounds over the twelve (case, pipeline) pairs."""
    jobs = []
    for rnd in range(RECOMPILE_ROUNDS):
        for case in cases:
            for pipeline in PIPELINES:
                job = compile_case(case, pipeline)
                job.extra["round"] = rnd
                jobs.append(job)
    return jobs


def end_to_end(window: Window, cases, compiles) -> dict:
    served = distinct(window.jobs)
    rates = {}
    for case in cases:
        heavy = heavy_outcomes(distribution(case.circuit), case.circuit.num_clbits)
        for pipeline in PIPELINES:
            counts = served[f"{case.name}/{pipeline}"].extra["counts"]
            rates[case.name, pipeline] = success(counts, heavy)
    ok = window.ok
    simulated = sum(job.extra["sim_s"] for job in ok)
    return {
        **window.times(),
        **count_totals(served.values()),
        **level3_ratios(compiles),
        "success_vs_level3": (
            geomean(rates[case.name, RPO] / rates[case.name, BASELINE] for case in cases),
            "ratio",
        ),
        "shots_per_cpu_s": (SHOTS * len(ok) / simulated * window.host.factor, "1/s"),
    }


def check(jobs, compiles, cases, checks: Checks) -> None:
    again = [
        noisy_job(case, pipeline)
        for case in cases
        for pipeline in PIPELINES
        if f"{case.name}/{pipeline}" == RESAMPLE
    ]
    problems, repeats = determinism(jobs + again + compiles)
    sampled: dict = {}
    for job in jobs + again:
        if job.error is None:
            if sampled.setdefault(job.key, job.extra["counts"]) != job.extra["counts"]:
                problems.append(f"{job.key}: a repeat sampled different counts")
    checks.add(
        "determinism",
        problems,
        f"{repeats} repeated compiles bit-identical; {RESAMPLE} sampled the same counts again",
    )
    sources = {case.name: case.circuit for case in cases}
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
        cases = build_inputs(seed)
        plain, traced, tracer = traced_windows(lambda s, t: timed_window(cases, s, t), seconds)
        results = [job.result for job in traced.ok]
        supplied = {
            **in_process_cache(results),
            "simulators.shots": SHOTS * tracer.calls.get("simulators.noisy_run", 0),
            "trace.overhead_share": 1.0 - traced.jobs_per_cpu_s / plain.jobs_per_cpu_s,
        }
        jobs = plain.jobs + traced.jobs
        metrics = layer_metrics(tracer, results, supplied)
        compiles = recompile(cases)
    else:
        setup = cold_start_seconds("noisy_qpe", seed)
        cases = build_inputs(seed)
        window = timed_window(cases, seconds)
        checks.note(window.describe())
        rss = self_peak_rss_mb()
        compiles = recompile(cases)
        jobs = window.jobs
        metrics = {
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss, "MB"),
            "completed_share": (len(window.ok) / len(jobs), "ratio"),
            **end_to_end(window, cases, compiles),
        }
    check(jobs, compiles, cases, checks)
    return jobs, metrics
