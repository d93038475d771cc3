"""Correctness checks run after the timed window, and the Fig. 11 probe
shared by the workloads that do not simulate."""

from __future__ import annotations

import statistics
import time
from collections import Counter

from common import BASELINE, CACHE_PROPERTY, RPO, HostSpeed, fingerprint
from refsim import TOLERANCE, Unsupported, distribution, heavy_outcomes, success, total_variation


class Checks:
    """Named pass/fail findings of one run, and notes for its record."""

    def __init__(self):
        self.findings: list[tuple[str, bool, str]] = []
        self.notes: list[str] = []

    def note(self, text: str) -> None:
        """An informational line for the run record."""
        self.notes.append(text)

    def add(self, name: str, problems: list[str], summary: str) -> None:
        detail = summary if not problems else "; ".join(problems[:5])
        self.findings.append((name, not problems, detail))

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.findings)


def determinism(jobs) -> tuple[list[str], int]:
    """Jobs with one key must compile to bit-identical circuits."""
    problems = []
    first: dict = {}
    repeats = 0
    for job in jobs:
        if job.error is not None:
            continue
        seen = fingerprint(job.result.circuit)
        if job.key not in first:
            first[job.key] = seen
            continue
        repeats += 1
        if first[job.key] != seen:
            problems.append(f"{job.key}: a repeat compiled to a different circuit")
    return problems, repeats


def reference(pairs) -> tuple[list[str], int]:
    """Compare the measured-bit distribution of every distinct
    ``(key, input, output)`` with the reference simulator's."""
    problems = []
    inputs: dict = {}
    checked = set()
    for key, source, compiled in pairs:
        if key in checked:
            continue
        checked.add(key)
        try:
            if id(source) not in inputs:
                inputs[id(source)] = distribution(source)
            distance = total_variation(inputs[id(source)], distribution(compiled))
        except Unsupported as exc:
            problems.append(f"{key}: reference cannot simulate it ({exc})")
            continue
        if distance > TOLERANCE:
            problems.append(f"{key}: output distribution differs by TVD {distance:.3g}")
    return problems, len(checked)


def no_result_cache_hits(jobs) -> list[str]:
    """A cold workload must never be answered from the result cache."""
    return [
        f"{job.key}: served from the result cache ({job.result.properties[CACHE_PROPERTY]})"
        for job in jobs
        if job.error is None and job.result.properties.get(CACHE_PROPERTY) is not None
    ]


#: counting qubits of the Fig. 11 QPE
FIG11_COUNTING = 3
#: the probe's shots per output, sampled in chunks of ``PROBE_CHUNK``;
#: ``shots_per_cpu_s`` takes the median chunk time
PROBE_SHOTS, PROBE_CHUNK = 2048, 128


def fig11_probe(compile_circuit, backend, sim_seed: int, checks: Checks) -> dict:
    """The paper's Fig. 11 data point, for workloads that do not simulate.

    QPE with three counting qubits is compiled by
    ``compile_circuit(circuit, pipeline)`` with level3 and rpo, idle
    qubits are removed, and each output runs ``PROBE_SHOTS`` noisy shots
    on ``backend``'s noise model, in chunks on one seeded simulator (the
    same draws as one call).  Returns
    ``success_vs_level3`` and ``shots_per_cpu_s`` from the median chunk
    CPU time of each output, host-scaled; the rpo output is sampled twice to check
    that its counts repeat.
    """
    from repro.algorithms import quantum_phase_estimation
    from repro.circuit import remove_idle_qubits
    from repro.simulators import NoiseModel, NoisySimulator

    source = quantum_phase_estimation(FIG11_COUNTING)
    heavy = heavy_outcomes(distribution(source), source.num_clbits)
    noise = NoiseModel.from_backend(backend)
    chunks = PROBE_SHOTS // PROBE_CHUNK
    host = HostSpeed()
    outputs, counts, seconds = {}, {}, 0.0
    for pipeline in (BASELINE, RPO):
        outputs[pipeline], _ = remove_idle_qubits(compile_circuit(source, pipeline))
        simulator = NoisySimulator(noise, seed=sim_seed)
        counts[pipeline] = Counter()
        times = []
        for _ in range(chunks):
            host.sample(5)
            start = time.process_time()
            counts[pipeline].update(simulator.run(outputs[pipeline], shots=PROBE_CHUNK))
            times.append(time.process_time() - start)
        seconds += statistics.median(times) * chunks
    rates = {pipeline: success(c, heavy) for pipeline, c in counts.items()}
    again = NoisySimulator(noise, seed=sim_seed).run(outputs[RPO], shots=PROBE_SHOTS)
    problems, _ = reference((p, source, circuit) for p, circuit in outputs.items())
    if dict(again) != dict(counts[RPO]):
        problems.append("rpo output sampled different counts with the same seed")
    checks.add(
        "fig11 probe",
        problems,
        f"QPE({FIG11_COUNTING}) outputs match the reference; rpo success "
        f"{rates[RPO]:.4f} repeated exactly",
    )
    return {
        "success_vs_level3": (rates[RPO] / rates[BASELINE], "ratio"),
        "shots_per_cpu_s": (2 * PROBE_SHOTS / seconds * host.factor, "1/s"),
    }
