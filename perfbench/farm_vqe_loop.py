"""farm_vqe_loop: a loopback compile farm under closed-loop variational
traffic.

A ``python -m repro.server`` subprocess runs at its defaults (process
mode, cores-1 workers, result cache on) with ``--target melbourne
--pipeline rpo``.  One closed-loop client sends one
``RemoteCompileService.map([circuit])`` request at a time, drawn from
one seeded request sequence, in blocks of eight with a fixed mix:

* four fresh-angle 5-qubit linear RY ansatz: the result cache's template
  re-bind path once it has learned the structure;
* two exact repeats of earlier requests: exact hits;
* two distinct 4-qubit quantum-volume circuits: cold misses and stores.

Why: a variational optimizer waits for each answer, so the loop is
closed.  The wire, protocol, service, pool and result-cache layers
dominate while synthesis does little.  With one request in flight at a
time, the CPU time of the client, the server and its workers from send
to answer is the request's own cost.

Caches: the server's result cache on (default size, no TTL); the worker
``AnalysisCache``s warm for the life of the server.
"""

from __future__ import annotations

import json
import queue
import re
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass

import numpy as np

from checks import Checks, determinism, fig11_probe, reference
from common import (
    BASELINE,
    CACHE_PROPERTY,
    ROUTING_SEED,
    RPO,
    HostSpeed,
    Job,
    TreeCpu,
    Window,
    compile_job,
    count_totals,
    error_text,
    gate_counts,
    level3_ratios,
    percentile,
    program_env,
    self_peak_rss_mb,
    settle,
    setup_seconds,
    tree_peak_rss_mb,
)
from layers import analysis_cache_share, layer_metrics
from tracer import traced_windows

SERVER_ARGS = ("--port", "0", "--target", "melbourne", "--pipeline", "rpo")
TARGET = "melbourne"
#: count totals and the peak resident set cover the answers to this many
#: first requests (32 whole blocks of the request sequence), which every
#: window completes whatever the host's speed
COUNTED = 256
RY_QUBITS, RY_DEPTH, QV_QUBITS = 5, 3, 4
#: one calibration loop is timed after every this many requests
CALIBRATION_EVERY = 4
#: in-process level3-vs-rpo comparison: this many of the first distinct
#: requests of each kind, compiled this many rounds
SAMPLE_PER_KIND, SAMPLE_ROUNDS = 8, 3

CACHES = "result cache: on (server default); analysis cache: warm per worker"


@dataclass
class Request:
    key: str  # equal keys carry the same circuit
    kind: str  # "ry", "repeat" or "qv"
    circuit: object


class RequestSequence:
    """The seeded request stream; request ``i`` depends only on the seed.

    Requests come in blocks of eight with a fixed mix in seeded order,
    so that every prefix of whole blocks has the same composition: four
    fresh RY, two fresh QV, one repeat of an RY and one of a QV request
    from at least two blocks back (already answered, so an exact hit).
    The first two blocks have no such requests to repeat and send fresh
    ones instead.
    """

    BLOCK = ("ry", "ry", "ry", "ry", "qv", "qv", "repeat-ry", "repeat-qv")

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._items: list[Request] = []

    def __getitem__(self, index: int) -> Request:
        while len(self._items) <= index:
            self._add_block()
        return self._items[index]

    def _add_block(self) -> None:
        from repro.algorithms import quantum_volume_circuit, ry_ansatz

        # requests of the blocks before the previous one
        settled = self._items[: len(self._items) - len(self.BLOCK)]
        for slot in self._rng.permutation(len(self.BLOCK)):
            kind = self.BLOCK[slot]
            i = len(self._items)
            if kind.startswith("repeat-"):
                kind = kind.removeprefix("repeat-")
                earlier = [r for r in settled if r.kind == kind]
                if earlier:
                    original = earlier[int(self._rng.integers(len(earlier)))]
                    self._items.append(Request(original.key, "repeat", original.circuit))
                    continue
            if kind == "ry":
                circuit = ry_ansatz(
                    RY_QUBITS, depth=RY_DEPTH, seed=self._rng, entanglement="linear", measure=True
                )
            else:
                circuit = quantum_volume_circuit(QV_QUBITS, seed=self._rng, measure=True)
            self._items.append(Request(f"{kind}{i}", kind, circuit))


def _drain(stream, sink) -> None:
    for line in stream:
        sink(line)
    sink(None)


class Server:
    """One ``python -m repro.server`` subprocess on an ephemeral port."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", *SERVER_ARGS],
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr: list[str] = []
        #: CPU clock of this process, the server and its workers, once ready
        self.cpu: TreeCpu | None = None
        #: peak resident set (MB) of the same, when request COUNTED is answered
        self.rss_mb: float | None = None
        lines: queue.Queue = queue.Queue()
        sinks = {self.process.stdout: lines.put, self.process.stderr: self.stderr.append}
        self._drains = [
            threading.Thread(target=_drain, args=item, daemon=True) for item in sinks.items()
        ]
        for thread in self._drains:
            thread.start()
        try:
            banner = lines.get(timeout=60)
        except queue.Empty:
            self.close()
            raise RuntimeError("compile server printed no banner within 60 s") from None
        found = re.search(r"listening on (http://\S+)", banner or "")
        if found is None:
            self.close()
            raise RuntimeError(f"compile server did not start: {''.join(self.stderr)[-2000:]}")
        self.endpoint = found.group(1)

    def metrics(self) -> dict:
        with urllib.request.urlopen(self.endpoint + "/metrics", timeout=30) as response:
            return json.loads(response.read().decode("utf-8"))

    def close(self) -> None:
        """Ask for a clean shutdown; kill the process if it does not end."""
        if self.process.poll() is None:
            try:
                url = self.endpoint + "/shutdown"
                request = urllib.request.Request(url, data=b"", method="POST")
                urllib.request.urlopen(request, timeout=10).close()
            except (AttributeError, OSError):
                self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        for thread in self._drains:
            thread.join(timeout=30)


def client(endpoint: str):
    from repro.server import RemoteCompileService

    return RemoteCompileService(endpoint, target=TARGET, max_connections=1, timeout=120)


def start_ready_server() -> tuple[Server, float]:
    """Boot a server and wait for its first answer, which also starts its
    worker pool; the warm-up circuit is not in the request sequence.
    Returns the server and the CPU seconds its start took, in this
    process, the server and its workers."""
    from repro import QuantumCircuit

    cpu_start = time.process_time()
    server = Server()
    try:
        warm = QuantumCircuit(2, 2)
        warm.h(0)
        warm.cx(0, 1)
        warm.measure(0, 0)
        warm.measure(1, 1)
        with client(server.endpoint) as remote:
            remote.map([warm], seeds=[ROUTING_SEED], validate="off")
        server.cpu = TreeCpu(server.process.pid)
        cpu = server.cpu.seconds() - cpu_start
    except BaseException:
        server.close()
        raise
    return server, cpu


def timed_window(server, sequence, cursor: list, seconds: float, tracer=None) -> Window:
    """One closed-loop client taking requests from ``cursor[0]`` on,
    until ``seconds`` have passed and request ``COUNTED`` has been
    answered.  Each job's CPU time is that of this process, the server
    and its workers from send to answer."""
    jobs: list[Job] = []
    clock = server.cpu
    host = HostSpeed()
    start, cpu_start = time.perf_counter(), clock.seconds()
    with client(server.endpoint) as remote:
        while time.perf_counter() - start < seconds or cursor[0] <= COUNTED:
            index = cursor[0]
            cursor[0] += 1
            request = sequence[index]
            if tracer is not None:
                tracer.set_job(f"r{index}")
            settle()
            sent, cpu_sent = time.perf_counter(), clock.seconds()
            try:
                [result] = remote.map([request.circuit], seeds=[ROUTING_SEED], validate="off")
                job = Job(request.key, 0.0, result=result)
            except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
                job = Job(request.key, 0.0, error=error_text(exc))
            job.cpu = clock.seconds() - cpu_sent
            job.latency = time.perf_counter() - sent
            job.extra.update(index=index, kind=request.kind, circuit=request.circuit)
            jobs.append(job)
            if index == COUNTED:
                server.rss_mb = self_peak_rss_mb() + tree_peak_rss_mb(server.process.pid)
            if index % CALIBRATION_EVERY == 0:
                host.sample()
    cpu = clock.seconds() - cpu_start - sum(host.samples)
    return Window(jobs, time.perf_counter() - start, cpu, host)


def served_from_cache(job) -> bool:
    return job.result.properties.get(CACHE_PROPERTY) is not None


def served_by(window: Window) -> str:
    """p50 CPU and wall time of each way an answer was served."""
    groups: dict = {}
    for job in window.ok:
        kind = job.result.properties.get(CACHE_PROPERTY) or "compiled"
        groups.setdefault(kind, []).append(job)
    parts = [
        f"{kind} {len(jobs)} (p50 {percentile([j.cpu * 1e3 for j in jobs], 50):.4g} ms CPU, "
        f"{percentile([j.latency * 1e3 for j in jobs], 50):.4g} ms wall)"
        for kind, jobs in groups.items()
    ]
    return "served by: " + ", ".join(sorted(parts))


def delta(before: dict, after: dict, *path) -> float:
    for key in path:
        before, after = before[key], after[key]
    return after - before


def cache_shares(before, after, attempted: int) -> dict:
    """Result-cache outcome shares of the window's requests."""
    exact = delta(before, after, "result_cache", "hits")
    template = delta(before, after, "result_cache", "template_hits")
    miss = delta(before, after, "result_cache", "misses") + delta(
        before, after, "result_cache", "uncacheable"
    )
    return {
        "result_cache.exact_hit_share": exact / attempted,
        "result_cache.template_hit_share": template / attempted,
        "result_cache.miss_share": miss / attempted,
    }


def level3_sample(jobs, backend):
    """Compile the first ``SAMPLE_PER_KIND`` distinct RY and QV requests
    in-process with level3 and rpo, ``SAMPLE_ROUNDS`` rounds each."""
    picked: dict[str, list] = {"ry": [], "qv": []}
    for job in sorted(jobs, key=lambda j: j.extra["index"]):
        kind = job.extra["kind"]
        if kind in picked and len(picked[kind]) < SAMPLE_PER_KIND:
            picked[kind].append(job)
    sample = []
    for rnd in range(SAMPLE_ROUNDS):
        for served in picked["ry"] + picked["qv"]:
            for pipeline in (BASELINE, RPO):
                key = f"{served.key}/{pipeline}"
                job = compile_job(key, served.extra["circuit"], backend, pipeline, ROUTING_SEED)
                job.extra.update(case=served.key, pipeline=pipeline, round=rnd, served=served)
                sample.append(job)
    return sample


def end_to_end(window: Window, sample, probe: dict) -> dict:
    counted = [job for job in window.ok if job.extra["index"] < COUNTED]
    return {
        **window.times(),
        **count_totals(counted),
        **level3_ratios(sample),
        **probe,
    }


def per_layer(window: Window, tracer, before, after, plain: Window) -> dict:
    ok = window.ok
    misses = [job for job in ok if not served_from_cache(job)]
    # client latency minus the server-reported compile time (none for a hit)
    overhead = [job.latency * 1e3 for job in ok if served_from_cache(job)]
    overhead += [(job.latency - job.result.time) * 1e3 for job in misses]
    service = {
        f"service.{name}": delta(before, after, name) for name in ("chunks", "harvests", "failed")
    }
    evictions = delta(before, after, "result_cache", "evictions_lru") + delta(
        before, after, "result_cache", "evictions_ttl"
    )
    supplied = {
        **analysis_cache_share(
            delta(before, after, "cache_requests"),
            delta(before, after, "cache_constructions"),
        ),
        **cache_shares(before, after, len(window.jobs)),
        "result_cache.stores": delta(before, after, "result_cache", "stores"),
        "result_cache.evictions": evictions,
        "result_cache.template_learned": delta(before, after, "result_cache", "template_learned"),
        "service.compile.busy_s": sum(job.result.time for job in misses),
        **service,
        "wire.overhead_ms_p50": percentile(overhead, 50),
        "trace.overhead_share": 1.0 - window.jobs_per_cpu_s / plain.jobs_per_cpu_s,
    }
    return layer_metrics(tracer, [job.result for job in misses], supplied)


def check(jobs, sample, windows_stats, checks: Checks) -> None:
    problems, repeats = determinism(jobs)
    rounds_problems, rounds = determinism(sample)
    problems += rounds_problems
    for job in sample:
        served = job.extra["served"]
        if job.error is None and job.extra["pipeline"] == RPO:
            if gate_counts(job.result.circuit) != gate_counts(served.result.circuit):
                problems.append(f"{served.key}: the farm's answer and an rpo compile differ")
    checks.add(
        "determinism",
        problems,
        f"{repeats} exact repeats bit-identical; {rounds} in-process recompiles "
        "bit-identical and count-equal to the farm's answers",
    )
    problems, count = reference(
        (job.key, job.extra["circuit"], job.result.circuit) for job in jobs if job.error is None
    )
    checks.add(
        "reference",
        problems,
        f"{count} distinct answers, compiled or served from either cache, match their inputs",
    )
    problems = []
    for before, after, attempted in windows_stats:
        shares = cache_shares(before, after, attempted)
        if abs(sum(shares.values()) - 1.0) > 1e-9:
            problems.append(f"result-cache shares sum to {sum(shares.values())}, not 1")
    checks.add("caches", problems, f"{CACHES}; exact + template + miss shares sum to 1")


def run(seed: int, seconds: float, trace: bool, checks: Checks):
    """One run; returns ``(attempted jobs, metrics)``."""
    from repro.backends import FakeMelbourne

    backend = FakeMelbourne()
    setup, server = setup_seconds(start_ready_server, release=Server.close)
    stats = []  # (before, after, attempted) per window
    try:
        sequence = RequestSequence(seed)
        cursor = [0]

        def window(secs, tracer):
            before = server.metrics()["service"]
            result = timed_window(server, sequence, cursor, secs, tracer)
            stats.append((before, server.metrics()["service"], len(result.jobs)))
            return result

        if trace:
            plain, traced, tracer = traced_windows(window, seconds)
            jobs = plain.jobs + traced.jobs
            before, after, _ = stats[-1]
            metrics = per_layer(traced, tracer, before, after, plain)
        else:
            main = window(seconds, None)
            rss = server.rss_mb
            checks.note(main.describe())
            checks.note(served_by(main))
            jobs = main.jobs

            def compile_circuit(circuit, pipeline):
                with client(server.endpoint) as remote:
                    [result] = remote.map(
                        [circuit], seeds=[ROUTING_SEED], pipeline=pipeline, validate="off"
                    )
                return result.circuit

            probe = fig11_probe(compile_circuit, backend, seed, checks)
        tree_changed = server.cpu.members_changed()
    finally:
        server.close()
    sample = level3_sample([j for j in jobs if j.error is None], backend)
    if not trace:
        metrics = {
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss, "MB"),
            "completed_share": (len(main.ok) / len(jobs), "ratio"),
            **end_to_end(main, sample, probe),
        }
    check(jobs, sample, stats, checks)
    checks.add(
        "cpu accounting",
        ["the server's process tree changed during the run"] if tree_changed else [],
        f"CPU time over this process, the server and its {len(server.cpu.pids) - 1} "
        "child processes, a set that stayed the same",
    )
    return jobs, metrics
