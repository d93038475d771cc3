"""Spans around calls into the program's layers, for the traced run.

The tracer replaces a public function at the name each caller looks it up
by (a module attribute or a class attribute) with a wrapper that records a
span -- name, start, end, parent span, job id -- in memory and counts the
call.  ``close()`` puts every original back.  End-to-end runs never
install it.

Parents and job ids follow the calling thread.  The remote client sends
its requests from a pool thread of its own, so protocol spans have no
parent and no job id.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    job: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.amounts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def set_job(self, job: str | None) -> None:
        """Tag the calling thread's following spans with ``job``."""
        self._local.job = job

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owners, attr: str, name: str, *, span: bool = True, amount=None):
        """Route ``owner.attr`` through a recording wrapper, for each owner.

        ``span=False`` only counts calls (for hot, cheap functions).
        ``amount=(key, fn)`` adds ``fn(args, result)``, such as a byte
        count, to ``amounts[key]``.
        """
        for owner in owners:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, span, amount))

    def _wrapper(self, original, name, span, amount):
        tracer = self

        def counting(*args, **kwargs):
            with tracer._lock:
                tracer.calls[name] += 1
            return original(*args, **kwargs)

        def timed(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)  # filled in when the call returns
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                job = getattr(tracer._local, "job", None)
                with tracer._lock:
                    tracer.spans[index] = Span(name, start, end, parent, job)
                    tracer.calls[name] += 1
                    tracer.busy[name] += end - start
            if amount is not None:
                key, measure = amount
                with tracer._lock:
                    tracer.amounts[key] += measure(args, result)
            return result

        return timed if span else counting

    def close(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries the workloads cross."""

    def module(name):
        return importlib.import_module(f"repro.{name}")

    quantumcircuit = module("circuit.quantumcircuit")
    client = module("server.client")
    tracer.wrap(
        [module("transpiler.passes.consolidate"), module("linalg.two_qubit_synthesis")],
        "synthesize_two_qubit_unitary",
        "linalg.synthesize_two_qubit_unitary",
    )
    tracer.wrap(
        [module("linalg.two_qubit_synthesis"), module("linalg.weyl")],
        "weyl_decompose",
        "linalg.weyl_decompose",
    )
    tracer.wrap([quantumcircuit.QuantumCircuit], "append", "circuit.append", span=False)
    tracer.wrap([module("simulators.noisy").NoisySimulator], "run", "simulators.noisy_run")
    tracer.wrap(
        [module("simulators.statevector"), module("simulators.unitary")],
        "compile_program",
        "simulators.compile_program",
    )
    tracer.wrap([client.RemoteCompileService], "map", "client.roundtrip")
    tracer.wrap([client], "encode_jobs", "protocol.encode")
    tracer.wrap(
        [client],
        "encode_frame",
        "protocol.encode",
        amount=("protocol.request_bytes", lambda args, result: len(result)),
    )
    tracer.wrap([client], "decode_results", "protocol.decode")
    tracer.wrap(
        [client],
        "decode_frame",
        "protocol.decode",
        amount=("protocol.response_bytes", lambda args, result: len(args[0])),
    )


def traced_windows(window, seconds: float):
    """The traced run: an untraced window, then a traced one, each half
    of ``seconds``.  ``window(seconds, tracer)`` runs one; the ratio of
    their throughputs is the tracing overhead.  Returns
    ``(plain, traced, tracer)``."""
    plain = window(seconds / 2, None)
    tracer = Tracer()
    install_program_spans(tracer)
    try:
        traced = window(seconds / 2, tracer)
    finally:
        tracer.close()
    return plain, traced, tracer
