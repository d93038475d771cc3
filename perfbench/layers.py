"""Per-layer metrics of the traced run, named by the program's modules.

Every workload reports every name; a layer a workload does not cross
reads 0.  Pass numbers come from the public ``TranspileResult.metrics``
and ``.loops``; kernel, circuit, simulator, client and protocol numbers
from the tracer's spans; farm counters from ``/metrics`` snapshots taken
before and after the traced window.
"""

from __future__ import annotations

#: transpiler passes whose time, calls and size change are reported
PASSES = (
    "ConsolidateBlocks",
    "Optimize1qGates",
    "StochasticSwap",
    "Unroller",
    "DenseLayout",
    "ApplyLayout",
    "CommutativeCancellation",
    "CXCancellation",
    "RemoveDiagonalGatesBeforeMeasure",
)
#: the paper's passes and the Hoare baseline: time, calls, rewrites
RPO_PASSES = ("QBO", "QPO", "HoareOptimizer")

#: traced spans and counters reported as they are: name -> (source, unit)
_TRACED = {
    "linalg.synthesize_two_qubit_unitary.calls": ("calls", "count"),
    "linalg.synthesize_two_qubit_unitary.busy_s": ("busy", "s"),
    "linalg.weyl_decompose.calls": ("calls", "count"),
    "linalg.weyl_decompose.busy_s": ("busy", "s"),
    "circuit.append.calls": ("calls", "count"),
    "client.roundtrip.busy_s": ("busy", "s"),
    "protocol.encode.busy_s": ("busy", "s"),
    "protocol.decode.busy_s": ("busy", "s"),
    "protocol.request_bytes": ("amounts", "B"),
    "protocol.response_bytes": ("amounts", "B"),
    "simulators.noisy_run.busy_s": ("busy", "s"),
    "simulators.compile_program.calls": ("calls", "count"),
    "simulators.compile_program.busy_s": ("busy", "s"),
}

#: counters a workload supplies itself (farm deltas, shares, ...)
SUPPLIED = {
    "analysis_cache.matrix_hit_share": "ratio",
    "analysis_cache.matrix_constructions": "count",
    "result_cache.exact_hit_share": "ratio",
    "result_cache.template_hit_share": "ratio",
    "result_cache.miss_share": "ratio",
    "result_cache.stores": "count",
    "result_cache.evictions": "count",
    "result_cache.template_learned": "count",
    "service.compile.busy_s": "s",
    "service.chunks": "count",
    "service.harvests": "count",
    "service.failed": "count",
    "wire.overhead_ms_p50": "ms",
    "simulators.shots": "count",
    "trace.overhead_share": "ratio",
}


def metric(value, unit: str) -> tuple:
    return float(value), unit


def _base_name(pass_name: str) -> str:
    return pass_name.split("(", 1)[0]


def pass_metrics(results) -> dict:
    """Scheduler and per-pass totals over compiled ``TranspileResult``s."""
    out = {
        "passmanager.busy_s": metric(sum(r.time for r in results), "s"),
        "passmanager.loop_iterations": metric(
            sum(loop.iterations for r in results for loop in r.loops), "count"
        ),
        "passmanager.loop.busy_s": metric(sum(loop.time for r in results for loop in r.loops), "s"),
    }
    records = [m for r in results for m in r.metrics if not m.skipped]
    for name in PASSES + RPO_PASSES:
        mine = [m for m in records if _base_name(m.name) == name]
        out[f"pass.{name}.busy_s"] = metric(sum(m.time for m in mine), "s")
        out[f"pass.{name}.calls"] = metric(len(mine), "count")
        if name in RPO_PASSES:
            out[f"pass.{name}.rewrites"] = metric(sum(m.rewrites for m in mine), "count")
        else:
            out[f"pass.{name}.size_delta"] = metric(sum(m.size_delta for m in mine), "count")
    return out


def analysis_cache_share(requests: int, constructions: int) -> dict:
    return {
        "analysis_cache.matrix_hit_share": 1.0 - constructions / requests if requests else 0.0,
        "analysis_cache.matrix_constructions": constructions,
    }


def in_process_cache(results) -> dict:
    """Matrix-cache totals over the fresh per-job ``AnalysisCache``s."""
    caches = [r.analysis_cache for r in results if r.analysis_cache is not None]
    return analysis_cache_share(
        sum(c.matrix_requests for c in caches), sum(c.matrix_constructions for c in caches)
    )


def layer_metrics(tracer, results, supplied: dict) -> dict:
    """Every per-layer metric: pass numbers from ``results``, traced
    numbers from ``tracer``, the rest from ``supplied`` (default 0)."""
    out = pass_metrics(results)
    for name, (source, unit) in _TRACED.items():
        span = name.rsplit(".", 1)[0] if source != "amounts" else name
        out[name] = metric(getattr(tracer, source).get(span, 0), unit)
    unknown = set(supplied) - set(SUPPLIED)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    for name, unit in SUPPLIED.items():
        out[name] = metric(supplied.get(name, 0), unit)
    return out
