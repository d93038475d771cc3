"""A long-lived compile service with a persistent worker pool.

:class:`CompileService` is the execution engine behind
:func:`repro.transpiler.frontend.transpile` and the entry point for
serving-shaped workloads.  Where ``transpile(executor="process")``
historically spun a fresh process pool per call -- paying pool start-up,
worker warm-start and interpreter imports every time --, a service owns
its pool for its whole lifetime and amortizes those costs across every
batch submitted to it:

* **persistent pool** -- worker processes (or threads) are created once,
  lazily on first submission, warm-started from the service cache's
  snapshot, and reused until :meth:`CompileService.shutdown`;
* **async submission queue** -- :meth:`CompileService.submit` returns a
  :class:`concurrent.futures.Future` immediately; :meth:`CompileService.map`
  is the batch convenience that preserves input order.  Work from many
  callers interleaves on one pool;
* **periodic worker cache-delta harvesting** -- workers attach their
  :class:`~repro.transpiler.cache.AnalysisCache` delta (new entries + stats)
  to results, throttled by ``harvest_interval`` seconds (0 = every job),
  and the service merges the deltas into its parent cache as results
  complete, so the cache keeps warming whichever worker compiled what.
  Harvested entries are also rebroadcast to the next pool-width's worth
  of jobs (best effort), so one worker's discoveries reach the *other*
  live workers, not just the parent;
* **disk-backed snapshots** -- give the service a ``snapshot_path`` and it
  boots by importing whatever valid snapshot it finds there
  (:meth:`AnalysisCache.load_snapshot`) and persists the warmed cache on
  shutdown (:meth:`AnalysisCache.save`), so warm-start survives process
  restarts; snapshots are fingerprint-versioned, and one written by a
  different library version is skipped with a warning naming both
  fingerprints (``stats()["snapshot_skipped"]`` carries the reason);
* **per-job targets** -- every submission carries its own
  :class:`~repro.transpiler.target.Target`, so one service (and one batch)
  compiles circuits for many different devices; job envelopes ship compact
  circuit/target payloads (:mod:`repro.circuit.serialization`), and
  workers memoize rebuilt targets so a coupling map's derived data is
  computed once per distinct target per worker.

Three modes share one code path: ``"process"`` (the default, compilation
scales with cores), ``"thread"`` (cheap start-up, GIL-bound) and
``"serial"`` (inline execution, deterministic, no pool at all).  All modes
produce identical circuits.

Dispatch is **chunk-aware**: a submission is one task, but
:meth:`CompileService.map` groups large batches into chunked job
envelopes (several jobs per pool task, ``chunk_size="auto"`` by default)
so huge batches of cheap circuits amortize per-task envelope overhead
instead of paying it per circuit.  Each job inside a chunk still gets its
own future and its own error, so one bad circuit never poisons its
chunk-mates.

Services can also keep their warm cache **crash-safe**: pass
``autosave_interval=N`` (seconds) together with ``snapshot_path`` and a
daemon timer periodically harvests worker-held deltas
(:meth:`CompileService.harvest_now`) and persists the cache snapshot
atomically (write-then-rename), instead of only at shutdown.  The
HTTP compile server (:mod:`repro.server`) relies on this for warm
restarts after a crash.

Typical lifecycle::

    from repro.transpiler import CompileService, Target

    with CompileService(pipeline="rpo", snapshot_path="cache.snap") as service:
        futures = [service.submit(c, target="melbourne") for c in circuits]
        results = [f.result() for f in futures]
        # ... more batches; the pool and cache stay warm ...
    # __exit__ drains the pool and persists the cache snapshot
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Sequence

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.circuit.serialization import circuit_from_payload, circuit_to_payload
from repro.transpiler.cache import AnalysisCache
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.options import CompileOptions, options_cache_key
from repro.transpiler.passes import IBM_BASIS
from repro.transpiler.passmanager import PropertySet, TranspileResult
from repro.transpiler.result_cache import ResultCache
from repro.transpiler.target import Target

__all__ = ["CompileService", "SERVICE_MODES", "normalize_batch"]

SERVICE_MODES = ("process", "thread", "serial")


def normalize_batch(batch: list, targets, seeds) -> tuple[list, list]:
    """Per-circuit target/seed lists from single-or-sequence arguments.

    The one normalization every batch front applies --
    :meth:`CompileService.map`, the remote client and the shard router
    (:mod:`repro.server`) all share it, so mismatched lengths fail with
    the same error everywhere.
    """
    if targets is not None and isinstance(targets, (list, tuple)):
        if len(targets) != len(batch):
            raise TranspilerError(
                f"got {len(targets)} targets for {len(batch)} circuits"
            )
        per_targets = list(targets)
    else:
        per_targets = [targets] * len(batch)
    if isinstance(seeds, (list, tuple)):
        if len(seeds) != len(batch):
            raise TranspilerError(f"got {len(seeds)} seeds for {len(batch)} circuits")
        per_seeds = list(seeds)
    else:
        per_seeds = [seeds] * len(batch)
    return per_targets, per_seeds

#: Key under which the job's target is recorded in result properties.
TARGET_PROPERTY = "target"

#: Result-property key marking a job served from the compiled-result
#: cache: ``"hit"`` (exact key) or ``"template"`` (parameter re-binding).
#: Absent on freshly-compiled results.
CACHE_PROPERTY = "result_cache"

#: FIFO caps: rebroadcast buffer entries per cache family, and rebuilt
#: Target objects memoized per worker -- bounded like every other cache
#: in the codebase, so a long-lived service cannot grow without limit.
_RESYNC_MAX_PER_FAMILY = 256
_WORKER_TARGET_MEMO_MAX = 64

#: Upper bound on jobs per chunked envelope -- large enough to amortize
#: dispatch, small enough that one chunk never monopolizes a worker.
_CHUNK_MAX_JOBS = 64


def default_workers(batch_size: int | None, max_workers: int | None) -> int:
    """Pool width: caller's choice, else CPU-bounded (and batch-bounded)."""
    if max_workers:
        return max_workers
    cpu_bound = max(1, (os.cpu_count() or 2) - 1)
    if batch_size is not None:
        return min(batch_size, cpu_bound)
    return cpu_bound


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# worker side
#
# Workers are initialized once per pool with the parent cache's warm-start
# snapshot and the harvest interval; each job then ships a compact circuit
# payload, a compact target payload and the per-job pipeline settings.
# Results come back as payloads plus (periodically) the worker cache's
# delta since its last export.
# ---------------------------------------------------------------------------

_WORKER_STATE: dict | None = None


def _service_worker_init(
    snapshot: dict | None, harvest_interval: float, flush_barrier=None
) -> None:
    global _WORKER_STATE
    cache = AnalysisCache()
    if snapshot is not None:
        cache.import_snapshot(snapshot)
    _WORKER_STATE = {
        "cache": cache,
        "harvest_interval": harvest_interval,
        "last_harvest": time.monotonic(),
        "targets": {},
        "flush_barrier": flush_barrier,
    }


def _service_flush(barrier_timeout: float = 2.0):
    """On-demand harvest: export this worker's unshipped cache delta.

    The barrier makes every worker hold its flush until all of them have
    picked one up, so the pool cannot hand several flush tasks to one
    worker while another keeps its delta; if distribution is uneven
    anyway (a worker mid-job), the barrier times out and each flush still
    exports what its worker holds -- best effort.  A timed-out barrier is
    left broken by the stdlib; it is reset here so the *next* flush round
    (live harvests repeat; shutdown always runs one) coordinates again.

    Returns ``(worker pid, delta)`` so the parent can tell *which* worker
    each flush drained -- :meth:`CompileService._flush_worker_deltas`
    retries until every distinct worker has answered, instead of trusting
    the pool to hand one flush task to each worker.
    """
    state = _WORKER_STATE
    if state is None:
        return None
    barrier = state.get("flush_barrier")
    if barrier is not None:
        try:
            barrier.wait(timeout=barrier_timeout)
        except threading.BrokenBarrierError:
            try:
                barrier.reset()
            except Exception:
                pass
        except Exception:
            pass
    state["last_harvest"] = time.monotonic()
    return os.getpid(), state["cache"].export_snapshot(delta_only=True)


def _sanitize_properties(properties: PropertySet) -> dict:
    """A picklable copy of a run's property set.

    The shared cache is stripped (it travels separately as a delta); any
    other unpicklable value is dropped and recorded under
    ``"_dropped_properties"`` so callers can tell the set is partial.
    """
    sanitized: dict = {}
    dropped: list[str] = []
    for key, value in properties.items():
        if key == AnalysisCache.PROPERTY_KEY:
            continue
        try:
            pickle.dumps(value)
        except Exception:
            dropped.append(key)
        else:
            sanitized[key] = value
    if dropped:
        sanitized["_dropped_properties"] = dropped
    return sanitized


def _run_job(circuit: QuantumCircuit, target: Target, settings: dict, cache):
    """Compile one circuit for one target; shared by every mode."""
    from repro.transpiler.frontend import pass_manager_for

    manager = pass_manager_for(
        settings["pipeline"],
        target,
        optimization_level=settings["optimization_level"],
        seed=settings["seed"],
        initial_layout=settings["initial_layout"],
    )
    return manager.run_with_result(
        circuit,
        PropertySet(),
        analysis_cache=cache,
        validate=settings.get("validate"),
    )


def _worker_target(state: dict, target_payload: tuple) -> Target:
    """Rebuild (or recall) the job's target, memoized per worker."""
    targets = state["targets"]
    target = targets.get(target_payload)
    if target is None:
        target = Target.from_payload(target_payload)
        if len(targets) >= _WORKER_TARGET_MEMO_MAX:
            targets.pop(next(iter(targets)))
        targets[target_payload] = target
    return target


def _picklable_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a faithful stand-in.

    Chunk results travel back through the pool's pickle channel; an
    unpicklable exception there would fail the *transport* and take the
    whole chunk's futures down with it, so it is replaced before
    shipping."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return TranspilerError(f"job failed: {type(exc).__name__}: {exc}")
    return exc


def _service_chunk(task: tuple) -> tuple:
    """Process-pool entry point: a chunk of job payloads in, per-job
    outcomes + (at most) one cache delta out.

    Each job's outcome is ``("ok", result_payloads)`` or
    ``("error", exception)`` -- a failing job only fails itself, never its
    chunk-mates.  The harvest-throttle check runs once per chunk, so a
    chunk of N cheap jobs ships at most one delta, which is the point of
    chunking.
    """
    jobs, sync = task
    state = _WORKER_STATE
    assert state is not None, "service worker was not initialized"
    cache = state["cache"]
    if sync is not None:
        # entries other workers discovered, rebroadcast by the parent;
        # existing entries win, so re-imports are cheap no-ops
        cache.import_snapshot(sync)
    outcomes = []
    for circuit_payload, target_payload, settings in jobs:
        try:
            target = _worker_target(state, target_payload)
            circuit = circuit_from_payload(circuit_payload)
            result = _run_job(circuit, target, settings, cache)
            outcomes.append(
                (
                    "ok",
                    (
                        circuit_to_payload(result.circuit),
                        result.metrics,
                        result.loops,
                        result.time,
                        _sanitize_properties(result.properties),
                    ),
                )
            )
        except Exception as exc:  # noqa: BLE001 - relayed to the caller
            outcomes.append(("error", _picklable_exception(exc)))
    delta = None
    now = time.monotonic()
    if now - state["last_harvest"] >= state["harvest_interval"]:
        delta = cache.export_snapshot(delta_only=True)
        state["last_harvest"] = now
    return outcomes, delta


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------


class CompileService:
    """A long-lived compile service owning a persistent worker pool."""

    def __init__(
        self,
        *,
        mode: str = "process",
        max_workers: int | None = None,
        pipeline: str | None = None,
        optimization_level: int | None = None,
        target: Target | str | None = None,
        basis_gates=IBM_BASIS,
        initial_layout=None,
        analysis_cache: AnalysisCache | None = None,
        result_cache: ResultCache | None | bool = None,
        validate: str | None = None,
        snapshot_path=None,
        harvest_interval: float = 0.0,
        autosave_interval: float = 0.0,
        options: CompileOptions | None = None,
    ):
        """Args:
            mode: ``"process"`` (default), ``"thread"`` or ``"serial"``.
            max_workers: pool width (default: CPU count - 1).
            pipeline / optimization_level / target / basis_gates /
                initial_layout: defaults applied to submissions that do not
                override them (``"preset"`` / level 1 when left unset);
                ``target`` accepts a :class:`Target` or a preset name
                (``"melbourne"``, ``"linear:5"``, ...).
            analysis_cache: the parent cache the service warms and
                harvests into; defaults to a fresh one.
            result_cache: the content-addressed compiled-result cache
                consulted before any job reaches the pool
                (:class:`~repro.transpiler.result_cache.ResultCache`).
                ``None`` (the default) or ``True`` creates a fresh one --
                the service caches answers out of the box; pass ``False``
                to disable result caching entirely, or share one cache
                object across services.
            snapshot_path: disk location for cache persistence -- imported
                (if present and version-compatible) at construction,
                written back on :meth:`shutdown`.  The result cache
                persists alongside at ``<snapshot_path>.results``.
            harvest_interval: minimum seconds between a worker's cache
                delta exports; 0 harvests with every job.
            autosave_interval: seconds between periodic background cache
                snapshot saves to ``snapshot_path`` (a daemon timer; each
                save harvests worker deltas first and writes atomically).
                0 (the default) keeps the historical shutdown-only flush.
            options: a :class:`~repro.transpiler.options.CompileOptions`
                consolidating the compile knobs; individual keyword
                arguments above are legacy spellings coerced into it
                (:meth:`CompileOptions.coerce` -- conflicts warn, the
                options object wins).
        """
        if mode not in SERVICE_MODES:
            raise TranspilerError(
                f"unknown service mode {mode!r}; choose one of "
                f"{', '.join(SERVICE_MODES)}"
            )
        opts = CompileOptions.coerce(
            options,
            pipeline=pipeline,
            optimization_level=optimization_level,
            initial_layout=initial_layout,
            max_workers=max_workers,
            analysis_cache=analysis_cache,
            result_cache=result_cache if result_cache is not False else None,
            validate=validate,
        )
        if isinstance(opts.seed, tuple):
            # a sequence seed is a per-circuit schedule (one seed per
            # batched circuit); adopting it verbatim as the service-wide
            # default would hand every job a tuple where the pipeline
            # expects a scalar, and silently key the result cache on it
            raise TranspilerError(
                "a sequence seed cannot be a CompileService default -- it "
                "is a per-circuit schedule; pass seeds= to map() (or a "
                "scalar seed in CompileOptions)"
            )
        self.options = opts
        self.mode = mode
        self.max_workers = opts.max_workers
        self.harvest_interval = float(harvest_interval)
        self.snapshot_path = snapshot_path
        self.cache = (
            opts.analysis_cache if opts.analysis_cache is not None else AnalysisCache()
        )
        if result_cache is False or opts.result_cache is False:
            self.result_cache: ResultCache | None = None
        elif opts.result_cache is None or opts.result_cache is True:
            self.result_cache = ResultCache()
        else:
            self.result_cache = opts.result_cache
        self._defaults = {
            "pipeline": opts.pipeline if opts.pipeline is not None else "preset",
            "optimization_level": (
                opts.optimization_level
                if opts.optimization_level is not None
                else 1
            ),
            "initial_layout": opts.initial_layout,
            "seed": opts.seed,
            "validate": opts.validate,
        }
        self._basis = tuple(basis_gates)
        self._default_target = (
            Target.coerce(target, basis=self._basis) if target is not None else None
        )
        self._pool = None
        self._pool_workers = 0
        self._lock = threading.RLock()
        self._shutdown = False
        self._started = time.monotonic()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._harvests = 0
        self._syncs_sent = 0
        self._chunks = 0
        self._autosaves = 0
        self._autosave_timer: threading.Timer | None = None
        #: harvested worker entries waiting to be rebroadcast to the next
        #: ``_resync_remaining`` jobs, so one worker's discoveries reach
        #: the other live workers too (best effort -- under skewed task
        #: distribution some workers may be resynced twice, some not at
        #: all; correctness never depends on it)
        self._resync_buffer: dict | None = None
        self._resync_remaining = 0
        self._cache_hits = 0
        self._cache_template_hits = 0
        self._snapshot_entries_loaded = 0
        self._result_entries_loaded = 0
        self._result_snapshot_path = (
            f"{snapshot_path}.results" if snapshot_path is not None else None
        )
        if snapshot_path is not None:
            self._snapshot_entries_loaded = self.cache.load_snapshot(snapshot_path)
            if self.result_cache is not None:
                self._result_entries_loaded = self.result_cache.load_snapshot(
                    self._result_snapshot_path
                )
        self.autosave_interval = float(autosave_interval)
        if snapshot_path is not None and self.autosave_interval > 0:
            self._schedule_autosave()

    @property
    def default_target(self) -> Target | None:
        """The target applied to submissions that name none."""
        return self._default_target

    # -- pool management ---------------------------------------------------

    def _ensure_pool(self):
        with self._lock:
            if self._shutdown:
                raise TranspilerError("CompileService has been shut down")
            if self._pool is None and self.mode != "serial":
                workers = default_workers(None, self.max_workers)
                self._pool_workers = workers
                if self.mode == "process":
                    context = _mp_context()
                    # the barrier coordinates the shutdown-time delta
                    # flush; without throttling every job already ships
                    # its delta, so there is nothing left to flush
                    barrier = (
                        context.Barrier(workers)
                        if self.harvest_interval > 0
                        else None
                    )
                    self._pool = ProcessPoolExecutor(
                        max_workers=workers,
                        mp_context=context,
                        initializer=_service_worker_init,
                        initargs=(
                            self.cache.export_snapshot(),
                            self.harvest_interval,
                            barrier,
                        ),
                    )
                else:
                    self._pool = ThreadPoolExecutor(max_workers=workers)
            return self._pool

    def _submit_to_pool(self, fn, *args):
        """Pool submission that cannot race :meth:`shutdown`.

        The lock spans the liveness check and the submission, so a
        concurrent shutdown either happens before (and this raises the
        documented :class:`TranspilerError`) or waits until the job is
        queued.
        """
        with self._lock:
            pool = self._ensure_pool()
            try:
                return pool.submit(fn, *args)
            except RuntimeError as exc:  # pool torn down underneath us
                raise TranspilerError("CompileService has been shut down") from exc

    # -- submission --------------------------------------------------------

    def _resolve(self, circuit: QuantumCircuit, target, overrides: dict):
        if not isinstance(circuit, QuantumCircuit):
            raise TranspilerError("CompileService expects QuantumCircuit inputs")
        settings = dict(self._defaults)
        for key, value in overrides.items():
            if value is not None:
                settings[key] = value
        if target is not None:
            target = Target.coerce(target, basis=self._basis)
        elif self._default_target is not None:
            target = self._default_target
        else:
            target = Target.full(circuit.num_qubits, basis=self._basis)
        return target, settings

    def submit(
        self,
        circuit: QuantumCircuit,
        *,
        target: Target | str | None = None,
        pipeline: str | None = None,
        optimization_level: int | None = None,
        seed: int | None = None,
        initial_layout=None,
        validate: str | None = None,
    ) -> Future:
        """Queue one compilation; returns a future of a
        :class:`~repro.transpiler.passmanager.TranspileResult`.

        Process mode snapshots the circuit into a payload at submission
        time; under serial/thread modes the circuit object itself is
        handed to the pipeline (passes never mutate their input), so
        callers should not mutate a submitted circuit before its future
        resolves.
        """
        target, settings = self._resolve(
            circuit,
            target,
            {
                "pipeline": pipeline,
                "optimization_level": optimization_level,
                "seed": seed,
                "initial_layout": initial_layout,
                "validate": validate,
            },
        )
        if self.mode == "process":
            return self._submit_chunk([(circuit, target, settings)])[0]
        outer: Future = Future()
        if self.mode != "serial":
            # counted before pool submission: a fast job's done-callback
            # may increment _completed before submit() returns, and stats()
            # must never observe completed > submitted
            with self._lock:
                self._submitted += 1
        if self.mode == "thread":
            inner = self._submit_to_pool(self._run_local, circuit, target, settings)
            inner.add_done_callback(
                lambda f, outer=outer: self._finish_local(outer, f)
            )
        else:
            self._ensure_pool()  # raises after shutdown; no pool in serial mode
            with self._lock:
                self._submitted += 1
            try:
                result = self._run_local(circuit, target, settings)
            except BaseException as exc:  # noqa: BLE001 - future carries it
                with self._lock:
                    self._failed += 1
                outer.set_exception(exc)
            else:
                with self._lock:
                    self._completed += 1
                outer.set_result(result)
        return outer

    def _take_sync(self) -> dict | None:
        """Pop one rebroadcast snapshot for the next outgoing task, if due."""
        with self._lock:
            if self._resync_remaining <= 0 or self._resync_buffer is None:
                return None
            # inner dicts copied too: the pool's feeder thread pickles the
            # task concurrently with _finish_chunk updating the buffer
            sync = {
                family: dict(entries)
                for family, entries in self._resync_buffer.items()
            }
            sync["version"] = AnalysisCache.SNAPSHOT_VERSION
            self._resync_remaining -= 1
            self._syncs_sent += 1
            if self._resync_remaining == 0:
                self._resync_buffer = None
            return sync

    def _cache_meta(self, circuit_payload, target_payload, settings):
        """The result-cache address of one job, or ``None`` if uncacheable.

        Jobs carrying an ``initial_layout`` bypass the cache entirely
        (layouts are mutable objects with no canonical content form).
        """
        if self.result_cache is None or settings.get("initial_layout") is not None:
            return None
        return (circuit_payload, target_payload, options_cache_key(settings))

    def _cache_serve(self, meta, target: Target) -> Future | None:
        """A pre-resolved future served from the result cache, or ``None``.

        A served job never touches the pool (which may not even exist
        yet); it still counts as submitted + completed so ``stats()``
        arithmetic holds, plus a hit counter of its own.
        """
        if meta is None:
            return None
        found = self.result_cache.lookup(*meta)
        if found is None:
            return None
        value, kind = found
        with self._lock:
            if self._shutdown:
                raise TranspilerError("CompileService has been shut down")
            self._submitted += 1
        outer: Future = Future()
        try:
            result = self._result_from_payload(value, target, kind=kind)
        except Exception as exc:  # noqa: BLE001 - corrupt entry: fail the job
            self._fail_future(outer, exc)
            return outer
        with self._lock:
            self._completed += 1
            self._cache_hits += 1
            if kind == "template":
                self._cache_template_hits += 1
        outer.set_result(result)
        return outer

    def _result_from_payload(
        self, value: tuple, target: Target, kind: str | None = None
    ) -> TranspileResult:
        """Rebuild a :class:`TranspileResult` from its compact wire form."""
        payload, metrics, loops, elapsed, props = value
        properties = PropertySet(props)
        properties[AnalysisCache.PROPERTY_KEY] = self.cache
        properties[TARGET_PROPERTY] = target
        if kind is not None:
            properties[CACHE_PROPERTY] = kind
        return TranspileResult(
            circuit=circuit_from_payload(payload),
            properties=properties,
            metrics=metrics,
            loops=loops,
            time=elapsed,
        )

    def _submit_chunk(self, resolved: list[tuple]) -> list[Future]:
        """Ship ``resolved`` jobs (already target/settings-resolved) as ONE
        pool task; returns one future per job.

        This is the chunked job envelope: per-task costs -- pickling the
        envelope, pool dispatch, the sync snapshot, the harvest check --
        are paid once per chunk rather than once per circuit, which is
        what lets huge batches of cheap circuits keep the pool busy
        instead of the feeder thread.

        The result cache is consulted per job *before* the envelope is
        built: served jobs come back as already-resolved futures, and a
        chunk whose every job hits never creates the pool at all.
        """
        futures: list[Future | None] = [None] * len(resolved)
        payload_jobs: list[tuple] = []
        targets: list[Target] = []
        metas: list = []
        pending: list[int] = []
        for i, (circuit, target, settings) in enumerate(resolved):
            circuit_payload = circuit_to_payload(circuit)
            target_payload = target.to_payload()
            meta = self._cache_meta(circuit_payload, target_payload, settings)
            served = self._cache_serve(meta, target)
            if served is not None:
                futures[i] = served
                continue
            payload_jobs.append((circuit_payload, target_payload, settings))
            targets.append(target)
            metas.append(meta)
            pending.append(i)
        if payload_jobs:
            for i, future in zip(
                pending, self._submit_payload_chunk(payload_jobs, targets, metas)
            ):
                futures[i] = future
        return futures

    def _submit_payload_chunk(
        self,
        payload_jobs: list[tuple],
        targets: list[Target],
        metas: list | None = None,
    ) -> list[Future]:
        """Chunk submission for jobs already in compact payload form.

        ``metas`` carries each job's result-cache address (or ``None``
        for uncacheable jobs) so :meth:`_finish_chunk` can populate the
        cache when the answers come back.
        """
        if metas is None:
            metas = [None] * len(payload_jobs)
        with self._lock:
            self._submitted += len(payload_jobs)
            self._chunks += 1
        task = (tuple(payload_jobs), self._take_sync())
        outers = [Future() for _ in payload_jobs]
        inner = self._submit_to_pool(_service_chunk, task)
        inner.add_done_callback(
            lambda f, outers=outers, targets=targets, metas=metas: (
                self._finish_chunk(outers, targets, metas, f)
            )
        )
        return outers

    def submit_payloads(self, jobs: Sequence[tuple]) -> list[Future]:
        """Queue pre-encoded jobs: ``(circuit_payload, target_payload,
        settings)`` tuples, exactly the wire form the compile server's
        envelopes carry (:mod:`repro.server.protocol`).

        In process mode the payloads go to the pool **as-is** -- the
        server never rebuilds a circuit object just to re-flatten it --
        split into chunks by the ``"auto"`` policy; serial/thread modes
        rebuild the objects and run them inline.  ``settings`` entries
        that are ``None`` fall back to the service defaults, mirroring
        :meth:`submit`.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        prepared: list[tuple] = []
        targets: list[Target] = []
        target_memo: dict = {}
        for circuit_payload, target_payload, settings in jobs:
            merged = dict(self._defaults)
            for key, value in dict(settings).items():
                if value is not None:
                    merged[key] = value
            target = target_memo.get(target_payload)
            if target is None:
                target = Target.from_payload(target_payload)
                target_memo[target_payload] = target
            targets.append(target)
            prepared.append((circuit_payload, target_payload, merged))
        if self.mode == "process":
            futures: list[Future | None] = [None] * len(prepared)
            miss_jobs: list[tuple] = []
            miss_targets: list[Target] = []
            miss_metas: list = []
            pending: list[int] = []
            for i, (job, target) in enumerate(zip(prepared, targets)):
                circuit_payload, target_payload, merged = job
                meta = self._cache_meta(circuit_payload, target_payload, merged)
                served = self._cache_serve(meta, target)
                if served is not None:
                    futures[i] = served
                    continue
                miss_jobs.append(job)
                miss_targets.append(target)
                miss_metas.append(meta)
                pending.append(i)
            if miss_jobs:
                self._ensure_pool()  # raises after shutdown; sizes chunk policy
                chunk = self.chunk_size_for(len(miss_jobs))
                for start in range(0, len(miss_jobs), chunk):
                    stop = start + chunk
                    for i, future in zip(
                        pending[start:stop],
                        self._submit_payload_chunk(
                            miss_jobs[start:stop],
                            miss_targets[start:stop],
                            miss_metas[start:stop],
                        ),
                    ):
                        futures[i] = future
            return futures
        futures = []
        for (circuit_payload, _, merged), target in zip(prepared, targets):
            futures.append(
                self.submit(
                    circuit_from_payload(circuit_payload),
                    target=target,
                    pipeline=merged["pipeline"],
                    optimization_level=merged["optimization_level"],
                    seed=merged["seed"],
                    initial_layout=merged["initial_layout"],
                    validate=merged.get("validate"),
                )
            )
        return futures

    def chunk_size_for(self, batch_size: int) -> int:
        """The ``chunk_size="auto"`` policy: per-job dispatch for batches
        the pool width can absorb, chunks for everything bigger.

        Chunks are sized to leave every worker several tasks (so a slow
        chunk cannot serialize the tail of the batch) and capped so one
        envelope never grows unboundedly large.
        """
        if self.mode != "process":
            return 1  # no envelope to amortize without a process boundary
        workers = self._pool_workers or default_workers(batch_size, self.max_workers)
        if batch_size <= 2 * workers:
            return 1
        return max(1, min(_CHUNK_MAX_JOBS, batch_size // (workers * 4)))

    def map(
        self,
        circuits: Sequence[QuantumCircuit],
        *,
        targets=None,
        seeds=None,
        pipeline: str | None = None,
        optimization_level: int | None = None,
        initial_layout=None,
        validate: str | None = None,
        chunk_size: int | str | None = None,
    ) -> list[TranspileResult]:
        """Compile a batch; blocks and returns results in input order.

        ``targets`` may be one target (object or preset name) or a
        per-circuit sequence; ``seeds`` likewise.  ``chunk_size`` groups
        consecutive jobs into chunked envelopes (process mode only):
        ``None``/``"auto"`` sizes chunks by batch size and pool width, 1
        forces per-job dispatch, any larger integer is used as given.
        """
        batch = list(circuits)
        per_circuit_targets, per_circuit_seeds = normalize_batch(
            batch, targets, seeds
        )
        if chunk_size is None or chunk_size == "auto":
            chunk = self.chunk_size_for(len(batch))
        else:
            chunk = max(1, int(chunk_size))
        if chunk > 1 and self.mode == "process":
            resolved = [
                self._resolve(
                    circuit,
                    target,
                    {
                        "pipeline": pipeline,
                        "optimization_level": optimization_level,
                        "seed": seed,
                        "initial_layout": initial_layout,
                        "validate": validate,
                    },
                )
                for circuit, target, seed in zip(
                    batch, per_circuit_targets, per_circuit_seeds
                )
            ]
            jobs = [
                (circuit, target, settings)
                for circuit, (target, settings) in zip(batch, resolved)
            ]
            futures = []
            for start in range(0, len(jobs), chunk):
                futures.extend(self._submit_chunk(jobs[start : start + chunk]))
        else:
            futures = [
                self.submit(
                    circuit,
                    target=target,
                    pipeline=pipeline,
                    optimization_level=optimization_level,
                    seed=seed,
                    initial_layout=initial_layout,
                    validate=validate,
                )
                for circuit, target, seed in zip(
                    batch, per_circuit_targets, per_circuit_seeds
                )
            ]
        return [future.result() for future in futures]

    # -- result plumbing ---------------------------------------------------

    def _run_local(self, circuit, target: Target, settings: dict) -> TranspileResult:
        """Inline execution (serial/thread modes), result-cache aware.

        Cacheable jobs pay one payload conversion to consult the cache;
        on a hit the pipeline never runs, on a miss the compiled answer
        is stored for the next identical (or parameter-varied) request.
        """
        meta = None
        if self.result_cache is not None:
            meta = self._cache_meta(
                circuit_to_payload(circuit), target.to_payload(), settings
            )
            if meta is not None:
                found = self.result_cache.lookup(*meta)
                if found is not None:
                    value, kind = found
                    with self._lock:
                        self._cache_hits += 1
                        if kind == "template":
                            self._cache_template_hits += 1
                    return self._result_from_payload(value, target, kind=kind)
        result = _run_job(circuit, target, settings, self.cache)
        if meta is not None:
            self.result_cache.store(
                *meta,
                (
                    circuit_to_payload(result.circuit),
                    result.metrics,
                    result.loops,
                    result.time,
                    _sanitize_properties(result.properties),
                ),
            )
        result.properties[TARGET_PROPERTY] = target
        return result

    def _finish_local(self, outer: Future, inner: Future) -> None:
        try:
            result = inner.result()
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            with self._lock:
                self._failed += 1
            outer.set_exception(exc)
            return
        with self._lock:
            self._completed += 1
        outer.set_result(result)

    def _merge_delta(self, delta: dict) -> None:
        """Adopt a worker's cache delta and queue it for rebroadcast."""
        with self._lock:
            if self.cache.import_snapshot(delta) > 0:
                # queue the new entries for rebroadcast so the *other*
                # workers see them too
                if self._resync_buffer is None:
                    self._resync_buffer = {}
                for family in AnalysisCache._SNAPSHOT_FAMILIES:
                    entries = delta.get(family)
                    if entries:
                        table = self._resync_buffer.setdefault(family, {})
                        table.update(entries)
                        while len(table) > _RESYNC_MAX_PER_FAMILY:
                            table.pop(next(iter(table)))
                self._resync_remaining = max(1, self._pool_workers)
            self._harvests += 1

    def _finish_chunk(
        self,
        outers: list[Future],
        targets: list[Target],
        metas: list,
        inner: Future,
    ) -> None:
        """Scatter one chunk task's outcomes onto its per-job futures."""
        try:
            outcomes, delta = inner.result()
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            # the chunk itself died (pool torn down, envelope unpicklable):
            # every job of the chunk shares that fate
            for outer in outers:
                self._fail_future(outer, exc)
            return
        if delta is not None:
            self._merge_delta(delta)
        if len(outcomes) != len(outers):  # never expected; fail loudly, not hang
            error = TranspilerError(
                f"chunk returned {len(outcomes)} outcomes for {len(outers)} jobs"
            )
            for outer in outers:
                self._fail_future(outer, error)
            return
        for outer, target, meta, outcome in zip(outers, targets, metas, outcomes):
            # per-job isolation holds on the parent side too: a payload
            # that fails to rebuild (or an outer future the caller
            # cancelled, making set_result raise) must not abandon the
            # remaining chunk-mates' futures
            try:
                status, value = outcome
                if status != "ok":
                    self._fail_future(outer, value)
                    continue
                result = self._result_from_payload(value, target)
            except BaseException as exc:  # noqa: BLE001 - relayed per job
                self._fail_future(outer, exc)
                continue
            if meta is not None and self.result_cache is not None:
                # populate only after the payload proved rebuildable, so a
                # malformed result can never be served from the cache
                self.result_cache.store(*meta, value)
            with self._lock:
                self._completed += 1
            try:
                outer.set_result(result)
            except Exception:
                pass  # caller cancelled the future; result has no taker

    def _fail_future(self, outer: Future, exc: BaseException) -> None:
        with self._lock:
            self._failed += 1
        try:
            outer.set_exception(exc)
        except Exception:
            pass  # caller cancelled the future; nothing left to notify

    # -- lifecycle ---------------------------------------------------------

    def save_snapshot(self, path=None) -> str | None:
        """Persist the service cache to ``path`` (default: ``snapshot_path``).

        The write is atomic (tmp file + rename, see
        :meth:`AnalysisCache.save`), so a crash mid-save -- or a reader
        racing the autosave timer -- never sees a truncated snapshot.
        """
        path = path if path is not None else self.snapshot_path
        if path is None:
            return None
        self.cache.save(path)
        if self.result_cache is not None:
            self.result_cache.save(f"{path}.results")
        return str(path)

    def harvest_now(self) -> int:
        """Best-effort flush of worker-held cache deltas, pool kept alive.

        Unlike the shutdown flush this leaves the pool serving; it exists
        so periodic snapshot saves (and a compile server's ``/metrics``)
        can see worker discoveries that throttled harvesting
        (``harvest_interval > 0``) is still holding worker-side.  Returns
        the number of deltas merged.  A no-op outside throttled process
        mode, where every job (or chunk) already ships its delta.
        """
        with self._lock:
            pool = self._pool
            workers = self._pool_workers
        if pool is None or self.mode != "process" or self.harvest_interval <= 0:
            return 0
        before = self._harvests
        # short barrier wait: a live pool may be mid-chunk, and an
        # autosave tick must not idle the other workers for long
        self._flush_worker_deltas(pool, workers, barrier_timeout=0.25)
        return self._harvests - before

    # -- periodic background autosave --------------------------------------

    def _schedule_autosave(self) -> None:
        timer = threading.Timer(self.autosave_interval, self._autosave_tick)
        timer.daemon = True  # never keeps the interpreter alive
        self._autosave_timer = timer
        timer.start()

    def _autosave_tick(self) -> None:
        """One autosave: harvest stragglers, persist, re-arm the timer."""
        with self._lock:
            if self._shutdown:
                return
        try:
            self.harvest_now()
            self.save_snapshot()
            with self._lock:
                self._autosaves += 1
        except Exception:  # noqa: BLE001 - autosave is best-effort
            pass  # a failed save must not kill the timer; next tick retries
        finally:
            with self._lock:
                if not self._shutdown:
                    self._schedule_autosave()

    def _flush_worker_deltas(
        self, pool, workers: int, barrier_timeout: float = 2.0
    ) -> None:
        """Best-effort harvest of deltas still held by workers.

        Only needed under throttled harvesting (``harvest_interval > 0``):
        jobs finished since each worker's last export have their cache
        entries sitting worker-side, and a snapshot save would otherwise
        miss them.  ``barrier_timeout`` bounds how long a flush task may
        idle a worker waiting for its peers -- shutdown affords the full
        wait, live harvests (autosave ticks) pass a short one.

        Flush results carry the responding worker's pid, and rounds
        retry until every distinct worker answered (or a round makes no
        progress): the pool does not promise one flush task per worker,
        and under uneven pickup -- one worker grabbing two flushes while
        another finishes a job -- a single round can silently drop the
        busy worker's delta.  That is exactly the ``map()`` +
        immediate ``shutdown()`` hazard: the final batch's entries sit
        with a worker that never sees a flush task, and the snapshot
        saved at shutdown misses them.
        """
        flushed: set[int] = set()
        for round_index in range(3):
            remaining = workers - len(flushed)
            if remaining <= 0:
                return
            # first round gets the caller's barrier budget; retry rounds
            # submit fewer tasks than the barrier has parties, so waiting
            # on it would only stall -- use a token timeout instead
            timeout = barrier_timeout if round_index == 0 else 0.25
            try:
                futures = [
                    pool.submit(_service_flush, timeout) for _ in range(remaining)
                ]
            except RuntimeError:  # pool already torn down elsewhere
                return
            progress = False
            for future in futures:
                try:
                    outcome = future.result(timeout=10.0)
                except Exception:
                    continue  # flush is best-effort; shutdown must not fail
                if outcome is None:
                    continue
                pid, delta = outcome
                fresh = pid not in flushed
                flushed.add(pid)
                progress = progress or fresh
                if delta and fresh:
                    with self._lock:
                        self.cache.import_snapshot(delta)
                        self._harvests += 1
            if not progress:
                return  # stuck worker (mid-job > timeout); stay best-effort

    def shutdown(self, wait: bool = True, save: bool = True) -> None:
        """Drain the pool and (by default) persist the cache snapshot.

        Under throttled harvesting, worker cache deltas not yet shipped
        are flushed (best-effort) before the pool drains, so the
        persisted snapshot reflects the workers' discoveries.  Idempotent;
        after shutdown, further submissions raise
        :class:`~repro.transpiler.exceptions.TranspilerError`.
        """
        with self._lock:
            already = self._shutdown
            self._shutdown = True
            pool, self._pool = self._pool, None
            workers = self._pool_workers
            timer, self._autosave_timer = self._autosave_timer, None
        if timer is not None:
            timer.cancel()
            timer.join(timeout=5.0)  # cancel() wakes it; exit is immediate
        if pool is not None:
            if not already and self.mode == "process" and self.harvest_interval > 0:
                self._flush_worker_deltas(pool, workers)
            pool.shutdown(wait=wait)
        if save and not already:
            self.save_snapshot()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def stats(self) -> dict:
        """Service-level counters (JSON-ready)."""
        return {
            "mode": self.mode,
            "uptime": time.monotonic() - self._started,
            "submitted": self._submitted,
            "completed": self._completed,
            "failed": self._failed,
            "harvests": self._harvests,
            "syncs_sent": self._syncs_sent,
            "chunks": self._chunks,
            "autosaves": self._autosaves,
            "snapshot_entries_loaded": self._snapshot_entries_loaded,
            "snapshot_skipped": self.cache.snapshot_skipped,
            "cache_matrices": len(self.cache._matrices),
            "cache_requests": self.cache.matrix_requests,
            "cache_constructions": self.cache.matrix_constructions,
            "result_cache_hits": self._cache_hits,
            "result_cache_template_hits": self._cache_template_hits,
            "result_entries_loaded": self._result_entries_loaded,
            "result_cache": (
                self.result_cache.stats() if self.result_cache is not None else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "shutdown" if self._shutdown else "live"
        return (
            f"<CompileService mode={self.mode} {state} "
            f"submitted={self._submitted} completed={self._completed}>"
        )


def transpile_batch(
    batch: Sequence[QuantumCircuit],
    targets: Sequence[Target],
    seeds: Sequence,
    *,
    mode: str,
    pipeline: str,
    optimization_level: int,
    initial_layout,
    cache: AnalysisCache,
    max_workers: int | None,
    result_cache: ResultCache | None = None,
    validate: str | None = None,
) -> list[TranspileResult]:
    """One batch through a short-lived service (the ``transpile()`` path).

    A fresh result cache cannot help a one-shot batch, so caching is off
    unless the caller passes a (shared, long-lived) ``result_cache``.
    """
    service = CompileService(
        mode=mode,
        max_workers=default_workers(len(batch), max_workers),
        pipeline=pipeline,
        optimization_level=optimization_level,
        initial_layout=initial_layout,
        analysis_cache=cache,
        result_cache=result_cache if result_cache is not None else False,
        validate=validate,
    )
    try:
        return service.map(batch, targets=targets, seeds=seeds)
    finally:
        service.shutdown()
