"""Synthesis serving: load a bundle once, answer sampling requests forever.

:class:`SynthesisService` is the serve-many half of the train-once /
serve-many split.  It wraps a :class:`~repro.pipelines.base.FittedPipeline`
(usually opened from an :class:`ArtifactSource` — a bundle file or a
registry artifact) and serves three request shapes without ever retraining:

* :meth:`~SynthesisService.sample_table` — a full synthetic flat table of
  ``n`` subjects.  The request is decomposed into fixed-size *blocks*, each
  sampled with a deterministically derived seed (:func:`derive_seed`), so
  the output is a pure function of ``(bundle, n, seed, block_size)`` — a
  run spread across ``W`` worker processes is bit-identical to the
  in-process run, for any ``W``.
* :meth:`~SynthesisService.sample_rows` — ``n`` conditioned rows from the
  child synthesizer (e.g. "rows for a user with these contextual
  attributes").  Concurrent requests are coalesced: a leader thread drains
  the pending queue and advances *every* request's lanes through **one**
  batched engine pass per column (one dense-mass/candidate-scoring call for
  the merged batch).  Each request draws from its own named RNG stream, so
  a request's output never depends on what it was batched with.
* :meth:`~SynthesisService.sample_database` — a whole synthetic multi-table
  database from a loaded ``multitable`` bundle (see :mod:`repro.schema`).
  The per-table seeds are ``SeedSequence``-derived inside the synthesizer,
  so every executor returns the identical database.

Every request shape is a list of *work units* (:func:`run_unit`) handed to
the service's one executor: :class:`InlineExecutor` runs them in the
calling thread, :class:`ProcessExecutor` on a
:class:`~repro.serving.workers.WorkerPool` whose workers run the very same
:func:`run_unit`.

Results are memoised in an LRU cache keyed by ``(bundle digest, request)``
— identical requests against the same artifact are served from memory.
The cache is bounded by **approximate result bytes**
(``ServingConfig.cache_bytes``), not entry count, so one huge table cannot
silently pin the memory a thousand small results would fit in.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.frame.column import Column
from repro.frame.ops import concat_rows
from repro.frame.table import Table
from repro.llm.engine import SCORING, derive_seed
from repro.obs import trace as obs
from repro.pipelines.base import TABLE_BLOCK_STREAM, FittedPipeline, block_plan
from repro.pipelines.multitable import FittedMultiTablePipeline
from repro.serving.metrics import Counter, MetricsRegistry


class ServingError(RuntimeError):
    """A request the loaded bundle cannot serve."""


class DeadlineExceeded(ServingError):
    """A request missed its ``timeout_s`` deadline (HTTP 503, retryable)."""


class PoolDegraded(ServingError):
    """The worker pool's crash-loop breaker is open (HTTP 503, retryable)."""


#: Named sub-streams of the request seed (table blocks vs row requests), so
#: the two request shapes never share RNG state.  Table blocks use the
#: pipeline layer's shared stream so streaming writers reproduce served
#: tables exactly.
_TABLE_STREAM = TABLE_BLOCK_STREAM
_ROWS_STREAM = 13


def process_peak_rss_bytes() -> int | None:
    """This process's peak resident set size in bytes (``None`` if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; other platforms
    report whatever the libc says, so only the two known unit conventions
    are trusted.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS only
        return int(peak)
    return int(peak) * 1024


def approx_table_bytes(table: Table) -> int:
    """Approximate in-memory footprint of a table, in bytes.

    Typed backends are sized from their arrays; object columns estimate
    ~48 bytes of boxing overhead plus the stringified payload per value.
    Cheap by construction — this runs on every cache insert.
    """
    total = 0
    for column in table.columns:
        backend = column._backend
        data = getattr(backend, "data", None)
        if isinstance(data, np.ndarray):  # NumericBackend
            total += data.nbytes
            mask = getattr(backend, "mask", None)
            if isinstance(mask, np.ndarray):
                total += mask.nbytes
            continue
        codes = getattr(backend, "codes", None)
        if isinstance(codes, np.ndarray):  # CategoricalBackend
            total += codes.nbytes
            total += sum(48 + len(str(c)) for c in backend.categories)
            continue
        total += sum(48 + len(str(v)) for v in backend.tolist())
    return total


def approx_result_bytes(value) -> int:
    """Approximate size of a cached serving result (table or table mapping)."""
    if isinstance(value, Table):
        return approx_table_bytes(value)
    if isinstance(value, dict):
        return sum(approx_result_bytes(item) for item in value.values())
    return 64


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving layer.

    ``block_size`` is the number of synthetic subjects per independently
    seeded block; ``cache_bytes`` the approximate byte budget of the LRU
    result cache (0 disables caching); ``batch_window_s`` how long a
    coalescing leader waits for followers before draining the queue.

    ``executor`` picks where the work units run: ``"thread"`` inline on the
    calling thread (the HTTP server's admission threads give concurrency
    between requests), ``"process"`` on a :mod:`repro.serving.workers` pool
    of ``shards`` worker processes that cold-start from the service's
    :class:`ArtifactSource`.  ``shards > 1`` needs the process executor —
    sharding threads under the GIL only slowed sampling down.  The output is
    identical for every executor and shard count.  ``mmap`` makes artifact
    loads memory-map the n-gram count tables instead of copying them — with
    process workers the tables then share one page-cache copy.

    ``timeout_s`` is the default per-request deadline (``None`` = no
    deadline; requests can override).  The process executor kills a worker
    stuck past it; the inline executor checks it before every work unit.
    Resilience knobs of the process executor (see the README's "Failure
    model & operations"): ``retries`` is the re-dispatch budget for tasks
    orphaned by a worker death (seed-derived work units make every retry
    bit-identical), ``retry_backoff_s`` the base of the exponential backoff
    between attempts.  ``breaker_threshold`` worker deaths within
    ``breaker_window_s`` trip the crash-loop breaker (0 disables it); while
    open, ``degraded_mode`` decides whether requests fall back to the inline
    executor (``"serial"`` — identical output, slower) or fail fast with
    :class:`PoolDegraded` (``"fail_fast"``).  ``faults`` is a
    :mod:`repro.faults` plan shipped to worker processes for chaos testing.

    ``trace`` arms the process-global tracer (:mod:`repro.obs.trace`) with a
    sink spec — ``"stderr"``, ``"ring"``/``"ring:N"`` (in-memory, served at
    ``GET /trace``) or a file path for JSON lines.  Worker processes buffer
    their spans and ship them back on the result pipe, so one request yields
    one stitched trace across the pool.  ``None`` (the default) leaves
    tracing disabled: every span site degrades to a no-op.
    """

    shards: int = 1
    block_size: int = 256
    cache_bytes: int = 64 * 2**20
    batch_window_s: float = 0.002
    executor: str = "thread"
    mmap: bool = False
    timeout_s: float | None = None
    retries: int = 2
    retry_backoff_s: float = 0.05
    breaker_threshold: int = 5
    breaker_window_s: float = 30.0
    breaker_cooldown_s: float = 5.0
    degraded_mode: str = "serial"
    faults: str | None = None
    trace: str | None = None

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if self.cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        if self.executor not in ("thread", "process"):
            raise ValueError('executor must be "thread" or "process"')
        if self.shards > 1 and self.executor != "process":
            raise ValueError('shards > 1 needs executor="process"')
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None for no deadline)")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be non-negative (0 disables)")
        if self.breaker_window_s <= 0 or self.breaker_cooldown_s <= 0:
            raise ValueError("breaker window and cooldown must be positive")
        if self.degraded_mode not in ("serial", "fail_fast"):
            raise ValueError('degraded_mode must be "serial" or "fail_fast"')
        if self.faults is not None:
            from repro.faults import parse_plan

            parse_plan(self.faults)  # reject typos at config time, not mid-chaos
        if self.trace is not None:
            obs.parse_sink_spec(self.trace)  # same: bad sink specs fail here


@dataclass(frozen=True)
class ArtifactSource:
    """Where a served artifact lives: a bundle file, or a registry artifact.

    ``digest`` is ``None`` for a bundle file at ``path``; otherwise ``path``
    is a registry root and ``digest`` the full artifact digest inside it.
    The source is a frozen pair of strings, so worker processes cold-start
    from the same source as the service that spawned them.
    """

    path: str
    digest: str | None = None

    @classmethod
    def registry(cls, root, digest: str) -> "ArtifactSource":
        """The registry artifact *digest* (full or a unique prefix) under *root*."""
        from repro.registry.record import Registry

        return cls(str(root), Registry(root).resolve(digest))

    def open(self, mmap: bool = False, verify: bool = True):
        """Load the fitted pipeline; returns ``(fitted, content digest)``.

        With *mmap* the count tables are memory-mapped (from the bundle file
        or from the registry's object files); with *verify* every part is
        re-hashed against the manifest first.
        """
        from repro.store.bundle import BundleReader, read_bundle_object

        if self.digest is None:
            reader = BundleReader(self.path, mmap=mmap, verify=verify)
        else:
            from repro.registry.record import Registry

            reader = Registry(self.path).reader(self.digest, mmap=mmap, verify=verify)
        if reader.kind not in ("fitted_pipeline", "multitable_pipeline"):
            raise ServingError("{} holds a {!r}; serving needs a fitted pipeline".format(
                self, reader.kind))
        return read_bundle_object(reader)

    def __str__(self) -> str:
        if self.digest is None:
            return self.path
        return "{}#{}".format(self.path, self.digest[:12])


@dataclass(frozen=True)
class RowRequest:
    """One conditioned row-sampling request (the coalescable unit)."""

    n: int
    conditions: tuple = ()  # sorted (column, value) pairs; dicts accepted by the service
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")


class LruCache:
    """A thread-safe LRU mapping bounded by approximate result bytes.

    ``capacity_bytes`` is the byte budget (0 disables the cache); every
    entry is sized once at insert time by *sizer* (default
    :func:`approx_result_bytes`) and the least-recently-used entries are
    evicted until the total fits.  A single result larger than the whole
    budget is never cached — it would only evict everything else and then
    miss anyway.
    """

    def __init__(self, capacity_bytes: int, sizer=approx_result_bytes):
        self.capacity_bytes = capacity_bytes
        self._sizer = sizer
        self._entries: "OrderedDict" = OrderedDict()  # key -> (value, size)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.bytes_used = 0

    def get(self, key):
        if self.capacity_bytes == 0:
            return None
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key][0]
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        if self.capacity_bytes == 0:
            return
        size = self._sizer(value)
        with self._lock:
            if key in self._entries:
                self.bytes_used -= self._entries.pop(key)[1]
            if size > self.capacity_bytes:
                return
            self._entries[key] = (value, size)
            self.bytes_used += size
            while self.bytes_used > self.capacity_bytes:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.bytes_used -= evicted


@dataclass
class _PendingRequest:
    request: RowRequest
    timeout_s: float | None = None
    event: threading.Event = field(default_factory=threading.Event)
    result: Table | None = None
    error: BaseException | None = None


def child_synthesizer(fitted):
    """The guided child synthesizer conditioned row requests sample from."""
    if isinstance(fitted, FittedMultiTablePipeline):
        raise ServingError("this service wraps a multitable pipeline; use sample_database")
    if len(fitted.synthesizers) != 1:
        raise ServingError(
            "conditioned row serving needs a single parent/child synthesizer; "
            "the {!r} pipeline has {}".format(fitted.name, len(fitted.synthesizers))
        )
    synth = fitted.synthesizers[0]._child_synth
    if synth.config.sampling_strategy != "guided":
        raise ServingError("conditioned row serving requires the guided strategy")
    return synth


def _enhanced_conditions(fitted, request: RowRequest) -> dict:
    """Map original-label conditions into the enhanced space the child
    synthesizer was trained in (one-row table through the fitted mapping)."""
    conditions = dict(request.conditions)
    if not conditions:
        return {}
    one_row = Table({name: [value] for name, value in conditions.items()})
    return fitted.enhancer.transform(one_row).row(0)


def sample_rows_batch(fitted, requests: list[RowRequest]) -> list[Table]:
    """Serve a batch of row requests through one engine pass per column.

    This is the deterministic coalescing unit: every request occupies a
    contiguous lane range of one merged guided session, candidate scoring
    runs once per column across all lanes, and each request draws from its
    own ``(seed)``-derived RNG stream — so the result per request is
    identical whether it is served alone or merged.
    """
    batch_start_us = obs.monotonic_us()
    synth = child_synthesizer(fitted)
    subject = fitted.subject_column

    bounds = np.zeros(len(requests) + 1, dtype=np.int64)
    np.cumsum([request.n for request in requests], out=bounds[1:])
    slices = [slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    groups = [(lanes, np.random.default_rng([_ROWS_STREAM, derive_seed(request.seed)]))
              for lanes, request in zip(slices, requests)]
    prompts = []
    for request in requests:
        prompts.extend([_enhanced_conditions(fitted, request)] * request.n)

    # every draw comes from the owning request's group; the session's own
    # RNG is never drawn from
    session = synth.engine.guided_session(len(prompts), seed=0)
    columns = synth.sample_guided_columns(session, prompts, groups)

    tables = []
    for lanes in slices:
        table = Table([Column.from_codes(name, codes[lanes], dictionary)
                       for name, (codes, dictionary) in zip(synth.training_columns, columns)])
        table = fitted.enhancer.inverse_transform(table)
        if subject in table.column_names:
            table = table.drop(subject)
        tables.append(table)
    obs.emit_span("service.rows_batch", obs.current_context(), batch_start_us,
                  obs.monotonic_us() - batch_start_us,
                  attrs={"requests": len(requests), "lanes": len(prompts)})
    return tables


def run_unit(fitted, method: str, payload):
    """Run one work unit against a loaded pipeline.

    The one definition of what a unit means, shared by
    :class:`InlineExecutor` and the worker processes:

    * ``"sample_block"`` — ``(start, count, seed)`` → one table block;
    * ``"sample_rows_many"`` — a list of :class:`RowRequest` → one table
      per request (:func:`sample_rows_batch`);
    * ``"sample_database"`` — ``(n, seed)`` → ``{table name: table}``.
    """
    if method == "sample_block":
        return fitted.sample_block(*payload)
    if method == "sample_rows_many":
        return sample_rows_batch(fitted, payload)
    if method == "sample_database":
        n, seed = payload
        return fitted.sample_database(n, seed=seed)
    raise ServingError("unknown work unit {!r}".format(method))


def count_scoring(metrics: MetricsRegistry, growth: dict[str, int]) -> None:
    """Fold growth of the engine's scoring counters into ``engine_<name>_total``."""
    for name, amount in growth.items():
        metrics.counter("engine_{}_total".format(name)).increment(amount)


class InlineExecutor:
    """Runs work units one after another in the calling thread.

    The deadline is checked before every unit, so a request past its
    deadline stops at the next unit boundary with :class:`DeadlineExceeded`.
    The engine's scoring counters are folded into *metrics* after every
    run, under the same names the worker processes report.
    """

    #: the worker pool behind the executor (none: work runs in-process)
    pool = None

    def __init__(self, fitted, metrics: MetricsRegistry):
        self.fitted = fitted
        self.metrics = metrics
        #: runs a degraded pool handed to in-process execution (always 0
        #: unless this is a :class:`ProcessExecutor`)
        self.fallbacks = Counter()
        self._scoring_growth = SCORING.deltas()

    def run(self, method: str, payloads: list, deadline_s: float | None = None) -> list:
        """The :func:`run_unit` result of every payload, in order."""
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        results = []
        try:
            for payload in payloads:
                if deadline is not None and time.monotonic() > deadline:
                    raise DeadlineExceeded(
                        "{} missed its {}s deadline after {} of {} work units".format(
                            method, deadline_s, len(results), len(payloads)))
                results.append(run_unit(self.fitted, method, payload))
        finally:
            count_scoring(self.metrics, self._scoring_growth())
        return results

    def close(self) -> None:
        pass


class ProcessExecutor(InlineExecutor):
    """Runs work units on a :class:`~repro.serving.workers.WorkerPool`.

    While the pool's crash-loop breaker is open, ``degraded_mode="serial"``
    runs the units in-process instead (identical output, slower) and
    ``"fail_fast"`` lets :class:`PoolDegraded` propagate.
    """

    def __init__(self, fitted, metrics: MetricsRegistry, pool,
                 degraded_mode: str = "serial"):
        super().__init__(fitted, metrics)
        self.pool = pool
        self.degraded_mode = degraded_mode

    def run(self, method: str, payloads: list, deadline_s: float | None = None) -> list:
        try:
            return self.pool.run(method, payloads, deadline_s=deadline_s)
        except PoolDegraded:
            if self.degraded_mode != "serial":
                raise
        self.fallbacks.increment()
        with obs.span("service.degraded_fallback", attrs={"method": method}):
            return super().run(method, payloads, deadline_s)

    def close(self) -> None:
        self.pool.close()


class SynthesisService:
    """Serve sampling requests from one loaded fitted pipeline.

    Accepts either a flat :class:`FittedPipeline` (full-table and
    conditioned-row requests) or a
    :class:`~repro.pipelines.multitable.FittedMultiTablePipeline`
    (whole-database requests); asking the wrong shape raises
    :class:`ServingError`.
    """

    def __init__(self, fitted: FittedPipeline | FittedMultiTablePipeline,
                 config: ServingConfig | None = None,
                 digest: str | None = None,
                 pool=None, metrics: MetricsRegistry | None = None):
        self.fitted = fitted
        self.config = config or ServingConfig()
        if self.config.executor == "process" and pool is None:
            raise ServingError(
                "the process executor needs worker processes; build the service "
                "with SynthesisService.from_bundle or from_registry")
        if self.config.trace is not None and not obs.enabled():
            obs.configure(self.config.trace)
        #: cache namespace; loaded services use the content digest so equal
        #: artifacts share keys, in-memory ones get a unique token
        self.digest = digest or "unsaved-{:x}".format(id(fitted))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: where every work unit runs
        self.executor = (InlineExecutor(fitted, self.metrics) if pool is None
                         else ProcessExecutor(fitted, self.metrics, pool,
                                              self.config.degraded_mode))
        self._cache = LruCache(self.config.cache_bytes)
        self._stats_lock = threading.Lock()
        self._stats = {"table_requests": 0, "row_requests": 0, "database_requests": 0,
                       "coalesced_batches": 0, "coalesced_requests_max": 0,
                       "streamed_requests": 0, "streamed_chunks": 0, "streamed_rows": 0}
        self._batch_lock = threading.Lock()
        self._pending: list[_PendingRequest] = []
        self._draining = False

    @classmethod
    def from_source(cls, source: ArtifactSource,
                    config: ServingConfig | None = None) -> "SynthesisService":
        """Open a fitted pipeline (flat or multitable) once and serve from it.

        With ``config.executor == "process"`` this also cold-starts a
        :class:`~repro.serving.workers.WorkerPool` of ``config.shards``
        worker processes from the same *source*, each verifying the content
        digest before the service accepts requests.
        """
        config = config or ServingConfig()
        # arm tracing before the pool forks so workers inherit the decision
        if config.trace is not None and not obs.enabled():
            obs.configure(config.trace)
        fitted, digest = source.open(mmap=config.mmap)
        pool = None
        metrics = MetricsRegistry()
        if config.executor == "process":
            from repro.serving.workers import WorkerPool

            pool = WorkerPool(source, config, expected_digest=digest, metrics=metrics)
        return cls(fitted, config=config, digest=digest, pool=pool, metrics=metrics)

    @classmethod
    def from_bundle(cls, path, config: ServingConfig | None = None) -> "SynthesisService":
        """Serve the fitted-pipeline bundle file at *path* (see :meth:`from_source`)."""
        return cls.from_source(ArtifactSource(str(path)), config)

    @classmethod
    def from_registry(cls, root, digest, config: ServingConfig | None = None) -> "SynthesisService":
        """Serve an artifact resolved by content digest from a registry.

        ``digest`` (full or a unique prefix) names the artifact; the parts
        stream straight from the content-addressed object store (with
        ``config.mmap`` they are memory-mapped from the object files, so
        every worker process sharing the registry shares one page-cache copy
        per part).
        """
        return cls.from_source(ArtifactSource.registry(root, digest), config)

    @property
    def pool(self):
        """The process worker pool when ``executor == "process"`` (else None)."""
        return self.executor.pool

    def close(self) -> None:
        """Release the process worker pool (no-op for the inline executor)."""
        self.executor.close()

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def is_multitable(self) -> bool:
        return isinstance(self.fitted, FittedMultiTablePipeline)

    def _require_flat(self):
        if self.is_multitable:
            raise ServingError(
                "this service wraps a multitable pipeline; use sample_database")

    def _require_multitable(self):
        if not self.is_multitable:
            raise ServingError(
                "whole-database serving needs a multitable bundle; the {!r} "
                "pipeline serves tables and rows".format(self.fitted.name))

    # -- public request API ----------------------------------------------------------

    def sample(self, n: int | None = None, seed: int | None = None,
               conditions: dict | None = None) -> Table:
        """Serve one sampling request.

        Without *conditions*: a full synthetic flat table of *n* subjects
        (block-sharded, see :meth:`sample_table`).  With *conditions*: *n*
        child rows conditioned on the given column values (coalescable, see
        :meth:`sample_rows`).
        """
        if conditions is not None:
            if n is None:
                raise ValueError("conditioned sampling requires an explicit n")
            return self.sample_rows(n, conditions=conditions, seed=seed)
        return self.sample_table(n, seed=seed)

    def stats(self) -> dict:
        """Serving counters, cache hit/miss totals and per-endpoint latency.

        ``latency`` maps each endpoint to the
        :meth:`~repro.serving.metrics.LatencyHistogram.snapshot` schema
        (``count``/``total_s``/``max_s`` plus cumulative bucket counts) —
        the same shape the HTTP server reports under ``/stats``, so both
        read paths share one decoder.
        """
        with self._stats_lock:
            out = dict(self._stats)
        out["degraded_fallbacks"] = self.executor.fallbacks.value
        out["cache_hits"] = self._cache.hits
        out["cache_misses"] = self._cache.misses
        out["cache_bytes_used"] = self._cache.bytes_used
        out["executor"] = self.config.executor
        out["latency"] = self.metrics.snapshot()
        out["counters"] = self.metrics.counters_snapshot()
        out["gauges"] = self.metrics.gauges_snapshot()
        out["peak_rss_bytes"] = process_peak_rss_bytes()
        if self.pool is not None:
            out["worker_restarts"] = self.pool.restarts
            out["pool"] = self.pool.stats()
        return out

    def readiness(self) -> tuple[bool, dict]:
        """Whether the service can take traffic now, plus why if it cannot.

        Distinct from liveness: a live process whose worker pool is held
        open by the crash-loop breaker (and configured to fail fast) is not
        ready.  In ``degraded_mode="serial"`` a degraded pool still serves
        — slower, in-process — so the service stays ready and reports the
        degradation instead.
        """
        info: dict = {"executor": self.config.executor}
        if self.pool is None:
            return True, info
        state = self.pool.breaker_state
        info["breaker_state"] = state
        if state != "open":
            return True, info
        info["degraded_mode"] = self.config.degraded_mode
        if self.config.degraded_mode == "serial":
            info["reason"] = "worker pool degraded; serving serially in-process"
            return True, info
        info["reason"] = "worker pool degraded; crash-loop breaker open"
        return False, info

    def _resolve_timeout(self, timeout_s: float | None) -> float | None:
        timeout_s = self.config.timeout_s if timeout_s is None else timeout_s
        if timeout_s is not None and timeout_s <= 0:
            raise ServingError("timeout_s must be positive")
        return timeout_s

    # -- whole-database sampling (multitable bundles) ----------------------------------

    def sample_database(self, n: int | dict | None = None,
                        seed: int | None = None,
                        timeout_s: float | None = None) -> dict:
        """A whole synthetic database from a loaded ``multitable`` bundle.

        The database is one work unit: on the process executor one worker
        samples it.  The per-table seeds are derived inside the synthesizer
        from the deterministic topological order, so every executor returns
        the identical database (same guarantee as :meth:`sample_table`).
        """
        self._require_multitable()
        seed = self.fitted.config.seed if seed is None else seed
        timeout_s = self._resolve_timeout(timeout_s)
        with self._stats_lock:
            self._stats["database_requests"] += 1
        self.metrics.counter("requests_total", endpoint="sample_database").increment()
        with self.metrics.histogram("sample_database").time(), \
                obs.span("service.sample_database", attrs={"seed": seed}) as sp:
            n_key = tuple(sorted(n.items())) if isinstance(n, dict) else n
            key = (self.digest, "database", n_key, seed)
            cached = self._cache.get(key)
            if cached is not None:
                sp.set_attr("cache_hit", True)
                return cached
            try:
                database, = self.executor.run("sample_database", [(n, seed)], timeout_s)
            except DeadlineExceeded:
                sp.add_event("deadline_exceeded")
                raise
            self._cache.put(key, database)
            return database

    # -- full-table sampling (block-sharded) -------------------------------------------

    def _blocks(self, n: int, seed: int) -> list[tuple[int, int, int]]:
        return block_plan(n, seed, self.config.block_size)

    def sample_table(self, n: int | None = None, seed: int | None = None,
                     timeout_s: float | None = None) -> Table:
        """The synthetic flat table for *n* subjects (defaults as in the pipeline).

        The request is partitioned into ``block_size`` blocks, each sampled
        with a seed derived from ``(seed, block index)`` — independent of
        worker count, so every ``shards`` setting produces the identical
        table.  *timeout_s* (default :attr:`ServingConfig.timeout_s`) is the
        request's deadline: on the process executor a worker stuck past it
        is killed, the inline executor stops at the next block boundary;
        either way the request fails with :class:`DeadlineExceeded`.
        """
        self._require_flat()
        n = self.fitted._resolve_n(n)
        seed = self.fitted.config.seed if seed is None else seed
        timeout_s = self._resolve_timeout(timeout_s)
        with self._stats_lock:
            self._stats["table_requests"] += 1
        self.metrics.counter("requests_total", endpoint="sample_table").increment()
        with self.metrics.histogram("sample_table").time(), \
                obs.span("service.sample_table", attrs={"n": n, "seed": seed}) as sp:
            key = (self.digest, "table", n, seed, self.config.block_size)
            cached = self._cache.get(key)
            if cached is not None:
                sp.set_attr("cache_hit", True)
                return cached
            blocks = self._blocks(n, seed)
            sp.set_attr("blocks", len(blocks))
            try:
                parts = self.executor.run("sample_block", blocks, timeout_s)
            except DeadlineExceeded:
                sp.add_event("deadline_exceeded")
                raise
            table = concat_rows(parts)
            self._cache.put(key, table)
            return table

    def iter_sample_table(self, n: int | None = None, seed: int | None = None,
                          timeout_s: float | None = None):
        """Yield the table of :meth:`sample_table` one block at a time.

        Blocks are the exact ``block_size`` partition that :meth:`sample_table`
        concatenates (same :func:`~repro.pipelines.base.block_plan`), so
        writing the yielded chunks in order reproduces the served table bit
        for bit while holding one block in memory.  The streaming path
        bypasses the result cache — its point is not to materialize the
        table.  Validation is eager.
        """
        self._require_flat()
        n = self.fitted._resolve_n(n)
        seed = self.fitted.config.seed if seed is None else seed
        timeout_s = self._resolve_timeout(timeout_s)
        blocks = self._blocks(n, seed)
        with self._stats_lock:
            self._stats["streamed_requests"] += 1
        self.metrics.counter("requests_total", endpoint="sample_table_stream").increment()
        # generator steps may run on other threads; pin the parent explicitly
        parent_ctx = obs.current_context()

        def chunks():
            for block in blocks:
                with obs.span("service.stream_block", parent=parent_ctx,
                              attrs={"start": block[0], "count": block[1]}):
                    part, = self.executor.run("sample_block", [block], timeout_s)
                with self._stats_lock:
                    self._stats["streamed_chunks"] += 1
                    self._stats["streamed_rows"] += part.num_rows
                yield part
        return chunks()

    # -- conditioned row sampling (coalesced) ------------------------------------------

    def _normalize_request(self, n: int, conditions: dict | None,
                           seed: int | None) -> RowRequest:
        synth = child_synthesizer(self.fitted)
        subject = self.fitted.subject_column
        allowed = [name for name in synth.training_columns if name != subject]
        conditions = dict(conditions or {})
        unknown = [name for name in conditions if name not in allowed]
        if unknown:
            raise ServingError(
                "unknown condition columns {}; conditionable columns are {}".format(
                    unknown, allowed))
        seed = self.fitted.config.seed if seed is None else seed
        pinned = tuple(sorted(conditions.items(), key=lambda item: item[0]))
        return RowRequest(n=n, conditions=pinned, seed=seed)

    def sample_rows(self, n: int, conditions: dict | None = None,
                    seed: int | None = None,
                    timeout_s: float | None = None) -> Table:
        """Sample *n* conditioned child rows (original label space).

        Concurrent callers are coalesced into one batched engine pass; the
        result only depends on ``(bundle, n, conditions, seed)``.  Deadlines
        apply at batch granularity: the coalesced pass runs under the
        smallest timeout of its members, so a missed deadline fails every
        request batched with it (all are retryable).
        """
        self.metrics.counter("requests_total", endpoint="sample_rows").increment()
        with self.metrics.histogram("sample_rows").time(), \
                obs.span("service.sample_rows",
                         attrs={"n": n, "conditions": len(conditions or {})}) as sp:
            try:
                return self._sample_rows_timed(n, conditions, seed, timeout_s)
            except DeadlineExceeded:
                sp.add_event("deadline_exceeded")
                raise

    def _sample_rows_timed(self, n: int, conditions: dict | None,
                           seed: int | None, timeout_s: float | None = None) -> Table:
        request = self._normalize_request(n, conditions, seed)
        timeout_s = self._resolve_timeout(timeout_s)
        key = (self.digest, "rows", request)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        entry = _PendingRequest(request, timeout_s=timeout_s)
        with self._batch_lock:
            self._pending.append(entry)
            leader = not self._draining
            if leader:
                self._draining = True
        if leader:
            if self.config.batch_window_s > 0:
                time.sleep(self.config.batch_window_s)
            with self._batch_lock:
                batch, self._pending = self._pending, []
                self._draining = False
            timeouts = [e.timeout_s for e in batch if e.timeout_s is not None]
            batch_timeout = min(timeouts) if timeouts else None
            try:
                results = self.sample_rows_many([e.request for e in batch],
                                                timeout_s=batch_timeout)
            except BaseException as error:  # propagate to every waiter
                for waiter in batch:
                    waiter.error = error
                    waiter.event.set()
                raise
            for waiter, result in zip(batch, results):
                waiter.result = result
                waiter.event.set()
        entry.event.wait()
        if entry.error is not None:
            raise entry.error
        self._cache.put(key, entry.result)
        return entry.result

    def sample_rows_many(self, requests: list[RowRequest],
                         timeout_s: float | None = None) -> list[Table]:
        """Serve a batch of row requests as one work unit (one merged engine
        pass per column, see :func:`sample_rows_batch`); on the process
        executor the whole batch goes to one worker."""
        if not requests:
            return []
        with self._stats_lock:
            self._stats["row_requests"] += len(requests)
            self._stats["coalesced_batches"] += 1
            self._stats["coalesced_requests_max"] = max(
                self._stats["coalesced_requests_max"], len(requests))
        tables, = self.executor.run("sample_rows_many", [list(requests)], timeout_s)
        return tables
