"""Synthesis serving layer (the serve-many half of train-once / serve-many).

:class:`SynthesisService` loads a fitted-pipeline bundle once (see
:mod:`repro.store`) and answers ``sample(n, seed, conditions)`` requests:
block-sharded full-table sampling that is bit-identical across worker
counts, coalesced conditioned-row sampling that merges concurrent requests
into one batched engine pass, whole-database sampling from ``multitable``
bundles (identical on every executor), and an LRU result
cache keyed by ``(bundle digest, request)`` and bounded by approximate
result bytes.

Every request runs as deterministic work units on the service's one
executor — inline in the calling thread, or on a process
:class:`~repro.serving.workers.WorkerPool` whose workers open the same
:class:`~repro.serving.service.ArtifactSource`
(``ServingConfig(executor="process")``).  Around the service sit the
asyncio HTTP front end
:class:`~repro.serving.server.SynthesisServer` with bounded-queue
backpressure, and the :mod:`~repro.serving.metrics` latency histograms both
read paths report in one schema.

The heavy modules (server, workers) resolve lazily so importing the
service does not pull in asyncio/multiprocessing plumbing.
"""

from repro.serving.metrics import (LATENCY_BUCKETS_S, Gauge, LatencyHistogram,
                                   MetricsRegistry)
from repro.serving.service import (
    ArtifactSource,
    DeadlineExceeded,
    LruCache,
    PoolDegraded,
    RowRequest,
    ServingConfig,
    ServingError,
    SynthesisService,
    approx_result_bytes,
    approx_table_bytes,
    derive_seed,
    process_peak_rss_bytes,
)

_LAZY = {
    "IncompleteStream": "repro.serving.server",
    "SynthesisServer": "repro.serving.server",
    "request_json": "repro.serving.server",
    "request_json_stream": "repro.serving.server",
    "run_server": "repro.serving.server",
    "table_payload": "repro.serving.server",
    "WorkerPool": "repro.serving.workers",
}

__all__ = sorted([
    "ArtifactSource",
    "LATENCY_BUCKETS_S",
    "Gauge",
    "LatencyHistogram",
    "LruCache",
    "DeadlineExceeded",
    "MetricsRegistry",
    "PoolDegraded",
    "RowRequest",
    "ServingConfig",
    "ServingError",
    "SynthesisService",
    "approx_result_bytes",
    "approx_table_bytes",
    "derive_seed",
    "process_peak_rss_bytes",
] + list(_LAZY))


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    from importlib import import_module

    return getattr(import_module(module_name), name)
