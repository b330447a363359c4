"""Tests for the observability plane: tracer, schema, metrics, HTTP surface.

The properties under test mirror the observability guarantees:

* disabled tracing is a no-op (the default) and enabling it never changes
  sampled output;
* spans nest through the context variable, cross executor threads via
  ``contextvars.copy_context()`` and cross worker processes via explicit
  ``(trace_id, span_id, submitted_us)`` frames — one HTTP request against
  a crashing process pool yields a single stitched trace tree containing
  the server span, queue wait, the failed attempt, the retry and the
  per-chunk generation spans;
* the number of ``pool.retry`` spans equals the pool's ``tasks_retried``
  counter, and a request killed by its deadline carries a
  ``deadline_exceeded`` event;
* the span schema is closed (no unknown keys, IDs resolve, events are
  monotonic) and every emitted span passes it;
* the labeled metrics registry renders identically into JSON ``/stats``
  and Prometheus ``/metrics``, and histogram quantiles interpolate within
  their bucket instead of reporting the bare upper bound;
* the server honors ``X-Request-Id``, emits one structured access-log
  line per request, and exposes the ring buffer at ``GET /trace``.
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro import faults
from repro.cli import main
from repro.connecting.connector import ConnectorConfig
from repro.enhancement.enhancer import EnhancerConfig
from repro.obs import trace as obs
from repro.obs.prom import CONTENT_TYPE, prometheus_text
from repro.obs.schema import validate_lines, validate_span
from repro.obs.view import summary_rows, tree_rows
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.serving import (
    ArtifactSource,
    LatencyHistogram,
    MetricsRegistry,
    ServingConfig,
    SynthesisServer,
    SynthesisService,
    WorkerPool,
)
from repro.serving.service import DeadlineExceeded


@pytest.fixture(autouse=True)
def _tracing_disabled_after():
    """Tests arm the process-global tracer; never leak it across tests."""
    yield
    obs.disable()
    faults.disarm()


def _config(seed=0):
    return PipelineConfig(
        seed=seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="understandability", seed=seed),
        connector=ConnectorConfig(independence_method="threshold_mean",
                                  remove_noisy_columns=False),
        generation_engine="compiled",
        training_engine="compiled",
    )


@pytest.fixture(scope="module")
def bundle(tiny_digix, tmp_path_factory):
    trial = tiny_digix.trials()[0]
    fitted = GReaTERPipeline(_config()).fit(trial.ads, trial.feeds)
    path = tmp_path_factory.mktemp("bundles") / "greater"
    fitted.save(path)
    return path


class _RunningServer:
    """Run a SynthesisServer on a background event loop."""

    def __init__(self, service, max_queue=8):
        self.server = SynthesisServer(service, max_queue=max_queue)
        self._loop = asyncio.new_event_loop()
        self._thread = None

    def __enter__(self):
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            started.set()
            self._loop.run_forever()
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert started.wait(10), "server did not start"
        return self.server

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        return False


def _http(port, method, path, payload=None, headers=None):
    """Raw client that also returns the response headers."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json",
                                    **(headers or {})})
        response = connection.getresponse()
        raw = response.read().decode("utf-8")
        return (response.status, json.loads(raw) if raw else None,
                dict(response.getheaders()))
    finally:
        connection.close()


class TestTracerCore:
    def test_disabled_is_noop(self):
        assert not obs.enabled()
        assert obs.span("anything") is obs.NULL_SPAN
        assert obs.current_context() is None
        with obs.span("nested", attrs={"k": 1}) as sp:
            sp.set_attr("x", 2)
            sp.add_event("boom")
        obs.emit_span("late", None, 0, 5)
        assert obs.ring_snapshot() is None

    def test_nesting_links_parent_and_trace(self):
        sink = obs.configure("ring:64")
        with obs.span("outer") as outer:
            assert obs.current_context() == (outer.trace_id, outer.span_id)
            with obs.span("inner") as inner:
                pass
        records = {r["name"]: r for r in sink.snapshot()["spans"]}
        assert records["inner"]["trace_id"] == records["outer"]["trace_id"]
        assert records["inner"]["parent_id"] == records["outer"]["span_id"]
        assert records["outer"]["parent_id"] is None
        assert inner.trace_id == outer.trace_id

    def test_exception_marks_error_with_event(self):
        sink = obs.configure("ring:64")
        with pytest.raises(ValueError):
            with obs.span("broken"):
                raise ValueError("kaput")
        record = sink.snapshot()["spans"][0]
        assert record["status"] == "error"
        event = record["events"][0]
        assert event["name"] == "error"
        assert event["attrs"] == {"type": "ValueError", "message": "kaput"}
        assert validate_span(record) == []

    def test_file_sink_emits_schema_valid_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(str(path))
        with obs.span("a", attrs={"n": 3}):
            with obs.span("b"):
                pass
        obs.disable()  # closes the file descriptor
        spans = list(obs.iter_trace_lines(str(path)))
        assert [s["name"] for s in spans] == ["b", "a"]  # finish order
        assert validate_lines(spans) == []

    def test_ring_caps_and_counts_drops(self):
        obs.configure("ring:4")
        for index in range(10):
            with obs.span("s{}".format(index)):
                pass
        snapshot = obs.ring_snapshot()
        assert snapshot["capacity"] == 4
        assert snapshot["emitted"] == 10
        assert snapshot["dropped"] == 6
        assert [s["name"] for s in snapshot["spans"]] == ["s6", "s7", "s8", "s9"]

    def test_sink_spec_parsing_rejects_garbage(self):
        assert obs.parse_sink_spec("stderr") == ("stderr", None)
        assert obs.parse_sink_spec("ring:9") == ("ring", 9)
        assert obs.parse_sink_spec("/tmp/x.jsonl") == ("file", "/tmp/x.jsonl")
        with pytest.raises(ValueError):
            obs.parse_sink_spec("ring:zero")
        with pytest.raises(ValueError):
            obs.parse_sink_spec("ring:0")
        with pytest.raises(ValueError):
            obs.parse_sink_spec("  ")

    def test_serving_config_validates_trace_spec(self):
        with pytest.raises(ValueError):
            ServingConfig(trace="ring:banana")

    def test_schema_rejects_unknown_and_missing_keys(self):
        obs.configure("ring:8")
        with obs.span("ok"):
            pass
        record = dict(obs.ring_snapshot()["spans"][0])
        assert validate_span(record) == []
        extra = dict(record, surprise=1)
        assert any("surprise" in error for error in validate_span(extra))
        missing = {k: v for k, v in record.items() if k != "pid"}
        assert validate_span(missing)


class TestQuantileInterpolation:
    def test_mid_bucket_interpolates(self):
        histogram = LatencyHistogram(buckets=(0.1, 0.2))
        for _ in range(10):
            histogram.observe(0.15)
        # all mass in (0.1, 0.2]: p50 sits mid-bucket, not at the 0.2 bound
        assert histogram.quantile(0.5) == pytest.approx(0.15)
        assert histogram.quantile(0.1) == pytest.approx(0.11)
        assert histogram.quantile(1.0) == pytest.approx(0.2)

    def test_overflow_bucket_reports_max(self):
        histogram = LatencyHistogram(buckets=(0.1,))
        histogram.observe(0.05)
        histogram.observe(7.0)
        assert histogram.quantile(1.0) == 7.0
        # rank 1 of 1 in (0, 0.1]: interpolation reaches the bucket edge
        assert histogram.quantile(0.0) == pytest.approx(0.1)

    def test_empty_is_zero(self):
        assert LatencyHistogram().quantile(0.5) == 0.0


class TestMetricsRegistry:
    def test_labeled_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", endpoint="sample_table").increment()
        registry.counter("requests_total", endpoint="sample_table").increment()
        registry.counter("requests_total", endpoint="sample_rows").increment()
        registry.gauge("rss_bytes", worker="0").set_max(100)
        registry.gauge("rss_bytes", worker="0").set_max(50)  # keeps the peak
        counters = registry.counters_snapshot()
        assert counters['requests_total{endpoint="sample_table"}'] == 2
        assert counters['requests_total{endpoint="sample_rows"}'] == 1
        assert registry.gauges_snapshot()['rss_bytes{worker="0"}'] == 100.0

    def test_prometheus_text_rendering(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", endpoint="sample_table").increment(3)
        registry.gauge("in_flight").set(2)
        with registry.histogram("sample_table").time():
            pass
        text = prometheus_text(registry, extra_stats={
            "server": {"accepted": 5, "draining": False}, "latency": {"x": 1}})
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="sample_table"} 3' in text
        assert "# TYPE repro_in_flight gauge" in text
        assert "# TYPE repro_latency_seconds histogram" in text
        assert 'repro_latency_seconds_bucket{endpoint="sample_table",le="+Inf"} 1' in text
        assert 'repro_latency_seconds_count{endpoint="sample_table"} 1' in text
        assert "repro_server_accepted 5" in text
        assert "repro_server_draining 0" in text
        assert "repro_latency_x" not in text  # histograms ride the native series
        assert text.endswith("\n")
        assert CONTENT_TYPE.startswith("text/plain")


class TestStageSpans:
    def test_sample_table_emits_stage_spans(self, bundle):
        sink = obs.configure("ring:4096")
        with SynthesisService.from_bundle(bundle, ServingConfig(
                shards=1, block_size=2, cache_bytes=0)) as service:
            traced = service.sample_table(6, seed=5)
        spans = sink.snapshot()["spans"]
        names = {span["name"] for span in spans}
        assert {"service.sample_table", "stage.generate", "stage.decode"} <= names
        assert validate_lines(spans) == []
        service_span = next(s for s in spans if s["name"] == "service.sample_table")
        stage = next(s for s in spans if s["name"] == "stage.generate")
        assert stage["trace_id"] == service_span["trace_id"]
        obs.disable()
        with SynthesisService.from_bundle(bundle, ServingConfig(
                shards=1, block_size=2, cache_bytes=0)) as service:
            assert service.sample_table(6, seed=5) == traced

    def test_counters_in_stats(self, bundle):
        with SynthesisService.from_bundle(bundle, ServingConfig(
                cache_bytes=0)) as service:
            service.sample_table(4, seed=1)
            service.sample_rows(3, seed=2)
            stats = service.stats()
        assert stats["counters"]['requests_total{endpoint="sample_table"}'] == 1
        assert stats["counters"]['requests_total{endpoint="sample_rows"}'] == 1


class TestProcessPoolTracing:
    def test_crash_retry_trace_is_one_stitched_tree(self, bundle, tmp_path):
        """The acceptance criterion: one HTTP request against a 4-worker pool
        with a worker-crash fault produces a single trace tree with the
        server span, queue wait, failed attempt, retry and per-chunk
        generation spans.  (``@2`` rather than ``@1``: fault counters are
        per worker life, so ``@1`` would crash every respawn's first task
        and no attempt could ever succeed.)"""
        trace_path = tmp_path / "trace.jsonl"
        obs.configure(str(trace_path))
        with SynthesisService.from_bundle(bundle, ServingConfig(
                shards=4, block_size=1, cache_bytes=0, executor="process",
                retries=5, retry_backoff_s=0.01, breaker_threshold=0,
                faults="worker_crash@2")) as service:
            with _RunningServer(service) as server:
                status, body, headers = _http(
                    server.port, "POST", "/sample_table", {"n": 6, "seed": 3})
        obs.disable()
        assert status == 200
        assert body["rows"]
        spans = list(obs.iter_trace_lines(str(trace_path)))
        assert validate_lines(spans) == []
        request_spans = [s for s in spans if s["name"] == "server.request"]
        assert len(request_spans) == 1
        trace_id = request_spans[0]["trace_id"]
        assert headers["X-Request-Id"] == request_spans[0]["attrs"]["request_id"]
        in_trace = {s["name"] for s in spans if s["trace_id"] == trace_id}
        assert {"server.request", "server.queue_wait", "service.sample_table",
                "pool.queue_wait", "worker.task", "stage.generate",
                "pool.attempt_failed", "pool.retry"} <= in_trace
        # every span of the request belongs to the one tree
        assert {s["trace_id"] for s in spans
                if s["name"].startswith(("pool.", "worker.", "stage.",
                                         "server.", "service."))} == {trace_id}
        worker_pids = {s["pid"] for s in spans if s["name"] == "worker.task"}
        assert worker_pids and request_spans[0]["pid"] not in worker_pids

        rows = tree_rows(spans, trace_id=trace_id)
        assert rows[0]["span"] == "server.request"
        assert any(row["span"].strip() == "pool.retry" for row in rows)
        summary = {row["span"] for row in summary_rows(spans)}
        assert "worker.task" in summary

        assert main(["trace", "tree", str(trace_path),
                     "--trace-id", trace_id[:8]]) == 0
        assert main(["trace", "summary", str(trace_path)]) == 0
        assert main(["trace", "slow", str(trace_path), "--top", "3"]) == 0

    def test_retry_span_count_equals_retried_counter(self, bundle):
        sink = obs.configure("ring:65536")
        metrics = MetricsRegistry()
        pool = WorkerPool(ArtifactSource(str(bundle)), ServingConfig(
            executor="process", shards=2, retries=5, retry_backoff_s=0.01,
            breaker_threshold=0, faults="worker_crash%7"), metrics=metrics)
        try:
            with obs.span("test.batch"):
                pool.sample_blocks([(index, 1, 5000 + index)
                                    for index in range(30)])
            stats = pool.stats()
        finally:
            pool.close()
        spans = sink.snapshot()["spans"]
        retry_spans = [s for s in spans if s["name"] == "pool.retry"]
        assert stats["tasks_retried"] > 0
        assert len(retry_spans) == stats["tasks_retried"]
        counted = sum(value for name, value
                      in metrics.counters_snapshot().items()
                      if name.startswith("tasks_retried_total"))
        assert counted == stats["tasks_retried"]

    def test_deadline_trace_ends_with_deadline_event(self, bundle):
        sink = obs.configure("ring:4096")
        pool = WorkerPool(ArtifactSource(str(bundle)), ServingConfig(
            executor="process", retries=0, breaker_threshold=0, faults="task_hang@2=30"))
        try:
            with obs.span("test.deadline"):
                pool.sample_blocks([(0, 2, 77)])  # warm-up, fault fires next
                with pytest.raises(DeadlineExceeded):
                    task = pool.submit("ping", None, deadline_s=0.4)
                    task.result()
        finally:
            pool.close()
        spans = sink.snapshot()["spans"]
        deadline_spans = [s for s in spans if s["name"] == "pool.deadline"]
        assert len(deadline_spans) == 1
        assert deadline_spans[0]["status"] == "error"
        assert [e["name"] for e in deadline_spans[0]["events"]] == ["deadline_exceeded"]

    def test_worker_peak_rss_in_stats(self, bundle):
        with SynthesisService.from_bundle(bundle, ServingConfig(
                shards=2, block_size=2, cache_bytes=0,
                executor="process")) as service:
            service.sample_table(6, seed=1)
            stats = service.stats()
        rss = stats["pool"]["worker_peak_rss_bytes"]
        assert set(rss) == {"0", "1"}
        assert all(value > 0 for value in rss.values())
        assert stats["pool"]["max_worker_peak_rss_bytes"] == max(rss.values())


class TestHttpSurface:
    def test_request_id_honored_and_access_logged(self, bundle, capfd):
        with SynthesisService.from_bundle(bundle, ServingConfig(
                cache_bytes=0)) as service:
            with _RunningServer(service) as server:
                status, _, headers = _http(
                    server.port, "POST", "/sample_table", {"n": 2},
                    headers={"X-Request-Id": "feedfacefeedface"})
                assert status == 200
                assert headers["X-Request-Id"] == "feedfacefeedface"
                # unusable ids (spaces, punctuation) are replaced, not echoed
                _, _, generated = _http(
                    server.port, "GET", "/healthz",
                    headers={"X-Request-Id": "not a valid id!!"})
                assert generated["X-Request-Id"] != "not a valid id!!"
        captured = capfd.readouterr().err
        access = [json.loads(line) for line in captured.splitlines()
                  if '"event": "access"' in line or '"event":"access"' in line]
        assert len(access) == 2
        first = access[0]
        assert first["method"] == "POST"
        assert first["path"] == "/sample_table"
        assert first["status"] == 200
        assert first["request_id"] == "feedfacefeedface"
        assert first["duration_ms"] >= 0

    def test_client_request_id_becomes_trace_id(self, bundle):
        sink = obs.configure("ring:4096")
        with SynthesisService.from_bundle(bundle, ServingConfig(
                cache_bytes=0)) as service:
            with _RunningServer(service) as server:
                status, _, _ = _http(server.port, "POST", "/sample_table",
                                     {"n": 2},
                                     headers={"X-Request-Id": "abcdef0123456789"})
        assert status == 200
        spans = sink.snapshot()["spans"]
        request_span = next(s for s in spans if s["name"] == "server.request")
        assert request_span["trace_id"] == "abcdef0123456789"

    def test_metrics_endpoint_serves_prometheus_text(self, bundle):
        with SynthesisService.from_bundle(bundle, ServingConfig(
                cache_bytes=0)) as service:
            with _RunningServer(service) as server:
                _http(server.port, "POST", "/sample_table", {"n": 2})
                connection = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=60)
                try:
                    connection.request("GET", "/metrics")
                    response = connection.getresponse()
                    text = response.read().decode("utf-8")
                    content_type = response.getheader("Content-Type")
                finally:
                    connection.close()
        assert response.status == 200
        assert content_type == CONTENT_TYPE
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="sample_table"} 1' in text
        assert 'repro_http_requests_total{path="/sample_table",status="200"} 1' in text
        assert "repro_server_accepted" in text

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_engine_counters_reach_metrics(self, bundle, executor):
        """Guided-scoring counters reach ``/metrics`` from either executor,
        and a repeated request is scored from the warm memo."""
        def scrape(port):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                connection.request("GET", "/metrics")
                text = connection.getresponse().read().decode("utf-8")
            finally:
                connection.close()
            return {line.split()[0]: float(line.split()[1])
                    for line in text.splitlines() if line.startswith("repro_engine_")}

        with SynthesisService.from_bundle(bundle, ServingConfig(
                executor=executor, cache_bytes=0)) as service:
            with _RunningServer(service) as server:
                scrapes = []
                for _ in range(2):
                    status, _, _ = _http(server.port, "POST", "/sample_table",
                                         {"n": 4, "seed": 11})
                    assert status == 200
                    scrapes.append(scrape(server.port))
        first, second = scrapes
        assert set(second) == {"repro_engine_{}_total".format(name) for name in
                               ("lanes", "distinct_contexts", "candidates_scored",
                                "memo_hits", "memo_misses")}
        assert second["repro_engine_memo_hits_total"] > first.get(
            "repro_engine_memo_hits_total", 0)
        # the repeat meets only contexts the first request already scored
        assert second["repro_engine_memo_misses_total"] == first["repro_engine_memo_misses_total"]
        assert second["repro_engine_lanes_total"] == 2 * first["repro_engine_lanes_total"]
        assert first["repro_engine_distinct_contexts_total"] == (
            first.get("repro_engine_memo_hits_total", 0)
            + first["repro_engine_memo_misses_total"])

    def test_trace_endpoint_requires_ring(self, bundle):
        with SynthesisService.from_bundle(bundle, ServingConfig(
                cache_bytes=0)) as service:
            with _RunningServer(service) as server:
                status, body, _ = _http(server.port, "GET", "/trace")
                assert status == 404
                assert "ring" in body["error"]
                obs.configure("ring:128")
                _http(server.port, "POST", "/sample_table", {"n": 2})
                status, body, _ = _http(server.port, "GET", "/trace")
        assert status == 200
        assert body["capacity"] == 128
        assert any(span["name"] == "server.request" for span in body["spans"])
        assert validate_lines(body["spans"]) == []

    def test_stats_parity_includes_counters(self, bundle):
        from repro.serving import request_json

        with SynthesisService.from_bundle(bundle, ServingConfig(
                cache_bytes=0)) as service:
            with _RunningServer(service) as server:
                service.sample_table(2, seed=1)
                status, remote = request_json("127.0.0.1", server.port,
                                              "GET", "/stats")
            local = service.stats()
        assert status == 200
        assert set(remote) == set(local) | {"server"}
        # the /stats request itself lands in http_requests_total after the
        # remote snapshot was cut; every series present remotely must match
        assert remote["counters"]
        assert all(local["counters"][name] == value
                   for name, value in remote["counters"].items())
