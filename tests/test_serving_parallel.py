"""Tests for process-parallel serving: worker pool, HTTP front end, metrics.

The properties under test mirror the serving guarantees:

* process-pool and inline execution are bit-identical on both
  engines (the per-block seeds make output independent of where it runs);
* the bounded request queue rejects requests past the bound with 429 and
  loses none under it;
* conditioned row requests coalesce across HTTP connections and still
  equal their solo results;
* a crashed worker fails its requests with a clear error while the pool
  keeps serving;
* the latency metrics schema is identical in-process and over ``/stats``.
"""

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.connecting.connector import ConnectorConfig
from repro.enhancement.enhancer import EnhancerConfig
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.serving import (
    ArtifactSource,
    LatencyHistogram,
    MetricsRegistry,
    ServingConfig,
    ServingError,
    SynthesisService,
    SynthesisServer,
    WorkerPool,
    request_json,
)
from repro.serving.server import table_payload
from repro.serving.workers import decode_table, encode_table
from repro.store.bundle import load_fitted_pipeline


def _config(seed=0, engine="auto"):
    return PipelineConfig(
        seed=seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="understandability", seed=seed),
        connector=ConnectorConfig(independence_method="threshold_mean",
                                  remove_noisy_columns=False),
        generation_engine=engine,
        training_engine=engine,
    )


@pytest.fixture(scope="module")
def trial(tiny_digix):
    return tiny_digix.trials()[0]


@pytest.fixture(scope="module", params=["object", "compiled"])
def engine_bundle(request, trial, tmp_path_factory):
    """A fitted GReaTER bundle per engine; tests get (engine, path)."""
    engine = request.param
    fitted = GReaTERPipeline(_config(engine=engine)).fit(trial.ads, trial.feeds)
    path = tmp_path_factory.mktemp("bundles") / "greater-{}".format(engine)
    fitted.save(path)
    return engine, path


@pytest.fixture(scope="module")
def bundle(trial, tmp_path_factory):
    fitted = GReaTERPipeline(_config(engine="compiled")).fit(trial.ads, trial.feeds)
    path = tmp_path_factory.mktemp("bundles") / "greater"
    fitted.save(path)
    return path


@contextmanager
def _service(path, **overrides):
    config = ServingConfig(**{"cache_bytes": 0, **overrides})
    service = SynthesisService.from_bundle(path, config)
    try:
        yield service
    finally:
        service.close()


@contextmanager
def _running_server(service, max_queue=8):
    """Run a SynthesisServer on a background event loop; yields the server."""
    server = SynthesisServer(service, max_queue=max_queue)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()
        loop.run_until_complete(server.stop())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server did not start"
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)


class TestProcessPoolIdentity:
    def test_process_thread_serial_bit_identical(self, engine_bundle):
        """The tentpole guarantee on both engines: a table sampled inline on
        the request thread and on 1 or 2 worker processes is the same table,
        bit for bit."""
        engine, path = engine_bundle
        with _service(path, shards=1, block_size=4) as serial:
            reference = serial.sample_table(11, seed=9)
        for workers in (1, 2):
            with _service(path, shards=workers, block_size=4,
                          executor="process") as pooled:
                assert pooled.sample_table(11, seed=9) == reference

    def test_worker_counts_are_bit_identical(self, bundle):
        tables = []
        for workers in (1, 2, 4):
            with _service(bundle, shards=workers, block_size=4,
                          executor="process") as service:
                tables.append(service.sample_table(10, seed=3))
        assert tables[0] == tables[1] == tables[2]

    def test_process_rows_match_serial(self, bundle):
        with _service(bundle, shards=1) as serial:
            expected = serial.sample_rows(5, {"gender": 1}, seed=7)
        with _service(bundle, shards=2, executor="process") as pooled:
            assert pooled.sample_rows(5, {"gender": 1}, seed=7) == expected

    def test_process_executor_requires_bundle(self, bundle):
        fitted, _ = load_fitted_pipeline(bundle)
        with pytest.raises(ServingError):
            SynthesisService(fitted, ServingConfig(executor="process"))

    def test_mmap_process_serving_identical(self, bundle):
        with _service(bundle, shards=1, block_size=4) as serial:
            expected = serial.sample_table(8, seed=2)
        with _service(bundle, shards=2, block_size=4, executor="process",
                      mmap=True) as pooled:
            assert pooled.sample_table(8, seed=2) == expected

    def test_digest_mismatch_rejected(self, bundle):
        with pytest.raises(ServingError):
            WorkerPool(ArtifactSource(str(bundle)), ServingConfig(executor="process"),
                       expected_digest="0" * 64)

    def test_table_round_trips_through_wire_format(self, bundle):
        with _service(bundle, shards=1) as service:
            table = service.sample_table(5, seed=1)
        assert decode_table(encode_table(table)) == table


class TestWorkerCrash:
    def test_crash_fails_clearly_and_pool_keeps_serving(self, bundle):
        with _service(bundle, shards=2, block_size=4, executor="process") as service:
            expected = None
            with _service(bundle, shards=1, block_size=4) as serial:
                expected = serial.sample_table(9, seed=4)
            task = service.pool.submit("crash", None)
            with pytest.raises(ServingError, match="died"):
                task.result(timeout=30)
            deadline = time.time() + 30
            while service.pool.restarts < 1 and time.time() < deadline:
                time.sleep(0.05)
            assert service.pool.restarts >= 1
            assert service.sample_table(9, seed=4) == expected
            assert service.stats()["worker_restarts"] >= 1

    def test_closed_pool_rejects_submissions(self, bundle):
        def pool_threads():
            return [thread for thread in threading.enumerate()
                    if thread.name.startswith("workerpool-") and thread not in before]

        before = set(threading.enumerate())
        service = SynthesisService.from_bundle(
            bundle, ServingConfig(executor="process", cache_bytes=0))
        assert [thread.name for thread in pool_threads()] == ["workerpool-supervisor"]
        service.close()
        assert pool_threads() == []
        with pytest.raises(ServingError):
            service.pool.submit("ping", None)


class TestHttpServer:
    def test_endpoints_and_identity(self, bundle):
        with _service(bundle, block_size=4) as service, \
                _running_server(service) as server:
            status, health = request_json(server.host, server.port, "GET", "/healthz")
            assert status == 200 and health["ok"] and health["digest"] == service.digest
            status, got = request_json(server.host, server.port, "POST",
                                       "/sample_table", {"n": 8, "seed": 3})
            assert status == 200
            assert got == table_payload(service.sample_table(8, seed=3))
            status, rows = request_json(server.host, server.port, "POST",
                                        "/sample_rows",
                                        {"n": 3, "seed": 5, "conditions": {"gender": 1}})
            assert status == 200
            assert rows == table_payload(service.sample_rows(3, {"gender": 1}, seed=5))

    def test_http_errors(self, bundle):
        with _service(bundle) as service, _running_server(service) as server:
            assert request_json(server.host, server.port, "POST", "/nope", {})[0] == 404
            assert request_json(server.host, server.port, "GET", "/sample_table")[0] == 405
            status, body = request_json(server.host, server.port, "POST",
                                        "/sample_rows", {"n": 3,
                                                         "conditions": {"martian": 1}})
            assert status == 400 and "martian" in body["error"]
            status, _ = request_json(server.host, server.port, "POST",
                                     "/sample_database", {})
            assert status == 400  # flat bundle cannot serve databases

    def test_backpressure_rejects_past_bound_loses_none_under_it(self, bundle):
        with _service(bundle, block_size=4) as service, \
                _running_server(service, max_queue=2) as server:
            # under the bound: all requests succeed, none lost
            def one(index):
                return request_json(server.host, server.port, "POST",
                                    "/sample_table", {"n": 6, "seed": index},
                                    timeout=120)
            with ThreadPoolExecutor(max_workers=2) as pool:
                outcomes = list(pool.map(one, range(4)))
            assert [status for status, _ in outcomes] == [200] * 4
            # past the bound: the overflow is rejected with 429, the rest serve
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(one, range(100, 108)))
            codes = sorted(status for status, _ in outcomes)
            assert 429 in codes and 200 in codes
            assert all(code in (200, 429) for code in codes)
            rejected = [body for status, body in outcomes if status == 429]
            assert all(body["max_queue"] == 2 for body in rejected)
            stats = server.stats()["server"]
            assert stats["rejected"] == len(rejected)
            assert stats["queue_high_water"] <= 2

    def test_rows_coalesce_across_connections_and_match_solo(self, bundle):
        # the last request conditions another column, so a merged batch
        # mixes lanes that fix a column with lanes that draw it
        inputs = [{"n": 4, "seed": 100 + index, "conditions": {"gender": 1}}
                  for index in range(5)]
        inputs.append({"n": 3, "seed": 105, "conditions": {"age": 4}})
        with _service(bundle, batch_window_s=0.05) as service, \
                _running_server(service) as server:
            def one(body):
                return request_json(server.host, server.port, "POST",
                                    "/sample_rows", body, timeout=120)
            with ThreadPoolExecutor(max_workers=len(inputs)) as pool:
                outcomes = list(pool.map(one, inputs))
            assert all(status == 200 for status, _ in outcomes)
            stats = service.stats()
            assert stats["row_requests"] == len(inputs)
            assert stats["coalesced_batches"] < len(inputs)  # at least one merged drain
            with _service(bundle) as solo:
                for body, (_, got) in zip(inputs, outcomes):
                    expected = solo.sample_rows(body["n"], body["conditions"],
                                                seed=body["seed"])
                    assert got == table_payload(expected)

    def test_process_backed_server(self, bundle):
        with _service(bundle, shards=2, block_size=4, executor="process") as service, \
                _running_server(service) as server:
            status, got = request_json(server.host, server.port, "POST",
                                       "/sample_table", {"n": 8, "seed": 3})
            assert status == 200
            with _service(bundle, block_size=4) as serial:
                assert got == table_payload(serial.sample_table(8, seed=3))


class TestLatencyMetrics:
    def test_histogram_accumulates_and_buckets(self):
        histogram = LatencyHistogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["max_s"] == 5.0
        assert snapshot["total_s"] == pytest.approx(5.555)
        assert snapshot["cumulative_counts"] == [1, 2, 3, 4]
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(1.0) == 5.0

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.snapshot()["count"] == 0

    def test_registry_reuses_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("a").observe(0.2)
        registry.histogram("a").observe(0.3)
        assert registry.snapshot()["a"]["count"] == 2

    def test_service_and_server_report_same_schema(self, bundle):
        with _service(bundle) as service, _running_server(service) as server:
            service.sample_table(4, seed=1)
            local = service.stats()
            status, remote = request_json(server.host, server.port, "GET", "/stats")
            assert status == 200
            assert set(remote) == set(local) | {"server"}
            for endpoint, histogram in local["latency"].items():
                assert set(remote["latency"][endpoint]) == set(histogram)
            # JSON round-trip of the whole stats payload is lossless
            assert json.loads(json.dumps(local)) == json.loads(json.dumps(local))

    def test_latency_recorded_per_endpoint(self, bundle):
        with _service(bundle) as service:
            service.sample_table(4, seed=1)
            service.sample_rows(2, {}, seed=1)
            latency = service.stats()["latency"]
            assert latency["sample_table"]["count"] == 1
            assert latency["sample_rows"]["count"] == 1
            assert latency["sample_table"]["total_s"] > 0


class TestServeCli:
    def test_serve_and_client_round_trip(self, bundle, tmp_path, capsys):
        ready = tmp_path / "ready.txt"
        outcome = {}

        def run_serve():
            outcome["code"] = main([
                "serve", "--bundle", str(bundle), "--block-size", "4",
                "--ready-file", str(ready), "--max-seconds", "15", "--json"])

        thread = threading.Thread(target=run_serve, daemon=True)
        thread.start()
        deadline = time.time() + 10
        while not ready.exists() and time.time() < deadline:
            time.sleep(0.05)
        assert ready.exists(), "server never published its port"
        host, port = ready.read_text().split()
        status, health = request_json(host, int(port), "GET", "/healthz")
        assert status == 200 and health["ok"]
        status, table = request_json(host, int(port), "POST",
                                     "/sample_table", {"n": 4, "seed": 2})
        assert status == 200 and len(table["rows"]) > 0
        thread.join(timeout=30)
        assert outcome["code"] == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["command"] == "serve"
        assert rows[0]["table_requests"] == 1

    def test_client_against_running_server(self, bundle, capsys):
        with _service(bundle, block_size=4) as service, \
                _running_server(service) as server:
            port = str(server.port)
            assert main(["client", "health", "--port", port, "--json"]) == 0
            health = json.loads(capsys.readouterr().out)
            assert health[0]["ok"] is True
            assert main(["client", "table", "--port", port, "--n", "4",
                         "--seed", "2", "--json"]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert rows == table_payload(service.sample_table(4, seed=2))["rows"]
            assert main(["client", "stats", "--port", port, "--json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats[0]["sample_table_count"] >= 1

    def test_client_reports_unreachable_server(self):
        with pytest.raises(SystemExit):
            main(["client", "health", "--port", "1", "--timeout", "1"])

    def test_list_includes_serve_commands(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "serve" in output and "client" in output
