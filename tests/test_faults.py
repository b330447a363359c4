"""Fault-injection tests: every failure path the resilience layer owns.

The properties under test mirror the failure model (see the README's
"Failure model & operations"):

* fault plans parse deterministically and fire on exact hit numbers;
* a worker crash mid-batch costs retries, not the request: with retries on,
  a scripted crash storm completes with zero client-visible failures and a
  table bit-identical to the fault-free run;
* external ``kill -9`` of random workers while results stream back costs
  retries, not requests, and leaves the output byte-identical;
* a worker that dies halfway through writing a result frame costs that one
  task a retry and no other task any of its budget;
* a wedged task misses its ``timeout_s`` deadline, fails with
  :class:`DeadlineExceeded` (HTTP 503, ``type: deadline``), and the worker
  holding it is killed and respawned; a task that misses its deadline
  while still queued fails without costing any worker;
* a crash loop trips the breaker: ``submit`` raises :class:`PoolDegraded`,
  the service falls back to serial sampling (or fails fast, per config),
  ``/readyz`` reports it, and the half-open probe closes the breaker again;
* a draining server refuses new work with 503 + ``Retry-After`` while
  in-flight requests finish, and SIGTERM drives that drain end to end;
* an interrupted ``iter_sample_database`` spill resumed with ``resume=True``
  produces byte-identical part files to an uninterrupted spill, on both
  engines, across one or two interruptions;
* a dropped stream surfaces as :class:`IncompleteStream`, malformed HTTP
  is answered 400 and counted, a truncated bundle read raises
  :class:`StoreError`, and a failing sink raises ``OSError`` mid-spill.
"""

import asyncio
import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.connecting.connector import ConnectorConfig
from repro.enhancement.enhancer import EnhancerConfig
from repro.frame.table import Table
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.pipelines.multitable import MultiTablePipelineConfig, MultiTableSchemaPipeline
from repro.serving import (
    ArtifactSource,
    DeadlineExceeded,
    PoolDegraded,
    ServingConfig,
    ServingError,
    SynthesisServer,
    SynthesisService,
    WorkerPool,
    request_json,
)
from repro.serving.server import IncompleteStream, request_json_stream
from repro.serving.service import run_unit
from repro.serving.workers import encode_table
from repro.store.bundle import BundleReader, StoreError, load_fitted_pipeline
from repro.store.stream import CsvTableSink, PartTableSink, part_table_is_complete


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _config(seed=0, engine="compiled"):
    return PipelineConfig(
        seed=seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="understandability", seed=seed),
        connector=ConnectorConfig(remove_noisy_columns=False),
        generation_engine=engine,
        training_engine=engine,
    )


@pytest.fixture(scope="module")
def bundle(tiny_digix, tmp_path_factory):
    trial = tiny_digix.trials()[0]
    fitted = GReaTERPipeline(_config()).fit(trial.ads, trial.feeds)
    path = tmp_path_factory.mktemp("bundles") / "greater"
    fitted.save(path)
    return path


@pytest.fixture(scope="module")
def database_tables():
    return {
        "users": Table({
            "user_id": ["u{}".format(i) for i in range(12)],
            "city": ["a", "b", "c", "a", "b", "c", "a", "b", "c", "a", "b", "c"],
        }),
        "orders": Table({
            "order_id": ["o{}".format(i) for i in range(24)],
            "user_id": ["u{}".format(i % 12) for i in range(24)],
            "amount": [5 * (i % 7) + 3 for i in range(24)],
        }),
    }


@pytest.fixture(scope="module", params=["object", "compiled"])
def multitable_fitted(request, database_tables):
    config = MultiTablePipelineConfig(seed=3, generation_engine=request.param,
                                      training_engine=request.param)
    return MultiTableSchemaPipeline(config).fit(database_tables)


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
    """Run a SynthesisServer on a background event loop; yields (server, loop)."""
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
        yield server, loop
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)


def _raw_request(host, port, method="POST", path="/sample_table", payload=None):
    """Like request_json but also returns the response headers."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = json.dumps(payload or {}).encode("utf-8")
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        raw = response.read().decode("utf-8")
        return response.status, (json.loads(raw) if raw else None), dict(response.getheaders())
    finally:
        connection.close()


def _raw_bytes(host, port, data: bytes) -> bytes:
    """Send raw bytes over a socket; return everything the server answers."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        sock.settimeout(10)
        received = b""
        try:
            while True:
                part = sock.recv(65536)
                if not part:
                    break
                received += part
        except socket.timeout:
            pass
    return received


def _poll(predicate, timeout_s=15.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _dir_bytes(root) -> dict:
    """Every file under *root* as relative-path -> bytes."""
    root = Path(root)
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


# ---------------------------------------------------------------------------
# the fault plan grammar
# ---------------------------------------------------------------------------

class TestFaultPlans:
    def test_parse_at_every_and_arg(self):
        rules = faults.parse_plan("worker_crash%25; task_hang@2,5=30 ;sink_oserror@1")
        assert rules["worker_crash"].every == 25
        assert rules["task_hang"].at == frozenset({2, 5})
        assert rules["task_hang"].arg == 30.0
        assert rules["sink_oserror"].at == frozenset({1})

    @pytest.mark.parametrize("bad", [
        "", "worker_crash", "worker_crash@0", "worker_crash@x",
        "worker_crash%0", "worker_crash%x", "task_hang@1=ten",
        "nonsense@1", "worker_crash@1;worker_crash@2",
    ])
    def test_bad_plans_raise(self, bad):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_plan(bad)

    def test_rules_fire_on_exact_hits(self):
        injector = faults.FaultInjector("sink_oserror@2;stream_drop%3")
        fired = [injector.check("sink_oserror") is not None for _ in range(4)]
        assert fired == [False, True, False, False]
        fired = [injector.check("stream_drop") is not None for _ in range(7)]
        assert fired == [False, False, True, False, False, True, False]
        # unnamed points are never counted and never fire
        assert injector.check("worker_crash") is None
        assert injector.hits("worker_crash") == 0

    def test_armed_context_manager_scopes_the_plan(self):
        assert faults.check("sink_oserror") is None
        with faults.armed("sink_oserror@1"):
            assert faults.check("sink_oserror") is not None
        assert faults.check("sink_oserror") is None

    def test_env_var_arms_lazily(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "bundle_truncated@1")
        monkeypatch.setattr(faults, "_injector", None)
        monkeypatch.setattr(faults, "_env_loaded", False)
        try:
            assert faults.check("bundle_truncated") is not None
        finally:
            faults.disarm()

    def test_serving_config_validates_plan_eagerly(self):
        with pytest.raises(ValueError):
            ServingConfig(faults="not_a_point@1")


# ---------------------------------------------------------------------------
# retries: crashes cost retries, not requests
# ---------------------------------------------------------------------------

class TestRetries:
    def test_crash_storm_with_retries_is_bit_identical(self, bundle):
        """The acceptance property: a scripted crash storm over a 4-worker
        pool with retries on completes with zero failures and a table
        bit-identical to the fault-free run."""
        with _service(bundle, shards=1, block_size=1) as serial:
            reference = serial.sample_table(60, seed=11)
        with _service(bundle, shards=4, block_size=1, executor="process",
                      retries=5, retry_backoff_s=0.01, breaker_threshold=0,
                      faults="worker_crash%10") as service:
            table = service.sample_table(60, seed=11)
            stats = service.pool.stats()
        assert table == reference
        assert stats["restarts"] >= 1
        assert stats["tasks_retried"] >= 1
        assert stats["retries_exhausted"] == 0

    def test_without_retries_the_crash_fails_the_request(self, bundle):
        with _service(bundle, shards=2, block_size=1, executor="process",
                      retries=0, breaker_threshold=0,
                      faults="worker_crash@1") as service:
            with pytest.raises(ServingError, match="died"):
                service.sample_table(20, seed=11)

    def test_exhausted_retries_name_the_attempts(self, bundle):
        # every task of every worker life crashes: the budget must run out
        with _service(bundle, shards=1, block_size=1, executor="process",
                      retries=1, retry_backoff_s=0.01, breaker_threshold=0,
                      faults="worker_crash%1") as service:
            with pytest.raises(ServingError, match="after 2 attempts"):
                service.sample_table(2, seed=11)
            assert service.pool.stats()["retries_exhausted"] >= 1

    def test_external_sigkill_storm_is_bit_identical(self, bundle):
        """SIGKILLs from outside the pool, at random live workers while
        results stream back, cost retries and not requests: every request
        returns the inline table, and the pool still serves after the
        kills stop."""
        seeds = (21, 22, 23)
        with _service(bundle, block_size=8) as inline:
            references = {seed: inline.sample_table(64, seed=seed) for seed in seeds}
        with _service(bundle, shards=4, block_size=8, executor="process",
                      retries=12, retry_backoff_s=0.01, breaker_threshold=0,
                      timeout_s=20.0) as service:
            pool = service.pool
            chooser = random.Random(5)
            planned, kills = 24, []

            def kill_workers():
                for _ in range(planned):
                    time.sleep(chooser.uniform(0.15, 0.5))
                    with pool._lock:
                        pids = [worker.process.pid for worker in pool._workers
                                if worker is not None]
                    pid = chooser.choice(pids)
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        continue  # died on its own in the meantime
                    kills.append(pid)

            killer = threading.Thread(target=kill_workers, name="test-killer")
            killer.start()
            outcomes = []
            while killer.is_alive():
                seed = seeds[len(outcomes) % len(seeds)]
                try:
                    outcomes.append((seed, service.sample_table(64, seed=seed)))
                except ServingError as error:
                    outcomes.append((seed, error))
            killer.join(timeout=30)
            assert not killer.is_alive()
            after = service.sample_table(64, seed=seeds[0])
            stats = pool.stats()
        failed = [(seed, got) for seed, got in outcomes if isinstance(got, Exception)]
        assert outcomes and not failed, "{} of {} requests failed: {}".format(
            len(failed), len(outcomes), failed[:2])
        assert all(got == references[seed] for seed, got in outcomes)
        assert after == references[seeds[0]]
        assert len(kills) >= planned // 2
        assert stats["restarts"] >= 1 and stats["retries_exhausted"] == 0

    def test_torn_result_frame_retries_only_that_task(self, bundle):
        """Every worker life writes half of its second result frame and
        dies.  Each torn task runs once more on a fresh life and no other
        task is charged: with ``retries=1`` all four blocks come back, the
        first on its first attempt and the other three on their second,
        each byte-identical to the inline block."""
        with _service(bundle, block_size=8) as inline:
            blocks = inline._blocks(32, 11)
            expected = [encode_table(run_unit(inline.fitted, "sample_block", block))
                        for block in blocks]
        with _service(bundle, shards=1, block_size=8, executor="process",
                      retries=1, retry_backoff_s=0.01, breaker_threshold=0,
                      faults="frame_torn@2") as service:
            tasks = [service.pool.submit("sample_block", block) for block in blocks]
            blobs = [task.result(timeout=60) for task in tasks]
            stats = service.pool.stats()
        assert [task.attempts for task in tasks] == [1, 2, 2, 2]
        assert blobs == expected
        assert stats["restarts"] == stats["tasks_retried"] == 3
        assert stats["retries_exhausted"] == 0


# ---------------------------------------------------------------------------
# deadlines: wedged tasks are killed, not waited on
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_deadline_kills_and_respawns_the_stuck_worker(self, bundle):
        pool = WorkerPool(ArtifactSource(str(bundle)), ServingConfig(
            executor="process", retries=0, breaker_threshold=0, faults="task_hang@2=30"))
        try:
            assert pool.submit("ping", None).result(timeout=30) is None
            task = pool.submit("ping", None, deadline_s=0.4)
            with pytest.raises(DeadlineExceeded, match="deadline"):
                task.result(timeout=30)
            assert pool.stats()["deadline_kills"] >= 1
            # the killed worker respawns (fresh fault counters: hit 2 of the
            # new life is a later task) and keeps serving
            assert _poll(lambda: pool.stats()["dead_workers"] == 0)
            assert _poll(lambda: pool.restarts >= 1)
            assert pool.submit("ping", None).result(timeout=30) is None
        finally:
            pool.close()

    def test_deadline_on_a_queued_task_spares_the_busy_worker(self, bundle):
        """A task that misses its deadline while still queued fails alone:
        the worker running another task is not killed for it."""
        pool = WorkerPool(ArtifactSource(str(bundle)), ServingConfig(
            executor="process", retries=0, breaker_threshold=0, faults="task_hang@1=1.5"))
        try:
            running = pool.submit("ping", None)
            queued = pool.submit("ping", None, deadline_s=0.3)
            with pytest.raises(DeadlineExceeded, match="deadline"):
                queued.result(timeout=30)
            assert running.result(timeout=30) is None
            assert pool.stats()["deadline_kills"] == 0
        finally:
            pool.close()

    def test_abandoned_result_does_not_leak_the_task(self, bundle):
        """A caller that gives up on ``result(timeout=...)`` must not pin
        the task (and its payload) in the pool registry forever."""
        pool = WorkerPool(ArtifactSource(str(bundle)), ServingConfig(
            executor="process", retries=0, breaker_threshold=0, faults="task_hang@1=2"))
        try:
            task = pool.submit("ping", None)
            with pytest.raises(ServingError, match="timed out"):
                task.result(timeout=0.3)
            assert task.task_id not in pool._tasks
        finally:
            pool.close()

    def test_http_deadline_on_thread_executor_returns_503(self, bundle):
        with _service(bundle) as service:
            with _running_server(service) as (server, _):
                status, body = request_json(
                    server.host, server.port, "POST", "/sample_table",
                    {"n": 50, "timeout_s": 0.0005})
                assert status == 503
                assert body["type"] == "deadline"
                status, stats = request_json(server.host, server.port, "GET", "/stats")
                assert stats["server"]["deadline_errors"] >= 1
                # without a deadline the same request still serves
                status, body = request_json(server.host, server.port,
                                            "POST", "/sample_table", {"n": 4})
                assert status == 200 and len(body["rows"]) > 0

    def test_http_deadline_on_process_pool_returns_503(self, bundle):
        with _service(bundle, executor="process", shards=1,
                      faults="task_hang@2=30") as service:
            with _running_server(service) as (server, _):
                status, first = request_json(server.host, server.port,
                                             "POST", "/sample_table",
                                             {"n": 4, "seed": 5})
                assert status == 200
                status, body = request_json(server.host, server.port,
                                            "POST", "/sample_table",
                                            {"n": 4, "seed": 5, "timeout_s": 0.5})
                assert status == 503
                assert body["type"] == "deadline"
                assert _poll(lambda: service.pool.stats()["dead_workers"] == 0)
                status, again = request_json(server.host, server.port,
                                             "POST", "/sample_table",
                                             {"n": 4, "seed": 5}, timeout=60.0)
                assert status == 200
                assert again == first  # the respawned worker is bit-identical

    def test_invalid_timeout_is_a_400(self, bundle):
        with _service(bundle) as service:
            with _running_server(service) as (server, _):
                for bad in (0, -1, "soon", True):
                    status, body = request_json(server.host, server.port,
                                                "POST", "/sample_table",
                                                {"n": 2, "timeout_s": bad})
                    assert status == 400, bad
                    assert "timeout_s" in body["error"]


# ---------------------------------------------------------------------------
# the crash-loop breaker
# ---------------------------------------------------------------------------

class TestBreaker:
    def test_breaker_trips_and_half_open_probe_recovers(self, bundle):
        pool = WorkerPool(ArtifactSource(str(bundle)), ServingConfig(
            executor="process", retries=0, breaker_threshold=2, breaker_window_s=30.0,
            breaker_cooldown_s=0.3))
        try:
            for _ in range(2):
                task = pool.submit("crash", None)
                with pytest.raises(ServingError, match="died"):
                    task.result(timeout=30)
            assert pool.degraded
            assert pool.stats()["breaker_trips"] >= 1
            with pytest.raises(PoolDegraded, match="breaker"):
                pool.submit("ping", None)
            # after the cooldown the half-open probe respawn cold-starts
            # cleanly and closes the breaker
            assert _poll(lambda: pool.breaker_state == "closed")
            assert pool.submit("ping", None).result(timeout=30) is None
        finally:
            pool.close()

    def test_degraded_service_falls_back_to_serial(self, bundle):
        with _service(bundle, shards=1, block_size=4) as serial:
            reference = serial.sample_table(8, seed=5)
        with _service(bundle, executor="process", shards=1, block_size=4,
                      retries=0, breaker_threshold=1,
                      breaker_cooldown_s=60.0) as service:
            task = service.pool.submit("crash", None)
            with pytest.raises(ServingError):
                task.result(timeout=30)
            assert _poll(lambda: service.pool.degraded)
            assert service.sample_table(8, seed=5) == reference
            assert service.stats()["degraded_fallbacks"] >= 1
            ready, info = service.readiness()
            assert ready  # serial fallback still serves
            assert "degraded" in info.get("reason", "")

    def test_degraded_fallback_honours_the_deadline(self, bundle, monkeypatch):
        """The in-process fallback checks the deadline before every block: a
        multi-block request whose deadline expires during its first block
        fails after that block instead of running unbounded."""
        with _service(bundle, executor="process", shards=1, block_size=2,
                      retries=0, breaker_threshold=1,
                      breaker_cooldown_s=60.0) as service:
            task = service.pool.submit("crash", None)
            with pytest.raises(ServingError):
                task.result(timeout=30)
            assert _poll(lambda: service.pool.degraded)
            sample_block = service.fitted.sample_block
            calls = []

            def slow_block(*block):
                calls.append(block)
                time.sleep(0.3)
                return sample_block(*block)

            monkeypatch.setattr(service.fitted, "sample_block", slow_block)
            with pytest.raises(DeadlineExceeded):
                service.sample_table(8, seed=5, timeout_s=0.1)
            assert len(calls) == 1
            with _running_server(service) as (server, _):
                status, body = request_json(server.host, server.port,
                                            "POST", "/sample_table",
                                            {"n": 8, "seed": 5, "timeout_s": 0.1})
            assert status == 503
            assert body["type"] == "deadline"
            assert len(calls) == 2
            assert service.stats()["degraded_fallbacks"] == 2

    def test_fail_fast_mode_raises_pool_degraded(self, bundle):
        with _service(bundle, executor="process", shards=1, block_size=4,
                      retries=0, breaker_threshold=1, breaker_cooldown_s=60.0,
                      degraded_mode="fail_fast") as service:
            task = service.pool.submit("crash", None)
            with pytest.raises(ServingError):
                task.result(timeout=30)
            assert _poll(lambda: service.pool.degraded)
            with pytest.raises(PoolDegraded):
                service.sample_table(8, seed=5)
            ready, _ = service.readiness()
            assert not ready

    def test_readyz_reflects_degradation(self, bundle):
        with _service(bundle, executor="process", shards=1, block_size=4,
                      retries=0, breaker_threshold=1, breaker_cooldown_s=60.0,
                      degraded_mode="fail_fast") as service:
            with _running_server(service) as (server, _):
                status, body = request_json(server.host, server.port, "GET", "/readyz")
                assert status == 200 and body["ready"]
                task = service.pool.submit("crash", None)
                with pytest.raises(ServingError):
                    task.result(timeout=30)
                assert _poll(lambda: service.pool.degraded)
                status, body, headers = _raw_request(server.host, server.port,
                                                     "GET", "/readyz")
                assert status == 503 and not body["ready"]
                assert "Retry-After" in headers
                # liveness is not readiness: /healthz stays 200
                status, _ = request_json(server.host, server.port, "GET", "/healthz")
                assert status == 200


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------

class TestDrain:
    def test_draining_server_rejects_with_retry_after(self, bundle):
        # the worker holds the first task for 2 s, so the request is still
        # in flight while the drain is checked, however fast sampling is
        with _service(bundle, executor="process", shards=1,
                      faults="task_hang@1=2") as service:
            with _running_server(service) as (server, loop):
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=1) as pool:
                    slow = pool.submit(request_json, server.host, server.port,
                                       "POST", "/sample_table", {"n": 40}, 120.0)
                    assert _poll(lambda: server.stats()["server"]["in_flight"] >= 1)
                    server.begin_drain()
                    status, body, headers = _raw_request(server.host, server.port)
                    assert status == 503
                    assert "draining" in body["error"]
                    assert headers.get("Retry-After")
                    # streamed requests are refused the same way
                    status, body = request_json_stream(server.host, server.port,
                                                       {"n": 4})
                    assert status == 503
                    # readiness flips, stats/health stay up for observers
                    status, ready = request_json(server.host, server.port,
                                                 "GET", "/readyz")
                    assert status == 503 and ready["reason"] == "draining"
                    assert request_json(server.host, server.port,
                                        "GET", "/healthz")[0] == 200
                    # the in-flight request still completes
                    status, body = slow.result(timeout=120)
                    assert status == 200 and len(body["rows"]) > 0
                drained = asyncio.run_coroutine_threadsafe(
                    server.drain(10.0), loop).result(timeout=30)
                assert drained
                assert server.stats()["server"]["draining"]

    def test_sigterm_drains_and_exits_cleanly(self, bundle, tmp_path):
        ready_file = tmp_path / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--bundle", str(bundle),
             "--ready-file", str(ready_file), "--max-seconds", "120",
             "--drain-timeout-s", "10", "--json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert _poll(ready_file.exists, timeout_s=60.0)
            host, port = ready_file.read_text().split()
            status, _ = request_json(host, int(port), "POST", "/sample_table", {"n": 2})
            assert status == 200
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        except Exception:
            process.kill()
            raise
        assert process.returncode == 0, stderr
        assert "drain complete" in stderr
        rows = json.loads(stdout)
        assert rows[0]["table_requests"] == 1


# ---------------------------------------------------------------------------
# stream drops and malformed HTTP
# ---------------------------------------------------------------------------

class TestStreamAndParsing:
    def test_stream_drop_raises_incomplete_stream(self, bundle):
        with _service(bundle, block_size=2) as service:
            with _running_server(service) as (server, _):
                with faults.armed("stream_drop@2"):
                    with pytest.raises(IncompleteStream) as excinfo:
                        request_json_stream(server.host, server.port, {"n": 10})
                assert len(excinfo.value.lines) == 2
                assert not any("done" in line for line in excinfo.value.lines)
                # and without the fault the same request completes
                status, lines = request_json_stream(server.host, server.port,
                                                    {"n": 10})
                assert status == 200 and lines[-1]["done"]

    @pytest.mark.parametrize("head", [
        # duplicate Content-Length: the request-smuggling classic
        b"POST /sample_table HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
        b"POST /sample_table HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /sample_table HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n",  # oversized start line
        b"NOT-A-REQUEST-LINE\r\n\r\n",
    ])
    def test_malformed_requests_get_400_and_are_counted(self, bundle, head):
        with _service(bundle) as service:
            with _running_server(service) as (server, _):
                answer = _raw_bytes(server.host, server.port, head)
                assert answer.startswith(b"HTTP/1.1 400 ")
                assert b"malformed request" in answer
                status, stats = request_json(server.host, server.port, "GET", "/stats")
                assert stats["server"]["malformed_requests"] == 1


# ---------------------------------------------------------------------------
# storage faults
# ---------------------------------------------------------------------------

class TestStorageFaults:
    def test_sink_oserror_aborts_without_a_torn_file(self, tmp_path):
        chunk = Table({"a": [1, 2], "b": ["x", "y"]})
        destination = tmp_path / "out.csv"
        with faults.armed("sink_oserror@2"):
            with pytest.raises(OSError, match="injected sink failure"):
                with CsvTableSink(destination) as sink:
                    sink.write(chunk)
                    sink.write(chunk)
        assert not destination.exists()  # publish-on-close means no torn file

    def test_bundle_truncated_injection_and_real_truncation(self, bundle, tmp_path):
        with faults.armed("bundle_truncated@1"):
            with pytest.raises(StoreError, match="injected truncated bundle"):
                BundleReader(bundle)
        torn = tmp_path / "torn-bundle"
        data = Path(bundle).read_bytes()
        torn.write_bytes(data[:len(data) // 2])
        with pytest.raises(StoreError):
            load_fitted_pipeline(torn)


# ---------------------------------------------------------------------------
# resumable spills
# ---------------------------------------------------------------------------

class TestSpillResume:
    def _chunks(self):
        return [Table({"k": [3 * i, 3 * i + 1, 3 * i + 2],
                       "v": ["a", "b", "c"]}) for i in range(3)]

    def test_part_sink_resume_is_byte_identical(self, tmp_path):
        reference = tmp_path / "reference"
        with PartTableSink(reference) as sink:
            sink.write_all(iter(self._chunks()))
        interrupted = tmp_path / "interrupted"
        sink = PartTableSink(interrupted)
        for chunk in self._chunks()[:2]:
            sink.write(chunk)  # crash here: two parts on disk, no manifest
        assert not part_table_is_complete(interrupted)
        resumed = PartTableSink(interrupted, resume=True)
        assert resumed.resumed_chunks == 2
        with resumed:
            resumed.write_all(iter(self._chunks()))  # producer replays all chunks
        assert part_table_is_complete(interrupted)
        assert _dir_bytes(interrupted) == _dir_bytes(reference)

    def test_part_sink_resume_discards_the_torn_suffix(self, tmp_path):
        reference = tmp_path / "reference"
        with PartTableSink(reference) as sink:
            sink.write_all(iter(self._chunks()))
        interrupted = tmp_path / "interrupted"
        sink = PartTableSink(interrupted)
        for chunk in self._chunks():
            sink.write(chunk)
        # tear the last part mid-write and leave a stray behind it
        part = interrupted / "part-00002.npz"
        part.write_bytes(part.read_bytes()[:10])
        (interrupted / "part-00003.npz").write_bytes(b"garbage")
        resumed = PartTableSink(interrupted, resume=True)
        assert resumed.resumed_chunks == 2
        assert not (interrupted / "part-00003.npz").exists()
        with resumed:
            resumed.write_all(iter(self._chunks()))
        assert _dir_bytes(interrupted) == _dir_bytes(reference)

    def test_part_sink_resume_rejects_a_diverging_replay(self, tmp_path):
        interrupted = tmp_path / "interrupted"
        sink = PartTableSink(interrupted)
        sink.write(self._chunks()[0])
        resumed = PartTableSink(interrupted, resume=True)
        with pytest.raises(StoreError, match="not replaying"):
            resumed.write(Table({"k": [1], "v": ["z"]}))

    def test_resume_requires_a_spool(self, multitable_fitted):
        with pytest.raises(ValueError, match="spool"):
            next(multitable_fitted.iter_sample_database(seed=5, resume=True))

    @pytest.mark.parametrize("interruptions", [1, 2])
    def test_database_spill_resume_is_byte_identical(self, multitable_fitted,
                                                     tmp_path, interruptions):
        """The acceptance property on both engines: an interrupted database
        spill resumed with ``resume=True`` produces byte-identical NPZ parts
        (and identical tables) to an uninterrupted spill."""
        reference_spool = tmp_path / "reference"
        reference = dict(multitable_fitted.iter_sample_database(
            seed=5, spool=reference_spool))

        spool = tmp_path / "interrupted"
        for stop_after in range(interruptions):
            iterator = multitable_fitted.iter_sample_database(
                seed=5, spool=spool, resume=stop_after > 0)
            for _ in range(stop_after):
                next(iterator)
            if stop_after > 0:
                next(iterator)  # make the second pass reach a later table
            iterator.close()
            # simulate a crash mid-write of the next table: torn, manifest-less
            torn = spool / "orders" if not part_table_is_complete(spool / "orders") \
                else spool / "users"
            if not part_table_is_complete(torn):
                torn.mkdir(parents=True, exist_ok=True)
                (torn / "part-00000.npz").write_bytes(b"torn half-written part")
        resumed = dict(multitable_fitted.iter_sample_database(
            seed=5, spool=spool, resume=True))
        assert resumed == reference
        assert _dir_bytes(spool) == _dir_bytes(reference_spool)

    def test_resume_skips_completed_tables(self, multitable_fitted, tmp_path,
                                           monkeypatch):
        spool = tmp_path / "spool"
        iterator = multitable_fitted.iter_sample_database(seed=5, spool=spool)
        first_name, _ = next(iterator)
        iterator.close()
        assert part_table_is_complete(spool / first_name)
        completed_mtime = (spool / first_name / "manifest.json").stat().st_mtime_ns
        resumed = dict(multitable_fitted.iter_sample_database(
            seed=5, spool=spool, resume=True))
        assert set(resumed) == {"users", "orders"}
        # the completed table was adopted, not regenerated: manifest untouched
        assert (spool / first_name / "manifest.json").stat().st_mtime_ns == completed_mtime
