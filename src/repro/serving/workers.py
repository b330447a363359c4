"""Process worker pool for CPU-parallel sampling.

The sampling hot path is pure Python/NumPy under the GIL, so the process
executor (:class:`~repro.serving.service.ProcessExecutor`) runs its work
units — :func:`~repro.serving.service.run_unit`: table blocks, coalesced
row batches, whole databases — in worker *processes*.  Each worker
cold-starts by opening the service's
:class:`~repro.serving.service.ArtifactSource` (a bundle file or a
registry artifact, optionally memory-mapped so the n-gram count tables
share page cache across workers) and verifies the content digest before
reporting ready.  Because every work unit's seed is
``SeedSequence``-derived from the request seed alone, results are
bit-identical for any worker count and identical to the inline executor.

Transport stays in the repo's pickle-free spirit: tables cross the process
boundary as raw column buffers behind a small CRC-checked header
(:func:`repro.store.tablefmt.table_to_bytes`), requests as plain tuples of
primitives.  Every worker life owns one duplex pipe and runs at most one
task at a time: the parent keeps a single FIFO of pending tasks and sends
the next one only to an idle worker.  One supervisor
thread in the parent waits on every result pipe and process sentinel at
once; it resolves results, dispatches, and applies the failure policy.  A
worker that dies — scripted crash, external ``kill -9``, or death halfway
through writing a result frame — can only lose the frame on its own pipe.

Failure model (see also the README's "Failure model & operations"):

* **Retries.** A dead worker's one in-flight task goes back to the front
  of the FIFO with a bounded budget (``retries`` beyond the first attempt)
  and an exponential not-before backoff.  Tasks still pending never left
  the parent, so a death never touches their budget.  Seeds travel in
  the payload, so a retried result is bit-identical to the single-shot path
  no matter which worker runs it.  With the budget exhausted (or
  ``retries=0``) a task fails with a :class:`ServingError` naming the
  worker and exit code.
* **Deadlines.** ``submit(..., deadline_s=...)`` arms a watchdog: a task
  still unresolved past its deadline fails with
  :class:`DeadlineExceeded`.  Only when a worker is running it is that
  worker killed and respawned, so one wedged request cannot pin a worker
  forever and an overdue pending task costs no worker at all.
* **Crash-loop breaker.** ``breaker_threshold`` worker deaths inside
  ``breaker_window_s`` trip the pool open: respawning stops, ``submit``
  raises :class:`PoolDegraded` (callers fall back or fail fast), pending
  tasks that no live worker is left to take fail the same way, and after
  ``breaker_cooldown_s`` the pool half-opens — dead workers respawn as a
  probe; a successful cold start or task result closes the breaker, a
  further death re-opens it.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import threading
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from multiprocessing.reduction import ForkingPickler

from repro import faults
from repro.llm.engine import SCORING
from repro.obs import trace as obs_trace
from repro.serving.metrics import Counter
from repro.serving.service import (ArtifactSource, DeadlineExceeded, PoolDegraded,
                                   RowRequest, ServingConfig, ServingError,
                                   count_scoring, process_peak_rss_bytes, run_unit)
from repro.store.tablefmt import table_from_bytes, table_to_bytes

#: Seconds a worker gets to load the bundle and report ready.
_READY_TIMEOUT_S = 60.0
_JOIN_TIMEOUT_S = 5.0
#: Upper bound on one retry backoff, whatever the budget says.
_MAX_BACKOFF_S = 2.0
#: Longest the supervisor sleeps between deadline and breaker checks.
_TICK_S = 0.2
#: How long a ``task_hang`` fault sleeps when the plan gives no argument.
_HANG_DEFAULT_S = 3600.0


def encode_table(table) -> bytes:
    """Serialize a table for the pipe: a CRC-covered header plus the raw
    column buffers (:func:`repro.store.tablefmt.table_to_bytes`).

    Workers and the pool call this and :func:`decode_table` through the
    module at call time, and the result must stay ``bytes``:
    ``perfbench/launcher.py`` replaces both before the pool forks to time
    its ``ipc.*`` spans and counts ``ipc.bytes`` from ``bytes`` results.
    """
    return table_to_bytes(table)


def decode_table(blob: bytes):
    """Inverse of :func:`encode_table`."""
    return table_from_bytes(blob)


def _encode(result):
    """Wire form of a :func:`run_unit` result (table, list or dict of tables)."""
    if isinstance(result, dict):
        return {name: encode_table(table) for name, table in result.items()}
    if isinstance(result, list):
        return [encode_table(table) for table in result]
    return encode_table(result)


def _send_torn(conn, frame) -> None:
    """The ``frame_torn`` fault: write the first half of the bytes
    ``conn.send(frame)`` would write (a 4-byte big-endian length, then the
    pickled frame), then die as if killed in the middle of the send."""
    data = bytes(ForkingPickler.dumps(frame))
    wire = memoryview(struct.pack("!i", len(data)) + data)
    wire = wire[:len(wire) // 2]
    while wire:
        wire = wire[os.write(conn.fileno(), wire):]
    os._exit(3)


def _execute(fitted, method: str, payload):
    """Run one task against the worker-local pipeline; returns wire payload."""
    if method == "ping":
        return None
    if method == "sample_rows_many":
        payload = [RowRequest(n=n, conditions=conditions, seed=seed)
                   for n, conditions, seed in payload]
    return _encode(run_unit(fitted, method, payload))


def _worker_main(worker_index: int, source: ArtifactSource, config: ServingConfig,
                 conn, trace_enabled: bool = False) -> None:
    """Worker process entry point: cold-start from the artifact, then serve
    one task at a time over *conn* until the parent sends ``None``."""
    if config.faults:
        # each worker life arms its own injector, so per-process hit counters
        # (e.g. "crash on every 25th task") restart from zero on respawn
        faults.arm(config.faults)
    # a forked worker inherits the parent's tracer; replace it with a local
    # buffer (drained into every result's meta) or disarm it outright
    if trace_enabled:
        span_buffer = obs_trace.configure_buffered()
    else:
        obs_trace.disable()
        span_buffer = None
    fired_last: dict[str, int] = {}
    scoring_growth = SCORING.deltas()

    def _meta() -> dict:
        """Per-result sideband: peak RSS, buffered spans, fault-fired and
        engine-counter deltas."""
        meta: dict = {"rss": process_peak_rss_bytes()}
        if span_buffer is not None:
            meta["spans"] = span_buffer.drain()
        fired = faults.fired_snapshot()
        delta = {point: count - fired_last.get(point, 0)
                 for point, count in fired.items()
                 if count > fired_last.get(point, 0)}
        if delta:
            meta["faults"] = delta
            fired_last.update(fired)
        scored = scoring_growth()
        if scored:
            meta["engine"] = scored
        return meta

    try:
        try:
            fitted, digest = source.open(mmap=config.mmap)
        except BaseException as error:
            conn.send(("failed", None, repr(error), _meta()))
            return
        conn.send(("ready", None, digest, _meta()))
        while True:
            item = conn.recv()
            if item is None:
                return
            task_id, method, payload, trace_ctx = item
            received_us = obs_trace.monotonic_us()
            # "crash" is a test hook: die instead of serving, like an OOM kill
            if method == "crash" or faults.check("worker_crash") is not None:
                os._exit(3)
            hang = faults.check("task_hang")
            if hang is not None:
                time.sleep(hang.arg if hang.arg is not None else _HANG_DEFAULT_S)
            if trace_ctx is not None and span_buffer is not None:
                parent = (trace_ctx[0], trace_ctx[1])
                obs_trace.emit_span("pool.queue_wait", parent, trace_ctx[2],
                                    received_us - trace_ctx[2],
                                    attrs={"worker": worker_index})
                task_span = obs_trace.span("worker.task", parent=parent,
                                           attrs={"worker": worker_index, "method": method})
            else:
                task_span = obs_trace.NULL_SPAN
            try:
                with task_span:
                    frame = ("done", task_id, _execute(fitted, method, payload))
            except BaseException as error:
                frame = ("error", task_id, repr(error))
            frame = (*frame, _meta())
            if faults.check("frame_torn") is not None:
                _send_torn(conn, frame)
            conn.send(frame)
    except (EOFError, OSError):
        return  # the parent closed its end of the pipe: the pool is shutting down


class _Task:
    """A submitted work unit awaiting its result.

    The payload is kept so the pool can re-dispatch the task verbatim if
    its worker dies; ``deadline`` is an absolute ``time.monotonic`` instant
    the supervisor enforces, ``not_before`` the end of a retry's backoff.
    """

    __slots__ = ("task_id", "method", "payload", "event", "value", "error",
                 "attempts", "deadline", "not_before", "trace_ctx", "_pool")

    def __init__(self, task_id: int, method: str, payload=None, pool=None):
        self.task_id = task_id
        self.method = method
        self.payload = payload
        self.event = threading.Event()
        self.value = None
        self.error: Exception | None = None
        self.attempts = 1
        self.deadline: float | None = None
        self.not_before = 0.0
        #: ``(trace_id, span_id, submitted_us)`` shipped with the task frame
        #: so the worker can stitch its spans under the submitting request.
        self.trace_ctx: tuple | None = None
        self._pool = pool

    def result(self, timeout: float | None = None):
        if not self.event.wait(timeout):
            # drop the abandoned entry from the pool's registry so its
            # payload cannot be pinned forever by a caller that gave up
            if self._pool is not None:
                self._pool._forget(self)
            if not self.event.is_set():  # may have resolved in the race window
                raise ServingError("timed out waiting for worker task {!r}".format(self.method))
        if self.error is not None:
            raise self.error
        return self.value


class _Worker:
    """One worker life: its process, the parent's end of its pipe, and the
    one task it runs (``None`` while idle).  ``ready`` turns on with the
    worker's cold-start report and off once the pool gives up on it."""

    __slots__ = ("index", "process", "conn", "ready", "task")

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.ready = False
        self.task: _Task | None = None


class WorkerPool:
    """A pool of ``config.shards`` sampling processes opened from one source.

    The resilience knobs (retries, backoff, breaker, faults) come from the
    :class:`~repro.serving.service.ServingConfig`.

    Submitted tasks wait in one FIFO in the parent and go out one at a time
    to idle workers over per-worker pipes.  A single supervisor thread
    waits on those pipes and the process sentinels together, so a crashed
    or wedged worker costs at most its one in-flight task a retry, not the
    request.
    """

    def __init__(self, source: ArtifactSource, config: ServingConfig,
                 expected_digest: str | None = None, metrics=None):
        self.source = source
        self.config = config
        self.workers = config.shards
        self._metrics = metrics
        # decided once at construction: workers are told whether to buffer
        # spans when they are spawned, so flipping the global tracer later
        # does not desynchronize parent and children
        self._trace = obs_trace.enabled()
        self._worker_rss: dict[int, int] = {}
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._lock = threading.Lock()
        self._tasks: dict[int, _Task] = {}     # every unresolved task
        self._pending: deque = deque()         # the unresolved ones no worker holds
        self._next_task_id = 0
        self._closing = False
        self.digest: str | None = None
        self._restarts = Counter()
        self._tasks_retried = Counter()
        self._retries_exhausted = Counter()
        self._deadline_kills = Counter()
        self._breaker_trips = Counter()
        self._deaths: deque = deque()          # monotonic timestamps in the window
        self._breaker_state = "closed"
        self._breaker_opened_at = 0.0
        self._supervisor: threading.Thread | None = None

        #: one slot per worker index; ``None`` while the breaker holds it dead
        self._workers: list[_Worker | None] = [self._spawn(index)
                                               for index in range(self.workers)]
        self._await_ready(expected_digest)
        self._supervisor = threading.Thread(target=self._supervise, daemon=True,
                                            name="workerpool-supervisor")
        self._supervisor.start()

    # -- lifecycle ---------------------------------------------------------------------

    def _spawn(self, index: int) -> _Worker:
        conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(index, self.source, self.config, child_conn, self._trace),
            daemon=True,
            name="repro-worker-{}".format(index),
        )
        process.start()
        # the worker now holds the only other end, so its death reads as EOF
        child_conn.close()
        return _Worker(index, process, conn)

    def _await_ready(self, expected_digest: str | None) -> None:
        """Block until every worker reports a verified cold start."""
        waiting = {worker.conn: worker for worker in self._workers}
        give_up = time.monotonic() + _READY_TIMEOUT_S
        while waiting:
            ready = connection_wait(list(waiting),
                                    timeout=max(0.0, give_up - time.monotonic()))
            problem = None if ready else "workers {} never reported ready".format(
                sorted(worker.index for worker in waiting.values()))
            for conn in ready:
                worker = waiting.pop(conn)
                try:
                    kind, _, payload, meta = conn.recv()
                except (EOFError, OSError):
                    kind, payload, meta = "failed", "the worker exited", None
                self._absorb_meta(worker.index, meta)
                if kind == "failed":
                    problem = "worker {} failed to load {}: {}".format(
                        worker.index, self.source, payload)
                elif expected_digest is not None and payload != expected_digest:
                    problem = "worker {} loaded digest {} but the pool serves {}".format(
                        worker.index, payload, expected_digest)
                else:
                    self.digest = self.digest or payload
                    worker.ready = True
            if problem is not None:
                self.close()
                raise ServingError(problem)

    def close(self) -> None:
        """Stop every worker and the supervisor; fail whatever is unresolved."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            leftovers = list(self._tasks.values())
            self._tasks.clear()
            self._pending.clear()
        for task in leftovers:
            self._resolve(task, error=ServingError("worker pool closed"))
        if self._supervisor is not None:
            self._supervisor.join()
        workers = [worker for worker in self._workers if worker is not None]
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
            # a worker blocked sending a result now gets EPIPE and exits
            worker.conn.close()
        for worker in workers:
            worker.process.join(timeout=_JOIN_TIMEOUT_S)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=_JOIN_TIMEOUT_S)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------------

    @property
    def restarts(self) -> int:
        return self._restarts.value

    @property
    def degraded(self) -> bool:
        """Whether the crash-loop breaker is open (pool refusing work)."""
        with self._lock:
            return self._breaker_state == "open"

    @property
    def breaker_state(self) -> str:
        with self._lock:
            return self._breaker_state

    def stats(self) -> dict:
        with self._lock:
            state = self._breaker_state
            dead = sum(worker is None for worker in self._workers)
            worker_rss = dict(self._worker_rss)
        return {
            "workers": self.workers,
            "retries": self.config.retries,
            "restarts": self._restarts.value,
            "tasks_retried": self._tasks_retried.value,
            "retries_exhausted": self._retries_exhausted.value,
            "deadline_kills": self._deadline_kills.value,
            "breaker_state": state,
            "breaker_threshold": self.config.breaker_threshold,
            "breaker_trips": self._breaker_trips.value,
            "dead_workers": dead,
            # per-worker peak RSS piggybacked on the result pipes; string keys
            # so the dict survives the JSON trip through /stats unchanged
            "worker_peak_rss_bytes": {str(index): rss
                                      for index, rss in sorted(worker_rss.items())},
            "max_worker_peak_rss_bytes": max(worker_rss.values(), default=0),
        }

    # -- dispatch ----------------------------------------------------------------------

    def submit(self, method: str, payload, deadline_s: float | None = None) -> _Task:
        context = obs_trace.current_context()
        with self._lock:
            if self._closing:
                raise ServingError("worker pool is closed")
            if self._breaker_state == "open":
                raise PoolDegraded(
                    "worker pool is degraded: {} worker deaths within {:.0f}s tripped "
                    "the crash-loop breaker; retry after the {:.0f}s cooldown".format(
                        len(self._deaths), self.config.breaker_window_s, self.config.breaker_cooldown_s))
            task = _Task(self._next_task_id, method, payload, pool=self)
            self._next_task_id += 1
            now = time.monotonic()
            if deadline_s is not None:
                task.deadline = now + deadline_s
            if context is not None:
                task.trace_ctx = (context[0], context[1], obs_trace.monotonic_us())
            self._tasks[task.task_id] = task
            self._pending.append(task)
            self._dispatch_locked(now)
        return task

    def _dispatch_locked(self, now: float) -> None:
        """Send pending tasks, oldest first, to idle ready workers.

        An idle worker's pipe holds nothing unread, so the send cannot
        block; a send that fails means the worker is dead — its sentinel
        fires next, and the task stays pending for another worker.
        """
        if self._closing:
            return
        for worker in self._workers:
            if worker is None or not worker.ready or worker.task is not None:
                continue
            task = next((task for task in self._pending if task.not_before <= now), None)
            if task is None:
                return
            try:
                worker.conn.send((task.task_id, task.method, task.payload, task.trace_ctx))
            except OSError:
                worker.ready = False
                continue
            self._pending.remove(task)
            worker.task = task

    def _forget(self, task: _Task) -> None:
        """Drop a task a caller abandoned (its ``result`` timed out)."""
        with self._lock:
            if self._tasks.pop(task.task_id, None) is not None and task in self._pending:
                self._pending.remove(task)

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        """Bump a labeled counter when the pool was handed a registry."""
        if self._metrics is not None:
            self._metrics.counter(name, **labels).increment(amount)

    def _absorb_meta(self, worker_index, meta) -> None:
        """Fold one result's sideband into pool-level observability state."""
        if not meta:
            return
        rss = meta.get("rss")
        if rss:
            with self._lock:
                if rss > self._worker_rss.get(worker_index, 0):
                    self._worker_rss[worker_index] = rss
        spans = meta.get("spans")
        if spans:
            for record in spans:
                obs_trace.emit_raw(record)
        fired = meta.get("faults")
        if fired:
            for point, count in fired.items():
                self._count("faults_fired_total", amount=count, point=point,
                            worker=str(worker_index))
        if self._metrics is not None and "engine" in meta:
            count_scoring(self._metrics, meta["engine"])

    # -- supervision -------------------------------------------------------------------

    def _supervise(self) -> None:
        """The pool's one thread: results, deaths, deadlines, backoffs, breaker."""
        while True:
            with self._lock:
                if self._closing:
                    return
                now = time.monotonic()
                overdue = self._expire_locked(now)
                half_opened = (self._breaker_state == "open" and now - self._breaker_opened_at
                               >= self.config.breaker_cooldown_s)
                if half_opened:  # respawn the dead workers as the breaker's probe
                    self._breaker_state = "half_open"
                    for index in range(self.workers):
                        if self._workers[index] is None:
                            self._respawn_locked(index)
                self._dispatch_locked(now)
                handles = {}
                for worker in filter(None, self._workers):
                    handles[worker.conn] = handles[worker.process.sentinel] = worker
                # sleep until the next deadline, backoff end or cooldown end
                wake = [task.deadline for task in self._tasks.values()
                        if task.deadline is not None]
                wake += [task.not_before for task in self._pending]
                if self._breaker_state == "open":
                    wake.append(self._breaker_opened_at + self.config.breaker_cooldown_s)
                timeout = min([_TICK_S] + [instant - now for instant in wake if instant > now])
            if half_opened:
                self._breaker_transition("half_open")
            for task, worker_index in overdue:
                if task.trace_ctx is not None:
                    now_us = obs_trace.monotonic_us()
                    obs_trace.emit_span(
                        "pool.deadline", task.trace_ctx[:2], now_us, 0,
                        attrs={"method": task.method, "worker": worker_index},
                        status="error",
                        events=[{"name": "deadline_exceeded", "t_us": now_us}])
                self._resolve(task, error=DeadlineExceeded(
                    "worker task {!r} missed its deadline".format(task.method)))
            fired = connection_wait(list(handles), timeout)
            for worker in {handles[handle] for handle in fired}:
                if (not self._read_frames(worker, worker.conn in fired)
                        or not worker.process.is_alive()):
                    self._handle_death(worker)

    def _expire_locked(self, now: float) -> list:
        """Unregister overdue tasks and kill only the workers running one;
        returns ``(task, worker index or None if it was pending)`` pairs."""
        overdue = []
        for task in [task for task in self._tasks.values()
                     if task.deadline is not None and now > task.deadline]:
            del self._tasks[task.task_id]
            running = next((worker for worker in filter(None, self._workers)
                            if worker.task is task), None)
            if running is None:
                self._pending.remove(task)
            else:
                running.ready = False  # no further work for a worker about to die
                running.process.kill()
                self._deadline_kills.increment()
            overdue.append((task, running.index if running else None))
        return overdue

    def _respawn_locked(self, index: int) -> None:
        self._restarts.increment()
        self._workers[index] = self._spawn(index)

    @staticmethod
    def _resolve(task: _Task, value=None, error: Exception | None = None) -> None:
        task.value, task.error = value, error
        task.event.set()

    def _read_frames(self, worker: _Worker, readable: bool) -> bool:
        """Handle every complete frame on *worker*'s pipe; False at EOF."""
        while True:
            try:
                if not (readable or worker.conn.poll()):
                    return True
                frame = worker.conn.recv()
            except (EOFError, OSError):
                return False
            readable = False
            self._on_frame(worker, frame)

    def _on_frame(self, worker: _Worker, frame) -> None:
        kind, task_id, payload, meta = frame
        task, probe_passed = None, False
        # "failed" is a respawn that cannot load; its exit applies the death policy
        if kind != "failed":
            with self._lock:  # hand the worker its next task first: it idles until then
                if kind == "ready":
                    worker.ready = True
                else:
                    # None for a task resolved by its deadline or abandoned
                    task = self._tasks.pop(task_id, None)
                worker.task = None
                self._dispatch_locked(time.monotonic())
                # a cold start or any task result proves the half-open probe healthy
                probe_passed = self._breaker_state == "half_open"
                if probe_passed:
                    self._breaker_state = "closed"
                    self._deaths.clear()
        self._absorb_meta(worker.index, meta)
        self._count("worker_results_total", worker=str(worker.index), kind=kind)
        if probe_passed:
            self._breaker_transition("closed")
        if task is not None and kind == "done":
            self._resolve(task, value=payload)
        elif task is not None:
            self._resolve(task, error=ServingError("worker {} failed {}: {}".format(
                worker.index, task.method, payload)))

    def _breaker_transition(self, state: str, **attrs) -> None:
        """Record a breaker state change as a root span + labeled counter."""
        self._count("breaker_transitions_total", state=state)
        obs_trace.emit_span(
            "pool.breaker_" + state, None, obs_trace.monotonic_us(), 0,
            attrs=attrs or None, status="error" if state == "open" else "ok")

    def _handle_death(self, worker: _Worker) -> None:
        """Apply the failure policy to one dead worker life."""
        worker.process.join(timeout=_JOIN_TIMEOUT_S)
        worker.conn.close()
        index, exit_code = worker.index, worker.process.exitcode
        failures = []
        with self._lock:
            if self._closing:
                return
            self._workers[index] = None
            now = time.monotonic()
            self._deaths.append(now)
            while self._deaths and now - self._deaths[0] > self.config.breaker_window_s:
                self._deaths.popleft()
            # a half-open probe that dies sends the breaker straight back open
            tripped = self._breaker_state == "half_open" or (
                self._breaker_state == "closed"
                and 0 < self.config.breaker_threshold <= len(self._deaths))
            if tripped:
                self._breaker_state = "open"
                self._breaker_opened_at = now
                self._breaker_trips.increment()
            deaths_in_window = len(self._deaths)
            breaker_open = self._breaker_state == "open"
            # only the task the worker was running is charged an attempt;
            # pending tasks never left the parent
            orphan = worker.task
            if orphan is not None and self._tasks.get(orphan.task_id) is not orphan:
                orphan = None  # already resolved by its deadline, or abandoned
            attempt = orphan.attempts if orphan is not None else 0
            retried = orphan is not None and not breaker_open and attempt <= self.config.retries
            if retried:
                orphan.attempts += 1
                orphan.not_before = now + min(
                    self.config.retry_backoff_s * 2 ** (attempt - 1), _MAX_BACKOFF_S)
                if orphan.trace_ctx is not None:
                    # restamp so the next queue-wait span measures from this
                    # retry, not the original submit
                    orphan.trace_ctx = (*orphan.trace_ctx[:2], obs_trace.monotonic_us())
                self._pending.appendleft(orphan)
                self._tasks_retried.increment()
            elif orphan is not None:
                del self._tasks[orphan.task_id]
                if breaker_open and attempt <= self.config.retries:
                    failures.append((orphan, PoolDegraded(
                        "worker {} died (exit code {}) while serving {} and the "
                        "crash-loop breaker is open".format(index, exit_code, orphan.method))))
                else:
                    if attempt > 1:
                        self._retries_exhausted.increment()
                    failures.append((orphan, ServingError(
                        "worker {} died (exit code {}) while serving {}{}".format(
                            index, exit_code, orphan.method,
                            " after {} attempts".format(attempt) if attempt > 1 else ""))))
            if breaker_open and not any(self._workers):
                for task in self._pending:
                    del self._tasks[task.task_id]
                    failures.append((task, PoolDegraded(
                        "worker pool degraded: no live worker is left to run task {!r} "
                        "while the crash-loop breaker is open".format(task.method))))
                self._pending.clear()
            if not breaker_open:
                self._respawn_locked(index)
        self._count("worker_deaths_total", worker=str(index))
        if tripped:
            self._breaker_transition("open", deaths=deaths_in_window)
        if orphan is not None and orphan.trace_ctx is not None:
            # the attempt the dead worker was serving, visible in the trace
            # even though the worker itself could not ship its spans
            obs_trace.emit_span(
                "pool.attempt_failed", orphan.trace_ctx[:2], obs_trace.monotonic_us(), 0,
                attrs={"worker": index, "exit_code": exit_code,
                       "attempt": attempt, "method": orphan.method},
                status="error")
        if retried:
            self._count("tasks_retried_total", worker=str(index))
            if orphan.trace_ctx is not None:
                obs_trace.emit_span(
                    "pool.retry", orphan.trace_ctx[:2], orphan.trace_ctx[2], 0,
                    attrs={"attempt": orphan.attempts, "method": orphan.method,
                           "worker": index})
        for task, error in failures:
            self._resolve(task, error=error)

    # -- typed helpers -----------------------------------------------------------------

    def run(self, method: str, payloads: list, deadline_s: float | None = None) -> list:
        """Run work units (see :func:`~repro.serving.service.run_unit`) on the
        pool; the executor interface of :class:`~repro.serving.service.ProcessExecutor`."""
        if method == "sample_block":
            return self.sample_blocks(payloads, deadline_s=deadline_s)
        if method == "sample_rows_many":
            return [self.sample_rows_many(requests, deadline_s=deadline_s)
                    for requests in payloads]
        if method == "sample_database":
            return [self.sample_database(n, seed, deadline_s=deadline_s)
                    for n, seed in payloads]
        raise ServingError("unknown work unit {!r}".format(method))

    def sample_blocks(self, blocks, deadline_s: float | None = None) -> list:
        """Run ``sample_block`` tasks for every ``(start, count, seed)`` block."""
        tasks = [self.submit("sample_block", tuple(block), deadline_s=deadline_s)
                 for block in blocks]
        return [decode_table(task.result()) for task in tasks]

    def sample_rows_many(self, requests, deadline_s: float | None = None) -> list:
        """Ship one coalesced row batch to a single worker (one merged pass)."""
        payload = [(request.n, tuple(request.conditions), request.seed)
                   for request in requests]
        task = self.submit("sample_rows_many", payload, deadline_s=deadline_s)
        return [decode_table(blob) for blob in task.result()]

    def sample_database(self, n, seed, deadline_s: float | None = None) -> dict:
        task = self.submit("sample_database", (n, seed), deadline_s=deadline_s)
        return {name: decode_table(blob) for name, blob in task.result().items()}
