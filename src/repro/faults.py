"""Deterministic fault injection for the serving and storage layers.

Real fault tolerance cannot be tested with real faults — an OOM kill or a
torn disk write happens when it happens.  This module gives the repo's
failure paths a scriptable trigger: a *fault plan* names injection points
and the exact hit numbers at which they fire, so a test or benchmark can
say "the worker crashes on its 25th task" or "the sink raises ``OSError``
on chunk 3" and get that failure, every run, bit-for-bit reproducibly.

Injection points (each is a named counter; code at the point calls
:func:`check` and acts on the returned rule):

* ``worker_crash``     — a worker process dies (``os._exit``) instead of
  executing its next task (:mod:`repro.serving.workers`);
* ``task_hang``        — a worker sleeps (default: effectively forever)
  before executing a task, simulating a wedged request;
* ``frame_torn``       — a worker writes only the first half of a result
  frame's bytes to its pipe and then dies (``os._exit``), like a process
  killed in the middle of a send;
* ``sink_oserror``     — :meth:`repro.store.stream.TableSink.write` raises
  ``OSError``, simulating a full or failing disk mid-spill;
* ``bundle_truncated`` — :class:`repro.store.bundle.BundleReader` raises as
  if the bundle file were cut short mid-read;
* ``stream_drop``      — the HTTP server hard-drops the connection after
  writing a streamed chunk, short of the terminating chunk.

Plans are compact strings — rules separated by ``;``::

    worker_crash%25            fire on every 25th hit
    worker_crash@3,7           fire on hits 3 and 7 (1-based)
    task_hang@2=30             fire on hit 2, with argument 30 (seconds)

Arming is explicit and process-local: :func:`arm` installs a plan (tests
use the :func:`armed` context manager), the ``REPRO_FAULTS`` environment
variable arms one lazily at first use, and
:class:`~repro.serving.service.ServingConfig.faults` ships a plan to the
serving layer's worker *processes*, each of which arms its own injector —
so per-process counters (a worker's task count) behave identically for
every pool size and every respawn.  Disarmed, every check is a cheap
``None``.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

#: Environment variable holding a fault plan armed lazily at first check.
ENV_VAR = "REPRO_FAULTS"

#: The injection points the codebase defines (typo guard for plans).
KNOWN_POINTS = frozenset({
    "worker_crash",
    "task_hang",
    "frame_torn",
    "sink_oserror",
    "bundle_truncated",
    "stream_drop",
})


class FaultSpecError(ValueError):
    """A fault plan string that does not parse."""


@dataclass(frozen=True)
class FaultRule:
    """When one injection point fires: at listed hits, or every Nth hit."""

    point: str
    at: frozenset = frozenset()
    every: int | None = None
    arg: float | None = None

    def fires(self, hit: int) -> bool:
        """Whether the rule fires on the *hit*-th (1-based) check."""
        if self.every is not None:
            return hit % self.every == 0
        return hit in self.at


def parse_plan(spec: str) -> dict[str, FaultRule]:
    """Parse a plan string into one :class:`FaultRule` per injection point."""
    rules: dict[str, FaultRule] = {}
    for part in str(spec).split(";"):
        part = part.strip()
        if not part:
            continue
        arg: float | None = None
        if "=" in part:
            part, _, raw_arg = part.partition("=")
            try:
                arg = float(raw_arg)
            except ValueError:
                raise FaultSpecError(
                    "fault argument {!r} is not a number (rule {!r})".format(raw_arg, part))
        at: frozenset = frozenset()
        every: int | None = None
        if "@" in part:
            point, _, raw_hits = part.partition("@")
            try:
                at = frozenset(int(h) for h in raw_hits.split(","))
            except ValueError:
                raise FaultSpecError(
                    "fault hits {!r} are not integers (point {!r})".format(raw_hits, point))
            if not at or min(at) < 1:
                raise FaultSpecError("fault hits must be 1-based (point {!r})".format(point))
        elif "%" in part:
            point, _, raw_every = part.partition("%")
            try:
                every = int(raw_every)
            except ValueError:
                raise FaultSpecError(
                    "fault period {!r} is not an integer (point {!r})".format(raw_every, point))
            if every < 1:
                raise FaultSpecError("fault period must be positive (point {!r})".format(point))
        else:
            raise FaultSpecError(
                "fault rule {!r} needs '@hits' or '%every' trigger syntax".format(part))
        point = point.strip()
        if point not in KNOWN_POINTS:
            raise FaultSpecError("unknown injection point {!r}; known points are {}".format(
                point, sorted(KNOWN_POINTS)))
        if point in rules:
            raise FaultSpecError("injection point {!r} appears twice in the plan".format(point))
        rules[point] = FaultRule(point=point, at=at, every=every, arg=arg)
    if not rules:
        raise FaultSpecError("fault plan {!r} holds no rules".format(spec))
    return rules


class FaultInjector:
    """Per-process hit counters over a parsed fault plan.

    :meth:`check` increments the named point's counter and returns the
    point's rule iff it fires on this hit — counting only happens for
    points the plan actually names, so untargeted points cost one dict
    lookup.
    """

    def __init__(self, spec: str):
        self.spec = str(spec)
        self._rules = parse_plan(spec)
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    def check(self, point: str) -> FaultRule | None:
        rule = self._rules.get(point)
        if rule is None:
            return None
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            fires = rule.fires(hit)
            if fires:
                self._fired[point] = self._fired.get(point, 0) + 1
        return rule if fires else None

    def hits(self, point: str) -> int:
        """How many times *point* has been checked in this process."""
        with self._lock:
            return self._hits.get(point, 0)

    def fired_snapshot(self) -> dict[str, int]:
        """Per-point count of checks that actually fired in this process.

        Crash-style faults never show up here in the dying process's report
        (the process is gone); the surviving side observes them instead.
        The serving workers ship this snapshot back over the result pipe so
        the parent can expose per-fault-point counters.
        """
        with self._lock:
            return dict(self._fired)


_lock = threading.Lock()
_injector: FaultInjector | None = None
_env_loaded = False


def arm(spec: str) -> FaultInjector:
    """Install *spec* as this process's fault plan (replacing any prior one)."""
    global _injector, _env_loaded
    injector = FaultInjector(spec)
    with _lock:
        _injector = injector
        _env_loaded = True
    return injector


def disarm() -> None:
    """Remove the process fault plan (and ignore ``REPRO_FAULTS`` from now on)."""
    global _injector, _env_loaded
    with _lock:
        _injector = None
        _env_loaded = True


@contextmanager
def armed(spec: str):
    """Context manager arming *spec* for the block, disarming on exit."""
    injector = arm(spec)
    try:
        yield injector
    finally:
        disarm()


def active() -> FaultInjector | None:
    """The armed injector, arming one from ``REPRO_FAULTS`` on first use."""
    global _injector, _env_loaded
    with _lock:
        if not _env_loaded:
            _env_loaded = True
            spec = os.environ.get(ENV_VAR)
            if spec:
                _injector = FaultInjector(spec)
        return _injector


def check(point: str) -> FaultRule | None:
    """Count one hit of *point* against the active plan; rule iff it fires."""
    injector = active()
    if injector is None:
        return None
    return injector.check(point)


def fired_snapshot() -> dict[str, int]:
    """Fired counts of the armed injector, or ``{}`` when disarmed."""
    with _lock:
        injector = _injector
    if injector is None:
        return {}
    return injector.fired_snapshot()
