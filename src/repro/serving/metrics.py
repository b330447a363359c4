"""Serving metrics: monotonic counters, gauges and latency histograms.

One :class:`LatencyHistogram` per endpoint records every observed request
duration as ``count / total_s / max_s`` plus a fixed-bucket cumulative
histogram — the schema is identical whether it is read in-process through
:meth:`SynthesisService.stats` or over the wire from the server's
``/stats`` endpoint, so dashboards need a single decoder.  Buckets are
upper bounds in seconds; each observation lands in the first bucket whose
bound is >= the duration (the last bucket is unbounded), Prometheus-style
cumulative counts.

:class:`MetricsRegistry` also holds *labeled* counters and gauges
(``registry.counter("requests_total", endpoint="sample_table")``): one
independent series per ``(name, sorted-label-set)``, rendered either as
``name{key="value"}`` strings for the JSON ``/stats`` payload or as native
series by ``repro.obs.prom`` for the ``/metrics`` Prometheus endpoint.

Everything here is thread-safe and append-only: recorders never reset, so
deltas between two snapshots are always meaningful.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

#: Upper bucket bounds in seconds; the implicit final bucket is +inf.
LATENCY_BUCKETS_S = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                     0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Canonical label-set form: sorted ``(key, value)`` pairs.
LabelKey = "tuple[tuple[str, str], ...]"


def format_series(name: str, labels: tuple) -> str:
    """Render ``name{key="value",...}`` for JSON snapshots (no labels → name)."""

    if not labels:
        return name
    rendered = ",".join('{}="{}"'.format(key, value) for key, value in labels)
    return "{}{{{}}}".format(name, rendered)


class Counter:
    """A thread-safe monotonic counter.

    Bare ``int += 1`` from multiple threads happens to survive under the
    GIL today, but the resilience counters (restarts, retries, deadline
    kills, breaker trips) are incremented from the worker pool's
    supervisor thread and request threads at once — this makes the
    increment explicit and safe.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe instantaneous value (last write wins)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (used for peak-RSS style gauges)."""
        value = float(value)
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class LatencyHistogram:
    """Monotonic latency accumulator with fixed buckets."""

    def __init__(self, buckets=LATENCY_BUCKETS_S):
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self._bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, seconds: float) -> None:
        seconds = max(float(seconds), 0.0)
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if seconds <= bound:
                index = position
                break
        with self._lock:
            self.count += 1
            self.total_s += seconds
            if seconds > self.max_s:
                self.max_s = seconds
            self._bucket_counts[index] += 1

    @contextmanager
    def time(self):
        """Context manager recording the elapsed wall time of the block."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - started)

    def quantile(self, q: float) -> float:
        """Approximate quantile, linearly interpolated within its bucket.

        The *q*-quantile rank is located in the cumulative bucket counts,
        then positioned inside the winning bucket assuming observations are
        uniform across it: ``lower + (rank - seen_before) / in_bucket *
        (upper - lower)``.  The overflow bucket has no finite upper bound,
        so ranks landing there report ``max_s``.  Returns 0.0 before any
        observation.  (The previous behaviour — returning the bare bucket
        upper bound — over-reported mid-bucket quantiles by up to a whole
        bucket width.)
        """
        with self._lock:
            total = self.count
            max_s = self.max_s
            counts = list(self._bucket_counts)
        if total == 0:
            return 0.0
        rank = max(1, int(q * total + 0.5))
        seen = 0
        for position, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                if position >= len(self.buckets):
                    return max_s
                lower = self.buckets[position - 1] if position > 0 else 0.0
                upper = self.buckets[position]
                fraction = (rank - seen) / bucket_count
                return lower + fraction * (upper - lower)
            seen += bucket_count
        return max_s

    def snapshot(self) -> dict:
        """The wire schema: count/total/max plus cumulative bucket counts."""
        with self._lock:
            counts = list(self._bucket_counts)
            out = {
                "count": self.count,
                "total_s": self.total_s,
                "max_s": self.max_s,
            }
        cumulative = []
        seen = 0
        for bucket_count in counts:
            seen += bucket_count
            cumulative.append(seen)
        out["buckets_s"] = list(self.buckets)
        out["cumulative_counts"] = cumulative
        return out


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class MetricsRegistry:
    """Named histograms plus labeled counters/gauges, created on first use."""

    def __init__(self):
        self._lock = threading.Lock()
        self._histograms: dict[str, LatencyHistogram] = {}
        self._counters: dict[str, dict[tuple, Counter]] = {}
        self._gauges: dict[str, dict[tuple, Gauge]] = {}

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            return histogram

    def counter(self, name: str, **labels) -> Counter:
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            counter = series.get(key)
            if counter is None:
                counter = series[key] = Counter()
            return counter

    def gauge(self, name: str, **labels) -> Gauge:
        key = _label_key(labels)
        with self._lock:
            series = self._gauges.setdefault(name, {})
            gauge = series.get(key)
            if gauge is None:
                gauge = series[key] = Gauge()
            return gauge

    def snapshot(self) -> dict:
        with self._lock:
            items = list(self._histograms.items())
        return {name: histogram.snapshot() for name, histogram in items}

    def counter_series(self) -> dict:
        """``{name: [(label_pairs, value), ...]}`` for the Prometheus renderer."""
        with self._lock:
            names = {name: list(series.items()) for name, series in self._counters.items()}
        return {
            name: [(labels, counter.value) for labels, counter in series]
            for name, series in names.items()
        }

    def gauge_series(self) -> dict:
        with self._lock:
            names = {name: list(series.items()) for name, series in self._gauges.items()}
        return {
            name: [(labels, gauge.value) for labels, gauge in series]
            for name, series in names.items()
        }

    def counters_snapshot(self) -> dict:
        """``{'name{key="value"}': value}`` — the JSON ``/stats`` rendering."""
        return {
            format_series(name, labels): value
            for name, series in sorted(self.counter_series().items())
            for labels, value in sorted(series)
        }

    def gauges_snapshot(self) -> dict:
        return {
            format_series(name, labels): value
            for name, series in sorted(self.gauge_series().items())
            for labels, value in sorted(series)
        }
