"""Artifact-store + serving benchmark.

Measures the three things the train-once / serve-many split buys:

* **save/load latency** — persisting a fitted GReaTER pipeline as a bundle
  and loading it back;
* **cold start vs retrain** — ``load + sample`` in a fresh synthesizer
  state against ``fit + sample`` from scratch, with a hard assertion that
  the loaded pipeline produces the **byte-identical** synthetic flat table
  (CSV bytes compared) for the same seed, on both the ``object`` and
  ``compiled`` engines;
* **process-worker scaling** — the same requests through the process
  executor (``ServingConfig(executor="process", mmap=True)``) at 1/2/4
  workers: rows/s plus p50/p95 from the serving latency histograms, a
  sha256 digest of the output per worker count (all must match the serial
  reference), and the 4-vs-1 worker throughput ratio.  The ratio is only
  *asserted* (>= ``--scaling-margin``) when the machine actually has >= 4
  CPU cores — on smaller boxes it is recorded but cannot be meaningful;
* **out-of-core streaming** — a table >= 10x the chunk budget streamed
  through :class:`repro.store.stream.CsvTableSink` on both engines: the
  streamed CSV must be sha256-identical to the in-memory materialization
  of the same blocks, and the tracemalloc allocation peak of the chunked
  walk must stay O(chunk), not O(table) — asserted by streaming 4x the
  rows and requiring the peak to grow by at most ``--stream-growth-bound``
  (in-memory peaks grow with the table; streamed peaks must not).
  Process peak RSS is recorded alongside.  The compiled engine's per-block
  lane cap is asserted too: one small block sampled through
  ``sample_block`` (draw chunks capped at the block's subject count) must
  peak at no more than ``--lane-cap-bound`` times the uncapped path;
* **observability overhead** — the same ``sample_table`` workload with
  request tracing disabled and enabled (in-memory ring sink), interleaved
  over several rounds with min-of-round timings: the enabled/disabled
  ratio must stay under ``--trace-overhead-bound`` (default 1.05, i.e.
  < 5% overhead), the traced output must be byte-identical to the
  untraced output, and every captured span must pass the documented
  schema (:mod:`repro.obs.schema`);
* **resilience under a crash storm** — the same deterministic workload
  through a 4-worker process pool with the :mod:`repro.faults` harness
  killing a worker every 25th task (``worker_crash%25``): a single
  1000-block ``sample_table`` must complete with retries enabled and be
  CSV byte-identical to the fault-free serial reference, and a storm of
  smaller requests must reach a 100% success rate with retries on (the
  retries-off failure rate and the p95 latency overhead versus a
  fault-free pool are recorded alongside).

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_store
    PYTHONPATH=src python -m benchmarks.perf.bench_store --smoke   # CI-sized

The report lands in ``BENCH_store.json``; the process exits non-zero on any
load/sample or worker mismatch, on a chaos-run failure or digest
mismatch, and on a sub-100% retries-on storm success rate (CI runs
``--smoke`` and fails on mismatch, and on a missed scaling margin when
enough cores are present).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.connecting.connector import ConnectorConfig
from repro.datasets.digix import DigixConfig, generate_digix_like
from repro.enhancement.enhancer import EnhancerConfig
from repro.frame.io import write_csv
from repro.frame.ops import concat_rows
from repro.frame.table import Table
from repro.pipelines.base import FittedPipeline
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.serving import ServingConfig, SynthesisService, process_peak_rss_bytes
from repro.store.bundle import load_fitted_pipeline
from repro.store.stream import CsvTableSink

WORKER_COUNTS = (1, 2, 4)


def _trial(n_users: int, seed: int):
    dataset = generate_digix_like(DigixConfig(
        n_tasks=1,
        n_users_per_task=n_users,
        ads_rows_per_user=(2, 4),
        feeds_rows_per_user=(2, 4),
        seed=seed,
    ))
    return dataset.trials()[0]


def _pipeline_config(seed: int, engine: str) -> PipelineConfig:
    return PipelineConfig(
        seed=seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="understandability", seed=seed),
        connector=ConnectorConfig(remove_noisy_columns=False),
        generation_engine=engine,
        training_engine=engine,
    )


def _csv_bytes(table: Table) -> bytes:
    """Canonical CSV rendering used for the byte-identity assertions."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.column_names)
    for row in table.iter_rows():
        writer.writerow(["" if row[name] is None else row[name] for name in table.column_names])
    return buffer.getvalue().encode("utf-8")


def _tables_digest(tables: list[Table]) -> str:
    """One sha256 over the canonical CSV bytes of a sequence of tables."""
    digest = hashlib.sha256()
    for table in tables:
        digest.update(_csv_bytes(table))
    return digest.hexdigest()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(n_users: int, n_sample: int, requests: int, seed: int = 7,
        scaling_margin: float = 2.5, stream_growth_bound: float = 1.5,
        lane_cap_bound: float = 0.9) -> dict:
    trial = _trial(n_users, seed)
    workdir = Path(tempfile.mkdtemp(prefix="bench_store_"))
    report: dict = {"n_users": n_users, "n_sample": n_sample, "seed": seed,
                    "numpy_version": np.__version__}

    # -- cold start vs retrain, byte identity, both engines ---------------------------
    # "cold start" is time-to-ready-to-serve: loading the bundle instead of
    # retraining from scratch.  The sampled output is then asserted to be
    # byte-identical (CSV bytes) between the retrained and the loaded state.
    engines: dict[str, dict] = {}
    for engine in ("object", "compiled"):
        config = _pipeline_config(seed, engine)
        start = time.perf_counter()
        fitted = GReaTERPipeline(config).fit(trial.ads, trial.feeds)
        fit_s = time.perf_counter() - start
        warm_result = fitted.sample(n_subjects=n_sample, seed=seed + 1)

        bundle_path = workdir / "bundle_{}".format(engine)
        start = time.perf_counter()
        digest = fitted.save(bundle_path)
        save_s = time.perf_counter() - start

        start = time.perf_counter()
        loaded, loaded_digest = load_fitted_pipeline(bundle_path)
        load_s = time.perf_counter() - start

        start = time.perf_counter()
        cold_result = loaded.sample(n_subjects=n_sample, seed=seed + 1)
        first_sample_s = time.perf_counter() - start

        identical = (_csv_bytes(cold_result.synthetic_flat)
                     == _csv_bytes(warm_result.synthetic_flat)
                     and cold_result.synthetic_parent == warm_result.synthetic_parent
                     and cold_result.synthetic_child == warm_result.synthetic_child)
        engines[engine] = {
            "digest": digest[:12],
            "digest_stable": digest == loaded_digest,
            "save_s": round(save_s, 6),
            "load_s": round(load_s, 6),
            "retrain_s": round(fit_s, 6),
            "first_sample_s": round(first_sample_s, 6),
            "cold_start_speedup": round(fit_s / load_s, 2) if load_s > 0 else float("inf"),
            "identical_output": identical,
            "synthetic_rows": warm_result.synthetic_flat.num_rows,
        }
    report["engines"] = engines

    bundle_path = workdir / "bundle_compiled"

    # -- process-worker scaling ---------------------------------------------------------
    # Each request block-shards across the pool's worker processes; workers
    # cold-start by loading the bundle themselves (memory-mapped, so the big
    # count tables share page cache).  Every worker count must reproduce the
    # serial reference digest; throughput scaling is recorded always but only
    # meaningful on machines with enough cores.
    proc_sample = max(n_sample, 16 * max(WORKER_COUNTS))
    proc_block = max(4, proc_sample // (2 * max(WORKER_COUNTS)))
    proc_requests = max(2, requests)
    with SynthesisService.from_bundle(bundle_path, ServingConfig(
            shards=1, block_size=proc_block, cache_bytes=0)) as serial_service:
        expected_digest = _tables_digest(
            [serial_service.sample_table(proc_sample, seed=seed + index)
             for index in range(proc_requests)])
    workers_out: list[dict] = []
    throughput: dict[int, float] = {}
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        service = SynthesisService.from_bundle(bundle_path, ServingConfig(
            shards=workers, block_size=proc_block, cache_bytes=0,
            executor="process", mmap=True))
        startup_s = time.perf_counter() - start
        try:
            service.sample_table(proc_sample, seed=seed)  # warm-up pass
            start = time.perf_counter()
            tables = [service.sample_table(proc_sample, seed=seed + index)
                      for index in range(proc_requests)]
            elapsed = time.perf_counter() - start
            histogram = service.metrics.histogram("sample_table")
            p50_s, p95_s = histogram.quantile(0.5), histogram.quantile(0.95)
        finally:
            service.close()
        total_rows = sum(table.num_rows for table in tables)
        throughput[workers] = total_rows / elapsed if elapsed > 0 else float("inf")
        workers_out.append({
            "workers": workers,
            "startup_s": round(startup_s, 6),
            "seconds": round(elapsed, 6),
            "rows_per_s": round(throughput[workers], 1),
            "p50_s": round(p50_s, 6),
            "p95_s": round(p95_s, 6),
            "output_digest": _tables_digest(tables),
        })
    cpu_count = os.cpu_count() or 1
    report["process_serving"] = {
        "cpu_count": cpu_count,
        "mmap": True,
        "sample": proc_sample,
        "block_size": proc_block,
        "requests": proc_requests,
        "expected_digest": expected_digest,
        "workers": workers_out,
        "identical_across_workers": all(
            entry["output_digest"] == expected_digest for entry in workers_out),
        "scaling_4w_over_1w": round(
            throughput[max(WORKER_COUNTS)] / throughput[min(WORKER_COUNTS)], 2),
        "scaling_margin": scaling_margin,
        "scaling_asserted": cpu_count >= max(WORKER_COUNTS),
    }

    # -- out-of-core streaming: O(chunk) memory, byte-identical CSV ---------------------
    # A table >= 10x the chunk budget is streamed block by block through the
    # CSV sink; the in-memory path materializes the identical blocks first,
    # so the two CSVs must be sha256-identical.  The memory gate runs on
    # tracemalloc peaks (process peak RSS is monotonic over the whole
    # benchmark, so it is recorded for the report only): streaming 4x the
    # rows must not grow the streamed peak meaningfully — the signature of
    # O(chunk) rather than O(table) memory.
    chunk_rows = max(4, n_sample // 8)
    n_stream = 12 * chunk_rows
    stream_engines: dict[str, dict] = {}

    def _streamed(fitted, path: Path, n: int) -> tuple[int, float, int, int]:
        tracemalloc.start()
        start = time.perf_counter()
        with CsvTableSink(path) as sink:
            sink.write_all(fitted.iter_sample_flat(
                n_subjects=n, seed=seed + 2, chunk_rows=chunk_rows))
            rows, chunks = sink.rows_written, sink.chunks_written
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak, elapsed, rows, chunks

    for engine in ("object", "compiled"):
        fitted, _ = load_fitted_pipeline(workdir / "bundle_{}".format(engine))

        whole_path = workdir / "whole_{}.csv".format(engine)
        tracemalloc.start()
        start = time.perf_counter()
        whole = concat_rows(list(fitted.iter_sample_flat(
            n_subjects=n_stream, seed=seed + 2, chunk_rows=chunk_rows)))
        write_csv(whole, whole_path)
        in_memory_s = time.perf_counter() - start
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        stream_path = workdir / "stream_{}.csv".format(engine)
        stream_peak, streamed_s, rows_written, chunks_written = _streamed(
            fitted, stream_path, n_stream)
        big_peak, _, big_rows, _ = _streamed(
            fitted, workdir / "stream4x_{}.csv".format(engine), 4 * n_stream)

        stream_engines[engine] = {
            "rows": rows_written,
            "chunks": chunks_written,
            "in_memory_s": round(in_memory_s, 6),
            "streamed_s": round(streamed_s, 6),
            "in_memory_peak_bytes": full_peak,
            "streamed_peak_bytes": stream_peak,
            "peak_ratio": round(stream_peak / full_peak, 4) if full_peak else None,
            "rows_4x": big_rows,
            "streamed_peak_bytes_4x": big_peak,
            "peak_growth_4x": round(big_peak / stream_peak, 4) if stream_peak else None,
            "identical_output": _sha256_file(stream_path) == _sha256_file(whole_path),
        }
    # -- lane-cap headroom: per-block buffers scale with the block ----------------------
    # ``sample_block`` passes the block's subject count as ``max_lanes``,
    # which fixes the draw chunks: each chunk's softmax draw works on a
    # (chunk lanes, candidates) slice, while the guided session spans
    # ``min(lanes, batch_lanes)`` lanes either way.  Replaying the same
    # small block through the uncapped path (one draw chunk over the whole
    # child fan-out) must allocate measurably more, even though the capped
    # path also pays for decoding.  Each path runs once untraced first, so
    # both traced runs replay warm: lazily built state and the score memo
    # of the rows they sample are in place, and the peaks differ by the
    # draw buffers, not by memo misses.
    fitted, _ = load_fitted_pipeline(workdir / "bundle_compiled")

    def _uncapped():
        if len(fitted.synthesizers) == 2:
            fitted._two_round_flat(chunk_rows, seed + 3, subject_offset=0)
        else:
            fitted.synthesizers[0].sample_flat(chunk_rows, seed=seed + 3,
                                               subject_offset=0)

    fitted.sample_block(0, chunk_rows, seed + 3)
    tracemalloc.start()
    fitted.sample_block(0, chunk_rows, seed + 3)
    _, capped_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    _uncapped()
    tracemalloc.start()
    _uncapped()
    _, uncapped_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    lane_cap = {
        "block_subjects": chunk_rows,
        "capped_peak_bytes": capped_peak,
        "uncapped_peak_bytes": uncapped_peak,
        "peak_ratio": round(capped_peak / uncapped_peak, 4) if uncapped_peak else None,
        "bound": lane_cap_bound,
    }
    lane_cap["within_bound"] = (lane_cap["peak_ratio"] is not None
                                and lane_cap["peak_ratio"] <= lane_cap_bound)

    report["streaming"] = {
        "chunk_rows": chunk_rows,
        "n_subjects": n_stream,
        "chunks_over_budget": n_stream // chunk_rows,
        "growth_bound": stream_growth_bound,
        "peak_rss_bytes": process_peak_rss_bytes(),
        "engines": stream_engines,
        "lane_cap": lane_cap,
        "identical_output": all(
            entry["identical_output"] for entry in stream_engines.values()),
        "within_memory_bound": all(
            entry["peak_growth_4x"] is not None
            and entry["peak_growth_4x"] <= stream_growth_bound
            for entry in stream_engines.values()),
    }

    # -- observability: tracing must be (nearly) free -----------------------------------
    # Disabled tracing is the default and must cost nothing; enabled tracing
    # buys per-stage spans for < 5% end-to-end overhead.  Modes alternate
    # within each round so drift (page cache, thermal) hits both equally,
    # and min-of-rounds is compared — the min is the least-noisy estimate.
    from repro.obs import trace as obs_trace
    from repro.obs.schema import validate_lines

    obs_rounds, obs_requests = 3, max(2, requests)
    obs_config = ServingConfig(shards=1, block_size=max(8, n_sample // 8),
                               cache_bytes=0)
    times: dict[str, list[float]] = {"disabled": [], "enabled": []}
    outputs: dict[str, str] = {}
    spans_captured = 0
    schema_errors: list[str] = []
    with SynthesisService.from_bundle(bundle_path, obs_config) as service:
        service.sample_table(n_sample, seed=seed + 50)  # warm-up
        for _ in range(obs_rounds):
            for mode in ("disabled", "enabled"):
                if mode == "enabled":
                    obs_trace.configure("ring:8192")
                else:
                    obs_trace.disable()
                try:
                    start = time.perf_counter()
                    tables = [service.sample_table(n_sample, seed=seed + 50 + index)
                              for index in range(obs_requests)]
                    times[mode].append(time.perf_counter() - start)
                    outputs.setdefault(mode, _tables_digest(tables))
                    if mode == "enabled":
                        snapshot = obs_trace.ring_snapshot() or {}
                        spans = snapshot.get("spans", [])
                        spans_captured = max(spans_captured, len(spans))
                        if not schema_errors:
                            schema_errors = validate_lines(spans)
                finally:
                    obs_trace.disable()
    overhead_ratio = (min(times["enabled"]) / min(times["disabled"])
                      if min(times["disabled"]) > 0 else None)
    report["observability"] = {
        "rounds": obs_rounds,
        "requests_per_round": obs_requests,
        "disabled_s": [round(value, 6) for value in times["disabled"]],
        "enabled_s": [round(value, 6) for value in times["enabled"]],
        "min_disabled_s": round(min(times["disabled"]), 6),
        "min_enabled_s": round(min(times["enabled"]), 6),
        "overhead_ratio": round(overhead_ratio, 4) if overhead_ratio else None,
        "spans_captured": spans_captured,
        "schema_errors": schema_errors[:10],
        "identical_output": outputs.get("enabled") == outputs.get("disabled"),
    }

    # -- resilience: availability under a worker-crash storm ----------------------------
    # The fault plan kills a worker on every 25th task of each worker life;
    # retries re-dispatch the dead worker's orphaned blocks.  Because every
    # block's seed derives from the request seed alone, a retried block is
    # bit-identical to a first-try block — asserted by comparing CSV digests
    # against a fault-free serial reference.
    resil_workers = 4
    resil_faults = "worker_crash%25"
    resil_retries = 3
    resil_blocks = 1000
    storm_requests, storm_blocks = 24, 25
    chaos_kwargs = dict(shards=resil_workers, block_size=1, cache_bytes=0,
                        executor="process", mmap=True, breaker_threshold=0,
                        retry_backoff_s=0.01)

    with SynthesisService.from_bundle(bundle_path, ServingConfig(
            shards=1, block_size=1, cache_bytes=0)) as serial_service:
        reference_digest = _tables_digest(
            [serial_service.sample_table(resil_blocks, seed=seed + 31)])
        storm_reference = _tables_digest(
            [serial_service.sample_table(storm_blocks, seed=seed + 200 + index)
             for index in range(storm_requests)])

    with SynthesisService.from_bundle(bundle_path, ServingConfig(
            retries=resil_retries, faults=resil_faults, **chaos_kwargs)) as service:
        start = time.perf_counter()
        try:
            table = service.sample_table(resil_blocks, seed=seed + 31)
            single_success = True
            single_digest_equal = _tables_digest([table]) == reference_digest
        except Exception as error:  # noqa: BLE001 - the failure IS the measurement
            single_success, single_digest_equal = False, False
            print("chaos single request failed: {}".format(error))
        chaos_s = time.perf_counter() - start
        pool_stats = service.pool.stats()

    def _storm(retries: int, faults: str | None) -> dict:
        with SynthesisService.from_bundle(bundle_path, ServingConfig(
                retries=retries, faults=faults, **chaos_kwargs)) as service:
            tables: list[Table | None] = []
            start = time.perf_counter()
            for index in range(storm_requests):
                try:
                    tables.append(service.sample_table(
                        storm_blocks, seed=seed + 200 + index))
                except Exception:  # noqa: BLE001 - failed requests are counted
                    tables.append(None)
            elapsed = time.perf_counter() - start
            histogram = service.metrics.histogram("sample_table")
            stats = service.pool.stats()
        succeeded = [entry for entry in tables if entry is not None]
        return {
            "success_rate": round(len(succeeded) / storm_requests, 4),
            "failed": storm_requests - len(succeeded),
            "seconds": round(elapsed, 6),
            "p95_s": round(histogram.quantile(0.95), 6),
            "digest_equal": (len(succeeded) == storm_requests
                             and _tables_digest(succeeded) == storm_reference),
            "worker_restarts": stats["restarts"],
            "tasks_retried": stats["tasks_retried"],
            "retries_exhausted": stats["retries_exhausted"],
        }

    fault_free = _storm(retries=0, faults=None)
    with_retries = _storm(retries=resil_retries, faults=resil_faults)
    without_retries = _storm(retries=0, faults=resil_faults)
    report["resilience"] = {
        "workers": resil_workers,
        "faults": resil_faults,
        "retries": resil_retries,
        "single_request": {
            "blocks": resil_blocks,
            "success": single_success,
            "digest_equal": single_digest_equal,
            "seconds": round(chaos_s, 6),
            "worker_restarts": pool_stats["restarts"],
            "tasks_retried": pool_stats["tasks_retried"],
            "retries_exhausted": pool_stats["retries_exhausted"],
        },
        "storm": {
            "requests": storm_requests,
            "blocks_per_request": storm_blocks,
            "fault_free": fault_free,
            "with_retries": with_retries,
            "without_retries": without_retries,
            "p95_overhead": (round(with_retries["p95_s"] / fault_free["p95_s"], 2)
                             if fault_free["p95_s"] > 0 else None),
        },
    }

    report["all_identical"] = (
        all(entry["identical_output"] for entry in engines.values())
        and report["process_serving"]["identical_across_workers"]
        and report["streaming"]["identical_output"]
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the artifact store and the synthesis serving layer."
    )
    parser.add_argument("--users", type=int, default=48,
                        help="users in the training trial (default 48)")
    parser.add_argument("--sample", type=int, default=96,
                        help="synthetic subjects per sampling request (default 96)")
    parser.add_argument("--requests", type=int, default=4,
                        help="serving requests per measured configuration (default 4)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (8 users, 16 subjects)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scaling-margin", type=float, default=2.5,
                        help="required 4-worker over 1-worker rows/s ratio, "
                             "asserted only on machines with >= 4 cores (default 2.5)")
    parser.add_argument("--stream-growth-bound", type=float, default=1.5,
                        help="max allowed growth of the streaming allocation "
                             "peak when the table grows 4x (default 1.5)")
    parser.add_argument("--lane-cap-bound", type=float, default=0.9,
                        help="max allowed capped/uncapped allocation-peak ratio "
                             "for one small block (default 0.9)")
    parser.add_argument("--trace-overhead-bound", type=float, default=1.05,
                        help="max allowed enabled/disabled tracing time ratio "
                             "(default 1.05 = < 5%% overhead)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_store.json"),
                        help="output JSON path (default ./BENCH_store.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        users, sample, requests = 8, 16, 2
    else:
        users, sample, requests = args.users, args.sample, args.requests
    report = run(users, sample, requests, seed=args.seed,
                 scaling_margin=args.scaling_margin,
                 stream_growth_bound=args.stream_growth_bound,
                 lane_cap_bound=args.lane_cap_bound)
    report["mode"] = "smoke" if args.smoke else "full"
    report["observability"]["overhead_bound"] = args.trace_overhead_bound
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for engine, entry in report["engines"].items():
        print("{:9s} save {:>8.3f}s  load {:>8.3f}s  retrain {:>8.3f}s  "
              "cold-start speedup {:>8.2f}x  identical={}".format(
                  engine, entry["save_s"], entry["load_s"], entry["retrain_s"],
                  entry["cold_start_speedup"], entry["identical_output"]))
    process = report["process_serving"]
    for entry in process["workers"]:
        print("process workers={:d}  startup {:>7.3f}s  {:>8.3f}s  {:>8.1f} rows/s  "
              "p50 {:.3f}s  p95 {:.3f}s".format(
                  entry["workers"], entry["startup_s"], entry["seconds"],
                  entry["rows_per_s"], entry["p50_s"], entry["p95_s"]))
    print("process scaling 4w/1w = {}x on {} cores  identical_across_workers={}".format(
        process["scaling_4w_over_1w"], process["cpu_count"],
        process["identical_across_workers"]))
    streaming = report["streaming"]
    for engine, entry in streaming["engines"].items():
        print("streaming {:9s} {:d} rows in {:d} chunks of {:d}  "
              "peak {:.0f} KiB (in-memory {:.0f} KiB)  "
              "4x rows -> peak x{:.2f}  identical={}".format(
                  engine, entry["rows"], entry["chunks"], streaming["chunk_rows"],
                  entry["streamed_peak_bytes"] / 1024,
                  entry["in_memory_peak_bytes"] / 1024,
                  entry["peak_growth_4x"], entry["identical_output"]))
    lane_cap = streaming["lane_cap"]
    print("lane cap: {}-subject block peak {:.0f} KiB capped vs {:.0f} KiB "
          "uncapped (x{}, bound x{})".format(
              lane_cap["block_subjects"], lane_cap["capped_peak_bytes"] / 1024,
              lane_cap["uncapped_peak_bytes"] / 1024, lane_cap["peak_ratio"],
              lane_cap["bound"]))
    observability = report["observability"]
    print("observability: tracing off {:.3f}s  on {:.3f}s  overhead x{}  "
          "{} spans  schema_errors={}  identical={}".format(
              observability["min_disabled_s"], observability["min_enabled_s"],
              observability["overhead_ratio"], observability["spans_captured"],
              len(observability["schema_errors"]),
              observability["identical_output"]))
    resilience = report["resilience"]
    single = resilience["single_request"]
    storm = resilience["storm"]
    print("chaos single request: {} blocks under {} in {:.3f}s  "
          "restarts={} retried={}  success={} digest_equal={}".format(
              single["blocks"], resilience["faults"], single["seconds"],
              single["worker_restarts"], single["tasks_retried"],
              single["success"], single["digest_equal"]))
    print("chaos storm ({} x {} blocks): retries-on success {:.0%} "
          "(digest_equal={})  retries-off success {:.0%}  "
          "p95 {:.3f}s vs fault-free {:.3f}s ({}x)".format(
              storm["requests"], storm["blocks_per_request"],
              storm["with_retries"]["success_rate"],
              storm["with_retries"]["digest_equal"],
              storm["without_retries"]["success_rate"],
              storm["with_retries"]["p95_s"], storm["fault_free"]["p95_s"],
              storm["p95_overhead"]))
    print("wrote {}".format(args.out))

    if not report["all_identical"]:
        print("ERROR: loaded/served output does not match the in-process fit")
        return 1
    if (process["scaling_asserted"]
            and process["scaling_4w_over_1w"] < process["scaling_margin"]):
        print("ERROR: 4-worker throughput only {}x of 1-worker "
              "(margin {}x, {} cores)".format(
                  process["scaling_4w_over_1w"], process["scaling_margin"],
                  process["cpu_count"]))
        return 1
    if not streaming["within_memory_bound"]:
        print("ERROR: streaming allocation peak grew more than {}x on a 4x "
              "larger table: {}".format(
                  streaming["growth_bound"],
                  {engine: entry["peak_growth_4x"]
                   for engine, entry in streaming["engines"].items()}))
        return 1
    if not lane_cap["within_bound"]:
        print("ERROR: capping the engine batch at the block size left the "
              "small-block allocation peak at x{} of the uncapped path "
              "(bound x{})".format(lane_cap["peak_ratio"], lane_cap["bound"]))
        return 1
    if not (single["success"] and single["digest_equal"]):
        print("ERROR: the chaos single request must survive the crash storm "
              "with a byte-identical table (success={}, digest_equal={})".format(
                  single["success"], single["digest_equal"]))
        return 1
    if (observability["overhead_ratio"] is None
            or observability["overhead_ratio"] > args.trace_overhead_bound):
        print("ERROR: enabled tracing costs x{} of the untraced run "
              "(bound x{})".format(observability["overhead_ratio"],
                                   args.trace_overhead_bound))
        return 1
    if not observability["identical_output"]:
        print("ERROR: tracing changed the sampled output")
        return 1
    if observability["schema_errors"]:
        print("ERROR: captured spans violate the documented schema: {}".format(
            observability["schema_errors"][:3]))
        return 1
    if observability["spans_captured"] == 0:
        print("ERROR: enabled tracing captured no spans")
        return 1
    if storm["with_retries"]["success_rate"] < 1.0 or not storm["with_retries"]["digest_equal"]:
        print("ERROR: the retries-on crash storm must reach 100% success with "
              "byte-identical output (success_rate={}, digest_equal={})".format(
                  storm["with_retries"]["success_rate"],
                  storm["with_retries"]["digest_equal"]))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
