"""End-to-end serving benchmark: fit -> registry -> process pool -> HTTP.

Run from the repository root::

    python3 perfbench/run.py --workload digix-stream --seed 1 --seconds 50 --trace 0

Each run fits the workload's artifact into an empty registry with the
CLI, starts ``serve --registry DIR --digest HEX --executor process --mmap``
with one worker, sends a closed-loop list of requests drawn from
``--seed``, checks every answer, and prints one JSON object as its last
line of standard output.

``--trace 0`` measures with tracing off for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` sends a fixed request list twice, first
to the untraced server and then to one started through
``perfbench/launcher.py`` with ``--trace FILE``, and reports per-layer
self times, counts and the tracing overhead (see ``attribution.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy

from attribution import CLIENT_DECODE, CLIENT_ROOT, build_trees, self_times, walk
from loadgen import Client, Outcome, run_closed_loop, trace_id_for
from procs import BenchError, Server, run_cli_json
from workloads import WARMUP_SEED, WORKLOADS, Reference, fit_argv, request_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-ups per run (fit into an empty registry, serve until ready); the
#: run reports their median.
SETUP_REPEATS = 5
#: Request seeds drawn per run; a timed run stops long before the end.
MAX_REQUESTS = 50_000

#: Per-layer self-time metrics (ms per request) and the spans they sum.
SELF_METRICS = {
    "server.request.self_ms": ("server.request",),
    "server.table_payload_ms": ("server.table_payload",),
    "server.queue_wait_ms": ("server.queue_wait",),
    "service.self_ms": ("service.sample_table", "service.sample_database",
                        "service.stream_block"),
    "pool.queue_wait_ms": ("pool.queue_wait",),
    "pool.dispatch.self_ms": ("pool.dispatch",),
    "ipc.encode_ms": ("ipc.encode",),
    "ipc.decode_ms": ("ipc.decode",),
    "worker.task.self_ms": ("worker.task",),
    "stage.generate.self_ms": ("stage.generate",),
    "stage.sample.self_ms": ("stage.sample",),
    "stage.decode_ms": ("stage.decode",),
    "engine.choose.self_ms": ("engine.choose",),
    "engine.extend_rows_ms": ("engine.extend_rows",),
    "schema.sample_children.self_ms": ("schema.sample_children",),
    "client.decode_ms": (CLIENT_DECODE,),
    "unattributed_ms": (CLIENT_ROOT,),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def log(message: str) -> None:
    print("perfbench: " + message, file=sys.stderr, flush=True)


def serve_argv(workload, registry: Path, digest: str) -> list[str]:
    return ["--registry", str(registry), "--digest", digest, "--executor", "process",
            "--workers", "1", "--mmap", "--block-size", str(workload.block_size)]


def setup(workload, workdir: Path, servers: list) -> tuple[Server, Path, str, list]:
    """Fit into an empty registry and serve it, SETUP_REPEATS times; the
    last server stays up.  Returns it, its registry, digest and timings."""
    timings, digests = [], set()
    for repeat in range(SETUP_REPEATS):
        registry = workdir / "registry-{}".format(repeat)
        started = time.perf_counter()
        row = run_cli_json(fit_argv(workload, registry, workdir), SRC,
                           workdir / "fit.log")[0]
        fitted = time.perf_counter()
        if row.get("cache_hit") is not False:
            raise BenchError("fit into an empty registry was not a cache miss")
        digest = row["artifact_digest"]
        digests.add(digest)
        server = Server(["-m", "repro.cli", "serve", *serve_argv(workload, registry, digest)],
                        SRC, workdir, "serve-{}".format(repeat))
        servers.append(server)
        server.wait_ready()
        ready = time.perf_counter()
        timings.append({"setup_s": ready - started, "fit_s": fitted - started,
                        "serve_ready_s": ready - fitted})
        if repeat + 1 < SETUP_REPEATS:
            server.stop()
    if len(digests) != 1:
        raise BenchError("repeated fits gave different artifacts: {}".format(sorted(digests)))
    return server, registry, digest, timings


def warm_up(workload, server: Server) -> None:
    """One request of a single block, with a seed outside every list."""
    client = Client(server.host, server.port)
    try:
        outcome = Outcome(index=-1, seed=WARMUP_SEED)
        payload = {"seed": WARMUP_SEED}
        if workload.n is not None:
            payload["n"] = workload.block_size
        client.sample(workload.endpoint, payload, outcome, lambda *_: [])
    finally:
        client.close()
    if not outcome.ok or outcome.problems:
        raise BenchError("warm-up request failed: status {} {} {}".format(
            outcome.status, outcome.error or "", outcome.problems))


def drive(workload, server: Server, seeds, check, **limits) -> list[Outcome]:
    return run_closed_loop(server.host, server.port, workload.endpoint, workload.n,
                           seeds, workload.clients, check, **limits)


def summarize(outcomes: list[Outcome]) -> dict:
    """Requests sent, succeeded, failed (refused and transport errors
    included) and the rows per second of the whole list."""
    ok = [outcome for outcome in outcomes if outcome.ok]
    wall_s = (max(o.end_us for o in outcomes) - min(o.send_us for o in outcomes)) / 1e6
    rows = sum(o.rows for o in ok)
    return {
        "sent": len(outcomes),
        "succeeded": len(ok),
        "failed": len(outcomes) - len(ok),
        "refused": sum(1 for o in outcomes if o.status == 429),
        "transport_errors": sum(1 for o in outcomes if o.error is not None),
        "rows": rows,
        "wall_s": wall_s,
        "rows_per_s": rows / wall_s,
    }


def output_digest(outcomes: list[Outcome]) -> str:
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update("{}:{}\n".format(outcome.seed, outcome.digest).encode("ascii"))
    return digest.hexdigest()


def problems_of(outcomes: list[Outcome]) -> list[str]:
    problems = []
    for outcome in outcomes:
        if not outcome.ok:
            problems.append("request {} (seed {}): status {} {}".format(
                outcome.index, outcome.seed, outcome.status, outcome.error or ""))
        problems.extend("request {} (seed {}): {}".format(outcome.index, outcome.seed, p)
                        for p in outcome.problems)
    return problems


def waste(stats: dict) -> dict:
    """The /stats counters of failed and wasted work."""
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    return {"cache_hits": hits, "cache_misses": misses,
            "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "tasks_retried": stats["pool"]["tasks_retried"],
            "worker_restarts": stats["worker_restarts"],
            "http_errors": stats["server"]["http_errors"],
            "refused": stats["server"]["rejected"]}


def guard_cache(counters: dict) -> None:
    if counters["cache_hits"]:
        raise BenchError("the result cache answered {} requests: every request must "
                         "carry its own seed (workload bug)".format(counters["cache_hits"]))


def timed_run(workload, args, server, seeds, check, timings) -> tuple[dict, dict]:
    memory = {}

    def read_memory(completed: int) -> None:
        # peak RSS after a fixed number of requests: the result cache grows
        # with every request served, so a reading at the end of the run
        # would measure how many requests the run managed, not memory
        if completed == workload.min_requests:
            memory.update(server.stats())

    outcomes = drive(workload, server, seeds, check, seconds=args.seconds,
                     min_requests=workload.min_requests, on_completed=read_memory)
    stats = server.stats()
    counters = waste(stats)
    guard_cache(counters)
    summary = summarize(outcomes)
    latencies = [o.latency_s for o in outcomes if o.ok]
    first_chunks = [o.first_chunk_s for o in outcomes if o.ok]
    if len(latencies) < 2:
        raise BenchError("only {} requests succeeded".format(len(latencies)))
    peak_rss = memory["peak_rss_bytes"] + memory["pool"]["max_worker_peak_rss_bytes"]
    metrics = {
        "setup_s": metric(statistics.median(t["setup_s"] for t in timings), "s"),
        "rows_per_s": metric(summary["rows_per_s"], "rows/s"),
        "request_p50_s": metric(statistics.median(latencies), "s"),
        "first_chunk_p50_s": metric(statistics.median(first_chunks), "s"),
        "peak_rss_mb": metric(peak_rss / 2**20, "MB"),
    }
    # reported, but not a bounded metric: the host's slow phases decide
    # which requests land in the top 5% of a run (see README.md)
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18]
    detail = dict(summary, stats=counters, problems=problems_of(outcomes),
                  output_sha256=output_digest(outcomes[:workload.min_requests]),
                  request_p95_s=p95, beyond_p95=sum(1 for x in latencies if x > p95))
    return metrics, detail


def traced_run(workload, server, registry, digest, workdir, seeds, check, timings,
               servers) -> tuple[dict, dict]:
    seeds = seeds[:workload.trace_requests]
    untraced = drive(workload, server, seeds, check)
    counters = [waste(server.stats())]
    server.stop()
    trace_file = workdir / "trace.jsonl"
    traced_server = Server([str(ROOT / "perfbench" / "launcher.py"),
                            *serve_argv(workload, registry, digest),
                            "--trace", str(trace_file)], SRC, workdir, "serve-traced")
    servers.append(traced_server)
    traced_server.wait_ready()
    warm_up(workload, traced_server)
    traced = drive(workload, traced_server, seeds, check)
    counters.append(waste(traced_server.stats()))
    traced_server.stop()  # drains, so every span is in the file
    for item in counters:
        guard_cache(item)
    problems = problems_of(untraced) + problems_of(traced)
    if output_digest(untraced) != output_digest(traced):
        problems.append("traced and untraced answers differ")

    from repro.obs.view import load_spans

    spans = load_spans(str(trace_file))
    requests = [{"trace_id": trace_id_for(o.index),
                 "send_us": o.send_us, "end_us": o.end_us, "decode": o.decode}
                for o in traced]
    trees, tree_problems = build_trees(spans, requests)
    problems.extend(tree_problems)
    totals: dict[str, float] = {}
    wall_us = 0.0
    choose = {"calls": 0, "lanes": 0, "candidates": 0, "candidate_tokens": 0,
              "distinct_contexts": 0}
    tasks = ipc_bytes = 0
    for tree in trees:
        own = self_times(tree)
        if any(value < 0 for value in own.values()):
            problems.append("negative self time in {}".format(own))
        duration = tree.end - tree.start
        if abs(sum(own.values()) - duration) > 1e-6 * max(duration, 1.0):
            problems.append("self times sum to {} us, the request took {} us".format(
                sum(own.values()), duration))
        wall_us += duration
        for name, value in own.items():
            totals[name] = totals.get(name, 0.0) + value
        for node in walk(tree):
            if node.name == "engine.choose":
                choose["calls"] += 1
                for key in ("lanes", "candidates", "candidate_tokens", "distinct_contexts"):
                    choose[key] += node.attrs[key]
            elif node.name == "worker.task":
                tasks += 1
            elif node.name == "ipc.encode":
                ipc_bytes += node.attrs["bytes"]

    count = len(trees)
    layers_ms = {name: value / count / 1000.0 for name, value in sorted(totals.items())}
    metrics = {name: metric(sum(layers_ms.get(span, 0.0) for span in names), "ms")
               for name, names in SELF_METRICS.items()}
    listed = {span for names in SELF_METRICS.values() for span in names}
    metrics["other_spans.self_ms"] = metric(
        sum(value for name, value in layers_ms.items() if name not in listed), "ms")
    metrics["client.wall_ms"] = metric(wall_us / count / 1000.0, "ms")
    untraced_summary, traced_summary = summarize(untraced), summarize(traced)
    metrics.update({
        "trace.overhead_ratio": metric(
            untraced_summary["rows_per_s"] / traced_summary["rows_per_s"], "ratio"),
        "setup.fit_s": metric(statistics.median(t["fit_s"] for t in timings), "s"),
        "setup.serve_ready_s": metric(statistics.median(t["serve_ready_s"] for t in timings),
                                      "s"),
        "engine.choose.calls": metric(choose["calls"], "count"),
        "engine.lanes": metric(choose["lanes"], "count"),
        "engine.candidates": metric(choose["candidates"], "count"),
        "engine.candidate_tokens": metric(choose["candidate_tokens"], "count"),
        "engine.distinct_contexts": metric(choose["distinct_contexts"], "count"),
        "engine.lanes_per_distinct_context": metric(
            choose["lanes"] / choose["distinct_contexts"] if choose["distinct_contexts"]
            else 0.0, "ratio"),
        "worker.task.count": metric(tasks, "count"),
        "ipc.bytes": metric(ipc_bytes, "bytes"),
        "server.refused": metric(sum(c["refused"] for c in counters), "count"),
        "server.http_errors": metric(sum(c["http_errors"] for c in counters), "count"),
        "service.cache_hit_ratio": metric(max(c["cache_hit_ratio"] for c in counters),
                                          "ratio"),
        "pool.tasks_retried": metric(sum(c["tasks_retried"] for c in counters), "count"),
        "pool.worker_restarts": metric(sum(c["worker_restarts"] for c in counters),
                                       "count"),
    })
    detail = {
        "untraced": untraced_summary,
        "traced": traced_summary,
        "layers_ms": layers_ms,
        "stats": counters,
        "problems": problems,
        "output_sha256": output_digest(traced),
    }
    return metrics, detail


def bench(workload, args, workdir: Path, servers: list) -> tuple[dict, dict]:
    seeds = request_seeds(workload, args.seed, MAX_REQUESTS)
    server, registry, digest, timings = setup(workload, workdir, servers)
    check = Reference(workload, registry, digest).checker(seeds[0])
    warm_up(workload, server)
    if args.trace:
        metrics, detail = traced_run(workload, server, registry, digest, workdir, seeds,
                                     check, timings, servers)
        sent = detail["untraced"]["sent"] + detail["traced"]["sent"]
        failed = detail["untraced"]["failed"] + detail["traced"]["failed"]
    else:
        metrics, detail = timed_run(workload, args, server, seeds, check, timings)
        sent, failed = detail["sent"], detail["failed"]
    detail.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, digest=digest, setups=timings,
                  nproc=os.cpu_count(), python=platform.python_version(),
                  numpy=numpy.__version__)
    result = {"correct": not detail["problems"], "attempted": sent, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds like an error, so the servers are still stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro").is_dir():
        log("no program sources at {}; run from a checkout of the repository".format(SRC))
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = WORK / "{}-{}".format(workload.name, os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    servers: list[Server] = []
    try:
        result, detail = bench(workload, args, workdir, servers)
    except (RuntimeError, OSError) as error:  # BenchError included
        log("error: {} (logs in {})".format(error, workdir))
        return 1
    finally:
        for server in servers:
            server.stop()
    for problem in detail["problems"][:20]:
        log("check failed: " + problem)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
