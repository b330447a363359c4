"""Command-line entry point.

``greater <experiment>`` runs one of the paper's experiments and prints its
rows; ``greater list`` shows what is available.  The heavy lifting lives in
:mod:`repro.experiments.figures`, so the CLI, the benchmarks and the examples
all produce the same numbers.

The artifact-store workflow adds subcommands on top of the experiments
(every one supports ``--json`` like the experiment commands):

* ``greater fit`` — fit a pipeline on a DIGIX-like trial and save the
  fitted bundle (see :mod:`repro.store`);
* ``greater sample`` — load a bundle and sample synthetic tables without
  retraining (optionally writing the flat table to CSV);
* ``greater serve`` — run the asyncio HTTP serving front end on a bundle
  (in-process or worker-process executor, bounded request queue with 429
  backpressure, ``/stats`` metrics — see :mod:`repro.serving.server`);
* ``greater client`` — query a running server (table/rows/database
  sampling, stats, health) and print the rows like every other command;
* ``greater trace`` — summarize, print, or rank a trace file written by
  ``serve --trace PATH`` (actions: summary, tree, slow — see
  :mod:`repro.obs`).

The relational-schema workflow (see :mod:`repro.schema`) adds:

* ``greater schema infer --data-dir DIR`` — discover primary/foreign keys
  across a directory of CSVs and optionally write the schema-graph JSON;
* ``greater schema show`` — print a saved schema graph (or the graph
  embedded in a multitable bundle) with its topological order;
* ``greater run --pipeline multitable --data-dir DIR`` — fit the
  whole-database pipeline on the CSVs, sample a synthetic database, and
  optionally persist the fitted bundle and the synthetic CSVs.

The artifact-registry workflow (see :mod:`repro.registry`) adds:

* ``greater fit/run --registry DIR`` — save through the content-addressed
  registry; a repeated fit with an identical spec (pipeline config, seed,
  resolved engines, dataset fingerprint) becomes a verified cache hit.
  ``--json`` output carries the full ``artifact_digest`` and registry
  path, so scripts chain straight into ``serve``;
* ``greater serve --registry DIR --digest HEX`` — serve an artifact by
  content digest out of the registry (workers resolve the same digest);
* ``greater registry ls|show|gc|fingerprint`` — inspect artifacts and
  their shared parts, reclaim unreferenced objects, and fingerprint a
  dataset directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments import (
    dataset_statistics,
    fig2_token_ambiguity,
    fig4_flattening_bias,
    fig5_correlation_heatmap,
    fig7_overall_fidelity,
    fig8_semantic_enhancement,
    fig9_connecting_setups,
    fig10_ablation,
    sec442_special_transform,
)
from repro.experiments.harness import ExperimentConfig

EXPERIMENTS = {
    "fig2": (fig2_token_ambiguity, "token ambiguity of repeated numerical labels"),
    "fig4": (fig4_flattening_bias, "flattening dimensionality and engaged-subject bias"),
    "fig5": (fig5_correlation_heatmap, "correlation heatmap before/after noisy-column removal"),
    "fig7": (fig7_overall_fidelity, "overall fidelity: GReaTER vs DEREC vs direct flattening"),
    "fig8": (fig8_semantic_enhancement, "semantic enhancement setups"),
    "fig9": (fig9_connecting_setups, "cross-table connecting setups"),
    "fig10": (fig10_ablation, "ablation table (improved/worsened pair counts)"),
    "sec442": (sec442_special_transform, "dataset-specific caret->'and' transformation"),
    "dataset": (dataset_statistics, "DIGIX-like dataset statistics"),
}

#: Experiments that accept an :class:`ExperimentConfig`.
_CONFIGURABLE = {"fig5", "fig7", "fig8", "fig9", "fig10", "sec442", "dataset"}

#: Artifact-store and schema subcommands (name -> description), shown by ``list``.
COMMANDS = {
    "fit": "fit a pipeline on a DIGIX-like trial and save the fitted bundle",
    "sample": "load a fitted bundle and sample synthetic tables (no retraining)",
    "serve": "run the HTTP serving front end on a bundle (thread/process executor)",
    "client": "query a running 'greater serve' server (table, rows, database, stats)",
    "trace": "inspect a trace file from serve --trace (actions: summary, tree, slow)",
    "schema": "infer or show a relational schema graph (actions: infer, show)",
    "run": "fit the multitable pipeline on a directory of CSVs and sample a database",
    "registry": "inspect or maintain an artifact registry "
                "(actions: ls, show, gc, fingerprint)",
}

_PIPELINES = ("greater", "direct_flatten", "derec")


def _print_rows(rows: list[dict]) -> None:
    if not rows:
        print("(no rows)")
        return
    keys: list = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    widths = {key: max(len(str(key)), max(len(str(row.get(key, ""))) for row in rows)) for key in keys}
    header = "  ".join(str(key).ljust(widths[key]) for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row.get(key, "")).ljust(widths[key]) for key in keys))


def _emit_rows(rows: list[dict], as_json: bool) -> None:
    """Shared output path: aligned table or the experiments' JSON format."""
    if as_json:
        print(json.dumps(rows, indent=2, default=str))
    else:
        _print_rows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greater",
        description="Run the GReaTER reproduction experiments.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["list"],
                        help="experiment to run, or 'list' to show descriptions")
    parser.add_argument("--trials", type=int, default=None,
                        help="number of task-ID trials (defaults to the quick setting)")
    parser.add_argument("--users-per-task", type=int, default=None,
                        help="number of users per task subgroup")
    parser.add_argument("--seed", type=int, default=7, help="random seed")
    parser.add_argument("--json", action="store_true", help="print the rows as JSON")
    return parser


def _experiment_config(args) -> ExperimentConfig:
    base = ExperimentConfig(seed=args.seed)
    return ExperimentConfig(
        n_trials=args.trials if args.trials is not None else base.n_trials,
        n_users_per_task=args.users_per_task if args.users_per_task is not None else base.n_users_per_task,
        ads_rows_per_user=base.ads_rows_per_user,
        feeds_rows_per_user=base.feeds_rows_per_user,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# artifact-store subcommands
# ---------------------------------------------------------------------------

def _command_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greater {}".format(command),
        description=COMMANDS[command],
    )
    parser.add_argument("--json", action="store_true", help="print the rows as JSON")
    if command == "trace":
        parser.add_argument("action", choices=("summary", "tree", "slow"),
                            help="summary: per-span-name timing rollup; tree: the "
                                 "stitched span trees; slow: slowest root spans")
        parser.add_argument("path", help="trace file written by serve --trace PATH")
        parser.add_argument("--trace-id", default=None,
                            help="tree action: show only this trace id (prefix ok)")
        parser.add_argument("--top", type=int, default=10,
                            help="slow action: how many root spans to rank (default 10)")
        parser.add_argument("--limit", type=int, default=None,
                            help="tree action: cap the printed rows")
        return parser
    if command == "schema":
        parser.add_argument("action", choices=("infer", "show"),
                            help="infer a schema graph from CSVs, or show a saved one")
        parser.add_argument("--data-dir", default=None,
                            help="directory of CSV files (one table per file)")
        parser.add_argument("--out", default=None,
                            help="write the inferred schema-graph JSON to this path")
        parser.add_argument("--schema", default=None,
                            help="schema-graph JSON path to show")
        parser.add_argument("--bundle", default=None,
                            help="multitable bundle whose embedded graph to show")
        return parser
    if command == "registry":
        parser.add_argument("action",
                            choices=("ls", "show", "gc", "fingerprint"),
                            help="ls: artifacts in a registry; show: one artifact's "
                                 "parts, refcounts and bound runs; gc: delete "
                                 "unreferenced objects; fingerprint: hash a dataset "
                                 "directory")
        parser.add_argument("--registry", default=None,
                            help="registry directory (ls, show, gc)")
        parser.add_argument("--digest", default=None,
                            help="artifact digest or unique prefix (show)")
        parser.add_argument("paths", nargs="*",
                            help="one dataset directory (fingerprint)")
        return parser
    if command == "run":
        parser.add_argument("--pipeline", choices=("multitable",), default="multitable",
                            help="which pipeline to run (multitable)")
        parser.add_argument("--data-dir", required=True,
                            help="directory of CSV files (one table per file)")
        parser.add_argument("--schema", default=None,
                            help="optional schema-graph JSON (skips inference)")
        parser.add_argument("--bundle", default=None,
                            help="optionally save the fitted bundle to this path")
        parser.add_argument("--registry", default=None,
                            help="save through the artifact registry at this directory "
                                 "(an identical pipeline/seed/dataset spec becomes a "
                                 "cache hit — no refit)")
        parser.add_argument("--compress", action="store_true",
                            help="compress the bundle's array parts")
        parser.add_argument("--n", type=int, default=None,
                            help="rows per root table (default: training sizes)")
        parser.add_argument("--seed", type=int, default=7, help="random seed")
        parser.add_argument("--out-dir", default=None,
                            help="write the synthetic tables as CSVs into this directory")
        parser.add_argument("--chunk-rows", type=int, default=None,
                            help="stream each table to --out-dir in chunks of this many "
                                 "rows, spilling completed tables to disk so at most one "
                                 "table is in RAM (requires --out-dir)")
        parser.add_argument("--spool", default=None,
                            help="spill completed tables into this directory instead of "
                                 "a temporary one (requires --chunk-rows; keeps parts "
                                 "on disk so an interrupted run can --resume)")
        parser.add_argument("--resume", action="store_true",
                            help="resume an interrupted spill in --spool: tables whose "
                                 "spill completed are reused, the rest regenerate "
                                 "byte-identically (requires --spool)")
        return parser
    if command == "serve":
        parser.add_argument("--bundle", default=None,
                            help="bundle path written by 'greater fit'")
        parser.add_argument("--registry", default=None,
                            help="serve an artifact out of the registry at this "
                                 "directory instead of a bundle file (needs --digest)")
        parser.add_argument("--digest", default=None,
                            help="artifact digest or unique prefix inside --registry")
        parser.add_argument("--host", default="127.0.0.1", help="bind address")
        parser.add_argument("--port", type=int, default=0,
                            help="bind port (default 0: pick an ephemeral port)")
        parser.add_argument("--workers", type=int, default=1,
                            help="worker processes behind the server (more than 1 "
                                 "needs --executor process)")
        parser.add_argument("--executor", choices=("thread", "process"), default="thread",
                            help="where sampling runs: inline on the request thread or "
                                 "on a pool of worker processes")
        parser.add_argument("--mmap", action="store_true",
                            help="memory-map the bundle's count tables on load")
        parser.add_argument("--block-size", type=int, default=64,
                            help="synthetic subjects per serving block (default 64)")
        parser.add_argument("--max-queue", type=int, default=64,
                            help="in-flight request bound before 429 rejection")
        parser.add_argument("--ready-file", default=None,
                            help="write 'host port' here once the socket listens")
        parser.add_argument("--max-seconds", type=float, default=None,
                            help="stop after this many seconds (default: run forever)")
        parser.add_argument("--timeout-s", type=float, default=None,
                            help="default per-request deadline in seconds (requests "
                                 "may override with their own timeout_s)")
        parser.add_argument("--retries", type=int, default=2,
                            help="re-dispatches of a task orphaned by a worker "
                                 "crash before the request fails (default 2)")
        parser.add_argument("--breaker-threshold", type=int, default=5,
                            help="worker deaths within the breaker window that trip "
                                 "the crash-loop breaker (0 disables; default 5)")
        parser.add_argument("--degraded-mode", choices=("serial", "fail_fast"),
                            default="serial",
                            help="while the breaker is open: sample serially "
                                 "in-process, or fail fast with 503 (default serial)")
        parser.add_argument("--faults", default=None,
                            help="fault-injection plan, e.g. 'worker_crash%%25' "
                                 "(see repro.faults; for chaos testing)")
        parser.add_argument("--drain-timeout-s", type=float, default=30.0,
                            help="seconds SIGTERM waits for in-flight requests "
                                 "before exiting (default 30)")
        parser.add_argument("--trace", default=None,
                            help="arm request tracing: a span-file path, 'stderr', "
                                 "or 'ring[:capacity]' (exposes GET /trace); "
                                 "disabled by default at zero overhead")
        return parser
    if command == "client":
        parser.add_argument("mode",
                            choices=("table", "rows", "database", "stats", "health",
                                     "ready"),
                            help="what to request from the server")
        parser.add_argument("--host", default="127.0.0.1", help="server address")
        parser.add_argument("--port", type=int, required=True, help="server port")
        parser.add_argument("--n", type=int, default=None,
                            help="subjects (table), rows (rows) or rows per root (database)")
        parser.add_argument("--seed", type=int, default=None, help="sampling seed")
        parser.add_argument("--conditions", default=None,
                            help="JSON object of column: value conditions (rows mode)")
        parser.add_argument("--stream", action="store_true",
                            help="table mode: request a chunked ndjson stream instead "
                                 "of one JSON body")
        parser.add_argument("--timeout", type=float, default=120.0,
                            help="request timeout in seconds (default 120)")
        parser.add_argument("--deadline-s", type=float, default=None,
                            help="server-side deadline for this request (sent as "
                                 "timeout_s; the server answers 503 when missed)")
        return parser
    if command == "fit":
        parser.add_argument("--pipeline", choices=_PIPELINES, default="greater",
                            help="which pipeline to fit (default greater)")
        parser.add_argument("--bundle", default=None,
                            help="output bundle path for the fitted pipeline")
        parser.add_argument("--registry", default=None,
                            help="save through the artifact registry at this directory "
                                 "(an identical pipeline/seed/dataset spec becomes a "
                                 "cache hit — no refit)")
        parser.add_argument("--seed", type=int, default=7, help="random seed")
        parser.add_argument("--users-per-task", type=int, default=12,
                            help="users per task subgroup of the generated trial")
        parser.add_argument("--semantic-level", default="none",
                            choices=("none", "differentiability", "understandability"),
                            help="Data Semantic Enhancement level (default none)")
        parser.add_argument("--compress", action="store_true",
                            help="compress the bundle's array parts")
    else:
        parser.add_argument("--bundle", required=True,
                            help="bundle path written by 'greater fit'")
        parser.add_argument("--n", type=int, default=None,
                            help="synthetic subjects to sample (default: training size)")
        parser.add_argument("--seed", type=int, default=None,
                            help="sampling seed (default: the bundle's fit seed)")
    if command == "sample":
        parser.add_argument("--out", default=None,
                            help="optionally write the synthetic flat table to this CSV path")
        parser.add_argument("--chunk-rows", type=int, default=None,
                            help="stream the table to --out in blocks of this many "
                                 "subjects instead of materializing it (requires --out)")
    return parser


def _run_fit(args) -> list[dict]:
    from repro.connecting.connector import ConnectorConfig
    from repro.enhancement.enhancer import EnhancerConfig
    from repro.pipelines.config import PipelineConfig
    from repro.pipelines.derec import DERECPipeline
    from repro.pipelines.flatten_baseline import DirectFlattenPipeline
    from repro.pipelines.greater import GReaTERPipeline

    if not args.bundle and not args.registry:
        raise SystemExit("fit requires --bundle and/or --registry")
    pipelines = {"greater": GReaTERPipeline, "direct_flatten": DirectFlattenPipeline,
                 "derec": DERECPipeline}
    experiment = ExperimentConfig(n_trials=1, n_users_per_task=args.users_per_task,
                                  seed=args.seed)
    trial = experiment.dataset().trials()[0]
    config = PipelineConfig(
        seed=args.seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level=args.semantic_level, seed=args.seed),
        connector=ConnectorConfig(remove_noisy_columns=False),
    )
    pipeline = pipelines[args.pipeline](config)
    cache_hit = None
    save_s = 0.0
    start = time.perf_counter()
    if args.registry:
        from repro.registry import Registry

        result = Registry(args.registry).fit_or_load(
            pipeline, trial.ads, trial.feeds, compress=args.compress)
        fitted, digest, cache_hit = result.fitted, result.digest, result.cache_hit
        fit_s = time.perf_counter() - start
    else:
        fitted = pipeline.fit(trial.ads, trial.feeds)
        fit_s = time.perf_counter() - start
        digest = None
    if args.bundle:
        start = time.perf_counter()
        digest = fitted.save(args.bundle, compress=args.compress)
        save_s = time.perf_counter() - start
    row = {
        "command": "fit",
        "pipeline": args.pipeline,
        "digest": digest[:12],
        # the full digest + registry path let scripts chain
        # ``fit --json`` -> ``serve --registry ... --digest ...`` directly
        "artifact_digest": digest,
        "n_training_subjects": fitted.n_training_subjects,
        "seed": args.seed,
        "fit_s": round(fit_s, 4),
        "save_s": round(save_s, 4),
    }
    if args.bundle:
        row["bundle"] = args.bundle
    if args.registry:
        row["registry"] = args.registry
        row["cache_hit"] = cache_hit
    return [row]


def _run_sample(args) -> list[dict]:
    from repro.frame.io import write_csv
    from repro.store.bundle import load_fitted_pipeline
    from repro.store.stream import CsvTableSink

    if args.chunk_rows is not None and not args.out:
        raise SystemExit("sample --chunk-rows requires --out")
    start = time.perf_counter()
    fitted, digest = load_fitted_pipeline(args.bundle)
    load_s = time.perf_counter() - start
    row = {
        "command": "sample",
        "pipeline": fitted.name,
        "digest": digest[:12],
        "seed": fitted.config.seed if args.seed is None else args.seed,
        "load_s": round(load_s, 4),
    }
    start = time.perf_counter()
    if args.chunk_rows is not None:
        with CsvTableSink(args.out) as sink:
            sink.write_all(fitted.iter_sample_flat(
                n_subjects=args.n, seed=args.seed, chunk_rows=args.chunk_rows))
            rows_written, chunks_written = sink.rows_written, sink.chunks_written
        row.update(rows=rows_written, chunks=chunks_written,
                   chunk_rows=args.chunk_rows, out=args.out)
    else:
        result = fitted.sample(n_subjects=args.n, seed=args.seed)
        row.update(rows=result.synthetic_flat.num_rows,
                   columns=result.synthetic_flat.num_columns)
        if args.out:
            write_csv(result.synthetic_flat, args.out)
            row["out"] = args.out
    row["sample_s"] = round(time.perf_counter() - start, 4)
    return [row]


def _run_serve(args) -> list[dict]:
    from repro.serving import ArtifactSource, ServingConfig, SynthesisService
    from repro.serving.server import run_server
    from repro.store.atomic import atomic_write_text

    if bool(args.bundle) == bool(args.registry):
        raise SystemExit("serve requires exactly one of --bundle or --registry")
    if args.registry and not args.digest:
        raise SystemExit("serve --registry requires --digest")
    try:
        config = ServingConfig(shards=args.workers, block_size=args.block_size,
                               executor=args.executor, mmap=args.mmap,
                               timeout_s=args.timeout_s, retries=args.retries,
                               breaker_threshold=args.breaker_threshold,
                               degraded_mode=args.degraded_mode, faults=args.faults,
                               trace=args.trace)
    except ValueError as error:
        raise SystemExit("serve: {}".format(error))
    source = (ArtifactSource.registry(args.registry, args.digest) if args.registry
              else ArtifactSource(args.bundle))
    service = SynthesisService.from_source(source, config)
    started = time.perf_counter()

    def ready(host, port):
        if args.ready_file:
            atomic_write_text(args.ready_file, "{} {}\n".format(host, port))
        print("serving artifact {} on http://{}:{} ({} {} worker{})".format(
            service.digest[:12], host, port, args.workers, args.executor,
            "s" if args.workers != 1 else ""), file=sys.stderr, flush=True)

    try:
        run_server(service, host=args.host, port=args.port,
                   max_queue=args.max_queue, ready_callback=ready,
                   max_seconds=args.max_seconds,
                   drain_timeout_s=args.drain_timeout_s)
    finally:
        service.close()
    stats = service.stats()
    return [{
        "command": "serve",
        "bundle": str(source),
        "digest": service.digest[:12],
        "executor": args.executor,
        "workers": args.workers,
        "uptime_s": round(time.perf_counter() - started, 3),
        "table_requests": stats["table_requests"],
        "row_requests": stats["row_requests"],
        "database_requests": stats["database_requests"],
    }]


def _run_client(args) -> list[dict]:
    from repro.serving.server import request_json

    def call(method, path, payload=None):
        try:
            status, body = request_json(args.host, args.port, method, path,
                                        payload, timeout=args.timeout)
        except OSError as error:
            raise SystemExit("cannot reach {}:{}: {}".format(args.host, args.port, error))
        if status != 200:
            raise SystemExit("server returned {}: {}".format(
                status, (body or {}).get("error", body)))
        return body

    if args.mode == "health":
        return [{"command": "client health", **call("GET", "/healthz")}]
    if args.mode == "ready":
        # 503 is a meaningful readiness answer (draining / degraded), not a
        # failure of the client — report the body either way
        try:
            status, body = request_json(args.host, args.port, "GET", "/readyz",
                                        timeout=args.timeout)
        except OSError as error:
            raise SystemExit("cannot reach {}:{}: {}".format(args.host, args.port, error))
        return [{"command": "client ready", "status": status, **(body or {})}]
    if args.mode == "stats":
        stats = call("GET", "/stats")
        flat = {key: value for key, value in stats.items()
                if not isinstance(value, dict)}
        flat.update({"server_" + key: value
                     for key, value in stats.get("server", {}).items()})
        for endpoint, histogram in stats.get("latency", {}).items():
            flat["{}_count".format(endpoint)] = histogram["count"]
            flat["{}_mean_ms".format(endpoint)] = round(
                1000.0 * histogram["total_s"] / max(histogram["count"], 1), 3)
            flat["{}_max_ms".format(endpoint)] = round(1000.0 * histogram["max_s"], 3)
        return [{"command": "client stats", **flat}]
    payload = {}
    if args.n is not None:
        payload["n"] = args.n
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.deadline_s is not None:
        payload["timeout_s"] = args.deadline_s
    if args.mode == "table":
        if args.stream:
            from repro.serving.server import IncompleteStream, request_json_stream

            try:
                status, lines = request_json_stream(args.host, args.port, payload,
                                                    timeout=args.timeout)
            except IncompleteStream as error:
                raise SystemExit("stream dropped mid-transfer ({}); the partial "
                                 "table is NOT complete".format(error))
            except OSError as error:
                raise SystemExit("cannot reach {}:{}: {}".format(
                    args.host, args.port, error))
            if status != 200:
                raise SystemExit("server returned {}: {}".format(
                    status, (lines or {}).get("error", lines)))
            # the final line is the {"done": ..., "chunks": ..., "rows": N}
            # summary; every other line is a block payload with row records
            return [row for line in lines if not line.get("done")
                    for row in line.get("rows", [])]
        return call("POST", "/sample_table", payload)["rows"]
    if args.mode == "rows":
        if args.n is None:
            raise SystemExit("client rows requires --n")
        if args.conditions:
            try:
                payload["conditions"] = json.loads(args.conditions)
            except json.JSONDecodeError as error:
                raise SystemExit("--conditions must be a JSON object: {}".format(error))
        return call("POST", "/sample_rows", payload)["rows"]
    tables = call("POST", "/sample_database", payload)["tables"]
    return [{"command": "client database", "table": name,
             "rows": len(table["rows"]), "columns": len(table["columns"])}
            for name, table in sorted(tables.items())]


def _run_trace(args) -> list[dict]:
    from repro.obs.view import load_spans, slow_rows, summary_rows, tree_rows

    try:
        spans = load_spans(args.path)
    except OSError as error:
        raise SystemExit("cannot read trace file {}: {}".format(args.path, error))
    if not spans:
        raise SystemExit("no spans in {} (was the server run with --trace, and "
                         "did it handle any requests?)".format(args.path))
    if args.action == "summary":
        return [{"command": "trace summary", **row} for row in summary_rows(spans)]
    if args.action == "slow":
        return [{"command": "trace slow", **row}
                for row in slow_rows(spans, top=args.top)]
    trace_id = None
    if args.trace_id:
        matches = sorted({span["trace_id"] for span in spans
                          if span["trace_id"].startswith(args.trace_id)})
        if not matches:
            raise SystemExit("no trace id starting with {!r} in {}".format(
                args.trace_id, args.path))
        if len(matches) > 1:
            raise SystemExit("trace id prefix {!r} is ambiguous: {}".format(
                args.trace_id, ", ".join(matches)))
        trace_id = matches[0]
    return tree_rows(spans, trace_id=trace_id, limit=args.limit)


def _load_graph_for_show(args):
    from pathlib import Path

    from repro.schema import SchemaGraph
    from repro.store.bundle import BundleReader

    if args.schema:
        return SchemaGraph.from_json(Path(args.schema).read_text())
    if args.bundle:
        reader = BundleReader(args.bundle)
        prefix = {"multitable_pipeline": "synth.", "multitable_synthesizer": ""}.get(reader.kind)
        if prefix is None:
            raise SystemExit("bundle at {} is a {!r}; only multitable bundles "
                             "embed a schema graph".format(args.bundle, reader.kind))
        return SchemaGraph.from_dict(reader.json(prefix + "graph"))
    raise SystemExit("schema show requires --schema or --bundle")


def _run_schema(args) -> list[dict]:
    from repro.schema import infer_schema, load_tables
    from repro.store.atomic import atomic_write_text

    if args.action == "infer":
        if not args.data_dir:
            raise SystemExit("schema infer requires --data-dir")
        start = time.perf_counter()
        graph = infer_schema(load_tables(args.data_dir))
        infer_s = time.perf_counter() - start
        if args.out:
            atomic_write_text(args.out, graph.to_json())
        rows = [{"command": "schema infer", **row} for row in graph.describe()]
        rows[0]["infer_s"] = round(infer_s, 4)
        if args.out:
            rows[0]["out"] = args.out
        return rows
    graph = _load_graph_for_show(args)
    order = {name: position for position, name in enumerate(graph.topological_order())}
    return [{"command": "schema show", "order": order[row["table"]], **row}
            for row in graph.describe()]


def _run_multitable(args) -> list[dict]:
    import contextlib
    import tempfile
    from pathlib import Path

    from repro.frame.io import write_csv
    from repro.pipelines.multitable import (
        MultiTablePipelineConfig,
        MultiTableSchemaPipeline,
    )
    from repro.schema import SchemaGraph, load_tables
    from repro.store.stream import CsvTableSink, SpoolingSink

    if args.chunk_rows is not None and not args.out_dir:
        raise SystemExit("run --chunk-rows requires --out-dir")
    if args.spool and args.chunk_rows is None:
        raise SystemExit("run --spool requires --chunk-rows")
    if args.resume and not args.spool:
        raise SystemExit("run --resume requires --spool")
    tables = load_tables(args.data_dir)
    graph = SchemaGraph.from_json(Path(args.schema).read_text()) if args.schema else None
    config = MultiTablePipelineConfig(seed=args.seed)
    cache_hit = None
    start = time.perf_counter()
    if args.registry:
        from repro.registry import Registry

        result = Registry(args.registry).fit_or_load(
            MultiTableSchemaPipeline(config), tables, graph, compress=args.compress)
        fitted, digest, cache_hit = result.fitted, result.digest, result.cache_hit
    else:
        fitted = MultiTableSchemaPipeline(config).fit(tables, graph)
        digest = None
    fit_s = time.perf_counter() - start
    if args.bundle:
        digest = fitted.save(args.bundle, compress=args.compress)

    start = time.perf_counter()
    if args.chunk_rows is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        synthetic_rows, out_paths = {}, {}
        if args.spool:
            Path(args.spool).mkdir(parents=True, exist_ok=True)
            spool_context = contextlib.nullcontext(args.spool)
        else:
            spool_context = tempfile.TemporaryDirectory(prefix="greater-spool-")
        with spool_context as spool:
            for name, table in fitted.iter_sample_database(
                    args.n, seed=args.seed, spool=Path(spool), resume=args.resume):
                out_paths[name] = out_dir / "{}.csv".format(name)
                with SpoolingSink(CsvTableSink(out_paths[name]),
                                  args.chunk_rows) as sink:
                    sink.write(table)
                    synthetic_rows[name] = table.num_rows
        database = None
    else:
        database = fitted.sample_database(args.n, seed=args.seed)
    sample_s = time.perf_counter() - start

    rows = []
    for describe_row in fitted.graph.describe():
        name = describe_row["table"]
        row = {"command": "run", "pipeline": args.pipeline, **describe_row}
        if database is None:
            row["synthetic_rows"] = synthetic_rows[name]
            row["out"] = str(out_paths[name])
            row["chunk_rows"] = args.chunk_rows
        else:
            table = database[name]
            row["synthetic_rows"] = table.num_rows
            if args.out_dir:
                out_path = Path(args.out_dir) / "{}.csv".format(name)
                out_path.parent.mkdir(parents=True, exist_ok=True)
                write_csv(table, out_path)
                row["out"] = str(out_path)
        rows.append(row)
    rows[0]["seed"] = args.seed
    rows[0]["fit_s"] = round(fit_s, 4)
    rows[0]["sample_s"] = round(sample_s, 4)
    if digest:
        rows[0]["digest"] = digest[:12]
        rows[0]["artifact_digest"] = digest
    if args.bundle:
        rows[0]["bundle"] = args.bundle
    if args.registry:
        rows[0]["registry"] = args.registry
        rows[0]["cache_hit"] = cache_hit
    return rows


def _run_registry(args) -> list[dict]:
    from repro.registry import Registry, fingerprint_directory

    if args.action in ("ls", "show", "gc"):
        if not args.registry:
            raise SystemExit("registry {} requires --registry".format(args.action))
        registry = Registry(args.registry)
    if args.action == "ls":
        refcounts = registry.refcounts()
        rows = []
        for record in registry.artifacts():
            entries = record["parts"].values()
            rows.append({
                "command": "registry ls",
                "digest": record["digest"][:12],
                "kind": record["kind"],
                "format_version": record["format_version"],
                "parts": len(record["parts"]),
                "bytes": sum(entry["size"] for entry in entries),
                "shared_parts": sum(1 for entry in entries
                                    if refcounts.get(entry["object"], 0) > 1),
            })
        if not rows:
            rows = [{"command": "registry ls", "artifacts": 0,
                     "objects": len(registry.store.digests()),
                     "bytes": registry.store.total_bytes()}]
        return rows
    if args.action == "show":
        if not args.digest:
            raise SystemExit("registry show requires --digest")
        record = registry.artifact(args.digest)
        refcounts = registry.refcounts()
        rows = [{
            "command": "registry show",
            "part": name,
            "object": entry["object"][:12],
            "bytes": entry["size"],
            "refcount": refcounts.get(entry["object"], 0),
        } for name, entry in sorted(record["parts"].items())]
        bound = [run["spec_digest"][:12] for run in registry.runs()
                 if run.get("artifact") == record["digest"]]
        rows[0].update(digest=record["digest"], kind=record["kind"],
                       format_version=record["format_version"],
                       runs=",".join(bound) or "-")
        return rows
    if args.action == "gc":
        return [{"command": "registry gc", **registry.gc()}]
    if len(args.paths) != 1:
        raise SystemExit("registry fingerprint takes exactly one dataset directory")
    result = fingerprint_directory(args.paths[0])
    rows = [{"command": "registry fingerprint", "file": "<combined>",
             "sha256": result["fingerprint"]}]
    rows.extend({"command": "registry fingerprint", "file": name, "sha256": digest}
                for name, digest in sorted(result["files"].items()))
    return rows


_COMMAND_RUNNERS = {"fit": _run_fit, "sample": _run_sample,
                    "serve": _run_serve, "client": _run_client,
                    "trace": _run_trace,
                    "schema": _run_schema, "run": _run_multitable,
                    "registry": _run_registry}


def _run_command(argv: list[str]) -> int:
    command, rest = argv[0], argv[1:]
    args = _command_parser(command).parse_args(rest)
    rows = _COMMAND_RUNNERS[command](args)
    _emit_rows(rows, args.json)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        return _run_command(argv)

    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print("{:12s} {}".format(name, EXPERIMENTS[name][1]))
        for name in sorted(COMMANDS):
            print("{:12s} {}".format(name, COMMANDS[name]))
        return 0

    function, _ = EXPERIMENTS[args.experiment]
    if args.experiment in _CONFIGURABLE:
        outcome = function(config=_experiment_config(args))
    else:
        outcome = function()

    rows = outcome.get("rows", [])
    _emit_rows(rows, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
