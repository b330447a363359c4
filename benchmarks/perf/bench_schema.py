"""Relational-schema subsystem benchmark.

Exercises the whole ``repro.schema`` path on a 3-level, 5-table synthetic
retail database (customers -> orders -> items, plus reviews under
customers with a secondary store key, plus a standalone stores table):

* **inference** — primary/foreign keys discovered from the raw tables,
  with a hard assertion that the known ground-truth graph is recovered;
* **fit / sample throughput** — whole-database fitting and sampling on
  both the ``object`` and ``compiled`` engines, reporting rows/s;
* **persistence identity** — fit -> save -> load -> ``sample_database``
  asserted byte-identical (CSV bytes, per table) to the pre-save sample,
  per engine, and the two engines asserted identical to each other;
* **referential integrity + seed determinism** — every foreign key of
  every sampled database present in its referenced table; same seed ->
  byte-identical, different seed -> different.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_schema
    PYTHONPATH=src python -m benchmarks.perf.bench_schema --smoke   # CI-sized

The report lands in ``BENCH_schema.json``; the process exits non-zero on
any identity, integrity or recovery mismatch (CI runs ``--smoke``).
"""

from __future__ import annotations

import argparse
import io
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.datasets.relational import RetailConfig, generate_retail_like
from repro.frame.table import Table
from repro.pipelines.multitable import (
    FittedMultiTablePipeline,
    MultiTablePipelineConfig,
    MultiTableSchemaPipeline,
)
from repro.schema import infer_schema


#: ground-truth edges of the retail schema (see repro.datasets.relational)
EXPECTED_EDGES = {
    "items.order_id->orders.order_id",
    "orders.customer_id->customers.customer_id",
    "reviews.customer_id->customers.customer_id",
    "reviews.store_id->stores.store_id",
}


def _csv_bytes(table: Table) -> bytes:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.column_names)
    for row in table.iter_rows():
        writer.writerow(["" if row[name] is None else row[name]
                         for name in table.column_names])
    return buffer.getvalue().encode("utf-8")


def _database_bytes(database: dict[str, Table]) -> dict[str, bytes]:
    return {name: _csv_bytes(table) for name, table in database.items()}


def _referentially_intact(database: dict[str, Table], graph) -> bool:
    for fk in graph.foreign_keys:
        parent_keys = set(database[fk.parent_table].column(fk.parent_column).values)
        if not set(database[fk.table].column(fk.column).values) <= parent_keys:
            return False
    return True


def run(n_customers: int, seed: int = 7) -> dict:
    tables = generate_retail_like(RetailConfig(n_customers=n_customers, seed=seed))
    workdir = Path(tempfile.mkdtemp(prefix="bench_schema_"))
    training_rows = sum(table.num_rows for table in tables.values())
    report: dict = {"n_customers": n_customers, "training_rows": training_rows,
                    "seed": seed, "numpy_version": np.__version__}

    # -- schema inference -----------------------------------------------------------
    start = time.perf_counter()
    graph = infer_schema(tables)
    infer_s = time.perf_counter() - start
    recovered = ({fk.edge_name for fk in graph.foreign_keys} == EXPECTED_EDGES
                 and all(t.primary_key is not None for t in graph.tables))
    report["inference"] = {
        "infer_s": round(infer_s, 6),
        "tables": graph.table_names,
        "foreign_keys": sorted(fk.edge_name for fk in graph.foreign_keys),
        "depth_levels": graph.depth_levels(),
        "graph_recovered": recovered,
    }

    # -- fit / save / load / sample, per engine ---------------------------------------
    engines: dict[str, dict] = {}
    engine_bytes: dict[str, dict[str, bytes]] = {}
    for engine in ("object", "compiled"):
        config = MultiTablePipelineConfig(seed=seed, generation_engine=engine,
                                          training_engine=engine)
        start = time.perf_counter()
        fitted = MultiTableSchemaPipeline(config).fit(tables, graph)
        fit_s = time.perf_counter() - start

        start = time.perf_counter()
        warm = fitted.sample_database(seed=seed + 1)
        sample_s = time.perf_counter() - start
        synthetic_rows = sum(table.num_rows for table in warm.values())

        bundle_path = workdir / "bundle_{}".format(engine)
        start = time.perf_counter()
        digest = fitted.save(bundle_path)
        save_s = time.perf_counter() - start

        start = time.perf_counter()
        loaded = FittedMultiTablePipeline.load(bundle_path)
        load_s = time.perf_counter() - start

        cold = loaded.sample_database(seed=seed + 1)
        warm_bytes = _database_bytes(warm)
        identical = _database_bytes(cold) == warm_bytes
        deterministic = (_database_bytes(fitted.sample_database(seed=seed + 1)) == warm_bytes
                         and _database_bytes(fitted.sample_database(seed=seed + 2)) != warm_bytes)
        engine_bytes[engine] = warm_bytes
        engines[engine] = {
            "digest": digest[:12],
            "fit_s": round(fit_s, 6),
            "sample_s": round(sample_s, 6),
            "save_s": round(save_s, 6),
            "load_s": round(load_s, 6),
            "synthetic_rows": synthetic_rows,
            "rows_per_s": round(synthetic_rows / sample_s, 1) if sample_s > 0 else float("inf"),
            "load_sample_identical": identical,
            "seed_deterministic": deterministic,
            "referentially_intact": _referentially_intact(warm, graph),
        }
    report["engines"] = engines
    report["engines_identical"] = engine_bytes["object"] == engine_bytes["compiled"]

    report["all_identical"] = (
        report["inference"]["graph_recovered"]
        and report["engines_identical"]
        and all(entry["load_sample_identical"] and entry["seed_deterministic"]
                and entry["referentially_intact"] for entry in engines.values())
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the relational schema subsystem."
    )
    parser.add_argument("--customers", type=int, default=120,
                        help="customers in the training database (default 120)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (16 customers)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=Path("BENCH_schema.json"),
                        help="output JSON path (default ./BENCH_schema.json)")
    args = parser.parse_args(argv)

    n_customers = 16 if args.smoke else args.customers
    report = run(n_customers, seed=args.seed)
    report["mode"] = "smoke" if args.smoke else "full"
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print("schema inference: {:.4f}s  edges={}  recovered={}".format(
        report["inference"]["infer_s"],
        len(report["inference"]["foreign_keys"]),
        report["inference"]["graph_recovered"]))
    for engine, entry in report["engines"].items():
        print("{:9s} fit {:>8.3f}s  sample {:>8.3f}s ({:>9.1f} rows/s)  "
              "save {:>7.3f}s  load {:>7.3f}s  identical={}  intact={}".format(
                  engine, entry["fit_s"], entry["sample_s"], entry["rows_per_s"],
                  entry["save_s"], entry["load_s"], entry["load_sample_identical"],
                  entry["referentially_intact"]))
    print("engines identical: {}".format(report["engines_identical"]))
    if not report["all_identical"]:
        print("ERROR: identity, integrity or recovery assertion failed")
        return 1
    print("report written to {}".format(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
