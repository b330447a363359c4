"""Artifact-registry benchmark: fit-as-cache-hit and shared-part dedup.

Measures the two things the content-addressed registry buys over plain
bundle files:

* **fit as cache hit** — ``Registry.fit_or_load`` on a spec the registry
  has already seen must come back as a verified load instead of a retrain,
  with the cached pipeline's samples **bit-identical** (columnar
  fingerprints compared) to the fresh fit's on both engines.  The speedup
  gate is engine-aware: the ``object`` engine — the reference
  implementation whose retrain is the expensive case a cache exists for —
  must hit at least ``--cache-hit-margin`` times faster (default 10x); the
  ``compiled`` engine trains in fractions of a second at benchmark sizes,
  so its win is gated at the smaller ``--compiled-margin`` (default 2x)
  and reported alongside;
* **shared-part dedup** — saving the fitted 5-table retail multitable
  pipeline must store at least one part once for several referencing part
  names (the edge synthesizers share config/vocabulary parts), i.e.
  ``bytes_reused > 0`` on a fresh save, and a second save of the same
  artifact must write **zero** parts (incremental re-save).

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_registry
    PYTHONPATH=src python -m benchmarks.perf.bench_registry --smoke  # CI-sized

The report lands in ``BENCH_registry.json``; the process exits non-zero on
a missed cache-hit margin, zero dedup savings, a non-incremental re-save,
or any identity mismatch.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.connecting.connector import ConnectorConfig
from repro.datasets.digix import DigixConfig, generate_digix_like
from repro.datasets.relational import RetailConfig, generate_retail_like
from repro.enhancement.enhancer import EnhancerConfig
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.pipelines.multitable import MultiTablePipelineConfig, MultiTableSchemaPipeline
from repro.registry import Registry, fingerprint_table

ENGINES = ("object", "compiled")


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


def run(n_users: int, n_customers: int, seed: int = 7,
        cache_hit_margin: float = 10.0, compiled_margin: float = 2.0) -> dict:
    trial = _trial(n_users, seed)
    workdir = Path(tempfile.mkdtemp(prefix="bench_registry_"))
    report: dict = {"n_users": n_users, "n_customers": n_customers, "seed": seed,
                    "numpy_version": np.__version__}

    # -- fit as cache hit, bit identity, both engines -----------------------------------
    # The first fit_or_load trains and records; the second must resolve the
    # spec to the recorded artifact and come back as a verified load.  The
    # hit time is min-of-3 (load is fast enough to be noise-dominated).
    engines: dict[str, dict] = {}
    for engine in ENGINES:
        registry = Registry(workdir / "reg_{}".format(engine))
        pipeline = GReaTERPipeline(_pipeline_config(seed, engine))

        start = time.perf_counter()
        miss = registry.fit_or_load(pipeline, trial.ads, trial.feeds)
        miss_s = time.perf_counter() - start
        assert not miss.cache_hit

        hit_s = float("inf")
        hit = None
        for _ in range(3):
            start = time.perf_counter()
            hit = registry.fit_or_load(pipeline, trial.ads, trial.feeds)
            hit_s = min(hit_s, time.perf_counter() - start)
        assert hit is not None and hit.cache_hit

        fresh = miss.fitted.sample(n_users, seed=seed + 1).synthetic_flat
        cached = hit.fitted.sample(n_users, seed=seed + 1).synthetic_flat
        engines[engine] = {
            "miss_s": round(miss_s, 6),
            "hit_s": round(hit_s, 6),
            "speedup": round(miss_s / hit_s, 2) if hit_s > 0 else float("inf"),
            "artifact_digest": miss.digest,
            "spec_digest": miss.spec_digest,
            "parts_written": miss.report.parts_written,
            "bytes_written": miss.report.bytes_written,
            "identical_output": (fingerprint_table(fresh) == fingerprint_table(cached)
                                 and hit.digest == miss.digest),
        }
    report["cache_hit"] = {
        "margin": cache_hit_margin,
        "compiled_margin": compiled_margin,
        "engines": engines,
        "identical_output": all(entry["identical_output"]
                                for entry in engines.values()),
        "within_margin": (engines["object"]["speedup"] >= cache_hit_margin
                          and engines["compiled"]["speedup"] >= compiled_margin),
    }

    # -- shared-part dedup on the 5-table retail database -------------------------------
    # The multitable pipeline trains one parent-child synthesizer per schema
    # edge; edges with identical backbone configs produce byte-identical
    # config parts, which the CAS stores once.  A second save of the same
    # artifact must touch nothing.
    retail = generate_retail_like(RetailConfig(n_customers=n_customers, seed=seed))
    registry = Registry(workdir / "reg_retail")
    fitted = MultiTableSchemaPipeline(MultiTablePipelineConfig(
        seed=seed, generation_engine="compiled",
        training_engine="compiled")).fit(retail)
    first = registry.save(fitted)
    second = registry.save(fitted)
    report["dedup"] = {
        "tables": sorted(retail),
        "artifact_digest": first.digest,
        "parts": len(first.parts),
        "objects_stored": first.parts_written,
        "total_bytes": first.total_bytes,
        "bytes_stored": first.bytes_written,
        "dedup_bytes_saved": first.bytes_reused,
        "shared_objects": len(first.shared),
        "shared_parts": sorted(name for names in first.shared.values()
                               for name in names),
        "resave_parts_written": second.parts_written,
        "resave_bytes_written": second.bytes_written,
        "incremental_resave": second.parts_written == 0,
    }

    report["all_identical"] = report["cache_hit"]["identical_output"]
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the content-addressed artifact registry.")
    parser.add_argument("--users", type=int, default=48,
                        help="users in the training trial (default 48)")
    parser.add_argument("--customers", type=int, default=20,
                        help="customers in the retail database (default 20)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (8 users, 8 customers)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cache-hit-margin", type=float, default=10.0,
                        help="required fit-time over cache-hit-time ratio on "
                             "the object engine (default 10)")
    parser.add_argument("--compiled-margin", type=float, default=2.0,
                        help="required ratio on the compiled engine, whose "
                             "sub-second retrain caps the gap (default 2)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_registry.json"),
                        help="output JSON path (default ./BENCH_registry.json)")
    args = parser.parse_args(argv)

    users, customers = (8, 8) if args.smoke else (args.users, args.customers)
    report = run(users, customers, seed=args.seed,
                 cache_hit_margin=args.cache_hit_margin,
                 compiled_margin=args.compiled_margin)
    report["mode"] = "smoke" if args.smoke else "full"
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for engine, entry in report["cache_hit"]["engines"].items():
        print("{:9s} fit {:>8.3f}s  cache hit {:>8.4f}s  speedup {:>8.1f}x  "
              "identical={}".format(engine, entry["miss_s"], entry["hit_s"],
                                    entry["speedup"], entry["identical_output"]))
    dedup = report["dedup"]
    print("dedup: {} parts -> {} objects  {} bytes logical, {} stored "
          "({} saved, {} shared objects)  resave wrote {} parts".format(
              dedup["parts"], dedup["objects_stored"], dedup["total_bytes"],
              dedup["bytes_stored"], dedup["dedup_bytes_saved"],
              dedup["shared_objects"], dedup["resave_parts_written"]))
    print("wrote {}".format(args.out))

    if not report["all_identical"]:
        print("ERROR: cached output does not match the fresh fit")
        return 1
    if not report["cache_hit"]["within_margin"]:
        print("ERROR: cache hit under the margin (object >= {}x, compiled "
              ">= {}x): {}".format(
                  report["cache_hit"]["margin"],
                  report["cache_hit"]["compiled_margin"],
                  {engine: entry["speedup"]
                   for engine, entry in report["cache_hit"]["engines"].items()}))
        return 1
    if report["dedup"]["dedup_bytes_saved"] <= 0:
        print("ERROR: no shared-part dedup on the retail multitable bundle")
        return 1
    if not report["dedup"]["incremental_resave"]:
        print("ERROR: re-saving an unchanged artifact wrote {} parts".format(
            report["dedup"]["resave_parts_written"]))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
