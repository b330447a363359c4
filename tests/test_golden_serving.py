"""Golden serving digests: every serving path pinned to committed sha256s.

Pairwise checks (object vs compiled, 1 vs 2 workers) cannot see a change
that shifts both sides at once.  This module recomputes, at smoke size and
on both engines, the sha256 of the CSV bytes of each serving path's output
and compares it with ``tests/golden/serving_digests.json``:

* ``sample_table`` inline and on the process pool at 1 and 2 workers;
* the chunks of ``iter_sample_table``;
* one coalesced ``sample_rows_many`` batch, and one whose conditioned
  request names a value outside the column's candidate set;
* ``GReaTSynthesizer.sample_conditional`` with per-lane mixed prompts over
  several engine sessions that share one RNG;
* ``sample_table`` on the ``derec`` and ``direct_flatten`` pipelines, and
  on ``greater`` and ``direct_flatten`` fit on a larger trial where the
  connector drops columns, so the two pipelines' digests must differ;
* the bytes CLI ``sample --out`` writes, whole and chunked;
* ``sample_database`` inline and on the process pool, and a resumed
  ``iter_sample_database`` spill after a torn write.

CSV bytes cannot see a change of dtype, category order or missing mask.  So
the ``iter_sample_table`` chunks, the ``sample_database`` tables and the
``(parent, child, flat)`` triple of the ``greater`` pair synthesizer's
``sample_all`` are also pinned by their column storage (the NPZ bytes of
``table_to_arrays``, keys ending ``/arrays``) and their HTTP JSON
(``table_payload``, keys ending ``/json``).

A digest that changes must be justified by the change that moved it.
Regenerate the file with ``PYTHONPATH=src python -m tests.test_golden_serving``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro import cli
from repro.connecting.connector import ConnectorConfig
from repro.datasets.digix import DigixConfig, generate_digix_like
from repro.datasets.relational import RetailConfig, generate_retail_like
from repro.enhancement.enhancer import EnhancerConfig
from repro.pipelines.base import FittedPipeline
from repro.pipelines.config import PipelineConfig
from repro.pipelines.derec import DERECPipeline
from repro.pipelines.flatten_baseline import DirectFlattenPipeline
from repro.pipelines.greater import GReaTERPipeline
from repro.pipelines.multitable import (
    FittedMultiTablePipeline,
    MultiTablePipelineConfig,
    MultiTableSchemaPipeline,
)
from repro.schema import infer_schema
from repro.serving import ServingConfig, SynthesisService
from repro.serving.server import table_payload
from repro.serving.service import RowRequest, child_synthesizer
from repro.store.bundle import npz_bytes
from repro.store.stream import part_table_is_complete
from repro.store.tablefmt import table_to_arrays

GOLDEN = Path(__file__).parent / "golden" / "serving_digests.json"
ENGINES = ("object", "compiled")

#: request shapes, fixed so the digests stay comparable across commits
TABLE = dict(n=11, seed=9)
BLOCK_SIZE = 4
ROW_REQUESTS = (RowRequest(n=3, seed=5), RowRequest(n=4, conditions=(("gender", 1),), seed=6))
#: ``gender=7`` is no enhanced label: the mapping passes it through unchanged
UNKNOWN_VALUE_REQUESTS = (RowRequest(n=2, seed=4),
                          RowRequest(n=3, conditions=(("gender", 7),), seed=5),
                          RowRequest(n=2, conditions=(("age", 4), ("gender", 1)), seed=6))
#: enhanced-space prompts over three sessions of 3 lanes: the first mixes
#: free and fixed lanes, the second fixes ``gender`` on every lane
#: (``label`` has one candidate), and values outside the candidate sets
#: (``7``, ``1.0``, the two-word ``New York``) are encoded, not looked up
CONDITIONAL_PROMPTS = ({}, {"gender": "male"}, {"gender": 7, "age": "thirties"},
                       {"gender": "female"}, {"gender": 1.0, "label": "clicked"},
                       {"gender": "others", "residence": "New York"},
                       {"age": "forties"}, {})
CONDITIONAL = dict(seed=12, max_lanes=3)
DATABASE = dict(n=5, seed=3)


def csv_digest(table) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.column_names)
    for row in table.iter_rows():
        writer.writerow(["" if row[name] is None else row[name]
                         for name in table.column_names])
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def arrays_digest(table) -> str:
    return hashlib.sha256(npz_bytes(table_to_arrays(table))).hexdigest()


def json_digest(table) -> str:
    return hashlib.sha256(json.dumps(table_payload(table)).encode("utf-8")).hexdigest()


def database_digest(database: dict, digest=csv_digest) -> dict:
    return {name: digest(table) for name, table in sorted(database.items())}


def storage_digests(key: str, tables: list) -> dict:
    """The ``/arrays`` and ``/json`` digests of *tables* under *key*."""
    return {key + "/arrays": [arrays_digest(table) for table in tables],
            key + "/json": [json_digest(table) for table in tables]}


#: the two-table pipelines besides ``greater``, pinned through ``sample_table``
BASELINES = {"derec": DERECPipeline, "direct_flatten": DirectFlattenPipeline}
#: on the smoke trial the connector finds no independent columns, so
#: ``greater`` and ``direct_flatten`` sample alike; on this larger trial it
#: separates two columns and the pipelines part ways
USERS10 = {"greater": GReaTERPipeline, "direct_flatten": DirectFlattenPipeline}


def _trial(n_users: int):
    return generate_digix_like(DigixConfig(
        n_tasks=2, n_users_per_task=n_users, ads_rows_per_user=(2, 3),
        feeds_rows_per_user=(2, 3), seed=11)).trials()[0]


def fit_bundles(directory: Path) -> dict:
    """Fit and save the smoke-size artifacts; ``(kind, engine) -> path``."""
    trial, trial10 = _trial(6), _trial(10)
    retail = generate_retail_like(RetailConfig(n_customers=14, seed=5))
    graph = infer_schema(retail)
    paths = {}
    for engine in ENGINES:
        config = PipelineConfig(
            seed=0, drop_columns=("task_id",),
            enhancer=EnhancerConfig(semantic_level="understandability", seed=0),
            connector=ConnectorConfig(independence_method="threshold_mean",
                                      remove_noisy_columns=False),
            generation_engine=engine, training_engine=engine,
        )
        for kind, pipeline in (("greater", GReaTERPipeline), *BASELINES.items()):
            paths[kind, engine] = directory / "{}-{}".format(kind, engine)
            pipeline(config).fit(trial.ads, trial.feeds).save(paths[kind, engine])
        for kind, pipeline in USERS10.items():
            paths["users10/" + kind, engine] = directory / "users10-{}-{}".format(kind, engine)
            pipeline(config).fit(trial10.ads, trial10.feeds).save(
                paths["users10/" + kind, engine])
        multitable = MultiTableSchemaPipeline(MultiTablePipelineConfig(
            seed=0, generation_engine=engine, training_engine=engine)).fit(retail, graph)
        paths["multitable", engine] = directory / "multitable-{}".format(engine)
        multitable.save(paths["multitable", engine])
    return paths


def _service(path, **overrides) -> SynthesisService:
    config = dict(block_size=BLOCK_SIZE, cache_bytes=0, batch_window_s=0.0)
    config.update(overrides)
    return SynthesisService.from_bundle(path, ServingConfig(**config))


def table_digests(path) -> dict:
    out = {}
    with _service(path) as service:
        out["sample_table/inline"] = csv_digest(service.sample_table(**TABLE))
        chunks = list(service.iter_sample_table(**TABLE))
        out["iter_sample_table/inline"] = [csv_digest(chunk) for chunk in chunks]
        out.update(storage_digests("iter_sample_table/inline", chunks))
        out["sample_rows_many/inline"] = [
            csv_digest(table) for table in service.sample_rows_many(list(ROW_REQUESTS))]
        out["sample_rows_many/unknown_value"] = [
            csv_digest(table)
            for table in service.sample_rows_many(list(UNKNOWN_VALUE_REQUESTS))]
    fitted = FittedPipeline.load(path)
    out.update(storage_digests("sample_all", fitted.synthesizers[0].sample_all(
        TABLE["n"], seed=TABLE["seed"])))
    synth = child_synthesizer(fitted)
    out["sample_conditional/mixed"] = csv_digest(
        synth.sample_conditional([dict(prompt) for prompt in CONDITIONAL_PROMPTS],
                                 **CONDITIONAL))
    for workers in (1, 2):
        with _service(path, executor="process", shards=workers) as service:
            key = "{}/process-{}".format("{}", workers)
            out[key.format("sample_table")] = csv_digest(service.sample_table(**TABLE))
            if workers == 2:
                out[key.format("iter_sample_table")] = [
                    csv_digest(chunk) for chunk in service.iter_sample_table(**TABLE)]
                out[key.format("sample_rows_many")] = [
                    csv_digest(table)
                    for table in service.sample_rows_many(list(ROW_REQUESTS))]
    return out


def pipeline_digests(paths: dict, engine: str, scratch: Path) -> dict:
    """``sample_table`` of the baselines and CLI ``sample --out`` bytes."""
    out = {}
    for kind in (*BASELINES, *("users10/" + kind for kind in USERS10)):
        with _service(paths[kind, engine]) as service:
            out["{}/sample_table/inline".format(kind)] = csv_digest(
                service.sample_table(**TABLE))
    bundle = str(paths["greater", engine])
    args = ["sample", "--bundle", bundle, "--n", str(TABLE["n"]), "--seed", str(TABLE["seed"])]
    for key, extra in (("cli/sample --out", []),
                       ("cli/sample --out --chunk-rows", ["--chunk-rows", str(BLOCK_SIZE)])):
        target = scratch / "cli-{}-{}.csv".format(engine, len(extra))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*args, "--out", str(target), *extra]) == 0
        out[key] = hashlib.sha256(target.read_bytes()).hexdigest()
    return out


def database_digests(path, scratch: Path) -> dict:
    out = {}
    with _service(path) as service:
        database = service.sample_database(**DATABASE)
        out["sample_database/inline"] = database_digest(database)
        out["sample_database/inline/arrays"] = database_digest(database, arrays_digest)
        out["sample_database/inline/json"] = database_digest(database, json_digest)
    with _service(path, executor="process", shards=2) as service:
        out["sample_database/process-2"] = database_digest(
            service.sample_database(**DATABASE))
    # spill two tables, tear the next one mid-write, then resume the spill
    fitted = FittedMultiTablePipeline.load(path)
    spool = scratch / "spool-{}".format(Path(path).name)
    walk = fitted.iter_sample_database(**DATABASE, spool=spool)
    next(walk)
    next(walk)
    walk.close()
    torn = next(spool / name for name in fitted.graph.topological_order()
                if not part_table_is_complete(spool / name))
    torn.mkdir(parents=True, exist_ok=True)
    (torn / "part-00000.npz").write_bytes(b"torn half-written part")
    out["iter_sample_database/resumed"] = database_digest(
        dict(fitted.iter_sample_database(**DATABASE, spool=spool, resume=True)))
    return out


def compute(directory: Path) -> dict:
    paths = fit_bundles(directory)
    return {engine: {**table_digests(paths["greater", engine]),
                     **pipeline_digests(paths, engine, directory),
                     **database_digests(paths["multitable", engine], directory)}
            for engine in ENGINES}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    return fit_bundles(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _owned(golden: dict, test: str) -> dict:
    """The golden digests *test* recomputes; every key has exactly one owner."""
    def owner(key: str) -> str:
        if key.startswith(("sample_database", "iter_sample_database")):
            return "database"
        if key.startswith(("cli/", "users10/", *BASELINES)):
            return "pipeline"
        return "table"
    return {key: value for key, value in golden.items() if owner(key) == test}


@pytest.mark.parametrize("engine", ENGINES)
def test_table_digests_match_golden(bundles, golden, engine):
    assert table_digests(bundles["greater", engine]) == _owned(golden[engine], "table")


@pytest.mark.parametrize("engine", ENGINES)
def test_pipeline_digests_match_golden(bundles, golden, engine, tmp_path):
    digests = pipeline_digests(bundles, engine, tmp_path)
    assert digests == _owned(golden[engine], "pipeline")
    assert (digests["users10/greater/sample_table/inline"]
            != digests["users10/direct_flatten/sample_table/inline"])


@pytest.mark.parametrize("engine", ENGINES)
def test_database_digests_match_golden(bundles, golden, engine, tmp_path):
    assert database_digests(bundles["multitable", engine], tmp_path) == _owned(
        golden[engine], "database")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = compute(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print("wrote", GOLDEN)
