"""Golden serving digests: every serving path pinned to committed sha256s.

Pairwise checks (object vs compiled, 1 vs 2 workers) cannot see a change
that shifts both sides at once.  This module recomputes, at smoke size and
on both engines, the sha256 of the CSV bytes of each serving path's output
and compares it with ``tests/golden/serving_digests.json``:

* ``sample_table`` inline and on the process pool at 1 and 2 workers;
* the chunks of ``iter_sample_table``;
* one coalesced ``sample_rows_many`` batch;
* ``sample_database`` inline and on the process pool.

A digest that changes must be justified by the change that moved it.
Regenerate the file with ``PYTHONPATH=src python -m tests.test_golden_serving``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.connecting.connector import ConnectorConfig
from repro.datasets.digix import DigixConfig, generate_digix_like
from repro.datasets.relational import RetailConfig, generate_retail_like
from repro.enhancement.enhancer import EnhancerConfig
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.pipelines.multitable import MultiTablePipelineConfig, MultiTableSchemaPipeline
from repro.schema import infer_schema
from repro.serving import ServingConfig, SynthesisService
from repro.serving.service import RowRequest

GOLDEN = Path(__file__).parent / "golden" / "serving_digests.json"
ENGINES = ("object", "compiled")

#: request shapes, fixed so the digests stay comparable across commits
TABLE = dict(n=11, seed=9)
BLOCK_SIZE = 4
ROW_REQUESTS = (RowRequest(n=3, seed=5), RowRequest(n=4, conditions=(("gender", 1),), seed=6))
DATABASE = dict(n=5, seed=3)


def csv_digest(table) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.column_names)
    for row in table.iter_rows():
        writer.writerow(["" if row[name] is None else row[name]
                         for name in table.column_names])
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def database_digest(database: dict) -> dict:
    return {name: csv_digest(table) for name, table in sorted(database.items())}


def fit_bundles(directory: Path) -> dict:
    """Fit and save the smoke-size artifacts; ``(kind, engine) -> path``."""
    trial = generate_digix_like(DigixConfig(
        n_tasks=2, n_users_per_task=6, ads_rows_per_user=(2, 3),
        feeds_rows_per_user=(2, 3), seed=11)).trials()[0]
    retail = generate_retail_like(RetailConfig(n_customers=14, seed=5))
    graph = infer_schema(retail)
    paths = {}
    for engine in ENGINES:
        greater = GReaTERPipeline(PipelineConfig(
            seed=0, drop_columns=("task_id",),
            enhancer=EnhancerConfig(semantic_level="understandability", seed=0),
            connector=ConnectorConfig(independence_method="threshold_mean",
                                      remove_noisy_columns=False),
            generation_engine=engine, training_engine=engine,
        )).fit(trial.ads, trial.feeds)
        paths["greater", engine] = directory / "greater-{}".format(engine)
        greater.save(paths["greater", engine])
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
        out["iter_sample_table/inline"] = [
            csv_digest(chunk) for chunk in service.iter_sample_table(**TABLE)]
        out["sample_rows_many/inline"] = [
            csv_digest(table) for table in service.sample_rows_many(list(ROW_REQUESTS))]
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


def database_digests(path) -> dict:
    out = {}
    with _service(path) as service:
        out["sample_database/inline"] = database_digest(service.sample_database(**DATABASE))
    with _service(path, executor="process", shards=2) as service:
        out["sample_database/process-2"] = database_digest(
            service.sample_database(**DATABASE))
    return out


def compute(directory: Path) -> dict:
    paths = fit_bundles(directory)
    return {engine: {**table_digests(paths["greater", engine]),
                     **database_digests(paths["multitable", engine])}
            for engine in ENGINES}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    return fit_bundles(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("engine", ENGINES)
def test_table_digests_match_golden(bundles, golden, engine):
    assert table_digests(bundles["greater", engine]) == {
        key: value for key, value in golden[engine].items()
        if not key.startswith("sample_database")}


@pytest.mark.parametrize("engine", ENGINES)
def test_database_digests_match_golden(bundles, golden, engine):
    assert database_digests(bundles["multitable", engine]) == {
        key: value for key, value in golden[engine].items()
        if key.startswith("sample_database")}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = compute(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print("wrote", GOLDEN)
