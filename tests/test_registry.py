"""Tests for the artifact registry: CAS, provenance runs, dedup, format checks."""

import json
import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.connecting.connector import ConnectorConfig
from repro.datasets.relational import RetailConfig, generate_retail_like
from repro.enhancement.enhancer import EnhancerConfig
from repro.frame.io import write_csv
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.llm.sampler import SamplerConfig
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.pipelines.multitable import MultiTablePipelineConfig, MultiTableSchemaPipeline
from repro.registry import (
    ContentStore,
    Registry,
    blob_digest,
    fingerprint_directory,
    fingerprint_table,
    fit_spec,
    spec_digest,
)
from repro.serving import ArtifactSource
from repro.store import StoreError
from repro.store.bundle import BundleIntegrityError
from repro.store.bundle import save_great_synthesizer


def _great_config(engine: str, seed: int = 3) -> GReaTConfig:
    return GReaTConfig(
        fine_tune=FineTuneConfig(epochs=2, batches=2, seed=seed,
                                 model=ModelConfig(order=3), engine=engine),
        sampler=SamplerConfig(temperature=0.9, top_k=8, seed=seed, engine=engine),
        seed=seed,
    )


@pytest.fixture
def training_table():
    return Table({
        "name": ["grace", "yin", "anson", "maya"] * 6,
        "lunch": [1, 2, 1, 3] * 6,
        "score": [0.5, 1.5, 0.5, 2.5] * 6,
    })


class _GreatPipeline:
    """Minimal pipeline protocol (name/config/fit) over a GReaT synthesizer."""

    name = "great-test"

    def __init__(self, config: GReaTConfig):
        self.config = config

    def fit(self, table: Table) -> GReaTSynthesizer:
        return GReaTSynthesizer(self.config).fit(table)


def _pipeline_config(engine: str = "object", seed: int = 0) -> PipelineConfig:
    return PipelineConfig(
        seed=seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="none", seed=seed),
        connector=ConnectorConfig(remove_noisy_columns=False),
        generation_engine=engine,
        training_engine=engine,
    )


# ---------------------------------------------------------------------------
# content-addressed store
# ---------------------------------------------------------------------------

class TestContentStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ContentStore(tmp_path / "objects")
        digest, written = store.put(b"hello parts")
        assert written
        assert digest == blob_digest(b"hello parts")
        assert store.get(digest) == b"hello parts"
        assert store.has(digest)
        assert store.size(digest) == len(b"hello parts")

    def test_put_is_idempotent(self, tmp_path):
        store = ContentStore(tmp_path / "objects")
        first, written_first = store.put(b"same bytes")
        second, written_second = store.put(b"same bytes")
        assert first == second
        assert written_first and not written_second
        assert len(store.digests()) == 1

    def test_corrupted_object_raises_integrity_error(self, tmp_path):
        store = ContentStore(tmp_path / "objects")
        digest, _ = store.put(b"pristine")
        store.object_path(digest).write_bytes(b"tampered")
        with pytest.raises(BundleIntegrityError):
            store.get(digest)

    def test_missing_object_and_bad_digest_rejected(self, tmp_path):
        store = ContentStore(tmp_path / "objects")
        with pytest.raises(StoreError):
            store.get("0" * 64)
        with pytest.raises(StoreError):
            store.object_path("ab")

    def test_delete_frees_bytes_and_fanout_dir(self, tmp_path):
        store = ContentStore(tmp_path / "objects")
        digest, _ = store.put(b"doomed")
        assert store.delete(digest) == len(b"doomed")
        assert not store.has(digest)
        assert store.delete(digest) == 0
        assert store.digests() == []

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blobs=st.lists(st.binary(min_size=0, max_size=64), max_size=12))
    def test_store_accounting_matches_unique_contents(self, tmp_path, blobs):
        store = ContentStore(tmp_path / "objects" / str(len(blobs)))
        for shard in (store.root.iterdir() if store.root.is_dir() else []):
            for entry in shard.iterdir():
                entry.unlink()
        written = sum(1 for blob in blobs if store.put(blob)[1])
        unique = {blob_digest(blob): blob for blob in blobs}
        assert written == len(unique)
        assert set(store.digests()) == set(unique)
        assert store.total_bytes() == sum(len(blob) for blob in unique.values())
        for digest, blob in unique.items():
            assert store.get(digest) == blob

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(keep=st.integers(min_value=0, max_value=5))
    def test_gc_deletes_exactly_the_unreferenced(self, tmp_path, keep):
        registry = Registry(tmp_path / ("reg%d" % keep))
        blobs = [("blob %d" % i).encode() for i in range(6)]
        for blob in blobs:
            registry.store.put(blob)
        # fabricate artifact records referencing the first `keep` objects
        registry._artifacts.mkdir(parents=True, exist_ok=True)
        for i in range(keep):
            digest = blob_digest(blobs[i])
            record = {"format_version": 1, "kind": "great_synthesizer",
                      "digest": "f" * 63 + str(i), "compress": False, "meta": {},
                      "parts": {"part": {"object": digest, "size": len(blobs[i])}}}
            (registry._artifacts / (record["digest"] + ".json")).write_text(
                json.dumps(record))
        stats = registry.gc()
        assert stats["objects_deleted"] == 6 - keep
        assert stats["objects_kept"] == keep
        assert stats["bytes_freed"] == sum(len(blob) for blob in blobs[keep:])
        assert set(registry.store.digests()) == {blob_digest(b) for b in blobs[:keep]}


# ---------------------------------------------------------------------------
# registry save/load, dedup, incremental re-save
# ---------------------------------------------------------------------------

class TestRegistrySaveLoad:
    @pytest.fixture(scope="class")
    def fitted(self):
        table = Table({
            "name": ["grace", "yin", "anson", "maya"] * 6,
            "lunch": [1, 2, 1, 3] * 6,
            "score": [0.5, 1.5, 0.5, 2.5] * 6,
        })
        return GReaTSynthesizer(_great_config("compiled")).fit(table), table

    def test_registry_digest_matches_bundle_file_digest(self, fitted, tmp_path):
        synth, _ = fitted
        report = Registry(tmp_path / "reg").save(synth)
        file_digest = save_great_synthesizer(synth, tmp_path / "bundle")
        assert report.digest == file_digest
        assert report.kind == "great_synthesizer"

    def test_load_round_trips_samples(self, fitted, tmp_path):
        synth, _ = fitted
        registry = Registry(tmp_path / "reg")
        digest = registry.save(synth).digest
        loaded = registry.load(digest)
        assert fingerprint_table(loaded.sample(8, seed=5)) == \
            fingerprint_table(synth.sample(8, seed=5))

    def test_mmap_load_round_trips_samples(self, fitted, tmp_path):
        synth, _ = fitted
        registry = Registry(tmp_path / "reg")
        digest = registry.save(synth).digest
        loaded = registry.load(digest, mmap=True)
        assert fingerprint_table(loaded.sample(8, seed=5)) == \
            fingerprint_table(synth.sample(8, seed=5))

    def test_resave_is_incremental(self, fitted, tmp_path):
        synth, _ = fitted
        registry = Registry(tmp_path / "reg")
        first = registry.save(synth)
        second = registry.save(synth)
        assert first.parts_written > 0
        assert second.parts_written == 0
        assert second.parts_reused == len(second.parts)
        assert second.bytes_written == 0
        assert second.digest == first.digest

    def test_prefix_resolution(self, fitted, tmp_path):
        synth, _ = fitted
        registry = Registry(tmp_path / "reg")
        digest = registry.save(synth).digest
        assert registry.resolve(digest[:10]) == digest
        with pytest.raises(StoreError):
            registry.resolve("zzzz")

    def test_remove_then_gc_reclaims_objects(self, fitted, tmp_path):
        synth, _ = fitted
        registry = Registry(tmp_path / "reg")
        digest = registry.save(synth).digest
        assert registry.gc()["objects_deleted"] == 0
        assert registry.remove(digest) >= 1
        stats = registry.gc()
        assert stats["objects_deleted"] > 0
        assert stats["objects_kept"] == 0
        assert registry.store.digests() == []

    def test_corrupted_object_fails_verified_load(self, fitted, tmp_path):
        synth, _ = fitted
        registry = Registry(tmp_path / "reg")
        report = registry.save(synth)
        victim = sorted(report.parts.values())[0]
        blob = registry.store.object_path(victim).read_bytes()
        registry.store.object_path(victim).write_bytes(
            bytes([blob[0] ^ 0xFF]) + blob[1:])
        with pytest.raises(BundleIntegrityError):
            registry.load(report.digest)


class TestMultitableDedup:
    @pytest.fixture(scope="class")
    def retail(self):
        return generate_retail_like(RetailConfig(
            n_customers=6, n_stores=2, max_orders_per_customer=2,
            max_items_per_order=2, max_reviews_per_customer=1, seed=4))

    def test_edge_synthesizers_share_physical_parts(self, retail, tmp_path):
        pipeline = MultiTableSchemaPipeline(MultiTablePipelineConfig(
            seed=2, generation_engine="compiled", training_engine="compiled"))
        report = Registry(tmp_path / "reg").save(pipeline.fit(retail))
        assert report.kind == "multitable_pipeline"
        assert report.shared, "expected at least one deduplicated part"
        logical = report.total_bytes
        physical = report.bytes_written
        assert physical < logical
        shared_names = [name for names in report.shared.values() for name in names]
        assert len(shared_names) == len(set(shared_names))

    def test_fit_or_load_handles_table_dicts(self, retail, tmp_path):
        pipeline = MultiTableSchemaPipeline(MultiTablePipelineConfig(
            seed=2, generation_engine="compiled", training_engine="compiled"))
        registry = Registry(tmp_path / "reg")
        miss = registry.fit_or_load(pipeline, retail, None)
        hit = registry.fit_or_load(pipeline, retail, None)
        assert not miss.cache_hit and hit.cache_hit
        assert miss.digest == hit.digest
        fresh = miss.fitted.sample_database(seed=9)
        cached = hit.fitted.sample_database(seed=9)
        assert sorted(fresh) == sorted(cached)
        for name in fresh:
            assert fingerprint_table(fresh[name]) == fingerprint_table(cached[name])


# ---------------------------------------------------------------------------
# fit-as-cache-hit and spec sensitivity
# ---------------------------------------------------------------------------

class TestFitOrLoad:
    @pytest.mark.parametrize("engine", ["object", "compiled"])
    def test_cache_hit_is_bit_identical(self, training_table, tmp_path, engine):
        registry = Registry(tmp_path / "reg")
        pipeline = _GreatPipeline(_great_config(engine))
        miss = registry.fit_or_load(pipeline, training_table)
        assert not miss.cache_hit
        assert miss.report is not None and miss.report.parts_written > 0
        hit = registry.fit_or_load(pipeline, training_table)
        assert hit.cache_hit
        assert hit.report is None
        assert hit.digest == miss.digest
        assert hit.spec_digest == miss.spec_digest
        assert fingerprint_table(hit.fitted.sample(10, seed=7)) == \
            fingerprint_table(miss.fitted.sample(10, seed=7))

    def test_seed_change_is_a_miss(self, training_table, tmp_path):
        registry = Registry(tmp_path / "reg")
        first = registry.fit_or_load(_GreatPipeline(_great_config("compiled", seed=3)),
                                     training_table)
        second = registry.fit_or_load(_GreatPipeline(_great_config("compiled", seed=4)),
                                      training_table)
        assert not second.cache_hit
        assert second.spec_digest != first.spec_digest

    def test_dataset_change_is_a_miss(self, training_table, tmp_path):
        registry = Registry(tmp_path / "reg")
        pipeline = _GreatPipeline(_great_config("compiled"))
        registry.fit_or_load(pipeline, training_table)
        changed = Table({name: list(training_table.column(name).values)
                         for name in training_table.column_names})
        changed = Table({**{name: changed.column(name).values
                            for name in changed.column_names},
                         "score": [v + 1 for v in changed.column("score").values]})
        result = registry.fit_or_load(pipeline, changed)
        assert not result.cache_hit

    def test_engine_change_is_a_miss(self, training_table, tmp_path):
        registry = Registry(tmp_path / "reg")
        spec_object = spec_digest(fit_spec(_GreatPipeline(_great_config("object")),
                                           training_table))
        spec_compiled = spec_digest(fit_spec(_GreatPipeline(_great_config("compiled")),
                                             training_table))
        assert spec_object != spec_compiled

    def test_env_engine_override_changes_spec(self, training_table, monkeypatch):
        pipeline = _GreatPipeline(_great_config("auto"))
        monkeypatch.delenv("REPRO_GENERATION_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_TRAINING_ENGINE", raising=False)
        default = spec_digest(fit_spec(pipeline, training_table))
        monkeypatch.setenv("REPRO_GENERATION_ENGINE", "object")
        monkeypatch.setenv("REPRO_TRAINING_ENGINE", "object")
        assert spec_digest(fit_spec(pipeline, training_table)) != default

    def test_pruned_artifact_triggers_refit(self, training_table, tmp_path):
        registry = Registry(tmp_path / "reg")
        pipeline = _GreatPipeline(_great_config("compiled"))
        miss = registry.fit_or_load(pipeline, training_table)
        (registry._artifacts / (miss.digest + ".json")).unlink()
        registry.gc()
        again = registry.fit_or_load(pipeline, training_table)
        assert not again.cache_hit
        assert again.digest == miss.digest

    def test_run_record_binds_spec_to_artifact(self, training_table, tmp_path):
        registry = Registry(tmp_path / "reg")
        pipeline = _GreatPipeline(_great_config("compiled"))
        result = registry.fit_or_load(pipeline, training_table)
        record = registry.run_record(result.spec_digest)
        assert record is not None
        assert record["artifact"] == result.digest
        assert record["pipeline"] == "great-test"
        assert record["spec"]["dataset"] == [fingerprint_table(training_table)]

    def test_full_pipeline_fit_or_load(self, tiny_digix, tmp_path):
        trial = tiny_digix.trials()[0]
        registry = Registry(tmp_path / "reg")
        pipeline = GReaTERPipeline(_pipeline_config("compiled"))
        miss = registry.fit_or_load(pipeline, trial.ads, trial.feeds)
        hit = registry.fit_or_load(pipeline, trial.ads, trial.feeds)
        assert not miss.cache_hit and hit.cache_hit
        assert hit.digest == miss.digest
        fresh = miss.fitted.sample(6, seed=2).synthetic_flat
        cached = hit.fitted.sample(6, seed=2).synthetic_flat
        assert fingerprint_table(fresh) == fingerprint_table(cached)


# ---------------------------------------------------------------------------
# migrations (none exist: every format version gap is rejected)
# ---------------------------------------------------------------------------

class TestMigrations:
    def test_version_gap_without_migration_rejected(self, tmp_path):
        table = Table({"name": ["grace", "yin", "anson", "maya"] * 6,
                       "lunch": [1, 2, 1, 3] * 6})
        synth = GReaTSynthesizer(_great_config("compiled")).fit(table)
        registry = Registry(tmp_path / "reg")
        digest = registry.save(synth).digest
        path = registry._artifacts / (digest + ".json")
        record = json.loads(path.read_text())
        for version in (0, 2):
            record["format_version"] = version
            path.write_text(json.dumps(record))
            with pytest.raises(StoreError, match="format version"):
                registry.load(digest)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_table_fingerprint_is_deterministic(self, small_table):
        clone = Table({name: list(small_table.column(name).values)
                       for name in small_table.column_names})
        assert fingerprint_table(small_table) == fingerprint_table(clone)

    def test_table_fingerprint_sees_value_changes(self, small_table):
        changed = Table({**{name: small_table.column(name).values
                            for name in small_table.column_names},
                         "age": [25, 31, 25, 41]})
        assert fingerprint_table(small_table) != fingerprint_table(changed)

    def test_directory_fingerprint_covers_csvs(self, small_table, tmp_path):
        write_csv(small_table, tmp_path / "a.csv")
        write_csv(small_table, tmp_path / "b.csv")
        result = fingerprint_directory(tmp_path)
        assert sorted(result["files"]) == ["a.csv", "b.csv"]
        assert result["files"]["a.csv"] == result["files"]["b.csv"]
        (tmp_path / "b.csv").write_text((tmp_path / "b.csv").read_text() + "x,1,2,y\n")
        assert fingerprint_directory(tmp_path)["fingerprint"] != result["fingerprint"]


# ---------------------------------------------------------------------------
# serving references
# ---------------------------------------------------------------------------

class TestRegistrySource:
    def test_pickles_and_prints(self):
        source = ArtifactSource(path="/tmp/reg", digest="a" * 64)
        clone = pickle.loads(pickle.dumps(source))
        assert clone == source
        assert str(source) == "/tmp/reg#" + "a" * 12
