"""Tests for the fit/sample split, the serving layer and the new CLI commands."""

import json
import threading

import pytest

from repro.cli import main
from repro.connecting.connector import ConnectorConfig
from repro.enhancement.enhancer import EnhancerConfig
from repro.frame.io import read_csv
from repro.pipelines.base import FittedPipeline
from repro.pipelines.config import PipelineConfig
from repro.pipelines.derec import DERECPipeline
from repro.pipelines.greater import GReaTERPipeline
from repro.frame.table import Table
from repro.serving import (
    LruCache,
    ServingConfig,
    ServingError,
    SynthesisService,
    approx_table_bytes,
    derive_seed,
)
from repro.store.bundle import load_fitted_pipeline


def _config(seed=0, generation_engine="auto", training_engine="auto"):
    return PipelineConfig(
        seed=seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="understandability", seed=seed),
        connector=ConnectorConfig(independence_method="threshold_mean",
                                  remove_noisy_columns=False),
        generation_engine=generation_engine,
        training_engine=training_engine,
    )


@pytest.fixture(scope="module")
def trial(tiny_digix):
    return tiny_digix.trials()[0]


@pytest.fixture(scope="module")
def fitted(trial):
    return GReaTERPipeline(_config()).fit(trial.ads, trial.feeds)


@pytest.fixture(scope="module")
def bundle(fitted, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "greater"
    fitted.save(path)
    return path


class TestFitSampleSplit:
    def test_fit_then_sample_matches_run(self, trial):
        pipeline = GReaTERPipeline(_config())
        via_run = pipeline.run(trial.ads, trial.feeds)
        via_split = pipeline.fit(trial.ads, trial.feeds).sample()
        assert via_split.synthetic_flat == via_run.synthetic_flat
        assert via_split.details == via_run.details

    def test_sample_is_repeatable_and_seed_sensitive(self, fitted):
        first = fitted.sample(seed=5)
        again = fitted.sample(seed=5)
        other = fitted.sample(seed=6)
        assert first.synthetic_flat == again.synthetic_flat
        assert first.synthetic_flat != other.synthetic_flat

    def test_derec_fit_sample_matches_run(self, trial):
        pipeline = DERECPipeline(_config())
        via_run = pipeline.run(trial.ads, trial.feeds)
        via_split = pipeline.fit(trial.ads, trial.feeds).sample()
        assert via_split.synthetic_flat == via_run.synthetic_flat
        assert via_split.details == via_run.details


class TestPersistenceDeterminism:
    @pytest.mark.parametrize("engine", ["object", "compiled"])
    def test_fit_save_load_sample_bit_identical(self, trial, tmp_path, engine):
        """The acceptance property: fit -> save -> load -> sample equals
        fit -> sample for the same seed, on both engines."""
        pipeline = GReaTERPipeline(_config(generation_engine=engine,
                                           training_engine=engine))
        fitted = pipeline.fit(trial.ads, trial.feeds)
        expected = fitted.sample(seed=5)
        fitted.save(tmp_path / "bundle")
        loaded, digest = load_fitted_pipeline(tmp_path / "bundle")
        result = loaded.sample(seed=5)
        assert result.synthetic_flat == expected.synthetic_flat
        assert result.synthetic_parent == expected.synthetic_parent
        assert result.synthetic_child == expected.synthetic_child
        assert result.original_flat == expected.original_flat
        assert result.details == expected.details
        assert len(digest) == 64

    def test_derec_round_trips(self, trial, tmp_path):
        fitted = DERECPipeline(_config()).fit(trial.ads, trial.feeds)
        expected = fitted.sample(n_subjects=4, seed=3)
        fitted.save(tmp_path / "bundle")
        loaded = FittedPipeline.load(tmp_path / "bundle")
        assert loaded.sample(n_subjects=4, seed=3).synthetic_flat == expected.synthetic_flat

    def test_loaded_config_round_trips(self, bundle, fitted):
        loaded, _ = load_fitted_pipeline(bundle)
        assert loaded.config == fitted.config
        assert loaded.name == fitted.name
        assert loaded.subject_column == fitted.subject_column
        assert loaded.n_training_subjects == fitted.n_training_subjects


class TestSampleTableSharding:
    def test_shard_counts_are_bit_identical(self, bundle):
        reference = SynthesisService.from_bundle(bundle, ServingConfig(
            shards=1, block_size=4, cache_bytes=0)).sample_table(11, seed=9)
        for shards in (1, 2):
            with SynthesisService.from_bundle(bundle, ServingConfig(
                    shards=shards, block_size=4, cache_bytes=0,
                    executor="process")) as service:
                assert service.sample_table(11, seed=9) == reference

    def test_thread_shards_rejected(self):
        with pytest.raises(ValueError, match="process"):
            ServingConfig(executor="thread", shards=2)

    def test_blocks_partition_the_request(self, bundle):
        service = SynthesisService.from_bundle(bundle, ServingConfig(block_size=4))
        blocks = service._blocks(11, seed=9)
        assert [(start, count) for start, count, _ in blocks] == [(0, 4), (4, 4), (8, 3)]
        assert len({block_seed for _, _, block_seed in blocks}) == 3

    def test_result_cache_hits_on_repeat(self, bundle):
        service = SynthesisService.from_bundle(bundle, ServingConfig(cache_bytes=1 << 20))
        first = service.sample_table(6, seed=1)
        second = service.sample_table(6, seed=1)
        assert first == second
        stats = service.stats()
        assert stats["cache_hits"] == 1
        assert stats["table_requests"] == 2

    def test_derive_seed_is_stable_and_spread(self):
        assert derive_seed(7, 11, 0) == derive_seed(7, 11, 0)
        assert derive_seed(7, 11, 0) != derive_seed(7, 11, 1)
        assert derive_seed(7, 11, 0) != derive_seed(8, 11, 0)
        assert derive_seed(-3, 11, 0) >= 0  # negative seeds are masked


class TestCoalescedRows:
    def test_merged_equals_solo(self, bundle):
        service = SynthesisService.from_bundle(bundle, ServingConfig(cache_bytes=0))
        requests = [
            service._normalize_request(5, {"gender": 1}, 3),
            service._normalize_request(3, None, 4),
            service._normalize_request(4, {"age": 2, "gender": 1}, 3),
        ]
        merged = service.sample_rows_many(requests)
        for request, table in zip(requests, merged):
            assert service.sample_rows_many([request])[0] == table
            assert table.num_rows == request.n

    def test_conditions_are_respected_in_original_space(self, bundle):
        service = SynthesisService.from_bundle(bundle, ServingConfig(cache_bytes=0))
        table = service.sample_rows(6, {"gender": 1}, seed=2)
        assert table.column("gender").unique() == [1]
        assert service.fitted.subject_column not in table.column_names

    def test_unknown_condition_column_rejected(self, bundle):
        service = SynthesisService.from_bundle(bundle)
        with pytest.raises(ServingError):
            service.sample_rows(3, {"martian": 1})

    def test_concurrent_requests_coalesce_and_stay_deterministic(self, bundle):
        service = SynthesisService.from_bundle(bundle, ServingConfig(
            cache_bytes=0, batch_window_s=0.02))
        solo = SynthesisService.from_bundle(bundle, ServingConfig(cache_bytes=0))
        results: dict = {}

        def worker(index):
            results[index] = service.sample_rows(4, {"gender": 1}, seed=100 + index)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(5):
            assert results[index] == solo.sample_rows(4, {"gender": 1}, seed=100 + index)
        stats = service.stats()
        assert stats["row_requests"] == 5
        assert stats["coalesced_batches"] < 5  # at least one merged drain

    def test_row_cache_keyed_by_request(self, bundle):
        service = SynthesisService.from_bundle(bundle, ServingConfig(
            cache_bytes=1 << 20, batch_window_s=0.0))
        first = service.sample_rows(3, {"gender": 1}, seed=7)
        assert service.sample_rows(3, {"gender": 1}, seed=7) == first
        assert service.stats()["cache_hits"] >= 1

    def test_derec_rejects_row_serving(self, trial):
        fitted = DERECPipeline(_config()).fit(trial.ads, trial.feeds)
        service = SynthesisService(fitted)
        with pytest.raises(ServingError):
            service.sample_rows(3, {"gender": 1})
        # full-table serving still works for two-round pipelines
        assert service.sample_table(4, seed=1).num_rows > 0

    def test_sample_dispatches_on_conditions(self, bundle):
        service = SynthesisService.from_bundle(bundle, ServingConfig(cache_bytes=0))
        flat = service.sample(5, seed=2)
        rows = service.sample(3, seed=2, conditions={"gender": 1})
        assert flat.num_rows >= 5  # multiple child rows per subject
        assert rows.num_rows == 3
        with pytest.raises(ValueError):
            service.sample(conditions={"gender": 1})


class TestLruCache:
    def test_eviction_order_by_bytes(self):
        cache = LruCache(200, sizer=lambda value: 100)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)           # over budget: evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.bytes_used == 200

    def test_large_entries_evict_more(self):
        cache = LruCache(100, sizer=lambda value: value)
        cache.put("a", 30)
        cache.put("b", 30)
        cache.put("c", 60)  # 120 > 100: evicts a
        assert cache.get("a") is None
        assert cache.get("b") == 30 and cache.get("c") == 60
        assert cache.bytes_used == 90

    def test_oversized_entry_is_not_cached(self):
        cache = LruCache(100, sizer=lambda value: value)
        cache.put("small", 40)
        cache.put("huge", 500)  # bigger than the whole budget
        assert cache.get("huge") is None
        assert cache.get("small") == 40  # untouched by the refused insert

    def test_replacement_updates_bytes(self):
        cache = LruCache(100, sizer=lambda value: value)
        cache.put("a", 40)
        cache.put("a", 10)
        assert cache.bytes_used == 10

    def test_zero_capacity_disables(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_tables_are_sized_approximately(self):
        table = Table({"a": list(range(1000)), "b": ["x"] * 1000})
        size = approx_table_bytes(table)
        assert size >= 8000  # at least the int64 payload
        cache = LruCache(2 * size)
        cache.put("t", table)
        assert cache.get("t") == table
        assert cache.bytes_used == size

    def test_stats_report_cache_bytes_used(self, bundle):
        service = SynthesisService.from_bundle(bundle, ServingConfig(cache_bytes=1 << 20))
        assert service.stats()["cache_bytes_used"] == 0
        service.sample_table(4, seed=1)
        assert service.stats()["cache_bytes_used"] > 0


class TestCliCommands:
    def test_fit_sample_round_trip(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["fit", "--pipeline", "greater", "--bundle", str(bundle),
                     "--users-per-task", "6", "--seed", "3", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["command"] == "fit" and rows[0]["pipeline"] == "greater"

        out_csv = tmp_path / "flat.csv"
        assert main(["sample", "--bundle", str(bundle), "--n", "4", "--seed", "9",
                     "--out", str(out_csv), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["rows"] == read_csv(out_csv).num_rows

    def test_sample_twice_is_deterministic(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        main(["fit", "--bundle", str(bundle), "--users-per-task", "6", "--seed", "3"])
        capsys.readouterr()
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample", "--bundle", str(bundle), "--n", "3", "--seed", "1",
              "--out", str(out_a)])
        main(["sample", "--bundle", str(bundle), "--n", "3", "--seed", "1",
              "--out", str(out_b)])
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_list_includes_store_commands(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("fit", "sample", "serve", "fig7"):
            assert name in output
