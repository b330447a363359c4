"""Tests for out-of-core streaming synthesis: chunked generators and sinks.

The properties under test mirror the streaming guarantees:

* chunked synthesis is bit-identical to its in-memory materialization at the
  same chunk size, on both engines and across chunk sizes {1, uneven,
  exact-multiple, > rows};
* the streaming CSV sink produces byte-identical files to
  :func:`repro.frame.io.write_csv`, publishes atomically and discards
  cleanly on abort;
* NPZ part-directory spills reassemble losslessly and serve single columns
  via memory-mapped reads;
* ``iter_sample_database`` equals ``sample_database`` with and without a
  spool directory, and whole databases are identical across 1/2/4 serving
  worker processes;
* streaming holds O(chunk) memory — the tracemalloc peak of the chunked
  walk stays well below the in-memory path's peak;
* the HTTP ``stream=true`` path returns the same rows as the buffered path
  and reports chunk counters and peak RSS in ``/stats``.
"""

import asyncio
import hashlib
import threading
import tracemalloc
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.connecting.connector import ConnectorConfig
from repro.enhancement.enhancer import EnhancerConfig
from repro.frame.io import write_csv
from repro.frame.ops import concat_rows
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.llm.sampler import SamplerConfig
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.pipelines.multitable import MultiTablePipelineConfig, MultiTableSchemaPipeline
from repro.serving import ServingConfig, SynthesisService, process_peak_rss_bytes
from repro.serving.server import SynthesisServer, request_json, request_json_stream
from repro.store.bundle import load_fitted_pipeline
from repro.store.codec import StoreError
from repro.store.stream import (
    CsvTableSink,
    MemorySink,
    PartTableSink,
    SpoolingSink,
    iter_part_tables,
    part_table_column,
    part_table_num_rows,
    read_part_table,
)

#: {minimum, uneven remainder, exact multiple of 12, more than 12 rows}
CHUNK_SIZES = (1, 7, 4, 30)


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _great_config(engine, seed=0):
    return GReaTConfig(
        fine_tune=FineTuneConfig(epochs=2, batches=2, model=ModelConfig(order=4)),
        sampler=SamplerConfig(engine=engine, seed=seed),
        seed=seed,
    )


def _pipeline_config(engine, seed=0):
    return PipelineConfig(
        seed=seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="understandability", seed=seed),
        connector=ConnectorConfig(remove_noisy_columns=False),
        generation_engine=engine,
        training_engine=engine,
    )


@pytest.fixture
def meals_table():
    return Table({
        "Name": ["Grace", "Yin", "Anson", "Maya", "Leo", "Iris"],
        "Lunch": ["Rice", "Spaghetti", "Rice", "Noodles", "Spaghetti", "Rice"],
        "Dinner": ["Steak", "Chicken", "Curry", "Steak", "Chicken", "Curry"],
        "Rating": [5, 4, 3, 5, 4, 3],
    })


@pytest.fixture(scope="module", params=["object", "compiled"])
def great_synth(request):
    table = Table({
        "Name": ["Grace", "Yin", "Anson", "Maya", "Leo", "Iris"],
        "Lunch": ["Rice", "Spaghetti", "Rice", "Noodles", "Spaghetti", "Rice"],
        "Rating": [5, 4, 3, 5, 4, 3],
    })
    return request.param, GReaTSynthesizer(_great_config(request.param)).fit(table)


@pytest.fixture(scope="module", params=["object", "compiled"])
def engine_bundle(request, tiny_digix, tmp_path_factory):
    """A fitted GReaTER bundle per engine; tests get (engine, path)."""
    engine = request.param
    trial = tiny_digix.trials()[0]
    fitted = GReaTERPipeline(_pipeline_config(engine)).fit(trial.ads, trial.feeds)
    path = tmp_path_factory.mktemp("bundles") / "greater-{}".format(engine)
    fitted.save(path)
    return engine, path


@pytest.fixture(scope="module")
def database_tables():
    return {
        "users": Table({
            "user_id": ["u{}".format(i) for i in range(12)],
            "city": ["a", "b", "c", "a", "b", "c", "a", "b", "c", "a", "b", "c"],
        }),
        "orders": Table({
            "order_id": ["o{}".format(i) for i in range(24)],
            "user_id": ["u{}".format(i % 12) for i in range(24)],
            "amount": [5 * (i % 7) + 3 for i in range(24)],
        }),
    }


@pytest.fixture(scope="module")
def multitable_fitted(database_tables):
    return MultiTableSchemaPipeline(MultiTablePipelineConfig(seed=3)).fit(database_tables)


@pytest.fixture(scope="module")
def multitable_bundle(multitable_fitted, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "multitable"
    multitable_fitted.save(path)
    return path


# ---------------------------------------------------------------------------
# chunked == in-memory identity
# ---------------------------------------------------------------------------

class TestSynthesizerChunkIdentity:
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_iter_equals_chunked_sample(self, great_synth, chunk_rows):
        """Draining ``iter_sample`` equals ``sample_chunked`` at every chunk
        size — including 1, an uneven remainder, and chunk > rows."""
        _, synth = great_synth
        streamed = concat_rows(list(synth.iter_sample(12, seed=9, chunk_rows=chunk_rows)))
        assert streamed == synth.sample_chunked(12, seed=9, chunk_rows=chunk_rows)

    def test_chunk_seeds_are_stable_per_index(self, great_synth):
        """Chunked sampling is deterministic: same (n, seed, chunk) twice."""
        _, synth = great_synth
        first = synth.sample_chunked(12, seed=4, chunk_rows=5)
        assert first == synth.sample_chunked(12, seed=4, chunk_rows=5)

    def test_chunk_sizes_yield_expected_counts(self, great_synth):
        _, synth = great_synth
        chunks = list(synth.iter_sample(12, seed=1, chunk_rows=5))
        assert [chunk.num_rows for chunk in chunks] == [5, 5, 2]


class TestPipelineStreamIdentity:
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_streamed_csv_matches_in_memory_bytes(self, engine_bundle, tmp_path,
                                                  chunk_rows):
        """The tentpole identity on both engines: the CSV streamed chunk by
        chunk is byte-identical (sha256) to writing the concatenated blocks
        in one shot."""
        _, path = engine_bundle
        fitted, _ = load_fitted_pipeline(path)
        streamed_path = tmp_path / "streamed.csv"
        with CsvTableSink(streamed_path) as sink:
            sink.write_all(fitted.iter_sample_flat(seed=2, chunk_rows=chunk_rows))
        whole = concat_rows(list(fitted.iter_sample_flat(seed=2, chunk_rows=chunk_rows)))
        whole_path = tmp_path / "whole.csv"
        write_csv(whole, whole_path)
        assert _sha256(streamed_path) == _sha256(whole_path)

    def test_stream_equals_serving_blocks(self, engine_bundle):
        """The streamed blocks are the serving layer's sharding units: the
        concatenation equals ``sample_table`` at ``block_size == chunk_rows``."""
        _, path = engine_bundle
        fitted, _ = load_fitted_pipeline(path)
        streamed = concat_rows(list(fitted.iter_sample_flat(seed=6, chunk_rows=4)))
        service = SynthesisService.from_bundle(
            path, ServingConfig(block_size=4, cache_bytes=0))
        try:
            assert streamed == service.sample_table(seed=6)
        finally:
            service.close()


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

class TestCsvTableSink:
    def test_bytes_identical_to_write_csv(self, meals_table, tmp_path):
        streamed, whole = tmp_path / "streamed.csv", tmp_path / "whole.csv"
        with CsvTableSink(streamed) as sink:
            sink.write(meals_table.take([0, 1]))
            sink.write(meals_table.take([2, 3, 4, 5]))
        write_csv(meals_table, whole)
        assert streamed.read_bytes() == whole.read_bytes()

    def test_abort_leaves_nothing(self, meals_table, tmp_path):
        target = tmp_path / "aborted.csv"
        sink = CsvTableSink(target)
        sink.write(meals_table)
        sink.abort()
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_exception_in_with_block_discards(self, meals_table, tmp_path):
        target = tmp_path / "failed.csv"
        with pytest.raises(RuntimeError):
            with CsvTableSink(target) as sink:
                sink.write(meals_table)
                raise RuntimeError("producer died")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_empty_close_writes_header_when_columns_known(self, meals_table, tmp_path):
        target = tmp_path / "empty.csv"
        with CsvTableSink(target) as sink:
            sink.write(meals_table.take([]))
        assert target.read_text().strip() == ",".join(meals_table.column_names)

    def test_column_mismatch_rejected(self, meals_table, tmp_path):
        with CsvTableSink(tmp_path / "t.csv") as sink:
            sink.write(meals_table)
            with pytest.raises(StoreError):
                sink.write(meals_table.drop("Rating"))

    def test_write_after_close_rejected(self, meals_table, tmp_path):
        sink = CsvTableSink(tmp_path / "t.csv")
        sink.write(meals_table)
        sink.close()
        with pytest.raises(StoreError):
            sink.write(meals_table)


class TestPartTableSink:
    def test_round_trip_lossless(self, meals_table, tmp_path):
        spill = tmp_path / "spill"
        with PartTableSink(spill) as sink:
            sink.write(meals_table.take([0, 1, 2]))
            sink.write(meals_table.take([3, 4, 5]))
        assert read_part_table(spill) == meals_table
        assert part_table_num_rows(spill) == meals_table.num_rows
        assert [part.num_rows for part in iter_part_tables(spill)] == [3, 3]

    def test_column_reads_match_values(self, meals_table, tmp_path):
        spill = tmp_path / "spill"
        with PartTableSink(spill) as sink:
            sink.write(meals_table.take([0, 1, 2, 3]))
            sink.write(meals_table.take([4, 5]))
        for name in meals_table.column_names:
            assert part_table_column(spill, name) == meals_table.column(name).values

    def test_missing_column_rejected(self, meals_table, tmp_path):
        spill = tmp_path / "spill"
        with PartTableSink(spill) as sink:
            sink.write(meals_table)
        with pytest.raises(StoreError):
            part_table_column(spill, "NoSuchColumn")

    def test_incomplete_spill_rejected(self, meals_table, tmp_path):
        spill = tmp_path / "spill"
        sink = PartTableSink(spill)
        sink.write(meals_table)
        # no close(): the manifest is missing, so readers must refuse
        with pytest.raises(StoreError):
            read_part_table(spill)

    def test_abort_removes_parts(self, meals_table, tmp_path):
        spill = tmp_path / "spill"
        sink = PartTableSink(spill)
        sink.write(meals_table)
        sink.abort()
        assert list(spill.iterdir()) == []

    def test_completed_directory_not_reused(self, meals_table, tmp_path):
        spill = tmp_path / "spill"
        with PartTableSink(spill) as sink:
            sink.write(meals_table)
        with pytest.raises(StoreError):
            PartTableSink(spill)


class TestSpoolingSink:
    def test_rechunks_to_fixed_size(self, meals_table, tmp_path):
        inner = MemorySink()
        with SpoolingSink(inner, chunk_rows=4) as sink:
            sink.write(meals_table.take([0, 1]))
            sink.write(meals_table.take([2]))
            sink.write(meals_table.take([3, 4, 5]))
        assert [chunk.num_rows for chunk in inner.chunks] == [4, 2]
        assert inner.table() == meals_table

    def test_abort_propagates(self, meals_table, tmp_path):
        target = tmp_path / "t.csv"
        sink = SpoolingSink(CsvTableSink(target), chunk_rows=2)
        sink.write(meals_table)
        sink.abort()
        assert not target.exists()

    def test_invalid_chunk_rows(self):
        with pytest.raises(ValueError):
            SpoolingSink(MemorySink(), chunk_rows=0)


# ---------------------------------------------------------------------------
# whole-database streaming
# ---------------------------------------------------------------------------

class TestDatabaseStreaming:
    def test_iter_equals_sample_database_in_ram(self, multitable_fitted):
        reference = multitable_fitted.sample_database(seed=5)
        streamed = dict(multitable_fitted.iter_sample_database(seed=5))
        assert streamed == reference

    def test_iter_equals_sample_database_spilled(self, multitable_fitted, tmp_path):
        """Spilling each completed table to NPZ parts (FK keys re-read via
        mmap) changes nothing about the sampled database."""
        reference = multitable_fitted.sample_database(seed=5)
        streamed = dict(multitable_fitted.iter_sample_database(
            seed=5, spool=tmp_path / "spool"))
        assert streamed == reference
        for name in reference:
            assert (tmp_path / "spool" / name / "manifest.json").exists()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_database_identical_across_serving_shards(self, multitable_fitted,
                                                      multitable_bundle, shards):
        reference = multitable_fitted.sample_database(seed=8)
        service = SynthesisService.from_bundle(multitable_bundle, ServingConfig(
            shards=shards, cache_bytes=0, executor="process"))
        try:
            assert service.sample_database(seed=8) == reference
        finally:
            service.close()


# ---------------------------------------------------------------------------
# bounded memory
# ---------------------------------------------------------------------------

class TestMemoryBounds:
    def test_streaming_peak_below_in_memory_peak(self, engine_bundle, tmp_path):
        """Chunked streaming must not materialize the table: its traced
        allocation peak stays well under the in-memory path's peak."""
        _, path = engine_bundle
        fitted, _ = load_fitted_pipeline(path)
        n, chunk_rows = 192, 4

        tracemalloc.start()
        whole = concat_rows(list(fitted.iter_sample_flat(
            n_subjects=n, seed=1, chunk_rows=chunk_rows)))
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert whole.num_rows >= n  # flat rows, >= one per subject

        tracemalloc.start()
        with CsvTableSink(tmp_path / "streamed.csv") as sink:
            sink.write_all(fitted.iter_sample_flat(
                n_subjects=n, seed=1, chunk_rows=chunk_rows))
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert stream_peak < 0.7 * full_peak, (
            "streaming peak {} not below 0.7x in-memory peak {}".format(
                stream_peak, full_peak))

    def test_process_peak_rss_reported(self):
        peak = process_peak_rss_bytes()
        assert peak is None or peak > 0


# ---------------------------------------------------------------------------
# HTTP streaming
# ---------------------------------------------------------------------------

@contextmanager
def _running_server(service, max_queue=8):
    server = SynthesisServer(service, max_queue=max_queue)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()
        loop.run_until_complete(server.stop())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server did not start"
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)


class TestHttpStreaming:
    @pytest.fixture(scope="class")
    def served_bundle(self, tiny_digix, tmp_path_factory):
        trial = tiny_digix.trials()[0]
        fitted = GReaTERPipeline(_pipeline_config("compiled")).fit(trial.ads, trial.feeds)
        path = tmp_path_factory.mktemp("bundles") / "greater-http"
        fitted.save(path)
        return path

    def test_stream_rows_equal_buffered_rows(self, served_bundle):
        service = SynthesisService.from_bundle(
            served_bundle, ServingConfig(block_size=4, cache_bytes=0))
        with _running_server(service) as server:
            host, port = server.host, server.port
            status, body = request_json(host, port, "POST", "/sample_table",
                                        {"seed": 3})
            assert status == 200
            status, lines = request_json_stream(host, port, {"seed": 3})
            assert status == 200
            summary = lines[-1]
            streamed_rows = [row for line in lines[:-1] for row in line["rows"]]
            assert streamed_rows == body["rows"]
            assert summary["done"] is True
            assert summary["rows"] == len(streamed_rows)
            assert summary["chunks"] == len(lines) - 1

            stats = service.stats()
            assert stats["streamed_requests"] == 1
            assert stats["streamed_chunks"] == summary["chunks"]
            assert stats["streamed_rows"] == summary["rows"]
            assert stats["peak_rss_bytes"] is None or stats["peak_rss_bytes"] > 0
        service.close()

    def test_stream_rejects_bad_request(self, served_bundle):
        service = SynthesisService.from_bundle(served_bundle, ServingConfig(cache_bytes=0))
        with _running_server(service) as server:
            host, port = server.host, server.port
            status, body = request_json_stream(host, port, {"n": -3})
            assert status == 400
            assert "error" in body
        service.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCliStreaming:
    def test_sample_chunk_rows_streams_identical_csv(self, engine_bundle, tmp_path,
                                                     capsys):
        _, path = engine_bundle
        out = tmp_path / "streamed.csv"
        assert main(["sample", "--bundle", str(path), "--chunk-rows", "7",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        fitted, _ = load_fitted_pipeline(path)
        whole = concat_rows(list(fitted.iter_sample_flat(chunk_rows=7)))
        reference = tmp_path / "whole.csv"
        write_csv(whole, reference)
        assert _sha256(out) == _sha256(reference)

    def test_sample_chunk_rows_requires_out(self, engine_bundle):
        _, path = engine_bundle
        with pytest.raises(SystemExit):
            main(["sample", "--bundle", str(path), "--chunk-rows", "7"])
