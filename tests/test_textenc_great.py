"""Tests for the textual encoder/decoder and the GReaT synthesizer."""

from functools import lru_cache
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.frame.column import Column
from repro.frame.table import Table
from repro.great.synthesizer import _GUIDED_STREAM, GReaTConfig, GReaTSynthesizer
from repro.llm.engine import SEED_MASK, derive_seed
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.llm.sampler import SamplerConfig
from repro.serving.service import (
    _ROWS_STREAM,
    RowRequest,
    _enhanced_conditions,
    child_synthesizer,
    sample_rows_batch,
)
from repro.store.tablefmt import table_to_arrays
from repro.textenc.corpus import CorpusBuilder
from repro.textenc.decoder import DecodeError, TextualDecoder
from repro.textenc.encoder import EncoderConfig, TextualEncoder


@pytest.fixture
def meals_table():
    return Table({
        "Name": ["Grace", "Yin", "Anson", "Maya", "Leo", "Iris"],
        "Lunch": ["Rice", "Spaghetti", "Rice", "Noodles", "Spaghetti", "Rice"],
        "Dinner": ["Steak", "Chicken", "Curry", "Steak", "Chicken", "Curry"],
        "Rating": [5, 4, 3, 5, 4, 3],
    })


class TestTextualEncoder:
    def test_encode_row_matches_fig2_format(self, toy_table):
        encoder = TextualEncoder(EncoderConfig(permute_features=False))
        sentence = encoder.encode_row(toy_table.row(0), columns=toy_table.column_names)
        assert sentence == "Name: Grace, Lunch: 1, Dinner: 2, Access Device: 1, Genre: 1"

    def test_encode_value_renders_missing_and_floats(self):
        encoder = TextualEncoder()
        assert encoder.encode_value(None) == "None"
        assert encoder.encode_value(3.0) == "3"
        assert encoder.encode_value(3.5) == "3.5"

    def test_permutation_changes_order_but_not_content(self, toy_table):
        encoder = TextualEncoder(EncoderConfig(permute_features=True, seed=1))
        sentences = [encoder.encode_row(toy_table.row(0), columns=toy_table.column_names)
                     for _ in range(10)]
        assert len(set(sentences)) > 1
        for sentence in sentences:
            for name in toy_table.column_names:
                assert name in sentence

    def test_encode_table_one_sentence_per_row(self, toy_table):
        encoder = TextualEncoder()
        assert len(encoder.encode_table(toy_table)) == toy_table.num_rows

    def test_conditional_prompt_ends_with_separator(self):
        encoder = TextualEncoder()
        prompt = encoder.conditional_prompt({"gender": "male"})
        assert prompt.endswith(", ")
        assert prompt.startswith("gender: male")


class TestTextualDecoder:
    def test_round_trip(self, toy_table):
        encoder = TextualEncoder(EncoderConfig(permute_features=False))
        decoder = TextualDecoder.for_table(toy_table)
        for row in toy_table.iter_rows():
            sentence = encoder.encode_row(row, columns=toy_table.column_names)
            assert decoder.decode_row(sentence) == row

    def test_round_trip_with_permutation(self, toy_table):
        encoder = TextualEncoder(EncoderConfig(permute_features=True, seed=3))
        decoder = TextualDecoder.for_table(toy_table)
        for row in toy_table.iter_rows():
            sentence = encoder.encode_row(row, columns=toy_table.column_names)
            assert decoder.decode_row(sentence) == row

    def test_missing_column_rejected(self, toy_table):
        decoder = TextualDecoder.for_table(toy_table)
        with pytest.raises(DecodeError):
            decoder.decode_row("Name: Grace, Lunch: 1")

    def test_missing_column_allowed_when_not_required(self, toy_table):
        decoder = TextualDecoder.for_table(toy_table)
        row = decoder.decode_row("Name: Grace, Lunch: 1", require_all=False)
        assert row["Dinner"] is None

    def test_type_coercion_failure_rejected(self, toy_table):
        decoder = TextualDecoder.for_table(toy_table)
        with pytest.raises(DecodeError):
            decoder.decode_row(
                "Name: Grace, Lunch: banana, Dinner: 2, Access Device: 1, Genre: 1"
            )

    def test_is_valid(self, toy_table):
        decoder = TextualDecoder.for_table(toy_table)
        assert decoder.is_valid("Name: Grace, Lunch: 1, Dinner: 2, Access Device: 1, Genre: 1")
        assert not decoder.is_valid("complete nonsense")

    def test_decode_table_skips_invalid(self, toy_table):
        decoder = TextualDecoder.for_table(toy_table)
        sentences = [
            "Name: Grace, Lunch: 1, Dinner: 2, Access Device: 1, Genre: 1",
            "garbage",
        ]
        assert decoder.decode_table(sentences).num_rows == 1

    def test_none_token_becomes_missing(self, toy_table):
        decoder = TextualDecoder.for_table(toy_table)
        row = decoder.decode_row("Name: None, Lunch: 1, Dinner: 2, Access Device: 1, Genre: 1")
        assert row["Name"] is None

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            TextualDecoder([])


class TestCorpusBuilder:
    def test_corpus_size_scales_with_passes(self, meals_table):
        corpus, _ = CorpusBuilder(permutation_passes=3).build(meals_table)
        assert len(corpus) == 3 * meals_table.num_rows

    def test_decoder_matches_table_schema(self, meals_table):
        _, decoder = CorpusBuilder().build(meals_table)
        assert decoder.columns == meals_table.column_names

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            CorpusBuilder().build(Table())


def _fast_config(strategy="guided", seed=0):
    return GReaTConfig(
        fine_tune=FineTuneConfig(epochs=2, batches=2, model=ModelConfig(order=4)),
        sampling_strategy=strategy,
        seed=seed,
    )


class TestGReaTSynthesizer:
    def test_fit_then_sample_schema(self, meals_table):
        synth = GReaTSynthesizer(_fast_config()).fit(meals_table)
        sample = synth.sample(8, seed=1)
        assert sample.column_names == meals_table.column_names
        assert sample.num_rows == 8

    def test_guided_samples_only_observed_values(self, meals_table):
        synth = GReaTSynthesizer(_fast_config()).fit(meals_table)
        sample = synth.sample(20, seed=2)
        for name in meals_table.column_names:
            observed = set(meals_table.column(name).unique())
            assert set(sample.column(name).unique()) <= observed

    def test_sampling_is_reproducible(self, meals_table):
        synth = GReaTSynthesizer(_fast_config()).fit(meals_table)
        assert synth.sample(5, seed=3) == synth.sample(5, seed=3)

    def test_different_seeds_differ(self, meals_table):
        synth = GReaTSynthesizer(_fast_config()).fit(meals_table)
        assert synth.sample(10, seed=1) != synth.sample(10, seed=2)

    def test_conditional_sampling_respects_prompt(self, meals_table):
        synth = GReaTSynthesizer(_fast_config()).fit(meals_table)
        prompts = [{"Name": "Grace"}, {"Name": "Yin"}]
        sample = synth.sample_conditional(prompts, seed=4)
        assert sample.column("Name").values == ["Grace", "Yin"]

    def test_free_strategy_produces_valid_rows(self, meals_table):
        synth = GReaTSynthesizer(_fast_config(strategy="free")).fit(meals_table)
        sample = synth.sample(5, seed=5)
        assert sample.num_rows == 5
        assert sample.column_names == meals_table.column_names

    def test_requires_fit_before_sampling(self):
        with pytest.raises(RuntimeError):
            GReaTSynthesizer(_fast_config()).sample(1)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            GReaTSynthesizer(_fast_config()).fit(Table())

    def test_invalid_sample_size(self, meals_table):
        synth = GReaTSynthesizer(_fast_config()).fit(meals_table)
        with pytest.raises(ValueError):
            synth.sample(0)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            GReaTConfig(sampling_strategy="beam")

    def test_perplexity_trace_recorded(self, meals_table):
        synth = GReaTSynthesizer(_fast_config()).fit(meals_table)
        assert len(synth.perplexity_trace) >= 1
        assert all(value > 0 for value in synth.perplexity_trace)

    def test_marginal_distribution_roughly_preserved(self, meals_table):
        """The synthesizer should reproduce a dominant category's prevalence."""
        synth = GReaTSynthesizer(_fast_config()).fit(meals_table)
        sample = synth.sample(60, seed=6)
        rice_share = sample.column("Lunch").values.count("Rice") / 60
        assert 0.15 <= rice_share <= 0.85


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(["Rice", "Pasta", "Curry"]), min_size=2, max_size=8),
       st.lists(st.integers(1, 3), min_size=2, max_size=8))
def test_encoder_decoder_round_trip_property(lunches, genres):
    """Property: encode→decode is the identity for any table with str and int columns."""
    n = min(len(lunches), len(genres))
    table = Table({"Lunch": lunches[:n], "Genre": genres[:n]})
    encoder = TextualEncoder(EncoderConfig(permute_features=False))
    decoder = TextualDecoder.for_table(table)
    for row in table.iter_rows():
        assert decoder.decode_row(encoder.encode_row(row, columns=table.column_names)) == row


# -- guided sessions: draw chunks as groups of one session ------------------------------

_GUIDED_TABLE = {
    "Name": ["Grace", "Yin", "Anson", "Maya", "Leo", "Iris"],
    "Lunch": ["Rice", "Spaghetti", "Rice", "Noodles", "Spaghetti", "Rice"],
    "Kind": ["meal"] * 6,  # a single candidate: never drawn
    "Dinner": ["Steak", "Chicken", "Curry", "Steak", "Chicken", "Curry"],
    "Rating": [5, 4, 3, 5, 4, 3],
}


@lru_cache(maxsize=None)
def _guided_synth(engine: str, batch_lanes: int) -> GReaTSynthesizer:
    config = GReaTConfig(
        fine_tune=FineTuneConfig(epochs=2, batches=2, model=ModelConfig(order=4)),
        sampler=SamplerConfig(engine=engine, batch_lanes=batch_lanes))
    return GReaTSynthesizer(config).fit(Table(_GUIDED_TABLE))


def _value_walk(synth, session, prompts, walk):
    """Reference column walk: one value list per column, drawn lanes taking
    their candidate's value and fixed lanes their prompt's (the walk before
    columns were built from codes)."""
    columns = []
    for name, lanes, drawing in walk:
        session.extend_shared(synth._structure_token_ids[name])
        candidates = synth._candidate_token_ids[name]
        if drawing:
            picks = session.choose(candidates, groups=drawing)
        else:
            picks = np.zeros(len(prompts), dtype=np.int64)
        tokens = candidates.tokens[picks]
        counts = candidates.lengths[picks]
        column = synth._column_candidates[name][picks].tolist()
        if lanes:
            values = [prompts[lane][name] for lane in lanes]
            rows = [synth._encode_value_tokens(value) for value in values]
            sizes = [len(row) for row in rows]
            if max(sizes) > tokens.shape[1]:
                tokens = np.pad(tokens, ((0, 0), (0, max(sizes) - tokens.shape[1])))
            stride = tokens.shape[1]
            np.put(tokens, [lane * stride + slot for lane, size in zip(lanes, sizes)
                            for slot in range(size)], list(chain.from_iterable(rows)))
            counts[lanes] = sizes
            for lane, value in zip(lanes, values):
                column[lane] = value
        session.extend_rows(tokens, counts)
        session.extend_shared(synth._separator_ids)
        columns.append(column)
    return columns


def _per_chunk_sessions(synth, prompts, seed, max_lanes):
    """Reference: one session per draw chunk, chunks drawing from the stream
    one after another, and the table built from value lists (the guided
    table sampling before chunks shared a session and before columns were
    built from codes)."""
    rng = np.random.default_rng([_GUIDED_STREAM, seed & SEED_MASK])
    batch = max(1, synth.config.sampler.batch_lanes)
    if max_lanes is not None:
        batch = max(1, min(batch, int(max_lanes)))
    names = synth.training_columns
    data = {name: [] for name in names}
    for start in range(0, len(prompts), batch):
        chunk = prompts[start:start + batch]
        session = synth.engine.guided_session(len(chunk), rng=rng)
        walk = synth._column_walk(chunk, [(slice(0, len(chunk)), rng)])
        for name, values in zip(names, _value_walk(synth, session, chunk, walk)):
            data[name].extend(values)
    return Table(data)


def assert_same_storage(table, reference):
    """Equal ``table_to_arrays`` entries: names, dtypes and bytes."""
    arrays, expected = table_to_arrays(table), table_to_arrays(reference)
    assert sorted(arrays) == sorted(expected)
    for key, array in arrays.items():
        assert array.dtype == expected[key].dtype, key
        assert array.tobytes() == expected[key].tobytes(), key


@st.composite
def _guided_cases(draw):
    """Prompts, a lane cap and a seed.

    Lanes fix any mix of columns (seen and unseen values, the
    single-candidate column too); one chunk may fix ``Lunch`` on every
    lane and every lane may fix ``Dinner``.  Fixed values include ones
    equal to a candidate but of another type (``5.0``, a NumPy string),
    ``1``, ``1.0`` and ``True`` (equal, yet distinct values) and ``None``.
    """
    batch_lanes = draw(st.sampled_from([4, 5, 7]))
    max_lanes = draw(st.one_of(st.none(), st.integers(1, batch_lanes + 2)))
    n = draw(st.integers(1, 3 * batch_lanes + 2))
    values = {"Lunch": ["Rice", "Noodles", "Pizza", np.str_("Rice")],
              "Kind": ["meal", "snack", None], "Dinner": ["Curry", "Soup"],
              "Rating": [5, 3, 7, 1, 1.0, True, 5.0, None]}
    prompts = [dict(draw(st.dictionaries(st.sampled_from(sorted(values)),
                                         st.integers(0, 7), max_size=3)))
               for _ in range(n)]
    prompts = [{name: values[name][pick % len(values[name])] for name, pick in prompt.items()}
               for prompt in prompts]
    chunk = batch_lanes if max_lanes is None else min(batch_lanes, max_lanes)
    fixed_chunk = draw(st.one_of(st.none(), st.integers(0, (n - 1) // chunk)))
    if fixed_chunk is not None:
        for prompt in prompts[fixed_chunk * chunk:(fixed_chunk + 1) * chunk]:
            prompt["Lunch"] = "Noodles"
    if draw(st.booleans()):
        for prompt in prompts:
            prompt["Dinner"] = "Steak"
    return batch_lanes, prompts, max_lanes, draw(st.integers(0, 2**32))


class TestGuidedSessions:
    @pytest.mark.parametrize("engine", ["object", "compiled"])
    @settings(max_examples=60, deadline=None)
    @given(case=_guided_cases())
    def test_matches_one_session_per_chunk(self, engine, case):
        batch_lanes, prompts, max_lanes, seed = case
        synth = _guided_synth(engine, batch_lanes)
        sampled = synth.sample_conditional(prompts, seed=seed, max_lanes=max_lanes)
        assert_same_storage(sampled, _per_chunk_sessions(synth, prompts, seed, max_lanes))

    def test_trace_shows_sessions_and_draw_groups(self):
        synth = _guided_synth("compiled", 5)
        sink = obs.configure_buffered()
        try:
            synth.sample(12, seed=1, max_lanes=2)
        finally:
            obs.disable()
        span, = [record for record in sink.drain() if record["name"] == "stage.sample"]
        # chunks of 2 in windows of 4 lanes: 3 sessions, 6 draw groups
        assert span["attrs"]["sessions"] == 3
        assert span["attrs"]["draw_groups"] == 6


# -- codes to columns: served row batches against the value-list build --------------

@lru_cache(maxsize=None)
def _fitted_greater(engine: str):
    from repro.connecting.connector import ConnectorConfig
    from repro.datasets.digix import DigixConfig, generate_digix_like
    from repro.enhancement.enhancer import EnhancerConfig
    from repro.pipelines.config import PipelineConfig
    from repro.pipelines.greater import GReaTERPipeline

    trial = generate_digix_like(DigixConfig(
        n_tasks=2, n_users_per_task=6, ads_rows_per_user=(2, 3),
        feeds_rows_per_user=(2, 3), seed=11)).trials()[0]
    config = PipelineConfig(
        seed=0, drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="understandability", seed=0),
        connector=ConnectorConfig(independence_method="threshold_mean",
                                  remove_noisy_columns=False),
        generation_engine=engine, training_engine=engine)
    return GReaTERPipeline(config).fit(trial.ads, trial.feeds)


def _value_map(column, func):
    """``Column.map`` by value: *func* on every row, dtype inferred again."""
    return Column(column.name, [func(v) for v in column])


def _value_rows_batch(fitted, requests):
    """Reference ``sample_rows_batch``: per-request tables from the value
    lists of :func:`_value_walk`, inverse-mapped value by value."""
    synth = child_synthesizer(fitted)
    bounds = np.cumsum([0] + [request.n for request in requests]).tolist()
    slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    groups = [(lanes, np.random.default_rng([_ROWS_STREAM, derive_seed(request.seed)]))
              for lanes, request in zip(slices, requests)]
    prompts = []
    for request in requests:
        prompts.extend([_enhanced_conditions(fitted, request)] * request.n)
    session = synth.engine.guided_session(len(prompts), seed=0)
    columns = _value_walk(synth, session, prompts, synth._column_walk(prompts, groups))
    tables = []
    with mock.patch.object(Column, "map", _value_map):
        for lanes in slices:
            table = fitted.enhancer.inverse_transform(Table(
                {name: values[lanes] for name, values in zip(synth.training_columns, columns)}))
            if fitted.subject_column in table.column_names:
                table = table.drop(fitted.subject_column)
            tables.append(table)
    return tables


#: conditions on values that are labels, unknown (``7``) and equal to a
#: label's code but of another type (``1.0``, ``True``)
_ROW_BATCHES = [
    [RowRequest(n=3, seed=5), RowRequest(n=4, conditions=(("gender", 1),), seed=6)],
    [RowRequest(n=2, conditions=(("gender", 7),), seed=5),
     RowRequest(n=5, conditions=(("age", 4), ("gender", 1.0)), seed=6),
     RowRequest(n=3, conditions=(("gender", True),), seed=8),
     RowRequest(n=6, seed=9)],
]


class TestCodesToColumns:
    @pytest.mark.parametrize("engine", ["object", "compiled"])
    @pytest.mark.parametrize("batch", range(len(_ROW_BATCHES)))
    def test_rows_batch_matches_value_build(self, engine, batch):
        fitted = _fitted_greater(engine)
        requests = _ROW_BATCHES[batch]
        tables = sample_rows_batch(fitted, requests)
        expected = _value_rows_batch(fitted, requests)
        assert [table.num_rows for table in tables] == [request.n for request in requests]
        for table, reference in zip(tables, expected):
            assert table.dtypes() == reference.dtypes()
            assert_same_storage(table, reference)
