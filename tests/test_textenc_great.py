"""Tests for the textual encoder/decoder and the GReaT synthesizer."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.frame.table import Table
from repro.great.synthesizer import _GUIDED_STREAM, GReaTConfig, GReaTSynthesizer
from repro.llm.engine import SEED_MASK
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.llm.sampler import SamplerConfig
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


def _per_chunk_sessions(synth, prompts, seed, max_lanes):
    """Reference: one session per draw chunk, chunks drawing from the stream
    one after another (the guided table sampling before chunks shared a
    session)."""
    rng = np.random.default_rng([_GUIDED_STREAM, seed & SEED_MASK])
    batch = max(1, synth.config.sampler.batch_lanes)
    if max_lanes is not None:
        batch = max(1, min(batch, int(max_lanes)))
    names = synth.training_columns
    data = {name: [] for name in names}
    for start in range(0, len(prompts), batch):
        chunk = prompts[start:start + batch]
        session = synth.engine.guided_session(len(chunk), rng=rng)
        columns = synth.sample_guided_columns(session, chunk, [(slice(0, len(chunk)), rng)])
        for name, values in zip(names, columns):
            data[name].extend(values)
    return Table(data)


@st.composite
def _guided_cases(draw):
    """Prompts, a lane cap and a seed.

    Lanes fix any mix of columns (seen and unseen values, the
    single-candidate column too); one chunk may fix ``Lunch`` on every
    lane and every lane may fix ``Dinner``.
    """
    batch_lanes = draw(st.sampled_from([4, 5, 7]))
    max_lanes = draw(st.one_of(st.none(), st.integers(1, batch_lanes + 2)))
    n = draw(st.integers(1, 3 * batch_lanes + 2))
    values = {"Lunch": ["Rice", "Noodles", "Pizza"], "Kind": ["meal", "snack"],
              "Dinner": ["Curry", "Soup"], "Rating": [5, 3, 7]}
    prompts = [dict(draw(st.dictionaries(st.sampled_from(sorted(values)),
                                         st.integers(0, 2), max_size=3)))
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
        expected = _per_chunk_sessions(synth, prompts, seed, max_lanes)
        arrays, reference = table_to_arrays(sampled), table_to_arrays(expected)
        assert sorted(arrays) == sorted(reference)
        for key, array in arrays.items():
            assert array.dtype == reference[key].dtype, key
            assert array.tobytes() == reference[key].tobytes(), key

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
