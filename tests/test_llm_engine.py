"""Equivalence and behaviour tests for the batched generation engine.

The object and compiled backbones must produce *identical* outputs for
identical seeds — bit-identical mass matrices in, one shared RNG protocol
out.  These tests pin that contract across temperatures, top-k values,
prompts, the validity-retry path, and the guided synthesizer stack.
Guided candidate scoring (distinct contexts, one window program per
column, the score memo) is checked bit for bit against a per-candidate
reference loop.
"""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.compiled import CompiledNGramModel
from repro.llm import engine as engine_module
from repro.llm.engine import (
    BatchGenerationEngine,
    CandidateSet,
    ObjectBackbone,
    resolve_engine_kind,
)
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig, NGramLanguageModel
from repro.llm.sampler import SamplerConfig, TemperatureSampler
from repro.llm.tokenizer import WordTokenizer

CORPUS = [
    "Name: Grace, Lunch: Rice, Dinner: Steak",
    "Name: Yin, Lunch: Spaghetti, Dinner: Chicken",
    "Name: Anson, Lunch: Fried Rice, Dinner: Curry",
    "Name: Grace, Lunch: Rice, Dinner: Steak",
    "Name: Yin, Lunch: Spaghetti, Dinner: Steak",
    "Name: Maya, Lunch: Noodles, Dinner: Curry",
]


@pytest.fixture(scope="module")
def trained_model():
    tokenizer = WordTokenizer().fit(CORPUS)
    model = NGramLanguageModel(tokenizer, ModelConfig(order=4, smoothing=0.01))
    model.fit(CORPUS)
    return model


def _engines(model, **config_kwargs):
    object_engine = BatchGenerationEngine(
        model, SamplerConfig(engine="object", **config_kwargs))
    compiled_engine = BatchGenerationEngine(
        model, SamplerConfig(engine="compiled", **config_kwargs))
    return object_engine, compiled_engine


class TestBackboneMasses:
    def test_dense_masses_bitwise_identical(self, trained_model):
        compiled = CompiledNGramModel(trained_model)
        legacy = ObjectBackbone(trained_model)
        rng = np.random.default_rng(0)
        width = trained_model.config.order - 1
        vocab_size = len(trained_model.tokenizer.vocabulary)
        contexts = rng.integers(0, vocab_size, size=(40, width)).astype(np.int64)
        lengths = rng.integers(0, width + 1, size=40).astype(np.int64)
        assert np.array_equal(legacy.dense_masses(contexts, lengths),
                              compiled.dense_masses(contexts, lengths))

    def test_token_masses_bitwise_identical(self, trained_model):
        compiled = CompiledNGramModel(trained_model)
        legacy = ObjectBackbone(trained_model)
        rng = np.random.default_rng(1)
        width = trained_model.config.order - 1
        vocab_size = len(trained_model.tokenizer.vocabulary)
        contexts = rng.integers(0, vocab_size, size=(25, width)).astype(np.int64)
        lengths = rng.integers(0, width + 1, size=25).astype(np.int64)
        for token_id in range(vocab_size):
            assert np.array_equal(legacy.token_masses(contexts, lengths, token_id),
                                  compiled.token_masses(contexts, lengths, token_id))

    def test_dense_masses_match_model_distribution(self, trained_model):
        """Masses renormalise to the model's public next-token distribution."""
        compiled = CompiledNGramModel(trained_model)
        vocabulary = trained_model.tokenizer.vocabulary
        context = [vocabulary.encode_token("Lunch"), vocabulary.encode_token(":")]
        width = trained_model.config.order - 1
        contexts = np.zeros((1, width), dtype=np.int64)
        contexts[0, width - len(context):] = context
        lengths = np.array([len(context)], dtype=np.int64)
        masses = compiled.dense_masses(contexts, lengths)[0]
        expected = trained_model.next_token_distribution(context)
        normalised = masses / masses.sum()
        for token_id, probability in expected.items():
            assert normalised[token_id] == pytest.approx(probability, rel=1e-9)


class TestFreeGenerationEquivalence:
    @pytest.mark.parametrize("temperature", [0.0, 0.4, 1.0, 1.7])
    @pytest.mark.parametrize("top_k", [None, 3, 12])
    def test_identical_sentences(self, trained_model, temperature, top_k):
        object_engine, compiled_engine = _engines(
            trained_model, temperature=temperature, top_k=top_k, max_tokens=48)
        assert object_engine.generate_sentences(16, seed=5) == \
            compiled_engine.generate_sentences(16, seed=5)

    def test_identical_with_prompts(self, trained_model):
        tokenizer = trained_model.tokenizer
        prompt = tokenizer.encode("Name :", add_bos=False, add_eos=False)
        prompts = [prompt] * 10
        object_engine, compiled_engine = _engines(trained_model, max_tokens=40)
        object_out = object_engine.generate_sentences(10, prompts=prompts, seed=9)
        compiled_out = compiled_engine.generate_sentences(10, prompts=prompts, seed=9)
        assert object_out == compiled_out
        assert all(sentence.startswith("Name") for sentence in object_out)

    def test_identical_validity_retry(self, trained_model):
        object_engine, compiled_engine = _engines(trained_model, max_retries=3)
        predicate = lambda sentence: "Lunch" in sentence  # noqa: E731
        object_out = object_engine.generate_valid(12, predicate, seed=3)
        compiled_out = compiled_engine.generate_valid(12, predicate, seed=3)
        assert object_out == compiled_out
        assert all(v is None or "Lunch" in v for v in object_out)

    def test_chunked_batches_match_single_batch(self, trained_model):
        """Lane chunking must not change the draw sequence."""
        wide = BatchGenerationEngine(
            trained_model, SamplerConfig(engine="compiled", batch_lanes=512))
        narrow = BatchGenerationEngine(
            trained_model, SamplerConfig(engine="object", batch_lanes=512))
        assert wide.generate_sentences(30, seed=2) == narrow.generate_sentences(30, seed=2)

    def test_max_tokens_bounds_sequences(self, trained_model):
        engine = BatchGenerationEngine(
            trained_model, SamplerConfig(engine="compiled", max_tokens=5, top_k=None))
        for ids in engine.generate_ids_batch(8, seed=0):
            assert len(ids) <= 5

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), temperature=st.floats(0.05, 2.5),
           top_k=st.one_of(st.none(), st.integers(1, 20)))
    def test_equivalence_property(self, trained_model, seed, temperature, top_k):
        object_engine, compiled_engine = _engines(
            trained_model, temperature=temperature, top_k=top_k, max_tokens=32)
        assert object_engine.generate_sentences(6, seed=seed) == \
            compiled_engine.generate_sentences(6, seed=seed)


def _reference_scores(engine, contexts, lengths, token_lists):
    """Candidate log scores by the per-candidate loop (the oracle).

    Every multi-token candidate advances its own copy of the lane contexts
    one token at a time, and each position's target masses come from one
    stacked ``token_masses`` call, added to the scores in position order.
    """
    backbone = engine._backbone
    dense = backbone.dense_masses(contexts, lengths)
    first = np.array([tokens[0] for tokens in token_lists], dtype=np.int64)
    scores = np.log(np.maximum(dense[:, first], 1e-12))
    max_len = max(len(tokens) for tokens in token_lists)
    n_lanes, width = contexts.shape
    multi = [c for c, tokens in enumerate(token_lists) if len(tokens) > 1]
    simulated = {c: (contexts.copy(), lengths.copy()) for c in multi}
    for position in range(1, max_len):
        live = [c for c in multi if len(token_lists[c]) > position]
        for c in live:
            sim_contexts, sim_lengths = simulated[c]
            if width:
                sim_contexts[:, :-1] = sim_contexts[:, 1:]
                sim_contexts[:, -1] = token_lists[c][position - 1]
                np.minimum(sim_lengths + 1, width, out=sim_lengths)
        masses = backbone.token_masses(
            np.concatenate([simulated[c][0] for c in live]),
            np.concatenate([simulated[c][1] for c in live]),
            np.concatenate([np.full(n_lanes, token_lists[c][position], dtype=np.int64)
                            for c in live]))
        log_masses = np.log(np.maximum(masses, 1e-12))
        for slot, c in enumerate(live):
            scores[:, c] += log_masses[slot * n_lanes:(slot + 1) * n_lanes]
    return scores


@functools.cache
def _scoring_engine(kind, order):
    tokenizer = WordTokenizer().fit(CORPUS)
    model = NGramLanguageModel(tokenizer, ModelConfig(order=order, smoothing=0.01))
    model.fit(CORPUS)
    return BatchGenerationEngine(model, SamplerConfig(engine=kind))


@st.composite
def _scoring_cases(draw):
    """Lanes drawn from a few distinct contexts (garbage allowed left of the
    valid tail, lengths from 0 to the width) and a candidate list."""
    kind = draw(st.sampled_from(["object", "compiled"]))
    order = draw(st.sampled_from([1, 2, 4, 6]))
    engine = _scoring_engine(kind, order)
    width = order - 1
    vocab_size = len(engine.tokenizer.vocabulary)
    token = st.integers(0, vocab_size - 1)
    pool = draw(st.lists(st.tuples(st.lists(token, min_size=width, max_size=width),
                                   st.integers(0, width)), min_size=1, max_size=5))
    lanes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    contexts = np.array([row for row, _ in lanes], dtype=np.int64).reshape(len(lanes), width)
    lengths = np.array([length for _, length in lanes], dtype=np.int64)
    max_tokens = draw(st.sampled_from([1, 6]))
    token_lists = draw(st.lists(st.lists(token, min_size=1, max_size=max_tokens),
                                min_size=1, max_size=8))
    return engine, contexts, lengths, token_lists


class TestGuidedScoring:
    @given(case=_scoring_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_candidate_loop_cold_and_warm(self, case):
        engine, contexts, lengths, token_lists = case
        expected = _reference_scores(engine, contexts, lengths, token_lists)
        candidates = CandidateSet(token_lists)
        cold = engine._score_candidates(contexts, lengths, candidates)
        assert cold.dtype == np.float64 and expected.dtype == np.float64
        assert np.array_equal(cold, expected)
        assert len(candidates.memo) == len(np.unique(
            np.concatenate([contexts, lengths[:, None]], axis=1), axis=0))
        warm = engine._score_candidates(contexts, lengths, candidates)
        assert np.array_equal(warm, expected)
        # half warm: the memo answers some lanes, the rest are scored afresh
        half = CandidateSet(token_lists)
        engine._score_candidates(contexts[::2], lengths[::2], half)
        assert np.array_equal(engine._score_candidates(contexts, lengths, half), expected)

    def test_backbones_agree_on_multi_token_candidates(self):
        token_lists = [[3, 4, 5, 6, 7, 8, 9], [3], [10, 2], [3, 4, 11], [12] * 5]
        rng = np.random.default_rng(2)
        contexts = rng.integers(0, 14, size=(30, 3)).astype(np.int64)
        lengths = rng.integers(0, 4, size=30).astype(np.int64)
        scores = [_scoring_engine(kind, 4)._score_candidates(
            contexts, lengths, CandidateSet(token_lists)) for kind in ("object", "compiled")]
        assert np.array_equal(*scores)

    def test_memo_past_its_bound_stays_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_MEMO_MAX_FLOATS", 3 * 7)
        engine = _scoring_engine("compiled", 4)
        token_lists = [[3, 4, 5], [6], [7, 8], [9, 10, 11, 12], [13], [2, 3], [4, 4]]
        candidates = CandidateSet(token_lists)
        assert candidates.memo_capacity == 3
        rng = np.random.default_rng(5)
        for _ in range(4):
            contexts = rng.integers(0, 14, size=(20, 3)).astype(np.int64)
            lengths = rng.integers(0, 4, size=20).astype(np.int64)
            expected = _reference_scores(engine, contexts, lengths, token_lists)
            for _ in range(2):
                assert np.array_equal(
                    engine._score_candidates(contexts, lengths, candidates), expected)
                assert len(candidates.memo) == 3

    def test_shared_memo_under_concurrent_threads(self, monkeypatch):
        """More threads than cores share one set: every result stays exact,
        the memo stays near its bound and no counter update is lost."""
        monkeypatch.setattr(engine_module, "_MEMO_MAX_FLOATS", 40 * 3)
        engine = _scoring_engine("compiled", 4)
        token_lists = [[3, 4, 5], [6], [7, 8, 9, 10]]
        candidates = CandidateSet(token_lists)
        rng = np.random.default_rng(9)
        batches = [(rng.integers(0, 6, size=(16, 3)).astype(np.int64),
                    rng.integers(0, 4, size=16).astype(np.int64)) for _ in range(8)]
        expected = [_reference_scores(engine, contexts, lengths, token_lists)
                    for contexts, lengths in batches]
        growth = engine_module.SCORING.deltas()
        failures = []

        def work(offset):
            for call in range(30):
                index = (offset + call) % len(batches)
                scores = engine._score_candidates(*batches[index], candidates)
                if not np.array_equal(scores, expected[index]):
                    failures.append(index)

        n_threads = 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,))
                       for offset in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(candidates.memo) <= candidates.memo_capacity + n_threads - 1
        assert growth()["lanes"] == n_threads * 30 * 16

    def test_memo_rows_are_read_only_and_results_fresh(self):
        engine = _scoring_engine("compiled", 4)
        candidates = CandidateSet([[3, 4], [5]])
        contexts = np.zeros((4, 3), dtype=np.int64)
        lengths = np.ones(4, dtype=np.int64)
        first = engine._score_candidates(contexts, lengths, candidates)
        first += 1.0  # a caller may scribble on its result
        second = engine._score_candidates(contexts, lengths, candidates)
        assert np.array_equal(first - 1.0, second)
        assert all(not row.flags.writeable for row in candidates.memo.values())

    def test_candidate_set_is_a_sequence_of_token_lists(self):
        token_lists = [[3, 4, 5], [6], [7, 8]]
        candidates = CandidateSet(token_lists)
        assert len(candidates) == 3
        assert list(candidates) == token_lists
        assert candidates[2] == [7, 8]
        assert sum(len(tokens) for tokens in candidates) == 6
        assert candidates.pair_position.tolist() == [1, 1, 2]
        assert candidates.pair_candidate.tolist() == [0, 2, 0]

    @pytest.mark.parametrize("token_lists", [[], [[3], []]])
    def test_bad_candidates_rejected(self, token_lists):
        with pytest.raises(ValueError):
            CandidateSet(token_lists)
        session = _scoring_engine("compiled", 4).guided_session(2, seed=0)
        with pytest.raises(ValueError):
            session.choose(token_lists)


def _reference_extend(contexts, lengths, token_lists, width):
    """Per-lane shift: push each lane's tokens into its window one at a time."""
    contexts, lengths = contexts.copy(), lengths.copy()
    for lane, tokens in enumerate(token_lists):
        for token in tokens:
            if width == 0:
                continue
            contexts[lane, :-1] = contexts[lane, 1:].copy()
            contexts[lane, -1] = token
            lengths[lane] = min(lengths[lane] + 1, width)
    return contexts, lengths


@st.composite
def _extend_cases(draw):
    """A session of width 0-6 whose lanes sit at different fill levels (any
    tokens left of the valid tail), and 1-3 calls of per-lane token lists of
    0 to width + 3 tokens, padded with garbage past each lane's count."""
    width = draw(st.integers(0, 6))
    n_lanes = draw(st.integers(1, 8))
    token = st.integers(0, 40)
    contexts = np.array(draw(st.lists(st.lists(token, min_size=width, max_size=width),
                                      min_size=n_lanes, max_size=n_lanes)),
                        dtype=np.int64).reshape(n_lanes, width)
    lengths = np.array(draw(st.lists(st.integers(0, width), min_size=n_lanes,
                                     max_size=n_lanes)), dtype=np.int64)
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        token_lists = draw(st.lists(st.lists(token, max_size=width + 3),
                                    min_size=n_lanes, max_size=n_lanes))
        padded = max(map(len, token_lists)) + draw(st.integers(0, 2))
        matrix = np.array(draw(st.lists(st.lists(token, min_size=padded, max_size=padded),
                                        min_size=n_lanes, max_size=n_lanes)),
                          dtype=np.int64).reshape(n_lanes, padded)
        for lane, tokens in enumerate(token_lists):
            matrix[lane, :len(tokens)] = tokens
        calls.append((token_lists, matrix))
    return width, contexts, lengths, calls


class TestExtendRows:
    @given(case=_extend_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_lane_shift(self, case):
        width, contexts, lengths, calls = case
        session = _scoring_engine("compiled", width + 1).guided_session(len(lengths), seed=0)
        session.contexts, session.lengths = contexts.copy(), lengths.copy()
        for token_lists, matrix in calls:
            contexts, lengths = _reference_extend(contexts, lengths, token_lists, width)
            session.extend_rows(matrix, np.array([len(t) for t in token_lists]))
            assert np.array_equal(session.contexts, contexts)
            assert np.array_equal(session.lengths, lengths)

    @pytest.mark.parametrize("tokens, counts", [
        (np.zeros((3, 2)), [1, 1]),      # one count short
        (np.zeros(3), [1, 1, 1]),        # not a matrix
        (np.zeros((2, 2)), [1, 1]),      # one lane short
    ])
    def test_bad_shapes_rejected(self, tokens, counts):
        session = _scoring_engine("compiled", 4).guided_session(3, seed=0)
        with pytest.raises(ValueError):
            session.extend_rows(tokens, np.array(counts))


class TestChooseGroups:
    def test_groups_draw_their_own_lanes_from_their_own_rng(self):
        engine = _scoring_engine("compiled", 4)
        candidates = CandidateSet([[3, 4], [5], [6, 7, 8]])
        session = engine.guided_session(6, seed=0)
        session.extend_rows(np.array([[3], [5], [6], [3], [5], [6]]), np.ones(6, dtype=np.int64))
        scores = engine._score_candidates(session.contexts, session.lengths, candidates)
        picks = session.choose(candidates, groups=[(slice(0, 2), np.random.default_rng(1)),
                                                   (slice(3, 6), np.random.default_rng(2))])
        temperature = engine.config.temperature
        assert picks[:2].tolist() == engine_module._choose_indices(
            scores[:2], np.random.default_rng(1), temperature).tolist()
        assert picks[2] == 0  # no group covers lane 2
        assert picks[3:].tolist() == engine_module._choose_indices(
            scores[3:], np.random.default_rng(2), temperature).tolist()

    def test_default_group_is_every_lane_on_the_session_rng(self):
        engine = _scoring_engine("compiled", 4)
        candidates = CandidateSet([[3, 4], [5], [6, 7, 8]])
        default = engine.guided_session(5, seed=9)
        explicit = engine.guided_session(5, rng=np.random.default_rng(9))
        assert np.array_equal(default.choose(candidates), explicit.choose(
            candidates, groups=[(slice(0, 5), explicit._rng)]))


def _great_config(engine, strategy="guided", temperature=0.85, seed=0):
    return GReaTConfig(
        fine_tune=FineTuneConfig(epochs=2, batches=2, model=ModelConfig(order=4)),
        sampler=SamplerConfig(temperature=temperature, top_k=12, seed=seed, engine=engine),
        sampling_strategy=strategy,
        seed=seed,
    )


@pytest.fixture(scope="module")
def meals_table():
    return Table({
        "Name": ["Grace", "Yin", "Anson", "Maya", "Leo", "Iris"],
        "Lunch": ["Rice", "Spaghetti", "Fried Rice", "Noodles", "Spaghetti", "Rice"],
        "Dinner": ["Steak", "Chicken", "Curry", "Steak", "Chicken", "Curry"],
        "Rating": [5, 4, 3, 5, 4, 3],
    })


class TestSynthesizerEquivalence:
    @pytest.mark.parametrize("strategy", ["guided", "free"])
    @pytest.mark.parametrize("temperature", [0.3, 0.85, 1.5])
    def test_identical_tables(self, meals_table, strategy, temperature):
        object_synth = GReaTSynthesizer(
            _great_config("object", strategy, temperature)).fit(meals_table)
        compiled_synth = GReaTSynthesizer(
            _great_config("compiled", strategy, temperature)).fit(meals_table)
        assert object_synth.sample(25, seed=4) == compiled_synth.sample(25, seed=4)

    def test_identical_conditional_tables(self, meals_table):
        prompts = [{"Name": "Grace"}, {"Name": "Yin"}, {"Name": "Maya"}] * 4
        object_synth = GReaTSynthesizer(_great_config("object")).fit(meals_table)
        compiled_synth = GReaTSynthesizer(_great_config("compiled")).fit(meals_table)
        object_out = object_synth.sample_conditional(prompts, seed=6)
        compiled_out = compiled_synth.sample_conditional(prompts, seed=6)
        assert object_out == compiled_out
        assert object_out.column("Name").values[:3] == ["Grace", "Yin", "Maya"]

    def test_negative_seeds_accepted(self, meals_table):
        """random.Random accepted any int seed; the numpy streams must too."""
        for strategy in ("guided", "free"):
            synth = GReaTSynthesizer(_great_config("compiled", strategy)).fit(meals_table)
            assert synth.sample(4, seed=-3) == synth.sample(4, seed=-3)

    def test_engine_shared_with_sampler(self, meals_table):
        """fit() must not freeze the compiled model twice."""
        synth = GReaTSynthesizer(_great_config("compiled")).fit(meals_table)
        assert synth.engine._backbone is synth.model.compiled_model()

    def test_prompt_values_equal_in_hash_keep_their_own_tokens(self):
        """1 and True hash alike but render as "1" and "True"."""
        table = Table({"Flag": [True, False, True, False], "Count": [1, 2, 1, 2]})
        synth = GReaTSynthesizer(_great_config("compiled")).fit(table)
        fresh = GReaTSynthesizer(_great_config("compiled")).fit(table)
        ones = synth._encode_value_tokens(1)
        assert synth._encode_value_tokens(1.0) == ones
        assert synth._encode_value_tokens(True) == fresh._encode_value_tokens(True) != ones

    def test_batch_sampling_stays_on_training_support(self, meals_table):
        synth = GReaTSynthesizer(_great_config("compiled")).fit(meals_table)
        sample = synth.sample(40, seed=1)
        for name in meals_table.column_names:
            assert set(sample.column(name).unique()) <= set(meals_table.column(name).unique())


class TestEngineSelection:
    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_engine_kind("gpu")

    def test_config_rejects_unknown(self):
        with pytest.raises(ValueError):
            SamplerConfig(engine="gpu")

    def test_env_var_controls_auto(self, trained_model, monkeypatch):
        monkeypatch.setenv("REPRO_GENERATION_ENGINE", "object")
        assert resolve_engine_kind("auto") == "object"
        engine = BatchGenerationEngine(trained_model, SamplerConfig(engine="auto"))
        assert engine.kind == "object"
        monkeypatch.delenv("REPRO_GENERATION_ENGINE")
        assert resolve_engine_kind(None) == "compiled"

    def test_explicit_kind_overrides_config(self, trained_model):
        engine = BatchGenerationEngine(
            trained_model, SamplerConfig(engine="object"), kind="compiled")
        assert engine.kind == "compiled"

    def test_untrained_model_rejected(self):
        model = NGramLanguageModel(WordTokenizer())
        with pytest.raises(ValueError):
            BatchGenerationEngine(model, SamplerConfig())
        with pytest.raises(ValueError):
            CompiledNGramModel(model)


class TestSamplerDelegation:
    def test_sample_batch_uses_engine(self, trained_model):
        sampler = TemperatureSampler(trained_model, SamplerConfig(seed=1, engine="compiled"))
        sentences = sampler.sample_batch(7)
        assert len(sentences) == 7
        assert sampler.engine.kind == "compiled"

    def test_sample_batch_reproducible_after_reseed(self, trained_model):
        sampler = TemperatureSampler(trained_model, SamplerConfig(seed=1))
        sampler.reseed(11)
        first = sampler.sample_batch(5)
        sampler.reseed(11)
        assert sampler.sample_batch(5) == first

    def test_sample_valid_none_when_impossible(self, trained_model):
        sampler = TemperatureSampler(trained_model, SamplerConfig(seed=1, max_retries=2))
        assert sampler.sample_valid(lambda s: False) is None
