"""Single-table GReaT synthesizer."""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from repro.frame.column import Column
from repro.frame.ops import concat_rows
from repro.frame.table import Table
from repro.llm.engine import (
    SEED_MASK,
    BatchGenerationEngine,
    CandidateSet,
    GuidedBatchSession,
    derive_seed,
)
from repro.llm.finetune import FineTuneConfig, FineTuner
from repro.llm.ngram_model import NGramLanguageModel
from repro.llm.sampler import SamplerConfig
from repro.llm.tokenizer import WordTokenizer
from repro.obs import trace as obs
from repro.textenc.corpus import CorpusBuilder
from repro.textenc.decoder import TextualDecoder
from repro.textenc.encoder import EncoderConfig, TextualEncoder

#: Row-sampling strategies.
#:
#: ``"guided"`` (default) walks the columns in canonical order and, for each
#: column, scores every value observed at training time under the language
#: model given the already generated prefix, then samples a value from the
#: resulting distribution.  Every generated row is schema-valid by
#: construction, and cross-column dependencies flow through the LM context —
#: which is exactly where ambiguous tokens and flattening noise do their
#: damage.
#:
#: ``"free"`` reproduces the original GReaT behaviour literally: sample free
#: text from the LM, parse it with the decoder, and keep only sentences that
#: round-trip into valid rows (falling back to bootstrap rows when the retry
#: budget is exhausted).
SAMPLING_STRATEGIES = ("guided", "free")

#: Sub-stream namespace for guided batch sampling: the caller-facing seed is
#: combined with this constant so guided draws form their own named stream,
#: separate from the other consumers (encoder permutations, fallback rows)
#: that derive state from the same pipeline seed.
_GUIDED_STREAM = 2

#: Sub-stream namespace for chunked streaming synthesis: each emitted chunk
#: draws from ``derive_seed(seed, _CHUNK_STREAM, chunk_index)`` so chunks are
#: independent of chunk size *boundaries chosen downstream* only through the
#: (size, index) pair — the same scheme as the serving layer's per-block
#: seeds.
_CHUNK_STREAM = 5


class _UniformStream:
    """Serves a pre-drawn uniform vector in order, in place of a generator.

    ``Generator.random(a)`` then ``random(b)`` equals ``random(a + b)``, so
    a draw group served from its slice of one pre-drawn vector gets the
    uniforms it would have drawn from the generator directly.
    """

    def __init__(self, uniforms: np.ndarray):
        self._uniforms = uniforms
        self.remaining = len(uniforms)

    def random(self, size: int) -> np.ndarray:
        if size > self.remaining:
            raise RuntimeError("a draw group asked for more uniforms than were drawn for it")
        start = len(self._uniforms) - self.remaining
        self.remaining -= size
        return self._uniforms[start:start + size]


@dataclass(frozen=True)
class GReaTConfig:
    """Hyper-parameters of the GReaT synthesizer.

    ``fine_tune`` carries the epochs/batches the paper reports; ``sampler``
    controls generation temperature and retries; ``permutation_passes`` is
    GReaT's feature-order augmentation; ``fallback_to_training_rows`` keeps the
    output size exact in ``"free"`` mode by bootstrap-resampling a training row
    whenever generation fails to produce a parseable sentence.
    """

    fine_tune: FineTuneConfig = field(default_factory=lambda: FineTuneConfig())
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    sampling_strategy: str = "guided"
    permutation_passes: int = 2
    fallback_to_training_rows: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.sampling_strategy not in SAMPLING_STRATEGIES:
            raise ValueError(
                "sampling_strategy must be one of {}, got {!r}".format(
                    SAMPLING_STRATEGIES, self.sampling_strategy
                )
            )
        if self.permutation_passes < 1:
            raise ValueError("permutation_passes must be at least 1")


class GReaTSynthesizer:
    """Encode → fine-tune → sample → decode, on a single table."""

    def __init__(self, config: GReaTConfig | None = None):
        self.config = config or GReaTConfig()
        self._encoder = TextualEncoder(self.config.encoder)
        self._decoder: TextualDecoder | None = None
        self._model: NGramLanguageModel | None = None
        self._engine: BatchGenerationEngine | None = None
        self._training_table: Table | None = None
        self._perplexity_trace: list[float] = []
        self._training_engine: str | None = None
        # guided-sampling state: per column, the observed values (an object
        # array, so draws gather the value objects themselves) and their token ids
        self._column_candidates: dict[str, np.ndarray] = {}
        self._candidate_token_ids: dict[str, CandidateSet] = {}
        self._structure_token_ids: dict[str, list[int]] = {}
        self._separator_ids: list[int] = []
        self._value_token_cache: dict = {}

    # -- fitting -------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    @property
    def perplexity_trace(self) -> list[float]:
        """Held-out perplexity after each fine-tuning epoch."""
        return list(self._perplexity_trace)

    @property
    def training_engine(self) -> str | None:
        """Which training engine ran at fit time (``None`` before fit).

        Selected by ``config.fine_tune.engine`` / ``REPRO_TRAINING_ENGINE``;
        both engines produce bit-identical models, so this is diagnostic
        only.
        """
        return self._training_engine

    @property
    def decoder(self) -> TextualDecoder:
        self._require_fitted()
        return self._decoder

    @property
    def model(self) -> NGramLanguageModel:
        """The fine-tuned language-model backbone."""
        self._require_fitted()
        return self._model

    @property
    def engine(self) -> BatchGenerationEngine:
        """The batch-generation engine built at fit time."""
        self._require_fitted()
        return self._engine

    @property
    def training_columns(self) -> list[str]:
        self._require_fitted()
        return self._training_table.column_names

    def fit(self, table: Table) -> "GReaTSynthesizer":
        """Fine-tune the backbone on the textual-encoded rows of *table*."""
        if table.num_rows == 0 or table.num_columns == 0:
            raise ValueError("cannot fit a synthesizer on an empty table")
        self._training_table = table.copy()
        self._encoder.reseed(self.config.seed)
        builder = CorpusBuilder(encoder=self._encoder,
                                permutation_passes=self.config.permutation_passes)
        with obs.span("stage.encode", attrs={"rows": table.num_rows,
                                             "columns": table.num_columns}):
            corpus, decoder = builder.build(table)
        tokenizer = WordTokenizer()
        tuner = FineTuner(tokenizer, self.config.fine_tune)
        with obs.span("stage.fine_tune", attrs={"sentences": len(corpus)}):
            result = tuner.fine_tune(corpus)
        self._perplexity_trace = result.perplexity_trace
        self._training_engine = result.engine
        self._decoder = decoder
        self._model = result.model
        # compiled-trained models hand the engine their cached CSR freeze,
        # so the counts are never re-frozen
        self._engine = BatchGenerationEngine(result.model, self.config.sampler)
        self._prepare_guided_state(tokenizer)
        return self

    @classmethod
    def _from_fitted_state(cls, config: GReaTConfig, training_table: Table,
                           model: NGramLanguageModel, decoder: TextualDecoder,
                           perplexity_trace: Sequence[float],
                           training_engine: str | None) -> "GReaTSynthesizer":
        """Reconstruct a fitted synthesizer from persisted state.

        Used by :mod:`repro.store` to revive a bundle without retraining:
        the sampler/engine/guided state are rebuilt deterministically from
        the persisted model, vocabulary and training table, so a loaded
        synthesizer samples bit-identically to the one that was saved.
        """
        synth = cls(config)
        synth._training_table = training_table
        synth._encoder.reseed(config.seed)
        synth._decoder = decoder
        synth._model = model
        synth._perplexity_trace = list(perplexity_trace)
        synth._training_engine = training_engine
        synth._engine = BatchGenerationEngine(model, config.sampler)
        synth._prepare_guided_state(model.tokenizer)
        return synth

    def _prepare_guided_state(self, tokenizer: WordTokenizer) -> None:
        """Pre-tokenize every column's observed values and the structural glue.

        Each column's values become one :class:`CandidateSet`, whose score
        memo then serves every guided draw of this synthesizer's engine.
        """
        self._column_candidates = {}
        self._candidate_token_ids = {}
        self._structure_token_ids = {}
        self._value_token_cache = {}  # vocabulary changes with every fit
        encode = lambda text: [  # noqa: E731 - tiny local helper
            tokenizer.vocabulary.encode_token(tok) for tok in tokenizer.tokenize(text)
        ]
        self._separator_ids = encode(self.config.encoder.pair_separator.strip() or ",")
        for name in self._training_table.column_names:
            values = self._training_table.column(name).unique()
            if not values:
                values = [None]
            self._column_candidates[name] = np.empty(len(values), dtype=object)
            for index, value in enumerate(values):
                self._column_candidates[name][index] = value
            self._candidate_token_ids[name] = CandidateSet([
                encode(self._encoder.encode_value(value)) or [tokenizer.vocabulary.unk_id]
                for value in values
            ])
            self._structure_token_ids[name] = encode(
                "{}{}".format(name, self.config.encoder.key_value_separator.strip() or ":")
            )

    def _require_fitted(self):
        if not self.is_fitted:
            raise RuntimeError("call fit() before sampling")

    # -- guided sampling ---------------------------------------------------------------

    def _encode_value_tokens(self, value) -> list[int]:
        # keyed by type too: 1, 1.0 and True hash alike but render differently
        key = (type(value), value)
        cached = self._value_token_cache.get(key)
        if cached is not None:
            return cached
        vocab = self._model.tokenizer.vocabulary
        tokens = [vocab.encode_token(tok)
                  for tok in self._model.tokenizer.tokenize(self._encoder.encode_value(value))]
        tokens = tokens or [vocab.unk_id]
        self._value_token_cache[key] = tokens
        return tokens

    def _column_walk(self, prompts: Sequence[dict | None],
                     groups: Sequence[tuple]) -> list[tuple[str, list[int], list[tuple]]]:
        """Per training column: its name, the lanes whose prompt fixes it and
        the *groups* that draw for it.

        A group draws for a column that has more than one candidate when its
        lane slice holds a lane leaving the column free.  The draw counts of
        :meth:`_sample_guided` and the column walk both come from here.
        """
        n_lanes = len(prompts)
        fixed: dict[str, list[int]] = {}
        for lane, prompt in enumerate(prompts):
            for name in prompt or ():
                fixed.setdefault(name, []).append(lane)

        def has_free_lane(span: slice, lanes: list[int]) -> bool:
            """Whether *span* holds a lane outside the ascending *lanes*."""
            start, stop, _ = span.indices(n_lanes)
            return bisect_left(lanes, stop) - bisect_left(lanes, start) < stop - start

        walk = []
        for name in self._training_table.column_names:
            lanes = fixed.get(name, [])
            drawing = [] if len(self._candidate_token_ids[name]) < 2 else [
                group for group in groups if has_free_lane(group[0], lanes)]
            walk.append((name, lanes, drawing))
        return walk

    def sample_guided_columns(self, session: GuidedBatchSession,
                              prompts: Sequence[dict | None],
                              groups: Sequence[tuple]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Walk every column over *session*; returns one ``(codes, dictionary)``
        pair per column, the input of :meth:`Column.from_codes`.

        *prompts* holds one entry per lane: ``None`` or a dict of the values
        that lane fixes.  *groups* are the ``(lanes, rng)`` draw groups of
        :meth:`GuidedBatchSession.choose`.  Per column, the groups that hold
        a lane not fixing it draw in one ``choose`` call (if the column has
        more than one candidate); drawn lanes take the candidate's tokens and
        fixed lanes their own value's, and one ``extend_rows`` appends both.
        A drawn lane's code indexes the column's candidates; a fixed lane's
        indexes the values the prompts fix, which the dictionary lists after
        the candidates.
        """
        self._require_fitted()
        prompt_codes = {name: {} for name in self.training_columns}
        codes = self._walk_columns(session, prompts, self._column_walk(prompts, groups),
                                   prompt_codes)
        return [(column, self._dictionary(name, prompt_codes[name]))
                for name, column in zip(self.training_columns, codes)]

    def _walk_columns(self, session: GuidedBatchSession, prompts: Sequence[dict | None],
                      walk: list[tuple[str, list[int], list[tuple]]],
                      prompt_codes: dict[str, dict]) -> list[np.ndarray]:
        """The column walk of :meth:`sample_guided_columns` over a
        :meth:`_column_walk` plan: one int64 code array per column.

        ``prompt_codes[name]`` maps each ``(type, value)`` a prompt fixes
        to its code, ``len(candidates)`` onwards, and its tokens, and grows
        with new values; keyed by type, ``1``, ``1.0`` and ``True`` stay
        distinct.
        """
        n_lanes = len(prompts)
        columns = []
        for name, lanes, drawing in walk:
            session.extend_shared(self._structure_token_ids[name])
            candidates = self._candidate_token_ids[name]
            if drawing:
                picks = session.choose(candidates, groups=drawing)
            else:
                picks = np.zeros(n_lanes, dtype=np.int64)
            tokens = candidates.tokens[picks]
            counts = candidates.lengths[picks]
            if lanes:
                known = prompt_codes[name]
                fixed = []
                for lane in lanes:
                    value = prompts[lane][name]
                    key = (type(value), value)
                    entry = known.get(key)
                    if entry is None:
                        entry = known[key] = (len(candidates) + len(known),
                                              self._encode_value_tokens(value))
                    fixed.append(entry)
                rows = [row for _, row in fixed]
                sizes = [len(row) for row in rows]
                if max(sizes) > tokens.shape[1]:
                    tokens = np.pad(tokens, ((0, 0), (0, max(sizes) - tokens.shape[1])))
                stride = tokens.shape[1]
                np.put(tokens, [lane * stride + slot for lane, size in zip(lanes, sizes)
                                for slot in range(size)], list(chain.from_iterable(rows)))
                counts[lanes] = sizes
                picks[lanes] = [code for code, _ in fixed]
            session.extend_rows(tokens, counts)
            session.extend_shared(self._separator_ids)
            columns.append(picks)
        return columns

    def _dictionary(self, name: str, prompt_codes: dict) -> np.ndarray:
        """Column *name*'s candidates followed by the prompt values of
        *prompt_codes*, in code order."""
        candidates = self._column_candidates[name]
        if not prompt_codes:
            return candidates
        values = np.fromiter((value for _, value in prompt_codes), dtype=object,
                             count=len(prompt_codes))
        return np.concatenate([candidates, values])

    def _sample_guided(self, prompts: list[dict | None], seed: int,
                       max_lanes: int | None = None) -> Table:
        """Guided strategy over a whole batch.

        The lanes split into draw chunks of ``max_lanes`` (default and at
        most ``batch_lanes``) that take their uniforms from one RNG stream
        chunk after chunk, so the chunking alone fixes the output.  Whole
        chunks, up to ``batch_lanes`` lanes, share one engine session with
        one draw group per chunk: a chunk's uniforms (one per lane for every
        column it draws) are drawn ahead in chunk order and served to its
        group in column order.  Each column's codes are joined across
        sessions and built with :meth:`Column.from_codes`.
        """
        names = self._training_table.column_names
        prompt_codes = {name: {} for name in names}
        codes = {name: [] for name in names}
        with obs.span("stage.sample", attrs={"rows": len(prompts),
                                             "strategy": "guided"}) as sp:
            rng = np.random.default_rng([_GUIDED_STREAM, seed & SEED_MASK])
            width = max(1, self.config.sampler.batch_lanes)
            chunk = width if max_lanes is None else max(1, min(width, int(max_lanes)))
            window = width - width % chunk
            n_sessions = n_groups = 0
            for start in range(0, len(prompts), window):
                lanes = prompts[start:start + window]
                spans = [slice(lo, min(lo + chunk, len(lanes)))
                         for lo in range(0, len(lanes), chunk)]
                walk = self._column_walk(lanes, [(span, index)
                                                 for index, span in enumerate(spans)])
                # each chunk's uniforms: one per lane for every column it draws
                draws = [0] * len(spans)
                for _, _, drawing in walk:
                    for span, index in drawing:
                        draws[index] += span.stop - span.start
                bounds = np.cumsum([0] + draws).tolist()
                uniforms = rng.random(bounds[-1])
                streams = [_UniformStream(uniforms[lo:hi])
                           for lo, hi in zip(bounds[:-1], bounds[1:])]
                session = self._engine.guided_session(len(lanes), rng=rng)
                columns = self._walk_columns(session, lanes, [
                    (name, fixed, [(span, streams[index]) for span, index in drawing])
                    for name, fixed, drawing in walk], prompt_codes)
                if any(stream.remaining for stream in streams):
                    raise RuntimeError("a draw group left pre-drawn uniforms unused")
                for name, column in zip(names, columns):
                    codes[name].append(column)
                n_sessions += 1
                n_groups += len(spans)
            sp.set_attr("sessions", n_sessions)
            sp.set_attr("draw_groups", n_groups)
        return Table([Column.from_codes(name, np.concatenate(codes[name]),
                                        self._dictionary(name, prompt_codes[name]))
                      for name in names])

    def _sample_free(self, prompts: list[dict | None], seed: int,
                     max_lanes: int | None = None) -> Table:
        """Free strategy over a whole batch: generate every lane through the
        engine's validity-retry loop, then decode and backfill fallbacks."""
        with obs.span("stage.free_sample", attrs={"rows": len(prompts), "strategy": "free"}):
            tokenizer = self._model.tokenizer
            prompt_ids = None
            if any(prompt for prompt in prompts):
                prompt_texts = self._encoder.conditional_prompts(
                    [prompt or {} for prompt in prompts])
                prompt_ids = [
                    tokenizer.encode(text, add_bos=False, add_eos=False) if prompt else []
                    for prompt, text in zip(prompts, prompt_texts)
                ]
            sentences = self._engine.generate_valid(
                len(prompts), self._decoder.is_valid, prompts=prompt_ids, seed=seed,
                max_lanes=max_lanes
            )
            rng = random.Random(seed)
            rows: list[dict] = []
            for prompt, sentence in zip(prompts, sentences):
                if sentence is not None:
                    rows.append(self._decoder.decode_row(sentence))
                    continue
                if not self.config.fallback_to_training_rows:
                    raise RuntimeError(
                        "generation failed to produce a valid row within the retry budget")
                fallback = self._training_table.row(
                    rng.randrange(self._training_table.num_rows))
                if prompt:
                    fallback = dict(fallback)
                    fallback.update(prompt)
                rows.append(fallback)
        return Table.from_records(rows, columns=self._training_table.column_names)

    def _sample_rows_batch(self, prompts: list[dict | None], seed: int,
                           max_lanes: int | None = None) -> Table:
        if self.config.sampling_strategy == "guided":
            return self._sample_guided(prompts, seed, max_lanes=max_lanes)
        return self._sample_free(prompts, seed, max_lanes=max_lanes)

    # -- public sampling API ----------------------------------------------------------------

    def sample(self, n: int, seed: int | None = None,
               max_lanes: int | None = None) -> Table:
        """Sample *n* unconditioned rows as a table with the training schema.

        ``max_lanes`` caps the draw chunk below ``config.sampler.batch_lanes``
        — block-wise callers pass their block size.  The chunking fixes the
        output: two runs at the same cap are identical, and the default
        (uncapped) chunk is ``batch_lanes``.  Guided sampling runs as many
        whole chunks as fit in ``batch_lanes`` lanes through one engine
        session, each chunk one draw group of it, so the session width is
        ``min(n, batch_lanes)`` whenever the cap divides ``batch_lanes``;
        free sampling runs one engine batch per chunk.
        """
        self._require_fitted()
        if n <= 0:
            raise ValueError("n must be positive")
        seed = self.config.seed if seed is None else seed
        return self._sample_rows_batch([None] * n, seed, max_lanes=max_lanes)

    def iter_sample(self, n: int, seed: int | None = None,
                    chunk_rows: int | None = None):
        """Yield *n* unconditioned rows as fixed-size table chunks.

        Each chunk of ``chunk_rows`` rows samples under its own derived seed
        (``derive_seed(seed, _CHUNK_STREAM, index)``), so the concatenation is
        a pure function of ``(seed, chunk_rows)`` — :meth:`sample_chunked`
        materializes exactly that table in memory — and only one chunk of
        rows is alive at a time.  Validation is eager.
        """
        self._require_fitted()
        if n <= 0:
            raise ValueError("n must be positive")
        seed = self.config.seed if seed is None else seed
        chunk_rows = n if chunk_rows is None else int(chunk_rows)
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")

        def chunks():
            for index, start in enumerate(range(0, n, chunk_rows)):
                count = min(chunk_rows, n - start)
                yield self._sample_rows_batch([None] * count,
                                              derive_seed(seed, _CHUNK_STREAM, index))
        return chunks()

    def sample_chunked(self, n: int, seed: int | None = None,
                       chunk_rows: int | None = None) -> Table:
        """The in-memory table equal to concatenating :meth:`iter_sample`."""
        return concat_rows(list(self.iter_sample(n, seed=seed, chunk_rows=chunk_rows)))

    def sample_conditional(self, prompts: list[dict], seed: int | None = None,
                           max_lanes: int | None = None) -> Table:
        """Sample one row per prompt dict, conditioned on the prompt columns."""
        self._require_fitted()
        seed = self.config.seed if seed is None else seed
        if not prompts:
            return Table.from_records([], columns=self._training_table.column_names)
        return self._sample_rows_batch(list(prompts), seed, max_lanes=max_lanes)
