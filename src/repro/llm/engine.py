"""Batched generation engine.

The legacy sampling path advanced one sequence at a time, walking the n-gram
count dicts once per token.  This module advances *hundreds of in-flight
sequences per step*: one vectorized categorical draw (temperature + top-k via
``argpartition``) across the whole batch per token position, per-sequence EOS
retirement, and vectorized validity-based retry that regenerates only the
rejected lanes.

Two interchangeable backbones compute the per-step mass matrices:

* ``"object"`` — the legacy data structures: per-lane walks over the model's
  nested ``dict[context] -> Counter`` tables
  (:meth:`~repro.llm.ngram_model.NGramLanguageModel.distribution_components`).
* ``"compiled"`` — :class:`~repro.llm.compiled.CompiledNGramModel`'s frozen
  CSR arrays, fully vectorized across lanes.

Both backbones produce bit-identical mass matrices (same expression shapes,
same accumulation order), and everything downstream of the masses — RNG
stream, temperature/top-k selection, EOS retirement, retry scheduling — is
shared code.  Identical seeds therefore produce identical sequences on either
backbone, which the perf harness (``benchmarks.perf.bench_generation``)
asserts end to end.

Guided sampling scores a column's candidate values (a :class:`CandidateSet`)
once per distinct lane context, with one ``token_masses`` call for every
later-position token of every candidate, and memoises each context's
scores on the set.  That sits above the backbones, so both gain alike and
their outputs stay identical.

The backbone is picked per :class:`~repro.llm.sampler.SamplerConfig` (its
``engine`` field), falling back to the ``REPRO_GENERATION_ENGINE``
environment variable and finally to ``"compiled"`` — mirroring the frame
substrate's storage-backend selection.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence

import numpy as np

from repro.llm.backends import resolve_backend_kind
from repro.llm.ngram_model import NGramLanguageModel
from repro.llm.sampler import SamplerConfig

#: Concrete generation engines (``"auto"`` resolves to one of these).
GENERATION_ENGINES = ("object", "compiled")

_ENV_VAR = "REPRO_GENERATION_ENGINE"

#: Probability floor applied before taking logs, matching the legacy
#: ``token_probability`` clamp.
_LOG_FLOOR = 1e-12

#: ``np.random.default_rng`` rejects negative seeds; callers historically
#: passed arbitrary ints to ``random.Random``, so seeds are mapped into the
#: non-negative range before seeding.
SEED_MASK = 2 ** 63 - 1

#: Scores one candidate set's memo may hold (8 MiB of float64); once it is
#: full, the memo stops inserting.
_MEMO_MAX_FLOATS = 1 << 20

#: Scoring windows per ``token_masses`` call, which bounds the scratch
#: arrays of one guided choice whatever the batch width.  Scoring a block's
#: whole child fan-out in one session, ``1 << 15`` raised perfbench
#: ``digix-stream``'s peak RSS by ~3.5 MB on a 2-core host; ``1 << 12``
#: did not, at the same rows/s.
_WINDOWS_PER_CALL = 1 << 12

#: Guided-scoring counters, in the order they are reported: lanes scored,
#: the distinct contexts among them, candidates scored afresh (memo misses
#: times candidates), and memo hits and misses (one per distinct context).
SCORING_COUNTERS = ("lanes", "distinct_contexts", "candidates_scored",
                    "memo_hits", "memo_misses")


def seeded_rng(seed: int | None) -> np.random.Generator:
    """A deterministic generator for any int seed (negative seeds included)."""
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(int(seed) & SEED_MASK)


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic child seed for a named position under *seed*.

    Built on :class:`numpy.random.SeedSequence`, so derived seeds are
    well-spread, platform-independent and a pure function of
    ``(seed, path)``.  This is the determinism primitive behind both the
    serving layer's sharded sampling (blocks of one table request) and the
    schema subsystem's per-table streams — shared here, next to
    :data:`SEED_MASK`, so the two layers can never drift apart.
    """
    sequence = np.random.SeedSequence([int(seed) & SEED_MASK] + [int(p) for p in path])
    return int(sequence.generate_state(1, dtype=np.uint64)[0]) & SEED_MASK


def resolve_engine_kind(kind: str | None = None) -> str:
    """Resolve ``None``/``"auto"`` through the environment to a concrete engine."""
    return resolve_backend_kind(kind, _ENV_VAR, GENERATION_ENGINES,
                                default="compiled", label="generation engine")


class ScoringCounters:
    """Process-wide tallies of guided candidate scoring (thread-safe, monotonic)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._totals = dict.fromkeys(SCORING_COUNTERS, 0)

    def add(self, **amounts: int) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self._totals[name] += amount

    def _snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._totals)

    def deltas(self) -> Callable[[], dict[str, int]]:
        """A reader returning the counters' non-zero growth since its last call.

        The first call reports growth since the reader was made, so a
        forked worker that makes its reader at start-up reports only its
        own work.  One reader may be called from several threads.
        """
        lock = threading.Lock()
        last = self._snapshot()

        def read() -> dict[str, int]:
            nonlocal last
            with lock:
                now = self._snapshot()
                grown = {name: now[name] - last[name] for name in now
                         if now[name] != last[name]}
                last = now
            return grown
        return read


#: This process's guided-scoring counters.
SCORING = ScoringCounters()


class CandidateSet(Sequence):
    """One column's candidate token sequences, laid out for batched scoring.

    A read-only sequence of the token lists, plus the arrays scoring
    needs: a padded ``(candidates, max_len)`` token matrix, the lengths,
    each candidate's first token, and the flat ``(candidate, position >=
    1)`` pairs ordered by position, then candidate, with ``position_groups``
    giving each position's candidates and pair slice.

    ``memo`` maps a context (its row bytes plus its length) to the
    read-only score row of every candidate.  It lives as long as the set,
    so it is shared by every block and request that samples the column
    within one process; a set must therefore be scored by one engine only.
    Plain dict reads and writes keep it safe under concurrent requests,
    and it stops inserting once it holds :data:`_MEMO_MAX_FLOATS` scores.
    """

    def __init__(self, token_lists: Sequence[Sequence[int]]):
        self._token_lists = [list(tokens) for tokens in token_lists]
        if not self._token_lists:
            raise ValueError("a candidate set needs at least one candidate")
        if any(len(tokens) == 0 for tokens in self._token_lists):
            raise ValueError("candidate token sequences must be non-empty")
        self.lengths = np.array([len(tokens) for tokens in self._token_lists],
                                dtype=np.int64)
        max_len = int(self.lengths.max())
        self.tokens = np.zeros((len(self._token_lists), max_len), dtype=np.int64)
        for row, tokens in enumerate(self._token_lists):
            self.tokens[row, :len(tokens)] = tokens
        self.first = self.tokens[:, 0].copy()
        positions, self.pair_candidate = np.nonzero(
            self.lengths[None, :] > np.arange(1, max_len)[:, None])
        self.pair_position = positions + 1
        self.pair_token = self.tokens[self.pair_candidate, self.pair_position]
        bounds = np.searchsorted(self.pair_position, np.arange(1, max_len + 1))
        self.position_groups = [(self.pair_candidate[lo:hi], slice(lo, hi))
                                for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        self.memo: dict[bytes, np.ndarray] = {}
        self.memo_capacity = _MEMO_MAX_FLOATS // len(self._token_lists)

    def __len__(self) -> int:
        return len(self._token_lists)

    def __getitem__(self, index):
        return self._token_lists[index]

    def __iter__(self):
        return iter(self._token_lists)


class ObjectBackbone:
    """Per-lane mass computation on the legacy dict-of-Counter tables."""

    kind = "object"

    def __init__(self, model: NGramLanguageModel):
        self.model = model
        self.vocab_size = len(model.tokenizer.vocabulary)

    def _lane_context(self, contexts: np.ndarray, lengths: np.ndarray, lane: int) -> list[int]:
        length = int(lengths[lane])
        if length == 0:
            return []
        return [int(t) for t in contexts[lane, contexts.shape[1] - length:]]

    def dense_masses(self, contexts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        n_lanes = contexts.shape[0]
        dense = np.empty((n_lanes, self.vocab_size), dtype=np.float64)
        for lane in range(n_lanes):
            rest, layers = self.model.distribution_components(
                self._lane_context(contexts, lengths, lane))
            row = dense[lane]
            row.fill(rest)
            for counts, scale, _ in layers:
                ids = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
                values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
                row[ids] += values * scale
        return dense

    def token_masses(self, contexts: np.ndarray, lengths: np.ndarray,
                     tokens: int | np.ndarray) -> np.ndarray:
        per_lane = not np.isscalar(tokens)
        n_lanes = contexts.shape[0]
        masses = np.empty(n_lanes, dtype=np.float64)
        for lane in range(n_lanes):
            token_id = int(tokens[lane]) if per_lane else tokens
            rest, layers = self.model.distribution_components(
                self._lane_context(contexts, lengths, lane))
            mass = rest
            for counts, scale, _ in layers:
                count = counts.get(token_id)
                if count:
                    mass += count * scale
            masses[lane] = mass
        return masses


class BatchGenerationEngine:
    """Advance whole batches of sequences through a trained backbone.

    The engine owns the RNG protocol (a :class:`numpy.random.Generator`, one
    uniform vector per batch step), so a given seed maps to one deterministic
    generation trace regardless of which backbone computes the masses.
    """

    def __init__(self, model: NGramLanguageModel, config: SamplerConfig | None = None,
                 kind: str | None = None):
        if not model.is_trained:
            raise ValueError("the model must be fit() before building an engine")
        self.model = model
        self.config = config or SamplerConfig()
        self.kind = resolve_engine_kind(kind if kind is not None else self.config.engine)
        if self.kind == "compiled":
            # array-trained models hand back their cached CSR freeze, so no
            # dict walk (or re-freeze) happens here
            self._backbone = model.compiled_model()
        else:
            self._backbone = ObjectBackbone(model)
        self.tokenizer = model.tokenizer
        vocabulary = model.tokenizer.vocabulary
        self._pad_id = vocabulary.pad_id
        self._bos_id = vocabulary.bos_id
        self._eos_id = vocabulary.eos_id
        self._width = model.config.order - 1

    # -- free-text batched generation ---------------------------------------------------

    def generate_ids_batch(self, n: int, prompts: Sequence[Sequence[int]] | None = None,
                           seed: int | None = None,
                           rng: np.random.Generator | None = None,
                           max_lanes: int | None = None) -> list[list[int]]:
        """Sample *n* token-id sequences (prompt included, ``<bos>`` stripped).

        ``prompts`` optionally conditions each lane on a token-id prefix.
        Lanes retire individually when they sample ``<eos>``; every step draws
        one uniform vector across the still-active lanes.  ``max_lanes`` caps
        the engine batch below ``config.batch_lanes`` — the streaming path
        passes its block size so the per-step ``(lanes, vocab)`` mass buffers
        scale with the chunk instead of staying at the configured width.
        """
        sequences: list[list[int]] = []
        for chunk in self.iter_generate_ids_batch(n, prompts=prompts, seed=seed,
                                                  rng=rng, max_lanes=max_lanes):
            sequences.extend(chunk)
        return sequences

    def iter_generate_ids_batch(self, n: int, prompts: Sequence[Sequence[int]] | None = None,
                                seed: int | None = None,
                                rng: np.random.Generator | None = None,
                                max_lanes: int | None = None):
        """Yield the sequences of :meth:`generate_ids_batch` one engine batch
        at a time.

        Lanes retire per batch of ``config.batch_lanes`` (capped by
        ``max_lanes``), so concatenating the yielded chunks reproduces
        ``generate_ids_batch`` at the same cap exactly — the shared RNG
        advances identically — while only one batch of sequences is alive
        at a time.  Arguments are validated eagerly (before the first chunk is
        requested).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if prompts is not None and len(prompts) != n:
            raise ValueError("prompts must have one entry per requested sequence")
        rng = seeded_rng(seed) if rng is None else rng
        batch = max(1, self.config.batch_lanes)
        if max_lanes is not None:
            batch = max(1, min(batch, int(max_lanes)))

        def chunks():
            for start in range(0, n, batch):
                stop = min(start + batch, n)
                chunk = prompts[start:stop] if prompts is not None else None
                yield self._generate_chunk(stop - start, chunk, rng)
        return chunks()

    def _generate_chunk(self, n_lanes: int, prompts, rng: np.random.Generator) -> list[list[int]]:
        width = self._width
        contexts = np.zeros((n_lanes, max(width, 0)), dtype=np.int64)
        lengths = np.zeros(n_lanes, dtype=np.int64)
        prefixes: list[list[int]] = []
        for lane in range(n_lanes):
            prefix = [self._bos_id] + ([int(t) for t in prompts[lane]] if prompts else [])
            prefixes.append(prefix[1:])
            if width > 0:
                tail = prefix[-width:]
                contexts[lane, width - len(tail):] = tail
                lengths[lane] = len(tail)
        active = np.arange(n_lanes)
        config = self.config
        # generated tokens accumulate into a preallocated matrix — one fancy
        # write per step across the surviving lanes instead of a Python
        # append per lane
        generated = np.empty((n_lanes, config.max_tokens), dtype=np.int64)
        n_generated = np.zeros(n_lanes, dtype=np.int64)
        for _ in range(config.max_tokens):
            if active.size == 0:
                break
            masses = self._backbone.dense_masses(contexts[active], lengths[active])
            masses[:, self._pad_id] = 0.0
            masses[:, self._bos_id] = 0.0
            tokens = _draw_tokens(masses, rng, config.temperature, config.top_k)
            alive = tokens != self._eos_id
            kept = active[alive]
            kept_tokens = tokens[alive]
            if kept.size:
                generated[kept, n_generated[kept]] = kept_tokens
                n_generated[kept] += 1
                if width > 0:
                    rows = contexts[kept]
                    rows[:, :-1] = rows[:, 1:]
                    rows[:, -1] = kept_tokens
                    contexts[kept] = rows
                    lengths[kept] = np.minimum(lengths[kept] + 1, width)
            active = kept
        counts = n_generated.tolist()
        return [prefix + generated[lane, :counts[lane]].tolist()
                for lane, prefix in enumerate(prefixes)]

    def generate_sentences(self, n: int, prompts: Sequence[Sequence[int]] | None = None,
                           seed: int | None = None,
                           rng: np.random.Generator | None = None) -> list[str]:
        """Sample *n* decoded sentences."""
        return self.tokenizer.decode_batch(
            self.generate_ids_batch(n, prompts=prompts, seed=seed, rng=rng))

    def generate_valid(self, n: int, is_valid: Callable[[str], bool],
                       prompts: Sequence[Sequence[int]] | None = None,
                       seed: int | None = None,
                       max_lanes: int | None = None) -> list[str | None]:
        """Sample *n* sentences, regenerating only the lanes *is_valid* rejects.

        Each retry round re-batches the still-invalid lanes; lanes that never
        produce a valid sentence within ``max_retries`` rounds come back as
        ``None`` (callers decide whether to fall back, as in GReaT).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        rng = seeded_rng(seed)
        results: list[str | None] = [None] * n
        pending = list(range(n))
        for _ in range(self.config.max_retries):
            if not pending:
                break
            sub_prompts = [prompts[i] for i in pending] if prompts is not None else None
            batches = self.generate_ids_batch(len(pending), prompts=sub_prompts, rng=rng,
                                              max_lanes=max_lanes)
            sentences = self.tokenizer.decode_batch(batches)
            still_pending: list[int] = []
            for slot, lane in enumerate(pending):
                sentence = sentences[slot]
                if is_valid(sentence):
                    results[lane] = sentence
                else:
                    still_pending.append(lane)
            pending = still_pending
        return results

    # -- guided batched generation ------------------------------------------------------

    def guided_session(self, n_lanes: int, seed: int | None = None,
                       rng: np.random.Generator | None = None) -> "GuidedBatchSession":
        """Open a batched guided-sampling session over *n_lanes* sequences."""
        rng = seeded_rng(seed) if rng is None else rng
        return GuidedBatchSession(self, n_lanes, rng)

    def _score_candidates(self, contexts: np.ndarray, lengths: np.ndarray,
                          candidates: CandidateSet) -> np.ndarray:
        """Log score of each candidate token sequence per lane, shape (lanes, candidates).

        Lanes that share a context (its row plus its length) are scored
        once: each distinct context's scores come from the candidate set's
        memo, or are computed by :meth:`_score_distinct` and memoised, and
        are then gathered back to the lanes into a fresh array.
        """
        keyed = np.concatenate([contexts, lengths[:, None]], axis=1)
        # one slot per distinct row; the row's bytes are also its memo key
        # (a dict over the bytes is several times faster than np.unique(axis=0))
        slots: dict[bytes, int] = {}
        inverse = np.fromiter((slots.setdefault(row.tobytes(), len(slots)) for row in keyed),
                              dtype=np.int64, count=keyed.shape[0])
        keys = list(slots)
        memo = candidates.memo
        rows = [memo.get(key) for key in keys]
        missing = [slot for slot, row in enumerate(rows) if row is None]
        if missing:
            distinct = np.frombuffer(b"".join(keys[slot] for slot in missing),
                                     dtype=keyed.dtype).reshape(len(missing), -1)
            fresh = self._score_distinct(distinct[:, :-1], distinct[:, -1], candidates)
            fresh.setflags(write=False)
            for rank, slot in enumerate(missing):
                rows[slot] = fresh[rank]
                # unlocked check: concurrent calls may overshoot by one row each
                if len(memo) < candidates.memo_capacity:
                    memo[keys[slot]] = fresh[rank]
        SCORING.add(lanes=keyed.shape[0], distinct_contexts=len(keys),
                    candidates_scored=len(missing) * len(candidates),
                    memo_hits=len(keys) - len(missing), memo_misses=len(missing))
        return np.stack(rows)[inverse]

    def _score_distinct(self, contexts: np.ndarray, lengths: np.ndarray,
                        candidates: CandidateSet) -> np.ndarray:
        """Candidate log scores of distinct contexts, shape (contexts, candidates).

        The first token of every candidate is scored from one dense mass
        matrix.  Token ``p >= 1`` of candidate ``c`` is scored in the
        context a lane has after emitting ``c``'s first ``p`` tokens:
        ``concat(context, tokens_c)[p : p + width]`` with length
        ``min(length + p, width)``.  Those windows go through ``token_masses``
        together (in chunks of at most :data:`_WINDOWS_PER_CALL`), and the
        log masses are added position by position, so every score is the
        same float sum as scoring the candidates one after another.
        """
        dense = self._backbone.dense_masses(contexts, lengths)
        scores = np.log(np.maximum(dense[:, candidates.first], _LOG_FLOOR))
        n_pairs = candidates.pair_position.size
        if n_pairs == 0:
            return scores
        width = self._width
        # where each window slot reads from in concat(context, tokens_c)
        offsets = candidates.pair_position[:, None] + np.arange(width)
        from_context = offsets < width
        context_slots = np.minimum(offsets, width - 1)
        token_part = candidates.tokens[candidates.pair_candidate[:, None],
                                       np.maximum(offsets - width, 0)]
        log_masses = np.empty((contexts.shape[0], n_pairs), dtype=np.float64)
        step = max(1, _WINDOWS_PER_CALL // n_pairs)
        for lo in range(0, contexts.shape[0], step):
            block = contexts[lo:lo + step]
            n_block = block.shape[0]
            windows = np.where(from_context, block[:, context_slots], token_part)
            window_lengths = np.minimum(lengths[lo:lo + step, None] + candidates.pair_position,
                                        width)
            masses = self._backbone.token_masses(
                windows.reshape(n_block * n_pairs, width), window_lengths.reshape(-1),
                np.tile(candidates.pair_token, n_block))
            log_masses[lo:lo + n_block] = np.log(np.maximum(masses, _LOG_FLOOR)).reshape(
                n_block, n_pairs)
        for live, pairs in candidates.position_groups:
            scores[:, live] += log_masses[:, pairs]
        return scores


class GuidedBatchSession:
    """Column-by-column batched row sampling against a shared context buffer.

    The per-lane context accumulates ``<bos>``, the structural 'Column:'
    tokens and each chosen value; every :meth:`choose` call scores all
    candidate values for all lanes and resolves them with one vectorized
    softmax draw per draw group.  The column walk that drives a session is
    :meth:`repro.great.synthesizer.GReaTSynthesizer.sample_guided_columns`.
    """

    def __init__(self, engine: BatchGenerationEngine, n_lanes: int,
                 rng: np.random.Generator):
        if n_lanes <= 0:
            raise ValueError("n_lanes must be positive")
        self._engine = engine
        self._rng = rng
        width = engine._width
        self.n_lanes = n_lanes
        # the gather indices of extend_rows: one row per lane, one column per slot
        self._lane_rows = np.arange(n_lanes)[:, None]
        self._slots = np.arange(max(width, 0))
        self.contexts = np.zeros((n_lanes, max(width, 0)), dtype=np.int64)
        self.lengths = np.zeros(n_lanes, dtype=np.int64)
        self.extend_shared([engine._bos_id])

    def extend_shared(self, token_ids: Sequence[int]) -> None:
        """Append the same token sequence to every lane's context."""
        width = self._engine._width
        count = len(token_ids)
        if width == 0 or count == 0:
            return
        if count >= width:
            self.contexts[:] = np.asarray(token_ids[-width:], dtype=np.int64)
            self.lengths[:] = width
            return
        self.contexts[:, :width - count] = self.contexts[:, count:]
        self.contexts[:, width - count:] = np.asarray(token_ids, dtype=np.int64)
        self.lengths = np.minimum(self.lengths + count, width)

    def extend_rows(self, tokens: np.ndarray, counts: np.ndarray) -> None:
        """Append ``tokens[lane, :counts[lane]]`` to each lane's context.

        *tokens* is a padded ``(lanes, L)`` int64 matrix and *counts* the
        per-lane token counts, each in ``[0, L]``.  The new context of a
        lane is the window ``concat(context, tokens)[count : count + width]``,
        taken for every lane with one gather.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape[0] != self.n_lanes \
                or counts.shape != (self.n_lanes,):
            raise ValueError("extend_rows needs a (lanes, L) token matrix and one count per lane")
        width = self._engine._width
        extended = np.concatenate([self.contexts, tokens], axis=1)
        self.contexts = extended[self._lane_rows, counts[:, None] + self._slots]
        self.lengths = np.minimum(self.lengths + counts, width)

    def choose(self, token_lists: CandidateSet | Sequence[Sequence[int]],
               temperature: float | None = None,
               groups: Sequence[tuple[slice, np.random.Generator]] | None = None
               ) -> np.ndarray:
        """Score the candidates for every lane and draw one index per lane.

        Pass a :class:`CandidateSet` built once per column to reuse its
        layout and memo; a plain list of token lists is wrapped (and
        validated) on every call.

        Every lane is scored once; then each ``(lanes, rng)`` pair of
        *groups*, in order, draws the candidates of its ``lanes`` slice from
        its own ``rng`` (anything with ``Generator.random(size)``).  Lanes
        no group covers get index 0.  The default is one group of every
        lane, drawn from the session's RNG.
        """
        if not isinstance(token_lists, CandidateSet):
            token_lists = CandidateSet(token_lists)
        picks = np.zeros(self.n_lanes, dtype=np.int64)
        if len(token_lists) == 1:
            return picks
        if temperature is None:
            temperature = self._engine.config.temperature
        if groups is None:
            groups = [(slice(None), self._rng)]
        scores = self._engine._score_candidates(self.contexts, self.lengths, token_lists)
        for lanes, rng in groups:
            picks[lanes] = _choose_indices(scores[lanes], rng, temperature)
        return picks


# -- shared vectorized selection (identical for both backbones) -------------------------

def _draw_tokens(masses: np.ndarray, rng: np.random.Generator,
                 temperature: float, top_k: int | None) -> np.ndarray:
    """One categorical draw per lane from unnormalised masses."""
    n_lanes, vocab_size = masses.shape
    if top_k is not None and 0 < top_k < vocab_size:
        selected = np.argpartition(masses, vocab_size - top_k, axis=1)[:, vocab_size - top_k:]
        candidates = np.take_along_axis(masses, selected, axis=1)
    else:
        selected = None
        candidates = masses
    n_candidates = candidates.shape[1]
    if temperature <= 0:
        picks = np.argmax(candidates, axis=1)
    else:
        weights = candidates ** (1.0 / temperature)
        totals = weights.sum(axis=1)
        uniforms = rng.random(n_lanes)
        thresholds = uniforms * totals
        cumulative = np.cumsum(weights, axis=1)
        picks = np.minimum((cumulative < thresholds[:, None]).sum(axis=1), n_candidates - 1)
        dead = totals <= 0
        if dead.any():  # nothing sampleable: fall back to a uniform pick
            picks[dead] = np.minimum((uniforms[dead] * n_candidates).astype(np.int64),
                                     n_candidates - 1)
    if selected is not None:
        return selected[np.arange(n_lanes), picks]
    return picks


def _choose_indices(scores: np.ndarray, rng: np.random.Generator,
                    temperature: float) -> np.ndarray:
    """Softmax draw over per-lane candidate log scores (guided sampling)."""
    temperature = max(temperature, 1e-6)
    peak = scores.max(axis=1)
    weights = np.exp((scores - peak[:, None]) / temperature)
    totals = weights.sum(axis=1)
    thresholds = rng.random(scores.shape[0]) * totals
    cumulative = np.cumsum(weights, axis=1)
    return np.minimum((cumulative < thresholds[:, None]).sum(axis=1), scores.shape[1] - 1)

