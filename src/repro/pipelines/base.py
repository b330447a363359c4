"""Shared pipeline skeleton.

Every pipeline starts the same way (Fig. 1, step 1): drop the columns the
harness excludes (e.g. the trial-splitting ``task_id``), remove the
pseudo-identifier columns whose association scores are misleading
(Sec. 4.1.2), detect the contextual variables in both child tables, and
extract a single merged parent table.  What differs between pipelines is only
how the two child remainders are turned into the child table the parent/child
synthesizer is trained on.

Fitting and sampling are split: :meth:`MultiTablePipeline.fit` runs the
expensive preparation + training stages and returns a
:class:`FittedPipeline` — a persistable object (see :mod:`repro.store`)
that can :meth:`~FittedPipeline.sample` any number of times, in this
process or a fresh one, with bit-identical output for identical seeds.
:meth:`MultiTablePipeline.run` remains the one-shot convenience:
``fit(...).sample()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.connecting.flatten import direct_flatten
from repro.connecting.preprocessing import DIGIX_NOISY_COLUMNS
from repro.obs import trace as obs
from repro.enhancement.enhancer import DataSemanticEnhancer
from repro.frame.ops import inner_join, left_join
from repro.frame.table import Table
from repro.llm.engine import derive_seed
from repro.pipelines.config import PipelineConfig, SynthesisResult
from repro.relational.contextual import (
    ContextualVariableDetector,
    extract_parent_table,
    merge_contextual_parents,
)
from repro.relational.parent_child import ParentChildSynthesizer


@dataclass
class PreparedTables:
    """Output of the shared preparation stage."""

    parent: Table
    first_child: Table
    second_child: Table
    original_flat: Table
    subject_column: str


#: Sub-stream namespace for per-block seeds of one flat-table request.  The
#: serving layer has always derived its shard seeds from this stream; the
#: streaming path yields the very same blocks, which is what makes a
#: streamed CSV byte-identical to the in-memory ``sample_table`` result.
TABLE_BLOCK_STREAM = 11


def block_plan(n: int, seed: int, block_size: int) -> list[tuple[int, int, int]]:
    """Partition an *n*-row request into ``(start, count, block_seed)`` blocks.

    Block seeds come from ``derive_seed(seed, TABLE_BLOCK_STREAM, index)``,
    so the plan is a pure function of ``(n, seed, block_size)`` — any
    consumer (the inline executor, worker processes, streaming writers) that
    samples these blocks and concatenates them in order reproduces the same
    table bit for bit.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return [
        (start, min(block_size, n - start), derive_seed(seed, TABLE_BLOCK_STREAM, index))
        for index, start in enumerate(range(0, n, block_size))
    ]


@dataclass
class FittedPipeline:
    """A trained pipeline: everything needed to sample, nothing that retrains.

    ``synthesizers`` holds one fitted :class:`ParentChildSynthesizer` for
    GReaTER and the direct-flattening baseline, two (one per round) for
    DEREC.  ``enhancer`` carries the fitted mapping so synthetic output is
    inverse-mapped back to the original label space; ``original_flat`` is
    the evaluation reference; ``details`` the fit-time diagnostics.

    The whole object is persistable through :meth:`save` /
    :meth:`load` (see :mod:`repro.store.bundle`): a pipeline fitted in one
    process, saved and loaded in a fresh process produces byte-identical
    synthetic tables for identical seeds on both engines.
    """

    name: str
    config: PipelineConfig
    subject_column: str
    enhancer: DataSemanticEnhancer
    synthesizers: list[ParentChildSynthesizer]
    original_flat: Table
    n_training_subjects: int
    details: dict = field(default_factory=dict)

    # -- sampling -------------------------------------------------------------------

    def _resolve_n(self, n_subjects: int | None) -> int:
        if n_subjects is not None:
            return n_subjects
        if self.config.n_synthetic_subjects is not None:
            return self.config.n_synthetic_subjects
        return self.n_training_subjects

    def sample(self, n_subjects: int | None = None, seed: int | None = None) -> SynthesisResult:
        """Sample a :class:`SynthesisResult` from the fitted synthesizers.

        ``n_subjects`` defaults to the config's ``n_synthetic_subjects`` and
        then to the training subject count; ``seed`` to the config seed —
        so ``fit(...).sample()`` reproduces the historical ``run(...)``
        output exactly.
        """
        n = self._resolve_n(n_subjects)
        seed = self.config.seed if seed is None else seed
        if len(self.synthesizers) == 2:
            return self._sample_two_round(n, seed)
        return self._sample_single(n, seed)

    def _sample_single(self, n: int, seed: int) -> SynthesisResult:
        synthetic_parent, synthetic_child, synthetic_flat = \
            self.synthesizers[0].sample_all(n, seed=seed)
        enhancer = self.enhancer
        synthetic_flat = enhancer.inverse_transform(synthetic_flat)
        synthetic_parent = enhancer.inverse_transform(synthetic_parent)
        synthetic_child = enhancer.inverse_transform(synthetic_child)
        if self.subject_column in synthetic_flat.column_names:
            synthetic_flat = synthetic_flat.drop(self.subject_column)
        return SynthesisResult(
            synthetic_flat=synthetic_flat,
            original_flat=self.original_flat,
            synthetic_parent=synthetic_parent,
            synthetic_child=synthetic_child,
            pipeline_name=self.name,
            details=dict(self.details),
        )

    def _sample_two_round(self, n: int, seed: int) -> SynthesisResult:
        combined, first_flat = self._two_round_flat(n, seed)
        enhancer = self.enhancer
        synthetic_flat = enhancer.inverse_transform(combined)
        if self.subject_column in synthetic_flat.column_names:
            synthetic_flat = synthetic_flat.drop(self.subject_column)
        details = dict(self.details)
        details["n_synthetic_subjects"] = n
        return SynthesisResult(
            synthetic_flat=synthetic_flat,
            original_flat=self.original_flat,
            synthetic_parent=enhancer.inverse_transform(first_flat),
            synthetic_child=None,
            pipeline_name=self.name,
            details=details,
        )

    def _two_round_flat(self, n: int, seed: int, subject_offset: int = 0,
                        max_lanes: int | None = None) -> tuple[Table, Table]:
        """DEREC's two independent rounds, joined on the synthetic subject key."""
        subject = self.subject_column
        first_flat = self.synthesizers[0].sample_flat(
            n, seed=seed, subject_offset=subject_offset, max_lanes=max_lanes)
        second_flat = self.synthesizers[1].sample_flat(
            n, seed=seed + 1, subject_offset=subject_offset, max_lanes=max_lanes)
        combined = inner_join(first_flat, second_flat, on=subject, suffixes=("", "_round2"))
        duplicated = [name for name in combined.column_names if name.endswith("_round2")]
        if duplicated:
            combined = combined.drop(duplicated)
        return combined, first_flat

    def sample_block(self, start: int, count: int, seed: int) -> Table:
        """Sample one independently seeded block of the synthetic flat view.

        The serving layer's sharding unit: blocks are fully determined by
        ``(fitted state, start, count, seed)``, so any partition of a
        request into blocks — run serially or across workers — concatenates
        to the same table.  Subject keys are numbered from ``start`` so
        block outputs are globally consistent.

        The draw chunk is capped at ``count`` lanes (``max_lanes``), which
        fixes the block's output.  The child round fans out to one lane per
        child row; guided sampling draws those chunks as groups of one
        session of up to ``batch_lanes`` lanes, so a block scores its whole
        fan-out together while each chunk's draw stays block-sized.
        """
        with obs.span("stage.generate", attrs={"start": start, "count": count}):
            if len(self.synthesizers) == 2:
                flat, _ = self._two_round_flat(count, seed, subject_offset=start,
                                               max_lanes=count)
            else:
                flat = self.synthesizers[0].sample_flat(count, seed=seed,
                                                        subject_offset=start,
                                                        max_lanes=count)
        with obs.span("stage.decode", attrs={"rows": flat.num_rows}):
            flat = self.enhancer.inverse_transform(flat)
            if self.subject_column in flat.column_names:
                flat = flat.drop(self.subject_column)
        return flat

    def iter_sample_flat(self, n_subjects: int | None = None, seed: int | None = None,
                         chunk_rows: int = 256):
        """Yield the synthetic flat view in independently seeded blocks.

        Blocks follow :func:`block_plan`, i.e. the serving layer's sharding
        scheme, so concatenating the yielded tables equals
        ``SynthesisService.sample_table(n, seed)`` at ``block_size ==
        chunk_rows`` — while holding only one block in memory.  Validation
        is eager.
        """
        n = self._resolve_n(n_subjects)
        seed = self.config.seed if seed is None else seed
        plan = block_plan(n, seed, chunk_rows)

        def blocks():
            for start, count, block_seed in plan:
                yield self.sample_block(start, count, block_seed)
        return blocks()

    # -- persistence ----------------------------------------------------------------

    def save(self, path, compress: bool = False, registry=None) -> str:
        """Persist this fitted pipeline as a bundle; returns the digest.

        With ``registry`` set (a registry directory), the parts go through
        the content-addressed store at that root instead of a bundle file
        and ``path`` is ignored — the returned digest addresses the
        artifact for :meth:`load` and ``serve --registry``.
        """
        if registry is not None:
            from repro.registry import Registry

            return Registry(registry).save(self, compress=compress).digest
        from repro.store.bundle import save_fitted_pipeline

        return save_fitted_pipeline(self, path, compress=compress)

    @staticmethod
    def load(path, mmap: bool = False, registry=None) -> "FittedPipeline":
        """Load a fitted pipeline bundle saved by :meth:`save`.

        With ``registry`` set, ``path`` is the artifact digest (or a unique
        prefix) inside that registry instead of a file path.
        """
        if registry is not None:
            from repro.registry import Registry

            return Registry(registry).load(str(path), mmap=mmap)[0]
        from repro.store.bundle import load_fitted_pipeline

        return load_fitted_pipeline(path, mmap=mmap)[0]


class MultiTablePipeline:
    """Base class: preparation, enhancement plumbing and evaluation reference."""

    #: subclasses set this to the label used in reports
    name = "base"

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()

    # -- preparation ---------------------------------------------------------------------

    def _drop_excluded(self, table: Table) -> Table:
        subject = self.config.subject_column
        to_drop = [
            name for name in table.column_names
            if name != subject and (
                name in self.config.drop_columns or name in DIGIX_NOISY_COLUMNS
            )
        ]
        return table.drop(to_drop) if to_drop else table

    def prepare(self, first: Table, second: Table) -> PreparedTables:
        """Clean both child tables, extract the merged contextual parent, and
        build the flat original reference used by the fidelity evaluation."""
        subject = self.config.subject_column
        first = self._drop_excluded(first)
        second = self._drop_excluded(second)

        detector = ContextualVariableDetector(self.config.contextual_consistency)
        first_split = extract_parent_table(first, subject, detector=detector)
        second_split = extract_parent_table(second, subject, detector=detector)
        parent = merge_contextual_parents(first_split, second_split)

        flat_children = direct_flatten(first_split.child, second_split.child, subject)
        original_flat = left_join(flat_children, parent, on=subject)
        original_flat = original_flat.drop(subject)

        return PreparedTables(
            parent=parent,
            first_child=first_split.child,
            second_child=second_split.child,
            original_flat=original_flat,
            subject_column=subject,
        )

    # -- enhancement plumbing -------------------------------------------------------------

    def _build_enhancer(self) -> DataSemanticEnhancer:
        return DataSemanticEnhancer(self.config.enhancer)

    def _enhance(self, enhancer: DataSemanticEnhancer, reference: Table,
                 parent: Table, child: Table) -> tuple[Table, Table]:
        """Fit the mapping on the flat reference and enhance parent and child."""
        enhancer.fit_transform(reference)
        return enhancer.transform(parent), enhancer.transform(child)

    # -- synthesis plumbing -------------------------------------------------------------

    def _fit_synthesizer(self, parent: Table, child: Table,
                         subject: str) -> ParentChildSynthesizer:
        """Fit one parent/child synthesizer on an (enhanced) table pair."""
        synthesizer = ParentChildSynthesizer(self.config.parent_child())
        synthesizer.fit(parent, child, subject)
        return synthesizer

    # -- public API -----------------------------------------------------------------------

    def fit(self, first: Table, second: Table) -> FittedPipeline:
        """Prepare and train, returning a persistable :class:`FittedPipeline`.

        Subclasses implement :meth:`_fit_prepared`.
        """
        prepared = self.prepare(first, second)
        return self._fit_prepared(prepared)

    def run(self, first: Table, second: Table) -> SynthesisResult:
        """One-shot convenience: ``fit(first, second).sample()``."""
        return self.fit(first, second).sample()

    def _fit_prepared(self, prepared: PreparedTables) -> FittedPipeline:
        raise NotImplementedError
