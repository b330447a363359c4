"""The ``multitable`` pipeline: whole-database synthesis over a schema graph.

Unlike the paper pipelines (which take the DIGIX-like two-child-table
trial), :class:`MultiTableSchemaPipeline` takes *any* dict of tables —
typically a directory of CSVs — infers (or accepts) a
:class:`~repro.schema.graph.SchemaGraph`, and fits a
:class:`~repro.schema.multitable.MultiTableSynthesizer`.  It follows the
same fit/sample split as the other pipelines: :meth:`fit` returns a
persistable :class:`FittedMultiTablePipeline` whose
:meth:`~FittedMultiTablePipeline.sample_database` produces bit-identical
databases for identical seeds, in this process or a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frame.table import Table
from repro.pipelines.config import default_backbone_config
from repro.schema.graph import SchemaGraph
from repro.schema.inference import InferenceConfig
from repro.schema.multitable import MultiTableConfig, MultiTableSynthesizer


@dataclass(frozen=True)
class MultiTablePipelineConfig:
    """Configuration of the whole-database pipeline.

    The backbone hyper-parameters mirror the paper pipelines
    (:func:`repro.pipelines.config.default_backbone_config`); ``n_root_rows``
    plays the role of ``n_synthetic_subjects`` — ``None`` matches the
    training sizes of the root tables.
    """

    n_root_rows: int | None = None
    children_per_parent: int | str = "match"
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    generation_engine: str = "auto"
    training_engine: str = "auto"
    seed: int = 0

    def multitable(self) -> MultiTableConfig:
        """The synthesizer configuration derived from this pipeline config."""
        backbone = default_backbone_config(self.seed, engine=self.generation_engine,
                                           training_engine=self.training_engine)
        return MultiTableConfig(backbone=backbone,
                                children_per_parent=self.children_per_parent,
                                inference=self.inference, seed=self.seed)


@dataclass
class FittedMultiTablePipeline:
    """A trained whole-database pipeline: sample forever, never retrain.

    Persistable through :meth:`save` / :meth:`load` (see
    :mod:`repro.store.bundle`): a pipeline fitted in one process, saved and
    loaded in a fresh process produces byte-identical synthetic databases
    for identical seeds on both engines.
    """

    name: str
    config: MultiTablePipelineConfig
    synthesizer: MultiTableSynthesizer

    @property
    def graph(self) -> SchemaGraph:
        return self.synthesizer.graph

    def sample_database(self, n: int | dict | None = None,
                        seed: int | None = None) -> dict[str, Table]:
        """A whole synthetic database (see
        :meth:`repro.schema.multitable.MultiTableSynthesizer.sample_database`).

        *n* defaults to the config's ``n_root_rows`` and then to the
        training sizes; *seed* to the config seed.
        """
        if n is None:
            n = self.config.n_root_rows
        seed = self.config.seed if seed is None else seed
        return self.synthesizer.sample_database(n, seed=seed)

    def sample(self, n: int | dict | None = None, seed: int | None = None) -> dict[str, Table]:
        """Alias for :meth:`sample_database` (the pipelines' common verb)."""
        return self.sample_database(n, seed=seed)

    def iter_sample_database(self, n: int | dict | None = None,
                             seed: int | None = None, spool=None,
                             resume: bool = False):
        """Yield ``(name, table)`` pairs level by level, optionally spilling
        completed tables to *spool* so at most one table is in RAM (see
        :meth:`repro.schema.multitable.MultiTableSynthesizer.iter_sample_database`).
        ``resume=True`` restarts an interrupted spill, skipping tables whose
        spill already completed.  Defaults as in :meth:`sample_database`.
        """
        if n is None:
            n = self.config.n_root_rows
        seed = self.config.seed if seed is None else seed
        return self.synthesizer.iter_sample_database(n, seed=seed, spool=spool,
                                                     resume=resume)

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
        from repro.store.bundle import save_multitable_pipeline

        return save_multitable_pipeline(self, path, compress=compress)

    @staticmethod
    def load(path, mmap: bool = False, registry=None) -> "FittedMultiTablePipeline":
        """Load a fitted multitable-pipeline bundle saved by :meth:`save`.

        With ``registry`` set, ``path`` is the artifact digest (or a unique
        prefix) inside that registry instead of a file path.
        """
        if registry is not None:
            from repro.registry import Registry

            return Registry(registry).load(str(path), mmap=mmap)[0]
        from repro.store.bundle import load_multitable_pipeline

        return load_multitable_pipeline(path, mmap=mmap)[0]


class MultiTableSchemaPipeline:
    """Infer the schema graph, fit per-edge synthesizers, sample databases."""

    name = "multitable"

    def __init__(self, config: MultiTablePipelineConfig | None = None):
        self.config = config or MultiTablePipelineConfig()

    def fit(self, tables: dict[str, Table],
            graph: SchemaGraph | None = None) -> FittedMultiTablePipeline:
        """Fit on a whole database, returning a persistable fitted pipeline."""
        synthesizer = MultiTableSynthesizer(self.config.multitable())
        synthesizer.fit(tables, graph)
        return FittedMultiTablePipeline(name=self.name, config=self.config,
                                        synthesizer=synthesizer)

    def run(self, tables: dict[str, Table],
            graph: SchemaGraph | None = None) -> dict[str, Table]:
        """One-shot convenience: ``fit(tables, graph).sample_database()``."""
        return self.fit(tables, graph).sample_database()
