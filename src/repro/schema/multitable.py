"""Whole-database synthesis over a schema graph.

:class:`MultiTableSynthesizer` generalizes the parent/child pair of
:mod:`repro.relational.parent_child` to arbitrary acyclic multi-table
schemas: root tables get a plain GReaT synthesizer over their feature
columns, and every foreign-key edge gets an :class:`EdgeSynthesizer` — the
child's feature columns learned *conditioned on* the parent's feature
columns, plus the empirical children-per-parent distribution (zero-children
parents included).  Sampling walks the graph root-to-leaf and returns one
coherent database: every parent row gets fresh surrogate keys, every child
row carries its sampled parent's key, so depth > 2 (grandchildren),
multiple child tables per parent and standalone tables all come out
referentially intact from one seed.

Determinism is structural: each table's draws come from a seed derived
from ``(database seed, position in the deterministic topological order)``
via :func:`derive_seed`, and a table's output depends only on its own seed
and its parent's sampled rows — never on *when* it is sampled.  Sampling
tables of one depth level concurrently (the serving layer does) therefore
produces bit-identical output to the serial walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.frame.ops import value_counts
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.engine import derive_seed
from repro.schema.graph import ForeignKey, SchemaGraph, SchemaGraphError
from repro.schema.inference import InferenceConfig, infer_schema

#: Named sub-streams of a table's derived seed (see
#: :func:`repro.llm.engine.derive_seed`).
_TABLE_STREAM = 17   # (database seed, table index) -> table seed
_COUNTS_STREAM = 1   # children-per-parent draws
_VALUES_STREAM = 2   # the edge/root synthesizer's generation pass
_SECONDARY_STREAM = 3  # secondary foreign-key assignment


@dataclass(frozen=True)
class MultiTableConfig:
    """Hyper-parameters of the whole-database synthesizer.

    ``backbone`` is the GReaT configuration shared by every per-table and
    per-edge synthesizer; ``children_per_parent`` matches the empirical
    distribution by default or pins a fixed count; ``key_format`` shapes the
    surrogate keys; ``inference`` configures schema inference when
    :meth:`MultiTableSynthesizer.fit` is not handed an explicit graph.
    """

    backbone: GReaTConfig = field(default_factory=GReaTConfig)
    children_per_parent: int | str = "match"
    key_format: str = "{table}_{index}"
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.children_per_parent, str):
            if self.children_per_parent != "match":
                raise ValueError("children_per_parent must be an integer or 'match'")
        elif self.children_per_parent < 0:
            raise ValueError("children_per_parent must be non-negative")
        if "{table}" not in self.key_format or "{index}" not in self.key_format:
            raise ValueError("key_format must contain {table} and {index}")


class EdgeSynthesizer:
    """One foreign-key edge: the child's features conditioned on the parent's.

    The conditioned training table prepends the parent's feature columns to
    every child row (joined through the key columns of the edge), exactly
    like the parent/child synthesizer's child half — but keyed by an
    arbitrary primary-key/foreign-key pair and aware of zero-children
    parents, so the sampled child-per-parent counts reproduce the full
    empirical distribution, gaps included.
    """

    def __init__(self, config: GReaTConfig, fk: ForeignKey,
                 children_per_parent: int | str = "match"):
        self.fk = fk
        self.children_per_parent = children_per_parent
        self._synth = GReaTSynthesizer(config)
        self._parent_features: list[str] = []
        self._child_features: list[str] = []
        self._prompt_names: dict[str, str] = {}
        self._children_per_parent_counts: list[int] = []

    @property
    def is_fitted(self) -> bool:
        return self._synth.is_fitted

    @classmethod
    def _from_fitted_state(cls, config: GReaTConfig, fk: ForeignKey,
                           children_per_parent: int | str,
                           synth: GReaTSynthesizer,
                           parent_features: list[str], child_features: list[str],
                           prompt_names: dict[str, str],
                           counts: list[int]) -> "EdgeSynthesizer":
        """Reconstruct a fitted edge from persisted state (see :mod:`repro.store`)."""
        edge = cls(config, fk, children_per_parent)
        edge._synth = synth
        edge._parent_features = list(parent_features)
        edge._child_features = list(child_features)
        edge._prompt_names = dict(prompt_names)
        edge._children_per_parent_counts = [int(c) for c in counts]
        return edge

    def fit(self, parent: Table, child: Table, parent_features: list[str],
            child_features: list[str]) -> "EdgeSynthesizer":
        fk = self.fk
        if child.num_rows == 0:
            raise SchemaGraphError("table {!r} has no rows to fit on".format(fk.table))
        if not parent_features and not child_features:
            raise SchemaGraphError(
                "edge {} has no feature columns on either side".format(fk.edge_name))
        self._parent_features = list(parent_features)
        self._child_features = list(child_features)
        # parent features colliding with child feature names are prefixed in
        # the conditioned encoding, deterministically
        self._prompt_names = {
            name: ("{}.{}".format(fk.parent_table, name)
                   if name in set(child_features) else name)
            for name in parent_features
        }

        keys = parent.column(fk.parent_column).values
        if len(set(keys)) != len(keys):
            raise SchemaGraphError(
                "key column {}.{} is not unique ({} rows, {} distinct)".format(
                    fk.parent_table, fk.parent_column, len(keys), len(set(keys))))
        parent_row_index = {key: index for index, key in enumerate(keys)}

        # empirical children-per-parent distribution, *including* parents
        # with zero children, pinned by stringified key for cross-backend
        # determinism (cf. ParentChildSynthesizer)
        counts = value_counts(child, fk.column)
        per_parent = {key: 0 for key in keys}
        for value, count in counts.items():
            if value in per_parent:
                per_parent[value] += count
        self._children_per_parent_counts = [
            count for _, count in sorted(per_parent.items(), key=lambda item: str(item[0]))
        ] or [1]

        child_parents = [parent_row_index.get(value)
                         for value in child.column(fk.column).values]
        kept = [row for row, parent_idx in enumerate(child_parents)
                if parent_idx is not None]
        if not kept:
            raise SchemaGraphError(
                "no rows of {!r} reference a key of {!r}; cannot fit edge {}".format(
                    fk.table, fk.parent_table, fk.edge_name))
        columns: dict = {}
        for name in self._parent_features:
            values = parent.column(name).values
            columns[self._prompt_names[name]] = [values[child_parents[row]] for row in kept]
        for name in self._child_features:
            values = child.column(name).values
            columns[name] = [values[row] for row in kept]
        self._synth.fit(Table(columns))
        return self

    def draw_counts(self, n_parents: int, rng: random.Random) -> list[int]:
        """Children-per-parent counts for *n_parents* sampled parent rows."""
        if isinstance(self.children_per_parent, int):
            return [self.children_per_parent] * n_parents
        return [rng.choice(self._children_per_parent_counts) for _ in range(n_parents)]

    def sample_children(self, parent_rows: list[dict], counts: list[int],
                        seed: int) -> Table:
        """The child feature columns, one row per child slot in parent order.

        ``parent_rows`` are the sampled parent feature rows; every parent's
        children ride in one conditioned mega-batch through the engine.
        With no child slots at all the columns are empty.
        """
        prompts: list[dict] = []
        for parent_row, n_children in zip(parent_rows, counts):
            prompt = {self._prompt_names[name]: parent_row[name]
                      for name in self._parent_features}
            prompts.extend([prompt] * n_children)
        generated = self._synth.sample_conditional(prompts, seed=seed)
        return generated.select(self._child_features)


class _SampledStore:
    """Accessor for the already-sampled tables of one database walk.

    In-memory mode (``spool=None``) keeps the tables in a dict — the
    historical behaviour.  Spill mode writes each completed table as an
    uncompressed NPZ part directory under *spool* and re-reads only the
    columns a downstream table actually needs (foreign keys, parent
    features), memory-mapped via :func:`repro.store.stream.
    part_table_column` — so a database walk holds at most one full table
    in RAM.  Both modes return identical values: the part round trip is
    lossless by construction.
    """

    def __init__(self, spool=None, resume: bool = False):
        self.spool = Path(spool) if spool is not None else None
        self.resume = bool(resume) and self.spool is not None
        self._tables: dict[str, Table] = {}
        if self.spool is not None:
            self.spool.mkdir(parents=True, exist_ok=True)

    def is_complete(self, name: str) -> bool:
        """Whether *name* already holds a completed (manifest-certified) spill."""
        if self.spool is None:
            return False
        from repro.store.stream import part_table_is_complete

        return part_table_is_complete(self.spool / name)

    def put(self, name: str, table: Table) -> None:
        if self.spool is None:
            self._tables[name] = table
            return
        from repro.store.stream import PartTableSink

        directory = self.spool / name
        if self.resume and directory.exists():
            # a crash mid-write can leave manifest-less part files; the table
            # regenerates deterministically from its own seed, so the safe
            # resume is to clear the torn remains and rewrite whole
            for stray in sorted(directory.glob("part-*.npz")):
                stray.unlink()
        with PartTableSink(directory) as sink:
            sink.write(table)

    def table(self, name: str) -> Table:
        if self.spool is None:
            return self._tables[name]
        from repro.store.stream import read_part_table

        return read_part_table(self.spool / name)

    def num_rows(self, name: str) -> int:
        if self.spool is None:
            return self._tables[name].num_rows
        from repro.store.stream import part_table_num_rows

        return part_table_num_rows(self.spool / name)

    def column_values(self, name: str, column: str) -> list:
        if self.spool is None:
            return self._tables[name].column(column).values
        from repro.store.stream import part_table_column

        return part_table_column(self.spool / name, column)

    def feature_rows(self, name: str, features: list[str]) -> list[dict]:
        """One dict per row holding just *features* (conditioning prompts)."""
        if self.spool is None:
            return self._tables[name].select(features).to_records()
        return Table({feature: self.column_values(name, feature) for feature in features},
                     num_rows=self.num_rows(name)).to_records()


class MultiTableSynthesizer:
    """Fit on a whole database; sample a whole coherent synthetic database."""

    def __init__(self, config: MultiTableConfig | None = None):
        self.config = config or MultiTableConfig()
        self._graph: SchemaGraph | None = None
        self._root_synths: dict[str, GReaTSynthesizer] = {}
        self._edges: dict[str, EdgeSynthesizer] = {}
        self._training_rows: dict[str, int] = {}

    @property
    def is_fitted(self) -> bool:
        return self._graph is not None

    @property
    def graph(self) -> SchemaGraph:
        self._require_fitted()
        return self._graph

    @classmethod
    def _from_fitted_state(cls, config: MultiTableConfig, graph: SchemaGraph,
                           root_synths: dict[str, GReaTSynthesizer],
                           edges: dict[str, EdgeSynthesizer],
                           training_rows: dict[str, int]) -> "MultiTableSynthesizer":
        """Reconstruct a fitted synthesizer from persisted state (see :mod:`repro.store`)."""
        synth = cls(config)
        synth._graph = graph
        synth._root_synths = dict(root_synths)
        synth._edges = dict(edges)
        synth._training_rows = {name: int(n) for name, n in training_rows.items()}
        return synth

    def _require_fitted(self):
        if not self.is_fitted:
            raise RuntimeError("call fit() before sampling")

    # -- fitting ---------------------------------------------------------------------

    def fit(self, tables: dict[str, Table],
            graph: SchemaGraph | None = None) -> "MultiTableSynthesizer":
        """Fit one synthesizer per root table and per foreign-key edge.

        When *graph* is omitted it is inferred from the data
        (:func:`repro.schema.inference.infer_schema`).  The graph is
        validated against the tables first — unique fully-populated primary
        keys, no dangling foreign keys, no cycles.
        """
        graph = graph or infer_schema(tables, self.config.inference)
        graph.validate_tables(tables)
        order = graph.topological_order()

        root_synths: dict[str, GReaTSynthesizer] = {}
        edges: dict[str, EdgeSynthesizer] = {}
        for name in order:
            table = tables[name]
            features = graph.feature_columns(name)
            fk = graph.primary_parent(name)
            if fk is None:
                if not features:
                    raise SchemaGraphError(
                        "root table {!r} has no feature columns to synthesize".format(name))
                if table.num_rows == 0:
                    raise SchemaGraphError("table {!r} has no rows to fit on".format(name))
                root_synths[name] = GReaTSynthesizer(self.config.backbone).fit(
                    table.select(features))
            else:
                edge = EdgeSynthesizer(self.config.backbone, fk,
                                       self.config.children_per_parent)
                edge.fit(tables[fk.parent_table], table,
                         parent_features=graph.feature_columns(fk.parent_table),
                         child_features=features)
                edges[name] = edge

        self._graph = graph
        self._root_synths = root_synths
        self._edges = edges
        self._training_rows = {name: tables[name].num_rows for name in order}
        return self

    # -- sampling --------------------------------------------------------------------

    def _resolve_root_n(self, name: str, n: int | dict | None) -> int:
        if isinstance(n, dict):
            resolved = n.get(name, self._training_rows[name])
        elif n is not None:
            resolved = n
        else:
            resolved = self._training_rows[name]
        if resolved <= 0:
            raise ValueError("root table {!r} needs a positive row count".format(name))
        return int(resolved)

    def _surrogate_keys(self, name: str, n: int) -> list[str]:
        return [self.config.key_format.format(table=name, index=i) for i in range(n)]

    def _sample_table(self, name: str, table_seed: int, sampled: _SampledStore,
                      n: int | dict | None) -> Table:
        """One table's synthetic rows given its (already sampled) parents."""
        graph = self._graph
        schema = graph.table(name)
        features = graph.feature_columns(name)
        fk = graph.primary_parent(name)

        if fk is None:
            n_rows = self._resolve_root_n(name, n)
            generated = self._root_synths[name].sample(
                n_rows, seed=derive_seed(table_seed, _VALUES_STREAM))
            columns: dict = {}
        else:
            edge = self._edges[name]
            parent_features = graph.feature_columns(fk.parent_table)
            parent_rows = sampled.feature_rows(fk.parent_table, parent_features)
            counts = edge.draw_counts(
                len(parent_rows), random.Random(derive_seed(table_seed, _COUNTS_STREAM)))
            generated = edge.sample_children(
                parent_rows, counts, seed=derive_seed(table_seed, _VALUES_STREAM))
            n_rows = sum(counts)
            parent_keys = sampled.column_values(fk.parent_table, fk.parent_column)
            columns = {fk.column: [key for key, count in zip(parent_keys, counts)
                                   for _ in range(count)]}
        for feature in features:
            columns[feature] = generated.column(feature)

        if schema.primary_key is not None:
            columns[schema.primary_key] = self._surrogate_keys(name, n_rows)

        # secondary foreign keys: referentially-intact draws from the
        # referenced parent's sampled keys, on their own named stream
        secondary = [other for other in sorted(graph.parents_of(name),
                                               key=lambda f: (f.column, f.parent_table))
                     if fk is None or other != fk]
        for index, other in enumerate(secondary):
            rng = random.Random(derive_seed(table_seed, _SECONDARY_STREAM, index))
            keys = sampled.column_values(other.parent_table, other.parent_column)
            columns[other.column] = [rng.choice(keys) for _ in range(n_rows)]

        return Table({name_: columns[name_] for name_ in schema.columns})

    def sample_database(self, n: int | dict | None = None,
                        seed: int | None = None) -> dict[str, Table]:
        """Sample a whole synthetic database, keyed like the training tables.

        *n* sets the root-table row counts: an integer applies to every
        root, a dict maps root names to counts, ``None`` matches the
        training sizes.  Child-table sizes follow the learned
        children-per-parent distributions.  This is the in-memory walk of
        :meth:`iter_sample_database`, in training-table order.
        """
        tables = dict(self.iter_sample_database(n, seed=seed))
        return {name: tables[name] for name in self._graph.table_names}

    def iter_sample_database(self, n: int | dict | None = None,
                             seed: int | None = None, spool=None,
                             resume: bool = False):
        """Yield ``(name, table)`` pairs of :meth:`sample_database` level by level.

        With *spool* (a fresh directory path), each completed table is
        spilled to disk as uncompressed NPZ parts and immediately dropped
        from RAM; downstream tables re-read the foreign keys and parent
        features they condition on via memory-mapped column reads.  The walk
        then holds at most one table in memory, and
        ``dict(iter_sample_database(n, seed))`` equals
        ``sample_database(n, seed)`` exactly — spilled or not, the per-table
        seeds are the same named streams.  Validation is eager.

        ``resume=True`` (requires *spool*) restarts an interrupted spill:
        tables whose spill completed (manifest present) are **not**
        regenerated — they are read back from disk and yielded as-is — and
        only the missing suffix of the walk is sampled.  Each table's seed
        is derived from ``(seed, its topological position)`` alone and
        conditioning reads parent rows from the spool, so the resumed run's
        spill directory is byte-identical to an uninterrupted one with the
        same arguments.
        """
        self._require_fitted()
        if resume and spool is None:
            raise ValueError("resume=True requires a spool directory")
        seed = self.config.seed if seed is None else seed
        order = self._graph.topological_order()
        table_seeds = {name: derive_seed(seed, _TABLE_STREAM, index)
                       for index, name in enumerate(order)}
        sampled = _SampledStore(spool, resume=resume)

        def tables():
            for level in self._graph.depth_levels():
                for name in level:
                    if sampled.resume and sampled.is_complete(name):
                        yield name, sampled.table(name)
                        continue
                    table = self._sample_table(name, table_seeds[name], sampled, n)
                    sampled.put(name, table)
                    yield name, table
        return tables()

    # -- persistence ------------------------------------------------------------------

    def save(self, path, compress: bool = False) -> str:
        """Persist this fitted synthesizer as a bundle; returns the digest."""
        from repro.store.bundle import save_multitable

        return save_multitable(self, path, compress=compress)

    @staticmethod
    def load(path) -> "MultiTableSynthesizer":
        """Load a fitted multi-table synthesizer bundle saved by :meth:`save`."""
        from repro.store.bundle import load_multitable

        return load_multitable(path)
