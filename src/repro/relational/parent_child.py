"""REaLTabFormer-style parent/child synthesizer.

Two coupled synthesizers: the parent synthesizer learns the one-row-per-subject
parent table; the child synthesizer learns the child table *conditioned on* the
parent observation (the parent columns are prepended to the child row in the
textual encoding, and at sampling time they form the generation prompt).  The
paper instantiates two ``realtabformer`` objects with 10 epochs and 5 batches
(Sec. 4.1.4); this class exposes the same pair with the same hyper-parameters
on the offline LM substrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.frame.column import Column
from repro.frame.errors import ColumnNotFoundError
from repro.frame.ops import value_counts
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer


@dataclass(frozen=True)
class ParentChildConfig:
    """Hyper-parameters of the parent/child synthesizer pair.

    ``children_per_parent`` controls how many child rows are generated per
    sampled parent row; ``"match"`` (the default) reproduces the empirical
    distribution of children-per-subject observed at fit time, an integer uses
    a fixed count.
    """

    parent: GReaTConfig = field(default_factory=GReaTConfig)
    child: GReaTConfig = field(default_factory=GReaTConfig)
    children_per_parent: int | str = "match"
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.children_per_parent, str):
            if self.children_per_parent != "match":
                raise ValueError("children_per_parent must be an integer or 'match'")
        elif self.children_per_parent < 1:
            raise ValueError("children_per_parent must be at least 1")


class ParentChildSynthesizer:
    """Fit on a (parent, child) pair of tables; sample a synthetic pair."""

    def __init__(self, config: ParentChildConfig | None = None):
        self.config = config or ParentChildConfig()
        self._parent_synth = GReaTSynthesizer(self.config.parent)
        self._child_synth = GReaTSynthesizer(self.config.child)
        self._subject_column: str | None = None
        self._parent_columns: list[str] = []
        self._child_columns: list[str] = []
        self._children_per_subject: list[int] = []

    @property
    def is_fitted(self) -> bool:
        return self._subject_column is not None

    @classmethod
    def _from_fitted_state(cls, config: ParentChildConfig,
                           parent_synth: GReaTSynthesizer,
                           child_synth: GReaTSynthesizer,
                           subject_column: str,
                           parent_columns: list[str],
                           child_columns: list[str],
                           children_per_subject: list[int]) -> "ParentChildSynthesizer":
        """Reconstruct a fitted pair from persisted state (see :mod:`repro.store`)."""
        synth = cls(config)
        synth._parent_synth = parent_synth
        synth._child_synth = child_synth
        synth._subject_column = subject_column
        synth._parent_columns = list(parent_columns)
        synth._child_columns = list(child_columns)
        synth._children_per_subject = [int(c) for c in children_per_subject]
        return synth

    def fit(self, parent: Table, child: Table, subject_column: str) -> "ParentChildSynthesizer":
        """Fit the parent synthesizer on *parent* and the child synthesizer on
        the child rows augmented with their parent's columns."""
        if subject_column not in parent.column_names:
            raise ColumnNotFoundError(subject_column, parent.column_names)
        if subject_column not in child.column_names:
            raise ColumnNotFoundError(subject_column, child.column_names)

        subjects = parent.column(subject_column).values
        if len(set(subjects)) != len(subjects):
            raise ValueError(
                "subject column {!r} is not unique in the parent table "
                "({} rows, {} distinct subjects); a parent table must have "
                "exactly one row per subject — extract it with "
                "repro.relational.contextual.extract_parent_table first".format(
                    subject_column, len(subjects), len(set(subjects))))

        self._subject_column = subject_column
        self._parent_columns = list(parent.column_names)
        self._child_columns = [name for name in child.column_names if name != subject_column]

        # record the empirical children-per-subject distribution for sampling.
        # ``value_counts`` orders ties differently across storage backends, so
        # the list is pinned by subject key to keep ``rng.choice`` draws
        # reproducible regardless of backend or Python version.
        counts = value_counts(child, subject_column)
        self._children_per_subject = [
            count for _, count in sorted(counts.items(), key=lambda item: str(item[0]))
        ] or [1]

        self._parent_synth.fit(parent)

        # child training rows carry the parent columns as conditioning
        # context; the conditioned table is assembled column-wise (one parent
        # row index per child row, then a gather per column) instead of
        # building a dict per row
        parent_row_index = {subject: index for index, subject in enumerate(subjects)}
        child_parents = [parent_row_index.get(subject)
                         for subject in child.column(subject_column).values]
        kept = [row for row, parent_idx in enumerate(child_parents)
                if parent_idx is not None]
        if not kept:
            raise ValueError("no child rows reference a parent subject; cannot fit")
        columns: dict = {}
        for name in self._parent_columns:
            values = parent.column(name).values
            columns[name] = [values[child_parents[row]] for row in kept]
        for name in self._child_columns:
            values = child.column(name).values
            columns[name] = [values[row] for row in kept]
        conditioned = Table(columns)
        self._child_synth.fit(conditioned)
        return self

    def _require_fitted(self):
        if not self.is_fitted:
            raise RuntimeError("call fit() before sampling")

    def sample(self, n_parents: int, seed: int | None = None,
               subject_offset: int = 0,
               max_lanes: int | None = None) -> tuple[Table, Table]:
        """Sample *n_parents* parent rows and their conditioned child rows.

        Returns ``(parent_table, child_table)``; the child table repeats each
        synthetic subject's key on every generated child row, reproducing the
        one-to-many structure of the training data.  ``subject_offset``
        shifts the synthetic subject numbering, so independently seeded
        blocks (the serving layer's sharding unit) produce globally unique,
        position-stable keys.  ``max_lanes`` caps the draw chunk of both
        rounds (see :meth:`GReaTSynthesizer.sample`), and so fixes the
        output; the child prompts fan out to one lane per child row, and
        guided sampling runs those chunks as draw groups of sessions up to
        ``batch_lanes`` lanes wide.
        """
        self._require_fitted()
        if n_parents <= 0:
            raise ValueError("n_parents must be positive")
        seed = self.config.seed if seed is None else seed
        rng = random.Random(seed)

        parent_table = self._parent_synth.sample(n_parents, seed=seed,
                                                 max_lanes=max_lanes)
        # synthetic subjects get fresh unique keys so child rows can reference them
        synthetic_subjects = ["synthetic_subject_{}".format(subject_offset + i)
                              for i in range(n_parents)]
        parent_table = parent_table.with_column(self._subject_column, synthetic_subjects)

        # every parent's children ride in one conditioned mega-batch, grouped
        # in parent order: one prompt per child row, generated in a single
        # engine pass, so the generated columns are the child columns
        children_counts = [self._draw_children_count(rng) for _ in range(n_parents)]
        features = [name for name in self._parent_columns if name != self._subject_column]
        prompts: list[dict] = []
        for prompt, n_children in zip(parent_table.select(features).iter_rows(),
                                      children_counts):
            prompts.extend([prompt] * n_children)
        generated = self._child_synth.sample_conditional(prompts, seed=seed + 1,
                                                         max_lanes=max_lanes)
        subjects = [subject for subject, n_children
                    in zip(synthetic_subjects, children_counts)
                    for _ in range(n_children)]
        child_table = Table([Column(self._subject_column, subjects),
                             *generated.select(self._child_columns).columns])
        return parent_table, child_table

    def sample_all(self, n_parents: int, seed: int | None = None,
                   subject_offset: int = 0,
                   max_lanes: int | None = None) -> tuple[Table, Table, Table]:
        """Sample once and return ``(parent, child, flat)``.

        The flat view is *derived* from the sampled pair by joining each child
        row with its parent's columns, so pair and flat view are guaranteed
        consistent and generation runs exactly once.
        """
        parent_table, child_table = self.sample(n_parents, seed=seed,
                                                subject_offset=subject_offset,
                                                max_lanes=max_lanes)
        return parent_table, child_table, self.flatten_pair(parent_table, child_table)

    def flatten_pair(self, parent_table: Table, child_table: Table) -> Table:
        """Join a sampled (parent, child) pair into the flat evaluation view.

        Each child row gathers its parent's columns by position.  A column
        name both tables carry keeps the parent's position and the child's
        values.  The gathered columns keep the parent table's storage (dtype
        and category dictionary); for a sampled pair, whose children list
        every parent in parent order, that is the storage the values alone
        would give.
        """
        self._require_fitted()
        subject = self._subject_column
        position = {key: row for row, key in enumerate(parent_table.column(subject).values)}
        parents = parent_table.select(self._parent_columns).take(
            [position[key] for key in child_table.column(subject).values])
        return Table([child_table.column(name) if name in self._child_columns
                      else parents.column(name)
                      for name in dict.fromkeys(self._parent_columns + self._child_columns)])

    def sample_flat(self, n_parents: int, seed: int | None = None,
                    subject_offset: int = 0, max_lanes: int | None = None) -> Table:
        """Sample and return the child table joined with its parent columns.

        This flat view (every child row carrying its parent's contextual
        columns) is what the fidelity evaluation compares against the original
        flat data.
        """
        return self.sample_all(n_parents, seed=seed, subject_offset=subject_offset,
                               max_lanes=max_lanes)[2]

    def _draw_children_count(self, rng: random.Random) -> int:
        if isinstance(self.config.children_per_parent, int):
            return self.config.children_per_parent
        return rng.choice(self._children_per_subject)
