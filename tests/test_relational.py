"""Tests for contextual-variable extraction and the parent/child synthesizer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.frame.backend import using_backend
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.relational.contextual import (
    ContextualVariableDetector,
    extract_parent_table,
    merge_contextual_parents,
)
from repro.relational.parent_child import ParentChildConfig, ParentChildSynthesizer
from repro.schema.graph import ForeignKey
from repro.schema.multitable import EdgeSynthesizer
from repro.store.tablefmt import table_to_arrays


def _fast_pc_config(seed=0):
    backbone = GReaTConfig(
        fine_tune=FineTuneConfig(epochs=2, batches=2, model=ModelConfig(order=4)),
        seed=seed,
    )
    return ParentChildConfig(parent=backbone, child=backbone, seed=seed)


class TestContextualVariableDetector:
    def test_consistency_of_constant_column(self, membership_tables):
        visits, _, subject = membership_tables
        detector = ContextualVariableDetector()
        assert detector.column_consistency(visits, subject, "gender") == 1.0

    def test_consistency_of_varying_column(self, membership_tables):
        visits, _, subject = membership_tables
        detector = ContextualVariableDetector()
        assert detector.column_consistency(visits, subject, "visit_date") < 1.0

    def test_contextual_columns_detected(self, membership_tables):
        visits, _, subject = membership_tables
        detector = ContextualVariableDetector()
        assert set(detector.contextual_columns(visits, subject)) >= {"gender", "birth_date"}

    def test_threshold_allows_exceptions(self):
        """A column consistent for most (not all) subjects still counts (m < 100%)."""
        table = Table({
            "id": ["a"] * 3 + ["b"] * 3 + ["c"] * 3 + ["d"] * 3,
            "ctx": ["x", "x", "x", "y", "y", "y", "z", "z", "z", "w", "w", "v"],
        })
        strict = ContextualVariableDetector(consistency_threshold=1.0)
        lenient = ContextualVariableDetector(consistency_threshold=0.7)
        assert "ctx" not in strict.contextual_columns(table, "id")
        assert "ctx" in lenient.contextual_columns(table, "id")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            ContextualVariableDetector(consistency_threshold=0.0)

    def test_missing_columns_rejected(self, membership_tables):
        visits, _, subject = membership_tables
        detector = ContextualVariableDetector()
        with pytest.raises(KeyError):
            detector.column_consistency(visits, "nope", "gender")
        with pytest.raises(KeyError):
            detector.column_consistency(visits, subject, "nope")


class TestExtractParentTable:
    def test_fig11_parent_matches_ground_truth(self, membership_tables):
        """Fig. 11/12: gender and birth date form the parent table."""
        visits, expected_parent, subject = membership_tables
        split = extract_parent_table(visits, subject)
        assert split.parent.equals_ignoring_order(expected_parent)
        assert set(split.contextual_columns) == {"gender", "birth_date"}

    def test_child_keeps_varying_columns_and_key(self, membership_tables):
        visits, _, subject = membership_tables
        split = extract_parent_table(visits, subject)
        assert split.child.column_names == [subject, "visit_date", "spend"]
        assert split.child.num_rows == visits.num_rows

    def test_explicit_contextual_columns(self, membership_tables):
        visits, _, subject = membership_tables
        split = extract_parent_table(visits, subject, contextual_columns=["gender"])
        assert split.contextual_columns == ("gender",)
        assert "birth_date" in split.child.column_names

    def test_modal_value_used_for_inconsistent_subject(self):
        table = Table({
            "id": ["a", "a", "a"],
            "ctx": ["x", "x", "y"],
        })
        split = extract_parent_table(table, "id", contextual_columns=["ctx"])
        assert split.parent.column("ctx").values == ["x"]

    def test_merge_parents_unions_columns(self, membership_tables):
        visits, _, subject = membership_tables
        first = extract_parent_table(visits, subject, contextual_columns=["gender"])
        second = extract_parent_table(visits, subject, contextual_columns=["birth_date"])
        merged = merge_contextual_parents(first, second)
        assert set(merged.column_names) == {subject, "gender", "birth_date"}
        assert merged.num_rows == first.parent.num_rows

    def test_merge_parents_requires_same_subject(self, membership_tables):
        visits, _, subject = membership_tables
        first = extract_parent_table(visits, subject)
        renamed = visits.rename({subject: "other_id"})
        second = extract_parent_table(renamed, "other_id")
        with pytest.raises(ValueError):
            merge_contextual_parents(first, second)


class TestParentChildSynthesizer:
    @pytest.fixture
    def parent_child(self, membership_tables):
        visits, _, subject = membership_tables
        split = extract_parent_table(visits, subject)
        return split.parent, split.child, subject

    def test_fit_and_sample_shapes(self, parent_child):
        parent, child, subject = parent_child
        synth = ParentChildSynthesizer(_fast_pc_config()).fit(parent, child, subject)
        synthetic_parent, synthetic_child = synth.sample(4, seed=1)
        assert synthetic_parent.num_rows == 4
        assert synthetic_parent.column_names == parent.column_names
        assert set(synthetic_child.column_names) == set(child.column_names)
        assert synthetic_child.num_rows >= 4

    def test_every_child_row_references_a_synthetic_parent(self, parent_child):
        parent, child, subject = parent_child
        synth = ParentChildSynthesizer(_fast_pc_config()).fit(parent, child, subject)
        synthetic_parent, synthetic_child = synth.sample(3, seed=2)
        parents = set(synthetic_parent.column(subject))
        assert set(synthetic_child.column(subject)) <= parents

    def test_sample_flat_contains_parent_and_child_columns(self, parent_child):
        parent, child, subject = parent_child
        synth = ParentChildSynthesizer(_fast_pc_config()).fit(parent, child, subject)
        flat = synth.sample_flat(3, seed=3)
        for name in parent.column_names + [c for c in child.column_names if c != subject]:
            assert name in flat.column_names

    def test_fixed_children_per_parent(self, parent_child):
        parent, child, subject = parent_child
        config = ParentChildConfig(parent=_fast_pc_config().parent,
                                   child=_fast_pc_config().child,
                                   children_per_parent=2, seed=0)
        synth = ParentChildSynthesizer(config).fit(parent, child, subject)
        _, synthetic_child = synth.sample(3, seed=4)
        assert synthetic_child.num_rows == 6

    def test_sampled_values_come_from_training_support(self, parent_child):
        parent, child, subject = parent_child
        synth = ParentChildSynthesizer(_fast_pc_config()).fit(parent, child, subject)
        _, synthetic_child = synth.sample(3, seed=5)
        observed_spend = set(child.column("spend").unique())
        assert set(synthetic_child.column("spend").unique()) <= observed_spend

    def test_requires_fit_before_sample(self):
        with pytest.raises(RuntimeError):
            ParentChildSynthesizer(_fast_pc_config()).sample(1)

    def test_duplicate_parent_subjects_rejected(self, parent_child):
        """A parent table with repeated subjects would silently mis-group the
        children (last row wins); fit must refuse it loudly instead."""
        parent, child, subject = parent_child
        subjects = parent.column(subject).values
        subjects[0] = subjects[1]
        duplicated = parent.with_column(subject, subjects)
        with pytest.raises(ValueError, match="not unique"):
            ParentChildSynthesizer(_fast_pc_config()).fit(duplicated, child, subject)

    def test_missing_subject_column_rejected(self, parent_child):
        parent, child, subject = parent_child
        with pytest.raises(KeyError):
            ParentChildSynthesizer(_fast_pc_config()).fit(parent.drop(subject).with_column("x", [1] * parent.num_rows), child, subject)

    def test_invalid_children_per_parent(self):
        with pytest.raises(ValueError):
            ParentChildConfig(children_per_parent=0)
        with pytest.raises(ValueError):
            ParentChildConfig(children_per_parent="lots")

    def test_invalid_sample_size(self, parent_child):
        parent, child, subject = parent_child
        synth = ParentChildSynthesizer(_fast_pc_config()).fit(parent, child, subject)
        with pytest.raises(ValueError):
            synth.sample(0)

    def test_children_per_subject_deterministic_across_backends(self, parent_child):
        """Regression: the children-per-subject list is pinned by subject key,
        so ``rng.choice`` draws reproduce across storage backends (whose
        ``value_counts`` tie ordering differs)."""
        parent, child, subject = parent_child
        distributions = {}
        for backend in ("object", "numpy"):
            with using_backend(backend):
                rebuilt_parent = Table.from_records(parent.to_records())
                rebuilt_child = Table.from_records(child.to_records())
                synth = ParentChildSynthesizer(_fast_pc_config())
                synth.fit(rebuilt_parent, rebuilt_child, subject)
                distributions[backend] = list(synth._children_per_subject)
        assert distributions["object"] == distributions["numpy"]

    def test_sample_all_flat_consistent_with_pair(self, parent_child):
        """The flat view is derived from the sampled pair, never regenerated."""
        parent, child, subject = parent_child
        synth = ParentChildSynthesizer(_fast_pc_config()).fit(parent, child, subject)
        parent_table, child_table, flat = synth.sample_all(3, seed=6)
        assert flat.num_rows == child_table.num_rows
        assert flat == synth.flatten_pair(parent_table, child_table)
        # every flat row restates its child row's values
        child_columns = [name for name in child.column_names if name != subject]
        for flat_row, child_row in zip(flat.iter_rows(), child_table.iter_rows()):
            for name in child_columns:
                assert flat_row[name] == child_row[name]

    def test_sample_flat_matches_sample_all(self, parent_child):
        parent, child, subject = parent_child
        synth = ParentChildSynthesizer(_fast_pc_config()).fit(parent, child, subject)
        assert synth.sample_flat(3, seed=8) == synth.sample_all(3, seed=8)[2]


# -- column-gather assembly against the row-dict assembly it replaced ---------------

#: cell strategies per column kind; ``None`` (and NaN for floats) is missing
_CELLS = {
    "int": st.integers(-3, 3),
    "float": st.one_of(st.floats(-2, 2, allow_nan=False), st.integers(-1, 1),
                       st.just(float("nan"))),
    "str": st.sampled_from(["a", "b", "New York", ""]),
    "bool": st.booleans(),
    "mixed": st.one_of(st.integers(0, 2), st.sampled_from(["x", "y"]), st.booleans()),
}


def _values(draw, kind: str, n: int) -> list:
    return draw(st.lists(st.one_of(st.none(), _CELLS[kind]), min_size=n, max_size=n))


class _Replay:
    """A fitted synthesizer stand-in that replays drawn values.

    ``sample`` returns the drawn parent rows; ``sample_conditional`` echoes
    the prompts and fills the child columns from a drawn pool, building its
    table from value lists like the real synthesizer does.
    """

    def __init__(self, columns: dict):
        self.columns = columns

    def sample(self, n, seed=None, max_lanes=None):
        return Table({name: values[:n] for name, values in self.columns.items()})

    def sample_conditional(self, prompts, seed=None, max_lanes=None):
        echoed = {name: [prompt[name] for prompt in prompts] for name in prompts[0]}
        pool = {name: values[:len(prompts)] for name, values in self.columns.items()}
        return Table({**echoed, **pool})


@st.composite
def _pair_synthesizers(draw):
    """A pair synthesizer over replayed parents and children.

    Parents have 0-3 feature columns besides the subject key; the child
    columns may reuse some parent feature names, in any order; every parent
    draws 1-4 children from the ``"match"`` distribution.
    """
    n_parents = draw(st.integers(1, 5))
    kinds = sorted(_CELLS)
    parent_kinds = draw(st.lists(st.sampled_from(kinds), max_size=3))
    child_kinds = draw(st.lists(st.sampled_from(kinds), max_size=3))
    parent = {"id": ["real_{}".format(i) for i in range(n_parents)]}
    for index, kind in enumerate(parent_kinds):
        parent["p{}_{}".format(index, kind)] = _values(draw, kind, n_parents)
    child_names = ["c{}_{}".format(index, kind) for index, kind in enumerate(child_kinds)]
    if parent_kinds:
        child_names += draw(st.lists(st.sampled_from(list(parent)[1:]), unique=True))
    children = {"id": ["generated"] * (4 * n_parents)}
    for name in draw(st.permutations(child_names)):
        children[name] = _values(draw, name.rsplit("_", 1)[1], 4 * n_parents)
    synth = ParentChildSynthesizer._from_fitted_state(
        ParentChildConfig(), _Replay(parent), _Replay(children), "id",
        parent_columns=list(parent), child_columns=list(children)[1:],
        children_per_subject=draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    return synth, n_parents, draw(st.integers(0, 2 ** 16)), draw(st.randoms())


def _reference_sample(synth, n_parents: int, seed: int):
    """``ParentChildSynthesizer.sample`` as row dicts and ``Table.from_records``."""
    subject = synth._subject_column
    rng = random.Random(seed)
    parent_table = synth._parent_synth.sample(n_parents, seed=seed)
    subjects = ["synthetic_subject_{}".format(i) for i in range(n_parents)]
    parent_table = parent_table.with_column(subject, subjects)
    counts = [synth._draw_children_count(rng) for _ in range(n_parents)]
    prompts = []
    for parent_row, n_children in zip(parent_table.iter_rows(), counts):
        prompt = {name: parent_row[name] for name in synth._parent_columns if name != subject}
        prompts.extend([prompt] * n_children)
    generated = synth._child_synth.sample_conditional(prompts, seed=seed + 1).iter_rows()
    records = []
    for key, n_children in zip(subjects, counts):
        for _ in range(n_children):
            row = next(generated)
            records.append({subject: key, **{name: row[name] for name in synth._child_columns}})
    return parent_table, Table.from_records(records, columns=[subject] + synth._child_columns)


def _reference_flatten(synth, parent_table, child_table):
    """``ParentChildSynthesizer.flatten_pair`` as row dicts."""
    subject = synth._subject_column
    parent_by_subject = {row[subject]: row for row in parent_table.iter_rows()}
    records = []
    for row in child_table.iter_rows():
        record = dict(parent_by_subject[row[subject]])
        record.update({name: row[name] for name in synth._child_columns})
        records.append(record)
    return Table.from_records(records, columns=synth._parent_columns + synth._child_columns)


def _assert_same_storage(table, expected):
    """Equal ``table_to_arrays`` entry by entry: dtypes, categories, masks."""
    arrays, reference = table_to_arrays(table), table_to_arrays(expected)
    assert sorted(arrays) == sorted(reference)
    for key, array in arrays.items():
        assert array.dtype == reference[key].dtype, key
        assert array.tobytes() == reference[key].tobytes(), key


class TestColumnAssembly:
    @pytest.mark.parametrize("backend", ["numpy", "object"])
    @settings(max_examples=40, deadline=None)
    @given(case=_pair_synthesizers())
    def test_matches_row_dict_assembly(self, backend, case):
        synth, n_parents, seed, shuffler = case
        with using_backend(backend):
            parent_table, child_table, flat = synth.sample_all(n_parents, seed=seed)
            expected_parent, expected_child = _reference_sample(synth, n_parents, seed)
            _assert_same_storage(parent_table, expected_parent)
            _assert_same_storage(child_table, expected_child)
            _assert_same_storage(flat, _reference_flatten(synth, expected_parent, expected_child))
            # children out of parent order still join to their own parent
            order = list(range(child_table.num_rows))
            shuffler.shuffle(order)
            shuffled = child_table.take(order)
            assert (synth.flatten_pair(parent_table, shuffled).to_dict()
                    == _reference_flatten(synth, parent_table, shuffled).to_dict())

    def test_fit_with_child_keeping_parent_columns(self, membership_tables):
        """A child table that still carries parent columns samples and flattens;
        the shared names keep the parent's position and the child's values."""
        visits, _, subject = membership_tables
        parent = extract_parent_table(visits, subject).parent
        synth = ParentChildSynthesizer(_fast_pc_config()).fit(parent, visits, subject)
        parent_table, child_table, flat = synth.sample_all(3, seed=4)
        extra = [name for name in visits.column_names if name not in parent.column_names]
        assert flat.column_names == parent.column_names + extra
        _assert_same_storage(flat, _reference_flatten(synth, parent_table, child_table))

    @pytest.mark.parametrize("backend", ["numpy", "object"])
    def test_flatten_unsampled_pair_keeps_parent_storage(self, backend):
        """Outside a sampled pair (a childless parent, children out of parent
        order) the gathered columns keep the parent table's storage: dtype
        and category dictionary are not re-inferred from the values."""
        with using_backend(backend):
            parent = Table({"id": ["s0", "s1", "s2"], "size": [1, 2, "big"],
                            "colour": ["red", "blue", "green"]})
            child = Table({"id": ["s1", "s0", "s1"], "n": [3, 4, 5]})
            synth = ParentChildSynthesizer._from_fitted_state(
                ParentChildConfig(), None, None, "id", parent_columns=parent.column_names,
                child_columns=["n"], children_per_subject=[1])
            flat = synth.flatten_pair(parent, child)
            assert flat.to_dict() == {"id": ["s1", "s0", "s1"], "size": [2, 1, 2],
                                      "colour": ["blue", "red", "blue"], "n": [3, 4, 5]}
            _assert_same_storage(flat.select(parent.column_names), parent.take([1, 0, 1]))
            # the values alone would make ``size`` an int column
            assert flat.column("size").dtype == "mixed"
            assert Table(flat.to_dict()).column("size").dtype == "int"

    @pytest.mark.parametrize("backend", ["numpy", "object"])
    def test_edge_without_child_slots_yields_empty_columns(self, backend):
        """All counts 0: no prompts, and empty-dtype child feature columns."""
        with using_backend(backend):
            parent = Table({"pk": ["a", "b", "c"], "size": [1, 2, 1]})
            child = Table({"fk": ["a", "a", "b"], "colour": ["red", "blue", "red"],
                           "n": [1, 2, 3]})
            edge = EdgeSynthesizer(_fast_pc_config().child,
                                   ForeignKey("child", "fk", "parent", "pk"))
            edge.fit(parent, child, parent_features=["size"], child_features=["colour", "n"])
            children = edge.sample_children([{"size": 1}, {"size": 2}], [0, 0], seed=3)
            assert children.dtypes() == {"colour": "empty", "n": "empty"}
            _assert_same_storage(children, Table({"colour": [], "n": []}))
