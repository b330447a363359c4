"""Unit tests for repro.frame.table."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.frame.errors import (
    ColumnNotFoundError,
    DuplicateColumnError,
    LengthMismatchError,
    SchemaError,
)
from repro.frame.table import Table


class TestConstruction:
    def test_from_mapping(self):
        table = Table({"a": [1, 2], "b": ["x", "y"]})
        assert table.shape == (2, 2)
        assert table.column_names == ["a", "b"]

    def test_from_records_preserves_key_order(self):
        table = Table.from_records([{"b": 1, "a": 2}, {"b": 3, "a": 4}])
        assert table.column_names == ["b", "a"]

    def test_from_records_fills_missing_keys(self):
        table = Table.from_records([{"a": 1}, {"a": 2, "b": 5}])
        assert table.column("b").values == [None, 5]

    def test_from_records_explicit_columns(self):
        table = Table.from_records([{"a": 1, "b": 2}], columns=["b", "a"])
        assert table.column_names == ["b", "a"]

    def test_empty_table(self):
        table = Table()
        assert table.shape == (0, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            Table({"a": [1, 2], "b": [1]})

    def test_duplicate_columns_rejected(self):
        from repro.frame.column import Column
        with pytest.raises(DuplicateColumnError):
            Table([Column("a", [1]), Column("a", [2])])

    def test_table_without_columns_has_the_given_rows(self):
        table = Table(num_rows=3)
        assert table.shape == (3, 0)
        assert list(table.iter_rows()) == [{}, {}, {}]
        assert table != Table()

    def test_num_rows_must_match_the_columns(self):
        assert Table({"a": [1, 2]}, num_rows=2).num_rows == 2
        with pytest.raises(LengthMismatchError):
            Table({"a": [1, 2]}, num_rows=3)

    def test_copy_is_independent(self, small_table):
        copied = small_table.copy()
        assert copied == small_table
        assert copied is not small_table


class TestAccess:
    def test_column_access_by_name(self, small_table):
        assert small_table["age"].values == [25, 31, 25, 40]

    def test_missing_column_raises(self, small_table):
        with pytest.raises(ColumnNotFoundError):
            small_table.column("nope")

    def test_row_access(self, small_table):
        assert small_table.row(0) == {"name": "Grace", "age": 25, "score": 0.5, "city": "Austin"}

    def test_row_out_of_range(self, small_table):
        with pytest.raises(IndexError):
            small_table.row(10)

    def test_slice_returns_rows(self, small_table):
        head = small_table[:2]
        assert head.num_rows == 2
        assert head.column("name").values == ["Grace", "Yin"]

    def test_select_by_list(self, small_table):
        selected = small_table[["city", "name"]]
        assert selected.column_names == ["city", "name"]

    def test_invalid_key_type(self, small_table):
        with pytest.raises(TypeError):
            small_table[3]

    def test_contains(self, small_table):
        assert "age" in small_table
        assert "salary" not in small_table

    def test_to_records_round_trip(self, small_table):
        rebuilt = Table.from_records(small_table.to_records())
        assert rebuilt == small_table

    def test_dtypes(self, small_table):
        dtypes = small_table.dtypes()
        assert dtypes["age"] == "int"
        assert dtypes["score"] == "float"
        assert dtypes["name"] == "str"


class TestColumnManipulation:
    def test_drop_single(self, small_table):
        assert "age" not in small_table.drop("age").column_names

    def test_drop_missing_column_raises(self, small_table):
        with pytest.raises(ColumnNotFoundError):
            small_table.drop("missing")

    def test_select_nothing_keeps_the_row_count(self):
        table = Table({"a": [1, 2]}).select([])
        assert table.shape == (2, 0)
        assert list(table.iter_rows()) == [{}, {}]
        assert table.to_records() == [{}, {}]

    def test_drop_every_column_keeps_the_row_count(self, small_table):
        table = small_table.drop(small_table.column_names)
        assert table.num_rows == small_table.num_rows == 4
        assert list(table.iter_rows()) == [{}] * 4

    def test_rows_of_a_table_without_columns(self, small_table):
        table = small_table.select([])
        assert table.take([0, 0, 3, 1, 2]).num_rows == 5
        assert table.copy().num_rows == 4
        assert table.row(3) == {}

    def test_rename(self, small_table):
        renamed = small_table.rename({"age": "years"})
        assert "years" in renamed.column_names
        assert renamed.column("years").values == small_table.column("age").values

    def test_rename_to_existing_name_rejected(self, small_table):
        with pytest.raises(DuplicateColumnError):
            small_table.rename({"age": "name"})

    def test_with_column_adds(self, small_table):
        extended = small_table.with_column("flag", [1, 0, 1, 0])
        assert extended.column("flag").values == [1, 0, 1, 0]

    def test_with_column_replaces(self, small_table):
        replaced = small_table.with_column("age", [1, 2, 3, 4])
        assert replaced.column("age").values == [1, 2, 3, 4]

    def test_with_column_length_checked(self, small_table):
        with pytest.raises(LengthMismatchError):
            small_table.with_column("flag", [1])

    def test_map_column(self, small_table):
        doubled = small_table.map_column("age", lambda v: v * 2)
        assert doubled.column("age").values == [50, 62, 50, 80]

    def test_reorder(self, small_table):
        reordered = small_table.reorder(["city", "score", "age", "name"])
        assert reordered.column_names == ["city", "score", "age", "name"]

    def test_reorder_requires_permutation(self, small_table):
        with pytest.raises(SchemaError):
            small_table.reorder(["city", "score"])


class TestRowManipulation:
    def test_take(self, small_table):
        taken = small_table.take([3, 0])
        assert taken.column("name").values == ["Maya", "Grace"]

    def test_filter(self, small_table):
        young = small_table.filter(lambda row: row["age"] < 30)
        assert young.num_rows == 2

    def test_where(self, small_table):
        assert small_table.where("city", "Austin").num_rows == 2

    def test_where_in(self, small_table):
        assert small_table.where_in("city", ["Austin", "Denver"]).num_rows == 3

    def test_sort_by(self, small_table):
        ordered = small_table.sort_by("age")
        assert ordered.column("age").values == [25, 25, 31, 40]

    def test_sort_by_reverse(self, small_table):
        ordered = small_table.sort_by("age", reverse=True)
        assert ordered.column("age").values[0] == 40

    def test_drop_duplicates_full_row(self):
        table = Table({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert table.drop_duplicates().num_rows == 2

    def test_drop_duplicates_subset(self):
        table = Table({"a": [1, 1, 2], "b": ["x", "z", "y"]})
        deduped = table.drop_duplicates(subset=["a"])
        assert deduped.num_rows == 2
        assert deduped.column("b").values == ["x", "y"]

    def test_sample_rows_with_replacement(self, small_table):
        sampled = small_table.sample_rows(10, rng=random.Random(0))
        assert sampled.num_rows == 10

    def test_sample_rows_without_replacement_limits(self, small_table):
        with pytest.raises(ValueError):
            small_table.sample_rows(10, rng=random.Random(0), replace=False)

    def test_sample_from_empty_table_raises(self):
        with pytest.raises(ValueError):
            Table({"a": []}).sample_rows(1)

    def test_shuffle_preserves_multiset(self, small_table):
        shuffled = small_table.shuffle(rng=random.Random(3))
        assert shuffled.equals_ignoring_order(small_table)


class TestGrouping:
    def test_group_by_returns_subtables(self, small_table):
        groups = small_table.group_by("city")
        assert set(groups) == {"Austin", "Boston", "Denver"}
        assert groups["Austin"].num_rows == 2

    def test_group_indices(self, small_table):
        indices = small_table.group_indices("city")
        assert indices["Austin"] == [0, 2]

    def test_unique_values(self, small_table):
        assert small_table.unique_values("age") == [25, 31, 40]


class TestEquality:
    def test_equality_is_order_sensitive(self, small_table):
        assert small_table != small_table.take([1, 0, 2, 3])

    def test_equals_ignoring_order(self, small_table):
        assert small_table.equals_ignoring_order(small_table.take([3, 2, 1, 0]))

    def test_equals_ignoring_order_detects_difference(self, small_table):
        other = small_table.with_column("age", [1, 2, 3, 4])
        assert not small_table.equals_ignoring_order(other)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_drop_duplicates_idempotent_property(values):
    """Property: dropping duplicates twice is the same as dropping them once."""
    table = Table({"a": values})
    once = table.drop_duplicates()
    twice = once.drop_duplicates()
    assert once == twice
    assert once.num_rows == len(set(values))


@given(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from("xyz")), min_size=1, max_size=30),
)
def test_group_by_partitions_rows_property(pairs):
    """Property: group_by partitions the rows (sizes sum to the total)."""
    table = Table({"key": [p[0] for p in pairs], "val": [p[1] for p in pairs]})
    groups = table.group_by("key")
    assert sum(sub.num_rows for sub in groups.values()) == table.num_rows
