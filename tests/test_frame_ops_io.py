"""Unit tests for repro.frame.ops and repro.frame.io."""

import pytest
from hypothesis import given, strategies as st

from repro.frame.errors import ColumnNotFoundError, SchemaError
from repro.frame.io import read_csv, write_csv
from repro.frame.ops import concat_rows, crosstab, inner_join, left_join, value_counts
from repro.frame.table import Table


@pytest.fixture
def left_table():
    return Table({"id": ["a", "a", "b", "c"], "x": [1, 2, 3, 4]})


@pytest.fixture
def right_table():
    return Table({"id": ["a", "b", "b", "d"], "y": ["p", "q", "r", "s"]})


class TestInnerJoin:
    def test_join_produces_cross_product_per_key(self, left_table, right_table):
        joined = inner_join(left_table, right_table, on="id")
        # 'a': 2x1, 'b': 1x2, 'c': 0, 'd': 0 -> 4 rows
        assert joined.num_rows == 4
        assert set(joined.column_names) == {"id", "x", "y"}

    def test_join_values_line_up(self, left_table, right_table):
        joined = inner_join(left_table, right_table, on="id")
        rows = {(r["id"], r["x"], r["y"]) for r in joined.iter_rows()}
        assert ("a", 1, "p") in rows and ("b", 3, "r") in rows

    def test_missing_key_column_raises(self, left_table, right_table):
        with pytest.raises(ColumnNotFoundError):
            inner_join(left_table, right_table, on="nope")

    def test_name_clash_gets_suffix(self):
        left = Table({"id": ["a"], "v": [1]})
        right = Table({"id": ["a"], "v": [2]})
        joined = inner_join(left, right, on="id")
        assert "v" in joined.column_names and "v_y" in joined.column_names

    def test_engaged_subject_dominates(self):
        """The Fig. 4 blow-up: an engaged subject contributes a*b rows."""
        left = Table({"id": ["yin"] * 4 + ["anson"], "x": list(range(5))})
        right = Table({"id": ["yin", "yin", "anson"], "y": list(range(3))})
        joined = inner_join(left, right, on="id")
        yin_rows = joined.where("id", "yin").num_rows
        assert yin_rows == 8
        assert joined.num_rows == 9


class TestLeftJoin:
    def test_unmatched_left_rows_kept_with_none(self, left_table, right_table):
        joined = left_join(left_table, right_table, on="id")
        c_rows = joined.where("id", "c")
        assert c_rows.num_rows == 1
        assert c_rows.column("y").values == [None]

    def test_left_join_superset_of_inner(self, left_table, right_table):
        inner = inner_join(left_table, right_table, on="id")
        left = left_join(left_table, right_table, on="id")
        assert left.num_rows >= inner.num_rows


class TestConcatRows:
    def test_concat_matching_schemas(self):
        a = Table({"x": [1], "y": ["a"]})
        b = Table({"y": ["b"], "x": [2]})
        combined = concat_rows([a, b])
        assert combined.num_rows == 2
        assert combined.column("x").values == [1, 2]

    def test_concat_mismatched_schema_rejected(self):
        a = Table({"x": [1]})
        b = Table({"z": [2]})
        with pytest.raises(SchemaError):
            concat_rows([a, b])

    def test_concat_empty_list(self):
        assert concat_rows([]).num_rows == 0

    def test_concat_tables_without_columns_adds_their_rows(self):
        table = Table({"a": [1, 2]}).select([])
        combined = concat_rows([table, table, Table(num_rows=3)])
        assert combined.num_rows == 7
        assert combined.num_columns == 0


class TestValueCountsAndCrosstab:
    def test_value_counts(self, left_table):
        counts = value_counts(left_table, "id")
        assert counts["a"] == 2

    def test_value_counts_normalized(self, left_table):
        freqs = value_counts(left_table, "id", normalize=True)
        assert abs(sum(freqs.values()) - 1.0) < 1e-12

    def test_crosstab_counts(self):
        table = Table({"a": ["x", "x", "y"], "b": [1, 2, 1]})
        matrix, rows, cols = crosstab(table, "a", "b")
        assert matrix.sum() == 3
        assert matrix[rows.index("x"), cols.index(1)] == 1

    def test_crosstab_skips_missing(self):
        table = Table({"a": ["x", None], "b": [1, 2]})
        matrix, _, _ = crosstab(table, "a", "b")
        assert matrix.sum() == 1


class TestCsvRoundTrip:
    def test_round_trip_preserves_values(self, tmp_path, small_table):
        path = write_csv(small_table, tmp_path / "table.csv")
        loaded = read_csv(path)
        assert loaded == small_table

    def test_missing_values_round_trip(self, tmp_path):
        table = Table({"a": [1, None, 3], "b": ["x", "y", None]})
        loaded = read_csv(write_csv(table, tmp_path / "t.csv"))
        assert loaded.column("a").values == [1, None, 3]
        assert loaded.column("b").values == ["x", "y", None]

    def test_read_without_type_parsing(self, tmp_path, small_table):
        path = write_csv(small_table, tmp_path / "t.csv")
        loaded = read_csv(path, parse_types=False)
        assert loaded.column("age").values == ["25", "31", "25", "40"]

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert read_csv(path).num_rows == 0


@given(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=20),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=20),
)
def test_inner_join_row_count_property(left_keys, right_keys):
    """Property: the join size is the sum over keys of count_left * count_right."""
    left = Table({"id": left_keys, "x": list(range(len(left_keys)))})
    right = Table({"id": right_keys, "y": list(range(len(right_keys)))})
    joined = inner_join(left, right, on="id")
    expected = sum(
        left_keys.count(key) * right_keys.count(key) for key in set(left_keys) | set(right_keys)
    )
    assert joined.num_rows == expected
