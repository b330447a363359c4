"""Unit tests for repro.frame.column."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame.backend import using_backend
from repro.frame.column import Column, coerce_value, infer_dtype
from repro.frame.table import Table
from repro.store.tablefmt import table_to_arrays


class TestInferDtype:
    def test_all_ints(self):
        assert infer_dtype([1, 2, 3]) == "int"

    def test_mixed_int_float_is_float(self):
        assert infer_dtype([1, 2.5]) == "float"

    def test_all_strings(self):
        assert infer_dtype(["a", "b"]) == "str"

    def test_int_and_string_is_mixed(self):
        assert infer_dtype([1, "a"]) == "mixed"

    def test_only_missing_is_empty(self):
        assert infer_dtype([None, None]) == "empty"

    def test_nan_counts_as_missing(self):
        assert infer_dtype([float("nan"), 3]) == "int"

    def test_bools_are_bool(self):
        assert infer_dtype([True, False]) == "bool"

    def test_numpy_scalars(self):
        assert infer_dtype([np.int64(3), np.int64(4)]) == "int"
        assert infer_dtype([np.float64(3.5)]) == "float"


class TestCoerceValue:
    def test_numpy_int_becomes_python_int(self):
        value = coerce_value(np.int32(7))
        assert value == 7 and type(value) is int

    def test_numpy_float_becomes_python_float(self):
        value = coerce_value(np.float64(7.5))
        assert value == 7.5 and type(value) is float

    def test_numpy_bool_becomes_python_bool(self):
        value = coerce_value(np.bool_(True))
        assert value is True

    def test_plain_values_pass_through(self):
        assert coerce_value("x") == "x"
        assert coerce_value(None) is None


class TestColumnBasics:
    def test_requires_non_empty_name(self):
        with pytest.raises(ValueError):
            Column("", [1, 2])

    def test_len_and_getitem(self):
        col = Column("a", [10, 20, 30])
        assert len(col) == 3
        assert col[1] == 20

    def test_slice_returns_column(self):
        col = Column("a", [10, 20, 30])
        sliced = col[:2]
        assert isinstance(sliced, Column)
        assert sliced.values == [10, 20]

    def test_equality_requires_same_name_and_values(self):
        assert Column("a", [1]) == Column("a", [1])
        assert Column("a", [1]) != Column("b", [1])
        assert Column("a", [1]) != Column("a", [2])

    def test_columns_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Column("a", [1]))

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            Column("a", [1], dtype="decimal")

    def test_repr_contains_name_and_dtype(self):
        text = repr(Column("age", [1, 2, 3]))
        assert "age" in text and "int" in text


class TestColumnIntrospection:
    def test_is_numeric(self):
        assert Column("a", [1, 2]).is_numeric()
        assert Column("a", [1.5]).is_numeric()
        assert not Column("a", ["x"]).is_numeric()

    def test_missing_count(self):
        assert Column("a", [1, None, float("nan"), 4]).missing_count() == 2

    def test_is_categorical_like_small_cardinality(self):
        values = [1, 2, 3] * 30
        assert Column("a", values).is_categorical_like()

    def test_is_categorical_like_rejects_identifiers(self):
        values = list(range(500))
        assert not Column("a", values).is_categorical_like()

    def test_empty_column_is_not_categorical(self):
        assert not Column("a", []).is_categorical_like()


class TestColumnTransforms:
    def test_rename_keeps_values(self):
        col = Column("a", [1, 2]).rename("b")
        assert col.name == "b" and col.values == [1, 2]

    def test_map_applies_function(self):
        col = Column("a", [1, 2, 3]).map(lambda v: v * 10)
        assert col.values == [10, 20, 30]

    def test_astype_str(self):
        col = Column("a", [1, None, 3]).astype("str")
        assert col.values == ["1", None, "3"]

    def test_astype_int_parses_strings(self):
        col = Column("a", ["4", "5"]).astype("int")
        assert col.values == [4, 5]

    def test_astype_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            Column("a", [1]).astype("bool")

    def test_take_reorders(self):
        col = Column("a", [10, 20, 30]).take([2, 0])
        assert col.values == [30, 10]


class TestColumnStatistics:
    def test_unique_preserves_first_seen_order(self):
        assert Column("a", [3, 1, 3, 2, 1]).unique() == [3, 1, 2]

    def test_unique_skips_missing(self):
        assert Column("a", [None, 1, None]).unique() == [1]

    def test_nunique(self):
        assert Column("a", [1, 1, 2]).nunique() == 2

    def test_value_counts(self):
        assert Column("a", ["x", "y", "x"]).value_counts() == {"x": 2, "y": 1}

    def test_to_numpy_numeric_handles_missing(self):
        arr = Column("a", [1, None, 3]).to_numpy()
        assert arr.dtype == float
        assert math.isnan(arr[1])

    def test_to_numpy_object_for_strings(self):
        arr = Column("a", ["x", "y"]).to_numpy()
        assert arr.dtype == object


@given(st.lists(st.one_of(st.integers(-1000, 1000), st.none()), max_size=50))
def test_unique_values_are_distinct_property(values):
    """Property: unique() never contains duplicates or missing values."""
    unique = Column("a", values).unique()
    assert len(unique) == len(set(unique))
    assert None not in unique


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=50))
def test_value_counts_sum_to_length_property(values):
    """Property: value counts sum to the number of non-missing values."""
    counts = Column("a", values).value_counts()
    assert sum(counts.values()) == len(values)


# -- codes to columns: from_codes and categorical map against the value path ----------

_ENTRY_FAMILIES = {
    "str": st.one_of(st.sampled_from(["a", "b", "ab", ""]),
                     st.sampled_from(["a", "b"]).map(np.str_)),
    "int": st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(np.int64)),
    "float": st.one_of(st.sampled_from([0.5, -0.0, 1.0, 2.25]), st.integers(-2, 2)),
    "bool": st.one_of(st.booleans(), st.booleans().map(np.bool_)),
}
#: ``1``, ``1.0`` and ``True`` compare equal but are different values
_ANY_ENTRY = st.one_of(*_ENTRY_FAMILIES.values(), st.sampled_from([1, 1.0, True]))


@st.composite
def _dictionaries(draw):
    """Entries of one kind or of any kinds, with missing entries (``None``,
    NaN) mixed in."""
    family = draw(st.sampled_from([*_ENTRY_FAMILIES, "any"]))
    entry = _ANY_ENTRY if family == "any" else _ENTRY_FAMILIES[family]
    missing = st.sampled_from([None, math.nan, np.float64("nan")])
    return draw(st.lists(st.one_of(entry, entry, entry, missing), min_size=1, max_size=6))


@st.composite
def _codes_cases(draw):
    dictionary = draw(_dictionaries())
    codes = draw(st.lists(st.integers(-1, len(dictionary) - 1), max_size=14))
    return np.asarray(codes, dtype=np.int64), dictionary


def _assert_same_column(column, reference):
    """Equal dtype, storage kind, values and ``table_to_arrays`` bytes."""
    assert column.dtype == reference.dtype
    assert column.backend_kind == reference.backend_kind
    assert column.values == reference.values
    assert [type(v) for v in column.values] == [type(v) for v in reference.values]
    arrays = table_to_arrays(Table([column]))
    expected = table_to_arrays(Table([reference]))
    assert sorted(arrays) == sorted(expected)
    for key, array in arrays.items():
        assert array.dtype == expected[key].dtype, key
        assert array.tobytes() == expected[key].tobytes(), key


_POLICIES = ("auto", "object")


class TestFromCodes:
    @pytest.mark.parametrize("policy", _POLICIES)
    @settings(max_examples=150, deadline=None)
    @given(case=_codes_cases())
    def test_matches_value_path(self, policy, case):
        codes, dictionary = case
        with using_backend(policy):
            column = Column.from_codes("c", codes, dictionary)
            reference = Column("c", [None if c < 0 else dictionary[c] for c in codes])
        _assert_same_column(column, reference)

    @pytest.mark.parametrize("dictionary", [[1, True, 1.0], [1.0, 1, 1], [True, False, 1]])
    def test_equal_but_distinct_entries_stay_distinct(self, dictionary):
        codes = np.asarray([2, 0, -1, 1, 0], dtype=np.int64)
        reference = Column("c", [None if c < 0 else dictionary[c] for c in codes])
        _assert_same_column(Column.from_codes("c", codes, dictionary), reference)

    def test_category_order_is_first_seen_in_rows(self):
        column = Column.from_codes("c", np.asarray([2, 1, 2, 0]), ["x", "y", "z"])
        assert column.categories() == ["z", "y", "x"]
        assert column.codes().tolist() == [0, 1, 0, 2]

    def test_codes_below_minus_one_are_missing(self):
        column = Column.from_codes("c", np.asarray([0, -3, 1]), [4, 5])
        assert column.values == [4, None, 5]
        assert column.validity_mask().tolist() == [True, False, True]

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            Column.from_codes("", np.asarray([0]), ["a"])


#: functions a categorical ``map`` may apply: non-injective, mapping to
#: missing values, to mixed kinds, and giving missing rows a value
_MAP_FUNCS = [
    lambda v: None if v is None else len(v) % 2,
    lambda v: math.nan if v == "a" else v,
    lambda v: {"a": 1, "b": 1.0, "ab": True}.get(v, v),
    lambda v: "none" if v is None else v.upper(),
    lambda v: float(len(v)) if v else None,
    lambda v: np.int64(7) if v == "b" else 7,
    str,
]


class TestCategoricalMap:
    @pytest.mark.parametrize("policy", _POLICIES)
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.one_of(st.none(), st.sampled_from(["a", "b", "ab", ""])),
                           max_size=12),
           func=st.sampled_from(_MAP_FUNCS), rows=st.data())
    def test_matches_value_path(self, policy, values, func, rows):
        column = Column("c", values)
        if values and rows.draw(st.booleans()):
            # a gathered column whose dictionary holds unused categories
            column = column.take(rows.draw(st.lists(st.integers(0, len(values) - 1),
                                                    max_size=8)))
        with using_backend(policy):
            mapped = column.map(func)
            reference = Column("c", [func(v) for v in column])
        _assert_same_column(mapped, reference)

    def test_maps_each_category_once(self):
        calls = []
        column = Column("c", ["a", "b", "a", None, "b", None])
        mapped = column.map(lambda v: calls.append(v) or v)
        assert calls == ["a", "b", None]
        assert mapped == column
