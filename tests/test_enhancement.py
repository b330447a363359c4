"""Tests for the Data Semantic Enhancement System (Sec. 3.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.enhancement.differentiability import DifferentiabilityTransform
from repro.enhancement.enhancer import DataSemanticEnhancer, EnhancerConfig
from repro.enhancement.mapping import ColumnMapping, MappingError, MappingSystem
from repro.enhancement.names_db import UniqueNameGenerator
from repro.enhancement.special import CaretToAndTransform, and_to_caret, caret_to_and
from repro.enhancement.understandability import (
    AGE_GROUPS,
    GENDER_LABELS,
    US_CITIES,
    UnderstandabilityTransform,
    default_digix_semantic_mappings,
)
from repro.frame.backend import using_backend
from repro.frame.table import Table
from repro.store.tablefmt import table_to_arrays


class TestUniqueNameGenerator:
    def test_names_are_unique(self):
        names = UniqueNameGenerator(seed=0).generate(500)
        assert len(set(names)) == 500

    def test_reserved_names_never_emitted(self):
        generator = UniqueNameGenerator(seed=0)
        probe = generator.next_name()
        reserved_generator = UniqueNameGenerator(seed=0, reserved={probe})
        assert probe not in reserved_generator.generate(50)

    def test_deterministic_given_seed(self):
        assert UniqueNameGenerator(seed=3).generate(10) == UniqueNameGenerator(seed=3).generate(10)

    def test_exhaustion_falls_back_to_suffixes(self):
        generator = UniqueNameGenerator(seed=1)
        count = 200 * 128 + 10  # more than the first-by-last product
        names = generator.generate(count)
        assert len(set(names)) == count

    def test_names_are_single_tokens(self):
        from repro.llm.tokenizer import WordTokenizer
        tokenizer = WordTokenizer()
        for name in UniqueNameGenerator(seed=2).generate(20):
            assert len(tokenizer.tokenize(name)) == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            UniqueNameGenerator().generate(-1)


class TestMappingSystem:
    def test_forward_and_inverse_round_trip(self, toy_table):
        system = MappingSystem().add_column("Lunch", {1: "Rice", 2: "Pasta", 3: "Curry"})
        transformed = system.transform(toy_table)
        assert set(transformed.column("Lunch").unique()) <= {"Rice", "Pasta", "Curry"}
        assert system.inverse_transform(transformed) == toy_table

    def test_non_bijective_mapping_rejected(self):
        with pytest.raises(MappingError):
            ColumnMapping("x", {1: "a", 2: "a"})

    def test_unknown_values_pass_through(self):
        mapping = ColumnMapping("x", {1: "a"})
        assert mapping.apply(99) == 99
        assert mapping.invert("zzz") == "zzz"

    def test_guarantees_differentiability_detects_cross_column_repeats(self):
        system = MappingSystem()
        system.add_column("a", {1: "same"})
        system.add_column("b", {1: "same"})
        assert not system.guarantees_differentiability()

    def test_save_and_load_round_trip(self, tmp_path, toy_table):
        system = MappingSystem().add_column("Lunch", {1: "Rice", 2: "Pasta", 3: "Curry"})
        path = system.save(tmp_path / "mapping.json")
        loaded = MappingSystem.load(path)
        assert loaded.transform(toy_table) == system.transform(toy_table)

    def test_destroy_prevents_further_use(self, toy_table):
        system = MappingSystem().add_column("Lunch", {1: "Rice"})
        system.destroy()
        assert system.is_destroyed
        with pytest.raises(MappingError):
            system.transform(toy_table)
        with pytest.raises(MappingError):
            system.inverse_transform(toy_table)

    def test_mapping_for_missing_column(self):
        with pytest.raises(MappingError):
            MappingSystem().mapping_for("nope")


class TestDifferentiabilityTransform:
    def test_total_categories_counts_all_selected_columns(self, toy_table):
        transform = DifferentiabilityTransform()
        columns = ["Lunch", "Dinner", "Access Device", "Genre"]
        expected = sum(toy_table.column(c).nunique() for c in columns)
        assert transform.total_categories(toy_table, columns) == expected

    def test_no_repeated_categories_after_transform(self, toy_table):
        """Sec. 3.2.1: the transformed table contains no repeating categories."""
        columns = ["Lunch", "Dinner", "Access Device", "Genre"]
        transformed, system = DifferentiabilityTransform(seed=0).fit_transform(toy_table, columns)
        all_values = []
        for name in columns:
            all_values.extend(transformed.column(name).unique())
        assert len(set(all_values)) == len(all_values)
        assert system.guarantees_differentiability()

    def test_inverse_restores_original(self, toy_table):
        columns = ["Lunch", "Dinner", "Access Device", "Genre"]
        transformed, system = DifferentiabilityTransform(seed=0).fit_transform(toy_table, columns)
        assert system.inverse_transform(transformed) == toy_table

    def test_minted_names_not_in_table(self, toy_table):
        table = toy_table.with_column("Name", ["James_Smith"] + toy_table.column("Name").values[1:])
        _, system = DifferentiabilityTransform(seed=0).fit_transform(table, ["Lunch"])
        assert "James_Smith" not in system.all_targets()

    def test_auto_selection_skips_identifiers(self):
        table = Table({
            "id": ["row{}".format(i) for i in range(50)],
            "category": [i % 3 for i in range(50)],
        })
        selected = DifferentiabilityTransform().select_columns(table)
        assert "category" in selected
        assert "id" not in selected

    def test_unknown_column_rejected(self, toy_table):
        with pytest.raises(KeyError):
            DifferentiabilityTransform().select_columns(toy_table, ["missing"])


class TestUnderstandabilityTransform:
    def test_designed_gender_mapping_used(self):
        table = Table({"gender": [2, 3, 4, 2, 3], "age": [2, 3, 4, 5, 6]})
        transformed, system = UnderstandabilityTransform(seed=0).fit_transform(table)
        assert set(transformed.column("gender").unique()) == {"male", "female", "others"}
        assert system.inverse_transform(transformed) == table

    def test_designed_mappings_have_71_cities(self):
        assert len(US_CITIES) == 71
        assert len(set(US_CITIES)) == 71
        assert len(default_digix_semantic_mappings()["residence"]) == 71

    def test_age_groups_cover_codes_2_to_8(self):
        assert sorted(AGE_GROUPS) == [2, 3, 4, 5, 6, 7, 8]
        assert sorted(GENDER_LABELS) == [2, 3, 4]

    def test_fallback_template_is_differentiable(self):
        table = Table({"slot": [1, 2, 1], "creat": [1, 2, 2]})
        _, system = UnderstandabilityTransform(seed=0).fit_transform(table)
        assert system.guarantees_differentiability()

    def test_fallback_names_mode(self):
        table = Table({"slot": [1, 2, 1]})
        transformed, _ = UnderstandabilityTransform(seed=0, fallback="names").fit_transform(table)
        assert all(isinstance(v, str) for v in transformed.column("slot"))

    def test_invalid_fallback_rejected(self):
        with pytest.raises(ValueError):
            UnderstandabilityTransform(fallback="llm")

    def test_mapping_also_guarantees_differentiability(self):
        """Sec. 3.2.2: the understandability mapping is also differentiable."""
        table = Table({"gender": [2, 3, 4], "age": [2, 3, 4], "slot": [2, 3, 4]})
        _, system = UnderstandabilityTransform(seed=0).fit_transform(table)
        assert system.guarantees_differentiability()


def _assert_same_storage(table, expected):
    """Equal ``table_to_arrays`` entry by entry: dtypes, categories, masks."""
    arrays, reference = table_to_arrays(table), table_to_arrays(expected)
    assert sorted(arrays) == sorted(reference)
    for key, array in arrays.items():
        assert array.dtype == reference[key].dtype, key
        assert array.tobytes() == reference[key].tobytes(), key


class TestCaretToAnd:
    def test_value_rewrite(self):
        assert caret_to_and("20^35^42^15^5") == "20 and 35 and 42 and 15 and 5"

    def test_inverse_rewrite(self):
        assert and_to_caret("20 and 35 and 42") == "20^35^42"

    def test_round_trip(self):
        value = "7^13^2"
        assert and_to_caret(caret_to_and(value)) == value

    def test_non_string_passes_through(self):
        assert caret_to_and(7) == 7
        assert and_to_caret(None) is None

    def test_plain_string_untouched(self):
        assert caret_to_and("hello") == "hello"

    def test_table_transform_selects_caret_columns(self):
        table = Table({"interests": ["1^2", "3^4"], "city": ["a", "b"]})
        transform = CaretToAndTransform()
        assert transform.select_columns(table) == ["interests"]
        transformed = transform.transform(table)
        assert transformed.column("interests").values == ["1 and 2", "3 and 4"]
        assert transform.inverse_transform(transformed) == table

    def test_explicit_missing_column_rejected(self):
        with pytest.raises(KeyError):
            CaretToAndTransform(columns=("missing",)).select_columns(Table({"a": [1]}))

    @pytest.mark.parametrize("backend", ["numpy", "object"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_table_matches_per_column_path(self, backend, data):
        """Both directions equal mapping one column after another with
        ``Table.map_column``, in storage as well as in values."""
        cell = st.one_of(st.none(), st.integers(-3, 3),
                         st.sampled_from(["1^2", "3^ 4^", "^", "a and b", "x", "5 and 6^7"]))
        n_rows = data.draw(st.integers(1, 5))
        names = data.draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4,
                                   unique=True))
        columns = {name: data.draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
                   for name in names}
        chosen = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(names),
                                                         min_size=1, max_size=3)))
        transform = CaretToAndTransform(columns=None if chosen is None else tuple(chosen))
        # the inverse skips listed names the table lacks
        inverse_names = data.draw(st.one_of(st.none(), st.just(tuple(names) + ("absent",))))
        inverse = CaretToAndTransform(columns=inverse_names)
        with using_backend(backend):
            table = Table(columns)
            expected = table
            for name in transform.select_columns(table):
                expected = expected.map_column(name, caret_to_and)
            _assert_same_storage(transform.transform(table), expected)
            restored = expected
            for name in names:  # every name of the table, either way
                restored = restored.map_column(name, and_to_caret)
            _assert_same_storage(inverse.inverse_transform(expected), restored)


class TestDataSemanticEnhancer:
    def test_semantic_level_none_is_identity(self, toy_table):
        enhancer = DataSemanticEnhancer(EnhancerConfig(semantic_level="none"))
        assert enhancer.fit_transform(toy_table) == toy_table
        assert enhancer.inverse_transform(toy_table) == toy_table

    def test_differentiability_round_trip(self, toy_table):
        enhancer = DataSemanticEnhancer(EnhancerConfig(semantic_level="differentiability"))
        enhanced = enhancer.fit_transform(toy_table)
        assert enhanced != toy_table
        assert enhancer.inverse_transform(enhanced) == toy_table

    def test_understandability_with_special_transform(self):
        table = Table({"gender": [2, 3, 2], "interests": ["1^2", "3^4", "5^6"]})
        enhancer = DataSemanticEnhancer(EnhancerConfig(
            semantic_level="understandability", apply_special_transform=True))
        enhanced = enhancer.fit_transform(table)
        assert "and" in enhanced.column("interests")[0]
        assert enhancer.inverse_transform(enhanced) == table

    def test_transform_applies_fitted_mapping_to_other_tables(self, toy_table):
        enhancer = DataSemanticEnhancer(EnhancerConfig(semantic_level="differentiability"))
        enhancer.fit_transform(toy_table)
        subset = toy_table.select(["Lunch", "Genre"])
        transformed = enhancer.transform(subset)
        assert transformed.column_names == ["Lunch", "Genre"]

    def test_destroy_mapping_blocks_inverse(self, toy_table):
        enhancer = DataSemanticEnhancer(EnhancerConfig(semantic_level="differentiability"))
        enhanced = enhancer.fit_transform(toy_table)
        enhancer.destroy_mapping()
        with pytest.raises(MappingError):
            enhancer.inverse_transform(enhanced)

    def test_requires_fit_before_use(self, toy_table):
        enhancer = DataSemanticEnhancer()
        with pytest.raises(MappingError):
            enhancer.inverse_transform(toy_table)

    def test_invalid_semantic_level_rejected(self):
        with pytest.raises(ValueError):
            EnhancerConfig(semantic_level="super")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=30),
       st.lists(st.integers(1, 6), min_size=2, max_size=30))
def test_differentiability_inverse_is_identity_property(first, second):
    """Property: transform followed by inverse transform restores the table."""
    n = min(len(first), len(second))
    table = Table({"a": first[:n], "b": second[:n]})
    transformed, system = DifferentiabilityTransform(seed=1).fit_transform(table, ["a", "b"])
    assert system.inverse_transform(transformed) == table


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=6), min_size=1, max_size=15))
def test_caret_round_trip_property(code_lists):
    """Property: caret→'and'→caret is the identity on caret-separated code lists."""
    values = ["^".join(str(code) for code in codes) for codes in code_lists]
    assert [and_to_caret(caret_to_and(v)) for v in values] == values
