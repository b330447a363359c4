"""Tests for the relational schema subsystem (graph, inference, synthesis)."""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.relational import RetailConfig, generate_retail_like
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.pipelines.multitable import (
    FittedMultiTablePipeline,
    MultiTablePipelineConfig,
    MultiTableSchemaPipeline,
)
from repro.schema import (
    ForeignKey,
    InferenceConfig,
    MultiTableConfig,
    MultiTableSynthesizer,
    SchemaCycleError,
    SchemaGraph,
    SchemaGraphError,
    TableSchema,
    infer_primary_key,
    infer_schema,
)
from repro.serving import ServingConfig, ServingError, SynthesisService


def _fast_backbone(seed=0, engine="auto"):
    from repro.llm.sampler import SamplerConfig

    return GReaTConfig(
        fine_tune=FineTuneConfig(epochs=2, batches=2, model=ModelConfig(order=4),
                                 engine=engine),
        sampler=SamplerConfig(engine=engine),
        seed=seed,
    )


def _config(seed=0, engine="auto", **kwargs):
    return MultiTableConfig(backbone=_fast_backbone(seed, engine), seed=seed, **kwargs)


#: the ground-truth edges of the retail database
RETAIL_EDGES = {
    "items.order_id->orders.order_id",
    "orders.customer_id->customers.customer_id",
    "reviews.customer_id->customers.customer_id",
    "reviews.store_id->stores.store_id",
}


@pytest.fixture(scope="module")
def retail():
    return generate_retail_like(RetailConfig(n_customers=14, seed=5))


@pytest.fixture(scope="module")
def retail_graph(retail):
    return infer_schema(retail)


@pytest.fixture(scope="module")
def fitted_synth(retail, retail_graph):
    return MultiTableSynthesizer(_config()).fit(retail, retail_graph)


def _csv_bytes(table: Table) -> bytes:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.column_names)
    for row in table.iter_rows():
        writer.writerow(["" if row[name] is None else row[name]
                         for name in table.column_names])
    return buffer.getvalue().encode("utf-8")


def _assert_referentially_intact(database, graph):
    for fk in graph.foreign_keys:
        parent_keys = set(database[fk.parent_table].column(fk.parent_column).values)
        child_values = set(database[fk.table].column(fk.column).values)
        assert child_values <= parent_keys, fk.edge_name


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def _toy_graph():
    return SchemaGraph(
        tables=(
            TableSchema("a", ("a_id", "x"), ("str", "str"), primary_key="a_id"),
            TableSchema("b", ("b_id", "a_id", "y"), ("str", "str", "int"),
                        primary_key="b_id"),
            TableSchema("c", ("c_id", "b_id"), ("str", "str"), primary_key="c_id"),
        ),
        foreign_keys=(
            ForeignKey("b", "a_id", "a", "a_id"),
            ForeignKey("c", "b_id", "b", "b_id"),
        ),
    )


class TestSchemaGraph:
    def test_topological_order_parents_first(self, retail_graph):
        order = retail_graph.topological_order()
        position = {name: index for index, name in enumerate(order)}
        for fk in retail_graph.foreign_keys:
            assert position[fk.parent_table] < position[fk.table]

    def test_topological_order_is_deterministic(self, retail_graph):
        assert retail_graph.topological_order() == retail_graph.topological_order()
        reversed_graph = SchemaGraph(tables=tuple(reversed(retail_graph.tables)),
                                     foreign_keys=retail_graph.foreign_keys)
        assert reversed_graph.topological_order() == retail_graph.topological_order()

    def test_depth_levels_group_independent_tables(self, retail_graph):
        levels = retail_graph.depth_levels()
        assert [sorted(level) for level in levels] == [
            ["customers", "stores"], ["orders", "reviews"], ["items"]]

    def test_cycle_detection(self):
        graph = SchemaGraph(
            tables=(
                TableSchema("a", ("a_id", "b_id"), ("str", "str"), primary_key="a_id"),
                TableSchema("b", ("b_id", "a_id"), ("str", "str"), primary_key="b_id"),
            ),
            foreign_keys=(ForeignKey("a", "b_id", "b", "b_id"),
                          ForeignKey("b", "a_id", "a", "a_id")),
        )
        with pytest.raises(SchemaCycleError):
            graph.topological_order()

    def test_self_reference_rejected(self):
        with pytest.raises(SchemaGraphError):
            SchemaGraph(
                tables=(TableSchema("a", ("a_id", "boss"), ("str", "str"),
                                    primary_key="a_id"),),
                foreign_keys=(ForeignKey("a", "boss", "a", "a_id"),),
            )

    def test_fk_reusing_primary_key_column_rejected(self):
        """A 1:1 extension key (FK column == the table's own PK) would be
        silently overwritten by surrogate keys at sampling time."""
        with pytest.raises(SchemaGraphError, match="reuses the primary key"):
            SchemaGraph(
                tables=(
                    TableSchema("parent", ("pid", "x"), ("str", "str"),
                                primary_key="pid"),
                    TableSchema("child", ("pid", "size"), ("str", "int"),
                                primary_key="pid"),
                ),
                foreign_keys=(ForeignKey("child", "pid", "parent", "pid"),),
            )

    def test_two_fks_on_one_column_rejected(self):
        with pytest.raises(SchemaGraphError, match="more than one foreign key"):
            SchemaGraph(
                tables=(
                    TableSchema("a", ("key", "x"), ("str", "str"), primary_key="key"),
                    TableSchema("b", ("key", "y"), ("str", "str"), primary_key="key"),
                    TableSchema("c", ("c_id", "key"), ("str", "str"),
                                primary_key="c_id"),
                ),
                foreign_keys=(ForeignKey("c", "key", "a", "key"),
                              ForeignKey("c", "key", "b", "key")),
            )

    def test_fk_must_reference_primary_key(self):
        with pytest.raises(SchemaGraphError):
            SchemaGraph(
                tables=(
                    TableSchema("a", ("a_id", "x"), ("str", "str"), primary_key="a_id"),
                    TableSchema("b", ("b_id", "x"), ("str", "str"), primary_key="b_id"),
                ),
                foreign_keys=(ForeignKey("b", "x", "a", "x"),),
            )

    def test_key_and_feature_columns(self):
        graph = _toy_graph()
        assert graph.key_columns("b") == ["b_id", "a_id"]
        assert graph.feature_columns("b") == ["y"]
        assert graph.roots() == ["a"]

    def test_json_round_trip(self, retail_graph):
        assert SchemaGraph.from_json(retail_graph.to_json()) == retail_graph
        payload = json.loads(retail_graph.to_json())  # plain JSON, no envelope
        assert {t["name"] for t in payload["tables"]} == set(retail_graph.table_names)

    def test_validate_catches_missing_table(self, retail, retail_graph):
        partial = {k: v for k, v in retail.items() if k != "stores"}
        with pytest.raises(SchemaGraphError, match="missing table"):
            retail_graph.validate_tables(partial)

    def test_validate_catches_duplicate_primary_key(self, retail, retail_graph):
        broken = dict(retail)
        customers = retail["customers"]
        keys = customers.column("customer_id").values
        keys[0] = keys[1]
        broken["customers"] = customers.with_column("customer_id", keys)
        with pytest.raises(SchemaGraphError, match="not unique"):
            retail_graph.validate_tables(broken)

    def test_validate_catches_dangling_foreign_key(self, retail, retail_graph):
        broken = dict(retail)
        orders = retail["orders"]
        parents = orders.column("customer_id").values
        parents[0] = "c_nonexistent"
        broken["orders"] = orders.with_column("customer_id", parents)
        with pytest.raises(SchemaGraphError, match="dangling"):
            retail_graph.validate_tables(broken)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

class TestInference:
    def test_recovers_retail_primary_keys(self, retail_graph):
        assert {t.name: t.primary_key for t in retail_graph.tables} == {
            "customers": "customer_id", "stores": "store_id", "orders": "order_id",
            "items": "item_id", "reviews": "review_id"}

    def test_recovers_retail_foreign_keys(self, retail_graph):
        assert {fk.edge_name for fk in retail_graph.foreign_keys} == RETAIL_EDGES

    def test_primary_key_prefers_id_names(self):
        table = Table({"label": ["a", "b", "c"], "thing_id": ["x", "y", "z"]})
        assert infer_primary_key(table) == "thing_id"

    def test_primary_key_rejects_missing_and_duplicates(self):
        assert infer_primary_key(Table({"id": ["a", "b", None]})) is None
        assert infer_primary_key(Table({"id": ["a", "a", "b"]})) is None

    def test_low_cardinality_flag_is_not_a_foreign_key(self):
        parent = Table({"id": list(range(10)), "x": ["v"] * 10})
        child = Table({"child_id": list(range(30)),
                       "flag": [i % 2 for i in range(30)],
                       "y": ["w"] * 30})
        graph = infer_schema({"parent": parent, "child": child})
        assert graph.foreign_keys == ()

    def test_name_hint_overrides_key_ratio_guard(self):
        parent = Table({"user_id": list(range(10)), "x": ["v"] * 10})
        child = Table({"row_id": list(range(6)), "user_id": [0, 1, 0, 1, 2, 0]})
        graph = infer_schema({"users": parent, "events": child})
        assert [fk.edge_name for fk in graph.foreign_keys] == \
            ["events.user_id->users.user_id"]

    def test_partial_coverage_respects_threshold(self):
        parent = Table({"user_id": ["u0", "u1", "u2"], "x": ["v"] * 3})
        child = Table({"row_id": ["r0", "r1"], "user_id": ["u0", "stray"]})
        tables = {"users": parent, "events": child}
        assert infer_schema(tables).foreign_keys == ()
        lenient = infer_schema(tables, InferenceConfig(min_coverage=0.5))
        assert [fk.edge_name for fk in lenient.foreign_keys] == \
            ["events.user_id->users.user_id"]
        assert lenient.foreign_keys[0].coverage == 0.5

    def test_cyclic_inference_raises(self):
        a = Table({"a_id": ["x1", "x2"], "b_id": ["y1", "y2"]})
        b = Table({"b_id": ["y1", "y2"], "a_id": ["x1", "x2"]})
        with pytest.raises(SchemaCycleError):
            infer_schema({"a": a, "b": b})

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_schema_recovered_from_synthetic_database(self, fitted_synth,
                                                      retail_graph, seed):
        """The round-trip property: a schema inferred from tables *sampled by*
        the multi-table synthesizer recovers the original PK/FK edges."""
        database = fitted_synth.sample_database(seed=seed)
        inferred = infer_schema(database)
        assert {t.name: t.primary_key for t in inferred.tables} == \
            {t.name: t.primary_key for t in retail_graph.tables}
        assert {fk.edge_name for fk in inferred.foreign_keys} >= RETAIL_EDGES


# ---------------------------------------------------------------------------
# multi-table synthesis
# ---------------------------------------------------------------------------

class TestSampledStore:
    @pytest.mark.parametrize("spill", [False, True])
    def test_feature_rows(self, spill, tmp_path):
        from repro.schema.multitable import _SampledStore

        store = _SampledStore(spool=tmp_path / "spool" if spill else None)
        store.put("users", Table({"id": [1, 2, 3], "city": ["x", None, "y"]}))
        assert store.feature_rows("users", []) == [{}, {}, {}]
        assert store.feature_rows("users", ["city"]) == [
            {"city": "x"}, {"city": None}, {"city": "y"}]


class TestMultiTableSynthesizer:
    def test_database_shape_and_integrity(self, fitted_synth, retail, retail_graph):
        database = fitted_synth.sample_database(seed=3)
        assert set(database) == set(retail)
        for name, table in database.items():
            assert table.column_names == retail[name].column_names
        assert database["customers"].num_rows == retail["customers"].num_rows
        _assert_referentially_intact(database, retail_graph)

    def test_surrogate_keys_are_unique(self, fitted_synth):
        database = fitted_synth.sample_database(seed=3)
        for name, key in [("customers", "customer_id"), ("orders", "order_id"),
                          ("items", "item_id"), ("reviews", "review_id")]:
            column = database[name].column(key)
            assert column.nunique() == len(column)

    def test_seed_determinism_and_sensitivity(self, fitted_synth):
        first = fitted_synth.sample_database(seed=4)
        again = fitted_synth.sample_database(seed=4)
        other = fitted_synth.sample_database(seed=5)
        assert all(first[name] == again[name] for name in first)
        assert any(first[name] != other[name] for name in first)

    def test_root_counts_accept_int_and_dict(self, fitted_synth):
        database = fitted_synth.sample_database(5, seed=1)
        assert database["customers"].num_rows == 5
        assert database["stores"].num_rows == 5
        mixed = fitted_synth.sample_database({"customers": 3}, seed=1)
        assert mixed["customers"].num_rows == 3
        assert mixed["stores"].num_rows == 4  # training size

    def test_fixed_children_per_parent(self, retail, retail_graph):
        synth = MultiTableSynthesizer(_config(children_per_parent=2))
        synth.fit(retail, retail_graph)
        database = synth.sample_database(seed=2)
        assert database["orders"].num_rows == 2 * database["customers"].num_rows
        assert database["items"].num_rows == 2 * database["orders"].num_rows

    def test_zero_children_parents_in_distribution(self, fitted_synth, retail):
        """Customers without orders exist in the training data; the learned
        children-per-parent distribution must include those zeros."""
        with_orders = set(retail["orders"].column("customer_id").unique())
        all_customers = set(retail["customers"].column("customer_id").unique())
        assert with_orders < all_customers  # the dataset has childless parents
        counts = fitted_synth._edges["orders"]._children_per_parent_counts
        assert 0 in counts and len(counts) == len(all_customers)

    def test_secondary_foreign_key_draws_from_sampled_parent(self, fitted_synth):
        database = fitted_synth.sample_database(seed=7)
        stores = set(database["stores"].column("store_id").values)
        assert set(database["reviews"].column("store_id").values) <= stores

    def test_requires_fit_before_sampling(self):
        with pytest.raises(RuntimeError):
            MultiTableSynthesizer(_config()).sample_database(3)

    def test_fit_validates_against_graph(self, retail, retail_graph):
        broken = dict(retail)
        broken["orders"] = retail["orders"].drop("channel")
        with pytest.raises(SchemaGraphError):
            MultiTableSynthesizer(_config()).fit(broken, retail_graph)

    def test_engines_produce_identical_databases(self, retail, retail_graph):
        databases = {}
        for engine in ("object", "compiled"):
            synth = MultiTableSynthesizer(_config(engine=engine)).fit(retail, retail_graph)
            databases[engine] = synth.sample_database(seed=9)
        assert all(databases["object"][name] == databases["compiled"][name]
                   for name in databases["object"])


# ---------------------------------------------------------------------------
# acceptance: 3-level fit -> save -> load -> sample, byte identity, both engines
# ---------------------------------------------------------------------------

class TestPersistenceAcceptance:
    @pytest.mark.parametrize("engine", ["object", "compiled"])
    def test_fit_save_load_sample_byte_identical(self, retail, retail_graph,
                                                 tmp_path, engine):
        pipeline = MultiTableSchemaPipeline(MultiTablePipelineConfig(
            seed=0, generation_engine=engine, training_engine=engine))
        fitted = pipeline.fit(retail, retail_graph)
        expected = fitted.sample_database(seed=11)
        digest = fitted.save(tmp_path / "bundle")
        loaded = FittedMultiTablePipeline.load(tmp_path / "bundle")
        result = loaded.sample_database(seed=11)
        assert set(result) == set(expected)
        for name in expected:
            assert _csv_bytes(result[name]) == _csv_bytes(expected[name])
        _assert_referentially_intact(result, loaded.graph)
        assert loaded.graph == retail_graph
        assert loaded.config == fitted.config
        assert len(digest) == 64

    def test_compressed_bundle_round_trips(self, fitted_synth, tmp_path):
        from repro.store.bundle import load_multitable, read_manifest

        fitted_synth.save(tmp_path / "plain", compress=False)
        fitted_synth.save(tmp_path / "small", compress=True)
        assert read_manifest(tmp_path / "plain")["compress"] is False
        assert read_manifest(tmp_path / "small")["compress"] is True
        expected = fitted_synth.sample_database(seed=2)
        for path in (tmp_path / "plain", tmp_path / "small"):
            result = load_multitable(path).sample_database(seed=2)
            assert all(result[name] == expected[name] for name in expected)

    def test_load_bundle_dispatches_multitable(self, fitted_synth, tmp_path):
        from repro.store.bundle import load_bundle

        fitted_synth.save(tmp_path / "bundle")
        loaded = load_bundle(tmp_path / "bundle")
        assert isinstance(loaded, MultiTableSynthesizer)


# ---------------------------------------------------------------------------
# pipeline + serving
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def multitable_bundle(retail, retail_graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "multitable"
    fitted = MultiTableSchemaPipeline(MultiTablePipelineConfig(seed=0)).fit(
        retail, retail_graph)
    fitted.save(path)
    return path


class TestServingDatabases:
    def test_shard_counts_are_bit_identical(self, multitable_bundle):
        reference = SynthesisService.from_bundle(
            multitable_bundle, ServingConfig(shards=1, cache_bytes=0)
        ).sample_database(seed=3)
        for shards in (1, 2):
            with SynthesisService.from_bundle(multitable_bundle, ServingConfig(
                    shards=shards, cache_bytes=0, executor="process")) as service:
                database = service.sample_database(seed=3)
            assert all(database[name] == reference[name] for name in reference)

    def test_database_requests_cache_and_count(self, multitable_bundle):
        service = SynthesisService.from_bundle(multitable_bundle,
                                               ServingConfig(cache_bytes=1 << 20))
        first = service.sample_database(seed=1)
        second = service.sample_database(seed=1)
        assert all(first[name] == second[name] for name in first)
        stats = service.stats()
        assert stats["database_requests"] == 2
        assert stats["cache_hits"] == 1
        assert stats["cache_bytes_used"] > 0

    def test_flat_requests_rejected_on_multitable_bundle(self, multitable_bundle):
        service = SynthesisService.from_bundle(multitable_bundle)
        with pytest.raises(ServingError):
            service.sample_table(4)
        with pytest.raises(ServingError):
            service.sample_rows(3, {"region": "north"})

    def test_database_requests_rejected_on_flat_pipeline(self, tiny_digix):
        from repro.pipelines.greater import GReaTERPipeline
        from repro.pipelines.config import PipelineConfig

        trial = tiny_digix.trials()[0]
        fitted = GReaTERPipeline(PipelineConfig(
            seed=0, drop_columns=("task_id",))).fit(trial.ads, trial.feeds)
        with pytest.raises(ServingError):
            SynthesisService(fitted).sample_database()


class TestMultiTablePipeline:
    def test_run_equals_fit_sample(self, retail, retail_graph):
        pipeline = MultiTableSchemaPipeline(MultiTablePipelineConfig(seed=1))
        via_run = pipeline.run(retail, retail_graph)
        via_split = pipeline.fit(retail, retail_graph).sample_database()
        assert all(via_run[name] == via_split[name] for name in via_run)

    def test_config_defaults_feed_sampling(self, retail, retail_graph):
        pipeline = MultiTableSchemaPipeline(MultiTablePipelineConfig(
            seed=1, n_root_rows=3))
        database = pipeline.fit(retail, retail_graph).sample_database()
        assert database["customers"].num_rows == 3


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCliSchemaCommands:
    @pytest.fixture()
    def data_dir(self, retail, tmp_path):
        from repro.frame.io import write_csv

        directory = tmp_path / "data"
        directory.mkdir()
        for name, table in retail.items():
            write_csv(table, directory / "{}.csv".format(name))
        return directory

    def test_schema_infer_show_run_round_trip(self, data_dir, tmp_path, capsys):
        from repro.cli import main

        schema_path = tmp_path / "schema.json"
        assert main(["schema", "infer", "--data-dir", str(data_dir),
                     "--out", str(schema_path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["table"] for row in rows} == {
            "customers", "stores", "orders", "items", "reviews"}
        graph = SchemaGraph.from_json(schema_path.read_text())
        assert {fk.edge_name for fk in graph.foreign_keys} == RETAIL_EDGES

        assert main(["schema", "show", "--schema", str(schema_path), "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert [row["order"] for row in shown] == list(range(5))

        bundle = tmp_path / "bundle"
        out_dir = tmp_path / "synthetic"
        assert main(["run", "--pipeline", "multitable", "--data-dir", str(data_dir),
                     "--schema", str(schema_path), "--bundle", str(bundle),
                     "--n", "4", "--seed", "3", "--out-dir", str(out_dir),
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["digest"]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "customers.csv", "items.csv", "orders.csv", "reviews.csv", "stores.csv"]

        assert main(["schema", "show", "--bundle", str(bundle), "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert {row["table"] for row in shown} == {
            "customers", "stores", "orders", "items", "reviews"}

    def test_schema_infer_requires_data_dir(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["schema", "infer"])

    def test_derive_seed_shared_between_layers(self):
        from repro.llm.engine import derive_seed as engine_derive
        from repro.schema.multitable import derive_seed as schema_derive
        from repro.serving import derive_seed as serving_derive

        assert engine_derive is schema_derive is serving_derive

    def test_list_includes_new_commands(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "schema" in out and "run" in out
