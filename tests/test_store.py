"""Tests for the artifact store: table format, bundles, atomic writes, CSV fixes."""

import json
import math
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frame.backend import CategoricalBackend, NumericBackend, ObjectBackend, using_backend
from repro.frame.io import _parse_cell, read_csv, write_csv
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.llm.sampler import SamplerConfig
from repro.relational.parent_child import ParentChildConfig, ParentChildSynthesizer
from repro.store import (
    StoreError,
    atomic_write_text,
    load_great_synthesizer,
    load_parent_child,
    read_manifest,
    read_table,
    save_great_synthesizer,
    save_parent_child,
    write_table,
)
from repro.store.bundle import BundleWriter, load_bundle
from repro.store.codec import decode_value, dumps, encode_value, loads
from repro.store.tablefmt import (WIRE_FORMAT_VERSION, table_from_bytes, table_to_arrays,
                                  table_to_bytes)


# ---------------------------------------------------------------------------
# CSV satellite fixes
# ---------------------------------------------------------------------------

class TestParseCell:
    def test_underscored_numerics_stay_strings(self):
        assert _parse_cell("1_000") == "1_000"
        assert _parse_cell("1_0.5") == "1_0.5"
        assert _parse_cell("_1") == "_1"
        assert _parse_cell("1e1_0") == "1e1_0"

    def test_plain_numerics_still_parse(self):
        assert _parse_cell("1000") == 1000
        assert _parse_cell("-3") == -3
        assert _parse_cell("2.5") == 2.5
        assert _parse_cell("1e3") == 1000.0
        assert _parse_cell("") is None
        assert _parse_cell("hello") == "hello"

    def test_underscored_string_round_trips_through_csv(self, tmp_path):
        table = Table({"code": ["1_000", "2_5", "plain"]})
        loaded = read_csv(write_csv(table, tmp_path / "t.csv"))
        assert loaded.column("code").values == ["1_000", "2_5", "plain"]
        assert loaded.column("code").dtype == "str"


class TestCompressionKnob:
    @pytest.fixture(scope="class")
    def fitted_great(self):
        table = Table({"color": ["red", "blue"] * 40, "size": list(range(80))})
        config = GReaTConfig(
            fine_tune=FineTuneConfig(epochs=2, batches=2, model=ModelConfig(order=4)))
        return GReaTSynthesizer(config).fit(table)

    def test_manifest_records_compress_choice(self, fitted_great, tmp_path):
        save_great_synthesizer(fitted_great, tmp_path / "plain")
        save_great_synthesizer(fitted_great, tmp_path / "small", compress=True)
        assert read_manifest(tmp_path / "plain")["compress"] is False
        assert read_manifest(tmp_path / "small")["compress"] is True

    def test_loader_handles_both_codecs(self, fitted_great, tmp_path):
        expected = fitted_great.sample(6, seed=3)
        for compress in (False, True):
            path = tmp_path / "bundle_{}".format(compress)
            save_great_synthesizer(fitted_great, path, compress=compress)
            assert load_great_synthesizer(path).sample(6, seed=3) == expected

    def test_compressed_bundle_is_smaller(self, fitted_great, tmp_path):
        save_great_synthesizer(fitted_great, tmp_path / "plain")
        save_great_synthesizer(fitted_great, tmp_path / "small", compress=True)
        assert (tmp_path / "small").stat().st_size < (tmp_path / "plain").stat().st_size

    def test_legacy_manifest_defaults_to_compressed(self, fitted_great, tmp_path):
        """Bundles written before the knob carry no ``compress`` entry; the
        reader must report them as compressed (their historical codec)."""
        import zipfile

        from repro.store.bundle import BundleReader, MANIFEST_NAME

        path = tmp_path / "bundle"
        save_great_synthesizer(fitted_great, path)
        with zipfile.ZipFile(path) as archive:
            parts = {name: archive.read(name) for name in archive.namelist()}
        manifest = json.loads(parts[MANIFEST_NAME])
        del manifest["compress"]
        legacy = tmp_path / "legacy"
        with zipfile.ZipFile(legacy, "w") as archive:
            for name, blob in parts.items():
                if name != MANIFEST_NAME:
                    archive.writestr(name, blob)
            archive.writestr(MANIFEST_NAME, json.dumps(manifest))
        assert BundleReader(legacy).compress is True


class TestAtomicWrites:
    def test_write_csv_leaves_no_temp_files(self, tmp_path):
        table = Table({"a": [1, 2, 3]})
        write_csv(table, tmp_path / "t.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_write_csv_replaces_existing_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(Table({"a": [1]}), path)
        write_csv(Table({"a": [2, 3]}), path)
        assert read_csv(path).column("a").values == [2, 3]

    def test_failed_write_preserves_old_content(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(Table({"a": [1]}), path)

        class Exploding(Table):
            def iter_rows(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_csv(Exploding({"a": [9]}), path)
        assert read_csv(path).column("a").values == [1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_atomic_write_text(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]

    def test_atomic_writes_honor_the_umask(self, tmp_path):
        """mkstemp's 0600 must not leak through: the published artifact has
        the permissions a plain open() would have produced."""
        mask = os.umask(0o022)
        try:
            write_csv(Table({"a": [1]}), tmp_path / "t.csv")
            assert (tmp_path / "t.csv").stat().st_mode & 0o777 == 0o644
        finally:
            os.umask(mask)


# ---------------------------------------------------------------------------
# typed codec
# ---------------------------------------------------------------------------

class TestCodec:
    def test_round_trip_preserves_types(self):
        value = {
            "tuple": (1, 2.5, None),
            "list": [True, False],
            3: "int key",
            "nested": {"x": (1,)},
            "nan": float("nan"),
        }
        decoded = loads(dumps(value))
        assert decoded["tuple"] == (1, 2.5, None)
        assert isinstance(decoded["tuple"], tuple)
        assert isinstance(decoded["list"], list)
        assert decoded[3] == "int key"
        assert isinstance(decoded["nested"]["x"], tuple)
        assert math.isnan(decoded["nan"])

    def test_bool_not_conflated_with_int(self):
        decoded = decode_value(encode_value([True, 1]))
        assert decoded[0] is True and decoded[1] == 1 and decoded[1] is not True

    def test_unsupported_type_rejected(self):
        with pytest.raises(StoreError):
            encode_value({"bad": object()})

    def test_malformed_payload_rejected(self):
        with pytest.raises(StoreError):
            decode_value({"t": "martian"})
        with pytest.raises(StoreError):
            decode_value(["not", "an", "envelope"])


# ---------------------------------------------------------------------------
# binary table format
# ---------------------------------------------------------------------------

#: one column of scalars of every type the format stores
scalar_values = st.lists(
    st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
              st.floats(allow_nan=False, allow_infinity=True), st.text(max_size=8)),
    min_size=0, max_size=20,
)
#: one string column with missing cells (categorical storage where it can be)
categorical_values = st.lists(st.one_of(st.none(), st.text(max_size=6)),
                              min_size=1, max_size=30)


def _assert_exact_round_trip(table, path):
    loaded = read_table(write_table(table, path))
    assert loaded == table
    assert loaded.dtypes() == table.dtypes()
    for name in table.column_names:
        original, restored = table.column(name)._backend, loaded.column(name)._backend
        assert type(restored) is type(original)
        if isinstance(original, CategoricalBackend):
            assert restored.categories == original.categories
            assert restored.codes.tolist() == original.codes.tolist()
        elif isinstance(original, NumericBackend):
            assert restored.data.dtype == original.data.dtype
            assert (restored.mask is None) == (original.mask is None)
    return loaded


class TestTableFormat:
    def test_mixed_dtype_table_round_trips(self, tmp_path):
        table = Table({
            "i": [1, None, -3],
            "f": [0.5, float("nan"), 2.0],
            "s": ["a", None, "b"],
            "b": [True, False, None],
            "m": [1, "two", 2.5],
            "e": [None, None, None],
        })
        loaded = _assert_exact_round_trip(table, tmp_path / "t.npz")
        assert loaded.column("m").values == [1, "two", 2.5]

    def test_unicode_and_embedded_nul_strings(self, tmp_path):
        table = Table({"s": ["héllo", "a\x00b", "", "日本語", "tab\tnewline\n"]})
        loaded = _assert_exact_round_trip(table, tmp_path / "t.npz")
        assert loaded.column("s").values == table.column("s").values

    def test_object_backend_round_trips(self, tmp_path):
        with using_backend("object"):
            table = Table({"a": [1, 2, None], "s": ["x", "y", None]})
        loaded = read_table(write_table(table, tmp_path / "t.npz"))
        assert loaded == table
        assert isinstance(loaded.column("a")._backend, ObjectBackend)

    def test_unsupported_object_rejected(self, tmp_path):
        table = Table({"bad": [object(), object()]})
        with pytest.raises(StoreError):
            write_table(table, tmp_path / "t.npz")

    def test_atomic_table_write(self, tmp_path):
        write_table(Table({"a": [1]}), tmp_path / "t.npz")
        write_table(Table({"a": [2]}), tmp_path / "t.npz")
        assert read_table(tmp_path / "t.npz").column("a").values == [2]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.npz"]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scalar_values)
    def test_property_any_scalar_column_round_trips(self, tmp_path, values):
        table = Table({"v": values})
        loaded = read_table(write_table(table, tmp_path / "p.npz"))
        assert loaded == table
        assert loaded.dtypes() == table.dtypes()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(categorical_values)
    def test_property_categorical_codes_preserved(self, tmp_path, values):
        table = Table({"s": values})
        loaded = read_table(write_table(table, tmp_path / "c.npz"))
        mine, theirs = table.column("s")._backend, loaded.column("s")._backend
        if isinstance(mine, CategoricalBackend):
            assert theirs.categories == mine.categories
            assert theirs.codes.tolist() == mine.codes.tolist()
        assert loaded.column("s").values == table.column("s").values

    def test_table_without_columns_keeps_its_rows(self, tmp_path):
        table = Table({"a": [1, 2]}).select([])
        loaded = read_table(write_table(table, tmp_path / "t.npz"))
        assert loaded.num_rows == 2 and loaded.num_columns == 0


def _same_arrays(left: dict, right: dict) -> bool:
    """Whether two ``table_to_arrays`` dicts hold the same entries, bit for bit."""
    return list(left) == list(right) and all(
        left[name].dtype == right[name].dtype and left[name].shape == right[name].shape
        and left[name].tobytes() == right[name].tobytes() for name in left)


def _reframe(blob: bytes, edit=None, version=None) -> bytes:
    """Rebuild a wire blob from its documented layout, with *edit* applied to
    the header's entry list and/or a new *version*, under a valid CRC."""
    magic, old_version, reserved, header_len = struct.unpack_from("<4sHHI", blob)
    start = 16 + header_len + -(16 + header_len) % 8
    entries = json.loads(blob[16:16 + header_len])
    header = json.dumps(edit(entries) if edit else entries).encode("utf-8")
    head = struct.pack("<4sHHI", magic, old_version if version is None else version,
                       reserved, len(header))
    body = header + bytes(-(16 + len(header)) % 8) + blob[start:]
    return head + struct.pack("<I", zlib.crc32(body, zlib.crc32(head))) + body


class TestWireFormat:
    """``table_to_bytes``/``table_from_bytes``: the worker pipe's table form."""

    @pytest.mark.parametrize("policy", ["auto", "object"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scalars=scalar_values, labels=categorical_values)
    def test_property_round_trip_matches_the_npz_path(self, tmp_path, policy,
                                                      scalars, labels):
        n = min(len(scalars), len(labels))
        with using_backend(policy):
            tables = [Table({"v": scalars}), Table({"s": labels}),
                      Table({"v": scalars[:n], "s": labels[:n]}),
                      Table({"s": labels}).select([])]
        for table in tables:
            decoded = table_from_bytes(table_to_bytes(table))
            assert decoded == table
            assert decoded.dtypes() == table.dtypes()
            from_file = read_table(write_table(table, tmp_path / "w.npz", compress=False))
            assert _same_arrays(table_to_arrays(decoded), table_to_arrays(from_file))
            assert _same_arrays(table_to_arrays(decoded), table_to_arrays(table))

    def test_table_without_columns_keeps_its_rows(self):
        from repro.serving.workers import decode_table, encode_table

        table = Table({"a": [1, 2]}).select([])
        assert table_from_bytes(table_to_bytes(table)).num_rows == 2
        assert decode_table(encode_table(table)).num_rows == 2

    def test_layout_is_the_documented_one(self):
        table = Table({"i": [1, None, 3], "s": ["a", None, "b"]})
        blob = table_to_bytes(table)
        assert blob[:4] == b"RTBL" and len(blob) % 8 == 0
        assert table_from_bytes(_reframe(blob)) == table

    @pytest.fixture
    def small_blob(self):
        return table_to_bytes(Table({"i": [1, None], "s": ["a", None], "m": [1, "x"]}))

    def test_every_truncation_is_rejected(self, small_blob):
        for size in range(len(small_blob)):
            with pytest.raises(StoreError):
                table_from_bytes(small_blob[:size])
        with pytest.raises(StoreError):
            table_from_bytes(small_blob + bytes(8))

    def test_every_flipped_bit_is_rejected(self, small_blob):
        for position in range(len(small_blob)):
            for bit in (0, 5):
                damaged = bytearray(small_blob)
                damaged[position] ^= 1 << bit
                with pytest.raises(StoreError):
                    table_from_bytes(bytes(damaged))

    def test_object_dtype_is_rejected(self, small_blob):
        def to_object(entries):
            entry = next(entry for entry in entries if entry[1] == "<i8")
            entry[1] = np.dtype(object).str
            return entries

        with pytest.raises(StoreError, match="dtype"):
            table_from_bytes(_reframe(small_blob, edit=to_object))

    def test_array_past_the_end_is_rejected(self, small_blob):
        def stretch(entries):
            entries[0][4] += 8
            entries[0][2] = [entries[0][4] // np.dtype(entries[0][1]).itemsize]
            return entries

        with pytest.raises(StoreError):
            table_from_bytes(_reframe(small_blob, edit=stretch))

    def test_newer_version_is_rejected(self, small_blob):
        with pytest.raises(StoreError, match="version"):
            table_from_bytes(_reframe(small_blob, version=WIRE_FORMAT_VERSION + 1))


# ---------------------------------------------------------------------------
# synthesizer bundles
# ---------------------------------------------------------------------------

def _great_config(engine: str, seed: int = 3) -> GReaTConfig:
    return GReaTConfig(
        fine_tune=FineTuneConfig(epochs=2, batches=2, seed=seed,
                                 model=ModelConfig(order=3), engine=engine),
        sampler=SamplerConfig(temperature=0.9, top_k=8, seed=seed, engine=engine),
        seed=seed,
    )


@pytest.fixture
def training_table():
    return Table({
        "name": ["grace", "yin", "anson", "maya"] * 6,
        "lunch": [1, 2, 1, 3] * 6,
        "score": [0.5, 1.5, 0.5, 2.5] * 6,
    })


class TestGreatBundle:
    @pytest.mark.parametrize("engine", ["object", "compiled"])
    def test_save_load_sample_bit_identical(self, engine, training_table, tmp_path):
        synth = GReaTSynthesizer(_great_config(engine)).fit(training_table)
        expected = synth.sample(12, seed=11)
        save_great_synthesizer(synth, tmp_path / "bundle")
        loaded = load_great_synthesizer(tmp_path / "bundle")
        assert loaded.sample(12, seed=11) == expected
        assert loaded.perplexity_trace == synth.perplexity_trace
        assert loaded.training_engine == synth.training_engine

    def test_cross_engine_load_is_identical(self, training_table, tmp_path):
        """An object-trained bundle sampled on load matches byte for byte —
        the persisted counts are engine-neutral."""
        expected = None
        for engine in ("object", "compiled"):
            synth = GReaTSynthesizer(_great_config(engine)).fit(training_table)
            save_great_synthesizer(synth, tmp_path / engine)
            sampled = load_great_synthesizer(tmp_path / engine).sample(10, seed=5)
            if expected is None:
                expected = sampled
            # both engines train bit-identical models, so both bundles
            # reproduce the same synthetic table
            assert sampled == expected

    @pytest.mark.parametrize("engine", ["object", "compiled"])
    def test_mmap_load_samples_byte_identical(self, engine, training_table, tmp_path):
        """mmap=True serves the count tables as read-only file mappings and
        the sampled output is byte-identical to the eager load."""
        import numpy as np

        synth = GReaTSynthesizer(_great_config(engine)).fit(training_table)
        save_great_synthesizer(synth, tmp_path / "bundle")
        eager = load_great_synthesizer(tmp_path / "bundle")
        mapped = load_great_synthesizer(tmp_path / "bundle", mmap=True)
        counts = mapped.model._array_counts
        assert isinstance(counts.tokens0, np.memmap)
        assert all(isinstance(tokens, np.memmap) for tokens in counts.tokens.values())
        assert mapped.sample(12, seed=11) == eager.sample(12, seed=11)

    def test_mmap_falls_back_for_compressed_bundles(self, training_table, tmp_path):
        """Deflated NPZ entries cannot be mapped; the reader silently reads
        them eagerly and sampling still matches."""
        import numpy as np

        synth = GReaTSynthesizer(_great_config("compiled")).fit(training_table)
        save_great_synthesizer(synth, tmp_path / "bundle", compress=True)
        eager = load_great_synthesizer(tmp_path / "bundle")
        mapped = load_great_synthesizer(tmp_path / "bundle", mmap=True)
        counts = mapped.model._array_counts
        assert not any(isinstance(tokens, np.memmap) for tokens in counts.tokens.values())
        assert mapped.sample(12, seed=11) == eager.sample(12, seed=11)

    def test_mmap_arrays_match_eager_bytes(self, training_table, tmp_path):
        """Every mapped array equals its eagerly loaded counterpart exactly."""
        import numpy as np

        from repro.store.bundle import BundleReader

        synth = GReaTSynthesizer(_great_config("compiled")).fit(training_table)
        save_great_synthesizer(synth, tmp_path / "bundle")
        eager = BundleReader(tmp_path / "bundle").arrays("model_arrays")
        mapped = BundleReader(tmp_path / "bundle", mmap=True).arrays("model_arrays")
        assert sorted(eager) == sorted(mapped)
        for name in eager:
            assert eager[name].dtype == mapped[name].dtype
            assert np.array_equal(eager[name], mapped[name])

    def test_manifest_records_version_kind_digest(self, training_table, tmp_path):
        synth = GReaTSynthesizer(_great_config("compiled")).fit(training_table)
        digest = save_great_synthesizer(synth, tmp_path / "bundle")
        manifest = read_manifest(tmp_path / "bundle")
        assert manifest["kind"] == "great_synthesizer"
        assert manifest["digest"] == digest
        assert manifest["format_version"] == 1
        assert manifest["meta"]["training_engine"] in ("object", "compiled")

    def test_newer_format_version_rejected(self, training_table, tmp_path):
        import zipfile

        synth = GReaTSynthesizer(_great_config("compiled")).fit(training_table)
        save_great_synthesizer(synth, tmp_path / "bundle")
        with zipfile.ZipFile(tmp_path / "bundle") as archive:
            parts = {name: archive.read(name) for name in archive.namelist()}
        # readers speak exactly one version: newer and older ones both fail
        for version in (99, 0):
            manifest = json.loads(parts["manifest.json"])
            manifest["format_version"] = version
            with zipfile.ZipFile(tmp_path / "bundle", "w") as archive:
                for name, blob in parts.items():
                    archive.writestr(name, json.dumps(manifest).encode()
                                     if name == "manifest.json" else blob)
            with pytest.raises(StoreError):
                load_great_synthesizer(tmp_path / "bundle")

    def test_non_bundle_file_rejected(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"not a zip archive")
        with pytest.raises(StoreError):
            load_bundle(tmp_path / "junk")

    def test_unfitted_synthesizer_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            save_great_synthesizer(GReaTSynthesizer(_great_config("compiled")),
                                   tmp_path / "bundle")

    def test_atomic_bundle_overwrite(self, training_table, tmp_path):
        synth = GReaTSynthesizer(_great_config("compiled")).fit(training_table)
        first = save_great_synthesizer(synth, tmp_path / "bundle")
        second = save_great_synthesizer(synth, tmp_path / "bundle")
        assert first == second
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle"]
        assert load_great_synthesizer(tmp_path / "bundle").sample(3, seed=1).num_rows == 3

    def test_unknown_bundle_kind_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            BundleWriter("martian")

    def test_load_bundle_dispatches_on_kind(self, training_table, tmp_path):
        synth = GReaTSynthesizer(_great_config("compiled")).fit(training_table)
        save_great_synthesizer(synth, tmp_path / "bundle")
        loaded = load_bundle(tmp_path / "bundle")
        assert isinstance(loaded, GReaTSynthesizer)


class TestParentChildBundle:
    def test_round_trip_sample_identical(self, tmp_path):
        parent = Table({"user": ["u1", "u2", "u3"], "city": ["x", "y", "x"]})
        child = Table({"user": ["u1", "u1", "u2", "u3", "u3"],
                       "clicks": [1, 2, 1, 3, 2]})
        config = ParentChildConfig(parent=_great_config("compiled"),
                                   child=_great_config("compiled"), seed=3)
        synth = ParentChildSynthesizer(config).fit(parent, child, "user")
        expected = synth.sample_all(4, seed=9)
        save_parent_child(synth, tmp_path / "pc")
        loaded = load_parent_child(tmp_path / "pc")
        got = loaded.sample_all(4, seed=9)
        assert got == expected
        assert loaded._children_per_subject == synth._children_per_subject

    def test_subject_offset_shifts_keys_only(self, tmp_path):
        parent = Table({"user": ["u1", "u2"], "city": ["x", "y"]})
        child = Table({"user": ["u1", "u2", "u2"], "clicks": [1, 2, 3]})
        config = ParentChildConfig(parent=_great_config("compiled"),
                                   child=_great_config("compiled"), seed=3)
        synth = ParentChildSynthesizer(config).fit(parent, child, "user")
        base_parent, base_child = synth.sample(3, seed=5)
        off_parent, off_child = synth.sample(3, seed=5, subject_offset=10)
        assert off_parent.column("user").values == [
            "synthetic_subject_10", "synthetic_subject_11", "synthetic_subject_12"]
        assert off_parent.drop("user") == base_parent.drop("user")
        assert off_child.drop("user") == base_child.drop("user")


class TestBundleVerification:
    """The ``verify`` knob: digests re-checked against the manifest on load."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        table = Table({
            "name": ["grace", "yin", "anson", "maya"] * 6,
            "lunch": [1, 2, 1, 3] * 6,
            "score": [0.5, 1.5, 0.5, 2.5] * 6,
        })
        synth = GReaTSynthesizer(_great_config("compiled")).fit(table)
        path = tmp_path_factory.mktemp("verify") / "bundle"
        save_great_synthesizer(synth, path)
        return path, synth

    @staticmethod
    def _rewrite(src, dst, mutate):
        """Copy the bundle zip, letting *mutate* edit the raw part dict."""
        import zipfile

        with zipfile.ZipFile(src) as archive:
            parts = {name: archive.read(name) for name in archive.namelist()}
        mutate(parts)
        with zipfile.ZipFile(dst, "w") as archive:
            for name, blob in parts.items():
                archive.writestr(name, blob)

    def test_truncated_bundle_rejected(self, saved, tmp_path):
        path, _ = saved
        blob = path.read_bytes()
        (tmp_path / "cut").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(StoreError):
            load_great_synthesizer(tmp_path / "cut")

    def test_bit_flipped_part_rejected(self, saved, tmp_path):
        from repro.store.bundle import BundleIntegrityError

        path, _ = saved

        def flip(parts):
            victim = sorted(name for name in parts if name != "manifest.json")[0]
            blob = parts[victim]
            parts[victim] = bytes([blob[0] ^ 0x01]) + blob[1:]

        self._rewrite(path, tmp_path / "flipped", flip)
        with pytest.raises(BundleIntegrityError):
            load_great_synthesizer(tmp_path / "flipped")

    def test_missing_part_rejected(self, saved, tmp_path):
        from repro.store.bundle import BundleIntegrityError

        path, _ = saved

        def drop(parts):
            victim = sorted(name for name in parts if name != "manifest.json")[0]
            del parts[victim]

        self._rewrite(path, tmp_path / "short", drop)
        with pytest.raises(BundleIntegrityError):
            load_great_synthesizer(tmp_path / "short")

    def test_size_mismatch_rejected(self, saved, tmp_path):
        from repro.store.bundle import BundleIntegrityError

        path, _ = saved

        def grow(parts):
            victim = sorted(name for name in parts if name != "manifest.json")[0]
            parts[victim] = parts[victim] + b"\x00"

        self._rewrite(path, tmp_path / "grown", grow)
        with pytest.raises(BundleIntegrityError):
            load_great_synthesizer(tmp_path / "grown")

    def test_verify_false_skips_digest_check(self, saved, tmp_path):
        from repro.store.bundle import BundleIntegrityError

        path, synth = saved

        def lie(parts):
            manifest = json.loads(parts["manifest.json"])
            manifest["digest"] = "0" * 64
            parts["manifest.json"] = json.dumps(manifest).encode()

        self._rewrite(path, tmp_path / "lied", lie)
        with pytest.raises(BundleIntegrityError):
            load_great_synthesizer(tmp_path / "lied")
        loaded = load_great_synthesizer(tmp_path / "lied", verify=False)
        assert loaded.sample(4, seed=1).num_rows == 4

    def test_pristine_bundle_passes_verification(self, saved):
        path, synth = saved
        loaded = load_great_synthesizer(path, verify=True)
        expected = synth.sample(6, seed=2)
        assert loaded.sample(6, seed=2) == expected
