"""Artifact store: durable, versioned, pickle-free persistence.

The train-once / serve-many split needs two things the CSV layer cannot
provide: an exact binary round trip for tables (dtypes, validity masks and
dictionary codes preserved bit for bit) and durable bundles for every
fitted object in the synthesis path.  This package provides both:

* :mod:`repro.store.tablefmt` — the NPZ-backed columnar table format
  (:func:`write_table` / :func:`read_table`) and its raw-buffer wire form
  (:func:`table_to_bytes` / :func:`table_from_bytes`);
* :mod:`repro.store.bundle` — versioned single-file bundle archives for
  fitted synthesizers and whole fitted pipelines, with a manifest (format
  version, engines, seed, schema) and a content digest;
* :mod:`repro.store.stream` — streaming table sinks (chunked CSV and
  NPZ part directories) for the bounded-memory synthesis path;
* :mod:`repro.store.atomic` — write-then-rename helpers shared by every
  artifact write (and by :func:`repro.frame.io.write_csv`);
* :mod:`repro.store.codec` — the typed JSON envelope that keeps the
  formats pickle-free without losing tuples, ints-as-keys or floats.

The serving layer (:mod:`repro.serving`) loads these bundles once and
answers sampling requests without retraining.

Attributes resolve lazily (PEP 562): importing the lightweight helpers
(``repro.store.atomic``, ``repro.store.codec``) does not pull in the model
stack behind the bundle serializers.
"""

from importlib import import_module

#: public name -> defining submodule, resolved on first attribute access
_EXPORTS = {
    "atomic_path": "repro.store.atomic",
    "atomic_write_bytes": "repro.store.atomic",
    "atomic_write_text": "repro.store.atomic",
    "StoreError": "repro.store.codec",
    "TABLE_FORMAT_VERSION": "repro.store.tablefmt",
    "arrays_to_table": "repro.store.tablefmt",
    "read_table": "repro.store.tablefmt",
    "table_from_bytes": "repro.store.tablefmt",
    "table_to_arrays": "repro.store.tablefmt",
    "table_to_bytes": "repro.store.tablefmt",
    "write_table": "repro.store.tablefmt",
    "BUNDLE_FORMAT_VERSION": "repro.store.bundle",
    "BundleIntegrityError": "repro.store.bundle",
    "BundleReader": "repro.store.bundle",
    "BundleWriter": "repro.store.bundle",
    "archive_bytes": "repro.store.bundle",
    "bundle_writer_for": "repro.store.bundle",
    "npz_bytes": "repro.store.bundle",
    "parts_digest": "repro.store.bundle",
    "read_bundle_object": "repro.store.bundle",
    "verify_parts": "repro.store.bundle",
    "load_bundle": "repro.store.bundle",
    "load_fitted_pipeline": "repro.store.bundle",
    "load_great_synthesizer": "repro.store.bundle",
    "load_multitable": "repro.store.bundle",
    "load_multitable_pipeline": "repro.store.bundle",
    "load_parent_child": "repro.store.bundle",
    "read_manifest": "repro.store.bundle",
    "save_fitted_pipeline": "repro.store.bundle",
    "save_great_synthesizer": "repro.store.bundle",
    "save_multitable": "repro.store.bundle",
    "save_multitable_pipeline": "repro.store.bundle",
    "save_parent_child": "repro.store.bundle",
    "PARTS_FORMAT_VERSION": "repro.store.stream",
    "TableSink": "repro.store.stream",
    "CsvTableSink": "repro.store.stream",
    "PartTableSink": "repro.store.stream",
    "SpoolingSink": "repro.store.stream",
    "MemorySink": "repro.store.stream",
    "iter_part_tables": "repro.store.stream",
    "read_part_table": "repro.store.stream",
    "part_table_column": "repro.store.stream",
    "part_table_num_rows": "repro.store.stream",
    "map_npz_file": "repro.store.npymap",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name)) from None
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
