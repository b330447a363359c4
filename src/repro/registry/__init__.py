"""Content-addressed artifact registry with provenance.

The bundle layer (:mod:`repro.store.bundle`) persists one fitted object as
one archive file.  This package grows that into a *registry* — a directory
that many training runs and serving fleets share:

* :mod:`repro.registry.cas` — the content-addressed object store: bundle
  *parts* keyed by their SHA-256 under ``objects/<aa>/<digest>``, published
  atomically, deduplicated by construction (the multitable bundle's edge
  synthesizers share config/vocabulary parts, which are stored once);
* :mod:`repro.registry.record` — :class:`Registry`: artifact records
  binding a bundle manifest to its CAS parts, provenance *run records*
  binding a normalized spec (pipeline config, seed, resolved engines,
  dataset fingerprint) to the artifact digest, ``fit_or_load`` turning a
  repeated fit into a verified cache hit, incremental re-save (only parts
  whose digests changed are written) and refcount-aware garbage
  collection;
* :mod:`repro.registry.fingerprint` — deterministic dataset fingerprints
  over the columnar backend (:func:`fingerprint_table`) and over raw CSV
  directories (:func:`fingerprint_directory`).

Artifacts of any ``format_version`` other than
:data:`~repro.store.bundle.BUNDLE_FORMAT_VERSION` are rejected on read.

Attributes resolve lazily (PEP 562), mirroring :mod:`repro.store`.
"""

from importlib import import_module

#: public name -> defining submodule, resolved on first attribute access
_EXPORTS = {
    "ContentStore": "repro.registry.cas",
    "blob_digest": "repro.registry.cas",
    "Registry": "repro.registry.record",
    "fit_spec": "repro.registry.record",
    "spec_digest": "repro.registry.record",
    "RegistryReader": "repro.registry.record",
    "RunResult": "repro.registry.record",
    "SaveReport": "repro.registry.record",
    "fingerprint_table": "repro.registry.fingerprint",
    "fingerprint_directory": "repro.registry.fingerprint",
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
