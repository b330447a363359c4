"""Artifact and provenance records over the content-addressed store.

The registry directory has three planes:

* ``objects/`` — the :class:`~repro.registry.cas.ContentStore` of raw
  bundle parts, shared by every artifact;
* ``artifacts/<digest>.json`` — one record per saved artifact binding the
  bundle manifest (kind, format version, meta) to the part objects by
  their content addresses;
* ``runs/<spec-digest>.json`` — provenance records binding a normalized
  fit *spec* (pipeline name, full config, seed, resolved engines, dataset
  fingerprint) to the artifact it produced.

:meth:`Registry.fit_or_load` closes the loop: the spec of a requested fit
is hashed, a matching run record turns the fit into a verified load — the
cache hit is bit-identical to a fresh fit because the bundle encoding and
both training engines are deterministic — and a miss fits, saves and
records.  :meth:`Registry.save` is incremental by construction: only
parts whose digests are not yet stored are written.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict, is_dataclass
from pathlib import Path

from repro.frame.table import Table
from repro.registry.cas import ContentStore
from repro.registry.fingerprint import fingerprint_table
from repro.store.atomic import atomic_path
from repro.store.bundle import (
    BUNDLE_FORMAT_VERSION,
    BasePartReader,
    BundleIntegrityError,
    _engine_meta,
    bundle_writer_for,
    check_format_version,
    read_bundle_object,
    verify_parts,
)
import repro.store.codec as codec
import repro.store.npymap as npymap
from repro.store.codec import StoreError


@dataclass(frozen=True)
class SaveReport:
    """What :meth:`Registry.save` did — the dedup/incrementality ledger."""

    digest: str
    kind: str
    parts: dict[str, str]             #: part name -> object digest
    parts_written: int                #: objects physically written
    parts_reused: int                 #: parts whose object already existed
    bytes_written: int
    bytes_reused: int
    total_bytes: int                  #: logical size of all parts
    shared: dict[str, list[str]] = field(default_factory=dict)
    #: object digest -> part names, for objects referenced more than once
    #: within this artifact (e.g. identical edge-synthesizer vocabularies)


@dataclass(frozen=True)
class RunResult:
    """What :meth:`Registry.fit_or_load` returned."""

    fitted: object
    digest: str                       #: artifact content digest
    spec_digest: str
    cache_hit: bool
    report: SaveReport | None = None  #: present only on a miss (fresh save)


class RegistryReader(BasePartReader):
    """A :class:`BasePartReader` over an artifact record's CAS objects.

    The kind-dispatched readers of :mod:`repro.store.bundle` consume this
    exactly like a :class:`~repro.store.bundle.BundleReader` — a registry
    artifact and a bundle file with the same digest load identically.
    With ``mmap=True``, uncompressed NPZ parts are memory-mapped straight
    from their object files (raw part bytes are valid standalone ``.npz``
    files), so concurrent serving workers share one page-cache copy per
    part.  Artifacts recorded under another format version are rejected,
    like bundle files.
    """

    def __init__(self, store: ContentStore, record: dict, source: str,
                 mmap: bool = False, verify: bool = True):
        self._store = store
        self.path = source
        self.mmap = bool(mmap)
        self._objects = {name: entry["object"]
                         for name, entry in record["parts"].items()}
        manifest = {
            "format_version": record.get("format_version", BUNDLE_FORMAT_VERSION),
            "kind": record["kind"],
            "digest": record["digest"],
            "compress": record.get("compress", False),
            "meta": record.get("meta", {}),
            "parts": {name: entry["size"]
                      for name, entry in record["parts"].items()},
        }
        check_format_version(manifest["format_version"], self.path)
        self._cache: dict[str, bytes] = {}
        if verify:
            raw = {name: self._store.get(sha)
                   for name, sha in self._objects.items()}
            verify_parts(manifest, raw, self.path)
            if not self.mmap:
                self._cache = raw
        self.manifest = manifest

    def _part(self, name: str) -> bytes:
        blob = self._cache.get(name)
        if blob is not None:
            return blob
        sha = self._objects.get(name)
        if sha is None:
            raise StoreError("artifact {} has no part {!r}".format(self.path, name))
        return self._store.get(sha)

    def arrays(self, name: str) -> dict:
        full = name + ".npz"
        sha = self._objects.get(full)
        if self.mmap and sha is not None and not self.compress:
            return npymap.map_npz_file(self._store.object_path(sha))
        return super().arrays(name)


def _fingerprint_fit_arg(arg):
    """Normalize one positional ``fit`` argument into spec content."""
    if arg is None:
        return None
    if isinstance(arg, Table):
        return fingerprint_table(arg)
    if isinstance(arg, dict):
        return {name: fingerprint_table(table)
                for name, table in sorted(arg.items())}
    if hasattr(arg, "to_dict"):  # SchemaGraph and friends
        return arg.to_dict()
    raise StoreError(
        "cannot fingerprint fit argument of type {!r}".format(type(arg).__name__))


def _spec_engines(config) -> dict:
    """The resolved engines the fit would actually use (part of the spec).

    Resolution happens at spec time so an environment override
    (``REPRO_TRAINING_ENGINE`` / ``REPRO_GENERATION_ENGINE``) changes the
    spec digest and forces a cache miss instead of silently serving an
    artifact trained by a different engine.
    """
    if hasattr(config, "training_engine"):
        return _engine_meta(config.training_engine, config.generation_engine)
    if hasattr(config, "fine_tune") and hasattr(config, "sampler"):
        return _engine_meta(config.fine_tune.engine, config.sampler.engine)
    backbone = getattr(config, "backbone", None)
    if backbone is not None:
        return _engine_meta(backbone.fine_tune.engine, backbone.sampler.engine)
    return _engine_meta("auto", "auto")


def fit_spec(pipeline, *fit_args) -> dict:
    """The normalized provenance spec of ``pipeline.fit(*fit_args)``."""
    config = pipeline.config
    return {
        "pipeline": pipeline.name,
        "config": asdict(config) if is_dataclass(config) else dict(config),
        "engines": _spec_engines(config),
        "dataset": [_fingerprint_fit_arg(arg) for arg in fit_args],
    }


def spec_digest(spec: dict) -> str:
    """SHA-256 of the typed-JSON canonical encoding of *spec*."""
    return hashlib.sha256(codec.dumps(spec).encode("utf-8")).hexdigest()


class Registry:
    """A shared artifact registry rooted at one directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.store = ContentStore(self.root / "objects")
        self._artifacts = self.root / "artifacts"
        self._runs = self.root / "runs"

    # -- artifacts ---------------------------------------------------------

    def save(self, obj, compress: bool = False) -> SaveReport:
        """Persist a fitted object's parts into the CAS; returns the ledger.

        Incremental by construction: a part whose content is already
        stored (from a previous save of this artifact, from another
        artifact, or from a duplicate part within this one) is not
        rewritten.  Re-saving after mutating one component writes only
        the changed parts.
        """
        writer = bundle_writer_for(obj, compress=compress)
        parts = writer.parts
        manifest = writer.manifest()
        entries: dict[str, dict] = {}
        by_object: dict[str, list[str]] = {}
        written = reused = bytes_written = bytes_reused = 0
        for name in sorted(parts):
            blob = parts[name]
            sha, wrote = self.store.put(blob)
            entries[name] = {"object": sha, "size": len(blob)}
            by_object.setdefault(sha, []).append(name)
            if wrote:
                written += 1
                bytes_written += len(blob)
            else:
                reused += 1
                bytes_reused += len(blob)
        record = {
            "format_version": manifest["format_version"],
            "kind": manifest["kind"],
            "digest": manifest["digest"],
            "compress": manifest["compress"],
            "meta": manifest["meta"],
            "parts": entries,
        }
        self._artifacts.mkdir(parents=True, exist_ok=True)
        with atomic_path(self._artifacts / (record["digest"] + ".json")) as tmp:
            Path(tmp).write_text(json.dumps(record, indent=2, sort_keys=True))
        return SaveReport(
            digest=record["digest"], kind=record["kind"],
            parts={name: entry["object"] for name, entry in entries.items()},
            parts_written=written, parts_reused=reused,
            bytes_written=bytes_written, bytes_reused=bytes_reused,
            total_bytes=bytes_written + bytes_reused,
            shared={sha: names for sha, names in sorted(by_object.items())
                    if len(names) > 1},
        )

    def artifact(self, digest: str) -> dict:
        """The artifact record for *digest* (full digest or unique prefix)."""
        digest = self.resolve(digest)
        path = self._artifacts / (digest + ".json")
        try:
            return json.loads(path.read_text())
        except OSError:
            raise StoreError("no artifact {} in registry at {}".format(
                digest, self.root)) from None
        except ValueError as error:
            raise StoreError("artifact record {} is corrupt: {}".format(
                path, error)) from None

    def artifacts(self) -> list[dict]:
        """Every artifact record (sorted by digest)."""
        if not self._artifacts.is_dir():
            return []
        return [json.loads(path.read_text())
                for path in sorted(self._artifacts.glob("*.json"))]

    def digests(self) -> list[str]:
        """Every artifact digest (sorted)."""
        if not self._artifacts.is_dir():
            return []
        return sorted(path.stem for path in self._artifacts.glob("*.json"))

    def resolve(self, prefix: str) -> str:
        """Expand a digest prefix to the unique full artifact digest."""
        if (self._artifacts / (prefix + ".json")).is_file():
            return prefix
        matches = [digest for digest in self.digests()
                   if digest.startswith(prefix)]
        if not matches:
            raise StoreError("no artifact matching {!r} in registry at {}".format(
                prefix, self.root))
        if len(matches) > 1:
            raise StoreError("digest prefix {!r} is ambiguous ({} matches)".format(
                prefix, len(matches)))
        return matches[0]

    def reader(self, digest: str, mmap: bool = False,
               verify: bool = True) -> RegistryReader:
        digest = self.resolve(digest)
        record = self.artifact(digest)
        source = "{}#{}".format(self.root, digest[:12])
        return RegistryReader(self.store, record, source, mmap=mmap, verify=verify)

    def load(self, digest: str, mmap: bool = False, verify: bool = True):
        """Load the fitted object stored under *digest*.

        Same return convention as :func:`repro.store.bundle.load_bundle`:
        fitted pipelines come back as ``(fitted, digest)`` pairs.
        """
        return read_bundle_object(self.reader(digest, mmap=mmap, verify=verify))

    def remove(self, digest: str) -> int:
        """Drop an artifact record and the run records bound to it.

        Returns the number of records removed.  Objects are reclaimed by
        the next :meth:`gc`.
        """
        digest = self.resolve(digest)
        removed = 0
        path = self._artifacts / (digest + ".json")
        if path.is_file():
            path.unlink()
            removed += 1
        for run in self.runs():
            if run.get("artifact") == digest:
                (self._runs / (run["spec_digest"] + ".json")).unlink(missing_ok=True)
                removed += 1
        return removed

    # -- garbage collection ------------------------------------------------

    def refcounts(self) -> dict[str, int]:
        """object digest -> number of (artifact, part) references."""
        counts: dict[str, int] = {}
        for record in self.artifacts():
            for entry in record["parts"].values():
                counts[entry["object"]] = counts.get(entry["object"], 0) + 1
        return counts

    def gc(self) -> dict:
        """Delete objects no artifact references; returns the reclaim stats."""
        referenced = set(self.refcounts())
        deleted = 0
        bytes_freed = 0
        for sha in self.store.digests():
            if sha not in referenced:
                bytes_freed += self.store.delete(sha)
                deleted += 1
        return {
            "objects_deleted": deleted,
            "bytes_freed": bytes_freed,
            "objects_kept": len(referenced),
        }

    # -- provenance --------------------------------------------------------

    def runs(self) -> list[dict]:
        """Every run record (sorted by spec digest)."""
        if not self._runs.is_dir():
            return []
        return [codec.loads(path.read_text())
                for path in sorted(self._runs.glob("*.json"))]

    def run_record(self, digest: str) -> dict | None:
        """The run record for a spec digest, or ``None``."""
        path = self._runs / (digest + ".json")
        if not path.is_file():
            return None
        return codec.loads(path.read_text())

    def fit_or_load(self, pipeline, *fit_args, compress: bool = False,
                    verify: bool = True, mmap: bool = False) -> RunResult:
        """Fit ``pipeline`` on ``fit_args`` — unless the registry already has it.

        The normalized spec (pipeline name, full config, resolved engines,
        dataset fingerprints) is hashed; a run record under that hash
        whose artifact is still present turns the call into a verified
        load with no training.  Determinism end to end makes the cached
        artifact bit-identical to what a fresh fit would save, so the two
        paths are interchangeable.  A miss — new spec, changed seed or
        config, different dataset content, an engine override, or a
        garbage-collected artifact — fits, saves, and records.
        """
        spec = fit_spec(pipeline, *fit_args)
        digest = spec_digest(spec)
        run = self.run_record(digest)
        if run is not None:
            try:
                loaded = self.load(run["artifact"], mmap=mmap, verify=verify)
            except StoreError as error:
                if isinstance(error, BundleIntegrityError):
                    raise
                loaded = None  # artifact pruned since the run — refit below
            if loaded is not None:
                fitted = loaded[0] if isinstance(loaded, tuple) else loaded
                return RunResult(fitted=fitted, digest=run["artifact"],
                                 spec_digest=digest, cache_hit=True)
        fitted = pipeline.fit(*fit_args)
        report = self.save(fitted, compress=compress)
        self._runs.mkdir(parents=True, exist_ok=True)
        with atomic_path(self._runs / (digest + ".json")) as tmp:
            Path(tmp).write_text(codec.dumps({
                "spec_digest": digest,
                "artifact": report.digest,
                "pipeline": pipeline.name,
                "spec": spec,
            }))
        return RunResult(fitted=fitted, digest=report.digest, spec_digest=digest,
                         cache_hit=False, report=report)
