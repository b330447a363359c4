"""Versioned, pickle-free artifact bundles for fitted synthesizers.

A *bundle* is a single zip archive of small, typed parts — JSON for
configuration and schemas (through the exact :mod:`repro.store.codec`
envelope), NPZ for arrays and tables (:mod:`repro.store.tablefmt`) — plus
a ``manifest.json`` recording the format version, the bundle kind,
provenance metadata (seed, resolved engines, column schema) and a SHA-256
digest over every part.  Because a bundle is one file, publishing it is
one atomic ``os.replace``: a reader sees either the complete old bundle or
the complete new one, never a torn state — even when a writer overwrites a
bundle a serving process is concurrently loading.

Serializers exist for every fitted object in the synthesis path:

* :func:`save_great_synthesizer` / :func:`load_great_synthesizer` — the
  single-table GReaT synthesizer (tokenizer vocabulary, n-gram count
  arrays, textual decoder schema, training table, perplexity trace);
* :func:`save_parent_child` / :func:`load_parent_child` — the coupled
  parent/child pair plus its relational state;
* :func:`save_fitted_pipeline` / :func:`load_fitted_pipeline` — a whole
  fitted pipeline (enhancer mapping, one or two parent/child synthesizers,
  the original flat reference and the fit-time diagnostics);
* :func:`load_bundle` — kind-dispatched loading.

The model counts are stored as *unpacked* integer n-gram tables (one
``(n_contexts, k)`` context matrix per order plus CSR row pointers), the
canonical sorted layout both training engines already agree on — so a
loaded model reproduces the in-process model bit for bit on both the
``object`` and ``compiled`` engines, regardless of which engine trained it.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro import faults
from repro.enhancement.enhancer import DataSemanticEnhancer, EnhancerConfig
from repro.enhancement.mapping import MappingSystem
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.compiled import _MAX_PACKED_KEY
from repro.llm.engine import resolve_engine_kind
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig, NGramLanguageModel
from repro.llm.sampler import SamplerConfig
from repro.llm.tokenizer import Vocabulary, WordTokenizer
from repro.llm.training import ArrayTrainedNGramModel, CorpusCounts, resolve_training_engine
from repro.relational.parent_child import ParentChildConfig, ParentChildSynthesizer
import repro.store.codec as codec
import repro.store.npymap as npymap
from repro.store.atomic import atomic_path
from repro.store.codec import StoreError
from repro.store.tablefmt import (
    _decode_strings,
    _encode_strings,
    arrays_to_table,
    table_to_arrays,
)
from repro.textenc.decoder import TextualDecoder
from repro.textenc.encoder import EncoderConfig

#: Version of the bundle layout; readers reject every other version.
BUNDLE_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Bundle kinds understood by :func:`load_bundle`.
BUNDLE_KINDS = ("great_synthesizer", "parent_child_synthesizer", "fitted_pipeline",
                "multitable_synthesizer", "multitable_pipeline")

#: Fixed timestamp for every zip entry (bundle archives and inner NPZ
#: entries).  ``zipfile`` and ``numpy.savez`` stamp wall-clock time into
#: entry headers, which would give two byte-identical parts different
#: archive bytes — fatal for content addressing and part-level dedup.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


class BundleIntegrityError(StoreError):
    """A bundle's bytes do not match its manifest (sizes or SHA-256 digest)."""


def _zip_entry(name: str, compression: int = zipfile.ZIP_STORED) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    info.compress_type = compression
    info.external_attr = 0o644 << 16
    return info


def npz_bytes(arrays: dict, compress: bool = False) -> bytes:
    """Serialize a ``name -> ndarray`` mapping to deterministic NPZ bytes.

    Identical arrays always produce identical bytes: entries are written in
    sorted order with the fixed :data:`_ZIP_EPOCH` timestamp (``np.savez``
    would stamp the current time).  The layout is otherwise exactly what
    ``numpy.savez``/``savez_compressed`` produce, so ``numpy.load`` and
    :mod:`repro.store.npymap` read it unchanged.
    """
    from numpy.lib import format as npy_format

    compression = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=compression) as archive:
        for key in sorted(arrays):
            payload = io.BytesIO()
            npy_format.write_array(payload, np.asanyarray(arrays[key]),
                                   allow_pickle=False)
            archive.writestr(_zip_entry(key + ".npy", compression), payload.getvalue())
    return buffer.getvalue()


def parts_digest(parts: dict[str, bytes]) -> str:
    """SHA-256 over every part (name + content, sorted by name).

    The content address of a bundle: the same formula whether the parts
    live in one archive file or in the registry's object store, so a
    bundle file and its registry artifact share one digest.
    """
    sha = hashlib.sha256()
    for name in sorted(parts):
        sha.update(name.encode("utf-8"))
        sha.update(b"\x00")
        sha.update(parts[name])
    return sha.hexdigest()


def archive_bytes(parts: dict[str, bytes], manifest: dict) -> bytes:
    """The deterministic bundle archive holding *parts* plus *manifest*."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_STORED) as archive:
        for name in sorted(parts):
            archive.writestr(_zip_entry(name), parts[name])
        archive.writestr(_zip_entry(MANIFEST_NAME),
                         json.dumps(manifest, indent=2, sort_keys=True))
    return buffer.getvalue()


def verify_parts(manifest: dict, parts: dict[str, bytes], source) -> None:
    """Check *parts* against the manifest; raise :class:`BundleIntegrityError`.

    Three layers, cheapest first: the part-name sets must match, every
    part's size must match, and the recomputed content digest must equal
    the manifest's.
    """
    declared = manifest.get("parts", {})
    if set(declared) != set(parts):
        missing = sorted(set(declared) - set(parts))
        extra = sorted(set(parts) - set(declared))
        raise BundleIntegrityError(
            "bundle at {} does not match its manifest (missing parts: {}, "
            "undeclared parts: {})".format(source, missing, extra))
    for name, size in declared.items():
        if len(parts[name]) != size:
            raise BundleIntegrityError(
                "bundle part {!r} at {} is {} bytes, manifest declares {}".format(
                    name, source, len(parts[name]), size))
    digest = parts_digest(parts)
    if digest != manifest.get("digest"):
        raise BundleIntegrityError(
            "bundle at {} fails digest verification: parts hash to {}, "
            "manifest declares {}".format(source, digest, manifest.get("digest")))


# ---------------------------------------------------------------------------
# bundle container
# ---------------------------------------------------------------------------

class BundleWriter:
    """Accumulate named parts in memory, then write them atomically.

    ``compress`` selects the NPZ codec for array parts:
    ``numpy.savez_compressed`` (smaller, slower) when true,
    ``numpy.savez`` (larger, fast) when false.  The manifest records the
    choice; :class:`BundleReader` handles both transparently
    (``numpy.load`` sniffs the per-entry codec).
    """

    def __init__(self, kind: str, meta: dict | None = None, compress: bool = False):
        if kind not in BUNDLE_KINDS:
            raise StoreError("unknown bundle kind {!r}".format(kind))
        self.kind = kind
        self.meta = dict(meta or {})
        self.compress = bool(compress)
        self._parts: dict[str, bytes] = {}

    def add_json(self, name: str, value) -> None:
        """Add a JSON part (typed-codec encoded, so tuples/int keys survive)."""
        self._parts[name + ".json"] = codec.dumps(value).encode("utf-8")

    def add_arrays(self, name: str, arrays: dict) -> None:
        """Add an NPZ part from a name -> ndarray mapping."""
        self._parts[name + ".npz"] = npz_bytes(arrays, compress=self.compress)

    def add_table(self, name: str, table) -> None:
        """Add a table part in the binary columnar format."""
        self.add_arrays(name, table_to_arrays(table))

    @property
    def parts(self) -> dict[str, bytes]:
        """The accumulated parts (name -> bytes) — the registry stores these."""
        return dict(self._parts)

    def digest(self) -> str:
        """SHA-256 digest over every part (name + content, sorted by name)."""
        return parts_digest(self._parts)

    def manifest(self) -> dict:
        """The manifest describing the accumulated parts."""
        return {
            "format_version": BUNDLE_FORMAT_VERSION,
            "kind": self.kind,
            "digest": self.digest(),
            "compress": self.compress,
            "parts": {name: len(blob) for name, blob in sorted(self._parts.items())},
            "meta": self.meta,
        }

    def write(self, path) -> str:
        """Atomically write the bundle archive and return its digest.

        The parts are already compressed (NPZ) or tiny (JSON), so the
        archive stores them uncompressed; the whole file is published with
        one ``os.replace``.  The archive bytes are a pure function of the
        parts (fixed entry timestamps, sorted entries), so saving the same
        fitted state twice produces byte-identical files.
        """
        manifest = self.manifest()
        data = archive_bytes(self._parts, manifest)
        with atomic_path(path) as tmp:
            Path(tmp).write_bytes(data)
        return manifest["digest"]


def check_format_version(version, source) -> None:
    """Reject a manifest whose format version this reader does not speak."""
    if version != BUNDLE_FORMAT_VERSION:
        raise StoreError("{} has bundle format version {}; this reader supports "
                         "only version {}".format(source, version, BUNDLE_FORMAT_VERSION))


class BasePartReader:
    """Shared part-decoding surface of every bundle reader.

    Subclasses supply ``manifest``, ``mmap``, a ``path``-like source label,
    and :meth:`_part` returning raw part bytes; the typed accessors
    (:meth:`json`, :meth:`arrays`, :meth:`table`) and the manifest
    properties are common.  The per-kind readers (``_read_great`` & co.)
    accept anything with this surface, which is how the registry loads
    artifacts straight from its object store without a bundle file.
    """

    manifest: dict
    mmap: bool = False

    def _part(self, name: str) -> bytes:
        raise NotImplementedError

    @property
    def kind(self) -> str:
        return self.manifest["kind"]

    @property
    def digest(self) -> str:
        return self.manifest["digest"]

    @property
    def meta(self) -> dict:
        return self.manifest.get("meta", {})

    @property
    def compress(self) -> bool:
        """Whether the array parts were written compressed (manifest record).

        Bundles predating the knob were always compressed.
        """
        return bool(self.manifest.get("compress", True))

    def json(self, name: str):
        return codec.loads(self._part(name + ".json").decode("utf-8"))

    def arrays(self, name: str) -> dict:
        with np.load(io.BytesIO(self._part(name + ".npz"))) as data:
            return {key: data[key] for key in data.files}

    def table(self, name: str):
        arrays = self.arrays(name)
        if self.mmap:
            # tables feed column backends that expect ordinary writable
            # arrays; only the count tables stay mapped
            arrays = {key: np.array(value) if isinstance(value, np.memmap) else value
                      for key, value in arrays.items()}
        return arrays_to_table(arrays)


class BundleReader(BasePartReader):
    """Read parts of a bundle archive written by :class:`BundleWriter`.

    With ``mmap=True`` the NPZ parts are not copied into memory: their byte
    ranges are recorded and :meth:`arrays` hands out read-only
    ``np.memmap`` views of the bundle file (:mod:`repro.store.npymap`), so
    the n-gram count tables are backed by shared page cache instead of
    per-process heap copies.  Entries that cannot be mapped — the deflated
    NPZ entries of compressed bundles, object-dtype arrays — fall back to
    the eager read transparently; the manifest records nothing about the
    knob, it is purely a reader-side choice.

    With ``verify=True`` (the default) every part is re-hashed against the
    manifest's sizes and SHA-256 content digest before any part is
    decoded, raising :class:`BundleIntegrityError` on the first mismatch —
    a truncated copy or a flipped bit is caught at load time, not as a
    corrupt model downstream.

    A bundle whose ``format_version`` is not :data:`BUNDLE_FORMAT_VERSION`
    is rejected with :class:`StoreError`.
    """

    def __init__(self, path, mmap: bool = False, verify: bool = True):
        self.path = Path(path)
        self.mmap = bool(mmap)
        if not self.path.is_file():
            raise StoreError("no bundle at {}".format(self.path))
        if faults.check("bundle_truncated") is not None:
            raise StoreError(
                "injected truncated bundle read at {}".format(self.path))
        self._npz_spans: dict[str, tuple[int, int]] = {}
        try:
            with zipfile.ZipFile(self.path) as archive:
                names = archive.namelist()
                if MANIFEST_NAME not in names:
                    raise StoreError("bundle at {} has no manifest".format(self.path))
                try:
                    manifest = json.loads(archive.read(MANIFEST_NAME).decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as error:
                    raise StoreError("bundle manifest at {} is corrupt: {}".format(
                        self.path, error)) from None
                check_format_version(manifest.get("format_version"), self.path)
                part_names = [name for name in names if name != MANIFEST_NAME]
                if verify or not self.mmap:
                    raw = {name: archive.read(name) for name in part_names}
                else:
                    raw = {}
                if verify:
                    verify_parts(manifest, raw, self.path)
                if self.mmap:
                    # keep only the byte ranges of the mappable NPZ parts;
                    # the eager bytes read for verification are dropped
                    self._parts = {}
                    for info in archive.infolist():
                        if info.filename == MANIFEST_NAME:
                            continue
                        stored = info.compress_type == zipfile.ZIP_STORED
                        if stored and info.filename.endswith(".npz"):
                            self._npz_spans[info.filename] = (info.header_offset,
                                                              info.file_size)
                        else:
                            self._parts[info.filename] = (
                                raw[info.filename] if raw
                                else archive.read(info.filename))
                else:
                    self._parts = raw
        except zipfile.BadZipFile as error:
            raise StoreError("not a bundle archive: {} ({})".format(self.path, error)) from None
        except (OSError, EOFError) as error:
            # a bundle cut short mid-transfer can fail inside entry reads
            # rather than at the central-directory check above
            raise StoreError("truncated or unreadable bundle at {}: {}".format(
                self.path, error)) from None
        self.manifest = manifest

    def _part(self, name: str) -> bytes:
        try:
            return self._parts[name]
        except KeyError:
            raise StoreError("bundle at {} is missing part {!r}".format(self.path, name)) from None

    def arrays(self, name: str) -> dict:
        span = self._npz_spans.get(name + ".npz")
        if span is not None:
            return npymap.map_npz(self.path, *span)
        return super().arrays(name)


def read_manifest(path) -> dict:
    """The manifest of the bundle at *path* (format version checked).

    A metadata peek, so integrity verification is skipped — loaders verify.
    """
    return BundleReader(path, verify=False).manifest


# ---------------------------------------------------------------------------
# config reconstruction (frozen dataclasses from typed dicts)
# ---------------------------------------------------------------------------

def _build_model_config(d: dict) -> ModelConfig:
    return ModelConfig(**d)


def _build_fine_tune_config(d: dict) -> FineTuneConfig:
    return FineTuneConfig(**{**d, "model": _build_model_config(d["model"])})


def _build_great_config(d: dict) -> GReaTConfig:
    return GReaTConfig(
        fine_tune=_build_fine_tune_config(d["fine_tune"]),
        sampler=SamplerConfig(**d["sampler"]),
        encoder=EncoderConfig(**d["encoder"]),
        sampling_strategy=d["sampling_strategy"],
        permutation_passes=d["permutation_passes"],
        fallback_to_training_rows=d["fallback_to_training_rows"],
        seed=d["seed"],
    )


def _build_parent_child_config(d: dict) -> ParentChildConfig:
    return ParentChildConfig(
        parent=_build_great_config(d["parent"]),
        child=_build_great_config(d["child"]),
        children_per_parent=d["children_per_parent"],
        seed=d["seed"],
    )


def _build_multitable_config(d: dict):
    from repro.schema.inference import InferenceConfig
    from repro.schema.multitable import MultiTableConfig

    return MultiTableConfig(
        backbone=_build_great_config(d["backbone"]),
        children_per_parent=d["children_per_parent"],
        key_format=d["key_format"],
        inference=InferenceConfig(**d["inference"]),
        seed=d["seed"],
    )


# ---------------------------------------------------------------------------
# tokenizer / model parts
# ---------------------------------------------------------------------------

def _add_tokenizer(writer: BundleWriter, prefix: str, tokenizer: WordTokenizer) -> None:
    blob, offsets = _encode_strings(tokenizer.vocabulary.id_to_token)
    writer.add_arrays(prefix + "vocabulary", {"blob": blob, "offsets": offsets})


def _read_tokenizer(reader: BundleReader, prefix: str, lowercase: bool) -> WordTokenizer:
    arrays = reader.arrays(prefix + "vocabulary")
    tokens = _decode_strings(arrays["blob"], arrays["offsets"])
    vocabulary = Vocabulary(
        token_to_id={token: index for index, token in enumerate(tokens)},
        id_to_token=tokens,
    )
    return WordTokenizer(lowercase=lowercase, vocabulary=vocabulary)


def _unpack_context_keys(keys: np.ndarray, k: int, vocab_size: int) -> np.ndarray:
    digits = np.empty((keys.size, k), dtype=np.int64)
    remainder = keys.copy()
    for j in range(k - 1, -1, -1):
        digits[:, j] = remainder % vocab_size
        remainder //= vocab_size
    return digits


def _add_model(writer: BundleWriter, prefix: str, model: NGramLanguageModel) -> None:
    """Persist a trained model as unpacked integer n-gram count tables."""
    if not model.is_trained:
        raise StoreError("can only persist a trained model")
    config = model.config
    order = config.order
    vocab_size = len(model.tokenizer.vocabulary)
    arrays: dict[str, np.ndarray] = {}
    counts = getattr(model, "_array_counts", None)
    if counts is not None:
        for k in range(1, order):
            arrays["k{}_ctx".format(k)] = _unpack_context_keys(counts.keys[k], k, vocab_size)
            arrays["k{}_row_ptr".format(k)] = counts.row_ptr[k]
            arrays["k{}_tokens".format(k)] = counts.tokens[k]
            arrays["k{}_counts".format(k)] = counts.counts[k]
            arrays["k{}_totals".format(k)] = counts.totals[k]
        arrays["k0_tokens"] = counts.tokens0
        arrays["k0_counts"] = counts.counts0
        total0 = int(counts.total0)
    else:
        model._ensure_dict_tables()
        for k in range(1, order):
            items = sorted(model._counts[k].items())  # lexicographic == packed order
            contexts = np.asarray([context for context, _ in items],
                                  dtype=np.int64).reshape(len(items), k)
            row_ptr = np.zeros(len(items) + 1, dtype=np.int64)
            token_chunks: list[np.ndarray] = []
            count_chunks: list[np.ndarray] = []
            totals = np.empty(len(items), dtype=np.int64)
            for row, (context, counter) in enumerate(items):
                ordered = sorted(counter.items())
                token_chunks.append(np.fromiter((t for t, _ in ordered), dtype=np.int64,
                                                count=len(ordered)))
                count_chunks.append(np.fromiter((c for _, c in ordered), dtype=np.int64,
                                                count=len(ordered)))
                row_ptr[row + 1] = row_ptr[row] + len(ordered)
                totals[row] = int(model._context_totals[k].get(context, 0))
            arrays["k{}_ctx".format(k)] = contexts
            arrays["k{}_row_ptr".format(k)] = row_ptr
            arrays["k{}_tokens".format(k)] = (np.concatenate(token_chunks)
                                              if token_chunks else np.empty(0, np.int64))
            arrays["k{}_counts".format(k)] = (np.concatenate(count_chunks)
                                              if count_chunks else np.empty(0, np.int64))
            arrays["k{}_totals".format(k)] = totals
        ordered = sorted(model._counts[0].get((), {}).items())
        arrays["k0_tokens"] = np.fromiter((t for t, _ in ordered), dtype=np.int64,
                                          count=len(ordered))
        arrays["k0_counts"] = np.fromiter((c for _, c in ordered), dtype=np.int64,
                                          count=len(ordered))
        total0 = int(model._context_totals[0].get((), 0))
    writer.add_json(prefix + "model", {
        "config": asdict(config),
        "vocab_size": vocab_size,
        "trained_sentences": model.trained_sentences,
        "total0": total0,
    })
    writer.add_arrays(prefix + "model_arrays", arrays)


def _read_model(reader: BundleReader, prefix: str,
                tokenizer: WordTokenizer) -> NGramLanguageModel:
    header = reader.json(prefix + "model")
    config = _build_model_config(header["config"])
    vocab_size = header["vocab_size"]
    if vocab_size != len(tokenizer.vocabulary):
        raise StoreError(
            "model artifact was trained with vocabulary size {}, bundle vocabulary has {}".format(
                vocab_size, len(tokenizer.vocabulary)
            )
        )
    arrays = reader.arrays(prefix + "model_arrays")
    order = config.order
    packable = vocab_size >= 1 and max(vocab_size, 2) ** order < _MAX_PACKED_KEY
    if packable:
        keys: dict = {}
        row_ptr: dict = {}
        tokens: dict = {}
        counts: dict = {}
        totals: dict = {}
        for k in range(1, order):
            contexts = arrays["k{}_ctx".format(k)].reshape(-1, k)
            packed = np.zeros(contexts.shape[0], dtype=np.int64)
            for j in range(k):
                packed = packed * vocab_size + contexts[:, j]
            keys[k] = packed
            row_ptr[k] = arrays["k{}_row_ptr".format(k)]
            tokens[k] = arrays["k{}_tokens".format(k)]
            counts[k] = arrays["k{}_counts".format(k)]
            totals[k] = arrays["k{}_totals".format(k)]
        corpus_counts = CorpusCounts(
            order=order, vocab_size=vocab_size, keys=keys, row_ptr=row_ptr,
            tokens=tokens, counts=counts, totals=totals,
            tokens0=arrays["k0_tokens"], counts0=arrays["k0_counts"],
            total0=header["total0"],
        )
        return ArrayTrainedNGramModel(tokenizer, config, corpus_counts,
                                      trained_sentences=header["trained_sentences"])
    # vocabulary too large for packed int64 keys: rebuild the dict tables
    from collections import Counter

    model = NGramLanguageModel(tokenizer, config)
    for k in range(1, order):
        contexts = arrays["k{}_ctx".format(k)].reshape(-1, k).tolist()
        row_ptr = arrays["k{}_row_ptr".format(k)].tolist()
        token_list = arrays["k{}_tokens".format(k)].tolist()
        count_list = arrays["k{}_counts".format(k)].tolist()
        total_list = arrays["k{}_totals".format(k)].tolist()
        for row, context in enumerate(contexts):
            lo, hi = row_ptr[row], row_ptr[row + 1]
            key = tuple(context)
            model._counts[k][key] = Counter(dict(zip(token_list[lo:hi], count_list[lo:hi])))
            model._context_totals[k][key] = total_list[row]
    tokens0 = arrays["k0_tokens"].tolist()
    counts0 = arrays["k0_counts"].tolist()
    if tokens0:
        model._counts[0][()] = Counter(dict(zip(tokens0, counts0)))
        model._context_totals[0][()] = int(header["total0"])
    model._trained_sentences = header["trained_sentences"]
    return model


# ---------------------------------------------------------------------------
# GReaT synthesizer parts
# ---------------------------------------------------------------------------

def _add_great(writer: BundleWriter, prefix: str, synth: GReaTSynthesizer) -> None:
    if not synth.is_fitted:
        raise StoreError("can only persist a fitted synthesizer")
    decoder = synth.decoder
    writer.add_json(prefix + "config", asdict(synth.config))
    writer.add_json(prefix + "state", {
        "perplexity_trace": list(synth.perplexity_trace),
        "training_engine": synth.training_engine,
        "lowercase": synth.model.tokenizer.lowercase,
    })
    writer.add_json(prefix + "decoder", {
        "columns": list(decoder.columns),
        "dtypes": dict(decoder.dtypes),
        "pair_separator": decoder.pair_separator,
        "key_value_separator": decoder.key_value_separator,
        "missing_token": decoder.missing_token,
    })
    _add_tokenizer(writer, prefix, synth.model.tokenizer)
    _add_model(writer, prefix, synth.model)
    writer.add_table(prefix + "training_table", synth._training_table)


def _read_great(reader: BundleReader, prefix: str) -> GReaTSynthesizer:
    config = _build_great_config(reader.json(prefix + "config"))
    state = reader.json(prefix + "state")
    tokenizer = _read_tokenizer(reader, prefix, lowercase=state["lowercase"])
    model = _read_model(reader, prefix, tokenizer)
    decoder_state = reader.json(prefix + "decoder")
    decoder = TextualDecoder(
        decoder_state["columns"],
        dtypes=decoder_state["dtypes"],
        pair_separator=decoder_state["pair_separator"],
        key_value_separator=decoder_state["key_value_separator"],
        missing_token=decoder_state["missing_token"],
    )
    return GReaTSynthesizer._from_fitted_state(
        config,
        training_table=reader.table(prefix + "training_table"),
        model=model,
        decoder=decoder,
        perplexity_trace=state["perplexity_trace"],
        training_engine=state["training_engine"],
    )


# ---------------------------------------------------------------------------
# parent/child synthesizer parts
# ---------------------------------------------------------------------------

def _add_parent_child(writer: BundleWriter, prefix: str,
                      synth: ParentChildSynthesizer) -> None:
    if not synth.is_fitted:
        raise StoreError("can only persist a fitted synthesizer")
    writer.add_json(prefix + "config", asdict(synth.config))
    writer.add_json(prefix + "state", {
        "subject_column": synth._subject_column,
        "parent_columns": list(synth._parent_columns),
        "child_columns": list(synth._child_columns),
        "children_per_subject": list(synth._children_per_subject),
    })
    _add_great(writer, prefix + "parent.", synth._parent_synth)
    _add_great(writer, prefix + "child.", synth._child_synth)


def _read_parent_child(reader: BundleReader, prefix: str) -> ParentChildSynthesizer:
    config = _build_parent_child_config(reader.json(prefix + "config"))
    state = reader.json(prefix + "state")
    return ParentChildSynthesizer._from_fitted_state(
        config,
        parent_synth=_read_great(reader, prefix + "parent."),
        child_synth=_read_great(reader, prefix + "child."),
        subject_column=state["subject_column"],
        parent_columns=state["parent_columns"],
        child_columns=state["child_columns"],
        children_per_subject=state["children_per_subject"],
    )


# ---------------------------------------------------------------------------
# multi-table synthesizer parts
# ---------------------------------------------------------------------------

def _add_multitable(writer: BundleWriter, prefix: str, synth) -> None:
    if not synth.is_fitted:
        raise StoreError("can only persist a fitted synthesizer")
    graph = synth.graph
    writer.add_json(prefix + "graph", graph.to_dict())
    writer.add_json(prefix + "config", asdict(synth.config))
    writer.add_json(prefix + "state", {
        "training_rows": dict(synth._training_rows),
        "roots": sorted(synth._root_synths),
        "edges": sorted(synth._edges),
    })
    for name in sorted(synth._root_synths):
        _add_great(writer, "{}root.{}.".format(prefix, name), synth._root_synths[name])
    for name in sorted(synth._edges):
        edge = synth._edges[name]
        edge_prefix = "{}edge.{}.".format(prefix, name)
        writer.add_json(edge_prefix + "edge_state", {
            "fk": edge.fk.to_dict(),
            "children_per_parent": edge.children_per_parent,
            "parent_features": list(edge._parent_features),
            "child_features": list(edge._child_features),
            "prompt_names": dict(edge._prompt_names),
            "counts": list(edge._children_per_parent_counts),
        })
        _add_great(writer, edge_prefix, edge._synth)


def _read_multitable(reader: BundleReader, prefix: str):
    from repro.schema.graph import ForeignKey, SchemaGraph
    from repro.schema.multitable import EdgeSynthesizer, MultiTableSynthesizer

    graph = SchemaGraph.from_dict(reader.json(prefix + "graph"))
    config = _build_multitable_config(reader.json(prefix + "config"))
    state = reader.json(prefix + "state")
    root_synths = {
        name: _read_great(reader, "{}root.{}.".format(prefix, name))
        for name in state["roots"]
    }
    edges = {}
    for name in state["edges"]:
        edge_prefix = "{}edge.{}.".format(prefix, name)
        edge_state = reader.json(edge_prefix + "edge_state")
        edges[name] = EdgeSynthesizer._from_fitted_state(
            config.backbone,
            fk=ForeignKey.from_dict(edge_state["fk"]),
            children_per_parent=edge_state["children_per_parent"],
            synth=_read_great(reader, edge_prefix),
            parent_features=edge_state["parent_features"],
            child_features=edge_state["child_features"],
            prompt_names=edge_state["prompt_names"],
            counts=edge_state["counts"],
        )
    return MultiTableSynthesizer._from_fitted_state(
        config, graph, root_synths=root_synths, edges=edges,
        training_rows=state["training_rows"],
    )


# ---------------------------------------------------------------------------
# enhancer parts
# ---------------------------------------------------------------------------

def _add_enhancer(writer: BundleWriter, prefix: str,
                  enhancer: DataSemanticEnhancer) -> None:
    mapping = enhancer.mapping  # raises before fit
    forward = {column: dict(mapping.mapping_for(column).forward)
               for column in mapping.columns}
    writer.add_json(prefix + "enhancer", {
        "config": asdict(enhancer.config),
        "forward": forward,
        "special_columns": list(enhancer._special_columns),
    })


def _read_enhancer(reader: BundleReader, prefix: str) -> DataSemanticEnhancer:
    state = reader.json(prefix + "enhancer")
    config_dict = dict(state["config"])
    config = EnhancerConfig(**config_dict)
    enhancer = DataSemanticEnhancer(config)
    mapping = MappingSystem()
    for column, forward in state["forward"].items():
        mapping.add_column(column, forward)
    enhancer._mapping = mapping
    enhancer._special_columns = list(state["special_columns"])
    return enhancer


# ---------------------------------------------------------------------------
# public save/load entry points
# ---------------------------------------------------------------------------

def _engine_meta(fine_tune_engine: str, sampler_engine: str) -> dict:
    return {
        "training_engine": resolve_training_engine(fine_tune_engine),
        "generation_engine": resolve_engine_kind(sampler_engine),
    }


def writer_for_great_synthesizer(synth: GReaTSynthesizer,
                                 compress: bool = False) -> BundleWriter:
    """Build the bundle writer for a fitted GReaT synthesizer."""
    if not synth.is_fitted:
        raise StoreError("can only persist a fitted synthesizer")
    writer = BundleWriter("great_synthesizer", compress=compress, meta={
        "seed": synth.config.seed,
        "columns": synth._training_table.dtypes(),
        **_engine_meta(synth.config.fine_tune.engine, synth.config.sampler.engine),
    })
    _add_great(writer, "", synth)
    return writer


def save_great_synthesizer(synth: GReaTSynthesizer, path, compress: bool = False) -> str:
    """Persist a fitted GReaT synthesizer bundle; returns the digest."""
    return writer_for_great_synthesizer(synth, compress=compress).write(path)


def load_great_synthesizer(path, mmap: bool = False,
                           verify: bool = True) -> GReaTSynthesizer:
    reader = BundleReader(path, mmap=mmap, verify=verify)
    if reader.kind != "great_synthesizer":
        raise StoreError("bundle at {} is a {!r}, not a GReaT synthesizer".format(
            path, reader.kind))
    return _read_great(reader, "")


def writer_for_parent_child(synth: ParentChildSynthesizer,
                            compress: bool = False) -> BundleWriter:
    """Build the bundle writer for a fitted parent/child synthesizer."""
    if not synth.is_fitted:
        raise StoreError("can only persist a fitted synthesizer")
    writer = BundleWriter("parent_child_synthesizer", compress=compress, meta={
        "seed": synth.config.seed,
        "subject_column": synth._subject_column,
        **_engine_meta(synth.config.parent.fine_tune.engine,
                       synth.config.parent.sampler.engine),
    })
    _add_parent_child(writer, "", synth)
    return writer


def save_parent_child(synth: ParentChildSynthesizer, path, compress: bool = False) -> str:
    """Persist a fitted parent/child synthesizer bundle; returns the digest."""
    return writer_for_parent_child(synth, compress=compress).write(path)


def load_parent_child(path, mmap: bool = False,
                      verify: bool = True) -> ParentChildSynthesizer:
    reader = BundleReader(path, mmap=mmap, verify=verify)
    if reader.kind != "parent_child_synthesizer":
        raise StoreError("bundle at {} is a {!r}, not a parent/child synthesizer".format(
            path, reader.kind))
    return _read_parent_child(reader, "")


def writer_for_fitted_pipeline(fitted, compress: bool = False) -> BundleWriter:
    """Build the bundle writer for a fitted flat pipeline."""
    writer = BundleWriter("fitted_pipeline", compress=compress, meta={
        "pipeline": fitted.name,
        "seed": fitted.config.seed,
        "columns": fitted.original_flat.dtypes(),
        **_engine_meta(fitted.config.training_engine, fitted.config.generation_engine),
    })
    writer.add_json("pipeline", {
        "name": fitted.name,
        "subject_column": fitted.subject_column,
        "n_training_subjects": fitted.n_training_subjects,
        "n_synthesizers": len(fitted.synthesizers),
        "details": dict(fitted.details),
    })
    writer.add_json("pipeline_config", asdict(fitted.config))
    _add_enhancer(writer, "", fitted.enhancer)
    writer.add_table("original_flat", fitted.original_flat)
    for index, synth in enumerate(fitted.synthesizers):
        _add_parent_child(writer, "synth{}.".format(index), synth)
    return writer


def save_fitted_pipeline(fitted, path, compress: bool = False) -> str:
    """Persist a :class:`repro.pipelines.base.FittedPipeline`; returns the digest."""
    return writer_for_fitted_pipeline(fitted, compress=compress).write(path)


def _read_fitted_pipeline(reader):
    from repro.connecting.connector import ConnectorConfig
    from repro.pipelines.base import FittedPipeline
    from repro.pipelines.config import PipelineConfig

    state = reader.json("pipeline")
    config_dict = reader.json("pipeline_config")
    config = PipelineConfig(**{
        **config_dict,
        "enhancer": EnhancerConfig(**config_dict["enhancer"]),
        "connector": ConnectorConfig(**config_dict["connector"]),
    })
    synthesizers = [
        _read_parent_child(reader, "synth{}.".format(index))
        for index in range(state["n_synthesizers"])
    ]
    fitted = FittedPipeline(
        name=state["name"],
        config=config,
        subject_column=state["subject_column"],
        enhancer=_read_enhancer(reader, ""),
        synthesizers=synthesizers,
        original_flat=reader.table("original_flat"),
        n_training_subjects=state["n_training_subjects"],
        details=state["details"],
    )
    return fitted, reader.digest


def load_fitted_pipeline(path, mmap: bool = False, verify: bool = True):
    """Load a fitted pipeline bundle; returns ``(fitted, digest)``."""
    reader = BundleReader(path, mmap=mmap, verify=verify)
    if reader.kind != "fitted_pipeline":
        raise StoreError("bundle at {} is a {!r}, not a fitted pipeline".format(
            path, reader.kind))
    return _read_fitted_pipeline(reader)


def writer_for_multitable(synth, compress: bool = False) -> BundleWriter:
    """Build the bundle writer for a fitted multi-table synthesizer."""
    if not synth.is_fitted:
        raise StoreError("can only persist a fitted synthesizer")
    backbone = synth.config.backbone
    writer = BundleWriter("multitable_synthesizer", compress=compress, meta={
        "seed": synth.config.seed,
        "tables": synth.graph.table_names,
        "foreign_keys": [fk.edge_name for fk in synth.graph.foreign_keys],
        **_engine_meta(backbone.fine_tune.engine, backbone.sampler.engine),
    })
    _add_multitable(writer, "", synth)
    return writer


def save_multitable(synth, path, compress: bool = False) -> str:
    """Persist a fitted :class:`repro.schema.multitable.MultiTableSynthesizer`."""
    return writer_for_multitable(synth, compress=compress).write(path)


def load_multitable(path, mmap: bool = False, verify: bool = True):
    """Load a fitted multi-table synthesizer bundle."""
    reader = BundleReader(path, mmap=mmap, verify=verify)
    if reader.kind != "multitable_synthesizer":
        raise StoreError("bundle at {} is a {!r}, not a multi-table synthesizer".format(
            path, reader.kind))
    return _read_multitable(reader, "")


def writer_for_multitable_pipeline(fitted, compress: bool = False) -> BundleWriter:
    """Build the bundle writer for a fitted multitable pipeline."""
    backbone = fitted.synthesizer.config.backbone
    writer = BundleWriter("multitable_pipeline", compress=compress, meta={
        "pipeline": fitted.name,
        "seed": fitted.config.seed,
        "tables": fitted.graph.table_names,
        "foreign_keys": [fk.edge_name for fk in fitted.graph.foreign_keys],
        **_engine_meta(backbone.fine_tune.engine, backbone.sampler.engine),
    })
    writer.add_json("pipeline", {"name": fitted.name})
    writer.add_json("pipeline_config", asdict(fitted.config))
    _add_multitable(writer, "synth.", fitted.synthesizer)
    return writer


def save_multitable_pipeline(fitted, path, compress: bool = False) -> str:
    """Persist a :class:`repro.pipelines.multitable.FittedMultiTablePipeline`."""
    return writer_for_multitable_pipeline(fitted, compress=compress).write(path)


def _read_multitable_pipeline(reader):
    from repro.pipelines.multitable import (
        FittedMultiTablePipeline,
        MultiTablePipelineConfig,
    )
    from repro.schema.inference import InferenceConfig

    state = reader.json("pipeline")
    config_dict = reader.json("pipeline_config")
    config = MultiTablePipelineConfig(**{
        **config_dict,
        "inference": InferenceConfig(**config_dict["inference"]),
    })
    fitted = FittedMultiTablePipeline(
        name=state["name"],
        config=config,
        synthesizer=_read_multitable(reader, "synth."),
    )
    return fitted, reader.digest


def load_multitable_pipeline(path, mmap: bool = False, verify: bool = True):
    """Load a fitted multitable-pipeline bundle; returns ``(fitted, digest)``."""
    reader = BundleReader(path, mmap=mmap, verify=verify)
    if reader.kind != "multitable_pipeline":
        raise StoreError("bundle at {} is a {!r}, not a multitable pipeline".format(
            path, reader.kind))
    return _read_multitable_pipeline(reader)


def bundle_writer_for(obj, compress: bool = False) -> BundleWriter:
    """The bundle writer for any persistable fitted object (type-dispatched).

    The registry's save path: it enumerates ``writer.parts`` into the
    content-addressed store instead of writing one archive file.
    """
    if isinstance(obj, GReaTSynthesizer):
        return writer_for_great_synthesizer(obj, compress=compress)
    if isinstance(obj, ParentChildSynthesizer):
        return writer_for_parent_child(obj, compress=compress)
    from repro.pipelines.base import FittedPipeline

    if isinstance(obj, FittedPipeline):
        return writer_for_fitted_pipeline(obj, compress=compress)
    from repro.pipelines.multitable import FittedMultiTablePipeline

    if isinstance(obj, FittedMultiTablePipeline):
        return writer_for_multitable_pipeline(obj, compress=compress)
    from repro.schema.multitable import MultiTableSynthesizer

    if isinstance(obj, MultiTableSynthesizer):
        return writer_for_multitable(obj, compress=compress)
    raise StoreError("no bundle serializer for {!r}".format(type(obj).__name__))


def read_bundle_object(reader):
    """Load whatever fitted object *reader* (any :class:`BasePartReader`) holds.

    Returns the loaded object; for fitted pipelines this is the
    ``(fitted, digest)`` pair of :func:`load_fitted_pipeline` /
    :func:`load_multitable_pipeline`.
    """
    kind = reader.kind
    if kind == "great_synthesizer":
        return _read_great(reader, "")
    if kind == "parent_child_synthesizer":
        return _read_parent_child(reader, "")
    if kind == "fitted_pipeline":
        return _read_fitted_pipeline(reader)
    if kind == "multitable_synthesizer":
        return _read_multitable(reader, "")
    if kind == "multitable_pipeline":
        return _read_multitable_pipeline(reader)
    raise StoreError("unknown bundle kind {!r}".format(kind))


def load_bundle(path, mmap: bool = False, verify: bool = True):
    """Load whatever fitted object the bundle at *path* contains.

    Returns the loaded object; for fitted pipelines this is the
    ``(fitted, digest)`` pair of :func:`load_fitted_pipeline` /
    :func:`load_multitable_pipeline`.
    """
    return read_bundle_object(BundleReader(path, mmap=mmap, verify=verify))
