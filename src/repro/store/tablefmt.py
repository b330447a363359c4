"""Binary columnar table format: NPZ files and a raw-buffer wire form.

CSV round-trips lose information: dtypes are re-inferred from text, the
``"1_000"`` class of cells is ambiguous, and dictionary encodings are
flattened.  This module persists a :class:`~repro.frame.table.Table`
losslessly as a single ``.npz`` file holding exactly the arrays the storage
backends already keep in memory:

* ``numeric`` columns — the typed ndarray plus its validity mask;
* ``categorical`` columns — the int64 code array plus the category list in
  first-seen order (stored as UTF-8 bytes + offsets, so embedded NULs and
  all of Unicode survive);
* everything else (``mixed``/``empty``/non-string categories) — a tagged
  scalar encoding (one type tag per row plus parallel int/float/string
  arrays), the exact object-backend fallback.

A JSON schema travels inside the archive (entry ``__schema__``) recording
the format version, column names, logical dtypes and per-column storage, so
the file is self-describing and the reconstruction restores the same
backend representation bit for bit — dtypes, validity masks and dictionary
codes included.  Writes are atomic (temp file + ``os.replace``).

The same arrays also have a wire form for handing tables between
processes, :func:`table_to_bytes` / :func:`table_from_bytes`, which skips
the zip container.  All integers are little-endian::

    magic b"RTBL" | version u16 | reserved u16 | header length u32 | CRC-32 u32
    JSON header (one [name, dtype.str, shape, offset, length] per array)
    zero padding to 8 bytes, then the raw array buffers, each 8-aligned

The CRC covers every byte but its own four.  Decoding checks it, every
offset and length against the blob and every dtype's kind (``b``/``i``/
``u``/``f`` only) before it reads the buffers with ``np.frombuffer``; any
violation raises :class:`~repro.store.codec.StoreError`.  Each array is
copied out of the blob, so a decoded table kept in a cache does not pin
the blob's other bytes (category strings, the JSON schema).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.frame.backend import CategoricalBackend, NumericBackend, ObjectBackend
from repro.frame.column import Column
from repro.frame.table import Table
from repro.store.atomic import atomic_path
from repro.store.codec import StoreError

#: Version of the on-disk table layout; bumped on incompatible changes.
TABLE_FORMAT_VERSION = 1

_SCHEMA_KEY = "__schema__"

#: Version of the wire layout of :func:`table_to_bytes`.
WIRE_FORMAT_VERSION = 1
_WIRE_MAGIC = b"RTBL"
#: magic, version, reserved, header length; the CRC-32 follows it
_WIRE_HEAD = struct.Struct("<4sHHI")
_WIRE_START = _WIRE_HEAD.size + 4
_WIRE_ALIGN = 8
_WIRE_KINDS = frozenset("biuf")

# tags of the object-fallback scalar encoding
_TAG_NONE, _TAG_BOOL, _TAG_INT, _TAG_FLOAT, _TAG_STR = 0, 1, 2, 3, 4


# ---------------------------------------------------------------------------
# string lists as UTF-8 bytes + offsets (exact for every Python str)
# ---------------------------------------------------------------------------

def _encode_strings(strings: list) -> tuple[np.ndarray, np.ndarray]:
    joined = "".join(strings)
    if joined.isascii():  # one byte per character: encode once
        raw, lengths = joined.encode("ascii"), map(len, strings)
    else:
        blobs = [s.encode("utf-8") for s in strings]
        raw, lengths = b"".join(blobs), map(len, blobs)
    offsets = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(lengths, np.int64, len(strings)), out=offsets[1:])
    return np.frombuffer(raw, dtype=np.uint8), offsets


def _decode_strings(payload: np.ndarray, offsets: np.ndarray) -> list[str]:
    raw = payload.tobytes()
    bounds = offsets.tolist()
    if raw.isascii():  # byte offsets are character offsets: decode once
        text = raw.decode("ascii")
        return [text[start:end] for start, end in zip(bounds, bounds[1:])]
    return [raw[start:end].decode("utf-8") for start, end in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# column encodings
# ---------------------------------------------------------------------------

def _encode_object_column(values: list, prefix: str, arrays: dict) -> None:
    """Tagged scalar encoding of an object-backed value list."""
    n = len(values)
    tags = np.zeros(n, dtype=np.uint8)
    ints = np.zeros(n, dtype=np.int64)
    floats = np.zeros(n, dtype=np.float64)
    strings = [""] * n
    for i, value in enumerate(values):
        if value is None:
            continue
        if isinstance(value, bool):
            tags[i] = _TAG_BOOL
            ints[i] = int(value)
        elif isinstance(value, int):
            tags[i] = _TAG_INT
            try:
                ints[i] = value
            except OverflowError:
                raise StoreError(
                    "integer {!r} does not fit the int64 artifact encoding".format(value)
                ) from None
        elif isinstance(value, float):
            tags[i] = _TAG_FLOAT
            floats[i] = value
        elif isinstance(value, str):
            tags[i] = _TAG_STR
            strings[i] = value
        else:
            raise StoreError(
                "cannot persist value of type {} (row {}); the artifact format "
                "stores None/bool/int/float/str scalars only".format(type(value).__name__, i)
            )
    blob, offsets = _encode_strings(strings)
    arrays[prefix + "tags"] = tags
    arrays[prefix + "ints"] = ints
    arrays[prefix + "floats"] = floats
    arrays[prefix + "str_blob"] = blob
    arrays[prefix + "str_offsets"] = offsets


def _decode_object_column(prefix: str, arrays: dict) -> list:
    tags = arrays[prefix + "tags"]
    ints = arrays[prefix + "ints"].tolist()
    floats = arrays[prefix + "floats"].tolist()
    strings = _decode_strings(arrays[prefix + "str_blob"], arrays[prefix + "str_offsets"])
    values: list = []
    for i, tag in enumerate(tags.tolist()):
        if tag == _TAG_NONE:
            values.append(None)
        elif tag == _TAG_BOOL:
            values.append(bool(ints[i]))
        elif tag == _TAG_INT:
            values.append(ints[i])
        elif tag == _TAG_FLOAT:
            values.append(floats[i])
        elif tag == _TAG_STR:
            values.append(strings[i])
        else:
            raise StoreError("unknown scalar tag {} in table artifact".format(tag))
    return values


# ---------------------------------------------------------------------------
# table <-> arrays
# ---------------------------------------------------------------------------

def table_to_arrays(table: Table) -> dict[str, np.ndarray]:
    """Flatten *table* into named arrays plus an embedded JSON schema."""
    arrays: dict[str, np.ndarray] = {}
    columns_meta: list[dict] = []
    for index, column in enumerate(table.columns):
        prefix = "c{}_".format(index)
        backend = column._backend
        if isinstance(backend, NumericBackend):
            storage = "numeric"
            arrays[prefix + "data"] = backend.data
            if backend.mask is not None:
                arrays[prefix + "mask"] = backend.mask
        elif isinstance(backend, CategoricalBackend) and all(
            issubclass(kind, str) for kind in set(map(type, backend.categories))
        ):
            storage = "categorical"
            arrays[prefix + "codes"] = backend.codes
            blob, offsets = _encode_strings(backend.categories)
            arrays[prefix + "cat_blob"] = blob
            arrays[prefix + "cat_offsets"] = offsets
        else:
            storage = "object"
            _encode_object_column(backend.tolist(), prefix, arrays)
        columns_meta.append({"name": column.name, "dtype": column.dtype, "storage": storage})
    schema = {
        "format_version": TABLE_FORMAT_VERSION,
        "num_rows": table.num_rows,
        "columns": columns_meta,
    }
    arrays[_SCHEMA_KEY] = np.frombuffer(json.dumps(schema).encode("utf-8"), dtype=np.uint8)
    return arrays


def arrays_to_table(arrays: dict) -> Table:
    """Inverse of :func:`table_to_arrays`: exact backend reconstruction."""
    if _SCHEMA_KEY not in arrays:
        raise StoreError("table artifact is missing its embedded schema")
    schema = json.loads(np.asarray(arrays[_SCHEMA_KEY]).tobytes().decode("utf-8"))
    version = schema.get("format_version")
    if version is None or version > TABLE_FORMAT_VERSION:
        raise StoreError(
            "table artifact format version {} is newer than supported version {}".format(
                version, TABLE_FORMAT_VERSION
            )
        )
    columns: list[Column] = []
    for index, meta in enumerate(schema["columns"]):
        prefix = "c{}_".format(index)
        storage = meta["storage"]
        if storage == "numeric":
            data = arrays[prefix + "data"]
            mask = arrays.get(prefix + "mask")
            backend = NumericBackend(data, None if mask is None else mask)
        elif storage == "categorical":
            categories = _decode_strings(arrays[prefix + "cat_blob"],
                                         arrays[prefix + "cat_offsets"])
            backend = CategoricalBackend(arrays[prefix + "codes"], categories)
        elif storage == "object":
            backend = ObjectBackend(_decode_object_column(prefix, arrays))
        else:
            raise StoreError("unknown column storage {!r} in table artifact".format(storage))
        columns.append(Column._from_backend(meta["name"], backend, meta["dtype"]))
    return Table(columns, num_rows=schema.get("num_rows"))


# ---------------------------------------------------------------------------
# wire round trip
# ---------------------------------------------------------------------------

def _aligned(size: int) -> int:
    return size + -size % _WIRE_ALIGN


def _padding(size: int) -> bytes:
    return bytes(_aligned(size) - size)


def table_to_bytes(table: Table) -> bytes:
    """Serialize *table* to the raw-buffer wire form (see the module docs)."""
    entries, buffers, offset = [], [], 0
    for name, array in table_to_arrays(table).items():
        array = np.ascontiguousarray(array)
        entries.append([name, array.dtype.str, list(array.shape), offset, array.nbytes])
        buffers += [array.data.cast("B"), _padding(array.nbytes)]
        offset += array.nbytes + len(buffers[-1])
    header = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    body = b"".join([header, _padding(_WIRE_START + len(header)), *buffers])
    head = _WIRE_HEAD.pack(_WIRE_MAGIC, WIRE_FORMAT_VERSION, 0, len(header))
    crc = zlib.crc32(body, zlib.crc32(head))
    return b"".join([head, crc.to_bytes(4, "little"), body])


def _wire_arrays(blob) -> dict:
    """Check *blob*'s framing, CRC and header; copy out its arrays."""
    view = memoryview(blob).cast("B")
    size = len(view)
    if size < _WIRE_START:
        raise StoreError("table blob of {} bytes is shorter than its prefix".format(size))
    magic, version, _, header_len = _WIRE_HEAD.unpack_from(view)
    if magic != _WIRE_MAGIC:
        raise StoreError("table blob does not start with the wire magic")
    if not 1 <= version <= WIRE_FORMAT_VERSION:
        raise StoreError("table blob wire version {} is not supported (newest is {})".format(
            version, WIRE_FORMAT_VERSION))
    crc = int.from_bytes(view[_WIRE_HEAD.size:_WIRE_START], "little")
    if zlib.crc32(view[_WIRE_START:], zlib.crc32(view[:_WIRE_HEAD.size])) != crc:
        raise StoreError("table blob fails its CRC-32 check")
    header_end = _WIRE_START + header_len
    start = _aligned(header_end)
    if start > size:
        raise StoreError("table blob header runs past the end of the blob")
    arrays, end = {}, 0
    try:
        entries = json.loads(bytes(view[_WIRE_START:header_end]).decode("utf-8"))
        for name, dtype_str, shape, offset, length in entries:
            dtype = np.dtype(dtype_str) if isinstance(dtype_str, str) else None
            if dtype is None or dtype.kind not in _WIRE_KINDS:
                raise StoreError("table blob array {!r} has unsupported dtype {!r}".format(
                    name, dtype_str))
            count = math.prod(shape)
            if (min(shape, default=0) < 0 or min(offset, length) < 0
                    or count * dtype.itemsize != length or start + offset + length > size):
                raise StoreError("table blob array {!r} lies outside the blob".format(name))
            arrays[name] = np.frombuffer(view, dtype, count, start + offset).reshape(shape).copy()
            end = max(end, offset + length)
    except (TypeError, ValueError) as error:  # UnicodeDecodeError and JSON errors too
        raise StoreError("table blob header is malformed: {!r}".format(error)) from None
    if start + _aligned(end) != size:
        raise StoreError("table blob length does not match its header")
    return arrays


def table_from_bytes(blob) -> Table:
    """Inverse of :func:`table_to_bytes`."""
    arrays = _wire_arrays(blob)
    try:
        return arrays_to_table(arrays)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as error:
        raise StoreError("table blob does not hold a valid table: {!r}".format(error)) from None


# ---------------------------------------------------------------------------
# file round trip
# ---------------------------------------------------------------------------

def write_table(table: Table, path, compress: bool = True) -> Path:
    """Atomically persist *table* as a single NPZ artifact and return the path.

    ``compress=False`` keeps the inner ``.npy`` entries stored (uncompressed),
    which is what lets :func:`repro.store.npymap.map_npz_file` hand back
    memory-mapped views instead of copies — the spill files of the streaming
    path are written this way.
    """
    path = Path(path)
    save = np.savez_compressed if compress else np.savez
    with atomic_path(path) as tmp:
        with open(tmp, "wb") as handle:
            save(handle, **table_to_arrays(table))
    return path


def read_table(path) -> Table:
    """Load a table persisted by :func:`write_table`."""
    with np.load(Path(path)) as data:
        arrays = {name: data[name] for name in data.files}
    return arrays_to_table(arrays)
