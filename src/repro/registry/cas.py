"""Content-addressed object store for bundle parts.

Every bundle part (an NPZ or typed-JSON blob) is stored once under its
SHA-256 digest at ``objects/<aa>/<digest>``, where ``<aa>`` is the first
byte of the digest — the same fan-out Git uses, keeping directory listings
short however many parts accumulate.  Publishing is atomic (temp file +
``os.replace``) and idempotent: putting bytes that are already stored is a
metadata-only no-op, which is what makes re-saving a mutated fitted object
incremental and lets the multitable bundle's edge synthesizers share one
physical copy of their identical config/vocabulary parts.

Object files are raw part bytes — a stored NPZ part is a valid standalone
``.npz`` file, so readers can hand out ``np.memmap`` views via
:func:`repro.store.npymap.map_npz_file` and every serving process mapping
the same part shares one page-cache copy.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.store.atomic import atomic_path
from repro.store.codec import StoreError


def blob_digest(blob: bytes) -> str:
    """The SHA-256 content address of *blob*."""
    return hashlib.sha256(blob).hexdigest()


class ContentStore:
    """The ``objects/`` half of a registry: digest-keyed immutable blobs."""

    def __init__(self, root):
        self.root = Path(root)

    def object_path(self, digest: str) -> Path:
        if len(digest) < 3:
            raise StoreError("invalid object digest {!r}".format(digest))
        return self.root / digest[:2] / digest

    def has(self, digest: str) -> bool:
        return self.object_path(digest).is_file()

    def size(self, digest: str) -> int:
        try:
            return self.object_path(digest).stat().st_size
        except OSError:
            raise StoreError("no object {} in store at {}".format(digest, self.root)) from None

    def put(self, blob: bytes) -> tuple[str, bool]:
        """Store *blob* under its digest; returns ``(digest, written)``.

        ``written`` is false when the object already existed — the dedup /
        incremental-save signal callers aggregate.
        """
        digest = blob_digest(blob)
        path = self.object_path(digest)
        if path.is_file():
            return digest, False
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_path(path) as tmp:
            Path(tmp).write_bytes(blob)
        return digest, True

    def get(self, digest: str) -> bytes:
        path = self.object_path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            raise StoreError("no object {} in store at {}".format(digest, self.root)) from None
        actual = blob_digest(blob)
        if actual != digest:
            from repro.store.bundle import BundleIntegrityError

            raise BundleIntegrityError(
                "object {} at {} hashes to {} — store corrupted".format(
                    digest, path, actual))
        return blob

    def delete(self, digest: str) -> int:
        """Remove one object; returns the bytes freed (0 if absent)."""
        path = self.object_path(digest)
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return 0
        # drop the fan-out directory when it empties; best-effort
        try:
            path.parent.rmdir()
        except OSError:
            pass
        return size

    def digests(self) -> list[str]:
        """Every stored object digest (sorted)."""
        if not self.root.is_dir():
            return []
        return sorted(entry.name
                      for shard in self.root.iterdir() if shard.is_dir()
                      for entry in shard.iterdir() if entry.is_file())

    def total_bytes(self) -> int:
        """Physical bytes across all stored objects."""
        if not self.root.is_dir():
            return 0
        return sum(entry.stat().st_size
                   for shard in self.root.iterdir() if shard.is_dir()
                   for entry in shard.iterdir() if entry.is_file())
