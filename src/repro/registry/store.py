"""Content-addressed artifact store.

The store keeps serialized model artifacts (graph IR blobs, compiled
packages, watermark metadata) keyed by the SHA-256 of their content.  It
backs the :class:`~repro.registry.versioning.ModelRegistry` and gives the
platform immutable, de-duplicated storage — the property that makes lineage
tracking and reproducible deployments possible.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Tuple

__all__ = ["StoredArtifact", "ArtifactStore"]


@dataclass(frozen=True)
class StoredArtifact:
    """Metadata record of one stored blob.

    ``aliases`` lists every *additional* logical name the same bytes were
    registered under (content-addressing dedupes the blob, but the identity
    collision is surfaced rather than silently collapsed into the first
    name).  Metadata keys re-put with conflicting values accumulate a tuple
    of the distinct values in put order.
    """

    digest: str
    size_bytes: int
    kind: str
    name: str
    metadata: Tuple[Tuple[str, object], ...] = ()
    aliases: Tuple[str, ...] = ()

    def meta(self) -> Dict[str, object]:
        """Metadata as a plain dict."""
        return dict(self.metadata)

    def names(self) -> Tuple[str, ...]:
        """Every logical name this blob is known under (primary first)."""
        return (self.name,) + self.aliases


class ArtifactStore:
    """In-memory (optionally disk-backed) content-addressed store.

    Parameters
    ----------
    root:
        Optional directory; when given, every blob is also persisted as
        ``<root>/<digest[:2]>/<digest>`` so platform state survives process
        restarts.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self._blobs: Dict[str, bytes] = {}
        self._records: Dict[str, StoredArtifact] = {}
        self.root = root
        if root:
            os.makedirs(root, exist_ok=True)

    # -- write -----------------------------------------------------------
    def put(self, blob: bytes, kind: str = "blob", name: str = "", metadata: Optional[Dict[str, object]] = None) -> StoredArtifact:
        """Store a blob; returns its record.

        Re-putting identical content never stores a second copy, but the
        *identity* of the re-put is not discarded: a different ``name``
        lands in the record's ``aliases``, new ``metadata`` keys merge in
        and conflicting metadata values accumulate as a tuple of the
        distinct values.  A conflicting ``kind`` raises — the same bytes
        cannot be both, say, a ``"model"`` and a ``"calibration-batch"``
        without someone being wrong.
        """
        if not isinstance(blob, (bytes, bytearray)):
            raise TypeError("blob must be bytes")
        digest = hashlib.sha256(blob).hexdigest()
        existing = self._records.get(digest)
        if existing is None:
            self._blobs[digest] = bytes(blob)
            self._records[digest] = StoredArtifact(
                digest=digest,
                size_bytes=len(blob),
                kind=kind,
                name=name or digest[:12],
                metadata=tuple(sorted((metadata or {}).items())),
            )
            if self.root:
                path = self._path(digest)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "wb") as fh:
                    fh.write(blob)
            return self._records[digest]
        if kind != existing.kind:
            raise ValueError(
                f"artifact {digest[:12]} is already stored with kind {existing.kind!r}; "
                f"re-putting it as kind {kind!r} conflicts"
            )
        name = name or digest[:12]
        aliases = existing.aliases
        if name != existing.name and name not in aliases:
            aliases = aliases + (name,)
        merged = dict(existing.metadata)
        for key, value in (metadata or {}).items():
            if key not in merged:
                merged[key] = value
            elif merged[key] != value:
                prior = merged[key] if isinstance(merged[key], tuple) else (merged[key],)
                if value not in prior:
                    merged[key] = prior + (value,)
        record = replace(existing, aliases=aliases, metadata=tuple(sorted(merged.items())))
        self._records[digest] = record
        return record

    def put_object(self, obj: object, kind: str = "object", name: str = "", metadata: Optional[Dict[str, object]] = None) -> StoredArtifact:
        """Pickle and store an arbitrary Python object."""
        return self.put(pickle.dumps(obj), kind=kind, name=name, metadata=metadata)

    # -- read ---------------------------------------------------------------
    def get(self, digest: str) -> bytes:
        """Retrieve a blob by digest (memory first, then disk)."""
        if digest in self._blobs:
            return self._blobs[digest]
        if self.root:
            path = self._path(digest)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    blob = fh.read()
                self._blobs[digest] = blob
                return blob
        raise KeyError(f"no artifact with digest {digest!r}")

    def get_object(self, digest: str) -> object:
        """Unpickle a stored object."""
        return pickle.loads(self.get(digest))

    def record(self, digest: str) -> StoredArtifact:
        """Metadata record for a digest."""
        if digest not in self._records:
            raise KeyError(f"no artifact with digest {digest!r}")
        return self._records[digest]

    def __contains__(self, digest: str) -> bool:
        return digest in self._blobs or (self.root is not None and os.path.exists(self._path(digest)))

    def __len__(self) -> int:
        return len(self._blobs)

    def __iter__(self) -> Iterator[StoredArtifact]:
        return iter(self._records.values())

    def total_bytes(self) -> int:
        """Total stored payload size (deduplicated)."""
        return sum(r.size_bytes for r in self._records.values())

    def verify(self, digest: str) -> bool:
        """Re-hash the stored blob and compare to its digest (integrity check)."""
        try:
            blob = self.get(digest)
        except KeyError:
            return False
        return hashlib.sha256(blob).hexdigest() == digest

    def _path(self, digest: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, digest[:2], digest)
