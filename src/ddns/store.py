"""Local content-addressed object store.

Objects are named by a Base58btc SHA-256 multihash (0x12 0x20 prefix),
giving the familiar "Qm..." shape. Writes go to a temp file followed by
an atomic rename, so concurrent readers never see partial objects.
Objects are immutable and never deleted.
"""

from __future__ import annotations

import os

from .encoding import b58decode, b58encode, sha256
from .errors import CorruptionError, InvalidContentIdError, NotFoundError, StoreUnavailableError
from .fileio import write_atomic

MULTIHASH_PREFIX = b"\x12\x20"  # sha2-256, 32-byte digest


def content_id_of(payload: bytes) -> str:
    return b58encode(MULTIHASH_PREFIX + sha256(payload))


def decode_content_id(text: str) -> bytes:
    """Return the 32-byte digest for a content id; raises on bad input."""
    try:
        raw = b58decode(text)
    except Exception as exc:
        raise InvalidContentIdError(f"not base58: {text!r}") from exc
    if len(raw) != 34 or raw[:2] != MULTIHASH_PREFIX:
        raise InvalidContentIdError(f"not a sha2-256 multihash: {text!r}")
    return raw[2:]


def verify_integrity(content_id: str, payload: bytes) -> bool:
    decode_content_id(content_id)
    return content_id_of(payload) == content_id


class ContentStore:
    """One file per object, named by its digest in hex, in one `objects`
    directory, so a put creates no directory."""

    def __init__(self, root: str):
        self.root = root
        try:
            os.makedirs(self._objects_dir, exist_ok=True)
        except OSError as exc:
            raise StoreUnavailableError(str(exc)) from exc

    @property
    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _path_for(self, content_id: str) -> str:
        digest = decode_content_id(content_id).hex()
        return os.path.join(self._objects_dir, digest)

    def put(self, payload: bytes) -> str:
        content_id = content_id_of(payload)
        path = self._path_for(content_id)
        if os.path.exists(path):
            return content_id
        try:
            write_atomic(path, payload)
        except OSError as exc:
            raise StoreUnavailableError(str(exc)) from exc
        return content_id

    def get(self, content_id: str) -> bytes:
        path = self._path_for(content_id)
        if not os.path.exists(path):
            raise NotFoundError(content_id)
        try:
            with open(path, "rb") as fh:
                payload = fh.read()
        except OSError as exc:
            raise StoreUnavailableError(str(exc)) from exc
        if content_id_of(payload) != content_id:
            raise CorruptionError(f"stored bytes for {content_id} fail integrity recheck")
        return payload

    def has(self, content_id: str) -> bool:
        return os.path.exists(self._path_for(content_id))

    def object_count(self) -> int:
        return sum(1 for f in os.listdir(self._objects_dir) if ".tmp." not in f)
