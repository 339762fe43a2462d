"""Two-tier resolver cache.

L1: in-memory LRU, 50,000 entries, fixed 15 s TTL, with an index of its keys
    by domain.
L2: file-backed (one JSON file per key), survives restart, TTL = record TTL.
    An entry is `<domain hash>/<key hash>.json`, where the domain hash is the
    first 16 hex digits of the SHA-256 of the key name's domain, so a
    domain's entries are found by listing one directory, without opening any.

Invalidating a domain costs time in proportion to that domain's entries in
each tier, not to the size of the cache; a bare TLD drops every domain under
it from L1 and all of L2, whose directory names hide the TLD.

A name's binding to its content id is read from the chain, not cached, so
L2 keys that carry the content id never serve an old binding and L1 is the
only tier that can be stale. A hit at L1 never consults L2. The clock is
injectable so expiry is testable without sleeping.
"""

from __future__ import annotations

import collections
import hashlib
import json
import logging
import os
import re
import time

from .fileio import write_atomic

log = logging.getLogger(__name__)

L1_CAPACITY = 50_000
L1_TTL = 15

# L2 entries of the flat layouts that came before domain directories,
# `[<domain hash>-]<key hash>.json`, and their temp files.
_FLAT_ENTRY = re.compile(r"([0-9a-f]{16}-)?[0-9a-f]{64}\.json(\.tmp\.\d+)?")


def domain_of(name: str) -> str:
    """A name's domain: its last two labels, in lower case, without a root
    dot. A bare TLD is its own domain."""
    return ".".join(name.lower().rstrip(".").split(".")[-2:])


class L1Cache:
    """LRU of `(name, ...)` keys; `_by_domain` holds exactly the keys of
    `_entries`, grouped by `domain_of(key[0])`."""

    def __init__(self, capacity: int = L1_CAPACITY, ttl: int = L1_TTL, clock=time.monotonic):
        self.capacity = capacity
        self.ttl = ttl
        self.clock = clock
        self._entries: collections.OrderedDict = collections.OrderedDict()
        self._by_domain: dict[str, set] = {}

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        item = self._entries.get(key)
        if item is None:
            return None
        value, inserted_at = item
        if self.clock() - inserted_at > self.ttl:
            self._drop(key)
            return None
        self._entries.move_to_end(key)
        return value

    def put(self, key, value):
        if key in self._entries:
            del self._entries[key]
        else:
            if len(self._entries) >= self.capacity:
                self._drop(next(iter(self._entries)))
            self._by_domain.setdefault(domain_of(key[0]), set()).add(key)
        self._entries[key] = (value, self.clock())

    def _drop(self, key):
        del self._entries[key]
        domain = domain_of(key[0])
        keys = self._by_domain[domain]
        keys.discard(key)
        if not keys:
            del self._by_domain[domain]

    def invalidate(self, name: str):
        """Drop every key under `name`'s domain; a bare TLD drops every
        domain under it."""
        scope = domain_of(name)
        if "." in scope:
            domains = [scope]
        else:
            domains = [d for d in self._by_domain if d == scope or d.endswith("." + scope)]
        for domain in domains:
            for key in self._by_domain.pop(domain, ()):
                del self._entries[key]

    def clear(self):
        self._entries.clear()
        self._by_domain.clear()


class L2Cache:
    """Persistent per-key files; corrupt entries are dropped, never served.

    Opening the cache deletes entries left in its root by the flat layouts,
    which nothing reads or invalidates any more.
    """

    def __init__(self, directory: str, clock=time.time):
        self.directory = directory
        self.clock = clock
        os.makedirs(directory, exist_ok=True)
        with os.scandir(directory) as entries:
            for entry in entries:
                if _FLAT_ENTRY.fullmatch(entry.name) and entry.is_file(follow_symlinks=False):
                    os.remove(entry.path)

    def _domain_dir(self, name: str) -> str:
        digest = hashlib.sha256(domain_of(name).encode()).hexdigest()[:16]
        return os.path.join(self.directory, digest)

    def _path(self, key) -> str:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        return os.path.join(self._domain_dir(key[0]), digest + ".json")

    def get(self, key):
        path = self._path(key)
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if doc["key"] != list(key) and doc["key"] != key:
                raise ValueError("key mismatch")
            if self.clock() - doc["inserted_at"] > doc["ttl"]:
                os.remove(path)
                return None
            return doc["value"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            log.warning("dropping corrupt L2 entry %s: %s", path, exc)
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def put(self, key, value, ttl: int):
        path = self._path(key)
        doc = json.dumps({"key": list(key), "inserted_at": self.clock(), "ttl": ttl,
                          "value": value})
        try:
            write_atomic(path, doc)
        except FileNotFoundError:  # a new domain, or a removed directory
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_atomic(path, doc)

    def invalidate(self, name: str):
        """Delete every entry under `name`'s domain, keeping its directory for
        the next put, without opening a file; a bare TLD deletes them all."""
        scope = domain_of(name)
        if "." in scope:
            dirs = [self._domain_dir(scope)]
        else:
            try:
                with os.scandir(self.directory) as entries:
                    dirs = [e.path for e in entries if e.is_dir(follow_symlinks=False)]
            except FileNotFoundError:  # a removed directory holds nothing
                return
        for directory in dirs:
            try:
                fnames = os.listdir(directory)
            except FileNotFoundError:
                continue
            for fname in fnames:
                os.remove(os.path.join(directory, fname))


class CacheHierarchy:
    def __init__(self, l2_dir: str, clock=time.monotonic, wall_clock=time.time):
        self.l1 = L1Cache(clock=clock)
        self.l2 = L2Cache(l2_dir, clock=wall_clock)

    def invalidate(self, qname: str):
        """Drop every entry under a name's domain from both tiers (used on
        observed domain updates); a bare TLD drops everything under it."""
        self.l1.invalidate(qname)
        self.l2.invalidate(qname)
