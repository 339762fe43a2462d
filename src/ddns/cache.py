"""Two-tier resolver cache.

L1: in-memory LRU, 50,000 entries, fixed 15 s TTL.
L2: file-backed (one JSON file per key), survives restart, TTL = record TTL.
    A file is named `<domain hash>-<key hash>.json`, where the domain hash is
    the first 16 hex digits of the SHA-256 of the key name's last two labels,
    so a domain's files are found from their names without opening any.

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
import time

from .fileio import write_atomic

log = logging.getLogger(__name__)

L1_CAPACITY = 50_000
L1_TTL = 15


def domain_prefix(name: str) -> str:
    """The L2 file-name prefix shared by every key under `name`'s domain."""
    domain = ".".join(name.split(".")[-2:])
    return hashlib.sha256(domain.encode()).hexdigest()[:16]


class L1Cache:
    def __init__(self, capacity: int = L1_CAPACITY, ttl: int = L1_TTL, clock=time.monotonic):
        self.capacity = capacity
        self.ttl = ttl
        self.clock = clock
        self._entries: collections.OrderedDict = collections.OrderedDict()

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        item = self._entries.get(key)
        if item is None:
            return None
        value, inserted_at = item
        if self.clock() - inserted_at > self.ttl:
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return value

    def put(self, key, value):
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = (value, self.clock())

    def invalidate(self, predicate):
        for key in [k for k in self._entries if predicate(k)]:
            del self._entries[key]

    def clear(self):
        self._entries.clear()


class L2Cache:
    """Persistent per-key files; corrupt entries are dropped, never served."""

    def __init__(self, directory: str, clock=time.time):
        self.directory = directory
        self.clock = clock
        os.makedirs(directory, exist_ok=True)

    def _path(self, key) -> str:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        return os.path.join(self.directory, f"{domain_prefix(key[0])}-{digest}.json")

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
        except FileNotFoundError:  # the directory was removed: recreate it
            os.makedirs(self.directory, exist_ok=True)
            write_atomic(path, doc)


class CacheHierarchy:
    def __init__(self, l2_dir: str, clock=time.monotonic, wall_clock=time.time):
        self.l1 = L1Cache(clock=clock)
        self.l2 = L2Cache(l2_dir, clock=wall_clock)

    def invalidate(self, qname: str):
        """Drop every entry under a name's domain from both tiers (used on
        observed domain updates); a bare TLD drops everything under it."""
        scope = ".".join(qname.lower().rstrip(".").split(".")[-2:])

        def match(key):
            return key[0] == scope or key[0].endswith("." + scope)

        self.l1.invalidate(match)
        # L2 files carry their domain in the name: drop the whole domain
        # (all of L2 for a bare TLD) without opening a file.
        prefix = domain_prefix(scope) + "-" if "." in scope else ""
        try:
            fnames = os.listdir(self.l2.directory)
        except FileNotFoundError:  # a removed directory holds nothing
            return
        for fname in fnames:
            if fname.startswith(prefix) and fname.endswith(".json"):
                os.remove(os.path.join(self.l2.directory, fname))
