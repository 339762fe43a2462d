"""Three-tier resolver cache.

L1: in-memory LRU, 50,000 entries, fixed 15 s TTL.
L2: file-backed (one JSON file per key), survives restart, TTL = record TTL.
    A file is named `<domain hash>-<key hash>.json`, where the domain hash is
    the first 16 hex digits of the SHA-256 of the key name's last two labels,
    so a domain's files are found from their names without opening any.
L3: domain -> content-id ownership map, 60 s TTL.

A hit at tier k never consults tier k+1. The clock is injectable so
expiry is testable without sleeping.
"""

from __future__ import annotations

import collections
import hashlib
import json
import logging
import os
import time

log = logging.getLogger(__name__)

L1_CAPACITY = 50_000
L1_TTL = 15
L3_TTL = 60


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
        tmp = path + f".tmp.{os.getpid()}"
        doc = {"key": list(key), "inserted_at": self.clock(), "ttl": ttl, "value": value}
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


class L3Cache:
    """Domain ownership cache: domain -> (content_id, owner_address)."""

    def __init__(self, ttl: int = L3_TTL, clock=time.monotonic):
        self.ttl = ttl
        self.clock = clock
        self._entries: dict = {}

    def get(self, domain):
        item = self._entries.get(domain)
        if item is None:
            return None
        value, inserted_at = item
        if self.clock() - inserted_at > self.ttl:
            del self._entries[domain]
            return None
        return value

    def put(self, domain, value):
        self._entries[domain] = (value, self.clock())

    def remove(self, domain):
        self._entries.pop(domain, None)


class CacheHierarchy:
    def __init__(self, l2_dir: str, clock=time.monotonic, wall_clock=time.time):
        self.l1 = L1Cache(clock=clock)
        self.l2 = L2Cache(l2_dir, clock=wall_clock)
        self.l3 = L3Cache(clock=clock)

    def invalidate(self, qname: str):
        """Drop a name and its subdomains from every tier (used on observed
        domain updates); L2 drops the name's whole domain."""
        qname = qname.lower().rstrip(".")

        def match(key):
            return key[0] == qname or key[0].endswith("." + qname)

        self.l1.invalidate(match)
        self.l3.remove(qname)
        # L2 files carry their domain in the name: drop the whole domain
        # (all of L2 for a bare TLD) without opening a file.
        prefix = domain_prefix(qname) + "-" if "." in qname else ""
        for fname in os.listdir(self.l2.directory):
            if fname.startswith(prefix) and fname.endswith(".json"):
                os.remove(os.path.join(self.l2.directory, fname))
