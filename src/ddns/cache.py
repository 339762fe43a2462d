"""Two-tier in-memory resolver cache.

L1: LRU of each name's own answer, 50,000 entries, fixed 15 s TTL, with an
    index of its keys by domain.
L2: each domain's parsed control file, held under the content id it was read
    under, for at most `L2_CAPACITY` domains. A file is served only under the
    content id the chain names now, so L2 is never stale and needs no TTL.

Invalidating a name drops its domain from both tiers, in time proportional to
that domain's entries, not to the size of the cache; a bare TLD drops every
domain under it. L1 is the only tier that can be stale, and a hit at L1 never
consults L2. The clock is injectable so expiry is testable without sleeping.
"""

from __future__ import annotations

import collections
import time

L1_CAPACITY = 50_000
L1_TTL = 15
L2_CAPACITY = 4_096


def domain_of(name: str) -> str:
    """A name's domain: its last two labels, in lower case, without a root
    dot. A bare TLD is its own domain."""
    return ".".join(name.lower().rstrip(".").split(".")[-2:])


def _domains_in_scope(domains, name: str) -> list:
    """The domains that invalidating `name` drops: its own domain, or, for a
    bare TLD, every one of `domains` under it."""
    scope = domain_of(name)
    if "." in scope:
        return [scope]
    return [d for d in domains if d == scope or d.endswith("." + scope)]


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
        for domain in _domains_in_scope(self._by_domain, name):
            for key in self._by_domain.pop(domain, ()):
                del self._entries[key]

    def clear(self):
        self._entries.clear()
        self._by_domain.clear()


class L2Cache:
    """Domain -> (content id, parsed control file); the oldest put is
    dropped first once `L2_CAPACITY` domains are held."""

    def __init__(self):
        self._entries: dict[str, tuple] = {}

    def __len__(self):
        return len(self._entries)

    def get(self, domain: str, content_id: str):
        """The domain's control file if it was read under `content_id`."""
        entry = self._entries.get(domain)
        if entry is None or entry[0] != content_id:
            return None
        return entry[1]

    def put(self, domain: str, content_id: str, control_file):
        self._entries.pop(domain, None)
        if len(self._entries) >= L2_CAPACITY:
            del self._entries[next(iter(self._entries))]
        self._entries[domain] = (content_id, control_file)

    def invalidate(self, name: str):
        """Drop `name`'s domain; a bare TLD drops every domain under it."""
        for domain in _domains_in_scope(self._entries, name):
            self._entries.pop(domain, None)


class CacheHierarchy:
    # `l2_dir` is unread; kept while benchmark/ledger.py passes a directory.
    def __init__(self, l2_dir=None, clock=time.monotonic):
        self.l1 = L1Cache(clock=clock)
        self.l2 = L2Cache()

    def invalidate(self, qname: str):
        """Drop every entry under a name's domain from both tiers (used on
        observed domain updates); a bare TLD drops everything under it."""
        self.l1.invalidate(qname)
        self.l2.invalidate(qname)
