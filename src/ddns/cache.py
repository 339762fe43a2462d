"""Two-tier in-memory resolver cache, checked against the chain.

L1: LRU of each name's own answer, 50,000 entries, each kept with the asset
    name and content id it was built from (no id: the name was unbound; no
    asset name: it can never be bound). A hit is served only while the
    chain's names still bind that asset to that id; a stale entry is dropped.
L2: each domain's parsed control file, under the content id it was read
    under, for at most `L2_CAPACITY` domains, served only under the content
    id the chain names now.

Neither tier can serve what the chain no longer names, so neither has a TTL.
"""

from __future__ import annotations

import collections

L1_CAPACITY = 50_000
L2_CAPACITY = 4_096


def domain_of(name: str) -> str:
    """A name's domain: its last two labels, in lower case, without a root
    dot. A bare TLD is its own domain."""
    return ".".join(name.lower().rstrip(".").split(".")[-2:])


class L1Cache:
    """LRU of `(name, type)` keys, each holding `(answer, asset name, content
    id)`."""

    def __init__(self, capacity: int = L1_CAPACITY):
        self.capacity = capacity
        self._entries: collections.OrderedDict = collections.OrderedDict()

    def __len__(self):
        return len(self._entries)

    def get(self, key, assets):
        """The answer put under `key` while `assets` (asset name -> asset,
        as a chain view holds them) still binds its asset to its content id."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        answer, asset_name, content_id = entry
        if asset_name is not None:
            asset = assets.get(asset_name)
            if (None if asset is None else asset.ipfs_hash) != content_id:
                del self._entries[key]
                return None
        self._entries.move_to_end(key)
        return answer

    def put(self, key, answer, asset_name=None, content_id=None):
        self._entries.pop(key, None)
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = (answer, asset_name, content_id)

    def clear(self):
        self._entries.clear()


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
        """Drop `name`'s domain."""
        self._entries.pop(domain_of(name), None)


class CacheHierarchy:
    def __init__(self, l2_dir=None):
        """`l2_dir` is unread; kept while benchmark/ledger.py passes a directory."""
        self.l1 = L1Cache()
        self.l2 = L2Cache()

    def invalidate(self, qname: str):
        """Drop a name's domain from L2, so its next L1 miss reads the store;
        kept while benchmark/ledger.py calls `Resolver.notice_update`."""
        self.l2.invalidate(qname)
