import collections

from hypothesis import given, settings, strategies as st

import ddns.cache
from ddns.cache import CacheHierarchy, L1Cache, L2Cache, domain_of


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_l1_lru_eviction_at_capacity():
    cache = L1Cache(capacity=50_000)
    for i in range(50_001):
        cache.put(("name%d" % i, 1), i)
    assert len(cache) == 50_000
    assert cache.get(("name0", 1)) is None          # least recently used is gone
    assert cache.get(("name50000", 1)) == 50_000


def test_l1_lru_touch_refreshes_recency():
    cache = L1Cache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts b, not a
    assert cache.get("a") == 1 and cache.get("b") is None


def test_l1_entry_expires_after_ttl():
    clock = FakeClock()
    cache = L1Cache(ttl=15, clock=clock)
    cache.put("k", "v")
    clock.t = 15
    assert cache.get("k") == "v"
    clock.t = 16
    assert cache.get("k") is None


def test_hierarchy_invalidate_hits_all_tiers():
    caches = CacheHierarchy()
    caches.l1.put(("example.ddns", 1), "a")
    caches.l1.put(("www.example.ddns", 1), "a")
    caches.l1.put(("other.ddns", 1), "keep")
    caches.l2.put("example.ddns", "Qm1", "a")
    caches.invalidate("example.ddns")
    assert caches.l1.get(("example.ddns", 1)) is None
    assert caches.l1.get(("www.example.ddns", 1)) is None  # subdomains too
    assert caches.l1.get(("other.ddns", 1)) == "keep"
    assert caches.l2.get("example.ddns", "Qm1") is None


def test_l2_serves_a_file_only_under_its_content_id():
    l2 = L2Cache()
    l2.put("example.ddns", "Qm1", "a")
    assert l2.get("example.ddns", "Qm1") == "a"
    assert l2.get("example.ddns", "Qm2") is None
    assert l2.get("other.ddns", "Qm1") is None
    l2.put("example.ddns", "Qm2", "b")  # replaces the domain's entry
    assert len(l2) == 1
    assert l2.get("example.ddns", "Qm1") is None and l2.get("example.ddns", "Qm2") == "b"


def test_l2_drops_the_oldest_domain_at_capacity(monkeypatch):
    monkeypatch.setattr(ddns.cache, "L2_CAPACITY", 3)
    l2 = L2Cache()
    for domain in ("a.ddns", "b.ddns", "c.ddns"):
        l2.put(domain, "Qm1", domain)
    l2.put("a.ddns", "Qm2", "a2")  # a new put makes a domain the newest
    l2.put("d.ddns", "Qm1", "d")
    assert len(l2) == 3
    assert l2.get("b.ddns", "Qm1") is None
    assert [l2.get(d, cid) for d, cid in (("c.ddns", "Qm1"), ("a.ddns", "Qm2"), ("d.ddns", "Qm1"))] \
        == ["c.ddns", "a2", "d"]


def test_invalidate_keeps_other_domains():
    caches = CacheHierarchy()
    caches.l2.put("other.ddns", "Qm2", "c")
    caches.l2.put("example.ddns", "Qm1", "a")
    caches.invalidate("example.ddns")
    assert len(caches.l2) == 1
    assert caches.l2.get("other.ddns", "Qm2") == "c"


def test_invalidate_a_tld_drops_all_of_l2():
    caches = CacheHierarchy()
    caches.l2.put("example.ddns", "Qm1", "a")
    caches.l2.put("other.ddns", "Qm2", "b")
    caches.l2.put("other.phi", "Qm3", "c")
    caches.l1.put(("www.example.ddns", 1), "a")
    caches.l1.put(("other.phi", 1), "keep")
    caches.invalidate("phi")
    assert caches.l2.get("other.phi", "Qm3") is None
    assert caches.l2.get("example.ddns", "Qm1") == "a"  # .ddns domains are kept
    assert caches.l2.get("other.ddns", "Qm2") == "b"
    caches.l1.put(("other.phi", 1), "keep")
    caches.invalidate("ddns")
    assert len(caches.l2) == 0
    assert caches.l1.get(("www.example.ddns", 1)) is None  # L1 drops the whole TLD too
    assert caches.l1.get(("other.phi", 1)) == "keep"


def test_invalidate_a_subdomain_drops_its_whole_domain_from_l2():
    caches = CacheHierarchy()
    caches.l2.put("example.ddns", "Qm1", "a")
    caches.l2.put("other.ddns", "Qm2", "c")
    caches.l2.put("notexample.ddns", "Qm3", "d")
    for name in ("example.ddns", "a.b.example.ddns", "other.ddns", "notexample.ddns"):
        caches.l1.put((name, 1), name)
    caches.invalidate("WWW.Example.ddns.")
    assert caches.l2.get("example.ddns", "Qm1") is None
    assert caches.l2.get("other.ddns", "Qm2") == "c"
    assert caches.l2.get("notexample.ddns", "Qm3") == "d"
    # L1 drops the same scope: the apex and every name under it
    assert caches.l1.get(("example.ddns", 1)) is None
    assert caches.l1.get(("a.b.example.ddns", 1)) is None
    assert caches.l1.get(("other.ddns", 1)) == "other.ddns"
    assert caches.l1.get(("notexample.ddns", 1)) == "notexample.ddns"


def in_scope(name, qname):
    """Whether invalidating `qname` drops `name`: the scope predicate."""
    scope = ".".join(qname.lower().rstrip(".").split(".")[-2:])
    return name == scope or name.endswith("." + scope)


class PredicateL1:
    """Brute-force reference for L1: an LRU whose invalidation scans every
    key with the scope predicate, where L1 looks its domain index up."""

    def __init__(self, capacity, ttl, clock):
        self.capacity, self.ttl, self.clock = capacity, ttl, clock
        self.entries = collections.OrderedDict()

    def get(self, key):
        item = self.entries.get(key)
        if item is None:
            return None
        if self.clock() - item[1] > self.ttl:
            del self.entries[key]
            return None
        self.entries.move_to_end(key)
        return item[0]

    def put(self, key, value):
        if key in self.entries:
            del self.entries[key]
        elif len(self.entries) >= self.capacity:
            self.entries.popitem(last=False)
        self.entries[key] = (value, self.clock())

    def invalidate(self, qname):
        for key in [k for k in self.entries if in_scope(k[0], qname)]:
            del self.entries[key]


# Keys are as the resolver makes them: lower case, no root dot.
NAMES = ("example.ddns", "www.example.ddns", "a.b.example.ddns", "notexample.ddns",
         "other.phi", "www.other.phi", "ddns")
SCOPES = NAMES + ("WWW.Example.DDNS.", "Other.Phi.", "ddns", "phi", "x.ddns")
KEYS = st.tuples(st.sampled_from(NAMES), st.sampled_from((1, 28)))
STEPS = st.lists(st.one_of(
    st.tuples(st.just("put"), KEYS), st.tuples(st.just("put"), KEYS),
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("tick"), st.sampled_from((1, 7, 16))),
    st.tuples(st.just("invalidate"), st.sampled_from(SCOPES)),
    st.tuples(st.just("clear"))), min_size=10, max_size=60)


@settings(max_examples=300, deadline=None)
@given(STEPS)
def test_l1_index_matches_a_predicate_scan(steps):
    """L1 against `PredicateL1`, and L2, keyed by each name's domain with the
    key's type as its content id, against a dict scanned with the same
    predicate."""
    clock = FakeClock()
    cache, model = L1Cache(capacity=3, ttl=15, clock=clock), PredicateL1(3, 15, clock)
    l2, l2_model = L2Cache(), {}
    for n, step in enumerate(steps):
        if step[0] == "put":
            cache.put(step[1], n)
            model.put(step[1], n)
            domain = domain_of(step[1][0])
            l2.put(domain, step[1][1], n)
            l2_model.pop(domain, None)
            l2_model[domain] = (step[1][1], n)
        elif step[0] == "get":
            assert cache.get(step[1]) == model.get(step[1])
            cid, value = l2_model.get(domain_of(step[1][0]), (None, None))
            assert l2.get(domain_of(step[1][0]), step[1][1]) == (
                value if cid == step[1][1] else None)
        elif step[0] == "tick":
            clock.t += step[1]
        elif step[0] == "clear":
            cache.clear()
            model.entries.clear()
        else:
            cache.invalidate(step[1])
            model.invalidate(step[1])
            l2.invalidate(step[1])
            for domain in [d for d in l2_model if in_scope(d, step[1])]:
                del l2_model[domain]
        assert list(cache._entries.items()) == list(model.entries.items())
        assert list(l2._entries.items()) == list(l2_model.items())
        indexed = [(domain, key) for domain, keys in cache._by_domain.items() for key in keys]
        assert all(cache._by_domain.values())  # no empty group is kept
        assert sorted(indexed) == sorted((domain_of(key[0]), key) for key in cache._entries)
