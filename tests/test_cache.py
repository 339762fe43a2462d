import ddns.cache
from ddns.cache import CacheHierarchy, L1Cache, L2Cache
from ddns.registry import DomainAsset


def _bound(asset_name, content_id):
    """Chain names that bind one asset name to a content id."""
    return {asset_name: DomainAsset(asset_name, "owner", content_id)}


def test_l1_lru_eviction_at_capacity():
    cache = L1Cache(capacity=50_000)
    for i in range(50_001):
        cache.put(("name%d" % i, 1), i)
    assert len(cache) == 50_000
    assert cache.get(("name0", 1), {}) is None          # least recently used is gone
    assert cache.get(("name50000", 1), {}) == 50_000


def test_l1_lru_touch_refreshes_recency():
    cache = L1Cache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a", {}) == 1
    cache.put("c", 3)  # evicts b, not a
    assert cache.get("a", {}) == 1 and cache.get("b", {}) is None


def test_l1_serves_an_entry_only_while_the_chain_binds_its_content_id():
    cache = L1Cache()
    cache.put(("www.example.ddns", 1), "a", "DDNS/EXAMPLE", "Qm1")
    assert cache.get(("www.example.ddns", 1), _bound("DDNS/EXAMPLE", "Qm1")) == "a"
    assert cache.get(("www.example.ddns", 1), _bound("DDNS/EXAMPLE", "Qm2")) is None
    assert len(cache) == 0  # a stale entry is dropped
    cache.put(("example.ddns", 1), "b", "DDNS/EXAMPLE", "Qm1")
    assert cache.get(("example.ddns", 1), {}) is None  # the name is no longer bound


def test_l1_negative_entry_holds_while_its_name_is_unbound():
    cache = L1Cache()
    cache.put(("ghost.ddns", 1), "nx", "DDNS/GHOST")
    assert cache.get(("ghost.ddns", 1), _bound("DDNS/OTHER", "Qm1")) == "nx"
    assert cache.get(("ghost.ddns", 1), _bound("DDNS/GHOST", None)) == "nx"  # no content
    assert cache.get(("ghost.ddns", 1), _bound("DDNS/GHOST", "Qm1")) is None
    assert len(cache) == 0


def test_l1_entry_for_a_name_that_can_never_be_bound_needs_no_check():
    class Unread:
        def get(self, key, default=None):
            raise AssertionError("read the chain's names")

    cache = L1Cache()
    cache.put(("ddns", 1), "nx")
    assert cache.get(("ddns", 1), Unread()) == "nx"


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
    caches.l2.put("DDNS/OTHER", "Qm2", "c")
    caches.l2.put("DDNS/EXAMPLE", "Qm1", "a")
    caches.invalidate("example.ddns")
    assert len(caches.l2) == 1
    assert caches.l2.get("DDNS/OTHER", "Qm2") == "c"


def test_invalidate_a_subdomain_drops_its_whole_domain_from_l2():
    caches = CacheHierarchy()
    caches.l2.put("DDNS/EXAMPLE", "Qm1", "a")
    caches.l2.put("DDNS/OTHER", "Qm2", "c")
    caches.l2.put("DDNS/NOTEXAMPLE", "Qm3", "d")
    caches.invalidate("WWW.Example.ddns.")
    assert caches.l2.get("DDNS/EXAMPLE", "Qm1") is None
    assert caches.l2.get("DDNS/OTHER", "Qm2") == "c"
    assert caches.l2.get("DDNS/NOTEXAMPLE", "Qm3") == "d"
