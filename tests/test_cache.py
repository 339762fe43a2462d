import json
import logging
import os

import ddns.cache
from ddns.cache import CacheHierarchy, L1Cache, L2Cache


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


def test_l2_survives_restart(tmp_path):
    first = L2Cache(str(tmp_path))
    first.put(("example.ddns", 1), {"rcode": 0}, ttl=3600)
    second = L2Cache(str(tmp_path))
    assert second.get(("example.ddns", 1)) == {"rcode": 0}


def test_l2_entry_expires_by_record_ttl(tmp_path):
    clock = FakeClock()
    cache = L2Cache(str(tmp_path), clock=clock)
    cache.put("k", "v", ttl=300)
    clock.t = 300
    assert cache.get("k") == "v"
    clock.t = 301
    assert cache.get("k") is None


def test_l2_corrupt_entry_dropped_and_logged(tmp_path, caplog):
    cache = L2Cache(str(tmp_path))
    cache.put("k", "v", ttl=60)
    (path,) = (os.path.join(str(tmp_path), f) for f in os.listdir(str(tmp_path)))
    with open(path, "w") as fh:
        fh.write("{broken json")
    with caplog.at_level(logging.WARNING):
        assert cache.get("k") is None
    assert "corrupt" in caplog.text
    assert not os.path.exists(path)


def test_hierarchy_invalidate_hits_all_tiers(tmp_path):
    caches = CacheHierarchy(str(tmp_path))
    caches.l1.put(("example.ddns", 1), "a")
    caches.l1.put(("www.example.ddns", 1), "a")
    caches.l1.put(("other.ddns", 1), "keep")
    caches.l2.put(("example.ddns", 1, "Qm1"), "a", ttl=3600)
    caches.invalidate("example.ddns")
    assert caches.l1.get(("example.ddns", 1)) is None
    assert caches.l1.get(("www.example.ddns", 1)) is None  # subdomains too
    assert caches.l1.get(("other.ddns", 1)) == "keep"
    assert caches.l2.get(("example.ddns", 1, "Qm1")) is None


def test_invalidate_after_the_l2_directory_is_removed(tmp_path):
    caches = CacheHierarchy(str(tmp_path / "l2"))
    caches.l1.put(("example.ddns", 1), "a")
    (tmp_path / "l2").rmdir()
    caches.invalidate("example.ddns")
    assert caches.l1.get(("example.ddns", 1)) is None


def _l2_files(caches):
    return sorted(os.listdir(caches.l2.directory))


def test_l2_files_are_flat_json_named_by_domain(tmp_path):
    caches = CacheHierarchy(str(tmp_path))
    caches.l2.put(("example.ddns", 1, "Qm1"), "a", ttl=3600)
    caches.l2.put(("www.example.ddns", 1, "Qm1"), "b", ttl=3600)
    caches.l2.put(("other.ddns", 1, "Qm2"), "c", ttl=3600)
    files = _l2_files(caches)
    assert len(files) == 3 and all(f.endswith(".json") for f in files)
    assert all(os.path.isfile(os.path.join(str(tmp_path), f)) for f in files)
    assert len({f.split("-")[0] for f in files}) == 2  # one prefix per domain


def test_invalidate_drops_a_corrupt_file_and_keeps_other_domains(tmp_path):
    caches = CacheHierarchy(str(tmp_path))
    caches.l2.put(("other.ddns", 1, "Qm2"), "c", ttl=3600)
    caches.l2.put(("www.other.ddns", 1, "Qm2"), "d", ttl=3600)
    kept = _l2_files(caches)
    caches.l2.put(("example.ddns", 1, "Qm1"), "a", ttl=3600)
    caches.l2.put(("www.example.ddns", 1, "Qm1"), "b", ttl=3600)
    www = caches.l2._path(("www.example.ddns", 1, "Qm1"))
    with open(www, "w") as fh:
        fh.write("{broken json")
    caches.invalidate("example.ddns")
    assert not os.path.exists(www)
    assert _l2_files(caches) == kept and len(kept) == 2
    assert caches.l2.get(("other.ddns", 1, "Qm2")) == "c"
    assert caches.l2.get(("www.other.ddns", 1, "Qm2")) == "d"


def test_invalidate_opens_no_file(tmp_path, monkeypatch):
    caches = CacheHierarchy(str(tmp_path))
    caches.l2.put(("www.example.ddns", 1, "Qm1"), "b", ttl=3600)
    caches.l2.put(("other.ddns", 1, "Qm2"), "c", ttl=3600)

    def no_open(*args, **kwargs):
        raise AssertionError("invalidate opened a file")

    monkeypatch.setattr(ddns.cache, "open", no_open, raising=False)
    caches.invalidate("example.ddns")
    monkeypatch.undo()
    assert caches.l2.get(("www.example.ddns", 1, "Qm1")) is None
    assert caches.l2.get(("other.ddns", 1, "Qm2")) == "c"


def test_invalidate_a_tld_drops_all_of_l2(tmp_path):
    caches = CacheHierarchy(str(tmp_path))
    caches.l2.put(("example.ddns", 1, "Qm1"), "a", ttl=3600)
    caches.l2.put(("other.phi", 1, "Qm2"), "b", ttl=3600)
    caches.l1.put(("www.example.ddns", 1), "a")
    caches.l1.put(("other.phi", 1), "keep")
    caches.invalidate("ddns")
    assert _l2_files(caches) == []
    assert caches.l1.get(("www.example.ddns", 1)) is None  # L1 drops the whole TLD too
    assert caches.l1.get(("other.phi", 1)) == "keep"


def test_invalidate_a_subdomain_drops_its_whole_domain_from_l2(tmp_path):
    caches = CacheHierarchy(str(tmp_path))
    caches.l2.put(("example.ddns", 1, "Qm1"), "a", ttl=3600)
    caches.l2.put(("www.example.ddns", 1, "Qm1"), "b", ttl=3600)
    caches.l2.put(("other.ddns", 1, "Qm2"), "c", ttl=3600)
    for name in ("example.ddns", "a.b.example.ddns", "other.ddns", "notexample.ddns"):
        caches.l1.put((name, 1), name)
    caches.invalidate("WWW.Example.ddns.")
    assert caches.l2.get(("www.example.ddns", 1, "Qm1")) is None
    assert caches.l2.get(("example.ddns", 1, "Qm1")) is None  # a superset
    assert caches.l2.get(("other.ddns", 1, "Qm2")) == "c"
    # L1 drops the same scope: the apex and every name under it
    assert caches.l1.get(("example.ddns", 1)) is None
    assert caches.l1.get(("a.b.example.ddns", 1)) is None
    assert caches.l1.get(("other.ddns", 1)) == "other.ddns"
    assert caches.l1.get(("notexample.ddns", 1)) == "notexample.ddns"
