import collections
import json
import logging
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

import ddns.cache
from ddns.cache import CacheHierarchy, L1Cache, L2Cache, domain_of


def _files_under(root):
    """Every file below `root`, as sorted paths relative to it."""
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


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
    (path,) = (os.path.join(str(tmp_path), f) for f in _files_under(str(tmp_path)))
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
    return _files_under(caches.l2.directory)


def test_l2_files_are_json_in_one_directory_per_domain(tmp_path):
    caches = CacheHierarchy(str(tmp_path))
    caches.l2.put(("example.ddns", 1, "Qm1"), "a", ttl=3600)
    caches.l2.put(("www.example.ddns", 1, "Qm1"), "b", ttl=3600)
    caches.l2.put(("other.ddns", 1, "Qm2"), "c", ttl=3600)
    files = _l2_files(caches)
    assert len(files) == 3 and all(f.endswith(".json") for f in files)
    assert all(os.path.isfile(os.path.join(str(tmp_path), f)) for f in files)
    domains = {os.path.dirname(f) for f in files}
    assert len(domains) == 2  # one directory per domain
    assert all(len(d) == 16 and set(d) <= set("0123456789abcdef") for d in domains)


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


def test_opening_the_cache_deletes_flat_layout_files_and_keeps_domains(tmp_path):
    caches = CacheHierarchy(str(tmp_path))
    caches.l2.put(("example.ddns", 1, "Qm1"), "a", ttl=3600)
    flat = ["0123456789abcdef-" + "a" * 64 + ".json", "b" * 64 + ".json",
            "0123456789abcdef-" + "c" * 64 + ".json.tmp.4242"]
    for name in flat + ["notes.txt"]:
        (tmp_path / name).write_text("{}")
    reopened = CacheHierarchy(str(tmp_path))
    assert sorted(os.listdir(str(tmp_path))) == sorted(
        [os.path.basename(reopened.l2._domain_dir("example.ddns")), "notes.txt"])
    assert reopened.l2.get(("example.ddns", 1, "Qm1")) == "a"


def test_a_removed_domain_directory_is_recreated(tmp_path):
    caches = CacheHierarchy(str(tmp_path))
    caches.l2.put(("example.ddns", 1, "Qm1"), "a", ttl=3600)
    shutil.rmtree(caches.l2._domain_dir("example.ddns"))
    caches.l2.put(("www.example.ddns", 1, "Qm1"), "b", ttl=3600)
    assert caches.l2.get(("www.example.ddns", 1, "Qm1")) == "b"


def _invalidate_recording(caches, name):
    """Invalidate `name`, returning the paths listed and the paths removed."""
    listed, removed = [], []
    with pytest.MonkeyPatch.context() as mp:  # `ddns.cache.os` is the `os` module
        for fn, calls in (("listdir", listed), ("scandir", listed), ("remove", removed),
                          ("unlink", removed)):
            def recorded(path=".", *args, _real=getattr(os, fn), _calls=calls, **kwargs):
                _calls.append(os.fspath(path))
                return _real(path, *args, **kwargs)
            mp.setattr(ddns.cache.os, fn, recorded)
        caches.invalidate(name)
    return listed, removed


def test_invalidate_lists_only_the_named_domains_directory(tmp_path):
    caches = CacheHierarchy(str(tmp_path))
    for name in ("example.ddns", "www.example.ddns", "other.ddns", "www.other.ddns", "x.phi"):
        caches.l2.put((name, 1, "Qm1"), name, ttl=3600)
    example_dir = caches.l2._domain_dir("example.ddns")
    others = [f for f in _l2_files(caches) if os.path.dirname(f) != os.path.basename(example_dir)]
    listed, removed = _invalidate_recording(caches, "WWW.Example.ddns.")
    assert listed == [example_dir]
    assert len(removed) == 2 and {os.path.dirname(p) for p in removed} == {example_dir}
    assert _l2_files(caches) == others
    for name in ("example.ddns", "www.other.ddns", "x.phi", "a.b.c.phi."):
        listed, _ = _invalidate_recording(caches, name)
        assert listed == [caches.l2._domain_dir(name)]  # never the root
    listed, _ = _invalidate_recording(caches, "ddns")
    assert listed[0] == str(tmp_path)
    assert _l2_files(caches) == []


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
        scope = ".".join(qname.lower().rstrip(".").split(".")[-2:])
        for key in [k for k in self.entries
                    if k[0] == scope or k[0].endswith("." + scope)]:
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
    clock = FakeClock()
    cache, model = L1Cache(capacity=3, ttl=15, clock=clock), PredicateL1(3, 15, clock)
    for n, step in enumerate(steps):
        if step[0] == "put":
            cache.put(step[1], n)
            model.put(step[1], n)
        elif step[0] == "get":
            assert cache.get(step[1]) == model.get(step[1])
        elif step[0] == "tick":
            clock.t += step[1]
        elif step[0] == "clear":
            cache.clear()
            model.entries.clear()
        else:
            cache.invalidate(step[1])
            model.invalidate(step[1])
        assert list(cache._entries.items()) == list(model.entries.items())
        indexed = [(domain, key) for domain, keys in cache._by_domain.items() for key in keys]
        assert all(cache._by_domain.values())  # no empty group is kept
        assert sorted(indexed) == sorted((domain_of(key[0]), key) for key in cache._entries)
