import base64
import http.client
import os
import random
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import ddns.resolver
from conftest import Stack, fixture_bytes, make_zone
from ddns import registry
from ddns.config import NodeConfig
from ddns.controlfile import parse_control_file, serialize_canonical
from ddns.keys import generate_keypair
from ddns.node import LocalNode
from ddns.resolver import MAX_CNAME_DEPTH, Resolver, ResolverConfig, serve_doh, serve_udp
from ddns.wire import (FORMERR, NOERROR, NOTIMP, NXDOMAIN, REFUSED, SERVFAIL,
                       DnsMessage, Question, ResourceRecord, build_query, decode_message,
                       encode_message, qtype_code)

A = qtype_code("A")
MX = qtype_code("MX")
TXT = qtype_code("TXT")


def _register_example(stack, alice):
    stack.register("example.ddns", fixture_bytes("example_zone.json"), alice)


def test_cold_then_l1_warm(stack, alice):
    _register_example(stack, alice)
    r = stack.resolver
    answer = r.resolve("example.ddns", A)
    assert answer.rcode == NOERROR
    assert answer.records[0].rdata == bytes([192, 168, 1, 100])
    before = dict(r.stats)
    warm = r.resolve("example.ddns", A)
    assert warm == answer
    # an L1 hit performs zero chain or store reads
    assert r.stats["l1_hits"] == before["l1_hits"] + 1
    assert r.stats["chain_reads"] == before["chain_reads"]
    assert r.stats["store_reads"] == before["store_reads"]


def test_l1_hit_returns_the_stored_answer(stack, alice):
    _register_example(stack, alice)
    answer = stack.resolver.resolve("example.ddns", A)
    assert stack.resolver.resolve("example.ddns", A) is answer


def test_l2_hit_for_a_sibling_label(stack, alice):
    _register_example(stack, alice)
    r = stack.resolver
    r.resolve("example.ddns", A)
    before = dict(r.stats)
    answer = r.resolve("mail.example.ddns", A)  # an L1 miss in a domain L2 holds
    assert answer.rcode == NOERROR
    assert r.stats["l2_hits"] == before["l2_hits"] + 1
    assert r.stats["store_reads"] == before["store_reads"]  # no store read on L2 hit


def test_a_default_resolver_creates_no_files(tmp_path, monkeypatch, stack, alice):
    monkeypatch.chdir(tmp_path)
    _register_example(stack, alice)
    before = sorted(os.listdir(tmp_path))
    r = Resolver(ResolverConfig(), stack.node.chain_view, stack.node.store)
    assert r.resolve("example.ddns", A).rcode == NOERROR
    assert sorted(os.listdir(tmp_path)) == before


def test_cname_chase(stack, alice):
    _register_example(stack, alice)
    answer = stack.resolver.resolve("www.example.ddns", A)
    assert answer.rcode == NOERROR
    assert [rr.rtype for rr in answer.records] == [qtype_code("CNAME"), A]
    assert answer.records[0].name == "www.example.ddns"
    assert answer.records[1].rdata == bytes([192, 168, 1, 100])


CNAME = qtype_code("CNAME")


def _cname(target):
    return {"CNAME": [{"target": target}]}


def test_cname_loop_across_domains_is_servfail(stack, alice):
    stack.register("ping.ddns", make_zone("ping.ddns", {"www": _cname("www.pong.ddns")}), alice)
    stack.register("pong.ddns", make_zone("pong.ddns", {"www": _cname("www.ping.ddns")}), alice)
    assert stack.resolver.resolve("www.ping.ddns", A).rcode == SERVFAIL
    assert stack.resolver.resolve("www.pong.ddns", A).rcode == SERVFAIL


def _register_chain(stack, alice, hops):
    """chain.ddns: h0 -> h1 -> ... -> h<hops>, which holds an A record."""
    labels = {f"h{i}": _cname(f"h{i + 1}.chain.ddns") for i in range(hops)}
    labels[f"h{hops}"] = {"A": [{"address": "10.1.1.1"}]}
    stack.register("chain.ddns", make_zone("chain.ddns", labels), alice)


def test_cname_chain_depth_limit(stack, alice):
    hops = MAX_CNAME_DEPTH + 1
    _register_chain(stack, alice, hops)
    r = stack.resolver
    assert r.resolve("h0.chain.ddns", A).rcode == SERVFAIL  # one hop too many
    answer = r.resolve("h1.chain.ddns", A)                  # exactly the limit
    assert answer.rcode == NOERROR
    assert [rr.name for rr in answer.records] == [f"h{i}.chain.ddns" for i in range(1, hops + 1)]
    assert [rr.rtype for rr in answer.records] == [CNAME] * MAX_CNAME_DEPTH + [A]
    assert answer.records[-1].rdata == bytes([10, 1, 1, 1])


def test_cname_depth_limit_does_not_depend_on_what_is_cached(stack, alice):
    _register_chain(stack, alice, MAX_CNAME_DEPTH + 1)
    assert stack.resolver.resolve("h1.chain.ddns", A).rcode == NOERROR
    assert stack.resolver.resolve("h0.chain.ddns", A).rcode == SERVFAIL


def test_cname_to_nxdomain_gives_the_cname_alone(stack, alice):
    stack.register("dangle.ddns", make_zone("dangle.ddns", {"www": _cname("ghost.ddns")}), alice)
    answer = stack.resolver.resolve("www.dangle.ddns", A)
    assert answer.rcode == NOERROR
    assert [(rr.name, rr.rtype) for rr in answer.records] == [("www.dangle.ddns", CNAME)]


def test_cname_to_unmanaged_target_is_not_chased(stack, alice):
    silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    silent.bind(("127.0.0.1", 0))
    try:
        config = ResolverConfig(upstream=silent.getsockname())
        r = Resolver(config, stack.node.chain_view, stack.node.store)
        stack.register("alias.ddns", make_zone("alias.ddns", {"www": _cname("example.com")}), alice)
        answer = r.resolve("www.alias.ddns", A)
    finally:
        silent.close()
    assert answer.rcode == NOERROR
    assert [(rr.name, rr.rtype) for rr in answer.records] == [("www.alias.ddns", CNAME)]
    assert r.stats["forwarded"] == 0


def test_cname_target_update_in_another_domain_is_served_at_once(stack, alice):
    stack.register("example.ddns", make_zone("example.ddns", {"www": _cname("target.other.ddns")}),
                   alice)
    stack.register("other.ddns", make_zone("other.ddns", {"target": {"A": [{"address": "10.0.0.1"}]}}),
                   alice)
    r = stack.resolver
    assert r.resolve("www.example.ddns", A).records[-1].rdata == bytes([10, 0, 0, 1])
    stack.update("other.ddns", make_zone("other.ddns", {"target": {"A": [{"address": "10.0.0.2"}]}}),
                 alice)
    answer = r.resolve("www.example.ddns", A)
    assert [rr.rtype for rr in answer.records] == [CNAME, A]
    assert answer.records[-1].rdata == bytes([10, 0, 0, 2])


def test_mx_lookup(stack, alice):
    _register_example(stack, alice)
    answer = stack.resolver.resolve("mail.example.ddns", MX)
    assert answer.rcode == NOERROR
    assert answer.records[0].rdata[:2] == (10).to_bytes(2, "big")


def test_spf_served_as_txt(stack, alice):
    zone = make_zone("mailer.ddns", {"@": {"SPF": [{"text": "v=spf1 mx -all"}]}})
    stack.register("mailer.ddns", zone, alice)
    answer = stack.resolver.resolve("mailer.ddns", TXT)
    assert answer.rcode == NOERROR
    assert answer.records[0].rtype == TXT
    assert answer.records[0].rdata == bytes([14]) + b"v=spf1 mx -all"


def test_nxdomain_and_negative_cache_is_l1_only(stack):
    r = stack.resolver
    assert r.resolve("ghost.ddns", A).rcode == NXDOMAIN
    before = dict(r.stats)
    assert r.resolve("ghost.ddns", A).rcode == NXDOMAIN
    assert r.stats["l1_hits"] == before["l1_hits"] + 1
    assert len(r.caches.l2) == 0


def test_tampered_store_object_never_served(stack, alice):
    _register_example(stack, alice)
    cid = stack.node.state.assets["DDNS/EXAMPLE"].ipfs_hash
    path = stack.node.store._path_for(cid)
    with open(path, "r+b") as fh:
        raw = fh.read()
        fh.seek(0)
        fh.write(bytes([raw[0] ^ 0x80]) + raw[1:])
    answer = stack.resolver.resolve("example.ddns", A)
    assert answer.rcode == SERVFAIL
    # the failure is not cached: repairing the store heals resolution
    with open(path, "wb") as fh:
        fh.write(raw)
    assert stack.resolver.resolve("example.ddns", A).rcode == NOERROR


@pytest.fixture(scope="module")
def bound_example(tmp_path_factory):
    """A stack with example.ddns bound, and the path and bytes of its object."""
    stack = Stack(str(tmp_path_factory.mktemp("bound")))
    cid = stack.register("example.ddns", fixture_bytes("example_zone.json"),
                         generate_keypair(b"\x01" * 32))
    path = stack.node.store._path_for(cid)
    with open(path, "rb") as fh:
        return stack, path, fh.read()


def _mutated(original: bytes):
    """Random byte-level edits of `original`."""
    index = st.integers(0, len(original) - 1)
    return st.one_of(
        st.tuples(index, st.integers(1, 255)).map(
            lambda p: original[:p[0]] + bytes([original[p[0]] ^ p[1]]) + original[p[0] + 1:]),
        st.integers(0, len(original) - 1).map(lambda n: original[:n]),
        st.tuples(index, st.binary(min_size=1, max_size=8)).map(
            lambda p: original[:p[0]] + p[1] + original[p[0]:]),
        st.tuples(index, st.integers(1, 16)).map(
            lambda p: original[:p[0]] + original[p[0] + p[1]:]),
        st.binary(max_size=600))


_OTHER_ZONES = st.builds(
    lambda ip, ttl, raw: raw or serialize_canonical(parse_control_file(make_zone(
        "example.ddns", {"@": {"A": [{"address": ".".join(map(str, ip)), "ttl": ttl}]}}))),
    st.tuples(*[st.integers(0, 255)] * 4), st.integers(1, 86400),
    st.sampled_from([None, fixture_bytes("example_zone.json")]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_content_that_does_not_match_its_id_is_never_served(bound_example, data):
    stack, path, original = bound_example
    replacement = data.draw(st.one_of(_mutated(original), _OTHER_ZONES))
    assume(replacement != original)
    with open(path, "wb") as fh:
        fh.write(replacement)
    resolver = stack.resolver
    for qname, rtype in (("example.ddns", "A"), ("www.example.ddns", "A"),
                         ("mail.example.ddns", "MX"), ("nope.example.ddns", "TXT")):
        assert resolver.resolve(qname, qtype_code(rtype)).rcode == SERVFAIL
        reply = resolver.handle_wire_query(encode_message(build_query(qname, rtype, msg_id=7)))
        assert decode_message(reply).rcode == SERVFAIL
        assert len(resolver.caches.l1) == 0 and len(resolver.caches.l2) == 0


def _two_label_zone(address):
    return make_zone("example.ddns", {"@": {"A": [{"address": address}]},
                                      "www": {"A": [{"address": address}]}})


def test_an_update_without_notice_misses_l2_once_then_hits_on_the_new_id(stack, alice):
    stack.register("example.ddns", _two_label_zone("10.0.0.1"), alice)
    r = stack.resolver
    r.resolve("example.ddns", A)
    stack.update("example.ddns", _two_label_zone("10.0.0.2"), alice)
    before = dict(r.stats)
    assert r.resolve("example.ddns", A).records[0].rdata == bytes([10, 0, 0, 2])
    assert r.stats["store_reads"] == before["store_reads"] + 1
    assert r.stats["l2_hits"] == before["l2_hits"]
    assert r.resolve("www.example.ddns", A).records[0].rdata == bytes([10, 0, 0, 2])
    assert r.stats["store_reads"] == before["store_reads"] + 1
    assert r.stats["l2_hits"] == before["l2_hits"] + 1


def test_updates_of_one_domain_keep_one_l2_entry(stack, alice):
    stack.register("example.ddns", _two_label_zone("10.0.0.1"), alice)
    r = stack.resolver
    for i in range(2, 7):
        stack.update("example.ddns", _two_label_zone(f"10.0.0.{i}"), alice)
        assert r.resolve("example.ddns", A).records[0].rdata == bytes([10, 0, 0, i])
    assert len(r.caches.l2) == 1


def test_confirmed_update_without_notice_is_served_at_once(stack, alice):
    stack.register("example.ddns", _two_label_zone("10.0.0.1"), alice)
    r = stack.resolver
    for name in ("example.ddns", "www.example.ddns"):
        assert r.resolve(name, A).records[0].rdata == bytes([10, 0, 0, 1])
        assert r.resolve(name, A).records[0].rdata == bytes([10, 0, 0, 1])  # from L1
    stack.update("example.ddns", _two_label_zone("10.0.0.2"), alice)
    before = dict(r.stats)
    for name in ("example.ddns", "www.example.ddns"):
        assert r.resolve(name, A).records[0].rdata == bytes([10, 0, 0, 2])
    assert r.stats["l1_hits"] == before["l1_hits"]  # both stale entries read as misses


def test_notice_update_of_a_subdomain_refreshes_its_whole_domain(stack, alice):
    stack.register("example.ddns", _two_label_zone("10.0.0.1"), alice)
    r = stack.resolver
    for name in ("example.ddns", "www.example.ddns"):
        r.resolve(name, A)
    stack.update("example.ddns", _two_label_zone("10.0.0.2"), alice)
    r.notice_update("www.example.ddns")
    for name in ("example.ddns", "www.example.ddns"):
        assert r.resolve(name, A).records[0].rdata == bytes([10, 0, 0, 2])


def test_explicit_invalidation_is_immediate(stack, alice):
    _register_example(stack, alice)
    r = stack.resolver
    r.resolve("example.ddns", A)
    new_zone = make_zone("example.ddns", {"@": {"A": [{"address": "10.9.9.9"}]}})
    stack.update("example.ddns", new_zone, alice)
    r.notice_update("example.ddns")
    assert r.resolve("example.ddns", A).records[0].rdata == bytes([10, 9, 9, 9])


def test_a_failing_chain_read_is_raised_and_caches_nothing(stack, alice):
    _register_example(stack, alice)

    class Failing:
        def get(self, key, default=None):
            raise RuntimeError("the view is broken")

    views = [SimpleNamespace(assets=Failing())]
    r = Resolver(ResolverConfig(), lambda: views[-1], stack.node.store)
    with pytest.raises(RuntimeError):
        r.resolve("example.ddns", A)
    assert len(r.caches.l1) == 0 and len(r.caches.l2) == 0
    views.append(stack.node.chain_view())
    assert r.resolve("example.ddns", A).rcode == NOERROR


ORACLE_DOMAINS = ("alpha.ddns", "beta.ddns", "gamma.ddns")
ORACLE_QUERIES = [(name, qtype) for domain in ORACLE_DOMAINS
                  for name, qtype in ((domain, A), (domain, TXT), ("www." + domain, A))] \
    + [("ghost.ddns", A), ("ghost.ddns", TXT)]


def _oracle_zone(rng, domain):
    """Random apex A and TXT records, and `www` as a CNAME to another domain."""
    target = rng.choice([d for d in ORACLE_DOMAINS if d != domain])
    return make_zone(domain, {
        "@": {"A": [{"address": f"10.0.{rng.randrange(256)}.{rng.randrange(1, 255)}"}],
              "TXT": [{"text": f"rev {rng.randrange(10 ** 6)}"}]},
        "www": _cname(target)})


def _oracle_op(rng, node, store, keys):
    """A signed register, update or transfer of a random oracle domain, at
    `node`'s tip, its zone put in `store`."""
    domain = rng.choice(ORACLE_DOMAINS)
    asset, state, nonce = registry.dns_to_asset(domain), node.state, node.next_nonce()
    if asset not in state.assets:
        cid = store.put(serialize_canonical(parse_control_file(_oracle_zone(rng, domain))))
        return registry.register_domain(asset, cid, rng.choice(keys), state, nonce=nonce)
    owner = next(k for k in keys if k.address == state.assets[asset].owner_address)
    if rng.random() < 0.3:
        new_owner = rng.choice([k for k in keys if k is not owner])
        return registry.transfer_domain(asset, new_owner.address, owner, state, nonce=nonce)
    cid = store.put(serialize_canonical(parse_control_file(_oracle_zone(rng, domain))))
    return registry.update_domain(asset, cid, owner, state, nonce=nonce)


def _mine_next(node, miner):
    node.mine(1, miner.address, now=node.state.recent_headers[-1].timestamp + 15)


@pytest.mark.parametrize("seed", range(3))
def test_warm_answers_equal_a_fresh_resolvers_after_every_block(tmp_path, seed, alice, bob,
                                                                carol):
    """Registers, updates, transfers and one 2-block reorg, with no
    `notice_update`: after each block, the resolver whose caches hold every
    earlier answer answers exactly as one with empty caches."""
    rng = random.Random(seed)
    stack = Stack(str(tmp_path / "stack"))
    node, warm = stack.node, stack.resolver
    rival = LocalNode(NodeConfig(data_dir=str(tmp_path / "rival")))
    keys = (alice, bob, carol)
    steps, reorg_at = 12, rng.randrange(4, 12)
    for step in range(steps):
        if step == reorg_at:
            # The rival takes every block but the tip, confirms an op of its
            # own and mines past the tip.
            branch, h = [], node.chain.blocks[node.chain.tip_hash].header.previous_hash
            while h != rival.chain.tip_hash:
                branch.append(node.chain.blocks[h])
                h = branch[-1].header.previous_hash
            for block in reversed(branch):
                rival.accept_block(block, now=block.header.timestamp)
            rival.submit_transaction(_oracle_op(rng, rival, node.store, keys))
            _mine_next(rival, bob)
            _mine_next(rival, bob)
            tip = rival.chain.blocks[rival.chain.tip_hash]
            results = [node.accept_block(block, now=block.header.timestamp)
                       for block in (rival.chain.blocks[tip.header.previous_hash], tip)]
            assert [r.reorged for r in results] == [False, True]
        else:
            node.submit_transaction(_oracle_op(rng, node, node.store, keys))
            _mine_next(node, alice)
        fresh = Resolver(node.config.resolver, node.chain_view, node.store)
        for qname, qtype in ORACLE_QUERIES:
            assert warm.resolve(qname, qtype) == fresh.resolve(qname, qtype), (step, qname)
    assert warm.stats["l1_hits"] > 0


def test_unmanaged_tld_refused_without_upstream(stack):
    assert stack.resolver.resolve("example.com", A).rcode == REFUSED


def test_forwarding_to_upstream(stack, alice):
    # a second resolver instance acts as the upstream authority
    _register_example(stack, alice)
    upstream = serve_udp(stack.resolver, host="127.0.0.1", port=0)
    try:
        config = ResolverConfig(managed_tlds=("phi",),
                                upstream=(upstream.address[0], upstream.address[1]))
        edge = Resolver(config, stack.node.chain_view, stack.node.store)
        answer = edge.resolve("example.ddns", A)
        assert answer.rcode == NOERROR
        assert answer.records[0].rdata == bytes([192, 168, 1, 100])
        assert edge.stats["forwarded"] == 1
    finally:
        upstream.stop()


def test_slow_upstream_does_not_stall_managed_names(stack, alice, monkeypatch):
    monkeypatch.setattr(ddns.resolver, "UPSTREAM_TIMEOUT", 1.0)
    _register_example(stack, alice)
    silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    silent.bind(("127.0.0.1", 0))  # never replies
    config = ResolverConfig(upstream=silent.getsockname())
    r = Resolver(config, stack.node.chain_view, stack.node.store)
    forwarded = []
    worker = threading.Thread(target=lambda: forwarded.append(r.resolve("example.com", A)))
    try:
        worker.start()
        deadline = time.monotonic() + 5
        while r.stats["forwarded"] == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        t0 = time.monotonic()
        answer = r.resolve("example.ddns", A)
        elapsed = time.monotonic() - t0
        worker.join(timeout=10)
    finally:
        silent.close()
    assert not worker.is_alive()
    assert answer.rcode == NOERROR and elapsed < 0.5
    assert [a.rcode for a in forwarded] == [SERVFAIL]
    assert r.stats["queries"] == 2 and r.stats["forwarded"] == 1


def test_counters_stay_exact_under_concurrent_queries(stack, alice):
    _register_example(stack, alice)
    upstream = serve_udp(stack.resolver, host="127.0.0.1", port=0)
    config = ResolverConfig(managed_tlds=("phi",), upstream=upstream.address)
    r = Resolver(config, stack.node.chain_view, stack.node.store)
    rounds, workers = 20, 8

    def work():
        for i in range(rounds):
            r.resolve("example.ddns", A)     # forwarded
            r.resolve(f"n{i}.phi", A)        # managed: NXDOMAIN, then L1 hits

    threads = [threading.Thread(target=work) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        upstream.stop()
    assert not any(t.is_alive() for t in threads)
    assert r.stats["queries"] == 2 * rounds * workers
    assert r.stats["forwarded"] == rounds * workers
    assert r.stats["l1_hits"] == rounds * (workers - 1)


GENUINE, FORGED = bytes([192, 0, 2, 1]), bytes([203, 0, 113, 66])


def _reply_to(query, rdata, **changes):
    fields = dict(id=query.id, qr=True, rd=True, ra=True, questions=query.questions,
                  answers=(ResourceRecord(query.questions[0].qname, A, 1, 60, rdata),))
    fields.update(changes)
    return encode_message(DnsMessage(**fields))


@pytest.mark.parametrize("decoy", ["wrong-id", "other-question", "not-a-response",
                                   "third-socket"])
def test_forwarding_takes_only_the_upstreams_reply_to_its_question(monkeypatch, decoy):
    monkeypatch.setattr(ddns.resolver.secrets, "randbits", lambda bits: 0xBEEF)
    upstream = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    spoofer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    upstream.bind(("127.0.0.1", 0))
    upstream.settimeout(5)
    queries = []

    def serve():
        data, peer = upstream.recvfrom(65535)
        query = decode_message(data)
        queries.append(query)
        if decoy == "wrong-id":
            upstream.sendto(_reply_to(query, FORGED, id=query.id ^ 1), peer)
        elif decoy == "other-question":
            upstream.sendto(_reply_to(query, FORGED, questions=(Question("other.com", A),)),
                            peer)
        elif decoy == "not-a-response":
            upstream.sendto(_reply_to(query, FORGED, qr=False), peer)
        else:
            spoofer.sendto(_reply_to(query, FORGED), peer)
        time.sleep(0.05)  # the decoy arrives first
        upstream.sendto(_reply_to(query, GENUINE), peer)

    config = ResolverConfig(managed_tlds=("ddns",), upstream=upstream.getsockname())
    r = Resolver(config, lambda: None, None)
    worker = threading.Thread(target=serve)
    try:
        worker.start()
        answer = r.resolve("Example.COM", A)
        worker.join(timeout=5)
    finally:
        upstream.close()
        spoofer.close()
    assert not worker.is_alive()
    assert [q.id for q in queries] == [0xBEEF]  # one try: the decoy did not end it
    assert answer.rcode == NOERROR and [rr.rdata for rr in answer.records] == [GENUINE]


# -- wire-level handling ------------------------------------------------------

def test_wire_garbage_gets_formerr(stack):
    reply = decode_message(stack.resolver.handle_wire_query(b"\xab\xcd" + b"\x00" * 5))
    assert reply.id == 0xABCD and reply.rcode == FORMERR
    assert stack.resolver.handle_wire_query(b"") is None


def test_wire_nonzero_opcode_notimp(stack):
    query = DnsMessage(id=9, opcode=2, questions=(Question("x.ddns", A),))
    reply = decode_message(stack.resolver.handle_wire_query(encode_message(query)))
    assert reply.rcode == NOTIMP


def test_wire_non_in_class_refused(stack):
    query = DnsMessage(id=9, questions=(Question("x.ddns", A, 3),))
    reply = decode_message(stack.resolver.handle_wire_query(encode_message(query)))
    assert reply.rcode == REFUSED


def test_wire_aa_flag_for_managed_names(stack, alice):
    _register_example(stack, alice)
    wire = encode_message(build_query("example.ddns", "A", msg_id=5))
    reply = decode_message(stack.resolver.handle_wire_query(wire))
    assert reply.aa and reply.qr and reply.id == 5
    assert reply.rcode == NOERROR


def test_udp_server_end_to_end(stack, alice):
    _register_example(stack, alice)
    server = serve_udp(stack.resolver, host="127.0.0.1", port=0)
    try:
        query = encode_message(build_query("example.ddns", "A", msg_id=77))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(3)
            sock.sendto(query, server.address)
            data, _ = sock.recvfrom(65535)
        reply = decode_message(data)
        assert reply.id == 77 and reply.rcode == NOERROR
        assert reply.answers[0].rdata == bytes([192, 168, 1, 100])
    finally:
        server.stop()


@pytest.fixture
def doh(stack, alice):
    _register_example(stack, alice)
    server = serve_doh(stack.resolver, host="127.0.0.1", port=0)
    conn = http.client.HTTPConnection(server.address[0], server.address[1], timeout=5)
    yield conn
    conn.close()
    server.stop()


def test_doh_get(doh):
    wire = encode_message(build_query("example.ddns", "A", msg_id=3))
    b64 = base64.urlsafe_b64encode(wire).rstrip(b"=").decode()
    doh.request("GET", f"/dns-query?dns={b64}")
    resp = doh.getresponse()
    assert resp.status == 200
    assert resp.getheader("Content-Type") == "application/dns-message"
    reply = decode_message(resp.read())
    assert reply.rcode == NOERROR
    assert reply.answers[0].rdata == bytes([192, 168, 1, 100])


def test_doh_post_matches_udp_answer(stack, doh):
    wire = encode_message(build_query("example.ddns", "A", msg_id=3))
    doh.request("POST", "/dns-query", body=wire,
                headers={"Content-Type": "application/dns-message"})
    resp = doh.getresponse()
    assert resp.status == 200
    doh_reply = resp.read()
    udp_reply = stack.resolver.handle_wire_query(wire, udp=True)
    assert doh_reply == udp_reply  # transport independence


def test_doh_post_wrong_content_type_415(doh):
    doh.request("POST", "/dns-query", body=b"x",
                headers={"Content-Type": "application/json"})
    assert doh.getresponse().status == 415


def test_doh_get_missing_param_400(doh):
    doh.request("GET", "/dns-query")
    assert doh.getresponse().status == 400


def test_doh_unknown_path_404(doh):
    doh.request("GET", "/other")
    assert doh.getresponse().status == 404
