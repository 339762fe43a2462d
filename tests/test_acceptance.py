"""Acceptance suite: one test per criterion, each emitting a single
PASS/FAIL line on the terminal (bypassing pytest capture)."""

import itertools
import json
import random
import time

import conftest
from conftest import Stack, fixture_bytes, make_zone
from ddns.chain import AssetOperation, Chain, Transaction, make_genesis, \
    mine_block, sign_transaction, validate_transaction
from ddns.controlfile import parse_control_file, serialize_canonical
from ddns.formulas import (CostParams, ThroughputParams,
                           attack_cost_exceeds_gain, cost_over_time,
                           failure_probability, network_value,
                           theoretical_tps)
from ddns.keys import generate_keypair
from ddns.sim import SimConfig, run_simulation, scenario_end_to_end, \
    scenario_hashrate_shock
from ddns.store import content_id_of, verify_integrity
from ddns.wire import (DnsMessage, Question, ResourceRecord, CLASS_IN,
                       build_query, decode_message, encode_message, qtype_code)
from ddns.errors import DnsParseError
from ddns import registry

ALICE = generate_keypair(b"\x01" * 32)
BOB = generate_keypair(b"\x02" * 32)
CAROL = generate_keypair(b"\x03" * 32)
DAVE = generate_keypair(b"\x04" * 32)


def _report(number: int, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_01_throughput_table():
    minimal = theoretical_tps(ThroughputParams(4_000_000, 240, 15))
    regular = theoretical_tps(ThroughputParams(4_000_000, 1_000, 15))
    ok = abs(minimal - 1111.1) <= 0.1 and abs(regular - 266.7) <= 0.1
    _report(1, ok, f"minimal={minimal:.1f} regular={regular:.1f}")


def test_criterion_02_reference_fixture_fidelity(tmp_path):
    stack = Stack(str(tmp_path))
    stack.register("example.ddns", fixture_bytes("example_zone.json"), ALICE)
    asset = stack.node.state.assets["DDNS/EXAMPLE"]
    doc = asset.to_dict()
    shape_ok = (doc["asset_name"] == "DDNS/EXAMPLE" and doc["quantity"] == 1
                and doc["units"] == 1 and doc["reissuable"] is False
                and doc["has_ipfs"] is True
                and doc["ipfs_hash"] == asset.ipfs_hash
                and doc["owner_address"] == ALICE.address)
    # the control file survives the store round trip byte for byte
    stored = stack.node.store.get(asset.ipfs_hash)
    round_trip_ok = parse_control_file(stored) == \
        parse_control_file(fixture_bytes("example_zone.json"))
    a = stack.resolver.resolve("example.ddns", qtype_code("A"))
    mx = stack.resolver.resolve("mail.example.ddns", qtype_code("MX"))
    resolve_ok = (a.rcode == 0 and a.records[0].rdata == bytes([192, 168, 1, 100])
                  and mx.rcode == 0
                  and mx.records[0].rdata[:2] == (10).to_bytes(2, "big"))
    _report(2, shape_ok and round_trip_ok and resolve_ok)


def test_criterion_03_ownership_integrity():
    chain = Chain(make_genesis())
    cid = content_id_of(b"v1")
    tx = registry.register_domain("DDNS/OWNED", cid, ALICE, chain.state)
    chain.add_block(mine_block([tx], chain.state, ALICE.address))
    rng = random.Random(2024)
    genuine = registry.update_domain("DDNS/OWNED", content_id_of(b"v2"),
                                     ALICE, chain.state)
    forged_accepted = 0
    for i in range(1000):
        mode = rng.randrange(3)
        if mode == 0:  # signed by a non-owner key
            signer = rng.choice([BOB, CAROL, DAVE])
            forged = registry.update_domain("DDNS/OWNED", content_id_of(b"v2"),
                                            signer, chain.state, nonce=i)
        elif mode == 1:  # owner signature with a flipped bit
            pub, sig = genuine.asset_op.auth[0]
            bad = bytearray(sig)
            bad[rng.randrange(64)] ^= 1 << rng.randrange(8)
            op = AssetOperation("update", "DDNS/OWNED",
                                new_content_id=content_id_of(b"v2"),
                                auth=((pub, bytes(bad)),))
            forged = Transaction((), (), op, genuine.nonce)
        else:  # owner signature replayed over a mutated operation
            op = AssetOperation("update", "DDNS/OWNED",
                                new_content_id=content_id_of(rng.randbytes(12)),
                                auth=genuine.asset_op.auth)
            forged = Transaction((), (), op, genuine.nonce)
        if validate_transaction(forged, chain.state).ok:
            forged_accepted += 1
    legit_accepted = 0
    for i in range(100):
        update = registry.update_domain("DDNS/OWNED",
                                        content_id_of(b"legit%d" % i),
                                        ALICE, chain.state, nonce=1000 + i)
        if validate_transaction(update, chain.state).ok:
            legit_accepted += 1
    _report(3, forged_accepted == 0 and legit_accepted == 100,
            f"forged accepted={forged_accepted}/1000 legit={legit_accepted}/100")


def test_criterion_04_content_integrity(tmp_path):
    rng = random.Random(7)
    tamper_missed = 0
    for i in range(1000):
        zone = make_zone(f"d{i}.ddns", {"@": {
            "A": [{"address": f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(255) + 1}"}],
            "TXT": [{"text": "r" + rng.randbytes(8).hex()}],
        }})
        payload = serialize_canonical(parse_control_file(zone))
        cid = content_id_of(payload)
        bit = rng.randrange(len(payload) * 8)
        tampered = bytearray(payload)
        tampered[bit // 8] ^= 1 << (bit % 8)
        if verify_integrity(cid, bytes(tampered)):
            tamper_missed += 1
    # exhaustive single-bit sweep over one full object
    payload = serialize_canonical(parse_control_file(
        make_zone("sweep.ddns", {"@": {"A": [{"address": "10.1.2.3"}]}})))
    cid = content_id_of(payload)
    for bit in range(len(payload) * 8):
        tampered = bytearray(payload)
        tampered[bit // 8] ^= 1 << (bit % 8)
        if verify_integrity(cid, bytes(tampered)):
            tamper_missed += 1
    # fault injection: a tampered store object is never served, cold or warm
    stack = Stack(str(tmp_path))
    stack.register("victim.ddns", fixture_bytes("example_zone.json"), ALICE)
    served_tampered = 0
    cid = stack.node.state.assets["DDNS/VICTIM"].ipfs_hash
    path = stack.node.store._path_for(cid)
    with open(path, "rb") as fh:
        good = fh.read()
    for warm_first in (False, True):
        stack.caches.l1.clear()
        if warm_first:
            stack.resolver.resolve("victim.ddns", 1)  # L2 warm, L1 cleared
            stack.caches.l1.clear()
            stack.caches.invalidate("victim.ddns")
        with open(path, "wb") as fh:
            fh.write(bytes([good[0] ^ 1]) + good[1:])
        answer = stack.resolver.resolve("victim.ddns", 1)
        if answer.rcode == 0:
            served_tampered += 1
        with open(path, "wb") as fh:
            fh.write(good)
    _report(4, tamper_missed == 0 and served_tampered == 0,
            f"missed={tamper_missed} served_tampered={served_tampered}")


def test_criterion_05_end_to_end_propagation():
    within = 0
    for seed in range(100):
        out = scenario_end_to_end(SimConfig(nodes=3, seed=seed))
        if out["within_two_intervals"]:
            within += 1
    _report(5, within >= 95, f"{within}/100 within 2 block intervals")


def test_criterion_06_cache_effectiveness(tmp_path):
    stack = Stack(str(tmp_path))
    pairs = []
    for i in range(25):
        name = f"site{i}.ddns"
        zone = make_zone(name, {
            "@": {"A": [{"address": f"10.0.{i}.1"}],
                  "AAAA": [{"address": f"2001:db8::{i + 1}"}],
                  "TXT": [{"text": f"site {i}"}],
                  "MX": [{"server": "mx", "priority": 10}]}})
        stack.register(name, zone, ALICE)
        for rtype in ("A", "AAAA", "TXT", "MX"):
            pairs.append((name, qtype_code(rtype)))
    assert len(pairs) == 100
    resolver = stack.resolver
    cold_total = warm_total = 0.0
    leaky_pairs = 0
    for qname, qtype in pairs:
        t0 = time.perf_counter()
        cold = resolver.resolve(qname, qtype)
        cold_total += time.perf_counter() - t0
        assert cold.rcode == 0
        before = (resolver.stats["chain_reads"], resolver.stats["store_reads"],
                  resolver.stats["l1_hits"])
        t0 = time.perf_counter()
        warm = resolver.resolve(qname, qtype)
        warm_total += time.perf_counter() - t0
        after = (resolver.stats["chain_reads"], resolver.stats["store_reads"],
                 resolver.stats["l1_hits"])
        if warm != cold or after[0] != before[0] or after[1] != before[1] \
                or after[2] != before[2] + 1:
            leaky_pairs += 1
    ratio = warm_total / cold_total
    _report(6, leaky_pairs == 0 and ratio <= 0.5,
            f"warm/cold latency ratio={ratio:.3f} non-L1 pairs={leaky_pairs}")


def test_criterion_07_difficulty_convergence():
    failures = []
    for seed in range(1, 6):
        report = scenario_hashrate_shock(
            SimConfig(duration_blocks=220, seed=seed), shock_block=100,
            multiplier=2.0)
        post = report.interval_series[100:200]  # the 100 blocks after the shock
        mean = sum(post) / len(post)
        if not 15.0 * 0.8 <= mean <= 15.0 * 1.2:
            failures.append((seed, round(mean, 2)))
    _report(7, not failures, f"off-target seeds: {failures or 'none'}")


def test_criterion_08_orphan_rate_behavior():
    rates = []
    for ratio in (0.001, 0.01, 0.1):
        latency = 15.0 * ratio
        report = run_simulation(SimConfig(
            duration_blocks=5000, seed=8,
            latency_range=(latency * 0.8, latency * 1.2)))
        rates.append(report.orphan_rate)
    ok = rates[0] <= rates[1] <= rates[2] and rates[0] < 0.01
    _report(8, ok, "rates=" + "/".join(f"{r:.4%}" for r in rates))


def test_criterion_09_wire_interop():
    rng = random.Random(909)

    def rand_name():
        return ".".join("".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789",
                                            k=rng.randint(1, 12)))
                        for _ in range(rng.randint(1, 4)))

    def rand_rr():
        return ResourceRecord(rand_name(), rng.choice([1, 16, 28, 257]),
                              CLASS_IN, rng.randrange(1 << 31),
                              rng.randbytes(rng.randint(0, 48)))

    mismatches = 0
    for _ in range(10_000):
        msg = DnsMessage(
            id=rng.randrange(1 << 16), qr=rng.random() < 0.5,
            aa=rng.random() < 0.5, tc=rng.random() < 0.5,
            rd=rng.random() < 0.5, ra=rng.random() < 0.5,
            rcode=rng.randrange(6),
            questions=tuple(Question(rand_name(), rng.choice([1, 5, 15, 16, 28]))
                            for _ in range(rng.randint(0, 2))),
            answers=tuple(rand_rr() for _ in range(rng.randint(0, 3))),
            authorities=tuple(rand_rr() for _ in range(rng.randint(0, 2))),
            additionals=tuple(rand_rr() for _ in range(rng.randint(0, 2))))
        if decode_message(encode_message(msg)) != msg:
            mismatches += 1
    golden_query = bytes.fromhex(
        "123401000001000000000000076578616d706c650464646e730000010001")
    golden_ok = encode_message(build_query("example.ddns", "A", msg_id=0x1234)) \
        == golden_query
    crashes = 0
    for _ in range(100_000):
        blob = rng.randbytes(rng.randint(0, 64))
        try:
            decode_message(blob)
        except DnsParseError:
            pass
        except Exception:
            crashes += 1
    _report(9, mismatches == 0 and golden_ok and crashes == 0,
            f"mismatches={mismatches} golden={'ok' if golden_ok else 'BAD'} "
            f"crashes={crashes}")


def test_criterion_10_record_type_coverage(tmp_path):
    from ddns.controlfile import RECORD_TYPES, validate_record
    from ddns.wire import record_to_rr
    from test_controlfile import REJECTS

    cf = parse_control_file(fixture_bytes("all_types_zone.json"))
    stack = Stack(str(tmp_path))
    stack.register("kitchensink.ddns", fixture_bytes("all_types_zone.json"), ALICE)
    covered = set()
    problems = []
    for label, by_type in cf.records:
        owner = cf.domain if label == "@" else f"{label}.{cf.domain}"
        for rtype, entries in by_type:
            covered.add(rtype)
            for entry in entries:
                rr = record_to_rr(owner, rtype, entry, cf.domain)
                msg = DnsMessage(id=1, qr=True, answers=(rr,))
                if decode_message(encode_message(msg)).answers != (rr,):
                    problems.append(f"{rtype} wire round trip")
    for rtype in RECORD_TYPES:
        if validate_record(rtype, REJECTS[rtype]).ok:
            problems.append(f"{rtype} reject fixture accepted")
    stored = stack.node.store.get(stack.node.state.assets["DDNS/KITCHENSINK"].ipfs_hash)
    if parse_control_file(stored) != cf:
        problems.append("storage round trip")
    ok = covered == set(RECORD_TYPES) and len(RECORD_TYPES) == 20 and not problems
    _report(10, ok, f"types={len(covered)}/20 problems={problems or 'none'}")


def test_criterion_11_multisig_subsets():
    policy = registry.MultiSigPolicy((ALICE.public_key, BOB.public_key,
                                      CAROL.public_key))
    chain = Chain(make_genesis())
    cid = content_id_of(b"vault")
    op = AssetOperation("register", "DDNS/VAULT", new_content_id=cid,
                        subsidized=True, policy_keys=tuple(policy.keys),
                        auth=((ALICE.public_key, b"\x00" * 64),
                              (BOB.public_key, b"\x00" * 64)))
    tx = sign_transaction(sign_transaction(Transaction((), (), op, 0), ALICE), BOB)
    chain.add_block(mine_block([tx], chain.state, ALICE.address))
    accepted = []
    for r in range(4):
        for subset in itertools.combinations((ALICE, BOB, CAROL), r):
            op = AssetOperation("update", "DDNS/VAULT",
                                new_content_id=content_id_of(b"v2"),
                                policy_keys=tuple(policy.keys),
                                auth=tuple((kp.public_key, b"\x00" * 64)
                                           for kp in subset))
            attempt = Transaction((), (), op, 1)
            for kp in subset:
                attempt = sign_transaction(attempt, kp)
            if validate_transaction(attempt, chain.state).ok:
                accepted.append(subset)
    ok = len(accepted) == 4 and all(len(s) >= 2 for s in accepted)
    _report(11, ok, f"accepted subsets={[len(s) for s in accepted]}")


def test_criterion_12_formula_suite():
    checks = []
    # composite failure probability: examples and monotonicity
    checks.append(abs(failure_probability([0.01, 0.02, 0.03]) - 0.058906) < 1e-6)
    checks.append(failure_probability([]) == 0.0)
    checks.append(failure_probability([0.2, 0.2]) > failure_probability([0.2]))
    # attack-economics inequality
    holds, margin = attack_cost_exceeds_gain([100.0] * 6, [40.0] * 6, 500.0)
    checks.append(holds and abs(margin - 340.0) < 1e-9)
    checks.append(not attack_cost_exceeds_gain([1.0], [1.0], 10.0)[0])
    # cost over time: lease grows linearly, one-time purchase is flat
    checks.append(cost_over_time("traditional", CostParams(15, 15, 10)) == 165.0)
    checks.append(cost_over_time("ddns", CostParams(15, 15, 10)) == 15.0)
    checks.append(all(
        cost_over_time("traditional", CostParams(15, 15, y + 1))
        > cost_over_time("traditional", CostParams(15, 15, y))
        for y in range(25)))
    # network value: superlinear power law, homogeneity v(2n) = 2^a v(n)
    checks.append(network_value(2000, 0.5, 1.5) > 2 * network_value(1000, 0.5, 1.5))
    checks.append(abs(network_value(2000, 0.5, 1.5)
                      - 2 ** 1.5 * network_value(1000, 0.5, 1.5)) < 1e-6)
    _report(12, all(checks), f"{sum(checks)}/{len(checks)} formula checks")
