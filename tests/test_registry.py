import itertools
import json
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ddns.chain import (AssetOperation, Chain, Transaction, make_genesis,
                        mine_block, sign_transaction, validate_transaction)
from ddns.config import NodeConfig
from ddns.errors import DdnsError
from ddns.keys import generate_keypair, sign
from ddns.node import LocalNode
from ddns.resolver import Resolver, ResolverConfig
from ddns.store import content_id_of
from ddns import registry
from test_chain import _block_with

ALICE = generate_keypair(b"\x01" * 32)
BOB = generate_keypair(b"\x02" * 32)
CAROL = generate_keypair(b"\x03" * 32)
DAVE = generate_keypair(b"\x04" * 32)
CID = content_id_of(b"zone-v1")
CID2 = content_id_of(b"zone-v2")


def chain_with(name="DDNS/EXAMPLE", owner=ALICE):
    chain = Chain(make_genesis())
    tx = registry.register_domain(name, CID, owner, chain.state)
    block = mine_block([tx], chain.state, owner.address)
    assert chain.add_block(block).accepted
    return chain


# -- name grammar -------------------------------------------------------------

VALID_NAMES = ["DDNS/EXAMPLE", "PHI/EXPLORER", "WEB3/MY_SHOP", "A/B",
               "X2/N0", "A" * 30 + "/" + "B" * 30]
INVALID_NAMES = ["ddns/example", "DDNS/", "/EXAMPLE", "DDNS", "DDNS/EX/TRA",
                 "DDNS/EX AMPLE", "DDNS/EX-AMPLE", "DDNS/.DOT", "DDNS/DOT.",
                 "DDNS/_X", "DDNS/A..B", "A" * 31 + "/B", "A/" + "B" * 31,
                 "DDNS/ÜBER", "", "DDNS/SUB.DOMAIN"]


@pytest.mark.parametrize("name", VALID_NAMES)
def test_valid_names(name):
    assert registry.validate_asset_name(name).ok


@pytest.mark.parametrize("name", INVALID_NAMES)
def test_invalid_names(name):
    assert not registry.validate_asset_name(name).ok


def test_name_length_sweep():
    # every length from 1 to 40 for the domain segment; limit is 30
    for length in range(1, 41):
        ok = registry.validate_asset_name("DDNS/" + "A" * length).ok
        assert ok == (length <= 30)


def test_dns_asset_name_mapping():
    assert registry.asset_to_dns("DDNS/EXAMPLE") == "example.ddns"
    assert registry.dns_to_asset("example.ddns") == "DDNS/EXAMPLE"
    assert registry.dns_to_asset("Explorer.PHI.") == "PHI/EXPLORER"
    with pytest.raises(DdnsError):
        registry.dns_to_asset("ddns")


def test_asset_record_structure():
    # the on-chain asset document shape: unique, indivisible, not reissuable
    chain = chain_with()
    asset = chain.state.assets["DDNS/EXAMPLE"]
    doc = asset.to_dict()
    assert doc == {
        "asset_name": "DDNS/EXAMPLE",
        "quantity": 1,
        "units": 1,
        "reissuable": False,
        "has_ipfs": True,
        "ipfs_hash": CID,
        "owner_address": ALICE.address,
    }
    assert json.dumps(doc)  # JSON-serializable as-is


def test_ddns_registration_is_free():
    chain = Chain(make_genesis())
    tx = registry.register_domain("DDNS/FREEBIE", CID, ALICE, chain.state)
    assert tx.inputs == () and tx.asset_op.subsidized
    assert validate_transaction(tx, chain.state).ok


def test_lookup_accepts_both_name_forms():
    chain = chain_with()
    assert registry.lookup_domain(chain.state, "example.ddns").ipfs_hash == CID
    assert registry.lookup_domain(chain.state, "ddns/example").ipfs_hash == CID
    assert registry.lookup_domain(chain.state, "missing.ddns") is None


# -- one name rule ---------------------------------------------------------------

MALLORY = generate_keypair(b"\x05" * 32)
# Every asset name the grammar accepts: one DNS label per segment.
SEGMENTS = st.from_regex(r"[A-Z0-9]([A-Z0-9_]{0,28}[A-Z0-9])?", fullmatch=True)
ASSET_NAMES = st.builds(lambda root, name: f"{root}/{name}", SEGMENTS, SEGMENTS)


def registration_by_hand(name, owner):
    """A signed, subsidized registration of `name`, past the builder's checks."""
    op = AssetOperation("register", name, new_content_id=CID, subsidized=True,
                        auth=((owner.public_key, b"\x00" * 64),))
    return sign_transaction(Transaction((), (), op, 0), owner)


def test_a_dotted_name_under_a_registered_domain_is_refused(tmp_path):
    # A owns DDNS/EXAMPLE; DDNS/MAIL.EXAMPLE would let M claim mail.example.ddns.
    node = LocalNode(NodeConfig(data_dir=str(tmp_path / "node")))
    node.submit_transaction(registry.register_domain("example.ddns", CID, ALICE, node.state))
    node.mine(1, ALICE.address)
    forged = registration_by_hand("DDNS/MAIL.EXAMPLE", MALLORY)
    with pytest.raises(DdnsError, match="rejected: invalid-name: bad-charset"):
        node.submit_transaction(forged)
    with pytest.raises(DdnsError, match="bad-charset"):
        registry.register_domain("DDNS/MAIL.EXAMPLE", CID, MALLORY, node.state)
    result = node.chain.add_block(_block_with(node.state, [forged]))
    assert not result.accepted and result.code == "bad-tx(1)"
    assert list(node.state.assets) == ["DDNS/EXAMPLE"]


@pytest.mark.parametrize("name", ["DD.NS/X", "DDNS/EXAMPLE\n"])
def test_a_name_outside_one_label_per_segment_is_refused(name):
    result = registry.validate_asset_name(name)
    assert not result.ok and result.code == "bad-charset"
    result = validate_transaction(registration_by_hand(name, MALLORY), Chain(make_genesis()).state)
    assert not result.ok and result.code == "invalid-name"


def test_dns_to_asset_takes_exactly_two_labels():
    with pytest.raises(DdnsError, match="a subdomain is a label in its parent's control file"):
        registry.dns_to_asset("mail.example.ddns")
    for name in ("ddns", "", ".ddns", "x.dd.ns", "ex-ample.ddns", "straße.ddns"):
        with pytest.raises(DdnsError):
            registry.dns_to_asset(name)
    with pytest.raises(DdnsError):
        registry.asset_name_of("DDNS/straße")  # not upper-cased into "STRASSE"
    assert registry.binding_of("A.B.Example.DDNS.") == ("DDNS/EXAMPLE", "a.b")
    assert registry.binding_of("example.ddns") == ("DDNS/EXAMPLE", "@")


@settings(max_examples=60, deadline=None)
@given(ASSET_NAMES)
def test_every_accepted_name_maps_to_one_dns_name_and_back(name):
    assert registry.validate_asset_name(name).ok
    dns = registry.asset_to_dns(name)
    assert registry.dns_to_asset(dns) == name
    assert registry.is_root_label(dns.rsplit(".", 1)[1])
    asset = registry.DomainAsset(name, ALICE.address, CID)
    view = SimpleNamespace(assets={name: asset})
    resolver = Resolver(ResolverConfig(), lambda: view, store=None)
    assert resolver._binding(dns, view) == (name, "@", CID)
    assert resolver._binding("www." + dns, view) == (name, "www", CID)
    assert registry.lookup_domain(view, dns) is asset


# -- ownership integrity --------------------------------------------------------

def test_owner_update_accepted():
    chain = chain_with()
    tx = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, chain.state)
    assert validate_transaction(tx, chain.state).ok
    block = mine_block([tx], chain.state, ALICE.address)
    chain.add_block(block)
    assert chain.state.assets["DDNS/EXAMPLE"].ipfs_hash == CID2


def test_non_owner_update_rejected():
    chain = chain_with()
    tx = registry.update_domain("DDNS/EXAMPLE", CID2, BOB, chain.state)
    result = validate_transaction(tx, chain.state)
    assert not result.ok and result.code == "not-owner"


def test_replayed_signature_on_mutated_operation_rejected():
    chain = chain_with()
    genuine = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, chain.state)
    # reuse alice's real signature on an operation pointing elsewhere
    mutated_op = AssetOperation("update", "DDNS/EXAMPLE",
                                new_content_id=content_id_of(b"attacker zone"),
                                auth=genuine.asset_op.auth)
    forged = Transaction((), (), mutated_op, genuine.nonce)
    assert not validate_transaction(forged, chain.state).ok


def test_transfer_moves_control():
    chain = chain_with()
    tx = registry.transfer_domain("DDNS/EXAMPLE", BOB.address, ALICE, chain.state)
    chain.add_block(mine_block([tx], chain.state, ALICE.address))
    assert chain.state.assets["DDNS/EXAMPLE"].owner_address == BOB.address
    # old owner lost update rights, new owner gained them
    stale = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, chain.state)
    assert not validate_transaction(stale, chain.state).ok
    fresh = registry.update_domain("DDNS/EXAMPLE", CID2, BOB, chain.state)
    assert validate_transaction(fresh, chain.state).ok


def test_transfer_chain_replay():
    # A -> B -> C -> A, verifying authority at each hop
    chain = chain_with()
    hops = [(ALICE, BOB), (BOB, CAROL), (CAROL, ALICE)]
    for sender, receiver in hops:
        tx = registry.transfer_domain("DDNS/EXAMPLE", receiver.address,
                                      sender, chain.state)
        assert validate_transaction(tx, chain.state).ok
        chain.add_block(mine_block([tx], chain.state, sender.address))
        assert chain.state.assets["DDNS/EXAMPLE"].owner_address == receiver.address


def test_adversarial_forgery_harness():
    """Randomized forged updates: wrong keys, bit-flipped signatures,
    mutated targets. None may validate."""
    chain = chain_with()
    rng = random.Random(99)
    genuine = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, chain.state)
    accepted = 0
    for i in range(300):
        mode = rng.randrange(3)
        if mode == 0:  # wrong key signs
            forged = registry.update_domain("DDNS/EXAMPLE", CID2,
                                            rng.choice([BOB, CAROL, DAVE]),
                                            chain.state, nonce=i)
        elif mode == 1:  # genuine signature, flipped bit
            pub, sig = genuine.asset_op.auth[0]
            flipped = bytearray(sig)
            flipped[rng.randrange(64)] ^= 1 << rng.randrange(8)
            op = AssetOperation("update", "DDNS/EXAMPLE", new_content_id=CID2,
                                auth=((pub, bytes(flipped)),))
            forged = Transaction((), (), op, genuine.nonce)
        else:  # genuine signature on a mutated operation
            op = AssetOperation("update", "DDNS/EXAMPLE",
                                new_content_id=content_id_of(rng.randbytes(16)),
                                auth=genuine.asset_op.auth)
            forged = Transaction((), (), op, genuine.nonce)
        if validate_transaction(forged, chain.state).ok:
            accepted += 1
    assert accepted == 0


# -- multisig -------------------------------------------------------------------

def _multisig_chain():
    policy = registry.MultiSigPolicy((ALICE.public_key, BOB.public_key,
                                      CAROL.public_key))
    chain = Chain(make_genesis())
    op = AssetOperation("register", "DDNS/VAULT", new_content_id=CID,
                        subsidized=True,
                        policy_keys=tuple(policy.keys),
                        auth=((ALICE.public_key, b"\x00" * 64),
                              (BOB.public_key, b"\x00" * 64)))
    tx = Transaction((), (), op, 0)
    tx = sign_transaction(tx, ALICE)
    tx = sign_transaction(tx, BOB)
    assert validate_transaction(tx, chain.state).ok
    chain.add_block(mine_block([tx], chain.state, ALICE.address))
    assert chain.state.assets["DDNS/VAULT"].owner_address == policy.address
    return chain, policy


def _multisig_update(chain, policy, signers, nonce=1):
    op = AssetOperation("update", "DDNS/VAULT", new_content_id=CID2,
                        policy_keys=tuple(policy.keys),
                        auth=tuple((kp.public_key, b"\x00" * 64) for kp in signers))
    tx = Transaction((), (), op, nonce)
    for kp in signers:
        tx = sign_transaction(tx, kp)
    return tx


def test_multisig_all_eight_subsets():
    chain, policy = _multisig_chain()
    holders = (ALICE, BOB, CAROL)
    accepted_subsets = []
    for r in range(4):
        for subset in itertools.combinations(holders, r):
            tx = _multisig_update(chain, policy, subset)
            ok = validate_transaction(tx, chain.state).ok
            assert ok == (len(subset) >= 2)
            if ok:
                accepted_subsets.append(subset)
    assert len(accepted_subsets) == 4
    assert all(len(s) >= 2 for s in accepted_subsets)


def test_multisig_outsider_signatures_do_not_count():
    chain, policy = _multisig_chain()
    tx = _multisig_update(chain, policy, (ALICE, DAVE))
    assert not validate_transaction(tx, chain.state).ok


def test_multisig_duplicate_signer_counts_once():
    chain, policy = _multisig_chain()
    op = AssetOperation("update", "DDNS/VAULT", new_content_id=CID2,
                        policy_keys=tuple(policy.keys),
                        auth=((ALICE.public_key, b"\x00" * 64),
                              (ALICE.public_key, b"\x00" * 64)))
    tx = sign_transaction(Transaction((), (), op, 1), ALICE)
    assert not validate_transaction(tx, chain.state).ok


def test_multisig_update_with_a_malformed_policy_key_is_rejected():
    chain, policy = _multisig_chain()
    tx = _multisig_update(chain, policy, (ALICE, BOB))
    bad_keys = (b"\x02" + b"\xff" * 32, *policy.keys[1:])
    bad = replace(tx, asset_op=replace(tx.asset_op, policy_keys=bad_keys))
    for _ in range(2):
        result = validate_transaction(bad, chain.state)
        assert not result.ok and result.code == "not-owner"


def test_multisig_policy_requires_three_distinct_keys():
    with pytest.raises(DdnsError):
        registry.MultiSigPolicy((ALICE.public_key, ALICE.public_key,
                                 BOB.public_key))


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.", min_size=1,
               max_size=35))
def test_name_validation_never_crashes(segment):
    result = registry.validate_asset_name(f"DDNS/{segment}")
    ok = (len(segment) <= 30 and segment[0] not in "._"
          and segment[-1] not in "._" and ".." not in segment
          and "." not in segment)
    assert result.ok == ok


# -- replay protection ------------------------------------------------------------

CID3 = content_id_of(b"zone-v3")


def test_replayed_update_rejected_and_not_mined():
    chain = chain_with()
    first = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, chain.state, nonce=1)
    chain.add_block(mine_block([first], chain.state, ALICE.address))
    second = registry.update_domain("DDNS/EXAMPLE", CID3, ALICE, chain.state, nonce=2)
    chain.add_block(mine_block([second], chain.state, ALICE.address))
    result = validate_transaction(first, chain.state)
    assert not result.ok and result.code == "stale-revision"
    block = mine_block([first], chain.state, ALICE.address)
    assert block.transactions[1:] == ()
    chain.add_block(block)
    assert chain.state.assets["DDNS/EXAMPLE"].ipfs_hash == CID3
    assert chain.state.assets["DDNS/EXAMPLE"].revision == 2


def test_replayed_transfer_rejected():
    chain = chain_with()
    to_bob = registry.transfer_domain("DDNS/EXAMPLE", BOB.address, ALICE, chain.state, nonce=1)
    chain.add_block(mine_block([to_bob], chain.state, ALICE.address))
    back = registry.transfer_domain("DDNS/EXAMPLE", ALICE.address, BOB, chain.state, nonce=2)
    chain.add_block(mine_block([back], chain.state, BOB.address))
    result = validate_transaction(to_bob, chain.state)
    assert not result.ok and result.code == "stale-revision"
    assert chain.state.assets["DDNS/EXAMPLE"].owner_address == ALICE.address


def test_replayed_multisig_update_rejected():
    chain, policy = _multisig_chain()
    first = _multisig_update(chain, policy, (ALICE, BOB))
    chain.add_block(mine_block([first], chain.state, ALICE.address))
    op = AssetOperation("update", "DDNS/VAULT", new_content_id=CID3,
                        policy_keys=tuple(policy.keys),
                        auth=((BOB.public_key, b"\x00" * 64), (CAROL.public_key, b"\x00" * 64)),
                        revision=1)
    second = sign_transaction(sign_transaction(Transaction((), (), op, 2), BOB), CAROL)
    assert validate_transaction(second, chain.state).ok
    chain.add_block(mine_block([second], chain.state, ALICE.address))
    result = validate_transaction(first, chain.state)
    assert not result.ok and result.code == "stale-revision"
    assert chain.state.assets["DDNS/VAULT"].ipfs_hash == CID3


def test_revision_is_signed_and_serialized():
    chain = chain_with()
    tx = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, chain.state)
    bumped = Transaction((), (), AssetOperation(**{**tx.asset_op.__dict__, "revision": 7}), tx.nonce)
    assert Transaction.deserialize(bumped.serialize()) == bumped
    assert bumped.signing_bytes != tx.signing_bytes
    register = registry.register_domain("DDNS/OTHER", CID, ALICE, chain.state)
    stale = Transaction((), (), AssetOperation(**{**register.asset_op.__dict__, "revision": 1}), 0)
    assert validate_transaction(stale, chain.state).code == "stale-revision"
