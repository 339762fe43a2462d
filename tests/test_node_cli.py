import json
import logging
import os
import random
import struct

import pytest

from conftest import fixture_bytes
from ddns.chain import GENESIS_TIMESTAMP
from ddns.cli import main
from ddns.config import NodeConfig, config_from_dict, load_config
from ddns.errors import ConfigError, DdnsError
from ddns.keys import generate_keypair
from ddns.node import MAX_RECORD_BYTES, LocalNode, load_key_file, save_key_file
from ddns import node as node_module, registry
from ddns.store import content_id_of

ALICE = generate_keypair(b"\x01" * 32)
BOB = generate_keypair(b"\x02" * 32)
CID = content_id_of(b"zone")


# -- key files -----------------------------------------------------------------

def test_key_file_round_trip(tmp_path):
    path = str(tmp_path / "k.key")
    save_key_file(path, ALICE)
    assert load_key_file(path).secret_key == ALICE.secret_key
    assert os.stat(path).st_mode & 0o777 == 0o600


def test_key_file_corruption_detected(tmp_path):
    path = str(tmp_path / "k.key")
    save_key_file(path, ALICE)
    with open(path, "r+b") as fh:
        fh.seek(20)
        byte = fh.read(1)
        fh.seek(20)
        fh.write(bytes([byte[0] ^ 1]))
    with pytest.raises(DdnsError):
        load_key_file(path)


# -- node persistence ------------------------------------------------------------

def test_chain_persists_across_restart(tmp_path):
    config = NodeConfig(data_dir=str(tmp_path))
    node = LocalNode(config)
    tx = registry.register_domain("DDNS/DURABLE", CID, ALICE, node.state,
                                  nonce=node.next_nonce())
    node.submit_transaction(tx)
    node.mine(2, ALICE.address)
    tip, height = node.chain.state.tip, node.chain.height
    reloaded = LocalNode(config)
    assert reloaded.chain.height == height == 2
    assert reloaded.chain.state.tip == tip
    assert reloaded.state.assets["DDNS/DURABLE"].ipfs_hash == CID


def test_mempool_persists_across_restart(tmp_path):
    config = NodeConfig(data_dir=str(tmp_path))
    node = LocalNode(config)
    tx = registry.register_domain("DDNS/PENDING", CID, ALICE, node.state,
                                  nonce=node.next_nonce())
    node.submit_transaction(tx)
    reloaded = LocalNode(config)
    assert [t.txid for t in reloaded.mempool] == [tx.txid]


def test_invalid_transaction_rejected_by_node(tmp_path):
    node = LocalNode(NodeConfig(data_dir=str(tmp_path)))
    tx = registry.register_domain("DDNS/DUPL", CID, ALICE, node.state)
    node.submit_transaction(tx)
    node.mine(1, ALICE.address)
    with pytest.raises(DdnsError):
        node.submit_transaction(tx)  # name now taken


def _mine_at(node, blocks, address=ALICE.address):
    """Mine `blocks` blocks 15 s apart after the tip, on a fixed clock."""
    for _ in range(blocks):
        node.mine(1, address, now=node.state.recent_headers[-1].timestamp + 15)


def test_reopen_after_reorg_keeps_state(tmp_path):
    config = NodeConfig(data_dir=str(tmp_path / "a"))
    node = LocalNode(config)
    rival = LocalNode(NodeConfig(data_dir=str(tmp_path / "b")))
    tx = registry.register_domain("DDNS/REORGED", CID, ALICE, node.state, nonce=1)
    node.submit_transaction(tx)
    _mine_at(node, 1)
    _mine_at(rival, 2, BOB.address)
    now = GENESIS_TIMESTAMP + 60
    results = [node.accept_block(rival.chain.blocks[h], now=now)
               for h in (rival.chain.blocks[rival.chain.tip_hash].header.previous_hash,
                         rival.chain.tip_hash)]
    assert [r.reorged for r in results] == [False, True]
    assert [t.txid for t in node.mempool] == [tx.txid]
    _mine_at(node, 1)
    assert "DDNS/REORGED" in node.state.assets
    reopened = LocalNode(config)
    assert reopened.chain.tip_hash == node.chain.tip_hash
    assert reopened.state.digest() == node.state.digest()


def _node_with_blocks(tmp_path, blocks):
    config = NodeConfig(data_dir=str(tmp_path))
    _mine_at(LocalNode(config), blocks)
    return config, tmp_path / "blocks.dat"


def test_torn_last_block_record_is_truncated(tmp_path, caplog):
    config, path = _node_with_blocks(tmp_path, 3)
    whole = path.read_bytes()
    chain = LocalNode(config).chain
    last_record = 4 + len(chain.blocks[chain.tip_hash].serialize())
    path.write_bytes(whole[:-10])
    with caplog.at_level(logging.WARNING, logger="ddns.node"):
        node = LocalNode(config)
    assert node.chain.height == 2
    assert len(caplog.records) == 1 and "torn" in caplog.records[0].getMessage()
    assert path.read_bytes() == whole[:-last_record]
    _mine_at(node, 1)
    assert LocalNode(config).chain.height == 3


def test_stray_bytes_after_last_record_are_truncated(tmp_path):
    config, path = _node_with_blocks(tmp_path, 2)
    whole = path.read_bytes()
    path.write_bytes(whole + b"\x01\x02")
    node = LocalNode(config)
    assert node.chain.height == 2 and path.read_bytes() == whole
    _mine_at(node, 1)
    assert LocalNode(config).chain.height == 3


def test_corrupt_whole_block_record_still_fails(tmp_path):
    config, path = _node_with_blocks(tmp_path, 2)
    data = bytearray(path.read_bytes())
    data[4 + 32 + 5] ^= 0xFF  # the merkle root of the first block
    path.write_bytes(bytes(data))
    with pytest.raises(DdnsError):
        LocalNode(config)


def test_failed_mempool_save_keeps_previous_file(tmp_path, monkeypatch):
    config = NodeConfig(data_dir=str(tmp_path))
    node = LocalNode(config)
    first = registry.register_domain("DDNS/FIRST", CID, ALICE, node.state, nonce=1)
    node.submit_transaction(first)
    path = tmp_path / "mempool.json"
    before = path.read_bytes()

    def torn_dump(obj, fh):
        fh.write(json.dumps(obj)[:10])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    second = registry.register_domain("DDNS/SECOND", CID, ALICE, node.state, nonce=2)
    with pytest.raises(OSError):
        node.submit_transaction(second)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [t.txid for t in LocalNode(config).mempool] == [first.txid]


def test_submit_appends_to_the_log_and_reopen_folds_it(tmp_path):
    config = NodeConfig(data_dir=str(tmp_path))
    node = LocalNode(config)
    path, log_path = tmp_path / "mempool.json", tmp_path / "mempool.log"
    before = path.stat()
    txs = [registry.register_domain(f"DDNS/LOG{i}", CID, ALICE, node.state, nonce=i)
           for i in (1, 2)]
    for tx in txs:
        node.submit_transaction(tx)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert json.loads(path.read_text()) == []
    reloaded = LocalNode(config)
    assert [t.txid for t in reloaded.mempool] == [t.txid for t in txs]
    assert json.loads(path.read_text()) == [t.serialize().hex() for t in txs]
    assert not log_path.exists()
    # A block that leaves the mempool as mempool.json holds it writes neither
    # file; the confirmed tx left in the log is dropped on the next open.
    _mine_at(reloaded, 1)
    assert json.loads(path.read_text()) == []
    before = path.stat()
    reloaded.submit_transaction(registry.register_domain("DDNS/LOG3", CID, ALICE,
                                                         reloaded.state, nonce=3))
    logged = log_path.read_bytes()
    _mine_at(reloaded, 1)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert log_path.read_bytes() == logged and reloaded.mempool == []
    assert LocalNode(config).mempool == [] and not log_path.exists()


def test_a_block_deletes_a_log_over_the_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(node_module, "MEMPOOL_LOG_LIMIT", 100)
    node = LocalNode(NodeConfig(data_dir=str(tmp_path)))
    node.submit_transaction(registry.register_domain("DDNS/BIG", CID, ALICE, node.state,
                                                     nonce=1))
    log_path = tmp_path / "mempool.log"
    assert log_path.stat().st_size > 100
    _mine_at(node, 1)
    assert not log_path.exists() and node.mempool == []


def test_a_record_after_a_torn_one_survives_reopen(tmp_path, monkeypatch, caplog):
    config = NodeConfig(data_dir=str(tmp_path))
    node = LocalNode(config)
    first, second, third = (registry.register_domain(f"DDNS/TORN{i}", CID, ALICE, node.state,
                                                     nonce=i) for i in (1, 2, 3))
    node.submit_transaction(first)

    def torn_dump(obj, fh):
        fh.write(json.dumps(obj)[:10])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError):
        node.submit_transaction(second)
    monkeypatch.undo()
    assert node.mempool == [first]
    node.submit_transaction(third)
    with caplog.at_level(logging.WARNING, logger="ddns.node"):
        reloaded = LocalNode(config)
    assert [t.txid for t in reloaded.mempool] == [first.txid, third.txid]
    assert "torn record" in caplog.text


def test_a_tx_in_both_mempool_files_loads_once(tmp_path):
    # A crash after a fold rewrote mempool.json but before it deleted the log.
    config = NodeConfig(data_dir=str(tmp_path))
    node = LocalNode(config)
    tx = registry.register_domain("DDNS/TWICE", CID, ALICE, node.state, nonce=1)
    node.submit_transaction(tx)
    (tmp_path / "mempool.json").write_text(json.dumps([tx.serialize().hex()]))
    assert [t.txid for t in LocalNode(config).mempool] == [tx.txid]


def test_record_length_over_the_cap_fails_and_keeps_the_file(tmp_path):
    config, path = _node_with_blocks(tmp_path, 3)
    whole = path.read_bytes()
    second = 4 + struct.unpack_from("<I", whole)[0]
    for length in (0xFFFFFF00, MAX_RECORD_BYTES + 1):
        data = bytearray(whole)
        struct.pack_into("<I", data, second, length)
        path.write_bytes(bytes(data))
        with pytest.raises(DdnsError, match="cap"):
            LocalNode(config)
        assert path.read_bytes() == bytes(data)
    path.write_bytes(whole)
    assert LocalNode(config).chain.height == 3


def test_block_drops_the_mempool_txs_it_makes_invalid(tmp_path):
    config = NodeConfig(data_dir=str(tmp_path))
    node = LocalNode(config)
    node.submit_transaction(registry.register_domain("DDNS/RACE", CID, ALICE, node.state, nonce=1))
    _mine_at(node, 1)
    first, second = (registry.update_domain("DDNS/RACE", content_id_of(zone), ALICE, node.state,
                                            nonce=nonce)
                     for nonce, zone in ((2, b"first"), (3, b"second")))
    node.submit_transaction(first)
    node.submit_transaction(second)
    assert node.mempool == [first, second]
    _mine_at(node, 1)
    assert node.state.assets["DDNS/RACE"].ipfs_hash == first.asset_op.new_content_id
    assert node.mempool == []
    assert json.loads((tmp_path / "mempool.json").read_text()) == []


CAROL = generate_keypair(b"\x03" * 32)


def _random_op(rng, state, counter):
    """A signed register, update or transfer against `state`, or None."""
    owners = {kp.address: kp for kp in (ALICE, BOB, CAROL)}
    names = sorted(name for name, asset in state.assets.items() if asset.owner_address in owners)
    kind = rng.choice(["register", "register", "update", "update", "transfer"]) if names else "register"
    nonce = 1000 + counter
    if kind == "register":
        root = rng.choice(["DDNS", "DDNS", "PHI"])
        return registry.register_domain(f"{root}/N{counter}", CID, rng.choice(list(owners.values())),
                                        state, nonce=nonce)
    name = rng.choice(names)
    owner = owners[state.assets[name].owner_address]
    if kind == "update":
        return registry.update_domain(name, content_id_of(b"zone %d" % counter), owner, state, nonce=nonce)
    return registry.transfer_domain(name, rng.choice(list(owners)), owner, state, nonce=nonce)


@pytest.mark.parametrize("seed", range(4))
def test_the_mempool_after_each_block_is_what_full_revalidation_keeps(tmp_path, monkeypatch, seed):
    """Dropping the tip's own txs unchecked leaves the mempool a full
    re-validation of the old mempool and the returned txs would leave, over
    submits, mines and 2-block reorgs."""
    from ddns.chain import validate_transaction
    rng = random.Random(seed)
    seen = {"blocks": [], "carried": 0, "kept": 0, "reorgs": 0}
    real = LocalNode.accept_block

    def checked(self, block, now=None):
        before = list(self.mempool)
        result = real(self, block, now)
        if self is node and result.accepted:
            seen["blocks"].append(block)
            pending = before + result.returned_txs
            assert self.mempool == [tx for tx in pending if validate_transaction(tx, self.state).ok]
            txids = {tx.txid for tx in block.transactions}
            seen["carried"] += self.chain.tip_hash == block.header.hash and any(
                tx.txid in txids for tx in pending)
            seen["kept"] += bool(self.mempool)
            seen["reorgs"] += result.reorged
        return result

    monkeypatch.setattr(LocalNode, "accept_block", checked)
    node = LocalNode(NodeConfig(data_dir=str(tmp_path / "node")))
    rival = LocalNode(NodeConfig(data_dir=str(tmp_path / "rival")))
    _mine_at(node, 2)
    synced = 0
    for step in range(40):
        action = rng.choice(["submit"] * 5 + ["mine"] * 2 + ["reorg"])
        if action == "submit":
            for j in range(rng.randint(1, 3)):
                try:
                    tx = _random_op(rng, node.state, step * 10 + j)
                    node.submit_transaction(tx)
                except DdnsError:
                    continue
                if rng.random() < 0.5:  # the rival may carry it too
                    try:
                        rival.submit_transaction(tx)
                    except DdnsError:
                        pass
        elif action == "mine":
            _mine_at(node, 1)
        else:  # the rival syncs to the tip's parent and orphans the tip
            for block in seen["blocks"][synced:-1]:
                rival.accept_block(block, now=block.header.timestamp)
            synced = len(seen["blocks"]) - 1
            if rival.chain.tip_hash != node.chain.blocks[node.chain.tip_hash].header.previous_hash:
                continue
            _mine_at(rival, 2, BOB.address)
            tip = rival.chain.blocks[rival.chain.tip_hash]
            for block in (rival.chain.blocks[tip.header.previous_hash], tip):
                node.accept_block(block, now=block.header.timestamp)
    assert seen["carried"] and seen["kept"] and seen["reorgs"]


def test_a_losing_side_block_leaves_the_mempool_unchecked(tmp_path, monkeypatch):
    node = LocalNode(NodeConfig(data_dir=str(tmp_path / "node")))
    rival = LocalNode(NodeConfig(data_dir=str(tmp_path / "rival")))
    _mine_at(node, 2)
    _mine_at(rival, 1, BOB.address)
    node.submit_transaction(registry.register_domain("DDNS/PENDING", CID, ALICE, node.state,
                                                     nonce=1))
    before, tip = node.mempool, node.chain.tip_hash
    calls = []
    monkeypatch.setattr(node_module, "validate_transaction",
                        lambda *args: calls.append(args))
    side = rival.chain.blocks[rival.chain.tip_hash]
    result = node.accept_block(side, now=side.header.timestamp)
    assert result.accepted and node.chain.tip_hash == tip
    assert calls == [] and node.mempool is before and len(before) == 1


def test_a_signed_op_is_verified_once_from_submit_to_block(tmp_path, verify_calls):
    config = NodeConfig(data_dir=str(tmp_path))
    node = LocalNode(config)
    _mine_at(node, 1)
    tx = registry.register_domain("PHI/FUNDED", CID, ALICE, node.state, nonce=1)
    assert tx.inputs and tx.asset_op.auth  # one signature fills both slots
    node.submit_transaction(tx)
    _mine_at(node, 1)
    assert "PHI/FUNDED" in node.state.assets and node.mempool == []
    assert verify_calls == [ALICE.public_key]
    reopened = LocalNode(config)
    assert reopened.state.digest() == node.state.digest()
    assert verify_calls == [ALICE.public_key] * 2


def test_a_signed_op_derives_its_key_address_once_from_submit_to_block(tmp_path,
                                                                       address_calls):
    node = LocalNode(NodeConfig(data_dir=str(tmp_path)))
    _mine_at(node, 1)
    tx = registry.register_domain("PHI/ADDRESS", CID, ALICE, node.state, nonce=1)
    node.submit_transaction(tx)
    _mine_at(node, 1)
    assert node.state.assets["PHI/ADDRESS"].owner_address == ALICE.address
    assert address_calls == [ALICE.public_key]


# -- undo records and snapshots ----------------------------------------------------

def _snapshot_node(tmp_path, monkeypatch, blocks=4, interval=3):
    """A node whose last snapshot is at height `interval`, with a registration
    confirmed below it and the rest of `blocks` after it."""
    monkeypatch.setattr(node_module, "SNAPSHOT_INTERVAL", interval)
    config = NodeConfig(data_dir=str(tmp_path / "node"))
    node = LocalNode(config)
    node.submit_transaction(registry.register_domain("DDNS/SNAP", CID, ALICE, node.state, nonce=1))
    _mine_at(node, blocks)
    assert json.loads((tmp_path / "node" / "chainstate.snap").read_text())["height"] == interval
    return config, node


def _full_replay(tmp_path, config):
    """A node opened on a copy of `config`'s blocks.dat alone."""
    other = tmp_path / "replay"
    other.mkdir()
    (other / "blocks.dat").write_bytes((tmp_path / "node" / "blocks.dat").read_bytes())
    return LocalNode(NodeConfig(data_dir=str(other)))


def test_a_snapshot_reopen_verifies_no_signature(tmp_path, monkeypatch, verify_calls):
    config, node = _snapshot_node(tmp_path, monkeypatch, blocks=3)
    assert verify_calls == [ALICE.public_key]
    reopened = LocalNode(config)
    assert verify_calls == [ALICE.public_key]
    assert reopened.state.digest() == node.state.digest()
    assert reopened.chain.blocks.raw  # indexed by header, never decoded
    assert reopened.chain_view().assets["DDNS/SNAP"].ipfs_hash == CID
    # Without the snapshot the same history is checked again.
    assert _full_replay(tmp_path, config).state.digest() == node.state.digest()
    assert verify_calls == [ALICE.public_key] * 2


def test_a_reorg_after_a_snapshot_reopen_reaches_below_it(tmp_path, monkeypatch):
    config, node = _snapshot_node(tmp_path, monkeypatch, blocks=4)
    rival = LocalNode(NodeConfig(data_dir=str(tmp_path / "rival")))
    _mine_at(rival, 6, BOB.address)
    reopened = LocalNode(config)  # the snapshot at 3 plus one replayed block
    assert reopened.chain.height == 4 and len(reopened.chain.blocks.raw) == 3
    now = rival.state.recent_headers[-1].timestamp
    results = [reopened.accept_block(rival.chain.blocks[h], now=now)
               for h in list(rival.chain.blocks)[1:]]
    assert [(r.accepted, r.reorged) for r in results] == [(True, False)] * 4 + [(True, True),
                                                                                (True, False)]
    assert reopened.chain.tip_hash == rival.chain.tip_hash
    assert reopened.state.digest() == rival.state.digest()
    assert "DDNS/SNAP" not in reopened.chain_view().assets
    assert [t.asset_op.asset_name for t in reopened.mempool] == ["DDNS/SNAP"]
    assert LocalNode(config).state.digest() == rival.state.digest()


def _broken_snapshot(path, how):
    doc = json.loads(path.read_text())
    if how == "torn":
        path.write_text(path.read_text()[:40])
    elif how == "corrupt":
        doc["utxos"][0][2] += 1
        path.write_text(json.dumps(doc))
    elif how == "unknown-tip":
        from ddns.chain import ChainState
        state = ChainState.from_json(doc)
        state.tip = b"\x07" * 32
        path.write_text(json.dumps({**state.to_json(), "blocks_len": doc["blocks_len"],
                                    "undo_len": doc["undo_len"]}))
    elif how == "no-undo":
        os.remove(path.parent / "undo.dat")


@pytest.mark.parametrize("how", ["torn", "corrupt", "unknown-tip", "no-undo"])
def test_a_bad_snapshot_falls_back_to_a_full_replay(tmp_path, monkeypatch, caplog, how):
    config, node = _snapshot_node(tmp_path, monkeypatch, blocks=4)
    snap = tmp_path / "node" / "chainstate.snap"
    _broken_snapshot(snap, how)
    with caplog.at_level(logging.WARNING, logger="ddns.node"):
        reopened = LocalNode(config)
    assert len(caplog.records) == 1 and "replaying" in caplog.records[0].getMessage()
    assert not reopened.chain.blocks.raw
    assert reopened.state.digest() == node.state.digest()
    # The replay covered the interval, so it wrote a good snapshot again.
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ddns.node"):
        again = LocalNode(config)
    assert not caplog.records and again.chain.blocks.raw
    assert again.state.digest() == node.state.digest()


def test_failed_renames_leave_no_temp_files(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(node_module, "SNAPSHOT_INTERVAL", 1)
    mined = tmp_path / "mined"
    _mine_at(LocalNode(NodeConfig(data_dir=str(mined))), 1)
    os.remove(mined / "chainstate.snap")  # the next open replays and writes one

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    # A snapshot is only a cache: the open and the next block go on without it.
    with caplog.at_level(logging.WARNING, logger="ddns.node"):
        node = LocalNode(NodeConfig(data_dir=str(mined)))
        _mine_at(node, 1)
    assert [r.getMessage().startswith("chainstate.snap not written") for r in caplog.records] \
        == [True, True]
    with pytest.raises(OSError):  # mempool.json
        LocalNode(NodeConfig(data_dir=str(tmp_path / "empty")))
    monkeypatch.undo()
    leftovers = [name for _, _, files in os.walk(tmp_path) for name in files if ".tmp." in name]
    assert leftovers == []
    assert not (mined / "chainstate.snap").exists()
    assert not (tmp_path / "empty" / "mempool.json").exists()
    # The next open replays, writes undo.dat whole and a snapshot, and the
    # one after loads it.
    monkeypatch.setattr(node_module, "SNAPSHOT_INTERVAL", 1)
    assert LocalNode(NodeConfig(data_dir=str(mined))).state.digest() == node.state.digest()
    reopened = LocalNode(NodeConfig(data_dir=str(mined)))
    assert reopened.chain.blocks.raw and reopened.state.digest() == node.state.digest()


def test_a_torn_undo_append_is_written_whole_with_the_next_snapshot(tmp_path, monkeypatch,
                                                                    caplog):
    monkeypatch.setattr(node_module, "SNAPSHOT_INTERVAL", 1)
    config = NodeConfig(data_dir=str(tmp_path / "node"))
    node = LocalNode(config)
    _mine_at(node, 1)

    class TornFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

    def torn_open(path, mode="r", *args):
        fh = open(path, mode, *args)
        return TornFile(fh) if str(path).endswith("undo.dat") else fh

    monkeypatch.setattr(node_module, "open", torn_open, raising=False)
    with caplog.at_level(logging.WARNING, logger="ddns.node"):
        _mine_at(node, 1)
    assert len(caplog.records) == 1
    monkeypatch.delattr(node_module, "open")
    _mine_at(node, 1)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ddns.node"):
        reopened = LocalNode(config)
    assert not caplog.records and reopened.chain.blocks.raw
    assert reopened.state.digest() == node.state.digest()


# -- config ----------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    path = tmp_path / "node.json"
    path.write_text(json.dumps({
        "data_dir": "d", "key_file": "k.key",
        "resolver": {"managed_tlds": ["ddns"], "udp_port": 0, "doh_port": 0},
    }))
    config = load_config(str(path))
    assert config.data_dir == str(tmp_path / "d")
    assert config.resolver.managed_tlds == ("ddns",)


def test_config_ignores_a_resolver_cache_dir_with_one_warning(tmp_path, caplog):
    path = tmp_path / "node.json"
    for resolver, warnings in (({"cache_dir": "old-cache"}, 1), ({}, 0)):
        path.write_text(json.dumps({"data_dir": "d", "resolver": resolver}))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ddns"):
            config = load_config(str(path))
        assert config.data_dir == str(tmp_path / "d")
        assert len(caplog.records) == warnings
        assert all("resolver.cache_dir is ignored" in r.getMessage() for r in caplog.records)


def test_config_aggregates_all_problems():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"bogus": 1, "genesis": {"timestamp": -5},
                          "resolver": {"udp_port": 99999, "udp_prot": 53}})
    text = str(err.value)
    assert "bogus" in text and "timestamp" in text and "udp_port" in text
    assert "resolver.udp_prot" in text


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/node.json")


# -- cli --------------------------------------------------------------------------

@pytest.fixture
def env(tmp_path):
    """Config file, key file, and zone file for CLI runs."""
    key = tmp_path / "owner.key"
    config = tmp_path / "node.json"
    zone = tmp_path / "zone.json"
    config.write_text(json.dumps({"data_dir": "data", "key_file": "owner.key"}))
    zone.write_bytes(fixture_bytes("example_zone.json"))
    rc = main(["keygen", "--seed", "11" * 32, "--out", str(key)])
    assert rc == 0
    return {"config": str(config), "key": str(key), "zone": str(zone),
            "dir": tmp_path}


def run(env, *args):
    return main(["--config", env["config"], *args])


def test_cli_register_mine_resolve(env, capsys):
    assert run(env, "register", "example.ddns", "--zone", env["zone"],
               "--key", env["key"]) == 0
    address = load_key_file(env["key"]).address
    assert run(env, "mine", "--blocks", "1", "--address", address) == 0
    capsys.readouterr()
    assert run(env, "--json", "resolve", "example.ddns", "A") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["rcode"] == 0
    assert out["answers"][0]["rdata"] == "c0a80164"


def test_cli_resolver_session_writes_no_cache_files(env):
    assert run(env, "register", "example.ddns", "--zone", env["zone"], "--key", env["key"]) == 0
    assert run(env, "mine") == 0
    before = sorted(os.listdir(env["dir"] / "data"))
    for name in ("example.ddns", "www.example.ddns", "ghost.ddns"):
        run(env, "resolve", name, "A")
    assert sorted(os.listdir(env["dir"] / "data")) == before
    assert not (env["dir"] / "data" / "resolver-cache").exists()


def test_cli_resolve_unknown_name_exit_4(env):
    assert run(env, "resolve", "nothere.ddns", "A") == 4


def test_cli_register_invalid_zone_exit_3(env, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "9.9"}')
    assert run(env, "register", "x.ddns", "--zone", str(bad),
               "--key", env["key"]) == 3


def test_cli_mine_uses_configured_key(env):
    # key_file in the config supplies the coinbase address
    assert run(env, "mine", "--blocks", "1") == 0


def test_cli_transfer_and_update(env, capsys):
    run(env, "register", "example.ddns", "--zone", env["zone"], "--key", env["key"])
    run(env, "mine")
    other = generate_keypair(b"\x07" * 32)
    assert run(env, "transfer", "example.ddns", "--to", other.address,
               "--key", env["key"]) == 0
    run(env, "mine")
    # former owner can no longer update
    assert run(env, "update", "example.ddns", "--zone", env["zone"],
               "--key", env["key"]) == 3


def test_cli_json_error_shape(env, capsys):
    rc = main(["--json", "--config", env["config"], "resolve", "ghost.ddns", "A"])
    assert rc == 4
    out = json.loads(capsys.readouterr().out)
    assert out["rcode"] == 3  # NXDOMAIN


def test_cli_analyze(capsys):
    assert main(["analyze", "tps", "4000000", "240", "15"]) == 0
    assert capsys.readouterr().out.strip() == "1111.1"
    assert main(["--json", "analyze", "table"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[1]["max_tps"] == 266.7
    assert main(["analyze", "nonsense"]) == 3


def test_cli_sim(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"nodes": 3, "duration_blocks": 30, "seed": 1}))
    assert main(["--json", "sim", "--config-file", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["total_blocks"] == 30
    assert main(["--json", "sim", "--config-file", str(config),
                 "--scenario", "end-to-end"]) == 0
    transcript = json.loads(capsys.readouterr().out)["report"]
    assert "within_two_intervals" in transcript
