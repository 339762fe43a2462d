"""Deterministic inputs: keys, zone documents and the chains that carry them.

Every chain is built through the node's public API (`LocalNode.submit_transaction`
and `LocalNode.mine`) with synthetic timestamps 15 s apart, so difficulty stays
at the genesis target and block production costs only a few hashes.
"""

from __future__ import annotations

import hashlib
import json

from ddns import registry
from ddns.chain import BLOCK_SUBSIDY, Transaction, TxInput, TxOutput, sign_transaction
from ddns.config import NodeConfig
from ddns.controlfile import parse_control_file, serialize_canonical
from ddns.keys import generate_keypair
from ddns.node import LocalNode

BLOCK_SPACING = 15          # synthetic seconds between blocks: keeps genesis difficulty
REGISTRATIONS_PER_BLOCK = 25
FANOUTS_PER_BLOCK = 10
HOSTS_PER_ZONE = 20


class Keys:
    """The run's key set: one miner, four domain owners, two fee payers."""

    def __init__(self, seed: int):
        def key(label):
            return generate_keypair(hashlib.sha256(f"{seed}:{label}".encode()).digest())
        self.miner = key("miner")
        self.owners = [key(f"owner{i}") for i in range(4)]
        self.payers = [key(f"payer{i}") for i in range(2)]


def canonical_zone(doc: dict) -> bytes:
    return serialize_canonical(parse_control_file(json.dumps(doc).encode()))


def serve_zone(domain: str, rng) -> dict:
    """Apex A/MX/TXT, a `www` CNAME to the apex, and HOSTS_PER_ZONE hosts with A and AAAA."""
    records = {
        "@": {"A": [{"address": _ipv4(rng)}],
              "MX": [{"server": "mail", "priority": rng.randrange(1, 50)}],
              "TXT": [{"text": f"v=bench1 id={rng.randrange(1 << 30)}"}]},
        "www": {"CNAME": [{"target": domain}]},
    }
    for h in range(HOSTS_PER_ZONE):
        records[f"h{h}"] = {"A": [{"address": _ipv4(rng)}],
                            "AAAA": [{"address": f"fd00:{rng.randrange(1 << 16):x}::{h + 1:x}"}]}
    return {"version": "2.0", "domain": domain, "records": records}


def ledger_zone(domain: str, address: str, revision: int) -> dict:
    return {"version": "2.0", "domain": domain,
            "records": {"@": {"A": [{"address": address}],
                              "TXT": [{"text": f"rev={revision}"}]},
                        "www": {"CNAME": [{"target": domain}]}}}


def _ipv4(rng) -> str:
    return f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"


def ledger_address(counter: int) -> str:
    """A distinct IPv4 address per zone revision, so each update is observable."""
    return f"172.{16 + (counter >> 16) % 16}.{(counter >> 8) & 0xFF}.{counter & 0xFF}"


class ChainBuilder:
    """Builds a node's history through its public API with a synthetic clock."""

    def __init__(self, data_dir: str, keys: Keys):
        self.keys = keys
        self.node = LocalNode(NodeConfig(data_dir=data_dir))
        self.now = self.node.chain.genesis.header.timestamp
        self.nonce = 1

    def next_nonce(self) -> int:
        self.nonce += 1
        return self.nonce

    def mine(self, blocks: int = 1):
        for _ in range(blocks):
            self.now += BLOCK_SPACING
            self.node.mine(1, self.keys.miner.address, now=self.now)

    def register_all(self, entries):
        """`entries`: (asset_name, zone_doc, owner KeyPair), REGISTRATIONS_PER_BLOCK per block."""
        for i, (name, doc, owner) in enumerate(entries):
            cid = self.node.store.put(canonical_zone(doc))
            tx = registry.register_domain(name, cid, owner, self.node.state,
                                          nonce=self.next_nonce())
            self.node.submit_transaction(tx)
            if (i + 1) % REGISTRATIONS_PER_BLOCK == 0:
                self.mine()
        if self.node.mempool:
            self.mine()

    def fan_out(self, txs: int, outputs: int):
        """Split `txs` coinbase outputs into `outputs` payer-owned outputs each.

        Returns the spendable payer outputs as [(txid, index, value, payer)].
        """
        miner = self.keys.miner
        coinbases = sorted(
            (key for key, out in self.node.state.utxos.items()
             if out.recipient == miner.address and out.value == BLOCK_SUBSIDY),
            key=lambda k: k[0])[:txs]
        if len(coinbases) < txs:
            raise RuntimeError("not enough coinbase outputs to fan out")
        value = BLOCK_SUBSIDY // outputs
        pool = []
        for j, (txid, index) in enumerate(coinbases):
            payers = [self.keys.payers[(j + i) % len(self.keys.payers)] for i in range(outputs)]
            tx = Transaction((TxInput(txid, index, miner.public_key),),
                             tuple(TxOutput(value, p.address) for p in payers),
                             None, self.next_nonce())
            tx = sign_transaction(tx, miner)
            self.node.submit_transaction(tx)
            new_txid = tx.txid
            pool.extend((new_txid, i, value, p) for i, p in enumerate(payers))
            if (j + 1) % FANOUTS_PER_BLOCK == 0:
                self.mine()
        if self.node.mempool:
            self.mine()
        return pool
