"""Local node: persistent chain, mempool, content store, and the glue
between the CLI, the miner, and the resolver.

The block file is append-only length-prefixed canonical block bytes;
restart replays it from genesis, which also re-derives the full state.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading

from .chain import Block, Chain, Transaction, make_genesis, mine_block, validate_transaction
from .config import NodeConfig
from .encoding import sha256d
from .errors import DdnsError
from .keys import KeyPair, generate_keypair
from .store import ContentStore

log = logging.getLogger(__name__)

KEY_FILE_MAGIC = b"DDNSKEY1"


def save_key_file(path: str, keypair: KeyPair):
    """Binary layout: 8-byte magic, 32-byte secret, 4-byte sha256d checksum."""
    secret = keypair.secret_key.to_bytes(32, "big")
    body = KEY_FILE_MAGIC + secret
    with open(path, "wb") as fh:
        fh.write(body + sha256d(body)[:4])
    os.chmod(path, 0o600)


def load_key_file(path: str) -> KeyPair:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) != 44 or raw[:8] != KEY_FILE_MAGIC:
        raise DdnsError(f"not a key file: {path}")
    if sha256d(raw[:40])[:4] != raw[40:]:
        raise DdnsError(f"key file checksum mismatch: {path}")
    return generate_keypair(raw[8:40])


class LocalNode:
    def __init__(self, config: NodeConfig):
        self.config = config
        os.makedirs(config.data_dir, exist_ok=True)
        self.store = ContentStore(config.store_path)
        self.chain = Chain(make_genesis(config.genesis_target, config.genesis_timestamp))
        self.mempool: list = []
        self._lock = threading.RLock()
        self._blocks_path = os.path.join(config.data_dir, "blocks.dat")
        self._mempool_path = os.path.join(config.data_dir, "mempool.json")
        self._load()

    # -- persistence ----------------------------------------------------------

    def _load(self):
        if os.path.exists(self._blocks_path):
            with open(self._blocks_path, "rb") as fh:
                data = fh.read()
            pos = 0
            while pos < len(data):
                length = struct.unpack_from("<I", data, pos)[0] if len(data) - pos >= 4 else None
                if length is None or len(data) - pos - 4 < length:
                    # A crash mid-append leaves a partial last record: drop it.
                    log.warning("blocks.dat: truncating a torn final record of %d bytes at offset %d",
                                len(data) - pos, pos)
                    with open(self._blocks_path, "r+b") as fh:
                        fh.truncate(pos)
                    break
                block = Block.deserialize(data[pos + 4:pos + 4 + length])
                pos += 4 + length
                result = self.chain.add_block(block, now=block.header.timestamp)
                if not result.accepted and result.code != "duplicate":
                    raise DdnsError(f"corrupt block file: {result.code}")
        if os.path.exists(self._mempool_path):
            with open(self._mempool_path) as fh:
                for tx_hex in json.load(fh):
                    tx = Transaction.deserialize(bytes.fromhex(tx_hex))
                    if validate_transaction(tx, self.chain.state).ok:
                        self.mempool.append(tx)

    def _append_block(self, block: Block):
        raw = block.serialize()
        with open(self._blocks_path, "ab") as fh:
            fh.write(struct.pack("<I", len(raw)) + raw)

    def _save_mempool(self):
        tmp = self._mempool_path + f".tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump([tx.serialize().hex() for tx in self.mempool], fh)
        os.replace(tmp, self._mempool_path)

    # -- operations -----------------------------------------------------------

    def submit_transaction(self, tx: Transaction):
        with self._lock:
            result = validate_transaction(tx, self.chain.state)
            if not result.ok:
                raise DdnsError(f"rejected: {result.code}: {result.detail}")
            if any(t.txid == tx.txid for t in self.mempool):
                return tx.txid
            self.mempool.append(tx)
            self._save_mempool()
            return tx.txid

    def accept_block(self, block: Block, now: int | None = None):
        with self._lock:
            result = self.chain.add_block(block, now=now)
            if result.accepted:
                self._append_block(block)
                confirmed = {tx.txid for tx in block.transactions}
                self.mempool = [tx for tx in self.mempool if tx.txid not in confirmed]
                for tx in result.returned_txs:
                    if validate_transaction(tx, self.chain.state).ok:
                        self.mempool.append(tx)
                self._save_mempool()
            return result

    def mine(self, blocks: int, coinbase_address: str, now: int | None = None):
        """Mine `blocks` blocks onto the current tip; returns their hashes."""
        mined = []
        for _ in range(blocks):
            with self._lock:
                state = self.chain.state
                block = None
                start = 0
                while block is None:
                    block = mine_block(self.mempool, state, coinbase_address,
                                       now=now, start_nonce=start)
                    start += 1_000_000
            result = self.accept_block(block, now=now)
            if not result.accepted:
                raise DdnsError(f"own block rejected: {result.code}")
            mined.append(block.header.hash.hex())
        return mined

    @property
    def state(self):
        return self.chain.state

    def chain_view(self):
        return self.chain.state

    def next_nonce(self) -> int:
        # Distinct nonces keep otherwise-identical asset operations from
        # colliding on txid.
        return self.chain.height * 1000 + len(self.mempool) + 1
