"""Local node: persistent chain, mempool, content store, and the glue
between the CLI, the miner, and the resolver.

The block file is append-only length-prefixed canonical block bytes;
restart replays it from genesis, which also re-derives the full state.

The mempool is kept in two files: `mempool.json`, a JSON list of tx hex
written atomically, and `mempool.log`, txs submitted since, one JSON string
per line. A submit appends one line, not a rewrite of every pending tx.
Opening the node and accepting a block write the mempool to the list when it
differs from what the list holds. Opening the node then deletes the log; a
block leaves it until it passes MEMPOOL_LOG_LIMIT, since a logged tx that a
block confirmed no longer validates and is dropped on the next open.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading

from .chain import (MAX_BLOCK_WEIGHT, WEIGHT_PER_BYTE, Block, Chain, Transaction, make_genesis,
                    mine_block, validate_transaction)
from .config import NodeConfig
from .encoding import sha256d
from .errors import DdnsError
from .keys import KeyPair, generate_keypair
from .store import ContentStore

log = logging.getLogger(__name__)

KEY_FILE_MAGIC = b"DDNSKEY1"
# A valid block holds at most MAX_BLOCK_WEIGHT // WEIGHT_PER_BYTE bytes of
# transactions; its header and the 4-byte length before each tx (never longer
# than the tx) add less than that again.
MAX_RECORD_BYTES = 2 * (MAX_BLOCK_WEIGHT // WEIGHT_PER_BYTE)
# About 1,500 records. Creating the log again after every block cost the
# submits more than their appends did.
MEMPOOL_LOG_LIMIT = 1 << 20


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
        self._mempool_log_path = os.path.join(config.data_dir, "mempool.log")
        self._saved_mempool = None
        self._load()

    # -- persistence ----------------------------------------------------------

    def _load(self):
        if os.path.exists(self._blocks_path):
            with open(self._blocks_path, "rb") as fh:
                data = fh.read()
            pos = 0
            while pos < len(data):
                length = struct.unpack_from("<I", data, pos)[0] if len(data) - pos >= 4 else None
                if length is not None and length > MAX_RECORD_BYTES:
                    raise DdnsError(f"corrupt block file: record at offset {pos} claims "
                                    f"{length} bytes, over the {MAX_RECORD_BYTES}-byte cap")
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
        stored = []
        if os.path.exists(self._mempool_path):
            with open(self._mempool_path) as fh:
                self._saved_mempool = json.load(fh)
            stored += self._saved_mempool
        if os.path.exists(self._mempool_log_path):
            with open(self._mempool_log_path) as fh:
                for line in fh.read().split("\n"):
                    try:
                        stored.append(json.loads(line))
                    except json.JSONDecodeError:
                        if line:
                            log.warning("mempool.log: dropping a torn record of %d bytes",
                                        len(line))
        # A tx can be in both files: a block rewrites the list and keeps the log.
        for tx_hex in dict.fromkeys(stored):
            tx = Transaction.deserialize(bytes.fromhex(tx_hex))
            if validate_transaction(tx, self.chain.state).ok:
                self.mempool.append(tx)
        self._save_mempool(drop_log=True)

    def _append_block(self, block: Block):
        raw = block.serialize()
        with open(self._blocks_path, "ab") as fh:
            fh.write(struct.pack("<I", len(raw)) + raw)

    def _log_submitted(self, tx: Transaction):
        # Each record starts with its newline, so a record torn by a failed
        # write keeps a line of its own and the next record stays readable.
        with open(self._mempool_log_path, "a") as fh:
            fh.write("\n")
            json.dump(tx.serialize().hex(), fh)

    def _save_mempool(self, drop_log: bool = False):
        """Write the mempool to `mempool.json` if it differs from what the file
        holds. Each logged tx is then in the file, in the chain or no longer
        valid, so the log may go: it does when `drop_log` or when it is over
        MEMPOOL_LOG_LIMIT."""
        pending = [tx.serialize().hex() for tx in self.mempool]
        if pending != self._saved_mempool:
            tmp = self._mempool_path + f".tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(pending, fh)
            os.replace(tmp, self._mempool_path)
            self._saved_mempool = pending
        try:
            if drop_log or os.path.getsize(self._mempool_log_path) > MEMPOOL_LOG_LIMIT:
                os.remove(self._mempool_log_path)
        except FileNotFoundError:
            pass

    # -- operations -----------------------------------------------------------

    def submit_transaction(self, tx: Transaction):
        with self._lock:
            result = validate_transaction(tx, self.chain.state)
            if not result.ok:
                raise DdnsError(f"rejected: {result.code}: {result.detail}")
            if any(t.txid == tx.txid for t in self.mempool):
                return tx.txid
            self._log_submitted(tx)
            self.mempool.append(tx)
            return tx.txid

    def accept_block(self, block: Block, now: int | None = None):
        with self._lock:
            result = self.chain.add_block(block, now=now)
            if result.accepted:
                self._append_block(block)
                # Keep only what the new tip still accepts: a confirmed tx and
                # its rivals now spend spent outputs or name a taken name or a
                # stale revision. These objects were verified before, so this
                # checks no signature again.
                state = self.chain.state
                self.mempool = [tx for tx in self.mempool + result.returned_txs
                                if validate_transaction(tx, state).ok]
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
