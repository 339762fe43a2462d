"""Local node: persistent chain, mempool, content store, and the glue
between the CLI, the miner, and the resolver.

The data directory holds:

- `blocks.dat`: every accepted block, side branches included, in arrival
  order, as length-prefixed canonical bytes. It is the source of truth.
- `undo.dat`: the undo record of each connected block (the outputs it
  spent, the asset values it replaced and its txids), framed the same way, each
  record led by its block's hash. It is appended when a snapshot is
  written, so a reorg after a restart can disconnect blocks the snapshot
  covers.
- `chainstate.snap`: the tip's UTXO and asset maps with the tip hash,
  height and state digest, and the `blocks.dat` and `undo.dat` lengths it
  covers, written atomically at the end of an open that replayed at least
  SNAPSHOT_INTERVAL blocks and whenever the tip gets that far past the
  last snapshot. It is only a cache: a write that fails logs one warning.

An open with a good snapshot indexes the covered blocks by header only,
checks the digest and replays only the blocks after it, so it verifies no
signature and decodes no tx below the snapshot. A snapshot that is torn,
does not match its digest, names a tip `blocks.dat` lacks, or lacks its
undo records gets one warning and is deleted, and the open replays
`blocks.dat` from genesis. The snapshot and the undo records are trusted
as Bitcoin Core trusts its chainstate: the digest catches corruption, not
forgery, so whoever can write the data directory can change the state.

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

from .chain import (MAX_BLOCK_WEIGHT, WEIGHT_PER_BYTE, Block, Chain, ChainState, Transaction,
                    make_genesis, mine_block, validate_transaction)
from .config import NodeConfig
from .encoding import sha256d
from .errors import DdnsError, SerializationError
from .fileio import write_atomic
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
# Blocks of height between snapshots, and the replay that earns one at open.
# A snapshot costs a JSON dump of the whole state and a rename over the old
# file, which waits on the disk, so they stay rare; a restart replays fewer
# blocks than this past the last one.
SNAPSHOT_INTERVAL = 250


def _frame(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def _records(data: bytes):
    """The `(start, end)` payload spans of a file of length-prefixed records,
    and where the last whole record ends. A length over MAX_RECORD_BYTES
    raises DdnsError."""
    spans, pos = [], 0
    while len(data) - pos >= 4:
        length = struct.unpack_from("<I", data, pos)[0]
        if length > MAX_RECORD_BYTES:
            raise DdnsError(f"corrupt record file: record at offset {pos} claims "
                            f"{length} bytes, over the {MAX_RECORD_BYTES}-byte cap")
        if len(data) - pos - 4 < length:
            break
        spans.append((pos + 4, pos + 4 + length))
        pos += 4 + length
    return spans, pos


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
        self.mempool: list = []
        self._lock = threading.RLock()
        self._blocks_path = os.path.join(config.data_dir, "blocks.dat")
        self._undo_path = os.path.join(config.data_dir, "undo.dat")
        self._snapshot_path = os.path.join(config.data_dir, "chainstate.snap")
        self._mempool_path = os.path.join(config.data_dir, "mempool.json")
        self._mempool_log_path = os.path.join(config.data_dir, "mempool.log")
        self._saved_mempool = None
        self._load()

    # -- persistence ----------------------------------------------------------

    def _new_chain(self) -> Chain:
        return Chain(make_genesis(self.config.genesis_target, self.config.genesis_timestamp))

    def _load(self):
        data = b""
        if os.path.exists(self._blocks_path):
            with open(self._blocks_path, "rb") as fh:
                data = fh.read()
        spans, end = _records(data)
        if end < len(data):
            # A crash mid-append leaves a partial last record: drop it.
            log.warning("blocks.dat: truncating a torn final record of %d bytes at offset %d",
                        len(data) - end, end)
            with open(self._blocks_path, "r+b") as fh:
                fh.truncate(end)
        self._blocks_len = end
        covered = self._restore_snapshot(data, spans)
        for start, stop in spans[covered:]:
            block = Block.deserialize(data[start:stop])
            result = self.chain.add_block(block, now=block.header.timestamp)
            if not result.accepted and result.code != "duplicate":
                raise DdnsError(f"corrupt block file: {result.code}")
        if len(spans) - covered >= SNAPSHOT_INTERVAL:
            self._write_snapshot()
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

    def _restore_snapshot(self, data: bytes, spans) -> int:
        """Start `self.chain` from `chainstate.snap`, its blocks indexed by
        header; returns how many of `spans` it covers. Without a usable
        snapshot the chain starts at genesis and 0 is returned; undo.dat is
        then rewritten whole with the next snapshot."""
        self.chain = self._new_chain()
        self._saved_undo, self._undo_len, self._snapshot_height = set(), 0, 0
        if not os.path.exists(self._snapshot_path):
            return 0
        try:
            with open(self._snapshot_path, "rb") as fh:
                doc = json.loads(fh.read())
            ends = [0] + [stop for _, stop in spans]
            if doc["blocks_len"] not in ends:
                raise ValueError("blocks.dat has no record end where the snapshot ends")
            covered = ends.index(doc["blocks_len"])
            undo_len = doc["undo_len"]
            with open(self._undo_path, "rb") as fh:
                undo_data = fh.read(undo_len)
            undo_spans, undo_end = _records(undo_data)
            if undo_end != undo_len:
                raise ValueError("undo.dat lacks records the snapshot covers")
            for start, stop in spans[:covered]:
                self.chain.index(data[start:stop])
            undo = {undo_data[start:start + 32]: undo_data[start + 32:stop]
                    for start, stop in undo_spans}
            self.chain.restore(ChainState.from_json(doc), undo)
        except (OSError, ValueError, KeyError, TypeError, DdnsError, SerializationError) as exc:
            log.warning("chainstate.snap unusable (%s): replaying blocks.dat from genesis", exc)
            os.remove(self._snapshot_path)
            self.chain = self._new_chain()
            return 0
        # Records past the snapshot's length were appended for a snapshot
        # that was never written.
        with open(self._undo_path, "r+b") as fh:
            fh.truncate(undo_len)
        self._saved_undo, self._undo_len = set(undo), undo_len
        self._snapshot_height = self.chain.height
        return covered

    def _write_snapshot(self):
        """Append the undo records not yet in undo.dat, then write the snapshot.

        The snapshot is only a cache, so a write that fails logs one warning
        and the node goes on; the next try is an interval later and writes
        undo.dat whole, since the failed append may have left part of a record.
        """
        chain = self.chain
        self._snapshot_height = chain.height
        try:
            fresh = [h for h in chain.undo if h not in self._saved_undo]
            records = b"".join(_frame(h + chain.undo[h].encode()) for h in fresh)
            with open(self._undo_path, "ab" if self._undo_len else "wb") as fh:
                fh.write(records)
            self._saved_undo.update(fresh)
            self._undo_len += len(records)
            doc = chain.state.to_json()
            doc.update(blocks_len=self._blocks_len, undo_len=self._undo_len)
            write_atomic(self._snapshot_path, json.dumps(doc))
        except OSError as exc:
            log.warning("chainstate.snap not written at height %d: %s", chain.height, exc)
            self._saved_undo, self._undo_len = set(), 0

    def _append_block(self, block: Block):
        record = _frame(block.serialize())
        with open(self._blocks_path, "ab") as fh:
            fh.write(record)
        self._blocks_len += len(record)

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
            write_atomic(self._mempool_path, json.dumps(pending))
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
            old_tip = self.chain.tip_hash
            result = self.chain.add_block(block, now=now)
            if result.accepted:
                self._append_block(block)
            if not result.accepted or self.chain.tip_hash == old_tip:
                return result  # a side block that does not win changes no state
            # Keep only what the new tip still accepts: a confirmed tx and its
            # rivals now spend spent outputs or name a taken name or a stale
            # revision. The tip's own txs are dropped unchecked; the rest were
            # verified before, so this checks no signature again.
            state = self.chain.state
            pending = self.mempool + result.returned_txs
            if self.chain.tip_hash == block.header.hash:
                carried = {tx.txid for tx in block.transactions}
                pending = [tx for tx in pending if tx.txid not in carried]
            self.mempool = [tx for tx in pending if validate_transaction(tx, state).ok]
            self._save_mempool()
            if self.chain.height - self._snapshot_height >= SNAPSHOT_INTERVAL:
                self._write_snapshot()
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
        """The names as of the last whole block: safe to read from any thread."""
        return self.chain.view

    def next_nonce(self) -> int:
        # Distinct nonces keep otherwise-identical asset operations from
        # colliding on txid.
        return self.chain.height * 1000 + len(self.mempool) + 1
