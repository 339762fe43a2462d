"""Local node: persistent chain, mempool, content store, and the glue
between the CLI, the miner, and the resolver.

The data directory holds:

- `blocks.dat`: every accepted block, side branches included, in arrival
  order, as length-prefixed canonical bytes. It is the source of truth. It
  holds side blocks whose txs were never checked, and blocks the chain
  dropped when their branch failed, which a replay stores again unchecked.
  A failed append stops the node object until a reopen cuts the torn tail.
- `undo.dat`: the undo record of each connected block (the outputs it
  spent, the asset values it replaced and its txids), framed the same way, each
  record led by its block's hash. It is appended when a snapshot is
  written, so a reorg after a restart can disconnect blocks the snapshot
  covers; the same write first cuts off records that no snapshot covers.
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

The mempool is kept in `mempool.log`, one JSON string of tx hex per line,
appended on each submit. An open keeps each logged tx at its last place and
keeps the ones the tip accepts. That is the live mempool, since a tx that a
block confirms or makes invalid stays invalid while the tip only grows; so
a reorg, and a log over MEMPOOL_LOG_LIMIT, rewrite the log atomically to
hold exactly the mempool. A `mempool.json` left by earlier versions is not
read. An open writes nothing unless it repairs: a torn `blocks.dat` tail, an
unusable snapshot (deleted), or a replay of SNAPSHOT_INTERVAL blocks.
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
# About 1,500 records. Rewriting the log after every block cost the submits
# more than their appends did.
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
        self._mempool_log_path = os.path.join(config.data_dir, "mempool.log")
        self._stopped = None  # why the node took no more blocks, once it stops
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
        if os.path.exists(self._mempool_log_path):
            with open(self._mempool_log_path) as fh:
                for line in fh.read().split("\n"):
                    try:
                        stored.append(json.loads(line))
                    except json.JSONDecodeError:
                        if line:
                            log.warning("mempool.log: dropping a torn record of %d bytes",
                                        len(line))
        # Two processes can each log a tx: keep its last place.
        for tx_hex in reversed(dict.fromkeys(reversed(stored))):
            tx = Transaction.deserialize(bytes.fromhex(tx_hex))
            if validate_transaction(tx, self.chain.state).ok:
                self.mempool.append(tx)

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
        self._saved_undo, self._undo_len = set(undo), undo_len
        self._snapshot_height = self.chain.height
        return covered

    def _write_snapshot(self):
        """Append the undo records not yet in undo.dat, then write the snapshot.

        It first cuts off records appended for a snapshot never written. The
        snapshot is only a cache, so a write that fails logs one warning and
        the node goes on; the next try is an interval later and writes
        undo.dat whole, since the failed append may have left part of a record.
        """
        chain = self.chain
        self._snapshot_height = chain.height
        try:
            fresh = [h for h in chain.undo if h not in self._saved_undo]
            records = b"".join(_frame(h + chain.undo[h].encode()) for h in fresh)
            with open(self._undo_path, "ab") as fh:
                fh.truncate(self._undo_len)
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
        try:
            with open(self._blocks_path, "ab") as fh:
                fh.write(record)
        except OSError as exc:
            # The chain holds a block the file lacks: take no more blocks.
            self._stopped = (f"node stopped: blocks.dat append failed at offset "
                             f"{self._blocks_len}: {exc}; reopen the data directory")
            raise DdnsError(self._stopped) from exc
        self._blocks_len += len(record)

    def _log_submitted(self, tx: Transaction):
        # Each record starts with its newline, so a record torn by a failed
        # write keeps a line of its own and the next record stays readable.
        with open(self._mempool_log_path, "a") as fh:
            fh.write("\n")
            json.dump(tx.serialize().hex(), fh)

    def _rewrite_log(self):
        """Replace the log with one record per mempool tx. A failure logs a
        warning and keeps the old log: after a reorg it may revive dropped txs."""
        try:
            write_atomic(self._mempool_log_path, "".join(
                "\n" + json.dumps(tx.serialize().hex()) for tx in self.mempool))
        except OSError as exc:
            log.warning("mempool.log not rewritten: %s", exc)

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
            if self._stopped:
                raise DdnsError(self._stopped)
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
            # A reorg can make valid again a logged tx the old tip dropped.
            path = self._mempool_log_path
            if result.reorged or (os.path.exists(path)
                                  and os.path.getsize(path) > MEMPOOL_LOG_LIMIT):
                self._rewrite_log()
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
