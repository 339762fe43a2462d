"""Proof-of-work ledger: transactions, blocks, validation, mining,
difficulty retargeting, and longest-chain reorganization.

The chain keeps one mutable state at its tip. Connecting a block returns an
undo record of the outputs it spent, the asset values it replaced and the
outputs it created; disconnecting through that record alone, without the
block, restores the parent's state, so a reorg or a side-branch check costs
the blocks it moves past, not the size of the state. Blocks and block
templates are checked on an overlay of the tip.

Canonical serialization is little-endian fixed-width integers with
length-prefixed variable fields, fields in declaration order. Uniqueness
of that byte form is load-bearing: tx ids are double SHA-256 of it, and
input/authorization signatures cover the same bytes with all signature
slots zeroed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
from collections.abc import MutableMapping
from dataclasses import astuple, dataclass, field, replace
from functools import cached_property

from .encoding import sha256d
from .errors import SerializationError
from .keys import Signature, decode_address, derive_address, verify, ADDRESS_VERSION, MULTISIG_VERSION
from .validation import ValidationResult, invalid, valid

COIN = 10 ** 8                     # base units per PHI
REGISTRATION_FEE = COIN // 10      # 0.1 PHI
BLOCK_SUBSIDY = 100 * COIN
MAX_MONEY = 1 << 62

WEIGHT_PER_BYTE = 4
MAX_BLOCK_WEIGHT = 4_000_000
TARGET_BLOCK_TIME = 15
DIFFICULTY_WINDOW = 30
DIFFICULTY_SMOOTHING = 0.25
DIFFICULTY_CLAMP = 3.0
MAX_TARGET = (1 << 256) - 1
MAX_FUTURE_DRIFT = 120

# Easy default so unit tests mine in microseconds; real deployments
# would set this in the genesis config.
DEFAULT_GENESIS_TARGET = MAX_TARGET >> 4
GENESIS_TIMESTAMP = 1_700_000_000

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Canonical byte streams


class Writer:
    def __init__(self):
        self.parts = []

    def u8(self, v):
        self.parts.append(struct.pack("<B", v))

    def u32(self, v):
        self.parts.append(struct.pack("<I", v))

    def u64(self, v):
        self.parts.append(struct.pack("<Q", v))

    def raw(self, b):
        self.parts.append(b)

    def var(self, b):
        self.u32(len(b))
        self.raw(b)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n) -> bytes:
        if self.pos + n > len(self.data):
            raise SerializationError("unexpected end of input")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self._take(1)[0]

    def u32(self):
        return struct.unpack("<I", self._take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def raw(self, n):
        return self._take(n)

    def var(self):
        return self._take(self.u32())

    def text(self) -> str:
        try:
            return self.var().decode()
        except UnicodeDecodeError:
            raise SerializationError("text field is not UTF-8") from None

    def done(self) -> bool:
        return self.pos == len(self.data)


def _addr_bytes(address: str) -> bytes:
    version, payload = decode_address(address)
    return bytes([version]) + payload


def _addr_text(raw: bytes) -> str:
    from .encoding import b58check_encode
    if len(raw) != 21 or raw[0] not in (ADDRESS_VERSION, MULTISIG_VERSION):
        raise SerializationError("bad address bytes")
    return b58check_encode(raw[0], raw[1:])


# ---------------------------------------------------------------------------
# Transactions

ZERO_SIG = b"\x00" * 64

OP_KINDS = ("register", "update", "transfer")


@dataclass(frozen=True)
class TxInput:
    prev_txid: bytes
    index: int
    public_key: bytes
    signature: bytes = ZERO_SIG


@dataclass(frozen=True)
class TxOutput:
    value: int
    recipient: str


@dataclass(frozen=True)
class AssetOperation:
    kind: str
    asset_name: str
    new_content_id: str | None = None
    new_owner: str | None = None
    fee_paid: int = 0
    subsidized: bool = False
    policy_keys: tuple = ()            # () or exactly 3 compressed pubkeys
    auth: tuple = ()                   # ((pubkey, 64-byte sig), ...)
    revision: int = 0                  # the asset revision this op applies to


@dataclass(frozen=True)
class Transaction:
    """Every field is immutable, so the encodings, the txid, each signature
    check and each key's address are computed at most once per object;
    `replace()` builds a new one."""
    inputs: tuple
    outputs: tuple
    asset_op: AssetOperation | None = None
    nonce: int = 0

    def serialize(self) -> bytes:
        return self._bytes

    @cached_property
    def _bytes(self) -> bytes:
        return self._encode(for_signing=False)

    @cached_property
    def signing_bytes(self) -> bytes:
        return self._encode(for_signing=True)

    @cached_property
    def txid(self) -> bytes:
        return sha256d(self._bytes)

    @cached_property
    def _sig_results(self) -> dict:
        return {}

    def sig_ok(self, pubkey: bytes, sig: bytes) -> bool:
        """`verify` of `sig` by `pubkey` over the signing bytes, once per pair.

        A malformed key or signature raises, as `verify` does, and is not
        remembered.
        """
        results = self._sig_results
        ok = results.get((pubkey, sig))
        if ok is None:
            ok = results[(pubkey, sig)] = verify(pubkey, self.signing_bytes,
                                                 Signature.from_bytes(sig))
        return ok

    @cached_property
    def _addresses(self) -> dict:
        return {}

    def address_of(self, pubkey: bytes) -> str:
        """`derive_address(pubkey)`, once per key; a malformed key raises each time."""
        addresses = self._addresses
        address = addresses.get(pubkey)
        if address is None:
            address = addresses[pubkey] = derive_address(pubkey)
        return address

    def _encode(self, for_signing: bool) -> bytes:
        w = Writer()
        w.u32(len(self.inputs))
        for txin in self.inputs:
            w.raw(txin.prev_txid)
            w.u32(txin.index)
            w.raw(txin.public_key)
            w.raw(ZERO_SIG if for_signing else txin.signature)
        w.u32(len(self.outputs))
        for out in self.outputs:
            w.u64(out.value)
            w.raw(_addr_bytes(out.recipient))
        if self.asset_op is None:
            w.u8(0)
        else:
            op = self.asset_op
            w.u8(1)
            w.u8(OP_KINDS.index(op.kind))
            w.var(op.asset_name.encode())
            w.u8(1 if op.new_content_id is not None else 0)
            if op.new_content_id is not None:
                w.var(op.new_content_id.encode())
            w.u8(1 if op.new_owner is not None else 0)
            if op.new_owner is not None:
                w.raw(_addr_bytes(op.new_owner))
            w.u64(op.fee_paid)
            w.u64(op.revision)
            w.u8(1 if op.subsidized else 0)
            w.u32(len(op.policy_keys))
            for key in op.policy_keys:
                w.raw(key)
            w.u32(len(op.auth))
            for pubkey, sig in op.auth:
                w.raw(pubkey)
                w.raw(ZERO_SIG if for_signing else sig)
        w.u64(self.nonce)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "Transaction":
        r = Reader(data)
        tx = cls._read(r)
        if not r.done():
            raise SerializationError("trailing bytes after transaction")
        return tx

    @classmethod
    def _read(cls, r: Reader) -> "Transaction":
        inputs = tuple(
            TxInput(r.raw(32), r.u32(), r.raw(33), r.raw(64))
            for _ in range(r.u32())
        )
        outputs = tuple(TxOutput(r.u64(), _addr_text(r.raw(21))) for _ in range(r.u32()))
        asset_op = None
        if r.u8():
            kind = r.u8()
            if kind >= len(OP_KINDS):
                raise SerializationError(f"unknown asset operation kind {kind}")
            asset_name = r.text()
            new_content_id = r.text() if r.u8() else None
            new_owner = _addr_text(r.raw(21)) if r.u8() else None
            fee_paid = r.u64()
            revision = r.u64()
            subsidized = bool(r.u8())
            policy_keys = tuple(r.raw(33) for _ in range(r.u32()))
            auth = tuple((r.raw(33), r.raw(64)) for _ in range(r.u32()))
            asset_op = AssetOperation(OP_KINDS[kind], asset_name, new_content_id, new_owner,
                                      fee_paid, subsidized, policy_keys, auth, revision)
        nonce = r.u64()
        return cls(inputs, outputs, asset_op, nonce)

    @property
    def is_coinbase(self) -> bool:
        return not self.inputs and self.asset_op is None


def tx_weight(tx: Transaction) -> int:
    return WEIGHT_PER_BYTE * len(tx.serialize())


def sign_transaction(tx: Transaction, keypair) -> Transaction:
    """Fill every input (and asset-op auth slot) owned by `keypair`."""
    from .keys import sign
    sig = sign(keypair.secret_key, tx.signing_bytes).to_bytes()
    inputs = tuple(
        replace(txin, signature=sig) if txin.public_key == keypair.public_key else txin
        for txin in tx.inputs
    )
    asset_op = tx.asset_op
    if asset_op is not None and asset_op.auth:
        auth = tuple(
            (pub, sig if pub == keypair.public_key else old)
            for pub, old in asset_op.auth
        )
        asset_op = replace(asset_op, auth=auth)
    return replace(tx, inputs=inputs, asset_op=asset_op)


# ---------------------------------------------------------------------------
# Blocks

HEADER_BYTES = 32 + 32 + 8 + 32 + 8 + 8


@dataclass(frozen=True)
class BlockHeader:
    previous_hash: bytes
    merkle_root: bytes
    timestamp: int
    difficulty_target: int
    nonce: int
    height: int

    def serialize(self) -> bytes:
        w = Writer()
        w.raw(self.previous_hash)
        w.raw(self.merkle_root)
        w.u64(self.timestamp)
        w.raw(self.difficulty_target.to_bytes(32, "big"))
        w.u64(self.nonce)
        w.u64(self.height)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "BlockHeader":
        r = Reader(data)
        hdr = cls(r.raw(32), r.raw(32), r.u64(),
                  int.from_bytes(r.raw(32), "big"), r.u64(), r.u64())
        if not r.done():
            raise SerializationError("trailing bytes after header")
        return hdr

    @cached_property
    def hash(self) -> bytes:
        return sha256d(self.serialize())


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple

    def serialize(self) -> bytes:
        w = Writer()
        w.raw(self.header.serialize())
        w.u32(len(self.transactions))
        for tx in self.transactions:
            w.var(tx.serialize())
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "Block":
        r = Reader(data)
        header = BlockHeader.deserialize(r.raw(HEADER_BYTES))
        txs = tuple(Transaction.deserialize(r.var()) for _ in range(r.u32()))
        if not r.done():
            raise SerializationError("trailing bytes after block")
        return cls(header, txs)


def merkle_root(txids: list) -> bytes:
    if not txids:
        return b"\x00" * 32
    level = list(txids)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha256d(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def block_weight(block: Block) -> int:
    return sum(tx_weight(tx) for tx in block.transactions)


# ---------------------------------------------------------------------------
# Difficulty (Dark-Gravity-Wave-style smoothed retarget)


def retarget(difficulties, timestamps, interval) -> float:
    """Next difficulty from a trailing window of at least two blocks.

    `difficulties` run oldest first. The retarget ratio is clamped to
    [1/3, 3] per step and blended with a 0.25 smoothing factor to avoid
    oscillation.
    """
    old = difficulties[-1]
    times = sorted(timestamps)
    actual = max(times[-1] - times[0], 1e-9)
    target = interval * (len(difficulties) - 1)
    ratio = min(max(target / actual, 1.0 / DIFFICULTY_CLAMP), DIFFICULTY_CLAMP)
    # Base the proposal on the window-average difficulty: the measured
    # span lags the tip by a full window, and pairing it with the tip
    # difficulty makes the control loop oscillate.
    avg = sum(difficulties) / len(difficulties)
    return old + DIFFICULTY_SMOOTHING * (avg * ratio - old)


def adjust_difficulty(recent_headers) -> int:
    """Next difficulty target from the trailing header window."""
    headers = list(recent_headers)[-DIFFICULTY_WINDOW:]
    if len(headers) < 2:
        return headers[-1].difficulty_target if headers else DEFAULT_GENESIS_TARGET
    difficulty = retarget([MAX_TARGET / h.difficulty_target for h in headers],
                          [h.timestamp for h in headers], TARGET_BLOCK_TIME)
    return min(max(int(MAX_TARGET / difficulty), 1), MAX_TARGET)


def median_time_past(recent_headers) -> int:
    times = sorted(h.timestamp for h in list(recent_headers)[-11:])
    return times[len(times) // 2] if times else 0


# ---------------------------------------------------------------------------
# Chain state


_DELETED = object()


class Overlay(MutableMapping):
    """Changes kept apart from a base map, which they leave untouched: a block
    or a block template is checked on an overlay of the tip before it is
    connected."""

    __slots__ = ("base", "changes")

    def __init__(self, base):
        self.base = base
        self.changes = {}

    def get(self, key, default=None):
        changes = self.changes
        if key in changes:
            value = changes[key]
            return default if value is _DELETED else value
        return self.base.get(key, default)

    def __contains__(self, key):
        return self.get(key, _DELETED) is not _DELETED

    def __getitem__(self, key):
        value = self.get(key, _DELETED)
        if value is _DELETED:
            raise KeyError(key)
        return value

    def __setitem__(self, key, value):
        self.changes[key] = value

    def __delitem__(self, key):
        self[key]  # KeyError when absent
        self.changes[key] = _DELETED

    def __iter__(self):
        changes = self.changes
        yield from (key for key in self.base if key not in changes)
        yield from (key for key, value in changes.items() if value is not _DELETED)

    def __len__(self):
        return sum(1 for _ in self)


def _utxo_row(key, out: TxOutput) -> list:
    return [key[0].hex(), key[1], out.value, out.recipient]


def _utxo_from_row(row) -> tuple:
    txid, index, value, recipient = row
    return (bytes.fromhex(txid), index), TxOutput(value, recipient)


def _asset_from_row(row):
    from .registry import DomainAsset
    return DomainAsset(*row)


@dataclass
class ChainState:
    """The UTXO and asset maps at one block. `Chain` keeps one, at its tip,
    and changes it in place; `overlay()` is a state to try changes on."""
    utxos: dict            # (txid, index) -> TxOutput
    assets: dict           # asset_name -> registry.DomainAsset
    tip: bytes
    height: int
    recent_headers: tuple  # up to the last 30 headers, oldest first

    def overlay(self) -> "ChainState":
        return ChainState(Overlay(self.utxos), Overlay(self.assets), self.tip, self.height,
                          self.recent_headers)

    def digest(self) -> bytes:
        """sha256d of the sorted UTXO rows, the sorted asset rows, the tip and
        the height, fed to the hash row by row rather than joined first."""
        h = hashlib.sha256()
        for key in sorted(self.utxos):
            out = self.utxos[key]
            recipient = out.recipient.encode()
            h.update(key[0] + struct.pack("<IQI", key[1], out.value, len(recipient)) + recipient)
        for name in sorted(self.assets):
            asset = self.assets[name]
            for text in (name, asset.owner_address, asset.ipfs_hash or ""):
                raw = text.encode()
                h.update(struct.pack("<I", len(raw)) + raw)
            h.update(struct.pack("<Q", asset.revision))
        h.update(self.tip + struct.pack("<Q", self.height))
        return hashlib.sha256(h.digest()).digest()

    def to_json(self) -> dict:
        """Tip, height, digest and both maps as JSON values: a snapshot's body."""
        return {"tip": self.tip.hex(), "height": self.height, "digest": self.digest().hex(),
                "utxos": [_utxo_row(key, out) for key, out in self.utxos.items()],
                "assets": [astuple(asset) for asset in self.assets.values()]}

    @classmethod
    def from_json(cls, doc: dict) -> "ChainState":
        """The state `to_json` gave, without its recent headers. Raises
        ValueError when the maps do not hash to the recorded digest."""
        assets = [_asset_from_row(row) for row in doc["assets"]]
        state = cls(dict(map(_utxo_from_row, doc["utxos"])),
                    {asset.asset_name: asset for asset in assets},
                    bytes.fromhex(doc["tip"]), doc["height"], ())
        if state.digest().hex() != doc["digest"]:
            raise ValueError("state digest mismatch")
        return state


@dataclass(frozen=True)
class ChainView:
    """The names at a tip, as `Chain.view` publishes them after each whole
    `add_block`; `registry.lookup_domain` reads it as it reads a state."""
    assets: dict
    tip: bytes
    height: int


@dataclass
class BlockUndo:
    """What connecting a block overwrote: the outputs it spent, in spending
    order, each asset it changed as it was before (None: not registered),
    and each unspent output it created again under the same key (a tx, such
    as a repeated coinbase, whose txid is already unspent). With each tx's
    id and input and output counts, in block order, it is all that
    disconnecting the block needs, so a walk back never decodes a block."""
    spent: list = field(default_factory=list)     # [((txid, index), TxOutput)]
    assets: dict = field(default_factory=dict)    # asset_name -> DomainAsset | None
    replaced: dict = field(default_factory=dict)  # (txid, index) -> TxOutput
    txs: list = field(default_factory=list)       # [(txid, inputs, outputs)]

    def encode(self) -> bytes:
        return json.dumps({
            "spent": [_utxo_row(key, out) for key, out in self.spent],
            "assets": [[name, None if asset is None else astuple(asset)]
                       for name, asset in self.assets.items()],
            "replaced": [_utxo_row(key, out) for key, out in self.replaced.items()],
            "txs": [[txid.hex(), inputs, outputs] for txid, inputs, outputs in self.txs],
        }).encode()

    @classmethod
    def decode(cls, data: bytes) -> "BlockUndo":
        doc = json.loads(data)
        return cls([_utxo_from_row(row) for row in doc["spent"]],
                   {name: None if row is None else _asset_from_row(row)
                    for name, row in doc["assets"]},
                   dict(map(_utxo_from_row, doc["replaced"])),
                   [(bytes.fromhex(txid), inputs, outputs)
                    for txid, inputs, outputs in doc["txs"]])


def validate_transaction(tx: Transaction, state: ChainState) -> ValidationResult:
    """Full standalone (non-coinbase) transaction check against a state."""
    from . import registry

    if tx.is_coinbase:
        return invalid("bad-tx", "coinbase outside block context")
    seen = set()
    total_in = 0
    for i, txin in enumerate(tx.inputs):
        key = (txin.prev_txid, txin.index)
        if key in seen:
            return invalid("missing-utxo", f"input {i} double-spends within tx")
        seen.add(key)
        utxo = state.utxos.get(key)
        if utxo is None:
            return invalid("missing-utxo", f"input {i} spends unknown output")
        try:
            if tx.address_of(txin.public_key) != utxo.recipient:
                return invalid("bad-signature", f"input {i} key does not own output")
            if not tx.sig_ok(txin.public_key, txin.signature):
                return invalid("bad-signature", f"input {i} signature invalid")
        except Exception:
            return invalid("bad-signature", f"input {i} malformed key or signature")
        total_in += utxo.value
    total_out = 0
    for i, out in enumerate(tx.outputs):
        if not 0 <= out.value < MAX_MONEY:
            return invalid("value-overflow", f"output {i} value out of range")
        total_out += out.value
    if total_out >= MAX_MONEY:
        return invalid("value-overflow", "total output value out of range")
    if tx.asset_op is None:
        if not tx.inputs:
            return invalid("bad-tx", "no inputs and no asset operation")
        if total_in < total_out:
            return invalid("value-overflow", "outputs exceed inputs")
        return valid()
    # Asset-bearing transactions may be zero-input (subsidized register,
    # update, transfer); value conservation still applies when funded.
    if total_in < total_out:
        return invalid("value-overflow", "outputs exceed inputs")
    result = registry.check_asset_operation(tx, state, fee=total_in - total_out)
    if not result.ok:
        return result
    return valid()


def transaction_fee(tx: Transaction, state: ChainState) -> int:
    total_in = sum(state.utxos[(i.prev_txid, i.index)].value for i in tx.inputs)
    return total_in - sum(o.value for o in tx.outputs)


def validate_block(block: Block, state: ChainState, now: int | None = None) -> ValidationResult:
    if block.header.previous_hash != state.tip:
        return invalid("unknown-parent", "header does not extend the given state")
    result = check_block(block, state.recent_headers, state.height, now)
    if not result.ok:
        return result
    return check_block_transactions(block, state)


def check_block(block: Block, recent_headers: tuple, parent_height: int,
                now: int | None = None) -> ValidationResult:
    """The checks of `validate_block` that need only the parent's height and
    recent headers, not its state: header, proof of work, merkle root, size."""
    import time as _time
    if now is None:
        now = int(_time.time())
    header = block.header
    if header.height != parent_height + 1:
        return invalid("bad-tx", "wrong height")
    expected_target = adjust_difficulty(recent_headers)
    if header.difficulty_target != expected_target:
        return invalid("bad-difficulty",
                       f"target {header.difficulty_target:#x} != expected {expected_target:#x}")
    if int.from_bytes(header.hash, "big") > header.difficulty_target:
        return invalid("bad-pow", "header hash above target")
    if header.timestamp <= median_time_past(recent_headers):
        return invalid("bad-timestamp", "timestamp not past median of prior 11")
    if header.timestamp > now + MAX_FUTURE_DRIFT:
        return invalid("bad-timestamp", "timestamp too far in the future")
    if not block.transactions:
        return invalid("bad-tx", "empty block")
    txids = [tx.txid for tx in block.transactions]
    if header.merkle_root != merkle_root(txids):
        return invalid("bad-merkle", "merkle root mismatch")
    if len(set(txids)) != len(txids):
        return invalid("bad-tx", "duplicate transaction")
    if block_weight(block) > MAX_BLOCK_WEIGHT:
        return invalid("overweight", f"block weight {block_weight(block)}")
    if not block.transactions[0].is_coinbase:
        return invalid("bad-tx", "first transaction must be coinbase")
    return valid()


def check_block_transactions(block: Block, state: ChainState) -> ValidationResult:
    """The rest of `validate_block`: each tx against `state`, the block's
    parent, as the txs before it in the block leave it."""
    coinbase = block.transactions[0]
    working = state.overlay()
    fees = 0
    for i, tx in enumerate(block.transactions[1:], start=1):
        if tx.is_coinbase:
            return invalid(f"bad-tx({i})", "duplicate coinbase")
        result = validate_transaction(tx, working)
        if not result.ok:
            return invalid(f"bad-tx({i})", f"{result.code}: {result.detail}")
        fees += transaction_fee(tx, working)
        _apply_transaction(working, tx)
    coinbase_value = sum(o.value for o in coinbase.outputs)
    if coinbase_value > BLOCK_SUBSIDY + fees:
        return invalid("bad-tx(0)", "coinbase exceeds subsidy plus fees")
    return valid()


def _apply_transaction(state: ChainState, tx: Transaction, undo: BlockUndo | None = None):
    """Fold a valid tx into `state` in place, noting in `undo` what it overwrote."""
    from . import registry
    utxos = state.utxos
    for txin in tx.inputs:
        key = (txin.prev_txid, txin.index)
        spent = utxos.pop(key)
        if undo is not None:
            undo.spent.append((key, spent))
    txid = tx.txid
    if undo is not None:
        undo.txs.append((txid, len(tx.inputs), len(tx.outputs)))
    for idx, out in enumerate(tx.outputs):
        key = (txid, idx)
        if undo is not None and key in utxos:
            undo.replaced[key] = utxos[key]
        utxos[key] = out
    op = tx.asset_op
    if op is not None:
        if undo is not None and op.asset_name not in undo.assets:
            undo.assets[op.asset_name] = state.assets.get(op.asset_name)
        registry.apply_asset_operation(state.assets, tx)


def apply_block(state: ChainState, block: Block) -> BlockUndo:
    """Connect a valid block to `state` in place; returns its undo record."""
    undo = BlockUndo()
    for tx in block.transactions:
        _apply_transaction(state, tx, undo)
    state.tip, state.height = block.header.hash, block.header.height
    state.recent_headers = (state.recent_headers + (block.header,))[-DIFFICULTY_WINDOW:]
    return undo


def disconnect_block(state: ChainState, header: BlockHeader, undo: BlockUndo,
                     recent_headers: tuple):
    """Reverse `apply_block` of the block with `header` in place: `state` goes
    back to the block's parent, whose recent headers the caller gives."""
    utxos, replaced = state.utxos, undo.replaced
    spent = list(undo.spent)
    for txid, inputs, outputs in reversed(undo.txs):
        for idx in range(outputs):
            key = (txid, idx)
            if key in replaced:
                utxos[key] = replaced[key]
            else:
                del utxos[key]
        for _ in range(inputs):
            key, out = spent.pop()
            utxos[key] = out
    for name, prior in undo.assets.items():
        if prior is None:
            del state.assets[name]
        else:
            state.assets[name] = prior
    state.tip, state.height = header.previous_hash, header.height - 1
    state.recent_headers = recent_headers


# ---------------------------------------------------------------------------
# Mining


def select_transactions(mempool, state: ChainState, budget: int):
    """Greedy fee-rate order (ties broken by arrival order).

    Only txs whose inputs all exist in `state` are scored; full validation
    happens once, against the state left by the txs chosen before.
    """
    scored = []
    for arrival, tx in enumerate(mempool):
        if any((i.prev_txid, i.index) not in state.utxos for i in tx.inputs):
            continue
        weight = tx_weight(tx)
        fee = transaction_fee(tx, state)
        scored.append((-fee / weight, arrival, tx, weight))
    scored.sort(key=lambda item: (item[0], item[1]))
    chosen = []
    chosen_ids = set()
    working = state.overlay()
    used = 0
    for _, _, tx, weight in scored:
        if used + weight > budget:
            continue
        txid = tx.txid
        if txid in chosen_ids:
            continue
        if not validate_transaction(tx, working).ok:
            continue  # invalid, or conflicts with an already-selected tx
        chosen.append(tx)
        chosen_ids.add(txid)
        used += weight
        _apply_transaction(working, tx)
    return chosen


def mine_block(mempool, state: ChainState, coinbase_address: str,
               now: int | None = None, start_nonce: int = 0,
               max_attempts: int = 1_000_000) -> Block | None:
    """One bounded round of nonce search; None means keep trying."""
    import time as _time
    if now is None:
        now = int(_time.time())
    target = adjust_difficulty(state.recent_headers)
    coinbase_stub = Transaction((), (TxOutput(0, coinbase_address),), None, state.height + 1)
    budget = MAX_BLOCK_WEIGHT - tx_weight(coinbase_stub)
    chosen = select_transactions(mempool, state, budget)
    # Every chosen tx spends only outputs of `state`.
    fees = sum(transaction_fee(tx, state) for tx in chosen)
    coinbase = Transaction(
        (), (TxOutput(BLOCK_SUBSIDY + fees, coinbase_address),), None, state.height + 1)
    txs = (coinbase,) + tuple(chosen)
    root = merkle_root([tx.txid for tx in txs])
    timestamp = max(now, median_time_past(state.recent_headers) + 1)
    for nonce in range(start_nonce, start_nonce + max_attempts):
        header = BlockHeader(state.tip, root, timestamp, target, nonce, state.height + 1)
        if int.from_bytes(header.hash, "big") <= target:
            return Block(header, txs)
    return None


# ---------------------------------------------------------------------------
# Chain container with fork handling


def make_genesis(target: int = DEFAULT_GENESIS_TARGET,
                 timestamp: int = GENESIS_TIMESTAMP) -> Block:
    from .encoding import b58check_encode
    burn = b58check_encode(ADDRESS_VERSION, b"\x00" * 20)
    coinbase = Transaction((), (TxOutput(BLOCK_SUBSIDY, burn),), None, 0)
    header = BlockHeader(b"\x00" * 32, merkle_root([coinbase.txid]),
                         timestamp, target, 0, 0)
    return Block(header, (coinbase,))


def genesis_state(genesis: Block) -> ChainState:
    state = ChainState({}, {}, b"\x00" * 32, -1, ())
    apply_block(state, genesis)
    return state


@dataclass
class AddBlockResult:
    accepted: bool
    code: str | None = None
    reorged: bool = False
    returned_txs: list = field(default_factory=list)


def reorg_path(tip, candidate, parent, height):
    """Longest-chain fork choice: None unless `candidate` is higher than `tip`
    (the first block seen wins a tie), else `fork_path(tip, candidate, ...)`."""
    if height(candidate) <= height(tip):
        return None
    return fork_path(tip, candidate, parent, height)


def fork_path(tip, target, parent, height):
    """The `(abandoned, attached)` blocks from `tip` to `target`, each oldest
    first, found by walking back only to the fork point. Each block's height
    is its parent's plus one."""
    abandoned, attached = [], []
    depth = height(target) - height(tip)
    while depth > 0:
        attached.append(target)
        target = parent(target)
        depth -= 1
    while depth < 0:
        abandoned.append(tip)
        tip = parent(tip)
        depth += 1
    while target != tip:
        abandoned.append(tip)
        attached.append(target)
        tip, target = parent(tip), parent(target)
    return abandoned[::-1], attached[::-1]


class LazyMap(MutableMapping):
    """A map whose values may be added as bytes. Those are decoded on each
    read and never kept decoded, so the blocks below a snapshot, read only
    when a reorg or a side block reaches them, stay bytes."""

    def __init__(self, decode):
        self.decode = decode
        self.decoded = {}
        self.raw = {}

    def __getitem__(self, key):
        value = self.decoded.get(key)
        return self.decode(self.raw[key]) if value is None else value

    def __setitem__(self, key, value):
        self.raw.pop(key, None)
        self.decoded[key] = value

    def __delitem__(self, key):
        if self.decoded.pop(key, None) is None:
            del self.raw[key]

    def __contains__(self, key):
        return key in self.decoded or key in self.raw

    def __iter__(self):
        yield from self.decoded
        yield from self.raw

    def __len__(self):
        return len(self.decoded) + len(self.raw)


class Chain:
    """Block tree with longest-chain selection and first-seen tie-breaking.

    `state` is the one chain state, at the tip, changed in place. Connecting
    a block keeps its undo record, so a reorg disconnects back to the fork
    point through those records and connects the other branch. A block on a
    side branch that is not longer is checked on an overlay of the tip taken
    back to its parent the same way, so the tip never moves for it; that
    costs a disconnect per block between the tip and the fork point. Blocks
    are validated once, when first reached; a failure leaves the tip where it
    was. Other threads read `view`, the names as of the last whole
    `add_block`.
    """

    def __init__(self, genesis: Block | None = None):
        self.genesis = genesis or make_genesis()
        ghash = self.genesis.header.hash
        self.headers = {ghash: self.genesis.header}
        self.blocks = LazyMap(Block.deserialize)
        self.blocks[ghash] = self.genesis
        self.undo = LazyMap(BlockUndo.decode)
        self._checked = {ghash}
        self.state = genesis_state(self.genesis)
        self.view = ChainView(dict(self.state.assets), ghash, 0)

    @property
    def tip_hash(self) -> bytes:
        return self.state.tip

    @property
    def height(self) -> int:
        return self.state.height

    def _parent(self, bhash: bytes) -> bytes:
        return self.headers[bhash].previous_hash

    def _height(self, bhash: bytes) -> int:
        return self.headers[bhash].height

    def _recent(self, bhash: bytes) -> tuple:
        """The retarget window of headers ending at `bhash`, oldest first."""
        out = []
        while bhash in self.headers and len(out) < DIFFICULTY_WINDOW:
            out.append(self.headers[bhash])
            bhash = out[-1].previous_hash
        return tuple(out[::-1])

    def branch(self, candidate: bytes):
        """`reorg_path` from the tip to the stored block `candidate`."""
        return reorg_path(self.tip_hash, candidate, self._parent, self._height)

    def _move(self, state: ChainState, target: bytes, now: int | None = None) -> str | None:
        """Take `state`, the tip's state or an overlay of it, to `target`:
        disconnect to the fork point, then connect up to `target`, validating
        each block not yet checked (`target` at `now`, a stored block at its
        own time). Stops at a failure and returns its code. Undo records are
        kept only for the tip's own state."""
        abandoned, attached = fork_path(state.tip, target, self._parent, self._height)
        for bhash in reversed(abandoned):
            header = self.headers[bhash]
            disconnect_block(state, header, self.undo[bhash], self._recent(header.previous_hash))
        for bhash in attached:
            block = self.blocks[bhash]
            if bhash not in self._checked:
                result = validate_block(block, state,
                                        now=now if bhash == target else block.header.timestamp)
                if not result.ok:
                    return result.code
                self._checked.add(bhash)
            undo = apply_block(state, block)
            if state is self.state:
                self.undo[bhash] = undo
        return None

    def add_block(self, block: Block, now: int | None = None) -> AddBlockResult:
        header = block.header
        bhash = header.hash
        if bhash in self.headers:
            return AddBlockResult(False, "duplicate")
        parent = header.previous_hash
        if parent not in self.headers:
            return AddBlockResult(False, "unknown-parent")
        old_tip = self.tip_hash
        if parent != old_tip:
            # Off the tip: the checks that need no state come before any walk.
            result = check_block(block, self._recent(parent), self._height(parent), now)
            if not result.ok:
                return AddBlockResult(False, result.code)
        self.headers[bhash] = header
        self.blocks[bhash] = block
        path = self.branch(bhash)
        if path is None:
            code = self._move(self.state.overlay(), bhash, now)
        else:
            code = self._move(self.state, bhash, now)
            if code is not None:
                # Back to the old tip, whose blocks are all checked, so this
                # cannot fail.
                self._move(self.state, old_tip)
            state = self.state
            if state.tip != old_tip:
                self.view = ChainView(dict(state.assets), state.tip, state.height)
        if code is not None:  # never connected, so it has no undo record
            del self.headers[bhash], self.blocks[bhash]
            return AddBlockResult(False, code)
        if path is None or not path[0]:
            return AddBlockResult(True)
        abandoned, attached = path
        # Only a coinbase can be confirmed twice on one branch, so any other
        # tx of the abandoned blocks stays confirmed only if an attached block
        # carries it.
        attached_ids = {tx.txid for h in attached for tx in self.blocks[h].transactions}
        returned = [tx for h in abandoned for tx in self.blocks[h].transactions
                    if not tx.is_coinbase and tx.txid not in attached_ids]
        log.info("reorg depth=%d attached=%d returned_txs=%d old_tip=%s new_tip=%s",
                 len(abandoned), len(attached), len(returned), old_tip.hex()[:16],
                 bhash.hex()[:16])
        return AddBlockResult(True, reorged=True, returned_txs=returned)

    # -- restart from a snapshot ----------------------------------------------

    def index(self, raw: bytes) -> bytes:
        """Add a stored block by its header alone and return its hash. Its
        bytes are kept and decoded only if a reorg needs the block; it is
        validated only if it is ever connected."""
        header = BlockHeader.deserialize(raw[:HEADER_BYTES])
        if header.previous_hash not in self.headers:
            raise SerializationError("stored block precedes its parent")
        bhash = header.hash
        if bhash not in self.headers:
            self.headers[bhash] = header
            self.blocks.raw[bhash] = raw
        return bhash

    def restore(self, state: ChainState, undo: dict):
        """Make `state`, a snapshot at an indexed block, the tip. `undo` maps
        block hashes to encoded undo records and must hold one for every
        block from genesis to that tip, which the snapshot vouches for."""
        header = self.headers.get(state.tip)
        if header is None or header.height != state.height:
            raise ValueError("snapshot tip is not a stored block")
        bhash = state.tip
        while bhash != self.genesis.header.hash:
            if bhash not in undo:
                raise ValueError(f"no undo record for block {bhash.hex()[:16]}")
            self._checked.add(bhash)
            bhash = self._parent(bhash)
        self.undo.raw.update(undo)
        state.recent_headers = self._recent(state.tip)
        self.state = state
        self.view = ChainView(dict(state.assets), state.tip, state.height)
