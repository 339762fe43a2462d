"""Domain-asset semantics layered on the ledger, and the one name rule.

Each domain is a unique asset "ROOT/NAME" binding the DNS name "name.root"
to an owner address and a content id; a segment is one DNS label, and a
subdomain is a label in its parent's control file. Any root may be
registered: "DDNS" is subsidized (zero fee), others pay 0.1 PHI. Ownership
is a single key or a 2-of-3 multisig policy committed in the owner address.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .chain import (AssetOperation, ChainState, REGISTRATION_FEE, Transaction, TxInput,
                    TxOutput, ValidationResult, invalid, sign_transaction, valid)
from .errors import DdnsError, InvalidAddressError
from .keys import KeyPair, decode_address, multisig_address, MULTISIG_VERSION
from .store import decode_content_id

SUBSIDIZED_ROOT = "DDNS"
MULTISIG_THRESHOLD = 2
MULTISIG_KEYS = 3

_SEGMENT_RE = re.compile(r"[A-Z0-9_]{1,30}")


@dataclass(frozen=True)
class DomainAsset:
    asset_name: str
    owner_address: str
    ipfs_hash: str | None
    quantity: int = 1
    units: int = 1
    reissuable: bool = False
    revision: int = 0      # confirmed updates and transfers so far

    @property
    def has_ipfs(self) -> bool:
        return self.ipfs_hash is not None

    def to_dict(self) -> dict:
        return {
            "asset_name": self.asset_name,
            "quantity": self.quantity,
            "units": self.units,
            "reissuable": self.reissuable,
            "has_ipfs": self.has_ipfs,
            "ipfs_hash": self.ipfs_hash,
            "owner_address": self.owner_address,
        }


# ---------------------------------------------------------------------------
# Names


def validate_asset_name(name: str) -> ValidationResult:
    parts = name.split("/")
    if len(parts) != 2 or not all(parts):
        return invalid("bad-structure", "expected ROOT_TLD/DOMAIN_NAME")
    for segment in parts:
        if len(segment) > 30:
            return invalid("bad-length", f"segment {segment!r} longer than 30")
        if not _SEGMENT_RE.fullmatch(segment):
            return invalid("bad-charset", f"segment {segment!r} has invalid characters")
        if segment[0] == "_" or segment[-1] == "_":
            return invalid("bad-structure", f"segment {segment!r} starts/ends with '_'")
    return valid()


def is_root_label(label: str) -> bool:
    """Whether `label` is, in lower case, a root segment the grammar accepts."""
    return (label.isascii() and label == label.lower()
            and validate_asset_name(f"{label.upper()}/{SUBSIDIZED_ROOT}").ok)


def asset_to_dns(asset_name: str) -> str:
    root, domain = asset_name.split("/")
    return f"{domain.lower()}.{root.lower()}"


def dns_to_asset(dns_name: str) -> str:
    """"example.ddns" -> "DDNS/EXAMPLE", or DdnsError (see `asset_name_of`)."""
    labels = dns_name.rstrip(".").split(".")
    if len(labels) != 2:
        raise DdnsError(f"not a two-label name: {dns_name!r} (a subdomain is a "
                        f"label in its parent's control file)")
    return asset_name_of(f"{labels[1]}/{labels[0]}")


def binding_of(dns_name: str) -> tuple[str, str]:
    """The asset that binds a DNS name's last two labels, and its owner label ("@": apex)."""
    labels = dns_name.lower().rstrip(".").rsplit(".", 2)
    owner = labels.pop(0) if len(labels) == 3 else "@"
    return dns_to_asset(".".join(labels)), owner


def asset_name_of(name: str) -> str:
    """The asset name of "DDNS/EXAMPLE" or "example.ddns", in any case, or DdnsError."""
    if "/" not in name:
        return dns_to_asset(name)
    name = name.upper() if name.isascii() else name  # "ß".upper() is "SS"
    check = validate_asset_name(name)
    if not check.ok:
        raise DdnsError(f"invalid name: {check.code}: {check.detail}")
    return name


def lookup_domain(state: ChainState, name: str) -> DomainAsset | None:
    """`name` in either form; `state` may be a `ChainState` or a `ChainView`."""
    return state.assets.get(asset_name_of(name))


# ---------------------------------------------------------------------------
# Operation validation (called from chain.validate_transaction)


def policy_address(keys) -> str | None:
    """The multisig address of exactly MULTISIG_KEYS distinct, well-formed
    public keys; None for any other set of keys."""
    if len(keys) != MULTISIG_KEYS or len(set(keys)) != MULTISIG_KEYS:
        return None
    try:
        return multisig_address(list(keys))
    except DdnsError:
        return None


def _verify_auth(tx: Transaction, expected_owner: str) -> ValidationResult:
    """Check tx.asset_op.auth signatures against a single-key or multisig owner."""
    op = tx.asset_op
    try:
        version, _ = decode_address(expected_owner)
    except InvalidAddressError:
        return invalid("asset-rule-violation", "owner address undecodable")
    if version == MULTISIG_VERSION:
        if policy_address(op.policy_keys) != expected_owner:
            return invalid("not-owner", "policy keys do not commit to the owner")
        signers = set()
        for pubkey, sig in op.auth:
            if pubkey not in op.policy_keys:
                continue
            try:
                if tx.sig_ok(pubkey, sig):
                    signers.add(pubkey)
            except DdnsError:
                continue
        if len(signers) < MULTISIG_THRESHOLD:
            return invalid("not-owner",
                           f"{len(signers)} valid policy signatures, need {MULTISIG_THRESHOLD}")
        return valid()
    for pubkey, sig in op.auth:
        try:
            if tx.address_of(pubkey) != expected_owner:
                continue
            if tx.sig_ok(pubkey, sig):
                return valid()
        except DdnsError:
            continue
    return invalid("not-owner", "no valid signature by the current owner")


def check_asset_operation(tx: Transaction, state: ChainState, fee: int) -> ValidationResult:
    op = tx.asset_op
    name_check = validate_asset_name(op.asset_name)
    if not name_check.ok:
        return invalid("invalid-name", f"{name_check.code}: {name_check.detail}")
    if op.kind == "register":
        if op.asset_name in state.assets:
            return invalid("name-taken", op.asset_name)
        if op.revision != 0:
            return invalid("stale-revision", "a registration has revision 0")
        if op.new_content_id is None:
            return invalid("asset-rule-violation", "register requires a content id")
        try:
            decode_content_id(op.new_content_id)
        except Exception:
            return invalid("asset-rule-violation", "malformed content id")
        if op.subsidized:
            if not op.asset_name.startswith(SUBSIDIZED_ROOT + "/"):
                return invalid("asset-rule-violation",
                               "only DDNS registrations are subsidized")
        elif fee < REGISTRATION_FEE:
            return invalid("insufficient-funds",
                           f"fee {fee} below registration fee {REGISTRATION_FEE}")
        owner = _registration_owner(tx)
        if owner is None:
            return invalid("asset-rule-violation", "cannot determine new owner")
        return _verify_auth(tx, owner)
    asset = state.assets.get(op.asset_name)
    if asset is None:
        return invalid("unknown-domain", op.asset_name)
    if op.revision != asset.revision:
        return invalid("stale-revision",
                       f"operation applies to revision {op.revision}, asset is at {asset.revision}")
    if op.kind == "update":
        if op.new_content_id is None:
            return invalid("asset-rule-violation", "update requires a content id")
        try:
            decode_content_id(op.new_content_id)
        except Exception:
            return invalid("asset-rule-violation", "malformed content id")
        return _verify_auth(tx, asset.owner_address)
    if op.kind == "transfer":
        if op.new_owner is None:
            return invalid("asset-rule-violation", "transfer requires a new owner")
        try:
            decode_address(op.new_owner)
        except InvalidAddressError:
            return invalid("invalid-address", op.new_owner)
        return _verify_auth(tx, asset.owner_address)
    return invalid("asset-rule-violation", f"unknown kind {op.kind!r}")


def _registration_owner(tx: Transaction) -> str | None:
    op = tx.asset_op
    if op.policy_keys:
        return policy_address(op.policy_keys)
    if op.new_owner is not None:
        return op.new_owner
    if op.auth:
        try:
            return tx.address_of(op.auth[0][0])
        except DdnsError:
            return None
    return None


def apply_asset_operation(assets: dict, tx: Transaction) -> dict:
    """Fold one confirmed tx's operation into the asset index (pre-validated)."""
    op = tx.asset_op
    if op.kind == "register":
        assets[op.asset_name] = DomainAsset(
            op.asset_name, _registration_owner(tx), op.new_content_id)
    elif op.kind == "update":
        assets[op.asset_name] = replace(assets[op.asset_name], ipfs_hash=op.new_content_id,
                                        revision=op.revision + 1)
    elif op.kind == "transfer":
        assets[op.asset_name] = replace(assets[op.asset_name], owner_address=op.new_owner,
                                        revision=op.revision + 1)
    return assets


# ---------------------------------------------------------------------------
# Transaction builders


def _select_funding(state: ChainState, address: str, amount: int):
    chosen = []
    total = 0
    for key in sorted(state.utxos):
        out = state.utxos[key]
        if out.recipient != address:
            continue
        chosen.append((key, out))
        total += out.value
        if total >= amount:
            return chosen, total
    raise DdnsError(f"insufficient funds: have {total}, need {amount}")


def _funded_asset_tx(op: AssetOperation, owner: KeyPair, state: ChainState,
                     fee: int, nonce: int) -> Transaction:
    address = owner.address
    inputs = ()
    outputs = ()
    if fee > 0:
        chosen, total = _select_funding(state, address, fee)
        inputs = tuple(TxInput(txid, idx, owner.public_key)
                       for (txid, idx), _ in chosen)
        change = total - fee
        if change > 0:
            outputs = (TxOutput(change, address),)
    tx = Transaction(inputs, outputs, op, nonce)
    return sign_transaction(tx, owner)


def register_domain(name: str, control_file_id: str, owner: KeyPair,
                    state: ChainState, nonce: int = 0) -> Transaction:
    """Build and sign a registration transaction (not yet broadcast)."""
    name = asset_name_of(name)
    if name in state.assets:
        raise DdnsError(f"name taken: {name}")
    subsidized = name.startswith(SUBSIDIZED_ROOT + "/")
    fee = 0 if subsidized else REGISTRATION_FEE
    op = AssetOperation("register", name, new_content_id=control_file_id,
                        fee_paid=fee, subsidized=subsidized,
                        auth=((owner.public_key, b"\x00" * 64),))
    return _funded_asset_tx(op, owner, state, fee, nonce)


def update_domain(name: str, new_content_id: str, signer: KeyPair,
                  state: ChainState, nonce: int = 0) -> Transaction:
    name = asset_name_of(name)
    if name not in state.assets:
        raise DdnsError(f"unknown domain: {name}")
    op = AssetOperation("update", name, new_content_id=new_content_id,
                        auth=((signer.public_key, b"\x00" * 64),),
                        revision=state.assets[name].revision)
    return sign_transaction(Transaction((), (), op, nonce), signer)


def transfer_domain(name: str, new_owner: str, signer: KeyPair,
                    state: ChainState, nonce: int = 0) -> Transaction:
    name = asset_name_of(name)
    if name not in state.assets:
        raise DdnsError(f"unknown domain: {name}")
    decode_address(new_owner)
    op = AssetOperation("transfer", name, new_owner=new_owner,
                        auth=((signer.public_key, b"\x00" * 64),),
                        revision=state.assets[name].revision)
    return sign_transaction(Transaction((), (), op, nonce), signer)


# ---------------------------------------------------------------------------
# Multisig policies


@dataclass(frozen=True)
class MultiSigPolicy:
    """A 2-of-3 owner policy; chain validation checks the quorum."""
    keys: tuple  # exactly 3 compressed public keys

    def __post_init__(self):
        if policy_address(self.keys) is None:
            raise DdnsError("policy requires 3 distinct well-formed keys")

    @property
    def address(self) -> str:
        return multisig_address(list(self.keys))
