import itertools
import logging
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ddns.chain import (BLOCK_SUBSIDY, COIN, DEFAULT_GENESIS_TARGET,
                        DIFFICULTY_CLAMP, GENESIS_TIMESTAMP, MAX_FUTURE_DRIFT, MAX_TARGET,
                        REGISTRATION_FEE,
                        TARGET_BLOCK_TIME, AssetOperation, Block, BlockHeader, BlockUndo,
                        Chain, ChainState, Transaction, TxInput, TxOutput, Writer,
                        adjust_difficulty, apply_block, check_block,
                        genesis_state, make_genesis, merkle_root, mine_block, reorg_path,
                        retarget, select_transactions, sign_transaction, transaction_fee,
                        tx_weight, validate_block, validate_transaction)
from ddns.config import NodeConfig
from ddns.encoding import sha256d
from ddns.errors import InvalidKeyError, SerializationError
from ddns.keys import decode_address, generate_keypair
from ddns.node import LocalNode
from ddns import chain as chain_module, node as node_module
from ddns.store import content_id_of
from ddns import registry

ALICE = generate_keypair(b"\x01" * 32)
BOB = generate_keypair(b"\x02" * 32)
CID = content_id_of(b"zone-bytes")
CID2 = content_id_of(b"other-zone")


def fresh_chain():
    return Chain(make_genesis())


def mined(chain, mempool=(), address=ALICE.address, now=None):
    """Mine one block onto the tip and add it; returns the block."""
    block = None
    start = 0
    while block is None:
        block = mine_block(list(mempool), chain.state, address,
                           now=now, start_nonce=start)
        start += 1_000_000
    result = chain.add_block(block, now=now)
    assert result.accepted, result.code
    return block


def register_tx(state, name="DDNS/EXAMPLE", keypair=ALICE, cid=CID, nonce=0):
    return registry.register_domain(name, cid, keypair, state, nonce=nonce)


def _genesis_walk(blocks, tip):
    out = []
    while tip in blocks:
        out.append(tip)
        tip = blocks[tip].header.previous_hash
    return out[::-1]


def state_at(chain, bhash):
    """The state after a stored block, applied block by block from genesis on
    a new state: an oracle that shares no undo record or tip with `chain`."""
    walk = _genesis_walk(chain.blocks, bhash)
    state = genesis_state(chain.blocks[walk[0]])
    for h in walk[1:]:
        apply_block(state, chain.blocks[h])
    return state


# -- serialization ----------------------------------------------------------

def test_transaction_round_trip():
    tx = register_tx(genesis_state(make_genesis()))
    assert Transaction.deserialize(tx.serialize()) == tx


def test_signing_bytes_exclude_signatures():
    tx = register_tx(genesis_state(make_genesis()))
    blank = Transaction(tx.inputs, tx.outputs,
                        AssetOperation(**{**tx.asset_op.__dict__,
                                          "auth": ((tx.asset_op.auth[0][0], b"\x00" * 64),)}),
                        tx.nonce)
    assert tx.signing_bytes == blank.signing_bytes
    assert tx.serialize() != blank.serialize()


def test_unknown_op_kind_is_a_serialization_error():
    raw = bytearray(register_tx(genesis_state(make_genesis())).serialize())
    kind_at = raw.index(b"DDNS/EXAMPLE") - 5  # the kind byte, then the name's length
    assert raw[kind_at] == 0
    raw[kind_at] = 9
    with pytest.raises(SerializationError):
        Transaction.deserialize(bytes(raw))


def test_non_utf8_name_is_a_serialization_error():
    raw = bytearray(register_tx(genesis_state(make_genesis())).serialize())
    raw[raw.index(b"DDNS/EXAMPLE")] = 0xFF
    with pytest.raises(SerializationError):
        Transaction.deserialize(bytes(raw))


def test_block_round_trip():
    chain = fresh_chain()
    block = mined(chain)
    assert Block.deserialize(block.serialize()) == block


def _flagged_tx():
    """A signed tx with an input, an output and all four flag bytes set."""
    op = AssetOperation("register", "DDNS/FLAGS", new_content_id=CID, new_owner=BOB.address,
                        subsidized=True, auth=((ALICE.public_key, b"\x00" * 64),))
    tx = Transaction((TxInput(b"\x07" * 32, 1, ALICE.public_key),),
                     (TxOutput(5 * COIN, BOB.address),), op, 3)
    return sign_transaction(tx, ALICE)


FLAGGED_TX = _flagged_tx().serialize()
FLAGGED_BLOCK = Block(make_genesis().header,
                      (Transaction.deserialize(FLAGGED_TX), register_tx(genesis_state(make_genesis())))
                      ).serialize()


def _decodes_canonically_or_raises(decode, raw: bytes, offset: int, value: int):
    mutated = bytearray(raw)
    mutated[offset] = value
    try:
        decoded = decode(bytes(mutated))
    except SerializationError:
        return
    assert decoded.serialize() == mutated, (offset, value)


@pytest.mark.parametrize("value", [2, 0x80, 0xFF])
def test_every_byte_of_a_tx_and_a_block_set_to_a_non_flag_value_round_trips_or_raises(value):
    for offset in range(len(FLAGGED_TX)):
        _decodes_canonically_or_raises(Transaction.deserialize, FLAGGED_TX, offset, value)
    for offset in range(len(FLAGGED_BLOCK)):
        _decodes_canonically_or_raises(Block.deserialize, FLAGGED_BLOCK, offset, value)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_single_byte_mutation_round_trips_or_raises(data):
    for decode, raw in ((Transaction.deserialize, FLAGGED_TX), (Block.deserialize, FLAGGED_BLOCK)):
        _decodes_canonically_or_raises(decode, raw, data.draw(st.integers(0, len(raw) - 1)),
                                       data.draw(st.integers(0, 255)))


def test_flag_bytes_other_than_0_or_1_are_rejected():
    tx = Transaction.deserialize(FLAGGED_TX)
    op = tx.asset_op
    assert op.new_content_id and op.new_owner and op.subsidized
    # After one input (4 + 133 bytes) and one output (4 + 29): the asset-op
    # flag, the kind, the name, then the content-id, new-owner and subsidized flags.
    content = 170 + 1 + 1 + 4 + len(op.asset_name)
    owner = content + 1 + 4 + len(op.new_content_id)
    flags = [170, content, owner, owner + 1 + 21 + 8 + 8]
    for offset in flags:
        assert FLAGGED_TX[offset] == 1
        for value in (2, 0xFF):
            mutated = bytearray(FLAGGED_TX)
            mutated[offset] = value
            with pytest.raises(SerializationError, match="flag byte"):
                Transaction.deserialize(bytes(mutated))


def _fan_out(prev_txid: bytes, count: int = 500) -> Transaction:
    """ALICE pays `count` outputs to BOB's one address."""
    outputs = tuple(TxOutput(COIN // 10, BOB.address) for _ in range(count))
    return sign_transaction(Transaction((TxInput(prev_txid, 0, ALICE.public_key),), outputs,
                                        None, 0), ALICE)


def test_decoding_500_outputs_to_one_address_encodes_it_once(monkeypatch):
    block = Block(make_genesis().header, (_fan_out(b"\x07" * 32),))
    raw = block.serialize()
    encoded = []
    real = chain_module.b58check_encode
    monkeypatch.setattr(chain_module, "b58check_encode",
                        lambda version, payload: encoded.append(payload) or real(version, payload))
    chain_module._addr_text.cache_clear()
    assert Block.deserialize(raw) == block
    assert Block.deserialize(raw).serialize() == raw
    assert encoded == [decode_address(BOB.address)[1]]


def test_a_malformed_address_byte_string_raises_every_time_and_is_never_cached():
    bad = [bytes([0x00]) + b"\x01" * 20, bytes([0x37]) + b"\x01" * 19]  # version, length
    before = chain_module._addr_text.cache_info().currsize
    for raw in bad + bad:
        with pytest.raises(SerializationError):
            chain_module._addr_text(raw)
    assert chain_module._addr_text.cache_info().currsize == before


def test_txids_and_state_digests_are_pinned():
    """Hashes taken before address decoding was cached: the caches change no byte."""
    chain = fresh_chain()
    first = mined(chain, now=GENESIS_TIMESTAMP + 15)
    fan = _fan_out(first.transactions[0].txid)
    reg = register_tx(chain.state)
    mined(chain, [fan, reg], address=BOB.address, now=GENESIS_TIMESTAMP + 30)
    assert make_genesis().header.hash.hex() == \
        "6f65b607fd18c97b9655af89ae1083d43890e3a60dceb8786bf2e9473e1acf29"
    assert fan.txid.hex() == "22fd266c45b0f974a41197625cc1c6cdca69645ce8dfed203c1bcfc300843f9d"
    assert reg.txid.hex() == "db70aa0433fc00729e3212cc2ff1460f9c60c78280c00bb4a808717672590d1a"
    assert "DDNS/EXAMPLE" in chain.state.assets and len(chain.state.utxos) == 502
    assert chain.state.digest().hex() == \
        "bc379add3d7b5333345feea55b2927d0acee3ebc895a8962b125d96cb0d7559d"


def test_weight_is_four_per_byte():
    tx = register_tx(genesis_state(make_genesis()))
    assert tx_weight(tx) == 4 * len(tx.serialize())


def test_merkle_root_shape():
    a, b, c = (bytes([i]) * 32 for i in (1, 2, 3))
    assert merkle_root([a]) == a
    # odd level duplicates the last element
    assert merkle_root([a, b, c]) == merkle_root([a, b, c, c])
    assert merkle_root([a, b]) != merkle_root([b, a])


# -- difficulty -------------------------------------------------------------

def _headers(intervals, target=DEFAULT_GENESIS_TARGET):
    ts = 1_700_000_000
    headers = []
    for i, dt in enumerate([0] + list(intervals)):
        ts += dt
        headers.append(BlockHeader(bytes(32), bytes(32), ts, target, 0, i))
    return headers


def test_difficulty_fixed_point_at_target_spacing():
    headers = _headers([TARGET_BLOCK_TIME] * 29)
    new = adjust_difficulty(headers)
    assert abs(new - DEFAULT_GENESIS_TARGET) / DEFAULT_GENESIS_TARGET < 1e-9


def test_difficulty_rises_when_blocks_too_fast():
    fast = adjust_difficulty(_headers([5] * 29))
    slow = adjust_difficulty(_headers([45] * 29))
    assert fast < DEFAULT_GENESIS_TARGET < slow  # lower target = harder


def test_difficulty_ratio_clamped():
    # pathologically fast blocks: per-step difficulty rise is bounded by
    # clamp x smoothing
    new = adjust_difficulty(_headers([1] * 29))
    old_difficulty = MAX_TARGET / DEFAULT_GENESIS_TARGET
    new_difficulty = MAX_TARGET / new
    max_rise = 1 + 0.25 * (DIFFICULTY_CLAMP - 1)
    assert new_difficulty / old_difficulty <= max_rise + 1e-9


def _compensated_sum(values):
    """`sum()` of floats as Python 3.12 and later compute it (Neumaier)."""
    total = compensation = 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def test_retarget_sums_its_window_left_to_right():
    # A window that compensated summation rounds differently; with `sum()`,
    # Python 3.12 read the result as 0x1.0aedd50303c8cp+4 and forked from 3.11.
    rng = random.Random(15)
    difficulties = [rng.uniform(15, 17) for _ in range(30)]
    timestamps = [GENESIS_TIMESTAMP + 15 * i + rng.randint(-5, 5) for i in range(30)]
    left_to_right = 0.0
    for difficulty in difficulties:
        left_to_right += difficulty
    assert _compensated_sum(difficulties) != left_to_right
    assert retarget(difficulties, timestamps, TARGET_BLOCK_TIME).hex() == "0x1.0aedd50303c8bp+4"


def test_difficulty_smoothing_direction():
    # 2x-fast blocks: unsmoothed retarget would double difficulty, the
    # smoothed step must land strictly between old and doubled
    new = adjust_difficulty(_headers([TARGET_BLOCK_TIME // 2 - 1] * 29))
    old_d = MAX_TARGET / DEFAULT_GENESIS_TARGET
    new_d = MAX_TARGET / new
    assert old_d < new_d < 2 * old_d


# -- validation and application ----------------------------------------------

def test_coinbase_subsidy():
    chain = fresh_chain()
    block = mined(chain)
    coinbase = block.transactions[0]
    assert coinbase.is_coinbase
    assert sum(o.value for o in coinbase.outputs) == BLOCK_SUBSIDY == 100 * COIN
    assert chain.state.utxos[(coinbase.txid, 0)].recipient == ALICE.address


def test_registration_confirms_and_binds_asset():
    chain = fresh_chain()
    tx = register_tx(chain.state)
    mined(chain, [tx])
    asset = chain.state.assets["DDNS/EXAMPLE"]
    assert asset.owner_address == ALICE.address
    assert asset.ipfs_hash == CID


def test_duplicate_registration_rejected():
    chain = fresh_chain()
    mined(chain, [register_tx(chain.state)])
    result = validate_transaction(register_tx(chain.state.__class__(
        chain.state.utxos, {}, chain.state.tip, chain.state.height,
        chain.state.recent_headers)), chain.state)
    assert not result.ok and result.code == "name-taken"


def test_unsubsidized_registration_needs_fee():
    chain = fresh_chain()
    mined(chain)  # fund alice with the coinbase
    tx = registry.register_domain("WEB3/SHOP", CID, ALICE, chain.state)
    assert transaction_fee(tx, chain.state) == REGISTRATION_FEE
    assert validate_transaction(tx, chain.state).ok
    mined(chain, [tx])
    assert chain.state.assets["WEB3/SHOP"].owner_address == ALICE.address
    # without funding, bob cannot pay
    with pytest.raises(Exception):
        registry.register_domain("WEB3/OTHER", CID, BOB, chain.state)


def test_double_spend_rejected_in_block():
    chain = fresh_chain()
    mined(chain)
    tx1 = registry.register_domain("WEB3/ONE", CID, ALICE, chain.state, nonce=1)
    tx2 = registry.register_domain("WEB3/TWO", CID2, ALICE, chain.state, nonce=2)
    # both spend the same coinbase output
    assert tx1.inputs[0].prev_txid == tx2.inputs[0].prev_txid
    mined(chain, [tx1])
    assert not validate_transaction(tx2, chain.state).ok


def test_bad_signature_rejected():
    chain = fresh_chain()
    mined(chain)
    tx = registry.register_domain("WEB3/SIG", CID, ALICE, chain.state)
    forged_input = TxInput(tx.inputs[0].prev_txid, tx.inputs[0].index,
                           tx.inputs[0].public_key, b"\x01" * 64)
    forged = Transaction((forged_input,), tx.outputs, tx.asset_op, tx.nonce)
    result = validate_transaction(forged, chain.state)
    assert not result.ok and result.code == "bad-signature"


def test_validate_block_rejects_bad_merkle():
    chain = fresh_chain()
    block = mined(chain)
    bad_header = BlockHeader(block.header.previous_hash, bytes(32),
                             block.header.timestamp, block.header.difficulty_target,
                             block.header.nonce, block.header.height)
    result = validate_block(Block(bad_header, block.transactions),
                            state_at(chain, block.header.previous_hash))
    assert not result.ok


def test_validate_block_rejects_future_timestamp():
    chain = fresh_chain()
    state = chain.state
    block = mine_block([], state, ALICE.address,
                       now=state.recent_headers[-1].timestamp + 10_000)
    result = chain.add_block(block, now=state.recent_headers[-1].timestamp)
    assert not result.accepted and result.code == "bad-timestamp"


# -- mempool selection --------------------------------------------------------

def _search_by_header(template: Block, start: int, attempts: int):
    """The nonce search as it was: one frozen header, serialized, per attempt."""
    for nonce in range(start, start + attempts):
        header = replace(template.header, nonce=nonce)
        if int.from_bytes(header.hash, "big") <= header.difficulty_target:
            return header
    return None


@pytest.mark.parametrize("seed", range(6))
def test_mine_block_finds_the_nonce_a_header_per_attempt_finds(seed):
    rng = random.Random(seed)
    chain = Chain(make_genesis(target=MAX_TARGET >> rng.choice([1, 5, 7])))
    for _ in range(rng.randint(0, 3)):
        mined(chain, now=chain.state.recent_headers[-1].timestamp + 15)
    state = chain.state
    mempool = [register_tx(state, name=f"DDNS/MINE{seed}X{i}", nonce=i) for i in range(rng.randint(0, 2))]
    address = rng.choice([ALICE, BOB]).address
    now = state.recent_headers[-1].timestamp + rng.randint(-100, 100)
    template = mine_block(mempool, state, address, now=now, start_nonce=rng.randrange(1 << 40))
    first = _search_by_header(template, 0, 1 << 20).nonce
    windows = [(0, first), (0, first + 1), (first, 1), (first + 1, 1), (first + 1, 2000),
               ((1 << 64) - 300, 300)]
    windows += [(rng.randrange(1 << 32), rng.randint(1, 400)) for _ in range(8)]
    results = set()
    for start, attempts in windows:
        expected = _search_by_header(template, start, attempts)
        block = mine_block(mempool, state, address, now=now, start_nonce=start, max_attempts=attempts)
        if expected is None:
            assert block is None, (start, attempts)
        else:
            assert block.header == expected and block.transactions == template.transactions
            assert block.header.hash == sha256d(expected.serialize())
        results.add(expected is None)
    assert results == {True, False}


def test_select_transactions_orders_by_fee_rate():
    chain = fresh_chain()
    mined(chain)
    state = chain.state
    # zero-fee subsidized registrations arrive first, a paying one last
    free1 = registry.register_domain("DDNS/FREEONE", CID, ALICE, state, nonce=1)
    free2 = registry.register_domain("DDNS/FREETWO", CID2, ALICE, state, nonce=2)
    paying = registry.register_domain("WEB3/PAID", CID, ALICE, state, nonce=3)
    chosen = select_transactions([free1, free2, paying], state, budget=4_000_000)
    # the fee payer jumps the queue; equal-fee txs keep arrival order
    assert [t.txid for t in chosen] == [paying.txid, free1.txid, free2.txid]
    # brute-force oracle: the greedy pick is a maximum-fee selection
    fee = {t.txid: transaction_fee(t, state) for t in (free1, free2, paying)}
    weight = {t.txid: tx_weight(t) for t in (free1, free2, paying)}
    best = max(sum(fee[t.txid] for t in subset)
               for r in range(4)
               for subset in itertools.combinations((free1, free2, paying), r)
               if sum(weight[t.txid] for t in subset) <= 4_000_000)
    assert sum(fee[t.txid] for t in chosen) == best


def test_select_transactions_respects_budget():
    chain = fresh_chain()
    mined(chain)
    tx = register_tx(chain.state)
    assert select_transactions([tx], chain.state, budget=tx_weight(tx) - 1) == []
    assert select_transactions([tx], chain.state, budget=tx_weight(tx)) == [tx]


def test_mine_block_leaves_the_state_as_it_was(monkeypatch):
    chain = fresh_chain()
    mined(chain, [register_tx(chain.state)])
    state = chain.state
    (txid, index), out = next((key, out) for key, out in sorted(state.utxos.items())
                              if out.recipient == ALICE.address)
    # Two txs spending one output, the better-paying one chosen.
    pair = [sign_transaction(Transaction((TxInput(txid, index, ALICE.public_key),),
                                         (TxOutput(out.value - fee, address),), None, 1), ALICE)
            for fee, address in ((1, ALICE.address), (2, BOB.address))]
    up = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, state, nonce=2)
    over_budget = Transaction((), (), AssetOperation("update", "DDNS/EXAMPLE", "Q" * 1_000_000), 3)
    mempool = pair + [up, up, over_budget]

    def snapshot():
        return state.digest(), state.recent_headers, set(state.utxos), set(state.assets)

    before = snapshot()
    block = mine_block(mempool, state, BOB.address)
    assert snapshot() == before
    assert block.transactions[1:] == (pair[1], up)
    # A fault partway through trying the txs, or connecting them, still
    # leaves the state as it was.
    real = chain_module.validate_transaction

    def fail_on(k):
        calls = itertools.count(1)

        def validate(tx, st):
            if next(calls) == k:
                raise RuntimeError("kernel fault")
            return real(tx, st)
        monkeypatch.setattr(chain_module, "validate_transaction", validate)

    for k in range(1, 5):
        fail_on(k)
        with pytest.raises(RuntimeError, match="kernel fault"):
            mine_block(mempool, state, BOB.address)
        assert snapshot() == before
    for k in (1, 2):
        fail_on(k)
        with pytest.raises(RuntimeError, match="kernel fault"):
            validate_block(block, state)
        assert snapshot() == before
    monkeypatch.undo()
    assert chain.add_block(block).accepted


def _refit(base, txs=None, pow_ok=True, **fields):
    """`base` with header `fields` and `txs` replaced (the merkle root
    follows `txs` unless given), its nonce searched until the hash is at or
    below the target, or above it when `pow_ok` is False."""
    txs = base.transactions if txs is None else txs
    fields.setdefault("merkle_root", merkle_root([tx.txid for tx in txs]))
    header = replace(base.header, **fields)
    while (int.from_bytes(header.hash, "big") <= header.difficulty_target) != pow_ok:
        header = replace(header, nonce=header.nonce + 1)
    return Block(header, txs)


def _block_with(state, txs, now=None):
    """A block carrying `txs` after a fee-free coinbase, with valid PoW."""
    template = None
    while template is None:
        template = mine_block([], state, ALICE.address, now=now)
    return _refit(template, template.transactions[:1] + tuple(txs))


def test_duplicate_transaction_never_enters_a_block():
    chain = fresh_chain()
    mined(chain, [register_tx(chain.state)])
    up = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, chain.state, nonce=1)
    # the second copy is stale once the first applies; the detail names the txid check
    block = mined(chain, [up, up])
    assert [tx.txid for tx in block.transactions[1:]] == [up.txid]
    parent = state_at(chain, block.header.previous_hash)
    result = validate_block(_block_with(parent, [up, up]), parent)
    assert not result.ok and result.detail == "duplicate transaction"
    assert isinstance(validate_block(_block_with(parent, [up]), parent), BlockUndo)


# -- the per-transaction signature memo -----------------------------------------

def test_a_flipped_signature_copy_is_rejected_after_the_original_passed():
    state = genesis_state(make_genesis())
    tx = register_tx(state)
    assert validate_transaction(tx, state).ok
    pubkey, sig = tx.asset_op.auth[0]
    bad_sig = bytes([sig[0] ^ 1]) + sig[1:]
    flipped = replace(tx, asset_op=replace(tx.asset_op, auth=((pubkey, bad_sig),)))
    assert flipped.signing_bytes == tx.signing_bytes
    result = validate_transaction(flipped, state)
    assert not result.ok and result.code == "not-owner"
    assert validate_transaction(tx, state).ok


def test_a_valid_input_signature_does_not_vouch_for_a_bad_auth_slot():
    chain = fresh_chain()
    mined(chain)
    tx = registry.register_domain("WEB3/SLOTS", CID, ALICE, chain.state)
    pubkey, sig = tx.asset_op.auth[0]
    assert tx.inputs[0].public_key == pubkey and validate_transaction(tx, chain.state).ok
    forged = replace(tx, asset_op=replace(tx.asset_op, auth=((pubkey, b"\x01" * 64),)))
    result = validate_transaction(forged, chain.state)
    assert not result.ok and result.code == "not-owner"


def test_signature_results_are_remembered_per_object(verify_calls):
    state = genesis_state(make_genesis())
    tx = register_tx(state)
    for _ in range(3):
        assert validate_transaction(tx, state).ok
    assert verify_calls == [ALICE.public_key]
    copy = replace(tx)
    assert copy == tx and validate_transaction(copy, state).ok
    assert verify_calls == [ALICE.public_key] * 2


def test_key_addresses_are_remembered_per_object(address_calls):
    chain = fresh_chain()
    mined(chain)
    # A funded registration: its input and its auth slot name one key.
    tx = registry.register_domain("WEB3/ADDRESS", CID, ALICE, chain.state)
    for _ in range(3):
        assert validate_transaction(tx, chain.state).ok
    assert address_calls == [ALICE.public_key]
    copy = replace(tx)
    assert validate_transaction(copy, chain.state).ok
    assert address_calls == [ALICE.public_key] * 2


def test_each_key_in_a_tx_gets_its_own_address():
    chain = fresh_chain()
    mined(chain)
    funded = registry.register_domain("WEB3/FORBOB", CID, ALICE, chain.state)
    op = replace(funded.asset_op, auth=((BOB.public_key, b"\x00" * 64),))
    tx = sign_transaction(sign_transaction(replace(funded, asset_op=op), ALICE), BOB)
    assert validate_transaction(tx, chain.state).ok
    mined(chain, [tx])
    assert chain.state.assets["WEB3/FORBOB"].owner_address == BOB.address


def test_a_malformed_key_is_rejected_on_every_check():
    state = genesis_state(make_genesis())
    tx = register_tx(state)
    _, sig = tx.asset_op.auth[0]
    bad = replace(tx, asset_op=replace(tx.asset_op, auth=((b"\x02" + b"\xff" * 32, sig),)))
    for _ in range(2):
        with pytest.raises(InvalidKeyError):
            bad.address_of(bad.asset_op.auth[0][0])
        result = validate_transaction(bad, state)
        assert not result.ok and result.code == "asset-rule-violation"


def _with_auth(tx, key, sig):
    return replace(tx, asset_op=replace(tx.asset_op, auth=((key, sig),)))


def test_malformed_keys_and_signatures_keep_their_rejection_codes():
    chain = fresh_chain()
    mined(chain)
    funded = registry.register_domain("WEB3/CODES", CID, ALICE, chain.state)
    txin = funded.inputs[0]
    short_key, short_sig = txin.public_key[:32], txin.signature[:63]
    registration = register_tx(chain.state)
    cases = [(replace(funded, inputs=(replace(txin, public_key=short_key),)), "bad-signature"),
             (replace(funded, inputs=(replace(txin, signature=short_sig),)), "bad-signature"),
             (_with_auth(registration, short_key, short_sig), "asset-rule-violation"),
             (_with_auth(registration, ALICE.public_key, short_sig), "not-owner")]
    for bad, code in cases:
        result = validate_transaction(bad, chain.state)
        assert not result.ok and result.code == code, (code, result)
    mined(chain, [registration])
    update = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, chain.state, nonce=1)
    for bad in (_with_auth(update, short_key, short_sig), _with_auth(update, ALICE.public_key, short_sig)):
        result = validate_transaction(bad, chain.state)
        assert not result.ok and result.code == "not-owner", result


def test_a_fault_in_the_signature_kernel_is_not_a_rejection(monkeypatch):
    state = genesis_state(make_genesis())
    tx = register_tx(state)

    def broken(*args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(chain_module, "verify", broken)
    with pytest.raises(RuntimeError, match="kernel fault"):
        validate_transaction(tx, state)
    chain = fresh_chain()
    mined(chain)
    funded = registry.register_domain("WEB3/FAULT", CID, ALICE, chain.state)
    with pytest.raises(RuntimeError, match="kernel fault"):
        validate_transaction(funded, chain.state)


# -- reorg --------------------------------------------------------------------

def test_longest_chain_wins_and_returns_orphaned_txs():
    chain = fresh_chain()
    base = state_at(chain, chain.tip_hash)
    # branch A: one block containing a registration
    tx = register_tx(base)
    block_a = mine_block([tx], base, ALICE.address)
    assert chain.add_block(block_a).accepted
    assert "DDNS/EXAMPLE" in chain.state.assets
    # branch B: two empty blocks from genesis win
    block_b1 = mine_block([], base, BOB.address,
                          now=base.recent_headers[-1].timestamp + 20)
    while block_b1.header.hash == block_a.header.hash:
        block_b1 = mine_block([], base, BOB.address, start_nonce=7_000_000)
    r1 = chain.add_block(block_b1)
    assert r1.accepted and chain.state.tip == block_a.header.hash  # first seen
    state_b1 = state_at(chain, block_b1.header.hash)
    block_b2 = mine_block([], state_b1, BOB.address)
    r2 = chain.add_block(block_b2)
    assert r2.accepted
    assert chain.state.tip == block_b2.header.hash
    # the registration fell out of the chain and is handed back
    assert "DDNS/EXAMPLE" not in chain.state.assets
    assert any(t.txid == tx.txid for t in r2.returned_txs)


def test_first_seen_tie_break():
    chain = fresh_chain()
    base = chain.state
    a = mine_block([], base, ALICE.address)
    b = mine_block([], base, BOB.address)
    chain.add_block(a)
    chain.add_block(b)
    assert chain.state.tip == a.header.hash


def _mined_at(state, txs=(), address=ALICE.address, spacing=15):
    """A block on `state` with a timestamp `spacing` seconds after its parent."""
    return mine_block(list(txs), state, address,
                      now=state.recent_headers[-1].timestamp + spacing)


def test_reorg_logs_one_line(caplog):
    chain = fresh_chain()
    base = chain.state
    block_a = _mined_at(base, [register_tx(base)])
    block_b1 = _mined_at(base, address=BOB.address, spacing=20)
    with caplog.at_level(logging.INFO, logger="ddns.chain"):
        for block in (block_a, block_b1):
            assert chain.add_block(block, now=block.header.timestamp).accepted
        assert not caplog.records
        block_b2 = _mined_at(state_at(chain, block_b1.header.hash), address=BOB.address)
        assert chain.add_block(block_b2, now=block_b2.header.timestamp).reorged
    assert [r.getMessage() for r in caplog.records] == [
        f"reorg depth=1 attached=2 returned_txs=1 old_tip={block_a.header.hash.hex()[:16]}"
        f" new_tip={block_b2.header.hash.hex()[:16]}"]


def _above(chain, parent_hash, txs=(), now=None):
    """A block on the stored block `parent_hash`, built from its headers
    alone, so its parent may be a block no state can reach."""
    header = chain.headers[parent_hash]
    return _block_with(ChainState({}, {}, parent_hash, header.height, chain._recent(parent_hash)),
                       txs, now)


def test_an_invalid_side_branch_block_is_stored_and_dropped_when_its_branch_would_win():
    chain = fresh_chain()
    genesis = state_at(chain, chain.tip_hash)
    mined(chain, [register_tx(chain.state)])
    up = registry.update_domain("DDNS/EXAMPLE", CID2, ALICE, chain.state, nonce=1)
    mined(chain, [up])
    # Valid on the tip's branch, but the side block's parent has no such name.
    side = _block_with(genesis, [up])
    tip, digest, view, undo = chain.tip_hash, chain.state.digest(), chain.view, set(chain.undo)
    assert chain.add_block(side).accepted  # stored: its txs wait for its branch
    above = _above(chain, side.header.hash)
    assert chain.add_block(above).accepted  # only ties the tip
    assert chain.state.digest() == digest and chain.view is view
    winner = _above(chain, above.header.hash)
    result = chain.add_block(winner)
    assert not result.accepted and result.code == "bad-tx(1)"
    assert chain.tip_hash == tip and chain.state.digest() == digest and chain.view is view
    assert set(chain.undo) == undo
    for block in (side, above, winner):
        assert block.header.hash not in chain.headers and block.header.hash not in chain.blocks
    assert chain.add_block(_block_with(genesis, [])).accepted


# Each `check_block` rejection that builds quickly: its code, the detail that
# tells it from others with that code, and the change to a valid side block.
HEADER_FAULTS = {
    "height": ("bad-height", "wrong height", lambda base, genesis: dict(height=5)),
    "difficulty": ("bad-difficulty", "expected", lambda base, genesis: dict(
        difficulty_target=DEFAULT_GENESIS_TARGET >> 1)),
    "pow": ("bad-pow", "above target", lambda base, genesis: dict(pow_ok=False)),
    "timestamp-median": ("bad-timestamp", "median", lambda base, genesis: dict(
        timestamp=GENESIS_TIMESTAMP)),
    "timestamp-future": ("bad-timestamp", "future", lambda base, genesis: dict(
        timestamp=base.header.timestamp + MAX_FUTURE_DRIFT + 1)),
    "empty": ("bad-tx", "empty block", lambda base, genesis: dict(txs=())),
    "merkle": ("bad-merkle", "merkle", lambda base, genesis: dict(merkle_root=b"\x01" * 32)),
    "duplicate-tx": ("bad-tx", "duplicate transaction", lambda base, genesis: dict(
        txs=base.transactions * 2)),
    "coinbase-first": ("bad-tx", "must be coinbase", lambda base, genesis: dict(
        txs=(register_tx(genesis),))),
    "coinbase-height": ("bad-tx", "not the block height", lambda base, genesis: dict(
        txs=(replace(base.transactions[0], nonce=base.header.height + 1),))),
}


@pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
def test_a_side_block_failing_a_header_check_is_rejected_before_any_walk(monkeypatch, fault):
    code, detail, change = HEADER_FAULTS[fault]
    chain = fresh_chain()
    genesis = state_at(chain, chain.tip_hash)
    for _ in range(3):
        mined(chain)
    base = _mined_at(genesis, spacing=20)
    now = base.header.timestamp
    side = _refit(base, **change(base, genesis))
    result = check_block(side, genesis.recent_headers, genesis.height, now)
    assert result.code == code and detail in result.detail
    walked = []
    monkeypatch.setattr(chain_module, "disconnect_block", lambda *args: walked.append(args))
    result = chain.add_block(side, now=now)
    assert not result.accepted and result.code == code and walked == []
    assert side.header.hash not in chain.headers
    # The same block without the fault is stored.
    assert chain.add_block(base, now=now).accepted and walked == []


def test_a_block_repeating_an_unspent_coinbase_is_refused():
    chain = fresh_chain()
    first = mined(chain)
    coinbase = first.transactions[0]
    # A later block repeats the first block's coinbase, whose output is
    # unspent; its nonce is the first block's height, not this block's.
    repeat = _refit(_block_with(chain.state, []), (coinbase,))
    assert validate_block(repeat, state_at(chain, chain.tip_hash)).detail == (
        "coinbase nonce is not the block height")
    tip, digest, view = chain.tip_hash, chain.state.digest(), chain.view
    result = chain.add_block(repeat)
    assert not result.accepted and result.code == "bad-tx"
    assert chain.tip_hash == tip and chain.state.digest() == digest and chain.view is view
    assert repeat.header.hash not in chain.headers


def test_the_view_changes_only_between_whole_blocks(monkeypatch):
    chain = fresh_chain()
    base = chain.state
    block_a = _mined_at(base, [register_tx(base)])
    block_b1 = _mined_at(base, address=BOB.address, spacing=20)
    assert chain.add_block(block_a, now=block_a.header.timestamp).accepted
    before, seen = chain.view, []
    # A side block that only ties the tip is stored without moving it.
    assert chain.add_block(block_b1, now=block_b1.header.timestamp).accepted
    assert chain.view is before and set(chain.undo) == {block_a.header.hash}
    block_b2 = _mined_at(state_at(chain, block_b1.header.hash), address=BOB.address)
    for name in ("validate_block", "apply_block", "disconnect_block"):
        real = getattr(chain_module, name)
        monkeypatch.setattr(chain_module, name, lambda *args, real=real, **kwargs:
                            seen.append(chain.view) or real(*args, **kwargs))
    assert chain.add_block(block_b2, now=block_b2.header.timestamp).reorged
    assert len(seen) == 3 and all(view is before for view in seen)
    assert "DDNS/EXAMPLE" in before.assets and before.tip == block_a.header.hash
    assert "DDNS/EXAMPLE" not in chain.view.assets and chain.view.tip == block_b2.header.hash


def _root_path(parent, block):
    out = []
    while block is not None:
        out.append(block)
        block = parent.get(block)
    return out


def test_reorg_path_matches_a_walk_to_the_root():
    rng = random.Random(4)
    pairs = reorgs = 0
    for _ in range(300):
        parent, height = {0: None}, {0: 0}
        for block in range(1, rng.randint(1, 40)):
            # Mostly recent parents, so side branches grow past the tip.
            parent[block] = rng.randrange(max(0, block - rng.choice((3, block))), block)
            height[block] = height[parent[block]] + 1
        for _ in range(5):
            tip, candidate = rng.choice(list(parent)), rng.choice(list(parent))
            got = reorg_path(tip, candidate, parent.get, height.get)
            if height[candidate] <= height[tip]:
                assert got is None
                continue
            old, new = set(_root_path(parent, tip)), set(_root_path(parent, candidate))
            assert got == (sorted(old - new, key=height.get), sorted(new - old, key=height.get))
            pairs += 1
            reorgs += bool(got[0])
    assert pairs > 300 and reorgs > 100


def _expected_add(blocks, old_tip, new_tip):
    """(tip, reorged, returned txids) by comparing whole branches from genesis."""
    if blocks[new_tip].header.height <= blocks[old_tip].header.height:
        return old_tip, False, []
    old_branch, new_branch = _genesis_walk(blocks, old_tip), _genesis_walk(blocks, new_tip)
    confirmed = {tx.txid for h in new_branch for tx in blocks[h].transactions}
    abandoned = [h for h in old_branch if h not in set(new_branch)]
    returned = [tx.txid for h in abandoned for tx in blocks[h].transactions
                if not tx.is_coinbase and tx.txid not in confirmed]
    return new_tip, bool(abandoned), returned


def test_random_forks_match_a_walk_to_genesis(tmp_path, monkeypatch):
    rng = random.Random(11)
    chain = fresh_chain()
    # A node takes every block too; it snapshots every 4 blocks of height
    # and is reopened from its snapshot now and then.
    monkeypatch.setattr(node_module, "SNAPSHOT_INTERVAL", 4)
    config = NodeConfig(data_dir=str(tmp_path))
    node = LocalNode(config)
    keys = {kp.address: kp for kp in (ALICE, BOB)}
    pool = []  # every signed op so far; old ones are offered again on other branches
    seen = {"reorgs": 0, "returned": 0, "reconfirmed": 0, "spent-input": 0, "unknown-name": 0,
            "valid-then-fail": 0}

    def add_on(parent_hash, step):
        state = state_at(chain, parent_hash)
        fresh = []
        if rng.random() < 0.5:
            fresh.append(registry.register_domain(f"DDNS/N{step}", CID, rng.choice((ALICE, BOB)),
                                                  state, nonce=step))
        for name in rng.sample(sorted(state.assets), k=min(2, len(state.assets))):
            owner = keys[state.assets[name].owner_address]
            if rng.random() < 0.7:
                op = registry.update_domain(name, content_id_of(rng.randbytes(8)), owner, state,
                                            nonce=step)
            else:
                op = registry.transfer_domain(name, rng.choice(list(keys)), owner, state, nonce=step)
            fresh.append(op)
        offered = fresh + rng.sample(pool, k=min(3, len(pool)))
        pool.extend(fresh)
        block = _mined_at(state, offered, rng.choice(list(keys)), spacing=rng.randint(1, 30))
        old_tip = chain.tip_hash
        result = chain.add_block(block, now=block.header.timestamp)
        assert result.accepted, result.code
        tip, reorged, returned_ids = _expected_add(chain.blocks, old_tip, block.header.hash)
        assert chain.tip_hash == tip
        assert result.reorged == reorged
        assert [tx.txid for tx in result.returned_txs] == returned_ids
        # The tip's undo record takes it back to its parent's state, and
        # connecting it again restores the same digest.
        digest, parent = chain.state.digest(), chain.headers[tip].previous_hash
        assert chain._move(parent) is None
        assert chain.state.digest() == state_at(chain, parent).digest()
        assert chain._move(tip) is None
        assert chain.state.digest() == digest
        assert node.accept_block(block, now=block.header.timestamp).accepted
        assert node.chain.tip_hash == tip
        if reorged:
            new_branch = set(_genesis_walk(chain.blocks, tip))
            abandoned_txs = sum(len(chain.blocks[h].transactions) - 1
                                for h in _genesis_walk(chain.blocks, old_tip) if h not in new_branch)
            seen["reorgs"] += 1
            seen["returned"] += len(returned_ids)
            seen["reconfirmed"] += abandoned_txs - len(returned_ids)
        return block.header.hash

    def invalid_txs(state, step):
        """Txs that fail on `state`, their kind, and the block code they get."""
        owned = [(key, out) for key, out in sorted(state.utxos.items()) if out.recipient in keys]
        roll = rng.random()
        if owned and roll < 1 / 3:
            # Two txs spending one output: the second spends a spent input.
            (txid, index), out = rng.choice(owned)
            owner = keys[out.recipient]
            return "spent-input", [
                sign_transaction(Transaction((TxInput(txid, index, owner.public_key),),
                                             (TxOutput(out.value, address),), None, step), owner)
                for address in keys], "bad-tx(2)"
        ghost = f"DDNS/GHOST{step}"
        holding = replace(state, assets={ghost: registry.DomainAsset(ghost, ALICE.address, CID)})
        fails = registry.update_domain(ghost, CID2, ALICE, holding, nonce=step)
        if roll < 2 / 3:
            return "unknown-name", [fails], "bad-tx(1)"
        # Valid txs before the failing one, so taking them back restores an
        # updated asset, removes a registered one and its change output, and
        # restores the output that paid for it.
        valid = []
        names = [name for name in sorted(state.assets) if state.assets[name].owner_address in keys]
        if names:
            name = rng.choice(names)
            valid.append(registry.update_domain(name, CID2, keys[state.assets[name].owner_address],
                                                state, nonce=step))
        if owned:
            valid.append(registry.register_domain(f"WEB3/PAID{step}", CID,
                                                  keys[rng.choice(owned)[1].recipient], state,
                                                  nonce=step))
        if not valid:
            valid.append(register_tx(state, name=f"DDNS/FREE{step}", nonce=step))
        return "valid-then-fail", valid + [fails], f"bad-tx({len(valid) + 1})"

    def rival_with_a_bad_block(step):
        """A branch forking 1-4 blocks below the tip that would overtake it,
        with an invalid tx in the block at a random depth."""
        depth = rng.randint(1, min(4, chain.height))
        fork = chain.tip_hash
        for _ in range(depth):
            fork = chain.headers[fork].previous_hash
        bad_at = rng.randint(0, depth)
        tip, digest, view = chain.tip_hash, chain.state.digest(), chain.view
        headers = chain.state.recent_headers
        parent, branch = fork, []
        for i in range(depth + 1):
            spacing = rng.randint(1, 30)
            now = chain.headers[parent].timestamp + spacing
            if i < bad_at:
                block = _mined_at(state_at(chain, parent), (), rng.choice(list(keys)), spacing)
            elif i == bad_at:
                kind, txs, code = invalid_txs(state_at(chain, parent), step)
                block = _block_with(state_at(chain, parent), txs, now)
            else:
                block = _above(chain, parent, now=now)
            now = block.header.timestamp
            branch.append(block)
            result = chain.add_block(block, now=now)
            assert node.accept_block(block, now=now) == result
            assert result.accepted == (i < depth), result.code
            parent = block.header.hash
        assert result.code == code
        assert chain.tip_hash == node.chain.tip_hash == tip and chain.view is view
        assert chain.state.digest() == node.state.digest() == digest
        assert chain.state.recent_headers == node.state.recent_headers == headers
        for i, block in enumerate(branch):
            for stored in (chain.headers, chain.blocks, node.chain.headers, node.chain.blocks):
                assert (block.header.hash in stored) == (i < bad_at)
        seen[kind] += 1

    for step in range(40):
        roll = rng.random() if step >= 3 else 1.0
        if roll < 0.15:
            # A rival that would overtake the tip but carries an invalid tx.
            rival_with_a_bad_block(step)
        elif roll < 0.45:
            # A competing branch forks 1-3 blocks below the tip and overtakes it.
            depth = rng.randint(1, 3)
            fork = chain.tip_hash
            for _ in range(depth):
                fork = chain.blocks[fork].header.previous_hash
            for i in range(depth + 1):
                fork = add_on(fork, 100 * step + i)
        elif roll < 0.58:
            # A stale block that only ties the tip.
            add_on(chain.blocks[chain.tip_hash].header.previous_hash, 100 * step)
        else:
            add_on(chain.tip_hash, 100 * step)
        if step % 8 == 7:
            node = LocalNode(config)
            assert node.chain.blocks.raw  # opened from a snapshot
            assert node.state.digest() == state_at(chain, chain.tip_hash).digest()
    # The sequence reorgs, hands txs back, mines some txs on both sides of a
    # fork, and refuses rivals with each kind of invalid tx.
    assert seen["reorgs"] >= 5 and seen["returned"] > 0 and seen["reconfirmed"] > 0, seen
    assert seen["spent-input"] > 0 and seen["unknown-name"] > 0, seen
    assert seen["valid-then-fail"] > 0, seen
    replayed = fresh_chain()
    for h in _genesis_walk(chain.blocks, chain.tip_hash)[1:]:
        block = chain.blocks[h]
        assert replayed.add_block(block, now=block.header.timestamp).accepted
    assert replayed.state.digest() == chain.state.digest()


# -- properties ---------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=600), min_size=2, max_size=29))
def test_difficulty_always_in_range(intervals):
    new = adjust_difficulty(_headers(intervals))
    assert 1 <= new <= MAX_TARGET


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=3))
def test_header_round_trip(nonce, height):
    hdr = BlockHeader(b"\xaa" * 32, b"\xbb" * 32, 1_700_000_123,
                      DEFAULT_GENESIS_TARGET, nonce, height)
    assert BlockHeader.deserialize(hdr.serialize()) == hdr


def _reference_digest(state):
    """`ChainState.digest` as one buffer: every row written, then hashed."""
    w = Writer()
    for (txid, idx) in sorted(state.utxos):
        out = state.utxos[(txid, idx)]
        w.raw(txid)
        w.u32(idx)
        w.u64(out.value)
        w.var(out.recipient.encode())
    for name in sorted(state.assets):
        asset = state.assets[name]
        w.var(name.encode())
        w.var(asset.owner_address.encode())
        w.var((asset.ipfs_hash or "").encode())
        w.u64(asset.revision)
    w.raw(state.tip)
    w.u64(state.height)
    return sha256d(w.getvalue())


_TEXT = st.text(max_size=12)
_UTXOS = st.dictionaries(
    st.tuples(st.binary(min_size=32, max_size=32), st.integers(0, 2**32 - 1)),
    st.builds(TxOutput, st.integers(0, 2**64 - 1), _TEXT), max_size=20)
_ASSETS = st.lists(st.builds(registry.DomainAsset, _TEXT, _TEXT, st.none() | _TEXT,
                             revision=st.integers(0, 2**64 - 1)), max_size=10)


@settings(max_examples=200, deadline=None)
@given(_UTXOS, _ASSETS, st.binary(min_size=32, max_size=32), st.integers(0, 2**64 - 1))
def test_state_digest_matches_a_digest_of_one_buffer(utxos, assets, tip, height):
    state = ChainState(utxos, {a.asset_name: a for a in assets}, tip, height, ())
    assert state.digest() == _reference_digest(state)
    assert ChainState({}, {}, tip, height, ()).digest() == _reference_digest(
        ChainState({}, {}, tip, height, ()))
