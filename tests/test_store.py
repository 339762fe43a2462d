import hashlib
import os

import pytest
from hypothesis import given, settings, strategies as st

from ddns.encoding import b58encode
from ddns.errors import CorruptionError, InvalidContentIdError, NotFoundError
from ddns.store import ContentStore, content_id_of, decode_content_id, verify_integrity


def test_content_id_is_base58_sha256_multihash():
    payload = b'{"version":"2.0"}'
    # independent derivation: 0x12 0x20 prefix + sha256, base58
    expected = b58encode(b"\x12\x20" + hashlib.sha256(payload).digest())
    assert content_id_of(payload) == expected
    assert content_id_of(payload).startswith("Qm")


def test_decode_content_id_round_trip():
    cid = content_id_of(b"payload")
    assert decode_content_id(cid) == hashlib.sha256(b"payload").digest()


def test_decode_content_id_rejects_garbage():
    with pytest.raises(InvalidContentIdError):
        decode_content_id("not!base58")
    with pytest.raises(InvalidContentIdError):
        decode_content_id(b58encode(b"\x11\x14" + b"\x00" * 20))  # wrong prefix


def test_put_get_round_trip(tmp_path):
    store = ContentStore(str(tmp_path))
    cid = store.put(b"hello")
    assert store.get(cid) == b"hello"
    assert store.has(cid)


def test_put_is_idempotent(tmp_path):
    store = ContentStore(str(tmp_path))
    assert store.put(b"same") == store.put(b"same")
    assert store.object_count() == 1


def test_get_missing_raises(tmp_path):
    store = ContentStore(str(tmp_path))
    with pytest.raises(NotFoundError):
        store.get(content_id_of(b"never stored"))


def test_tampered_object_raises_corruption(tmp_path):
    store = ContentStore(str(tmp_path))
    cid = store.put(b"authentic data")
    path = store._path_for(cid)
    with open(path, "r+b") as fh:
        original = fh.read()
        fh.seek(0)
        fh.write(bytes([original[0] ^ 0x01]) + original[1:])
    with pytest.raises(CorruptionError):
        store.get(cid)


def test_verify_integrity():
    payload = b"some zone"
    cid = content_id_of(payload)
    assert verify_integrity(cid, payload)
    assert not verify_integrity(cid, payload + b"x")


def test_persistence_across_reopen(tmp_path):
    cid = ContentStore(str(tmp_path)).put(b"durable")
    assert ContentStore(str(tmp_path)).get(cid) == b"durable"


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=4096))
def test_round_trip_property(tmp_path_factory, data):
    store = ContentStore(str(tmp_path_factory.mktemp("store")))
    cid = store.put(data)
    assert store.get(cid) == data
    assert verify_integrity(cid, data)


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=256), st.integers(min_value=0))
def test_single_bit_tamper_always_detected(data, bit):
    bit %= len(data) * 8
    tampered = bytearray(data)
    tampered[bit // 8] ^= 1 << (bit % 8)
    assert not verify_integrity(content_id_of(data), bytes(tampered))


def test_a_put_creates_no_directory(tmp_path, monkeypatch):
    store = ContentStore(str(tmp_path))
    made = []
    for name in ("mkdir", "makedirs"):
        monkeypatch.setattr(os, name, lambda *args, name=name, **kwargs: made.append(name))
    cids = [store.put(bytes([i]) * 10) for i in range(3)]
    assert made == []
    # Each object is one file in `objects`, named by its digest in hex.
    assert sorted(os.listdir(tmp_path / "objects")) == sorted(
        decode_content_id(cid).hex() for cid in cids)
    assert store.object_count() == 3
    assert [store.get(cid) for cid in cids] == [bytes([i]) * 10 for i in range(3)]
