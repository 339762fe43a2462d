"""Key and signature tests, cross-checked against the `cryptography`
package as an independent secp256k1/ECDSA implementation."""

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature, encode_dss_signature)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings, strategies as st

from ddns import keys
from ddns.encoding import b58check_encode
from ddns.errors import InvalidAddressError, InvalidKeyError, InvalidSeedError
from ddns.keys import (ADDRESS_VERSION, MULTISIG_VERSION, N,
                       Signature, decode_address, decode_point,
                       encode_point, generate_keypair, multisig_address, sign,
                       verify)

SEED = b"\x42" * 32


def _oracle_private(sk: int):
    return ec.derive_private_key(sk, ec.SECP256K1())


def test_public_key_matches_oracle():
    kp = generate_keypair(SEED)
    oracle = _oracle_private(kp.secret_key).public_key()
    compressed = oracle.public_bytes(Encoding.X962, PublicFormat.CompressedPoint)
    assert kp.public_key == compressed


def test_our_signature_verifies_under_oracle():
    kp = generate_keypair(SEED)
    message = b"transfer DDNS/EXAMPLE to PXYZ"
    sig = sign(kp.secret_key, message)
    oracle_pub = _oracle_private(kp.secret_key).public_key()
    oracle_pub.verify(encode_dss_signature(sig.r, sig.s), message,
                      ec.ECDSA(hashes.SHA256()))  # raises on failure


def test_oracle_signature_verifies_under_ours():
    kp = generate_keypair(SEED)
    message = b"register DDNS/ORACLE"
    der = _oracle_private(kp.secret_key).sign(
        message, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))
    r, s = decode_dss_signature(der)
    assert verify(kp.public_key, message, Signature(r, s))


def test_rfc6979_nonce_matches_oracle():
    # Same deterministic nonce scheme: r must agree; s may differ only by
    # our low-s normalization.
    kp = generate_keypair(SEED)
    message = b"deterministic nonce check"
    ours = sign(kp.secret_key, message)
    der = _oracle_private(kp.secret_key).sign(
        message, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))
    r, s = decode_dss_signature(der)
    assert ours.r == r
    assert ours.s in (s, N - s)


def test_signing_is_deterministic_and_low_s():
    kp = generate_keypair(SEED)
    sig1 = sign(kp.secret_key, b"msg")
    sig2 = sign(kp.secret_key, b"msg")
    assert sig1 == sig2
    assert sig1.s <= N // 2


def test_verify_rejects_tampered_message():
    kp = generate_keypair(SEED)
    sig = sign(kp.secret_key, b"original")
    assert verify(kp.public_key, b"original", sig)
    assert not verify(kp.public_key, b"originaj", sig)


def test_verify_rejects_wrong_key():
    a = generate_keypair(b"\x01" * 32)
    b = generate_keypair(b"\x02" * 32)
    sig = sign(a.secret_key, b"msg")
    assert not verify(b.public_key, b"msg", sig)


def test_verify_rejects_out_of_range_signature():
    kp = generate_keypair(SEED)
    assert not verify(kp.public_key, b"msg", Signature(0, 1))
    assert not verify(kp.public_key, b"msg", Signature(1, N))


def test_malformed_public_key_raises():
    with pytest.raises(InvalidKeyError):
        decode_point(b"\x02" + b"\x00" * 31)  # wrong length
    with pytest.raises(InvalidKeyError):
        decode_point(b"\x05" + b"\x11" * 32)  # bad prefix
    with pytest.raises(InvalidKeyError):
        verify(b"\xff" * 33, b"msg", Signature(1, 1))


def test_seed_validation():
    with pytest.raises(InvalidSeedError):
        generate_keypair(b"short")
    with pytest.raises(InvalidSeedError):
        generate_keypair(b"\x00" * 32)  # zero scalar


def test_signature_bytes_round_trip():
    kp = generate_keypair(SEED)
    sig = sign(kp.secret_key, b"payload")
    assert Signature.from_bytes(sig.to_bytes()) == sig
    with pytest.raises(InvalidKeyError):
        Signature.from_bytes(b"\x00" * 63)


def test_point_encoding_round_trip():
    kp = generate_keypair(SEED)
    assert encode_point(decode_point(kp.public_key)) == kp.public_key


def test_address_shape_and_version():
    kp = generate_keypair(SEED)
    version, payload = decode_address(kp.address)
    assert version == ADDRESS_VERSION
    assert len(payload) == 20
    assert kp.address.startswith("P")


def test_keypair_derives_its_address_once(monkeypatch):
    calls = []
    real = keys.derive_address
    monkeypatch.setattr(keys, "derive_address", lambda pk: calls.append(pk) or real(pk))
    kp = generate_keypair(SEED)
    first = kp.address
    assert kp.address == first == real(kp.public_key)
    assert calls == [kp.public_key]
    assert kp == generate_keypair(SEED) and hash(kp) == hash(generate_keypair(SEED))


@pytest.mark.parametrize("text", ["not-an-address", "P" * 34, "",
                                  b58check_encode(0x00, b"\x01" * 20),
                                  b58check_encode(ADDRESS_VERSION, b"\x01" * 19)])
def test_a_malformed_address_raises_every_time_and_is_never_cached(text):
    decode_address(generate_keypair(SEED).address)
    size = decode_address.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InvalidAddressError):
            decode_address(text)
        assert decode_address.cache_info().currsize == size


def test_decode_address_rejects_garbage():
    with pytest.raises(InvalidAddressError):
        decode_address("not-an-address")
    # valid base58check but wrong version byte
    with pytest.raises(InvalidAddressError):
        decode_address(b58check_encode(0x00, b"\x01" * 20))


def test_multisig_address_is_order_independent():
    keys = [generate_keypair(bytes([i]) * 32).public_key for i in (1, 2, 3)]
    addr = multisig_address(keys)
    assert multisig_address(list(reversed(keys))) == addr
    version, _ = decode_address(addr)
    assert version == MULTISIG_VERSION


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=32, max_size=32).filter(lambda s: any(s)),
       st.binary(max_size=200))
def test_sign_verify_property(seed, message):
    kp = generate_keypair(seed)
    sig = sign(kp.secret_key, message)
    assert verify(kp.public_key, message, sig)
    assert sig.s <= N // 2


@settings(max_examples=15, deadline=None)
@given(st.binary(min_size=32, max_size=32).filter(lambda s: any(s)))
def test_keypair_matches_oracle_property(seed):
    kp = generate_keypair(seed)
    oracle = _oracle_private(kp.secret_key).public_key()
    assert kp.public_key == oracle.public_bytes(
        Encoding.X962, PublicFormat.CompressedPoint)


# -- the oracle over valid and tampered signatures ---------------------------

def _oracle_verify(pk: bytes, message: bytes, r: int, s: int) -> bool:
    key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256K1(), pk)
    try:
        key.verify(encode_dss_signature(r, s), message, ec.ECDSA(hashes.SHA256()))
    except InvalidSignature:
        return False
    return True


def _variants(r: int, s: int):
    """The signature itself, tampered and out-of-range copies, and high s."""
    yield r, s
    yield r ^ 1, s
    yield r, s ^ (1 << 200)
    yield r, N - s
    yield (r + 1) % N or 1, s
    yield 0, s
    yield r, 0
    yield N, s
    yield r, N
    yield r + N, s
    yield r, s + N


@settings(max_examples=15, deadline=None)
@given(st.integers(1, N - 1), st.binary(max_size=120), st.binary(min_size=1, max_size=8))
def test_verify_agrees_with_oracle(sk, message, suffix):
    kp = generate_keypair(sk.to_bytes(32, "big"))
    ours = sign(sk, message)
    r, s = decode_dss_signature(_oracle_private(sk).sign(message, ec.ECDSA(hashes.SHA256())))
    for sig_r, sig_s in [*_variants(ours.r, ours.s), *_variants(r, s)]:
        sig = Signature(sig_r, sig_s)
        expected = _oracle_verify(kp.public_key, message, sig_r, sig_s)
        assert verify(kp.public_key, message, sig) == expected, (sig_r, sig_s)
    assert verify(kp.public_key, message, ours)
    assert not verify(kp.public_key, message + suffix, ours)
    assert not _oracle_verify(kp.public_key, message + suffix, ours.r, ours.s)


# -- the fast multiplications against a plain double-and-add ladder ----------

def _affine_add(p, q):
    if p is None:
        return q
    if q is None:
        return p
    if p[0] == q[0] and (p[1] + q[1]) % keys.P == 0:
        return None
    if p == q:
        slope = 3 * p[0] * p[0] * pow(2 * p[1], -1, keys.P)
    else:
        slope = (q[1] - p[1]) * pow(q[0] - p[0], -1, keys.P)
    x = (slope * slope - p[0] - q[0]) % keys.P
    return x, (slope * (p[0] - x) - p[1]) % keys.P


def _ladder(point, k: int):
    acc = None
    while k:
        if k & 1:
            acc = _affine_add(acc, point)
        point = _affine_add(point, point)
        k >>= 1
    return acc


def _from_wnaf(digits) -> int:
    return sum(d << (5 * j) for j, d in enumerate(digits))


# Scalars whose width-5 NAF digits are all +15 or -15 (every fifth position).
ALL_15 = [_from_wnaf([15] * 25), _from_wnaf([15, -15] * 12 + [15]), _from_wnaf([-15] * 24 + [15])]
G = (keys.GX, keys.GY)
Q = decode_point(generate_keypair(SEED).public_key)
EDGE_SCALARS = ([0, 1, 2, 3, 15, 16, 255, 256, N - 1, N - 2, N // 2, (N + 1) // 2, keys.LAMBDA]
                + [1 << k for k in (7, 8, 9, 127, 128, 129, 200, 255)]
                + ALL_15 + [N - s for s in ALL_15] + [keys.LAMBDA * s % N for s in ALL_15])


def test_wnaf_digits():
    for s in ALL_15:
        digits = keys._wnaf(s)
        assert {abs(d) for d in digits if d} == {15}
        assert all(d == 0 for i, d in enumerate(digits) if i % 5)
    for k in EDGE_SCALARS:
        digits = keys._wnaf(k)
        assert sum(d << i for i, d in enumerate(digits)) == k
        assert all(d % 2 and -16 < d < 16 for d in digits if d)
        assert all(not any(digits[i + 1:i + 5]) for i, d in enumerate(digits) if d)


def test_glv_split_recombines_into_short_halves():
    for k in EDGE_SCALARS:
        k1, k2 = keys._glv_split(k)
        assert (k1 + k2 * keys.LAMBDA - k) % N == 0
        assert abs(k1).bit_length() <= 129 and abs(k2).bit_length() <= 129


def test_endomorphism_constants():
    assert _ladder(G, keys.LAMBDA) == (keys.BETA * keys.GX % keys.P, keys.GY)


@pytest.mark.parametrize("k", EDGE_SCALARS)
def test_fast_multiplications_match_the_ladder_at_edge_scalars(k):
    assert keys._to_affine(keys._g_mul(k)) == _ladder(G, k)
    assert keys._to_affine(keys._mul(keys._odd_multiples(Q), k)) == _ladder(Q, k)
    assert keys._to_affine(keys._mul(keys._odd_multiples(G), k)) == _ladder(G, k)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, N - 1), st.integers(1, N - 1))
def test_fast_multiplications_match_the_ladder(k, sk):
    point = _ladder(G, sk)
    assert keys._to_affine(keys._g_mul(k)) == _ladder(G, k)
    assert keys._to_affine(keys._mul(keys._odd_multiples(point), k)) == _ladder(point, k)


# -- the per-key segments ------------------------------------------------------

ONES = (1 << 33) - 1
# GLV halves at the edges of the 33-bit parts: a single bit at 2^(33j) and
# the run of ones just below it, an all-ones part, every part but one full
# (so that part is zero), and halves longer than 132 bits, whose extra bits
# only the top part holds.
SEGMENT_HALVES = ([1 << (33 * j) for j in range(4)] + [(1 << (33 * j)) - 1 for j in range(1, 5)]
                  + [ONES << (33 * j) for j in range(4)]
                  + [((1 << 132) - 1) ^ (ONES << (33 * j)) for j in range(4)]
                  + [(1 << 140) - 1, 1 << 159, (1 << 160) - 1, 0x1234567890ABCDEF << 96])


def test_segments_at_their_edges():
    for half in SEGMENT_HALVES:
        parts = keys._segments(half)
        assert len(parts) == keys.KEY_SEGMENTS == 4
        assert sum(p << (33 * j) for j, p in enumerate(parts)) == half
    assert keys._segments((1 << 132) - 1) == [ONES] * 4
    assert keys._segments(ONES << 66) == [0, 0, ONES, 0]
    assert keys._segments(1 << 99) == [0, 0, 0, 1]
    assert keys._segments((1 << 99) - 1) == [ONES, ONES, ONES, 0]
    assert keys._segments(1 << 159) == [0, 0, 0, 1 << 60]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 160) - 1))
def test_the_four_parts_recombine_to_the_half(half):
    parts = keys._segments(half)
    assert len(parts) == 4 and all(0 <= p <= ONES for p in parts[:3])
    assert sum(p << (33 * j) for j, p in enumerate(parts)) == half


def test_a_key_table_holds_every_segments_odd_multiples_and_their_lambda_images():
    odd = keys._odd_multiples(Q)
    assert keys.KEY_SEGMENTS * 24 * 32 == len(odd) == 3072
    coords = [int.from_bytes(odd[i:i + 32], "big") for i in range(0, len(odd), 32)]
    for j in range(4):
        for m in range(8):
            x, y, bx = coords[3 * (8 * j + m):3 * (8 * j + m) + 3]
            assert (x, y) == _ladder(Q, (2 * m + 1) << (33 * j)), (j, m)
            assert bx == keys.BETA * x % keys.P


def _mul_with_halves(monkeypatch, point, k1, k2):
    """`_mul` with its GLV split replaced, so the halves are chosen directly."""
    monkeypatch.setattr(keys, "_glv_split", lambda k: (k1, k2))
    return keys._to_affine(keys._mul(keys._odd_multiples(point), 0))


@pytest.mark.parametrize("half", SEGMENT_HALVES)
def test_mul_matches_the_ladder_at_segment_edges(monkeypatch, half):
    for k1, k2 in ((half, 0), (0, half), (-half, half), (half, -half), (half, half * 3 >> 2)):
        expected = _ladder(Q, (k1 + k2 * keys.LAMBDA) % N)
        assert _mul_with_halves(monkeypatch, Q, k1, k2) == expected, (k1, k2)


@settings(max_examples=15, deadline=None)
@given(st.integers(-(1 << 160) + 1, (1 << 160) - 1), st.integers(-(1 << 160) + 1, (1 << 160) - 1))
def test_mul_matches_the_ladder_for_halves_up_to_160_bits(k1, k2):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _mul_with_halves(monkeypatch, Q, k1, k2) == _ladder(Q, (k1 + k2 * keys.LAMBDA) % N)


def test_mul_runs_one_doubling_chain_of_at_most_34_steps(monkeypatch):
    odd = keys._odd_multiples(Q)
    doublings = []
    real = keys._jac_double
    monkeypatch.setattr(keys, "_jac_double", lambda p: doublings.append(1) or real(p))
    for k in EDGE_SCALARS + [int.from_bytes(keys.sha256(bytes([i])), "big") % N for i in range(20)]:
        doublings.clear()
        keys._mul(odd, k)
        assert len(doublings) <= 34, k


# -- the per-key cache and the projective x check ----------------------------

@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(1, N - 1), min_size=2, max_size=4, unique=True),
       st.lists(st.binary(max_size=60), min_size=2, max_size=3))
def test_verify_agrees_with_oracle_on_cold_warm_and_interleaved_keys(sks, messages):
    cases = []
    for sk in sks:
        pk = generate_keypair(sk.to_bytes(32, "big")).public_key
        for message in messages:
            r, s = decode_dss_signature(_oracle_private(sk).sign(message, ec.ECDSA(hashes.SHA256())))
            cases += [(pk, message, r, s), (pk, message, r, s ^ 1), (pk, message, r ^ 1, s),
                      (pk, message + b"!", r, s)]
    keys._key_table.cache_clear()
    cold = [verify(pk, m, Signature(r, s)) for pk, m, r, s in cases]  # each key's first call is cold
    warm = [verify(pk, m, Signature(r, s)) for pk, m, r, s in cases]
    interleaved = [verify(pk, m, Signature(r, s)) for pk, m, r, s in cases[::-1]][::-1]
    expected = [_oracle_verify(pk, m, r, s) for pk, m, r, s in cases]
    assert cold == warm == interleaved == expected
    assert any(expected) and not all(expected)
    info = keys._key_table.cache_info()
    assert info.misses == len(sks) and info.currsize == len(sks)


def test_a_key_is_decoded_once_for_its_address_and_every_verify(monkeypatch):
    calls = []
    real = keys.decode_point
    monkeypatch.setattr(keys, "decode_point", lambda pk: calls.append(pk) or real(pk))
    keys._key_table.cache_clear()
    kps = [generate_keypair(bytes([i]) * 32) for i in (7, 8, 9)]
    for kp in kps:
        sig = sign(kp.secret_key, b"msg")
        for _ in range(3):
            keys.derive_address(kp.public_key)
            assert verify(kp.public_key, b"msg", sig)
    multisig_address([kp.public_key for kp in kps])
    assert calls == [kp.public_key for kp in kps]


@pytest.mark.parametrize("pk", [b"\x02" + b"\xff" * 32,   # x >= P
                                b"\x02" + b"\x00" * 32,   # x^3 + 7 not a square
                                b"\x04" + b"\x11" * 32,   # uncompressed prefix
                                b"\x02" + b"\x11" * 31])  # 32 bytes
def test_a_malformed_key_raises_every_time_and_is_never_cached(pk):
    verify(generate_keypair(SEED).public_key, b"msg", Signature(1, 1))
    size = keys._key_table.cache_info().currsize
    for call in (lambda: verify(pk, b"msg", Signature(1, 1)), lambda: verify(pk, b"msg", Signature(1, 1)),
                 lambda: keys.derive_address(pk), lambda: keys.derive_address(pk),
                 lambda: multisig_address([pk]), lambda: multisig_address([pk])):
        with pytest.raises(InvalidKeyError):
            call()
        assert keys._key_table.cache_info().currsize == size


def test_the_projective_check_accepts_an_x_that_is_r_plus_n():
    P = keys.P
    t = 0
    while True:  # a curve point whose x is at least N, so x mod N == x - N
        x = N + t
        y_sq = (x * x * x + 7) % P
        y = pow(y_sq, (P + 1) // 4, P)
        if y * y % P == y_sq:
            break
        t += 1
    assert x < P and keys._on_curve((x, y))
    r = x - N
    for z in (1, 2, 0xC0FFEE, P - 1, int.from_bytes(keys.sha256(b"z"), "big") % P):
        point = (x * z * z % P, y * z * z * z % P, z)
        assert keys._x_is(point, r)
        assert not keys._x_is(point, r + 1)
    # and for an ordinary x < N, which matches only itself
    gx = (keys.GX * 9 % P, keys.GY * 27 % P, 3)
    assert keys._x_is(gx, keys.GX) and not keys._x_is(gx, keys.GX + 1)


# -- hot keys: a fixed-base table after HOT_KEY_VERIFIES successful verifies --

@pytest.fixture
def no_hot_keys():
    keys._successes.clear()
    keys._hot_tables.clear()
    yield
    keys._successes.clear()
    keys._hot_tables.clear()


@pytest.fixture(scope="module")
def q_table():
    return keys._fixed_table(Q)


def test_a_fixed_table_holds_every_windows_multiples(q_table):
    assert len(q_table) == 32 * 255 * 64 == 32 * keys.ROW_BYTES
    for i in (0, 1, 17, 31):
        for j in (1, 2, 128, 255):
            at = i * keys.ROW_BYTES + 64 * (j - 1)
            x, y = (int.from_bytes(q_table[at + c:at + c + 32], "big") for c in (0, 32))
            assert (x, y) == _ladder(Q, j << (8 * i)), (i, j)


@pytest.mark.parametrize("k", EDGE_SCALARS + [(1 << 256) - 1, 0xFF << 248, 0x0101 << 100])
def test_the_fixed_base_multiply_matches_the_ladder(q_table, k):
    assert keys._to_affine(keys._fixed_mul(q_table, k)) == _ladder(Q, k)
    # into an accumulator, as a hot verify adds u2 * Q to u1 * G
    u1 = (k * 7 + 3) % N
    expected = _affine_add(_ladder(G, u1), _ladder(Q, k))
    assert keys._to_affine(keys._fixed_mul(q_table, k, keys._g_mul(u1))) == expected


def _cases(sk: int, pk: bytes, messages):
    """(message, r, s) for our and the oracle's signatures, each also with r, s
    or the message tampered."""
    out = []
    for message in messages:
        ours = sign(sk, message)
        r, s = decode_dss_signature(_oracle_private(sk).sign(message, ec.ECDSA(hashes.SHA256())))
        for sig_r, sig_s in ((ours.r, ours.s), (r, s)):
            out += [(message, sig_r, sig_s), (message, sig_r ^ 1, sig_s), (message, sig_r, sig_s ^ 1),
                    (message + b"!", sig_r, sig_s), (message, sig_r, N - sig_s)]
    return out


def test_a_hot_key_agrees_with_the_oracle_before_and_after_promotion(no_hot_keys, monkeypatch):
    sk = int.from_bytes(keys.sha256(b"hot key"), "big") % N
    pk = generate_keypair(sk.to_bytes(32, "big")).public_key
    cases = _cases(sk, pk, [b"", b"update", bytes(range(90))])
    expected = [_oracle_verify(pk, m, r, s) for m, r, s in cases]
    assert any(expected) and not all(expected)
    before = [verify(pk, m, Signature(r, s)) for m, r, s in cases]
    assert before == expected and pk not in keys._hot_tables
    # Every successful verify counts, so the key turns hot at its 256th.
    successes = sum(expected)
    sig = sign(sk, b"update")
    while successes < keys.HOT_KEY_VERIFIES - 1:
        assert verify(pk, b"update", sig) and pk not in keys._hot_tables
        successes += 1
    calls = []
    real = keys.decode_point
    monkeypatch.setattr(keys, "decode_point", lambda data: calls.append(data) or real(data))
    assert verify(pk, b"update", sig)
    assert pk in keys._hot_tables and pk not in keys._successes
    assert calls == []  # promotion reuses the key table's point
    # From now on the key's verifies run no segmented multiply.
    monkeypatch.setattr(keys, "_mul", None)
    after = [verify(pk, m, Signature(r, s)) for m, r, s in cases]
    assert after == expected
    for sig_r, sig_s in _variants(sig.r, sig.s):
        assert verify(pk, b"update", Signature(sig_r, sig_s)) == _oracle_verify(pk, b"update", sig_r, sig_s)


def test_failing_verifies_and_address_calls_never_promote_a_key(no_hot_keys, monkeypatch):
    monkeypatch.setattr(keys, "HOT_KEY_VERIFIES", 3)
    kps = [generate_keypair(bytes([i]) * 32) for i in (21, 22, 23)]
    pk = kps[0].public_key
    sig = sign(kps[0].secret_key, b"msg")
    for _ in range(10):
        assert not verify(pk, b"msg!", sig)
        assert not verify(pk, b"msg", Signature(sig.r ^ 1, sig.s))
        assert not verify(pk, b"msg", Signature(sig.r, sig.s ^ 1))
        assert not verify(pk, b"msg", Signature(0, sig.s))
        assert not verify(kps[1].public_key, b"msg", sig)  # another key's signature
        keys.derive_address(pk)
        multisig_address([kp.public_key for kp in kps])
    assert not keys._hot_tables and not keys._successes
    for count in (1, 2):
        assert verify(pk, b"msg", sig)
        assert keys._successes[pk] == count and not keys._hot_tables
    assert verify(pk, b"msg", sig)
    assert list(keys._hot_tables) == [pk]


def test_the_hot_tables_keep_at_most_their_cap_and_a_dropped_key_earns_promotion_again(
        no_hot_keys, monkeypatch):
    monkeypatch.setattr(keys, "HOT_KEY_VERIFIES", 2)
    monkeypatch.setattr(keys, "HOT_KEY_CACHE_SIZE", 3)
    kps = [generate_keypair(bytes([i]) * 32) for i in range(31, 36)]
    sigs = [sign(kp.secret_key, b"msg") for kp in kps]
    pks = [kp.public_key for kp in kps]

    def check(i):
        assert verify(pks[i], b"msg", sigs[i])
        assert len(keys._hot_tables) <= 3

    for i in range(3):
        check(i)
        check(i)
    assert list(keys._hot_tables) == pks[:3]
    check(0)  # a hot verify makes key 0 the most recently used
    check(3)
    check(3)
    assert list(keys._hot_tables) == [pks[2], pks[0], pks[3]]  # key 1 dropped
    check(1)
    assert pks[1] not in keys._hot_tables and keys._successes[pks[1]] == 1
    check(1)
    assert list(keys._hot_tables) == [pks[0], pks[3], pks[1]]  # key 2 dropped
    assert pks[1] not in keys._successes


def test_success_counts_are_kept_for_at_most_key_cache_size_keys(no_hot_keys, monkeypatch):
    monkeypatch.setattr(keys, "HOT_KEY_VERIFIES", 3)
    monkeypatch.setattr(keys, "KEY_CACHE_SIZE", 2)
    kps = [generate_keypair(bytes([i]) * 32) for i in (41, 42, 43)]
    sigs = [sign(kp.secret_key, b"msg") for kp in kps]
    for order in ([0, 0, 1, 2], [0, 0]):  # key 0 is dropped at key 2's count
        for i in order:
            assert verify(kps[i].public_key, b"msg", sigs[i])
        assert len(keys._successes) <= 2
    assert not keys._hot_tables and keys._successes[kps[0].public_key] == 2


def test_a_success_counted_while_the_table_is_built_leaves_no_count(no_hot_keys, monkeypatch):
    monkeypatch.setattr(keys, "HOT_KEY_VERIFIES", 2)
    kp = generate_keypair(bytes([61]) * 32)
    sig = sign(kp.secret_key, b"msg")
    real = keys._fixed_table

    def build(point):  # another thread's verify lands while this one builds
        assert verify(kp.public_key, b"msg", sig) and keys._successes[kp.public_key] == 1
        return real(point)

    monkeypatch.setattr(keys, "_fixed_table", build)
    assert verify(kp.public_key, b"msg", sig) and verify(kp.public_key, b"msg", sig)
    assert list(keys._hot_tables) == [kp.public_key] and not keys._successes


def test_concurrent_verifies_keep_the_hot_bookkeeping_consistent(no_hot_keys, monkeypatch):
    import sys
    import threading
    monkeypatch.setattr(keys, "HOT_KEY_VERIFIES", 3)
    monkeypatch.setattr(keys, "HOT_KEY_CACHE_SIZE", 2)
    kps = [generate_keypair(bytes([i]) * 32) for i in range(51, 55)]
    sigs = [sign(kp.secret_key, b"msg") for kp in kps]
    errors = []

    def worker(offset):
        try:
            for i in range(12):
                k = (i + offset) % len(kps)
                pk = kps[k].public_key
                if not verify(pk, b"msg", sigs[k]) or verify(pk, b"msh", sigs[k]):
                    errors.append(k)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert 0 < len(keys._hot_tables) <= 2 and not set(keys._hot_tables) & set(keys._successes)
    for pk, table in keys._hot_tables.items():
        assert encode_point((int.from_bytes(table[:32], "big"), int.from_bytes(table[32:64], "big"))) == pk
