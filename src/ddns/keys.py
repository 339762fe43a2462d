"""secp256k1 ECDSA with deterministic nonces, plus address derivation.

Signing is deterministic (RFC 6979 nonce derivation) and signatures are
low-s normalized, so serialized transactions are reproducible byte for
byte across runs.

Scalar multiplication, in pure Python, takes one of three paths, with
techniques from libsecp256k1:
- fixed-base tables, for G and for hot keys: 32 windows of 8 bits, 255
  affine points each, packed as 32-byte x, y into one 510 KB string, so
  k * Q is at most 32 mixed Jacobian+affine additions and no doublings.
  Building one takes about 8,100 additions and one batched (Montgomery)
  inversion (0.10-0.14 s). G's is built on the first multiplication by G, so
  commands that never sign or verify do not pay for it; `sign` uses only it;
- segmented tables, for every other key (the public-key scalar u2 of
  `verify`): the GLV endomorphism splits u2 into two halves of about 128
  bits, k1 + k2 * LAMBDA; each half is cut into KEY_SEGMENTS = 4 parts of
  SEGMENT_BITS = 33 bits (the top part takes every remaining bit), and part
  j runs width-5 NAF digits against the odd multiples of Q_j = 2^(33 j) * Q,
  so all eight parts share one doubling chain of at most 34 steps instead
  of about 129;
- hot keys: a key's HOT_KEY_VERIFIES-th successful verify builds its own
  fixed-base table, and from then on `verify` walks G's windows and the
  key's into one accumulator: at most 64 mixed additions, no doubling chain
  and no final Jacobian addition, about 0.6x the time of a segmented verify.

Each public key is decoded (a 256-bit modular square root) and its
segmented table built at most once while it stays in a bounded LRU cache,
keyed by the 33-byte encoding and shared by `verify`, `derive_address` and
`multisig_address`. An entry holds, for each Q_j, the affine Q_j, 3Q_j, ...,
15Q_j with their LAMBDA images, made affine with one batched inversion and
packed into one 3,072-byte string (negation happens at lookup): about 3.2 KB
per key under tracemalloc, so 13 MB for all KEY_CACHE_SIZE = 4096 keys.
Building it takes 99 extra doublings, so a key's first verify is dearer
than with a single table and every later one cheaper; the two even out at
about two to three verifies per cached key. A malformed key raises
InvalidKeyError on every call and is never cached.

Promotion to a hot key is a ski-rental choice: renting is a segmented
verify, buying is the table. On a shared 2-vCPU VM with Python 3.11,
building it costs 0.10-0.14 s (median 0.12 s) and saves 0.43-0.61 ms on
each later verify (median 0.48 ms, a hot verify taking 0.59x the time), so
it pays for itself after 250 to 280 verifies. HOT_KEY_VERIFIES = 256 lies
in that range, and a key that stops right after promotion costs at most
about twice the cheaper choice. Only successful verifies count, so neither
forged signatures nor `derive_address` and `multisig_address` can make a
key hot, and a key's first verifies cost what they did. The counts are
kept for at most KEY_CACHE_SIZE keys, least recently counted dropped first.
Hot tables take 510 KB each and are kept for HOT_KEY_CACHE_SIZE = 16 keys,
about 8 MB, least recently used dropped first; a dropped key starts
counting again. The table is built from the point at the head of the key's
segmented table, so promotion decodes nothing.

`verify` compares r with R's x projectively (X == r * Z^2, or (r + N) * Z^2
when r + N < P), so it inverts nothing after the multiplication.
"""

from __future__ import annotations

import hmac
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .encoding import b58check_encode, b58check_decode, hash160, sha256
from .errors import InvalidKeyError, InvalidSeedError, InvalidAddressError

# Curve parameters (secp256k1)
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

ADDRESS_VERSION = 0x37      # single-key addresses
MULTISIG_VERSION = 0x4B     # 2-of-3 policy addresses

_INF = None  # point at infinity marker in Jacobian routines
_LOW_256 = (1 << 256) - 1

# The secp256k1 endomorphism: LAMBDA * (x, y) == (BETA * x, y) for every point.
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# A short basis of the lattice {(a, b) : a + b * LAMBDA == 0 mod N}.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1

WINDOW_BITS = 8  # fixed-base tables: 32 windows of 8 bits
ROW_BYTES = 64 * ((1 << WINDOW_BITS) - 1)  # one window: 255 packed affine points
WNAF_WIDTH = 5
KEY_SEGMENTS = 4   # parts per GLV half of u2, each with its own key table
SEGMENT_BITS = 33  # bits per part; the top part takes every remaining bit
KEY_CACHE_SIZE = 4096  # public keys whose decoded point and tables are kept
ADDRESS_CACHE_SIZE = 4096  # addresses kept decoded (text -> bytes) and encoded
HOT_KEY_VERIFIES = 256  # successful verifies that earn a key its own fixed-base table
HOT_KEY_CACHE_SIZE = 16  # keys whose fixed-base tables are kept (about 8 MB)


def _inv(a: int, m: int) -> int:
    return pow(a, -1, m)


def _jac_double(p):
    if p is _INF or p[1] == 0:
        return _INF
    x, y, z = p
    ys = (y * y) % P
    s = (4 * x * ys) % P
    m = (3 * x * x) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ys * ys) % P
    nz = (2 * y * z) % P
    return (nx, ny, nz)


def _jac_add(p, q):
    if p is _INF:
        return q
    if q is _INF:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1s = (z1 * z1) % P
    z2s = (z2 * z2) % P
    u1 = (x1 * z2s) % P
    u2 = (x2 * z1s) % P
    s1 = (y1 * z2s * z2) % P
    s2 = (y2 * z1s * z1) % P
    if u1 == u2:
        if s1 != s2:
            return _INF
        return _jac_double(p)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    hs = (h * h) % P
    hc = (hs * h) % P
    u1hs = (u1 * hs) % P
    nx = (r * r - hc - 2 * u1hs) % P
    ny = (r * (u1hs - nx) - s1 * hc) % P
    nz = (h * z1 * z2) % P
    return (nx, ny, nz)


def _madd(p, q):
    """Jacobian `p` plus affine `q`: the Z2 = 1 case of `_jac_add`."""
    if p is _INF:
        return (q[0], q[1], 1)
    x1, y1, z1 = p
    z1s = (z1 * z1) % P
    h = (q[0] * z1s - x1) % P
    r = (q[1] * z1s * z1 - y1) % P
    if h == 0:
        return _jac_double(p) if r == 0 else _INF
    hs = (h * h) % P
    hc = (hs * h) % P
    v = (x1 * hs) % P
    nx = (r * r - hc - 2 * v) % P
    return (nx, (r * (v - nx) - y1 * hc) % P, (z1 * h) % P)


def _to_affine(p):
    if p is _INF:
        return None
    x, y, z = p
    zi = _inv(z, P)
    zi2 = (zi * zi) % P
    return ((x * zi2) % P, (y * zi2 * zi) % P)


def _batch_affine(points):
    """Affine forms of finite Jacobian points, with one inversion in all
    (Montgomery's trick: invert the product, then peel off each factor)."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = (acc * z) % P
    inv = _inv(acc, P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        zi = (inv * prefix[i]) % P
        inv = (inv * z) % P
        zi2 = (zi * zi) % P
        out[i] = ((x * zi2) % P, (y * zi2 * zi) % P)
    return out


def _fixed_table(point) -> bytes:
    """Window i of 32 holds j * 2^(8i) * point for j = 1..255, affine and packed
    as big-endian 32-byte x, y (510 KB), made affine with one batched inversion."""
    size = (1 << WINDOW_BITS) - 1
    points = []
    base = point
    for _ in range(256 // WINDOW_BITS):
        row = [(base[0], base[1], 1)]
        for _ in range(size - 1):
            row.append(_madd(row[-1], base))
        points.extend(row)
        base = _to_affine(_jac_double(row[size // 2]))  # 2 * (128 * base)
    return b"".join(c.to_bytes(32, "big") for x, y in _batch_affine(points) for c in (x, y))


def _fixed_mul(table: bytes, k: int, acc=_INF):
    """acc + k * point (Jacobian) from `_fixed_table(point)`, 0 <= k < 2^256:
    one mixed addition per nonzero window, no doublings."""
    mask = (1 << WINDOW_BITS) - 1
    row = 0
    while k:
        digit = k & mask
        if digit:
            at = row + 64 * (digit - 1)
            xy = int.from_bytes(table[at:at + 64], "big")
            acc = _madd(acc, (xy >> 256, xy & _LOW_256))
        k >>= WINDOW_BITS
        row += ROW_BYTES
    return acc


@lru_cache(maxsize=1)
def _g_table() -> bytes:
    """G's fixed-base table, built on the first multiplication by G."""
    return _fixed_table((GX, GY))


def _g_mul(k: int):
    """k * G (Jacobian) for 0 <= k < 2^256."""
    return _fixed_mul(_g_table(), k)


def _wnaf(k: int) -> list:
    """Width-5 NAF of k >= 0, least significant digit first: every digit is 0
    or odd in [-15, 15], and any nonzero digit is followed by four zeros."""
    digits = []
    full = 1 << WNAF_WIDTH
    while k:
        zeros = (k & -k).bit_length() - 1
        digits += [0] * zeros
        k >>= zeros
        digit = k & (full - 1)
        if digit >= full >> 1:
            digit -= full
        digits.append(digit)
        k = (k - digit) >> 1
    return digits


def _glv_split(k: int):
    """(k1, k2), each of at most 129 bits, with k1 + k2 * LAMBDA == k mod N."""
    c1 = (_B2 * k + N // 2) // N
    c2 = (-_B1 * k + N // 2) // N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _odd_multiples(point) -> bytes:
    """For each segment base Q_j = 2^(SEGMENT_BITS * j) * Q, j = 0..KEY_SEGMENTS-1,
    the odd multiples Q_j, 3Q_j, ..., 15Q_j of the affine point Q, each packed
    as x, y, BETA * x (its LAMBDA image shares y): KEY_SEGMENTS * 24
    big-endian 32-byte field elements, made affine with one inversion."""
    base = (point[0], point[1], 1)
    odd = []
    for j in range(KEY_SEGMENTS):
        if j:
            for _ in range(SEGMENT_BITS):
                base = _jac_double(base)
        twice = _jac_double(base)
        odd.append(base)
        for _ in range((1 << (WNAF_WIDTH - 2)) - 1):
            odd.append(_jac_add(odd[-1], twice))
    return b"".join(c.to_bytes(32, "big")
                    for x, y in _batch_affine(odd) for c in (x, y, (x * BETA) % P))


def _segments(k: int) -> list:
    """k >= 0 as KEY_SEGMENTS parts of SEGMENT_BITS bits, least significant
    first; the top part takes every remaining bit, so none is dropped."""
    mask = (1 << SEGMENT_BITS) - 1
    parts = []
    for _ in range(KEY_SEGMENTS - 1):
        parts.append(k & mask)
        k >>= SEGMENT_BITS
    return parts + [k]


def _mul(odd: bytes, k: int):
    """k * Q (Jacobian) from `_odd_multiples(Q)`. k is split as k1 + k2 * LAMBDA,
    each half into `_segments`, and the width-5 NAFs of all the parts share
    one doubling chain: part j of a half adds its digits against Q_j's table."""
    k1, k2 = _glv_split(k % N)
    nafs = []
    for half, column in ((k1, 0), (k2, 64)):  # x, or BETA * x for the LAMBDA half
        for j, part in enumerate(_segments(abs(half))):
            nafs.append((_wnaf(part), j << (WNAF_WIDTH - 2), column, half < 0))
    # adds[i]: the affine points added right after the doubling for digit i
    adds = [[] for _ in range(max(len(digits) for digits, _, _, _ in nafs))]
    for digits, first, column, negate in nafs:
        for i, d in enumerate(digits):
            if d:
                at = 96 * (first + (abs(d) >> 1))  # the entry x, y, BETA * x of |d| * Q_j
                y = int.from_bytes(odd[at + 32:at + 64], "big")
                if (d < 0) != negate:
                    y = P - y
                adds[i].append((int.from_bytes(odd[at + column:at + column + 32], "big"), y))
    acc = _INF
    for points in reversed(adds):
        acc = _jac_double(acc)
        for q in points:
            acc = _madd(acc, q)
    return acc


def _on_curve(point) -> bool:
    x, y = point
    return (y * y - x * x * x - 7) % P == 0


def encode_point(point) -> bytes:
    x, y = point
    return bytes([0x02 + (y & 1)]) + x.to_bytes(32, "big")


def decode_point(data: bytes):
    if len(data) != 33 or data[0] not in (0x02, 0x03):
        raise InvalidKeyError("public key must be 33 bytes, compressed")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise InvalidKeyError("public key x out of field range")
    y_sq = (pow(x, 3, P) + 7) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if (y * y) % P != y_sq:
        raise InvalidKeyError("x is not on the curve")
    if (y & 1) != (data[0] & 1):
        y = P - y
    return (x, y)


@dataclass(frozen=True)
class Signature:
    r: int
    s: int

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 64:
            raise InvalidKeyError("signature must be 64 bytes (r||s)")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))


@dataclass(frozen=True)
class KeyPair:
    secret_key: int
    public_key: bytes  # compressed, 33 bytes

    @cached_property
    def address(self) -> str:
        return derive_address(self.public_key)


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Derive a keypair; deterministic when `seed` (32 bytes) is given."""
    if seed is None:
        import os
        seed = os.urandom(32)
    if len(seed) != 32:
        raise InvalidSeedError("seed must be exactly 32 bytes")
    sk = int.from_bytes(seed, "big") % N
    if sk == 0:
        raise InvalidSeedError("seed reduces to the zero scalar")
    return KeyPair(sk, encode_point(_to_affine(_g_mul(sk))))


def _rfc6979_nonce(sk: int, digest: bytes) -> int:
    """Deterministic nonce per RFC 6979 (SHA-256, qlen = 256)."""
    key = sk.to_bytes(32, "big")
    z = int.from_bytes(digest, "big") % N
    v = b"\x01" * 32
    k = b"\x00" * 32
    msg = key + z.to_bytes(32, "big")
    k = hmac.new(k, v + b"\x00" + msg, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + msg, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign(sk: int, message: bytes) -> Signature:
    """ECDSA over SHA-256(message); deterministic, low-s normalized."""
    if not 0 < sk < N:
        raise InvalidKeyError("secret key out of range")
    digest = sha256(message)
    z = int.from_bytes(digest, "big") % N
    while True:
        k = _rfc6979_nonce(sk, digest)
        point = _to_affine(_g_mul(k))
        r = point[0] % N
        if r == 0:
            digest = sha256(digest)
            continue
        s = (_inv(k, N) * (z + r * sk)) % N
        if s == 0:
            digest = sha256(digest)
            continue
        if s > N // 2:
            s = N - s
        return Signature(r, s)


@lru_cache(maxsize=KEY_CACHE_SIZE)
def _key_table(pk: bytes) -> bytes:
    """`_odd_multiples` of the point `pk` encodes, built once per cached key.

    A malformed encoding raises InvalidKeyError on every call: lru_cache
    keeps no result for a call that raises.
    """
    point = decode_point(pk)
    if not _on_curve(point):
        raise InvalidKeyError("public key not on curve")
    return _odd_multiples(point)


def _x_is(point, r: int) -> bool:
    """x mod N == r for the affine x = X / Z^2 of a finite Jacobian point,
    without inverting Z: for 0 < r < N, x is r or, if r + N < P, r + N."""
    x, _, z = point
    zz = (z * z) % P
    return (x - r * zz) % P == 0 or (r + N < P and (x - (r + N) * zz) % P == 0)


# Successful verifies per key that is not hot, least recently counted first,
# and the fixed-base tables of hot keys, least recently used first.
_successes: OrderedDict = OrderedDict()
_hot_tables: OrderedDict = OrderedDict()
_hot_lock = threading.Lock()


def _count_success(pk: bytes, odd: bytes):
    """Count a successful verify by a key that is not hot; the HOT_KEY_VERIFIES-th
    builds its fixed-base table from the point at the head of its key table."""
    with _hot_lock:
        count = _successes.pop(pk, 0) + 1
        if count < HOT_KEY_VERIFIES:
            _successes[pk] = count
            if len(_successes) > KEY_CACHE_SIZE:
                _successes.popitem(last=False)
            return
    table = _fixed_table((int.from_bytes(odd[:32], "big"), int.from_bytes(odd[32:64], "big")))
    with _hot_lock:
        _hot_tables[pk] = table
        _successes.pop(pk, None)  # counted by another thread during the build
        if len(_hot_tables) > HOT_KEY_CACHE_SIZE:
            _hot_tables.popitem(last=False)  # it starts counting again


def _hot_table(pk: bytes):
    """The fixed-base table of a hot key, marked as just used, or None."""
    with _hot_lock:
        table = _hot_tables.get(pk)
        if table is not None:
            _hot_tables.move_to_end(pk)
        return table


def verify(pk: bytes, message: bytes, sig: Signature) -> bool:
    """True iff `sig` validates SHA-256(message) under `pk`.

    Malformed signature values yield False; a malformed public-key
    encoding raises InvalidKeyError instead.
    """
    odd = _key_table(pk)
    if not (0 < sig.r < N and 0 < sig.s < N):
        return False
    z = int.from_bytes(sha256(message), "big") % N
    w = _inv(sig.s, N)
    u1 = (z * w) % N
    u2 = (sig.r * w) % N
    hot = _hot_table(pk)
    if hot is not None:
        pt = _fixed_mul(hot, u2, _g_mul(u1))
    else:
        pt = _jac_add(_g_mul(u1), _mul(odd, u2))
    ok = pt is not _INF and _x_is(pt, sig.r)
    if ok and hot is None:
        _count_success(pk, odd)
    return ok


def derive_address(pk: bytes) -> str:
    _key_table(pk)  # reject malformed encodings up front
    return b58check_encode(ADDRESS_VERSION, hash160(pk))


@lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def decode_address(text: str) -> tuple:
    """Return (version, 20-byte payload); raises InvalidAddressError, on every
    call for a malformed text, since lru_cache keeps no result that raised."""
    version, payload = b58check_decode(text)
    if version not in (ADDRESS_VERSION, MULTISIG_VERSION):
        raise InvalidAddressError(f"unknown address version {version:#x}")
    if len(payload) != 20:
        raise InvalidAddressError("address payload must be 20 bytes")
    return version, payload


def multisig_address(keys: list[bytes]) -> str:
    """Address committing to a sorted set of policy public keys."""
    for key in keys:
        _key_table(key)
    return b58check_encode(MULTISIG_VERSION, hash160(b"".join(sorted(keys))))
