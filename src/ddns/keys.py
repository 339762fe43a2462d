"""secp256k1 ECDSA with deterministic nonces, plus address derivation.

Signing is deterministic (RFC 6979 nonce derivation) and signatures are
low-s normalized, so serialized transactions are reproducible byte for
byte across runs.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass

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


def _jac_mul(p, k):
    acc = _INF
    add = p
    while k:
        if k & 1:
            acc = _jac_add(acc, add)
        add = _jac_double(add)
        k >>= 1
    return acc


def _to_affine(p):
    if p is _INF:
        return None
    x, y, z = p
    zi = _inv(z, P)
    zi2 = (zi * zi) % P
    return ((x * zi2) % P, (y * zi2 * zi) % P)


def _point_mul(point, k):
    if point is None:
        return None
    return _to_affine(_jac_mul((point[0], point[1], 1), k))


_G = (GX, GY)


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

    @property
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
    pub = _point_mul(_G, sk)
    return KeyPair(sk, encode_point(pub))


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
        point = _point_mul(_G, k)
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


def verify(pk: bytes, message: bytes, sig: Signature) -> bool:
    """True iff `sig` validates SHA-256(message) under `pk`.

    Malformed signature values yield False; a malformed public-key
    encoding raises InvalidKeyError instead.
    """
    point = decode_point(pk)
    if not _on_curve(point):
        raise InvalidKeyError("public key not on curve")
    if not (0 < sig.r < N and 0 < sig.s < N):
        return False
    z = int.from_bytes(sha256(message), "big") % N
    w = _inv(sig.s, N)
    u1 = (z * w) % N
    u2 = (sig.r * w) % N
    pt = _to_affine(_jac_add(_jac_mul((GX, GY, 1), u1), _jac_mul((point[0], point[1], 1), u2)))
    if pt is None:
        return False
    return pt[0] % N == sig.r


def derive_address(pk: bytes) -> str:
    decode_point(pk)  # reject malformed encodings up front
    return b58check_encode(ADDRESS_VERSION, hash160(pk))


def decode_address(text: str) -> tuple:
    """Return (version, 20-byte payload); raises InvalidAddressError."""
    version, payload = b58check_decode(text)
    if version not in (ADDRESS_VERSION, MULTISIG_VERSION):
        raise InvalidAddressError(f"unknown address version {version:#x}")
    if len(payload) != 20:
        raise InvalidAddressError("address payload must be 20 bytes")
    return version, payload


def multisig_address(keys: list[bytes]) -> str:
    """Address committing to a sorted set of policy public keys."""
    for key in keys:
        decode_point(key)
    return b58check_encode(MULTISIG_VERSION, hash160(b"".join(sorted(keys))))
