"""RFC 1035 message encoding and decoding.

Owner names are compression-pointer encoded on output; rdata names are
always emitted uncompressed, and the decoder normalizes any compressed
rdata names it meets, so decode(encode(m)) == m for everything this
module emits. The decoder is a fuzz target: malformed input raises
DnsParseError, never crashes or loops (pointers must point strictly
backwards).
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, replace

from .errors import DnsParseError

CLASS_IN = 1
MAX_UDP_PAYLOAD = 512
MAX_NAME_LENGTH = 255

TYPE_CODES = {
    "A": 1, "NS": 2, "CNAME": 5, "SOA": 6, "PTR": 12, "HINFO": 13,
    "MX": 15, "TXT": 16, "RP": 17, "AAAA": 28, "LOC": 29, "SRV": 33,
    "NAPTR": 35, "SSHFP": 44, "TLSA": 52, "URI": 256, "CAA": 257,
}
TYPE_NAMES = {v: k for k, v in TYPE_CODES.items()}
# Logical control-file types carried as TXT on the wire.
TXT_ALIASES = {"SPF": "TXT", "DKIM": "TXT", "DMARC": "TXT"}

# rcodes
NOERROR, FORMERR, SERVFAIL, NXDOMAIN, NOTIMP, REFUSED = 0, 1, 2, 3, 4, 5

# rdata layouts that embed domain names, as (fixed-prefix-bytes, name-count)
_NAME_RDATA = {2: (0, 1), 5: (0, 1), 12: (0, 1), 15: (2, 1), 17: (0, 2),
               6: (0, 2), 33: (6, 1)}


def qtype_code(rtype: str) -> int:
    rtype = rtype.upper()
    rtype = TXT_ALIASES.get(rtype, rtype)
    if rtype not in TYPE_CODES:
        raise DnsParseError(f"unsupported record type {rtype}")
    return TYPE_CODES[rtype]


@dataclass(frozen=True)
class Question:
    qname: str
    qtype: int
    qclass: int = CLASS_IN


@dataclass(frozen=True)
class ResourceRecord:
    name: str
    rtype: int
    rclass: int
    ttl: int
    rdata: bytes


@dataclass(frozen=True)
class DnsMessage:
    id: int = 0
    qr: bool = False
    opcode: int = 0
    aa: bool = False
    tc: bool = False
    rd: bool = False
    ra: bool = False
    rcode: int = 0
    questions: tuple = ()
    answers: tuple = ()
    authorities: tuple = ()
    additionals: tuple = ()


# ---------------------------------------------------------------------------
# Names


def _split_name(name: str):
    name = name.rstrip(".")
    if not name:
        return []
    labels = name.split(".")
    for label in labels:
        if not label or len(label) > 63:
            raise DnsParseError(f"bad label in name {name!r}")
    return labels


def encode_name(name: str, compression: dict | None = None, offset: int = 0) -> bytes:
    """Wire-encode `name`; uses/extends `compression` (suffix -> offset)."""
    labels = _split_name(name)
    out = bytearray()
    for i in range(len(labels)):
        suffix = ".".join(labels[i:]).lower()
        if compression is not None and suffix in compression:
            out += struct.pack(">H", 0xC000 | compression[suffix])
            return bytes(out)
        if compression is not None and offset + len(out) < 0x4000:
            compression[suffix] = offset + len(out)
        raw = labels[i].encode("ascii", "strict")
        out += bytes([len(raw)]) + raw
    out += b"\x00"
    if len(out) > MAX_NAME_LENGTH + 2:
        raise DnsParseError(f"name too long: {name!r}")
    return bytes(out)


def decode_name(data: bytes, pos: int) -> tuple:
    """Return (name, new_pos). Pointers must point strictly backwards."""
    labels = []
    jumps = 0
    end = None
    total = 0
    cursor = pos
    while True:
        if cursor >= len(data):
            raise DnsParseError("truncated name")
        length = data[cursor]
        if length & 0xC0 == 0xC0:
            if cursor + 1 >= len(data):
                raise DnsParseError("truncated compression pointer")
            target = ((length & 0x3F) << 8) | data[cursor + 1]
            if end is None:
                end = cursor + 2
            if target >= cursor:
                raise DnsParseError("compression pointer does not point backwards")
            cursor = target
            jumps += 1
            if jumps > 64:
                raise DnsParseError("too many compression jumps")
            continue
        if length & 0xC0:
            raise DnsParseError("reserved label type")
        cursor += 1
        if length == 0:
            break
        if cursor + length > len(data):
            raise DnsParseError("truncated label")
        total += length + 1
        if total > MAX_NAME_LENGTH:
            raise DnsParseError("name exceeds 255 octets")
        try:
            labels.append(data[cursor:cursor + length].decode("ascii"))
        except UnicodeDecodeError:
            raise DnsParseError("non-ascii label")
        cursor += length
    name = ".".join(labels)
    if labels and name.count(".") >= len(labels):
        # a dotted name could not tell a dot inside a label from a boundary
        raise DnsParseError("label contains a dot")
    return name, (end if end is not None else cursor)


# ---------------------------------------------------------------------------
# Messages


def encode_message(msg: DnsMessage) -> bytes:
    flags = ((1 if msg.qr else 0) << 15) | ((msg.opcode & 0xF) << 11) \
        | ((1 if msg.aa else 0) << 10) | ((1 if msg.tc else 0) << 9) \
        | ((1 if msg.rd else 0) << 8) | ((1 if msg.ra else 0) << 7) \
        | (msg.rcode & 0xF)
    out = bytearray(struct.pack(">HHHHHH", msg.id, flags,
                                len(msg.questions), len(msg.answers),
                                len(msg.authorities), len(msg.additionals)))
    compression: dict = {}
    for q in msg.questions:
        out += encode_name(q.qname, compression, len(out))
        out += struct.pack(">HH", q.qtype, q.qclass)
    for rr in (*msg.answers, *msg.authorities, *msg.additionals):
        out += encode_name(rr.name, compression, len(out))
        out += struct.pack(">HHIH", rr.rtype, rr.rclass, rr.ttl, len(rr.rdata))
        out += rr.rdata
    return bytes(out)


def _normalize_rdata(data: bytes, rd_start: int, rd_len: int, rtype: int) -> bytes:
    """Re-encode rdata with any compressed names expanded."""
    layout = _NAME_RDATA.get(rtype)
    raw = data[rd_start:rd_start + rd_len]
    if layout is None:
        return raw
    prefix_len, name_count = layout
    if len(raw) < prefix_len:
        raise DnsParseError("rdata shorter than its fixed prefix")
    out = bytearray(raw[:prefix_len])
    pos = rd_start + prefix_len
    for _ in range(name_count):
        name, pos = decode_name(data, pos)
        out += encode_name(name)
    if rtype == 6:  # SOA: five u32 counters follow the two names
        if pos + 20 > rd_start + rd_len:
            raise DnsParseError("truncated SOA rdata")
        out += data[pos:pos + 20]
        pos += 20
    if pos != rd_start + rd_len:
        raise DnsParseError("rdata length mismatch")
    return bytes(out)


def decode_message(data: bytes) -> DnsMessage:
    if len(data) > 64 * 1024:
        raise DnsParseError("message exceeds 64 KiB")
    if len(data) < 12:
        raise DnsParseError("message shorter than header")
    mid, flags, qd, an, ns, ar = struct.unpack(">HHHHHH", data[:12])
    pos = 12
    questions = []
    for _ in range(qd):
        qname, pos = decode_name(data, pos)
        if pos + 4 > len(data):
            raise DnsParseError("truncated question")
        qtype, qclass = struct.unpack(">HH", data[pos:pos + 4])
        pos += 4
        questions.append(Question(qname, qtype, qclass))

    def read_records(count):
        nonlocal pos
        records = []
        for _ in range(count):
            name, pos2 = decode_name(data, pos)
            pos = pos2
            if pos + 10 > len(data):
                raise DnsParseError("truncated record header")
            rtype, rclass, ttl, rd_len = struct.unpack(">HHIH", data[pos:pos + 10])
            pos += 10
            if pos + rd_len > len(data):
                raise DnsParseError("truncated rdata")
            rdata = _normalize_rdata(data, pos, rd_len, rtype)
            pos += rd_len
            records.append(ResourceRecord(name, rtype, rclass, ttl, rdata))
        return tuple(records)

    answers = read_records(an)
    authorities = read_records(ns)
    additionals = read_records(ar)
    return DnsMessage(
        id=mid,
        qr=bool(flags & 0x8000), opcode=(flags >> 11) & 0xF,
        aa=bool(flags & 0x0400), tc=bool(flags & 0x0200),
        rd=bool(flags & 0x0100), ra=bool(flags & 0x0080),
        rcode=flags & 0xF,
        questions=tuple(questions), answers=answers,
        authorities=authorities, additionals=additionals)


def build_query(qname: str, rtype: str, msg_id: int = 0, rd: bool = True) -> DnsMessage:
    return DnsMessage(id=msg_id, rd=rd,
                      questions=(Question(qname.rstrip("."), qtype_code(rtype)),))


def truncate_for_udp(msg: DnsMessage) -> bytes:
    """Encode for UDP; drop trailing records and set TC if over 512 bytes."""
    wire = encode_message(msg)
    if len(wire) <= MAX_UDP_PAYLOAD:
        return wire
    answers = list(msg.answers)
    candidate = replace(msg, tc=True, authorities=(), additionals=())
    while answers:
        answers.pop()
        candidate = replace(candidate, answers=tuple(answers))
        wire = encode_message(candidate)
        if len(wire) <= MAX_UDP_PAYLOAD:
            return wire
    return encode_message(replace(candidate, answers=()))


# ---------------------------------------------------------------------------
# rdata construction from control-file entries


def _char_string(text: bytes) -> bytes:
    if len(text) > 255:
        raise DnsParseError("character-string exceeds 255 octets")
    return bytes([len(text)]) + text


def _txt_chunks(text: str) -> bytes:
    raw = text.encode("utf-8")
    if not raw:
        return _char_string(b"")
    out = bytearray()
    for i in range(0, len(raw), 255):
        out += _char_string(raw[i:i + 255])
    return bytes(out)


def _absolute(value: str, zone: str) -> str:
    # Dot-containing names are taken literally; bare labels are relative
    # to the zone's origin, the DNS name that binds the control file.
    return value if "." in value else f"{value}.{zone}"


def _loc_size(meters: float) -> int:
    cm = max(int(round(meters * 100)), 0)
    exponent = 0
    while cm > 9 and exponent < 9:
        cm //= 10
        exponent += 1
    return (min(cm, 9) << 4) | exponent


def entry_rdata(rtype: str, entry, zone: str) -> bytes:
    """Wire rdata for a control-file RecordEntry."""
    get = entry.get
    if rtype == "A":
        return ipaddress.IPv4Address(get("address")).packed
    if rtype == "AAAA":
        return ipaddress.IPv6Address(get("address")).packed
    if rtype in ("CNAME", "NS", "PTR"):
        return encode_name(_absolute(get("target"), zone))
    if rtype == "MX":
        return struct.pack(">H", get("priority")) + encode_name(_absolute(get("server"), zone))
    if rtype in ("TXT", "SPF", "DKIM", "DMARC"):
        return _txt_chunks(get("text"))
    if rtype == "SRV":
        return struct.pack(">HHH", get("priority"), get("weight"), get("port")) \
            + encode_name(_absolute(get("target"), zone))
    if rtype == "SOA":
        return encode_name(_absolute(get("mname"), zone)) \
            + encode_name(_absolute(get("rname"), zone)) \
            + struct.pack(">IIIII", get("serial"), get("refresh"),
                          get("retry"), get("expire"), get("minimum"))
    if rtype == "CAA":
        return bytes([get("flags")]) + _char_string(get("tag").encode()) \
            + get("value").encode()
    if rtype == "TLSA":
        return bytes([get("usage"), get("selector"), get("matching")]) \
            + bytes.fromhex(get("cert_data"))
    if rtype == "SSHFP":
        return bytes([get("algorithm"), get("fp_type")]) + bytes.fromhex(get("fingerprint"))
    if rtype == "URI":
        return struct.pack(">HH", get("priority"), get("weight")) + get("target").encode()
    if rtype == "NAPTR":
        return struct.pack(">HH", get("order"), get("preference")) \
            + _char_string(get("flags").encode()) \
            + _char_string(get("services").encode()) \
            + _char_string(get("regexp").encode()) \
            + encode_name(get("replacement") if get("replacement") != "." else "")
    if rtype == "LOC":
        lat = int(round(get("latitude") * 3600 * 1000)) + (1 << 31)
        lon = int(round(get("longitude") * 3600 * 1000)) + (1 << 31)
        alt = int(round((get("altitude") + 100_000) * 100))
        return struct.pack(">BBBBIII", 0, _loc_size(get("size")),
                           _loc_size(get("horiz_pre")), _loc_size(get("vert_pre")),
                           lat, lon, alt)
    if rtype == "HINFO":
        return _char_string(get("cpu").encode()) + _char_string(get("os").encode())
    if rtype == "RP":
        return encode_name(_absolute(get("mbox"), zone)) \
            + encode_name(_absolute(get("txt"), zone))
    raise DnsParseError(f"cannot encode rdata for {rtype}")


def record_to_rr(owner: str, rtype: str, entry, zone: str) -> ResourceRecord:
    wire_type = qtype_code(rtype)
    return ResourceRecord(owner, wire_type, CLASS_IN, entry.ttl,
                          entry_rdata(rtype, entry, zone))
