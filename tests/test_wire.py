import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_bytes
from ddns.controlfile import parse_control_file
from ddns.errors import DnsParseError
from ddns.wire import (CLASS_IN, DnsMessage, Question, ResourceRecord,
                       TYPE_CODES, build_query, decode_message, decode_name,
                       encode_message, encode_name, entry_rdata, qtype_code,
                       record_to_rr, truncate_for_udp)

# Golden bytes hand-derived from the RFC 1035 octet layout (section 4):
# header 12 bytes, then QNAME as length-prefixed labels, QTYPE, QCLASS.
GOLDEN_QUERY = bytes.fromhex(
    "1234"          # id
    "0100"          # flags: RD only
    "0001000000000000"
    "076578616d706c650464646e7300"  # 7"example" 4"ddns" 0
    "0001"          # QTYPE A
    "0001"          # QCLASS IN
)

# Response reusing the question name via a compression pointer to offset 12.
GOLDEN_RESPONSE = bytes.fromhex(
    "1234"
    "8580"          # QR, AA, RD, RA
    "0001000100000000"
    "076578616d706c650464646e7300"
    "0001" "0001"
    "c00c"          # pointer to offset 12
    "0001" "0001"
    "00000e10"      # ttl 3600
    "0004" "c0a80164"  # rdata 192.168.1.100
)


def test_golden_query_encode():
    assert encode_message(build_query("example.ddns", "A", msg_id=0x1234)) \
        == GOLDEN_QUERY


def test_golden_query_decode():
    msg = decode_message(GOLDEN_QUERY)
    assert msg.id == 0x1234 and msg.rd and not msg.qr
    assert msg.questions == (Question("example.ddns", 1, 1),)


def test_golden_response_round_trip():
    msg = decode_message(GOLDEN_RESPONSE)
    assert msg.qr and msg.aa and msg.ra and msg.rcode == 0
    rr = msg.answers[0]
    assert (rr.name, rr.rtype, rr.ttl, rr.rdata) \
        == ("example.ddns", 1, 3600, bytes([192, 168, 1, 100]))
    # re-encoding compresses the answer name back to the same bytes
    assert encode_message(msg) == GOLDEN_RESPONSE


def test_compression_pointer_forward_rejected():
    # pointer at the qname position pointing to itself
    evil = GOLDEN_QUERY[:12] + b"\xc0\x0c" + GOLDEN_QUERY[26:]
    with pytest.raises(DnsParseError):
        decode_message(evil)


def test_pointer_loop_rejected():
    # two pointers at offsets 12 and 14 chasing each other
    data = bytes(12) + b"\xc0\x0e\xc0\x0c"
    with pytest.raises(DnsParseError):
        decode_name(data, 12)


def test_name_length_limits():
    with pytest.raises(DnsParseError):
        encode_name("a" * 64 + ".ddns")
    with pytest.raises(DnsParseError):
        encode_name(".".join(["abcdefgh"] * 32))  # > 255 octets


def test_decode_rejects_truncation():
    for cut in (3, 11, 13, len(GOLDEN_RESPONSE) - 2):
        with pytest.raises(DnsParseError):
            decode_message(GOLDEN_RESPONSE[:cut])


def test_truncate_for_udp_sets_tc():
    rrs = tuple(ResourceRecord(f"n{i}.t.ddns", 16, CLASS_IN, 60,
                               bytes([200]) + bytes(200)) for i in range(5))
    msg = DnsMessage(id=1, qr=True, questions=(Question("t.ddns", 16),),
                     answers=rrs)
    assert len(encode_message(msg)) > 512
    wire = truncate_for_udp(msg)
    assert len(wire) <= 512
    out = decode_message(wire)
    assert out.tc and len(out.answers) < 5


def test_qtype_code_aliases():
    assert qtype_code("spf") == qtype_code("TXT") == 16
    assert qtype_code("A") == 1
    with pytest.raises(DnsParseError):
        qtype_code("BOGUS")


def test_rdata_for_every_record_type():
    cf = parse_control_file(fixture_bytes("all_types_zone.json"))
    zone = cf.domain
    count = 0
    for label, by_type in cf.records:
        owner = zone if label == "@" else f"{label}.{zone}"
        for rtype, entries in by_type:
            for entry in entries:
                rr = record_to_rr(owner, rtype, entry, zone)
                count += 1
                # every record must survive a message round trip
                msg = DnsMessage(id=7, qr=True, answers=(rr,))
                assert decode_message(encode_message(msg)).answers == (rr,)
    assert count >= 20


def test_specific_rdata_bytes():
    cf = parse_control_file(fixture_bytes("example_zone.json"))
    a = cf.entries_at("@")["A"][0]
    assert entry_rdata("A", a, "example.ddns") == bytes([192, 168, 1, 100])
    mx = cf.entries_at("mail")["MX"][0]
    assert entry_rdata("MX", mx, "example.ddns") == \
        struct.pack(">H", 10) + b"\x04mail\x07example\x04ddns\x00"


def test_mx_bare_label_is_zone_relative():
    cf = parse_control_file(
        b'{"version":"2.0","domain":"z.ddns","records":'
        b'{"@":{"MX":[{"server":"mx1","priority":5}]}}}')
    rdata = entry_rdata("MX", cf.entries_at("@")["MX"][0], "z.ddns")
    assert rdata == struct.pack(">H", 5) + b"\x03mx1\x01z\x04ddns\x00"


def _all_types_reply() -> bytes:
    """A reply whose answers carry every record type of the all-types zone."""
    cf = parse_control_file(fixture_bytes("all_types_zone.json"))
    zone = cf.domain
    answers = tuple(record_to_rr(zone if label == "@" else f"{label}.{zone}", rtype, entry, zone)
                    for label, by_type in cf.records for rtype, entries in by_type
                    for entry in entries)
    assert len({rtype for _, by_type in cf.records for rtype, _ in by_type}) == 20
    return encode_message(DnsMessage(id=7, qr=True, aa=True, questions=(Question(zone, 255),),
                                     answers=answers))


ALL_TYPES_REPLY = _all_types_reply()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_single_byte_mutation_raises_or_decodes_to_a_message_that_round_trips(data):
    mutated = bytearray(ALL_TYPES_REPLY)
    mutated[data.draw(st.integers(0, len(mutated) - 1))] = data.draw(st.integers(0, 255))
    try:
        msg = decode_message(bytes(mutated))
    except DnsParseError:
        return
    assert decode_message(encode_message(msg)) == msg


def test_a_label_holding_a_dot_is_rejected():
    # "ddns" with its last byte set to "." would decode to "kitchensink.ddn.",
    # which re-encodes as the different name "kitchensink.ddn".
    at = ALL_TYPES_REPLY.index(b"\x04ddns\x00") + 4
    for label in (b"ddn.", b"d.ns", b".dns"):
        mutated = ALL_TYPES_REPLY[:at - 3] + label + ALL_TYPES_REPLY[at + 1:]
        with pytest.raises(DnsParseError, match="dot"):
            decode_message(mutated)


def test_decoder_fuzz_never_crashes():
    rng = random.Random(1337)
    for _ in range(20_000):
        blob = rng.randbytes(rng.randint(0, 80))
        try:
            decode_message(blob)
        except DnsParseError:
            pass


_name = st.lists(st.from_regex(r"[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?", fullmatch=True),
                 min_size=1, max_size=4).map(".".join)
_rr = st.builds(
    ResourceRecord,
    name=_name,
    rtype=st.sampled_from([1, 16, 28, 257]),  # types with opaque rdata
    rclass=st.just(CLASS_IN),
    ttl=st.integers(min_value=0, max_value=2**31 - 1),
    rdata=st.binary(max_size=64),
)


@settings(max_examples=200, deadline=None)
@given(st.builds(
    DnsMessage,
    id=st.integers(min_value=0, max_value=0xFFFF),
    qr=st.booleans(), aa=st.booleans(), tc=st.booleans(),
    rd=st.booleans(), ra=st.booleans(),
    rcode=st.integers(min_value=0, max_value=5),
    questions=st.lists(st.builds(Question, qname=_name,
                                 qtype=st.sampled_from(sorted(TYPE_CODES.values())),
                                 qclass=st.just(CLASS_IN)),
                       max_size=3).map(tuple),
    answers=st.lists(_rr, max_size=4).map(tuple),
    authorities=st.lists(_rr, max_size=2).map(tuple),
    additionals=st.lists(_rr, max_size=2).map(tuple),
))
def test_message_round_trip_property(msg):
    assert decode_message(encode_message(msg)) == msg
