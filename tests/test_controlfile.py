import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_bytes, make_zone
from ddns.controlfile import (DEFAULT_TTL,
                              MAX_CONTROL_FILE_SIZE, MAX_TTL, MIN_TTL,
                              RECORD_TYPES, parse_control_file,
                              query_records, serialize_canonical,
                              validate_record)
from ddns.errors import ControlFileError
from ddns.store import content_id_of


def test_example_zone_parses():
    cf = parse_control_file(fixture_bytes("example_zone.json"))
    assert cf.version == "2.0"
    assert cf.domain == "example.ddns"
    apex = cf.entries_at("@")
    assert apex["A"][0].get("address") == "192.168.1.100"
    assert apex["A"][0].ttl == 3600
    www = cf.entries_at("www")
    assert www["CNAME"][0].get("target") == "example.ddns"
    mail = cf.entries_at("mail")
    assert mail["MX"][0].get("priority") == 10
    assert mail["MX"][0].get("server") == "mail.example.ddns"
    # MX entry had no explicit ttl: default applies
    assert mail["MX"][0].ttl == DEFAULT_TTL


def test_canonical_serialization_is_deterministic():
    raw = fixture_bytes("example_zone.json")
    a = serialize_canonical(parse_control_file(raw))
    # same data, different key order and whitespace
    doc = json.loads(raw)
    shuffled = json.dumps(doc, indent=4, sort_keys=False).encode()
    b = serialize_canonical(parse_control_file(shuffled))
    assert a == b
    assert content_id_of(a) == content_id_of(b)
    # canonical form is itself a valid control file (fixed point)
    assert serialize_canonical(parse_control_file(a)) == a


def test_all_twenty_types_accepted():
    cf = parse_control_file(fixture_bytes("all_types_zone.json"))
    present = {rtype for _, by_type in cf.records for rtype, _ in by_type}
    assert present == set(RECORD_TYPES)
    assert len(RECORD_TYPES) == 20


# One rejection fixture per record type: a required field broken.
REJECTS = {
    "A": {"address": "999.1.2.3"},
    "AAAA": {"address": "not-v6"},
    "CNAME": {"target": "-bad-.example"},
    "MX": {"server": "mx", "priority": 70000},
    "TXT": {"text": 5},
    "SPF": {"text": "spf1 mx -all"},          # missing v=spf1 prefix
    "DKIM": {"text": "v=DKIM1; k=rsa"},       # missing p=
    "DMARC": {"text": "p=reject"},            # missing v=DMARC1
    "SRV": {"priority": 0, "weight": 0, "port": -1, "target": "svc"},
    "NS": {"target": ""},
    "PTR": {},                                 # missing target
    "SOA": {"mname": "ns1", "rname": "root", "serial": -1, "refresh": 1,
            "retry": 1, "expire": 1, "minimum": 1},
    "CAA": {"flags": 0, "tag": "issuer", "value": "x"},  # bad tag
    "TLSA": {"usage": 4, "selector": 0, "matching": 0, "cert_data": "aa"},
    "SSHFP": {"algorithm": 0, "fp_type": 1, "fingerprint": "aa"},
    "URI": {"priority": 1, "weight": 1, "target": ""},
    "NAPTR": {"order": 1, "preference": 1, "flags": "S", "services": "x",
              "regexp": "", "replacement": "..bad"},
    "LOC": {"latitude": 91.0, "longitude": 0.0, "altitude": 0.0},
    "HINFO": {"cpu": "X", "os": 3},
    "RP": {"mbox": "a b", "txt": "x"},
}


@pytest.mark.parametrize("rtype", sorted(REJECTS))
def test_rejection_fixture_per_type(rtype):
    assert not validate_record(rtype, REJECTS[rtype]).ok


def test_ttl_boundaries():
    def zone_with_ttl(ttl):
        return make_zone("t.ddns", {"@": {"A": [{"address": "1.2.3.4", "ttl": ttl}]}})

    for bad in (MIN_TTL - 1, MAX_TTL + 1, "3600", 1.5):
        with pytest.raises(ControlFileError):
            parse_control_file(zone_with_ttl(bad))
    for ok in (MIN_TTL, MAX_TTL):
        cf = parse_control_file(zone_with_ttl(ok))
        assert cf.entries_at("@")["A"][0].ttl == ok


def test_apex_cname_rejected():
    with pytest.raises(ControlFileError) as err:
        parse_control_file(make_zone("t.ddns", {"@": {"CNAME": [{"target": "x.ddns"}]}}))
    assert "apex" in str(err.value)


def test_cname_exclusivity():
    with pytest.raises(ControlFileError):
        parse_control_file(make_zone("t.ddns", {
            "www": {"CNAME": [{"target": "t.ddns"}],
                    "A": [{"address": "1.2.3.4"}]}}))


def test_unknown_record_type_rejected():
    with pytest.raises(ControlFileError):
        parse_control_file(make_zone("t.ddns", {"@": {"SPAM": [{"x": 1}]}}))


def test_unknown_field_rejected():
    with pytest.raises(ControlFileError):
        parse_control_file(make_zone("t.ddns", {
            "@": {"A": [{"address": "1.2.3.4", "color": "red"}]}}))


def test_wrong_version_rejected():
    doc = json.loads(fixture_bytes("example_zone.json"))
    doc["version"] = "1.0"
    with pytest.raises(ControlFileError):
        parse_control_file(json.dumps(doc).encode())


def test_unknown_top_level_field_rejected():
    doc = json.loads(fixture_bytes("example_zone.json"))
    doc["extra"] = True
    with pytest.raises(ControlFileError):
        parse_control_file(json.dumps(doc).encode())


def test_size_cap():
    big_text = "x" * 2000
    records = {f"label{i}": {"TXT": [{"text": big_text}]} for i in range(40)}
    raw = make_zone("big.ddns", records)
    assert len(raw) > MAX_CONTROL_FILE_SIZE
    with pytest.raises(ControlFileError) as err:
        parse_control_file(raw)
    assert err.value.reason == "too-large"


def test_syntax_error():
    with pytest.raises(ControlFileError) as err:
        parse_control_file(b"{not json")
    assert err.value.reason == "syntax-error"


def test_query_records_cname_fallback():
    cf = parse_control_file(fixture_bytes("example_zone.json"))
    assert query_records(cf, "@", "A")[0].get("address") == "192.168.1.100"
    # A query at a CNAME-only label falls back to the CNAME
    fallback = query_records(cf, "www", "A")
    assert len(fallback) == 1 and fallback[0].rtype == "CNAME"
    assert query_records(cf, "absent", "A") == []


_label = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?", fullmatch=True)
_octet = st.integers(min_value=0, max_value=255)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(_label, st.tuples(_octet, _octet, _octet, _octet),
                       min_size=1, max_size=8),
       st.integers(min_value=MIN_TTL, max_value=MAX_TTL))
def test_random_zone_canonical_round_trip(addresses, ttl):
    records = {label: {"A": [{"address": ".".join(map(str, quad)), "ttl": ttl}]}
               for label, quad in addresses.items()}
    raw = make_zone("prop.ddns", records)
    cf = parse_control_file(raw)
    canon = serialize_canonical(cf)
    assert parse_control_file(canon) == cf
    for label in records:
        assert cf.entries_at(label)["A"][0].ttl == ttl


ALL_TYPES_CANONICAL = serialize_canonical(parse_control_file(fixture_bytes("all_types_zone.json")))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_single_byte_mutation_raises_or_parses_to_a_canonical_fixed_point(data):
    mutated = bytearray(ALL_TYPES_CANONICAL)
    mutated[data.draw(st.integers(0, len(mutated) - 1))] = data.draw(st.integers(0, 255))
    try:
        cf = parse_control_file(bytes(mutated))
    except ControlFileError:
        return
    assert parse_control_file(serialize_canonical(cf)) == cf
