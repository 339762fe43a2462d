"""Domain control files: the versioned JSON record sets stored in the
content store and referenced by hash on-chain.

Twenty record types are supported. SPF, DKIM and DMARC are distinct
logical types here but go out on the DNS wire as TXT. Canonical
serialization (sorted keys, no whitespace, defaults applied) is what
gets hashed, so content ids are reproducible by hand.
"""

from __future__ import annotations

import ipaddress
import json
import re
from dataclasses import dataclass

from .errors import ControlFileError
from .validation import ValidationResult, invalid, valid

CONTROL_FILE_VERSION = "2.0"
MAX_CONTROL_FILE_SIZE = 64 * 1024
DEFAULT_TTL = 3600
MIN_TTL = 1
MAX_TTL = 86_400

_NAME_RE = re.compile(r"^(?!-)[a-z0-9_-]{1,63}(?<!-)$")
_HEX_RE = re.compile(r"^(?:[0-9a-fA-F]{2})+$")

CAA_TAGS = ("issue", "issuewild", "iodef")


def _is_dns_name(value) -> bool:
    if not isinstance(value, str) or not value or len(value) > 253:
        return False
    labels = value.rstrip(".").split(".")
    return all(_NAME_RE.match(label) for label in labels)


def _is_label(value) -> bool:
    if value == "@":
        return True
    if not isinstance(value, str) or not value:
        return False
    return all(_NAME_RE.match(part) for part in value.split("."))


def _u(value, lo, hi) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi


def _text(value, limit=2048) -> bool:
    return isinstance(value, str) and len(value.encode()) <= limit


# Per-type field tables: name -> (required, checker). The checker gets the
# field value and returns bool.
_RECORD_FIELDS = {
    "A": {"address": (True, lambda v: isinstance(v, str) and _is_ipv4(v))},
    "AAAA": {"address": (True, lambda v: isinstance(v, str) and _is_ipv6(v))},
    "CNAME": {"target": (True, _is_dns_name)},
    "MX": {"server": (True, _is_dns_name), "priority": (True, lambda v: _u(v, 0, 65535))},
    "TXT": {"text": (True, _text)},
    "SPF": {"text": (True, lambda v: _text(v) and v.startswith("v=spf1"))},
    "DKIM": {"text": (True, lambda v: _text(v) and "p=" in v)},
    "DMARC": {"text": (True, lambda v: _text(v) and v.startswith("v=DMARC1"))},
    "SRV": {"priority": (True, lambda v: _u(v, 0, 65535)),
            "weight": (True, lambda v: _u(v, 0, 65535)),
            "port": (True, lambda v: _u(v, 0, 65535)),
            "target": (True, _is_dns_name)},
    "NS": {"target": (True, _is_dns_name)},
    "PTR": {"target": (True, _is_dns_name)},
    "SOA": {"mname": (True, _is_dns_name), "rname": (True, _is_dns_name),
            "serial": (True, lambda v: _u(v, 0, 2 ** 32 - 1)),
            "refresh": (True, lambda v: _u(v, 0, 2 ** 32 - 1)),
            "retry": (True, lambda v: _u(v, 0, 2 ** 32 - 1)),
            "expire": (True, lambda v: _u(v, 0, 2 ** 32 - 1)),
            "minimum": (True, lambda v: _u(v, 0, 2 ** 32 - 1))},
    "CAA": {"flags": (True, lambda v: _u(v, 0, 255)),
            "tag": (True, lambda v: v in CAA_TAGS),
            "value": (True, lambda v: _text(v, 255))},
    "TLSA": {"usage": (True, lambda v: _u(v, 0, 3)),
             "selector": (True, lambda v: _u(v, 0, 1)),
             "matching": (True, lambda v: _u(v, 0, 2)),
             "cert_data": (True, lambda v: isinstance(v, str) and bool(_HEX_RE.match(v)))},
    "SSHFP": {"algorithm": (True, lambda v: _u(v, 1, 4)),
              "fp_type": (True, lambda v: _u(v, 1, 2)),
              "fingerprint": (True, lambda v: isinstance(v, str) and bool(_HEX_RE.match(v)))},
    "URI": {"priority": (True, lambda v: _u(v, 0, 65535)),
            "weight": (True, lambda v: _u(v, 0, 65535)),
            "target": (True, lambda v: _text(v, 255) and len(v) > 0)},
    "NAPTR": {"order": (True, lambda v: _u(v, 0, 65535)),
              "preference": (True, lambda v: _u(v, 0, 65535)),
              "flags": (True, lambda v: _text(v, 255)),
              "services": (True, lambda v: _text(v, 255)),
              "regexp": (True, lambda v: _text(v, 255)),
              "replacement": (True, lambda v: v == "." or _is_dns_name(v))},
    "LOC": {"latitude": (True, lambda v: _num(v, -90, 90)),
            "longitude": (True, lambda v: _num(v, -180, 180)),
            "altitude": (True, lambda v: _num(v, -100_000, 42_849_672)),
            "size": (False, lambda v: _num(v, 0, 90_000_000)),
            "horiz_pre": (False, lambda v: _num(v, 0, 90_000_000)),
            "vert_pre": (False, lambda v: _num(v, 0, 90_000_000))},
    "HINFO": {"cpu": (True, lambda v: _text(v, 255)),
              "os": (True, lambda v: _text(v, 255))},
    "RP": {"mbox": (True, _is_dns_name), "txt": (True, _is_dns_name)},
}

RECORD_TYPES = tuple(_RECORD_FIELDS)

# Optional LOC precision fields get these defaults on canonicalization.
_LOC_DEFAULTS = {"size": 1.0, "horiz_pre": 10_000.0, "vert_pre": 10.0}


def _is_ipv4(value: str) -> bool:
    try:
        ipaddress.IPv4Address(value)
        return True
    except ValueError:
        return False


def _is_ipv6(value: str) -> bool:
    try:
        ipaddress.IPv6Address(value)
        return True
    except ValueError:
        return False


def _num(value, lo, hi) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and lo <= value <= hi


@dataclass(frozen=True)
class RecordEntry:
    rtype: str
    fields: tuple  # sorted (key, value) pairs

    def get(self, key, default=None):
        return dict(self.fields).get(key, default)

    @property
    def ttl(self) -> int:
        return self.get("ttl", DEFAULT_TTL)

    def to_dict(self) -> dict:
        return dict(self.fields)

    @classmethod
    def from_dict(cls, rtype: str, data: dict) -> "RecordEntry":
        return cls(rtype, tuple(sorted(data.items())))


@dataclass(frozen=True)
class ControlFile:
    version: str
    domain: str
    records: tuple  # ((label, ((rtype, (RecordEntry, ...)), ...)), ...)

    def labels(self):
        return [label for label, _ in self.records]

    def entries_at(self, label: str) -> dict:
        for lbl, by_type in self.records:
            if lbl == label:
                return {rtype: list(entries) for rtype, entries in by_type}
        return {}

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "domain": self.domain,
            "records": {
                label: {rtype: [e.to_dict() for e in entries]
                        for rtype, entries in by_type}
                for label, by_type in self.records
            },
        }


def validate_record(rtype: str, fields: dict) -> ValidationResult:
    """Per-type field validation, including TTL bounds."""
    schema = _RECORD_FIELDS.get(rtype)
    if schema is None:
        return invalid("unknown-type", rtype)
    if not isinstance(fields, dict):
        return invalid("bad-entry", "record entry must be an object")
    for field_name, (required, checker) in schema.items():
        if field_name not in fields:
            if required:
                return invalid("missing-field", f"{rtype}.{field_name}")
            continue
        if not checker(fields[field_name]):
            return invalid(f"bad-{field_name}", f"{rtype}.{field_name}={fields[field_name]!r}")
    if "ttl" in fields and not _u(fields["ttl"], MIN_TTL, MAX_TTL):
        return invalid("bad-ttl", f"{rtype}.ttl={fields['ttl']!r}")
    extras = set(fields) - set(schema) - {"ttl"}
    if extras:
        return invalid("unknown-field", f"{rtype}.{sorted(extras)[0]}")
    return valid()


def _normalize_entry(rtype: str, fields: dict) -> dict:
    out = dict(fields)
    out.setdefault("ttl", DEFAULT_TTL)
    if rtype == "LOC":
        for key, default in _LOC_DEFAULTS.items():
            out.setdefault(key, default)
    return out


def parse_control_file(raw: bytes) -> ControlFile:
    """Parse and fully validate control-file bytes."""
    if len(raw) > MAX_CONTROL_FILE_SIZE:
        raise ControlFileError("too-large", detail=f"{len(raw)} bytes")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ControlFileError("syntax-error", detail=str(exc))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ControlFileError("syntax-error", detail=f"line {exc.lineno} col {exc.colno}")
    if not isinstance(doc, dict):
        raise ControlFileError("schema-error", path="$", detail="top level must be an object")
    extras = set(doc) - {"version", "domain", "records"}
    if extras:
        raise ControlFileError("schema-error", path=sorted(extras)[0],
                               detail="unknown top-level field")
    if doc.get("version") != CONTROL_FILE_VERSION:
        raise ControlFileError("schema-error", path="version",
                               detail=f"expected {CONTROL_FILE_VERSION!r}")
    domain = doc.get("domain")
    if not _is_dns_name(domain) or domain != domain.lower():
        raise ControlFileError("schema-error", path="domain",
                               detail="must be a valid lowercase DNS name")
    records_doc = doc.get("records")
    if not isinstance(records_doc, dict):
        raise ControlFileError("schema-error", path="records", detail="must be an object")
    records = []
    for label, by_type_doc in records_doc.items():
        if not _is_label(label):
            raise ControlFileError("schema-error", path=f"records.{label}",
                                   detail="invalid owner label")
        if not isinstance(by_type_doc, dict):
            raise ControlFileError("schema-error", path=f"records.{label}",
                                   detail="must be an object")
        if "CNAME" in by_type_doc:
            if label == "@":
                raise ControlFileError("validation-error", path=f"records.{label}.CNAME",
                                       detail="apex may not hold a CNAME")
            if len(by_type_doc) > 1:
                raise ControlFileError("validation-error", path=f"records.{label}",
                                       detail="CNAME label may not hold other types")
        by_type = []
        for rtype, entries_doc in by_type_doc.items():
            if rtype not in _RECORD_FIELDS:
                raise ControlFileError("schema-error", path=f"records.{label}.{rtype}",
                                       detail=f"unknown record type {rtype}")
            if not isinstance(entries_doc, list) or not entries_doc:
                raise ControlFileError("schema-error", path=f"records.{label}.{rtype}",
                                       detail="must be a non-empty list")
            entries = []
            for i, entry_doc in enumerate(entries_doc):
                result = validate_record(rtype, entry_doc if isinstance(entry_doc, dict) else {})
                if not result.ok:
                    raise ControlFileError("validation-error",
                                           path=f"records.{label}.{rtype}[{i}]",
                                           detail=f"{result.code}: {result.detail}")
                entries.append(RecordEntry.from_dict(rtype, _normalize_entry(rtype, entry_doc)))
            by_type.append((rtype, tuple(entries)))
        records.append((label, tuple(sorted(by_type))))
    return ControlFile(CONTROL_FILE_VERSION, domain, tuple(sorted(records)))


def serialize_canonical(cf: ControlFile) -> bytes:
    """Deterministic bytes: sorted keys, compact separators, UTF-8."""
    return json.dumps(cf.to_dict(), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def query_records(cf: ControlFile, label: str, rtype: str):
    """Entries answering `rtype` at `label`; falls back to the label's CNAME.

    A TXT query also gets the label's SPF, DKIM and DMARC entries, which
    go out on the wire as TXT. No wildcard synthesis: an absent label is
    simply an empty answer.
    """
    by_type = cf.entries_at(label)
    wanted = (rtype, "SPF", "DKIM", "DMARC") if rtype == "TXT" else (rtype,)
    entries = [entry for logical in wanted for entry in by_type.get(logical, ())]
    if entries:
        return entries
    if "CNAME" in by_type and rtype != "CNAME":
        return list(by_type["CNAME"])
    return []
