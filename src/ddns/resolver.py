"""DDNSD: the resolution core plus UDP and DNS-over-HTTPS front ends.

Resolution path for a managed name: L1 -> `registry.binding_of`, the asset
that binds the name and the name's owner label -> chain lookup of that
asset's content id -> L2 (the asset's parsed control file, under that id)
-> store fetch, integrity check and parse -> record query at the owner
label -> respond and populate caches. Relative names in records expand
under the binding asset's DNS name (RFC 1035's `$ORIGIN`), not the file's
`domain` field. Each L1 entry holds only a name's own records, from its own
domain's control file, so it depends on exactly one content id, and a hit
is served only while the published view still binds that id;
`Resolver.resolve` follows CNAMEs itself, one cached name at a time. So an
answer follows the chain from the first resolve after `add_block` publishes
the view, with no TTL and no `notice_update`. `stats["chain_reads"]` counts
binding lookups on an L1 miss; a hit's check reads the view directly.
Non-managed TLDs are forwarded upstream over UDP, outside the resolver lock,
or answered REFUSED when no upstream is configured. A store payload whose
hash mismatches its on-chain content id, or that does not parse, is
answered SERVFAIL and never cached, with one warning per content id while
its reads keep failing.
"""

from __future__ import annotations

import base64
import logging
import secrets
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import registry
from .cache import CacheHierarchy
from .controlfile import parse_control_file, query_records
from .errors import (CorruptionError, DdnsError, DnsParseError, NotFoundError,
                     StoreUnavailableError)
from .wire import (CLASS_IN, DnsMessage, FORMERR, NOERROR, NOTIMP, NXDOMAIN,
                   REFUSED, SERVFAIL, Question, TYPE_CODES, TYPE_NAMES,
                   decode_message, decode_name, encode_message, record_to_rr,
                   truncate_for_udp)

log = logging.getLogger(__name__)

MAX_CNAME_DEPTH = 8
TYPE_CNAME = TYPE_CODES["CNAME"]
UPSTREAM_TIMEOUT = 2.0


@dataclass(frozen=True)
class ResolverConfig:
    managed_tlds: tuple = ("ddns", "phi")
    upstream: tuple | None = None          # (host, port)
    udp_host: str = "127.0.0.1"
    udp_port: int = 5353
    doh_host: str = "127.0.0.1"
    doh_port: int = 8053
    cache_dir: str | None = None           # unread; kept while benchmark/ledger.py passes it


@dataclass(frozen=True)
class Answer:
    rcode: int
    records: tuple = ()


class Resolver:
    def __init__(self, config: ResolverConfig, chain_view, store,
                 caches: CacheHierarchy | None = None):
        """`chain_view` is a zero-arg callable returning the current names: a
        `ChainView` published after each whole block, or a `ChainState`."""
        self.config = config
        self.chain_view = chain_view
        self.store = store
        self.caches = caches or CacheHierarchy()
        self.stats = {"queries": 0, "l1_hits": 0, "l2_hits": 0, "chain_reads": 0,
                      "store_reads": 0, "forwarded": 0}
        self._lock = threading.Lock()
        self._failing = set()  # content ids whose last read failed

    # -- public API ---------------------------------------------------------

    def resolve(self, qname: str, qtype: int) -> Answer:
        qname = qname.lower().rstrip(".")
        with self._lock:
            self.stats["queries"] += 1
            if self._managed(qname):
                answer = self._resolve_cached(qname, qtype)
                records, depth = answer.records, 0
                # Only a NOERROR answer has records; follow its CNAME.
                while answer.records and answer.records[0].rtype == TYPE_CNAME != qtype:
                    if depth == MAX_CNAME_DEPTH:
                        return Answer(SERVFAIL)
                    target = decode_name(answer.records[-1].rdata, 0)[0].lower()
                    if not self._managed(target):
                        break
                    depth += 1
                    answer = self._resolve_cached(target, qtype)
                    if answer.rcode == SERVFAIL:
                        return answer
                    records += answer.records  # a chased NXDOMAIN adds nothing
                return Answer(NOERROR, records) if depth else answer
        return self._forward(qname, qtype)

    def notice_update(self, dns_name: str):
        """Drop a name's domain from L2; kept while benchmark/ledger.py calls it."""
        with self._lock:
            self.caches.invalidate(dns_name)

    # -- internals ----------------------------------------------------------

    def _managed(self, qname: str) -> bool:
        return qname.rsplit(".", 1)[-1] in self.config.managed_tlds

    def _resolve_cached(self, qname: str, qtype: int) -> Answer:
        """A managed name's own answer, from the caches or its control file."""
        l1_key = (qname, qtype)
        view = self.chain_view()
        answer = self.caches.l1.get(l1_key, view.assets)
        if answer is not None:
            self.stats["l1_hits"] += 1
            return answer
        asset_name, label, content_id = self._binding(qname, view)
        if content_id is None:
            # Negative answers are cached in L1 only.
            answer = Answer(NXDOMAIN)
            self.caches.l1.put(l1_key, answer, asset_name)
            return answer
        cf = self.caches.l2.get(asset_name, content_id)
        if cf is not None:
            self.stats["l2_hits"] += 1
        else:
            cf = self._control_file(qname, asset_name, content_id)
            if cf is None:
                return Answer(SERVFAIL)
            self.caches.l2.put(asset_name, content_id, cf)
        rtype_name = TYPE_NAMES.get(qtype)
        entries = query_records(cf, label, rtype_name) if rtype_name else ()
        origin = registry.asset_to_dns(asset_name)
        answer = Answer(NOERROR, tuple(record_to_rr(qname, entry.rtype, entry, origin)
                                       for entry in entries))
        self.caches.l1.put(l1_key, answer, asset_name, content_id)
        return answer

    def _binding(self, qname: str, view):
        """`registry.binding_of(qname)` and the content id `view` binds it to
        (None: unbound); all None for a name no asset can bind."""
        try:
            asset_name, label = registry.binding_of(qname)
        except DdnsError:
            return None, None, None
        self.stats["chain_reads"] += 1
        asset = registry.lookup_domain(view, asset_name)
        return asset_name, label, None if asset is None else asset.ipfs_hash

    def _control_file(self, qname: str, asset_name: str, content_id: str):
        """The domain's control file from the store, verified and parsed, or
        None when the store or the parse fails. A failure is never cached, so
        an object put later is served on the next resolve, and it is logged
        once per content id while that id's reads keep failing."""
        self.stats["store_reads"] += 1
        try:
            cf = parse_control_file(self.store.get(content_id))
        except (NotFoundError, CorruptionError, StoreUnavailableError) as exc:
            warning = ("store failure for %s (%s): %s", qname, content_id, exc)
        except Exception as exc:
            warning = ("unparseable control file for %s: %s", asset_name, exc)
        else:
            self._failing.discard(content_id)
            return cf
        if content_id not in self._failing:
            self._failing.add(content_id)
            log.warning(*warning)
        return None

    def _forward(self, qname: str, qtype: int) -> Answer:
        if self.config.upstream is None:
            return Answer(REFUSED)
        with self._lock:
            self.stats["forwarded"] += 1
        for _ in range(2):  # one retry
            # An unpredictable ID, a socket connected to the upstream (the
            # kernel drops datagrams from any other address) and a check of
            # the echoed question make an off-path spoofed reply a guess.
            query = DnsMessage(id=secrets.randbits(16), rd=True,
                               questions=(Question(qname, qtype),))
            try:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                    sock.connect(self.config.upstream)
                    sock.send(encode_message(query))
                    reply = _await_reply(sock, query)
                return Answer(reply.rcode, reply.answers)
            except OSError:  # a timeout or an unreachable upstream
                continue
        return Answer(SERVFAIL)

    # -- wire handling ------------------------------------------------------

    def handle_wire_query(self, data: bytes, udp: bool = True) -> bytes | None:
        try:
            query = decode_message(data)
        except DnsParseError:
            if len(data) >= 2:
                msg_id = int.from_bytes(data[:2], "big")
                return encode_message(DnsMessage(id=msg_id, qr=True, rcode=FORMERR))
            return None
        if query.qr or not query.questions:
            return encode_message(DnsMessage(id=query.id, qr=True, rd=query.rd,
                                             rcode=FORMERR))
        if query.opcode != 0:
            return encode_message(DnsMessage(id=query.id, qr=True, rd=query.rd,
                                             opcode=query.opcode, rcode=NOTIMP))
        question = query.questions[0]
        if question.qclass != CLASS_IN:
            answer = Answer(REFUSED)
        else:
            answer = self.resolve(question.qname, question.qtype)
        qname = question.qname.lower().rstrip(".")
        response = DnsMessage(
            id=query.id, qr=True, rd=query.rd,
            aa=self._managed(qname),
            ra=self.config.upstream is not None,
            rcode=answer.rcode,
            questions=(question,),
            answers=answer.records)
        return truncate_for_udp(response) if udp else encode_message(response)


def _await_reply(sock: socket.socket, query: DnsMessage) -> DnsMessage:
    """The first datagram on `sock`, within the upstream timeout, that answers
    `query`: QR set, the same ID and the same question. Others are dropped."""
    deadline = time.monotonic() + UPSTREAM_TIMEOUT
    while (left := deadline - time.monotonic()) > 0:
        sock.settimeout(left)
        try:
            reply = decode_message(sock.recv(65535))
        except DnsParseError:
            continue
        echoed = tuple(Question(q.qname.lower(), q.qtype, q.qclass) for q in reply.questions)
        if reply.qr and reply.id == query.id and echoed == query.questions:
            return reply
    raise socket.timeout("no matching reply from the upstream")


# ---------------------------------------------------------------------------
# UDP front end


class UdpServer:
    def __init__(self, resolver: Resolver, host: str, port: int):
        self.resolver = resolver
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((host, port))
        self.address = self.sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self):
        self._thread.start()
        return self

    def _loop(self):
        self.sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                data, peer = self.sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                reply = self.resolver.handle_wire_query(data, udp=True)
            except Exception:
                log.exception("query handling failed")
                continue
            if reply is not None:
                try:
                    self.sock.sendto(reply, peer)
                except OSError:
                    pass

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=2)
        self.sock.close()


def serve_udp(resolver: Resolver, host: str | None = None, port: int | None = None) -> UdpServer:
    host = host if host is not None else resolver.config.udp_host
    port = port if port is not None else resolver.config.udp_port
    return UdpServer(resolver, host, port).start()


# ---------------------------------------------------------------------------
# DoH front end (RFC 8484 over plain HTTP; TLS termination out of scope)

DOH_MEDIA_TYPE = "application/dns-message"
DOH_POLL_INTERVAL = 0.05  # seconds between shutdown checks; bounds `stop`


class _DohHandler(BaseHTTPRequestHandler):
    resolver: Resolver = None  # set on the server class
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _reply_dns(self, payload: bytes):
        self.send_response(200)
        self.send_header("Content-Type", DOH_MEDIA_TYPE)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _reply_error(self, status: int, text: str):
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        url = urlparse(self.path)
        if url.path != "/dns-query":
            return self._reply_error(404, "not found")
        params = parse_qs(url.query)
        if "dns" not in params:
            return self._reply_error(400, "missing dns parameter")
        b64 = params["dns"][0]
        try:
            wire = base64.urlsafe_b64decode(b64 + "=" * (-len(b64) % 4))
        except Exception:
            return self._reply_error(400, "invalid base64url")
        self._handle(wire)

    def do_POST(self):
        url = urlparse(self.path)
        if url.path != "/dns-query":
            return self._reply_error(404, "not found")
        if self.headers.get("Content-Type", "").split(";")[0].strip() != DOH_MEDIA_TYPE:
            return self._reply_error(415, f"expected {DOH_MEDIA_TYPE}")
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return self._reply_error(400, "bad content length")
        if not 0 < length <= 64 * 1024:
            return self._reply_error(400, "bad content length")
        self._handle(self.rfile.read(length))

    def _handle(self, wire: bytes):
        reply = self.server.resolver.handle_wire_query(wire, udp=False)
        if reply is None:
            return self._reply_error(400, "unparseable dns message")
        self._reply_dns(reply)


class DohServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, resolver: Resolver, host: str, port: int):
        super().__init__((host, port), _DohHandler)
        self.resolver = resolver
        self._thread = threading.Thread(target=self.serve_forever, daemon=True,
                                        kwargs={"poll_interval": DOH_POLL_INTERVAL})

    @property
    def address(self):
        return self.server_address

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self.shutdown()
        self._thread.join(timeout=2)
        self.server_close()


def serve_doh(resolver: Resolver, host: str | None = None, port: int | None = None) -> DohServer:
    host = host if host is not None else resolver.config.doh_host
    port = port if port is not None else resolver.config.doh_port
    return DohServer(resolver, host, port).start()
