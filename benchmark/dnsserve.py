"""Serving stage: read-only DNS over loopback against a `ddns serve` child.

Set-up registers the zones through `LocalNode`, starts the server on port 0,
reads the bound addresses from its stderr and sends every key once so the
caches are warm. Two timed phases follow one after the other, so the
transports do not compete: UDP as a closed loop with UDP_WINDOW queries
outstanding on one socket, then DoH POST on DOH_CONNECTIONS keep-alive
connections with one request in flight each. Stub resolvers wait for each
answer, hence closed loops.

Answers are checked against the zones the benchmark generated, with its own
wire parser rather than the program's. A reply body already verified for a key
is accepted by a set lookup, so checking does not bottleneck the generator.
"""

from __future__ import annotations

import ipaddress
import itertools
import json
import os
import resource
import select
import signal
import socket
import struct
import subprocess
import sys
import time

from common import copy_node_files, median, percentile, rng_for
from fixtures import ChainBuilder, serve_zone
from hostspeed import HostSpeed

UDP_WINDOW = 4
UDP_SLICE_S = 0.2
PROBES_PER_GAP = 2
# DoH answers are paced by a ~44 ms TCP stall and vary little, so most of the
# stage's time goes to UDP.
UDP_SHARE = 2 / 3
DOH_CONNECTIONS = 2
REPLY_TIMEOUT_S = 1.0
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
ZIPF_S = 1.0
CNAME_SHARE, NX_SHARE, REFUSED_SHARE = 0.10, 0.03, 0.03
EXTRA_NAMES = 64
SEQUENCE_LEN = 1 << 17    # queries, repeated in order when a run needs more

A, MX, TXT, AAAA, CNAME = 1, 15, 16, 28, 5
NOERROR, NXDOMAIN, REFUSED = 0, 3, 5
_DNAME_TYPES = (CNAME, MX)


def name_wire(name: str) -> bytes:
    out = bytearray()
    for label in name.rstrip(".").lower().split("."):
        out += bytes([len(label)]) + label.encode()
    return bytes(out) + b"\x00"


def char_string(text: str) -> bytes:
    raw = text.encode()
    return bytes([len(raw)]) + raw


# ---------------------------------------------------------------------------
# Independent response parser (the oracle must not share the program's codec)


class BadReply(Exception):
    pass


def _read_name(data: bytes, pos: int):
    labels = []
    end = None
    for _ in range(128):
        if pos >= len(data):
            raise BadReply("name runs past the message")
        length = data[pos]
        if length & 0xC0 == 0xC0:
            if end is None:
                end = pos + 2
            pos = ((length & 0x3F) << 8) | data[pos + 1]
            continue
        if length == 0:
            return ".".join(labels).lower(), (end if end is not None else pos + 1)
        labels.append(data[pos + 1:pos + 1 + length].decode("ascii"))
        pos += 1 + length
    raise BadReply("name pointer loop")


def parse_reply(data: bytes):
    """(flags, qname, qtype, sorted answers) where answers are (owner, type, rdata)."""
    if len(data) < 12:
        raise BadReply("short header")
    _, flags, qd, an = struct.unpack(">HHHH", data[:8])
    if qd != 1:
        raise BadReply("expected one question")
    qname, pos = _read_name(data, 12)
    qtype = struct.unpack(">H", data[pos:pos + 2])[0]
    pos += 4
    answers = []
    for _ in range(an):
        owner, pos = _read_name(data, pos)
        rtype, _, _, rdlen = struct.unpack(">HHIH", data[pos:pos + 10])
        pos += 10
        rdata = data[pos:pos + rdlen]
        if len(rdata) != rdlen:
            raise BadReply("truncated rdata")
        if rtype in _DNAME_TYPES:
            prefix = 2 if rtype == MX else 0
            target, _ = _read_name(data, pos + prefix)
            rdata = rdata[:prefix] + name_wire(target)
        answers.append((owner, rtype, rdata))
        pos += rdlen
    return flags, qname, qtype, sorted(answers)


# ---------------------------------------------------------------------------
# Keyspace and expected answers


class Keyspace:
    """Every (qname, qtype) the generator sends, with the answer it must get."""

    def __init__(self):
        self.keys = []          # (qname, qtype)
        self.expected = []      # (rcode, sorted answers)
        self.templates = []     # query wire without the 2-byte id
        self.verified = []      # reply bodies (after the id) already checked

    def add(self, qname, qtype, rcode, answers):
        self.keys.append((qname, qtype))
        self.expected.append((rcode, sorted(answers)))
        self.templates.append(struct.pack(">HHHHH", 0x0100, 1, 0, 0, 0)
                              + name_wire(qname) + struct.pack(">HH", qtype, 1))
        self.verified.append(set())
        return len(self.keys) - 1

    def add_zone(self, doc: dict):
        """Keys for one zone; returns (cname key, other keys)."""
        apex = doc["domain"]
        recs = doc["records"]
        apex_a = (apex, A, ipaddress.IPv4Address(recs["@"]["A"][0]["address"]).packed)
        mx = recs["@"]["MX"][0]
        others = [
            self.add(apex, A, NOERROR, [apex_a]),
            self.add(apex, MX, NOERROR, [(apex, MX, struct.pack(">H", mx["priority"])
                                          + name_wire(f"{mx['server']}.{apex}"))]),
            self.add(apex, TXT, NOERROR, [(apex, TXT, char_string(recs["@"]["TXT"][0]["text"]))]),
        ]
        www = "www." + apex
        cname = self.add(www, A, NOERROR, [(www, CNAME, name_wire(apex)), apex_a])
        for label, by_type in recs.items():
            if not label.startswith("h"):
                continue
            host = f"{label}.{apex}"
            others.append(self.add(host, A, NOERROR, [
                (host, A, ipaddress.IPv4Address(by_type["A"][0]["address"]).packed)]))
            others.append(self.add(host, AAAA, NOERROR, [
                (host, AAAA, ipaddress.IPv6Address(by_type["AAAA"][0]["address"]).packed)]))
        return cname, others

    def check(self, key: int, data: bytes) -> bool:
        body = data[2:]
        seen = self.verified[key]
        if body in seen:
            return True
        try:
            flags, qname, qtype, answers = parse_reply(data)
        except (BadReply, struct.error, UnicodeDecodeError, IndexError):
            return False
        rcode, expected = self.expected[key]
        good = (flags & 0x8000 and (flags & 0xF) == rcode
                and (qname, qtype) == self.keys[key] and answers == expected)
        if good:
            seen.add(body)
        return bool(good)


def build_sequence(rng, cname_keys, other_keys, nx_keys, refused_keys):
    """Zipf popularity over the managed keys, plus fixed CNAME/NX/REFUSED shares."""
    def zipf_cum(keys):
        order = list(keys)
        rng.shuffle(order)
        cum, total = [], 0.0
        for rank in range(1, len(order) + 1):
            total += 1.0 / rank ** ZIPF_S
            cum.append(total)
        return order, cum

    pools = [zipf_cum(cname_keys), zipf_cum(other_keys),
             (nx_keys, None), (refused_keys, None)]
    shares = [CNAME_SHARE, 1.0 - CNAME_SHARE - NX_SHARE - REFUSED_SHARE, NX_SHARE, REFUSED_SHARE]
    picks = rng.choices(range(4), weights=shares, k=SEQUENCE_LEN)
    seq = []
    for p in picks:
        keys, cum = pools[p]
        if cum is None:
            seq.append(rng.choice(keys))
        else:
            seq.append(rng.choices(keys, cum_weights=cum)[0])
    return seq


# ---------------------------------------------------------------------------
# The stage


class ServeStage:
    def __init__(self, root: str, repo_root: str, seed: int, size: dict, keys, tally,
                 spans_path: str | None = None, wrong_answer: bool = False):
        self.root = root
        self.repo_root = repo_root
        self.size = size
        self.keys = keys
        self.tally = tally
        self.spans_path = spans_path
        self.wrong_answer = wrong_answer
        self.rng = rng_for(seed, "serve")
        self.space = Keyspace()
        self.servers = []
        self.setup_cpu = []
        self.late = 0
        self.next_id = self.rng.randrange(1 << 16)

    # -- input generation -----------------------------------------------------

    def generate(self):
        gen_dir = os.path.join(self.root, "serve-gen")
        builder = ChainBuilder(gen_dir, self.keys)
        entries, cname_keys, other_keys = [], [], []
        for i in range(self.size["serve_domains"]):
            label = f"s{i}r{self.rng.randrange(10 ** 6)}"
            doc = serve_zone(f"{label}.ddns", self.rng)
            owner = self.keys.owners[i % len(self.keys.owners)]
            entries.append((f"DDNS/{label.upper()}", doc, owner))
            cname, others = self.space.add_zone(doc)
            cname_keys.append(cname)
            other_keys.extend(others)
        builder.register_all(entries)
        nx_keys = [self.space.add(f"nx{j}r{self.rng.randrange(10 ** 6)}.ddns", A, NXDOMAIN, [])
                   for j in range(EXTRA_NAMES)]
        refused_keys = [self.space.add(f"q{j}.example{self.rng.randrange(100)}.com", A, REFUSED, [])
                        for j in range(EXTRA_NAMES)]
        if self.wrong_answer:
            rcode, answers = self.space.expected[other_keys[0]]
            self.space.expected[other_keys[0]] = (NXDOMAIN, answers)
        self.queries = itertools.cycle(
            build_sequence(self.rng, cname_keys, other_keys, nx_keys, refused_keys))
        self.gen_dir = gen_dir

    # -- server lifecycle -----------------------------------------------------

    def setup(self, index: int, traced: bool = False):
        """Copy the chain and start a server on it (the warm-up is separate and untimed)."""
        data_dir = os.path.join(self.root, f"serve-{index}")
        copy_node_files(self.gen_dir, data_dir)
        config = os.path.join(data_dir, "node.json")
        with open(config, "w") as fh:
            json.dump({"data_dir": data_dir,
                       "resolver": {"udp_port": 0, "doh_port": 0,
                                    "cache_dir": os.path.join(data_dir, "resolver-cache")}}, fh)
        server = Server(self.repo_root, data_dir, config, spans=self.spans_path if traced else None)
        self.servers.append(server)
        server.start()
        return server

    def warm_up(self, server):
        """Send every key once, so the timed phases start with warm caches."""
        return self.udp_phase(server, iter(range(len(self.space.keys))))

    def stop_server(self, server, setup_only: bool):
        cpu = server.stop()
        if setup_only:
            self.setup_cpu.append(cpu)
        return cpu

    def close(self):
        for server in self.servers:
            server.stop()

    # -- UDP ------------------------------------------------------------------

    def _new_id(self, outstanding):
        while True:
            self.next_id = (self.next_id + 1) & 0xFFFF
            if self.next_id not in outstanding:
                return self.next_id

    def udp_phase(self, server, keys=None, seconds: float = 0.0, speed=None):
        """Closed loop: a new query goes out only when an answer comes back.

        The warm-up sends each of `keys` once and records no timings. A timed
        phase runs slices of UDP_SLICE_S until `seconds` have passed; a slice
        ends by waiting for its outstanding answers, and `speed` is probed
        before each slice and after the last, while no query is in flight.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.connect(server.udp)
        sock.settimeout(REPLY_TIMEOUT_S)
        slices = []
        try:
            if keys is not None:
                answered, _ = self._udp_loop(sock, iter(keys), None, warm_up=True)
                return {"answered": answered}
            deadline = time.perf_counter() + seconds
            speed.probe()
            while not slices or time.perf_counter() < deadline:
                t0, cpu0 = time.perf_counter(), time.process_time()
                answered, latencies = self._udp_loop(sock, self.queries, t0 + UDP_SLICE_S)
                slices.append((time.perf_counter() - t0, time.process_time() - cpu0,
                               answered, latencies))
                speed.probe()
        finally:
            sock.close()
        return _phase_result(slices, speed)

    def _udp_loop(self, sock, source, stop_at, warm_up=False):
        """Keep UDP_WINDOW queries outstanding until `source` runs out or
        `stop_at` passes, then wait for the answers still outstanding.

        Returns (answers received, latencies of the correct ones).
        """
        space, tally = self.space, self.tally
        outstanding = {}
        latencies = []
        answered = 0

        def send():
            key = next(source, None)
            if key is None:
                return
            mid = self._new_id(outstanding)
            outstanding[mid] = (key, time.perf_counter())
            sock.send(mid.to_bytes(2, "big") + space.templates[key])

        for _ in range(UDP_WINDOW):
            send()
        while outstanding:
            try:
                data = sock.recv(4096)
            except socket.timeout:
                tally.fail("serve-udp-timeout", len(outstanding))
                outstanding.clear()
                if stop_at is None or time.perf_counter() < stop_at:
                    for _ in range(UDP_WINDOW):
                        send()
                continue
            now = time.perf_counter()
            entry = outstanding.pop(int.from_bytes(data[:2], "big"), None)
            if entry is None:
                self.late += 1
                continue
            key, sent = entry
            answered += 1
            if space.check(key, data):
                tally.ok()
                if not warm_up:
                    latencies.append(now - sent)
            else:
                tally.fail("serve-udp-wrong-answer")
            if stop_at is None or now < stop_at:
                send()
        return answered, latencies

    # -- DoH ------------------------------------------------------------------

    def doh_phase(self, server, seconds: float):
        """DOH_CONNECTIONS keep-alive connections, one POST in flight on each."""
        space, tally = self.space, self.tally
        conns = [_DohConnection(server.doh) for _ in range(DOH_CONNECTIONS)]
        latencies = []
        answered = 0
        started = time.perf_counter()
        cpu0 = time.process_time()
        deadline = started + seconds
        try:
            for conn in conns:
                conn.send(next(self.queries), self._new_id({}), space)
            active = list(conns)
            while active:
                ready, _, _ = select.select(active, [], [], REPLY_TIMEOUT_S)
                if not ready:
                    tally.fail("serve-doh-timeout", len(active))
                    break
                for conn in ready:
                    reply = conn.receive()
                    if reply is None:
                        continue
                    now = time.perf_counter()
                    answered += 1
                    status, body = reply
                    if (status == 200 and body[:2] == conn.mid.to_bytes(2, "big")
                            and space.check(conn.key, body)):
                        tally.ok()
                        latencies.append(now - conn.sent)
                    else:
                        tally.fail("serve-doh-wrong-answer")
                    if now < deadline:
                        conn.send(next(self.queries), self._new_id({}), space)
                    else:
                        active.remove(conn)
        finally:
            for conn in conns:
                conn.close()
        return _phase_result([(time.perf_counter() - started, time.process_time() - cpu0,
                               answered, latencies)])

    def measure(self, server, seconds: float) -> dict:
        """The UDP phase, scaled by the host's speed, then the DoH phase.

        DoH figures are not scaled: each answer waits about 44 ms on a TCP
        delayed ACK, a timer that does not run slower on a busy host.
        """
        udp = self.udp_phase(server, seconds=seconds * UDP_SHARE,
                             speed=HostSpeed(PROBES_PER_GAP))
        doh = self.doh_phase(server, seconds=seconds * (1 - UDP_SHARE))
        return {"udp": udp, "doh": doh}


def _phase_result(slices, speed=None):
    """Rate and latency percentiles of a phase from its (wall, cpu, answered,
    latencies) slices.

    Each figure is the median over slices, so a short stall of the host does
    not move the run's result. With `speed`, each slice's figures are first
    scaled by the host's slowdown around that slice; "measured" keeps the
    unscaled medians.
    """
    figures = {"qps": [], "p50_us": [], "p90_us": [], "p95_us": [], "p99_us": []}
    scaled = {name: [] for name in figures}
    for k, (wall, _, _, lats) in enumerate(slices):
        lats.sort()
        values = {"qps": len(lats) / wall}
        for q in (50, 90, 95, 99):
            values[f"p{q}_us"] = percentile(lats, q) * 1e6 if lats else 0.0
        for name, value in values.items():
            figures[name].append(value)
            if speed is not None:
                scaled[name].append(speed.rate(value, k) if name == "qps"
                                    else speed.duration(value, k))
    measured = {name: median(values) for name, values in figures.items()}
    wall = sum(s[0] for s in slices)
    return {"answered": sum(s[2] for s in slices), "correct": sum(len(s[3]) for s in slices),
            "wall_s": wall, "slices": len(slices),
            **({name: median(values) for name, values in scaled.items()} if speed else measured),
            "measured": measured, "slowdown": speed.slowdown() if speed else 1.0,
            "gen_cpu_share": sum(s[1] for s in slices) / wall}


class _DohConnection:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=READY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.host = f"{address[0]}:{address[1]}".encode()

    def fileno(self):
        return self.sock.fileno()

    def send(self, key: int, mid: int, space: Keyspace):
        self.key, self.mid = key, mid
        body = mid.to_bytes(2, "big") + space.templates[key]
        self.sent = time.perf_counter()
        self.sock.sendall(b"POST /dns-query HTTP/1.1\r\nHost: " + self.host
                          + b"\r\nContent-Type: application/dns-message\r\nContent-Length: "
                          + str(len(body)).encode() + b"\r\n\r\n" + body)

    def receive(self):
        """(status, body) once a whole response is buffered, else None."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("DoH server closed the connection")
        self.buffer += chunk
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buffer[:head_end].decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body, self.buffer = self.buffer[head_end + 4:end], self.buffer[end:]
        return status, body

    def close(self):
        self.sock.close()


class Server:
    """A `ddns serve` child process, optionally under the tracing launcher."""

    def __init__(self, repo_root: str, data_dir: str, config: str, spans: str | None):
        self.repo_root = repo_root
        self.config = config
        self.spans = spans
        self.stderr_path = os.path.join(data_dir, "serve.stderr")
        self.proc = None
        self.cpu = None

    def start(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.repo_root, "src")
        if self.spans:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "serve_launcher.py"), self.spans]
        else:
            cmd = [sys.executable, "-m", "ddns.cli"]
        cmd += ["--config", self.config, "serve"]
        self._stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                     stderr=self._stderr, cwd=self.repo_root)
        deadline = time.monotonic() + READY_TIMEOUT_S
        self.udp = self.doh = None
        while self.udp is None or self.doh is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("ddns serve did not start: " + self._stderr_text())
            for line in self._stderr_text().splitlines():
                if line.startswith("udp dns on "):
                    host, _, port = line[len("udp dns on "):].rpartition(":")
                    self.udp = (host, int(port))
                elif line.startswith("doh on http://"):
                    host, _, port = line[len("doh on http://"):].split("/")[0].rpartition(":")
                    self.doh = (host, int(port))
            time.sleep(0.02)

    def _stderr_text(self) -> str:
        with open(self.stderr_path) as fh:
            return fh.read()

    def stop(self) -> float:
        """SIGTERM, wait, and return the child's CPU seconds (user + system)."""
        if self.proc is None or self.cpu is not None:
            return self.cpu or 0.0
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self._stderr.close()
        self.cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return self.cpu
