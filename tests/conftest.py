import json
import os

import pytest

from ddns.cache import CacheHierarchy
from ddns.config import NodeConfig
from ddns.controlfile import parse_control_file, serialize_canonical
from ddns.keys import generate_keypair
from ddns.node import LocalNode
from ddns.resolver import Resolver
from ddns import registry

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# filled in by tests/test_acceptance.py, one line per criterion
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def fixture_bytes(name: str) -> bytes:
    with open(os.path.join(FIXTURES, name), "rb") as fh:
        return fh.read()


@pytest.fixture
def verify_calls(monkeypatch):
    """The public key of every signature check the chain makes, in order."""
    import ddns.chain
    calls = []
    real = ddns.chain.verify
    monkeypatch.setattr(ddns.chain, "verify", lambda pk, *rest: calls.append(pk) or real(pk, *rest))
    return calls


@pytest.fixture
def address_calls(monkeypatch):
    """The public key of every address derivation the chain's checks make, in order."""
    import ddns.chain
    calls = []
    real = ddns.chain.derive_address
    monkeypatch.setattr(ddns.chain, "derive_address", lambda pk: calls.append(pk) or real(pk))
    return calls


@pytest.fixture
def alice():
    return generate_keypair(b"\x01" * 32)


@pytest.fixture
def bob():
    return generate_keypair(b"\x02" * 32)


@pytest.fixture
def carol():
    return generate_keypair(b"\x03" * 32)


@pytest.fixture
def node(tmp_path):
    return LocalNode(NodeConfig(data_dir=str(tmp_path / "node")))


class Clock:
    """Deterministic monotonic clock for cache TTL tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


@pytest.fixture
def clock():
    return Clock()


class Stack:
    """A node plus a resolver wired to it, on a fake clock."""

    def __init__(self, base_dir, clock):
        self.clock = clock
        self.node = LocalNode(NodeConfig(data_dir=os.path.join(base_dir, "node")))
        self.caches = CacheHierarchy(os.path.join(base_dir, "cache"), clock=clock)
        self.resolver = Resolver(self.node.config.resolver, self.node.chain_view,
                                 self.node.store, self.caches)

    def register(self, dns_name, zone_bytes, keypair, mine_with=None):
        cid = self.node.store.put(serialize_canonical(parse_control_file(zone_bytes)))
        tx = registry.register_domain(registry.dns_to_asset(dns_name), cid, keypair,
                                      self.node.state, nonce=self.node.next_nonce())
        self.node.submit_transaction(tx)
        self.node.mine(1, (mine_with or keypair).address)
        return cid

    def update(self, dns_name, zone_bytes, keypair):
        cid = self.node.store.put(serialize_canonical(parse_control_file(zone_bytes)))
        tx = registry.update_domain(registry.dns_to_asset(dns_name), cid, keypair,
                                    self.node.state, nonce=self.node.next_nonce())
        self.node.submit_transaction(tx)
        self.node.mine(1, keypair.address)
        return cid


@pytest.fixture
def stack(tmp_path, clock):
    return Stack(str(tmp_path), clock)


def make_zone(domain: str, records: dict) -> bytes:
    return json.dumps({"version": "2.0", "domain": domain,
                       "records": records}).encode()
