"""Node configuration file loading and validation.

Errors are aggregated so the operator sees every problem at once.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, fields

from . import registry
from .chain import DEFAULT_GENESIS_TARGET, GENESIS_TIMESTAMP
from .errors import ConfigError
from .resolver import ResolverConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NodeConfig:
    data_dir: str = "ddns-data"
    store_dir: str | None = None          # default: <data_dir>/content-store
    key_file: str | None = None
    genesis_target: int = DEFAULT_GENESIS_TARGET
    genesis_timestamp: int = GENESIS_TIMESTAMP
    mining_address: str | None = None
    resolver: ResolverConfig = ResolverConfig()

    @property
    def store_path(self) -> str:
        return self.store_dir or os.path.join(self.data_dir, "content-store")


def load_config(path: str) -> NodeConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return config_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def config_from_dict(doc: dict, base_dir: str = ".") -> NodeConfig:
    problems = []
    if not isinstance(doc, dict):
        raise ConfigError("config top level must be an object")
    known = {"data_dir", "store_dir", "key_file", "genesis", "mining_address", "resolver"}
    for key in set(doc) - known:
        problems.append(f"unknown field {key!r}")

    def resolve_path(p):
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    data_dir = resolve_path(doc.get("data_dir", "ddns-data"))
    store_dir = doc.get("store_dir")
    if store_dir is not None:
        store_dir = resolve_path(store_dir)
    key_file = doc.get("key_file")
    if key_file is not None:
        key_file = resolve_path(key_file)

    genesis = doc.get("genesis", {})
    target = DEFAULT_GENESIS_TARGET
    timestamp = GENESIS_TIMESTAMP
    if not isinstance(genesis, dict):
        problems.append("genesis must be an object")
    else:
        if "target_hex" in genesis:
            try:
                target = int(genesis["target_hex"], 16)
                if not 0 < target < (1 << 256):
                    raise ValueError
            except (TypeError, ValueError):
                problems.append("genesis.target_hex must be a 256-bit hex value")
        if "timestamp" in genesis:
            if not isinstance(genesis["timestamp"], int) or genesis["timestamp"] <= 0:
                problems.append("genesis.timestamp must be a positive integer")
            else:
                timestamp = genesis["timestamp"]

    rdoc = doc.get("resolver", {})
    resolver = ResolverConfig()
    if not isinstance(rdoc, dict):
        problems.append("resolver must be an object")
    else:
        for key in sorted(set(rdoc) - {f.name for f in fields(ResolverConfig)}):
            problems.append(f"unknown field 'resolver.{key}'")
        kwargs = {}
        tlds = rdoc.get("managed_tlds")
        if tlds is not None:
            if (not isinstance(tlds, list) or not tlds
                    or any(not isinstance(t, str) or not registry.is_root_label(t) for t in tlds)):
                problems.append("resolver.managed_tlds must be a list of lowercase root labels")
            else:
                kwargs["managed_tlds"] = tuple(tlds)
        upstream = rdoc.get("upstream")
        if upstream is not None:
            if (not isinstance(upstream, list) or len(upstream) != 2
                    or not isinstance(upstream[0], str) or not isinstance(upstream[1], int)):
                problems.append("resolver.upstream must be [host, port]")
            else:
                kwargs["upstream"] = (upstream[0], upstream[1])
        for field_name in ("udp_host", "doh_host"):
            if field_name in rdoc:
                kwargs[field_name] = str(rdoc[field_name])
        for field_name in ("udp_port", "doh_port"):
            if field_name in rdoc:
                if not isinstance(rdoc[field_name], int) or not 0 <= rdoc[field_name] < 65536:
                    problems.append(f"resolver.{field_name} must be a port number")
                else:
                    kwargs[field_name] = rdoc[field_name]
        if "cache_dir" in rdoc:
            log.warning("resolver.cache_dir is ignored: the resolver caches in memory only")
        resolver = ResolverConfig(**kwargs)

    mining_address = doc.get("mining_address")
    if mining_address is not None:
        from .keys import decode_address
        try:
            decode_address(mining_address)
        except Exception:
            problems.append(f"mining_address is not a valid address: {mining_address!r}")

    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return NodeConfig(data_dir=data_dir, store_dir=store_dir, key_file=key_file,
                      genesis_target=target, genesis_timestamp=timestamp,
                      mining_address=mining_address, resolver=resolver)
