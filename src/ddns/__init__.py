"""Blockchain-backed decentralized DNS: keys and addresses, a UTXO
proof-of-work chain carrying domain assets, content-addressed zone
storage, an RFC 1035/8484 resolver with a two-tier cache, a network
simulator, and closed-form system analytics.
"""

__version__ = "1.0.0"

from .errors import (ConfigError, ControlFileError, CorruptionError, DdnsError,
                     DnsParseError, InvalidAddressError, InvalidContentIdError,
                     InvalidKeyError, InvalidSeedError, NotFoundError,
                     SerializationError, StoreUnavailableError)
from .keys import KeyPair, Signature, derive_address, generate_keypair, sign, verify
from .store import ContentStore, content_id_of
from .controlfile import ControlFile, parse_control_file, serialize_canonical
from .registry import DomainAsset, MultiSigPolicy
from .chain import Block, Chain, Transaction
from .resolver import Resolver, ResolverConfig
from .config import NodeConfig, load_config
from .node import LocalNode

__all__ = [
    "Block", "Chain", "ConfigError", "ContentStore", "ControlFile",
    "ControlFileError", "CorruptionError", "DdnsError", "DnsParseError",
    "DomainAsset", "InvalidAddressError", "InvalidContentIdError",
    "InvalidKeyError", "InvalidSeedError", "KeyPair", "LocalNode",
    "MultiSigPolicy", "NodeConfig", "NotFoundError", "Resolver",
    "ResolverConfig", "SerializationError", "Signature",
    "StoreUnavailableError", "Transaction", "content_id_of",
    "derive_address", "generate_keypair", "load_config",
    "parse_control_file", "serialize_canonical", "sign", "verify",
]
