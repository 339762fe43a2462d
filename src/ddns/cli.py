"""Single operator-facing command line for the whole stack.

Exit codes: 0 success, 2 usage error (argparse), 3 validation/domain
error, 4 not found, 1 unexpected failure. Every subcommand supports
--json for machine-readable output (schema version 1).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import time

from . import formulas, registry, sim
from .config import NodeConfig, load_config
from .controlfile import parse_control_file, serialize_canonical
from .errors import ConfigError, ControlFileError, DdnsError, NotFoundError
from .keys import generate_keypair
from .node import LocalNode, load_key_file, save_key_file
from .resolver import Resolver, serve_doh, serve_udp
from .store import content_id_of
from .wire import (TYPE_NAMES, build_query, decode_message, encode_message,
                   qtype_code)

JSON_SCHEMA_VERSION = 1


def _emit(args, payload: dict, text: str):
    if args.json:
        payload.setdefault("schema_version", JSON_SCHEMA_VERSION)
        payload.setdefault("ok", True)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _load_node(args) -> LocalNode:
    config = load_config(args.config) if args.config else NodeConfig()
    return LocalNode(config)


def cmd_keygen(args):
    seed = bytes.fromhex(args.seed) if args.seed else None
    keypair = generate_keypair(seed)
    save_key_file(args.out, keypair)
    _emit(args, {"address": keypair.address, "key_file": args.out},
          f"address: {keypair.address}\nkey file: {args.out}")
    return 0


def _read_zone(zone_path: str) -> tuple[bytes, str]:
    """A zone file's canonical bytes and their content id. The caller stores
    them only once the tx is built, so a refused command stores nothing."""
    with open(zone_path, "rb") as fh:
        zone = serialize_canonical(parse_control_file(fh.read()))
    return zone, content_id_of(zone)


def cmd_register(args):
    node = _load_node(args)
    keypair = load_key_file(args.key)
    zone, content_id = _read_zone(args.zone)
    tx = registry.register_domain(args.name, content_id, keypair, node.state,
                                  nonce=node.next_nonce())
    node.store.put(zone)
    txid = node.submit_transaction(tx)
    _emit(args, {"txid": txid.hex(), "content_id": content_id,
                 "asset_name": tx.asset_op.asset_name, "fee_paid": tx.asset_op.fee_paid,
                 "subsidized": tx.asset_op.subsidized},
          f"registered {tx.asset_op.asset_name} (pending confirmation)\n"
          f"txid: {txid.hex()}\ncontent id: {content_id}")
    return 0


def cmd_update(args):
    node = _load_node(args)
    keypair = load_key_file(args.key)
    zone, content_id = _read_zone(args.zone)
    tx = registry.update_domain(args.name, content_id, keypair, node.state,
                                nonce=node.next_nonce())
    node.store.put(zone)
    txid = node.submit_transaction(tx)
    _emit(args, {"txid": txid.hex(), "content_id": content_id},
          f"update submitted\ntxid: {txid.hex()}\ncontent id: {content_id}")
    return 0


def cmd_transfer(args):
    node = _load_node(args)
    keypair = load_key_file(args.key)
    tx = registry.transfer_domain(args.name, args.to, keypair, node.state,
                                  nonce=node.next_nonce())
    txid = node.submit_transaction(tx)
    _emit(args, {"txid": txid.hex(), "new_owner": args.to},
          f"transfer submitted\ntxid: {txid.hex()}")
    return 0


def cmd_resolve(args):
    qtype = qtype_code(args.qtype)
    started = time.perf_counter()
    if args.server:
        host, _, port = args.server.partition(":")
        query = build_query(args.qname, args.qtype, msg_id=os.getpid() & 0xFFFF)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(args.timeout)
            sock.sendto(encode_message(query), (host, int(port or 5353)))
            data, _ = sock.recvfrom(65535)
        reply = decode_message(data)
        rcode, records = reply.rcode, reply.answers
    else:
        node = _load_node(args)
        resolver = Resolver(node.config.resolver, node.chain_view, node.store)
        answer = resolver.resolve(args.qname, qtype)
        rcode, records = answer.rcode, answer.records
    elapsed_ms = (time.perf_counter() - started) * 1000
    rows = [{"name": r.name, "type": TYPE_NAMES.get(r.rtype, str(r.rtype)),
             "ttl": r.ttl, "rdata": r.rdata.hex()} for r in records]
    text_rows = "\n".join(
        f"{r['name']}  {r['ttl']}  {r['type']}  {r['rdata']}" for r in rows)
    _emit(args, {"rcode": rcode, "answers": rows, "elapsed_ms": round(elapsed_ms, 3)},
          f"rcode: {rcode}\n{text_rows}\n({elapsed_ms:.1f} ms)")
    return 0 if rcode == 0 else 4


def cmd_mine(args):
    node = _load_node(args)
    if args.address:
        address = args.address
    elif node.config.mining_address:
        address = node.config.mining_address
    elif node.config.key_file:
        address = load_key_file(node.config.key_file).address
    else:
        raise DdnsError("no mining address: pass --address or set it in the config")
    hashes = node.mine(args.blocks, address)
    _emit(args, {"blocks": hashes, "height": node.chain.height},
          "\n".join(hashes) + f"\nheight: {node.chain.height}")
    return 0


def cmd_serve(args):
    node = _load_node(args)
    resolver = Resolver(node.config.resolver, node.chain_view, node.store)
    udp = serve_udp(resolver)
    doh = serve_doh(resolver)
    stop = {"flag": False}

    def shutdown(*_):
        stop["flag"] = True

    signal.signal(signal.SIGINT, shutdown)
    signal.signal(signal.SIGTERM, shutdown)
    print(f"udp dns on {udp.address[0]}:{udp.address[1]}", file=sys.stderr)
    print(f"doh on http://{doh.address[0]}:{doh.address[1]}/dns-query", file=sys.stderr)
    try:
        while not stop["flag"]:
            time.sleep(0.2)
    finally:
        udp.stop()
        doh.stop()
    return 0


def cmd_sim(args):
    with open(args.config_file) as fh:
        config = sim.SimConfig.from_dict(json.load(fh))
    if args.scenario == "base":
        report = sim.run_simulation(config)
        payload = report.to_dict()
    elif args.scenario == "shock":
        report = sim.scenario_hashrate_shock(config, args.shock_block, args.multiplier)
        payload = report.to_dict()
    else:
        payload = sim.scenario_end_to_end(config)
    if args.csv and "interval_series" in payload:
        with open(args.csv, "w") as fh:
            fh.write("index,interval_s,difficulty\n")
            for i, (iv, d) in enumerate(zip(payload["interval_series"],
                                            payload["difficulty_series"])):
                fh.write(f"{i},{iv},{d}\n")
    summary = {k: v for k, v in payload.items()
               if k not in ("interval_series", "difficulty_series")}
    _emit(args, {"report": summary}, json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_analyze(args):
    formula = args.formula
    values = args.args
    if formula == "tps":
        if len(values) != 3:
            raise DdnsError("usage: analyze tps BLOCK_WU TX_WU SECONDS")
        params = formulas.ThroughputParams(*(float(v) for v in values))
        result = formulas.theoretical_tps(params)
        _emit(args, {"formula": "tps", "value": result}, f"{result:.1f}")
    elif formula == "table":
        rows = formulas.throughput_table()
        text = "\n".join(f"{r['transaction_type']:<22}{r['avg_weight_wu']:>8} WU"
                         f"{r['max_tps']:>10.1f} tx/s" for r in rows)
        _emit(args, {"formula": "table", "rows": rows}, text)
    elif formula == "failure":
        result = formulas.failure_probability([float(v) for v in values])
        _emit(args, {"formula": "failure", "value": result}, f"{result:.6f}")
    elif formula == "cost":
        if not values or values[0] not in ("traditional", "ddns"):
            raise DdnsError("usage: analyze cost {traditional|ddns} REG [ANNUAL YEARS]")
        kind = values[0]
        registration = float(values[1])
        annual = float(values[2]) if len(values) > 2 else 0.0
        years = int(values[3]) if len(values) > 3 else 0
        result = formulas.cost_over_time(
            kind, formulas.CostParams(registration, annual, years))
        _emit(args, {"formula": "cost", "kind": kind, "value": result}, f"{result:.2f}")
    elif formula == "network-value":
        if len(values) != 3:
            raise DdnsError("usage: analyze network-value N K ALPHA")
        result = formulas.network_value(float(values[0]), float(values[1]),
                                        float(values[2]))
        _emit(args, {"formula": "network-value", "value": result}, f"{result:.6g}")
    elif formula == "attack-cost":
        if len(values) < 3 or len(values) % 2 == 0:
            raise DdnsError("usage: analyze attack-cost GAIN R1 E1 [R2 E2 ...]")
        gain = float(values[0])
        rest = [float(v) for v in values[1:]]
        rewards, electricity = rest[0::2], rest[1::2]
        holds, margin = formulas.attack_cost_exceeds_gain(rewards, electricity, gain)
        _emit(args, {"formula": "attack-cost", "holds": holds, "margin": margin},
              f"attack cost exceeds gain: {holds} (margin {margin:.2f})")
    else:
        raise DdnsError(f"unknown formula {formula!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddns",
                                     description="decentralized DNS stack")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--config", help="node config file (JSON)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key file")
    p.add_argument("--seed", help="32-byte hex seed for deterministic keys")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("register", help="register a domain")
    p.add_argument("name")
    p.add_argument("--zone", required=True, help="control file (JSON)")
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("update", help="owner-only record update")
    p.add_argument("name")
    p.add_argument("--zone", required=True)
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("transfer", help="transfer domain ownership")
    p.add_argument("name")
    p.add_argument("--to", required=True)
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("resolve", help="resolve a name")
    p.add_argument("qname")
    p.add_argument("qtype")
    p.add_argument("--server", help="HOST:PORT of a UDP DNS server")
    p.add_argument("--timeout", type=float, default=3.0)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("mine", help="mine blocks onto the local chain")
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--address", help="coinbase recipient")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("serve", help="run node, UDP resolver, and DoH endpoint")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("sim", help="run a network simulation")
    p.add_argument("--config-file", required=True, dest="config_file")
    p.add_argument("--scenario", choices=("base", "shock", "end-to-end"),
                   default="base")
    p.add_argument("--shock-block", type=int, default=100)
    p.add_argument("--multiplier", type=float, default=2.0)
    p.add_argument("--csv", help="write interval/difficulty time series")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("analyze", help="evaluate a system formula")
    p.add_argument("formula")
    p.add_argument("args", nargs="*")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotFoundError as exc:
        _fail(args, str(exc))
        return 4
    except (DdnsError, ConfigError, ControlFileError, ValueError) as exc:
        _fail(args, str(exc))
        return 3
    except OSError as exc:
        _fail(args, str(exc))
        return 1


def _fail(args, message: str):
    if getattr(args, "json", False):
        print(json.dumps({"ok": False, "error": message,
                          "schema_version": JSON_SCHEMA_VERSION}))
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
