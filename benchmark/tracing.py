"""Timing wrappers around each layer's public functions, for the traced run.

`install` replaces each function listed in TARGETS, both on its own module and
wherever a `ddns` module imported it by name (for example
`ddns.resolver.decode_message`), because that is where the caller looks it up.
Each call records a span: name, start, end, parent span, the request or op it
belongs to, the benchmark phase, and a tag (cache hit, rcode). Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import struct
import sys
import threading
import time

# (metric name, module, attribute path, reports calls per confirmed op)
TARGETS = (
    ("keys.verify", "ddns.keys", "verify", True),
    ("keys.sign", "ddns.keys", "sign", False),
    ("chain.Transaction.serialize", "ddns.chain", "Transaction.serialize", True),
    ("chain.validate_transaction", "ddns.chain", "validate_transaction", True),
    ("chain.select_transactions", "ddns.chain", "select_transactions", False),
    ("chain.mine_block", "ddns.chain", "mine_block", False),
    ("chain.validate_block", "ddns.chain", "validate_block", False),
    ("chain.apply_block", "ddns.chain", "apply_block", False),
    ("chain.Chain.add_block", "ddns.chain", "Chain.add_block", False),
    ("chain.Chain.branch", "ddns.chain", "Chain.branch", False),
    ("node.LocalNode.submit_transaction", "ddns.node", "LocalNode.submit_transaction", False),
    ("node.LocalNode.accept_block", "ddns.node", "LocalNode.accept_block", False),
    ("node.LocalNode.__init__", "ddns.node", "LocalNode.__init__", False),
    ("registry.check_asset_operation", "ddns.registry", "check_asset_operation", False),
    ("registry.lookup_domain", "ddns.registry", "lookup_domain", False),
    ("store.ContentStore.get", "ddns.store", "ContentStore.get", False),
    ("store.ContentStore.put", "ddns.store", "ContentStore.put", False),
    ("controlfile.parse_control_file", "ddns.controlfile", "parse_control_file", False),
    ("cache.L1Cache.get", "ddns.cache", "L1Cache.get", False),
    ("cache.L2Cache.get", "ddns.cache", "L2Cache.get", False),
    ("cache.L2Cache.put", "ddns.cache", "L2Cache.put", False),
    ("cache.CacheHierarchy.invalidate", "ddns.cache", "CacheHierarchy.invalidate", False),
    ("resolver.Resolver.handle_wire_query", "ddns.resolver", "Resolver.handle_wire_query", False),
    ("resolver.Resolver.resolve", "ddns.resolver", "Resolver.resolve", False),
    ("wire.decode_message", "ddns.wire", "decode_message", False),
    ("wire.encode_message", "ddns.wire", "encode_message", False),
    ("wire.truncate_for_udp", "ddns.wire", "truncate_for_udp", False),
    ("wire.record_to_rr", "ddns.wire", "record_to_rr", False),
    ("sim.SimNode.adopt", "ddns.sim", "SimNode.adopt", False),
    ("sim.SimNode.branch_set", "ddns.sim", "SimNode.branch_set", False),
    ("sim.SimNode.next_difficulty", "ddns.sim", "SimNode.next_difficulty", False),
    ("sim.Simulation.run", "ddns.sim", "Simulation.run", False),
)
REORG_ADD_BLOCK = "chain.Chain.add_block.reorg"
RCODES = (("noerror", 0), ("servfail", 2), ("nxdomain", 3), ("refused", 5))
# Metrics computed from spans and counts rather than timed directly.
DERIVED = ("cache.l1.hit_ratio", "cache.l2.hit_ratio", "cache.l2.entries",
           *(f"resolver.rcode.{name}" for name, _ in RCODES),
           "resolver.server.cpu_us_per_query",
           "trace.untraced_rate", "trace.traced_rate", "trace.overhead_frac", "trace.spans")

PHASE_OTHER, PHASE_LEDGER = 0, 1
_RECORD = struct.Struct("<qHddqqBh")


def span_names():
    """Every span name a traced run can record, in a fixed order."""
    return [name for name, *_ in TARGETS] + [REORG_ADD_BLOCK]


def metric_list():
    """(name, unit, better) for every per-layer metric, in BENCHMARK.json order."""
    out = []
    per_op = {name for name, _, _, flag in TARGETS if flag}
    for name in span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in per_op:
            out.append((f"{name}.per_op", "calls/op", "lower"))
    units = {"cache.l1.hit_ratio": ("ratio", "higher"), "cache.l2.hit_ratio": ("ratio", "higher"),
             "cache.l2.entries": ("count", "higher"),
             "resolver.server.cpu_us_per_query": ("us", "lower"),
             "trace.untraced_rate": ("1/s", "higher"), "trace.traced_rate": ("1/s", "higher"),
             "trace.overhead_frac": ("fraction", "lower"), "trace.spans": ("count", "lower")}
    for name in DERIVED:
        unit, better = units.get(name, ("count", "higher"))
        out.append((name, unit, better))
    return out


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.records = []
        self.counter = itertools.count()
        self.local = threading.local()
        self.op_id = None
        self.phase = PHASE_OTHER

    def wrap(self, name: str, fn, rename=None, tag=None):
        records, counter, local, clock = self.records, self.counter, self.local, time.perf_counter
        name_id = self.ids[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = next(counter)
            parent = stack[-1] if stack else -1
            op = tracer.op_id if tracer.op_id is not None else (stack[0] if stack else idx)
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                nid = rename(result, name_id) if rename else name_id
                records.append((idx, nid, t0, t1, parent, op, tracer.phase,
                                tag(result) if tag else 0))
        return wrapper

    def dump(self, path: str):
        with open(path, "wb") as fh:
            for rec in self.records:
                fh.write(_RECORD.pack(*rec))


def load_spans(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    return list(_RECORD.iter_unpack(data))


def install(tracer: Tracer):
    """Wrap every TARGETS entry in the loaded `ddns` modules; returns the undo list."""
    patches = []
    for module in ("ddns", "ddns.cli", "ddns.sim", "ddns.formulas"):
        importlib.import_module(module)
    reorg_id = tracer.ids[REORG_ADD_BLOCK]
    special = {
        "chain.Chain.add_block": dict(
            rename=lambda result, nid: reorg_id if result is not None and result.reorged else nid),
        "cache.L1Cache.get": dict(tag=lambda result: int(result is not None)),
        "cache.L2Cache.get": dict(tag=lambda result: int(result is not None)),
        "resolver.Resolver.resolve": dict(tag=lambda result: result.rcode if result is not None else -1),
    }
    for name, module_name, attr, _ in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            original = cls.__dict__[fn_name]
            setattr(cls, fn_name, tracer.wrap(name, original, **special.get(name, {})))
            patches.append((cls, fn_name, original))
            continue
        original = getattr(module, fn_name)
        wrapper = tracer.wrap(name, original, **special.get(name, {}))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ddns" or mod_name.startswith("ddns."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patches.append((mod, key, original))
    return patches


def uninstall(patches):
    for obj, attr, original in reversed(patches):
        setattr(obj, attr, original)


def aggregate(span_sets, names, confirmed_ops: int) -> dict:
    """Per-name calls, self seconds and ledger-loop calls per confirmed op.

    `span_sets` holds one span list per process: span ids are per process.
    """
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    loop_calls = [0] * len(names)
    hits = {}
    rcodes = {}
    total = 0
    for spans in span_sets:
        child = {}
        for idx, nid, t0, t1, parent, op, phase, tag in spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for idx, nid, t0, t1, parent, op, phase, tag in spans:
            calls[nid] += 1
            self_s[nid] += (t1 - t0) - child.get(idx, 0.0)
            if phase == PHASE_LEDGER:
                loop_calls[nid] += 1
            name = names[nid]
            if name in ("cache.L1Cache.get", "cache.L2Cache.get"):
                hits[name] = hits.get(name, 0) + tag
            elif name == "resolver.Resolver.resolve":
                rcodes[tag] = rcodes.get(tag, 0) + 1
        total += len(spans)
    out = {}
    per_op = {name for name, _, _, flag in TARGETS if flag}
    for nid, name in enumerate(names):
        out[f"{name}.calls"] = calls[nid]
        out[f"{name}.self_s"] = self_s[nid]
        if name in per_op:
            out[f"{name}.per_op"] = loop_calls[nid] / confirmed_ops if confirmed_ops else 0.0
    for tier, name in (("l1", "cache.L1Cache.get"), ("l2", "cache.L2Cache.get")):
        n = calls[names.index(name)]
        out[f"cache.{tier}.hit_ratio"] = hits.get(name, 0) / n if n else 0.0
    for label, code in RCODES:
        out[f"resolver.rcode.{label}"] = rcodes.get(code, 0)
    out["trace.spans"] = total
    return out
