"""Deterministic discrete-event multi-node simulator.

Block discovery is a Poisson process per node, proportional to hash
share and inversely to current difficulty; blocks propagate over a full
mesh with sampled link latencies; every node runs longest-chain with
first-seen tie-breaking and the smoothed 30-block retarget. Time is
virtual throughout, so 5,000-block experiments run in seconds. A run is
fully determined by its seed.

A block's retarget window is its own ancestry, the same on every node, so
each block carries the difficulty of its successor, computed once when it
is mined. A gossiped transaction is not an event: its arrival at each peer
is sampled when it is created and queued in that peer's inbox, which the
peer drains (skipping what it has already confirmed) when it next fills a
block, and once more when the event queue runs dry.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass, field, fields, asdict

from .chain import DIFFICULTY_WINDOW, MAX_BLOCK_WEIGHT, TARGET_BLOCK_TIME, reorg_path, retarget
from .errors import ConfigError

TARGET_INTERVAL = float(TARGET_BLOCK_TIME)
MINIMAL_TX_WU = 240
REGULAR_TX_WU = 1_000


@dataclass(frozen=True)
class SimConfig:
    nodes: int = 5
    latency_range: tuple = (0.05, 0.15)   # seconds, uniform per message
    hash_shares: tuple | None = None      # defaults to equal shares
    block_interval: float = TARGET_INTERVAL
    tx_rate: float = 0.0                  # network-wide arrivals per second
    tx_mix_minimal: float = 0.5           # fraction of 240 WU transactions
    duration_blocks: int = 100
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.nodes) or self.nodes < 1:
            raise ConfigError(f"nodes must be an integer >= 1, got {self.nodes!r}")
        if not _is_int(self.duration_blocks) or self.duration_blocks < 1:
            raise ConfigError(f"duration_blocks must be an integer >= 1, "
                              f"got {self.duration_blocks!r}")
        if not _is_number(self.block_interval) or self.block_interval <= 0:
            raise ConfigError(f"block_interval must be a finite number > 0, "
                              f"got {self.block_interval!r}")
        if not _is_number(self.tx_rate) or self.tx_rate < 0:
            raise ConfigError(f"tx_rate must be a finite number >= 0, got {self.tx_rate!r}")
        if not _is_number(self.tx_mix_minimal) or not 0 <= self.tx_mix_minimal <= 1:
            raise ConfigError(f"tx_mix_minimal must be in [0, 1], got {self.tx_mix_minimal!r}")
        latency = self.latency_range
        if not (isinstance(latency, (tuple, list)) and len(latency) == 2
                and all(map(_is_number, latency)) and 0 <= latency[0] <= latency[1]):
            raise ConfigError(f"latency_range must be [lo, hi] with 0 <= lo <= hi, "
                              f"got {latency!r}")
        shares = self.hash_shares
        if shares is not None and not (
                isinstance(shares, (tuple, list)) and len(shares) == self.nodes
                and all(_is_number(s) and s >= 0 for s in shares) and sum(shares) > 0):
            raise ConfigError(f"hash_shares must be {self.nodes} non-negative numbers "
                              f"with a positive sum, got {shares!r}")

    def shares(self):
        if self.hash_shares is not None:
            total = sum(self.hash_shares)
            return [s / total for s in self.hash_shares]
        return [1.0 / self.nodes] * self.nodes

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a simulation config must be an object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown simulation config keys: {', '.join(unknown)}")
        doc = dict(doc)
        for key in ("latency_range", "hash_shares"):
            if isinstance(doc.get(key), list):
                doc[key] = tuple(doc[key])
        return cls(**doc)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float (not a bool): JSON can carry NaN and Infinity."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class SimReport:
    total_blocks: int
    orphaned_blocks: int
    orphan_rate: float
    mean_interval: float
    stddev_interval: float
    achieved_tps: float
    tip_agreement: float
    duration: float
    interval_series: list = field(default_factory=list)
    difficulty_series: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class SimBlock:
    block_id: int
    parent: int
    height: int
    miner: int
    timestamp: float
    difficulty: float
    ops: tuple = ()
    next_difficulty: float = 1.0    # of a block mined on this one


class SimNode:
    def __init__(self, index: int):
        self.index = index
        self.blocks = {0: SimBlock(0, -1, 0, -1, 0.0, 1.0)}
        self.tip = 0
        self.mempool: set = set()
        self.confirmed: set = set()
        self.inbox: list = []           # (arrival, op) of gossiped ops

    def next_difficulty(self) -> float:
        return self.blocks[self.tip].next_difficulty

    def retarget_after(self, timestamp: float, interval: float) -> float:
        """`next_difficulty` of a block mined on the tip at `timestamp`: the
        retarget over that block and the tip's last DIFFICULTY_WINDOW - 1."""
        difficulties = [self.blocks[self.tip].next_difficulty]
        timestamps = [timestamp]
        cursor = self.tip
        while cursor != -1 and len(difficulties) < DIFFICULTY_WINDOW:
            block = self.blocks[cursor]
            difficulties.append(block.difficulty)
            timestamps.append(block.timestamp)
            cursor = block.parent
        difficulties.reverse()
        return retarget(difficulties, timestamps, interval)

    def drain_inbox(self, now: float):
        """Move the ops that have arrived by `now` into the mempool, except
        those already confirmed on this node's chain."""
        waiting = []
        for entry in self.inbox:
            if entry[0] > now:
                waiting.append(entry)
            elif entry[1] not in self.confirmed:
                self.mempool.add(entry[1])
        self.inbox = waiting

    def branch_set(self, candidate: int):
        """`reorg_path` from the tip to the stored block `candidate`."""
        return reorg_path(self.tip, candidate, lambda b: self.blocks[b].parent,
                          lambda b: self.blocks[b].height)

    def adopt(self, block: SimBlock) -> bool:
        """Store a block; returns True when the tip changed (reorg-aware)."""
        self.blocks[block.block_id] = block
        path = self.branch_set(block.block_id)
        if path is None:
            return False
        abandoned, attached = path
        # Conservation: abandoned ops go back to the mempool, newly
        # confirmed ones leave it.
        for bid in abandoned:
            for op in self.blocks[bid].ops:
                self.confirmed.discard(op)
                self.mempool.add(op)
        for bid in attached:
            for op in self.blocks[bid].ops:
                self.mempool.discard(op)
                self.confirmed.add(op)
        self.tip = block.block_id
        return True

    def canonical_chain(self):
        out = []
        cursor = self.tip
        while cursor != -1:
            out.append(self.blocks[cursor])
            cursor = out[-1].parent
        return list(reversed(out))


class Simulation:
    """Event loop shared by all scenarios."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.nodes = [SimNode(i) for i in range(config.nodes)]
        self.shares = config.shares()
        self.hashrate = 1.0
        self.now = 0.0
        self._events: list = []
        self._seq = 0
        self._next_block_id = 1
        self._next_op_id = 0
        self.blocks_mined = 0
        self.mining_stopped = False
        self._pending: dict = {}      # node -> {parent: [blocks]}
        self._mine_tokens = [0] * config.nodes
        self.op_weight: dict = {}
        self.op_created: dict = {}

    # -- event plumbing ------------------------------------------------------

    def _push(self, when: float, kind: str, data: tuple):
        heapq.heappush(self._events, (when, self._seq, kind, data))
        self._seq += 1

    def _schedule_mining(self, node_index: int):
        self._mine_tokens[node_index] += 1
        node = self.nodes[node_index]
        rate = self.shares[node_index] * self.hashrate / \
            (node.next_difficulty() * self.config.block_interval)
        if rate > 0:    # a node with no hash share never mines
            self._push(self.now + self.rng.expovariate(rate), "mine",
                       (node_index, self._mine_tokens[node_index]))

    def reschedule_all_mining(self):
        for i in range(self.config.nodes):
            self._schedule_mining(i)

    # -- handlers -------------------------------------------------------------

    def _fill_block(self, node: SimNode):
        node.drain_inbox(self.now)
        chosen = []
        used = 0
        for op in sorted(node.mempool, key=lambda o: self.op_created.get(o, 0.0)):
            weight = self.op_weight.get(op, REGULAR_TX_WU)
            if used + weight > MAX_BLOCK_WEIGHT:
                continue
            chosen.append(op)
            used += weight
        return tuple(chosen)

    def _on_mine(self, node_index: int, token: int):
        if token != self._mine_tokens[node_index] or self.mining_stopped:
            return
        node = self.nodes[node_index]
        parent = node.blocks[node.tip]
        block = SimBlock(self._next_block_id, parent.block_id, parent.height + 1,
                         node_index, self.now, parent.next_difficulty,
                         self._fill_block(node),
                         node.retarget_after(self.now, self.config.block_interval))
        self._next_block_id += 1
        self.blocks_mined += 1
        node.adopt(block)
        self.on_block(block, node_index)
        lo, hi = self.config.latency_range
        for peer in range(self.config.nodes):
            if peer != node_index:
                # uniform(lo, hi) inline, as it computes it; no draw when hi <= lo
                delay = lo + (hi - lo) * self.rng.random() if hi > lo else lo
                self._push(self.now + delay, "recv", (peer, block))
        if self.blocks_mined >= self.config.duration_blocks:
            self.mining_stopped = True
        else:
            self._schedule_mining(node_index)

    def _on_recv(self, node_index: int, block: SimBlock):
        node = self.nodes[node_index]
        if block.block_id in node.blocks:
            return
        if block.parent not in node.blocks:
            self._pending.setdefault(node_index, {}).setdefault(block.parent, []).append(block)
            return
        changed = node.adopt(block)
        # Flush any children that were waiting on this block.
        waiting = self._pending.get(node_index, {}).pop(block.block_id, [])
        for child in waiting:
            self._on_recv(node_index, child)
        if changed and not self.mining_stopped:
            self._schedule_mining(node_index)

    def _on_tx(self, origin: int, op: str, weight: int):
        self.op_weight[op] = weight
        self.op_created[op] = self.now
        self.nodes[origin].mempool.add(op)
        lo, hi = self.config.latency_range
        random, now = self.rng.random, self.now
        for peer, node in enumerate(self.nodes):
            if peer != origin:  # the per-peer latency as in `_on_mine`
                node.inbox.append((now + (lo + (hi - lo) * random() if hi > lo else lo), op))
        if self.config.tx_rate > 0 and not self.mining_stopped:
            self._schedule_tx()

    def _schedule_tx(self):
        delay = self.rng.expovariate(self.config.tx_rate)
        origin = self.rng.randrange(self.config.nodes)
        op = f"tx{self._next_op_id}"
        self._next_op_id += 1
        weight = MINIMAL_TX_WU if self.rng.random() < self.config.tx_mix_minimal \
            else REGULAR_TX_WU
        self._push(self.now + delay, "tx", (origin, op, weight))

    def on_block(self, block: SimBlock, miner: int):
        """Hook for scenarios; default no-op."""

    # -- main loop -------------------------------------------------------------

    def run(self) -> None:
        self.reschedule_all_mining()
        if self.config.tx_rate > 0:
            self._schedule_tx()
        # Not `while self._events:`: CPython 3.11 specialises code after eight
        # calls or unconditional backward jumps, so that loop ran about a fifth
        # slower in the first seven simulations of a process (every `ddns sim`).
        while True:
            if not self._events:
                # Queue drained: propagation has settled, every op has arrived.
                for node in self.nodes:
                    node.drain_inbox(math.inf)
                break
            when, _, kind, data = heapq.heappop(self._events)
            self.now = when
            if kind == "mine":
                self._on_mine(*data)
            elif kind == "recv":
                self._on_recv(*data)
            elif kind == "tx":
                self._on_tx(*data)

    def report(self) -> SimReport:
        best = max(self.nodes, key=lambda n: n.blocks[n.tip].height)
        chain = best.canonical_chain()
        canonical_len = len(chain) - 1  # exclude genesis
        orphaned = self.blocks_mined - canonical_len
        intervals = [b2.timestamp - b1.timestamp
                     for b1, b2 in zip(chain[:-1], chain[1:])]
        mean = sum(intervals) / len(intervals) if intervals else 0.0
        var = (sum((x - mean) ** 2 for x in intervals) / len(intervals)
               if intervals else 0.0)
        confirmed_ops = sum(len(b.ops) for b in chain)
        duration = chain[-1].timestamp if len(chain) > 1 else 0.0
        agreement = sum(1 for n in self.nodes if n.tip == best.tip) / len(self.nodes)
        return SimReport(
            total_blocks=self.blocks_mined,
            orphaned_blocks=orphaned,
            orphan_rate=orphaned / self.blocks_mined if self.blocks_mined else 0.0,
            mean_interval=round(mean, 6),
            stddev_interval=round(var ** 0.5, 6),
            achieved_tps=round(confirmed_ops / duration, 6) if duration else 0.0,
            tip_agreement=agreement,
            duration=round(duration, 6),
            interval_series=[round(x, 6) for x in intervals],
            difficulty_series=[round(b.difficulty, 9) for b in chain[1:]])


def run_simulation(config: SimConfig) -> SimReport:
    sim = Simulation(config)
    sim.run()
    return sim.report()


# ---------------------------------------------------------------------------
# Scenarios


class _ShockSimulation(Simulation):
    def __init__(self, config: SimConfig, shock_block: int, multiplier: float):
        super().__init__(config)
        self.shock_block = shock_block
        self.multiplier = multiplier
        self._shocked = False

    def on_block(self, block: SimBlock, miner: int):
        if not self._shocked and self.blocks_mined >= self.shock_block:
            self._shocked = True
            self.hashrate *= self.multiplier
            self.reschedule_all_mining()


def scenario_hashrate_shock(config: SimConfig, shock_block: int,
                            multiplier: float) -> SimReport:
    """Multiply network hash power once `shock_block` blocks are mined."""
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    sim = _ShockSimulation(config, shock_block, multiplier)
    sim.run()
    return sim.report()


def scenario_end_to_end(config: SimConfig, register_at: float | None = None) -> dict:
    """Scripted registration-to-resolution transcript.

    Blocks arrive on the fixed 15 s schedule (a scripted scenario, not
    the Poisson model): a registration broadcast at node 0 is included
    in the first block whose miner has seen it, and resolution succeeds
    at the last node once that block has propagated there.
    """
    if config.nodes < 3:
        raise ValueError("end-to-end scenario needs at least 3 nodes")
    rng = random.Random(config.seed)
    interval = config.block_interval
    if register_at is None:
        register_at = rng.uniform(0, interval)

    def latency():
        lo, hi = config.latency_range
        return rng.uniform(lo, hi) if hi > lo else lo

    # Arrival time of the registration at each node.
    arrival = {0: register_at}
    for peer in range(1, config.nodes):
        arrival[peer] = register_at + latency()

    t_included = None
    block_index = 0
    while t_included is None:
        block_index += 1
        boundary = block_index * interval
        miner = rng.randrange(config.nodes)
        if arrival[miner] <= boundary:
            t_included = boundary
    resolver_node = config.nodes - 1
    t_resolved = t_included + (latency() if miner != resolver_node else 0.0)
    return {
        "registered_at": round(register_at, 6),
        "included_at": round(t_included, 6),
        "resolved_at": round(t_resolved, 6),
        "blocks_waited": block_index,
        "elapsed": round(t_resolved - register_at, 6),
        "within_two_intervals": (t_resolved - register_at) <= 2 * interval,
    }
