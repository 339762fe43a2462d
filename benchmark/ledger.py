"""Ledger stage: domain owners' writes with a read after each write.

Batches of signed operations go through `LocalNode.submit_transaction` and
`LocalNode.mine`; after every block each touched name is flushed with
`Resolver.notice_update` and resolved until the answer matches the new zone.
Every REORG_EVERY blocks a competing in-process node delivers a 2-block branch
that orphans the block just mined, so the batch is confirmed again after a
reorg. The run ends by reopening the node from `blocks.dat`.
"""

from __future__ import annotations

import ipaddress
import os
import random
import time

from ddns import registry
from ddns.cache import CacheHierarchy
from ddns.config import NodeConfig
from ddns.chain import (REGISTRATION_FEE, AssetOperation, Transaction, TxInput,
                        TxOutput, sign_transaction, tx_weight)
from ddns.errors import DdnsError
from ddns.node import LocalNode
from ddns.resolver import Resolver, ResolverConfig

from common import copy_node_files, median, percentile, rng_for
from hostspeed import HostSpeed
from fixtures import (BLOCK_SPACING, FANOUTS_PER_BLOCK, REGISTRATIONS_PER_BLOCK, ChainBuilder,
                      canonical_zone, ledger_address, ledger_zone)
from tracing import PHASE_OTHER

OPS_PER_BLOCK = 6
REORG_EVERY = 20
PROBES_PER_GAP = 2
RESTART_REPEATS = 5
RESTART_PROBES = 4
# Mostly updates, plus subsidized and paid registrations and transfers. The
# kinds are dealt in the same order every cycle, whatever the seed, so that
# every run does the same mix in the same places (the reorged block included).
OP_MIX = (("update", 72), ("register-ddns", 18), ("register-phi", 12), ("transfer", 18))
CYCLE_KINDS = [kind for kind, count in OP_MIX for _ in range(count)]
random.Random("ledger-op-order").shuffle(CYCLE_KINDS)
assert len(CYCLE_KINDS) == OPS_PER_BLOCK * REORG_EVERY
TYPE_A, TYPE_TXT, TYPE_CNAME = 1, 16, 5


class Name:
    __slots__ = ("asset", "dns", "owner", "revision", "address")

    def __init__(self, asset, owner, revision, address):
        self.asset = asset
        self.dns = registry.asset_to_dns(asset)
        self.owner = owner
        self.revision = revision
        self.address = address


class LedgerStage:
    def __init__(self, root: str, seed: int, size: dict, keys, tally, tracer=None,
                 wrong_answer: bool = False):
        self.root = root
        self.size = size
        self.keys = keys
        self.tally = tally
        self.tracer = tracer
        self.rng = rng_for(seed, "ledger")
        self.counter = 0
        self.names: dict = {}
        self.pool: list = []
        self.wrong_answer = wrong_answer
        self.node = None
        self.resolver = None

    # -- input generation -----------------------------------------------------

    def generate(self):
        """History: empty blocks, subsidized registrations, then UTXO fan-out."""
        gen_dir = os.path.join(self.root, "ledger-gen")
        self.builder = ChainBuilder(gen_dir, self.keys)
        entries = []
        for i in range(self.size["ledger_names"]):
            owner = self.keys.owners[i % len(self.keys.owners)]
            name = self._new_name("DDNS", owner)
            entries.append((name.asset, ledger_zone(name.dns, name.address, name.revision), owner))
        n_reg_blocks = -(-len(entries) // REGISTRATIONS_PER_BLOCK)
        n_fan_blocks = -(-self.size["fanout_txs"] // FANOUTS_PER_BLOCK)
        empty = max(self.size["fanout_txs"], self.size["ledger_blocks"] - n_reg_blocks - n_fan_blocks)
        self.builder.mine(empty)
        self.builder.register_all(entries)
        self.pool = self.builder.fan_out(self.size["fanout_txs"], self.size["fanout_outputs"])
        self.clock = self.builder.now
        self.gen_dir = gen_dir
        self.history_digest = self.builder.node.state.digest()

    def _new_name(self, root: str, owner) -> Name:
        self.counter += 1
        asset = f"{root}/L{self.counter}R{self.rng.randrange(10 ** 6)}"
        name = Name(asset, owner, self.counter, ledger_address(self.counter))
        self.names[name.dns] = name
        return name

    # -- set-up ---------------------------------------------------------------

    def setup(self, index: int):
        """Open a node over a copy of the history and warm its resolver's L2.

        The open is a restart from `blocks.dat`, checked against the history's
        digest.
        """
        data_dir = os.path.join(self.root, f"ledger-{index}")
        copy_node_files(self.gen_dir, data_dir)
        node = LocalNode(NodeConfig(data_dir=data_dir))
        self._count(node.state.digest() == self.history_digest, "restart-digest")
        caches = CacheHierarchy(os.path.join(data_dir, "l2"))
        resolver = Resolver(ResolverConfig(cache_dir=os.path.join(data_dir, "l2")),
                            node.chain_view, node.store, caches=caches)
        for name in list(self.names.values()):
            self._check_answer(resolver, name, "warm-up")
            answer = resolver.resolve(name.dns, TYPE_TXT)
            self._count(answer.rcode == 0 and len(answer.records) == 1, "warm-up")
            answer = resolver.resolve("www." + name.dns, TYPE_A)
            self._count(answer.rcode == 0 and [r.rtype for r in answer.records] == [TYPE_CNAME, TYPE_A],
                        "warm-up")
        self.node, self.resolver, self.l2_dir = node, resolver, os.path.join(data_dir, "l2")
        # The history's builder competes with the new node; it already has
        # every block the new node has.
        self.competitor = self.builder.node
        self.unsynced = []

    def _count(self, good: bool, reason: str):
        if good:
            self.tally.ok()
        else:
            self.tally.fail(f"ledger-{reason}")

    def _check_answer(self, resolver, name: Name, reason: str) -> bool:
        answer = resolver.resolve(name.dns, TYPE_A)
        good = (answer.rcode == 0 and len(answer.records) == 1
                and answer.records[0].rdata == ipaddress.IPv4Address(name.address).packed)
        self._count(good, reason)
        return good

    # -- measured loop ----------------------------------------------------------

    def run(self, budget_s: float) -> dict:
        """Blocks until `budget_s` has passed, at least one whole reorg cycle.

        The host's speed is probed before every block and after the last; each
        block's rate and latencies are scaled by the slowdown around it (see
        hostspeed.py), and the measured figures are returned too.
        """
        node = self.node
        speed = HostSpeed(PROBES_PER_GAP)
        self.block_rates = []
        self.block_visible_ms = []
        self.confirmed = 0
        self.weights = []
        self.reorgs = 0
        blocks = 0
        started = time.perf_counter()
        speed.probe()
        while blocks < REORG_EVERY or time.perf_counter() - started < budget_s:
            i = blocks % REORG_EVERY
            self._block(CYCLE_KINDS[i * OPS_PER_BLOCK:(i + 1) * OPS_PER_BLOCK],
                        reorg=(i == REORG_EVERY - 1))
            speed.probe()
            blocks += 1
        elapsed = time.perf_counter() - started
        visible = sorted(ms for lats in self.block_visible_ms for ms in lats)
        scaled = sorted(speed.duration(ms, k)
                        for k, lats in enumerate(self.block_visible_ms) for ms in lats)
        # The median over blocks keeps a stall of the host in one block from
        # moving the run's figure.
        measured = {"confirm_tps": median(self.block_rates),
                    "visible_p50_ms": percentile(visible, 50),
                    "visible_p90_ms": percentile(visible, 90)}
        return {"confirm_tps": median(speed.rate(r, k) for k, r in enumerate(self.block_rates)),
                "visible_p50_ms": percentile(scaled, 50),
                "visible_p90_ms": percentile(scaled, 90),
                "measured": measured, "slowdown": speed.slowdown(),
                "visible_samples": len(visible),
                "confirmed_ops": self.confirmed, "blocks": blocks, "reorgs": self.reorgs,
                "elapsed_s": elapsed,
                "mean_tx_weight": sum(self.weights) / len(self.weights),
                "utxo_count": len(node.state.utxos), "height": node.chain.height}

    def _block(self, kinds, reorg: bool):
        """One batch: submit, mine (through a reorg if asked), then check and read."""
        node = self.node
        if reorg:
            branch = self._competing_branch()
        ops = self._build_batch(kinds)
        starts = {}
        spent = 0.0
        for op in ops:
            if self.tracer is not None:
                self.tracer.op_id = op["id"]
            starts[op["id"]] = t0 = time.perf_counter()
            try:
                node.submit_transaction(op["tx"])
                spent += time.perf_counter() - t0
            except DdnsError:
                self.tally.fail("ledger-rejected")
                op["rejected"] = True
        if self.tracer is not None:
            self.tracer.op_id = None
        ops = [op for op in ops if not op.get("rejected")]
        self.clock += BLOCK_SPACING
        t0 = time.perf_counter()
        node.mine(1, self.keys.miner.address, now=self.clock)
        spent += time.perf_counter() - t0
        if reorg:
            self.clock += 2 * BLOCK_SPACING
            reorged = False
            for block in branch:
                result = node.accept_block(block, now=self.clock)
                reorged = reorged or result.reorged
            if not reorged or len(node.mempool) != len(ops):
                self.tally.fail("ledger-reorg-not-taken")
            self.reorgs += 1
            t0 = time.perf_counter()
            node.mine(1, self.keys.miner.address, now=self.clock)
            spent += time.perf_counter() - t0
        # The competitor already holds its own branch; it only lacks our tip.
        self.unsynced.append(node.chain.blocks[node.chain.tip_hash])
        confirmed = self.confirmed
        self.block_visible_ms.append([])
        self._observe(ops, starts)
        self.block_rates.append((self.confirmed - confirmed) / spent)

    def _competing_branch(self):
        """Sync the competitor to our tip, then let it mine two blocks there.

        The competitor's work is not the measured node's, so the traced run
        keeps it out of the per-op counts.
        """
        comp = self.competitor
        if self.tracer is not None:
            phase, self.tracer.phase = self.tracer.phase, PHASE_OTHER
        for block in self.unsynced:
            result = comp.accept_block(block, now=self.clock)
            if not result.accepted:
                raise RuntimeError(f"competitor rejected a main-chain block: {result.code}")
        self.unsynced = []
        branch = []
        for step in (1, 2):
            h = comp.mine(1, self.keys.owners[0].address, now=self.clock + step * BLOCK_SPACING)[0]
            branch.append(comp.chain.blocks[bytes.fromhex(h)])
        if self.tracer is not None:
            self.tracer.phase = phase
        return branch

    def _build_batch(self, kinds):
        existing = self.rng.sample(sorted(self.names), k=len(kinds))
        state = self.node.state
        ops = []
        for dns, kind in zip(existing, kinds):
            self.counter += 1
            nonce = 10 ** 9 + self.counter
            op = {"id": self.counter, "kind": kind}
            if kind == "update":
                name = self.names[dns]
                address = ledger_address(self.counter)
                cid = self._put_zone(name.dns, address, self.counter)
                op["tx"] = registry.update_domain(name.asset, cid, name.owner, state, nonce=nonce)
                op.update(name=name, cid=cid, address=address, revision=self.counter)
            elif kind == "transfer":
                name = self.names[dns]
                new_owner = self.rng.choice([k for k in self.keys.owners if k is not name.owner])
                op["tx"] = registry.transfer_domain(name.asset, new_owner.address, name.owner,
                                                    state, nonce=nonce)
                op.update(name=name, new_owner=new_owner)
            else:
                root = "DDNS" if kind == "register-ddns" else "PHI"
                address = ledger_address(self.counter)
                asset = f"{root}/L{self.counter}R{self.rng.randrange(10 ** 6)}"
                cid = self._put_zone(registry.asset_to_dns(asset), address, self.counter)
                if root == "DDNS":
                    owner = self.rng.choice(self.keys.owners)
                    op["tx"] = registry.register_domain(asset, cid, owner, state, nonce=nonce)
                else:
                    owner, op["tx"] = self._paid_registration(asset, cid, nonce)
                op.update(name=Name(asset, owner, self.counter, address), cid=cid)
            self.weights.append(tx_weight(op["tx"]))
            ops.append(op)
        return ops

    def _put_zone(self, dns: str, address: str, revision: int) -> str:
        return self.node.store.put(canonical_zone(ledger_zone(dns, address, revision)))

    def _paid_registration(self, asset: str, cid: str, nonce: int):
        """A PHI registration that pays the fee from one fanned-out output."""
        txid, index, value, payer = self.pool.pop(0)
        op = AssetOperation("register", asset, new_content_id=cid, fee_paid=REGISTRATION_FEE,
                            auth=((payer.public_key, b"\x00" * 64),))
        outputs = (TxOutput(value - REGISTRATION_FEE, payer.address),) \
            if value > REGISTRATION_FEE else ()
        tx = sign_transaction(Transaction((TxInput(txid, index, payer.public_key),),
                                          outputs, op, nonce), payer)
        if outputs:
            self.pool.append((tx.txid, 0, value - REGISTRATION_FEE, payer))
        return payer, tx

    def _observe(self, ops, starts):
        """Check every op landed, then time the first correct answer for it."""
        state = self.node.state
        landed = []
        for op in ops:
            name = op["name"]
            asset = state.assets.get(name.asset)
            if op["kind"] == "transfer":
                good = asset is not None and asset.owner_address == op["new_owner"].address
            else:
                good = (asset is not None and asset.ipfs_hash == op["cid"]
                        and asset.owner_address == name.owner.address)
            if not good:
                self.tally.fail("ledger-not-confirmed")
                continue
            landed.append(op)
        for op in landed:
            self.resolver.notice_update(op["name"].dns)
        for op in landed:
            name = op["name"]
            if op["kind"] == "transfer":
                name.owner = op["new_owner"]
                self.tally.ok()
                self.confirmed += 1
                continue
            if op["kind"] == "update":
                name.address, name.revision = op["address"], op["revision"]
            else:
                self.names[name.dns] = name
            expected = name
            if self.wrong_answer and op is landed[0]:
                expected = Name(name.asset, name.owner, name.revision, "192.0.2.1")
            if self._check_answer(self.resolver, expected, "stale-answer"):
                self.block_visible_ms[-1].append(
                    (time.perf_counter() - starts[op["id"]]) * 1000.0)
            self.confirmed += 1

    # -- restart ----------------------------------------------------------------

    def time_restarts(self) -> dict:
        """Reopen a copy of the history RESTART_REPEATS times, each a replay
        from `blocks.dat` plus a digest check, with the host's speed probed
        before each reopen and after the last (see hostspeed.py).
        """
        data_dir = os.path.join(self.root, "ledger-restart")
        copy_node_files(self.gen_dir, data_dir)
        speed = HostSpeed(RESTART_PROBES)
        speed.probe()
        samples = []
        for _ in range(RESTART_REPEATS):
            t0 = time.perf_counter()
            node = LocalNode(NodeConfig(data_dir=data_dir))
            self._count(node.state.digest() == self.history_digest, "restart-digest")
            samples.append(time.perf_counter() - t0)
            speed.probe()
        return {"restart_s": median(speed.duration(t, k) for k, t in enumerate(samples)),
                "measured": median(samples), "samples_s": samples,
                "slowdown": speed.slowdown()}

    def check_restart(self):
        """Reopen the node after the loop and check its digest did not change.

        This replays the loop's blocks and reorgs too, so its time is reported
        (`restart_after_loop`), not gated.
        """
        expected = self.node.state.digest()
        t0 = time.perf_counter()
        reopened = LocalNode(self.node.config)
        self._count(reopened.state.digest() == expected, "restart-digest")
        self.restart_after_loop = time.perf_counter() - t0
