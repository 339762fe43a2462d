import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from ddns.chain import fork_path
from ddns.cli import main
from ddns.errors import ConfigError
from ddns.sim import (SimConfig, Simulation, _ShockSimulation, run_simulation,
                      scenario_end_to_end, scenario_hashrate_shock)


def test_same_seed_same_report():
    config = SimConfig(duration_blocks=80, seed=5, tx_rate=1.0)
    assert run_simulation(config).to_json() == run_simulation(config).to_json()


def test_different_seeds_differ():
    a = run_simulation(SimConfig(duration_blocks=80, seed=1))
    b = run_simulation(SimConfig(duration_blocks=80, seed=2))
    assert a.to_json() != b.to_json()


def test_mean_interval_near_target():
    report = run_simulation(SimConfig(duration_blocks=600, seed=3))
    assert 0.7 * 15 <= report.mean_interval <= 1.3 * 15


def test_all_nodes_converge_to_one_tip():
    report = run_simulation(SimConfig(duration_blocks=200, seed=4))
    assert report.tip_agreement == 1.0


def test_orphan_rate_monotone_in_latency():
    rates = []
    for ratio in (0.001, 0.01, 0.1):
        latency = 15.0 * ratio
        total_blocks = 0
        total_orphans = 0
        for seed in range(3):
            report = run_simulation(SimConfig(
                duration_blocks=700, seed=seed,
                latency_range=(latency * 0.8, latency * 1.2)))
            total_blocks += report.total_blocks
            total_orphans += report.orphaned_blocks
        rates.append(total_orphans / total_blocks)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[0] < 0.01


def test_transactions_are_confirmed_not_duplicated():
    config = SimConfig(duration_blocks=150, seed=6, tx_rate=3.0)
    from ddns.sim import Simulation
    sim = Simulation(config)
    sim.run()
    best = max(sim.nodes, key=lambda n: n.blocks[n.tip].height)
    chain = best.canonical_chain()
    confirmed = [op for block in chain for op in block.ops]
    # no transaction is confirmed twice on the canonical chain
    assert len(confirmed) == len(set(confirmed))
    # conservation: everything created is either confirmed or still pending
    created = set(sim.op_created)
    assert set(confirmed) <= created
    assert best.mempool | best.confirmed >= set(confirmed)


def test_shock_recovers_block_interval():
    config = SimConfig(duration_blocks=260, seed=1)
    report = scenario_hashrate_shock(config, shock_block=60, multiplier=2.0)
    tail = report.interval_series[-60:]
    mean_tail = sum(tail) / len(tail)
    assert abs(mean_tail - 15.0) / 15.0 <= 0.25


def test_shock_rejects_bad_multiplier():
    with pytest.raises(ValueError):
        scenario_hashrate_shock(SimConfig(), 10, 0)


def test_end_to_end_transcript_shape():
    out = scenario_end_to_end(SimConfig(nodes=3, seed=11))
    assert out["registered_at"] <= out["included_at"] <= out["resolved_at"]
    assert out["blocks_waited"] >= 1
    assert out["within_two_intervals"] == (out["elapsed"] <= 30.0)


def test_end_to_end_zero_latency_resolves_in_one_interval():
    out = scenario_end_to_end(SimConfig(nodes=3, seed=0,
                                        latency_range=(0.0, 0.0)),
                              register_at=0.0)
    assert out["blocks_waited"] == 1
    assert out["elapsed"] == 15.0


def test_end_to_end_needs_three_nodes():
    with pytest.raises(ValueError):
        scenario_end_to_end(SimConfig(nodes=2))


# -- identical outputs ---------------------------------------------------------

def _final_digest(simulation) -> str:
    """The report and every node's final tip, mempool, confirmed set and
    chain, with each block's miner, time, difficulty and ops."""
    digest = hashlib.sha256(simulation.report().to_json().encode())
    for node in simulation.nodes:
        chain = [[b.block_id, b.miner, b.timestamp, b.difficulty, list(b.ops)]
                 for b in node.canonical_chain()]
        digest.update(json.dumps([node.tip, sorted(node.mempool),
                                  sorted(node.confirmed), chain]).encode())
    return digest.hexdigest()[:16]


def _orphan_latency(ratio):
    return (15.0 * ratio * 0.8, 15.0 * ratio * 1.2)


# Computed by the simulator that delivered every gossiped tx as its own event
# and walked the retarget window on every difficulty read: the acceptance 7
# and 8 configs, this file's configs and three 1,000-block runs with txs.
PINNED = [
    *[(f"criterion07-seed{seed}", dict(duration_blocks=220, seed=seed), (100, 2.0), digest)
      for seed, digest in zip(range(1, 6), ["e11de65f6b6a3338", "b59878587fae1a7f",
                                            "0d744fb19bc4fcac", "c7c85d39eb1d7208",
                                            "3973a5aa322e79f9"])],
    *[(f"criterion08-latency{ratio}",
       dict(duration_blocks=5000, seed=8, latency_range=_orphan_latency(ratio)), None, digest)
      for ratio, digest in zip((0.001, 0.01, 0.1), ["b1fd889db1348bcc", "acee9391dce714ef",
                                                     "eff63d377228b89b"])],
    ("same-seed", dict(duration_blocks=80, seed=5, tx_rate=1.0), None, "54231e37ff56154c"),
    ("seed1", dict(duration_blocks=80, seed=1), None, "2e01c58db94b7ddf"),
    ("seed2", dict(duration_blocks=80, seed=2), None, "94a16149dfacf856"),
    ("mean-interval", dict(duration_blocks=600, seed=3), None, "d7e424e59c910b2c"),
    ("converge", dict(duration_blocks=200, seed=4), None, "7cbd75e1a641a17a"),
    *[(f"orphan-latency{ratio}-seed{seed}",
       dict(duration_blocks=700, seed=seed, latency_range=_orphan_latency(ratio)), None, digest)
      for (ratio, seed), digest in zip(
          [(r, s) for r in (0.001, 0.01, 0.1) for s in range(3)],
          ["b2be4be0ca4a8ec6", "cc9473312db873f4", "700bfbdc2ab8a531",
           "58ef58b07e2363d2", "c9aab25acda43379", "51e5fa9b3de89d05",
           "d5deccf9a7e3e263", "78ede46692cde58d", "bbde880ef298490a"])],
    ("tx-conservation", dict(duration_blocks=150, seed=6, tx_rate=3.0), None, "03786c22ddb3f32a"),
    ("shock-recovers", dict(duration_blocks=260, seed=1), (60, 2.0), "e643f19c2ee371e2"),
    *[(f"tx1000-seed{seed}", dict(duration_blocks=1000, tx_rate=1.0, seed=seed), None, digest)
      for seed, digest in zip(range(3), ["e532f2662c12bb46", "84382c785d7b1a12",
                                         "bb874edce731e75b"])],
]


@pytest.mark.parametrize("name,config,shock,digest", PINNED, ids=[p[0] for p in PINNED])
def test_outputs_match_the_pinned_digests(name, config, shock, digest):
    config = SimConfig(**config)
    simulation = _ShockSimulation(config, *shock) if shock else Simulation(config)
    simulation.run()
    assert _final_digest(simulation) == digest


# A fixed latency (lo == hi) draws no random number per message, so these
# depend on the order of the draws that remain; computed by the simulator that
# drew each latency through `random.uniform`.
FIXED_LATENCY = [((0.1, 0.1), 11, "da11a59a1e30dbbd"), ((0.0, 0.0), 12, "333343eea4e4bf28"),
                 ((2.0, 2.0), 13, "3af4947e3dc1d545")]


@pytest.mark.parametrize("latency,seed,digest", FIXED_LATENCY)
def test_a_fixed_latency_draws_nothing_and_matches_its_pinned_digest(latency, seed, digest):
    simulation = Simulation(SimConfig(duration_blocks=300, seed=seed, tx_rate=1.0,
                                      latency_range=latency))
    simulation.run()
    assert _final_digest(simulation) == digest


def test_a_node_without_hash_share_never_mines():
    sim = Simulation(SimConfig(nodes=3, hash_shares=(1, 0, 1), duration_blocks=60,
                               seed=2, tx_rate=1.0))
    sim.run()
    assert sim.blocks_mined == 60
    assert {b.miner for b in sim.nodes[1].blocks.values()} == {-1, 0, 2}
    assert sim.report().tip_agreement == 1.0


# -- gossip timing -------------------------------------------------------------

class _ReachRecorder(Simulation):
    """Records the earliest time each op could be in each node's mempool: its
    creation at the origin, its sampled arrival at a peer, or a reorg that
    returned it there."""

    def __init__(self, config):
        super().__init__(config)
        self.reached = {}
        for node in self.nodes:
            node.adopt = self._adopt_wrapper(node, node.adopt)

    def _reach(self, node_index, op, when):
        key = (node_index, op)
        self.reached[key] = min(self.reached.get(key, math.inf), when)

    def _on_tx(self, origin, op, weight):
        super()._on_tx(origin, op, weight)
        self._reach(origin, op, self.now)
        for node in self.nodes:
            if node.index != origin:
                arrival, queued = node.inbox[-1]
                assert queued == op
                self._reach(node.index, op, arrival)

    def _adopt_wrapper(self, node, adopt):
        def wrapped(block):
            old_tip = node.tip
            changed = adopt(block)
            if changed:
                abandoned, _ = fork_path(old_tip, node.tip, lambda b: node.blocks[b].parent,
                                         lambda b: node.blocks[b].height)
                for bid in abandoned:
                    for op in node.blocks[bid].ops:
                        self._reach(node.index, op, self.now)
            return changed
        return wrapped


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1 << 16), nodes=st.integers(2, 5),
       tx_rate=st.floats(0.2, 4.0), latency_lo=st.floats(0.0, 3.0),
       latency_spread=st.floats(0.0, 3.0))
def test_no_node_mines_an_op_before_it_could_reach_it(seed, nodes, tx_rate, latency_lo,
                                                      latency_spread):
    sim = _ReachRecorder(SimConfig(nodes=nodes, tx_rate=tx_rate, duration_blocks=40,
                                   latency_range=(latency_lo, latency_lo + latency_spread),
                                   seed=seed))
    sim.run()
    mined = {bid: b for node in sim.nodes for bid, b in node.blocks.items() if b.miner >= 0}
    assert len(mined) == 40
    for block in mined.values():
        for op in block.ops:
            assert sim.reached.get((block.miner, op), math.inf) <= block.timestamp, \
                (block.block_id, block.miner, op)
    # After the run every op has reached every node: confirmed or pending.
    for node in sim.nodes:
        assert not node.inbox
        assert node.mempool | node.confirmed == set(sim.op_created)
        assert not node.mempool & node.confirmed


# -- config validation ---------------------------------------------------------

INVALID_CONFIGS = [
    ("nodes-zero", {"nodes": 0}),
    ("nodes-negative", {"nodes": -2}),
    ("nodes-not-integer", {"nodes": 2.5}),
    ("shares-wrong-length", {"nodes": 3, "hash_shares": [1, 1]}),
    ("shares-negative", {"nodes": 3, "hash_shares": [1, -1, 1]}),
    ("shares-zero-sum", {"nodes": 3, "hash_shares": [0, 0, 0]}),
    ("shares-not-numbers", {"nodes": 2, "hash_shares": ["a", 1]}),
    ("interval-zero", {"block_interval": 0}),
    ("interval-negative", {"block_interval": -15}),
    ("interval-infinite", {"block_interval": math.inf}),
    ("tx-rate-negative", {"tx_rate": -0.5}),
    ("tx-rate-nan", {"tx_rate": math.nan}),
    ("mix-below-zero", {"tx_mix_minimal": -0.1}),
    ("mix-above-one", {"tx_mix_minimal": 1.5}),
    ("latency-reversed", {"latency_range": [0.2, 0.1]}),
    ("latency-negative", {"latency_range": [-0.1, 0.1]}),
    ("latency-one-value", {"latency_range": [0.1]}),
    ("latency-not-a-list", {"latency_range": 0.1}),
    ("duration-zero", {"duration_blocks": 0}),
    ("duration-not-integer", {"duration_blocks": "100"}),
    ("unknown-key", {"node": 3}),
]


@pytest.mark.parametrize("doc", [c[1] for c in INVALID_CONFIGS],
                         ids=[c[0] for c in INVALID_CONFIGS])
def test_invalid_config_raises_config_error(doc):
    with pytest.raises(ConfigError):
        SimConfig.from_dict(doc)


@pytest.mark.parametrize("doc", [c[1] for c in INVALID_CONFIGS],
                         ids=[c[0] for c in INVALID_CONFIGS])
def test_cli_sim_rejects_invalid_config_with_exit_code_3(doc, tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    assert main(["sim", "--config-file", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_config_that_is_not_an_object_is_rejected(tmp_path):
    with pytest.raises(ConfigError):
        SimConfig.from_dict([["nodes", 3]])
    path = tmp_path / "sim.json"
    path.write_text("[1, 2]")
    assert main(["sim", "--config-file", str(path)]) == 3


def test_edge_configs_are_valid():
    SimConfig(nodes=1, duration_blocks=1, latency_range=(0.0, 0.0), tx_mix_minimal=0.0)
    SimConfig(tx_mix_minimal=1, block_interval=1, tx_rate=0)
    SimConfig.from_dict({"nodes": 2, "hash_shares": [0, 3], "latency_range": [0.1, 0.1]})
    assert run_simulation(SimConfig(nodes=1, duration_blocks=1)).total_blocks == 1
