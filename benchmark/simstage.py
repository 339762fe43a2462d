"""Simulator stage: repeated 5-node `sim.run_simulation` runs.

Each simulation uses the default latency range and a modest transaction
arrival rate, so block filling and mempool conservation run without
dominating. A simulation is checked for its block count, for convergence of
every node onto one chain, and for a mean interval within 10% of 15 s.
"""

from __future__ import annotations

import time

from ddns import sim

from common import median, rng_for
from hostspeed import HostSpeed

NODES = 5
TX_RATE = 1.0               # network-wide arrivals per second
INTERVAL_TOLERANCE = 0.10
MIN_SIMULATIONS = 3
PROBES_PER_GAP = 10


class SimStage:
    def __init__(self, seed: int, size: dict, tally):
        self.size = size
        self.tally = tally
        self.rng = rng_for(seed, "sim")

    def run(self, budget_s: float) -> dict:
        """Whole simulations until `budget_s` has passed (at least MIN_SIMULATIONS).

        The rate is their median, each scaled by the host's slowdown around
        it, probed before each simulation and after the last (see hostspeed.py).
        """
        blocks = self.size["sim_blocks"]
        rates = []
        speed = HostSpeed(PROBES_PER_GAP)
        started = time.perf_counter()
        speed.probe()
        while len(rates) < MIN_SIMULATIONS or time.perf_counter() - started < budget_s:
            config = sim.SimConfig(nodes=NODES, tx_rate=TX_RATE, duration_blocks=blocks,
                                   seed=self.rng.randrange(1 << 31))
            t0 = time.perf_counter()
            simulation = sim.Simulation(config)
            simulation.run()
            report = simulation.report()
            rates.append(blocks / (time.perf_counter() - t0))
            self._check(simulation, report, blocks)
            speed.probe()
        return {"sim_blocks_per_s": median(speed.rate(r, k) for k, r in enumerate(rates)),
                "measured": median(rates),
                "slowdown": speed.slowdown(), "sims": len(rates), "blocks": blocks}

    def _check(self, simulation, report, blocks):
        if report.total_blocks != blocks:
            return self.tally.fail("sim-block-count")
        if abs(report.mean_interval - sim.TARGET_INTERVAL) > INTERVAL_TOLERANCE * sim.TARGET_INTERVAL:
            return self.tally.fail("sim-mean-interval")
        # Once mining stops, the last two blocks can tie at the same height and
        # nodes keep whichever they saw first; nothing can break that tie. So
        # "one tip" means one height, and one chain below it.
        tips = [node.blocks[node.tip] for node in simulation.nodes]
        if len({t.height for t in tips}) != 1 or len({t.parent for t in tips}) != 1:
            return self.tally.fail("sim-tips-diverged")
        self.tally.ok()
