"""Shared pieces of the benchmark: run sizes, failure accounting, timing
statistics and work directories.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field

# A run always executes all three stages, so that every end-to-end metric is
# measured on every workload. The workload picks the stage that gets the full
# input size and most of the measured time; the other two run as small probes.
# The simulator is a probe on both workloads: a workload of its own would add
# a third of the runs to a time limit that two already nearly fill.
STAGES = ("serve", "ledger", "sim")
FOCUS_SHARE = 0.5

# Sized so that a run of any workload at --seconds 15 takes about a minute on
# a shared 2-core host, even while the host runs 1.8x slower than when idle.
SIZES = {
    # serve_domains x 44 keys: 7,040 (qname, qtype) keys at full size.
    "full": {"serve_domains": 160, "ledger_blocks": 500, "ledger_names": 150,
             "fanout_txs": 8, "fanout_outputs": 500},
    "probe": {"serve_domains": 24, "ledger_blocks": 40, "ledger_names": 24,
              "fanout_txs": 1, "fanout_outputs": 200, "sim_blocks": 1000},
    # Smoke tests only: every code path at the smallest size that still
    # exercises it (1000-block simulations keep the interval check meaningful).
    "tiny": {"serve_domains": 6, "ledger_blocks": 25, "ledger_names": 12,
             "fanout_txs": 1, "fanout_outputs": 20, "sim_blocks": 1000},
}

SETUP_REPEATS = 3
SETUP_PROBES = 10       # host-speed probes before each set-up and after the last


def stage_sizes(workload: str, tiny: bool) -> dict:
    """Per-stage size dict: the focus stage at full size, the others as probes."""
    out = {}
    for stage in STAGES:
        if tiny:
            kind = "tiny"
        else:
            kind = "full" if stage == focus_stage(workload) else "probe"
        out[stage] = SIZES[kind]
    return out


def focus_stage(workload: str) -> str:
    return {"dns-serve": "serve", "ledger": "ledger"}[workload]


def stage_seconds(workload: str, seconds: float) -> dict:
    focus = focus_stage(workload)
    rest = (1.0 - FOCUS_SHARE) / (len(STAGES) - 1)
    return {s: seconds * (FOCUS_SHARE if s == focus else rest) for s in STAGES}


# ---------------------------------------------------------------------------
# Failure accounting


@dataclass
class Tally:
    """Operations attempted and failed across every stage of a run."""
    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)

    def ok(self, n: int = 1):
        self.attempted += n

    def fail(self, reason: str, n: int = 1):
        self.attempted += n
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n


# ---------------------------------------------------------------------------
# Statistics


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def median(values) -> float:
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Work directories


def work_root(repo_root: str) -> str:
    return os.path.join(repo_root, ".bench_work")


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def copy_node_files(src_dir: str, dst_dir: str):
    """Copy a node's block file and content store, nothing else."""
    fresh_dir(dst_dir)
    shutil.copy2(os.path.join(src_dir, "blocks.dat"), os.path.join(dst_dir, "blocks.dat"))
    shutil.copytree(os.path.join(src_dir, "content-store"),
                    os.path.join(dst_dir, "content-store"))


def rng_for(seed: int, label: str) -> random.Random:
    """Independent deterministic stream per stage, derived from the run seed."""
    return random.Random(f"{seed}:{label}")
