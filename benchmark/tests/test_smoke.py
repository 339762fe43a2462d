"""Smoke tests for the benchmark itself, at the smallest input size.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*extra, cwd=REPO, seconds="1"):
    cmd = SPEC["command"] + ["--seed", "7", "--seconds", seconds] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return report, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed(workload):
    report, result = result_of(run_bench("--workload", workload, "--trace", "0", "--tiny"))
    assert result["correct"] is True and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert report["error_rate"] == 0.0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_printed(workload):
    report, result = result_of(run_bench("--workload", workload, "--trace", "1", "--tiny"))
    assert result["correct"] is True, report["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Each layer was reached: one timed function per layer must have calls.
    for name in ("keys.verify", "chain.Chain.add_block", "node.LocalNode.submit_transaction",
                 "registry.lookup_domain", "store.ContentStore.get",
                 "controlfile.parse_control_file", "cache.L1Cache.get",
                 "resolver.Resolver.handle_wire_query", "wire.decode_message",
                 "sim.SimNode.adopt"):
        assert metrics[f"{name}.calls"] > 0, name
    assert metrics["trace.traced_rate"] > 0 and metrics["trace.untraced_rate"] > 0


def test_wrong_expected_answer_counts_as_failure():
    report, result = result_of(run_bench("--workload", "ledger", "--trace", "0", "--tiny",
                                         "--wrong-answer"))
    assert result["correct"] is False
    assert result["failed"] >= 2
    assert report["error_rate"] == result["failed"] / result["attempted"]
    assert set(report["failures"]) >= {"serve-udp-wrong-answer", "ledger-stale-answer"}


def test_fails_without_the_program_sources():
    scratch = os.path.join(REPO, ".bench_work", f"smoke-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), scratch)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(REPO, path), os.path.join(scratch, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", WORKLOADS[0], "--trace", "0", cwd=scratch)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_benchmark_json_lists_the_traced_metrics():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == tracing.metric_list()
