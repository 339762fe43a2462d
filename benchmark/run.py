"""The repository benchmark: one command, two workloads, every metric.

    python3 benchmark/run.py --workload {dns-serve,ledger} --seed N \
        --seconds S --trace {0,1}

A run always executes three stages in this order: serving (UDP then DoH over
loopback against a `ddns serve` child), ledger (signed writes, reorgs, reads
after each block, then a restart), and the network simulator. The workload
names the stage that gets the full input size and half of the measured time;
the other two run as small probes, so that every end-to-end metric is
measured on every workload. The simulator is a probe on both.

Inputs are generated from --seed. The set-up (open the ledger node, warm its
L2, start the server) is repeated SETUP_REPEATS times and `setup_s` is the
median. CPU-bound figures are scaled by the host's speed, probed between
units of work (hostspeed.py). Every answer and state change is checked;
failures are counted in `failed` and make `correct` false.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 the benchmark's timing wrappers are installed (in the server child
too) and it carries the per-layer metrics; the focus stage then runs half its
time untraced and half traced, and the difference is the tracing overhead.
The line before the last is a report of values that are not gated: error
rate, load-generator health and the paper's throughput model.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
SRC = os.path.join(REPO_ROOT, "src")

WORKLOADS = ("dns-serve", "ledger")
E2E_UNITS = {
    "udp_qps": "answers/s", "doh_qps": "answers/s",
    "udp_p50_us": "us", "udp_p95_us": "us", "doh_p50_us": "us", "doh_p90_us": "us",
    "confirm_tps": "ops/s", "visible_p50_ms": "ms", "visible_p90_ms": "ms",
    "restart_s": "s", "sim_blocks_per_s": "blocks/s", "setup_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own smoke tests")
    parser.add_argument("--wrong-answer", action="store_true",
                        help="corrupt one expected answer per stage (tests the oracle)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ddns", "__init__.py")):
        print(f"error: no ddns sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from common import work_root
    run_dir = os.path.join(work_root(REPO_ROOT), f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        report, metrics, correct, attempted, failed = execute(args, run_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def execute(args, run_dir: str):
    """Generate the inputs, set up, run the three stages and check them.

    Returns (report, metrics, correct, attempted, failed). The imports are
    here because `src/` joins the path only once `main` has found it.
    """
    import tracing
    from common import (SETUP_PROBES, SETUP_REPEATS, Tally, fresh_dir, focus_stage, median,
                        stage_seconds, stage_sizes, work_root)
    from dnsserve import ServeStage
    from fixtures import Keys
    from hostspeed import HostSpeed
    from ledger import LedgerStage
    from simstage import SimStage

    trace = bool(args.trace)
    focus = focus_stage(args.workload)
    sizes = stage_sizes(args.workload, args.tiny)
    seconds = stage_seconds(args.workload, args.seconds)
    root = fresh_dir(run_dir)
    spans_dir = os.path.join(work_root(REPO_ROOT), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed, "focus_stage": focus}

    # Input generation: keys, zones and chains built through LocalNode.
    t0 = time.perf_counter()
    keys = Keys(args.seed)
    ledger = LedgerStage(root, args.seed, sizes["ledger"], keys, tally,
                         wrong_answer=args.wrong_answer)
    ledger.generate()
    server_spans = os.path.join(spans_dir, f"{tag}-server.spans")
    serve = ServeStage(root, REPO_ROOT, args.seed, sizes["serve"], keys, tally,
                       spans_path=server_spans, wrong_answer=args.wrong_answer)
    serve.generate()
    sim_stage = SimStage(args.seed, sizes["sim"], tally)
    report["generate_s"] = time.perf_counter() - t0

    tracer = patches = None
    if trace:
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        ledger.tracer = tracer
    try:
        # Set-up, repeated. Only the last server is kept (plus, when the
        # traced run compares, the one before it as the untraced server).
        keep_untraced = trace and focus == "serve"
        setup_samples, servers = [], []
        setup_speed = HostSpeed(SETUP_PROBES)
        setup_speed.probe()
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ledger.setup(k)
            server = serve.setup(k, traced=trace and k == SETUP_REPEATS - 1)
            setup_samples.append(time.perf_counter() - t0)
            setup_speed.probe()
            servers.append(server)
            if k < SETUP_REPEATS - 1 and not (keep_untraced and k == SETUP_REPEATS - 2):
                serve.stop_server(server, setup_only=True)
        final = servers[-1]
        restarts = ledger.time_restarts()

        # Serving stage. Each server is warmed just before it is measured,
        # so both start with every key fresh in L1.
        overhead = {}
        serve_seconds = seconds["serve"]
        if keep_untraced:
            serve_seconds /= 2
            serve.warm_up(servers[-2])
            untraced = serve.measure(servers[-2], serve_seconds)
            servers[-2].stop()
        warm = serve.warm_up(final)
        served = serve.measure(final, serve_seconds)
        if keep_untraced:
            overhead = {"untraced": untraced["udp"]["qps"], "traced": served["udp"]["qps"]}
        server_cpu = serve.stop_server(final, setup_only=False)
        answered = warm["answered"] + served["udp"]["answered"] + served["doh"]["answered"]
        cpu_per_query = (server_cpu - median(serve.setup_cpu or [0.0])) / answered * 1e6

        # Ledger stage.
        if trace and focus == "ledger":
            tracing.uninstall(patches)
            untraced = ledger.run(seconds["ledger"] / 2)
            patches = tracing.install(tracer)
            tracer.phase = tracing.PHASE_LEDGER
            written = ledger.run(seconds["ledger"] / 2)
            overhead = {"untraced": untraced["confirm_tps"], "traced": written["confirm_tps"]}
        else:
            if tracer is not None:
                tracer.phase = tracing.PHASE_LEDGER
            written = ledger.run(seconds["ledger"])
        if tracer is not None:
            tracer.phase = tracing.PHASE_OTHER
        ledger.check_restart()

        # Simulator stage.
        simulated = sim_stage.run(seconds["sim"])
    finally:
        if patches:
            tracing.uninstall(patches)
        serve.close()

    from ddns.formulas import ThroughputParams, theoretical_tps
    report.update({
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "setup_samples_s": setup_samples,
        "generator": {
            "udp_cpu_share": served["udp"]["gen_cpu_share"],
            "doh_cpu_share": served["doh"]["gen_cpu_share"],
            "server_cpu_us_per_query": cpu_per_query,
            "late_replies": serve.late,
            "udp_answers": served["udp"]["correct"], "doh_answers": served["doh"]["correct"],
            "warm_up_answers": warm["answered"]},
        # Not gated: a UDP p99 follows the host's scheduling stalls.
        "udp_tail_us": {"p90": served["udp"]["p90_us"], "p99": served["udp"]["p99_us"]},
        "paper_context": {
            "confirm_tps": written["confirm_tps"],
            "confirm_tps_measured": written["measured"]["confirm_tps"],
            "theoretical_tps": theoretical_tps(
                ThroughputParams(4_000_000, written["mean_tx_weight"], 15)),
            "mean_tx_weight_wu": written["mean_tx_weight"],
            "utxo_count": written["utxo_count"], "height": written["height"]},
        "ledger": {**{k: written[k] for k in ("confirmed_ops", "blocks", "reorgs",
                                               "visible_samples", "elapsed_s")},
                   "restart_samples_s": restarts["samples_s"],
                   "restart_after_loop_s": ledger.restart_after_loop},
        "sim": {k: simulated[k] for k in ("sims", "blocks")},
        # Host-speed scaling (hostspeed.py): each stage's median probe time
        # over the reference, and the figures as measured, before scaling.
        "host_slowdown": {"setup": setup_speed.slowdown(), "restart": restarts["slowdown"],
                          "serve_udp": served["udp"]["slowdown"],
                          "ledger": written["slowdown"], "sim": simulated["slowdown"]},
        "measured": {**{f"udp_{k}": v for k, v in served["udp"]["measured"].items()},
                     **written["measured"], "restart_s": restarts["measured"],
                     "sim_blocks_per_s": simulated["measured"],
                     "setup_s": median(setup_samples)},
    })

    if trace:
        span_sets = [tracer.records]
        tracer.dump(os.path.join(spans_dir, f"{tag}-main.spans"))
        span_sets.append(tracing.load_spans(server_spans))
        values = tracing.aggregate(span_sets, tracer.names, written["confirmed_ops"])
        l2_files = [p for d in (ledger.l2_dir, os.path.join(root, f"serve-{SETUP_REPEATS - 1}",
                                                             "resolver-cache"))
                    for p in glob.glob(os.path.join(d, "*.json"))]
        values["cache.l2.entries"] = len(l2_files)
        values["resolver.server.cpu_us_per_query"] = cpu_per_query
        values["trace.untraced_rate"] = overhead["untraced"]
        values["trace.traced_rate"] = overhead["traced"]
        values["trace.overhead_frac"] = 1.0 - overhead["traced"] / overhead["untraced"]
        metrics = {name: (values[name], unit) for name, unit, _ in tracing.metric_list()}
        report["trace_overhead"] = {"focus_stage": focus, **overhead}
    else:
        values = {
            "udp_qps": served["udp"]["qps"], "doh_qps": served["doh"]["qps"],
            "udp_p50_us": served["udp"]["p50_us"], "udp_p95_us": served["udp"]["p95_us"],
            "doh_p50_us": served["doh"]["p50_us"], "doh_p90_us": served["doh"]["p90_us"],
            "confirm_tps": written["confirm_tps"],
            "visible_p50_ms": written["visible_p50_ms"],
            "visible_p90_ms": written["visible_p90_ms"],
            "restart_s": restarts["restart_s"],
            "sim_blocks_per_s": simulated["sim_blocks_per_s"],
            "setup_s": median(setup_speed.duration(t, k) for k, t in enumerate(setup_samples)),
        }
        metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    return report, metrics, tally.failed == 0, tally.attempted, tally.failed


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
