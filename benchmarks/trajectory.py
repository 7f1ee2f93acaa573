"""Benchmark trajectory: longitudinal throughput tracking across commits.

Runs the canonical benchmark suite (dispatch micro-op, scalability,
golden-workload messages, churn) in-process, appends one git-sha-stamped
row to ``benchmarks/results/BENCH_trajectory.json``, prints the delta
against the previous comparable row, and exits nonzero when any bench's
throughput regressed by more than the threshold (default 25%).

Unlike the pytest benchmarks (one-shot artifacts), this file is a
*trajectory*: the JSON accumulates one row per run, so plotting it over
commits shows the performance history of the repo.  CI runs it in
``--quick`` mode as the ``perf-smoke`` job and archives the JSON.

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py [--quick] [--threshold 0.25]

Throughput metrics (higher is better; the regression gate only looks at
these — exact message counts are printed for context but gated by the
deterministic golden tests, not here):

* ``dispatch``     — warm-probe deliveries/sec through ``LeaseNode.on_message``
* ``scalability``  — sequential-engine requests/sec on a balanced binary tree
* ``flat``         — flat-backend requests/sec on the n=1023 path workload
                     (cross-checked against the reference backend's counts)
* ``messages``     — requests/sec across the four golden workloads
* ``churn``        — dynamic-engine churn ops/sec (oracle-checked)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))            # sibling bench modules
sys.path.insert(0, str(HERE.parent / "src"))  # repro, when PYTHONPATH unset

RESULTS_DIR = HERE / "results"
TRAJECTORY_PATH = RESULTS_DIR / "BENCH_trajectory.json"


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=HERE, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------- benches
def bench_dispatch(quick: bool) -> Dict[str, Any]:
    """Warm-probe deliveries/sec at a star center (the hottest receive
    path), mirroring ``bench_mechanism_ops.test_dispatch_table_vs_...``."""
    from time import perf_counter

    from repro import AggregationSystem, star_tree
    from repro.core.mechanism import LeaseNode
    from repro.core.messages import Probe
    from repro.workloads import combine

    leaves = 15
    iters = 1000 if quick else 3000
    rounds = 3 if quick else 5
    probe = Probe()

    def one_round() -> float:
        system = AggregationSystem(star_tree(leaves + 1))
        system.execute(combine(0))
        node = system.nodes[0]
        srcs = [1 + (i % leaves) for i in range(iters)]
        t0 = perf_counter()
        for src in srcs:
            LeaseNode.on_message(node, src, probe)
        return perf_counter() - t0

    best = min(one_round() for _ in range(rounds))
    ns_per_op = best / iters * 1e9
    return {"throughput": iters / best, "unit": "deliveries/sec",
            "ns_per_op": round(ns_per_op, 1)}


def bench_scalability(quick: bool) -> Dict[str, Any]:
    """Sequential-engine requests/sec on a balanced binary tree, mirroring
    ``bench_scalability.run_scaling`` at one representative size."""
    from bench_scalability import topo

    from repro import AggregationSystem
    from repro.workloads import uniform_workload
    from repro.workloads.requests import copy_sequence

    n = 63 if quick else 255
    length = 150 if quick else 300
    tree = topo("binary", n)
    wl = uniform_workload(tree.n, length, read_ratio=0.5, seed=41)
    best_dt, messages = float("inf"), 0
    for _ in range(2):
        system = AggregationSystem(tree)
        t0 = time.perf_counter()
        result = system.run(copy_sequence(wl))
        dt = time.perf_counter() - t0
        best_dt, messages = min(best_dt, dt), result.total_messages
    return {"throughput": length / best_dt, "unit": "requests/sec",
            "n": n, "length": length, "messages": messages}


def bench_flat(quick: bool) -> Dict[str, Any]:
    """Flat-backend requests/sec on the n=1023 path workload (the
    execution-backend seam's headline configuration; ``--quick`` drops to
    n=255).  This row's throughput gate is what protects flat's speed.
    It also records the speedup over the reference backend, ungated: the
    ratio falls whenever the reference gets faster."""
    from repro import AggregationSystem, path_tree
    from repro.workloads import uniform_workload
    from repro.workloads.requests import copy_sequence

    n = 255 if quick else 1023
    length = 150 if quick else 300
    tree = path_tree(n)
    wl = uniform_workload(tree.n, length, read_ratio=0.5, seed=41)

    def run(backend: str) -> tuple:
        best_dt, messages = float("inf"), 0
        for _ in range(2):
            system = AggregationSystem(tree, backend=backend)
            t0 = time.perf_counter()
            result = system.run(copy_sequence(wl))
            best_dt = min(best_dt, time.perf_counter() - t0)
            messages = result.total_messages
        return best_dt, messages

    flat_dt, flat_msgs = run("flat")
    ref_dt, ref_msgs = run("reference")
    if flat_msgs != ref_msgs:
        raise SystemExit(
            f"flat bench: backends disagree on messages ({flat_msgs} vs {ref_msgs})"
        )
    return {"throughput": length / flat_dt, "unit": "requests/sec",
            "n": n, "length": length, "messages": flat_msgs,
            "speedup_vs_reference": round(ref_dt / flat_dt, 2)}


def bench_messages(quick: bool) -> Dict[str, Any]:
    """Requests/sec (and exact message totals) across the four golden
    workloads of ``tests/test_golden.py``, run under RWW.  Best-of-3
    passes: like the other benches, a single pass is too exposed to
    scheduler contention bursts for a 25% regression gate."""
    from bench_mechanism_ops import _golden_scenarios

    from repro import AggregationSystem
    from repro.workloads.requests import copy_sequence

    scenarios = _golden_scenarios()
    totals: Dict[str, int] = {}
    best_dt, requests = float("inf"), 0
    for _ in range(3):
        requests = 0
        t0 = time.perf_counter()
        for name, (tree, wl) in scenarios.items():
            system = AggregationSystem(tree)
            result = system.run(copy_sequence(wl))
            totals[name] = result.total_messages
            requests += len(result.requests)
        best_dt = min(best_dt, time.perf_counter() - t0)
    return {"throughput": requests / best_dt, "unit": "requests/sec",
            "messages": totals}


def bench_churn(quick: bool) -> Dict[str, Any]:
    """Dynamic-engine churn ops/sec, mirroring ``bench_churn.run_full_churn``
    (every combine checked against the sequential-strictness oracle)."""
    from bench_churn import run_full_churn

    ops = 600 if quick else 2400
    t0 = time.perf_counter()
    system, counts, mismatches = run_full_churn(ops=ops, seed=8)
    dt = time.perf_counter() - t0
    if mismatches:
        raise SystemExit(f"churn bench: {mismatches} oracle mismatches")
    return {"throughput": ops / dt, "unit": "ops/sec",
            "ops": ops, "messages": system.stats.total,
            "fault_events": sum(counts.get(k, 0)
                                for k in ("join", "crash", "recover", "leave"))}


def bench_serve(quick: bool) -> Dict[str, Any]:
    """Live-deployment requests/sec over a real 7-process TCP tree,
    mirroring ``bench_serve.test_serve_throughput`` (merged traces
    re-verified; ``--quick`` drops the request count)."""
    import asyncio
    import tempfile

    from bench_serve import NODES, drive_cluster, percentile

    from repro.net import merge_run_dir, verify_merged

    requests = 30 if quick else 60
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as run_dir:
        latencies, wall, failed = asyncio.run(drive_cluster(run_dir, requests))
        if failed:
            raise SystemExit(f"serve bench: {failed} requests failed")
        events, _, synthesized = merge_run_dir(run_dir)
        verdict = verify_merged(events, n_nodes=NODES)
        if synthesized or not verdict["ok"]:
            raise SystemExit(f"serve bench: merged-trace verification failed: {verdict}")
    samples = [s for v in latencies.values() for s in v]
    return {"throughput": len(samples) / wall, "unit": "requests/sec",
            "nodes": NODES, "requests": len(samples),
            "p50_ms": round(percentile(samples, 0.50) * 1e3, 3),
            "p99_ms": round(percentile(samples, 0.99) * 1e3, 3)}


def bench_explore(quick: bool) -> Dict[str, Any]:
    """Model-checker states visited per second on the pinned 3-node/4-op
    scope (derived POR independence, the `verify explore` default).  The
    state/transition counts ride along as exactness pins: a POR change
    that silently shrinks or inflates the explored space shows up here
    even when the throughput stays flat."""
    from repro.tree.generators import path_tree
    from repro.verify.explore import Explorer, default_script

    passes = 1 if quick else 3
    best_dt, result = float("inf"), None
    for _ in range(passes):
        t0 = time.perf_counter()
        result = Explorer(path_tree(3), default_script(3, 4)).run()
        best_dt = min(best_dt, time.perf_counter() - t0)
    assert result is not None
    if not result.ok:
        raise SystemExit("explore bench: pinned scope found violations")
    return {"throughput": result.states / best_dt, "unit": "states/sec",
            "states": result.states, "transitions": result.transitions,
            "reduction_ratio": round(result.reduction_ratio, 4),
            "independence": "derived"}


BENCHES = {
    "dispatch": bench_dispatch,
    "scalability": bench_scalability,
    "flat": bench_flat,
    "messages": bench_messages,
    "churn": bench_churn,
    "serve": bench_serve,
    "explore": bench_explore,
}


# --------------------------------------------------------------- trajectory
def load_trajectory(path: pathlib.Path) -> List[Dict[str, Any]]:
    if not path.exists():
        return []
    try:
        rows = json.loads(path.read_text())
    except ValueError:
        raise SystemExit(f"trajectory: {path} is corrupt; move it aside")
    if not isinstance(rows, list):
        raise SystemExit(f"trajectory: {path} is not a JSON list")
    return rows


def previous_comparable(rows: List[Dict[str, Any]], quick: bool) -> Optional[Dict[str, Any]]:
    """The latest earlier row recorded in the same mode (quick rows are not
    comparable to full rows — different workload sizes)."""
    for row in reversed(rows):
        if row.get("quick") == quick:
            return row
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload sizes (the CI perf-smoke mode)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fail when a bench's throughput drops by more "
                             "than this fraction vs the previous row")
    parser.add_argument("--only", action="append", choices=sorted(BENCHES),
                        help="run a subset of benches (repeatable)")
    parser.add_argument("--out", type=pathlib.Path, default=TRAJECTORY_PATH,
                        help="trajectory JSON path")
    parser.add_argument("--no-append", action="store_true",
                        help="measure and compare but do not record the row")
    args = parser.parse_args(argv)

    names = args.only or sorted(BENCHES)
    benches: Dict[str, Any] = {}
    for name in names:
        t0 = time.perf_counter()
        benches[name] = BENCHES[name](args.quick)
        dt = time.perf_counter() - t0
        print(f"{name:<12} {benches[name]['throughput']:>12.0f} "
              f"{benches[name]['unit']:<14} ({dt:.2f}s)")

    rows = load_trajectory(args.out)
    prev = previous_comparable(rows, args.quick)
    row = {
        "sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": args.quick,
        "benches": benches,
    }

    regressions = []
    if prev is None:
        print("\nno previous comparable row — baseline recorded, no gate")
    else:
        print(f"\ndelta vs {prev['sha']} ({prev['timestamp']}):")
        for name, data in benches.items():
            old = prev.get("benches", {}).get(name)
            if old is None or not old.get("throughput"):
                print(f"  {name:<12} (new bench — no baseline)")
                continue
            delta = data["throughput"] / old["throughput"] - 1.0
            flag = ""
            if delta < -args.threshold:
                flag = f"  REGRESSION (> {args.threshold:.0%} drop)"
                regressions.append((name, delta))
            print(f"  {name:<12} {delta:+7.1%}{flag}")

    if not args.no_append:
        RESULTS_DIR.mkdir(exist_ok=True)
        rows.append(row)
        args.out.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"\nappended row for {row['sha']} to {args.out} "
              f"({len(rows)} rows)")

    if regressions:
        for name, delta in regressions:
            print(f"FAIL: {name} throughput {delta:+.1%} "
                  f"(threshold -{args.threshold:.0%})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
