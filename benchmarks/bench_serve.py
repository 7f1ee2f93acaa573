"""Live-deployment benchmark: request throughput over a real process tree.

Spawns a 7-node tree as OS processes over framed TCP
(:class:`repro.net.cluster.ClusterSupervisor`, the same path as
``python -m repro serve``), drives a supervisor-serial write/combine mix,
and reports requests/sec plus p50/p99 request latency per op.  The run's
per-process traces are merged and re-verified offline — the benchmark
fails if the live cluster ever produces a trace the simulator's checkers
would reject.

The numbers measure the deployment stack (socket round-trips, framing,
event-loop scheduling), not the mechanism: the same workload in-process
runs orders of magnitude faster.  The ``serve`` row of
``benchmarks/perfgate.py`` times the same drive (30 requests) against the
parent commit.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Tuple

import pytest

from repro.net import ClusterConfig, ClusterSupervisor, merge_run_dir, verify_merged
from repro.tree import random_tree
from repro.util import format_table
from repro.workloads.requests import COMBINE, WRITE

NODES = 7
REQUESTS = 60
WRITE_RATIO = 0.6


def percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


async def drive_cluster(
    run_dir: str, requests: int = REQUESTS
) -> Tuple[Dict[str, List[float]], float, int]:
    """Drive a supervisor-serial workload; returns per-op latency samples,
    total wall time, and the count of failed requests."""
    import random

    tree = random_tree(NODES, seed=9)
    config = ClusterConfig.for_tree(
        run_dir=run_dir, tree=tree, nodes_per_proc=1,
        lease_ttl=5.0, checkpoint_interval=2.0,
    )
    sup = ClusterSupervisor(config)
    rng = random.Random(17)
    latencies: Dict[str, List[float]] = {WRITE: [], COMBINE: []}
    await sup.start()
    try:
        t0 = time.perf_counter()
        for _ in range(requests):
            node = rng.randrange(config.n)
            op = WRITE if rng.random() < WRITE_RATIO else COMBINE
            arg = rng.uniform(-10.0, 10.0) if op == WRITE else None
            q0 = time.perf_counter()
            await sup.submit(node, op, arg=arg, timeout=30.0)
            latencies[op].append(time.perf_counter() - q0)
        wall = time.perf_counter() - t0
        await sup.quiesce(timeout=20.0)
    finally:
        await sup.shutdown()
    return latencies, wall, len(sup.failed)


@pytest.mark.benchmark(group="serve")
def test_serve_throughput(tmp_path, emit, emit_json):
    latencies, wall, failed = asyncio.run(drive_cluster(str(tmp_path)))
    assert failed == 0, f"{failed} requests failed on a healthy cluster"

    events, files, synthesized = merge_run_dir(tmp_path)
    verdict = verify_merged(events, n_nodes=NODES)
    assert synthesized == 0, "crash losses synthesized without any crash"
    assert verdict["ok"], verdict

    total = sum(len(v) for v in latencies.values())
    rows = []
    summary: Dict[str, Any] = {
        "benchmark": "serve",
        "nodes": NODES,
        "procs": NODES,
        "requests": total,
        "throughput_rps": round(total / wall, 1),
        "verified_events": verdict["events"],
    }
    for op in (WRITE, COMBINE):
        samples = latencies[op]
        p50 = percentile(samples, 0.50)
        p99 = percentile(samples, 0.99)
        rows.append((op, len(samples), f"{p50 * 1e3:.2f}", f"{p99 * 1e3:.2f}"))
        summary[f"{op}_p50_ms"] = round(p50 * 1e3, 3)
        summary[f"{op}_p99_ms"] = round(p99 * 1e3, 3)

    text = format_table(
        ["op", "requests", "p50 ms", "p99 ms"],
        rows,
        title=(
            f"Live serve: {NODES} nodes across {NODES} OS processes over TCP — "
            f"{total} requests at {summary['throughput_rps']} req/sec, merged "
            f"trace re-verified ({verdict['events']} events, causal OK):"
        ),
    )
    emit("serve_throughput", text)
    emit_json("serve_throughput", summary)
