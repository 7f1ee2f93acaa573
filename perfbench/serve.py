"""Live-cluster workload: an open loop against ``ClusterSupervisor``.

Requests are due at a fixed offered rate whether or not earlier ones have
finished (independent users), and each latency runs from the request's
due time, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import pathlib
import random
import shutil
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

import repro.net.merge as net_merge
from repro.net import ClusterConfig, ClusterSupervisor, merge_run_dir, verify_merged
from repro.tree import random_tree
from repro.workloads import COMBINE, WRITE

from arith import cost_growth, percentile, self_times, union_length
from inproc import KINDS, Metrics
from tracing import Tracer, patched

NODES = 7
TREE_SEED = 9
NODES_PER_PROC = 4  # 2 node processes: no more connections than cores
RATE = 150.0  # offered requests/s, well below the p99 knee
WRITE_RATIO = 0.6
SUB_RUNS = 4
WARMUP_S = 0.5


def requests(seed: int, count: int) -> List[Tuple[int, str, Optional[int]]]:
    """``(node, op, arg)`` triples; integer write values keep SUM exact."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        node = rng.randrange(NODES)
        if rng.random() < WRITE_RATIO:
            out.append((node, WRITE, rng.randrange(-1000, 1001)))
        else:
            out.append((node, COMBINE, None))
    return out


def expected_sum(reqs: List[Tuple[int, str, Optional[int]]]) -> int:
    """Sum of each node's last write.  Writes to one node travel in
    submission order over the one control connection of its process."""
    latest: Dict[int, int] = {}
    for node, op, arg in reqs:
        if op == WRITE:
            latest[node] = arg
    return sum(latest.values())


def serve_gate(
    failed: int, synthesized: int, verdict: Dict[str, Any], wrong_final: int
) -> List[str]:
    """Reasons the run is incorrect (empty when it passes)."""
    reasons = []
    if failed:
        reasons.append(f"{failed} requests failed")
    if synthesized:
        reasons.append(f"{synthesized} losses synthesized without a crash")
    if not verdict.get("ok"):
        why = verdict.get("monitor_violations") or verdict.get("causal")
        reasons.append(f"merged trace rejected: {why}")
    if wrong_final:
        reasons.append(f"{wrong_final} quiescent combines returned a wrong sum")
    return reasons


async def _start(run_dir: pathlib.Path) -> Tuple[ClusterSupervisor, float]:
    config = ClusterConfig.for_tree(
        random_tree(NODES, seed=TREE_SEED), str(run_dir),
        nodes_per_proc=NODES_PER_PROC,
    )
    sup = ClusterSupervisor(config)
    t0 = time.perf_counter()
    try:
        await sup.start()
    except BaseException:
        await sup.shutdown(quiescent_event=False)
        raise
    return sup, time.perf_counter() - t0


def _vm_hwm_mb(sup: ClusterSupervisor) -> float:
    """Largest peak resident set (VmHWM) over the node processes."""
    peak = 0.0
    for child in sup.procs.values():
        with open(f"/proc/{child.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024)
    return peak


async def _load(sup: ClusterSupervisor, reqs: list) -> Dict[str, Any]:
    """Offer ``reqs`` at RATE.  The first WARMUP_S of them open the peer
    connections and are checked but not measured; returns the measured
    requests' records in due order and the measured window."""
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    records: List[Dict[str, Any]] = [{} for _ in reqs]

    async def one(i: int, due: float, node: int, op: str, arg: Any) -> None:
        start = clock()
        frame = await sup.submit(node, op, arg=arg, timeout=30.0)
        records[i] = {"req": i, "op": op, "due": due, "start": start, "end": clock(),
                      "error": frame.get("error")}

    tasks = []
    t0 = clock() + 0.05
    for i, (node, op, arg) in enumerate(reqs):
        due = t0 + i / RATE
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(i, due, node, op, arg)))
    await asyncio.gather(*tasks)
    measured = records[int(RATE * WARMUP_S):]
    return {"records": measured, "failed": sum(1 for r in records if r["error"]),
            "t0": measured[0]["due"], "t1": max(r["end"] for r in measured)}


async def _cluster_run(run_dir: pathlib.Path, reqs: list) -> Dict[str, Any]:
    """Start a cluster, offer the load, quiesce, check quiescent combines,
    read peak memory and shut down."""
    sup, setup = await _start(run_dir)
    try:
        load = await _load(sup, reqs)
        t0 = time.perf_counter()
        quiet = await sup.quiesce()
        quiesce_s = time.perf_counter() - t0
        want = expected_sum(reqs)
        finals = [await sup.submit(node, COMBINE, timeout=30.0) for node in range(NODES)]
        peak = _vm_hwm_mb(sup)
    finally:
        await sup.shutdown()
    failed = len(sup.failed) + load["failed"]
    return {
        "setup": setup, "load": load, "quiesce_s": quiesce_s, "peak_mem_mb": peak,
        "failed": failed + (0 if quiet else 1),
        "wrong_final": sum(1 for f in finals if f.get("value") != want),
        "submitted": len(reqs) + NODES, "config": sup.config,
    }


def _sub_run(run_dir: pathlib.Path, reqs: list, tracer: Optional[Tracer]) -> Dict[str, Any]:
    """One cluster's life: the load, then the merged-trace verdict."""
    try:
        run = asyncio.run(_cluster_run(run_dir, reqs))
        t0 = time.perf_counter()
        events, _files, synthesized = merge_run_dir(run_dir)
        t1 = time.perf_counter()
        if tracer is None:
            verdict = verify_merged(events, n_nodes=NODES)
        else:
            with patched(tracer, [(net_merge, "check_trace", "verify.check_trace")]):
                verdict = verify_merged(events, n_nodes=NODES)
        t2 = time.perf_counter()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    proc_of = run["config"].proc_of
    sends = [ev for ev in events if ev.kind == "send"]
    run.update(
        merge_s=t1 - t0, verify_s=t2 - t1, events=verdict["events"],
        sends=len(sends),
        sends_by_kind={k: sum(1 for ev in sends if ev.detail.get("msg") == k) for k in KINDS},
        cross_proc_sends=sum(1 for ev in sends if proc_of(ev.node) != proc_of(ev.detail["dst"])),
        server_span={ev.detail["req"]: ev.detail["end"] - ev.detail["start"]
                     for ev in events if ev.kind == "span"},
        reasons=serve_gate(run["failed"], synthesized, verdict, run["wrong_final"]),
    )
    return run


def _runs(
    work: pathlib.Path, seed: int, seconds: float, tracer: Optional[Tracer]
) -> List[Dict[str, Any]]:
    """SUB_RUNS fresh clusters, each offered ``seconds / SUB_RUNS`` of load.

    Several short cluster lives instead of one long one give set-up time
    and the verdict a median, and keep one input's history from deciding
    the whole run's latency."""
    count = int(RATE * (WARMUP_S + seconds / SUB_RUNS)) + 1
    tag = "traced" if tracer is not None else "plain"
    return [
        _sub_run(work / f"serve-{seed}-{tag}-{k}", requests(seed * 1000 + k, count), tracer)
        for k in range(SUB_RUNS)
    ]


def _records(runs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [r for run in runs for r in run["load"]["records"]]


def _throughput(runs: List[Dict[str, Any]]) -> float:
    return len(_records(runs)) / sum(run["load"]["t1"] - run["load"]["t0"] for run in runs)


def _summary(runs: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) over the sub-runs."""
    return (sum(run["submitted"] for run in runs), sum(run["failed"] for run in runs),
            [reason for run in runs for reason in run["reasons"]])


def timed_run(
    seed: int, seconds: float, work: pathlib.Path
) -> Tuple[Metrics, int, int, List[str]]:
    """End-to-end metrics -> (value, samples); attempted; failed; reasons."""
    runs = _runs(work, seed, seconds, None)
    attempted, failed, reasons = _summary(runs)
    recs = _records(runs)
    metrics = {
        "setup_s": (statistics.median(run["setup"] for run in runs), len(runs)),
        "throughput_rps": (_throughput(runs), len(recs)),
    }
    for op in (COMBINE, WRITE):
        samples = [r["end"] - r["due"] for r in recs if r["op"] == op]
        for q in (0.5, 0.99):
            value, n = percentile(samples, q)
            metrics[f"{op}_p{round(q * 100)}_ms"] = (value * 1e3, n)
    growth = [cost_growth([r["end"] - r["due"] for r in run["load"]["records"]]) for run in runs]
    metrics["msgs_per_req"] = (sum(run["sends"] for run in runs) / attempted, attempted)
    metrics["cost_growth"] = (statistics.median(growth), len(growth))
    metrics["peak_mem_mb"] = (max(run["peak_mem_mb"] for run in runs), len(runs))
    metrics["ok_frac"] = ((attempted - failed) / attempted, attempted)
    verdicts = [run["merge_s"] + run["verify_s"] for run in runs]
    metrics["verdict_s"] = (statistics.median(verdicts), len(runs))
    return metrics, attempted, failed, reasons


def traced_run(
    seed: int, seconds: float, work: pathlib.Path
) -> Tuple[Dict[str, float], int, int, List[str], Tracer]:
    """Per-layer metrics; an untraced run on the same input gives the
    tracing overhead."""
    plain = _runs(work, seed, seconds, None)
    tracer = Tracer()
    runs = _runs(work, seed, seconds, tracer)
    recs = _records(runs)
    for i, r in enumerate(recs):
        tracer.record("net.submit", int(r["start"] * 1e9), int(r["end"] * 1e9), i)
    spans = tracer.finished()
    own = self_times(spans)
    check_s = sum(t for s, t in zip(spans, own) if s[0] == "verify.check_trace") / 1e9
    submit, server, overhead = [], [], []
    for run in runs:
        for r in run["load"]["records"]:
            took = r["end"] - r["start"]
            submit.append(took)
            inside = run["server_span"].get(r["req"])
            if inside is not None:
                server.append(inside)
                overhead.append(took - inside)
    attempted, failed, reasons = _summary(runs)
    out: Dict[str, float] = {
        "net.submit_ms.p50": percentile(submit, 0.5)[0] * 1e3,
        "net.submit_ms.p99": percentile(submit, 0.99)[0] * 1e3,
        "net.server_span_ms.p50": percentile(server, 0.5)[0] * 1e3,
        "net.server_span_ms.p99": percentile(server, 0.99)[0] * 1e3,
        "net.ctrl_overhead_ms": percentile(overhead, 0.5)[0] * 1e3,
        "net.cross_proc_sends_per_req": sum(run["cross_proc_sends"] for run in runs) / attempted,
        "net.quiesce_s": statistics.median(run["quiesce_s"] for run in runs),
        "loadgen.lag_p99_ms": percentile([r["start"] - r["due"] for r in recs], 0.99)[0] * 1e3,
        "merge.s": sum(run["merge_s"] for run in runs),
        "verify.check_trace_s": check_s,
        "verify.monitors_s": sum(run["verify_s"] for run in runs) - check_s,
        "verify.events": float(sum(run["events"] for run in runs)),
    }
    for kind in KINDS:
        out[f"msgs.{kind}_per_req"] = sum(run["sends_by_kind"][kind] for run in runs) / attempted
    wall = covered = 0.0
    for run in runs:
        lo, hi = run["load"]["t0"] * 1e9, run["load"]["t1"] * 1e9
        wall += hi - lo
        in_flight = [(r["start"] * 1e9, r["end"] * 1e9) for r in run["load"]["records"]]
        covered += union_length(in_flight, lo, hi)
    out["trace.unattributed_frac"] = 1.0 - covered / wall
    out["trace.overhead_frac"] = 1.0 - _throughput(runs) / _throughput(plain)
    plain_attempted, plain_failed, plain_reasons = _summary(plain)
    return out, plain_attempted + attempted, plain_failed + failed, plain_reasons + reasons, tracer
