"""In-process workloads: one caller drives ``AggregationSystem.execute``.

A run is a series of *passes*.  Each pass builds a fresh engine, runs a
fixed number of requests generated from ``(seed, pass)`` in a closed loop,
and checks every combine against a running-sum oracle.  Passes repeat
until the run's seconds are used, so every pass does the same work and
``cost_growth`` compares like with like across commits.
"""

from __future__ import annotations

import bisect
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import AggregationSystem
from repro.core.mechanism import LeaseNode
from repro.core.runtime import Router
from repro.recovery import Checkpoint
from repro.sim.network import SynchronousNetwork
from repro.sim.stats import MessageStats
from repro.tree import Tree, binary_tree, path_tree
from repro.workloads import COMBINE, WRITE, combine, write

from arith import cost_growth, percentile, self_times, totals_by_name
from tracing import Tracer, patched

KINDS = ("probe", "response", "update", "release")
TELEMETRY = ("emit_request_begin", "finish_span", "emit_quiescent")
#: metric name -> (value, sample count)
Metrics = Dict[str, Tuple[float, int]]


@dataclass(frozen=True)
class Workload:
    backend: str
    tree: Callable[[], Tree]
    zipf: float  # node-choice exponent; 0 is uniform
    read_ratio: float
    pass_requests: int

    def engine(self) -> AggregationSystem:
        return AggregationSystem(self.tree(), backend=self.backend)

    def requests(self, seed: int) -> list:
        """The pass's input: ``pass_requests`` writes and combines.

        Write values are integers so the SUM oracle is exact."""
        rng = random.Random(seed)
        n = self.tree().n
        if self.zipf > 0.0:
            cum, acc = [], 0.0
            for rank in range(1, n + 1):
                acc += rank ** -self.zipf
                cum.append(acc)
            pick = lambda: min(n - 1, bisect.bisect_right(cum, rng.random() * acc))
        else:
            pick = lambda: rng.randrange(n)
        out = []
        for _ in range(self.pass_requests):
            node = pick()
            if rng.random() < self.read_ratio:
                out.append(combine(node))
            else:
                out.append(write(node, rng.randrange(-1000, 1001)))
        return out


WORKLOADS: Dict[str, Workload] = {
    "ref-mixed-long": Workload(
        backend="reference", tree=lambda: path_tree(31),
        zipf=0.0, read_ratio=0.5, pass_requests=8000,
    ),
    "flat-read-zipf": Workload(
        backend="flat", tree=lambda: binary_tree(9),
        zipf=1.0, read_ratio=0.9, pass_requests=64000,
    ),
}


def wrong_retvals(requests: list) -> int:
    """Combines whose retval differs from the running sum of the latest
    write at every node (sequential strict consistency)."""
    latest: Dict[int, int] = {}
    total = 0
    wrong = 0
    for q in requests:
        if q.op == WRITE:
            total += q.arg - latest.get(q.node, 0)
            latest[q.node] = q.arg
        elif q.op == COMBINE and q.retval != total:
            wrong += 1
    return wrong


def _drive(
    system: AggregationSystem, requests: list, tracer: Optional[Tracer]
) -> Tuple[float, List[float]]:
    """Run the closed loop; returns (wall seconds, per-request seconds)."""
    execute = system.execute
    if tracer is not None:
        execute = tracer.wrap("engine.execute", execute)
    clock = time.perf_counter
    lat = [0.0] * len(requests)
    t0 = clock()
    for i, q in enumerate(requests):
        if tracer is not None:
            tracer.req = i
        a = clock()
        execute(q)
        lat[i] = clock() - a
    return clock() - t0, lat


@dataclass
class Pass:
    system: AggregationSystem
    requests: list
    wall: float
    lat: List[float]
    wrong: int


def run_pass(spec: Workload, seed: int, tracer: Optional[Tracer] = None) -> Pass:
    requests = spec.requests(seed)
    system = spec.engine()
    if tracer is None:
        wall, lat = _drive(system, requests, None)
    else:
        layer = "runtime" if spec.backend == "reference" else "flat"
        rt = system.runtime
        targets = [(rt, f, "telemetry." + f) for f in TELEMETRY]
        targets += [(rt, f, f"{layer}.{f}") for f in ("submit_write", "submit_combine", "drain")]
        with patched(tracer, targets):
            wall, lat = _drive(system, requests, tracer)
    system.check_quiescent_invariants()
    return Pass(system, requests, wall, lat, wrong_retvals(requests))


#: Wrappers that must be in place before the engine is built: nodes bind
#: their send callable and the transport its receiver at construction.
CLASS_TARGETS = [
    (Router, "route", "runtime.route"),
    (LeaseNode, "on_message", "mechanism.*"),
    (LeaseNode, "write", "mechanism.write"),
    (LeaseNode, "begin_combine", "mechanism.begin_combine"),
    (SynchronousNetwork, "send", "sim.send"),
    (SynchronousNetwork, "run_to_quiescence", "sim.run_to_quiescence"),
    (MessageStats, "record", "sim.record"),
]


def measure_setup(name: str, src: str, bench_dir: str, reps: int = 3) -> float:
    """Median cold start: a fresh interpreter imports the package and
    builds the workload's engine."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{src!r}, {bench_dir!r}]\n"
        "import inproc\n"
        f"inproc.WORKLOADS[{name!r}].engine()\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def verdict_seconds(system: AggregationSystem, reps: int = 9) -> float:
    """Median time of the engine's quiescent-invariant battery."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        system.check_quiescent_invariants()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_run(
    name: str, seed: int, seconds: float, src: str, bench_dir: str
) -> Tuple[Metrics, int, int]:
    """End-to-end metrics -> (value, samples); attempted; failed.

    Latency percentiles, ``cost_growth`` and ``verdict_s`` are medians
    over passes, so neither the benchmark's memory nor its result depends
    on how many passes fit in the run."""
    spec = WORKLOADS[name]
    setup = measure_setup(name, src, bench_dir)
    per_pass: Dict[str, List[float]] = {}
    samples: Dict[str, int] = {}
    walls = 0.0
    msgs = attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        p = run_pass(spec, seed * 1000 + len(per_pass.get("cost_growth", ())))
        row = {"cost_growth": cost_growth(p.lat), "verdict_s": verdict_seconds(p.system)}
        for op in (COMBINE, WRITE):
            lat = [d for q, d in zip(p.requests, p.lat) if q.op == op]
            for q in (0.5, 0.99):
                value, n = percentile(lat, q)
                key = f"{op}_p{round(q * 100)}_ms"
                row[key] = value * 1e3
                samples[key] = samples.get(key, 0) + n
        for key, value in row.items():
            per_pass.setdefault(key, []).append(value)
        walls += p.wall
        msgs += p.system.stats.total
        attempted += len(p.requests)
        failed += p.wrong
        del p  # the next pass's peak memory must not include this one
    passes = len(per_pass["cost_growth"])
    metrics = {
        "setup_s": (setup, 3),
        "throughput_rps": (attempted / walls, attempted),
    }
    for key, n in samples.items():
        metrics[key] = (statistics.median(per_pass[key]), n)
    metrics["msgs_per_req"] = (msgs / attempted, attempted)
    metrics["cost_growth"] = (statistics.median(per_pass["cost_growth"]), passes)
    metrics["peak_mem_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    metrics["ok_frac"] = ((attempted - failed) / attempted, attempted)
    metrics["verdict_s"] = (statistics.median(per_pass["verdict_s"]), passes)
    return metrics, attempted, failed


def traced_run(name: str, seed: int) -> Tuple[Dict[str, float], int, int, Tracer]:
    """Per-layer metrics from one untraced and one traced pass on the
    same input."""
    spec = WORKLOADS[name]
    plain = run_pass(spec, seed * 1000)
    tracer = Tracer()
    with patched(tracer, CLASS_TARGETS):
        p = run_pass(spec, seed * 1000, tracer)
    n = len(p.requests)
    rt = p.system.runtime
    spans = tracer.finished()
    own_ns = self_times(spans)
    by = totals_by_name(spans, own_ns)

    def own(*names: str) -> float:
        return sum(by.get(x, (0, 0))[1] for x in names) / 1e3  # µs

    def calls(*names: str) -> int:
        return sum(by.get(x, (0, 0))[0] for x in names)

    def per(total: float, count: int) -> float:
        return total / count if count else 0.0

    routed = calls("runtime.route")
    out: Dict[str, float] = {
        "engine.self_us_per_req": own("engine.execute") / n,
        "telemetry.us_per_req": own(*("telemetry." + f for f in TELEMETRY)) / n,
        "telemetry.spans_held": float(len(rt.spans)),
        "runtime.submit_us_per_req": own("runtime.submit_write", "runtime.submit_combine") / n,
        "runtime.drain_us_per_req": own("runtime.drain") / n,
        "runtime.route_us_per_msg": per(own("runtime.route"), routed),
    }
    for kind in KINDS:
        span = "mechanism." + kind
        out[f"mechanism.calls.{kind}"] = float(calls(span))
        out[f"mechanism.us_per_msg.{kind}"] = per(own(span), calls(span))
    for op in ("write", "begin_combine"):
        out[f"mechanism.us_per_call.{op}"] = per(own("mechanism." + op), calls("mechanism." + op))
    out.update(_release_quarters(spans, own_ns, n))
    out["sim.send_us_per_msg"] = per(own("sim.send"), calls("sim.send"))
    out["sim.loop_self_us_per_msg"] = per(own("sim.run_to_quiescence"), routed)
    out["sim.record_us_per_msg"] = per(own("sim.record"), calls("sim.record"))
    out["flat.drain_us_per_req"] = own("flat.drain") / n
    out["flat.submit_us_per_req"] = own("flat.submit_write", "flat.submit_combine") / n
    out["flat.msgs_per_drain"] = per(rt.stats.total, calls("flat.drain"))
    t0 = time.perf_counter()
    cps = [Checkpoint.capture(node, 0, 0.0) for node in p.system.nodes.values()]
    out["recovery.capture_ms"] = (time.perf_counter() - t0) * 1e3
    out["recovery.checkpoint_bytes"] = float(sum(len(pickle.dumps(cp)) for cp in cps))
    by_kind = rt.stats.by_kind()
    for kind in KINDS:
        out[f"msgs.{kind}_per_req"] = by_kind.get(kind, 0) / n
    covered = sum(own_ns) / 1e9
    out["trace.unattributed_frac"] = 1.0 - covered / p.wall
    out["trace.overhead_frac"] = 1.0 - (n / p.wall) / (len(plain.requests) / plain.wall)
    _print_layers(by, p.wall, n, covered)
    failed = plain.wrong + p.wrong
    return out, 2 * n, failed, tracer


def _release_quarters(spans: list, own: List[float], n: int) -> Dict[str, float]:
    """Mean self µs of release handling in the first and last quarter of
    the pass's requests."""
    quarter = n // 4
    q1: List[float] = []
    q4: List[float] = []
    for span, t in zip(spans, own):
        if span[0] != "mechanism.release":
            continue
        if span[4] < quarter:
            q1.append(t)
        elif span[4] >= n - quarter:
            q4.append(t)
    mean = lambda xs: sum(xs) / len(xs) / 1e3 if xs else 0.0
    return {"mechanism.release_us.q1": mean(q1), "mechanism.release_us.q4": mean(q4)}


def _print_layers(by: Dict[str, Tuple[int, float]], wall: float, n: int, covered: float) -> None:
    """Self time per span name as µs/request and share of the traced wall."""
    print(f"{'layer.function':34s} {'calls':>9s} {'self us/req':>12s} {'share':>7s}")
    for name, (count, total) in sorted(by.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:34s} {count:9d} {total / 1e3 / n:12.3f} {total / 1e9 / wall:7.1%}")
    rest = wall - covered
    print(f"{'(unattributed)':34s} {'':9s} {rest * 1e6 / n:12.3f} {rest / wall:7.1%}")
    print(f"{'(traced wall)':34s} {'':9s} {wall * 1e6 / n:12.3f} {1:7.1%}")
