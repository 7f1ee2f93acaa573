"""Perf gate: time the parent commit and this checkout on the same host.

    python benchmarks/perfgate.py

Run from a git checkout whose ``HEAD^`` exists (CI checks out with
``fetch-depth: 2``; on a pull request's merge commit ``HEAD^`` is the base
branch tip).  The parent is checked out into a temporary ``git worktree``
that is removed on exit.  Every row is sampled ``SAMPLES`` times per side,
each sample in a fresh interpreter, alternating which side runs first.
The gate prints each side's median [q1, q3] and exits 1 when a row's
median on this checkout is more than ``THRESHOLD`` below the parent's (a
row that fails is sampled as often again and judged on all its samples),
or when any sample's correctness check fails.  It writes the samples to
``artifacts/perfgate.json``.

Rows (higher is better; all throughputs):

* ``dispatch``  warm-probe deliveries/s through ``LeaseNode.on_message``
* ``flat``      flat-backend requests/s on a 255-node path; message counts
                must equal the reference backend's.  The path keeps the
                flat fast loop on its degree-2 handlers, which the
                perfbench workloads barely reach (1.3% of deliveries on
                ``flat-read-zipf``).
* ``churn``     dynamic-engine churn ops/s, every combine oracle-checked
* ``explore``   model-checker states/s on the 3-node/4-op scope; the
                exploration must find no violation
* ``serve``     requests/s over a real 7-process TCP tree; the merged
                trace must verify
* ``ref-mixed-long``, ``flat-read-zipf``  ``throughput_rps`` of
                ``perfbench/run.py --seconds 2``, each side running its
                own ``perfbench/``; a non-zero exit or ``correct: false``
                fails the gate.

The in-process rows run this file's code on both sides, importing
``repro`` from that side's ``src/``, so only the package differs.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SUMMARY = ROOT / "artifacts" / "perfgate.json"

SAMPLES = 5
#: Largest allowed drop of the change's median below the parent's.
THRESHOLD = 0.25


# -------------------------------------------------------------------- rows
def row_dispatch() -> float:
    """Warm-probe deliveries/s at a star center (the hottest receive path),
    best of 3 rounds of 1000 deliveries."""
    from repro import AggregationSystem, star_tree
    from repro.core.mechanism import LeaseNode
    from repro.core.messages import Probe
    from repro.workloads import combine

    leaves, iters = 15, 1000
    probe = Probe()

    def one_round() -> float:
        system = AggregationSystem(star_tree(leaves + 1))
        system.execute(combine(0))
        node = system.nodes[0]
        srcs = [1 + (i % leaves) for i in range(iters)]
        t0 = time.perf_counter()
        for src in srcs:
            LeaseNode.on_message(node, src, probe)
        return time.perf_counter() - t0

    return iters / min(one_round() for _ in range(3))


def row_flat() -> float:
    """Flat-backend requests/s on a 150-request path(255) workload, best of
    2, cross-checked against the reference backend's message count."""
    from repro import AggregationSystem, path_tree
    from repro.workloads import uniform_workload
    from repro.workloads.requests import copy_sequence

    length = 150
    tree = path_tree(255)
    wl = uniform_workload(tree.n, length, read_ratio=0.5, seed=41)

    def run(backend: str) -> Tuple[float, int]:
        best_dt, messages = float("inf"), 0
        for _ in range(2):
            system = AggregationSystem(tree, backend=backend)
            t0 = time.perf_counter()
            messages = system.run(copy_sequence(wl)).total_messages
            best_dt = min(best_dt, time.perf_counter() - t0)
        return best_dt, messages

    flat_dt, flat_msgs = run("flat")
    _, ref_msgs = run("reference")
    if flat_msgs != ref_msgs:
        raise SystemExit(f"flat: backends disagree on messages ({flat_msgs} vs {ref_msgs})")
    return length / flat_dt


def row_churn() -> float:
    """Dynamic-engine churn ops/s over 600 ops (``bench_churn``)."""
    from bench_churn import run_full_churn

    ops = 600
    t0 = time.perf_counter()
    _, _, mismatches = run_full_churn(ops=ops, seed=8)
    dt = time.perf_counter() - t0
    if mismatches:
        raise SystemExit(f"churn: {mismatches} oracle mismatches")
    return ops / dt


def row_explore() -> float:
    """Model-checker states/s on the pinned 3-node/4-op scope."""
    from repro.tree.generators import path_tree
    from repro.verify.explore import Explorer, default_script

    t0 = time.perf_counter()
    result = Explorer(path_tree(3), default_script(3, 4)).run()
    dt = time.perf_counter() - t0
    if not result.ok:
        raise SystemExit("explore: pinned scope found violations")
    return result.states / dt


def row_serve() -> float:
    """Requests/s of 30 supervisor-serial requests over a live 7-process
    tree (``bench_serve``), merged traces re-verified."""
    import asyncio

    from bench_serve import NODES, drive_cluster

    from repro.net import merge_run_dir, verify_merged

    with tempfile.TemporaryDirectory(prefix="perfgate-serve-") as run_dir:
        latencies, wall, failed = asyncio.run(drive_cluster(run_dir, 30))
        if failed:
            raise SystemExit(f"serve: {failed} requests failed")
        events, _, synthesized = merge_run_dir(run_dir)
        check = verify_merged(events, n_nodes=NODES)
        if synthesized or not check["ok"]:
            raise SystemExit(f"serve: merged-trace verification failed: {check}")
    return sum(len(v) for v in latencies.values()) / wall


#: row -> (unit, in-process measurement; None runs the perfbench workload
#: of that name).
ROWS: Dict[str, Tuple[str, Optional[Callable[[], float]]]] = {
    "dispatch": ("deliveries/s", row_dispatch),
    "flat": ("req/s", row_flat),
    "churn": ("ops/s", row_churn),
    "explore": ("states/s", row_explore),
    "serve": ("req/s", row_serve),
    "ref-mixed-long": ("req/s", None),
    "flat-read-zipf": ("req/s", None),
}


# -------------------------------------------------------------------- rule
def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of the samples, interpolating between them."""
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: Sequence[float], change: Sequence[float]) -> Tuple[float, bool]:
    """Relative change of the median, and whether it is within the gate."""
    delta = statistics.median(change) / statistics.median(parent) - 1.0
    return delta, delta >= -THRESHOLD


# ---------------------------------------------------------------- sampling
class SampleFailed(Exception):
    """A sample exited non-zero or reported an incorrect result."""


#: Child program for an in-process row: argv is (src dir, benchmarks dir,
#: row); prints the measured throughput.
_CHILD = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import perfgate\n"
    "print(perfgate.measure(sys.argv[3], sys.argv[1]))\n"
)


def measure(row: str, src: str) -> float:
    """Run one in-process row, refusing to time a ``repro`` imported from
    anywhere but ``src``."""
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(pathlib.Path(src).resolve()):
        raise SystemExit(f"perfgate: repro imported from {repro.__file__}, not {src}")
    fn = ROWS[row][1]
    assert fn is not None
    return fn()


def sample(checkout: pathlib.Path, row: str) -> float:
    """One measurement of ``row`` on ``checkout`` in a fresh interpreter."""
    in_process = ROWS[row][1] is not None
    if in_process:
        argv = [sys.executable, "-c", _CHILD, str(checkout / "src"), str(HERE), row]
    else:
        argv = [sys.executable, "perfbench/run.py", "--workload", row, "--seconds", "2"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SampleFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    last = proc.stdout.strip().splitlines()[-1]
    if in_process:
        return float(last)
    result = json.loads(last)
    if not result["correct"]:
        raise SampleFailed(f"perfbench reported correct: false: {last}")
    return float(result["metrics"]["throughput_rps"]["value"])


@contextlib.contextmanager
def parent_checkout() -> Iterator[pathlib.Path]:
    """``HEAD^`` in a temporary detached worktree, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="perfgate-") as tmp:
        path = pathlib.Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(path), "HEAD^"],
                       cwd=ROOT, check=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT)


def measure_row(row: str, parent: pathlib.Path) -> Dict[str, Any]:
    """Sample ``row`` on both sides and judge it.

    A row that fails is sampled ``SAMPLES`` times more per side and judged
    on all its samples: on a shared host, load phases lasting seconds can
    put most of one side's first samples in a slow phase.
    """
    entry: Dict[str, Any] = {"unit": ROWS[row][0], "parent": [], "change": []}
    sides = [("parent", parent), ("change", ROOT)]
    for _ in range(2):
        for i in range(SAMPLES):
            for side, checkout in sides[:: 1 if i % 2 == 0 else -1]:
                entry[side].append(sample(checkout, row))
        entry["delta"], entry["ok"] = verdict(entry["parent"], entry["change"])
        if entry["ok"]:
            break
    return entry


def _fmt(samples: List[float]) -> str:
    q1, med, q3 = quartiles(samples)
    return f"{med:10.0f} [{q1:.0f}, {q3:.0f}]"


def main() -> int:
    summary: Dict[str, Any] = {"samples": SAMPLES, "threshold": THRESHOLD, "rows": {}}
    failed = []
    with parent_checkout() as parent:
        print(f"{'row':<15} {'unit':<13} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'delta':>7}")
        for row, (unit, _) in ROWS.items():
            try:
                entry = measure_row(row, parent)
            except SampleFailed as exc:
                entry = {"unit": unit, "ok": False, "error": str(exc)}
                print(f"{row:<15} FAIL: {exc}")
            else:
                print(f"{row:<15} {unit:<13} {_fmt(entry['parent']):>30} "
                      f"{_fmt(entry['change']):>30} {entry['delta']:+7.1%}"
                      + ("" if entry["ok"] else f"  REGRESSION (> {THRESHOLD:.0%} drop)"))
            summary["rows"][row] = entry
            if not entry["ok"]:
                failed.append(row)
    SUMMARY.parent.mkdir(exist_ok=True)
    SUMMARY.write_text(json.dumps(summary, indent=2) + "\n")
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
