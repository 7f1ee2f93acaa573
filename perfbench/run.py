"""The repository's benchmark: one command, three execution paths.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` installs span wrappers around
each layer's public functions and prints every per-layer metric (0 where
the workload makes no call into that layer).  The last line of standard
output is one JSON object; the exit code is 0 only when every output
checked was correct.  See ``perfbench/README.md`` for the workloads and
the layer-to-metric predictions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Workload name -> (module, default seed).
WORKLOADS = {
    "ref-mixed-long": ("inproc", 1),
    "flat-read-zipf": ("inproc", 2),
    "serve-open-loop": ("serve", 3),
}


def _spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(correct: bool, attempted: int, failed: int, metrics: Dict[str, Any]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _metrics(
    wanted: List[Dict[str, str]], measured: Dict[str, float], fill_zero: bool
) -> Dict[str, Any]:
    """The JSON ``metrics`` object: exactly the metrics ``wanted`` lists,
    in its order and with its units."""
    names = {m["name"] for m in wanted}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise KeyError(f"measured metrics missing from BENCHMARK.json: {unknown}")
    out = {}
    for m in wanted:
        if m["name"] not in measured and not fill_zero:
            raise KeyError(f"workload did not measure {m['name']}")
        out[m["name"]] = {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no package sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = _spec()
    module, default_seed = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)

    if module == "inproc":
        import inproc

        if args.trace:
            measured, attempted, failed, tracer = inproc.traced_run(args.workload, seed)
        else:
            timed, attempted, failed = inproc.timed_run(
                args.workload, seed, args.seconds, str(SRC), str(BENCH_DIR))
        reasons = [f"{failed} combines returned a wrong sum"] if failed else []
    else:
        import serve

        if args.trace:
            measured, attempted, failed, reasons, tracer = serve.traced_run(
                seed, args.seconds, work)
        else:
            timed, attempted, failed, reasons = serve.timed_run(seed, args.seconds, work)

    if args.trace:
        tracer.write(work / f"spans-{args.workload}-{seed}.tsv.gz")
        metrics = _metrics(spec["per_layer"], measured, fill_zero=True)
        for name, m in metrics.items():
            print(f"{name:34s} {m['value']:14.4f} {m['unit']}")
    else:
        values = {name: value for name, (value, _n) in timed.items()}
        metrics = _metrics(spec["end_to_end"], values, fill_zero=False)
        print(f"{'metric':16s} {'value':>14s} {'unit':8s} {'samples':>8s}")
        for name, (value, samples) in timed.items():
            print(f"{name:16s} {value:14.4f} {metrics[name]['unit']:8s} {samples:8d}")
    for reason in reasons:
        print(f"perfbench: INCORRECT: {reason}", file=sys.stderr)
    correct = not reasons and failed == 0
    print(_result(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
