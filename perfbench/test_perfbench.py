"""Tests for the benchmark's own arithmetic and its correctness gate.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import arith  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from repro import AggregationSystem  # noqa: E402
from repro.workloads import COMBINE  # noqa: E402


# ------------------------------------------------------------- percentile
def test_percentile_reports_value_with_sample_count():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert arith.percentile(samples, 0.5) == (50, 100)
    assert arith.percentile(samples, 0.99) == (99, 100)
    assert arith.percentile(samples, 1.0) == (100, 100)
    assert arith.percentile([7.0], 0.99) == (7.0, 1)
    assert arith.percentile([], 0.5) == (0.0, 0)


def test_percentile_of_twenty_samples_is_near_the_maximum():
    value, n = arith.percentile(list(range(20)), 0.99)
    assert (value, n) == (19, 20)


def test_percentile_rejects_bad_quantile():
    with pytest.raises(ValueError):
        arith.percentile([1.0], 0.0)


# -------------------------------------------------------------- self time
def test_self_time_with_nested_and_overlapping_children():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 20, 50, 0),  # overlaps a: the union 10..50 is counted once
        ("a.child", 12, 15, 1),
        ("c", 90, 120, 0),  # runs past its parent: clipped to 90..100
    ]
    assert arith.self_times(spans) == [100 - 40 - 10, 17, 30, 3, 30]


def test_self_times_of_nested_spans_sum_to_root_durations():
    spans = [("r", 0, 10, -1), ("x", 2, 8, 0), ("y", 3, 4, 1), ("y", 5, 6, 1), ("r2", 20, 25, -1)]
    own = arith.self_times(spans)
    assert sum(own) == 10 + 5
    by = arith.totals_by_name(spans, own)
    assert by["y"] == (2, 2) and by["x"] == (1, 4) and by["r"] == (1, 4)


def test_union_length_merges_and_clips():
    assert arith.union_length([(0, 5), (3, 8), (10, 12)], 1, 11) == 7 + 1
    assert arith.union_length([], 0, 10) == 0


# ------------------------------------------------------------ cost growth
def test_cost_growth_on_synthetic_timings():
    assert arith.cost_growth([2.0] * 40) == 1.0
    # Linear growth 1..8: first quarter mean 1.5, last quarter mean 7.5.
    assert arith.cost_growth([1, 2, 3, 4, 5, 6, 7, 8]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        arith.cost_growth([1.0, 2.0, 3.0])


# ------------------------------------------------------ correctness gate
@pytest.fixture
def small_passes(monkeypatch):
    """Shrink the in-process passes so the command runs in a second."""
    for name, spec in list(inproc.WORKLOADS.items()):
        monkeypatch.setitem(
            inproc.WORKLOADS, name,
            inproc.Workload(spec.backend, spec.tree, spec.zipf, spec.read_ratio, 400),
        )


def test_oracle_flags_a_wrong_sum():
    reqs = inproc.WORKLOADS["ref-mixed-long"].requests(5)
    system = AggregationSystem(inproc.WORKLOADS["ref-mixed-long"].tree())
    for q in reqs:
        system.execute(q)
    assert inproc.wrong_retvals(reqs) == 0
    first = next(q for q in reqs if q.op == COMBINE)
    first.retval += 1
    assert inproc.wrong_retvals(reqs) == 1


@pytest.mark.parametrize("workload", sorted(inproc.WORKLOADS))
def test_command_passes_on_correct_program(small_passes, workload, capsys):
    assert run.main(["--workload", workload, "--seconds", "0.01"]) == 0
    assert '"correct": true' in capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_seeded_wrong_retval_fails_the_command(small_passes, monkeypatch, trace, capsys):
    real = AggregationSystem.execute
    seen = []

    def corrupt(self, request):
        out = real(self, request)
        if request.op == COMBINE:
            seen.append(request)
            if len(seen) == 3:
                request.retval += 1
        return out

    monkeypatch.setattr(AggregationSystem, "execute", corrupt)
    code = run.main(["--workload", "ref-mixed-long", "--seconds", "0.01", "--trace", trace])
    assert code == 1
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]


def test_traced_layers_account_for_the_traced_wall(small_passes):
    for name in inproc.WORKLOADS:
        out, attempted, failed, tracer = inproc.traced_run(name, 1)
        assert failed == 0 and attempted == 800
        assert 0.0 <= out["trace.unattributed_frac"] < 0.2
        spans = tracer.finished()
        roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
        assert sum(arith.self_times(spans)) == roots
    # Last one was flat: the reference mechanism and Router did no work.
    assert out["mechanism.calls.release"] == 0 and out["runtime.route_us_per_msg"] == 0
    assert out["flat.drain_us_per_req"] > 0


def test_unknown_metric_names_are_refused():
    with pytest.raises(KeyError):
        run._metrics([{"name": "a", "unit": "s"}], {"b": 1.0}, fill_zero=True)
    with pytest.raises(KeyError):
        run._metrics([{"name": "a", "unit": "s"}], {}, fill_zero=False)


def test_serve_gate_reasons():
    ok = {"ok": True}
    assert serve.serve_gate(0, 0, ok, 0) == []
    assert len(serve.serve_gate(1, 2, {"ok": False, "causal": {}}, 3)) == 4


def test_failing_verdict_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(serve, "SUB_RUNS", 1)
    monkeypatch.setattr(
        serve, "verify_merged",
        lambda events, n_nodes=None: {"ok": False, "events": len(events),
                                      "causal": {"ok": False}, "monitor_violations": ["seeded"]},
    )
    assert run.main(["--workload", "serve-open-loop", "--seconds", "0.3"]) == 1
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]


def test_serve_command_passes_on_healthy_cluster(monkeypatch, capsys):
    monkeypatch.setattr(serve, "SUB_RUNS", 1)
    assert run.main(["--workload", "serve-open-loop", "--seconds", "0.3"]) == 0
    assert '"correct": true' in capsys.readouterr().out.splitlines()[-1]
