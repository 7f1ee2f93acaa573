"""The perf gate's rule on fixed sample lists (no benchmark is run).

``benchmarks/perfgate.py`` compares the median of the change's samples
with the parent's and fails a row whose median dropped by more than
``THRESHOLD``; it prints each side's median with its quartiles.
"""

from __future__ import annotations

import pytest

from benchmarks import perfgate

PARENT = [104.0, 96.0, 100.0, 102.0, 98.0]


def test_quartiles_of_five_samples():
    assert perfgate.quartiles(PARENT) == (98.0, 100.0, 102.0)
    assert perfgate.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_threshold_is_a_quarter():
    assert perfgate.THRESHOLD == 0.25
    assert perfgate.SAMPLES == 5


@pytest.mark.parametrize(
    "change, ok",
    [
        ([74.9, 60.0, 200.0, 10.0, 80.0], False),  # median 74.9: just past 25%
        ([75.1, 60.0, 200.0, 10.0, 80.0], True),  # median 75.1: just short
        ([75.0, 60.0, 200.0, 10.0, 80.0], True),  # exactly 25% is not "more"
        ([130.0, 120.0, 125.0, 140.0, 110.0], True),  # faster always passes
    ],
)
def test_gate_compares_medians(change, ok):
    delta, passed = perfgate.verdict(PARENT, change)
    assert passed is ok
    assert delta == pytest.approx(sorted(change)[2] / 100.0 - 1.0)


def test_gate_ignores_outliers_beyond_the_median():
    # Two collapsed samples cannot fail a row whose median held.
    assert perfgate.verdict(PARENT, [1.0, 2.0, 99.0, 100.0, 101.0]) == (
        pytest.approx(-0.01),
        True,
    )


def _fake_sampler(parent_runs, change_runs):
    """A ``sample`` stand-in that hands out fixed throughputs per side."""
    queues = {"parent": list(parent_runs), "change": list(change_runs)}

    def sample(checkout, row):
        return queues["change" if checkout == perfgate.ROOT else "parent"].pop(0)

    return sample


def test_passing_row_takes_five_samples_per_side(monkeypatch):
    monkeypatch.setattr(perfgate, "sample", _fake_sampler(PARENT, [99.0] * 5))
    entry = perfgate.measure_row("dispatch", perfgate.ROOT.parent)
    assert entry["ok"] and len(entry["parent"]) == len(entry["change"]) == 5


def test_failing_row_is_judged_again_on_twice_the_samples(monkeypatch):
    # First five change samples caught a slow phase (median 70); the next
    # five read 100, so the median of all ten is 85: within the gate.
    monkeypatch.setattr(
        perfgate, "sample", _fake_sampler(PARENT * 2, [70.0] * 5 + [100.0] * 5)
    )
    entry = perfgate.measure_row("dispatch", perfgate.ROOT.parent)
    assert entry["ok"] and len(entry["change"]) == 10
    assert entry["delta"] == pytest.approx(-0.15)


def test_a_real_regression_still_fails(monkeypatch):
    monkeypatch.setattr(perfgate, "sample", _fake_sampler(PARENT * 2, [52.0] * 10))
    entry = perfgate.measure_row("flat", perfgate.ROOT.parent)
    assert not entry["ok"] and len(entry["parent"]) == 10
    assert entry["delta"] == pytest.approx(-0.48)
