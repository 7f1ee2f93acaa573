"""Tests for the streaming cost meter (:mod:`repro.obs.costmeter`), which
must agree exactly with the offline per-edge DP harness."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import AggregationSystem
from repro.analysis.competitive import competitive_ratio
from repro.offline import offline_lease_lower_bound
from repro.tree.generators import binary_tree, path_tree, star_tree, two_node_tree
from repro.workloads import adv_sequence, uniform_workload
from repro.workloads.requests import copy_sequence


GOLDEN = {
    "pair_adv": (two_node_tree, lambda n: adv_sequence(1, 2, rounds=10)),
    "path6_mixed": (
        lambda: path_tree(6),
        lambda n: uniform_workload(n, 60, read_ratio=0.5, seed=42),
    ),
    "binary15_readheavy": (
        lambda: binary_tree(3),
        lambda n: uniform_workload(n, 60, read_ratio=0.8, seed=7),
    ),
    "star8_mixed": (
        lambda: star_tree(8),
        lambda n: uniform_workload(n, 60, read_ratio=0.5, seed=3),
    ),
}


@pytest.mark.parametrize("backend", ["reference", "flat"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cost_meter_matches_offline_harness(name, backend):
    """The streaming meter's lower bound and ratio equal the offline
    per-edge DP harness on the golden workloads (within 1e-9), on both
    execution backends."""
    make_tree, make_wl = GOLDEN[name]
    tree = make_tree()
    wl = make_wl(tree.n)
    system = AggregationSystem(tree, cost_accounting=True, backend=backend)
    result = system.run(copy_sequence(wl))
    report = result.cost
    assert report is not None
    assert report.observed == result.total_messages
    assert report.opt_lower_bound == offline_lease_lower_bound(tree, wl)
    offline = competitive_ratio(tree, wl, label=name)
    assert report.ratio == pytest.approx(offline.ratio_vs_opt, abs=1e-9)
    assert not report.partial


def test_cost_meter_regret_is_consistent():
    tree = binary_tree(3)
    wl = uniform_workload(tree.n, 60, read_ratio=0.5, seed=7)
    system = AggregationSystem(tree, cost_accounting=True)
    result = system.run(copy_sequence(wl))
    report = result.cost
    # One entry per ordered edge; per-edge optima sum to the global bound.
    assert len(report.regret) == 2 * (tree.n - 1)
    assert sum(opt for _, _, opt in report.regret) == report.opt_lower_bound
    assert sum(obs for _, obs, _ in report.regret) == report.observed
    # Sorted by descending regret.
    regrets = [obs - opt for _, obs, opt in report.regret]
    assert regrets == sorted(regrets, reverse=True)
    # JSON form mirrors the dataclass.
    d = report.to_dict()
    assert d["observed_messages"] == report.observed
    assert d["opt_lower_bound"] == report.opt_lower_bound
    json.dumps(d)


def test_cost_meter_dropped_on_topology_change():
    """The per-edge DP assumes a static tree; dynamic engines shed the
    meter at the first topology change instead of reporting stale bounds."""
    from repro.core.dynamic import DynamicAggregationSystem

    system = DynamicAggregationSystem(path_tree(3), cost_accounting=True)
    assert system.cost_meter is not None
    system.add_leaf(parent=2)
    assert system.cost_meter is None
    assert system.result().cost is None
