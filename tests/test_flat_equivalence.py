"""Flat-vs-reference backend equivalence, pinned on the golden workloads.

The flat backend (:mod:`repro.flat`) re-implements the Figure-1 automaton
over integer-indexed arrays with interned messages and batched delivery.
Its contract is *exact observational equivalence* with the reference
:class:`~repro.core.runtime.NodeRuntime` on everything the paper (and the
rest of the repo) measures: message totals, per-edge per-kind counts,
per-request costs, combine results, final lease graphs, and canonical
``state_snapshot()`` renderings.  These tests pin that contract on the
six scenarios the golden-trace suite uses plus an AB-policy path, and
cross-check the fast and slow drains.
"""

from __future__ import annotations

import pytest

from repro import (
    ABPolicy,
    AggregationSystem,
    AlwaysLeasePolicy,
    NeverLeasePolicy,
    RWWPolicy,
    binary_tree,
    path_tree,
    star_tree,
    two_node_tree,
)
from repro.workloads import adv_sequence, uniform_workload
from repro.workloads.requests import COMBINE, copy_sequence

SCENARIOS = {
    "rww_pair_adv": dict(
        tree=lambda: two_node_tree(),
        workload=lambda n: adv_sequence(1, 2, rounds=10),
        policy=RWWPolicy,
    ),
    "rww_path6_mixed": dict(
        tree=lambda: path_tree(6),
        workload=lambda n: uniform_workload(n, 60, read_ratio=0.5, seed=42),
        policy=RWWPolicy,
    ),
    "rww_binary15_readheavy": dict(
        tree=lambda: binary_tree(3),
        workload=lambda n: uniform_workload(n, 60, read_ratio=0.8, seed=7),
        policy=RWWPolicy,
    ),
    "ab23_star8_mixed": dict(
        tree=lambda: star_tree(8),
        workload=lambda n: uniform_workload(n, 60, read_ratio=0.5, seed=3),
        policy=lambda: ABPolicy(2, 3),
    ),
    # AB on a path: degree-2 nodes under a counting policy, on flat's
    # fast loop (its dedicated degree-2 handlers).
    "ab23_path7_mixed": dict(
        tree=lambda: path_tree(7),
        workload=lambda n: uniform_workload(n, 80, read_ratio=0.5, seed=17),
        policy=lambda: ABPolicy(2, 3),
    ),
    "always_path5": dict(
        tree=lambda: path_tree(5),
        workload=lambda n: uniform_workload(n, 40, read_ratio=0.3, seed=9),
        policy=AlwaysLeasePolicy,
    ),
    "never_binary7": dict(
        tree=lambda: binary_tree(2),
        workload=lambda n: uniform_workload(n, 40, read_ratio=0.7, seed=5),
        policy=NeverLeasePolicy,
    ),
}


def run_scenario(spec, backend: str, **engine_kwargs) -> dict:
    tree = spec["tree"]()
    workload = spec["workload"](tree.n)
    system = AggregationSystem(
        tree, policy_factory=spec["policy"], backend=backend, **engine_kwargs
    )
    per_request = []
    for q in copy_sequence(workload):
        before = system.stats.total
        system.execute(q)
        per_request.append(system.stats.total - before)
    result = system.result()
    return {
        "total_messages": result.total_messages,
        "by_kind": dict(sorted(result.stats.by_kind().items())),
        "edge_counts": {
            str(e): dict(k) for e, k in sorted(result.stats.snapshot().items())
        },
        "per_request_costs": per_request,
        "combine_retvals": [
            round(q.retval, 9) for q in result.requests if q.op == COMBINE
        ],
        "final_lease_graph": sorted(map(list, system.lease_graph_edges())),
        "state_snapshot": system.runtime.state_snapshot(),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flat_matches_reference(name):
    """Same scenario, both backends, every observable identical — down to
    the canonical state snapshot the model checker hashes."""
    spec = SCENARIOS[name]
    assert run_scenario(spec, "flat") == run_scenario(spec, "reference")


@pytest.mark.parametrize("name", ["rww_path6_mixed", "ab23_star8_mixed", "ab23_path7_mixed"])
def test_fast_and_slow_drains_agree(name):
    """The flat backend has two drain paths: the batched fast loop (bare
    runs) and the event-faithful slow loop (tracing/ghost on).  They must
    produce identical accounting and state."""
    spec = SCENARIOS[name]
    fast = run_scenario(spec, "flat")
    slow = run_scenario(spec, "flat", trace_enabled=True)
    for key in (
        "total_messages",
        "by_kind",
        "edge_counts",
        "per_request_costs",
        "combine_retvals",
        "final_lease_graph",
    ):
        assert fast[key] == slow[key], key


def test_flat_trace_stream_matches_reference():
    """With tracing on, the flat backend emits the *same event stream* as
    the reference (modulo request-object identity in details)."""
    spec = SCENARIOS["rww_path6_mixed"]

    def events(backend):
        tree = spec["tree"]()
        system = AggregationSystem(
            tree, policy_factory=spec["policy"], backend=backend, trace_enabled=True
        )
        for q in copy_sequence(spec["workload"](tree.n)):
            system.execute(q)
        return [
            (e.time, e.kind, e.node, {k: v for k, v in e.detail.items() if k != "req"})
            for e in system.trace.events()
        ]

    ref, flat = events("reference"), events("flat")
    assert len(ref) == len(flat)
    assert ref == flat


def test_flat_ghost_logs_match_reference():
    """Ghost instrumentation (Section 5) rides the flat backend's slow
    path and reproduces the reference logs exactly."""
    spec = SCENARIOS["rww_binary15_readheavy"]

    def ghosts(backend):
        from repro.util.canon import canonical_value

        tree = spec["tree"]()
        system = AggregationSystem(
            tree, policy_factory=spec["policy"], backend=backend, ghost=True
        )
        for q in copy_sequence(spec["workload"](tree.n)):
            system.execute(q)
        return {
            i: (
                tuple(canonical_value(e) for e in n.ghost.log),
                tuple(canonical_value(e) for e in n.ghost.wlog),
            )
            for i, n in system.nodes.items()
        }

    assert ghosts("flat") == ghosts("reference")
