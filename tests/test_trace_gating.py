"""Trace emission is gated at each call site, and gating changes no event.

Every ``TraceLog.emit`` call on the reference message path sits behind
``if trace.enabled:`` so a run with tracing off builds no event arguments.
These tests pin the three consequences:

* with tracing off, a reference run (and a flat run, whose submit-side
  sites carry the same guard) makes no ``emit`` call at all;
* the guard reads ``enabled`` at each site, so switching tracing on
  mid-run records from the next request on, exactly what a run traced
  from the start records over the same stretch;
* with tracing on, the event stream — kinds, nodes, details and order —
  is pinned to a SHA-256 of its canonical JSONL export (:mod:`repro.obs.
  export`), so a guard that drops, adds or reorders an event fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import AggregationSystem, binary_tree
from repro.core.runtime import NodeRuntime
from repro.obs.export import dumps_events
from repro.workloads import combine, write
from repro.workloads.requests import COMBINE, Request, copy_sequence
from tests.test_golden import SCENARIOS

#: (event count, SHA-256 of the JSONL export) per traced scenario: the
#: golden workloads of ``tests/test_golden.py`` plus the script below.
EXPECTED = {
    "rww_pair_adv": (
        270,
        "c9010b8b854da2dfbd09d38b189e06984896ab4232ea18ad960cae926bce1b2a",
    ),
    "rww_path6_mixed": (
        832,
        "520bb20fa08f91a1b154580bdb7658dce75f19b76b1ffe33c43d1b0b3d6d7aa5",
    ),
    "rww_binary15_readheavy": (
        748,
        "b0e9fe7f2544e8ac1e61ba880f475998192c3f56f59d371a6d0a35e7f11cfafa",
    ),
    "ab23_star8_mixed": (
        491,
        "c25e8d546fc74acfce3b447a54c6e572d8cb96d69a54e3843cf18cf085685914",
    ),
    "always_path5": (
        423,
        "f02bed327ce424449bab4cef2ee4d940834dfa6c2738c9526bc1821ee7969d40",
    ),
    "never_binary7": (
        905,
        "341afb722d2498a82f4f8e7a2a59a029b063873b0da2fc54ccb164073b1dad37",
    ),
    "crash_recover_expire": (
        325,
        "a648ac6afad0ec4743fd27a6ed63c2ac0e9c098c8f5bc5539677d6acd8c75726",
    ),
}


def _digest(events) -> tuple:
    text = dumps_events(events)
    return len(text.splitlines()), hashlib.sha256(text.encode()).hexdigest()


def _golden_system(name: str, backend: str = "reference", trace: bool = True):
    spec = SCENARIOS[name]
    tree = spec["tree"]()
    system = AggregationSystem(
        tree, policy_factory=spec["policy"], backend=backend, trace_enabled=trace
    )
    return system, copy_sequence(spec["workload"](tree.n))


def _crash_recover_expire_events():
    """The event sites the golden workloads never reach: queued messages
    dying at a crash, sends black-holed to a crashed node, the recovery
    reconcile round, both TTL expiries, scoped combines and a revoke."""
    rt = NodeRuntime(binary_tree(2), trace_enabled=True)
    done = []

    def scoped(node, toward):
        return Request(node=node, op=COMBINE, scope=toward)

    def run(*requests):
        for q in requests:
            if q.is_write:
                rt.submit_write(q)
            else:
                rt.submit_combine(q, done.append)
            rt.drain()

    run(*(write(v, v + 1) for v in range(7)), *(combine(v) for v in range(7)))
    for v in (0, 3, 4):
        rt.submit_write(write(v, 20 + v))  # updates to node 1 queued, undelivered
    rt.crash(1)
    rt.drain()
    run(write(3, 10), combine(6), combine(0))
    rt.recover(1)
    rt.drain()
    run(*(combine(v) for v in range(7)))
    holder = next(v for v in range(7) if any(rt.nodes[v].taken.values()))
    source = next(u for u, t in rt.nodes[holder].taken.items() if t)
    rt.nodes[holder].expire_taken(source)
    rt.drain()
    run(*(combine(v) for v in range(7)))
    granter = next(v for v in range(7) if any(rt.nodes[v].granted.values()))
    grantee = next(u for u, g in rt.nodes[granter].granted.items() if g)
    rt.nodes[granter].expire_granted(grantee)
    rt.drain()
    run(*(combine(v) for v in range(7)), write(0, 5), scoped(0, 2), scoped(4, 1))
    rt.nodes[0].revoke_granted()
    rt.drain()
    run(write(4, 2), combine(5))
    return list(rt.trace)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_traced_golden_stream_is_pinned(name):
    system, requests = _golden_system(name)
    for q in requests:
        system.execute(q)
    assert _digest(system.trace) == EXPECTED[name]


def test_traced_crash_recover_expire_stream_is_pinned():
    events = _crash_recover_expire_events()
    kinds = {e.kind for e in events}
    for kind in ("delivery_failed", "lease_voided", "lease_revoked",
                 "lease_expired", "lease_broken", "scoped_combine_done"):
        assert kind in kinds, kind
    assert _digest(events) == EXPECTED["crash_recover_expire"]


@pytest.mark.parametrize("backend", ["reference", "flat"])
def test_untraced_run_makes_no_emit_call(backend):
    system, requests = _golden_system("rww_binary15_readheavy", backend, trace=False)
    calls = []
    system.runtime.trace.emit = lambda *a, **k: calls.append(a[1])
    for q in requests:
        system.execute(q)
    assert calls == []


def test_tracing_switched_on_mid_run_records_from_then_on():
    traced, requests = _golden_system("rww_path6_mixed")
    late, late_requests = _golden_system("rww_path6_mixed", trace=False)
    half = len(requests) // 2
    for q in requests[:half]:
        traced.execute(q)
    for q in late_requests[:half]:
        late.execute(q)
    assert len(late.trace) == 0
    mark = traced.trace.mark()
    late.trace.enabled = True
    for q in requests[half:]:
        traced.execute(q)
    for q in late_requests[half:]:
        late.execute(q)
    assert len(late.trace) > 0
    assert dumps_events(late.trace) == dumps_events(traced.trace.since(mark))
