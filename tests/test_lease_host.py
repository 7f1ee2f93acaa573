"""The lease host behaves the same under both clock domains.

:class:`~repro.recovery.host.LeaseHost` is the one implementation of
lease-TTL renewal, the expiry sweep (holder first, granter after the
grace), stuck-round re-probing and checkpoint capture.  The simulator's
``RecoveryManager`` drives it under :class:`~repro.sim.scheduler.SimClock`
and ``repro.net``'s ``NodeServer`` under the wall clock with HLC trace
stamps.  Each test here runs one scripted trace-event stream through the
host once per domain and pins the same outcome: expiry order, re-probe
targets and pacing, and ``lease_expirations_total`` counts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.core.messages import Probe
from repro.core.runtime import NodeRuntime
from repro.net.clock import AsyncioTimer, HybridClock
from repro.obs.metrics import MetricsRegistry
from repro.recovery.host import LeaseHost
from repro.sim.scheduler import SimClock, Simulator
from repro.sim.trace import TraceLog
from repro.tree.generators import path_tree

TTL = 10.0
GRACE = 5.0

Script = List[Tuple[float, Callable[[], None]]]


class StubWallClock:
    """Shaped like :class:`~repro.net.clock.WallClock` (``now`` plus
    ``timer()``), but time moves only when the test advances it."""

    def __init__(self) -> None:
        self.t = 0.0

    @property
    def now(self) -> float:
        return self.t

    def timer(self) -> AsyncioTimer:
        return AsyncioTimer()


def _sim_domain() -> Tuple[Any, Callable[[], float], Callable[[Script], None]]:
    sim = Simulator()

    def run(script: Script) -> None:
        for t, action in script:
            sim.schedule_at(t, action)
        sim.run()

    return SimClock(sim), (lambda: sim.now), run


def _wall_domain() -> Tuple[Any, Callable[[], float], Callable[[Script], None]]:
    clock = StubWallClock()
    hlc = HybridClock(wall=lambda: clock.t)

    def run(script: Script) -> None:
        for t, action in script:
            clock.t = t
            action()

    return clock, hlc.tick, run


DOMAINS = {"sim": _sim_domain, "wall": _wall_domain}


class FakeNode:
    """The slice of ``LeaseNode`` the sweep touches, logging every call
    with the clock reading it happened at."""

    def __init__(self, nid: int, nbrs: Tuple[int, ...], clock: Any, log: List[Any]):
        self.id = nid
        self.nbrs = nbrs
        self.taken = {v: False for v in nbrs}
        self.granted = {v: False for v in nbrs}
        self.pndg: set = set()
        self.snt: Dict[int, set] = {}
        self._clock = clock
        self._log = log

    def expire_taken(self, v: int) -> None:
        self.taken[v] = False
        self._log.append(("expire_taken", self.id, v, self._clock.now))

    def expire_granted(self, v: int) -> None:
        self.granted[v] = False
        self._log.append(("expire_granted", self.id, v, self._clock.now))

    def send(self, w: int, message: Any) -> None:
        assert isinstance(message, Probe)
        self._log.append(("probe", self.id, w, self._clock.now))


def _build(domain: str, crashed: Any = frozenset()):
    clock, stamp, run = DOMAINS[domain]()
    log: List[Any] = []
    tree = path_tree(3)  # 0 - 1 - 2
    nodes = {i: FakeNode(i, tuple(tree.neighbors(i)), clock, log) for i in tree.nodes()}
    trace = TraceLog(enabled=True)
    metrics = MetricsRegistry()
    host = LeaseHost(
        nodes, clock=clock, stamp=stamp, trace=trace, metrics=metrics,
        ttl=TTL, grace=GRACE, crashed=crashed,
    )
    trace.subscribe(host.on_trace)
    return host, nodes, trace, metrics, stamp, run, log


def _expirations(metrics: MetricsRegistry) -> Dict[Tuple[int, str], float]:
    rows = metrics.snapshot()["counters"].get("lease_expirations_total", [])
    return {(r["labels"]["node"], r["labels"]["side"]): r["value"] for r in rows}


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_expiry_order_and_reprobe_pacing(domain):
    host, nodes, trace, metrics, stamp, run, log = _build(domain)
    n0, n1, n2 = nodes[0], nodes[1], nodes[2]

    def lease(holder: FakeNode, granter: FakeNode) -> Callable[[], None]:
        def act() -> None:
            holder.taken[granter.id] = True
            granter.granted[holder.id] = True
            trace.emit(stamp(), "lease_granted", granter.id, grantee=holder.id)
            trace.emit(stamp(), "lease_acquired", holder.id, source=granter.id)
        return act

    def open_round() -> None:
        n0.pndg.add(0)
        n0.snt[0] = {1}

    def close_round() -> None:
        n0.pndg.discard(0)
        n0.snt.pop(0)

    def traffic() -> None:
        # An update 2 -> 1 renews both ends of that edge; a negative peer
        # (an external client) renews nothing.
        trace.emit(stamp(), "send", 2, dst=1)
        trace.emit(stamp(), "recv", 1, src=2)
        trace.emit(stamp(), "recv", 0, src=-1)

    script: Script = [
        (0.0, lambda: [host.renew_node(i) for i in nodes]),
        (1.0, lease(n0, n1)),
        (2.0, lease(n1, n2)),
        (3.0, open_round),
        (4.0, traffic),
        (27.0, close_round),
    ]
    script += [(float(t), host.sweep)
               for t in (5, 10, 12, 13, 15, 17, 18, 20, 25, 30, 35)]
    run(sorted(script, key=lambda step: step[0]))

    assert log == [
        ("expire_taken", 0, 1, 12.0),    # (0,1) renewed at 1: dead after 11
        ("probe", 0, 1, 15.0),           # round first seen at 5, stuck at 15
        ("expire_taken", 1, 2, 15.0),    # (1,2) renewed at 4 by the recv
        ("expire_granted", 1, 0, 17.0),  # granter waits out the grace
        ("expire_granted", 2, 1, 20.0),  # (2,1) renewed at 4 by the send
        ("probe", 0, 1, 25.0),           # paced: one per TTL per edge
    ]
    reprobes = [(e.node, e.detail["dst"], e.detail["root"])
                for e in trace.events() if e.kind == "reprobe"]
    assert reprobes == [(0, 1, 0), (0, 1, 0)]
    assert _expirations(metrics) == {
        (0, "taken"): 1, (1, "taken"): 1, (1, "granted"): 1, (2, "granted"): 1,
    }
    assert host._round_seen == {}  # the closed round aged out


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_crashed_nodes_and_targets_are_skipped(domain):
    crashed = {2}
    host, nodes, trace, metrics, stamp, run, log = _build(domain, crashed)
    n1, n2 = nodes[1], nodes[2]

    def setup() -> None:
        n2.taken[1] = True  # a crashed holder's stale lease
        n1.pndg.add(1)
        n1.snt[1] = {0, 2}  # awaiting a live peer and a crashed one

    def recover() -> None:
        crashed.discard(2)
        host.renew_node(2)

    script: Script = [(0.0, setup)]
    script += [(float(t), host.sweep) for t in (5, 15, 25)]
    script += [(26.0, recover), (35.0, host.sweep), (37.0, host.sweep)]
    run(script)

    assert log == [
        ("probe", 1, 0, 15.0),         # never toward crashed node 2
        ("probe", 1, 0, 25.0),
        ("probe", 1, 0, 35.0),
        ("probe", 1, 2, 35.0),         # 2 is back: now it is re-probed
        ("expire_taken", 2, 1, 37.0),  # renewed on recovery at 26
    ]
    assert _expirations(metrics) == {(2, "taken"): 1}


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_capture_skips_crashed_and_counts(domain):
    clock, stamp, run = DOMAINS[domain]()
    runtime = NodeRuntime(path_tree(3), trace_enabled=True)
    crashed = {1}
    host = LeaseHost(
        runtime.nodes, clock=clock, stamp=stamp, trace=runtime.trace,
        metrics=runtime.metrics, ttl=None, grace=0.0, crashed=crashed,
    )
    captured: List[Any] = []
    run([(3.0, lambda: captured.extend(host.capture())),
         (4.0, lambda: captured.extend(host.capture(0)))])

    assert [(cp.node, cp.seq, cp.time) for cp in captured] == [
        (0, 0, 3.0), (2, 0, 3.0), (0, 1, 4.0),
    ]
    assert host.store.latest(0) is captured[-1]
    assert host.store.latest(1) is None
    events = [(e.node, e.detail["seq"]) for e in runtime.trace.events()
              if e.kind == "checkpoint"]
    assert events == [(0, 0), (2, 0), (0, 1)]
    counters = runtime.metrics.snapshot()["counters"]["checkpoints_total"]
    assert {r["labels"]["node"]: r["value"] for r in counters} == {0: 2, 2: 1}
    # ttl=None: renewal and the sweep are off.
    host.on_trace(runtime.trace.events()[0])
    host.sweep()
    assert host.expiry is None
