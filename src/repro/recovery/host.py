"""The lease host: TTL renewal, expiry sweep, re-probing and checkpoints.

One implementation serves both execution domains.  The
:class:`~repro.recovery.manager.RecoveryManager` drives it on the
simulator's bounded virtual-time timeline; :class:`~repro.net.server.NodeServer`
drives it from two asyncio loops on the wall clock.  The host does no I/O
and schedules nothing itself: its callers decide *when* to sweep or
capture, and persist the returned checkpoints however their domain
requires.

Inputs are the clock-domain seam and nothing more: a ``clock`` with a
``now`` reading (:class:`~repro.sim.scheduler.SimClock`,
:class:`~repro.net.clock.WallClock`, or the runtime itself), and a
``stamp`` callable for trace timestamps (virtual time in the simulator,
``HybridClock.tick`` in ``repro.net``, whose trace merge needs HLC stamps).
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, List, Mapping, Optional, Tuple

from repro.core.messages import Probe
from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.lease_ttl import LeaseExpiry

__all__ = ["LeaseHost"]


class LeaseHost:
    """Lease-TTL and checkpoint bookkeeping for a set of hosted nodes.

    Parameters
    ----------
    nodes:
        node id -> ``LeaseNode``; a live map (the host reads it on every
        operation, so nodes added later are covered).
    clock:
        Anything with a monotone ``now``; expiry decisions and checkpoint
        times read it.
    stamp:
        Trace timestamp source for the ``reprobe`` and ``checkpoint``
        events the host emits.
    trace, metrics:
        The trace log the host emits into and the registry its
        ``lease_expirations_total`` / ``checkpoints_total`` counters live in.
    ttl:
        Lease lifetime; ``None`` disables renewal and the sweep.
    grace:
        Extra slack before the granter side expires (see
        :attr:`~repro.recovery.manager.RecoveryConfig.expiry_grace`).
    crashed:
        Live set of crashed node ids: skipped by the sweep, by re-probes
        and by checkpoint capture.
    """

    def __init__(
        self,
        nodes: Mapping[int, Any],
        clock: Any,
        stamp: Callable[[], float],
        trace: Any,
        metrics: Any,
        ttl: Optional[float],
        grace: float,
        crashed: Collection[int] = frozenset(),
    ) -> None:
        self.nodes = nodes
        self.clock = clock
        self.stamp = stamp
        self.trace = trace
        self.metrics = metrics
        self.ttl = ttl
        self.grace = grace
        self.crashed = crashed
        self.store = CheckpointStore()
        self.expiry = LeaseExpiry(ttl) if ttl is not None else None
        # Stuck-round detection state: when a sweep first observed each
        # open probe round (keyed ``(node, root)``), and the last liveness
        # re-probe per directed edge (paces re-probes at one per TTL).
        # Edge traffic is no proxy for round health — wire-level ACKs and
        # retransmits keep flowing on a wedged conversation — so the sweep
        # watches round *age* instead.
        self._round_seen: Dict[Tuple[int, int], float] = {}
        self._reprobed: Dict[Tuple[int, int], float] = {}

    # --------------------------------------------------------------- renewal
    def on_trace(self, ev: Any) -> None:
        """Trace subscriber: traffic in either direction renews the edge's
        lease timers.  Receives are evidence the peer was alive, and sends
        matter because lease traffic is one-directional (a granter
        streaming updates would otherwise never refresh its own granted
        side)."""
        if self.expiry is None:
            return
        if ev.kind in ("recv", "deliver"):
            src = ev.detail.get("src")
            if src is not None and src >= 0:
                self.expiry.renew((ev.node, src), ev.time)
        elif ev.kind == "send":
            dst = ev.detail.get("dst")
            if dst is not None and dst >= 0:
                self.expiry.renew((ev.node, dst), ev.time)
        elif ev.kind == "lease_acquired":
            self.expiry.renew((ev.node, ev.detail["source"]), ev.time)
        elif ev.kind == "lease_granted":
            self.expiry.renew((ev.node, ev.detail["grantee"]), ev.time)

    def renew_node(self, node_id: int) -> None:
        """Renew both directions of every edge at ``node_id`` (a node that
        just recovered must not see its restored leases expire at once)."""
        if self.expiry is None:
            return
        now = self.clock.now
        for v in self.nodes[node_id].nbrs:
            self.expiry.renew((node_id, v), now)
            self.expiry.renew((v, node_id), now)

    # ----------------------------------------------------------------- sweep
    def sweep(self) -> None:
        """Expire leases whose peer has been silent longer than the TTL,
        then re-probe stuck probe rounds."""
        if self.expiry is None:
            return
        now = self.clock.now
        for nid in sorted(self.nodes):
            if nid in self.crashed:
                continue
            node = self.nodes[nid]
            for v in list(node.nbrs):
                if node.taken.get(v, False) and not self.expiry.alive((nid, v), now):
                    node.expire_taken(v)
                    self.metrics.counter(
                        "lease_expirations_total", node=nid, side="taken"
                    ).inc()
                # Granter side waits out the grace so the holder always
                # expires first.
                if node.granted.get(v, False) and not self.expiry.alive(
                    (nid, v), now - self.grace
                ):
                    node.expire_granted(v)
                    self.metrics.counter(
                        "lease_expirations_total", node=nid, side="granted"
                    ).inc()
            # Liveness for stuck probe rounds: a round whose probe (or
            # response) died on a partitioned or crashed edge stays open
            # forever.  A healthy round completes in a few RTTs, so any
            # round still open a full TTL after a sweep first saw it is
            # stuck: re-probe its awaited peers.  Re-probes pace at one per
            # TTL per edge; duplicate responses are idempotent (T4 discards
            # the peer from every open round on the first one).
            for root in sorted(node.pndg):
                first = self._round_seen.setdefault((nid, root), now)
                if now - first < self.ttl:
                    continue
                for w in sorted(node.snt.get(root, ())):
                    if w in self.crashed:
                        continue  # reconcile heals this edge on recovery
                    last = self._reprobed.get((nid, w))
                    if last is not None and now - last < self.ttl:
                        continue
                    self._reprobed[(nid, w)] = now
                    self.trace.emit(self.stamp(), "reprobe", nid, dst=w, root=root)
                    node.send(w, Probe())
        # Rounds that closed since the last sweep age out of the table.
        self._round_seen = {
            key: t0
            for key, t0 in self._round_seen.items()
            if key[0] in self.nodes and key[1] in self.nodes[key[0]].pndg
        }

    # ----------------------------------------------------------- checkpoints
    def capture(self, node_id: Optional[int] = None) -> List[Checkpoint]:
        """Checkpoint one live node (or all of them) into :attr:`store`;
        returns the captures for the caller to persist."""
        now = self.clock.now
        targets = [node_id] if node_id is not None else sorted(self.nodes)
        out: List[Checkpoint] = []
        for nid in targets:
            if nid in self.crashed:
                continue
            cp = Checkpoint.capture(self.nodes[nid], self.store.next_seq(nid), now)
            self.store.save(cp)
            self.trace.emit(self.stamp(), "checkpoint", nid, seq=cp.seq)
            self.metrics.counter("checkpoints_total", node=nid).inc()
            out.append(cp)
        return out
