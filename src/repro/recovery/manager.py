"""The :class:`RecoveryManager`: crash-recovery orchestration for a runtime.

Responsibilities (see DESIGN.md, "Fault model and crash recovery"):

* **periodic checkpoints** — every ``checkpoint_interval`` of virtual time
  each live node's volatile state is captured
  (:class:`~repro.recovery.checkpoint.Checkpoint`) and a ``checkpoint``
  trace event emitted;
* **crash handling** — on a scheduled ``crash`` fault the node loses its
  volatile state (open requests fail, rounds die) via
  :meth:`NodeRuntime.crash`;
* **recovery** — on ``recover`` the last checkpoint is restored *first*,
  then :meth:`NodeRuntime.recover` reopens the wire, resets the reliable
  layer's conversations, and runs the lease-reconciliation round;
* **lease TTLs** — with ``lease_ttl`` set, per-edge lease timers expire a
  silent peer's leases (:meth:`LeaseNode.expire_taken` /
  ``expire_granted``) so a dead holder never wedges a combine; timers are
  renewed by any traffic received from the peer (PaxosLease-style: leases
  must be refreshed to stay alive — this deliberately trades the paper's
  message optimality for liveness under crashes).  Renewal, the sweep and
  checkpoint capture are the :class:`~repro.recovery.host.LeaseHost`'s,
  shared with ``repro.net``; this manager only schedules them;
* **metrics** — ``crashes_total``, ``recoveries_total``,
  ``checkpoints_total``, ``lost_messages_total``,
  ``lease_expirations_total`` counters and a ``time_to_recover``
  histogram.

Periodic work is scheduled as a bounded timeline up to ``horizon`` (by
default derived from the fault plan's last scheduled event), never as a
free-running timer — the simulator must still drain to quiescence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.recovery.checkpoint import Checkpoint
from repro.recovery.host import LeaseHost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import NodeRuntime

__all__ = ["RecoveryConfig", "RecoveryManager"]

#: Buckets for the time-to-recover histogram (virtual time units).
RECOVERY_BUCKETS = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500)


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the crash-recovery subsystem.

    Attributes
    ----------
    checkpoint_interval:
        Virtual time between periodic checkpoints of every live node.
    lease_ttl:
        When set, enable TTL lease expiry: a lease whose peer has been
        silent for ``lease_ttl`` time units expires locally (synthesized
        revoke/release).  ``None`` disables the sweeps.
    sweep_interval:
        Virtual time between TTL sweeps (default: ``lease_ttl / 2``).
    horizon:
        End of the periodic-work timeline.  Default: the fault plan's last
        scheduled event plus one TTL (or one checkpoint interval), so the
        simulator still drains to quiescence after the last fault.
    expiry_grace:
        Extra slack before the *granter* side expires (default:
        ``lease_ttl / 2``).  Lease traffic is one-directional (grants and
        updates flow granter -> holder), so with symmetric TTLs the granter
        would time out first — the unsafe order, leaving the holder serving
        a voided lease.  The grace makes the holder expire first; its
        synthesized Release then clears the granter side through the
        normal protocol whenever the edge is connected, and the granter's
        own (grace-delayed) expiry is the fallback for a dead or
        partitioned holder.
    reestablish_probes:
        Whether recovery ends with a probe round re-pulling fresh subtree
        views (recommended; off only for protocol experiments).
    """

    checkpoint_interval: float = 10.0
    lease_ttl: Optional[float] = None
    sweep_interval: Optional[float] = None
    horizon: Optional[float] = None
    expiry_grace: Optional[float] = None
    reestablish_probes: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.lease_ttl is not None and self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive when set")
        if self.sweep_interval is not None and self.sweep_interval <= 0:
            raise ValueError("sweep_interval must be positive when set")
        if self.expiry_grace is not None and self.expiry_grace < 0:
            raise ValueError("expiry_grace must be non-negative when set")


class RecoveryManager:
    """Wires checkpointing, crash/recover handling and lease TTLs into a
    :class:`~repro.core.runtime.NodeRuntime`.

    Built by the runtime itself when its ``recovery`` parameter is set (the
    runtime's scheduled-fault listener then dispatches crash/recover events
    here), or attachable manually for direct-API use (dynamic engines call
    :meth:`handle_crash` / :meth:`handle_recover` / :meth:`checkpoint_now`
    themselves).
    """

    def __init__(self, runtime: "NodeRuntime", config: RecoveryConfig) -> None:
        self.runtime = runtime
        self.config = config
        if config.lease_ttl is not None and not runtime.trace.enabled:
            # TTL renewal rides the trace subscription (recv/deliver events
            # refresh the peer's timers); without tracing every lease would
            # silently expire at the first sweep.
            raise ValueError("lease_ttl requires a runtime with trace_enabled")
        self.grace = (
            config.expiry_grace
            if config.expiry_grace is not None
            else (config.lease_ttl / 2 if config.lease_ttl is not None else 0.0)
        )
        #: TTL renewal/sweep and checkpoint capture, in virtual time.
        self.host = LeaseHost(
            runtime.nodes,
            clock=runtime,
            stamp=self._now,
            trace=runtime.trace,
            metrics=runtime.metrics,
            ttl=config.lease_ttl,
            grace=self.grace,
            crashed=runtime.crashed,
        )
        #: Crash instants of currently-down nodes.
        self.crash_times: Dict[int, float] = {}
        #: Completed time-to-recover samples, in order.
        self.recovery_durations: List[float] = []
        runtime.trace.subscribe(self._on_trace)
        for nid in runtime.nodes:
            self.host.renew_node(nid)
        if runtime.sim is not None:
            self._schedule_timeline()

    def _now(self) -> float:
        # A bound method, not a lambda: NodeRuntime.fork deep-copies it
        # onto the clone's runtime.
        return self.runtime.now

    # ------------------------------------------------------------ scheduling
    def _horizon(self) -> float:
        if self.config.horizon is not None:
            return self.config.horizon
        plan = getattr(self.runtime.config, "plan", None)
        events = getattr(plan, "events", ()) if plan is not None else ()
        if not events:
            return 0.0
        slack = (
            self.config.lease_ttl + self.grace
            if self.config.lease_ttl is not None
            else self.config.checkpoint_interval
        )
        # Extra sweep room past the last scheduled fault: one sweep period
        # so the granter's grace-delayed expiry still gets a tick, plus a
        # full TTL so a probe round wedged by the *last* fault ages into
        # the stuck-round re-probe (detection needs first-seen + TTL).
        if self.config.lease_ttl is not None:
            slack += self.config.lease_ttl
            slack += self.config.sweep_interval or (self.config.lease_ttl / 2)
        return max(ev.time for ev in events) + slack

    def _schedule_timeline(self) -> None:
        sim = self.runtime.sim
        assert sim is not None
        horizon = self._horizon()
        t = self.config.checkpoint_interval
        while t <= horizon:
            sim.schedule_at(t, self.checkpoint_now, label="checkpoint tick")
            t += self.config.checkpoint_interval
        if self.config.lease_ttl is not None:
            step = self.config.sweep_interval or (self.config.lease_ttl / 2)
            t = step
            while t <= horizon:
                sim.schedule_at(t, self.host.sweep, label="lease-ttl sweep")
                t += step

    # ----------------------------------------------------------- checkpoints
    def checkpoint_now(self, node_id: Optional[int] = None) -> List[Checkpoint]:
        """Checkpoint one live node (or all of them); returns the captures."""
        return self.host.capture(node_id)

    # --------------------------------------------------------- crash/recover
    def handle_crash(self, node_id: int) -> None:
        """Node-level crash consequences (wire is already black-holed)."""
        if node_id in self.runtime.crashed:
            return
        self.crash_times[node_id] = self.runtime.now
        self.runtime.metrics.counter("crashes_total", node=node_id).inc()
        self.runtime.crash(node_id, emit_trace=False)

    def handle_recover(self, node_id: int) -> None:
        """Restore the last checkpoint, then reopen and reconcile."""
        if node_id not in self.runtime.crashed:
            return
        node = self.runtime.nodes[node_id]
        cp = self.host.store.latest(node_id)
        if cp is not None:
            cp.restore(node)
        self.runtime.recover(
            node_id,
            emit_trace=False,
            reestablish=self.config.reestablish_probes,
        )
        self.runtime.metrics.counter("recoveries_total", node=node_id).inc()
        t0 = self.crash_times.pop(node_id, None)
        if t0 is not None:
            ttr = self.runtime.now - t0
            self.recovery_durations.append(ttr)
            self.runtime.metrics.histogram(
                "time_to_recover", buckets=RECOVERY_BUCKETS
            ).observe(ttr)
        self.host.renew_node(node_id)

    # -------------------------------------------------------------- telemetry
    def _on_trace(self, ev: Any) -> None:
        if ev.kind == "delivery_failed":
            self.runtime.metrics.counter(
                "lost_messages_total", msg=ev.detail.get("msg", "?")
            ).inc()
            return
        self.host.on_trace(ev)
