"""Crash-recovery subsystem: checkpoints, lease TTLs, the host, the manager.

The paper proves its guarantees under permanently-live nodes; this package
makes node death survivable.  Four pieces:

* :mod:`repro.recovery.checkpoint` — periodic, restorable snapshots of
  each node's *volatile* protocol state (lease tables, cached subtree
  views, policy bookkeeping) with a canonical digest;
* :mod:`repro.recovery.lease_ttl` — the single TTL-expiry implementation
  shared by the lease host's timers and the token-clock
  :class:`~repro.baselines.timelease.TimeLeaseBaseline`;
* :mod:`repro.recovery.host` — the :class:`LeaseHost`: TTL renewal from
  trace traffic, the expiry sweep with stuck-round re-probing, and
  checkpoint capture, with no I/O or scheduling of its own; the
  simulator and ``repro.net``'s live servers both drive it;
* :mod:`repro.recovery.manager` — the :class:`RecoveryManager` wiring it
  into the runtime: it listens for scheduled crash/recover faults, loses
  volatile state at crash, restores the last checkpoint and runs the
  release/probe reconciliation round at recovery, schedules the host's
  sweeps and captures on a bounded virtual-time timeline, and reports
  recovery metrics (crash/recovery counters, lost messages, a
  time-to-recover histogram).

See DESIGN.md ("Fault model and crash recovery") for the protocol
rationale and the recovery sequence diagram.
"""

from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.host import LeaseHost
from repro.recovery.lease_ttl import LeaseExpiry
from repro.recovery.manager import RecoveryConfig, RecoveryManager

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "LeaseExpiry",
    "LeaseHost",
    "RecoveryConfig",
    "RecoveryManager",
]
