"""repro.net — real asyncio multi-process deployment behind the transport seam.

The simulator proves the mechanism correct under a virtual clock; this
package runs the *same node automata* as a tree of real OS processes over
framed TCP, surfaced as ``python -m repro serve``:

* :mod:`repro.net.codec` — canonical wire codec for every ``Message``
  subclass (completeness enforced by protolint rule PL102);
* :mod:`repro.net.transport` — :class:`AsyncioTransport` implementing the
  shared transport interface over asyncio, registered with the transport
  seam as ``kind="asyncio"`` (``TransportConfig.external("asyncio")``);
* :mod:`repro.net.clock` — hybrid logical clock + ``WallClock``, the
  wall-clock implementation of the ``now`` + ``timer()`` clock domain
  that ``SimClock`` implements in virtual time;
* :mod:`repro.net.server` — :class:`NodeServer`, one process hosting a
  slice of the tree; it drives the simulator's
  :class:`~repro.recovery.host.LeaseHost` on the wall clock for lease
  TTLs and durable checkpoints;
* :mod:`repro.net.cluster` — :class:`ClusterConfig` (declarative N-node
  deployment) and :class:`ClusterSupervisor` (spawn / monitor / kill /
  restart / drive requests);
* :mod:`repro.net.merge` — offline merge of per-process JSONL traces,
  crash-loss synthesis, and re-verification with ``check_trace`` plus the
  lemma monitors.

Importing this package registers the ``asyncio`` transport kind; the seam
also lazy-imports it on first use, so
``TransportConfig.external("asyncio")`` works without any explicit import.
"""

from __future__ import annotations

from repro.net.clock import AsyncioTimer, HybridClock, WallClock
from repro.net.cluster import ClusterConfig, ClusterSupervisor
from repro.net.codec import (
    decode_message,
    dumps_message,
    encode_message,
    loads_message,
)
from repro.net.merge import (
    merge_run_dir,
    merge_traces,
    synthesize_losses,
    verify_merged,
)
from repro.net.server import NodeServer, serve_node
from repro.net.transport import AsyncioTransport, _build_from_config
from repro.sim.transport import register_transport_kind

register_transport_kind("asyncio", _build_from_config)

__all__ = [
    "AsyncioTimer",
    "AsyncioTransport",
    "ClusterConfig",
    "ClusterSupervisor",
    "HybridClock",
    "NodeServer",
    "WallClock",
    "decode_message",
    "dumps_message",
    "encode_message",
    "loads_message",
    "merge_run_dir",
    "merge_traces",
    "serve_node",
    "synthesize_losses",
    "verify_merged",
]
