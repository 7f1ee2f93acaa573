"""The single lease-TTL expiry implementation (two clock domains, one law).

Classic time-based leases (Gray & Cheriton; PaxosLease-style timers)
expire *silently*: a lease renewed at time ``t`` is valid through
``t + ttl`` and lapses for free afterwards — no release message, so a
dead holder's leases cannot wedge the grantor forever.

:class:`LeaseExpiry` captures exactly that law over an abstract monotone
clock, so both users share one implementation:

* the :class:`~repro.recovery.host.LeaseHost` runs it to expire leases
  whose peer has gone silent — over the simulator's **virtual clock**
  under the :class:`~repro.recovery.manager.RecoveryManager`, and over
  the **wall clock** under ``repro.net``'s
  :class:`~repro.net.server.NodeServer`;
* the :class:`~repro.baselines.timelease.TimeLeaseBaseline` runs it over
  the **token clock** of a per-edge request projection (``now`` is the
  token index) for the offline cost accounting.

The boundary is inclusive: a lease renewed at ``t`` is still alive at
``t + ttl`` exactly (matching the token-clock semantics, where a lease
with ``ttl`` remaining tokens survives ``ttl`` decrements).
"""

from __future__ import annotations

from typing import Dict, Hashable

__all__ = ["LeaseExpiry"]


class LeaseExpiry:
    """TTL bookkeeping for any set of lease keys over a monotone clock.

    Parameters
    ----------
    ttl:
        Lease lifetime in clock units; must be positive.
    """

    def __init__(self, ttl: float) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.ttl = ttl
        self._expires: Dict[Hashable, float] = {}

    def renew(self, key: Hashable, now: float) -> None:
        """Refresh ``key``: it stays alive through ``now + ttl`` inclusive."""
        self._expires[key] = now + self.ttl

    def alive(self, key: Hashable, now: float) -> bool:
        """Whether ``key`` holds a live lease at ``now`` (never-renewed
        keys are dead)."""
        expires = self._expires.get(key)
        return expires is not None and expires >= now
