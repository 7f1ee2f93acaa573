"""Wall-clock and hybrid-logical clock domains for the live deployment.

The simulator gives every event one totally ordered virtual timestamp for
free; a multi-process deployment has N drifting wall clocks instead.  The
offline verification pipeline (merge per-process traces, sort, run
``verify causal`` and the lemma monitors) needs the merged order to be
*happens-before consistent*: if event ``a`` causally precedes event ``b``
(same process, or a message from ``a``'s process delivered before ``b``),
then ``a`` must sort before ``b``.

:class:`HybridClock` is the standard hybrid logical clock (Kulkarni et al.):
``tick()`` returns ``max(prev + delta, wall)`` and every received frame's
timestamp is folded in via ``observe(remote)``, so a delivery is always
stamped after its send even across processes with skewed wall clocks.
Within one process the clock is strictly monotone, so the per-process JSONL
stream sorts back into emission order.

:class:`WallClock` is the asyncio counterpart of
:class:`repro.sim.scheduler.SimClock` — the same ``now`` + ``timer()``
clock-domain shape consumed by ``ReliableNetwork`` timeouts and the
``LeaseHost``'s TTL sweep, backed by ``loop.call_later`` instead of the event
heap.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional


class HybridClock:
    """A hybrid logical clock: monotone, wall-anchored, causality-aware.

    ``delta`` is the logical increment applied when the wall clock has not
    advanced past the previous reading (bursts, coarse clocks); it is small
    enough (1 µs) that stamps remain near wall time for humans.
    """

    __slots__ = ("_last", "_wall", "delta")

    def __init__(self, wall: Callable[[], float] = time.time, delta: float = 1e-6) -> None:
        self._wall = wall
        self._last = 0.0
        self.delta = delta

    def tick(self) -> float:
        """Advance and return the clock (strictly greater than all prior
        ticks and all observed remote stamps)."""
        self._last = max(self._last + self.delta, self._wall())
        return self._last

    def observe(self, remote: float) -> None:
        """Fold in a remote timestamp; the next tick exceeds it."""
        if remote > self._last:
            self._last = remote

    @property
    def last(self) -> float:
        """The most recent reading (without advancing)."""
        return self._last


class AsyncioTimer:
    """A cancellable, restartable one-shot timer over an asyncio loop.

    The same interface as :class:`repro.sim.scheduler.Timer` (``start`` /
    ``cancel`` / ``active`` / ``deadline``), so code written against the
    clock-domain abstraction runs unchanged in either domain.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop
        self._handle: Optional[asyncio.TimerHandle] = None
        self._action: Optional[Callable[[], None]] = None
        self._deadline: Optional[float] = None

    def _get_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop

    @property
    def active(self) -> bool:
        return self._handle is not None

    @property
    def deadline(self) -> Optional[float]:
        return self._deadline if self._handle is not None else None

    def start(self, delay: float, action: Callable[[], None], label: str = "timer") -> None:
        self.cancel()
        self._action = action
        self._deadline = time.time() + delay
        self._handle = self._get_loop().call_later(delay, self._fire)

    def _fire(self) -> None:
        action = self._action
        self._handle = None
        self._action = None
        if action is not None:
            action()

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._action = None


class WallClock:
    """The live clock domain: wall/HLC ``now`` plus asyncio timers.

    When built over a :class:`HybridClock`, ``now`` reads the HLC's last
    value without advancing it (reads must not create logical events);
    timers still fire on real elapsed time.
    """

    def __init__(
        self,
        hlc: Optional[HybridClock] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        self.hlc = hlc
        self._loop = loop

    @property
    def now(self) -> float:
        if self.hlc is not None:
            return max(self.hlc.last, time.time())
        return time.time()

    def timer(self) -> AsyncioTimer:
        return AsyncioTimer(self._loop)


__all__ = ["HybridClock", "AsyncioTimer", "WallClock"]
