"""`AsyncioTransport`: the live transport behind the transport seam.

Implements the shared transport interface (``send`` / ``sender`` /
``is_quiescent`` / ``set_topology`` / ``stats`` / ``trace``) over asyncio.
Two modes share one class:

* **in-process** (the default, and what
  ``TransportConfig.external("asyncio")`` builds through the seam): every
  node is local; ``send`` enqueues and :meth:`run_to_quiescence` drives a
  real asyncio event loop until the queue drains.  The delivery order is
  the same global FIFO as :class:`~repro.sim.network.SynchronousNetwork`,
  so the engines produce identical results and message counts over either
  — the equivalence tests in ``tests/test_net.py`` pin this.
* **multi-process** (:class:`~repro.net.server.NodeServer`): only the
  hosted nodes are local; sends to remote nodes are handed to the server's
  socket layer via ``remote_send`` and arrive back through
  :meth:`deliver_remote` on the peer.

Every logical send is stamped with a per-directed-edge sequence number and
the sender's process incarnation; both ride the wire frame and are recorded
as *extra* detail fields on the ``send``/``deliver`` trace events (the
schema registry allows extras).  The offline merge tool
(:mod:`repro.net.merge`) uses them to FIFO-match sends to deliveries
exactly and to synthesize ``delivery_failed`` events for messages that died
with a killed process.

The module also owns the length-prefixed frame codec: 4-byte big-endian
length, then a canonical JSON object (sorted keys — same conventions as
the JSONL trace export).
"""

from __future__ import annotations

import asyncio
import json
import struct
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, FrozenSet, Optional, Set, Tuple

from repro.net.codec import decode_message, encode_message
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.tree.topology import Tree

Edge = Tuple[int, int]

_LEN = struct.Struct(">I")

#: Refuse absurd frames early (a desynced stream reads garbage lengths).
MAX_FRAME = 16 * 1024 * 1024

#: Once a frame header has arrived, the payload must follow promptly: a
#: peer that died mid-frame must not wedge the reader forever (asynclint
#: PL603).  Waiting *for the next header* is unbounded by design — an idle
#: but healthy connection is legal — unless the caller passes ``timeout``.
FRAME_PAYLOAD_TIMEOUT = 5.0


def frame_bytes(obj: Dict[str, Any]) -> bytes:
    """Length-prefixed canonical-JSON frame for one wire object."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return _LEN.pack(len(payload)) + payload


def write_frame(writer: asyncio.StreamWriter, obj: Dict[str, Any]) -> None:
    """Queue one frame on a stream (caller drains at its own cadence)."""
    writer.write(frame_bytes(obj))


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    timeout: Optional[float] = None,
    payload_timeout: float = FRAME_PAYLOAD_TIMEOUT,
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean or torn EOF.

    ``timeout`` bounds the wait for the *header* (i.e. connection
    idleness) and raises :class:`asyncio.TimeoutError` — idle policy
    belongs to the caller.  ``payload_timeout`` bounds the header-to-
    payload gap; a frame torn by a dying peer reads as EOF (``None``),
    the same as a torn connection.
    """
    try:
        header = await asyncio.wait_for(reader.readexactly(_LEN.size), timeout)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds MAX_FRAME")
    try:
        payload = await asyncio.wait_for(
            reader.readexactly(length), payload_timeout
        )
    except (asyncio.IncompleteReadError, ConnectionError, asyncio.TimeoutError):
        return None
    frame: Dict[str, Any] = json.loads(payload.decode())
    return frame


def message_frame(src: int, dst: int, message: Any, seq: int, inc: int, hlc: float) -> Dict[str, Any]:
    """The ``msg`` wire frame for one protocol message."""
    return {
        "type": "msg",
        "src": src,
        "dst": dst,
        "seq": seq,
        "inc": inc,
        "hlc": hlc,
        "m": encode_message(message),
    }


def message_from_frame(frame: Dict[str, Any]) -> Any:
    return decode_message(frame["m"])


class AsyncioTransport:
    """The live transport: asyncio delivery for local nodes, pluggable
    socket egress for remote ones.

    Parameters
    ----------
    tree:
        Topology sends are validated against.
    receiver:
        ``(src, dst, message) -> None`` — the node router.
    clock:
        Zero-argument callable stamping trace events (a
        :meth:`~repro.net.clock.HybridClock.tick` in live mode).  Default
        stamps 0.0, matching the synchronous transport's convention so
        in-process runs diff cleanly against the reference backend.
    local_nodes:
        Node ids delivered in-process.  ``None`` means *all* (in-process
        mode).
    remote_send:
        ``(src, dst, message, seq) -> None`` egress for non-local
        destinations; required when ``local_nodes`` is a proper subset.
    incarnation:
        This process's spawn generation; stamped on every send.
    """

    #: Multi-task mutation license (asynclint PL604): ``send`` is handed to
    #: every hosted node as its egress callable, so any task delivering a
    #: message appends to ``_queue`` and flips ``_pump_scheduled``; the
    #: scheduled ``_pump`` callback pops.  Single event loop, and neither
    #: send nor _pump awaits while touching them — each step is atomic.
    _ASYNC_SHARED: FrozenSet[str] = frozenset({"_queue", "_pump_scheduled"})

    def __init__(
        self,
        tree: Tree,
        receiver: Callable[[int, int, Any], None],
        *,
        clock: Optional[Callable[[], float]] = None,
        stats: Optional[MessageStats] = None,
        trace: Optional[TraceLog] = None,
        local_nodes: Optional[Set[int]] = None,
        remote_send: Optional[Callable[[int, int, Any, int], None]] = None,
        incarnation: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        self.tree = tree
        self._receiver = receiver
        self._clock = clock
        self.stats = stats if stats is not None else MessageStats()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self._all_local = local_nodes is None
        self.local_nodes: Set[int] = (
            set(local_nodes) if local_nodes is not None else set(tree.nodes())
        )
        self._remote_send = remote_send
        self.incarnation = incarnation
        self._loop = loop
        self._edges: Set[Edge] = set(tree.directed_edges())
        self._next_seq: Dict[Edge, int] = {}
        # Receiver-side dedup: highest (inc, seq) delivered per edge.  TCP
        # never duplicates, but a reconnect race could replay a frame; the
        # guard keeps delivery exactly-once cheaply.
        self._delivered: Dict[Edge, Tuple[int, int]] = {}
        self._queue: Deque[Tuple[int, int, Any, int, int]] = deque()
        self._draining = False
        self._pump_scheduled = False

    # ------------------------------------------------------------- interface
    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def send(self, src: int, dst: int, message: Any) -> None:
        """Send one logical message (local: async FIFO; remote: socket)."""
        edge = (src, dst)
        if edge not in self._edges:
            raise ValueError(f"({src}, {dst}) is not a tree edge; cannot send")
        kind = getattr(message, "kind", type(message).__name__.lower())
        seq = self._next_seq.get(edge, 0)
        self._next_seq[edge] = seq + 1
        self.stats.record(src, dst, kind)
        self.trace.emit(
            self._now(), "send", src,
            dst=dst, msg=kind, seq=seq, inc=self.incarnation,
        )
        if dst in self.local_nodes:
            self._queue.append((src, dst, message, seq, self.incarnation))
            self._schedule_pump()
        else:
            if self._remote_send is None:
                raise RuntimeError(
                    f"node {dst} is not hosted here and no remote egress is wired"
                )
            self._remote_send(src, dst, message, seq)

    def sender(self, src: int, dst: int) -> Callable[[Any], None]:
        """A precomputed send callable for the directed edge ``src -> dst``."""
        if (src, dst) not in self._edges:
            raise ValueError(f"({src}, {dst}) is not a tree edge")
        return partial(self.send, src, dst)

    def in_flight(self) -> int:
        return len(self._queue)

    def is_quiescent(self) -> bool:
        """True when no local delivery is pending.  Remote frames in kernel
        buffers are invisible here — cross-process quiescence is the
        supervisor's job (stable status polls)."""
        return not self._queue

    def set_topology(self, tree: Tree) -> None:
        """Swap the tree under the transport (new edges start at seq 0)."""
        if self._queue:
            raise RuntimeError("cannot change topology with deliveries pending")
        self.tree = tree
        self._edges = set(tree.directed_edges())
        if self._all_local:
            self.local_nodes = set(tree.nodes())
        for edge in [e for e in self._next_seq if e not in self._edges]:
            del self._next_seq[edge]
        for edge in [e for e in self._delivered if e not in self._edges]:
            del self._delivered[edge]

    # -------------------------------------------------------------- delivery
    def _deliver(self, src: int, dst: int, message: Any, seq: int, inc: int) -> None:
        last = self._delivered.get((src, dst))
        if last is not None and (inc, seq) <= last:
            return  # replayed frame; already delivered
        self._delivered[(src, dst)] = (inc, seq)
        kind = getattr(message, "kind", type(message).__name__.lower())
        self.trace.emit(
            self._now(), "deliver", dst, src=src, msg=kind, seq=seq, inc=inc,
        )
        self._receiver(src, dst, message)

    def deliver_remote(self, src: int, dst: int, message: Any, seq: int, inc: int) -> None:
        """Ingress for a frame from a peer process (called by the server)."""
        self._deliver(src, dst, message, seq, inc)

    def _schedule_pump(self) -> None:
        """In server mode, drain the local queue on the running loop; the
        in-process mode drains from :meth:`run_to_quiescence` instead."""
        if self._loop is None or self._pump_scheduled:
            return
        self._pump_scheduled = True
        self._loop.call_soon(self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        while self._queue:
            self._deliver(*self._queue.popleft())

    async def _drain_async(self) -> None:
        while self._queue:
            item = self._queue.popleft()
            # One trip through the loop per delivery: deliveries interleave
            # with any other scheduled callbacks, like a real server.
            await asyncio.sleep(0)
            self._deliver(*item)

    def run_to_quiescence(self) -> None:
        """Drive a fresh asyncio event loop until every local delivery
        (including ones triggered by deliveries) has run.  The in-process
        engine drain — the live analog of ``Simulator.run()``."""
        if self._loop is not None:
            raise RuntimeError(
                "run_to_quiescence is for in-process mode; a NodeServer "
                "drains its transport on its own running loop"
            )
        if self._draining:
            return
        self._draining = True
        try:
            asyncio.run(self._drain_async())
        finally:
            self._draining = False


def _build_from_config(
    config: Any,
    tree: Tree,
    receiver: Callable[[int, int, Any], None],
    *,
    sim: Any = None,
    seed: int = 0,
    stats: Optional[MessageStats] = None,
    trace: Optional[TraceLog] = None,
    metrics: Any = None,
) -> AsyncioTransport:
    """The ``build_transport`` factory for ``kind="asyncio"``.

    ``config.options`` may be a dict of :class:`AsyncioTransport` keyword
    arguments (``clock``, ``local_nodes``, ``remote_send``, ``incarnation``,
    ``loop``); engines normally pass none and get the in-process mode.
    """
    options = dict(config.options) if config.options else {}
    return AsyncioTransport(tree, receiver, stats=stats, trace=trace, **options)


__all__ = [
    "AsyncioTransport",
    "frame_bytes",
    "write_frame",
    "read_frame",
    "message_frame",
    "message_from_frame",
    "MAX_FRAME",
]
