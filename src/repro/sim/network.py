"""Message transports binding a tree topology to delivery semantics.

Two transports share one interface (``send(src, dst, message)`` plus message
accounting) so the same node automaton runs under both execution models:

* :class:`SynchronousNetwork` — the sequential model of Section 2.  Messages
  go into a global FIFO queue; :meth:`SynchronousNetwork.run_to_quiescence`
  drains it, which realizes the paper's quiescent-state semantics exactly
  (global FIFO trivially preserves per-channel FIFO).
* :class:`Network` — the concurrent model of Section 5.  One
  :class:`~repro.sim.channel.FifoChannel` per directed edge delivers with
  latency under a :class:`~repro.sim.scheduler.Simulator` clock.

Both transports validate that every send travels along a tree edge.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Optional, Tuple

from repro.sim.channel import FifoChannel, LatencyModel, constant_latency
from repro.sim.scheduler import Simulator
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.tree.topology import Tree
from repro.util.canon import canonical_value

#: Receiver callback: (src, dst, message) -> None.
Receiver = Callable[[int, int, Any], None]


def _kind(message: Any) -> str:
    """Accounting kind of ``message``: its ``kind``, else its type name."""
    try:
        return message.kind
    except AttributeError:
        return type(message).__name__.lower()


def _neighbor_index(tree: Tree) -> Dict[int, FrozenSet[int]]:
    """node -> its neighbor set: the per-send edge check is two lookups."""
    return {u: frozenset(tree.neighbors(u)) for u in tree.nodes()}


class SynchronousNetwork:
    """Zero-latency transport draining a global FIFO queue to quiescence."""

    def __init__(
        self,
        tree: Tree,
        receiver: Receiver,
        stats: Optional[MessageStats] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.tree = tree
        self._nbrs = _neighbor_index(tree)
        self._receiver = receiver
        self.stats = stats if stats is not None else MessageStats()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self._queue: Deque[Tuple[int, int, Any]] = deque()
        self._delivering = False
        self.crashed: set = set()

    def send(self, src: int, dst: int, message: Any) -> None:
        """Enqueue ``message`` from ``src`` to its neighbor ``dst``.

        Traffic to or from a crashed node is black-holed as a *declared
        loss*: the send is still traced and counted (the sender paid for
        it), then a ``delivery_failed`` event announces the casualty so
        the offline causal checker can discount it.
        """
        nbrs = self._nbrs.get(src)
        if nbrs is None or dst not in nbrs:
            raise ValueError(f"({src}, {dst}) is not a tree edge; cannot send")
        kind = _kind(message)
        self.stats.record(src, dst, kind)
        trace = self.trace
        if trace.enabled:
            trace.emit(0.0, "send", src, dst=dst, msg=kind)
        crashed = self.crashed
        if crashed and (src in crashed or dst in crashed):
            if trace.enabled:
                trace.emit(
                    0.0, "delivery_failed", src, dst=dst, msg=kind, seq=-1, attempts=0
                )
            return
        self._queue.append((src, dst, message))

    # ------------------------------------------------------- crash/recovery
    def crash_node(self, node: int) -> None:
        """Black-hole the node: queued messages to it die as declared
        losses; future traffic to or from it is discarded at send time."""
        self.crashed.add(node)
        queue = self._queue
        pending = list(queue)
        queue.clear()  # in place: a running drain loop holds this deque
        for src, dst, message in pending:
            if dst == node:
                self.trace.emit(
                    0.0, "delivery_failed", src, dst=dst, msg=_kind(message),
                    seq=-1, attempts=0,
                )
            else:
                queue.append((src, dst, message))

    def recover_node(self, node: int) -> None:
        """Reopen the wire to ``node`` (state restoration happens above)."""
        self.crashed.discard(node)

    def rename_node(self, old: int, new: int) -> None:
        """Re-key crash state after a dynamic-tree id rename."""
        if old in self.crashed:
            self.crashed.discard(old)
            self.crashed.add(new)

    def run_to_quiescence(self, max_messages: int = 10_000_000) -> int:
        """Deliver queued messages (and those they trigger) until none remain.

        Returns the number of messages delivered.  Re-entrant calls (a
        receiver triggering delivery) are flattened into the outer loop.
        """
        if self._delivering:
            return 0
        self._delivering = True
        queue = self._queue
        popleft = queue.popleft
        receiver = self._receiver
        trace = self.trace
        delivered = 0
        try:
            while queue:
                src, dst, message = popleft()
                if trace.enabled:
                    trace.emit(0.0, "recv", dst, src=src, msg=_kind(message))
                receiver(src, dst, message)
                delivered += 1
                if delivered > max_messages:
                    raise RuntimeError(
                        f"exceeded {max_messages} deliveries; protocol livelock?"
                    )
        finally:
            self._delivering = False
        return delivered

    def is_quiescent(self) -> bool:
        """True when no message is queued (Section 2's condition (2))."""
        return not self._queue

    # ------------------------------------------------- frontier enumeration
    # The hooks the small-scope model checker (repro.verify.explore) drives:
    # instead of draining the whole queue in arrival order, an explorer
    # enumerates the directed edges with a message in flight and chooses
    # which edge delivers next.  Delivering the *oldest* message of the
    # chosen edge preserves per-channel FIFO, so every schedule the explorer
    # generates is a legal execution of the paper's network model.

    def pending_edges(self) -> List[Tuple[int, int]]:
        """Directed edges with at least one queued message — the explorer's
        delivery frontier.  Ordered by oldest queued message, deduplicated,
        so enumeration is deterministic."""
        seen: List[Tuple[int, int]] = []
        for src, dst, _ in self._queue:
            edge = (src, dst)
            if edge not in seen:
                seen.append(edge)
        return seen

    def deliver_next(self, src: int, dst: int) -> None:
        """Deliver the oldest queued message on edge ``src -> dst`` only.

        Messages the receiver sends in response stay queued (the explorer
        decides their delivery order later).  Raises ``ValueError`` when the
        edge has nothing in flight.
        """
        for i, (s, d, message) in enumerate(self._queue):
            if (s, d) == (src, dst):
                del self._queue[i]
                if self.trace.enabled:
                    self.trace.emit(0.0, "recv", dst, src=src, msg=_kind(message))
                self._receiver(src, dst, message)
                return
        raise ValueError(f"no message in flight on edge ({src}, {dst})")

    def pending_snapshot(self) -> Tuple[Any, ...]:
        """Canonical, hashable rendering of the in-flight messages: per-edge
        FIFO queues, sorted by edge.

        The cross-edge interleaving of the global deque is deliberately
        erased — under :meth:`deliver_next` future behavior depends only on
        the per-edge queues, so two states differing only in that
        interleaving are the same state to the explorer (this is what makes
        deliveries to distinct nodes commute *exactly*, the independence
        relation of the sleep-set reduction).
        """
        per_edge: Dict[Tuple[int, int], List[Any]] = {}
        for src, dst, message in self._queue:
            per_edge.setdefault((src, dst), []).append(canonical_value(message))
        snap: Tuple[Any, ...] = tuple(
            (edge, tuple(messages)) for edge, messages in sorted(per_edge.items())
        )
        if self.crashed:
            # Shape-stable: crash-free states keep their historical snapshot.
            snap += (("crashed", tuple(sorted(self.crashed))),)
        return snap

    def sender(self, src: int, dst: int) -> Callable[[Any], None]:
        """A precomputed send callable for the directed edge ``src -> dst``.

        Nodes bind one of these per neighbor instead of allocating a
        closure per send (see :class:`repro.core.mechanism.LeaseNode`).
        """
        if not self.tree.has_edge(src, dst):
            raise ValueError(f"({src}, {dst}) is not a tree edge")
        return partial(self.send, src, dst)

    def set_topology(self, tree: Tree) -> None:
        """Swap the tree under the transport (dynamic attach/detach/rename).

        Must be called at quiescence — the queue carries ``(src, dst)``
        pairs of the old topology.
        """
        if not self.is_quiescent():
            raise RuntimeError("cannot change topology with messages queued")
        self.tree = tree
        self._nbrs = _neighbor_index(tree)


class Network:
    """Latency-ful transport: one FIFO channel per directed tree edge."""

    def __init__(
        self,
        tree: Tree,
        sim: Simulator,
        receiver: Receiver,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        stats: Optional[MessageStats] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.tree = tree
        self.sim = sim
        self._receiver = receiver
        self.stats = stats if stats is not None else MessageStats()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self._latency = latency if latency is not None else constant_latency(1.0)
        self._master_rng = random.Random(seed)
        self._channels: Dict[Tuple[int, int], FifoChannel] = {}
        for u, v in tree.directed_edges():
            self._add_channel(u, v)

    def _add_channel(self, u: int, v: int) -> None:
        # Each directed channel gets its own derived RNG stream so the
        # latency draws on one edge never perturb another edge's stream.
        ch_rng = random.Random(self._master_rng.getrandbits(64))
        self._channels[(u, v)] = FifoChannel(
            self.sim,
            u,
            v,
            deliver=partial(self._deliver, u, v),
            latency=self._latency,
            rng=ch_rng,
        )

    def _deliver(self, src: int, dst: int, message: Any) -> None:
        self.trace.emit(self.sim.now, "recv", dst, src=src, msg=_kind(message))
        self._receiver(src, dst, message)

    def send(self, src: int, dst: int, message: Any) -> None:
        """Send ``message`` on the directed channel ``src -> dst``."""
        channel = self._channels.get((src, dst))
        if channel is None:
            raise ValueError(f"({src}, {dst}) is not a tree edge; cannot send")
        kind = _kind(message)
        self.stats.record(src, dst, kind)
        self.trace.emit(self.sim.now, "send", src, dst=dst, msg=kind)
        channel.send(message)

    def in_flight(self) -> int:
        """Total messages currently in transit across all channels."""
        return sum(ch.in_flight for ch in self._channels.values())

    def is_quiescent(self) -> bool:
        """True when no message is in transit."""
        return self.in_flight() == 0

    def sender(self, src: int, dst: int) -> Callable[[Any], None]:
        """A precomputed send callable for the directed edge ``src -> dst``."""
        if (src, dst) not in self._channels:
            raise ValueError(f"({src}, {dst}) is not a tree edge")
        return partial(self.send, src, dst)

    def set_topology(self, tree: Tree) -> None:
        """Swap the tree under the transport (dynamic attach/detach/rename).

        New directed edges get fresh channels with RNG streams derived from
        the continuing master stream (existing edges keep their streams);
        channels for edges no longer present are dropped.  Must be called
        at quiescence.
        """
        if not self.is_quiescent():
            raise RuntimeError("cannot change topology with messages in flight")
        self.tree = tree
        wanted = set(tree.directed_edges())
        for edge in [e for e in self._channels if e not in wanted]:
            del self._channels[edge]
        for u, v in tree.directed_edges():
            if (u, v) not in self._channels:
                self._add_channel(u, v)
