"""FlatRuntime — the array-indexed execution backend.

The reference backend pays for its flexibility in per-message Python
object churn: every probe allocates a ``Probe``, every delivery walks a
transport stack, every transition makes half a dozen method calls
through policy and telemetry indirection.  At n=1023 that overhead *is*
the runtime (see ``benchmarks/results/scalability.json``).

This backend stores the entire Figure-1 automaton in flat arrays over a
CSR adjacency layout and drains the wire in one inlined loop:

Slots
    Directed edge ``u <- v`` (node ``u``'s view of neighbor ``v``) is a
    *slot* ``s`` with ``owner[s] = u``, ``peer[s] = v``; node ``u`` owns
    the contiguous slot range ``off[u]:off[u+1]`` in the order of
    ``tree.neighbors(u)`` (sorted — the reference backend's iteration
    order, so wire schedules match message-for-message).  ``rev[s]`` is
    the opposite direction's slot.

Per-edge state
    ``taken``/``granted`` lease bits, cached ``aval`` subaggregates,
    ``uaw`` pending-update windows, and the flattened policy timers
    ``lt``/``cc`` with per-edge parameters ``pa``/``pb`` (see
    :mod:`repro.flat.policy`) — all indexed by slot.

Interned messages
    A queued probe or revoke is one ``int`` (``slot << 3 | kind``); a
    response, update or release is one small tuple carrying the
    receiving slot.  No dataclass allocation, no dispatch table.

Batched delivery & accounting
    ``drain()`` runs a single while-loop over the queue with every hot
    array in a local.  Message counts accumulate in per-(slot, kind)
    buffers flushed into :class:`~repro.sim.stats.MessageStats` form
    only when per-edge detail is actually read; ``stats.total`` is exact
    at every batch boundary, so spans, metrics and the cost meter see
    the numbers they always saw.  When tracing, ghost logs or crashes
    are active, drain drops to a slow path that emits the reference
    backend's exact event stream.

Everything the verification stack needs — ``state_snapshot()`` /
``fork()`` / ``pending_edges()`` / ``deliver_next()`` — is implemented
bit-compatibly with the reference backend, so the model checker explores
flat states and dedupes them against the same canonical keys.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core import ledger
from repro.core.backend import BackendUnsupported, RuntimeTelemetry
from repro.core.ghost import GhostLog
from repro.core.ledger import RelayLedger, window_beta
from repro.core.policies import RWWPolicy
from repro.core.runtime import SYSTEM_NODE  # noqa: F401  (re-export convention)
from repro.core.runtime import check_quiescent_invariants as _check_invariants
from repro.flat.policy import M_AB, M_ALWAYS, M_NEVER, M_RWW, policy_spec
from repro.flat.views import FlatNode, _SlotMap
from repro.obs.costmeter import CostMeter
from repro.obs.metrics import MetricsBridge, MetricsRegistry
from repro.ops.standard import SUM
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.sim.transport import TransportConfig
from repro.util.canon import canonical_value
from repro.workloads.requests import Request

__all__ = ["FlatRuntime"]

#: Wire codes (the low 3 bits of an interned int message / first element
#: of a tuple message).  Probe and revoke carry no payload and intern to
#: a bare ``slot << 3 | code`` int.
K_PROBE = 0
K_RESPONSE = 1
K_UPDATE = 2
K_RELEASE = 3
K_REVOKE = 4

KIND_NAMES = ("probe", "response", "update", "release", "revoke")

#: Delivery-count ceiling, matching ``SynchronousNetwork.run_to_quiescence``.
MAX_DELIVERIES = 10_000_000


class _FlatStats(MessageStats):
    """MessageStats with lazily-flushed per-slot fast-path counters.

    The fast drain loop counts sends into ``_pending[slot * 5 + kind]``
    and adds the batch total to ``_total`` once at loop exit —
    ``total`` is always exact.  Per-edge detail (``count``/``by_kind``/
    ``directional_cost``/...) is demanded rarely (reports, golden
    assertions), so the per-edge ledger is synced on read by scanning
    the pending array.  Slow-path sends use plain :meth:`record` and mix
    freely with pending fast-path counts.
    """

    def __init__(self, owner: List[int], peer: List[int]) -> None:
        super().__init__()
        self._slot_owner = owner
        self._slot_peer = peer
        self._pending: List[int] = [0] * (len(owner) * 5)
        self._unsynced = False

    def _sync(self) -> None:
        if not self._unsynced:
            return
        self._unsynced = False
        pending = self._pending
        owner = self._slot_owner
        peer = self._slot_peer
        counts = self._counts
        for idx, n in enumerate(pending):
            if n:
                s, k = divmod(idx, 5)
                counts[(owner[s], peer[s])][KIND_NAMES[k]] += n
                pending[idx] = 0

    # Every per-edge read goes through one of these (directional_cost and
    # undirected_edge_total call count/edge_total, inheriting the sync).
    def count(self, src: int, dst: int, kind: str) -> int:
        self._sync()
        return super().count(src, dst, kind)

    def edge_total(self, src: int, dst: int) -> int:
        self._sync()
        return super().edge_total(src, dst)

    def by_kind(self) -> Dict[str, int]:
        self._sync()
        return super().by_kind()

    def edges(self):
        self._sync()
        return super().edges()

    def snapshot(self):
        self._sync()
        return super().snapshot()

    def reset(self) -> None:
        super().reset()
        self._pending = [0] * len(self._pending)
        self._unsynced = False


class _FlatWire:
    """The transport facade of a flat runtime (its ``network`` attribute).

    Implements the synchronous-transport inspection surface the model
    checker and the invariant checker drive — frontier enumeration,
    single-edge delivery, canonical pending snapshots, quiescence — by
    delegating to the runtime's interned queue.
    """

    def __init__(self, rt: "FlatRuntime") -> None:
        self._rt = rt

    @property
    def crashed(self) -> set:
        return self._rt.crashed

    def is_quiescent(self) -> bool:
        return not self._rt._queue

    def pending_edges(self) -> List[Tuple[int, int]]:
        rt = self._rt
        owner = rt._owner
        peer = rt._peer
        seen: List[Tuple[int, int]] = []
        for m in rt._queue:
            s = (m >> 3) if type(m) is int else m[1]
            edge = (peer[s], owner[s])
            if edge not in seen:
                seen.append(edge)
        return seen

    def deliver_next(self, src: int, dst: int) -> None:
        rt = self._rt
        want = rt._slot_index.get((dst, src))
        if want is not None:
            queue = rt._queue
            for i, m in enumerate(queue):
                s = (m >> 3) if type(m) is int else m[1]
                if s == want:
                    del queue[i]
                    rt._deliver(m)
                    return
        raise ValueError(f"no message in flight on edge ({src}, {dst})")

    def pending_snapshot(self) -> Tuple[Any, ...]:
        rt = self._rt
        owner = rt._owner
        peer = rt._peer
        per_edge: Dict[Tuple[int, int], List[Any]] = {}
        for m in rt._queue:
            if type(m) is int:
                s = m >> 3
                canon = ("Probe",) if (m & 7) == K_PROBE else ("Revoke",)
            else:
                k = m[0]
                s = m[1]
                if k == K_RESPONSE:
                    canon = (
                        "Response",
                        ("x", canonical_value(m[2])),
                        ("flag", canonical_value(m[3])),
                        ("wlog", canonical_value(m[4])),
                    )
                elif k == K_UPDATE:
                    canon = (
                        "Update",
                        ("x", canonical_value(m[2])),
                        ("id", canonical_value(m[3])),
                        ("wlog", canonical_value(m[4])),
                    )
                else:
                    canon = ("Release", ("S", canonical_value(m[2])))
            per_edge.setdefault((peer[s], owner[s]), []).append(canon)
        snap: Tuple[Any, ...] = tuple(
            (edge, tuple(messages)) for edge, messages in sorted(per_edge.items())
        )
        if rt.crashed:
            snap += (("crashed", tuple(sorted(rt.crashed))),)
        return snap


class FlatRuntime(RuntimeTelemetry):
    """Array-indexed implementation of the execution-backend protocol.

    Constructor surface matches :class:`~repro.core.runtime.NodeRuntime`
    minus the features the flat layout cannot host (simulated
    transports, custom node classes, recovery management) — those raise
    :class:`~repro.core.backend.BackendUnsupported`.
    """

    backend_name = "flat"

    def __init__(
        self,
        tree: Any,
        op: Any = SUM,
        policy_factory: Callable[[], Any] = RWWPolicy,
        transport: Optional[TransportConfig] = None,
        *,
        ghost: bool = False,
        trace_enabled: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        trace_max_events: Optional[int] = None,
        seed: int = 0,
        cost_accounting: bool = False,
    ) -> None:
        config = transport if transport is not None else TransportConfig()
        if not config.synchronous:
            raise BackendUnsupported(
                "the flat backend runs the synchronous transport only; "
                "simulated stacks need the reference backend"
            )
        self.tree = tree
        self.op = op
        self.policy_factory = policy_factory
        self.config = config
        self.trace = TraceLog(enabled=trace_enabled, max_events=trace_max_events)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: List[Any] = []
        if trace_enabled:
            self.trace.subscribe(MetricsBridge(self.metrics))
        self.sim = None
        self.recovery = None
        self.seed = seed
        self.crashed: set = set()
        self._failure_listeners: List[Callable[[List[Request]], None]] = []
        self._ghost_enabled = ghost

        n = tree.n
        # ------------------------------------------------- CSR adjacency
        off = [0] * (n + 1)
        peer: List[int] = []
        for u in range(n):
            nbrs = tree.neighbors(u)
            peer.extend(nbrs)
            off[u + 1] = off[u] + len(nbrs)
        nslots = len(peer)
        owner = [0] * nslots
        for u in range(n):
            for s in range(off[u], off[u + 1]):
                owner[s] = u
        slot_index: Dict[Tuple[int, int], int] = {}
        for s in range(nslots):
            slot_index[(owner[s], peer[s])] = s
        self._off = off
        self._peer = peer
        self._owner = owner
        self._slot_index = slot_index
        self._rev = [slot_index[(peer[s], owner[s])] for s in range(nslots)]
        # For slots whose owner has degree exactly 2, the owner's *other*
        # slot (-1 otherwise).  Degree-2 nodes — every interior node of a
        # path/caterpillar spine — take specialized straight-line handlers
        # in the fast drain loop: the "all neighbors but the sender" loops
        # collapse to one sibling lookup.
        sib = [-1] * nslots
        for u in range(n):
            if off[u + 1] - off[u] == 2:
                sib[off[u]] = off[u] + 1
                sib[off[u] + 1] = off[u]
        self._sib = sib

        # ------------------------------------------------ per-edge state
        ident = op.identity
        self._taken = [False] * nslots
        self._granted = [False] * nslots
        self._aval = [ident] * nslots
        self._uaw: List[Set[int]] = [set() for _ in range(nslots)]
        self._lt = [0] * nslots
        self._cc = [0] * nslots
        self._pa = [1] * nslots
        self._pb = [0] * nslots

        # ------------------------------------------------ per-node state
        self._val = [ident] * n
        self._upcntr = [0] * n
        self._completed = [0] * n
        self._pndg: List[Set[int]] = [set() for _ in range(n)]
        self._snt: List[Dict[int, Set[int]]] = [{} for _ in range(n)]
        # The relay ledger (sntupdates, repro.core.ledger), per slot: the
        # entries sourced from slot s's peer as parallel (nid, uid) lists,
        # plus the length at which the slot's lists compact next.
        self._win_nid: List[List[int]] = [[] for _ in range(nslots)]
        self._win_uid: List[List[int]] = [[] for _ in range(nslots)]
        self._win_cap: List[int] = [ledger.next_limit(0)] * nslots
        self._waiters: List[List[Tuple[Request, Callable]]] = [[] for _ in range(n)]
        self._scoped_waiters: List[Dict[int, List[Tuple[Request, Callable]]]] = [
            {} for _ in range(n)
        ]
        self._ghost: List[Optional[GhostLog]] = [
            GhostLog(n) if ghost else None for _ in range(n)
        ]

        # -------------------------------------------- policy flattening
        specs = []
        mode: Optional[int] = None
        for u in range(n):
            spec = policy_spec(policy_factory())
            specs.append(spec)
            if mode is None:
                mode = spec.mode
            elif mode != spec.mode:
                raise BackendUnsupported(
                    "the flat backend needs one policy mode across all nodes"
                )
            for s in range(off[u], off[u + 1]):
                a, b = spec.ab_for(peer[s])
                self._pa[s] = a
                self._pb[s] = b
        self._mode = M_RWW if mode is None else mode
        self._specs = specs

        # ------------------------------------------------------- wiring
        self._queue: deque = deque()
        self.stats = _FlatStats(owner, peer)
        self.cost_meter: Optional[CostMeter] = (
            CostMeter(tree, self.stats) if cost_accounting else None
        )
        self.network = _FlatWire(self)
        self._views: Optional[Dict[int, FlatNode]] = None

    # ----------------------------------------------------------------- nodes
    @property
    def nodes(self) -> Dict[int, FlatNode]:
        """node id -> live :class:`~repro.flat.views.FlatNode` view."""
        views = self._views
        if views is None:
            views = {u: FlatNode(self, u) for u in range(self.tree.n)}
            self._views = views
        return views

    @property
    def now(self) -> float:
        """Virtual time — always 0.0 (synchronous transport only)."""
        return 0.0

    # ------------------------------------------------------------ aggregates
    def _gval(self, u: int) -> Any:
        x = self._val[u]
        combine = self.op.combine
        aval = self._aval
        for t in range(self._off[u], self._off[u + 1]):
            x = combine(x, aval[t])
        return x

    def _subval(self, u: int, s: int) -> Any:
        x = self._val[u]
        combine = self.op.combine
        aval = self._aval
        for t in range(self._off[u], self._off[u + 1]):
            if t != s:
                x = combine(x, aval[t])
        return x

    def _wlog(self, u: int) -> Optional[Tuple[Request, ...]]:
        g = self._ghost[u]
        return g.wlog_snapshot() if g is not None else None

    def _isgood(self, u: int, s: int) -> bool:
        granted = self._granted
        for t in range(self._off[u], self._off[u + 1]):
            if granted[t] and t != s:
                return False
        return True

    # ----------------------------------------------------------- slow sends
    # Mirror SynchronousNetwork.send exactly: count + "send" trace first,
    # then black-hole traffic touching a crashed endpoint as a declared
    # loss.  ``t`` is always the *sending* slot (owner -> peer).
    def _emit_send(self, t: int, kind: str) -> bool:
        u = self._owner[t]
        v = self._peer[t]
        self.stats.record(u, v, kind)
        trace = self.trace
        if trace.enabled:
            trace.emit(0.0, "send", u, dst=v, msg=kind)
        crashed = self.crashed
        if crashed and (u in crashed or v in crashed):
            if trace.enabled:
                trace.emit(
                    0.0, "delivery_failed", u, dst=v, msg=kind, seq=-1, attempts=0
                )
            return False
        return True

    def _send_probe(self, t: int) -> None:
        if self._emit_send(t, "probe"):
            self._queue.append(self._rev[t] << 3)

    def _send_revoke(self, t: int) -> None:
        if self._emit_send(t, "revoke"):
            self._queue.append(self._rev[t] << 3 | K_REVOKE)

    def _send_response(self, t: int, x: Any, flag: bool, wlog: Any) -> None:
        if self._emit_send(t, "response"):
            self._queue.append((K_RESPONSE, self._rev[t], x, flag, wlog))

    def _send_update(self, t: int, x: Any, uid: int, wlog: Any) -> None:
        if self._emit_send(t, "update"):
            self._queue.append((K_UPDATE, self._rev[t], x, uid, wlog))

    def _send_release(self, t: int, S: frozenset) -> None:
        if self._emit_send(t, "release"):
            self._queue.append((K_RELEASE, self._rev[t], S))

    # ---------------------------------------------------------- policy hooks
    # Transliterations of repro.core.policies, switched on the flattened
    # mode; see FlatPolicySpec.  The slow path calls these; the fast
    # drain loop inlines the same bodies.
    def _p_on_combine(self, u: int) -> None:
        mode = self._mode
        if mode == M_RWW or mode == M_AB:
            taken = self._taken
            lt = self._lt
            pb = self._pb
            for t in range(self._off[u], self._off[u + 1]):
                if taken[t]:
                    lt[t] = pb[t]

    def _p_on_write(self, u: int) -> None:
        if self._mode == M_AB:
            cc = self._cc
            for t in range(self._off[u], self._off[u + 1]):
                cc[t] = 0

    def _p_probe_rcvd(self, u: int, s: int) -> None:
        mode = self._mode
        taken = self._taken
        lt = self._lt
        if mode == M_RWW:
            for t in range(self._off[u], self._off[u + 1]):
                if taken[t] and t != s:
                    lt[t] = self._pb[t]
        elif mode == M_AB:
            cc = self._cc
            cc[s] += 1
            for t in range(self._off[u], self._off[u + 1]):
                if taken[t] and t != s:
                    lt[t] = self._pb[t]
                    cc[t] = 0

    def _p_response_rcvd(self, u: int, s: int, flag: bool) -> None:
        if flag and self._mode in (M_RWW, M_AB):
            self._lt[s] = self._pb[s]

    def _p_update_rcvd(self, u: int, s: int) -> None:
        mode = self._mode
        if mode == M_RWW:
            if self._isgood(u, s):
                self._lt[s] -= 1
        elif mode == M_AB:
            if self._isgood(u, s):
                self._lt[s] -= 1
            cc = self._cc
            for t in range(self._off[u], self._off[u + 1]):
                if t != s:
                    cc[t] = 0

    def _p_set_lease(self, u: int, s: int) -> bool:
        mode = self._mode
        if mode == M_RWW or mode == M_ALWAYS:
            return True
        if mode == M_NEVER:
            return False
        if self._cc[s] >= self._pa[s]:
            self._cc[s] = 0
            return True
        return False

    def _p_break_lease(self, u: int, t: int) -> bool:
        mode = self._mode
        if mode == M_RWW or mode == M_AB:
            return self._lt[t] <= 0
        return mode == M_NEVER

    def _p_release_policy(self, u: int, t: int) -> None:
        if self._mode in (M_RWW, M_AB):
            self._lt[t] -= len(self._uaw[t])

    def _p_on_scoped(self, u: int, s: int) -> None:
        # Only RWW overrides on_scoped_combine; (a,b) variants inherit
        # the base no-op.
        if self._mode == M_RWW and self._taken[s]:
            self._lt[s] = self._pb[s]

    # ------------------------------------------------------------ initiation
    def submit_write(self, request: Request) -> None:
        """T2: a write request (completes immediately; no draining)."""
        u = request.node
        self._p_on_write(u)
        self._val[u] = self.op.lift(request.arg)
        request.index = self._completed[u]
        request.completed_at = 0.0
        self._completed[u] += 1
        g = self._ghost[u]
        if g is not None:
            g.append_write(request)
        if self.trace.enabled:
            self.trace.emit(0.0, "write_done", u, arg=request.arg)
        granted = self._granted
        for t in range(self._off[u], self._off[u + 1]):
            if granted[t]:
                self._upcntr[u] += 1
                self._forwardupdates(u, -1, self._upcntr[u])
                break

    def submit_combine(
        self, request: Request, on_complete: Callable[[Request], None]
    ) -> None:
        """T1: a (scoped) combine request; completion may be immediate."""
        if request.scope is not None:
            self._begin_scoped(request, on_complete)
            return
        u = request.node
        self._p_on_combine(u)
        taken = self._taken
        lo = self._off[u]
        hi = self._off[u + 1]
        for t in range(lo, hi):
            if taken[t]:
                self._uaw[t].clear()
        if u not in self._pndg[u]:
            if all(taken[t] for t in range(lo, hi)):
                self._finish_combine(u, [(request, on_complete)])
                return
            self._waiters[u].append((request, on_complete))
            self._sendprobes(u, u)
            self._snt[u][u] = {
                self._peer[t] for t in range(lo, hi) if not taken[t]
            }
        else:
            self._waiters[u].append((request, on_complete))

    def _begin_scoped(
        self, request: Request, on_complete: Callable[[Request], None]
    ) -> None:
        u = request.node
        v = request.scope
        s = self._slot_index.get((u, v))
        if s is None:
            raise ValueError(f"scope {v} is not a neighbor of node {u}")
        self._p_on_scoped(u, s)
        self._uaw[s].clear()
        if self._taken[s]:
            self._finish_scoped(u, [(request, on_complete)], s)
            return
        waiters = self._scoped_waiters[u].setdefault(v, [])
        waiters.append((request, on_complete))
        already: Set[int] = set()
        for targets in self._snt[u].values():
            already |= targets
        if v not in already and len(waiters) == 1:
            self._send_probe(s)

    def _finish_combine(
        self, u: int, waiters: List[Tuple[Request, Callable]]
    ) -> None:
        value = self._gval(u)
        g = self._ghost[u]
        trace = self.trace
        completed = self._completed
        for request, on_complete in waiters:
            request.retval = value
            request.index = completed[u]
            request.completed_at = 0.0
            completed[u] += 1
            if g is not None:
                g.append_gather(request)
            if trace.enabled:
                trace.emit(0.0, "combine_done", u, value=value)
            on_complete(request)

    def _finish_scoped(
        self, u: int, waiters: List[Tuple[Request, Callable]], s: int
    ) -> None:
        value = self._aval[s]
        v = self._peer[s]
        trace = self.trace
        completed = self._completed
        for request, on_complete in waiters:
            request.retval = value
            request.index = completed[u]
            request.completed_at = 0.0
            completed[u] += 1
            if trace.enabled:
                trace.emit(0.0, "scoped_combine_done", u, toward=v, value=value)
            on_complete(request)

    # ------------------------------------------------------------ procedures
    def _sendprobes(self, u: int, w: int) -> None:
        self._pndg[u].add(w)
        already: Set[int] = set()
        for targets in self._snt[u].values():
            already |= targets
        taken = self._taken
        peer = self._peer
        targets_out = [
            peer[t]
            for t in range(self._off[u], self._off[u + 1])
            if not taken[t] and peer[t] != w and peer[t] not in already
        ]
        if targets_out and self.trace.enabled:
            self.trace.emit(0.0, "probe_round", u, requestor=w, targets=targets_out)
        for v in targets_out:
            self._send_probe(self._slot_index[(u, v)])

    def _sendresponse(self, u: int, s: int) -> None:
        w = self._peer[s]
        taken = self._taken
        peer = self._peer
        others_open = any(
            not taken[t] and peer[t] != w
            for t in range(self._off[u], self._off[u + 1])
        )
        if not others_open:
            new_flag = bool(self._p_set_lease(u, s))
            if new_flag and not self._granted[s]:
                self.trace.emit(0.0, "lease_granted", u, grantee=w)
            self._granted[s] = new_flag
        self._send_response(s, self._subval(u, s), self._granted[s], self._wlog(u))

    def _forwardupdates(self, u: int, s_except: int, uid: int) -> None:
        wlog = self._wlog(u)
        granted = self._granted
        for t in range(self._off[u], self._off[u + 1]):
            if granted[t] and t != s_except:
                self._send_update(t, self._subval(u, t), uid, wlog)

    def _forwardrelease(self, u: int) -> None:
        taken = self._taken
        for t in range(self._off[u], self._off[u + 1]):
            if taken[t] and self._isgood(u, t) and self._p_break_lease(u, t):
                taken[t] = False
                self.trace.emit(0.0, "lease_released", u, source=self._peer[t])
                self._send_release(t, frozenset(self._uaw[t]))
                self._uaw[t].clear()

    def _onrelease(self, u: int, s_w: int, S: frozenset) -> None:
        min_id = min(S) if S else None
        taken = self._taken
        uaw = self._uaw
        for t in range(self._off[u], self._off[u + 1]):
            if not taken[t] or t == s_w:
                continue
            beta = None if min_id is None else window_beta(
                self._win_nid[t], self._win_uid[t], min_id
            )
            if beta is not None:
                uaw[t] = {x for x in uaw[t] if x >= beta}
            else:
                uaw[t] = set()
            if self._isgood(u, t):
                self._p_release_policy(u, t)
        self._forwardrelease(u)

    # ------------------------------------------------------ slow transitions
    def _recv_probe(self, s: int) -> None:
        u = self._owner[s]
        w = self._peer[s]
        self._p_probe_rcvd(u, s)
        taken = self._taken
        lo = self._off[u]
        hi = self._off[u + 1]
        for t in range(lo, hi):
            if taken[t] and t != s:
                self._uaw[t].clear()
        if w not in self._pndg[u]:
            peer = self._peer
            rest = {
                peer[t] for t in range(lo, hi) if not taken[t] and peer[t] != w
            }
            if not rest:
                self._sendresponse(u, s)
            else:
                self._sendprobes(u, w)
                self._snt[u][w] = rest

    def _recv_response(self, s: int, x: Any, flag: bool, wlog: Any) -> None:
        u = self._owner[s]
        w = self._peer[s]
        self._p_response_rcvd(u, s, flag)
        self._aval[s] = x
        g = self._ghost[u]
        if g is not None and wlog is not None:
            g.merge(wlog)
        if flag and not self._taken[s]:
            self.trace.emit(0.0, "lease_acquired", u, source=w)
        self._taken[s] = flag
        scoped = self._scoped_waiters[u].pop(w, None)
        if scoped:
            self._finish_scoped(u, scoped, s)
        pndg = self._pndg[u]
        snt = self._snt[u]
        for v in sorted(pndg):
            targets = snt.get(v)
            if targets is None:
                continue
            targets.discard(w)
            if not targets:
                pndg.discard(v)
                del snt[v]
                if v == u:
                    waiters = self._waiters[u]
                    self._waiters[u] = []
                    self._finish_combine(u, waiters)
                else:
                    self._sendresponse(u, self._slot_index[(u, v)])

    def _recv_update(self, s: int, x: Any, uid: int, wlog: Any) -> None:
        u = self._owner[s]
        self._p_update_rcvd(u, s)
        self._aval[s] = x
        g = self._ghost[u]
        if g is not None and wlog is not None:
            g.merge(wlog)
        self._uaw[s].add(uid)
        granted = self._granted
        has_other = False
        for t in range(self._off[u], self._off[u + 1]):
            if granted[t] and t != s:
                has_other = True
                break
        if has_other:
            self._upcntr[u] += 1
            nid = self._upcntr[u]
            nids = self._win_nid[s]
            nids.append(nid)
            self._win_uid[s].append(uid)
            if len(nids) >= self._win_cap[s]:
                self._win_cap[s] = ledger.compact(nids, self._win_uid[s], self._uaw[s])
            self._forwardupdates(u, s, nid)
        else:
            self._forwardrelease(u)

    def _recv_release(self, s: int, S: frozenset) -> None:
        u = self._owner[s]
        if self._granted[s]:
            self.trace.emit(0.0, "lease_broken", u, grantee=self._peer[s])
        self._granted[s] = False
        self._onrelease(u, s, S)

    def _recv_revoke(self, s: int) -> None:
        u = self._owner[s]
        w = self._peer[s]
        if self._taken[s]:
            self.trace.emit(0.0, "lease_voided", u, source=w)
        self._taken[s] = False
        self._uaw[s].clear()
        granted = self._granted
        for t in range(self._off[u], self._off[u + 1]):
            if granted[t] and t != s:
                granted[t] = False
                self.trace.emit(0.0, "lease_revoked", u, grantee=self._peer[t])
                self._send_revoke(t)
        # Renormalize (see LeaseNode._renormalize_after_revoke).
        taken = self._taken
        for t in range(self._off[u], self._off[u + 1]):
            if taken[t] and self._isgood(u, t) and self._uaw[t]:
                self._p_release_policy(u, t)
        self._forwardrelease(u)
        stuck = any(w in targets for targets in self._snt[u].values()) or bool(
            self._scoped_waiters[u].get(w)
        )
        if stuck:
            self._send_probe(s)

    # -------------------------------------------------------------- delivery
    def _deliver(self, m: Any) -> None:
        """Decode one interned message, emit ``recv``, run its transition."""
        if type(m) is int:
            k = m & 7
            s = m >> 3
            self.trace.emit(
                0.0, "recv", self._owner[s], src=self._peer[s], msg=KIND_NAMES[k]
            )
            if k == K_PROBE:
                self._recv_probe(s)
            else:
                self._recv_revoke(s)
            return
        k = m[0]
        s = m[1]
        self.trace.emit(
            0.0, "recv", self._owner[s], src=self._peer[s], msg=KIND_NAMES[k]
        )
        if k == K_RESPONSE:
            self._recv_response(s, m[2], m[3], m[4])
        elif k == K_UPDATE:
            self._recv_update(s, m[2], m[3], m[4])
        else:
            self._recv_release(s, m[2])

    def is_quiescent(self) -> bool:
        return not self._queue

    def drain(self) -> None:
        """Run the wire to quiescence (batched; see module doc)."""
        if not self._queue:
            return
        if not self.trace.enabled and not self._ghost_enabled and not self.crashed:
            self._drain_fast()
        else:
            self._drain_slow()

    def _drain_slow(self) -> None:
        """Reference-faithful drain: full traces, ghost logs, crash holes."""
        queue = self._queue
        delivered = 0
        while queue:
            self._deliver(queue.popleft())
            delivered += 1
            if delivered > MAX_DELIVERIES:
                raise RuntimeError(
                    f"exceeded {MAX_DELIVERIES} deliveries; protocol livelock?"
                )

    def _drain_fast(self) -> None:
        """The hot path: one inlined loop, every array in a local.

        Preconditions (checked by :meth:`drain`): tracing off, ghost logs
        off, no crashed nodes.  Under those, transitions
        cannot emit events and wlogs are always ``None``, so the loop
        below is the exact composition of the slow-path transitions with
        all dead branches removed.  Message accounting goes to local
        pending buffers; ``stats._total`` is corrected once at exit.
        """
        queue = self._queue
        pop = queue.popleft
        push = queue.append
        off = self._off
        peer = self._peer
        owner = self._owner
        rev = self._rev
        sib = self._sib
        slot_index = self._slot_index
        taken = self._taken
        granted = self._granted
        aval = self._aval
        uaw = self._uaw
        lt = self._lt
        cc = self._cc
        pa = self._pa
        pb = self._pb
        val = self._val
        upcntr = self._upcntr
        completed = self._completed
        pndg_l = self._pndg
        snt_l = self._snt
        waiters_l = self._waiters
        scoped_l = self._scoped_waiters
        win_nid = self._win_nid
        win_uid = self._win_uid
        win_cap = self._win_cap
        compact = ledger.compact
        # One call level less than op.combine when op is a plain Monoid.
        combine = getattr(self.op, "combine_fn", None) or self.op.combine
        stats = self.stats
        counts = stats._pending
        stats._unsynced = True
        mode = self._mode
        is_rww = mode == M_RWW
        is_ab = mode == M_AB
        is_never = mode == M_NEVER
        timed = is_rww or is_ab
        nsent = 0
        delivered = 0

        while queue:
            m = pop()
            delivered += 1
            if delivered > MAX_DELIVERIES:
                stats._total += nsent
                raise RuntimeError(
                    f"exceeded {MAX_DELIVERIES} deliveries; protocol livelock?"
                )
            if type(m) is int:
                k = m & 7
                s = m >> 3
                if k == 0:
                    # ---------------------------------------- T3: probe
                    o = sib[s]
                    if o >= 0:
                        # Degree-2 owner: the sibling slot *is* the
                        # "every neighbor but the sender" set.
                        u = owner[s]
                        if is_ab:
                            cc[s] += 1
                        tko = taken[o]
                        if tko:
                            if timed:
                                lt[o] = pb[o]
                                if is_ab:
                                    cc[o] = 0
                            uaw[o].clear()
                        pndg = pndg_l[u]
                        if peer[s] in pndg:
                            continue
                        if tko:
                            # Closed frontier: grant-check + respond.
                            if is_rww:
                                granted[s] = True
                            elif is_ab:
                                if cc[s] >= pa[s]:
                                    cc[s] = 0
                                    granted[s] = True
                                else:
                                    granted[s] = False
                            else:
                                granted[s] = not is_never
                            counts[s * 5 + 1] += 1
                            nsent += 1
                            push(
                                (1, rev[s], combine(val[u], aval[o]),
                                 granted[s], None)
                            )
                        else:
                            pndg.add(peer[s])
                            snt = snt_l[u]
                            po = peer[o]
                            if snt:
                                already = False
                                for tg in snt.values():
                                    if po in tg:
                                        already = True
                                        break
                            else:
                                already = False
                            if not already:
                                counts[o * 5] += 1
                                nsent += 1
                                push(rev[o] << 3)
                            snt[peer[s]] = {po}
                        continue
                    u = owner[s]
                    lo = off[u]
                    hi = off[u + 1]
                    w = peer[s]
                    if is_rww:
                        for t in range(lo, hi):
                            if taken[t] and t != s:
                                lt[t] = pb[t]
                                uaw[t].clear()
                    elif is_ab:
                        cc[s] += 1
                        for t in range(lo, hi):
                            if taken[t] and t != s:
                                lt[t] = pb[t]
                                cc[t] = 0
                                uaw[t].clear()
                    else:
                        for t in range(lo, hi):
                            if taken[t] and t != s:
                                uaw[t].clear()
                    pndg = pndg_l[u]
                    if w in pndg:
                        continue
                    closed = True
                    for t in range(lo, hi):
                        if not taken[t] and t != s:
                            closed = False
                            break
                    if closed:
                        # sendresponse(w): everything else is covered.
                        if is_rww:
                            granted[s] = True
                        elif is_ab:
                            if cc[s] >= pa[s]:
                                cc[s] = 0
                                granted[s] = True
                            else:
                                granted[s] = False
                        else:
                            granted[s] = not is_never
                        x = val[u]
                        for t in range(lo, hi):
                            if t != s:
                                x = combine(x, aval[t])
                        counts[s * 5 + 1] += 1
                        nsent += 1
                        push((1, rev[s], x, granted[s], None))
                    else:
                        # sendprobes(w); snt[w] = the open frontier.
                        pndg.add(w)
                        snt = snt_l[u]
                        if snt:
                            already = set()
                            for tg in snt.values():
                                already |= tg
                        else:
                            already = ()
                        rest = set()
                        for t in range(lo, hi):
                            if not taken[t]:
                                v = peer[t]
                                if v != w:
                                    rest.add(v)
                                    if v not in already:
                                        counts[t * 5] += 1
                                        nsent += 1
                                        push(rev[t] << 3)
                        snt[w] = rest
                else:
                    # Revoke — rare (post-recovery); take the slow
                    # transition (its sends self-account immediately).
                    self._recv_revoke(s)
                continue

            k = m[0]
            s = m[1]
            if k == 2:
                # -------------------------------------------- T5: update
                o = sib[s]
                if o >= 0:
                    # Degree-2 owner: "another grantee" can only be the
                    # sibling slot; its subval is val ⊕ aval[sender].
                    u = owner[s]
                    go = granted[o]
                    if timed and not go:
                        lt[s] -= 1
                    if is_ab:
                        cc[o] = 0
                    aval[s] = m[2]
                    uaw[s].add(m[3])
                    if go:
                        nid = upcntr[u] + 1
                        upcntr[u] = nid
                        nids = win_nid[s]
                        nids.append(nid)
                        win_uid[s].append(m[3])
                        if len(nids) >= win_cap[s]:
                            win_cap[s] = compact(nids, win_uid[s], uaw[s])
                        counts[o * 5 + 2] += 1
                        nsent += 1
                        push((2, rev[o], combine(val[u], aval[s]), nid, None))
                    elif timed:
                        # forwardrelease: break leases whose timer ran
                        # out, in slot order; "good for release" at a
                        # degree-2 node means the *other* slot has no
                        # outstanding grant.
                        t1 = s if s < o else o
                        t2 = s + o - t1
                        if taken[t1] and lt[t1] <= 0 and not granted[t2]:
                            taken[t1] = False
                            counts[t1 * 5 + 3] += 1
                            nsent += 1
                            ut = uaw[t1]
                            push((3, rev[t1], frozenset(ut)))
                            ut.clear()
                        if taken[t2] and lt[t2] <= 0 and not granted[t1]:
                            taken[t2] = False
                            counts[t2 * 5 + 3] += 1
                            nsent += 1
                            ut = uaw[t2]
                            push((3, rev[t2], frozenset(ut)))
                            ut.clear()
                    elif is_never:
                        t1 = s if s < o else o
                        t2 = s + o - t1
                        if taken[t1] and not granted[t2]:
                            taken[t1] = False
                            counts[t1 * 5 + 3] += 1
                            nsent += 1
                            ut = uaw[t1]
                            push((3, rev[t1], frozenset(ut)))
                            ut.clear()
                        if taken[t2] and not granted[t1]:
                            taken[t2] = False
                            counts[t2 * 5 + 3] += 1
                            nsent += 1
                            ut = uaw[t2]
                            push((3, rev[t2], frozenset(ut)))
                            ut.clear()
                    continue
                u = owner[s]
                lo = off[u]
                hi = off[u + 1]
                good = True
                for t in range(lo, hi):
                    if granted[t] and t != s:
                        good = False
                        break
                if timed and good:
                    lt[s] -= 1
                if is_ab:
                    for t in range(lo, hi):
                        if t != s:
                            cc[t] = 0
                aval[s] = m[2]
                uaw[s].add(m[3])
                if not good:
                    # Still a relay: forward to the other grantees.
                    nid = upcntr[u] + 1
                    upcntr[u] = nid
                    nids = win_nid[s]
                    nids.append(nid)
                    win_uid[s].append(m[3])
                    if len(nids) >= win_cap[s]:
                        win_cap[s] = compact(nids, win_uid[s], uaw[s])
                    for t in range(lo, hi):
                        if granted[t] and t != s:
                            x = val[u]
                            for r in range(lo, hi):
                                if r != t:
                                    x = combine(x, aval[r])
                            counts[t * 5 + 2] += 1
                            nsent += 1
                            push((2, rev[t], x, nid, None))
                elif timed:
                    # forwardrelease(u) — leases whose timer ran out.
                    for t in range(lo, hi):
                        if taken[t] and lt[t] <= 0:
                            ok = True
                            for r in range(lo, hi):
                                if granted[r] and r != t:
                                    ok = False
                                    break
                            if ok:
                                taken[t] = False
                                counts[t * 5 + 3] += 1
                                nsent += 1
                                ut = uaw[t]
                                push((3, rev[t], frozenset(ut)))
                                ut.clear()
                elif is_never:
                    for t in range(lo, hi):
                        if taken[t]:
                            ok = True
                            for r in range(lo, hi):
                                if granted[r] and r != t:
                                    ok = False
                                    break
                            if ok:
                                taken[t] = False
                                counts[t * 5 + 3] += 1
                                nsent += 1
                                ut = uaw[t]
                                push((3, rev[t], frozenset(ut)))
                                ut.clear()
            elif k == 1:
                # ------------------------------------------ T4: response
                o = sib[s]
                if o >= 0:
                    # Degree-2 owner: a completed round's respond-toward
                    # slot can only be the sibling.
                    u = owner[s]
                    flag = m[3]
                    if flag and timed:
                        lt[s] = pb[s]
                    aval[s] = m[2]
                    taken[s] = flag
                    w = peer[s]
                    sw = scoped_l[u]
                    if sw:
                        scoped = sw.pop(w, None)
                        if scoped:
                            self._finish_scoped(u, scoped, s)
                    pndg = pndg_l[u]
                    if pndg:
                        snt = snt_l[u]
                        for v in (
                            tuple(pndg) if len(pndg) == 1 else sorted(pndg)
                        ):
                            targets = snt.get(v)
                            if targets is None:
                                continue
                            targets.discard(w)
                            if not targets:
                                pndg.discard(v)
                                del snt[v]
                                if v == u:
                                    waiters = waiters_l[u]
                                    if waiters:
                                        waiters_l[u] = []
                                    t1 = s if s < o else o
                                    t2 = s + o - t1
                                    x = combine(
                                        combine(val[u], aval[t1]), aval[t2]
                                    )
                                    for request, on_complete in waiters:
                                        request.retval = x
                                        request.index = completed[u]
                                        request.completed_at = 0.0
                                        completed[u] += 1
                                        on_complete(request)
                                else:
                                    # v is the sibling's peer; respond on
                                    # slot o (closed iff s is now taken).
                                    if taken[s]:
                                        if is_rww:
                                            granted[o] = True
                                        elif is_ab:
                                            if cc[o] >= pa[o]:
                                                cc[o] = 0
                                                granted[o] = True
                                            else:
                                                granted[o] = False
                                        else:
                                            granted[o] = not is_never
                                    counts[o * 5 + 1] += 1
                                    nsent += 1
                                    push(
                                        (1, rev[o],
                                         combine(val[u], aval[s]),
                                         granted[o], None)
                                    )
                    continue
                u = owner[s]
                lo = off[u]
                hi = off[u + 1]
                flag = m[3]
                if flag and timed:
                    lt[s] = pb[s]
                aval[s] = m[2]
                taken[s] = flag
                w = peer[s]
                sw = scoped_l[u]
                if sw:
                    scoped = sw.pop(w, None)
                    if scoped:
                        self._finish_scoped(u, scoped, s)
                pndg = pndg_l[u]
                if pndg:
                    snt = snt_l[u]
                    for v in sorted(pndg):
                        targets = snt.get(v)
                        if targets is None:
                            continue
                        targets.discard(w)
                        if not targets:
                            pndg.discard(v)
                            del snt[v]
                            if v == u:
                                waiters = waiters_l[u]
                                if waiters:
                                    waiters_l[u] = []
                                x = val[u]
                                for t in range(lo, hi):
                                    x = combine(x, aval[t])
                                for request, on_complete in waiters:
                                    request.retval = x
                                    request.index = completed[u]
                                    request.completed_at = 0.0
                                    completed[u] += 1
                                    on_complete(request)
                            else:
                                ts = slot_index[(u, v)]
                                closed = True
                                for t in range(lo, hi):
                                    if not taken[t] and t != ts:
                                        closed = False
                                        break
                                if closed:
                                    if is_rww:
                                        granted[ts] = True
                                        if timed:
                                            pass
                                    elif is_ab:
                                        if cc[ts] >= pa[ts]:
                                            cc[ts] = 0
                                            granted[ts] = True
                                        else:
                                            granted[ts] = False
                                    else:
                                        granted[ts] = not is_never
                                x = val[u]
                                for t in range(lo, hi):
                                    if t != ts:
                                        x = combine(x, aval[t])
                                counts[ts * 5 + 1] += 1
                                nsent += 1
                                push((1, rev[ts], x, granted[ts], None))
            else:
                # ------------------------------------------- T6: release
                o = sib[s]
                if o >= 0:
                    # Degree-2 owner: the only other slot is the sibling,
                    # and clearing granted[s] makes it good-for-release.
                    u = owner[s]
                    granted[s] = False
                    S = m[2]
                    if taken[o]:
                        beta = (
                            window_beta(win_nid[o], win_uid[o], min(S))
                            if S else None
                        )
                        if beta is not None:
                            uaw[o] = {x for x in uaw[o] if x >= beta}
                        else:
                            uaw[o] = set()
                        if timed:
                            lt[o] -= len(uaw[o])
                    # forwardrelease, in slot order.
                    t1 = s if s < o else o
                    t2 = s + o - t1
                    if timed:
                        if taken[t1] and lt[t1] <= 0 and not granted[t2]:
                            taken[t1] = False
                            counts[t1 * 5 + 3] += 1
                            nsent += 1
                            ut = uaw[t1]
                            push((3, rev[t1], frozenset(ut)))
                            ut.clear()
                        if taken[t2] and lt[t2] <= 0 and not granted[t1]:
                            taken[t2] = False
                            counts[t2 * 5 + 3] += 1
                            nsent += 1
                            ut = uaw[t2]
                            push((3, rev[t2], frozenset(ut)))
                            ut.clear()
                    elif is_never:
                        if taken[t1] and not granted[t2]:
                            taken[t1] = False
                            counts[t1 * 5 + 3] += 1
                            nsent += 1
                            ut = uaw[t1]
                            push((3, rev[t1], frozenset(ut)))
                            ut.clear()
                        if taken[t2] and not granted[t1]:
                            taken[t2] = False
                            counts[t2 * 5 + 3] += 1
                            nsent += 1
                            ut = uaw[t2]
                            push((3, rev[t2], frozenset(ut)))
                            ut.clear()
                    continue
                u = owner[s]
                lo = off[u]
                hi = off[u + 1]
                granted[s] = False
                S = m[2]
                min_id = min(S) if S else None
                for t in range(lo, hi):
                    if taken[t] and t != s:
                        beta = (
                            window_beta(win_nid[t], win_uid[t], min_id)
                            if min_id is not None else None
                        )
                        if beta is not None:
                            uaw[t] = {x for x in uaw[t] if x >= beta}
                        else:
                            uaw[t] = set()
                        if timed:
                            ok = True
                            for r in range(lo, hi):
                                if granted[r] and r != t:
                                    ok = False
                                    break
                            if ok:
                                lt[t] -= len(uaw[t])
                # forwardrelease(u)
                if timed:
                    for t in range(lo, hi):
                        if taken[t] and lt[t] <= 0:
                            ok = True
                            for r in range(lo, hi):
                                if granted[r] and r != t:
                                    ok = False
                                    break
                            if ok:
                                taken[t] = False
                                counts[t * 5 + 3] += 1
                                nsent += 1
                                ut = uaw[t]
                                push((3, rev[t], frozenset(ut)))
                                ut.clear()
                elif is_never:
                    for t in range(lo, hi):
                        if taken[t]:
                            ok = True
                            for r in range(lo, hi):
                                if granted[r] and r != t:
                                    ok = False
                                    break
                            if ok:
                                taken[t] = False
                                counts[t * 5 + 3] += 1
                                nsent += 1
                                ut = uaw[t]
                                push((3, rev[t], frozenset(ut)))
                                ut.clear()

        stats._total += nsent

    # ------------------------------------------------------- crash recovery
    def add_failure_listener(self, fn: Callable[[List[Request]], None]) -> None:
        """Register a callback receiving the requests a crash killed."""
        self._failure_listeners.append(fn)

    def crash(self, node_id: int, *, emit_trace: bool = True) -> List[Request]:
        """Crash a node: black-hole its traffic, lose its volatile state.

        Mirrors ``NodeRuntime.crash`` + ``SynchronousNetwork.crash_node``
        + ``LeaseNode.crash_volatile``; idempotent.
        """
        if node_id in self.crashed:
            return []
        if emit_trace:
            self.trace.emit(0.0, "node_crash", node_id)
        self.crashed.add(node_id)
        # Queued messages to the node die as declared losses.
        owner = self._owner
        peer = self._peer
        survivors: deque = deque()
        for m in self._queue:
            if type(m) is int:
                s = m >> 3
                kind = KIND_NAMES[m & 7]
            else:
                s = m[1]
                kind = KIND_NAMES[m[0]]
            if owner[s] == node_id:
                self.trace.emit(
                    0.0,
                    "delivery_failed",
                    peer[s],
                    dst=node_id,
                    msg=kind,
                    seq=-1,
                    attempts=0,
                )
            else:
                survivors.append(m)
        self._queue = survivors
        # Volatile state: open rounds and waiters die with the node.
        u = node_id
        failed = [q for q, _ in self._waiters[u]]
        self._waiters[u] = []
        for ws in self._scoped_waiters[u].values():
            failed.extend(q for q, _ in ws)
        self._scoped_waiters[u] = {}
        self._pndg[u].clear()
        self._snt[u].clear()
        if failed:
            for fn in self._failure_listeners:
                fn(failed)
        return failed

    def recover(
        self, node_id: int, *, emit_trace: bool = True, reestablish: bool = True
    ) -> None:
        """Recover a crashed node (mirrors ``LeaseNode.recover_reconcile``)."""
        if node_id not in self.crashed:
            return
        if emit_trace:
            self.trace.emit(0.0, "node_recover", node_id)
        self.crashed.discard(node_id)
        u = node_id
        ident = self.op.identity
        trace = self.trace
        peer = self._peer
        lo = self._off[u]
        hi = self._off[u + 1]
        for t in range(lo, hi):
            v = peer[t]
            if self._taken[t]:
                trace.emit(0.0, "lease_voided", u, source=v)
            if self._granted[t]:
                trace.emit(0.0, "lease_revoked", u, grantee=v)
            self._taken[t] = False
            self._granted[t] = False
            self._aval[t] = ident
            self._uaw[t] = set()
            # Policy detach + attach: fresh per-edge bookkeeping.
            self._lt[t] = 0
            self._cc[t] = 0
            self._send_release(t, frozenset())
            self._send_revoke(t)
        self._ledger(u).clear()
        if reestablish and hi > lo:
            self._sendprobes(u, u)
            self._snt[u][u] = {peer[t] for t in range(lo, hi)}

    def _ledger(self, u: int) -> RelayLedger:
        """Node ``u``'s relay ledger, as a view over the per-slot arrays."""
        return RelayLedger(
            _SlotMap(self, u, self._win_nid),
            _SlotMap(self, u, self._win_uid),
            _SlotMap(self, u, self._win_cap),
            _SlotMap(self, u, self._uaw),
        )

    # ------------------------------------------------------------- topology
    def set_topology(self, *args: Any, **kwargs: Any) -> None:
        raise BackendUnsupported(
            "the flat backend is static-topology; dynamic trees need the "
            "reference backend"
        )

    add_node = remove_node = rename_node = set_topology  # same refusal

    # --------------------------------------------------------- verification
    def state_snapshot(self) -> Tuple[Any, ...]:
        """Bit-identical to ``NodeRuntime.state_snapshot`` (pinned by tests)."""
        snap: Tuple[Any, ...] = (
            tuple(self.nodes[i].state_snapshot() for i in range(self.tree.n)),
            self.network.pending_snapshot(),
        )
        if self.crashed:
            snap += (("crashed", tuple(sorted(self.crashed))),)
        return snap

    def fork(self) -> "FlatRuntime":
        """An independent deep copy (model-checker branching point)."""
        return copy.deepcopy(self)

    def __deepcopy__(self, memo: dict) -> "FlatRuntime":
        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        for k, v in self.__dict__.items():
            if k == "_views":
                # Node views deep-copy into plain dicts by design
                # (checkpoint rendering); the clone rebuilds live views
                # lazily instead.
                setattr(clone, k, None)
            else:
                setattr(clone, k, copy.deepcopy(v, memo))
        return clone

    def check_quiescent_invariants(self) -> None:
        """Assert the paper's quiescent-state lemmas on the current state."""
        _check_invariants(self.tree, self.nodes, self.network)

    def lease_graph_edges(self) -> List[tuple]:
        """Directed edges (u, v) with ``u.granted[v]`` — the lease graph."""
        granted = self._granted
        peer = self._peer
        off = self._off
        return [
            (u, peer[t])
            for u in range(self.tree.n)
            for t in range(off[u], off[u + 1])
            if granted[t]
        ]
