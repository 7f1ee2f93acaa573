"""Live node views over the flat runtime's arrays.

The flat backend has no per-node objects — but everything *around* the
engines (monitors, golden tests, checkpoints, the model checker's
terminal checks) inspects nodes through the ``LeaseNode`` attribute
surface: ``node.taken[v]``, ``node.pndg``, ``vars(node.policy)``,
``node.state_snapshot()``...  This module provides that surface as thin
live views: a :class:`FlatNode` per node id whose per-neighbor tables
are :class:`_SlotMap` mutable mappings backed directly by the runtime's
slot arrays.  Reads and writes go straight through, so
:class:`~repro.recovery.checkpoint.Checkpoint` capture/restore works on
a flat backend unchanged — ``__deepcopy__`` renders a view as the plain
dict the checkpoint digest expects.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterator, List, MutableMapping, Optional, Set, Tuple

from repro.util.canon import canonical_value

__all__ = ["FlatNode", "_FlatPolicyView", "_SlotMap"]


class _SlotMap(MutableMapping):
    """``{neighbor id: value}`` view over one node's span of a slot array.

    Keys are fixed (the node's neighbors); values read and write the
    backing array in place.  Deep copies materialize as a plain dict so
    snapshot/digest consumers see ordinary data.
    """

    __slots__ = ("_rt", "_node", "_array")

    def __init__(self, rt: Any, node: int, array: List[Any]) -> None:
        self._rt = rt
        self._node = node
        self._array = array

    def _slot(self, v: int) -> int:
        s = self._rt._slot_index.get((self._node, v))
        if s is None:
            raise KeyError(v)
        return s

    def __getitem__(self, v: int) -> Any:
        return self._array[self._slot(v)]

    def __setitem__(self, v: int, value: Any) -> None:
        self._array[self._slot(v)] = value

    def __delitem__(self, v: int) -> None:
        raise TypeError("flat per-neighbor tables have a fixed key set")

    def __iter__(self) -> Iterator[int]:
        rt = self._rt
        u = self._node
        return iter(rt._peer[rt._off[u] : rt._off[u + 1]])

    def __len__(self) -> int:
        rt = self._rt
        u = self._node
        return rt._off[u + 1] - rt._off[u]

    def __deepcopy__(self, memo: dict) -> Dict[int, Any]:
        return {v: copy.deepcopy(self[v], memo) for v in self}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(dict(self))


class _FlatPolicyView:
    """``vars()``-compatible stand-in for the node's policy instance.

    Exposes the flattened policy's bookkeeping with the exact attribute
    shape of the original policy class (``lt`` for RWW; ``a``/``b``/
    ``lt``/``cc`` for (a,b); ``params``/``default``/``lt``/``cc`` for the
    heterogeneous variant), so ``vars(node.policy)`` and checkpoint
    policy-state round-trips behave as on the reference backend.
    Assigning a plain dict to ``lt``/``cc`` (checkpoint restore) writes
    through into the arrays; the structural parameters are fixed at
    construction.
    """

    def __init__(self, rt: Any, node: int) -> None:
        spec = rt._specs[node]
        d = self.__dict__
        render = spec.render
        if render == "ab":
            d["a"] = spec.a
            d["b"] = spec.b
        elif render == "het":
            d["params"] = dict(spec.params)
            d["default"] = tuple(spec.default)
        if render in ("rww", "ab", "het"):
            d["lt"] = _SlotMap(rt, node, rt._lt)
        if render in ("ab", "het"):
            d["cc"] = _SlotMap(rt, node, rt._cc)

    def __setattr__(self, name: str, value: Any) -> None:
        current = self.__dict__.get(name)
        if isinstance(current, _SlotMap) and isinstance(value, dict):
            for v, x in value.items():
                if v in current:
                    current[v] = x
            return
        object.__setattr__(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_FlatPolicyView({self.__dict__!r})"


class FlatNode:
    """Read/write view of one node's protocol state in a flat runtime.

    Implements the inspection and initiation surface of
    :class:`~repro.core.mechanism.LeaseNode`; message handling lives in
    the runtime's drain loop, not here.
    """

    def __init__(self, rt: Any, node_id: int) -> None:
        self._rt = rt
        self.id = node_id
        self.taken = _SlotMap(rt, node_id, rt._taken)
        self.granted = _SlotMap(rt, node_id, rt._granted)
        self.aval = _SlotMap(rt, node_id, rt._aval)
        self.uaw = _SlotMap(rt, node_id, rt._uaw)
        self.policy = _FlatPolicyView(rt, node_id)

    # ------------------------------------------------------------ identity
    @property
    def tree(self) -> Any:
        return self._rt.tree

    @property
    def op(self) -> Any:
        return self._rt.op

    @property
    def nbrs(self) -> Tuple[int, ...]:
        rt = self._rt
        u = self.id
        return tuple(rt._peer[rt._off[u] : rt._off[u + 1]])

    # ------------------------------------------------------------ variables
    @property
    def val(self) -> Any:
        return self._rt._val[self.id]

    @val.setter
    def val(self, value: Any) -> None:
        self._rt._val[self.id] = value

    @property
    def pndg(self) -> Set[int]:
        return self._rt._pndg[self.id]

    @property
    def snt(self) -> Dict[int, Set[int]]:
        return self._rt._snt[self.id]

    @property
    def upcntr(self) -> int:
        return self._rt._upcntr[self.id]

    @upcntr.setter
    def upcntr(self, value: int) -> None:
        self._rt._upcntr[self.id] = value

    @property
    def sntupdates(self) -> Any:
        """The node's :class:`~repro.core.ledger.RelayLedger` (a view over
        the runtime's per-slot arrays); assigning a list of triples
        restores it whole."""
        return self._rt._ledger(self.id)

    @sntupdates.setter
    def sntupdates(self, value: Any) -> None:
        self._rt._ledger(self.id).restore(list(value))

    @property
    def completed_requests(self) -> int:
        return self._rt._completed[self.id]

    @completed_requests.setter
    def completed_requests(self, value: int) -> None:
        self._rt._completed[self.id] = value

    @property
    def ghost(self) -> Optional[Any]:
        return self._rt._ghost[self.id]

    @property
    def _waiters(self) -> List[Any]:
        return self._rt._waiters[self.id]

    @property
    def _scoped_waiters(self) -> Dict[int, List[Any]]:
        return self._rt._scoped_waiters[self.id]

    # ------------------------------------------------------------- derived
    def tkn(self) -> List[int]:
        return [v for v in self.nbrs if self.taken[v]]

    def grntd(self) -> List[int]:
        return [v for v in self.nbrs if self.granted[v]]

    def sntprobes(self) -> Set[int]:
        out: Set[int] = set()
        for targets in self.snt.values():
            out |= targets
        return out

    def gval(self) -> Any:
        return self._rt._gval(self.id)

    def subval(self, w: int) -> Any:
        rt = self._rt
        return rt._subval(self.id, rt._slot_index[(self.id, w)])

    def isgoodforrelease(self, w: int) -> bool:
        return not any(self.granted[v] for v in self.nbrs if v != w)

    # ----------------------------------------------------------- initiation
    def write(self, request: Any) -> None:
        self._rt.submit_write(request)

    def begin_combine(self, request: Any, on_complete: Any) -> None:
        self._rt.submit_combine(request, on_complete)

    def begin_scoped_combine(self, request: Any, on_complete: Any) -> None:
        self._rt.submit_combine(request, on_complete)

    # --------------------------------------------------------- verification
    def has_pending(self) -> bool:
        rt = self._rt
        return bool(rt._pndg[self.id]) or bool(rt._waiters[self.id])

    def quiescent_state_ok(self) -> bool:
        return not self.pndg and all(not s for s in self.snt.values())

    def state_snapshot(self) -> Tuple[Any, ...]:
        """Byte-identical to :meth:`LeaseNode.state_snapshot` (pinned by
        tests): same tuple layout, same synthesized policy/ghost state."""
        rt = self._rt
        u = self.id
        nbrs = self.nbrs
        policy_state = canonical_value(
            {
                k: (dict(v) if isinstance(v, _SlotMap) else v)
                for k, v in vars(self.policy).items()
            }
        )
        ghost = rt._ghost[u]
        ghost_state = (
            (
                tuple(canonical_value(q) for q in ghost.log),
                tuple(canonical_value(q) for q in ghost.wlog),
            )
            if ghost is not None
            else None
        )
        return (
            u,
            canonical_value(self.val),
            tuple(sorted((v, self.taken[v]) for v in nbrs)),
            tuple(sorted((v, self.granted[v]) for v in nbrs)),
            tuple(sorted((v, canonical_value(self.aval[v])) for v in nbrs)),
            tuple(sorted((v, tuple(sorted(self.uaw[v]))) for v in nbrs)),
            tuple(sorted(self.pndg)),
            tuple(sorted((r, tuple(sorted(t))) for r, t in self.snt.items())),
            self.upcntr,
            tuple(self.sntupdates),
            self.completed_requests,
            tuple(canonical_value(q) for q, _ in rt._waiters[u]),
            tuple(
                sorted(
                    (v, tuple(canonical_value(q) for q, _ in ws))
                    for v, ws in rt._scoped_waiters[u].items()
                    if ws
                )
            ),
            policy_state,
            ghost_state,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatNode(id={self.id}, val={self.val!r}, "
            f"taken={self.tkn()}, granted={self.grntd()})"
        )
