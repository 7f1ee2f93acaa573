"""Static effect analysis: the protocol reaction graph, extracted from source.

The paper's correctness argument (Lemmas 3.1/3.3, Theorems 1-4) rests on
each node reacting to one received message kind with a *bounded, known* set
of sends and state mutations.  This module pins that reaction graph
statically: a call-graph-, alias- and role-sensitive AST analysis over the
:class:`~repro.core.mechanism.LeaseNode` ``_DISPATCH`` handlers (and their
vectorized twins in :mod:`repro.flat.runtime`) extracts, per received
message kind, the **effect set**

* message kinds sent, tagged with the *neighbor role* of the destination —
  ``"src"`` (statically the neighbor the triggering message came from) or
  ``"other"`` (a computed neighbor target, which may coincide with the
  source at runtime);
* protocol trace events emitted (transport-level ``send``/``recv``/
  ``deliver`` events are excluded — they belong to the transport, not the
  reaction);
* normalized node-state fields read and written (the Figure-1 ``var``
  block plus ``policy``/``ghost``/waiter bookkeeping; the flat backend's
  arrays are mapped back onto the same names, e.g. ``_win_nid`` ->
  ``sntupdates``);
* **unknown effects**: writes that escape the node-local state model
  (shared objects, globals, class attributes).  A handler with unknown
  effects voids the independence argument below.

Three consumers share this one source of truth:

1. **PL50x lint rules** (:func:`check_reaction`, wired into
   :func:`repro.verify.protolint.run_lint`): the extracted sets are
   compared against the declared golden spec in
   :mod:`repro.verify.reaction_spec` and against each other (core vs
   flat), so protocol drift between the backends or against the paper is a
   lint failure rather than a flaky integration test.
2. **Derived POR independence** (:func:`derived_independence`): the model
   checker's claim that two deliveries to distinct nodes commute is
   *derived* here from the extracted footprints — every handler write is
   node-local state, so deliveries at distinct nodes touch disjoint state,
   and per-edge FIFO queues make the enqueue order of their sends
   immaterial.  If extraction finds an unknown (non-node-local) write the
   relation soundly degrades to full dependence.
3. **The reaction-graph artifact** (``python -m repro verify effects
   --json``): the JSON consumed by CI (uploaded as
   ``reaction_graph.json``) and by the DESIGN.md reaction table.

The analysis never imports the code under test — it parses source, so it
runs on deliberately broken fixtures (the seeded-mutant tests) exactly like
:mod:`repro.verify.protolint`.  It is path-insensitive (effects are
unioned over all branches — an over-approximation) but call-graph
sensitive (helper procedures like ``sendresponse`` are traversed with the
caller's neighbor-role bindings) and alias-sensitive (``targets =
self.snt.get(v)`` followed by ``targets.discard(w)`` is a ``snt`` write).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.verify.protolint import Finding, _parse, _rel

__all__ = [
    "EffectSet",
    "ReactionGraph",
    "DerivedIndependence",
    "extract_core_effects",
    "extract_flat_effects",
    "extract_reaction_graph",
    "check_reaction",
    "derived_independence",
    "reaction_graph_json",
    "MESSAGE_KINDS",
    "NODE_STATE_FIELDS",
]

#: Message class name -> wire kind, as declared in ``core/messages.py``.
MESSAGE_KINDS: Dict[str, str] = {
    "Probe": "probe",
    "Response": "response",
    "Update": "update",
    "Release": "release",
    "Revoke": "revoke",
}

#: Normalized node-state field names (the Figure-1 ``var`` block plus the
#: extension bookkeeping).  ``policy`` and ``ghost`` are opaque per-node
#: sub-objects: any policy hook call or ghost mutation is modeled as a
#: read+write / write of the whole sub-object.
NODE_STATE_FIELDS: FrozenSet[str] = frozenset(
    {
        "val",
        "taken",
        "granted",
        "aval",
        "uaw",
        "pndg",
        "snt",
        "upcntr",
        "sntupdates",
        "completed_requests",
        "waiters",
        "scoped_waiters",
        "policy",
        "ghost",
    }
)

#: Destination-role tags (see module docstring).
ROLES = ("src", "other")

#: Trace kinds owned by the transport, not the handler reaction.
_TRANSPORT_EVENT_KINDS = {"send", "recv", "deliver", "delivery_failed"}

#: Container methods that mutate their receiver.
_MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "sort",
    "update",
}

#: ``self.ghost`` methods that mutate the ghost log.
_GHOST_MUTATORS = {"merge", "append_gather", "append_write"}


# --------------------------------------------------------------------- model
@dataclass(frozen=True)
class EffectSet:
    """The static effect set of one message-kind handler."""

    #: sent message kind -> destination roles ("src" / "other").
    sends: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: protocol trace event kinds emitted.
    emits: FrozenSet[str]
    #: normalized node-state fields read.
    reads: FrozenSet[str]
    #: normalized node-state fields written.
    writes: FrozenSet[str]
    #: effects escaping the node-local model (empty for a correct handler).
    unknown: FrozenSet[str] = frozenset()

    @staticmethod
    def make(
        sends: Mapping[str, Iterable[str]],
        emits: Iterable[str],
        reads: Iterable[str],
        writes: Iterable[str],
        unknown: Iterable[str] = (),
    ) -> "EffectSet":
        return EffectSet(
            sends=tuple(
                sorted((k, tuple(sorted(set(v)))) for k, v in sends.items())
            ),
            emits=frozenset(emits),
            reads=frozenset(reads),
            writes=frozenset(writes),
            unknown=frozenset(unknown),
        )

    @property
    def send_map(self) -> Dict[str, FrozenSet[str]]:
        return {k: frozenset(v) for k, v in self.sends}

    def to_dict(self) -> Dict[str, object]:
        return {
            "sends": {k: sorted(v) for k, v in self.sends},
            "emits": sorted(self.emits),
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "unknown": sorted(self.unknown),
        }


@dataclass
class _Effects:
    """Mutable accumulator used during traversal."""

    sends: Dict[str, Set[str]] = field(default_factory=dict)
    emits: Set[str] = field(default_factory=set)
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    unknown: Set[str] = field(default_factory=set)

    def add_send(self, kind: str, role: str) -> None:
        self.sends.setdefault(kind, set()).add(role)

    def freeze(self) -> EffectSet:
        return EffectSet.make(
            self.sends, self.emits, self.reads, self.writes, self.unknown
        )


@dataclass(frozen=True)
class ReactionGraph:
    """Extracted effect sets per implementation, keyed by message kind."""

    core: Dict[str, EffectSet]
    flat: Dict[str, EffectSet]
    core_path: str
    flat_path: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "core": {k: e.to_dict() for k, e in sorted(self.core.items())},
            "flat": {k: e.to_dict() for k, e in sorted(self.flat.items())},
            "core_path": self.core_path,
            "flat_path": self.flat_path,
        }


# ----------------------------------------------------------- class analysis
class _ClassMethods:
    """Method-name -> FunctionDef for one class of a parsed module."""

    def __init__(self, module: ast.Module, class_name: str) -> None:
        self.methods: Dict[str, ast.FunctionDef] = {}
        for node in module.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.methods[item.name] = item


def _self_attr(expr: ast.expr) -> Optional[str]:
    """``self.X`` -> ``"X"`` (descending through subscript chains)."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _base_name(expr: ast.expr) -> Optional[str]:
    """``name[...]...`` -> ``"name"`` (descending through subscripts)."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _ImplConfig:
    """Implementation-specific knobs for the shared traversal."""

    def __init__(
        self,
        *,
        state_map: Dict[str, str],
        read_only: Set[str],
        send_primitives: Dict[str, str],
        policy_attr: Optional[str],
    ) -> None:
        #: raw attribute -> normalized field name.
        self.state_map = state_map
        #: attributes that are legitimately read but must never be written
        #: by a handler (topology, transport seam, telemetry).
        self.read_only = read_only
        #: self-method name treated as a send primitive -> message kind
        #: (empty string = core's generic ``send`` whose kind comes from
        #: the message constructor argument).
        self.send_primitives = send_primitives
        #: attribute whose method calls are policy hooks (core only).
        self.policy_attr = policy_attr


class _MethodWalker:
    """Walks one method body, accumulating effects; recurses into
    same-class helper calls with the caller's neighbor-role bindings."""

    def __init__(self, cls: _ClassMethods, config: _ImplConfig, out: _Effects) -> None:
        self.cls = cls
        self.config = config
        self.out = out

    # -- roles ---------------------------------------------------------
    @staticmethod
    def _role_of(expr: ast.expr, roles: Dict[str, str]) -> str:
        if isinstance(expr, ast.Name):
            return roles.get(expr.id, "other")
        return "other"

    @staticmethod
    def _ctor_kind(expr: ast.expr) -> Optional[str]:
        """Message constructor call -> wire kind (None if unrecognizable)."""
        if isinstance(expr, ast.Call):
            fn = expr.func
            name = None
            if isinstance(fn, ast.Name):
                name = fn.id
            elif isinstance(fn, ast.Attribute):
                name = fn.attr
            if name is not None:
                return MESSAGE_KINDS.get(name, name.lower())
        return None

    # -- fields --------------------------------------------------------
    def _record_read(self, attr: str) -> None:
        norm = self.config.state_map.get(attr)
        if norm is not None:
            self.out.reads.add(norm)

    def _record_write(self, attr: str, line: int) -> None:
        norm = self.config.state_map.get(attr)
        if norm is not None:
            self.out.writes.add(norm)
        elif attr in self.config.read_only:
            self.out.unknown.add(f"write to shared read-only attribute '{attr}'")
        else:
            self.out.unknown.add(f"write to non-state attribute '{attr}'")

    # -- traversal -----------------------------------------------------
    def walk(self, method: str, roles: Dict[str, str], stack: FrozenSet[str]) -> None:
        fn = self.cls.methods.get(method)
        if fn is None or method in stack:
            return
        stack = stack | {method}
        aliases: Dict[str, str] = {}
        locals_seen: Set[str] = {
            a.arg for a in fn.args.args + fn.args.kwonlyargs
        }
        globals_declared: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                globals_declared.update(node.names)
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.target
                for t in ast.walk(target):
                    if isinstance(t, ast.Name):
                        locals_seen.add(t.id)
            elif isinstance(node, ast.Assign):
                self._handle_assign_targets(
                    node.targets, node.value, aliases, locals_seen, globals_declared
                )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._handle_assign_targets(
                    [node.target], node.value, aliases, locals_seen, globals_declared
                )
            elif isinstance(node, ast.AugAssign):
                self._handle_store_target(
                    node.target, aliases, locals_seen, globals_declared
                )
                attr = _self_attr(node.target)
                if attr is not None:
                    self._record_read(attr)
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    self._handle_store_target(
                        t, aliases, locals_seen, globals_declared
                    )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    self._record_read(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in aliases:
                    self.out.reads.add(aliases[node.id])
            elif isinstance(node, ast.Call):
                self._handle_call(node, roles, aliases, stack)

    def _handle_assign_targets(
        self,
        targets: List[ast.expr],
        value: ast.expr,
        aliases: Dict[str, str],
        locals_seen: Set[str],
        globals_declared: Set[str],
    ) -> None:
        # Pairwise-match tuple targets to tuple values so swap idioms like
        # ``waiters, self._waiters = self._waiters, []`` resolve per-slot.
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Tuple)
            and isinstance(value, ast.Tuple)
            and len(targets[0].elts) == len(value.elts)
        ):
            for t, v in zip(targets[0].elts, value.elts):
                self._handle_assign_targets(
                    [t], v, aliases, locals_seen, globals_declared
                )
            return
        for target in targets:
            if isinstance(target, ast.Name):
                locals_seen.add(target.id)
                if target.id in globals_declared:
                    self.out.unknown.add(
                        f"write to module global '{target.id}'"
                    )
                    continue
                alias = self._alias_of(value, aliases)
                if alias is not None:
                    aliases[target.id] = alias
                else:
                    aliases.pop(target.id, None)
            else:
                self._handle_store_target(
                    target, aliases, locals_seen, globals_declared
                )

    def _alias_of(self, value: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
        """Normalized field a local is an alias of, if any: ``self.X``,
        ``self.X[...]``, ``self.X.get(...)``/``.pop(...)``, or another alias."""
        expr = value
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            expr = expr.func.value
        attr = _self_attr(expr)
        if attr is not None:
            return self.config.state_map.get(attr)
        base = _base_name(expr)
        if base is not None:
            return aliases.get(base)
        return None

    def _handle_store_target(
        self,
        target: ast.expr,
        aliases: Dict[str, str],
        locals_seen: Set[str],
        globals_declared: Set[str],
    ) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._record_write(attr, target.lineno)
            return
        base = _base_name(target)
        if base is None:
            return
        if isinstance(target, ast.Name):
            return  # plain local rebind, handled by _handle_assign_targets
        # Subscript store through a local: an alias of node state writes the
        # state; a plain local container is fine; an attribute store on a
        # name that was never bound locally targets shared module/class
        # state and breaks node locality.
        if base in aliases:
            self.out.writes.add(aliases[base])
        elif base not in locals_seen and base != "self":
            self.out.unknown.add(f"write through non-local name '{base}'")

    def _handle_call(
        self,
        node: ast.Call,
        roles: Dict[str, str],
        aliases: Dict[str, str],
        stack: FrozenSet[str],
    ) -> None:
        fn = node.func
        # trace.emit(clock, "kind", node, ...) — any receiver (self.trace
        # or a local alias), same heuristic as protolint.
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr == "emit"
            and len(node.args) >= 3
        ):
            kind_arg = node.args[1]
            if isinstance(kind_arg, ast.Constant) and isinstance(kind_arg.value, str):
                if kind_arg.value not in _TRANSPORT_EVENT_KINDS:
                    self.out.emits.add(kind_arg.value)
            return
        if not isinstance(fn, ast.Attribute):
            return
        # self.<method>(...) — send primitive, helper recursion.
        if isinstance(fn.value, ast.Name) and fn.value.id == "self":
            name = fn.attr
            if name in self.config.send_primitives:
                kind = self.config.send_primitives[name]
                if kind == "":  # core generic send(dst, Message(...))
                    if len(node.args) >= 2:
                        ctor = self._ctor_kind(node.args[1])
                        role = self._role_of(node.args[0], roles)
                        self.out.add_send(
                            ctor if ctor is not None else "?", role
                        )
                    else:
                        self.out.unknown.add("unanalyzable send call")
                else:
                    role = (
                        self._role_of(node.args[0], roles)
                        if node.args
                        else "other"
                    )
                    self.out.add_send(kind, role)
                return
            if name in self.cls.methods:
                callee = self.cls.methods[name]
                formals = [a.arg for a in callee.args.args if a.arg != "self"]
                callee_roles: Dict[str, str] = {}
                for formal, actual in zip(formals, node.args):
                    callee_roles[formal] = self._role_of(actual, roles)
                self.walk(name, callee_roles, stack)
                return
            return
        # self.policy.<hook>(...): opaque read+write of the policy object.
        if (
            self.config.policy_attr is not None
            and isinstance(fn.value, ast.Attribute)
            and isinstance(fn.value.value, ast.Name)
            and fn.value.value.id == "self"
            and fn.value.attr == self.config.policy_attr
        ):
            self.out.reads.add("policy")
            self.out.writes.add("policy")
            return
        # Mutating container-method calls: self.X.add(...), self.X[...]
        # .clear(), alias.discard(...), self.ghost.merge(...).
        if fn.attr in _MUTATORS or fn.attr in _GHOST_MUTATORS:
            attr = _self_attr(fn.value)
            if attr is not None:
                self._record_write(attr, node.lineno)
                return
            base = _base_name(fn.value)
            if base is not None and base in aliases:
                self.out.writes.add(aliases[base])
            return


# -------------------------------------------------------------- core extract
_CORE_STATE_MAP: Dict[str, str] = {
    "val": "val",
    "taken": "taken",
    "granted": "granted",
    "aval": "aval",
    "uaw": "uaw",
    "pndg": "pndg",
    "snt": "snt",
    "upcntr": "upcntr",
    "sntupdates": "sntupdates",
    "completed_requests": "completed_requests",
    "_waiters": "waiters",
    "_scoped_waiters": "scoped_waiters",
    "policy": "policy",
    "ghost": "ghost",
}

_CORE_READ_ONLY: Set[str] = {
    "id",
    "tree",
    "op",
    "nbrs",
    "trace",
    "_clock",
    "_send",
    "_send_to",
    "_DISPATCH",
}


def _dispatch_handlers(module: ast.Module) -> Dict[str, Tuple[str, int]]:
    """kind -> (handler method name, line) from the ``_DISPATCH.update``
    block (and any literal ``_DISPATCH = {...}`` assignment)."""
    out: Dict[str, Tuple[str, int]] = {}

    def scan_dict(d: ast.expr) -> None:
        if not isinstance(d, ast.Dict):
            return
        for k, v in zip(d.keys, d.values):
            cls_name = None
            if isinstance(k, ast.Name):
                cls_name = k.id
            elif isinstance(k, ast.Attribute):
                cls_name = k.attr
            if cls_name is None:
                continue
            kind = MESSAGE_KINDS.get(cls_name)
            if kind is None:
                continue
            if isinstance(v, ast.Attribute):
                out[kind] = (v.attr, v.lineno)
            elif isinstance(v, ast.Name):
                out[kind] = (v.id, v.lineno)

    for node in ast.walk(module):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "_DISPATCH"
            and node.args
        ):
            scan_dict(node.args[0])
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                name = t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
                if name == "_DISPATCH" and node.value is not None:
                    scan_dict(node.value)
    return out


def extract_core_effects(mechanism_py: Path) -> Dict[str, EffectSet]:
    """Effect set per received kind for the reference ``LeaseNode``."""
    module = ast.parse(mechanism_py.read_text(encoding="utf-8"))
    cls = _ClassMethods(module, "LeaseNode")
    config = _ImplConfig(
        state_map=_CORE_STATE_MAP,
        read_only=_CORE_READ_ONLY,
        send_primitives={"send": ""},
        policy_attr="policy",
    )
    handlers = _dispatch_handlers(module)
    out: Dict[str, EffectSet] = {}
    for kind, (method, _line) in sorted(handlers.items()):
        effects = _Effects()
        walker = _MethodWalker(cls, config, effects)
        fn = cls.methods.get(method)
        if fn is None:
            effects.unknown.add(f"dispatch handler '{method}' not found")
        else:
            formals = [a.arg for a in fn.args.args if a.arg != "self"]
            roles = {formals[0]: "src"} if formals else {}
            walker.walk(method, roles, frozenset())
        out[kind] = effects.freeze()
    return out


# -------------------------------------------------------------- flat extract
_FLAT_STATE_MAP: Dict[str, str] = {
    "_val": "val",
    "_taken": "taken",
    "_granted": "granted",
    "_aval": "aval",
    "_uaw": "uaw",
    "_pndg": "pndg",
    "_snt": "snt",
    "_upcntr": "upcntr",
    # The relay ledger's per-slot lists and compaction limits
    # (repro.core.ledger) are all the one Figure-1 variable.
    "_win_nid": "sntupdates",
    "_win_uid": "sntupdates",
    "_win_cap": "sntupdates",
    "_completed": "completed_requests",
    "_waiters": "waiters",
    "_scoped_waiters": "scoped_waiters",
    "_lt": "policy",
    "_cc": "policy",
    "_pa": "policy",
    "_pb": "policy",
    "_mode": "policy",
    "_ghost": "ghost",
}

_FLAT_READ_ONLY: Set[str] = {
    "tree",
    "op",
    "trace",
    "stats",
    "_off",
    "_peer",
    "_owner",
    "_rev",
    "_sib",
    "_slot_index",
    "_queue",
    "crashed",
    "_specs",
    "metrics",
}

_FLAT_SEND_PRIMITIVES: Dict[str, str] = {
    "_send_probe": "probe",
    "_send_response": "response",
    "_send_update": "update",
    "_send_release": "release",
    "_send_revoke": "revoke",
}


def extract_flat_effects(runtime_py: Path) -> Dict[str, EffectSet]:
    """Effect set per received kind for the vectorized ``FlatRuntime``
    (``_recv_<kind>`` twins), normalized onto the core field names."""
    module = ast.parse(runtime_py.read_text(encoding="utf-8"))
    cls = _ClassMethods(module, "FlatRuntime")
    config = _ImplConfig(
        state_map=_FLAT_STATE_MAP,
        read_only=_FLAT_READ_ONLY,
        send_primitives=_FLAT_SEND_PRIMITIVES,
        policy_attr=None,
    )
    out: Dict[str, EffectSet] = {}
    for kind in sorted(MESSAGE_KINDS.values()):
        method = f"_recv_{kind}"
        effects = _Effects()
        fn = cls.methods.get(method)
        if fn is None:
            effects.unknown.add(f"flat handler '{method}' not found")
        else:
            walker = _MethodWalker(cls, config, effects)
            formals = [a.arg for a in fn.args.args if a.arg != "self"]
            roles = {formals[0]: "src"} if formals else {}
            walker.walk(method, roles, frozenset())
        out[kind] = effects.freeze()
    return out


# ------------------------------------------------------------------ assembly
def _default_paths(package_root: Optional[Path]) -> Tuple[Path, Path, Path]:
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
    package_root = Path(package_root)
    return (
        package_root / "core" / "mechanism.py",
        package_root / "flat" / "runtime.py",
        package_root / "net" / "codec.py",
    )


def extract_reaction_graph(package_root: Optional[Path] = None) -> ReactionGraph:
    """Extract both implementations' reaction graphs from source."""
    mechanism_py, runtime_py, _codec_py = _default_paths(package_root)
    return ReactionGraph(
        core=extract_core_effects(mechanism_py),
        flat=extract_flat_effects(runtime_py),
        core_path=str(mechanism_py),
        flat_path=str(runtime_py),
    )


# ----------------------------------------------------------- PL50x checking
def _spec_module() -> Dict[str, EffectSet]:
    from repro.verify.reaction_spec import REACTION_SPEC

    return REACTION_SPEC


def _diff_effects(
    kind: str,
    impl_name: str,
    impl: EffectSet,
    spec: EffectSet,
    path: str,
    line: int,
    findings: List[Finding],
) -> None:
    """PL501 (spec effect missing from impl) / PL502 (undeclared effect)."""
    impl_sends = impl.send_map
    spec_sends = spec.send_map
    for skind, roles in sorted(spec_sends.items()):
        missing = roles - impl_sends.get(skind, frozenset())
        for role in sorted(missing):
            findings.append(
                Finding(
                    code="PL501",
                    path=path,
                    line=line,
                    message=(
                        f"{impl_name} handler for {kind!r} drops the declared "
                        f"send of {skind!r} to role {role!r}"
                    ),
                    hint=(
                        "the reaction spec declares this send; restore it or "
                        "update verify/reaction_spec.py with a rationale"
                    ),
                )
            )
    for skind, roles in sorted(impl_sends.items()):
        extra = roles - spec_sends.get(skind, frozenset())
        for role in sorted(extra):
            findings.append(
                Finding(
                    code="PL502",
                    path=path,
                    line=line,
                    message=(
                        f"{impl_name} handler for {kind!r} sends {skind!r} to "
                        f"role {role!r}, not declared by the reaction spec"
                    ),
                    hint="declare the send in verify/reaction_spec.py or remove it",
                )
            )
    for label, got, want in (
        ("emit", impl.emits, spec.emits),
        ("read of", impl.reads, spec.reads),
        ("write of", impl.writes, spec.writes),
    ):
        for item in sorted(want - got):
            findings.append(
                Finding(
                    code="PL501",
                    path=path,
                    line=line,
                    message=(
                        f"{impl_name} handler for {kind!r} lost the declared "
                        f"{label} {item!r}"
                    ),
                    hint=(
                        "the reaction spec declares this effect; restore it or "
                        "update verify/reaction_spec.py with a rationale"
                    ),
                )
            )
        for item in sorted(got - want):
            findings.append(
                Finding(
                    code="PL502",
                    path=path,
                    line=line,
                    message=(
                        f"{impl_name} handler for {kind!r} has undeclared "
                        f"{label} {item!r}"
                    ),
                    hint="declare the effect in verify/reaction_spec.py or remove it",
                )
            )
    for item in sorted(impl.unknown):
        findings.append(
            Finding(
                code="PL502",
                path=path,
                line=line,
                message=(
                    f"{impl_name} handler for {kind!r} has a non-node-local "
                    f"effect: {item}"
                ),
                hint=(
                    "handlers may only mutate their own node's state; shared "
                    "writes void the POR independence argument"
                ),
            )
        )


def check_reaction(
    package_root: Optional[Path] = None,
    project_root: Optional[Path] = None,
    spec: Optional[Dict[str, EffectSet]] = None,
) -> List[Finding]:
    """Run the PL50x rules; empty list when the reaction graph is clean.

    PL501  declared effect missing from an implementation (dropped send /
           emit / state access)
    PL502  implementation effect not declared by the spec (protocol drift,
           or a non-node-local write)
    PL503  spec names a state field / kind that does not exist (stale spec)
    PL504  core and flat handler effect sets disagree
    PL505  the reaction graph sends a kind with no wire-codec entry
    """
    mechanism_py, runtime_py, codec_py = _default_paths(package_root)
    findings: List[Finding] = []
    if not mechanism_py.is_file() or not runtime_py.is_file():
        return findings  # fixture tree without both impls: nothing to pin
    parse_guard: List[Finding] = []
    if (
        _parse(mechanism_py, _rel(mechanism_py, project_root), parse_guard) is None
        or _parse(runtime_py, _rel(runtime_py, project_root), parse_guard) is None
    ):
        return parse_guard
    if spec is None:
        spec = _spec_module()
    core = extract_core_effects(mechanism_py)
    flat = extract_flat_effects(runtime_py)
    core_rel = _rel(mechanism_py, project_root)
    flat_rel = _rel(runtime_py, project_root)
    spec_rel = "src/repro/verify/reaction_spec.py"

    # PL503: stale spec entries.
    for kind, eff in sorted(spec.items()):
        if kind not in MESSAGE_KINDS.values():
            findings.append(
                Finding(
                    code="PL503",
                    path=spec_rel,
                    line=1,
                    message=f"reaction spec declares unknown message kind {kind!r}",
                    hint="spec kinds must match core/messages.py kinds",
                )
            )
            continue
        for fieldname in sorted((eff.reads | eff.writes) - NODE_STATE_FIELDS):
            findings.append(
                Finding(
                    code="PL503",
                    path=spec_rel,
                    line=1,
                    message=(
                        f"reaction spec for {kind!r} names stale state field "
                        f"{fieldname!r}"
                    ),
                    hint=(
                        "valid fields are the normalized LeaseNode state set: "
                        + ", ".join(sorted(NODE_STATE_FIELDS))
                    ),
                )
            )
        for skind, roles in eff.sends:
            if skind not in MESSAGE_KINDS.values():
                findings.append(
                    Finding(
                        code="PL503",
                        path=spec_rel,
                        line=1,
                        message=(
                            f"reaction spec for {kind!r} declares a send of "
                            f"unknown kind {skind!r}"
                        ),
                        hint="spec send kinds must match core/messages.py kinds",
                    )
                )
            for role in roles:
                if role not in ROLES:
                    findings.append(
                        Finding(
                            code="PL503",
                            path=spec_rel,
                            line=1,
                            message=(
                                f"reaction spec for {kind!r} uses unknown "
                                f"role {role!r}"
                            ),
                            hint=f"roles are {ROLES}",
                        )
                    )
    for kind in sorted(set(core) | set(flat)):
        if kind not in spec:
            findings.append(
                Finding(
                    code="PL503",
                    path=spec_rel,
                    line=1,
                    message=(
                        f"handler for message kind {kind!r} exists but the "
                        "reaction spec has no entry for it"
                    ),
                    hint="add the kind to verify/reaction_spec.py",
                )
            )

    # PL501/PL502 against the spec, per implementation.
    for kind, eff in sorted(spec.items()):
        if kind in core:
            _diff_effects(kind, "core", core[kind], eff, core_rel, 1, findings)
        if kind in flat:
            _diff_effects(kind, "flat", flat[kind], eff, flat_rel, 1, findings)

    # PL504: core <-> flat drift, independent of the spec.
    for kind in sorted(set(core) & set(flat)):
        c, f = core[kind], flat[kind]
        deltas: List[str] = []
        if c.send_map != f.send_map:
            deltas.append(f"sends core={c.to_dict()['sends']} flat={f.to_dict()['sends']}")
        if c.emits != f.emits:
            deltas.append(f"emits core={sorted(c.emits)} flat={sorted(f.emits)}")
        if c.writes != f.writes:
            deltas.append(f"writes core={sorted(c.writes)} flat={sorted(f.writes)}")
        if c.reads != f.reads:
            deltas.append(f"reads core={sorted(c.reads)} flat={sorted(f.reads)}")
        if deltas:
            findings.append(
                Finding(
                    code="PL504",
                    path=flat_rel,
                    line=1,
                    message=(
                        f"core and flat handlers for {kind!r} diverge: "
                        + "; ".join(deltas)
                    ),
                    hint=(
                        "the flat backend must be effect-equivalent to the "
                        "reference automaton (DESIGN.md decision 13)"
                    ),
                )
            )

    # PL505: every kind the reaction graph sends must have a wire codec.
    if codec_py.is_file():
        codec_findings: List[Finding] = []
        codec_mod = _parse(codec_py, _rel(codec_py, project_root), codec_findings)
        if codec_mod is not None:
            from repro.verify.protolint import _codec_registered_names

            registered = _codec_registered_names(codec_mod)
            if registered is not None:
                kinds_by_class = {v: k for k, v in MESSAGE_KINDS.items()}
                wired = {
                    MESSAGE_KINDS[name]
                    for name in registered
                    if name in MESSAGE_KINDS
                }
                sent = {
                    skind
                    for eff in list(core.values()) + list(flat.values())
                    for skind, _roles in eff.sends
                }
                for skind in sorted(sent - wired):
                    cls_name = kinds_by_class.get(skind, skind)
                    findings.append(
                        Finding(
                            code="PL505",
                            path=_rel(codec_py, project_root),
                            line=1,
                            message=(
                                f"reaction graph sends {skind!r} but "
                                f"{cls_name} has no wire-codec entry"
                            ),
                            hint=(
                                "add an encode/decode pair to _ENCODERS / "
                                "_DECODERS in net/codec.py"
                            ),
                        )
                    )
    return findings


# ------------------------------------------------- derived POR independence
@dataclass(frozen=True)
class DerivedIndependence:
    """The POR independence relation derived from static footprints.

    Soundness argument (DESIGN.md decision 13): every handler effect is
    node-local state (``node_local``), and sends enqueue onto per-directed-
    edge FIFO queues whose relative order across distinct edges is not part
    of the network model.  Hence two message *deliveries at distinct
    destination nodes* read/write disjoint state and commute; everything
    else (same destination; request initiations, which flip the schedule's
    serial flag) is conservatively dependent.  If any handler has an
    unknown (non-node-local) effect the premise fails and the relation
    degrades to full dependence — sound, merely slower.
    """

    node_local: bool
    unknown_effects: Tuple[str, ...] = ()

    def independent(self, a: Tuple[object, ...], b: Tuple[object, ...]) -> bool:
        if not self.node_local:
            return False
        return a[0] == "deliver" and b[0] == "deliver" and a[2] != b[2]

    def to_dict(self) -> Dict[str, object]:
        return {
            "relation": "deliveries-at-distinct-nodes-commute",
            "node_local": self.node_local,
            "unknown_effects": list(self.unknown_effects),
        }


def _derive(graph: ReactionGraph) -> DerivedIndependence:
    unknown: List[str] = []
    for impl_name, table in (("core", graph.core), ("flat", graph.flat)):
        for kind, eff in sorted(table.items()):
            for item in sorted(eff.unknown):
                unknown.append(f"{impl_name}/{kind}: {item}")
            stray = (eff.reads | eff.writes) - NODE_STATE_FIELDS
            for item in sorted(stray):
                unknown.append(f"{impl_name}/{kind}: non-state field {item!r}")
    return DerivedIndependence(
        node_local=not unknown, unknown_effects=tuple(unknown)
    )


def derive_independence(graph: ReactionGraph) -> DerivedIndependence:
    """Derive the independence relation from an extracted reaction graph."""
    return _derive(graph)


@lru_cache(maxsize=1)
def derived_independence() -> DerivedIndependence:
    """The relation derived from the installed sources (cached: the source
    cannot change under a running process)."""
    return _derive(extract_reaction_graph())


# ------------------------------------------------------------------ artifact
def reaction_graph_json(package_root: Optional[Path] = None) -> str:
    """The full reaction-graph artifact: extracted effect sets, the golden
    spec, the derived independence relation, and any PL50x findings."""
    graph = extract_reaction_graph(package_root)
    spec = _spec_module()
    findings = check_reaction(package_root)
    payload = {
        "graph": graph.to_dict(),
        "spec": {k: e.to_dict() for k, e in sorted(spec.items())},
        "independence": _derive(graph).to_dict(),
        "findings": [f.to_dict() for f in findings],
        "ok": not findings,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
