"""The execution-backend seam: factory contracts, refusals, and the
flat backend's integration with the layers around the engines.

Complements ``test_flat_equivalence.py`` (which pins observational
equivalence on golden workloads): here we test the *seam itself* —
:func:`~repro.core.backend.build_backend` selection and refusal rules,
the dynamic engine's refusal of the flat backend, checkpoint round-trips
through the flat node views, and the model checker exploring the flat
backend.
"""

from __future__ import annotations

import pytest

from repro.core.backend import BACKENDS, Backend, BackendUnsupported, build_backend
from repro.core.dynamic import DynamicAggregationSystem
from repro.core.engine import AggregationSystem, ConcurrentAggregationSystem
from repro.core.mechanism import LeaseNode
from repro.core.policies import ABPolicy, RWWPolicy
from repro.core.randomized import RandomBreakPolicy
from repro.core.runtime import NodeRuntime
from repro.flat.runtime import FlatRuntime
from repro.ops.standard import SUM
from repro.recovery.checkpoint import Checkpoint
from repro.sim.transport import TransportConfig
from repro.tree.generators import path_tree, star_tree
from repro.verify.explore import Explorer, parse_script
from repro.workloads.requests import copy_sequence
from repro.workloads.synthetic import uniform_workload


class TestFactory:
    def test_backend_names(self):
        assert BACKENDS == ("reference", "flat")
        with pytest.raises(ValueError, match="unknown backend"):
            build_backend("turbo", path_tree(3), op=SUM, policy_factory=RWWPolicy)

    def test_builds_each_backend(self):
        ref = build_backend("reference", path_tree(3), op=SUM, policy_factory=RWWPolicy)
        flat = build_backend("flat", path_tree(3), op=SUM, policy_factory=RWWPolicy)
        assert isinstance(ref, NodeRuntime) and ref.backend_name == "reference"
        assert isinstance(flat, FlatRuntime) and flat.backend_name == "flat"
        assert isinstance(ref, Backend) and isinstance(flat, Backend)

    def test_flat_rejects_simulated_transport(self):
        with pytest.raises(BackendUnsupported, match="synchronous"):
            build_backend(
                "flat",
                path_tree(3),
                op=SUM,
                policy_factory=RWWPolicy,
                transport=TransportConfig.simulated(),
            )

    def test_flat_rejects_unflattenable_policy(self):
        with pytest.raises(BackendUnsupported, match="does not flatten"):
            build_backend(
                "flat",
                path_tree(3),
                op=SUM,
                policy_factory=lambda: RandomBreakPolicy(0.5, seed=1),
            )

    def test_flat_rejects_custom_node_class(self):
        class Instrumented(LeaseNode):
            pass

        with pytest.raises(BackendUnsupported, match="node objects"):
            build_backend(
                "flat",
                path_tree(3),
                op=SUM,
                policy_factory=RWWPolicy,
                node_cls=Instrumented,
            )

    def test_flat_rejects_required_dynamic(self):
        with pytest.raises(BackendUnsupported, match="dynamic"):
            build_backend(
                "flat",
                path_tree(3),
                op=SUM,
                policy_factory=RWWPolicy,
                require={"dynamic"},
            )

    def test_flat_subclassed_builtin_policy_rejected(self):
        # type(...) is exact on purpose: a subclass might override a hook.
        class Tweaked(ABPolicy):
            pass

        with pytest.raises(BackendUnsupported):
            build_backend(
                "flat", path_tree(3), op=SUM, policy_factory=lambda: Tweaked(1, 2)
            )


class TestEngineSelection:
    def test_concurrent_engine_rejects_flat(self):
        with pytest.raises(BackendUnsupported):
            ConcurrentAggregationSystem(path_tree(4), backend="flat")

    def test_dynamic_engine_rejects_flat(self):
        """Attach/detach/rename need per-node objects; asking the dynamic
        engine for the flat backend is refused, never silently swapped
        for the reference one."""
        with pytest.raises(BackendUnsupported, match="dynamic"):
            DynamicAggregationSystem(path_tree(4), backend="flat")
        system = DynamicAggregationSystem(path_tree(4))
        assert isinstance(system.runtime, NodeRuntime)
        assert system.backend_name == "reference"

    def test_flat_topology_mutators_raise(self):
        rt = build_backend("flat", path_tree(3), op=SUM, policy_factory=RWWPolicy)
        with pytest.raises(BackendUnsupported, match="static-topology"):
            rt.set_topology(path_tree(4))
        with pytest.raises(BackendUnsupported):
            rt.add_node(3, path_tree(4))
        with pytest.raises(BackendUnsupported):
            rt.remove_node(2)
        with pytest.raises(BackendUnsupported):
            rt.rename_node(2, 5)

    def test_multiattr_backend_passthrough(self):
        from repro.core.multiattr import MultiAttributeSystem
        from repro.ops.standard import MAX

        system = MultiAttributeSystem(
            path_tree(5), {"load": SUM, "peak": MAX}, backend="flat"
        )
        assert all(
            sub.backend_name == "flat" for sub in system.systems.values()
        )
        system.write_many(3, {"load": 2.0, "peak": 5.0})
        report = system.query(0)
        assert report.values["load"] == 2.0
        assert report.values["peak"] == 5.0
        system.check_invariants()


class TestCheckpointRoundTrip:
    def test_checkpoint_through_flat_views(self):
        """:class:`Checkpoint` captures/restores through the flat node
        views exactly as through a ``LeaseNode`` — including the
        ``sntupdates`` setter reconstructing per-slot streams."""
        rt = build_backend("flat", star_tree(5), op=SUM, policy_factory=RWWPolicy)
        for q in copy_sequence(uniform_workload(5, 40, read_ratio=0.5, seed=11)):
            if q.op == "write":
                rt.submit_write(q)
            else:
                rt.submit_combine(q, lambda _q: None)
            rt.drain()
        node = rt.nodes[0]
        before = node.state_snapshot()
        cp = Checkpoint.capture(node, seq=1, time=0.0)
        assert cp.digest
        # Clobber the volatile state the way a crash would...
        victim = rt.fork()
        vnode = victim.nodes[0]
        for v in vnode.nbrs:
            vnode.taken[v] = False
            vnode.granted[v] = False
            vnode.aval[v] = None
            vnode.uaw[v] = set()
        vnode.sntupdates = []
        assert vnode.state_snapshot() != before
        # ...then restore and compare canonical snapshots.
        cp.restore(vnode)
        assert vnode.state_snapshot() == before

    def test_flat_checkpoint_digest_matches_reference(self):
        """Same execution, both backends: checkpoints of every node carry
        identical content digests (the flat views render the same state)."""
        wl = uniform_workload(6, 50, read_ratio=0.4, seed=23)

        def digests(backend):
            system = AggregationSystem(path_tree(6), backend=backend)
            system.run(copy_sequence(wl))
            return {
                i: Checkpoint.capture(n, seq=0, time=0.0).digest
                for i, n in system.nodes.items()
            }

        assert digests("flat") == digests("reference")


class TestExplorerFlatBackend:
    """The model checker drives the flat backend through the Backend
    protocol (``state_snapshot``/``fork``): identical state spaces and no
    violations on small scopes, including crash/recover transitions."""

    SCOPES = [
        (path_tree(2), "w0=1,c1,w1=3,c0"),
        (path_tree(3), "w0=2,c2,w2=4"),
        (star_tree(4), "w1=1,c0,w3=2"),
    ]

    @pytest.mark.parametrize("idx", range(len(SCOPES)))
    def test_flat_explore_matches_reference(self, idx):
        tree, script = self.SCOPES[idx]
        ref = Explorer(tree, parse_script(script)).run()
        flat = Explorer(tree, parse_script(script), backend="flat").run()
        assert ref.ok and flat.ok
        assert (ref.states, ref.transitions, ref.terminals) == (
            flat.states,
            flat.transitions,
            flat.terminals,
        )

    def test_flat_explore_with_crash_recover(self):
        tree = path_tree(3)
        script = parse_script("w0=1,k1,r1,w2=2,c0")
        ref = Explorer(tree, script).run()
        flat = Explorer(tree, script, backend="flat").run()
        assert ref.ok and flat.ok
        assert ref.states == flat.states and ref.transitions == flat.transitions
