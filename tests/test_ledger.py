"""The bounded relay ledger (:mod:`repro.core.ledger`).

* the T6 window query: a bisect over per-source lists, including the
  empty-window case of DESIGN.md decision 3;
* compaction changes nothing: forcing it after every append gives the
  same sends, retvals and ``uaw`` as never compacting, on both backends;
* reference and flat keep identical ledgers, snapshots and checkpoint
  digests after long runs, and through a crash/recover round trip;
* the deterministic bound: ledger length and checkpoint bytes stay flat
  from 2k to 16k requests, on both backends;
* the ledger bound of :func:`~repro.core.runtime.check_ledger_bound`.
"""

from __future__ import annotations

import pickle
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ledger
from repro.core.backend import build_backend
from repro.core.engine import AggregationSystem
from repro.core.ledger import COMPACT_MIN, RelayLedger, compact, window_beta
from repro.core.mechanism import LeaseNode
from repro.core.runtime import check_ledger_bound
from repro.core.messages import Release, Response
from repro.core.policies import (
    ABPolicy,
    AlwaysLeasePolicy,
    NeverLeasePolicy,
    RWWPolicy,
)
from repro.ops.standard import SUM
from repro.recovery.checkpoint import Checkpoint
from repro.tree.generators import binary_tree, path_tree, random_tree, star_tree
from repro.workloads.requests import combine, copy_sequence
from repro.workloads.synthetic import uniform_workload

BACKENDS = ("reference", "flat")


def _always_compact(kept):
    return 0


def _never_compact(kept):
    return sys.maxsize


def _run(backend, tree, requests, policy_factory=RWWPolicy, **kwargs):
    system = AggregationSystem(
        tree, policy_factory=policy_factory, backend=backend, **kwargs
    )
    system.run(copy_sequence(requests))
    return system


def _ledger_stats(system):
    """(largest per-node ledger, pickled checkpoint bytes over all nodes)."""
    nodes = system.runtime.nodes
    longest = max(len(node.sntupdates) for node in nodes.values())
    size = sum(
        len(pickle.dumps(Checkpoint.capture(node, 0, 0.0))) for node in nodes.values()
    )
    return longest, size


# ---------------------------------------------------------------- unit level
class TestWindowQuery:
    def test_empty_ledger_has_empty_window(self):
        assert window_beta([], [], 1) is None

    def test_window_is_the_nid_suffix(self):
        nids, rcvids = [3, 5, 9], [10, 11, 14]
        assert window_beta(nids, rcvids, 1) == 10  # whole list
        assert window_beta(nids, rcvids, 3) == 10  # boundary: nid == min(S)
        assert window_beta(nids, rcvids, 4) == 11
        assert window_beta(nids, rcvids, 9) == 14  # last entry only
        assert window_beta(nids, rcvids, 10) is None  # past the end

    def test_ledger_beta_per_source(self):
        book = RelayLedger.for_sources((1, 2), {1: set(), 2: set()})
        book.append((1, 10, 3))
        book.append((2, 20, 4))
        book.append((1, 11, 5))
        assert book.beta(1, 4) == 11
        assert book.beta(2, 4) == 20
        assert book.beta(2, 5) is None
        assert book.beta(7, 1) is None  # never a source

    def test_empty_window_resets_uaw(self):
        """DESIGN.md decision 3: a release whose window holds no relayed
        update from ``v`` (every ``nid`` below ``min(S)``) resets
        ``uaw[v]`` to the empty set; an empty ``S`` does the same."""
        for S in (frozenset({9, 10}), frozenset()):
            node = LeaseNode(1, path_tree(3), SUM, RWWPolicy(), lambda d, m: None)
            node.begin_combine(combine(1), lambda q: None)
            node.on_message(0, Response(x=0.0, flag=True))
            node.on_message(2, Response(x=0.0, flag=True))
            node.granted[2] = True
            node.uaw[0].update({4, 5})
            node.sntupdates.append((0, 4, 7))  # relayed as nid 7 < min(S)
            node.on_message(2, Release(S=S))
            assert node.uaw[0] == set()

    def test_nonempty_window_trims_uaw(self):
        # A never-breaking policy, so forwardrelease leaves uaw[0] alone.
        node = LeaseNode(1, path_tree(3), SUM, AlwaysLeasePolicy(), lambda d, m: None)
        node.begin_combine(combine(1), lambda q: None)
        node.on_message(0, Response(x=0.0, flag=True))
        node.on_message(2, Response(x=0.0, flag=True))
        node.granted[2] = True
        node.uaw[0].update({3, 4, 5})
        node.sntupdates.append((0, 3, 6))
        node.sntupdates.append((0, 4, 9))
        node.on_message(2, Release(S=frozenset({9})))
        assert node.uaw[0] == {4, 5}


class TestCompaction:
    def test_keeps_newest_old_entry_and_every_recent_one(self):
        nids, rcvids = [1, 2, 3, 4, 5], [10, 11, 12, 13, 14]
        compact(nids, rcvids, {12, 13, 14})
        assert (nids, rcvids) == ([2, 3, 4, 5], [11, 12, 13, 14])

    def test_empty_uaw_makes_every_entry_old(self):
        nids, rcvids = [1, 2, 3], [10, 11, 12]
        compact(nids, rcvids, set())
        assert (nids, rcvids) == ([3], [12])

    def test_nothing_old_keeps_everything(self):
        nids, rcvids = [1, 2], [10, 11]
        assert compact(nids, rcvids, {10, 11}) == COMPACT_MIN
        assert (nids, rcvids) == ([1, 2], [10, 11])

    def test_limit_doubles_over_the_kept_entries(self):
        nids = list(range(40))
        rcvids = list(range(100, 140))
        assert compact(nids, rcvids, set(range(110, 140))) == 2 * 31

    def test_append_compacts_only_at_the_limit(self):
        uaw = {0: set()}
        book = RelayLedger.for_sources((0,), uaw)
        for i in range(1, COMPACT_MIN):
            book.append((0, 100 + i, i))
        assert len(book) == COMPACT_MIN - 1  # below the limit: untouched
        book.append((0, 200, COMPACT_MIN))
        assert list(book) == [(0, 200, COMPACT_MIN)]  # all old but the newest
        assert book.limits[0] == COMPACT_MIN


    def test_newest_old_entry_keeps_the_window_open(self):
        """The one old entry compaction keeps is what makes it exact: a
        release window holding only that entry leaves ``uaw[v]`` as it is,
        where an emptied window would reset it."""
        with mock.patch.object(ledger, "next_limit", _always_compact):
            node = LeaseNode(1, path_tree(3), SUM, AlwaysLeasePolicy(), lambda d, m: None)
        node.begin_combine(combine(1), lambda q: None)
        node.on_message(0, Response(x=0.0, flag=True))
        node.on_message(2, Response(x=0.0, flag=True))
        node.granted[2] = True
        node.uaw[0].add(8)
        with mock.patch.object(ledger, "next_limit", _always_compact):
            node.sntupdates.append((0, 4, 5))
            node.sntupdates.append((0, 5, 6))  # both old: 4, 5 < min(uaw) = 8
        assert list(node.sntupdates) == [(0, 5, 6)]
        node.on_message(2, Release(S=frozenset({6})))
        assert node.uaw[0] == {8}


class TestLedgerSurface:
    def test_list_of_triples_surface(self):
        book = RelayLedger.for_sources((1, 2), {1: set(), 2: set()})
        entries = [(2, 7, 1), (1, 3, 2), (2, 8, 4)]
        for e in entries:
            book.append(e)
        assert list(book) == entries
        assert book == entries
        assert len(book) == 3

    def test_drop_rename_clear_restore(self):
        book = RelayLedger.for_sources((1, 2), {1: set(), 2: set()})
        for e in [(1, 5, 1), (2, 6, 2), (1, 7, 3)]:
            book.append(e)
        book.rename(1, 9)
        assert book == [(9, 5, 1), (2, 6, 2), (9, 7, 3)]
        book.drop(2)
        assert book == [(9, 5, 1), (9, 7, 3)]
        book.clear()
        assert book == [] and 9 in book.nids
        book.restore([(9, 1, 4), (3, 2, 5), (9, 2, 6)])  # 3: not a source
        assert book == [(9, 1, 4), (9, 2, 6)]
        assert book.limits[9] == COMPACT_MIN


# -------------------------------------------------- compaction is invisible
class _Recorder(LeaseNode):
    """Records every message with its full content."""

    log: list = []

    def send(self, dst, message):
        self.log.append(
            (
                self.id,
                dst,
                type(message).__name__,
                tuple(sorted(getattr(message, "S", ()))),
                getattr(message, "id", None),
                getattr(message, "x", None),
                getattr(message, "flag", None),
            )
        )
        super().send(dst, message)


POLICIES = {
    "rww": RWWPolicy,
    "ab12": lambda: ABPolicy(1, 2),
    "ab23": lambda: ABPolicy(2, 3),
    "always": AlwaysLeasePolicy,
    "never": NeverLeasePolicy,
}

TREES = st.one_of(
    st.integers(2, 9).map(path_tree),
    st.integers(3, 8).map(star_tree),
    st.integers(1, 3).map(binary_tree),
    st.tuples(st.integers(3, 12), st.integers(0, 50)).map(lambda t: random_tree(*t)),
)


def _observe(backend, tree, policy, requests, schedule):
    """Run under a compaction schedule; return what an outside observer
    (and the next release) can see."""
    with mock.patch.object(ledger, "next_limit", schedule):
        log: list = []
        if backend == "reference":
            rt = build_backend(
                backend,
                tree,
                op=SUM,
                policy_factory=POLICIES[policy],
                node_cls=type("Rec", (_Recorder,), {"log": log}),
            )
        else:
            rt = build_backend(
                backend, tree, op=SUM, policy_factory=POLICIES[policy],
                trace_enabled=True,
            )
        retvals = []
        for q in copy_sequence(requests):
            if q.op == "write":
                rt.submit_write(q)
            else:
                rt.submit_combine(q, lambda done: retvals.append(done.retval))
            rt.drain()
        rt.check_quiescent_invariants()
        if backend == "flat":
            log = [(e.node, e.detail["dst"], e.detail["msg"])
                   for e in rt.trace.events() if e.kind == "send"]
        uaw = {
            u: {v: sorted(node.uaw[v]) for v in node.nbrs}
            for u, node in rt.nodes.items()
        }
        stored = sum(len(node.sntupdates) for node in rt.nodes.values())
        return (log, retvals, uaw, dict(rt.stats.by_kind())), stored


class TestCompactionIsInvisible:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=30, deadline=None)
    @given(
        tree=TREES,
        policy=st.sampled_from(sorted(POLICIES)),
        length=st.integers(1, 120),
        read_ratio=st.sampled_from([0.1, 0.3, 0.5, 0.8]),
        seed=st.integers(0, 10_000),
    )
    def test_always_equals_never(self, backend, tree, policy, length, read_ratio, seed):
        requests = uniform_workload(tree.n, length, read_ratio=read_ratio, seed=seed)
        forced, kept_forced = _observe(backend, tree, policy, requests, _always_compact)
        never, kept_never = _observe(backend, tree, policy, requests, _never_compact)
        assert forced == never
        assert kept_forced <= kept_never

    def test_forced_compaction_actually_drops_entries(self):
        tree = path_tree(8)
        requests = uniform_workload(tree.n, 300, read_ratio=0.5, seed=4)
        forced, kept_forced = _observe("reference", tree, "rww", requests, _always_compact)
        never, kept_never = _observe("reference", tree, "rww", requests, _never_compact)
        assert forced == never
        assert kept_forced < kept_never


# ------------------------------------------------- reference <-> flat pins
class TestBackendsAgree:
    def test_long_run_snapshots_and_digests_match(self):
        tree = path_tree(31)
        requests = uniform_workload(tree.n, 2000, read_ratio=0.5, seed=7)
        ref, flat = (_run(b, tree, requests) for b in BACKENDS)
        assert ref.runtime.state_snapshot() == flat.runtime.state_snapshot()
        for u in range(tree.n):
            a = Checkpoint.capture(ref.runtime.nodes[u], 0, 0.0)
            b = Checkpoint.capture(flat.runtime.nodes[u], 0, 0.0)
            assert a.digest == b.digest
        # Compaction did run: no source kept its whole relay history.
        assert max(len(n.sntupdates) for n in ref.runtime.nodes.values()) < 2 * COMPACT_MIN
        for system in (ref, flat):
            check_ledger_bound(system.runtime.nodes)

    def test_crash_recover_checkpoint_round_trip(self):
        tree = path_tree(9)
        warmup = uniform_workload(tree.n, 1500, read_ratio=0.5, seed=3)
        after = uniform_workload(tree.n, 300, read_ratio=0.5, seed=5)
        systems = {b: _run(b, tree, warmup) for b in BACKENDS}
        victim = 4
        results = {}
        for name, system in systems.items():
            rt = system.runtime
            node = rt.nodes[victim]
            before = node.state_snapshot()
            cp = Checkpoint.capture(node, seq=1, time=0.0)
            rt.crash(victim)
            node.sntupdates.clear()
            node.uaw[3] = set()
            assert node.state_snapshot() != before
            cp.restore(node)
            assert node.state_snapshot() == before
            assert Checkpoint.capture(node, seq=1, time=0.0).digest == cp.digest
            rt.recover(victim)
            rt.drain()
            assert list(node.sntupdates) == []  # reconcile forgets relays
            system.check_quiescent_invariants()
            check_ledger_bound(system.runtime.nodes)
            system.run(copy_sequence(after))
            system.check_quiescent_invariants()
            check_ledger_bound(system.runtime.nodes)
            results[name] = (
                rt.state_snapshot(),
                [q.retval for q in system.executed if q.op == "combine"],
            )
        assert results["reference"] == results["flat"]


# ----------------------------------------------------- the deterministic bound
class TestLedgerStaysBounded:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_2k_to_16k_growth(self, backend):
        """On path(31) with uniform 50/50 requests, 8x the history may
        grow neither the largest ledger nor the checkpoints by more than
        1.5x (an append-only ledger grows both about linearly)."""
        tree = path_tree(31)
        short = _ledger_stats(
            _run(backend, tree, uniform_workload(tree.n, 2000, read_ratio=0.5, seed=1))
        )
        system = _run(backend, tree, uniform_workload(tree.n, 16000, read_ratio=0.5, seed=1))
        check_ledger_bound(system.runtime.nodes)
        long = _ledger_stats(system)
        assert long[0] <= 1.5 * short[0], (short, long)
        assert long[1] <= 1.5 * short[1], (short, long)


class TestLedgerBound:
    def _system(self, backend):
        tree = path_tree(5)
        return _run(backend, tree, uniform_workload(tree.n, 200, read_ratio=0.5, seed=2))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recent_entry_missing_from_uaw_is_caught(self, backend):
        system = self._system(backend)
        node = system.runtime.nodes[2]
        node.uaw[1] = {50}
        node.sntupdates.restore([(1, 60, node.upcntr + 1)])  # >= min(uaw), not in it
        system.check_quiescent_invariants()  # the lemmas still hold
        with pytest.raises(AssertionError, match="ledger bound violated at 2"):
            check_ledger_bound(system.runtime.nodes)

    def test_uncompacted_old_entries_are_caught(self):
        node = LeaseNode(1, path_tree(3), SUM, RWWPolicy(), lambda d, m: None)
        book = node.sntupdates
        book.nids[0] = list(range(1, COMPACT_MIN + 1))
        book.rcvids[0] = list(range(1, COMPACT_MIN + 1))
        breaches = book.bound_violations()
        assert breaches and "old entries" in breaches[0]
        node.sntupdates.restore(list(book))  # a restore resets the slack
        assert node.sntupdates.bound_violations() == []
