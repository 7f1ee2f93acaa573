"""The relay ledger (Figure 6's ``sntupdates``), bounded, for both backends.

T5 relays an update received from neighbor ``v`` under a fresh id of the
node's own (``nid``) and records the pair ``(rcvid, nid)``; T6's
``onrelease`` reads the record back to trim the ``uaw[v]`` window.  This
module owns that record for the reference :class:`~repro.core.mechanism.
LeaseNode` and the vectorized :class:`~repro.flat.runtime.FlatRuntime`.

**Layout.**  Per source neighbor ``v``, two parallel append-ordered lists
``nids[v]`` and ``rcvids[v]``.  Both are monotone: ``nid`` is the node's
own ``upcntr`` and ``rcvid`` is ``v``'s durable ``upcntr``, delivered
FIFO on the edge.

**The T6 query** (:func:`window_beta`).  The release window from ``v`` is
every entry with ``nid >= min(S)`` — a suffix of the list — and ``beta``
is the smallest ``rcvid`` in it, i.e. the suffix's first one.  One bisect,
O(log k), instead of a scan of the node's whole relay history.

**Compaction** (:func:`compact`, DESIGN.md decision 3).  An entry from
``v`` is *old* when its ``rcvid < min(uaw[v])`` (every entry is old when
``uaw[v]`` is empty).  Compaction drops every old entry except the newest.
It is exact: for an old entry ``{i in uaw[v] : i >= rcvid} = uaw[v]``, so
a window whose first entry is old leaves ``uaw[v]`` unchanged, and the
newest old entry keeps such windows non-empty; an old entry stays old,
since ``uaw[v]`` only gains ids newer than every recorded ``rcvid`` and
only ever loses a prefix of its ids.  A source's list compacts only when
it has doubled since its last compaction (:func:`next_limit`), so appends
stay amortized O(1) and small histories never compact at all.

The reference backend keeps the lists in plain dicts; the flat backend
keeps them in per-slot arrays appended to inline by its drain loop, and
exposes them through :class:`RelayLedger` over slot-map views.  Either
way :class:`RelayLedger` presents the list-of-triples surface the rest of
the system reads: iteration yields ``(src, rcvid, nid)`` in append order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Iterator, List, MutableMapping, Optional, Set, Tuple

__all__ = [
    "COMPACT_MIN",
    "RelayLedger",
    "compact",
    "next_limit",
    "window_beta",
]

#: Per-source list length below which a ledger never compacts.
COMPACT_MIN = 16

Entry = Tuple[int, int, int]


def next_limit(kept: int) -> int:
    """The list length at which a source compacts next, once ``kept``
    entries survived its last compaction (or restore)."""
    return max(COMPACT_MIN, 2 * kept)


def window_beta(nids: List[int], rcvids: List[int], min_id: int) -> Optional[int]:
    """``beta`` of the release window ``nid >= min_id``: the first entry's
    ``rcvid``, or ``None`` when the window is empty."""
    i = bisect_left(nids, min_id)
    return rcvids[i] if i < len(nids) else None


def compact(nids: List[int], rcvids: List[int], uaw: Set[int]) -> int:
    """Drop, in place, every old entry but the newest; return the list's
    next compaction limit."""
    cut = (bisect_left(rcvids, min(uaw)) if uaw else len(rcvids)) - 1
    if cut > 0:
        del nids[:cut]
        del rcvids[:cut]
    return next_limit(len(nids))


class RelayLedger:
    """One node's ledger: per-source ``nids``/``rcvids`` lists, their
    compaction ``limits``, and the node's ``uaw`` table compaction reads.

    The four mappings are keyed by neighbor id: plain dicts on the
    reference backend, slot-map views over the runtime's arrays on the
    flat backend.  The object behaves as the Figure-6 list of
    ``(src, rcvid, nid)`` triples for ``append``, iteration, ``len`` and
    equality with a list.
    """

    __slots__ = ("nids", "rcvids", "limits", "uaw")

    def __init__(
        self,
        nids: MutableMapping[int, List[int]],
        rcvids: MutableMapping[int, List[int]],
        limits: MutableMapping[int, int],
        uaw: MutableMapping[int, Set[int]],
    ) -> None:
        self.nids = nids
        self.rcvids = rcvids
        self.limits = limits
        self.uaw = uaw

    @classmethod
    def for_sources(
        cls, sources: Iterable[int], uaw: MutableMapping[int, Set[int]]
    ) -> "RelayLedger":
        """An empty dict-backed ledger (reference backend)."""
        ledger = cls({}, {}, {}, uaw)
        for v in sources:
            ledger.add_source(v)
        return ledger

    # ------------------------------------------------------------ protocol
    def append(self, entry: Entry) -> None:
        """T5: record that the update ``rcvid`` from ``src`` left as ``nid``."""
        src, rcvid, nid = entry
        nids = self.nids.get(src)
        if nids is None:
            self.add_source(src)
            nids = self.nids[src]
        rcvids = self.rcvids[src]
        nids.append(nid)
        rcvids.append(rcvid)
        if len(nids) >= self.limits[src]:
            self.limits[src] = compact(nids, rcvids, self.uaw.get(src, ()))

    def beta(self, src: int, min_id: int) -> Optional[int]:
        """T6: ``beta`` of ``src``'s release window ``nid >= min_id``."""
        nids = self.nids.get(src)
        if not nids:
            return None
        return window_beta(nids, self.rcvids[src], min_id)

    # ------------------------------------------------- lifecycle / topology
    def add_source(self, v: int) -> None:
        self.nids[v] = []
        self.rcvids[v] = []
        self.limits[v] = next_limit(0)

    def clear(self) -> None:
        """Forget every entry (post-crash reconciliation)."""
        for v in list(self.nids):
            self.add_source(v)

    def drop(self, v: int) -> None:
        """Forget source ``v`` (neighbor detached)."""
        for table in (self.nids, self.rcvids, self.limits):
            table.pop(v, None)

    def rename(self, old: int, new: int) -> None:
        """Re-key source ``old`` as ``new`` (dense-id compaction)."""
        for table in (self.nids, self.rcvids, self.limits):
            if old in table:
                table[new] = table.pop(old)

    def restore(self, entries: Iterable[Entry]) -> None:
        """Replace the whole ledger with ``entries`` (append-ordered
        triples, e.g. a checkpoint's); entries from non-sources are
        dropped."""
        self.clear()
        for src, rcvid, nid in entries:
            if src in self.nids:
                self.nids[src].append(nid)
                self.rcvids[src].append(rcvid)
        for v in list(self.nids):
            self.limits[v] = next_limit(len(self.nids[v]))

    # ---------------------------------------------------------- inspection
    def streams(self) -> Iterator[Tuple[int, List[int], List[int]]]:
        for v in self.nids:
            yield v, self.nids[v], self.rcvids[v]

    def __iter__(self) -> Iterator[Entry]:
        # Every append took a fresh nid, so sorting the per-source
        # streams by nid restores the append order exactly.
        rows = sorted(
            (nid, src, rcvid)
            for src, nids, rcvids in self.streams()
            for nid, rcvid in zip(nids, rcvids)
        )
        return iter([(src, rcvid, nid) for nid, src, rcvid in rows])

    def __len__(self) -> int:
        return sum(len(nids) for _, nids, _ in self.streams())

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (RelayLedger, list)):
            return list(self) == list(other)
        return NotImplemented

    def bound_violations(self) -> List[str]:
        """The ledger bound, as descriptions of each breach (empty when it
        holds): per source, ``nids`` strictly and ``rcvids`` weakly
        increasing; every entry with ``rcvid >= min(uaw[v])`` names an id
        in ``uaw[v]``; and at most one older entry, unless the list is
        still below its compaction limit (the slack since its last
        compaction)."""
        out: List[str] = []
        for v, nids, rcvids in self.streams():
            if len(nids) != len(rcvids):
                out.append(f"source {v}: {len(nids)} nids but {len(rcvids)} rcvids")
                continue
            if any(a >= b for a, b in zip(nids, nids[1:])):
                out.append(f"source {v}: nids not strictly increasing")
            if any(a > b for a, b in zip(rcvids, rcvids[1:])):
                out.append(f"source {v}: rcvids decrease")
            window = self.uaw.get(v) or set()
            floor = min(window) if window else None
            old = 0
            for rcvid in rcvids:
                if floor is None or rcvid < floor:
                    old += 1
                elif rcvid not in window:
                    out.append(f"source {v}: recent rcvid {rcvid} not in uaw")
            if old > 1 and len(nids) >= self.limits[v]:
                out.append(
                    f"source {v}: {old} old entries at limit {self.limits[v]}"
                )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RelayLedger({list(self)!r})"
