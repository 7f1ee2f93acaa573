"""Span recording around the public functions of each layer.

The traced run installs :class:`Tracer` wrappers from the benchmark's own
files — on classes before the engine is built (bound sends and receivers
are captured at construction) and on the runtime instance after — and
removes them again when the run ends.  Spans stay in memory as
``(name, start_ns, end_ns, parent_index, request_id)`` and are written
once, when the benchmark ends.  Timed runs install nothing.
"""

from __future__ import annotations

import gzip
import pathlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, int, int, int, int]


class Tracer:
    """In-memory span recorder with a parent stack and a current request id.

    Only valid for code that runs on one thread with properly nested
    calls; concurrent callers (the serve loop) record flat spans through
    :meth:`record` instead of the stack.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: Request id stamped on every span; set by the driving loop.
        self.req = -1

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        name_of: Optional[Callable[..., str]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span named ``name`` (or ``name_of(*args)``)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append(None)  # reserve the id so children can point at it
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                label = name if name_of is None else name_of(*args)
                spans[idx] = (label, t0, t1, parent, self.req)

        return traced

    def record(self, name: str, t0: int, t1: int, req: int = -1) -> None:
        """Add a root span measured by the caller."""
        self.spans.append((name, t0, t1, -1, req))

    def finished(self) -> List[Span]:
        """All spans; raises if a wrapped call is still open."""
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        return self.spans  # type: ignore[return-value]

    def write(self, path: pathlib.Path) -> None:
        """Write the spans as gzipped tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\treq\n")
            for span in self.finished():
                fh.write("\t".join(map(str, span)) + "\n")


@contextmanager
def patched(
    tracer: Tracer, targets: Sequence[Tuple[Any, str, str]]
) -> Iterator[None]:
    """Wrap ``owner.attr`` in a span named ``name`` for each target, and
    restore the originals on exit.

    A name ending in ``.*`` is completed per call from the type of the
    call's last argument (the message a node receives).
    """
    saved = []
    try:
        for owner, attr, name in targets:
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            name_of = None
            if name.endswith(".*"):
                prefix = name[:-1]
                name_of = lambda *args, p=prefix: p + type(args[-1]).__name__.lower()
            setattr(owner, attr, tracer.wrap(name, original, name_of))
            saved.append((owner, attr, original, own))
        yield
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
