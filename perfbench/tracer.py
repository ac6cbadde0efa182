"""Span recorder and wall-clock attribution for the traced run.

The benchmark times calls into each layer's public functions from its
own code.  :meth:`Tracer.patch` replaces one callable -- a module-level
function, or a method on one object the benchmark built -- with a
wrapper that records a span; :meth:`Tracer.restore` puts every original
back when the traced run ends.  Nothing in the program is edited, and
untraced runs never see a wrapper.

A span carries a name (``<layer>.<what>``), start, end, parent (the
enclosing span on the same thread), the thread, and the batch it serves.
Spans stay in memory and are written out once, as ``chrome://tracing``
JSON, by :meth:`Tracer.write_chrome`.

:func:`attribute` turns the spans of the timed epochs into per-layer
self time that sums to the epochs' wall time (see its docstring).
"""

from __future__ import annotations

import itertools
import json
import threading
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter

__all__ = ["ROOT_SPAN", "Span", "Tracer", "attribute", "self_durations"]

#: the trainer's span around each ``next()`` on the batch iterator
ROOT_SPAN = "pipeline.next"


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "tid", "parent", "batch", "nbytes")

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _nbytes(result) -> int:
    """Payload size of a read result: bytes, or a list of bytes/errors."""
    if isinstance(result, (bytes, bytearray, memoryview)):
        return len(result)
    if isinstance(result, list):
        return sum(
            len(r) for r in result if isinstance(r, (bytes, bytearray, memoryview))
        )
    return 0


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin = perf_counter()
        #: sample index -> batch label of the epoch being run; a read
        #: span looks its index up here and the label sticks to its
        #: thread, so the decode that follows on that thread inherits it
        self.batch_of: dict[int, str] = {}
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str, batch: str | None = None) -> Span:
        stack = self._stack()
        sp = Span()
        sp.sid = next(self._ids)
        sp.name = name
        sp.tid = threading.get_ident()
        sp.parent = stack[-1].sid if stack else 0
        if batch is not None:
            self._tls.batch = batch
        sp.batch = getattr(self._tls, "batch", None)
        sp.nbytes = 0
        stack.append(sp)
        sp.t0 = perf_counter()  # last: the bookkeeping stays outside the span
        return sp

    def end(self, sp: Span) -> None:
        sp.t1 = perf_counter()
        self._stack().pop()
        self.spans.append(sp)

    def wrap(self, fn, name: str, *, index_arg: bool = False, sized: bool = False):
        """``fn`` recording a span per call.

        ``index_arg``: the first positional argument is a sample index
        (or a sequence of them), which names the batch the call serves.
        ``sized``: record the payload bytes the call returned.
        """
        tracer = self

        def traced(*args, **kwargs):
            batch = None
            if index_arg and args:
                key = args[0]
                if not isinstance(key, int):
                    try:
                        key = int(key)
                    except TypeError:  # a sequence of indices
                        key = next(iter(key), None)
                if key is not None:
                    batch = tracer.batch_of.get(int(key))
            sp = tracer.begin(name, batch)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sp)
            if sized:
                sp.nbytes = _nbytes(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` with a recording wrapper for this run."""
        own = vars(owner)
        had = attr in own
        self._patches.append((owner, attr, own.get(attr), had))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        for owner, attr, old, had in reversed(self._patches):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def write_chrome(self, path) -> None:
        """All spans as ``chrome://tracing`` complete events."""
        tids: dict[int, int] = {}
        events = []
        for sp in sorted(self.spans, key=lambda s: s.t0):
            events.append({
                "name": sp.name,
                "cat": sp.layer,
                "ph": "X",
                "pid": 1,
                "tid": tids.setdefault(sp.tid, len(tids)),
                "ts": (sp.t0 - self.origin) * 1e6,
                "dur": sp.duration * 1e6,
                "args": {"id": sp.sid, "parent": sp.parent, "batch": sp.batch,
                         "bytes": sp.nbytes},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_durations(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the durations of its direct children."""
    child = defaultdict(float)
    for sp in spans:
        if sp.parent:
            child[sp.parent] += sp.duration
    return {sp.sid: sp.duration - child[sp.sid] for sp in spans}


def attribute(spans: list[Span], windows: list[tuple[float, float]]):
    """Split the wall time of ``windows`` among the spans open in it.

    At every instant, each thread's innermost open span takes an equal
    share of the instant.  The trainer's :data:`ROOT_SPAN` (blocked in
    ``next()``) takes part only when no other thread is inside a span:
    then the wait is the pipeline's own -- executor hand-off, queueing,
    stacking the batch.  Time no span covers is unattributed.

    Returns ``(self_s, incl_s, unattributed_s, total_s)``: seconds per
    span name as innermost span, seconds per span name anywhere on a
    thread's stack, and the two totals.  ``sum(self_s) + unattributed_s
    == total_s``.
    """
    windows = sorted(windows)
    total = sum(b - a for a, b in windows)
    if not windows:
        return {}, {}, 0.0, 0.0
    lo, hi = windows[0][0], windows[-1][1]
    starts = [a for a, _ in windows]

    def overlap(a: float, b: float) -> float:
        i = max(bisect_right(starts, a) - 1, 0)
        out = 0.0
        while i < len(windows) and windows[i][0] < b:
            wa, wb = windows[i]
            out += max(0.0, min(b, wb) - max(a, wa))
            i += 1
        return out

    events = []
    for sp in spans:
        if sp.t1 > lo and sp.t0 < hi:
            events.append((sp.t0, 1, sp))
            events.append((sp.t1, 0, sp))
    events.sort(key=lambda e: (e[0], e[1]))  # ends before starts on a tie

    stacks: dict[int, list[Span]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    prev = events[0][0] if events else lo
    for t, starting, sp in events:
        if t > prev:
            dt = overlap(prev, t)
            if dt > 0:
                active = [st for st in stacks.values() if st]
                working = [
                    st for st in active
                    if not (len(st) == 1 and st[0].name == ROOT_SPAN)
                ]
                sharing = working or active
                if sharing:
                    share = dt / len(sharing)
                    for st in sharing:
                        self_s[st[-1].name] += share
                        for name in {s.name for s in st}:
                            incl_s[name] += share
        prev = t
        if starting:
            stacks[sp.tid].append(sp)
        else:
            stacks[sp.tid].remove(sp)
    unattributed = total - sum(self_s.values())
    return dict(self_s), dict(incl_s), unattributed, total
