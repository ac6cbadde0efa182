"""Threaded prefetch executor.

DALI's value is overlapping sample preparation with training compute; this
executor reproduces that with worker threads pulling indices from a work
queue and a bounded, *order-preserving* output buffer (determinism matters:
the convergence experiments must be replayable bit-for-bit).  NumPy releases
the GIL inside the heavy decode kernels, so threads genuinely overlap even
on CPython.

Failure isolation: a worker exception never wedges the output buffer — it
is recorded at the failing item's position and surfaces to the consumer
exactly when that position is reached, tagged with the failing sample
index (``exc.sample_index``).  With ``on_error="yield"`` the failure is
handed over as a :class:`FailedItem` instead of raised, which is how the
loader implements skip/substitute policies without losing its place in the
epoch; the remaining workers keep running either way and shut down cleanly
when the generator closes.
"""

from __future__ import annotations

import queue
import threading
import traceback as _tb
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Sequence

from repro.pipeline.graph import Pipeline
from repro.pipeline.ops import PipelineItem
from repro.tune.stats import StatsRegistry

__all__ = ["PrefetchExecutor", "FailedItem"]

_SENTINEL = object()


@dataclass(frozen=True)
class FailedItem:
    """A pipeline failure delivered in-band (``on_error="yield"``).

    The live exception is kept for in-process policy decisions, but many
    exceptions don't survive serialization (JSON fuzz/conformance
    reports), so the portable description —
    ``error_repr`` and the formatted ``traceback`` — is captured eagerly
    at construction time.  :meth:`to_json` is the stable wire form.
    """

    index: int
    error: Exception
    error_repr: str = ""
    traceback: str = ""
    #: id of the span tree that recorded this sample's failing fetch
    #: (0 = untraced).  The traced pipeline tags exceptions with the
    #: active trace id as they unwind, so the link needs no plumbing at
    #: the construction sites.
    trace_id: int = 0

    def __post_init__(self) -> None:
        if not self.error_repr:
            object.__setattr__(self, "error_repr", repr(self.error))
        if not self.traceback and self.error.__traceback__ is not None:
            object.__setattr__(
                self,
                "traceback",
                "".join(_tb.format_exception(
                    type(self.error), self.error, self.error.__traceback__
                )),
            )
        if not self.trace_id:
            object.__setattr__(
                self, "trace_id", getattr(self.error, "trace_id", 0) or 0
            )

    def to_json(self) -> dict:
        """JSON-safe description (no live exception object)."""
        return {
            "index": self.index,
            "error": self.error_repr,
            "traceback": self.traceback,
            "trace_id": format(self.trace_id, "x") if self.trace_id else None,
        }


class PrefetchExecutor:
    """Run a pipeline over an index sequence with prefetching workers.

    The unit of work is a *group* of consecutive epoch indices: one
    index in scalar mode (:meth:`Pipeline.run`), up to
    ``fetch_batch_size`` in batch mode (:meth:`Pipeline.run_batch`, one
    batched fetch per group).  Either way items come back one by one,
    in order, with per-sample failures delivered at their own position.

    Parameters
    ----------
    pipeline:
        The operator chain (shared across workers; operators must be
        thread-safe, which the provided ones are — decode creates fresh
        arrays per item).
    num_workers:
        Worker threads.  ``0`` runs synchronously in the caller's thread
        (useful for debugging and for the time-attribution runs, where
        overlap would muddy per-stage numbers).
    prefetch_depth:
        Bound on completed-but-unconsumed groups, limiting memory exactly
        like DALI's queue depth (``prefetch_depth * fetch_batch_size``
        samples).
    stats:
        Optional :class:`~repro.tune.stats.StatsRegistry` receiving
        ``executor.items`` (count + per-item preparation seconds, a
        group's cost split evenly across its members),
        ``executor.failed``, ``executor.groups`` (count + seconds per
        group) and ``executor.wait`` (seconds the consumer was blocked
        on the next in-order group — the starvation signal the adaptive
        tuner acts on).  All updates happen on the consumer thread, so
        the counters are exact with any worker count.
    fetch_batch_size:
        Batch mode: with ``B > 1`` each group of up to ``B`` indices is
        fetched with one ``read_batch_slots`` call (one wire round-trip
        / one seek pass per group) and then decoded sample by sample.
        Results are bit-identical to scalar mode.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        num_workers: int = 2,
        prefetch_depth: int = 4,
        stats: StatsRegistry | None = None,
        fetch_batch_size: int = 1,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if fetch_batch_size < 1:
            raise ValueError("fetch_batch_size must be >= 1")
        self.pipeline = pipeline
        self.num_workers = num_workers
        self.prefetch_depth = prefetch_depth
        self.stats = stats
        self.fetch_batch_size = fetch_batch_size

    def run(
        self, indices: Sequence[int], epoch: int = 0, on_error: str = "raise"
    ) -> Iterator[PipelineItem | FailedItem]:
        """Yield processed items in the order of ``indices``.

        ``on_error="raise"`` (default) re-raises a worker exception at the
        failing item's position with ``sample_index`` attached;
        ``on_error="yield"`` delivers it as a :class:`FailedItem` and
        continues with the next index.
        """
        if on_error not in ("raise", "yield"):
            raise ValueError(f"on_error must be 'raise' or 'yield', got {on_error!r}")
        B = self.fetch_batch_size
        indices = list(indices)
        groups = [indices[i:i + B] for i in range(0, len(indices), B)]
        st = self.stats
        s_items = st.stat("executor.items") if st is not None else None
        s_wait = st.stat("executor.wait") if st is not None else None
        s_failed = st.stat("executor.failed") if st is not None else None
        s_groups = st.stat("executor.groups") if st is not None else None
        if self.num_workers == 0:
            produced = self._run_sync(groups, epoch)
        else:
            produced = self._run_threaded(groups, epoch)
        try:
            for group, results, busy, waited in produced:
                if st is not None:
                    s_groups.add(busy)
                    if waited is not None:
                        s_wait.add(waited)
                share = busy / len(results)
                for idx, result in zip(group, results):
                    if isinstance(result, Exception):
                        if s_failed is not None:
                            s_failed.add()
                        if on_error == "raise":
                            result.sample_index = idx  # type: ignore[attr-defined]
                            raise result
                        result = FailedItem(index=int(idx), error=result)
                    elif s_items is not None:
                        s_items.add(share)
                    yield result
        finally:
            produced.close()

    def _run_group(self, group: list[int], epoch: int) -> list:
        """One group's results: a ``PipelineItem`` or ``Exception`` each."""
        try:
            if self.fetch_batch_size == 1:
                return [self.pipeline.run(group[0], epoch)]
            return self.pipeline.run_batch(group, epoch)
        except Exception as exc:  # noqa: BLE001 — delivered per item
            return [exc] * len(group)

    def _run_sync(self, groups, epoch: int):
        # the consumer *is* the producer, so the whole preparation time
        # counts as consumer wait (starvation 1.0 — which is what tells
        # the adaptive controller to add workers)
        for group in groups:
            t0 = perf_counter()
            results = self._run_group(group, epoch)
            dt = perf_counter() - t0
            yield group, results, dt, dt

    def _run_threaded(self, groups, epoch: int):
        work: queue.Queue = queue.Queue()
        done: dict[int, tuple[list, float]] = {}
        done_lock = threading.Condition()
        # Admission window: workers may run at most prefetch_depth groups
        # ahead of the consumer, bounding memory.
        window = threading.Semaphore(self.prefetch_depth)

        for pos, group in enumerate(groups):
            work.put((pos, group))
        for _ in range(self.num_workers):
            work.put(_SENTINEL)

        def worker() -> None:
            while True:
                # Acquire the admission slot BEFORE taking a task: slots
                # then always belong to the oldest pending tasks, so the
                # consumer (which frees a slot per consumed group) can
                # never be stranded waiting on a task no slot remains for.
                window.acquire()
                task = work.get()
                if task is _SENTINEL:
                    window.release()
                    return
                pos, group = task
                t0 = perf_counter()
                results = self._run_group(group, epoch)
                busy = perf_counter() - t0
                with done_lock:
                    done[pos] = (results, busy)
                    done_lock.notify_all()

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(self.num_workers)
        ]
        for t in threads:
            t.start()
        try:
            for pos, group in enumerate(groups):
                waited = None
                with done_lock:
                    if pos not in done:
                        t0 = perf_counter()
                        while pos not in done:
                            done_lock.wait()
                        waited = perf_counter() - t0
                    results, busy = done.pop(pos)
                window.release()
                yield group, results, busy, waited
        finally:
            # Early close: drain pending tasks, then unblock every worker —
            # whether parked on the admission semaphore or on the work
            # queue — with a sentinel + slot each.
            try:
                while True:
                    work.get_nowait()
            except queue.Empty:
                pass
            for _ in range(self.num_workers):
                work.put(_SENTINEL)
                window.release()
            for t in threads:
                t.join(timeout=5.0)
