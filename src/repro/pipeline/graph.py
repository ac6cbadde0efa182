"""Linear operator pipeline with per-stage time attribution.

This is the *execution* layer: an ordered op chain applied to one sample
index.  Chains come either from the legacy ``DataLoader`` constructor or
from a compiled preprocessing graph
(:func:`repro.graph.compiler.compile_graph`), which is where fusion and
reordering decisions are made — the pipeline just runs what it is given,
skipping the remaining stages of an item a filter stage dropped.

Timing is safe under the threaded executor: each worker thread
accumulates into its *own* :class:`~repro.util.timing.Stopwatch`
(registered once per thread), and readers merge the per-worker
accumulators on demand — so stage totals are not racy and no lock sits
on the per-sample hot path.
"""

from __future__ import annotations

import threading

from repro.observe import trace as observe
from repro.pipeline.ops import Op, PipelineItem, ReadOp
from repro.pipeline.sources import read_batch_slots
from repro.util.timing import Stopwatch

__all__ = ["Pipeline"]


class Pipeline:
    """An ordered chain of operators applied to one sample index.

    The paper's plugins slot into DALI pipelines; here the chain is explicit
    and every stage's wall-clock time is accumulated per worker thread,
    giving the functional analogue of the CPU-timeline breakdowns in
    Figures 9/12 (merged view via :attr:`stopwatch`/:meth:`stage_times`).
    """

    def __init__(self, ops: list[Op]) -> None:
        if not ops:
            raise ValueError("pipeline needs at least one operator")
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in pipeline: {names}")
        self.ops = list(ops)
        self._tls = threading.local()
        self._watches: list[Stopwatch] = []
        self._watch_lock = threading.Lock()
        self._flushed: dict[str, tuple[int, float]] = {}
        #: optional :class:`repro.observe.TraceRecorder` — when attached
        #: (``DataLoader(trace=...)``), every sample records a
        #: ``loader.fetch`` span tree; the trace starts here, on the
        #: worker thread that runs the sample, so source wrappers deeper
        #: in the chain land their spans in the right tree
        self.trace = None

    def _thread_watch(self) -> Stopwatch:
        """This thread's private stopwatch (created and registered once)."""
        watch = getattr(self._tls, "watch", None)
        if watch is None:
            watch = Stopwatch()
            with self._watch_lock:
                self._watches.append(watch)
            self._tls.watch = watch
        return watch

    @property
    def stopwatch(self) -> Stopwatch:
        """Merged view of every worker's accumulators (a fresh copy)."""
        merged = Stopwatch()
        with self._watch_lock:
            watches = list(self._watches)
        for watch in watches:
            merged.merge(watch)
        return merged

    def run(self, index: int, epoch: int = 0) -> PipelineItem:
        """Process one sample through every stage.

        A stage that sets ``item.meta['dropped']`` (a compiled filter)
        short-circuits the remaining stages — the item comes back marked
        and the loader drops it from the epoch.
        """
        if self.trace is None:
            return self._run(index, epoch)
        with self.trace.trace("loader.fetch", index=index, epoch=epoch):
            return self._run(index, epoch)

    def _run(self, index: int, epoch: int) -> PipelineItem:
        item = PipelineItem(index=index, meta={"epoch": epoch})
        return self._apply(self.ops, item, self._thread_watch())

    @staticmethod
    def _apply(ops, item: PipelineItem, watch: Stopwatch) -> PipelineItem:
        for op in ops:
            with watch.measure(op.name), observe.span(op.name):
                item = op(item)
            if item.meta.get("dropped"):
                break
        return item

    def run_batch(self, indices, epoch: int = 0) -> list:
        """Process a group of samples behind one batched fetch.

        Returns one entry per index, aligned with ``indices``: the
        processed :class:`PipelineItem`, or the ``Exception`` that sample
        raised (slot-isolated — one bad sample never sinks its
        batch-mates; the executor wraps exceptions into ``FailedItem``).

        A chain that starts with a :class:`ReadOp` — the legacy chain
        and compiled graph plans alike — fetches the whole group with
        one :func:`~repro.pipeline.sources.read_batch_slots` call
        (amortizing locks, seeks and wire round-trips); every fetched
        sample then runs the remaining stages on its own, exactly as in
        :meth:`run`.  Any other chain runs :meth:`run` per index.
        Batching changes how reads are paid for, never a result.
        """
        if type(self.ops[0]) is not ReadOp:
            results: list = []
            for idx in indices:
                try:
                    results.append(self.run(int(idx), epoch))
                except Exception as exc:  # noqa: BLE001 — slot-isolated
                    results.append(exc)
            return results
        # one trace for the whole group: the fetch is shared, so
        # per-sample attribution of the read does not exist
        with observe.traced(
            self.trace, "loader.fetch", epoch=epoch, batch=len(indices)
        ):
            return self._run_batch(indices, epoch)

    def _run_batch(self, indices, epoch: int) -> list:
        read_op = self.ops[0]
        watch = self._thread_watch()
        with watch.measure(read_op.name), observe.span(read_op.name):
            slots = read_batch_slots(read_op.source, [int(i) for i in indices])
            for j, slot in enumerate(slots):
                if isinstance(slot, Exception):
                    continue
                item = PipelineItem(index=int(indices[j]), meta={"epoch": epoch})
                try:
                    slots[j] = read_op.attach(item, slot)
                except Exception as exc:  # noqa: BLE001 — slot-isolated
                    slots[j] = exc
        # stage counts mean "items through the stage", batched or not
        watch.counts[read_op.name] += len(slots) - 1
        results: list = []
        for slot in slots:
            if isinstance(slot, PipelineItem):
                try:
                    slot = self._apply(self.ops[1:], slot, watch)
                except Exception as exc:  # noqa: BLE001 — slot-isolated
                    slot = exc
            results.append(slot)
        return results

    def stage_times(self) -> dict[str, float]:
        """Accumulated seconds per stage since construction (all workers)."""
        return dict(self.stopwatch.totals)

    def flush_stage_stats(self, stats) -> dict[str, float]:
        """Publish per-stage deltas since the last flush into a registry.

        Adds a ``pipeline.<stage>`` counter per stage to ``stats``
        (count = items through the stage, total = seconds), so stage
        attribution shows up in ``repro stats --json`` next to the
        executor/loader counters instead of living only on this object.
        Returns the seconds flushed per stage.
        """
        merged = self.stopwatch
        flushed: dict[str, float] = {}
        for name, total in merged.totals.items():
            n = merged.counts.get(name, 0)
            last_n, last_total = self._flushed.get(name, (0, 0.0))
            dn, dt = n - last_n, total - last_total
            if dn > 0 or dt > 0:
                stats.stat(f"pipeline.{name}").add(dt, dn)
                self._flushed[name] = (n, total)
                flushed[name] = dt
        return flushed
