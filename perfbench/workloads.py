"""The three closed-loop training-feed workloads.

Each workload generates its inputs from the seed (input generation is
not part of any metric), builds its data path on demand with
:meth:`Workload.open` -- the store, the sources, the loader and, for
``serve_raw``, the server process -- and knows the exact tensor every
sample must decode to.  ``open`` is what ``setup_s`` times, together
with the warm-up epoch the harness runs on the returned session.

With a :class:`~tracer.Tracer`, ``open`` also installs span wrappers on
the objects it builds (sources, plugin, writer); :func:`patch_modules`
wraps the module-level codec functions.  Both are undone when the
traced run ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import selectors
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.encoding import container
from repro.core.plugins.cosmoflow import CosmoflowLutPlugin
from repro.core.plugins.deepcam import DeepcamBaselinePlugin, DeepcamDeltaPlugin
from repro.datasets import cosmoflow, deepcam
from repro.ingest import IngestWriter, ManifestSource
from repro.pipeline.loader import DataLoader
from repro.robust import RetryingSource
from repro.serve import RemoteSource
from repro.simulate.machine import SUMMIT
from repro.tiering import TieredSource, build_hierarchy
from repro.util.rng import make_rng

__all__ = ["WORKLOADS", "bit_equal", "patch_modules"]

SRC = Path(__file__).resolve().parent.parent / "src"


def patch_modules(tracer) -> None:
    """Wrap the codec and compiler functions the plugins and loader call."""
    import repro.core.encoding.lut as lut
    import repro.core.plugins.cosmoflow as cf_plugin
    import repro.core.plugins.deepcam as dc_plugin
    import repro.graph.compiler as compiler

    tracer.patch(container, "unpack_sample", "encoding.unpack")
    tracer.patch(dc_plugin, "decode_image_fast", "encoding.delta_decode")
    tracer.patch(dc_plugin, "decode_images_fast", "encoding.delta_decode")
    tracer.patch(lut, "apply_to_tables", "encoding.lut_table")
    tracer.patch(cf_plugin, "decode_sample", "encoding.lut_gather")
    tracer.patch(cf_plugin, "decode_samples", "encoding.lut_gather")
    tracer.patch(compiler, "compile_graph", "graph.compile")


def _trace(tracer, obj, attr: str, name: str, **kw) -> None:
    if tracer is not None and hasattr(obj, attr):
        tracer.patch(obj, attr, name, **kw)


def _trace_plugin(tracer, plugin) -> None:
    _trace(tracer, plugin, "encode", "encoding.encode")
    for attr in ("decode", "decode_batch", "decode_fused"):
        _trace(tracer, plugin, attr, "plugins.decode")


def _trace_writer(tracer, writer) -> None:
    _trace(tracer, writer, "append_sample", "ingest.append")
    _trace(tracer, writer, "publish", "ingest.publish")


def _trace_manifest_source(tracer, source) -> None:
    _trace(tracer, source, "read", "ingest.read", index_arg=True, sized=True)
    _trace(tracer, source, "read_batch", "ingest.read_batch", index_arg=True)


def _digest(tensor: np.ndarray, label: np.ndarray) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(tensor.tobytes())
    h.update(label.tobytes())
    return h.digest()


def _deepcam_samples(n: int, config, seed: int):
    return [(s.data, s.label) for s in deepcam.generate_dataset(n, config, seed)]


def shuffled_order(n: int, seed: int, epoch: int) -> np.ndarray:
    """The loader's own seeded shuffle over ``n`` samples."""
    order = np.arange(n)
    make_rng(seed + epoch).shuffle(order)
    return order


class Session:
    """One built data path: what the harness drives epoch after epoch.

    ``open`` registers a closer for every resource as it acquires it, so
    a set-up that fails half way releases what it already holds.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.loader: DataLoader | None = None
        #: (samples, seconds) of the store build: encode, append, publish
        self.build: tuple[int, float] = (0, 0.0)
        #: (samples, seconds) of every later ingest step, re-pin included
        self.ingest: list[tuple[int, float]] = []
        self._closers: list = []

    def before_epoch(self) -> None:
        """Work the trainer does at the start of each epoch (timed)."""

    def after_epoch(self, epoch: int) -> None:
        """Work between epochs, outside the timed interval."""

    def counters(self) -> dict[str, int]:
        """Counters the program keeps for this data path (hits, misses…)."""
        return {}

    def on_close(self, closer) -> None:
        self._closers.append(closer)

    def close(self) -> None:
        while self._closers:
            self._closers.pop()()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:  # only a failed set-up closes here
            self.close()


def _write_store(root: Path, plugin, fingerprint: dict, samples, tracer):
    """Encode every sample into a fresh ingest directory and publish it.

    Returns the open writer, the manifest and ``(samples, seconds)``.
    """
    if root.exists():
        raise FileExistsError(f"store {root} exists; set-ups need a fresh one")
    writer = IngestWriter(root, fingerprint=fingerprint)
    _trace_writer(tracer, writer)
    t0 = perf_counter()
    for data, label in samples:
        writer.append_sample(plugin, data, label)
    manifest = writer.publish()
    return writer, manifest, (len(samples), perf_counter() - t0)


class Workload:
    """Inputs, data path and expected outputs of one workload."""

    name = ""
    batch_size = 1
    n_samples = 0
    #: set-ups per untraced run; ``setup_s`` is their median
    setups = 3
    #: mean encoded container size of the initial store
    stored_bytes = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.samples: list[tuple[np.ndarray, np.ndarray]] = []
        self._expected: list[tuple[np.ndarray, np.ndarray, bytes]] = []

    def generate(self) -> None:
        """Make the raw inputs from the seed."""
        raise NotImplementedError

    def open(self, root: Path, tracer=None) -> Session:
        """Build the data path on a fresh store directory ``root``."""
        raise NotImplementedError

    def expected_tensor(self, index: int, blob: bytes) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def all_samples(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self.samples

    def prepare_expected(self, blobs: list[bytes]) -> None:
        """Expected ``(tensor, label, digest)`` of every sample index.

        ``blobs`` are the stored containers of the initial store; samples
        appended later are checked against their raw fields only.
        """
        self.stored_bytes = sum(map(len, blobs)) / len(blobs)
        self._expected = []
        for i in range(len(self.all_samples())):
            blob = blobs[i] if i < len(blobs) else None
            tensor, label = self.expected_tensor(i, blob)
            self._expected.append((tensor, label, _digest(tensor, label)))

    @property
    def prepared(self) -> bool:
        return bool(self._expected)

    def expected(self, index: int):
        return self._expected[index]

    def reference_check(self, blobs: list[bytes]) -> int:
        """Mismatches against an independent decoder (0 when there is none)."""
        return 0

    def output_bytes(self) -> int:
        """Computed bytes of one decoded sample."""
        return int(self._expected[0][0].nbytes)

    def working_set_mb(self) -> float:
        """Encoded dataset plus one epoch of decoded output."""
        n = len(self.all_samples())
        return (self.stored_bytes + self.output_bytes()) * n / 1e6


class DeepcamDecode(Workload):
    """DeepCAM delta codec, CPU decode, batch plane, no cache, no wire."""

    name = "deepcam_decode"
    batch_size = 8
    n_samples = 32
    config = deepcam.DeepcamConfig(height=128, width=192, n_channels=16)
    #: samples per run also decoded by the loop-based reference decoder
    reference_samples = 2

    def generate(self) -> None:
        self.samples = _deepcam_samples(self.n_samples, self.config, self.seed)

    def open(self, root: Path, tracer=None) -> Session:
        plugin = DeepcamDeltaPlugin(placement="cpu")
        _trace_plugin(tracer, plugin)
        with Session(root) as session:
            writer, manifest, session.build = _write_store(
                root, plugin, {"plugin": "deepcam-delta-cpu", "shape": [16, 128, 192]},
                self.samples, tracer,
            )
            writer.close()
            source = ManifestSource(root, manifest)
            session.on_close(source.close)
            _trace_manifest_source(tracer, source)
            session.loader = DataLoader(
                source, plugin, batch_size=self.batch_size, shuffle=True,
                seed=self.seed, num_workers=0, batched_fetch=True,
            )
        return session

    def expected_tensor(self, index, blob):
        # per-sample scalar decode by a plugin the loader never saw
        tensor, _ = DeepcamDeltaPlugin(placement="cpu").decode(blob)
        return tensor, self.samples[index][1]

    def reference_check(self, blobs) -> int:
        from repro.conformance.reference import decode_delta_reference

        rng = make_rng(self.seed + 7919)
        picks = rng.choice(len(blobs), size=self.reference_samples, replace=False)
        bad = 0
        for i in picks.tolist():
            _, channels, _, _ = container.unpack_sample(blobs[i])
            ref = np.stack([decode_delta_reference(ch) for ch in channels])
            if not bit_equal(ref, self._expected[i][0]):
                bad += 1
        return bad


class CosmoflowIngest(Workload):
    """CosmoFlow LUT codec through a half-size RAM tier, with live ingest."""

    name = "cosmoflow_ingest"
    batch_size = 4
    n_samples = 12
    config = cosmoflow.CosmoflowConfig(grid=64)
    #: samples each session appends after its first timed epoch
    ingest_samples = 2

    def generate(self) -> None:
        made = cosmoflow.generate_dataset(
            self.n_samples + self.ingest_samples, self.config, self.seed
        )
        self.samples = [(s.data, s.label) for s in made[: self.n_samples]]
        self.extra = [(s.data, s.label) for s in made[self.n_samples:]]

    def all_samples(self):
        return self.samples + self.extra

    def open(self, root: Path, tracer=None) -> Session:
        plugin = CosmoflowLutPlugin(placement="cpu")
        _trace_plugin(tracer, plugin)
        with _CosmoflowSession(root, self, plugin, tracer) as session:
            session.writer, manifest, session.build = _write_store(
                root, plugin, {"plugin": "cosmoflow-lut-cpu", "grid": 64},
                self.samples, tracer,
            )
            session.on_close(session.writer.close)
            source = ManifestSource(root, manifest)
            _trace_manifest_source(tracer, source)
            encoded = sum(e.end_offset for e in manifest.shards)
            # LFU keeps a stable resident half, so about half the reads miss,
            # admit and evict (LRU under a shuffled epoch would miss nearly all)
            manager = build_hierarchy(
                SUMMIT, ram_budget_bytes=encoded / 2, nvme_budget_bytes=0,
                policy="lfu",
            )
            session.tiered = TieredSource(source, manager)
            session.on_close(lambda: session.tiered.inner.close())
            _trace(tracer, session.tiered, "read", "tiering.read", index_arg=True)
            _trace(tracer, session.tiered, "end_epoch", "tiering.end_epoch")
            # one loader thread: with two on a 2-core host the batch-wait
            # tail follows the neighbours' load (p90 +78% when a busy loop
            # takes one core, against +7% with one thread)
            session.loader = DataLoader(
                session.tiered, plugin, batch_size=self.batch_size, shuffle=True,
                seed=self.seed, num_workers=1, graph=True,
            )
        return session

    def expected_tensor(self, index, blob):
        counts, label = self.all_samples()[index]
        return np.log1p(counts.astype(np.float32)).astype(np.float16), label


class _CosmoflowSession(Session):
    """Adds the tier's epoch hook and the ingest step after epoch 1."""

    def __init__(self, root: Path, workload: CosmoflowIngest, plugin, tracer) -> None:
        super().__init__(root)
        self.plugin = plugin
        self.tracer = tracer
        self.seed = workload.seed
        self.extra = workload.extra
        self.writer: IngestWriter | None = None
        self.tiered: TieredSource | None = None

    def counters(self) -> dict[str, int]:
        snap = self.tiered.manager.stats.snapshot()
        return {
            "tier_hits": snap.get("tiers.ram.hits", (0, 0.0))[0],
            "tier_misses": snap.get("tiers.misses", (0, 0.0))[0],
            # every admit charges one modeled write to the level
            "tier_admits": snap.get("tiers.ram.write_s", (0, 0.0))[0],
            "tier_evictions": snap.get("tiers.evicted", (0, 0.0))[0],
        }

    def before_epoch(self) -> None:
        # the finished epoch's accesses drive migration, as in training
        self.tiered.end_epoch()

    def after_epoch(self, epoch: int) -> None:
        if epoch != 1:
            return
        t0 = perf_counter()
        for data, label in self.extra:
            self.writer.append_sample(self.plugin, data, label)
        manifest = self.writer.publish()
        source = ManifestSource(self.root, manifest)
        _trace_manifest_source(self.tracer, source)
        old = self.tiered.inner
        self.tiered.repoint(source)
        old.close()
        self.loader.reconfigure(
            order_fn=functools.partial(shuffled_order, len(source), self.seed)
        )
        self.ingest.append((len(self.extra), perf_counter() - t0))


def _normalize_reference(raw: np.ndarray) -> np.ndarray:
    """``(raw - mean) / std`` per channel in FP32, from the raw field."""
    flat = raw.reshape(raw.shape[0], -1).astype(np.float64)
    mean = flat.mean(axis=1)
    std = flat.std(axis=1)
    std = np.where(std < 1e-12, 1.0, std)
    mean = mean.astype(np.float32)[:, None, None]
    std = std.astype(np.float32)[:, None, None]
    return ((raw.astype(np.float32) - mean) / std).astype(np.float32)


def _start_server(root: Path, cache_mb: float, seed: int, timeout_s: float = 60.0):
    """``repro serve --ingest-dir`` in its own process; returns (proc, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--ingest-dir", str(root),
         "--host", "127.0.0.1", "--port", "0", "--cache-mb", repr(cache_mb),
         "--seed", str(seed), "--json"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout_s):
                raise TimeoutError("server did not report its port")
        line = proc.stdout.readline()
        port = int(json.loads(line)["port"])
    except BaseException:
        _stop_server(proc)
        raise
    return proc, port


def _stop_server(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


class ServeRaw(Workload):
    """Raw FP32 baseline served over the wire from a warm server cache."""

    name = "serve_raw"
    batch_size = 16
    n_samples = 256
    setups = 5  # a set-up is short and dominated by the server start
    config = deepcam.DeepcamConfig(height=32, width=48, n_channels=16)

    def generate(self) -> None:
        self.samples = _deepcam_samples(self.n_samples, self.config, self.seed)

    def open(self, root: Path, tracer=None) -> Session:
        plugin = DeepcamBaselinePlugin()
        _trace_plugin(tracer, plugin)
        with _ServeSession(root) as session:
            writer, manifest, session.build = _write_store(
                root, plugin, {"plugin": "deepcam-base", "shape": [16, 32, 48]},
                self.samples, tracer,
            )
            writer.close()
            encoded = sum(e.end_offset for e in manifest.shards)
            cache_mb = 2 * encoded / 1e6 + 1  # the whole dataset stays cached
            sp = tracer.begin("serve.start") if tracer is not None else None
            proc, port = _start_server(root, cache_mb, self.seed)
            session.on_close(lambda: _stop_server(proc))
            session.remote = RemoteSource("127.0.0.1", port, seed=self.seed)
            session.on_close(session.remote.close)
            if sp is not None:
                tracer.end(sp)
            _trace(tracer, session.remote, "read", "serve.rpc",
                   index_arg=True, sized=True)
            source = RetryingSource(session.remote, seed=self.seed)
            _trace(tracer, source, "read", "robust.read", index_arg=True)
            # one loader thread, as on cosmoflow_ingest: the client's two
            # threads plus the server left no core free, and ten interleaved
            # pairs spread 0.15 (two) against 0.05 (one) in p90 batch wait
            session.loader = DataLoader(
                source, plugin, batch_size=self.batch_size, shuffle=True,
                seed=self.seed, num_workers=1,
            )
        return session

    def expected_tensor(self, index, blob):
        raw, label = self.samples[index]
        return _normalize_reference(raw), label


class _ServeSession(Session):
    remote: RemoteSource | None = None

    def counters(self) -> dict[str, int]:
        cache = self.remote.stats_report()["cache"]
        return {"cache_hits": cache["hits"], "cache_misses": cache["misses"]}


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bits (so ``-0.0`` differs from ``0.0``)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    width = f"u{a.dtype.itemsize}"
    return bool(
        np.array_equal(
            np.ascontiguousarray(a).view(width), np.ascontiguousarray(b).view(width)
        )
    )


WORKLOADS = {w.name: w for w in (DeepcamDecode, CosmoflowIngest, ServeRaw)}
