"""The batch plane, end to end: scatter-gather framing, batched sources,
executor batch mode, and the checks that hold every batched path
bit-identical to the scalar one.

Layered to match docs/batching.md:

* wire — ``frame_parts``/``send_frame``/``batch_reply_parts`` are
  wire-identical to the scalar framing and move payload buffers by
  reference (zero-copy regression tests assert buffer *identity*, not
  just equality);
* sources — ``read_batch``/``read_batch_slots`` equal a sequential read
  loop for every source, under arbitrary batch sizes, orderings and
  duplicated indices (Hypothesis property tests);
* executor/loader — ``batched_fetch=True`` yields bit-identical epochs
  for both codecs, legacy chains and compiled plans, across worker
  counts, decodes every sample exactly once, and keeps quarantine and
  raise semantics unchanged;
* tune — the cost model's batch-size axis amortizes the fixed fetch
  overhead and reproduces the scalar numbers at B=1.
"""
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.device import V100, SimulatedGpu
from repro.core.plugins import CosmoflowLutPlugin, DeepcamDeltaPlugin
from repro.datasets import cosmoflow, deepcam
from repro.pipeline import CachedSource, DataLoader, ListSource, TfRecordSource
from repro.pipeline.sources import read_batch, read_batch_slots
from repro.serve import DataServer, RemoteSource, protocol
from repro.storage import SampleCache, tfrecord


@pytest.fixture(scope="module")
def deepcam_fix():
    cfg = deepcam.DeepcamConfig(height=12, width=20, n_channels=4)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(10, cfg, seed=7)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


@pytest.fixture(scope="module")
def cosmo_fix():
    cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=3000)
    plugin = CosmoflowLutPlugin("cpu")
    ds = cosmoflow.generate_dataset(6, cfg, seed=9)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


# --------------------------------------------------------------------------
# wire framing
# --------------------------------------------------------------------------


class TestFrameParts:
    def test_wire_identical_to_pack_frame(self):
        parts = [b"abc", memoryview(b"defgh"), bytearray(b"ij"), b""]
        joined = b"".join(bytes(p) for p in parts)
        assert (
            b"".join(bytes(p) for p in protocol.frame_parts(protocol.ST_OK, parts))
            == protocol.pack_frame(protocol.ST_OK, joined)
        )

    def test_empty_parts_equal_empty_body(self):
        assert (
            b"".join(protocol.frame_parts(protocol.OP_INFO, []))
            == protocol.pack_frame(protocol.OP_INFO, b"")
        )

    def test_parts_enter_by_reference(self):
        """Zero-copy regression: the blob buffer itself is in the list."""
        blob = b"x" * 4096
        out = protocol.frame_parts(protocol.ST_OK, [blob])
        assert out[1] is blob

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            protocol.frame_parts(0x7F, [b""])

    def test_send_frame_round_trips_over_a_socket(self, deepcam_fix):
        _, blobs = deepcam_fix
        a, b = socket.socketpair()
        try:
            parts = [protocol._COUNT.pack(2), blobs[0], blobs[1]]
            sent = protocol.send_frame(a, protocol.ST_OK, parts)
            expect = b"".join(bytes(p) for p in parts)
            assert sent == protocol._HEAD.size + len(expect) + protocol._CRC.size
            kind, body = protocol.recv_frame(b, frame_timeout_s=5.0)
            assert kind == protocol.ST_OK
            assert body == expect
        finally:
            a.close()
            b.close()

    def test_send_frame_handles_many_small_buffers(self):
        """More parts than one sendmsg iovec batch still lands intact."""
        parts = [bytes([i % 251]) * 3 for i in range(2000)]
        a, b = socket.socketpair()
        try:
            b.settimeout(5.0)
            done = []
            import threading

            t = threading.Thread(
                target=lambda: done.append(
                    protocol.send_frame(a, protocol.ST_OK, parts)
                )
            )
            t.start()
            kind, body = protocol.recv_frame(b, frame_timeout_s=10.0)
            t.join(timeout=10.0)
            assert kind == protocol.ST_OK
            assert body == b"".join(parts)
        finally:
            a.close()
            b.close()


class TestBatchReplyBody:
    def _slots(self, blobs):
        err = protocol.pack_json({"error": "OSError", "message": "boom"})
        return [
            (protocol.SLOT_OK, blobs[0]),
            (protocol.SLOT_ERROR, err),
            (protocol.SLOT_OK, b""),
            (protocol.SLOT_OK, blobs[1]),
        ]

    def test_round_trip(self, deepcam_fix):
        _, blobs = deepcam_fix
        slots = self._slots(blobs)
        body = b"".join(bytes(p) for p in protocol.batch_reply_parts(slots))
        out = protocol.unpack_batch_reply(body)
        assert [(s, bytes(p)) for s, p in out] == [
            (s, bytes(p)) for s, p in slots
        ]

    def test_payloads_are_views_of_the_body(self, deepcam_fix):
        """Unpacking a batch reply never copies a payload."""
        _, blobs = deepcam_fix
        slots = self._slots(blobs)
        body = b"".join(bytes(p) for p in protocol.batch_reply_parts(slots))
        for _, payload in protocol.unpack_batch_reply(body):
            assert isinstance(payload, memoryview)
            assert payload.obj is body

    def test_reply_parts_hold_blobs_by_reference(self, deepcam_fix):
        _, blobs = deepcam_fix
        parts = protocol.batch_reply_parts([(protocol.SLOT_OK, blobs[3])])
        assert any(p is blobs[3] for p in parts)

    def test_empty_batch(self):
        body = b"".join(protocol.batch_reply_parts([]))
        assert protocol.unpack_batch_reply(body) == []

    def test_unknown_slot_status_rejected(self):
        with pytest.raises(ValueError):
            protocol.batch_reply_parts([(0x42, b"")])

    def test_truncated_and_overrun_bodies_are_protocol_errors(
        self, deepcam_fix
    ):
        _, blobs = deepcam_fix
        body = b"".join(
            bytes(p)
            for p in protocol.batch_reply_parts(
                [(protocol.SLOT_OK, blobs[0])]
            )
        )
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_batch_reply(b"\x01")  # shorter than the count
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_batch_reply(body[: protocol._COUNT.size + 2])
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_batch_reply(body[:-1])  # payload overruns
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_batch_reply(body + b"\x00")  # trailing bytes

    def test_indices_round_trip(self):
        for arr in ([], [0], [5, 3, 3, 9, 0]):
            got = protocol.unpack_indices(
                protocol.pack_indices(np.asarray(arr, dtype=np.int64))
            )
            assert got.tolist() == arr
            assert got.dtype == np.int64


# --------------------------------------------------------------------------
# batched sources
# --------------------------------------------------------------------------


class _Recorder:
    """Minimal source wrapper counting which read paths were exercised."""

    def __init__(self, blobs, with_batch=False, with_slots=False):
        self._blobs = list(blobs)
        self.reads = 0
        self.batch_calls = 0
        self.slot_calls = 0
        if with_batch:
            self.read_batch = self._read_batch
        if with_slots:
            self.read_batch_slots = self._read_batch_slots

    def __len__(self):
        return len(self._blobs)

    def read(self, index):
        self.reads += 1
        return self._blobs[index]

    def _read_batch(self, indices):
        self.batch_calls += 1
        return [self._blobs[int(i)] for i in indices]

    def _read_batch_slots(self, indices):
        self.slot_calls += 1
        return [self._blobs[int(i)] for i in indices]


class TestSourceBatchPlane:
    def test_list_source_read_batch(self, deepcam_fix):
        _, blobs = deepcam_fix
        src = ListSource(blobs)
        order = [3, 0, 3, 9, 1]
        assert src.read_batch(order) == [blobs[i] for i in order]
        with pytest.raises(IndexError):
            src.read_batch([0, len(blobs)])

    def test_tfrecord_source_read_batch(self, tmp_path, deepcam_fix):
        _, blobs = deepcam_fix
        path = tmp_path / "d.tfr"
        with tfrecord.TfRecordWriter(path) as w:
            for b in blobs:
                w.write(b)
        with TfRecordSource(path) as src:
            order = [9, 2, 2, 0, 5]
            assert src.read_batch(order) == [blobs[i] for i in order]
            assert src.read_batch([]) == []

    def test_cached_source_batches_only_the_misses(self, deepcam_fix):
        _, blobs = deepcam_fix
        inner = _Recorder(blobs, with_batch=True)
        src = CachedSource(inner, SampleCache(10**9))
        assert src.read_batch([0, 1, 2]) == blobs[:3]
        assert (inner.batch_calls, inner.reads) == (1, 0)
        # warm batch: served entirely from the cache, inner untouched
        assert src.read_batch([2, 0, 1]) == [blobs[2], blobs[0], blobs[1]]
        assert (inner.batch_calls, inner.reads) == (1, 0)
        # partial: one inner batched read for exactly the misses
        assert src.read_batch([1, 4, 0, 3]) == [
            blobs[1], blobs[4], blobs[0], blobs[3]
        ]
        assert (inner.batch_calls, inner.reads) == (2, 0)

    def test_helper_falls_back_to_a_read_loop(self, deepcam_fix):
        _, blobs = deepcam_fix
        plain = _Recorder(blobs)  # no batch methods at all
        assert read_batch(plain, [1, 1, 4]) == [blobs[1], blobs[1], blobs[4]]
        assert plain.reads == 3

    def test_helper_prefers_the_batched_method(self, deepcam_fix):
        _, blobs = deepcam_fix
        src = _Recorder(blobs, with_batch=True)
        assert read_batch(src, [0, 2]) == [blobs[0], blobs[2]]
        assert (src.batch_calls, src.reads) == (1, 0)

    def test_slots_helper_dispatches_to_native_slots(self, deepcam_fix):
        _, blobs = deepcam_fix
        src = _Recorder(blobs, with_batch=True, with_slots=True)
        assert read_batch_slots(src, [5, 6]) == [blobs[5], blobs[6]]
        assert (src.slot_calls, src.batch_calls) == (1, 0)

    def test_slots_helper_isolates_a_strict_batch_failure(self, deepcam_fix):
        """One bad index fails its slot, not its batch-mates."""
        _, blobs = deepcam_fix
        src = _Recorder(blobs, with_batch=True)
        bad = len(blobs) + 3
        slots = read_batch_slots(src, [1, bad, 4])
        assert slots[0] == blobs[1]
        assert isinstance(slots[1], IndexError)
        assert slots[2] == blobs[4]
        # the strict batched call failed once, then the per-index loop ran
        assert src.batch_calls == 1
        assert src.reads == 3

    def test_slots_helper_empty_batch(self, deepcam_fix):
        _, blobs = deepcam_fix
        assert read_batch_slots(ListSource(blobs), []) == []


class TestCacheZeroCopy:
    def test_get_view_returns_a_view_of_the_stored_blob(self, deepcam_fix):
        _, blobs = deepcam_fix
        cache = SampleCache(10**9)
        cache.put(0, blobs[0])
        view = cache.get_view(0)
        assert isinstance(view, memoryview)
        assert view.obj is blobs[0]  # zero-copy: not an owned copy
        assert bytes(view) == blobs[0]

    def test_get_view_miss_and_stats(self):
        cache = SampleCache(100)
        assert cache.get_view("absent") is None
        cache.put("k", b"abc")
        cache.get_view("k")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


# --------------------------------------------------------------------------
# property tests: read_batch ≡ sequential read
# --------------------------------------------------------------------------


class TestBatchReadProperties:
    @given(order=st.lists(st.integers(0, 9), max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_list_source_batch_equals_loop(self, deepcam_fix, order):
        _, blobs = deepcam_fix
        src = ListSource(blobs)
        expect = [src.read(i) for i in order]
        assert src.read_batch(order) == expect
        assert read_batch(src, order) == expect
        assert read_batch_slots(src, order) == expect

    @given(order=st.lists(st.integers(0, 9), max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_cached_source_batch_equals_loop(self, deepcam_fix, order):
        _, blobs = deepcam_fix
        # a cache that can only hold ~3 blobs: the property must hold
        # through evictions and partial-hit batches alike
        src = CachedSource(
            ListSource(blobs), SampleCache(3 * len(blobs[0]) + 1)
        )
        assert src.read_batch(order) == [blobs[i] for i in order]

    @given(order=st.lists(st.integers(0, 9), max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_tfrecord_source_batch_equals_loop(
        self, tmp_path_factory, deepcam_fix, order
    ):
        _, blobs = deepcam_fix
        path = tmp_path_factory.getbasetemp() / "prop.tfr"
        if not path.exists():
            with tfrecord.TfRecordWriter(path) as w:
                for b in blobs:
                    w.write(b)
        with TfRecordSource(path) as src:
            assert src.read_batch(order) == [blobs[i] for i in order]

    def test_batch_of_one_and_empty(self, deepcam_fix):
        _, blobs = deepcam_fix
        src = ListSource(blobs)
        assert src.read_batch([]) == []
        assert src.read_batch([7]) == [blobs[7]]
        assert read_batch_slots(src, [7]) == [blobs[7]]


# --------------------------------------------------------------------------
# executor / loader batch mode
# --------------------------------------------------------------------------


def _epoch_bytes(loader, epoch=0):
    return [
        (b.tobytes(), l.tobytes()) for b, l in loader.batches(epoch)
    ]


class TestLoaderBatchMode:
    @pytest.mark.parametrize("workers", [0, 3])
    @pytest.mark.parametrize(
        "fix,graph",
        [("deepcam_fix", None), ("cosmo_fix", None), ("cosmo_fix", True)],
        ids=["deepcam", "cosmoflow", "cosmoflow-plan"],
    )
    def test_batched_fetch_is_bit_identical(
        self, request, fix, graph, workers
    ):
        plugin, blobs = request.getfixturevalue(fix)

        def loader(**kw):
            return DataLoader(
                ListSource(blobs), plugin, batch_size=4, seed=3,
                graph=graph, **kw,
            )

        reference = _epoch_bytes(loader())
        batched = loader(num_workers=workers, batched_fetch=True)
        assert _epoch_bytes(batched) == reference
        snap = dict(batched.stats.snapshot())
        assert snap["executor.items"][0] == len(blobs)
        assert snap["executor.groups"][0] == -(-len(blobs) // 4)
        if graph:
            assert batched.plan is not None

    def test_batched_fetch_gpu_placement_identical(self):
        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=2500)
        plugin = CosmoflowLutPlugin("gpu")
        ds = cosmoflow.generate_dataset(6, cfg, seed=5)
        blobs = [plugin.encode(s.data, s.label) for s in ds]

        def run(batched):
            return _epoch_bytes(DataLoader(
                ListSource(blobs), plugin, batch_size=3, seed=1,
                device=SimulatedGpu(spec=V100), batched_fetch=batched,
            ))

        assert run(True) == run(False)

    def test_skip_policy_quarantines_identically(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        bad = list(blobs)
        bad[6] = b"garbage"

        def run(batched):
            dl = DataLoader(
                ListSource(bad), plugin, batch_size=4, seed=2,
                bad_sample_policy="skip", batched_fetch=batched,
            )
            return _epoch_bytes(dl), dl.quarantine.ids()

        scalar_rows, scalar_q = run(False)
        batch_rows, batch_q = run(True)
        assert batch_rows == scalar_rows
        assert batch_q == scalar_q == [6]

    def test_raise_policy_carries_the_sample_index(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        bad = list(blobs)
        bad[2] = b"garbage"
        dl = DataLoader(
            ListSource(bad), plugin, batch_size=5, shuffle=False,
            batched_fetch=True,
        )
        with pytest.raises(Exception) as exc_info:
            list(dl.batches(0))
        assert getattr(exc_info.value, "sample_index", None) == 2

    @pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
    def test_decode_runs_once_per_sample(
        self, deepcam_fix, monkeypatch, batched
    ):
        """Each sample is unpacked and decoded exactly once per epoch, a
        corrupt batch-mate included, and a programming error inside
        decode raises at its own sample's position."""
        from collections import Counter

        from repro.core.encoding import container

        _, blobs = deepcam_fix
        plugin = DeepcamDeltaPlugin("cpu")  # private: decode gets patched
        bad = list(blobs)
        bad[6] = b"garbage"  # third member of the group [4, 5, 6, 7]
        unpacked: Counter = Counter()
        decoded: Counter = Counter()
        unpack = container.unpack_sample
        decode = plugin.decode

        def counting_unpack(blob, *a, **kw):
            unpacked[bytes(blob)] += 1
            return unpack(blob, *a, **kw)

        def counting_decode(blob, device=None):
            decoded[bytes(blob)] += 1
            return decode(blob, device)

        monkeypatch.setattr(container, "unpack_sample", counting_unpack)
        monkeypatch.setattr(plugin, "decode", counting_decode)
        dl = DataLoader(
            ListSource(bad), plugin, batch_size=4, shuffle=False,
            bad_sample_policy="skip", batched_fetch=batched,
        )
        for epoch in (1, 2):
            delivered = sum(len(b) for b, _ in dl.batches(epoch))
            assert delivered == len(bad) - 1
            once = {blob: epoch for blob in bad}
            assert unpacked == once
            assert decoded == once
        assert dl.quarantine.ids() == [6]

        def broken_decode(blob, device=None):
            if blob == blobs[5]:
                raise TypeError("decode bug")
            return decode(blob, device)

        monkeypatch.setattr(plugin, "decode", broken_decode)
        dl = DataLoader(
            ListSource(blobs), plugin, batch_size=4, shuffle=False,
            batched_fetch=batched,
        )
        seen = []
        with pytest.raises(TypeError) as exc_info:
            for batch, _ in dl.batches(0):
                seen.append(len(batch))
        assert exc_info.value.sample_index == 5
        assert seen == [4]  # samples 0-3 delivered, then the raise

    def test_reconfigure_retunes_fetch_granularity(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        dl = DataLoader(
            ListSource(blobs), plugin, batch_size=2, seed=4,
            batched_fetch=True,
        )
        reference = _epoch_bytes(
            DataLoader(ListSource(blobs), plugin, batch_size=5, seed=4)
        )
        dl.reconfigure(batch_size=5)
        assert dl.executor.fetch_batch_size == 5
        assert _epoch_bytes(dl) == reference

    def test_remote_batched_epoch_bit_identical(self, deepcam_fix):
        """One READ_BATCH round-trip per training batch over a real
        server, byte-equal to the all-local scalar epoch."""
        plugin, blobs = deepcam_fix
        reference = _epoch_bytes(
            DataLoader(ListSource(blobs), plugin, batch_size=4, seed=6)
        )
        with DataServer(ListSource(blobs)) as server:
            remote = RemoteSource(*server.address)
            dl = DataLoader(
                remote, plugin, batch_size=4, seed=6, batched_fetch=True,
            )
            got = _epoch_bytes(dl)
            snap = dict(remote.stats.snapshot())
            remote.close()
        assert got == reference
        assert snap["remote.read_batch"][0] == 3  # one per batch


# --------------------------------------------------------------------------
# tune: the batch-size axis
# --------------------------------------------------------------------------


class TestTuneBatchAxis:
    def _space(self):
        from repro.tune.search import resolve_machine, workload_space

        return resolve_machine("summit"), workload_space("deepcam")

    def test_fetch_overhead_amortizes_with_batch_size(self):
        from repro.tune.costmodel import predict_throughput

        machine, space = self._space()
        cost = space.costs["base"]
        small = space.config("base", batch_size=1)
        big = space.config("base", batch_size=32)
        p1 = predict_throughput(
            machine, space.workload, cost, small, 2048,
            fetch_overhead_s=2e-3,
        )
        p32 = predict_throughput(
            machine, space.workload, cost, big, 2048,
            fetch_overhead_s=2e-3,
        )
        assert p32.steady_samples_per_s > p1.steady_samples_per_s
        # without the fixed overhead there is nothing to amortize: the
        # B=1 prediction must equal the overhead-free one exactly
        bare = predict_throughput(machine, space.workload, cost, small, 2048)
        zero = predict_throughput(
            machine, space.workload, cost, small, 2048, fetch_overhead_s=0.0
        )
        assert bare.steady_samples_per_s == zero.steady_samples_per_s

    def test_negative_overhead_rejected(self):
        from repro.tune.costmodel import predict_throughput

        machine, space = self._space()
        with pytest.raises(ValueError):
            predict_throughput(
                machine, space.workload, space.costs["base"],
                space.config("base"), 2048, fetch_overhead_s=-1.0,
            )

    def test_tune_picks_the_amortizing_batch_size(self):
        from repro.tune.search import tune

        machine, space = self._space()
        res = tune(
            machine, space, seed=0, validate=False,
            batch_sizes=(1, 4, 32), fetch_overhead_s=2e-3,
        )
        assert res.best.config.batch_size == 32

    def test_without_the_axis_batch_size_stays_fixed(self):
        from repro.tune.search import tune

        machine, space = self._space()
        res = tune(machine, space, seed=0, validate=False, batch_size=6)
        assert res.best.config.batch_size == 6

