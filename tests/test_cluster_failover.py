"""End-to-end cluster failover: live sockets, real workers, real deaths.

The degradation ladder under test, from least to most broken:

1. a healthy cluster serves bit-identical bytes to a direct source;
2. one dead replica → transparent failover, zero client-visible errors;
3. one shedding replica → ``BUSY`` re-routes, zero client-visible errors;
4. *every* replica of a range gone → a retryable ``NoReplicaError``
   tagged ``degraded`` that ``RetryingSource`` retries and, if the
   outage persists, the loader's ``bad_sample_policy`` absorbs —
   the epoch completes short rather than collapsing.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSource, ClusterWorker, Dispatcher, NoReplicaError
from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam
from repro.pipeline import DataLoader, ListSource
from repro.robust import RetryingSource, RetryPolicy
from repro.serve import protocol
from repro.serve.admission import AdmissionController, AdmissionPolicy

N = 24


@pytest.fixture(scope="module")
def blobs():
    cfg = deepcam.DeepcamConfig(height=16, width=24, n_channels=4)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(N, cfg, seed=3)
    return [plugin.encode(s.data, s.label) for s in ds]


@pytest.fixture()
def cluster(blobs):
    """Dispatcher + 3 workers, replication 2; yields all the handles."""
    dispatcher = Dispatcher(lease_s=0.5, replication=2, n_buckets=8).start()
    workers = [
        ClusterWorker(ListSource(blobs), dispatcher=dispatcher.address).start()
        for _ in range(3)
    ]
    try:
        yield dispatcher, workers
    finally:
        for w in workers:
            w.close(drain=False, timeout_s=2.0)
        dispatcher.close(drain=False, timeout_s=2.0)


def _counter(source, name):
    return dict(source.stats.snapshot()).get(name, (0, 0.0))[0]


class TestHealthyCluster:
    def test_reads_match_the_direct_source(self, blobs, cluster):
        dispatcher, _ = cluster
        with ClusterSource(dispatcher.address, timeout_s=2.0) as src:
            assert len(src) == N
            for i in range(N):
                assert src.read(i) == blobs[i]
            assert _counter(src, "cluster.reads") == N
            assert _counter(src, "cluster.failovers") == 0

    def test_epoch_shard_round_trip(self, cluster):
        from repro.serve import ShardPlan

        dispatcher, _ = cluster
        with ClusterSource(dispatcher.address, timeout_s=2.0) as src:
            shard = src.epoch_shard(0, 2)
            assert np.array_equal(shard, ShardPlan(N, seed=0).shard(0, 2))

    def test_distinct_salts_rotate_the_primary(self, cluster):
        """Dense client seeds split a range's load across its replicas."""
        dispatcher, _ = cluster
        with ClusterSource(dispatcher.address, timeout_s=2.0, seed=0) as a, \
                ClusterSource(dispatcher.address, timeout_s=2.0, seed=1) as b:
            table = a._refresh_table()
            index = 0
            ra = table.replicas(index)[(index + a._salt) % 2]
            rb = table.replicas(index)[(index + b._salt) % 2]
            assert ra != rb


class TestWorkerDeath:
    def test_failover_serves_identical_bytes(self, blobs, cluster):
        dispatcher, workers = cluster
        with ClusterSource(dispatcher.address, timeout_s=2.0) as src:
            before = [src.read(i) for i in range(N)]
            workers[0].close(drain=False, timeout_s=2.0)  # hard kill
            after = [src.read(i) for i in range(N)]
            assert after == before == blobs
            assert _counter(src, "cluster.failovers") > 0
            assert _counter(src, "cluster.no_replica") == 0

    def test_routing_version_bump_is_picked_up(self, cluster):
        import time

        dispatcher, workers = cluster
        with ClusterSource(dispatcher.address, timeout_s=2.0) as src:
            v0 = src.routing_version
            workers[1].close(drain=False, timeout_s=2.0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if not dispatcher.membership.sweep():
                    time.sleep(0.05)
                src._refresh_table(force=True)
                if src.routing_version > v0:
                    break
            assert src.routing_version > v0
            table = src._refresh_table(force=True)
            dead_id = workers[1].worker_id
            assert dead_id not in table.workers
            assert all(dead_id not in bs for bs in table.buckets)

    def test_all_replicas_dead_degrades_not_crashes(self, blobs):
        """The bottom of the ladder: retryable error → loader skip."""
        dispatcher = Dispatcher(lease_s=0.5, replication=2, n_buckets=4).start()
        workers = [
            ClusterWorker(
                ListSource(blobs), dispatcher=dispatcher.address
            ).start()
            for _ in range(2)
        ]
        plugin = DeepcamDeltaPlugin("cpu")
        try:
            src = ClusterSource(
                dispatcher.address, timeout_s=1.0, suspect_backoff_s=0.05
            )
            src.read(0)  # cluster is healthy first
            for w in workers:
                w.close(drain=False, timeout_s=2.0)
            with pytest.raises(NoReplicaError) as err:
                src.read(0)
            assert err.value.degraded is True
            assert err.value.retry_after_s > 0
            assert isinstance(err.value, OSError)  # retryable class

            # RetryingSource retries it; the outage persists, so the
            # loader absorbs the failure per bad_sample_policy and the
            # epoch completes (short), flagged under loader.degraded
            retrying = RetryingSource(
                src,
                RetryPolicy(
                    max_attempts=2, base_delay_s=0.001, max_delay_s=0.01
                ),
                seed=0,
            )
            loader = DataLoader(
                retrying,
                plugin,
                batch_size=4,
                bad_sample_policy="skip",
            )
            batches = list(loader.batches(0))
            assert batches == []  # every sample skipped, no crash
            assert len(loader.quarantine) == N
            degraded = dict(loader.stats.snapshot()).get(
                "loader.degraded", (0, 0.0)
            )[0]
            assert degraded == N  # accounted as brown-out, not corruption
            src.close()
        finally:
            dispatcher.close(drain=False, timeout_s=2.0)


class TestOverload:
    def test_busy_shed_reroutes_to_the_healthy_replica(self, blobs):
        shedding = AdmissionController(
            AdmissionPolicy(rate_per_client=0.1, burst=1.0)
        )
        dispatcher = Dispatcher(lease_s=5.0, replication=2).start()
        workers = [
            ClusterWorker(
                ListSource(blobs),
                dispatcher=dispatcher.address,
                admission=shedding if i == 0 else None,
            ).start()
            for i in range(2)
        ]
        try:
            with ClusterSource(dispatcher.address, timeout_s=2.0) as src:
                out = [src.read(i) for i in range(N)]
                assert out == blobs  # every read served despite the sheds
                assert _counter(src, "cluster.busy_sheds") > 0
                assert _counter(src, "cluster.failovers") == 0
        finally:
            for w in workers:
                w.close(drain=False, timeout_s=2.0)
            dispatcher.close(drain=False, timeout_s=2.0)


class TestBatchFallback:
    """``read_batch_slots`` falls back to scalar reads only for the
    "unsupported op" reply of an older peer; anything else raises."""

    def test_old_peer_falls_back_and_is_counted(self, blobs, cluster):
        dispatcher, workers = cluster
        for w in workers:
            serve = w.server._dispatch

            def old_peer(kind, body, peer, serve=serve):
                if kind == protocol.OP_READ_BATCH:
                    raise ValueError(f"unsupported op {kind:#x}")
                return serve(kind, body, peer)

            w.server._dispatch = old_peer
        with ClusterSource(dispatcher.address, timeout_s=2.0) as src:
            assert src.read_batch_slots(range(N)) == blobs
            assert _counter(src, "cluster.batch_fallbacks") >= 1
            assert _counter(src, "cluster.failovers") == 0

    def test_programming_error_propagates(self, blobs, cluster, monkeypatch):
        from repro.serve import RemoteSource

        def broken(self, indices):
            raise TypeError("batch bug")

        monkeypatch.setattr(RemoteSource, "read_batch_slots", broken)
        dispatcher, _ = cluster
        with ClusterSource(dispatcher.address, timeout_s=2.0) as src:
            with pytest.raises(TypeError, match="batch bug"):
                src.read_batch_slots(range(N))
            assert _counter(src, "cluster.batch_fallbacks") == 0


class TestWorkerReRegistration:
    def test_force_expired_worker_comes_back_with_same_id(self, cluster):
        import time

        dispatcher, workers = cluster
        victim = workers[2]
        wid = victim.worker_id
        from repro.cluster import dispatcher_call

        out = dispatcher_call(
            *dispatcher.address,
            protocol.OP_LEASE,
            {"action": "expire", "worker_id": wid},
        )
        assert out["expired"] is True
        # the worker's next heartbeat sees known=False and re-registers
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if wid in dispatcher.membership.alive():
                break
            time.sleep(0.05)
        assert wid in dispatcher.membership.alive()
        assert victim.worker_id == wid  # identity survived the restart
        assert victim.incarnation == 1
        assert _counter(victim, "worker.reregistrations") >= 1
