"""Single-client throughput of the batch plane: READ_BATCH vs READ.

The claim to hold: batched fetch amortizes the fixed per-round-trip cost
of the data service — one ``READ_BATCH`` frame carries 32 container
blobs, so a single trainer client pays the wire latency once per batch
instead of once per sample.  Decode stays per sample on both sides.

Methodology note — as in ``bench_serve_throughput.py``, loopback has
essentially no latency, so the server's ``service_delay_s`` knob stands
in for the per-request remote link cost (2 ms here).  That delay is paid
*once per request frame* regardless of how many blobs it carries, which
is exactly the fixed cost the batch plane exists to amortize; a batch
plane that secretly issued scalar reads would show 1×.  The gate asserts
**≥3× single-client samples/s at batch 32 vs batch 1** (measured here:
≈20×), and that both epochs are bit-identical — speed never buys a
different training input.

Run with ``pytest benchmarks/bench_batch_throughput.py -s`` to print the
measured numbers; the run recorded in CHANGES.md used this module.
"""

from time import perf_counter

import pytest

from bench_util import record_bench
from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam
from repro.pipeline import DataLoader, ListSource
from repro.serve import DataServer, RemoteSource
from repro.storage.cache import SampleCache

N_SAMPLES = 64
#: simulated per-frame remote-link latency (see module docstring)
SERVICE_DELAY_S = 0.002


@pytest.fixture(scope="module")
def fixture():
    cfg = deepcam.DeepcamConfig(height=32, width=48, n_channels=8)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(N_SAMPLES, cfg, seed=0)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


def _epoch(source, plugin, batch_size, batched_fetch):
    loader = DataLoader(
        source, plugin, batch_size=batch_size, seed=1,
        batched_fetch=batched_fetch,
    )
    rows = []
    for batch, labels in loader.batches(0):
        rows.extend(
            (b.tobytes(), l.tobytes()) for b, l in zip(batch, labels)
        )
    return rows


def _rate(host, port, plugin, batch_size, batched_fetch, repeats=3):
    """Best-of-N single-client epoch samples/s, and the epoch's bytes."""
    best, rows = 0.0, None
    for _ in range(repeats):
        with RemoteSource(host, port) as src:
            t0 = perf_counter()
            rows = _epoch(src, plugin, batch_size, batched_fetch)
            best = max(best, N_SAMPLES / (perf_counter() - t0))
    return best, rows


def test_batched_fetch_amortizes_the_round_trip(fixture):
    plugin, blobs = fixture
    reference = _epoch(ListSource(blobs), plugin, 32, False)
    with DataServer(
        ListSource(blobs),
        cache=SampleCache(1e9),
        service_delay_s=SERVICE_DELAY_S,
    ) as server:
        host, port = server.address
        _rate(host, port, plugin, 32, True, repeats=1)  # warm the cache
        scalar, scalar_rows = _rate(host, port, plugin, 1, False)
        batched, batched_rows = _rate(host, port, plugin, 32, True)
    speedup = batched / scalar
    print(
        f"\nsingle client, {SERVICE_DELAY_S * 1e3:.0f} ms simulated link: "
        f"batch 1 (scalar READ) {scalar:.0f} samples/s, "
        f"batch 32 (READ_BATCH) {batched:.0f} samples/s — {speedup:.1f}x"
    )
    record_bench(
        "batch",
        {
            "scalar_samples_per_s": round(scalar, 1),
            "batched_samples_per_s": round(batched, 1),
            "speedup": round(speedup, 2),
            "service_delay_ms": SERVICE_DELAY_S * 1e3,
        },
    )
    # speed never buys different bytes: both remote epochs reproduce the
    # all-local decode bit for bit (order differs with batch size only
    # through the shared seed, so compare as multisets of samples)
    assert sorted(batched_rows) == sorted(reference)
    assert sorted(scalar_rows) == sorted(reference)
    assert speedup >= 3.0, (
        f"READ_BATCH at batch 32 delivered only {speedup:.2f}x the scalar "
        f"rate; the batch plane is not amortizing the round-trip"
    )


def test_local_source_batching_for_the_record(fixture):
    """Ungated: the batch plane over an in-process source (no wire to
    amortize — records the pure vectorized-decode effect)."""
    plugin, blobs = fixture

    def run(batched):
        t0 = perf_counter()
        rows = _epoch(ListSource(blobs), plugin, 32, batched)
        return N_SAMPLES / (perf_counter() - t0), rows

    scalar, a = run(False)
    batched, b = run(True)
    print(
        f"\nlocal in-process source: scalar {scalar:.0f}, "
        f"batched {batched:.0f} samples/s ({batched / scalar:.2f}x)"
    )
    assert a == b  # same order, same bytes
    assert batched > 0 and scalar > 0
