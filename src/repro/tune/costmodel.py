"""Analytical cost model: predict epoch throughput for a knob vector.

The discrete-event simulator (:mod:`repro.simulate.trainsim`) answers
"how fast is configuration X" in ~100 ms; the search driver needs that
answer thousands of times.  This module gives the microsecond version: a
bottleneck analysis over the same per-sample cost terms and the same
:class:`~repro.simulate.machine.MachineSpec` bandwidths the simulator
uses, so the two agree by construction wherever pipelining hides
everything but the binding stage.

Steady-state node throughput is ``min`` over the stage capacities:

* **storage** — one node-wide tier (NVMe staged / PFS unstaged) serving
  the cache-miss fraction of reads;
* **cpu** — the worker-core pool running gunzip + per-element
  preprocessing;
* **loader** — each worker's *serial* read→preprocess chain (matters
  when ``num_workers`` is small even though the pool has spare cores);
* **link** — per-GPU pageable H2D transfer of one batch;
* **gpu** — on-device decode + training compute + the allreduce
  rendezvous.

The cold (epoch-0) capacity is the same analysis at miss-rate 1.  The
prefetch depth does not change steady-state throughput (a bounded queue
only shifts who waits) — it enters through the host-memory footprint,
which the search uses as a tie-breaker, and through the online
controller, which tunes it against observed stalls on the *real*
executor where jitter makes depth matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.accel.device import V100
from repro.accel.transfer import transfer_time
from repro.core.plugins.base import SampleCost
from repro.simulate.machine import MachineSpec
from repro.simulate.trainsim import WorkloadSpec
from repro.storage.filesystem import read_time

__all__ = [
    "TuneConfig",
    "Prediction",
    "predict_throughput",
    "host_ram_tierspec",
    "machine_tier_specs",
    "expected_read_seconds",
]


@dataclass(frozen=True)
class TuneConfig:
    """One candidate pipeline configuration (the tuner's search point).

    ``plugin`` is the representation key of the workload's cost table
    (``base``/``gzip``/``plugin`` for CosmoFlow, ``base``/``cpu``/``gpu``
    for DeepCAM); ``placement`` and ``gzip_level`` must be consistent
    with it — :meth:`repro.tune.search.TuneSpace.config` builds
    consistent instances.
    """

    plugin: str
    placement: str = "cpu"  # where decode (incl. fused preprocessing) runs
    staged: bool = True  # sample placement tier: node NVMe vs shared PFS
    num_workers: int = 4  # loader workers per GPU
    prefetch_depth: int = 4
    cache_fraction: float = 0.45  # host-memory share given to the sample cache
    batch_size: int = 4
    gzip_level: float = 0.0  # >0: on-disk size factor of the gzip variant

    def __post_init__(self) -> None:
        if self.placement not in ("cpu", "gpu"):
            raise ValueError("placement must be 'cpu' or 'gpu'")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.cache_fraction <= 1:
            raise ValueError("cache_fraction must be in (0, 1]")
        if not 0 <= self.gzip_level < 1:
            raise ValueError("gzip_level is an on-disk size fraction in [0,1)")

    def describe(self) -> str:
        """Compact one-line summary for tables/logs."""
        return (
            f"{self.plugin}/{self.placement} "
            f"{'staged' if self.staged else 'unstaged'} "
            f"w{self.num_workers} d{self.prefetch_depth} "
            f"c{self.cache_fraction:.0%}"
        )


@dataclass(frozen=True)
class Prediction:
    """Cost-model output for one configuration."""

    steady_samples_per_s: float  # post-warm-up node throughput
    cold_samples_per_s: float  # epoch-0 (all reads miss) node throughput
    bottleneck: str  # stage with the smallest steady capacity
    caps: dict = field(default_factory=dict)  # stage -> samples/s capacity
    hit_rate: float = 0.0
    footprint_bytes: float = 0.0  # per-node host memory for buffers/workers


def host_ram_tierspec(machine: MachineSpec) -> "TierSpec":
    """The host-RAM row of a machine, as a storage-tier spec.

    :class:`MachineSpec` models RAM through ``host_mem_gb`` +
    ``cpu.mem_bw_gbps``; the tier hierarchy (:mod:`repro.tiering`) wants
    it in the same :class:`~repro.storage.filesystem.TierSpec` shape as
    the NVMe and PFS rows so one read-time formula covers all levels.
    Capacity is the cache share of host memory — the rest belongs to the
    framework, model replicas and the OS.
    """
    from repro.storage.filesystem import TierSpec

    return TierSpec(
        name=f"{machine.name.lower()}-ram",
        read_bw_gbps=machine.cpu.mem_bw_gbps,
        write_bw_gbps=machine.cpu.mem_bw_gbps,
        latency_s=100e-9,
        capacity_bytes=machine.cache_bytes,
    )


def machine_tier_specs(machine: MachineSpec) -> tuple:
    """The full storage hierarchy of a machine, fastest first: RAM, NVMe, PFS."""
    return (host_ram_tierspec(machine), machine.nvme, machine.pfs)


def expected_read_seconds(specs, fractions, nbytes: float) -> float:
    """Expected per-sample read time over a tier hit-rate mix.

    ``fractions[i]`` is the share of reads served by ``specs[i]`` (they
    must sum to 1); the result is the probability-weighted read time of
    an ``nbytes`` sample.  This is the term the tier rebalancer minimizes
    when it re-splits capacity budgets, and the multi-tier refinement of
    the single-``read_s`` storage term in :func:`predict_throughput`.
    """
    if len(specs) != len(fractions):
        raise ValueError("need one fraction per tier spec")
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")
    total = sum(fractions)
    if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
        raise ValueError(f"fractions must sum to 1, got {total}")
    return sum(
        f * read_time(spec, int(nbytes))
        for spec, f in zip(specs, fractions)
        if f > 0
    )


def _capacities(
    m: MachineSpec,
    cfg: TuneConfig,
    miss_rate: float,
    read_s: float,
    cpu_s: float,
    h2d_batch_s: float,
    gpu_batch_s: float,
) -> dict[str, float]:
    P = m.gpus_per_node
    inf = math.inf
    storage = inf
    if miss_rate > 0 and read_s > 0:
        storage = 1.0 / (miss_rate * read_s)
    pool = max(1, min(cfg.num_workers * P, m.cpu.cores))
    cpu = pool / cpu_s if cpu_s > 0 else inf
    chain_s = miss_rate * read_s + cpu_s
    loader = cfg.num_workers * P / chain_s if chain_s > 0 else inf
    link = P * cfg.batch_size / h2d_batch_s if h2d_batch_s > 0 else inf
    gpu = P * cfg.batch_size / gpu_batch_s if gpu_batch_s > 0 else inf
    return {
        "storage": storage,
        "cpu": cpu,
        "loader": loader,
        "link": link,
        "gpu": gpu,
    }


def predict_throughput(
    machine: MachineSpec,
    workload: WorkloadSpec,
    cost: SampleCost,
    config: TuneConfig,
    samples_per_gpu: int,
    plan=None,
    fetch_overhead_s: float = 0.0,
) -> Prediction:
    """Predict node throughput (samples/s) for ``config``.

    Mirrors :func:`repro.simulate.trainsim.simulate_node` term for term —
    same cache-fit logic, same per-sample costs, same link curve, same
    allreduce formula — replacing the event simulation with a bottleneck
    ``min``.  ``tests/test_tune.py`` holds the two within 15 % on the
    tuned configurations.

    ``plan`` optionally scores a compiled preprocessing plan
    (:class:`repro.graph.compiler.CompiledPlan`, duck-typed on
    ``sample_cost``): the plan reshapes ``cost`` — unfused elementwise
    passes, filters left after decode, per-epoch work — so candidate
    rewrites of the same graph rank against each other and ``tune()``
    can pick the best compiled plan.

    ``fetch_overhead_s`` is the *fixed* cost of one fetch operation —
    a data-service wire round-trip, a seek+lock pass, a cache lookup
    barrage — paid once per batched fetch regardless of its size.  The
    batch plane (``DataLoader(batched_fetch=True)``) issues one fetch
    per ``batch_size`` samples, so the per-sample charge is
    ``fetch_overhead_s / batch_size``: the amortization term that lets
    ``tune(batch_sizes=...)`` trade queue memory against round-trip
    overhead and pick the knee of the curve.
    """
    if samples_per_gpu < 1:
        raise ValueError("samples_per_gpu must be >= 1")
    if fetch_overhead_s < 0:
        raise ValueError("fetch_overhead_s must be >= 0")
    if plan is not None:
        cost = plan.sample_cost(cost, workload.sample_elems)
    m = machine
    P = m.gpus_per_node
    B = config.batch_size

    stored = cost.stored_bytes
    disk_bytes = int(stored * config.gzip_level) if config.gzip_level else stored
    cache_bytes = m.host_mem_gb * 1e9 * config.cache_fraction
    dataset_bytes = float(samples_per_gpu) * P * stored
    hit_rate = 1.0 if dataset_bytes <= cache_bytes else cache_bytes / dataset_bytes

    tier = m.nvme if config.staged else m.pfs
    # one fixed fetch overhead per batched fetch, split across its samples
    read_s = read_time(tier, disk_bytes) + fetch_overhead_s / B

    cpu_ns = workload.cpu_ns_per_elem * workload.cpu_factor(m)
    cpu_s = cost.cpu_preprocess_elems * cpu_ns * 1e-9
    if config.gzip_level:
        # the host cache holds the compressed record, so gunzip recurs
        # every epoch even on cache hits (same accounting as the DES)
        cpu_s += stored / (m.cpu.decompress_mbps * 1e6)

    gpu_decode = 0.0
    if config.placement == "gpu":
        gpu_decode = cost.gpu_decode_seconds * (
            V100.hbm_bw_gbps / m.gpu.hbm_bw_gbps
        )
    h2d_batch_s = transfer_time(m.link, cost.h2d_bytes * B, pinned=False)
    compute_batch_s = workload.compute_seconds(m.gpu, B, m.gpu_sw_efficiency)
    allreduce_s = (
        2 * (P - 1) / P * workload.model_grad_bytes / (m.gpu_fabric_gbps * 1e9)
        + P * 15e-6
    )
    gpu_batch_s = gpu_decode * B + compute_batch_s + allreduce_s

    steady_caps = _capacities(
        m, config, 1.0 - hit_rate, read_s, cpu_s, h2d_batch_s, gpu_batch_s
    )
    cold_caps = _capacities(
        m, config, 1.0, read_s, cpu_s, h2d_batch_s, gpu_batch_s
    )
    bottleneck = min(steady_caps, key=steady_caps.get)

    # per-node host bytes: decoded prefetch queues, in-flight worker blobs,
    # double-buffered batch staging, and the cache's actual occupancy —
    # what the depth/worker/cache knobs cost.  Ties on throughput therefore
    # resolve to the smallest cache budget that still sustains the rate.
    footprint = P * (
        max(config.prefetch_depth, B) * cost.decoded_bytes
        + config.num_workers * stored
        + 2 * B * cost.h2d_bytes
    ) + min(cache_bytes, dataset_bytes)
    return Prediction(
        steady_samples_per_s=min(steady_caps.values()),
        cold_samples_per_s=min(cold_caps.values()),
        bottleneck=bottleneck,
        caps=steady_caps,
        hit_rate=hit_rate,
        footprint_bytes=footprint,
    )
