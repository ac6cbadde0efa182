"""The data-path benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload deepcam_decode --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the other half and
prints the per-layer metrics.  Every delivered sample is checked, outside
the timed interval, against the tensor it must decode to.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when a sample is
wrong or an epoch is not reproducible.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import ROOT_SPAN, Tracer, attribute, self_durations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: an untraced run times at least this many batches, so p90 has ten beyond it
MIN_BATCHES = 100
#: array size of the ``np.copyto`` bandwidth calibration
COPY_MIB = 128

#: name -> (unit, better) of the untraced run's metrics
END_TO_END = {
    "samples_per_s": ("samples/s", "higher"),
    "batch_wait_p50_ms": ("ms", "lower"),
    "batch_wait_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "stored_bytes_per_sample": ("bytes", "lower"),
}

#: layers in report order; a span's layer is its name up to the first dot
LAYERS = ("encoding", "plugins", "pipeline", "ingest", "tiering", "serve", "robust")

#: name -> (unit, better) of the traced run's metrics
PER_LAYER = {
    "encoding.unpack_s": ("s/sample", "lower"),
    "encoding.delta_decode_s": ("s/sample", "lower"),
    "encoding.delta_gbps": ("GB/s", "higher"),
    "encoding.delta_roofline_frac": ("frac", "higher"),
    "encoding.lut_table_s": ("s/sample", "lower"),
    "encoding.lut_gather_s": ("s/sample", "lower"),
    "encoding.lut_gbps": ("GB/s", "higher"),
    "encoding.lut_roofline_frac": ("frac", "higher"),
    "encoding.encode_s_per_sample": ("s/sample", "lower"),
    "encoding.self_s": ("s/sample", "lower"),
    "encoding.self_frac": ("frac", "lower"),
    "plugins.decode_s": ("s/sample", "lower"),
    "plugins.decode_self_s": ("s/sample", "lower"),
    "plugins.self_frac": ("frac", "lower"),
    "graph.compile_s": ("s", "lower"),
    "pipeline.self_s": ("s/sample", "lower"),
    "pipeline.self_frac": ("frac", "lower"),
    "pipeline.items": ("samples", "higher"),
    "ingest.read_s": ("s/sample", "lower"),
    "ingest.read_calls": ("calls/sample", "lower"),
    "ingest.read_mb": ("MB/sample", "lower"),
    "ingest.self_frac": ("frac", "lower"),
    "ingest.samples_per_s": ("samples/s", "higher"),
    "ingest.append_s": ("s/sample", "lower"),
    "ingest.publish_s": ("s", "lower"),
    "ingest.bytes_written": ("bytes/sample", "lower"),
    "tiering.wall_read_s": ("s/sample", "lower"),
    "tiering.hit_ratio": ("frac", "higher"),
    "tiering.admits": ("1/sample", "lower"),
    "tiering.evictions": ("1/sample", "lower"),
    "tiering.end_epoch_s": ("s", "lower"),
    "tiering.self_s": ("s/sample", "lower"),
    "tiering.self_frac": ("frac", "lower"),
    "serve.rpc_s": ("s/sample", "lower"),
    "serve.rpcs_per_sample": ("calls/sample", "lower"),
    "serve.rpc_p50_us": ("us", "lower"),
    "serve.rpc_p90_us": ("us", "lower"),
    "serve.mb": ("MB/sample", "lower"),
    "serve.cache_hit_ratio": ("frac", "higher"),
    "serve.start_s": ("s", "lower"),
    "serve.self_s": ("s/sample", "lower"),
    "serve.self_frac": ("frac", "lower"),
    "robust.attempts_per_read": ("calls/read", "lower"),
    "robust.self_s": ("s/sample", "lower"),
    "robust.self_frac": ("frac", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "machine.copy_gbps": ("GB/s", "higher"),
    "machine.copy_mib": ("MiB", "higher"),
    "machine.l3_mib": ("MiB", "higher"),
    "workload.working_set_mb": ("MB", "lower"),
}


@dataclass
class EpochRun:
    """One epoch as the trainer saw it."""

    epoch: int
    order: object
    batches: list = field(default_factory=list)
    waits: list = field(default_factory=list)
    t0: float = 0.0
    t1: float = 0.0
    samples: int = 0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def run_epoch(session, epoch: int, batch_size: int, tracer=None) -> EpochRun:
    """Take every batch of one epoch as fast as the loader gives them.

    Each batch's wait is the time blocked in ``next()``; the first one
    also covers the trainer's epoch-start work and starting the iterator.
    """
    loader = session.loader
    run = EpochRun(epoch, loader.epoch_order(epoch))
    if tracer is not None:
        tracer.batch_of = {
            int(i): f"{epoch}:{p // batch_size}" for p, i in enumerate(run.order)
        }
    it = None
    run.t0 = perf_counter()
    while True:
        t0 = perf_counter()
        sp = (
            tracer.begin(ROOT_SPAN, f"{epoch}:{len(run.batches)}")
            if tracer is not None else None
        )
        try:
            if it is None:
                session.before_epoch()
                it = loader.batches(epoch)
            batch = next(it, None)
        finally:
            if sp is not None:
                tracer.end(sp)
        t1 = perf_counter()
        if batch is None:
            break
        run.waits.append(t1 - t0)
        run.batches.append(batch)
    run.t1 = perf_counter()
    run.samples = sum(len(t) for t, _ in run.batches)
    return run


class Checker:
    """Checks delivered epochs against the expected tensors and digests them.

    An epoch's digest covers its order and the per-sample digests of the
    tensors just proven bit-identical to the expected ones.  Digests are
    keyed by epoch number: every set-up replays the same epochs (warm-up
    epoch 0, then its timed slice from epoch 1) and must agree, the
    traced phase must agree with the untraced one, and a later run with
    the same seed must agree with this one.
    """

    def __init__(self, workload) -> None:
        from workloads import bit_equal

        self.workload = workload
        self.bit_equal = bit_equal
        self.attempted = 0
        self.mismatched = 0
        self.unreproducible = 0
        self.digests: dict[str, str] = {}

    def check(self, run: EpochRun) -> None:
        self.attempted += len(run.order)
        h = hashlib.blake2b(digest_size=16)
        h.update(run.order.astype("<i8").tobytes())
        pos = 0
        for tensors, labels in run.batches:
            for tensor, label in zip(tensors, labels):
                if pos >= len(run.order):
                    self.mismatched += 1
                    continue
                want, want_label, digest = self.workload.expected(int(run.order[pos]))
                if not (self.bit_equal(tensor, want)
                        and self.bit_equal(label, want_label)):
                    self.mismatched += 1
                h.update(digest)
                pos += 1
        self.mismatched += max(0, len(run.order) - pos)
        run.batches = []  # checked: release the tensors
        self.record(str(run.epoch), h.hexdigest(), len(run.order))

    def record(self, key: str, digest: str, samples: int) -> None:
        seen = self.digests.setdefault(key, digest)
        if seen != digest:
            self.unreproducible += samples

    def compare_file(self, path: Path) -> None:
        """Agree with an earlier run of the same seed, then remember ours."""
        try:
            earlier = json.loads(path.read_text())
        except (OSError, ValueError):
            earlier = {}
        for key, digest in earlier.items():
            if key in self.digests and self.digests[key] != digest:
                self.unreproducible += 1
        merged = {**earlier, **self.digests}
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True))
        os.replace(tmp, path)

    @property
    def failed(self) -> int:
        # a sample can be both wrong and in an unreproducible epoch
        return min(self.attempted, self.mismatched + self.unreproducible)


def timed_phase(session, workload, checker, seconds, min_batches, tracer=None):
    """Run epochs until ``seconds`` of epoch time and ``min_batches`` passed."""
    runs: list[EpochRun] = []
    epoch = 1
    elapsed = 0.0
    batches = 0
    while elapsed < seconds or batches < min_batches:
        run = run_epoch(session, epoch, workload.batch_size, tracer)
        elapsed += run.seconds
        batches += len(run.waits)
        checker.check(run)
        runs.append(run)
        session.after_epoch(epoch)
        epoch += 1
    return runs


def store_blobs(session) -> list[bytes]:
    """The initial store's containers, read by a fresh source."""
    from repro.ingest import ManifestSource, ManifestStore

    store = ManifestStore(session.root)
    with ManifestSource(session.root, store.history()[0]) as src:
        return [src.read(i) for i in range(len(src))]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) * 1024 / 1e6


def calibrate() -> dict:
    """Same-run machine facts: ``np.copyto`` bandwidth and the L3 size."""
    src = np.ones(COPY_MIB * 2**20 // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(9):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    l3 = 0.0
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        if line.startswith("L3"):
            value, unit = line.split(":", 1)[1].split()[:2]
            l3 = float(value) * {"KiB": 1 / 1024, "MiB": 1.0, "GiB": 1024.0}.get(unit, 0.0)
    return {
        "machine.copy_gbps": src.nbytes / statistics.median(times) / 1e9,
        "machine.copy_mib": float(COPY_MIB),
        "machine.l3_mib": l3,
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def rate(steps) -> float:
    samples = sum(n for n, _ in steps)
    seconds = sum(s for _, s in steps)
    return samples / seconds if seconds > 0 else 0.0


def setup_and_warm(workload, root: Path, checker, tracer=None):
    """Build the data path and run the warm-up epoch; returns (session, s)."""
    t0 = perf_counter()
    session = workload.open(root, tracer)
    try:
        warm = run_epoch(session, 0, workload.batch_size, tracer)
        setup_s = perf_counter() - t0
        if not workload.prepared:
            blobs = store_blobs(session)
            workload.prepare_expected(blobs)
            checker.mismatched += workload.reference_check(blobs)
        checker.check(warm)
    except BaseException:
        session.close()
        raise
    return session, setup_s


def untraced(workload, checker, workdir: Path, seconds, setups, min_batches):
    """``setups`` set-ups, each followed by its share of the timed epochs.

    Slicing the timed epochs across the set-ups spreads the measurement
    over the whole run, so a slow spell of the machine weighs less.
    Returns the timed epochs, the set-up times and the ingest rate:
    between-epoch ingest steps where the workload has them, else the
    store builds.
    """
    runs: list[EpochRun] = []
    setup_times = []
    builds = []
    steps = []
    for r in range(setups):
        session, setup_s = setup_and_warm(workload, workdir / f"store{r}", checker)
        try:
            setup_times.append(setup_s)
            builds.append(session.build)
            last = r == setups - 1
            runs += timed_phase(
                session, workload, checker, seconds / setups,
                max(0, min_batches - sum(len(e.waits) for e in runs)) if last else 0,
            )
            steps += session.ingest
        finally:
            session.close()
    return runs, setup_times, rate(steps or builds)


def windows(runs, per: int = MIN_BATCHES) -> list[list[EpochRun]]:
    """Consecutive epochs grouped into windows of at least ``per`` batches.

    Timings are taken per window and the median over windows is
    reported, so a burst of outside load that spans less than half the
    run does not move the figure.
    """
    groups: list[list[EpochRun]] = []
    cur: list[EpochRun] = []
    batches = 0
    for run in runs:
        cur.append(run)
        batches += len(run.waits)
        if batches >= per:
            groups.append(cur)
            cur, batches = [], 0
    if cur:
        if groups:
            groups[-1].extend(cur)
        else:
            groups.append(cur)
    return groups


def throughput(runs) -> float:
    """Median over windows of delivered samples per second of epoch time."""
    return statistics.median(per_window(runs)["samples_per_s"])


def per_window(runs) -> dict[str, list[float]]:
    """Each window's throughput and batch-wait percentiles."""
    groups = windows(runs)
    waits = [[w for r in g for w in r.waits] for g in groups]
    return {
        "samples_per_s": [
            sum(r.samples for r in g) / sum(r.seconds for r in g) for g in groups
        ],
        "batch_wait_p50_ms": [percentile(w, 50) * 1e3 for w in waits],
        "batch_wait_p90_ms": [percentile(w, 90) * 1e3 for w in waits],
    }


def end_to_end(runs, setup_times, workload) -> dict:
    """Medians over windows of the timed epochs, and over set-ups."""
    return {
        **{k: statistics.median(v) for k, v in per_window(runs).items()},
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "stored_bytes_per_sample": workload.stored_bytes,
    }


def traced(workload, checker, workdir: Path, seconds, machine) -> tuple[dict, dict]:
    """Untraced half, then a traced set-up and half; per-layer metrics."""
    from workloads import patch_modules

    plain, _, _ = untraced(workload, checker, workdir, seconds / 2, 1, 0)
    tracer = Tracer()
    patch_modules(tracer)
    session = None
    try:
        session, _ = setup_and_warm(workload, workdir / "store_traced", checker, tracer)
        before = session.counters()
        runs = timed_phase(session, workload, checker, seconds / 2, 0, tracer)
        after = session.counters()
        written = sum(p.stat().st_size for p in session.root.glob("shard-*.rec"))
        ingest = rate(session.ingest or [session.build])
    finally:
        tracer.restore()
        if session is not None:
            session.close()
    tracer.write_chrome(OUT / f"trace-{workload.name}-seed{workload.seed}.json")
    counts = {k: after[k] - before[k] for k in before}
    return layer_metrics(tracer, runs, plain, counts, written, ingest, workload,
                         machine)


def layer_metrics(tracer, runs, plain, counts, written, ingest, workload, machine):
    """Per-layer metrics of the traced phase, and the layer table."""
    samples = sum(r.samples for r in runs)
    self_s, incl_s, unattributed, total = attribute(
        tracer.spans, [(r.t0, r.t1) for r in runs]
    )
    layer = {name: 0.0 for name in LAYERS}
    for name, sec in self_s.items():
        layer[name.split(".", 1)[0]] += sec
    lo, hi = runs[0].t0, runs[-1].t1
    timed = [sp for sp in tracer.spans if sp.t0 >= lo and sp.t1 <= hi]

    def named(name, spans=tracer.spans):
        return [sp for sp in spans if sp.name == name]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def per_sample(sec):
        return sec / samples

    def gbps(seconds):
        return workload.output_bytes() * samples / seconds / 1e9 if seconds else 0.0

    delta_gbps = gbps(self_s.get("encoding.delta_decode", 0.0))
    lut_gbps = gbps(
        self_s.get("encoding.lut_table", 0.0) + self_s.get("encoding.lut_gather", 0.0)
    )
    own = self_durations(tracer.spans)
    reads = named("ingest.read", timed)
    rpcs = named("serve.rpc", timed)
    rpc_us = [sp.duration * 1e6 for sp in rpcs]
    robust_reads = named("robust.read", timed)
    appends = named("ingest.append")
    lookups = counts.get("tier_hits", 0) + counts.get("tier_misses", 0)
    gets = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)

    m = {
        "encoding.unpack_s": per_sample(self_s.get("encoding.unpack", 0.0)),
        "encoding.delta_decode_s": per_sample(self_s.get("encoding.delta_decode", 0.0)),
        "encoding.delta_gbps": delta_gbps,
        "encoding.delta_roofline_frac": delta_gbps / machine["machine.copy_gbps"],
        "encoding.lut_table_s": per_sample(self_s.get("encoding.lut_table", 0.0)),
        "encoding.lut_gather_s": per_sample(self_s.get("encoding.lut_gather", 0.0)),
        "encoding.lut_gbps": lut_gbps,
        "encoding.lut_roofline_frac": lut_gbps / machine["machine.copy_gbps"],
        "encoding.encode_s_per_sample": mean(
            [sp.duration for sp in named("encoding.encode")]
        ),
        "encoding.self_s": per_sample(layer["encoding"]),
        "encoding.self_frac": layer["encoding"] / total,
        "plugins.decode_s": per_sample(incl_s.get("plugins.decode", 0.0)),
        "plugins.decode_self_s": per_sample(layer["plugins"]),
        "plugins.self_frac": layer["plugins"] / total,
        "graph.compile_s": mean([sp.duration for sp in named("graph.compile")]),
        "pipeline.self_s": per_sample(layer["pipeline"]),
        "pipeline.self_frac": layer["pipeline"] / total,
        "pipeline.items": float(samples),
        "ingest.read_s": per_sample(layer["ingest"]),
        "ingest.read_calls": len(reads) / samples,
        "ingest.read_mb": sum(sp.nbytes for sp in reads) / 1e6 / samples,
        "ingest.self_frac": layer["ingest"] / total,
        "ingest.samples_per_s": ingest,
        "ingest.append_s": mean([own[sp.sid] for sp in appends]),
        "ingest.publish_s": mean([sp.duration for sp in named("ingest.publish")]),
        "ingest.bytes_written": written / len(appends) if appends else 0.0,
        "tiering.wall_read_s": per_sample(incl_s.get("tiering.read", 0.0)),
        "tiering.hit_ratio": counts.get("tier_hits", 0) / lookups if lookups else 0.0,
        "tiering.admits": counts.get("tier_admits", 0) / samples,
        "tiering.evictions": counts.get("tier_evictions", 0) / samples,
        "tiering.end_epoch_s": mean(
            [sp.duration for sp in named("tiering.end_epoch", timed)]
        ),
        "tiering.self_s": per_sample(layer["tiering"]),
        "tiering.self_frac": layer["tiering"] / total,
        "serve.rpc_s": per_sample(incl_s.get("serve.rpc", 0.0)),
        "serve.rpcs_per_sample": len(rpcs) / samples,
        "serve.rpc_p50_us": percentile(rpc_us, 50) if rpc_us else 0.0,
        "serve.rpc_p90_us": percentile(rpc_us, 90) if rpc_us else 0.0,
        "serve.mb": sum(sp.nbytes for sp in rpcs) / 1e6 / samples,
        "serve.cache_hit_ratio": counts.get("cache_hits", 0) / gets if gets else 0.0,
        "serve.start_s": mean([sp.duration for sp in named("serve.start")]),
        "serve.self_s": per_sample(layer["serve"]),
        "serve.self_frac": layer["serve"] / total,
        "robust.attempts_per_read": (
            len(rpcs) / len(robust_reads) if robust_reads else 0.0
        ),
        "robust.self_s": per_sample(layer["robust"]),
        "robust.self_frac": layer["robust"] / total,
        "trace.unattributed_frac": unattributed / total,
        "trace.overhead_frac": throughput(plain) / throughput(runs) - 1.0,
        **machine,
        "workload.working_set_mb": workload.working_set_mb(),
    }
    table = {
        "self_s": layer,
        "share": {k: v / total for k, v in layer.items()},
        "unattributed_s": unattributed,
        "epoch_s": total,
        "samples": samples,
    }
    return m, table


def design_check(name: str, metrics: dict, table: dict) -> tuple[bool, str]:
    """The stress each workload was built for, read off the layer table."""
    s = table["self_s"]
    if name in ("deepcam_decode", "cosmoflow_ingest"):
        top = max(s, key=s.get)
        return top == "encoding", f"largest self time: {top}"
    serve_side = s["serve"] + s["pipeline"]
    plugin = metrics["plugins.decode_s"] * table["samples"]
    return serve_side > plugin, (
        f"serve+pipeline self {serve_side:.3f} s vs plugins.decode {plugin:.3f} s"
    )


def print_metrics(metrics: dict, table: dict) -> None:
    for name, value in metrics.items():
        unit, better = table[name]
        print(f"  {name:32s} {value:14.6g} {unit:13s} ({better} is better)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("deepcam_decode", "cosmoflow_ingest", "serve_raw"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    checker = Checker(workload)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        workload.generate()
        if args.trace:
            machine = calibrate()
            metrics, layers = traced(workload, checker, workdir, args.seconds, machine)
            holds, why = design_check(args.workload, metrics, layers)
            record.update(layers=layers, design_holds=holds, design=why)
            table = PER_LAYER
        else:
            runs, setup_times, ingest = untraced(
                workload, checker, workdir, args.seconds, workload.setups,
                MIN_BATCHES,
            )
            metrics = end_to_end(runs, setup_times, workload)
            record.update(
                ingest_samples_per_s=ingest,
                setup_s_each=setup_times,
                batches=sum(len(r.waits) for r in runs),
                epochs=len(runs),
                windows=len(windows(runs)),
                per_window=per_window(runs),
            )
            machine = calibrate()
            table = END_TO_END
        checker.compare_file(OUT / f"digests-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # left only when no other run is using it
        except OSError:
            pass

    failed_frac = checker.failed / max(checker.attempted, 1)
    record.update(metrics=metrics, machine=machine, attempted=checker.attempted,
                  mismatched=checker.mismatched,
                  unreproducible=checker.unreproducible, failed_frac=failed_frac,
                  digests=checker.digests)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    if args.trace:
        print(f"  layer report ({layers['samples']} samples, "
              f"{layers['epoch_s']:.3f} s of timed epochs):")
        for layer in LAYERS:
            print(f"    {layer:10s} {layers['self_s'][layer]:9.4f} s "
                  f"{100 * layers['share'][layer]:6.1f} %")
        print(f"    {'(none)':10s} {layers['unattributed_s']:9.4f} s "
              f"{100 * metrics['trace.unattributed_frac']:6.1f} %")
        print(f"  design {'holds' if holds else 'DOES NOT HOLD'}: {why}")
    else:
        print(f"  {record['batches']} batches in {record['epochs']} epochs, "
              f"{record['windows']} windows of >= {MIN_BATCHES} batches")
        print(f"  working set {workload.working_set_mb():.1f} MB, L3 "
              f"{machine['machine.l3_mib']:g} MiB (lscpu), np.copyto "
              f"{machine['machine.copy_gbps']:.2f} GB/s on {COPY_MIB} MiB arrays")
    print_metrics(metrics, table)
    if not args.trace:
        print(f"  {'ingest_samples_per_s':32s} {ingest:14.6g} {'samples/s':13s} "
              f"(higher is better)")
    print(f"  {'failed_frac':32s} {failed_frac:14.6g} {'frac':13s} (lower is better)")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": float(value), "unit": table[name][0]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
