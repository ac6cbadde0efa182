"""CosmoFlow sample plugins (paper §V-B, §VI, §IX-B).

Figure 10/11 compares three representations:

* :class:`CosmoflowBaselinePlugin` ("base") — raw int16 particle counts in
  TFRecord-style containers; the CPU applies ``log1p`` to every one of the
  sample's millions of voxels and casts to FP32, which then crosses the
  CPU→GPU link.  (The gzip baseline is the same plugin behind a
  gzip-compressed record reader — compression lives in the storage layer,
  as it does for TFRecords.)
* :class:`CosmoflowLutPlugin` ("plugin") — lookup-table storage; decode
  applies ``log1p`` to the *table* (a few hundred unique groups), casts the
  table to FP16, and expands with a single gather.  GPU placement ships
  only keys+tables across the link.

The paper's CosmoFlow decode "is not lossy when casting to FP16": counts
are small integers whose ``log1p`` fits FP16 comfortably; our tests assert
the decoded tensor equals the FP16 cast of the exact FP32 computation.
"""

from __future__ import annotations

import numpy as np

from repro.accel.device import SimulatedGpu, V100
from repro.accel.kernels import k_lut_decode
from repro.core.encoding import container
# decode_samples stays importable here: perfbench's traced run patches it
from repro.core.encoding.lut import (  # noqa: F401
    LutCodecConfig,
    decode_sample,
    decode_samples,
    encode_sample,
)
from repro.core.plugins.base import SampleCost, SamplePlugin

__all__ = ["CosmoflowBaselinePlugin", "CosmoflowLutPlugin", "log_transform"]


def log_transform(counts: np.ndarray) -> np.ndarray:
    """The CosmoFlow preprocessing operator: ``log(count + 1)`` in FP32."""
    return np.log1p(counts.astype(np.float32))


class CosmoflowBaselinePlugin(SamplePlugin):
    """Raw int16 counts + full-volume CPU ``log1p`` — the paper's baseline."""

    name = "base"
    placement = "cpu"

    def encode(self, data: np.ndarray, label: np.ndarray) -> bytes:
        return container.pack_raw_sample(
            np.ascontiguousarray(data, dtype=np.int16), label
        )

    def decode_cpu(self, blob: bytes) -> tuple[np.ndarray, np.ndarray]:
        codec, data, label, _ = container.unpack_sample(blob)
        if codec != "raw":
            raise ValueError(f"baseline plugin got a {codec!r} container")
        return log_transform(data), label

    def decode_gpu(self, blob, device):  # pragma: no cover - API completeness
        raise NotImplementedError("the baseline preprocesses on the CPU only")

    def decode_raw(self, blob: bytes, device=None):
        """Native decode: the stored int16 counts, before ``log1p``."""
        codec, data, label, _ = container.unpack_sample(blob)
        if codec != "raw":
            raise ValueError(f"baseline plugin got a {codec!r} container")
        return data, label

    def declare_preprocessing(self, source, verify_reads: bool = False):
        """``read → decode(int16) → log1p`` — preprocessing as graph nodes.

        The raw container has no table to fold operators into, so fusion
        only saves op dispatch (``fused_cost_hint`` stays 1.0): the cost
        model correctly sees no decode win for the baseline, which is
        the paper's point.
        """
        from repro.graph.ir import PipelineGraph

        graph = PipelineGraph(name="cosmoflow-base")
        graph.read(source, verify=verify_reads)
        graph.decode(self, fusable=True, fused_cost_hint=1.0)
        graph.elementwise("log1p", log_transform, cost_hint=1.0)
        return graph

    def measure(self, data: np.ndarray, label: np.ndarray) -> SampleCost:
        blob = self.encode(data, label)
        decoded_bytes = int(data.size) * 4  # FP32 log-transformed tensor
        return SampleCost(
            stored_bytes=len(blob),
            h2d_bytes=decoded_bytes,
            decoded_bytes=decoded_bytes,
            cpu_preprocess_elems=int(data.size),
        )


class CosmoflowLutPlugin(SamplePlugin):
    """Lookup-table storage with fused ``log1p``-on-table decode."""

    def __init__(
        self,
        placement: str = "gpu",
        config: LutCodecConfig | None = None,
        apply_log: bool = True,
    ) -> None:
        if placement not in ("cpu", "gpu"):
            raise ValueError("placement must be 'cpu' or 'gpu'")
        self.placement = placement
        self.name = "plugin" if placement == "gpu" else "plugin-cpu"
        self.config = config or LutCodecConfig()
        self.apply_log = apply_log

    def encode(self, data: np.ndarray, label: np.ndarray) -> bytes:
        enc = encode_sample(np.ascontiguousarray(data, dtype=np.int16), self.config)
        return container.pack_lut_sample(enc, label)

    def _unpack(self, blob: bytes):
        codec, enc, label, _ = container.unpack_sample(blob)
        if codec != "lut":
            raise ValueError(f"lut plugin got a {codec!r} container")
        return enc, label

    def decode_cpu(self, blob: bytes) -> tuple[np.ndarray, np.ndarray]:
        enc, label = self._unpack(blob)
        if self.apply_log:
            from repro.core.encoding.lut import apply_to_tables

            # fused: log over table entries, FP16 cast, then one gather
            enc = apply_to_tables(enc, log_transform, out_dtype=np.float16)
            return decode_sample(enc, dtype=np.float16), label
        return decode_sample(enc, dtype=np.float16), label

    def decode_gpu(
        self, blob: bytes, device: SimulatedGpu
    ) -> tuple[np.ndarray, np.ndarray]:
        enc, label = self._unpack(blob)
        func = log_transform if self.apply_log else None
        return k_lut_decode(device, enc, table_func=func, out_dtype=np.float16), label

    #: nominal table-entries-to-voxels ratio used as the fused-step cost
    #: hint: the paper's samples have a few hundred unique groups per
    #: multi-million-voxel volume, so an operator fused into the table is
    #: orders of magnitude cheaper than a full pass (ranking hint only)
    _TABLE_FRACTION = 1.0 / 64.0

    def decode_raw(self, blob: bytes, device=None):
        """Native decode: one gather to the stored int16 counts."""
        enc, label = self._unpack(blob)
        if self.placement == "gpu" and device is not None:
            return (
                k_lut_decode(device, enc, table_func=None, out_dtype=None),
                label,
            )
        return decode_sample(enc), label

    def decode_fused(self, blob: bytes, func=None, device=None):
        """Fused decode: the composed chain runs over *table entries*.

        Elementwise operators commute bit-exactly with the gather
        (``f(table)[keys] == f(table[keys])`` element for element), so
        applying the chain to a few hundred table values before one
        gather produces the identical tensor at a fraction of the work —
        the paper's ``log1p``+FP16 reordering, derived generically.
        """
        if func is None:
            return self.decode_raw(blob, device)
        enc, label = self._unpack(blob)
        if self.placement == "gpu" and device is not None:
            return (
                k_lut_decode(device, enc, table_func=func, out_dtype=None),
                label,
            )
        from repro.core.encoding.lut import apply_to_tables

        fused = apply_to_tables(enc, func)
        return decode_sample(fused), label

    def declare_preprocessing(self, source, verify_reads: bool = False):
        """``read → decode(int16) → [log1p] → fp16`` as graph nodes.

        The legacy ``decode`` hand-fuses ``log1p``+FP16 into the table;
        here the same stages are *declared* and the optimizer's fusion
        pass re-derives that plan (the compiled optimized graph and the
        hand-written path are bit-identical — asserted against the
        golden vectors).
        """
        from repro.graph.ir import PipelineGraph

        graph = PipelineGraph(name=f"cosmoflow-lut-{self.placement}")
        graph.read(source, verify=verify_reads)
        graph.decode(self, fusable=True, fused_cost_hint=self._TABLE_FRACTION)
        if self.apply_log:
            graph.elementwise("log1p", log_transform, cost_hint=1.0)
        graph.cast("fp16", np.float16)
        return graph

    def measure(self, data: np.ndarray, label: np.ndarray) -> SampleCost:
        blob = self.encode(data, label)
        enc, _ = self._unpack(blob)
        decoded_bytes = int(data.size) * 2  # FP16 tensor
        if self.placement == "gpu":
            device = SimulatedGpu(spec=V100)
            func = log_transform if self.apply_log else None
            k_lut_decode(device, enc, table_func=func, out_dtype=np.float16)
            return SampleCost(
                stored_bytes=len(blob),
                h2d_bytes=len(blob),
                decoded_bytes=decoded_bytes,
                cpu_preprocess_elems=0,
                gpu_decode_seconds=device.busy_seconds,
            )
        # CPU placement still benefits from the fusion: only table entries
        # pass through log1p; the gather is the bulk of host work.
        n_table_entries = sum(t.values.size for t in enc.tables)
        return SampleCost(
            stored_bytes=len(blob),
            h2d_bytes=decoded_bytes,
            decoded_bytes=decoded_bytes,
            cpu_preprocess_elems=int(data.size) // 4 + n_table_entries,
        )
