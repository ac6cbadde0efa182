"""Functional "GPU" kernels with modeled cost.

Each kernel computes its exact result with NumPy on the host (standing in
for the CUDA implementation) and charges the :class:`SimulatedGpu` the time
the corresponding device kernel would take.  The decode kernels mirror the
paper's DALI plugins:

* :func:`k_lut_decode` — CosmoFlow: optional fused preprocessing on the
  lookup table, then one coalesced gather per table ("these operations are
  highly parallelizable since there are no dependencies between threads").
* :func:`k_delta_decode` — DeepCAM: hierarchically warp-parallel
  differential decode, timed by :mod:`repro.accel.warp`.
* :func:`k_preprocess_log`, :func:`k_normalize`, :func:`k_cast` — the plain
  elementwise operators the baseline runs (on CPU) and the optimized path
  offloads to the device.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.accel.device import SimulatedGpu
from repro.accel.warp import WarpCostModel, estimate_delta_decode_time
from repro.core.encoding import delta as delta_codec
from repro.core.encoding import lut as lut_codec

__all__ = [
    "k_lut_decode",
    "k_delta_decode",
    "k_preprocess_log",
    "k_normalize",
    "k_cast",
]


def k_lut_decode(
    device: SimulatedGpu,
    enc: lut_codec.LutEncodedSample,
    table_func: Callable[[np.ndarray], np.ndarray] | None = None,
    out_dtype: np.dtype | str = np.float16,
) -> np.ndarray:
    """Decode a LUT-encoded sample on the device.

    ``table_func`` is the fused preprocessing operator (e.g. ``log1p``)
    applied to the tables *before* the gather — the paper's reordering that
    runs the operator on hundreds of unique values instead of millions of
    voxels.
    """
    work = enc
    table_bytes = sum(t.values.nbytes for t in enc.tables)
    if table_func is not None:
        work = lut_codec.apply_to_tables(enc, table_func, out_dtype=out_dtype)
        # operator over table entries only: K*C flops, negligible bytes
        n_entries = sum(t.values.size for t in work.tables)
        device.charge("lut_table_preproc", bytes_moved=2 * table_bytes,
                      flops=float(4 * n_entries))
    out = lut_codec.decode_sample(work, dtype=out_dtype)
    key_bytes = sum(t.keys.nbytes for t in work.tables)
    moved = key_bytes + sum(t.values.nbytes for t in work.tables) + out.nbytes
    device.charge("lut_gather", bytes_moved=moved, flops=0.0)
    return out


def k_delta_decode(
    device: SimulatedGpu,
    channels: list[delta_codec.DeltaEncodedImage],
    cost: WarpCostModel | None = None,
) -> np.ndarray:
    """Decode a delta-encoded multi-channel sample on the device (FP16)."""
    from repro.core.encoding.delta_decode_fast import decode_image_fast

    C = len(channels)
    H, W = channels[0].shape
    out = np.empty((C, H, W), dtype=np.float16)
    for c, enc in enumerate(channels):
        decode_image_fast(enc, out=out[c])
    seconds = estimate_delta_decode_time(channels, device.spec, cost)
    moved = sum(e.nbytes for e in channels) + out.nbytes
    device.charge("delta_decode", bytes_moved=moved, seconds=seconds)
    return out


def k_preprocess_log(device: SimulatedGpu, volume: np.ndarray) -> np.ndarray:
    """Baseline full-volume ``log1p`` on the device (no fusion)."""
    out = np.log1p(volume.astype(np.float32))
    device.charge(
        "log1p_full",
        bytes_moved=volume.nbytes + out.nbytes,
        flops=float(4 * volume.size),
    )
    return out


def k_normalize(
    device: SimulatedGpu,
    sample: np.ndarray,
    mean: np.ndarray,
    std: np.ndarray,
) -> np.ndarray:
    """Per-channel normalization ``(x - mean) / std`` on the device."""
    bc = (slice(None),) + (None,) * (sample.ndim - 1)
    out = (sample.astype(np.float32) - mean[bc]) / std[bc]
    device.charge(
        "normalize",
        bytes_moved=sample.nbytes + out.nbytes,
        flops=float(2 * sample.size),
    )
    return out


def k_cast(device: SimulatedGpu, sample: np.ndarray, dtype) -> np.ndarray:
    """Dtype cast on the device (e.g. FP32 → FP16 for the AMP pipeline)."""
    out = sample.astype(dtype)
    device.charge("cast", bytes_moved=sample.nbytes + out.nbytes, flops=0.0)
    return out
