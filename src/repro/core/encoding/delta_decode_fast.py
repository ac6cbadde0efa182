"""Vectorized differential decoder (bit-identical to the reference).

Decoding runs every epoch for every sample, so its cost recurs like the
paper's preprocessing.  The reference decoder loops line-by-line; this one
exploits the shared segment grid exactly like the vectorized encoder:

1. group lines by mode; CONST and RAW lines fill in two vector ops;
2. for DELTA lines, gather all descriptor bytes with one fancy index, then
   compute every line's per-segment payload offsets with a vectorized
   cumulative sum over the (literal → 2 B/diff, delta → 1 B/diff) sizes;
3. walk the segment columns once (≤ ``ceil(W/block)`` iterations),
   gathering each column's bytes for *all* delta lines at once,
   dequantizing, cumulative-summing along the line axis, and re-anchoring
   at literal segments.

This mirrors the GPU implementation the paper describes — independent
lines in parallel, segment tasks within a line in sequence — and the test
suite asserts bit-identical FP16 output against the reference decoder.

Because every line is decoded independently, the same pass extends across
*images*: :func:`decode_images_fast` concatenates the payloads of several
same-shape images and runs the identical mode-grouped walk over all
``N × H`` lines at once.  Single-image and batched decode share
:func:`_decode_lines` verbatim, which is what makes bit-identity between
them structural rather than incidental; the frozen ``batch-delta``
golden vectors pin the batched form.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding.delta import (
    LINE_CONST,
    LINE_DELTA,
    LINE_RAW,
    LITERAL_SEGMENT,
    DeltaEncodedImage,
    _segment_bounds,
)
from repro.util.bitpack import unpack_fields
from repro.util.fp16 import dequantize_magnitude

__all__ = ["decode_image_fast", "decode_images_fast"]


def _decode_lines(
    buf: np.ndarray,
    starts: np.ndarray,
    modes: np.ndarray,
    W: int,
    cfg,
    out: np.ndarray,
) -> np.ndarray:
    """Decode ``len(starts)`` independent lines out of one byte buffer.

    ``starts[i]`` is the absolute offset of line ``i``'s record in
    ``buf``; lines may come from one image or many (the caller only has
    to make the offsets absolute).  ``out`` is the ``(L, W)`` float16
    destination.
    """
    # CONST lines: one FP32 head each
    const_rows = np.flatnonzero(modes == LINE_CONST)
    if const_rows.size:
        idx = starts[const_rows, None] + np.arange(4)
        heads = buf[idx].copy().view(np.float32).reshape(-1)
        out[const_rows] = heads[:, None].astype(np.float16)

    # RAW lines: W FP32 values each
    raw_rows = np.flatnonzero(modes == LINE_RAW)
    if raw_rows.size:
        idx = starts[raw_rows, None] + np.arange(4 * W)
        vals = buf[idx].copy().view(np.float32).reshape(-1, W)
        out[raw_rows] = vals.astype(np.float16)

    # DELTA lines: shared segment grid, per-column vector walk
    delta_rows = np.flatnonzero(modes == LINE_DELTA)
    if delta_rows.size == 0:
        return out
    ndiff = W - 1
    bounds = _segment_bounds(ndiff, cfg.block_size)
    nseg = len(bounds)
    L = delta_rows.size
    base = starts[delta_rows]

    heads = buf[base[:, None] + np.arange(4)].copy().view(np.float32)
    heads = heads.reshape(-1)
    descs = buf[base[:, None] + 4 + np.arange(nseg)].view(np.int8).copy()
    descs = descs.reshape(L, nseg).astype(np.int16)
    is_lit = descs == LITERAL_SEGMENT

    # per-line byte offset of each segment's payload
    blens = np.array([e - s for s, e in bounds], dtype=np.int64)
    seg_sizes = np.where(is_lit, 2 * blens[None, :], blens[None, :])
    seg_offs = np.empty((L, nseg), dtype=np.int64)
    seg_offs[:, 0] = 4 + nseg
    if nseg > 1:
        seg_offs[:, 1:] = 4 + nseg + np.cumsum(seg_sizes[:, :-1], axis=1)

    line = np.empty((L, W), dtype=np.float32)
    line[:, 0] = heads
    prev = heads.copy()
    for k, (s, e) in enumerate(bounds):
        blen = e - s
        off = base + seg_offs[:, k]
        lit = is_lit[:, k]
        vals = np.empty((L, blen), dtype=np.float32)
        if lit.any():
            lidx = off[lit, None] + np.arange(2 * blen)
            lit_vals = buf[lidx].copy().view(np.float16).reshape(-1, blen)
            vals[lit] = lit_vals.astype(np.float32)
        ndl = ~lit
        if ndl.any():
            didx = off[ndl, None] + np.arange(blen)
            packed = buf[didx]
            sign, eoff, mant = unpack_fields(packed, cfg.mantissa_bits)
            emin = descs[ndl, k].astype(np.int32)[:, None]
            d = dequantize_magnitude(sign, eoff, mant, emin,
                                     cfg.mantissa_bits)
            vals[ndl] = prev[ndl, None] + np.cumsum(d, axis=1,
                                                    dtype=np.float32)
        line[:, s + 1 : e + 1] = vals
        prev = vals[:, -1].copy()
    out[delta_rows] = line.astype(np.float16)
    return out


def decode_image_fast(
    enc: DeltaEncodedImage, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized equivalent of :func:`delta.decode_image` (FP16 output)."""
    H, W = enc.shape
    if out is None:
        out = np.empty((H, W), dtype=np.float16)
    elif out.shape != (H, W) or out.dtype != np.float16:
        raise ValueError("out buffer must be float16 with the encoded shape")
    buf = np.frombuffer(enc.payload, dtype=np.uint8)
    starts = enc.line_offsets[:-1].astype(np.int64)
    return _decode_lines(buf, starts, enc.line_modes, W, enc.config, out)


def decode_images_fast(
    encs: list, outs: list | None = None
) -> list[np.ndarray]:
    """Decode several same-shape images in one vectorized NumPy pass.

    All images must share one ``(H, W)`` shape and codec config; their
    payloads are concatenated once and all ``N × H`` lines run through
    the single-image column walk together, so the per-call NumPy
    dispatch overhead is paid once per *batch* instead of once per
    image.  Mixed shapes or configs raise ``ValueError``.  The DeepCAM
    plugin decodes all channels of one sample with one call; the frozen
    ``batch-delta`` golden vectors pin this function against the
    single-image decode.

    With ``outs=None`` the returned arrays are views into one contiguous
    ``(N·H, W)`` float16 block (no per-image copies); passing ``outs``
    (e.g. channel slices of per-sample volumes) fills them instead.
    """
    if not encs:
        return []
    H, W = encs[0].shape
    cfg = encs[0].config
    for enc in encs:
        if enc.shape != (H, W) or enc.config != cfg:
            raise ValueError(
                "decode_images_fast requires one shared shape and config"
            )
    if outs is not None and len(outs) != len(encs):
        raise ValueError("outs must have one destination per image")
    N = len(encs)
    payloads = [np.frombuffer(enc.payload, dtype=np.uint8) for enc in encs]
    if N == 1:
        buf = payloads[0]
        bases = [0]
    else:
        sizes = np.array([p.size for p in payloads], dtype=np.int64)
        bases = np.concatenate([[0], np.cumsum(sizes[:-1])])
        buf = np.concatenate(payloads)
    starts = np.concatenate(
        [
            enc.line_offsets[:-1].astype(np.int64) + int(base)
            for enc, base in zip(encs, bases)
        ]
    )
    modes = np.concatenate([enc.line_modes for enc in encs])
    flat = np.empty((N * H, W), dtype=np.float16)
    _decode_lines(buf, starts, modes, W, cfg, flat)
    if outs is None:
        return [flat[i * H : (i + 1) * H] for i in range(N)]
    for i, out in enumerate(outs):
        if out.shape != (H, W) or out.dtype != np.float16:
            raise ValueError(
                "out buffers must be float16 with the encoded shape"
            )
        out[...] = flat[i * H : (i + 1) * H]
    return outs
