"""CosmoFlow lookup-table codec (paper §V-B).

A CosmoFlow sample is a 3-D histogram of dark-matter particle counts at four
redshifts: ``counts[4, D, D, D]``.  The paper's analysis (our Figure 5
harness verifies it on the synthetic data) found that

* the number of *unique values* per sample is only a few hundred, with a
  power-law frequency distribution, and
* the four redshift values at a voxel are highly coupled, so the number of
  unique *groups of four* is only a few tens of thousands — far below the
  permutation count — and therefore indexable with 16-bit integers.

Encoding therefore stores a per-sample lookup table of unique 4-groups plus
one small key per voxel (1 byte when ≤256 groups, 2 bytes otherwise — the
paper uses "keys of width 1 or 2 bytes").  Decoding is a single gather —
embarrassingly parallel and coalesced, which is what makes it efficient on
accelerators, unlike gzip.

The decisive fusion optimization: expensive preprocessing operators such as
CosmoFlow's ``log`` are applied to the *table* (hundreds of entries) rather
than the expanded volume (millions of voxels), i.e. *before* decompression —
"applying the log operator before decompression is advantageous".

Volumes larger than the table limit are split into sub-blocks with one table
each ("for larger than 128³ decompositions, multiple lookup tables are
required").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "LutCodecConfig",
    "LutEncodedSample",
    "LutTable",
    "encode_sample",
    "decode_sample",
    "decode_samples",
    "apply_to_tables",
]

#: hard ceiling on table entries indexable by the widest supported key
_MAX_GROUPS = 1 << 16


@dataclass(frozen=True)
class LutCodecConfig:
    """Parameters of the lookup-table codec.

    Attributes
    ----------
    max_groups_per_table:
        Upper bound on unique groups per lookup table.  When a (sub-)volume
        exceeds it, the volume is recursively split along its longest spatial
        axis and each half gets its own table.
    value_dtype:
        On-disk dtype of table entries before preprocessing fusion.  The
        original data are particle counts; int16 matches the distributed
        TFRecord representation the 4× compression factor is measured
        against.
    """

    max_groups_per_table: int = _MAX_GROUPS
    value_dtype: str = "int16"

    def __post_init__(self) -> None:
        if not 1 <= self.max_groups_per_table <= _MAX_GROUPS:
            raise ValueError(
                f"max_groups_per_table must be in [1, {_MAX_GROUPS}]"
            )


@dataclass
class LutTable:
    """One lookup table covering a contiguous sub-volume.

    ``region`` is the (start, stop) slice per spatial axis; ``keys`` holds
    one key per voxel of the region (C-order) and ``values`` the table of
    unique groups, shape ``[n_groups, n_channels]``.
    """

    region: tuple[tuple[int, int], ...]
    keys: np.ndarray  # uint8 or uint16, flat
    values: np.ndarray  # [n_groups, C]

    @property
    def key_width(self) -> int:
        return self.keys.dtype.itemsize

    @property
    def n_groups(self) -> int:
        return self.values.shape[0]

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes


@dataclass
class LutEncodedSample:
    """A fully encoded CosmoFlow sample: one or more tables + metadata."""

    shape: tuple[int, ...]  # (C, *spatial)
    tables: list[LutTable]
    dtype: np.dtype = field(default_factory=lambda: np.dtype("int16"))

    @property
    def nbytes(self) -> int:
        # per-table region metadata: 2 ints per spatial axis (8 bytes each)
        meta = sum(16 * len(t.region) for t in self.tables)
        return sum(t.nbytes for t in self.tables) + meta

    @property
    def n_groups_total(self) -> int:
        return sum(t.n_groups for t in self.tables)


def _key_dtype(n_groups: int) -> np.dtype:
    """Narrowest supported key dtype for ``n_groups`` table entries."""
    return np.dtype(np.uint8) if n_groups <= 256 else np.dtype(np.uint16)


def _encode_region(
    sample: np.ndarray,
    region: tuple[tuple[int, int], ...],
    cfg: LutCodecConfig,
    out: list[LutTable],
) -> None:
    """Encode one sub-volume, splitting recursively if its table overflows."""
    slices = (slice(None),) + tuple(slice(lo, hi) for lo, hi in region)
    sub = sample[slices]
    C = sub.shape[0]
    groups = np.ascontiguousarray(np.moveaxis(sub, 0, -1)).reshape(-1, C)
    values, keys = np.unique(groups, axis=0, return_inverse=True)
    if values.shape[0] > cfg.max_groups_per_table:
        # Split along the longest spatial axis of the region.
        lengths = [hi - lo for lo, hi in region]
        axis = int(np.argmax(lengths))
        lo, hi = region[axis]
        if hi - lo < 2:
            raise ValueError(
                "region not splittable further but table exceeds "
                f"{cfg.max_groups_per_table} groups"
            )
        mid = (lo + hi) // 2
        left = tuple((lo, mid) if i == axis else r for i, r in enumerate(region))
        right = tuple((mid, hi) if i == axis else r for i, r in enumerate(region))
        _encode_region(sample, left, cfg, out)
        _encode_region(sample, right, cfg, out)
        return
    out.append(
        LutTable(
            region=region,
            keys=keys.reshape(-1).astype(_key_dtype(values.shape[0])),
            values=values,
        )
    )


def encode_sample(
    sample: np.ndarray, config: LutCodecConfig | None = None
) -> LutEncodedSample:
    """Encode ``sample[C, *spatial]`` (channel-first particle counts).

    Channels correspond to the four redshifts; a "group" is the C-vector of
    values at one voxel.
    """
    cfg = config or LutCodecConfig()
    sample = np.asarray(sample)
    if sample.ndim < 2:
        raise ValueError("sample must be channel-first with >=1 spatial axis")
    region = tuple((0, n) for n in sample.shape[1:])
    tables: list[LutTable] = []
    _encode_region(sample, region, cfg, tables)
    return LutEncodedSample(
        shape=tuple(sample.shape), tables=tables, dtype=sample.dtype
    )


def apply_to_tables(
    enc: LutEncodedSample,
    func: Callable[[np.ndarray], np.ndarray],
    out_dtype: np.dtype | str | None = None,
) -> LutEncodedSample:
    """Fuse a preprocessing operator into the lookup tables.

    Applies ``func`` to each table's values — a few hundred entries — instead
    of the expanded multi-million-voxel volume.  This is the paper's operator
    reordering: preprocessing *before* decompression.  Returns a new encoded
    sample sharing the key arrays (zero copies of the bulky part).
    """
    new_tables = []
    for t in enc.tables:
        vals = func(t.values)
        if out_dtype is not None:
            vals = vals.astype(out_dtype)
        new_tables.append(LutTable(region=t.region, keys=t.keys, values=vals))
    dtype = new_tables[0].values.dtype if new_tables else enc.dtype
    return LutEncodedSample(shape=enc.shape, tables=new_tables, dtype=dtype)


def decode_sample(
    enc: LutEncodedSample,
    out: np.ndarray | None = None,
    dtype: np.dtype | str | None = None,
) -> np.ndarray:
    """Decode to a channel-first dense array.

    The decode is one gather per table (``values[keys]``), then a fused
    transpose back to channel-first layout.  ``dtype`` overrides the output
    dtype (the pipeline requests ``float16``).
    """
    out_dtype = np.dtype(dtype) if dtype is not None else enc.tables[0].values.dtype
    C = enc.shape[0]
    if out is None:
        out = np.empty(enc.shape, dtype=out_dtype)
    elif out.shape != enc.shape or out.dtype != out_dtype:
        raise ValueError("out buffer must match encoded shape/dtype")
    for t in enc.tables:
        region_shape = tuple(hi - lo for lo, hi in t.region)
        gathered = t.values[t.keys]  # [n_voxels, C] gather
        block = gathered.reshape(*region_shape, C)
        slices = (slice(None),) + tuple(slice(lo, hi) for lo, hi in t.region)
        out[slices] = np.moveaxis(block, -1, 0).astype(out_dtype, copy=False)
    return out


def decode_samples(
    encs: Sequence[LutEncodedSample],
    dtype: np.dtype | str | None = None,
) -> list[np.ndarray]:
    """Decode several same-shape samples with **one** table gather.

    All tables of all samples are stacked into one value array, each
    sample's keys are shifted by its tables' group offsets, and a single
    fancy index replaces ``N × n_tables`` separate gathers.  Values
    picked out of the stacked array are byte-for-byte the values the
    per-table gather would pick (stacking never converts: mismatched
    table dtypes raise ``ValueError``, as do mixed sample shapes).  The
    frozen ``batch-lut`` golden vectors pin this function against
    :func:`decode_sample`.
    """
    if not encs:
        return []
    shape = encs[0].shape
    vdtype = encs[0].tables[0].values.dtype
    for enc in encs:
        if enc.shape != shape:
            raise ValueError("decode_samples requires one shared shape")
        for t in enc.tables:
            if t.values.dtype != vdtype:
                raise ValueError(
                    "decode_samples requires one shared table dtype"
                )
    out_dtype = np.dtype(dtype) if dtype is not None else vdtype
    C = shape[0]
    tables = [t for enc in encs for t in enc.tables]
    # one concatenated table; each table's keys shift by its group base
    values = np.concatenate([t.values for t in tables], axis=0)
    base = 0
    shifted = []
    for t in tables:
        shifted.append(t.keys.astype(np.int64) + base)
        base += t.n_groups
    gathered = values[np.concatenate(shifted)]  # one [Σ voxels, C] gather
    outs = [np.empty(shape, dtype=out_dtype) for _ in encs]
    pos = 0
    for out, enc in zip(outs, encs):
        for t in enc.tables:
            region_shape = tuple(hi - lo for lo, hi in t.region)
            nvox = t.keys.size
            block = gathered[pos:pos + nvox].reshape(*region_shape, C)
            slices = (slice(None),) + tuple(
                slice(lo, hi) for lo, hi in t.region
            )
            out[slices] = np.moveaxis(block, -1, 0).astype(
                out_dtype, copy=False
            )
            pos += nvox
    return outs
