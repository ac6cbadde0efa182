"""Plugin API for sample encode/decode in the data-loading pipeline.

Mirrors the role of the paper's DALI plugins (§VI): a plugin owns the
on-disk representation of a sample and produces, at load time, the tensor
the framework trains on — with the decode placed either on the **CPU** or
offloaded to the **GPU** ("we implemented two variants for decoding … one
for the CPU and another for the GPU").  "Decoding" deliberately includes the
fused preprocessing (normalization, ``log``, FP16 cast), which is the
paper's central reordering idea.

A plugin also reports :class:`SampleCost` — the byte/element accounting the
discrete-event performance model consumes, so the functional path and the
performance path stay consistent by construction.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.accel.device import SimulatedGpu

__all__ = ["SamplePlugin", "SampleCost"]


@dataclass(frozen=True)
class SampleCost:
    """Per-sample data-movement/compute footprint for the performance model.

    Attributes
    ----------
    stored_bytes:
        Bytes read from storage per sample (the encoded/container size).
    h2d_bytes:
        Bytes crossing the CPU→GPU link per sample.  For GPU-placed decoders
        this equals ``stored_bytes`` (encoded form travels); for CPU-placed
        decoders it is the decoded tensor size.
    decoded_bytes:
        Size of the tensor handed to the framework.
    cpu_preprocess_elems:
        Elements the CPU touches per sample (decode + preprocessing) — 0 for
        a pure GPU-placed plugin.
    gpu_decode_seconds:
        Modeled device time of the decode kernel(s) on the reference GPU;
        0 when decode runs on the CPU.
    """

    stored_bytes: int
    h2d_bytes: int
    decoded_bytes: int
    cpu_preprocess_elems: int
    gpu_decode_seconds: float = 0.0


class SamplePlugin(abc.ABC):
    """One sample representation + its encode/decode pair."""

    #: short identifier used in experiment tables ("base", "cpu", "gpu", …)
    name: str = "plugin"
    #: "cpu" or "gpu" — where decode (incl. fused preprocessing) runs
    placement: str = "cpu"

    @abc.abstractmethod
    def encode(self, data: np.ndarray, label: np.ndarray) -> bytes:
        """Serialize one sample to its container bytes."""

    @abc.abstractmethod
    def decode_cpu(self, blob: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Decode on the host; returns ``(tensor, label)``."""

    @abc.abstractmethod
    def decode_gpu(
        self, blob: bytes, device: SimulatedGpu
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode on the device, charging kernel time to ``device``."""

    def decode(
        self, blob: bytes, device: SimulatedGpu | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dispatch by placement: GPU when a device is supplied and the
        plugin is GPU-placed, CPU otherwise."""
        if self.placement == "gpu" and device is not None:
            return self.decode_gpu(blob, device)
        return self.decode_cpu(blob)

    # ------------------------------------------------------------------
    # preprocessing-graph hooks (repro.graph)
    # ------------------------------------------------------------------

    def decode_raw(
        self, blob: bytes, device: SimulatedGpu | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode to the representation's *native* tensor.

        Graph decode nodes use this: any preprocessing the legacy
        :meth:`decode` bakes in is instead declared as elementwise graph
        nodes so the optimizer can fuse and cost it.  Plugins whose
        decode has no built-in preprocessing inherit this default.
        """
        return self.decode(blob, device)

    def decode_fused(
        self,
        blob: bytes,
        func=None,
        device: SimulatedGpu | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Native decode with an elementwise chain fused in.

        ``func`` is the composed chain from
        :func:`repro.graph.compiler.compose_steps`.  The default applies
        it as one pass over the decoded tensor (the delta codec's
        post-transform fusion); representations that can do better —
        the LUT codec applies it to table entries before the gather —
        override this.  Implementations must stay bit-identical to
        running the chain after :meth:`decode_raw`.
        """
        tensor, label = self.decode_raw(blob, device)
        if func is not None:
            tensor = func(tensor)
        return tensor, label

    def declare_preprocessing(self, source, verify_reads: bool = False):
        """Declare this plugin's preprocessing as an optimizable graph.

        The default is the minimal ``read → decode`` chain; plugins with
        real preprocessing override this to expose it node by node
        (which is what lets the compiler re-derive the paper's fused
        decode instead of special-casing it).
        """
        from repro.graph.ir import PipelineGraph

        graph = PipelineGraph(name=self.name)
        graph.read(source, verify=verify_reads)
        graph.decode(self)
        return graph

    @abc.abstractmethod
    def measure(self, data: np.ndarray, label: np.ndarray) -> SampleCost:
        """Encode one representative sample and report its cost footprint."""
