"""Multi-GPU data-parallel extension (beyond the paper's single-GPU eval).

The paper motivates TECO with the observation that large-scale data
parallelism forces the *per-GPU* batch size down (the global batch is
capped by convergence), which is exactly the regime where ZeRO-Offload's
exposed transfers hurt most and DPU fails (Section II-A).  This module
extends the step simulation to N data-parallel workers in the
ZeRO-Offload arrangement:

* every GPU computes forward/backward on its micro-batch;
* gradients are reduce-scattered across GPUs (ring, over NVLink or PCIe
  peer links), so each GPU owns 1/N of the gradient;
* each GPU ships its shard to the CPU over its own CXL/PCIe link; the
  CPU's ADAM updates the full parameter set (shard-parallel);
* updated parameter shards return to their owner GPUs and are
  all-gathered across GPUs.

TECO applies per host link: gradient shards stream during backward and
parameter shards stream during the (1/N-sized) ADAM sweep, with DBA on
the parameter direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.specs import ModelSpec
from repro.offload.breakdown import StepBreakdown
from repro.offload.engines import SystemKind
from repro.offload.step import (
    STREAM_CHUNKS,
    Phases,
    breakdown,
    run_steps,
    stream,
    wire_volume,
)
from repro.offload.timing import HardwareParams
from repro.sim import SerialLink, Simulator
from repro.utils.units import GB, Bandwidth

__all__ = ["ClusterParams", "DataParallelEngine"]


@dataclass(frozen=True)
class ClusterParams:
    """Inter-GPU collective-communication parameters.

    ``collective_bandwidth`` is the per-GPU bus bandwidth available to
    ring collectives (NVLink-class by default).  The ring algebra, made
    explicit because an earlier docstring mixed the two conventions up:
    a ring reduce-scatter or all-gather over a *full tensor* of ``S``
    bytes moves ``S * (n-1)/n`` bytes through each GPU's bus port.
    :meth:`ring_time` takes the **per-GPU shard** ``s = S/n`` (what the
    ZeRO-sharded engines naturally hold) and therefore charges
    ``s * (n-1)`` — the same quantity.  Use :meth:`ring_time_for_tensor`
    when you hold the full tensor size instead.
    """

    n_gpus: int = 4
    collective_bandwidth: Bandwidth = field(
        default_factory=lambda: Bandwidth(60 * GB)
    )
    collective_latency: float = 10e-6

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        if self.collective_latency < 0:
            raise ValueError("collective_latency must be non-negative")

    def ring_time(self, shard_bytes_per_gpu: float) -> float:
        """One ring collective (reduce-scatter or all-gather).

        ``shard_bytes_per_gpu`` is the **1/n shard** each GPU owns, not
        the full tensor; per-GPU bus traffic is ``shard * (n-1)``
        (equivalently ``S * (n-1)/n`` for the full tensor ``S``).
        """
        if shard_bytes_per_gpu < 0:
            raise ValueError("bytes must be non-negative")
        if self.n_gpus == 1:
            return 0.0
        moved = shard_bytes_per_gpu * (self.n_gpus - 1)
        return self.collective_latency + self.collective_bandwidth.time_for(
            moved
        )

    def ring_time_for_tensor(self, tensor_bytes: float) -> float:
        """Ring collective over a **full tensor** of ``tensor_bytes``.

        Convenience wrapper that derives the 1/n shard, so callers
        holding unsharded sizes cannot accidentally over-charge the bus
        by ``n``: ``ring_time_for_tensor(S) == ring_time(S / n)``.
        """
        if tensor_bytes < 0:
            raise ValueError("bytes must be non-negative")
        return self.ring_time(tensor_bytes / self.n_gpus)


class DataParallelEngine:
    """N-GPU ZeRO-Offload / TECO step simulation.

    ``global_batch`` is split evenly across GPUs; host links are
    per-GPU (one CXL/PCIe attachment each), and the CPU-side optimizer
    work parallelizes over shards (its memory bandwidth is shared, so the
    sweep time stays that of the full parameter set).
    """

    def __init__(
        self,
        kind: SystemKind,
        spec: ModelSpec,
        global_batch: int,
        cluster: ClusterParams | None = None,
        hw: HardwareParams | None = None,
        dirty_bytes: int = 2,
        tracer=None,
        metrics=None,
    ):
        self.kind = kind
        self.tracer = tracer
        self.metrics = metrics
        self.spec = spec
        self.cluster = cluster or ClusterParams()
        if global_batch < self.cluster.n_gpus:
            raise ValueError("global_batch must be >= n_gpus")
        if global_batch % self.cluster.n_gpus:
            raise ValueError("global_batch must divide evenly across GPUs")
        self.global_batch = global_batch
        self.hw = hw or HardwareParams.paper_default()
        self.dirty_bytes = (
            dirty_bytes if kind is SystemKind.TECO_REDUCTION else 4
        )

    @property
    def micro_batch(self) -> int:
        """Per-GPU batch size."""
        return self.global_batch // self.cluster.n_gpus

    @property
    def link_bandwidth(self) -> Bandwidth:
        """Host-link bandwidth: PCIe for ZeRO-Offload, CXL for TECO."""
        if self.kind is SystemKind.ZERO_OFFLOAD:
            return self.hw.pcie.effective_bandwidth
        return self.hw.cxl.effective_bandwidth

    def step(
        self,
        sim: Simulator,
        link,
        phases: Phases,
        reducer=None,
        reduce_bytes: float = 0.0,
    ):
        """One data-parallel worker's step, as a step generator.

        The generator models the representative GPU of one ZeRO-sharded
        data-parallel job: compute phases, ring-collective charges, and
        the host-link traffic of its 1/n gradient/parameter shards, and
        returns its marks.  ``link`` is anything
        :class:`~repro.sim.SerialLink`-shaped — a private host attachment
        here, or a shared multi-host
        :class:`~repro.interconnect.fabric.FabricPort` under
        :class:`~repro.offload.cluster.ClusterEngine`, which is how the
        same step runs unmodified under pool contention.

        With a ``reducer`` (a
        :class:`~repro.interconnect.aggregation.FabricReducer`), the
        gradient direction bypasses both the ring reduce-scatter and the
        per-shard host-link transfer: every rank instead streams its
        full encoded gradient (``reduce_bytes``) into the in-fabric
        reduction, and only the reduced stream crosses the pool
        boundary.  The parameter direction is unchanged.
        """
        spec, n = self.spec, self.cluster.n_gpus
        dma = self.hw.pcie.dma_setup_latency
        shard_bytes = spec.gradient_bytes / n
        param_shard = spec.param_bytes / n
        marks: dict[str, float] = {}
        yield sim.timeout(phases.forward)
        marks["fwd_end"] = sim.now
        if self.kind is SystemKind.ZERO_OFFLOAD:
            yield sim.timeout(phases.backward)
            marks["bwd_end"] = sim.now
            if reducer is not None:
                # In-fabric aggregation replaces ring + per-shard transfer.
                yield reducer.reduce(reduce_bytes, dma)
            else:
                # reduce-scatter, then each GPU's shard crosses its link.
                yield sim.timeout(self.cluster.ring_time(shard_bytes))
                yield link.transmit(shard_bytes, extra_delay=dma)
            marks["grads_on_cpu"] = sim.now
            yield sim.timeout(phases.clip)
            marks["clip_end"] = sim.now
            yield sim.timeout(phases.adam)
            marks["adam_end"] = sim.now
            yield link.transmit(param_shard, extra_delay=dma)
            yield sim.timeout(self.cluster.ring_time(param_shard))
            marks["params_on_gpu"] = sim.now
            return marks
        # TECO: shard gradients stream during backward (the ring
        # reduce-scatter pipelines bucket-by-bucket with backward too; its
        # residual tail is charged after backward).  Under in-fabric
        # reduction there is no ring, so no tail either.
        if reducer is not None:
            grads = yield from stream(
                sim, phases.backward, reduce_bytes, reducer.reduce,
                first_delay=dma,
            )
            marks["bwd_end"] = sim.now
        else:
            grads = yield from stream(
                sim, phases.backward, wire_volume(shard_bytes, 4),
                link.transmit,
            )
            marks["bwd_end"] = sim.now
            yield sim.timeout(
                self.cluster.ring_time(shard_bytes) / STREAM_CHUNKS
            )
        yield sim.all_of(grads)
        marks["grads_on_cpu"] = sim.now
        yield sim.timeout(phases.clip)
        marks["clip_end"] = sim.now
        params = yield from stream(
            sim, phases.adam, wire_volume(param_shard, self.dirty_bytes),
            link.transmit,
        )
        marks["adam_end"] = sim.now
        yield sim.all_of(params)
        yield sim.timeout(self.cluster.ring_time(param_shard) / STREAM_CHUNKS)
        marks["params_on_gpu"] = sim.now
        return marks

    def _breakdown(self, marks, phases, link, reducer=None) -> StepBreakdown:
        """One worker's breakdown, with the traffic of all ``n`` GPUs.

        ``link`` is *one* GPU's attachment; the job drives ``n`` of
        them, so ``wire_bytes`` is the aggregate job traffic and
        ``wire_bytes_per_link`` one link's.  With a ``reducer`` the
        gradient direction is its intake (``n`` encoded full gradients)
        instead of host-link shards.
        """
        n = self.cluster.n_gpus
        grad_wire = reducer.bytes_in if reducer is not None else 0.0
        return breakdown(
            marks,
            phases,
            wire_bytes=link.bytes_sent * n + grad_wire,
            wire_bytes_per_link=link.bytes_sent + grad_wire / n,
        )

    def simulate_step(self) -> StepBreakdown:
        """Simulate one data-parallel training step."""
        sim = Simulator(tracer=self.tracer, metrics=self.metrics)
        link = SerialLink(sim, self.link_bandwidth, name="host")
        phases = Phases.of(self.spec, self.micro_batch, self.hw)
        system = f"{self.kind.value} x{self.cluster.n_gpus}"
        (marks,) = run_steps(sim, {system: self.step(sim, link, phases)})
        return self._breakdown(marks, phases, link)
