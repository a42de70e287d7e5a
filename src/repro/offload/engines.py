"""Discrete-event step simulation for ZeRO-Offload and TECO.

Both engines simulate one training step of a full-size Table III model
against the calibrated :class:`~repro.offload.timing.HardwareParams`,
producing a :class:`~repro.offload.breakdown.StepBreakdown`.

ZeRO-Offload (baseline)
    Coarse-grained explicit DMA transfers.  Gradient-buffer flushes during
    backward are *synchronous* copies (the backward stream stalls while a
    full buffer drains — "the CPU computation must wait for the gradient
    transfers to finish"), and the parameter copy-back runs after the full
    ADAM sweep in double-buffer chunks whose filling "is much faster than
    the parameter transfer", leaving the transfer largely exposed
    (Section II-A).  This reproduces the Table I exposed-communication
    fractions.  ``dpu=True`` applies one-step delayed parameter update:
    the CPU-side tail overlaps the next step's GPU window.

TECO
    Cache-line streaming over CXL with the update protocol: gradient lines
    stream continuously *during* backward (Figure 6 step 3), parameter
    lines stream while the blocked ADAM sweep writes them back, and a
    ``CXLFENCE`` at each producer's end exposes only the undrained tail.
    TECO-Reduction additionally halves parameter payloads via DBA.
    Setting ``coherence=CoherenceMode.INVALIDATION`` reproduces stock-CXL
    behaviour for the Section IV-A2 ablation: data is fetched on demand
    after the producer finishes, so nothing overlaps.

Streaming is simulated fluidly in sub-chunks
(:func:`repro.offload.step.stream`, 64 per phase), which converges to the
exact producer/link fluid limit while keeping event counts small for
billion-parameter models.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.coherence.home_agent import CoherenceMode
from repro.interconnect.packets import CACHE_LINE_BYTES, packet_wire_bytes
from repro.models.specs import ModelSpec
from repro.offload.breakdown import StepBreakdown
from repro.offload.step import Phases, breakdown, run_steps, stream, wire_volume
from repro.offload.timing import HardwareParams
from repro.sim import SerialLink, Simulator
from repro.utils.units import NS

__all__ = ["SystemKind", "ZeROOffloadEngine", "TECOEngine", "simulate_system"]

#: Conservative pipelined DBA-unit delay charged per streamed chunk
#: (Section VIII-D charges 1 ns; it amortizes through pipelining).
DBA_PIPELINE_DELAY = 1 * NS


class SystemKind(enum.Enum):
    """The three systems of Figure 11 / Table IV."""

    ZERO_OFFLOAD = "zero-offload"
    TECO_CXL = "teco-cxl"
    TECO_REDUCTION = "teco-reduction"


class ZeROOffloadEngine:
    """Baseline: DeepSpeed ZeRO-Offload over plain PCIe."""

    def __init__(
        self,
        spec: ModelSpec,
        batch: int,
        hw: HardwareParams | None = None,
        dpu: bool = False,
        tracer=None,
        metrics=None,
    ):
        if batch <= 0:
            raise ValueError("batch must be positive")
        self.spec = spec
        self.batch = batch
        self.hw = hw or HardwareParams.paper_default()
        self.dpu = dpu
        self.tracer = tracer
        self.metrics = metrics

    def simulate_step(self) -> StepBreakdown:
        """Simulate one baseline training step."""
        spec, hw = self.spec, self.hw
        sim = Simulator(tracer=self.tracer, metrics=self.metrics)
        link = SerialLink(sim, hw.pcie.effective_bandwidth, name="pcie")
        phases = Phases.of(spec, self.batch, hw)

        def step():
            marks: dict[str, float] = {}
            # Phase 1-2: forward + backward on GPU.
            yield sim.timeout(phases.forward)
            marks["fwd_end"] = sim.now
            # Phase 3: the gradient buffer flushes during backward; each
            # flush is a synchronous copy that stalls the backward stream.
            n_layers = max(spec.n_layers, 1)
            per_layer_time = phases.backward / n_layers
            per_layer_bytes = spec.gradient_bytes / n_layers
            buffered = 0.0
            stalled = 0.0
            for _ in range(n_layers):
                yield sim.timeout(per_layer_time)
                buffered += per_layer_bytes
                while buffered >= hw.gradient_buffer_bytes:
                    t0 = sim.now
                    yield link.transmit(
                        hw.gradient_buffer_bytes,
                        extra_delay=hw.pcie.dma_setup_latency,
                    )
                    stalled += sim.now - t0
                    buffered -= hw.gradient_buffer_bytes
            if buffered:
                t0 = sim.now
                yield link.transmit(
                    buffered, extra_delay=hw.pcie.dma_setup_latency
                )
                stalled += sim.now - t0
            marks["grad_stall"] = stalled
            marks["bwd_end"] = sim.now
            marks["grads_on_cpu"] = sim.now
            # Phase 4: clip on CPU.
            yield sim.timeout(phases.clip)
            marks["clip_end"] = sim.now
            # Phase 5: the full ADAM sweep, then the parameter copy-back in
            # double-buffer chunks.  Buffer filling (a CPU memcpy into the
            # pinned staging buffer) is much faster than the PCIe transfer,
            # so the transfers dominate and sit on the critical path.
            yield sim.timeout(phases.adam)
            marks["adam_end"] = sim.now
            chunk = hw.param_chunk_bytes
            remaining = spec.param_bytes
            while remaining > 0:
                this = min(chunk, remaining)
                remaining -= this
                yield link.transmit(
                    this, extra_delay=hw.pcie.dma_setup_latency
                )
            marks["params_on_gpu"] = sim.now
            return marks

        (marks,) = run_steps(sim, {"zero-offload": step()})
        # The synchronous flush stalls are gradient-transfer time exposed
        # to the critical path even though they occur inside backward.
        result = breakdown(
            marks,
            phases,
            backward=marks["bwd_end"] - marks["fwd_end"] - marks["grad_stall"],
            grad_transfer_exposed=marks["grad_stall"],
            wire_bytes=link.bytes_sent,
            wire_bytes_per_link=link.bytes_sent,
            grad_transfer_raw=hw.pcie.effective_bandwidth.time_for(
                spec.gradient_bytes
            ),
            param_transfer_raw=hw.pcie.effective_bandwidth.time_for(
                spec.param_bytes
            ),
        )
        if not self.dpu:
            return result
        # One-step delayed parameter update: the CPU-side tail (clip +
        # ADAM + exposed transfers) overlaps the *next* step's GPU window.
        # Hide communication first, then optimizer — effective only when
        # the GPU window is large (big batch).
        hide = phases.forward + phases.backward
        hidden_param = min(result.param_transfer_exposed, hide)
        hide -= hidden_param
        hidden_grad = min(result.grad_transfer_exposed, hide)
        return dataclasses.replace(
            result,
            param_transfer_exposed=result.param_transfer_exposed - hidden_param,
            grad_transfer_exposed=result.grad_transfer_exposed - hidden_grad,
        )


class TECOEngine:
    """TECO: update-coherent CXL streaming, optionally with DBA."""

    def __init__(
        self,
        spec: ModelSpec,
        batch: int,
        hw: HardwareParams | None = None,
        dba: bool = False,
        dirty_bytes: int = 2,
        coherence: CoherenceMode = CoherenceMode.UPDATE,
        tracer=None,
        metrics=None,
    ):
        if batch <= 0:
            raise ValueError("batch must be positive")
        if not 1 <= dirty_bytes <= 4:
            raise ValueError("dirty_bytes must be in [1, 4]")
        self.spec = spec
        self.batch = batch
        self.hw = hw or HardwareParams.paper_default()
        self.dba = dba
        self.dirty_bytes = dirty_bytes if dba else 4
        self.coherence = coherence
        self.tracer = tracer
        self.metrics = metrics

    def simulate_step(self) -> StepBreakdown:
        """Simulate one TECO training step."""
        spec, hw = self.spec, self.hw
        sim = Simulator(tracer=self.tracer, metrics=self.metrics)
        # CXL is full duplex per direction over the same PHY; gradients and
        # parameters never stream simultaneously within a step, so one
        # serialized wire models the shared bandwidth faithfully.
        wire = SerialLink(sim, hw.cxl.effective_bandwidth, name="cxl")
        phases = Phases.of(spec, self.batch, hw)
        update_mode = self.coherence is CoherenceMode.UPDATE

        grad_wire = wire_volume(spec.gradient_bytes, 4)  # no DBA on grads
        param_wire = wire_volume(spec.param_bytes, self.dirty_bytes)

        def produce(duration, payload, tensor_bytes, extra_delay):
            """Compute for ``duration`` while (update mode) or before
            (invalidation mode) ``payload`` wire bytes cross; returns the
            event the producer's ``CXLFENCE`` waits for."""
            if update_mode:
                # Lines stream as the producer writes them (MESI-update).
                events = yield from stream(
                    sim, duration, payload, wire.transmit,
                    extra_delay=extra_delay,
                )
                return sim.all_of(events)
            # Invalidation mode: lines were invalidated while produced; the
            # consumer fetches them all on demand afterwards, plus the
            # invalidation-message overhead on the wire.
            yield sim.timeout(duration)
            inv_overhead = (
                tensor_bytes / CACHE_LINE_BYTES
            ) * packet_wire_bytes(0)
            return wire.transmit(payload + inv_overhead)

        def step():
            marks: dict[str, float] = {}
            yield sim.timeout(phases.forward)
            marks["fwd_end"] = sim.now
            fence = yield from produce(
                phases.backward, grad_wire, spec.gradient_bytes, 0.0
            )
            marks["bwd_end"] = sim.now
            yield fence
            marks["grads_on_cpu"] = sim.now
            yield sim.timeout(phases.clip)
            marks["clip_end"] = sim.now
            # The Aggregator adds a pipelined delay to every streamed chunk.
            fence = yield from produce(
                phases.adam,
                param_wire,
                spec.param_bytes,
                DBA_PIPELINE_DELAY if self.dba else 0.0,
            )
            marks["adam_end"] = sim.now
            yield fence
            marks["params_on_gpu"] = sim.now
            return marks

        system = "teco-reduction" if self.dba else "teco-cxl"
        (marks,) = run_steps(sim, {system: step()})
        return breakdown(
            marks,
            phases,
            wire_bytes=wire.bytes_sent,
            wire_bytes_per_link=wire.bytes_sent,
            grad_transfer_raw=hw.cxl.effective_bandwidth.time_for(grad_wire),
            param_transfer_raw=hw.cxl.effective_bandwidth.time_for(param_wire),
        )


def simulate_system(
    kind: SystemKind,
    spec: ModelSpec,
    batch: int,
    hw: HardwareParams | None = None,
    **kwargs,
) -> StepBreakdown:
    """Simulate one step of the named system configuration."""
    if kind is SystemKind.ZERO_OFFLOAD:
        return ZeROOffloadEngine(spec, batch, hw, **kwargs).simulate_step()
    if kind is SystemKind.TECO_CXL:
        return TECOEngine(spec, batch, hw, dba=False, **kwargs).simulate_step()
    if kind is SystemKind.TECO_REDUCTION:
        return TECOEngine(spec, batch, hw, dba=True, **kwargs).simulate_step()
    raise ValueError(f"unknown system kind {kind}")
