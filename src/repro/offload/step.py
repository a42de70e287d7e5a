"""The step driver shared by every training-step engine.

A training step is one fixed timeline (Figure 6): forward, backward while
gradients leave the GPU, a ``CXLFENCE``, gradient clip, ADAM while
parameters return, and a second ``CXLFENCE``.  Each engine writes that
timeline as a generator over :func:`stream` and :func:`prefetched`,
which returns its *marks* — the sim times at which ``fwd_end``,
``bwd_end``, ``grads_on_cpu``, ``clip_end``, ``adam_end`` and
``params_on_gpu`` (the step end) fall.  :func:`run_steps` runs the
generators and traces their phases; :func:`breakdown` turns marks into
the checked :class:`~repro.offload.breakdown.StepBreakdown`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator, Iterable
from dataclasses import dataclass

from repro.interconnect.packets import CACHE_LINE_BYTES, packet_wire_bytes
from repro.models.specs import ModelSpec
from repro.offload.breakdown import StepBreakdown
from repro.offload.timing import HardwareParams
from repro.sim import SimEvent, Simulator

__all__ = [
    "STREAM_CHUNKS",
    "Phases",
    "wire_volume",
    "run_steps",
    "stream",
    "prefetched",
    "breakdown",
]

#: Sub-chunks per streaming phase (fluid-approximation granularity).
STREAM_CHUNKS = 64

#: Trainer spans: (name, track, begin mark, end mark); ``None`` begins
#: at the step start.
_PHASE_SPANS = (
    ("forward", "gpu", None, "fwd_end"),
    ("backward", "gpu", "fwd_end", "bwd_end"),
    ("grad-transfer-exposed", "transfer", "bwd_end", "grads_on_cpu"),
    ("clip", "cpu", "grads_on_cpu", "clip_end"),
    ("adam", "cpu", "clip_end", "adam_end"),
    ("param-transfer-exposed", "transfer", "adam_end", "params_on_gpu"),
    ("step", "step", None, "params_on_gpu"),
)


@dataclass(frozen=True)
class Phases:
    """The compute durations of one step's phases, in seconds."""

    forward: float
    backward: float
    clip: float
    adam: float

    @classmethod
    def of(cls, spec: ModelSpec, batch: int, hw: HardwareParams) -> "Phases":
        """The phases of ``spec`` at ``batch`` on ``hw``."""
        return cls(
            forward=hw.forward_time(spec, batch),
            backward=hw.backward_time(spec, batch),
            clip=hw.grad_clip_time(spec),
            adam=hw.adam_time(spec),
        )


def wire_volume(tensor_bytes: float, dirty_bytes: int) -> float:
    """CXL wire bytes of a tensor sent as whole cache lines, each line
    carrying ``dirty_bytes`` of every 4-byte word (4 = no DBA)."""
    n_lines = -(-int(tensor_bytes) // CACHE_LINE_BYTES)
    return n_lines * packet_wire_bytes(CACHE_LINE_BYTES * dirty_bytes // 4)


def run_steps(
    sim: Simulator, steps: dict[str, Generator]
) -> list[dict[str, float]]:
    """Run each step generator as a process until the simulation drains.

    ``steps`` maps a system label to its step generator, which returns
    its marks.  Returns the marks in ``steps`` order.  With the tracer
    on, each system's phases become ``trainer`` spans on the ``gpu``,
    ``cpu`` and ``transfer`` tracks, plus a whole-step span on the
    ``step`` track, all on the sim timeline; the per-transfer wire spans
    come live from the links.
    """
    procs = [sim.process(gen, name=system) for system, gen in steps.items()]
    sim.run()
    all_marks = [proc.value for proc in procs]
    tracer = sim.tracer
    if tracer.enabled:
        for system, marks in zip(steps, all_marks):
            for name, track, begin, end in _PHASE_SPANS:
                tracer.add_span(
                    0.0 if begin is None else marks[begin],
                    marks[end],
                    name,
                    "trainer",
                    track=track,
                    system=system,
                )
    return all_marks


def stream(
    sim: Simulator,
    duration: float,
    n_bytes: float,
    *sends: Callable[[float, float], SimEvent],
    extra_delay: float = 0.0,
    first_delay: float | None = None,
) -> Generator[SimEvent, object, list[SimEvent]]:
    """Compute for ``duration`` while ``n_bytes`` stream out fluidly.

    The phase runs in :data:`STREAM_CHUNKS` equal chunks; after each,
    every ``send(n, extra_delay)`` — a link's ``transmit`` or a
    reducer's ``reduce`` — takes its ``1/STREAM_CHUNKS`` share of
    ``n_bytes``.  ``first_delay``, when given, replaces ``extra_delay``
    on the first chunk (a one-off setup cost).  Returns the delivery
    events, in send order, for the caller's ``CXLFENCE``.
    """
    per = duration / STREAM_CHUNKS
    per_bytes = n_bytes / STREAM_CHUNKS
    delay = extra_delay if first_delay is None else first_delay
    events = []
    for _ in range(STREAM_CHUNKS):
        yield sim.timeout(per)
        for send in sends:
            events.append(send(per_bytes, delay))
        delay = extra_delay
    return events


def prefetched(
    sim: Simulator,
    items: Iterable,
    fetch: Callable[[object], SimEvent | None],
    depth: int,
    compute: Callable[[object], Generator],
    stall_span: str,
    span_args: Callable[[object], dict],
) -> Generator[SimEvent, object, list[float]]:
    """Run ``compute(item)`` for each item in turn, once its data is in.

    ``fetch(item)`` issues the item's fetch and returns its delivery
    event, or ``None`` when the item needs none.  Fetches are issued in
    item order, up to ``depth`` items ahead of the one being computed.
    A wait on a fetch that has not landed is a stall, traced as a
    ``stall_span`` span (category ``offload``, track ``transfer``,
    arguments ``span_args(item)``).  Returns each item's stall seconds
    (0.0 for none), in item order.
    """
    items = list(items)
    last = len(items) - 1
    fetches: list[SimEvent | None] = []
    stalls = []
    for k, item in enumerate(items):
        while len(fetches) <= min(k + depth, last):
            fetches.append(fetch(items[len(fetches)]))
        stall = 0.0
        if fetches[k] is not None:
            t0 = sim.now
            yield fetches[k]
            stall = sim.now - t0
            if stall > 0.0 and sim.tracer.enabled:
                sim.tracer.add_span(
                    t0, sim.now, stall_span, "offload", track="transfer",
                    **span_args(item),
                )
        stalls.append(stall)
        yield from compute(item)
    return stalls


def breakdown(
    marks: dict[str, float], phases: Phases, **fields: float
) -> StepBreakdown:
    """The step's :class:`StepBreakdown`, from its marks.

    Each phase spans the marks that bound it, the compute phases take
    ``phases``' durations, and ``fields`` sets the rest (byte counts,
    exposed-stall splits) or overrides a default.  Raises
    :class:`ValueError` unless the phases add up to the step end
    ``marks["params_on_gpu"]`` (relative tolerance 1e-9).
    """
    result = StepBreakdown(
        **{
            "forward": phases.forward,
            "backward": marks["bwd_end"] - marks["fwd_end"],
            "grad_transfer_exposed": marks["grads_on_cpu"] - marks["bwd_end"],
            "grad_clip": phases.clip,
            "optimizer": marks["adam_end"] - marks["clip_end"],
            "param_transfer_exposed": marks["params_on_gpu"] - marks["adam_end"],
            **fields,
        }
    )
    end = marks["params_on_gpu"]
    if not math.isclose(result.total, end, rel_tol=1e-9):
        raise ValueError(
            f"step breakdown adds up to {result.total!r}, "
            f"but the step ended at {end!r}"
        )
    return result
