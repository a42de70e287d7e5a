"""Discrete-event simulation kernel.

A minimal process-oriented engine (in the style of SimPy, reimplemented from
scratch) used to model the CPU/GPU/CXL timeline of one training step:
processes are Python generators that yield waitable events; resources model
serialized links and bounded queues.

Public objects
--------------
Simulator
    Event loop with a monotonic virtual clock; ``all_of`` joins events.
SimEvent
    One-shot waitable event.
Process
    Generator-driven process; itself waitable.
Store
    Bounded FIFO item channel (producer/consumer).
SerialLink
    Serialized transmission resource with bandwidth + per-transfer latency.
"""

from repro.sim.engine import Process, SimEvent, Simulator
from repro.sim.resources import SerialLink, Store

__all__ = [
    "Simulator",
    "SimEvent",
    "Process",
    "Store",
    "SerialLink",
]
