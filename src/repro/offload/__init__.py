"""Offload engines: ZeRO-Offload baseline and TECO.

Two layers of machinery:

* **Timing** (:mod:`~repro.offload.timing`, :mod:`~repro.offload.engines`):
  discrete-event simulation of one training step for full-size Table III
  models — GPU forward/backward phases, gradient/parameter transfer streams
  over PCIe (baseline) or CXL (TECO), CPU gradient clip + ADAM — yielding
  the per-phase exposed/overlapped breakdown of Figure 12 and the speedups
  of Figure 11 / Tables IV and VI.  Every step engine (ZeRO-Offload, TECO,
  data-parallel, multi-tenant cluster, activation offload, ZeRO-3) is a
  generator over one step driver, :mod:`~repro.offload.step`: it runs the
  steps, streams payloads in fluid chunks, prefetches ahead of compute,
  and builds the breakdown, checked to add up to the step end.

* **Functional** (:mod:`~repro.offload.arena`, :mod:`~repro.offload.trainer`):
  a real training loop over the NumPy autograd models with the exact
  ZeRO-Offload dataflow — CPU master parameters in a flat arena, gradients
  collected to CPU, FlatAdam, parameters mirrored back to the "GPU" copy —
  where TECO-Reduction applies bit-exact DBA merging, producing genuine
  accuracy/convergence deltas (Figures 2, 10, 13; Table V).
"""

from repro.offload.arena import FlatArena
from repro.offload.breakdown import StepBreakdown
from repro.offload.cluster import ClusterEngine, ClusterStepResult
from repro.offload.engines import (
    SystemKind,
    TECOEngine,
    ZeROOffloadEngine,
    simulate_system,
)
from repro.offload.group_offload import (
    ActivationOffloadEngine,
    ActivationStepResult,
    GroupOffloadPolicy,
)
from repro.offload.kvcache import DecodeResult, KVCacheEngine
from repro.offload.memory import MemoryBudget, MemoryModel
from repro.offload.parallel import ClusterParams, DataParallelEngine
from repro.offload.timing import HardwareParams
from repro.offload.trainer import CommVolume, OffloadTrainer, TrainerMode
from repro.offload.zero3 import Zero3Engine, Zero3StepResult

__all__ = [
    "FlatArena",
    "StepBreakdown",
    "ClusterEngine",
    "ClusterStepResult",
    "ClusterParams",
    "DataParallelEngine",
    "HardwareParams",
    "MemoryModel",
    "MemoryBudget",
    "ZeROOffloadEngine",
    "TECOEngine",
    "SystemKind",
    "simulate_system",
    "GroupOffloadPolicy",
    "ActivationOffloadEngine",
    "ActivationStepResult",
    "Zero3Engine",
    "Zero3StepResult",
    "KVCacheEngine",
    "DecodeResult",
    "OffloadTrainer",
    "TrainerMode",
    "CommVolume",
]
