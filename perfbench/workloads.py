"""The benchmark's workloads and the two kinds of pass over them.

Each pass runs in a fresh process (see ``passrun.py``):

* :func:`run_cold` is the **cold** pass over the workload's cells,
  timed as ``wall_s``.  Train-dba and fabric-replay call
  ``run_experiment`` inline with no cache, then store the results in an
  empty ``ResultCache`` (untimed).  Sweep-cache runs ``run_sweep`` over
  its 240 cells into the empty cache.
* :func:`run_rerun` is the ``repro run`` re-run path over that cache:
  the **warm** pass (the same cells, every one a cache hit, timed;
  sweep-cache re-runs the sweep), then
  :data:`N_WINDOWS` windows of :data:`N_HITS` inline
  ``run_experiment(..., cache=)`` hits cycling over the cells, each
  timed; every window reports its p50 and p95 (``hit_ms``).

Both return every cell's result hash, which ``run.py`` compares with
the recorded ones; a re-run also checks that every hit's rows equal the
warm pass's.

This module imports ``repro`` only inside functions, so ``run.py`` can
read the workload names without it.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

__all__ = [
    "WORKLOADS",
    "Workload",
    "N_HITS",
    "SWEEP_EXPERIMENTS",
    "data_seed",
    "run_cold",
    "run_rerun",
]

#: Inline cache hits per window (240 samples leave 12 beyond p95).
N_HITS = 240

#: Windows of hits per re-run, and the pause before each.  The host
#: this was tuned on slows down in bursts of 0.1 s to seconds; a window
#: of hits lasts tens of milliseconds, so it falls either inside or
#: outside a burst.  ``run.py`` reports the fastest window.
N_WINDOWS = 8
WINDOW_GAP_S = 0.15

#: Data seeds whose result hashes are recorded in ``expected.json``.
#: The command's ``--seed`` selects one of them (``seed % 4``).  Seed 0
#: is the development seed; seeds 1 to 3 were held out and only run to
#: record their hashes.
DATA_SEEDS = 4

#: The sweep-cache grid: millisecond-scale analytic experiments.
SWEEP_EXPERIMENTS = (
    "table1",
    "fig11",
    "fig12",
    "table6",
    "seqlen",
    "interconnect",
    "dpu",
    "scaling",
    "fig_kvcache",
    "fig_activation",
    "comm-volume",
    "overheads",
)

#: Cell seeds per sweep-cache experiment.
SWEEP_SEEDS = 20


@dataclass(frozen=True)
class Workload:
    """A named set of registry experiments run at their defaults."""

    name: str
    experiments: tuple[str, ...]
    sweep: bool = False
    #: The cells build CXL fabrics, so a traced pass must have checked
    #: some fabric's byte conservation and some link's utilisation.
    fabrics: bool = False

    def cells(self, seed: int) -> list[tuple[str, int]]:
        """The ``(experiment, seed)`` cells of one pass for ``--seed``."""
        d = data_seed(seed)
        if not self.sweep:
            return [(e, d) for e in self.experiments]
        seeds = [d * 1000 + k for k in range(SWEEP_SEEDS)]
        return [(e, s) for s in seeds for e in self.experiments]

    def jobs(self) -> int:
        """Sweep worker processes (0: the cells run inline)."""
        return min(2, os.cpu_count() or 1) if self.sweep else 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-dba", ("fig10", "fig13", "table5")),
        Workload(
            "fabric-replay", ("fig_fabric", "fig_zero3", "granularity"), fabrics=True
        ),
        Workload("sweep-cache", SWEEP_EXPERIMENTS, sweep=True),
    )
}


def data_seed(seed: int) -> int:
    """The recorded data seed that ``--seed`` selects."""
    return seed % DATA_SEEDS


def label(experiment: str, seed: int) -> str:
    """The key of one cell in ``expected.json``."""
    return f"{experiment}@{seed}"


def run_cold(workload: Workload, seed: int, cache_dir: str) -> dict:
    """The cold pass; leaves every result in the empty ``cache_dir``.

    Calls go through the module attributes (``registry.run_experiment``,
    ``executor.run_sweep``) so that a tracer installed beforehand sees
    them.
    """
    from repro.experiments import cache as cache_mod
    from repro.experiments import executor, pretrained, registry

    cells = workload.cells(seed)
    labels = [label(e, s) for e, s in cells]
    cache = cache_mod.ResultCache(root=cache_dir)
    pretrained.clear()
    errors: list[str] = []
    results: dict = {}
    if workload.sweep:
        sweep_cells = [executor.SweepCell.make(e, None, s) for e, s in cells]
        t0 = time.perf_counter()
        report = executor.run_sweep(sweep_cells, jobs=workload.jobs(), cache=cache)
        wall = time.perf_counter() - t0
        for key, outcome in zip(labels, report.outcomes):
            if outcome.error is not None:
                errors.append(f"cold {key}: {outcome.error}")
            elif outcome.cached:
                errors.append(f"cold {key}: served from an empty cache")
            else:
                results[key] = outcome.result
    else:
        t0 = time.perf_counter()
        for key, (e, s) in zip(labels, cells):
            try:
                results[key] = registry.run_experiment(e, seed=s)
            except Exception as exc:  # counted as a failed cell
                errors.append(f"cold {key}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        for result in results.values():
            cache.put(result)
    return {
        "wall_s": wall,
        "hashes": {key: r.result_hash for key, r in results.items()},
        "attempted": len(cells),
        "errors": errors,
    }


def run_rerun(workload: Workload, seed: int, cache_dir: str) -> dict:
    """The warm pass and the inline hits, over a cold pass's cache."""
    from repro.experiments import cache as cache_mod
    from repro.experiments import executor, registry

    cells = workload.cells(seed)
    labels = [label(e, s) for e, s in cells]
    cache = cache_mod.ResultCache(root=cache_dir)
    errors: list[str] = []
    warm: dict = {}
    if workload.sweep:
        sweep_cells = [executor.SweepCell.make(e, None, s) for e, s in cells]
        t0 = time.perf_counter()
        report = executor.run_sweep(sweep_cells, jobs=workload.jobs(), cache=cache)
        wall = time.perf_counter() - t0
        for key, outcome in zip(labels, report.outcomes):
            if outcome.error is not None:
                errors.append(f"warm {key}: {outcome.error}")
            elif not outcome.cached:
                errors.append(f"warm {key}: not served from the cache")
            else:
                warm[key] = outcome.result
    else:
        t0 = time.perf_counter()
        for key, (e, s) in zip(labels, cells):
            try:
                warm[key] = registry.run_experiment(e, seed=s, cache=cache)
            except Exception as exc:
                errors.append(f"warm {key}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        errors += [
            f"warm {key}: not served from the cache"
            for key, r in warm.items()
            if not r.meta.get("cached")
        ]
    windows: list[list[float]] = []
    idle = 0.0  # reported, so that a trace can leave the pauses out
    for _ in range(N_WINDOWS if not errors else 0):
        t0 = time.perf_counter()
        time.sleep(WINDOW_GAP_S)
        idle += time.perf_counter() - t0
        hit_ms = []
        for i in range(N_HITS):
            key, (e, s) = labels[i % len(cells)], cells[i % len(cells)]
            t0 = time.perf_counter()
            try:
                result = registry.run_experiment(e, seed=s, cache=cache)
            except Exception as exc:
                errors.append(f"hit {key}: {type(exc).__name__}: {exc}")
                continue
            hit_ms.append((time.perf_counter() - t0) * 1e3)
            if not result.meta.get("cached"):
                errors.append(f"hit {key}: not served from the cache")
            elif result.result_hash != warm[key].result_hash:
                errors.append(f"hit {key}: rows differ from the warm pass's")
        if len(hit_ms) > 1:
            cuts = statistics.quantiles(hit_ms, n=20)
            windows.append([cuts[9], cuts[18]])
    return {
        "warm_wall_s": wall,
        "hit_windows": windows,
        "idle_s": idle,
        "hashes": {key: r.result_hash for key, r in warm.items()},
        "attempted": len(cells) + N_WINDOWS * N_HITS,
        "errors": errors,
    }
