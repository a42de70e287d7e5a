"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of
``repro`` (a method on its class, or a function everywhere a module has
bound it) and aggregates, per boundary, the call count, the inclusive
time and the self time (inclusive minus the wrapped calls it made).  It
keeps no per-call span objects: ``FabricPort.transmit`` runs millions of
times per pass and ``Tensor()`` once per autograd op, so per-call spans
would measure the tracer.

Self time is also summed per layer in the tracing process; the layer
self times plus :meth:`LayerTracer.unattributed` (time spent outside
every wrapped call) make up the traced wall time.  That sum holds by
construction, so what :meth:`LayerTracer.accounting_problems` checks is
what can break it: a negative self time, a boundary's self time above
its inclusive time, or more time inside wrapped calls than the wall.
Totals of processes that ran one after another
(:meth:`LayerTracer.snapshot`, :meth:`LayerTracer.merge`) add up the
same way over their summed walls.

Sweep workers fork from the traced process and inherit the wrappers.
Each worker returns the change in its totals alongside every cell result
and the parent merges it, so work done in workers is counted.  Worker
time runs in parallel with the parent and is therefore merged into the
boundary totals but not into the parent's layer self times.

Outside checks run at the end of every top-level ``run_experiment``
call: for each fabric built during the cell, the per-port byte totals
must sum to the fabric's total, and every serial link's utilisation at
its simulator's final time must be at most 1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
import weakref

__all__ = ["LAYERS", "BOUNDARIES", "LayerTracer", "InvariantError"]

#: Layer names, in report order.
LAYERS = (
    "offload",
    "tensor",
    "optim",
    "dba",
    "pretrained",
    "sim",
    "interconnect",
    "trace",
    "memsim",
    "registry",
    "driver",
    "cache",
    "executor",
)

#: Timed boundaries: (boundary, layer, module, class or None, attribute).
#: A ``None`` class means a module-level function, wrapped in every
#: ``repro`` module that has bound it (``from x import f`` copies).
BOUNDARIES = (
    ("offload.trainer_step", "offload", "repro.offload.trainer", "OffloadTrainer", "step"),
    ("offload.cluster_step", "offload", "repro.offload.cluster", "ClusterEngine", "simulate_step"),
    ("offload.zero3_step", "offload", "repro.offload.zero3", "Zero3Engine", "simulate_step"),
    ("tensor.backward", "tensor", "repro.tensor.tensor", "Tensor", "backward"),
    ("optim.step", "optim", "repro.optim.adam", "FlatAdam", "step"),
    ("dba.pack", "dba", "repro.dba.aggregator", "Aggregator", "pack_tensor"),
    ("dba.unpack", "dba", "repro.dba.disaggregator", "Disaggregator", "unpack"),
    ("pretrained.lm", "pretrained", "repro.experiments.runner", None, "pretrained_lm"),
    ("pretrained.classifier", "pretrained", "repro.experiments.runner", None, "pretrained_classifier"),
    ("sim.run", "sim", "repro.sim.engine", "Simulator", "run"),
    ("interconnect.transmit", "interconnect", "repro.interconnect.fabric", "FabricPort", "transmit"),
    ("interconnect.reduce", "interconnect", "repro.interconnect.aggregation", "FabricReducer", "reduce"),
    ("interconnect.gather", "interconnect", "repro.interconnect.gather", "FabricGather", "gather"),
    ("trace.generate", "trace", "repro.trace.generator", None, "adam_writeback_trace"),
    ("trace.replay", "trace", "repro.trace.replay", None, "replay_trace"),
    ("memsim.trace_build", "memsim", "repro.memsim.trace", "WritebackTrace", "__init__"),
    ("registry.run", "registry", "repro.experiments.registry", None, "run_experiment"),
    ("cache.key", "cache", "repro.experiments.registry", "ExperimentSpec", "code_version"),
    ("cache.get", "cache", "repro.experiments.cache", "ResultCache", "get"),
    ("cache.put", "cache", "repro.experiments.cache", "ResultCache", "put"),
    ("executor.sweep", "executor", "repro.experiments.executor", None, "run_sweep"),
)

#: Every registered experiment's runner (``ExperimentSpec.runner``) is
#: also timed, as boundary ``driver.run``: the experiment driver's own
#: code, so that ``registry`` keeps only the harness around it.
_DRIVER = ("driver.run", "driver")

#: Constructors counted exactly, not timed: (counter, module, class).
_COUNTED = (("tensor.allocs", "repro.tensor.tensor", "Tensor"),)

#: Constructors whose instances are kept for the end-of-cell checks:
#: (tracer list, module, class).
_KEPT = (
    ("_links", "repro.sim.resources", "SerialLink"),
    ("_fabrics", "repro.interconnect.fabric", "CXLFabric"),
)

#: Relative tolerance of the byte-conservation check: the port and
#: tenant totals add the same float addends in different orders.
_BYTES_RTOL = 1e-9

#: Seconds of float rounding the accounting checks allow: a self time
#: is a difference of clock readings summed over up to millions of calls.
_ACCOUNT_ATOL = 1e-6


class InvariantError(AssertionError):
    """A conservation law checked from outside the program failed."""


class _Stat:
    __slots__ = ("calls", "total", "self_s")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Install with :meth:`install`, run the pass, then :meth:`uninstall`."""

    def __init__(self):
        self.stats = {name: _Stat() for name, *_ in (*BOUNDARIES, _DRIVER)}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counters = {
            "tensor.allocs": 0,
            "sim.events": 0,
            "dba.words": 0,
            "trace.events": 0,
            "cache.hits": 0,
            "cache.misses": 0,
            "cache.bytes_written": 0,
            "pretrained.hits": 0,
            "pretrained.misses": 0,
            "executor.cell_compute_s": 0.0,
            "executor.capacity_s": 0.0,
            "executor.failed_cells": 0,
            "interconnect.fabric_bytes": 0.0,
            "interconnect.switch_wait_sim_s": 0.0,
            "interconnect.pool_wait_sim_s": 0.0,
            "interconnect.fabrics_checked": 0,
            "interconnect.links_checked": 0,
        }
        self.link_util_max = 0.0
        self.wrapped_seconds = 0.0  # inclusive time of outermost wrapped calls
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sim_seq = weakref.WeakKeyDictionary()
        self._links: list = []
        self._fabrics: list = []
        self._pid = os.getpid()
        self._pretrained0: tuple[int, int] | None = None  # memo counters at install

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        """Wrap every boundary; raises if already installed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.experiments import pretrained, registry

        st = pretrained.stats()
        self._pretrained0 = (st.hits, st.misses)
        for spec in registry.all_specs():
            self._patch(spec, "runner", self._timed(spec.runner, *_DRIVER))
        for name, layer, module, cls, attr in BOUNDARIES:
            owner = importlib.import_module(module)
            if cls is None:
                fn = getattr(owner, attr)
                self._patch_function(fn, self._timed(fn, name, layer))
            else:
                klass = getattr(owner, cls)
                fn = klass.__dict__[attr]
                self._patch(klass, attr, self._timed(fn, name, layer))
        for counter, module, cls in _COUNTED:
            klass = getattr(importlib.import_module(module), cls)
            self._patch(klass, "__init__", self._counted_init(klass, counter))
        for kept, module, cls in _KEPT:
            klass = getattr(importlib.import_module(module), cls)
            self._patch(klass, "__init__", self._kept_init(klass, getattr(self, kept)))
        executor = importlib.import_module("repro.experiments.executor")
        self._patch(executor, "_run_cell", self._worker_cell(executor._run_cell))
        self._patch(executor, "_map_cells", self._merge_cells(executor._map_cells))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        hits, misses = self._pretrained_since_install()
        self.counters["pretrained.hits"] += hits
        self.counters["pretrained.misses"] += misses
        self._pretrained0 = None
        if self._stack:
            raise RuntimeError("tracer uninstalled inside a wrapped call")

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, fn, wrapper) -> None:
        """Rebind ``fn`` to ``wrapper`` wherever a ``repro`` module holds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------
    def _timed(self, fn, name: str, layer: str):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name}: cannot time a generator function")
        stat = self.stats[name]
        stack = self._stack
        layer_self = self.layer_self
        after = _AFTER.get(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                own = dt - frame[0]
                stat.calls += 1
                stat.total += dt
                stat.self_s += own
                layer_self[layer] += own
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.wrapped_seconds += dt
            if after is not None:
                after(tracer, args, out)
            return out

        return wrapper

    def _counted_init(self, klass, counter: str):
        init = klass.__dict__["__init__"]
        counters = self.counters

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            counters[counter] += 1
            init(obj, *args, **kwargs)

        return wrapper

    def _kept_init(self, klass, keep: list):
        init = klass.__dict__["__init__"]

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            keep.append(obj)

        return wrapper

    def _worker_cell(self, run_cell):
        """``_run_cell`` that, in a worker, appends its totals' change."""
        tracer = self

        @functools.wraps(run_cell)
        def wrapper(args):
            if os.getpid() == tracer._pid:
                return run_cell(args)
            # A forked worker: the stack copied from the parent is stale.
            tracer._stack.clear()
            before = tracer.snapshot()
            out = run_cell(args)
            return (*out, tracer.delta(before))

        return wrapper

    def _merge_cells(self, map_cells):
        """``_map_cells`` that merges and strips workers' totals."""
        tracer = self

        @functools.wraps(map_cells)
        def wrapper(args, pool):
            merged = []
            for out in map_cells(args, pool):
                if len(out) == 5:
                    tracer.merge(out[4])
                    out = out[:4]
                merged.append(out)
            return merged

        return wrapper

    # -- totals across processes ------------------------------------------
    def _pretrained_since_install(self) -> tuple[int, int]:
        if self._pretrained0 is None:
            return 0, 0
        from repro.experiments import pretrained

        st = pretrained.stats()
        return st.hits - self._pretrained0[0], st.misses - self._pretrained0[1]

    def snapshot(self) -> dict:
        """Every additive total as a flat JSON-ready dict, plus the
        utilisation maximum (``max:link_util``)."""
        snap = dict(self.counters)
        hits, misses = self._pretrained_since_install()
        snap["pretrained.hits"] += hits
        snap["pretrained.misses"] += misses
        for name, stat in self.stats.items():
            snap[f"{name}#calls"] = stat.calls
            snap[f"{name}#total"] = stat.total
            snap[f"{name}#self"] = stat.self_s
        for layer, seconds in self.layer_self.items():
            snap[f"self:{layer}"] = seconds
        snap["wrapped_seconds"] = self.wrapped_seconds
        snap["max:link_util"] = self.link_util_max
        return snap

    def delta(self, before: dict) -> dict:
        """What a worker added since ``before``: its boundary totals and
        counts, but not its own layer self times, which ran in parallel
        with the parent's."""
        after = self.snapshot()
        out = {
            k: v - before[k]
            for k, v in after.items()
            if not (k.startswith(("self:", "max:")) or k == "wrapped_seconds")
        }
        out["max:link_util"] = after["max:link_util"]
        return out

    def merge(self, totals: dict) -> None:
        """Add a :meth:`delta` or a :meth:`snapshot` into these totals."""
        for key, value in totals.items():
            if key == "max:link_util":
                self.link_util_max = max(self.link_util_max, value)
            elif key == "wrapped_seconds":
                self.wrapped_seconds += value
            elif key.startswith("self:"):
                self.layer_self[key[5:]] += value
            elif "#" in key:
                name, field = key.split("#")
                stat = self.stats[name]
                if field == "calls":
                    stat.calls += value
                elif field == "total":
                    stat.total += value
                else:
                    stat.self_s += value
            else:
                self.counters[key] += value

    # -- end-of-cell checks ------------------------------------------------
    def check_cell(self) -> None:
        """Check and account the fabrics and links the cell built."""
        fabrics, links = list(self._fabrics), list(self._links)
        self._fabrics.clear()
        self._links.clear()
        c = self.counters
        for fabric in fabrics:
            stats = fabric.stats
            port_sum = math.fsum(stats.port_bytes.values())
            total = stats.total_bytes
            if not math.isclose(port_sum, total, rel_tol=_BYTES_RTOL):
                raise InvariantError(
                    f"{fabric.name}: port bytes {port_sum!r} != total {total!r}"
                )
            c["interconnect.fabric_bytes"] += total
            c["interconnect.switch_wait_sim_s"] += stats.switch_wait
            c["interconnect.pool_wait_sim_s"] += stats.pool_wait
            c["interconnect.fabrics_checked"] += 1
        for link in links:
            horizon = link.sim.now
            if horizon <= 0.0:
                if link.busy_time > 0.0:
                    raise InvariantError(f"{link.name}: busy before time 0")
                continue
            util = link.utilization(horizon)
            if util > 1.0:
                raise InvariantError(f"{link.name}: utilisation {util!r} > 1")
            self.link_util_max = max(self.link_util_max, util)
            c["interconnect.links_checked"] += 1

    # -- report --------------------------------------------------------------
    def unattributed(self, wall: float) -> float:
        """Traced wall time spent outside every wrapped call."""
        return wall - self.wrapped_seconds

    def accounting_problems(self, wall: float) -> list[str]:
        """Every way these totals cannot be a trace of ``wall`` seconds."""
        tol = _ACCOUNT_ATOL
        problems = [
            f"{name}: self time {stat.self_s!r} s outside [0, {stat.total!r}] s"
            for name, stat in self.stats.items()
            if not -tol <= stat.self_s <= stat.total + tol
        ]
        problems += [
            f"layer {layer}: self time {seconds!r} s < 0"
            for layer, seconds in self.layer_self.items()
            if seconds < -tol
        ]
        if self.unattributed(wall) < -tol:
            problems.append(
                f"wrapped calls took {self.wrapped_seconds!r} s of a {wall!r} s wall"
            )
        return problems

    def metrics(self, wall: float) -> dict[str, float]:
        """The per-layer metrics of a traced pass of ``wall`` seconds.

        ``<layer>.share`` is the layer's self time in the tracing
        process as a fraction of ``wall``; the shares plus
        ``bench.unattributed_share`` sum to 1.
        """
        s, c = self.stats, self.counters
        cluster_steps = s["offload.cluster_step"].calls + s["offload.zero3_step"].calls
        replay_s = s["trace.replay"].total
        lookups = c["cache.hits"] + c["cache.misses"]
        m = {
            "offload.trainer_steps": s["offload.trainer_step"].calls,
            "offload.trainer_step_self_s": s["offload.trainer_step"].self_s,
            "offload.cluster_steps": cluster_steps,
            "tensor.backward_calls": s["tensor.backward"].calls,
            "tensor.backward_s": s["tensor.backward"].total,
            "tensor.allocs": c["tensor.allocs"],
            "optim.step_calls": s["optim.step"].calls,
            "optim.step_s": s["optim.step"].total,
            "dba.pack_s": s["dba.pack"].total,
            "dba.unpack_s": s["dba.unpack"].total,
            "dba.words": c["dba.words"],
            "pretrained.hits": c["pretrained.hits"],
            "pretrained.misses": c["pretrained.misses"],
            "pretrained.setup_s": s["pretrained.lm"].total + s["pretrained.classifier"].total,
            "sim.runs": s["sim.run"].calls,
            "sim.run_self_s": s["sim.run"].self_s,
            "sim.events": c["sim.events"],
            "sim.events_per_cluster_step": (
                c["sim.events"] / cluster_steps if cluster_steps else 0.0
            ),
            "sim.us_per_event": (
                s["sim.run"].total / c["sim.events"] * 1e6 if c["sim.events"] else 0.0
            ),
            "interconnect.transmit_calls": s["interconnect.transmit"].calls,
            "interconnect.transmit_s": s["interconnect.transmit"].total,
            "interconnect.fabric_bytes": c["interconnect.fabric_bytes"],
            "interconnect.switch_wait_sim_s": c["interconnect.switch_wait_sim_s"],
            "interconnect.pool_wait_sim_s": c["interconnect.pool_wait_sim_s"],
            "interconnect.link_util_max": self.link_util_max,
            "trace.generate_s": s["trace.generate"].total,
            "trace.replay_calls": s["trace.replay"].calls,
            "trace.replay_s": replay_s,
            "trace.events": c["trace.events"],
            "trace.events_per_s": c["trace.events"] / replay_s if replay_s else 0.0,
            "memsim.trace_build_s": s["memsim.trace_build"].total,
            "registry.cells": s["registry.run"].calls,
            "registry.run_s": s["registry.run"].total,
            "driver.run_s": s["driver.run"].total,
            "cache.key_s": s["cache.key"].total,
            "cache.get_s": s["cache.get"].total,
            "cache.put_s": s["cache.put"].total,
            "cache.hits": c["cache.hits"],
            "cache.misses": c["cache.misses"],
            "cache.hit_ratio": c["cache.hits"] / lookups if lookups else 0.0,
            "cache.bytes_written": c["cache.bytes_written"],
            "executor.cell_compute_s": c["executor.cell_compute_s"],
            "executor.busy_frac": (
                c["executor.cell_compute_s"] / c["executor.capacity_s"]
                if c["executor.capacity_s"]
                else 0.0
            ),
            "executor.failed_cells": c["executor.failed_cells"],
        }
        for layer in LAYERS:
            m[f"{layer}.share"] = self.layer_self[layer] / wall
        m["bench.unattributed_share"] = self.unattributed(wall) / wall
        m["bench.traced_wall_s"] = wall
        return m


# -- post-call hooks: counts read at the boundary ----------------------------


def _after_pack(tracer, args, out):
    import numpy as np

    tracer.counters["dba.words"] += int(np.size(args[1]))


def _after_replay(tracer, args, out):
    tracer.counters["trace.events"] += len(args[0])


def _after_get(tracer, args, out):
    tracer.counters["cache.misses" if out is None else "cache.hits"] += 1


def _after_put(tracer, args, out):
    if out is not None:
        tracer.counters["cache.bytes_written"] += os.path.getsize(out)


def _after_sim_run(tracer, args, out):
    sim = args[0]
    seen = tracer._sim_seq.get(sim, 0)
    tracer.counters["sim.events"] += sim._seq - seen
    tracer._sim_seq[sim] = sim._seq


def _after_sweep(tracer, args, report):
    computed = [o for o in report.outcomes if o.result is not None and not o.cached]
    c = tracer.counters
    c["executor.failed_cells"] += report.failed
    if computed:
        c["executor.cell_compute_s"] += sum(o.seconds for o in computed)
        c["executor.capacity_s"] += report.wall_seconds * report.jobs


def _after_run_experiment(tracer, args, out):
    if not tracer._stack:
        tracer.check_cell()


_AFTER = {
    "dba.pack": _after_pack,
    "trace.replay": _after_replay,
    "cache.get": _after_get,
    "cache.put": _after_put,
    "sim.run": _after_sim_run,
    "executor.sweep": _after_sweep,
    "registry.run": _after_run_experiment,
}
