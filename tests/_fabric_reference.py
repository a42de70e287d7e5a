"""Per-cell reference schedule of the fabric stages (test-only).

This is the fabric's original stage logic: every cell of every transfer
is three :class:`~repro.sim.SerialLink` transmits, three
:class:`~repro.sim.SimEvent`s and a lambda per hand-off.  The shipped
classes in :mod:`repro.interconnect` compute the same schedule with one
cursor per transfer (see the :mod:`repro.interconnect.fabric` module
docstring); ``tests/test_fabric_exact.py`` drives random schedules
through both and requires bit-identical results.

The reference classes subclass the shipped ones, so construction,
validation and accounting outside the cell walk are shared; only the
per-cell hand-offs differ.
"""

from __future__ import annotations

from repro.interconnect.aggregation import FabricReducer
from repro.interconnect.fabric import MIN_CELL_BYTES, CXLFabric, FabricPort
from repro.interconnect.gather import FabricGather
from repro.sim import SerialLink, SimEvent

__all__ = ["RefPort", "RefReducer", "RefGather"]


def _cell_sizes(fabric: CXLFabric, n_bytes: float) -> list[float]:
    cells = fabric.params.cells_per_transfer
    if n_bytes <= MIN_CELL_BYTES or cells == 1:
        return [n_bytes]
    return [n_bytes / cells] * cells


def _queued_stage_transmit(
    fabric: CXLFabric,
    link: SerialLink,
    cell: float,
    *,
    tenant: int,
    port: int,
    wait_stats: dict[int, float],
    span_name: str,
    track: str,
) -> SimEvent:
    """Send one cell through a fabric stage, accounting queueing."""
    sim = fabric.sim
    wait = max(0.0, link.free_at - sim.now)
    if wait > 0.0:
        wait_stats[tenant] = wait_stats.get(tenant, 0.0) + wait
        if sim.tracer.enabled:
            sim.tracer.add_span(
                sim.now,
                sim.now + wait,
                span_name,
                "fabric",
                track=track,
                tenant=tenant,
                port=port,
                bytes=cell,
            )
    return link.transmit(cell)


class RefPort(FabricPort):
    """:class:`FabricPort` with one event chain per cell."""

    def transmit(self, n_bytes: float, extra_delay: float = 0.0) -> SimEvent:
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        fabric = self.fabric
        sim = fabric.sim
        self.bytes_sent += n_bytes
        fabric.stats._account_bytes(self.port_index, self.tenant, n_bytes)
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(n_bytes)
            mx.counter(f"{fabric.name}.port{self.port_index}.bytes").inc(n_bytes)

        cell_sizes = _cell_sizes(fabric, n_bytes)
        done = sim.event()
        remaining = len(cell_sizes)

        def pool_done(_ev: SimEvent) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                done.succeed(n_bytes)

        for i, cell in enumerate(cell_sizes):
            port_ev = self._wire.transmit(
                cell, extra_delay=extra_delay if i == 0 else 0.0
            )
            port_ev.callbacks.append(
                lambda _ev, c=cell: self._enter_switch(c, pool_done)
            )
        return done

    def _enter_switch(self, cell: float, pool_done) -> None:
        fabric = self.fabric
        ev = _queued_stage_transmit(
            fabric,
            fabric.switch_link,
            cell,
            tenant=self.tenant,
            port=self.port_index,
            wait_stats=fabric.stats.tenant_switch_wait,
            span_name="switch-queue",
            track=f"{fabric.name}-switch",
        )
        ev.callbacks.append(lambda _ev: self._enter_pool(cell, pool_done))

    def _enter_pool(self, cell: float, pool_done) -> None:
        fabric = self.fabric
        pool = fabric.pool_link_for(self.tenant)
        ev = _queued_stage_transmit(
            fabric,
            pool,
            cell,
            tenant=self.tenant,
            port=self.port_index,
            wait_stats=fabric.stats.tenant_pool_wait,
            span_name="pool-queue",
            track=pool.name,
        )
        ev.callbacks.append(pool_done)


class RefReducer(FabricReducer):
    """:class:`FabricReducer` with one event chain per rank cell."""

    def reduce(self, n_bytes_per_rank: float, extra_delay: float = 0.0) -> SimEvent:
        if n_bytes_per_rank < 0:
            raise ValueError("n_bytes_per_rank must be non-negative")
        fabric = self.fabric
        sim = fabric.sim
        stats = fabric.stats
        R = self.n_ranks

        in_bytes = n_bytes_per_rank * R
        self.bytes_in += in_bytes
        stats.tenant_reduce_in_bytes[self.tenant] = (
            stats.tenant_reduce_in_bytes.get(self.tenant, 0.0) + in_bytes
        )
        for port in self.ranks:
            stats._account_bytes(port, self.tenant, n_bytes_per_rank)
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.reduce.in_bytes").inc(in_bytes)
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(in_bytes)

        cell_sizes = _cell_sizes(fabric, n_bytes_per_rank)
        done = sim.event()
        remaining = len(cell_sizes)

        def pool_done(_ev: SimEvent) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                done.succeed(n_bytes_per_rank)

        for i, cell in enumerate(cell_sizes):
            state = {"arrived": 0, "first": None}
            for port in self.ranks:
                port_ev = fabric.port_links[port].transmit(
                    cell, extra_delay=extra_delay if i == 0 else 0.0
                )
                port_ev.callbacks.append(
                    lambda _ev, c=cell, p=port, s=state: self._ref_switch(
                        c, p, s, pool_done
                    )
                )
        return done

    def _ref_switch(self, cell: float, port: int, state, pool_done) -> None:
        fabric = self.fabric
        ev = _queued_stage_transmit(
            fabric,
            fabric.switch_link,
            cell,
            tenant=self.tenant,
            port=port,
            wait_stats=fabric.stats.tenant_switch_wait,
            span_name="switch-queue",
            track=f"{fabric.name}-switch",
        )
        ev.callbacks.append(lambda _ev: self._ref_arrive(cell, state, pool_done))

    def _ref_arrive(self, cell: float, state, pool_done) -> None:
        fabric = self.fabric
        sim = fabric.sim
        now = sim.now
        if state["first"] is None:
            state["first"] = now
        state["arrived"] += 1
        if state["arrived"] < self.n_ranks:
            return
        wait = now - state["first"]
        if wait > 0.0:
            stats = fabric.stats.tenant_reduce_wait
            stats[self.tenant] = stats.get(self.tenant, 0.0) + wait
            if sim.tracer.enabled:
                sim.tracer.add_span(
                    state["first"],
                    now,
                    "reduce-wait",
                    "fabric",
                    track=self.name,
                    tenant=self.tenant,
                    bytes=cell,
                )
        ev = self.alu.transmit(cell * self.n_ranks)
        if sim.tracer.enabled:
            sim.tracer.add_span(
                now,
                now + self.alu.bandwidth.time_for(cell * self.n_ranks),
                "fabric-reduce",
                "fabric",
                track=self.name,
                tenant=self.tenant,
                bytes=cell,
                ranks=self.n_ranks,
            )
        ev.callbacks.append(lambda _ev: self._ref_pool(cell, pool_done))

    def _ref_pool(self, cell: float, pool_done) -> None:
        fabric = self.fabric
        stats = fabric.stats
        self.bytes_out += cell
        stats.tenant_reduce_out_bytes[self.tenant] = (
            stats.tenant_reduce_out_bytes.get(self.tenant, 0.0) + cell
        )
        mx = fabric.sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.reduce.out_bytes").inc(cell)
        pool = fabric.pool_link_for(self.tenant)
        ev = _queued_stage_transmit(
            fabric,
            pool,
            cell,
            tenant=self.tenant,
            port=-1,
            wait_stats=stats.tenant_pool_wait,
            span_name="pool-queue",
            track=pool.name,
        )
        ev.callbacks.append(pool_done)


class RefGather(FabricGather):
    """:class:`FabricGather` with one event chain per rank cell."""

    def gather(self, shard_bytes: float, extra_delay: float = 0.0) -> SimEvent:
        if shard_bytes < 0:
            raise ValueError("shard_bytes must be non-negative")
        fabric = self.fabric
        sim = fabric.sim
        stats = fabric.stats
        R = self.n_ranks

        done = sim.event()
        if R == 1 or shard_bytes == 0.0:
            done.succeed(shard_bytes)
            return done

        in_bytes = shard_bytes * R
        self.bytes_in += in_bytes
        stats.tenant_gather_in_bytes[self.tenant] = (
            stats.tenant_gather_in_bytes.get(self.tenant, 0.0) + in_bytes
        )
        for port in self.ranks:
            stats._account_bytes(port, self.tenant, shard_bytes)
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.gather.in_bytes").inc(in_bytes)
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(in_bytes)

        cell_sizes = _cell_sizes(fabric, shard_bytes)
        remaining = len(cell_sizes) * R

        def down_done(_ev: SimEvent) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                done.succeed(shard_bytes)

        for i, cell in enumerate(cell_sizes):
            state = {"arrived": 0, "first": None}
            for port in self.ranks:
                port_ev = fabric.port_links[port].transmit(
                    cell, extra_delay=extra_delay if i == 0 else 0.0
                )
                port_ev.callbacks.append(
                    lambda _ev, c=cell, p=port, s=state: self._ref_switch(
                        c, p, s, down_done
                    )
                )
        return done

    def _ref_switch(self, cell: float, port: int, state, down_done) -> None:
        fabric = self.fabric
        ev = _queued_stage_transmit(
            fabric,
            fabric.switch_link,
            cell,
            tenant=self.tenant,
            port=port,
            wait_stats=fabric.stats.tenant_switch_wait,
            span_name="switch-queue",
            track=f"{fabric.name}-switch",
        )
        ev.callbacks.append(lambda _ev: self._ref_arrive(cell, state, down_done))

    def _ref_arrive(self, cell: float, state, down_done) -> None:
        fabric = self.fabric
        sim = fabric.sim
        now = sim.now
        if state["first"] is None:
            state["first"] = now
        state["arrived"] += 1
        if state["arrived"] < self.n_ranks:
            return
        wait = now - state["first"]
        if wait > 0.0:
            waits = fabric.stats.tenant_gather_wait
            waits[self.tenant] = waits.get(self.tenant, 0.0) + wait
            if sim.tracer.enabled:
                sim.tracer.add_span(
                    state["first"],
                    now,
                    "gather-wait",
                    "fabric",
                    track=self.name,
                    tenant=self.tenant,
                    bytes=cell,
                )
        stats = fabric.stats
        R = self.n_ranks
        out = cell * (R - 1) * R
        self.bytes_out += out
        stats.tenant_gather_out_bytes[self.tenant] = (
            stats.tenant_gather_out_bytes.get(self.tenant, 0.0) + out
        )
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.gather.out_bytes").inc(out)
        for port in self.ranks:
            down = cell * (R - 1)
            stats._account_bytes(port, self.tenant, down)
            ev = _queued_stage_transmit(
                fabric,
                fabric.port_links[port],
                down,
                tenant=self.tenant,
                port=port,
                wait_stats=fabric.stats.tenant_switch_wait,
                span_name="gather-egress-queue",
                track=fabric.port_links[port].name,
            )
            ev.callbacks.append(down_done)
