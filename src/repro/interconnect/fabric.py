"""Multi-host CXL memory-pool fabric: port links, switch, partitioned pool.

The paper evaluates one host with one CXL attachment, but its motivation
(Section II-A) is the large-scale data-parallel regime — many trainer
nodes contending for shared disaggregated memory.  This module models
that cluster topology in the style of CXL-ClusterSim / CXLRAMSim
(PAPERS.md): ``N`` host ports, each a private :class:`~repro.sim.SerialLink`,
feed a shared switch stage with its own serialization, which feeds a
memory pool whose bandwidth is partitioned across tenants.

Topology of one transfer (store-and-forward per stage, pipelined in
cells so a large transfer approaches the fluid cut-through limit)::

    host i ──port link i──▶ [ switch ] ──▶ [ pool partition(tenant) ]

Pool partitioning (:class:`PartitionPolicy`):

``SHARED``
    One FCFS pool link at full pool bandwidth — tenants contend freely
    (no isolation; a greedy tenant can starve others).
``FAIR_SHARE``
    The pool bandwidth is statically divided ``1/M`` per tenant — full
    isolation, but idle tenants' shares go unused.
``WEIGHTED``
    Static QoS split proportional to ``tenant_weights``.

Every stage is a real :class:`~repro.sim.SerialLink`, so per-link wire
spans land in Chrome traces for free; the fabric additionally emits
``switch-queue`` / ``pool-queue`` spans (category ``fabric``) whenever a
cell waits behind other tenants' traffic, and threads per-port /
per-tenant byte and wait accounting through :class:`FabricStats` and
``sim.metrics``.

Event schedule
--------------
The timing is defined cell by cell: each cell is booked on the port
wire, then on the switch when it leaves the port, then on the pool when
it leaves the switch, and the transfer completes when its last cell
leaves the pool.  Simulating that literally costs three events per cell.
The fabric computes the same schedule with far fewer heap entries, each
piece exact by construction:

* **Cursor.**  All of a transfer's port bookings are made when it is
  issued, as before (a lone rank's cells as one
  ``SerialLink.reserve_train``), and its keys are handed out then
  (``Simulator.alloc_keys``), but only the next cell's port exit sits in
  the heap.  When it fires and the following cell's key still precedes
  every other heap entry and ``run``'s ``until``
  (``Simulator.advance_if_next``), that cell is handled inline: the
  switch is booked at the cell's own port-exit time
  (``SerialLink.reserve(at=...)``), the recursion
  ``d_i = max(a_i, d_{i-1}) + s`` cell by cell.  Under contention the
  transfer falls back to one entry per cell.
* **Deferred pool hop.**  A plain transfer's non-last cell books the
  pool from its switch-exit time ``b``, not from a switch-exit event: it
  is recorded under a virtual key ``(b, seq, sub)`` that orders exactly
  like the event it replaces.  Before anything else books a pool link
  (a reducer's cell at ALU exit, a last cell's switch exit) or reads it
  (:meth:`CXLFabric.pool_link_for`, :attr:`CXLFabric.pool_links`), the
  hops keyed before the current event are applied in key order, and
  ``Simulator.run``/``step`` apply what is due before they return.
* **Completion-only events.**  Stage wires are FIFO, so a transfer's
  last cell completes last: earlier cells' pool (or multicast) exits
  schedule nothing, and only the last cell's switch exit, pool exit and
  ``done`` are keyed calls, landing where the per-cell schedule puts
  them.
* **One walk.**  :class:`FabricPort`, the reducer and the gather unit
  share the port → switch walk; the reduce barrier, ALU and multicast
  hops stay keyed calls at their exit times.

The exactness rule: every link is booked in the same order and at the
same time as under the per-cell schedule, and every entry that remains
keeps its relative ``(time, seq)`` order, so results are bit-identical.
``tests/_fabric_reference.py`` keeps the per-cell schedule, and
``tests/test_fabric_exact.py`` checks the two against each other.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

from repro.interconnect.cxl import CXLLinkModel
from repro.sim import SerialLink, SimEvent, Simulator
from repro.utils.units import NS, Bandwidth

__all__ = [
    "PartitionPolicy",
    "FabricParams",
    "FabricStats",
    "FabricPort",
    "CXLFabric",
]

#: One switch hop (arbitration + crossbar traversal) — a CXL 2.0 switch
#: adds on the order of 100-250 ns per direction.
DEFAULT_SWITCH_LATENCY = 250 * NS

#: Fixed access latency of the pooled memory device behind the switch.
DEFAULT_POOL_LATENCY = 150 * NS

#: Cells a transfer is split into for store-and-forward pipelining.
#: Residual pipelining error vs the fluid cut-through limit is about
#: ``(n_stages - 1) / cells`` of one stage traverse time.
DEFAULT_CELLS_PER_TRANSFER = 32

#: Transfers at or below this size cross the fabric as a single cell
#: (splitting a few hundred bytes would only multiply event count).
MIN_CELL_BYTES = 4096


class _Transfer:
    """One ``transmit``/``reduce``/``gather`` call in flight.

    ``arrived``/``first`` are the per-cell rank barrier of the reduce
    and gather stages (arrivals so far, time of the first).
    """

    __slots__ = ("done", "n_bytes", "cell", "n_cells", "tenant", "arrived", "first")

    def __init__(self, fabric: "CXLFabric", n_bytes: float, tenant: int):
        self.done = SimEvent(fabric.sim)
        self.n_bytes = n_bytes
        cells = fabric.params.cells_per_transfer
        if n_bytes <= MIN_CELL_BYTES or cells == 1:
            self.n_cells, self.cell = 1, n_bytes
        else:
            self.n_cells, self.cell = cells, n_bytes / cells
        self.tenant = tenant
        self.arrived: list[int] | None = None
        self.first: list[float | None] | None = None


def _finish(xfer: _Transfer) -> None:
    xfer.done.succeed(xfer.n_bytes)


class _Walk:
    """The cursor of one rank's cells from its port wire into the switch.

    ``times[i]`` is cell ``i``'s port-exit time and ``seq + i * stride``
    its key, both fixed when the port wire was booked; only the next
    cell's entry sits in the heap.  ``sink`` runs at each cell's switch
    exit with ``(walk, i)``; ``None`` (a plain :class:`FabricPort`
    transfer) defers every cell but the last to the pool stage instead.
    """

    __slots__ = ("fabric", "xfer", "port", "times", "seq", "stride", "i", "sink")

    def __init__(self, fabric: "CXLFabric", xfer: _Transfer, port: int, sink):
        self.fabric = fabric
        self.xfer = xfer
        self.port = port
        self.times: list[float] = []
        self.seq = 0
        self.stride = 1
        self.i = 0
        self.sink = sink


def _stream(
    fabric: "CXLFabric",
    xfer: _Transfer,
    ports: list[int],
    extra_delay: float,
    sink,
) -> None:
    """Book every cell of ``xfer`` on each rank's port wire and start
    one cursor per rank.

    The bookings and their keys follow the per-cell schedule exactly:
    cell by cell, rank by rank within a cell, ``extra_delay`` ahead of
    each rank's first cell, keys handed out in that order.
    """
    sim = fabric.sim
    now = sim.now
    cell, n = xfer.cell, xfer.n_cells
    walks = [_Walk(fabric, xfer, port, sink) for port in ports]
    links = [fabric.port_links[port] for port in ports]
    # A lone rank books its cells as one train; several ranks book cell
    # by cell, rank by rank (ranks may share a wire, and the trace keeps
    # the per-cell order).
    train = n if len(links) == 1 else 1
    x = extra_delay
    for _ in range(n // train):
        for walk, wire in zip(walks, links):
            walk.times += [now + (d - now) for d in wire.reserve_train(cell, train, x)]
        x = 0.0
    if any(walk.times[0] < now for walk in walks):
        raise ValueError(f"negative delay: extra_delay={extra_delay}")
    R = len(walks)
    seq0 = sim.alloc_keys(n * R)
    for r, walk in enumerate(walks):
        walk.seq = seq0 + r
        walk.stride = R
        sim.push_keyed(walk.times[0], walk.seq, _advance, walk)


def _advance(walk: _Walk) -> None:
    """Heap callback: walk's next cell leaves its port wire.

    Books the switch for that cell and, while the rank's following cell
    is still the earliest entry of the whole simulation (and due before
    ``run``'s ``until``), keeps going inline: the tandem recursion
    ``d_i = max(a_i, d_{i-1}) + s`` cell by cell, with the switch booked
    at each cell's own port-exit time.  Otherwise the following cell
    goes back on the heap under its own key, so under contention every
    cell is one entry.
    """
    fabric = walk.fabric
    sim = fabric.sim
    xfer = walk.xfer
    tenant, port, cell = xfer.tenant, walk.port, xfer.cell
    last = xfer.n_cells - 1
    times, stride, sink = walk.times, walk.stride, walk.sink
    i = walk.i
    seq = walk.seq + i * stride
    sw = fabric.switch_link
    waits = fabric.stats.tenant_switch_wait
    pool = fabric._pool_links[fabric._pool_of[tenant]]
    while True:
        a = times[i]
        exit_at = _queued_reserve(
            fabric,
            sw,
            cell,
            a,
            tenant=tenant,
            port=port,
            waits=waits,
            span_name="switch-queue",
            track=sw.name,
        )
        if sink is not None:
            sim.call_at(exit_at, sink, (walk, i))
        elif i < last:
            # Deferred pool hop, keyed like the switch-exit event it
            # replaces: at its exit time, after every key handed out so
            # far.
            fabric._sub += 1
            b = a + (exit_at - a)
            heapq.heappush(
                fabric._pending,
                (b, sim.last_key, fabric._sub, cell, pool, tenant, port),
            )
        else:
            sim.call_at(exit_at, _port_switch_exit, walk)
        if i == last:
            break
        i += 1
        seq += stride
        if not sim.advance_if_next(times[i], seq):
            sim.push_keyed(times[i], seq, _advance, walk)
            break
    walk.i = i


def _port_switch_exit(walk: _Walk) -> None:
    """A plain transfer's last cell leaves the switch: pool it now."""
    fabric = walk.fabric
    sim = fabric.sim
    xfer = walk.xfer
    pool = fabric.pool_link_for(xfer.tenant)
    done_at = _queued_reserve(
        fabric,
        pool,
        xfer.cell,
        sim.now,
        tenant=xfer.tenant,
        port=walk.port,
        waits=fabric.stats.tenant_pool_wait,
        span_name="pool-queue",
        track=pool.name,
    )
    sim.call_at(done_at, _finish, xfer)


def _queued_reserve(
    fabric: "CXLFabric",
    link: SerialLink,
    cell: float,
    at: float,
    *,
    tenant: int,
    port: int,
    waits: dict[int, float],
    span_name: str,
    track: str,
) -> float:
    """Book one cell on a fabric stage at sim time ``at``, accounting
    its queueing.

    If the stage wire is busy, the wait is charged to ``waits[tenant]``
    and (when tracing) emitted as a ``span_name`` span in category
    ``fabric``.  Returns the cell's delivery time.
    """
    wait = link.free_at - at
    if wait > 0.0:
        waits[tenant] = waits.get(tenant, 0.0) + wait
        tracer = fabric.sim.tracer
        if tracer.enabled:
            tracer.add_span(
                at,
                at + wait,
                span_name,
                "fabric",
                track=track,
                tenant=tenant,
                port=port,
                bytes=cell,
            )
    return link.reserve(cell, 0.0, at)


class PartitionPolicy(enum.Enum):
    """How pool bandwidth is divided across tenants."""

    SHARED = "shared"
    FAIR_SHARE = "fair"
    WEIGHTED = "weighted"

    @classmethod
    def parse(cls, value: "PartitionPolicy | str") -> "PartitionPolicy":
        """Accept an enum member or its string value (CLI/registry use)."""
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise ValueError(
            f"unknown partition policy {value!r}; "
            f"known: {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class FabricParams:
    """Static description of one multi-host fabric.

    Parameters
    ----------
    n_ports
        Host ports (one per trainer node).
    n_tenants
        Concurrent training jobs sharing the pool.  Tenants map onto
        ports by the caller (round-robin in
        :class:`repro.offload.cluster.ClusterEngine`); several tenants
        may share one port.
    port_bandwidth
        Per-port link bandwidth.  Defaults to the paper's CXL effective
        bandwidth (94.3% of PCIe 3.0 x16).
    port_latency
        Propagation latency of one port link.
    switch_bandwidth
        Aggregate switch serialization bandwidth.  ``None`` (default)
        sizes a non-blocking switch: ``n_ports x port_bandwidth``.
    switch_latency
        Per-cell switch hop latency.
    pool_bandwidth
        Memory-pool device bandwidth shared by all tenants.  ``None``
        (default) provisions ``2 x port_bandwidth`` — bandwidth-rich for
        one node, contended once aggregate demand exceeds it.
    pool_latency
        Pool device access latency.
    policy
        Pool partitioning mode.
    tenant_weights
        QoS weights, required (length ``n_tenants``) for ``WEIGHTED``.
    cells_per_transfer
        Pipelining granularity of :meth:`FabricPort.transmit`.
    """

    n_ports: int = 2
    n_tenants: int = 1
    port_bandwidth: Bandwidth = field(
        default_factory=lambda: CXLLinkModel.paper_default().effective_bandwidth
    )
    port_latency: float = CXLLinkModel.paper_default().latency
    switch_bandwidth: Bandwidth | None = None
    switch_latency: float = DEFAULT_SWITCH_LATENCY
    pool_bandwidth: Bandwidth | None = None
    pool_latency: float = DEFAULT_POOL_LATENCY
    policy: PartitionPolicy = PartitionPolicy.FAIR_SHARE
    tenant_weights: tuple[float, ...] | None = None
    cells_per_transfer: int = DEFAULT_CELLS_PER_TRANSFER

    def __post_init__(self) -> None:
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if self.cells_per_transfer < 1:
            raise ValueError("cells_per_transfer must be >= 1")
        for lat in (self.port_latency, self.switch_latency, self.pool_latency):
            if lat < 0:
                raise ValueError("latencies must be non-negative")
        object.__setattr__(self, "policy", PartitionPolicy.parse(self.policy))
        if self.policy is PartitionPolicy.WEIGHTED:
            w = self.tenant_weights
            if w is None or len(w) != self.n_tenants:
                raise ValueError(
                    "WEIGHTED policy needs tenant_weights of length n_tenants"
                )
            if any(x <= 0 for x in w):
                raise ValueError("tenant_weights must be positive")

    @property
    def resolved_switch_bandwidth(self) -> Bandwidth:
        """Switch bandwidth with the non-blocking default applied."""
        if self.switch_bandwidth is not None:
            return self.switch_bandwidth
        return self.port_bandwidth.scaled(self.n_ports)

    @property
    def resolved_pool_bandwidth(self) -> Bandwidth:
        """Pool bandwidth with the 2x-port default applied."""
        if self.pool_bandwidth is not None:
            return self.pool_bandwidth
        return self.port_bandwidth.scaled(2.0)

    def tenant_share(self, tenant: int) -> float:
        """Fraction of pool bandwidth guaranteed to ``tenant``."""
        if not 0 <= tenant < self.n_tenants:
            raise ValueError(f"tenant {tenant} out of range")
        if self.policy is PartitionPolicy.SHARED:
            return 1.0
        if self.policy is PartitionPolicy.FAIR_SHARE:
            return 1.0 / self.n_tenants
        weights = self.tenant_weights or ()
        return weights[tenant] / sum(weights)


@dataclass
class FabricStats:
    """Per-port / per-tenant traffic and contention accounting.

    ``*_wait`` totals are queueing seconds accumulated by cells that
    found the stage wire busy on arrival — the fabric's contention
    breakdown (zero on an unloaded fabric).

    The ``reduce_*`` fields account the in-fabric aggregation stage
    (:class:`repro.interconnect.aggregation.FabricReducer`): per-rank
    encoded bytes entering the reducer, reduced bytes leaving it across
    the pool boundary, and seconds rank streams spent waiting for their
    peers' matching cells to arrive.  All stay zero when no reducer is
    attached.

    The ``gather_*`` fields account the in-fabric all-gather stage
    (:class:`repro.interconnect.gather.FabricGather`): per-rank shard
    bytes entering the gather unit through the port uplinks, replicated
    peer-shard bytes leaving it down the port links, and seconds shard
    streams spent waiting at the per-cell rank barrier.  All stay zero
    when no gather unit is attached.
    """

    port_bytes: dict[int, float] = field(default_factory=dict)
    tenant_bytes: dict[int, float] = field(default_factory=dict)
    tenant_switch_wait: dict[int, float] = field(default_factory=dict)
    tenant_pool_wait: dict[int, float] = field(default_factory=dict)
    tenant_reduce_in_bytes: dict[int, float] = field(default_factory=dict)
    tenant_reduce_out_bytes: dict[int, float] = field(default_factory=dict)
    tenant_reduce_wait: dict[int, float] = field(default_factory=dict)
    tenant_gather_in_bytes: dict[int, float] = field(default_factory=dict)
    tenant_gather_out_bytes: dict[int, float] = field(default_factory=dict)
    tenant_gather_wait: dict[int, float] = field(default_factory=dict)

    def _account_bytes(self, port: int, tenant: int, n_bytes: float) -> None:
        self.port_bytes[port] = self.port_bytes.get(port, 0.0) + n_bytes
        self.tenant_bytes[tenant] = self.tenant_bytes.get(tenant, 0.0) + n_bytes

    @property
    def total_bytes(self) -> float:
        """All payload bytes that entered the fabric."""
        return sum(self.tenant_bytes.values())

    @property
    def switch_wait(self) -> float:
        """Total switch queueing seconds across tenants."""
        return sum(self.tenant_switch_wait.values())

    @property
    def pool_wait(self) -> float:
        """Total pool queueing seconds across tenants."""
        return sum(self.tenant_pool_wait.values())

    @property
    def reduce_in_bytes(self) -> float:
        """Per-rank encoded bytes that entered the reduce stage."""
        return sum(self.tenant_reduce_in_bytes.values())

    @property
    def reduce_out_bytes(self) -> float:
        """Reduced bytes that crossed the pool boundary."""
        return sum(self.tenant_reduce_out_bytes.values())

    @property
    def reduce_wait(self) -> float:
        """Seconds rank streams waited for peer cells at the reducer."""
        return sum(self.tenant_reduce_wait.values())

    @property
    def gather_in_bytes(self) -> float:
        """Per-rank shard bytes that entered the gather stage."""
        return sum(self.tenant_gather_in_bytes.values())

    @property
    def gather_out_bytes(self) -> float:
        """Replicated peer-shard bytes multicast back down the ports."""
        return sum(self.tenant_gather_out_bytes.values())

    @property
    def gather_wait(self) -> float:
        """Seconds shard streams waited for peer cells at the gather."""
        return sum(self.tenant_gather_wait.values())

    def snapshot(self) -> dict:
        """JSON-ready copy (row material for experiments)."""
        return {
            "port_bytes": {str(k): v for k, v in sorted(self.port_bytes.items())},
            "tenant_bytes": {
                str(k): v for k, v in sorted(self.tenant_bytes.items())
            },
            "tenant_switch_wait": {
                str(k): v for k, v in sorted(self.tenant_switch_wait.items())
            },
            "tenant_pool_wait": {
                str(k): v for k, v in sorted(self.tenant_pool_wait.items())
            },
            "tenant_reduce_in_bytes": {
                str(k): v
                for k, v in sorted(self.tenant_reduce_in_bytes.items())
            },
            "tenant_reduce_out_bytes": {
                str(k): v
                for k, v in sorted(self.tenant_reduce_out_bytes.items())
            },
            "tenant_reduce_wait": {
                str(k): v for k, v in sorted(self.tenant_reduce_wait.items())
            },
            "tenant_gather_in_bytes": {
                str(k): v
                for k, v in sorted(self.tenant_gather_in_bytes.items())
            },
            "tenant_gather_out_bytes": {
                str(k): v
                for k, v in sorted(self.tenant_gather_out_bytes.items())
            },
            "tenant_gather_wait": {
                str(k): v for k, v in sorted(self.tenant_gather_wait.items())
            },
            "switch_wait": self.switch_wait,
            "pool_wait": self.pool_wait,
            "reduce_in_bytes": self.reduce_in_bytes,
            "reduce_out_bytes": self.reduce_out_bytes,
            "reduce_wait": self.reduce_wait,
            "gather_in_bytes": self.gather_in_bytes,
            "gather_out_bytes": self.gather_out_bytes,
            "gather_wait": self.gather_wait,
            "total_bytes": self.total_bytes,
        }


class FabricPort:
    """One tenant's attachment to a fabric port.

    Implements the :class:`~repro.sim.SerialLink`-shaped surface the
    offload engines and :class:`~repro.interconnect.cxl.CXLController`
    drive — ``transmit()``, ``free_at``, ``bytes_sent``, ``name`` — so a
    private host link can be swapped for a fabric attachment without
    touching engine code.  Several attachments may share the underlying
    port wire (multiple jobs on one node).
    """

    def __init__(self, fabric: "CXLFabric", port_index: int, tenant: int):
        self.fabric = fabric
        self.port_index = port_index
        self.tenant = tenant
        self.name = f"{fabric.name}-p{port_index}-t{tenant}"
        #: Payload bytes this attachment pushed into the fabric.
        self.bytes_sent = 0.0

    @property
    def sim(self) -> Simulator:
        """The simulator the fabric lives in."""
        return self.fabric.sim

    @property
    def _wire(self) -> SerialLink:
        return self.fabric.port_links[self.port_index]

    @property
    def free_at(self) -> float:
        """When the underlying port wire next idles (pipelining hint)."""
        return self._wire.free_at

    def transmit(self, n_bytes: float, extra_delay: float = 0.0) -> SimEvent:
        """Send ``n_bytes`` through port -> switch -> pool.

        Returns the end-to-end delivery event (fires when the last cell
        leaves the pool stage).  ``extra_delay`` is charged once, ahead
        of the first cell (DMA setup / aggregation front-end).

        Every cell is booked on the port wire now.  One cursor then
        walks the cells into the switch as they leave the port,
        coalescing consecutive cells while nothing else is due; each
        non-last cell's pool booking is deferred under the virtual key
        of its switch exit and applied, in key order, before the pool
        link is next booked or read.  Only the last cell's switch exit,
        pool exit and the returned event are heap entries.  The result
        is bit-identical to the per-cell event schedule (see the module
        docstring).
        """
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

        xfer = _Transfer(fabric, n_bytes, self.tenant)
        _stream(fabric, xfer, [self.port_index], extra_delay, None)
        return xfer.done


class CXLFabric:
    """The discrete-event fabric: port wires, switch stage, pool stage.

    Build one per :class:`~repro.sim.Simulator`, then hand out tenant
    attachments with :meth:`port`::

        fabric = CXLFabric(sim, FabricParams(n_ports=4, n_tenants=8))
        link = fabric.port(port_index=3, tenant=6)
        yield link.transmit(chunk_bytes)
    """

    def __init__(
        self,
        sim: Simulator,
        params: FabricParams | None = None,
        name: str = "fabric",
    ):
        self.sim = sim
        self.params = params or FabricParams()
        self.name = name
        p = self.params
        self.port_links = [
            SerialLink(
                sim,
                p.port_bandwidth,
                latency=p.port_latency,
                name=f"{name}-port{i}",
            )
            for i in range(p.n_ports)
        ]
        self.switch_link = SerialLink(
            sim,
            p.resolved_switch_bandwidth,
            latency=p.switch_latency,
            name=f"{name}-switch",
        )
        pool_bw = p.resolved_pool_bandwidth
        if p.policy is PartitionPolicy.SHARED:
            self._pool_links = [
                SerialLink(
                    sim, pool_bw, latency=p.pool_latency, name=f"{name}-pool"
                )
            ]
        else:
            self._pool_links = [
                SerialLink(
                    sim,
                    pool_bw.scaled(p.tenant_share(t)),
                    latency=p.pool_latency,
                    name=f"{name}-pool-t{t}",
                )
                for t in range(p.n_tenants)
            ]
        self.stats = FabricStats()
        self._attachments: list[FabricPort] = []
        #: The deferred pool hops of plain-transfer cells: a heap of
        #: ``(time, seq, sub, cell, pool_link, tenant, port)`` whose first
        #: three fields order each hop like the switch-exit event it
        #: replaces.
        self._pending: list[tuple] = []
        self._sub = 0
        #: Index into ``_pool_links`` per tenant.
        self._pool_of = [
            0 if p.policy is PartitionPolicy.SHARED else t
            for t in range(p.n_tenants)
        ]
        sim.add_deferred(self._flush)

    def port(self, port_index: int, tenant: int = 0) -> FabricPort:
        """An attachment for ``tenant`` on host port ``port_index``."""
        if not 0 <= port_index < self.params.n_ports:
            raise ValueError(
                f"port {port_index} out of range (fabric has "
                f"{self.params.n_ports} ports)"
            )
        if not 0 <= tenant < self.params.n_tenants:
            raise ValueError(
                f"tenant {tenant} out of range (fabric has "
                f"{self.params.n_tenants} tenants)"
            )
        attachment = FabricPort(self, port_index, tenant)
        self._attachments.append(attachment)
        return attachment

    def pool_link_for(self, tenant: int) -> SerialLink:
        """The pool-stage link serving ``tenant`` under the policy.

        Deferred pool hops due before the current event are applied
        first, so the link's state is the per-cell schedule's.
        """
        self._flush(*self.sim.current_key)
        return self._pool_links[self._pool_of[tenant]]

    @property
    def pool_links(self) -> list[SerialLink]:
        """All pool-stage links (one, or one per tenant), up to date."""
        self._flush(*self.sim.current_key)
        return list(self._pool_links)

    def _flush(self, time: float, seq: float) -> None:
        """Apply the deferred pool hops keyed before ``(time, seq)``.

        Each hop books its pool link exactly as its switch-exit event
        would have, at its own exit time ``b``.  One heap across all pool
        links keeps every pool booking (and so the order in which
        tenants first appear in the wait accounting) in the per-cell
        schedule's order.
        """
        pending = self._pending
        while pending:
            b, s, _, cell, pool, tenant, port = pending[0]
            if b > time or (b == time and s >= seq):
                break
            heapq.heappop(pending)
            _queued_reserve(
                self,
                pool,
                cell,
                b,
                tenant=tenant,
                port=port,
                waits=self.stats.tenant_pool_wait,
                span_name="pool-queue",
                track=pool.name,
            )

    def reducer(self, ranks, tenant: int = 0, **kwargs):
        """An in-fabric reduction stage over ``ranks`` port indices.

        Convenience constructor for
        :class:`repro.interconnect.aggregation.FabricReducer` (imported
        lazily — aggregation depends on this module)::

            red = fabric.reducer(ranks=range(4), tenant=0)
            yield red.reduce(encoded_bytes_per_rank)
        """
        from repro.interconnect.aggregation import FabricReducer

        return FabricReducer(self, ranks, tenant=tenant, **kwargs)

    def gather_unit(self, ranks, tenant: int = 0, **kwargs):
        """An in-fabric all-gather stage over ``ranks`` port indices.

        Convenience constructor for
        :class:`repro.interconnect.gather.FabricGather` (imported lazily
        — gather depends on this module)::

            gat = fabric.gather_unit(ranks=range(4), tenant=0)
            yield gat.gather(shard_bytes_per_rank)
        """
        from repro.interconnect.gather import FabricGather

        return FabricGather(self, ranks, tenant=tenant, **kwargs)
