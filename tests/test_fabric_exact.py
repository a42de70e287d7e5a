"""Differential test: the per-transfer fabric cursor equals the per-cell schedule.

:mod:`repro.interconnect` walks each transfer's cells with one cursor,
defers plain-transfer pool hops and skips the completion events nobody
waits on.  ``tests/_fabric_reference.py`` keeps the original per-cell
event chains.  Random schedules of ``transmit``/``reduce``/``gather``
across tenants, ports and partition policies run through both, and every
observable must agree bit for bit: each delivery time (in firing order),
every :class:`~repro.interconnect.fabric.FabricStats` field, every
:class:`~repro.sim.SerialLink`'s accounting, every metric, and the
multiset of trace spans — also at a ``run(until)`` stop taken in the
middle of transfers.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.interconnect import CXLFabric, FabricParams
from repro.interconnect.aggregation import FabricReducer
from repro.interconnect.fabric import MIN_CELL_BYTES, FabricPort
from repro.interconnect.gather import FabricGather
from repro.obs import Metrics, Tracer
from repro.sim import Simulator
from repro.utils.units import GB, NS, Bandwidth
from tests._fabric_reference import RefGather, RefPort, RefReducer

SIZES = (
    0.0,
    64.0,
    MIN_CELL_BYTES,
    MIN_CELL_BYTES + 1,
    10_000.0,
    65_536.0,
    1_000_000.0,
)
DELAYS = (0.0, 0.0, 1e-7, 1e-6, 3.3e-6)

#: Powers of two everywhere make every time an exact binary fraction, so
#: distinct entries often tie on time and only their keys' ``seq`` (and
#: the deferred hops' virtual keys) order them.
DYADIC = {
    "bw": (2.0**33, 2.0**34, 2.0**35),
    "lat": (0.0, 2.0**-22),
    "sizes": (0.0, 64.0, 4096.0, 8192.0, 65_536.0, 2.0**20),
    "delays": (0.0, 0.0, 2.0**-20, 2.0**-18),
    "extra": (0.0, 0.0, 2.0**-21),
    "stops": (None, 2.0**-19, 2.0**-16, 2.0**-14),
    "alu": ({"reduce_bandwidth": 2.0**36, "reduce_latency": 2.0**-22},),
}
DECIMAL = {
    "bw": (8 * GB, 12 * GB, 16 * GB, 40 * GB),
    "lat": (0.0, 100 * NS, 250 * NS),
    "sizes": SIZES,
    "delays": DELAYS,
    "extra": (0.0, 0.0, 2e-7),
    "stops": (None, 1e-7, 2e-6, 1e-5, 6e-5),
    "alu": ({},),  # the reducer's defaults
}


@st.composite
def scenarios(draw):
    n_ports = draw(st.integers(1, 3))
    n_tenants = draw(st.integers(1, 3))
    policy = draw(st.sampled_from(["shared", "fair", "weighted"]))
    weights = None
    if policy == "weighted":
        weights = tuple(
            draw(st.sampled_from([1.0, 2.0, 3.0])) for _ in range(n_tenants)
        )
    v = draw(st.sampled_from([DYADIC, DECIMAL]))
    bw = st.sampled_from(v["bw"])
    lat = st.sampled_from(v["lat"])
    params = FabricParams(
        n_ports=n_ports,
        n_tenants=n_tenants,
        port_bandwidth=Bandwidth(draw(bw)),
        port_latency=draw(lat),
        switch_bandwidth=draw(st.one_of(st.none(), bw.map(Bandwidth))),
        switch_latency=draw(lat),
        pool_bandwidth=draw(st.one_of(st.none(), bw.map(Bandwidth))),
        pool_latency=draw(lat),
        policy=policy,
        tenant_weights=weights,
        cells_per_transfer=draw(st.sampled_from([1, 3, 32])),
    )
    ranks = st.lists(st.integers(0, n_ports - 1), min_size=1, max_size=3)
    op = st.tuples(
        st.sampled_from(v["delays"]),  # pause before the op
        st.sampled_from(["transmit", "transmit", "reduce", "gather"]),
        st.integers(0, n_tenants - 1),
        ranks,  # transmit uses the first entry as its port
        st.sampled_from(v["sizes"]),
        st.sampled_from(v["extra"]),
        st.booleans(),  # wait for the delivery before the next op
    )
    procs = draw(st.lists(st.lists(op, min_size=1, max_size=5), min_size=1, max_size=4))
    stop = draw(st.sampled_from(v["stops"]))
    observed = draw(st.booleans())
    return params, v["alu"][0], procs, stop, observed


def _run(params, alu, procs, stop, observed, reference):
    """Drive one schedule; return everything observable at the stop and end."""
    tracer, metrics = (Tracer(), Metrics()) if observed else (None, None)
    sim = Simulator(tracer=tracer, metrics=metrics)
    fabric = CXLFabric(sim, params)
    port_cls, red_cls, gat_cls = (
        (RefPort, RefReducer, RefGather)
        if reference
        else (FabricPort, FabricReducer, FabricGather)
    )
    stages = []  # reducers and gathers, in creation order
    delivered = []

    def endpoint(kind, tenant, ranks):
        if kind == "transmit":
            return port_cls(fabric, ranks[0], tenant).transmit
        if kind == "reduce":
            stages.append(red_cls(fabric, ranks, tenant=tenant, **alu))
            return stages[-1].reduce
        stages.append(gat_cls(fabric, ranks, tenant=tenant))
        return stages[-1].gather

    def proc(p, ops):
        for k, (pause, kind, tenant, ranks, size, extra, wait) in enumerate(ops):
            yield sim.timeout(pause)
            ev = endpoint(kind, tenant, ranks)(size, extra)
            tag = (p, k)
            if wait:
                value = yield ev
                delivered.append((tag, sim.now, value))
            else:
                ev.callbacks.append(
                    lambda e, tag=tag: delivered.append((tag, sim.now, e.value))
                )

    for p, ops in enumerate(procs):
        sim.process(proc(p, ops))

    def observe():
        links = [
            *fabric.port_links,
            fabric.switch_link,
            *fabric.pool_links,
            *(s.alu for s in stages if isinstance(s, FabricReducer)),
        ]
        return {
            "now": sim.now,
            "delivered": list(delivered),
            "stats": fabric.stats.snapshot(),
            # Insertion order too: the stats' sums follow it.
            "raw": {k: list(v.items()) for k, v in vars(fabric.stats).items()},
            "links": [
                (l.name, l.free_at, l.busy_time, l.bytes_sent, l.transfers)
                for l in links
            ],
            "stages": [(s.name, s.bytes_in, s.bytes_out) for s in stages],
            "spans": Counter(
                (s.name, s.cat, s.begin, s.end, s.track, tuple(sorted(s.args.items())))
                for s in (tracer.spans if tracer else ())
            ),
            "counters": metrics.counters() if metrics else {},
            "series": metrics.all_series() if metrics else {},
        }

    snaps = []
    if stop is not None:
        sim.run(until=stop)
        snaps.append(observe())
    sim.run()
    snaps.append(observe())
    return snaps


#: A reducer's ALU exit tying on time with a plain cell's deferred pool
#: hop, so that only the hop's virtual key orders the two pool bookings.
TIE = (
    FabricParams(
        n_ports=1,
        n_tenants=1,
        port_bandwidth=Bandwidth(2.0**33),
        port_latency=0.0,
        switch_latency=0.0,
        pool_latency=0.0,
        policy="shared",
    ),
    DYADIC["alu"][0],
    [
        [
            (0.0, "transmit", 0, [0], 0.0, 0.0, False),
            (0.0, "reduce", 0, [0], 2.0**20, 0.0, False),
            (0.0, "transmit", 0, [0], 65_536.0, 0.0, False),
        ]
    ],
    None,
    False,
)


#: Tenants first waiting on different pool links in an order that only
#: the deferred hops' global key order reproduces; the stats' sums add
#: per-tenant waits in that order.
FIRST_WAITS = (
    FabricParams(
        n_ports=2,
        n_tenants=3,
        port_bandwidth=Bandwidth(12 * GB),
        port_latency=250 * NS,
        switch_latency=0.0,
        pool_latency=0.0,
        policy="weighted",
        tenant_weights=(2.0, 1.0, 1.0),
    ),
    {},
    [
        [
            (0.0, "transmit", 0, [0], 10_000.0, 0.0, False),
            (0.0, "transmit", 0, [0], 0.0, 0.0, False),
            (0.0, "transmit", 0, [0], 0.0, 0.0, False),
        ],
        [
            (0.0, "transmit", 2, [0], 10_000.0, 0.0, False),
            (0.0, "transmit", 0, [0], 4096.0, 0.0, False),
            (1e-6, "transmit", 1, [1], 4097.0, 0.0, False),
        ],
    ],
    None,
    False,
)


@given(scenarios())
@example(TIE)
@example(FIRST_WAITS)
@settings(max_examples=100, deadline=None)
def test_cursor_matches_per_cell_reference(scenario):
    ref = _run(*scenario, reference=True)
    new = _run(*scenario, reference=False)
    assert len(ref) == len(new)
    for r, n in zip(ref, new):
        for key in r:
            assert n[key] == r[key], key


def test_cursor_schedules_fewer_keys():
    """The cursor schedules far fewer keys for the same multi-cell traffic."""
    params = FabricParams(n_ports=2, n_tenants=2, policy="shared")
    counts = []
    for port_cls in (RefPort, FabricPort):
        sim = Simulator()
        fabric = CXLFabric(sim, params)
        for t in range(2):
            port = port_cls(fabric, t, t)
            for _ in range(4):
                port.transmit(1_000_000.0)
        sim.run()
        counts.append(sim.last_key)
    cells = 2 * 4 * params.cells_per_transfer
    assert counts[0] == 3 * cells + 8  # three events per cell, done
    assert counts[1] == cells + 3 * 8  # last switch exit, pool exit, done
