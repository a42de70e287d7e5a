"""Tests for the multi-host CXL fabric and the ClusterEngine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect import (
    CacheLinePayload,
    CXLController,
    CXLFabric,
    FabricParams,
    PartitionPolicy,
)
from repro.models import get_model
from repro.obs import Metrics, Tracer, validate_chrome_trace
from repro.offload import (
    ClusterEngine,
    DataParallelEngine,
    SystemKind,
)
from repro.offload.parallel import ClusterParams
from repro.sim import Simulator
from repro.utils.units import GB, Bandwidth


def _params(**kw):
    defaults = dict(
        n_ports=2,
        n_tenants=2,
        port_bandwidth=Bandwidth(10 * GB),
        port_latency=0.0,
        switch_latency=0.0,
        pool_latency=0.0,
    )
    defaults.update(kw)
    return FabricParams(**defaults)


class TestFabricParams:
    def test_defaults_resolve(self):
        p = FabricParams(n_ports=4)
        assert p.resolved_switch_bandwidth.bytes_per_second == pytest.approx(
            4 * p.port_bandwidth.bytes_per_second
        )
        assert p.resolved_pool_bandwidth.bytes_per_second == pytest.approx(
            2 * p.port_bandwidth.bytes_per_second
        )

    def test_policy_parse_from_string(self):
        assert FabricParams(policy="shared").policy is PartitionPolicy.SHARED
        assert FabricParams(policy="fair").policy is PartitionPolicy.FAIR_SHARE
        with pytest.raises(ValueError):
            FabricParams(policy="bogus")

    def test_weighted_requires_weights(self):
        with pytest.raises(ValueError):
            FabricParams(n_tenants=2, policy="weighted")
        with pytest.raises(ValueError):
            FabricParams(
                n_tenants=2, policy="weighted", tenant_weights=(1.0,)
            )
        p = FabricParams(
            n_tenants=2, policy="weighted", tenant_weights=(1.0, 3.0)
        )
        assert p.tenant_share(0) == pytest.approx(0.25)
        assert p.tenant_share(1) == pytest.approx(0.75)

    def test_fair_share_splits_evenly(self):
        p = FabricParams(n_tenants=4, policy="fair")
        assert p.tenant_share(2) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            FabricParams(n_ports=0)
        with pytest.raises(ValueError):
            FabricParams(n_tenants=0)
        with pytest.raises(ValueError):
            FabricParams(cells_per_transfer=0)


class TestCXLFabricTransfers:
    def test_single_cell_timing_through_all_stages(self):
        """A small (single-cell) transfer pays port + switch + pool in
        sequence: store-and-forward through three serial stages."""
        bw = 1 * GB
        p = _params(
            n_ports=1,
            n_tenants=1,
            port_bandwidth=Bandwidth(bw),
            switch_bandwidth=Bandwidth(2 * bw),
            pool_bandwidth=Bandwidth(4 * bw),
        )
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        port = fabric.port(0, tenant=0)
        n_bytes = 1024  # below MIN_CELL_BYTES -> one cell
        done = {}

        def go(sim):
            yield port.transmit(n_bytes)
            done["t"] = sim.now

        sim.process(go(sim))
        sim.run()
        expected = n_bytes / bw + n_bytes / (2 * bw) + n_bytes / (4 * bw)
        assert done["t"] == pytest.approx(expected, rel=1e-9)

    def test_large_transfer_pipelines_in_cells(self):
        """A multi-cell transfer approaches the bottleneck-stage fluid
        limit instead of paying every stage serially."""
        bw = 1 * GB
        p = _params(
            n_ports=1,
            n_tenants=1,
            port_bandwidth=Bandwidth(bw),
            switch_bandwidth=Bandwidth(2 * bw),
            pool_bandwidth=Bandwidth(4 * bw),
        )
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        port = fabric.port(0)
        n_bytes = 64 * 2**20
        done = {}

        def go(sim):
            yield port.transmit(n_bytes)
            done["t"] = sim.now

        sim.process(go(sim))
        sim.run()
        fluid = n_bytes / bw  # port is the bottleneck stage
        serial = n_bytes / bw + n_bytes / (2 * bw) + n_bytes / (4 * bw)
        assert done["t"] >= fluid
        assert done["t"] < serial * 0.75  # pipelining beats store-and-forward
        # within ~(stages-1)/cells of the fluid limit
        assert done["t"] == pytest.approx(fluid, rel=3 / p.cells_per_transfer)

    def test_two_tenants_one_port_serialize(self):
        """Tenants co-located on a port share its wire FCFS."""
        p = _params(n_ports=1, n_tenants=2)
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        a, b = fabric.port(0, tenant=0), fabric.port(0, tenant=1)
        n_bytes = 32 * 2**20
        ends = {}

        def go(sim, link, key):
            yield link.transmit(n_bytes)
            ends[key] = sim.now

        sim.process(go(sim, a, "a"))
        sim.process(go(sim, b, "b"))
        sim.run()
        alone = n_bytes / p.port_bandwidth.bytes_per_second
        # the later finisher saw a (roughly) halved port
        assert max(ends.values()) >= 2 * alone * 0.95

    def test_shared_pool_contention_slows_tenants(self):
        """With a SHARED pool at 1x port bandwidth, two tenants on
        separate ports contend at the pool stage."""
        bw = 10 * GB
        contended = _params(
            policy="shared", pool_bandwidth=Bandwidth(bw)
        )
        n_bytes = 32 * 2**20

        def run(params, n_tenants):
            sim = Simulator()
            fabric = CXLFabric(sim, params)
            ends = {}

            def go(sim, link, key):
                yield link.transmit(n_bytes)
                ends[key] = sim.now

            for t in range(n_tenants):
                sim.process(go(sim, fabric.port(t % params.n_ports, t), t))
            sim.run()
            return max(ends.values()), fabric

        t1, _ = run(contended, 1)
        t2, fabric = run(contended, 2)
        assert t2 > t1 * 1.5  # pool at 1x port is the shared bottleneck
        assert fabric.stats.pool_wait > 0.0

    def test_fair_partition_isolates_but_caps(self):
        """FAIR_SHARE guarantees 1/M of the pool regardless of the other
        tenant's load — and caps a lone heavy tenant at its share."""
        bw = 10 * GB
        p = _params(policy="fair", pool_bandwidth=Bandwidth(bw))
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        port = fabric.port(0, tenant=0)
        n_bytes = 32 * 2**20
        ends = {}

        def go(sim):
            yield port.transmit(n_bytes)
            ends["t"] = sim.now

        sim.process(go(sim))
        sim.run()
        # tenant 0 alone still only gets pool/2 = 5 GB/s: pool-bound
        assert ends["t"] == pytest.approx(
            n_bytes / (bw / 2), rel=0.15
        )

    def test_weighted_partition_orders_tenants(self):
        """A heavier QoS weight finishes the same load strictly sooner."""
        bw = 10 * GB
        p = _params(
            policy="weighted",
            tenant_weights=(1.0, 3.0),
            pool_bandwidth=Bandwidth(bw),
        )
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        light, heavy = fabric.port(0, 0), fabric.port(1, 1)
        n_bytes = 32 * 2**20
        ends = {}

        def go(sim, link, key):
            yield link.transmit(n_bytes)
            ends[key] = sim.now

        sim.process(go(sim, light, "light"))
        sim.process(go(sim, heavy, "heavy"))
        sim.run()
        assert ends["heavy"] < ends["light"]

    def test_stats_account_per_port_and_per_tenant(self):
        p = _params(n_ports=2, n_tenants=3)
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        links = [fabric.port(t % 2, t) for t in range(3)]

        def go(sim, link, n):
            yield link.transmit(n)

        for i, link in enumerate(links):
            sim.process(go(sim, link, 1000 * (i + 1)))
        sim.run()
        stats = fabric.stats
        assert stats.tenant_bytes == {0: 1000.0, 1: 2000.0, 2: 3000.0}
        # tenants 0 and 2 share port 0
        assert stats.port_bytes == {0: 4000.0, 1: 2000.0}
        assert stats.total_bytes == 6000.0
        snap = stats.snapshot()
        assert snap["total_bytes"] == 6000.0
        assert snap["tenant_bytes"]["2"] == 3000.0

    def test_port_and_tenant_range_validation(self):
        sim = Simulator()
        fabric = CXLFabric(sim, _params(n_ports=2, n_tenants=2))
        with pytest.raises(ValueError):
            fabric.port(2, 0)
        with pytest.raises(ValueError):
            fabric.port(0, 2)

    def test_contention_emits_fabric_spans_and_tenant_accounting(self):
        """Chrome traces carry switch/pool queueing spans tagged with the
        tenant, and metrics carry per-tenant byte counters."""
        tracer, metrics = Tracer(), Metrics()
        sim = Simulator(tracer=tracer, metrics=metrics)
        p = _params(policy="shared", pool_bandwidth=Bandwidth(10 * GB))
        fabric = CXLFabric(sim, p)
        n_bytes = 32 * 2**20

        def go(sim, link):
            yield link.transmit(n_bytes)

        for t in range(2):
            sim.process(go(sim, fabric.port(t, t)))
        sim.run()
        cats = {s.cat for s in tracer.spans}
        assert "fabric" in cats and "link" in cats
        fabric_spans = [s for s in tracer.spans if s.cat == "fabric"]
        assert fabric_spans, "contended run recorded no queueing spans"
        assert {s.args["tenant"] for s in fabric_spans} <= {0, 1}
        trace = tracer.chrome_trace(metrics=metrics)
        assert validate_chrome_trace(trace) == []
        counters = metrics.counters()
        assert counters["fabric.tenant0.bytes"] == n_bytes
        assert counters["fabric.tenant1.bytes"] == n_bytes
        assert counters["fabric.port0.bytes"] == n_bytes


class TestClusterEngine:
    @pytest.fixture(scope="class")
    def bert(self):
        return get_model("bert-large-cased")

    @pytest.mark.parametrize(
        "kind",
        [
            SystemKind.TECO_REDUCTION,
            SystemKind.TECO_CXL,
            SystemKind.ZERO_OFFLOAD,
        ],
    )
    def test_single_tenant_matches_data_parallel_engine(self, bert, kind):
        """Acceptance: n_hosts=1, tenants=1 over the fabric reproduces
        the DataParallelEngine breakdown within tolerance."""
        dp = DataParallelEngine(
            kind, bert, 4, ClusterParams(n_gpus=1)
        ).simulate_step()
        cl = ClusterEngine(
            kind, bert, 4, ClusterParams(n_gpus=1), n_hosts=1, n_tenants=1
        ).simulate_step()
        t = cl.tenants[0]
        assert t.total == pytest.approx(dp.total, rel=0.03)
        assert t.forward == pytest.approx(dp.forward, rel=1e-9)
        assert t.backward == pytest.approx(dp.backward, rel=1e-9)
        assert t.optimizer == pytest.approx(dp.optimizer, rel=0.05)
        assert t.communication_exposed == pytest.approx(
            dp.communication_exposed, rel=0.25, abs=5e-3
        )
        assert t.wire_bytes == pytest.approx(dp.wire_bytes, rel=1e-9)
        assert t.wire_bytes_per_link == pytest.approx(
            dp.wire_bytes_per_link, rel=1e-9
        )

    def test_multi_gpu_tenant_matches_data_parallel_engine(self, bert):
        """The intra-job sharding (n_gpus=4) carries over unchanged."""
        dp = DataParallelEngine(
            SystemKind.TECO_REDUCTION, bert, 16, ClusterParams(n_gpus=4)
        ).simulate_step()
        cl = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            16,
            ClusterParams(n_gpus=4),
            n_hosts=1,
            n_tenants=1,
        ).simulate_step()
        assert cl.tenants[0].total == pytest.approx(dp.total, rel=0.03)
        assert cl.tenants[0].wire_bytes == pytest.approx(
            dp.wire_bytes, rel=1e-9
        )

    @pytest.mark.slow
    def test_pool_contention_slowdown_is_monotone(self, bert):
        """Acceptance: a tenants sweep shows monotone pool-contention
        slowdown (per-tenant mean step never improves with more load)."""
        for policy in ("fair", "shared"):
            means = []
            for m in (1, 2, 4, 8):
                weights = None
                cl = ClusterEngine(
                    SystemKind.TECO_REDUCTION,
                    bert,
                    4,
                    ClusterParams(n_gpus=1),
                    n_hosts=2,
                    n_tenants=m,
                    policy=policy,
                    tenant_weights=weights,
                ).simulate_step()
                means.append(cl.mean_step)
            for lo, hi in zip(means, means[1:]):
                assert hi >= lo * (1 - 1e-9), (policy, means)
            assert means[-1] > means[0] * 1.5, (policy, means)

    def test_contention_wait_grows_with_tenants(self, bert):
        waits = []
        for m in (2, 4, 8):
            cl = ClusterEngine(
                SystemKind.TECO_REDUCTION,
                bert,
                4,
                ClusterParams(n_gpus=1),
                n_hosts=2,
                n_tenants=m,
            ).simulate_step()
            waits.append(cl.contention_wait)
        assert waits == sorted(waits)
        assert waits[-1] > 0.0

    def test_weighted_policy_prefers_heavy_tenant(self, bert):
        cl = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            4,
            ClusterParams(n_gpus=1),
            n_hosts=4,
            n_tenants=4,
            policy="weighted",
            tenant_weights=(1.0, 1.0, 1.0, 8.0),
        ).simulate_step()
        steps = [t.total for t in cl.tenants]
        assert steps[3] == min(steps)

    def test_tenant_bytes_balanced_and_ports_round_robin(self, bert):
        cl = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            4,
            ClusterParams(n_gpus=1),
            n_hosts=2,
            n_tenants=4,
        ).simulate_step()
        assert cl.ports == (0, 1, 0, 1)
        assert len(set(round(b) for b in cl.tenant_bytes)) == 1  # equal jobs
        assert sum(cl.port_bytes) == pytest.approx(cl.fabric_bytes)

    def test_cluster_trace_accounts_per_tenant_traffic(self, bert):
        """Acceptance: the Chrome trace of a contended cluster step
        carries per-tenant traffic (fabric queueing spans tagged with
        tenants, per-tenant byte counters, per-tenant step spans)."""
        tracer, metrics = Tracer(), Metrics()
        cl = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            4,
            ClusterParams(n_gpus=1),
            n_hosts=2,
            n_tenants=4,
            tracer=tracer,
            metrics=metrics,
        )
        cl.simulate_step()
        trace = tracer.chrome_trace(metrics=metrics)
        assert validate_chrome_trace(trace) == []
        counters = metrics.counters()
        for t in range(4):
            assert counters[f"fabric.tenant{t}.bytes"] > 0
        systems = {
            s.args.get("system")
            for s in tracer.spans
            if s.cat == "trainer" and s.name == "step"
        }
        assert len(systems) == 4  # one step span per tenant
        queue_spans = [s for s in tracer.spans if s.cat == "fabric"]
        assert queue_spans and all("tenant" in s.args for s in queue_spans)

    def test_batch_validation(self, bert):
        with pytest.raises(ValueError):
            ClusterEngine(
                SystemKind.TECO_REDUCTION, bert, 3, ClusterParams(n_gpus=2)
            )


class TestFencePropertyOnSharedFabricPort:
    """Satellite: CXLFENCE correctness under fabric contention."""

    @given(
        producer_lines=st.lists(
            st.integers(min_value=1, max_value=12), min_size=1, max_size=4
        ),
        rival_lines=st.integers(min_value=0, max_value=30),
        per_line_delay=st.sampled_from([0.0, 1e-9]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fence_fires_only_after_all_enqueued_lines_deliver(
        self, producer_lines, rival_lines, per_line_delay
    ):
        """Multiple concurrent producers share one CXLController attached
        to a fabric port, while a rival tenant hammers the shared switch
        and pool from another port: the fence must fire exactly at the
        last covered delivery — never early under contention."""
        params = FabricParams(
            n_ports=2,
            n_tenants=2,
            port_bandwidth=Bandwidth(1 * GB),
            policy="shared",
            pool_bandwidth=Bandwidth(1 * GB),  # pool == port: contended
        )
        sim = Simulator()
        fabric = CXLFabric(sim, params)
        ctrl = CXLController(
            sim,
            per_line_delay=per_line_delay,
            link=fabric.port(0, tenant=0),
            queue_depth=8,
        )
        rival = fabric.port(1, tenant=1)
        total = sum(producer_lines)
        produced = []
        fence_result = {}

        def producer(sim, k, n):
            for i in range(n):
                yield ctrl.send_line(CacheLinePayload((k * 64 + i) * 64))
                produced.append(sim.now)

        def rival_traffic(sim):
            for _ in range(rival_lines):
                yield rival.transmit(4096)

        def fencer(sim, workers):
            yield sim.all_of(workers)  # all lines accepted
            fence_result["pre_outstanding"] = ctrl.outstanding
            t = yield ctrl.fence()
            fence_result["fired"] = t
            fence_result["outstanding"] = ctrl.outstanding
            fence_result["delivered"] = ctrl.lines_delivered

        workers = [
            sim.process(producer(sim, k, n))
            for k, n in enumerate(producer_lines)
        ]
        sim.process(rival_traffic(sim))
        sim.process(fencer(sim, workers))
        sim.run()

        assert ctrl.lines_delivered == total
        # lines were still in flight when the fence was requested...
        assert fence_result["pre_outstanding"] > 0
        # ...yet the fence saw every previously enqueued line delivered...
        assert fence_result["outstanding"] == 0
        assert fence_result["delivered"] == total
        # ...and fired exactly at the last covered delivery, not later
        assert fence_result["fired"] == pytest.approx(
            ctrl.last_delivery_time, abs=1e-15
        )
        # never early: deliveries cross port AND pool serially at 1 GB/s,
        # so the fence cannot beat the uncontended pipeline lower bound
        wire_bytes = ctrl.wire_bytes_sent
        lower_bound = wire_bytes / (1 * GB)
        assert fence_result["fired"] >= lower_bound * (1 - 1e-9)


#: Seed-0 result hashes of the fabric experiments, recorded with the
#: per-cell event schedule the fabric cursor replaced: the cursor must
#: reproduce them bit for bit.  ``fig_aggregation`` runs reducers under
#: every partition policy.
FABRIC_RESULT_HASHES = {
    "fig_aggregation": "771b3f92bfa4e0eb439cb1a7f8a9870a0fdc3b1cd9f3e93202806f69ec35d32b",
    "fig_fabric": "0e302184db47fdeb42a67bb67fc060f9ffb9dc6f04e5b120f8108d5c54880782",
    "fig_zero3": "f6ee27ff357f80b95e2f0d1f78a9db8ea4e8257e67937b706f58c68a4eec5a59",
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FABRIC_RESULT_HASHES))
def test_fabric_experiment_hash_pinned(name):
    from repro.experiments import registry

    result = registry.run_experiment(name, seed=0)
    assert result.result_hash == FABRIC_RESULT_HASHES[name]
