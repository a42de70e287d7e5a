"""Additional kernel coverage: controller batching, and the
fluid-vs-queued timing equivalence that justifies the engines' stream
approximation."""

import numpy as np
import pytest

from repro.interconnect import CacheLinePayload, CXLController, CXLLinkModel
from repro.sim import SerialLink, Simulator
from repro.utils.units import Bandwidth


class TestControllerBatching:
    def test_send_lines_generator(self):
        sim = Simulator()
        ctrl = CXLController(sim)
        payloads = [CacheLinePayload(i * 64) for i in range(20)]

        def producer(sim):
            yield sim.process(ctrl.send_lines(payloads))
            return (yield ctrl.fence())

        p = sim.process(producer(sim))
        sim.run()
        assert ctrl.lines_delivered == 20
        assert p.value > 0


class TestFluidQueueEquivalence:
    """The timing engines stream transfers fluidly without modelling the
    128-entry pending queue; this test shows the queue's back-pressure
    does not change *total* completion time when the link is the
    bottleneck — it only shifts where the producer's time is spent."""

    def test_total_time_invariant_under_back_pressure(self):
        n_lines = 400
        model = CXLLinkModel.paper_default()
        t_line = model.line_transfer_time()
        production_gap = t_line / 4  # producer 4x faster than the link

        # Queued: bounded pending queue, producer blocks when full.
        sim_q = Simulator()
        ctrl = CXLController(sim_q, model, queue_depth=16)

        def queued_producer(sim):
            for i in range(n_lines):
                yield sim.timeout(production_gap)
                yield ctrl.send_line(CacheLinePayload(i * 64))
            return (yield ctrl.fence())

        pq = sim_q.process(queued_producer(sim_q))
        sim_q.run()

        # Fluid: unbounded enqueue on a bare serial link.
        sim_f = Simulator()
        link = SerialLink(
            sim_f, model.effective_bandwidth, latency=model.latency
        )

        def fluid_producer(sim):
            transfers = []
            for _ in range(n_lines):
                yield sim.timeout(production_gap)
                transfers.append(link.transmit(68))
            done = yield sim.all_of(transfers)
            return sim.now

        pf = sim_f.process(fluid_producer(sim_f))
        sim_f.run()

        assert pq.value == pytest.approx(pf.value, rel=1e-6)

    def test_back_pressure_delays_producer_not_completion(self):
        """With a tiny queue the producer finishes later (it stalls), but
        the last delivery lands at the same time."""
        model = CXLLinkModel.paper_default()
        t_line = model.line_transfer_time()

        def run(depth):
            sim = Simulator()
            ctrl = CXLController(sim, model, queue_depth=depth)
            marks = {}

            def producer(sim):
                for i in range(200):
                    yield ctrl.send_line(CacheLinePayload(i * 64))
                marks["produced"] = sim.now
                yield ctrl.fence()
                marks["done"] = sim.now

            sim.process(producer(sim))
            sim.run()
            return marks

        small = run(4)
        large = run(1024)
        assert small["produced"] > large["produced"]
        assert small["done"] == pytest.approx(large["done"], rel=1e-9)


class TestSerialLinkFreeAt:
    def test_free_at_tracks_wire(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        link.transmit(200)
        assert link.free_at == pytest.approx(2.0)

    def test_utilization_validation(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        with pytest.raises(ValueError):
            link.utilization(0)
