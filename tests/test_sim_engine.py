"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Process, Resource, SerialLink, Simulator, Store
from repro.utils.units import Bandwidth


class TestEventsAndTimeouts:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        fired = []
        ev = sim.timeout(5.0, "x")
        ev.callbacks.append(lambda e: fired.append((sim.now, e.value)))
        sim.run()
        assert fired == [(5.0, "x")]

    def test_event_ordering_is_stable(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.timeout(1.0, i).callbacks.append(
                lambda e: order.append(e.value)
            )
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    @given(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=40
        ),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_equal_timestamps_fire_in_push_order(self, delays, data):
        """Property: events sharing a timestamp pop in scheduling order.

        The heap entries carry a monotone ``seq`` tiebreaker, so the
        engine must behave as a FIFO queue *within* each timestamp —
        including events scheduled from inside callbacks of earlier
        events at that same instant (delay-0 chains).  The model below
        is literally a sorted-stable list of (fire_time, push_index).
        """
        sim = Simulator()
        fired = []
        expected = []  # (fire_time, push_index), push order
        counter = [0]

        def push(sim, delay):
            label = counter[0]
            counter[0] += 1
            expected.append((sim.now + delay, label))
            sim.timeout(delay, label).callbacks.append(
                lambda e: on_fire(e.value)
            )

        def on_fire(label):
            fired.append(label)
            # Sometimes schedule more work from inside the callback: a
            # delay-0 event lands at the *current* instant and must still
            # queue behind everything already pending at this time.
            if data.draw(st.booleans()) and counter[0] < 60:
                push(sim, data.draw(st.sampled_from([0.0, 1.0])))

        for d in delays:
            push(sim, d)
        sim.run()
        expected.sort(key=lambda pair: pair[0])  # stable: seq order kept
        assert fired == [label for _, label in expected]

    def test_callback_scheduled_zero_delay_runs_after_pending(self):
        """An event scheduled at t from a callback at t fires last."""
        sim = Simulator()
        order = []
        late = []

        def first(e):
            order.append("first")
            sim.timeout(0.0).callbacks.append(lambda e: late.append(len(order)))

        sim.timeout(1.0).callbacks.append(first)
        sim.timeout(1.0).callbacks.append(lambda e: order.append("second"))
        sim.timeout(1.0).callbacks.append(lambda e: order.append("third"))
        sim.run()
        assert order == ["first", "second", "third"]
        assert late == [3]  # fired only after all three pending callbacks

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_run_until(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_run_until_in_the_past_rejected(self):
        """The clock never moves back: a later ``timeout`` cannot fire
        before time that was already processed."""
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=12.0)
        with pytest.raises(ValueError):
            sim.run(until=5.0)
        assert sim.now == 12.0
        fired = []
        sim.timeout(1.0).callbacks.append(lambda e: fired.append(sim.now))
        sim.run(until=12.0)  # ``until == now`` is allowed
        sim.run()
        assert fired == [13.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)


class TestProcesses:
    def test_sequential_timeouts(self):
        sim = Simulator()
        trace = []

        def proc(sim):
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert trace == [1.0, 3.0]
        assert p.value == "done"

    def test_process_waits_on_process(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(4.0)
            return 42

        def parent(sim):
            value = yield sim.process(child(sim))
            return value + 1

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == 43
        assert sim.now == 4.0

    def test_all_of(self):
        sim = Simulator()

        def worker(sim, d):
            yield sim.timeout(d)
            return d

        def main(sim):
            procs = [sim.process(worker(sim, d)) for d in (3.0, 1.0, 2.0)]
            values = yield sim.all_of(procs)
            return values

        p = sim.process(main(sim))
        sim.run()
        assert p.value == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_any_of(self):
        sim = Simulator()

        def main(sim):
            first = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
            return (sim.now, first)

        p = sim.process(main(sim))
        sim.run()
        assert p.value == (1.0, "fast")

    def test_wait_on_already_fired_event(self):
        sim = Simulator()
        results = []

        def main(sim):
            ev = sim.timeout(1.0, "v")
            yield sim.timeout(2.0)  # let ev fire first
            got = yield ev
            results.append((sim.now, got))

        sim.process(main(sim))
        sim.run()
        assert results == [(2.0, "v")]

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def main(sim):
            try:
                yield sim.process(bad(sim))
            except ValueError as exc:
                return str(exc)

        p = sim.process(main(sim))
        sim.run()
        assert p.value == "boom"

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad(sim):
            yield 5

        sim.process(bad(sim))
        with pytest.raises(TypeError):
            sim.run()


class TestResource:
    def test_mutual_exclusion(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def user(sim, name, hold):
            yield res.request()
            log.append((sim.now, name, "in"))
            yield sim.timeout(hold)
            res.release()
            log.append((sim.now, name, "out"))

        sim.process(user(sim, "a", 2.0))
        sim.process(user(sim, "b", 1.0))
        sim.run()
        assert log == [
            (0.0, "a", "in"),
            (2.0, "a", "out"),
            (2.0, "b", "in"),
            (3.0, "b", "out"),
        ]

    def test_release_without_request(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()


class TestStore:
    def test_fifo_handoff(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer(sim):
            for i in range(3):
                yield sim.timeout(1.0)
                yield store.put(i)

        def consumer(sim):
            for _ in range(3):
                item = yield store.get()
                got.append((sim.now, item))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_bounded_capacity_blocks_producer(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        times = []

        def producer(sim):
            for i in range(4):
                yield store.put(i)
                times.append(sim.now)

        def consumer(sim):
            yield sim.timeout(10.0)
            for _ in range(4):
                yield store.get()
                yield sim.timeout(1.0)

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        # first two puts immediate; 3rd when consumer frees a slot at t=10
        assert times[0] == 0.0 and times[1] == 0.0
        assert times[2] == 10.0

    def test_get_before_put(self):
        sim = Simulator()
        store = Store(sim)
        out = []

        def consumer(sim):
            item = yield store.get()
            out.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(5.0)
            yield store.put("x")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert out == [(5.0, "x")]


class TestSerialLink:
    def test_single_transfer_time(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0), latency=0.5)
        done = []

        def main(sim):
            yield link.transmit(200)  # 2 s wire + 0.5 latency
            done.append(sim.now)

        sim.process(main(sim))
        sim.run()
        assert done == [2.5]

    def test_serialization(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        done = []

        def sender(sim, n):
            yield link.transmit(n)
            done.append(sim.now)

        sim.process(sender(sim, 100))  # 1 s
        sim.process(sender(sim, 100))  # queued: completes at 2 s
        sim.run()
        assert done == [1.0, 2.0]
        assert link.busy_time == pytest.approx(2.0)
        assert link.bytes_sent == 200

    def test_extra_delay(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        done = []

        def main(sim):
            yield link.transmit(100, extra_delay=0.25)
            done.append(sim.now)

        sim.process(main(sim))
        sim.run()
        assert done == [1.25]

    def test_idle_gap_not_counted_busy(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))

        def main(sim):
            yield link.transmit(100)
            yield sim.timeout(5.0)
            yield link.transmit(100)

        sim.process(main(sim))
        sim.run()
        assert link.busy_time == pytest.approx(2.0)
        assert link.utilization(sim.now) == pytest.approx(2.0 / 7.0)

    def test_negative_bytes_rejected(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        with pytest.raises(ValueError):
            link.transmit(-1)
