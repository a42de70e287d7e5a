"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Process, SerialLink, Simulator, Store
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

    def test_unhandled_process_failure_raises_from_run(self):
        """A crashed process nothing waits on must not pass silently."""
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        sim.process(bad(sim))
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert sim.now == 1.0

    def test_unhandled_event_failure_raises_from_step(self):
        sim = Simulator()
        sim.event().fail(KeyError("lost"))
        with pytest.raises(KeyError):
            sim.step()

    def test_handled_failure_does_not_raise(self):
        sim = Simulator()
        caught = []

        def bad(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        def main(sim):
            try:
                yield sim.all_of([sim.process(bad(sim)), sim.timeout(2)])
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(main(sim))
        sim.run()
        assert caught == [(1.0, "boom")]

    def test_late_join_raises_from_run_then_reaches_joiner(self):
        """A waiter must be attached before the failure fires: a child
        that fails before its parent joins it raises from ``run()``; a
        join after that raise still throws the exception into the
        parent."""
        sim = Simulator()
        caught = []

        def child(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent(sim):
            p = sim.process(child(sim))
            yield sim.timeout(2)
            try:
                yield p
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(parent(sim))
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert sim.now == 1.0 and caught == []
        sim.run()
        assert caught == [(2.0, "boom")]


class TestCallAt:
    def test_keyed_call_orders_like_the_event_it_replaces(self):
        """``call_at(t)`` takes an event's key ``now + (t - now)``: it
        fires in push order among events due at the same time."""
        sim = Simulator()
        order = []
        sim.timeout(0.1).callbacks.append(lambda e: order.append("event"))
        sim.call_at(0.1, order.append, "call")
        sim.timeout(0.1).callbacks.append(lambda e: order.append("late"))
        sim.run()
        assert order == ["event", "call", "late"]

    def test_keyed_call_key_matches_succeed_delay(self):
        sim = Simulator()
        sim.timeout(0.3).callbacks.append(lambda e: None)
        sim.run()
        t = 0.7000000000000001
        sim.call_at(t, lambda arg: None, None)
        sim.event().succeed(delay=t - sim.now)
        (t1, *_), (t2, *_) = sorted(sim._heap, key=lambda e: e[1])
        assert t1 == t2 == sim.now + (t - sim.now)

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(0.5, print, None)
        with pytest.raises(ValueError):
            sim.push_keyed(0.5, sim.alloc_keys(1), print, None)


class TestKeyedScheduling:
    def test_allocated_keys_order_like_events_pushed_now(self):
        """Keys from ``alloc_keys`` sit where events pushed at that
        moment would, even when their entries are pushed later."""
        sim = Simulator()
        order = []
        first = sim.alloc_keys(2)
        assert sim.last_key == first + 1
        sim.timeout(1.0).callbacks.append(lambda e: order.append("event"))
        sim.push_keyed(1.0, first + 1, order.append, "second")
        sim.push_keyed(1.0, first, order.append, "first")
        sim.run()
        assert order == ["first", "second", "event"]

    def test_advance_if_next(self):
        sim = Simulator()
        seen = []

        def probe(_arg):
            seq = sim.alloc_keys(3)
            # Behind the head entry at 2.0: refused, clock unmoved.
            seen.append(sim.advance_if_next(2.0, seq + 2))
            seen.append(sim.now)
            # Ahead of it (same time, earlier key): the clock moves.
            seen.append(sim.advance_if_next(1.5, seq))
            seen.append(sim.current_key == (1.5, seq))
            # Past run's until: refused.
            seen.append(sim.advance_if_next(2.5, seq + 1))

        sim.call_at(1.0, probe, None)
        sim.timeout(2.0)
        sim.run(until=2.2)
        assert seen == [False, 1.0, True, True, False]
        assert not sim.advance_if_next(3.0, sim.alloc_keys(1))  # outside run


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
        with pytest.raises(ValueError):
            link.reserve(-1)

    def test_reserve_books_like_transmit(self):
        """``reserve`` is ``transmit``'s bookkeeping without the event."""
        requests = ((1000, 0.0), (333, 2e-8), (0, 0.0), (4096, 0.0))
        states, times = [], []
        for use_reserve in (False, True):
            sim = Simulator()
            link = SerialLink(sim, Bandwidth(3e9), latency=1e-7)
            fired = []
            for n, extra in requests:
                if use_reserve:
                    fired.append(link.reserve(n, extra_delay=extra))
                else:
                    ev = link.transmit(n, extra_delay=extra)
                    ev.callbacks.append(lambda e: fired.append(sim.now))
            if use_reserve:
                assert sim.last_key == 0  # no event allocated
            sim.run()
            states.append(
                (link.free_at, link.busy_time, link.bytes_sent, link.transfers)
            )
            times.append(fired)
        assert states[0] == states[1]
        assert times[0] == times[1]

    @settings(max_examples=50, deadline=None)
    @given(
        busy_until=st.sampled_from([0.0, 1e-7, 3.3e-6]),
        n_bytes=st.sampled_from([0.0, 1.0, 333.0, 4096.0 / 3]),
        count=st.integers(1, 5),
        extra=st.sampled_from([0.0, 2e-8, 1e-5]),
    )
    def test_reserve_train_books_like_reserve_calls(
        self, busy_until, n_bytes, count, extra
    ):
        """A train is ``count`` reserves, only the first with the extra
        delay: same delivery times, link state, spans and samples."""
        from repro.obs import Metrics, Tracer

        results = []
        for train in (False, True):
            sim = Simulator(tracer=Tracer(), metrics=Metrics())
            link = SerialLink(sim, Bandwidth(3e9), latency=1e-7, name="w")
            sim.call_at(1e-6, lambda _: None, None)
            sim.run()
            link.reserve(busy_until * 3e9)
            if train:
                got = link.reserve_train(n_bytes, count, extra)
            else:
                got = [
                    link.reserve(n_bytes, extra if k == 0 else 0.0)
                    for k in range(count)
                ]
            state = (link.free_at, link.busy_time, link.bytes_sent, link.transfers)
            results.append((got, state, sim.tracer.spans, sim.metrics.all_series()))
        assert results[0] == results[1]

    def test_reserve_at_books_as_if_called_then(self):
        """``reserve(at=t)`` books exactly what a call at time ``t`` would."""
        results = []
        for ahead in (False, True):
            sim = Simulator()
            link = SerialLink(sim, Bandwidth(3e9), latency=1e-7)
            if ahead:
                got = [link.reserve(n, at=t) for t, n in ((0.3, 999), (0.3, 5))]
            else:
                got = []
                for t, n in ((0.3, 999), (0.3, 5)):
                    sim.call_at(t, lambda n: got.append(link.reserve(n)), n)
                sim.run()
            results.append(
                (got, link.free_at, link.busy_time, link.bytes_sent, link.transfers)
            )
        assert results[0] == results[1]
