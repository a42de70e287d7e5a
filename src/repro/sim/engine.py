"""Process-oriented discrete-event simulation core.

The engine is deliberately small: a heap of ``(time, seq, fn, arg)``
entries ordered by ``(time, seq)`` (sequence numbers make scheduling
stable and deterministic), one-shot events, and generator-driven
processes.  Everything in the timing model is built from these three
primitives.  An event is one kind of entry (``fn`` fires it); a keyed
call (:meth:`Simulator.call_at`) is the other, for hand-offs that need a
place in the event order but no waiters.

Typical use::

    sim = Simulator()

    def producer(sim, link):
        for i in range(4):
            yield sim.timeout(1.0)          # compute
            yield link.transmit(64)          # send a cache line

    sim.process(producer(sim, link))
    sim.run()
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Generator
from typing import Any

__all__ = ["Simulator", "SimEvent", "Process"]


class SimEvent:
    """A one-shot event that processes can wait on.

    An event is *triggered* (scheduled to fire) by :meth:`succeed` or
    :meth:`fail`; when the simulator processes it, all registered callbacks
    run with the event as argument.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "triggered", "processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["SimEvent"], None]] = []
        self._value: Any = None
        self._ok: bool | None = None
        self.triggered = False
        self.processed = False

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (raises if pending)."""
        if self._ok is None:
            raise RuntimeError("event has not fired yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value (or exception) the event fired with."""
        if not self.processed and not self.triggered:
            raise RuntimeError("event has not fired yet")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Trigger the event successfully after ``delay`` sim-seconds."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self._ok = True
        self._value = value
        self.sim._push(delay, self)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "SimEvent":
        """Trigger the event with an exception (re-raised in waiters)."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self._ok = False
        self._value = exc
        self.sim._push(delay, self)
        return self

    def _fire(self) -> None:
        self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        if not callbacks and self._ok is False:
            # Nothing handles the failure: surface it from run()/step().
            raise self._value
        for cb in callbacks:
            cb(self)


_fire = SimEvent._fire


class Process(SimEvent):
    """Drives a generator; the process is itself an event that fires when
    the generator returns (value = its ``return`` value) or raises."""

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off at the current time.
        start = SimEvent(sim)
        start.callbacks.append(self._resume)
        start.succeed()

    def _resume(self, event: SimEvent) -> None:
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - propagate into waiters
            self.fail(exc)
            return
        if not isinstance(target, SimEvent):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected SimEvent"
            )
        if target.processed:
            # Already fired: resume immediately (same timestamp).
            wake = SimEvent(self.sim)
            wake.callbacks.append(self._resume)
            wake._ok = target._ok
            wake._value = target._value
            wake.triggered = True
            self.sim._push(0.0, wake)
            # _fire will invoke _resume with wake; copy outcome above.
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """The event loop.  Time is a float in seconds, starting at 0.

    ``tracer`` / ``metrics`` attach the :mod:`repro.obs` observability
    layer; they default to the shared null objects, so an un-profiled
    simulation pays nothing for the hooks (instrumented components test
    ``sim.tracer.enabled`` / ``sim.metrics.enabled`` before recording).
    """

    def __init__(self, tracer=None, metrics=None) -> None:
        from repro.obs import NULL_METRICS, NULL_TRACER

        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        #: Keys handed out so far (the ``seq`` of the latest entry).
        self._seq = 0
        #: ``seq`` of the entry being processed; with :attr:`now` it is
        #: the current position in the event order.
        self._cur_seq = 0
        #: Latest time :meth:`run` may still process (``-inf`` outside
        #: ``run``): components that handle several of their own due
        #: entries in one call stop there.
        self._until = -math.inf
        #: ``flush(time, seq)`` callbacks of components that apply some
        #: work lazily (see :meth:`add_deferred`).
        self._deferred: list[Callable[[float, float], None]] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

    # -- scheduling ------------------------------------------------------
    def _push(self, delay: float, event: SimEvent) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, _fire, event))

    def call_at(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` at sim time ``time``, in event order.

        The entry takes the key an event succeeding now with delay
        ``time - now`` would take, so a keyed call and the event it
        replaces fire at the same point; it has no callbacks and no
        waiters.
        """
        now = self.now
        delay = time - now
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (now + delay, self._seq, fn, arg))

    # -- keys, for components that schedule ahead ------------------------
    def alloc_keys(self, n: int) -> int:
        """Hand out ``n`` consecutive keys; return the first ``seq``.

        A component that fixes the event-order place of several future
        entries now (as if it pushed them now, in that order) but puts
        them on the heap later, one at a time, with :meth:`push_keyed`.
        """
        first = self._seq + 1
        self._seq += n
        return first

    @property
    def last_key(self) -> int:
        """The ``seq`` of the latest key handed out: an entry pushed now
        orders after every key up to this one."""
        return self._seq

    @property
    def current_key(self) -> tuple[float, int]:
        """``(time, seq)`` of the entry being processed: the current
        position in the event order."""
        return self.now, self._cur_seq

    def push_keyed(
        self, time: float, seq: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """Run ``fn(arg)`` at ``time`` under a key from :meth:`alloc_keys`."""
        if time < self.now:
            raise ValueError(f"time {time} lies before now={self.now}")
        heapq.heappush(self._heap, (time, seq, fn, arg))

    def advance_if_next(self, time: float, seq: int) -> bool:
        """Move the clock to key ``(time, seq)`` if it is the next one due.

        True when the key precedes every heap entry and lies within
        :meth:`run`'s ``until``: the clock is then at that key and the
        caller handles its entry inline instead of pushing it.  False
        otherwise (always outside :meth:`run`), and nothing changes.
        """
        heap = self._heap
        if time > self._until:
            return False
        if heap:
            head = heap[0]
            if time > head[0] or (time == head[0] and seq > head[1]):
                return False
        self.now = time
        self._cur_seq = seq
        return True

    def add_deferred(self, flush: Callable[[float, float], None]) -> None:
        """Register a component that applies some of its work lazily.

        ``flush(time, seq)`` must apply the work keyed before
        ``(time, seq)``.  :meth:`step` calls it with the key it just
        processed and :meth:`run` with ``(until, inf)`` before
        returning, so no due work stays hidden from observers.
        """
        self._deferred.append(flush)

    def event(self) -> SimEvent:
        """A fresh untriggered event."""
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> SimEvent:
        """An event that fires ``delay`` sim-seconds from now."""
        ev = SimEvent(self)
        ev.succeed(value, delay=delay)
        return ev

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process."""
        return Process(self, gen, name=name)

    def all_of(self, events: list[SimEvent]) -> SimEvent:
        """An event firing once every event in ``events`` has fired."""
        done = SimEvent(self)
        remaining = len(events)
        if remaining == 0:
            done.succeed([])
            return done
        values: list[Any] = [None] * remaining

        def on_fire(i: int):
            def cb(ev: SimEvent) -> None:
                nonlocal remaining
                if not ev._ok:
                    if not done.triggered:
                        done.fail(ev._value)
                    return
                values[i] = ev._value
                remaining -= 1
                if remaining == 0 and not done.triggered:
                    done.succeed(list(values))

            return cb

        for i, ev in enumerate(events):
            if ev.processed:
                cb = on_fire(i)
                cb(ev)
            else:
                ev.callbacks.append(on_fire(i))
        return done

    # -- execution -------------------------------------------------------
    def _fire_next(self) -> None:
        time, seq, fn, arg = heapq.heappop(self._heap)
        if time < self.now:
            raise AssertionError("time went backwards")
        self.now = time
        self._cur_seq = seq
        fn(arg)

    def step(self) -> None:
        """Process the next heap entry.

        A failed event that nothing waits on re-raises its exception
        here.
        """
        self._fire_next()
        for flush in self._deferred:
            flush(self.now, self._cur_seq)

    def run(self, until: float | None = None) -> None:
        """Run until the heap drains or virtual time passes ``until``.

        ``until`` earlier than :attr:`now` raises :class:`ValueError`:
        the clock never moves backwards past already-processed events.

        A failed event that nothing waits on when it is processed (a
        crashed process nobody has joined yet) re-raises its exception
        from here, as in SimPy.  A waiter must be attached before the
        failure fires to receive it instead: a process that joins a child
        only after the child failed sees ``run()`` raise at the failure.
        Joining it later, after that raise, still throws the exception
        into the joiner.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} lies before now={self.now}")
        limit = math.inf if until is None else until
        heap = self._heap
        fire_next = self._fire_next
        self._until = limit
        try:
            while heap and heap[0][0] <= limit:
                fire_next()
        finally:
            self._until = -math.inf
        for flush in self._deferred:
            flush(limit, math.inf)
        if until is not None:
            self.now = until
