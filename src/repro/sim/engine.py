"""Process-oriented discrete-event simulation core.

The engine is deliberately small: an event heap ordered by ``(time, seq)``
(sequence numbers make scheduling stable and deterministic), one-shot
events, and generator-driven processes.  Everything in the timing model is
built from these three primitives.

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
from collections.abc import Callable, Generator
from typing import Any

__all__ = ["Simulator", "SimEvent", "Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


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
        for cb in callbacks:
            cb(self)


class Process(SimEvent):
    """Drives a generator; the process is itself an event that fires when
    the generator returns (value = its ``return`` value) or raises."""

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: SimEvent | None = None
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off at the current time.
        start = SimEvent(sim)
        start.callbacks.append(self._resume)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        """Whether the process generator is still running."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        target = self._waiting_on
        if target is not None and self in [  # detach from waited event
            getattr(cb, "__self__", None) for cb in target.callbacks
        ]:
            target.callbacks = [
                cb for cb in target.callbacks if getattr(cb, "__self__", None) is not self
            ]
        wake = SimEvent(self.sim)
        wake.callbacks.append(lambda ev: self._step(Interrupt(cause), throw=True))
        wake.succeed()

    def _resume(self, event: SimEvent) -> None:
        self._waiting_on = None
        if event._ok:
            self._step(event._value, throw=False)
        else:
            self._step(event._value, throw=True)

    def _step(self, value: Any, *, throw: bool) -> None:
        if self.triggered:
            return
        try:
            if throw:
                exc = value if isinstance(value, BaseException) else Interrupt(value)
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - propagate into waiters
            self._ok = False
            if not self.triggered:
                self.fail(exc)
            return
        if not isinstance(target, SimEvent):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected SimEvent"
            )
        self._waiting_on = target
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
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._seq = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

    # -- scheduling ------------------------------------------------------
    def _push(self, delay: float, event: SimEvent) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))

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

    def any_of(self, events: list[SimEvent]) -> SimEvent:
        """An event firing as soon as any one of ``events`` fires."""
        done = SimEvent(self)

        def cb(ev: SimEvent) -> None:
            if done.triggered:
                return
            if ev._ok:
                done.succeed(ev._value)
            else:
                done.fail(ev._value)

        for ev in events:
            if ev.processed:
                cb(ev)
            else:
                ev.callbacks.append(cb)
        if not events:
            done.succeed(None)
        return done

    # -- execution -------------------------------------------------------
    def step(self) -> None:
        """Process the next event."""
        time, _, event = heapq.heappop(self._heap)
        if time < self.now:
            raise AssertionError("time went backwards")
        self.now = time
        event._fire()

    def run(self, until: float | None = None) -> None:
        """Run until the heap drains or virtual time passes ``until``.

        ``until`` earlier than :attr:`now` raises :class:`ValueError`:
        the clock never moves backwards past already-processed events.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} lies before now={self.now}")
        heap = self._heap
        while heap:
            time = heap[0][0]
            if until is not None and time > until:
                self.now = until
                return
            self.step()
        if until is not None:
            self.now = until

    def peek(self) -> float:
        """Timestamp of the next scheduled event (``inf`` if none)."""
        return self._heap[0][0] if self._heap else float("inf")
