"""Simulation resources: bounded FIFO stores and serial links.

``SerialLink`` is the workhorse: CXL/PCIe are serial buses, so cache lines
"go through the link one after another in a stream manner" (Section VIII-A).
A transfer request occupies the link for ``size / bandwidth`` seconds after
the preceding request completes; the completion event additionally waits for
the propagation latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import SimEvent, Simulator
from repro.utils.units import Bandwidth

__all__ = ["Store", "SerialLink"]


class Store:
    """Bounded FIFO channel of items (producer/consumer coupling).

    Models structures like the CXL root port's 128-entry pending queue:
    producers block (their ``put`` event stays pending) while the queue is
    full, which is how queue back-pressure reaches the CPU pipeline.
    """

    def __init__(
        self, sim: Simulator, capacity: int | None = None, name: str = "store"
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._getters: deque[SimEvent] = deque()
        self._putters: deque[tuple[SimEvent, Any]] = deque()

    def _sample_depth(self) -> None:
        mx = self.sim.metrics
        if mx.enabled:
            mx.sample(f"{self.name}.depth", self.sim.now, len(self.items))

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        """Whether the channel is at capacity."""
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> SimEvent:
        """Offer an item; the event fires on acceptance."""
        ev = self.sim.event()
        if self._getters:
            # Hand directly to a waiting consumer.
            self._getters.popleft().succeed(item)
            ev.succeed(None)
        elif not self.is_full:
            self.items.append(item)
            ev.succeed(None)
            self._sample_depth()
        else:
            self._putters.append((ev, item))
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    self.sim.now, "put-blocked", "queue", track=self.name
                )
        return ev

    def get(self) -> SimEvent:
        """Take an item; the event fires with it when available."""
        ev = self.sim.event()
        if self.items:
            ev.succeed(self.items.popleft())
            if self._putters:
                put_ev, item = self._putters.popleft()
                self.items.append(item)
                put_ev.succeed(None)
            self._sample_depth()
        else:
            self._getters.append(ev)
        return ev


class SerialLink:
    """A serialized transmission medium with bandwidth and latency.

    Transfers are granted link occupancy in request order; a transfer of
    ``n`` bytes holds the wire for ``n / bandwidth`` and its completion
    event fires ``latency`` later (cut-through, not store-and-forward:
    latency does not occupy the wire).

    Attributes
    ----------
    busy_time
        Total wire-occupancy seconds (for utilization accounting).
    bytes_sent
        Total payload bytes transferred.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: Bandwidth,
        latency: float = 0.0,
        name: str = "link",
    ):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self._wire_free_at = 0.0
        self.busy_time = 0.0
        self.bytes_sent = 0
        self.transfers = 0

    def transmit(self, n_bytes: float, extra_delay: float = 0.0) -> SimEvent:
        """Schedule a transfer; returns the delivery-complete event.

        ``extra_delay`` models per-transfer processing (e.g. the 1 ns
        Aggregator latency) added before the payload reaches the wire.
        """
        ev = SimEvent(self.sim)
        ev.succeed(
            n_bytes, delay=self.reserve(n_bytes, extra_delay) - self.sim.now
        )
        return ev

    def reserve(
        self, n_bytes: float, extra_delay: float = 0.0, at: float | None = None
    ) -> float:
        """Book the wire for a transfer; return its delivery time.

        All of a transfer's accounting (wire occupancy, ``busy_time``,
        ``bytes_sent``, ``transfers``, the ``xfer`` span and the metrics),
        with no event: :meth:`transmit` wraps it in one, and callers that
        hand the delivery time to :meth:`Simulator.call_at` or fold it
        into their own schedule use it directly.  ``at`` books as if called at that sim time
        instead of now — for a component that computes, in order, the
        bookings its own stage-exit events would have made.
        """
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        sim = self.sim
        now = sim.now if at is None else at
        start = now + extra_delay
        free = self._wire_free_at
        if free > start:
            start = free
        duration = self.bandwidth.time_for(n_bytes)
        self._wire_free_at = end = start + duration
        self.busy_time += duration
        self.bytes_sent += n_bytes
        self.transfers += 1
        if sim.tracer.enabled or sim.metrics.enabled:
            self._observe(now, start, end, self.busy_time, n_bytes)
        return end + self.latency

    def reserve_train(
        self, n_bytes: float, count: int, extra_delay: float = 0.0
    ) -> list[float]:
        """Book ``count`` transfers of ``n_bytes`` back to back, now;
        return their delivery times.

        The same bookings, in the same order and with the same float
        operations, as ``count`` :meth:`reserve` calls of which only the
        first carries ``extra_delay`` — without a call per transfer.
        """
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        sim = self.sim
        now = sim.now
        observe = sim.tracer.enabled or sim.metrics.enabled
        duration = self.bandwidth.time_for(n_bytes)
        latency = self.latency
        free, busy, sent = self._wire_free_at, self.busy_time, self.bytes_sent
        done = []
        ready = now + extra_delay
        for _ in range(count):
            start = free if free > ready else ready
            free = start + duration
            busy += duration
            sent += n_bytes
            if observe:
                self._observe(now, start, free, busy, n_bytes)
            done.append(free + latency)
            ready = now
        self._wire_free_at, self.busy_time, self.bytes_sent = free, busy, sent
        self.transfers += count
        return done

    def _observe(
        self, now: float, start: float, end: float, busy: float, n_bytes: float
    ) -> None:
        """Trace and count one booking made at ``now`` (wire ``start``
        to ``end``, cumulative ``busy`` seconds after it)."""
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.add_span(
                start, end, "xfer", "link", track=self.name, bytes=n_bytes
            )
        metrics = self.sim.metrics
        if metrics.enabled:
            metrics.counter(f"{self.name}.bytes").inc(n_bytes)
            metrics.counter(f"{self.name}.transfers").inc()
            if end > 0:
                # Honest cumulative occupancy up to the wire-busy horizon:
                # by construction <= 1; a larger value is an accounting bug.
                metrics.sample(f"{self.name}.utilization", now, busy / end)

    @property
    def free_at(self) -> float:
        """Virtual time at which the wire next becomes idle."""
        return self._wire_free_at

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` during which the wire was occupied.

        Returns the *true* ratio.  A value above 1.0 means busy time was
        over-accounted somewhere — earlier versions clamped with
        ``min(1.0, ...)``, which silently masked exactly that class of
        bug; callers and tests should assert ``<= 1`` instead.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return self.busy_time / horizon
