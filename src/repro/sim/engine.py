"""The event-heap scheduler at the heart of the simulation kernel."""

from __future__ import annotations

import heapq
from typing import Any, Iterable, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

#: Heap priority for "urgent" entries (interrupts) vs normal entries.
URGENT = 0
NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at a target event."""

    def __init__(self, value: Any):
        super().__init__(value)
        self.value = value


class EmptySchedule(Exception):
    """The event queue is empty; nothing more can happen."""


class Environment:
    """Simulation environment: clock, event heap, process factory.

    Time units are abstract; the reproduction uses **minutes** throughout
    (the paper's median session time is 60 minutes).

    Determinism: events scheduled for the same time are processed in
    (priority, insertion) order, so a run is a pure function of the model
    and its RNG seeds.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between events)."""
        return self._active_process

    # -- scheduling -----------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put a triggered event on the heap ``delay`` units from now."""
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event (advance the clock to it)."""
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event.defused:
            # An event failed and nobody was waiting: surface the error.
            raise event._value

    # -- factories ------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` units from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from a generator function call."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- driving --------------------------------------------------------
    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        - ``None`` — run until the event queue drains;
        - a number — run until the clock reaches that time;
        - an :class:`Event` — run until that event is processed, returning
          its value (raising its exception if it failed).
        """
        stop: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop = until
            if stop.processed:
                return stop.value
            if stop.callbacks is not None:
                stop.callbacks.append(self._stop_cb)
        else:
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} is in the past (now={self._now})")
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks.append(self._stop_cb)
            self.schedule(stop, priority=URGENT, delay=at - self._now)
        try:
            while True:
                self.step()
        except StopSimulation as exc:
            return exc.value
        except EmptySchedule:
            if stop is not None and not stop.triggered and isinstance(until, Event):
                raise RuntimeError(
                    "queue drained before the awaited event triggered"
                ) from None
            return None

    @staticmethod
    def _stop_cb(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        event.defused = True
        raise event._value
