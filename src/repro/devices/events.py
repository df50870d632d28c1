"""A small discrete-event simulation kernel for fleet-level experiments.

Fleet experiments (deployment roll-outs, federated rounds, telemetry sync)
need a notion of simulated time without real sleeping.  The
:class:`EventQueue` is a classic priority-queue DES kernel: events carry a
timestamp and a callback, callbacks may schedule further events, and the
simulation runs until the queue drains or a time horizon is reached.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

__all__ = ["Event", "EventQueue"]


@dataclass(order=True)
class Event:
    """A scheduled event.  Ordering is by time, then insertion order."""

    time: float
    order: int
    name: str = field(compare=False)
    callback: Callable[["EventQueue"], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventQueue:
    """Priority-queue based discrete-event simulator.

    Example
    -------
    >>> sim = EventQueue()
    >>> fired = []
    >>> sim.schedule(2.0, "b", lambda s: fired.append("b"))
    >>> sim.schedule(1.0, "a", lambda s: fired.append("a"))
    >>> sim.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self.processed = 0

    # -- scheduling -------------------------------------------------------
    def schedule(self, time: float, name: str, callback: Callable[["EventQueue"], None]) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule event at {time} before current time {self.now}")
        event = Event(time=float(time), order=next(self._counter), name=name, callback=callback)
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay: float, name: str, callback: Callable[["EventQueue"], None]) -> Event:
        """Schedule ``callback`` after a relative ``delay``."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay, name, callback)

    def cancel(self, event: Event) -> None:
        """Mark an event as cancelled; it will be skipped when popped."""
        event.cancelled = True

    # -- execution ----------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Process the next pending event; return it (or None if empty)."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            event.callback(self)
            self.processed += 1
            return event
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or event budget spent.

        Returns the number of events processed by this call.
        """
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                break
            nxt = self._heap[0]
            if until is not None and nxt.time > until:
                self.now = until
                break
            if self.step() is not None:
                processed += 1
        if until is not None and not self._heap and self.now < until:
            self.now = until
        return processed

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)
