"""Deterministic discrete-event kernel with cooperative activities.

Activities are plain generators.  They suspend by yielding their delay,
an ``int`` count of picoseconds, and resume that much simulated time later
(SystemC's ``wait(t)``); anything else raises ``TypeError``.

Events fire in (time, insertion order); equal-time events are strictly
FIFO, so a run's dispatch sequence is a pure function of the initial
schedule.  There is no zero-time re-evaluation loop; components talk
through transport calls, not signals.  Activities must not share mutable
state except across these suspension points.

A configurable event-count limit turns a runaway model (an activity that
keeps rescheduling itself forever) into a diagnosable E-EVENT-LIMIT error.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator

from .simtime import U64_MAX, check_time, time_add

DEFAULT_EVENT_LIMIT = 10_000_000

Activity = Generator[Any, Any, Any]


class SimulationError(RuntimeError):
    """Runtime failure inside a simulation, tagged with a stable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class Scheduler:
    """Single-threaded event queue ordered by (time, insertion sequence)."""

    def __init__(self, event_limit: int = DEFAULT_EVENT_LIMIT):
        self.now = 0  # the time of the event being dispatched, or of the last one
        self._queue: list[tuple[int, int, Activity]] = []
        self._seq = 0
        self._dispatched = 0
        self.event_limit = event_limit

    @property
    def dispatched(self) -> int:
        """Events dispatched so far; a larger quantum dispatches fewer for the same run."""
        return self._dispatched

    def schedule(self, activity: Activity, delay: int = 0) -> None:
        """Queue an activity to resume after ``delay``: a fresh one, or one that yielded it."""
        if type(delay) is not int or delay < 0 or (at := self.now + delay) > U64_MAX:
            at = time_add(self.now, check_time(delay))  # check_time and time_add raise any refusal
        heapq.heappush(self._queue, (at, self._seq, activity))
        self._seq += 1

    def run(self) -> int:
        """Dispatch until the queue drains; returns the final simulated time."""
        while self._queue:
            at, _seq, activity = heapq.heappop(self._queue)
            self._dispatched += 1
            if self._dispatched > self.event_limit:
                raise SimulationError(
                    "E-EVENT-LIMIT",
                    f"exceeded {self.event_limit} dispatched events at {at} ps; "
                    "the model is likely non-terminating",
                )
            self.now = at
            try:
                delay = next(activity)
            except StopIteration:
                continue
            self.schedule(activity, delay)
        return self.now


class QuantumKeeper:
    """Temporal-decoupling ledger: how far an activity has run ahead of the kernel.

    The activity accrues local time with :meth:`advance`, asks
    :meth:`need_sync` whether its offset reached the global quantum, and
    gives the time back to the kernel with ``yield from keeper.sync()``.
    A zero quantum means "synchronize at every opportunity".
    """

    def __init__(self, global_quantum: int = 0):
        self.global_quantum = check_time(global_quantum)
        self.local_offset = 0

    def advance(self, t: int) -> None:
        if type(t) is not int or t < 0 or (total := self.local_offset + t) > U64_MAX:
            total = time_add(self.local_offset, check_time(t))  # as in Scheduler.schedule
        self.local_offset = total

    def need_sync(self) -> bool:
        return self.local_offset >= self.global_quantum

    def sync(self) -> Activity:
        """Suspend the caller for the accrued offset, then reset it to zero."""
        yield self.local_offset
        self.local_offset = 0
