"""Discrete-event simulation engine.

A minimal, fast, deterministic event loop. The common (non-cancellable)
case stores events as plain ``(time, seq, callback, args)`` tuples so heap
sift comparisons run as C tuple comparisons instead of Python ``__lt__``
calls; cancellable events carry an :class:`EventHandle` in a ``(time, seq,
None, handle)`` entry. Ties in time break by insertion order (``seq`` is
unique), so runs are exactly reproducible and comparisons never reach the
callback slot.

The engine knows nothing about clusters or requests; higher layers
(:mod:`repro.sim.service`, :mod:`repro.sim.network`, :mod:`repro.sim.runner`)
schedule callbacks on it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from ..devtools.invariants import check_event_monotonic

__all__ = ["EventHandle", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid scheduling (negative delay, time travel, ...)."""


class EventHandle:
    """Handle to a cancellable scheduled event.

    Cancellation is lazy: the heap entry stays in place but is skipped when
    popped. This is the standard O(1)-cancel pattern for heap schedulers.
    Only :meth:`Simulator.schedule_cancellable` /
    :meth:`Simulator.schedule_at_cancellable` allocate handles; the common
    fire-and-forget path stays handle-free.
    """

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable[..., None],
                 args: tuple[Any, ...]) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"EventHandle(t={self.time:.6f}, {name}, {state})"


def _entry_cancelled(entry: tuple) -> bool:
    """True when a heap entry is a cancelled cancellable event."""
    return entry[2] is None and entry[3].cancelled


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> seen = []
    >>> sim.schedule(1.5, seen.append, "a")
    >>> sim.schedule(0.5, seen.append, "b")
    >>> sim.run()
    >>> seen
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: entries: (time, seq, callback, args) or (time, seq, None, handle)
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        This is the fire-and-forget fast path: no handle is allocated and
        the event cannot be cancelled. Use :meth:`schedule_cancellable`
        when the caller may need to revoke the event.
        """
        if not delay >= 0:   # NaN fails every comparison
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        heapq.heappush(self._heap, (self._now + delay, next(self._seq),
                                    callback, args))

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}")
        heapq.heappush(self._heap, (time, next(self._seq), callback, args))

    def schedule_periodic(self, interval: float,
                          callback: Callable[..., None], until: float,
                          *args: Any) -> int:
        """Pre-schedule ``callback(*args)`` every ``interval`` seconds.

        Ticks land at ``now + k*interval`` for ``k >= 1``, strictly before
        ``until``; the number scheduled is returned. Pre-scheduling (rather
        than having the callback reschedule itself) keeps
        :meth:`run_until_idle` able to drain — a self-perpetuating event
        would never let the heap empty.
        """
        if not interval > 0:
            raise SimulationError(
                f"periodic interval must be > 0, got {interval}")
        if not until >= self._now:
            raise SimulationError(
                f"cannot schedule until t={until} before now={self._now}")
        count = 0
        time = self._now + interval
        while time < until:
            heapq.heappush(self._heap, (time, next(self._seq),
                                        callback, args))
            count += 1
            time = self._now + interval * (count + 1)
        return count

    def schedule_cancellable(self, delay: float,
                             callback: Callable[..., None],
                             *args: Any) -> EventHandle:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at_cancellable(self._now + delay, callback,
                                            *args)

    def schedule_at_cancellable(self, time: float,
                                callback: Callable[..., None],
                                *args: Any) -> EventHandle:
        """Like :meth:`schedule_at`, but returns a cancellable handle."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}")
        handle = EventHandle(time, callback, args)
        heapq.heappush(self._heap, (time, next(self._seq), None, handle))
        return handle

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Run events in time order.

        Args:
            until: stop once virtual time would exceed this. On exit the
                clock advances to ``until`` unless an event due at or
                before it is still queued (``max_events`` stopped the run
                first), so back-to-back runs compose and never go back.
            max_events: stop after executing this many events (safety valve
                for runaway feedback loops).

        Raises:
            InvariantViolation: an event due before the current time was
                popped (heap state corrupted behind the scheduler's back).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        # locals shave attribute lookups off the per-event cost; ``now``
        # mirrors ``self._now``, which only this loop writes
        heap = self._heap
        pop = heapq.heappop
        now = self._now
        try:
            while heap:
                head = heap[0]
                callback = head[2]
                if callback is None:
                    handle = head[3]
                    if handle.cancelled:
                        pop(heap)
                        continue
                    callback = handle.callback
                    args = handle.args
                else:
                    args = head[3]
                time = head[0]
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                pop(heap)
                if time < now:
                    check_event_monotonic(now, time, callback)
                self._now = now = time
                callback(*args)
                executed += 1
        finally:
            self._running = False
            self._events_processed += executed
        # a live head at or before ``until`` means max_events stopped the
        # loop (cancelled heads were popped above): the clock waits for it
        if (until is not None and now < until
                and not (heap and heap[0][0] <= until)):
            self._now = until

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        """Drain all pending events (used to let in-flight requests finish)."""
        self.run(max_events=max_events)
        if self._heap and not all(_entry_cancelled(e) for e in self._heap):
            raise SimulationError(
                f"simulation did not drain within {max_events} events")

    def __repr__(self) -> str:
        return (f"Simulator(now={self._now:.6f}, pending={len(self._heap)}, "
                f"processed={self._events_processed})")
