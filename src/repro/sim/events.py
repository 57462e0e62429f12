"""Event primitives for the discrete-event simulator.

The simulator is the substrate everything else in :mod:`repro` runs on: the
intercluster bus, the per-cluster kernels, processors, disks, and failure
injection are all expressed as events on a single global heap.

Determinism is a hard requirement of the reproduction (paper section 4: if
two processes start in the identical state and receive identical input they
behave identically).  Two design rules enforce it here:

* Events are totally ordered by ``(time, priority, seq)`` where ``seq`` is a
  monotonically increasing insertion counter.  Ties in virtual time are
  therefore broken deterministically by scheduling order, never by object
  identity or hash order.
* Virtual time is an integer number of *ticks* (we interpret one tick as a
  microsecond throughout), so there is no floating-point drift.

Performance: the heap stores plain ``(time, priority, seq, event)`` tuples
so every sift comparison is a C-level tuple compare — ``seq`` is unique,
so two entries never tie and the :class:`Event` objects themselves are
never compared during heap maintenance.  ``Event`` uses ``__slots__`` and
a hand-written ``__init__``; at millions of events per run the dataclass
machinery it replaced was a measurable fraction of total wall-clock
(see ``docs/performance.md``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class SchedulingError(SimulationError):
    """Raised for invalid scheduling requests (negative delay, dead event)."""


class Event:
    """A scheduled callback.

    Events order by ``(time, priority, seq)``; the callback itself is
    excluded from comparison.  Lower ``priority`` fires first among events
    scheduled for the same tick.
    """

    __slots__ = ("time", "priority", "seq", "action", "label", "cancelled")

    def __init__(self, time: int, priority: int, seq: int,
                 action: Callable[[], None], label: str = "",
                 cancelled: bool = False) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the event loop skips it when popped."""
        self.cancelled = True

    # Events rarely meet a comparison in the fast path (the heap compares
    # key tuples), but the ordering contract remains part of the API.

    def _key(self) -> Tuple[int, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Event") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Event") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Event") -> bool:
        return self._key() >= other._key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time}, prio={self.priority}, "
                f"seq={self.seq}, label={self.label!r}{state})")


#: One heap entry: the comparison key inline, then the event handle and
#: the bare callback.  ``seq`` is unique, so the trailing elements never
#: meet a comparison; carrying the action in the entry saves the
#: per-dispatch attribute load on the event loop's hot path.
_Entry = Tuple[int, int, int, Event, Callable[[], None]]


class EventHeap:
    """A deterministic min-heap of :class:`Event` objects.

    This is the simulator's only event queue.  :meth:`Simulator.run
    <repro.sim.loop.Simulator.run>` drains its entry list directly; the
    methods below pop in the same ``(time, priority, seq)`` order, with
    the same lazy-discard accounting, one call at a time
    (:meth:`pop_batch` takes one run of same-timestamp events per call).
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: int, action: Callable[[], None], priority: int = 0,
             label: str = "") -> Event:
        """Schedule ``action`` at absolute virtual ``time`` and return the event."""
        if time < 0:
            raise SchedulingError(f"event time must be >= 0, got {time}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        event = Event(time, priority, seq, action, label)
        heappush(self._heap, (time, priority, seq, event, action))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty.

        Cancelled events are discarded lazily here rather than eagerly
        removed from the heap, keeping :meth:`Event.cancel` O(1).
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            self._live -= 1
            if event.cancelled:
                continue
            return event
        return None

    def pop_next(self, until: Optional[int] = None) -> Optional[Event]:
        """Remove and return the next live event at ``time <= until``.

        The combined peek-and-pop the event loop runs: one lazy-discard
        pass serves both the bound check and the pop, where the old
        ``peek_time()``-then-``pop()`` pairing scanned cancelled heads
        twice per iteration.  An event beyond ``until`` stays in the heap
        and ``None`` is returned.  Discarded cancelled events decrement
        the live count exactly as :meth:`pop` does.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3].cancelled:
                heappop(heap)
                self._live -= 1
                continue
            if until is not None and head[0] > until:
                return None
            heappop(heap)
            self._live -= 1
            return head[3]
        return None

    def pop_batch(self, until: Optional[int] = None,
                  limit: Optional[int] = None) -> List[Event]:
        """Remove and return one run of live events sharing a timestamp.

        The batch starts at the next live head within the (inclusive)
        ``until`` bound and extends through every live event at that same
        timestamp, ordered by ``(priority, seq)`` — exactly the order
        repeated :meth:`pop_next` calls would produce.  A batch never
        mixes timestamps and never crosses ``until``; ``limit`` caps the
        batch length, leaving the rest of the run for the next call.

        Cancelled entries encountered during the drain are discarded with
        the same live-count accounting as :meth:`pop_next`, including a
        cancelled head beyond the bound (the phantom-pending rule).
        Returns ``[]`` when nothing is due.
        """
        heap = self._heap
        batch: List[Event] = []
        while heap:
            head = heap[0]
            if head[3].cancelled:
                heappop(heap)
                self._live -= 1
                continue
            if until is not None and head[0] > until:
                return batch
            break
        if not heap:
            return batch
        run_time = heap[0][0]
        while heap and heap[0][0] == run_time:
            if limit is not None and len(batch) >= limit:
                break
            event = heappop(heap)[3]
            self._live -= 1
            if event.cancelled:
                continue
            batch.append(event)
        return batch

    def peek_time(self) -> Optional[int]:
        """Return the virtual time of the next live event without popping it.

        Cancelled events discarded here must decrement the unpopped count
        exactly as :meth:`pop` does — otherwise ``len(heap)`` reports
        phantom events after a peek past a cancelled head, and callers
        like ``Simulator.run_until_idle`` see a non-zero ``pending()``
        with nothing left to run.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._live -= 1
        if not heap:
            return None
        return heap[0][0]
