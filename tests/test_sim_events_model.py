"""Randomized differential tests: the event heap and the event loop vs.
naive models.

Two layers are held to obviously correct structures, in lockstep under
seeded random schedules:

* :class:`EventHeap` (tuple keys, lazy cancellation, the combined
  ``pop_next`` scan, the ``pop_batch`` drain) against a list of events
  kept sorted by ``(time, priority, seq)`` with cancelled entries skipped
  on pop.  Any divergence in returned events, batch contents, reported
  sizes or peeked times fails.
* :meth:`Simulator.run` — the loop production actually runs, which
  drains the heap's entry list inline — against a one-event-at-a-time
  dispatcher over the same sorted list.  Actions push zero-delay and
  later events at mixed priorities and cancel pending ones; the test
  interleaves outside pushes and cancels with bounded runs
  (``until`` / ``max_events``).  After every call the dispatch order,
  the clock, ``pending()`` and ``events_executed`` must agree.

Every heap schedule comes in two tie regimes: spread (times drawn from
a wide window) and heavy ties (times drawn from a handful of values, so
long same-timestamp runs and batch splitting are constantly exercised).
Each regime runs in three time shapes: a short window, periodic timers
on a fixed grid, and a long-tailed far-future spread.

This guards the two historical bug classes in this structure: phantom
live-counts from lazy cancellation (a cancelled head beyond the bound
must still be discarded and uncounted) and double-discard drift between
``peek_time`` and ``pop``.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.sim import Simulator
from repro.sim.events import Event, EventHeap, SchedulingError


class ReferenceHeap:
    """The trivially correct model: a sorted list, linear everything.

    Mirrors the heap's *lazy* cancellation contract: cancelled events
    stay counted until a pop/peek scan reaches them at the front, which
    is exactly when the heap discards them (keys are unique, so the
    heap's pop order equals this list's sorted order)."""

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def push(self, time: int, priority: int = 0, label: str = "") -> Event:
        event = Event(time, priority, self._seq, action=lambda: None,
                      label=label)
        self._seq += 1
        self._events.append(event)
        self._events.sort(key=lambda e: (e.time, e.priority, e.seq))
        return event

    def pop(self) -> Optional[Event]:
        while self._events:
            event = self._events.pop(0)
            if not event.cancelled:
                return event
        return None

    def pop_next(self, until: Optional[int] = None) -> Optional[Event]:
        while self._events:
            event = self._events[0]
            if event.cancelled:
                self._events.pop(0)
                continue
            if until is not None and event.time > until:
                return None
            return self._events.pop(0)
        return None

    def pop_batch(self, until: Optional[int] = None,
                  limit: Optional[int] = None) -> List[Event]:
        batch: List[Event] = []
        events = self._events
        while events:
            event = events[0]
            if event.cancelled:
                events.pop(0)
                continue
            if until is not None and event.time > until:
                return batch
            break
        if not events:
            return batch
        run_time = events[0].time
        while events and events[0].time == run_time:
            if limit is not None and len(batch) >= limit:
                break
            event = events.pop(0)
            if event.cancelled:
                continue
            batch.append(event)
        return batch

    def peek_time(self) -> Optional[int]:
        while self._events and self._events[0].cancelled:
            self._events.pop(0)
        if not self._events:
            return None
        return self._events[0].time


def key(event: Optional[Event]) -> Optional[Tuple[int, int, int]]:
    if event is None:
        return None
    return (event.time, event.priority, event.seq)


#: Time shapes for :func:`_drive`, each with the span that bounded pops
#: reach past the clock.  ``window``: everything within 50 ticks.
#: ``periodic``: timers on a 10-tick grid, the case a calendar queue is
#: built for.  ``long-tail``: mostly near events plus a far-future tail,
#: the case a ladder queue is built for.  The test ids keep the names of
#: the ``calendar`` and ``ladder`` queues these shapes were once run
#: through; both queues are gone (docs/performance.md, "Measured and
#: removed"), and the shapes now run against the heap.
SHAPES: List[Tuple[str, str, int]] = [
    ("window", "heap", 40),
    ("periodic", "calendar", 40),
    ("long-tail", "ladder", 400),
]
GRID = 10


def _drive(queue: EventHeap, seed: int, tie_heavy: bool,
           shape: str = "window") -> None:
    rng = random.Random(seed)
    model = ReferenceHeap()
    live_pairs: List[Tuple[Event, Event]] = []  # (queue event, model event)
    clock = 0
    until_span = {name: span for name, _, span in SHAPES}[shape]

    def push_time() -> int:
        if shape == "periodic":
            # The next grid point at or after the clock, plus whole periods.
            periods = (rng.choice((0, 0, 0, 1, 1, 3)) if tie_heavy
                       else rng.randrange(0, 6))
            return -(-clock // GRID) * GRID + periods * GRID
        if shape == "long-tail":
            if tie_heavy:
                return clock + rng.choice((0, 0, 0, 1, 1, 500, 500, 2000))
            if rng.random() < 0.2:
                return clock + rng.randrange(500, 5000)
            return clock + int(rng.expovariate(1 / 20))
        if tie_heavy:
            # A handful of hot timestamps: long same-time runs are the norm.
            return clock + rng.choice((0, 0, 0, 1, 1, 7, 7, 7, 30))
        return clock + rng.randrange(0, 50)

    for _ in range(600):
        op = rng.random()
        if op < 0.40:
            time = push_time()
            priority = rng.choice((0, 0, 0, 1, 5, -3))
            actual = queue.push(time, lambda: None, priority=priority)
            expected = model.push(time, priority=priority)
            assert key(actual) == key(expected)
            live_pairs.append((actual, expected))
        elif op < 0.52 and live_pairs:
            actual, expected = live_pairs.pop(
                rng.randrange(len(live_pairs)))
            actual.cancel()
            expected.cancel()
        elif op < 0.62:
            assert queue.peek_time() == model.peek_time()
        elif op < 0.74:
            until = (None if rng.random() < 0.3
                     else clock + rng.randrange(0, until_span))
            actual = queue.pop_next(until)
            expected = model.pop_next(until)
            assert key(actual) == key(expected)
            if actual is not None:
                clock = max(clock, actual.time)
        elif op < 0.90:
            until = (None if rng.random() < 0.3
                     else clock + rng.randrange(0, until_span))
            limit = None if rng.random() < 0.5 else rng.randrange(1, 4)
            actual_batch = queue.pop_batch(until, limit=limit)
            expected_batch = model.pop_batch(until, limit=limit)
            assert ([key(e) for e in actual_batch]
                    == [key(e) for e in expected_batch])
            if actual_batch:
                clock = max(clock, actual_batch[-1].time)
        else:
            actual = queue.pop()
            expected = model.pop()
            assert key(actual) == key(expected)
            if actual is not None:
                clock = max(clock, actual.time)
        assert len(queue) == len(model)

    # Drain both completely; the full remaining order must agree.
    while True:
        actual = queue.pop_next()
        expected = model.pop_next()
        assert key(actual) == key(expected)
        if actual is None:
            break
    assert len(queue) == len(model) == 0


_SHAPE_PARAMS = [pytest.param(name, id=test_id)
                 for name, test_id, _ in SHAPES]


@pytest.mark.parametrize("shape", _SHAPE_PARAMS)
@pytest.mark.parametrize("seed", range(8))
def test_backend_matches_reference_model(shape: str, seed: int) -> None:
    _drive(EventHeap(), seed, tie_heavy=False, shape=shape)


@pytest.mark.parametrize("shape", _SHAPE_PARAMS)
@pytest.mark.parametrize("seed", range(8))
def test_backend_matches_reference_under_heavy_ties(shape: str,
                                                    seed: int) -> None:
    _drive(EventHeap(), seed, tie_heavy=True, shape=shape)


def test_push_rejects_negative_time() -> None:
    with pytest.raises(SchedulingError):
        EventHeap().push(-1, lambda: None)


def test_cancelled_run_is_all_lazy_discard() -> None:
    """Cancelling every event must drain to empty without phantom counts."""
    queue = EventHeap()
    events = [queue.push(t, lambda: None) for t in range(20)]
    for event in events:
        event.cancel()
    # Cancellation is lazy: entries stay counted until a scan reaches them.
    assert len(queue) == 20
    assert queue.peek_time() is None  # the scan discards every entry
    assert len(queue) == 0
    assert queue.pop_next() is None
    assert queue.pop() is None


# ----------------------------------------------------------------------
# Simulator.run against a one-event-at-a-time dispatcher
# ----------------------------------------------------------------------

#: What one event does when it fires: children to schedule as
#: ``(delay, priority)`` pairs, then optionally cancel the ``k``-th
#: (mod count) still-pending event.  Derived from (seed, event id) only,
#: so both worlds replay identical scripts.
Script = Tuple[List[Tuple[int, int]], Optional[int]]


def _script(seed: int, event_id: int) -> Script:
    rng = random.Random(seed * 1_000_003 + event_id)
    children = [(rng.choice((0, 0, 0, 1, 3, 10)), rng.choice((0, 0, 1, -2)))
                for _ in range(2) if rng.random() < 0.3]
    cancel = rng.randrange(1 << 16) if rng.random() < 0.2 else None
    return children, cancel


class _World:
    """Scheduling bookkeeping shared by the real loop and the model:
    event ids, the fire log and the pending set the scripts cancel
    from."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fired: List[int] = []
        self.pending: Dict[int, object] = {}   # id -> cancel handle
        self._next_id = 0

    def _new_id(self) -> int:
        event_id = self._next_id
        self._next_id += 1
        return event_id

    def fire(self, event_id: int) -> None:
        self.fired.append(event_id)
        del self.pending[event_id]
        children, cancel = _script(self.seed, event_id)
        for delay, priority in children:
            self.push(delay, priority)
        if cancel is not None:
            self.cancel(cancel)

    def cancel(self, k: int) -> None:
        if self.pending:
            ids = sorted(self.pending)
            self.pending.pop(ids[k % len(ids)]).cancel()

    def push(self, delay: int, priority: int) -> None:
        raise NotImplementedError


class _SimWorld(_World):
    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sim = Simulator()

    def push(self, delay: int, priority: int) -> None:
        event_id = self._new_id()
        action = functools.partial(self.fire, event_id)
        if delay == 0 and event_id % 2:
            # Both zero-delay entry points: call_at(now) and call_after(0).
            event = self.sim.call_at(self.sim.now, action,
                                     priority=priority)
        else:
            event = self.sim.call_after(delay, action, priority=priority)
        self.pending[event_id] = event


class _Cancellable:
    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _ModelWorld(_World):
    """Sorted list of ``(time, priority, seq, id, handle)``; dispatch pops
    one event at a time, discarding cancelled heads lazily."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.now = 0
        self.executed = 0
        self.entries: List[Tuple[int, int, int, int, _Cancellable]] = []

    def push(self, delay: int, priority: int) -> None:
        event_id = self._new_id()
        handle = _Cancellable()
        self.entries.append((self.now + delay, priority, event_id,
                             event_id, handle))
        self.entries.sort(key=lambda entry: entry[:3])
        self.pending[event_id] = handle

    def run(self, until: Optional[int], max_events: Optional[int]) -> int:
        budget = max_events if max_events is not None else 1 << 62
        done = 0
        while done < budget:
            while self.entries and self.entries[0][4].cancelled:
                self.entries.pop(0)
            if not self.entries:
                break
            time, _, _, event_id, _ = self.entries[0]
            if until is not None and time > until:
                break
            self.entries.pop(0)
            self.now = time
            done += 1
            self.executed += 1
            self.fire(event_id)
        if until is not None and self.now < until:
            self.now = until
        return self.now


def _check(real: _SimWorld, model: _ModelWorld) -> None:
    assert real.fired == model.fired
    assert real.sim.now == model.now
    assert real.sim.pending() == len(model.entries)
    assert real.sim.events_executed == model.executed


@pytest.mark.parametrize("seed", range(12))
def test_run_matches_one_at_a_time_dispatch(seed: int) -> None:
    rng = random.Random(seed)
    real, model = _SimWorld(seed), _ModelWorld(seed)
    for _ in range(150):
        op = rng.random()
        if op < 0.45:
            delay = rng.choice((0, 0, 1, 2, 5, 20, 60))
            priority = rng.choice((0, 0, 1, -1, 4))
            real.push(delay, priority)
            model.push(delay, priority)
        elif op < 0.60:
            k = rng.randrange(1 << 16)
            real.cancel(k)
            model.cancel(k)
        elif op < 0.70 and model.pending:
            # Cancel the latest pending event, then run to just before
            # it: the cancelled head beyond ``until`` must be discarded
            # and stop counting as pending.
            horizon, _, _, last, _ = next(
                entry for entry in reversed(model.entries)
                if entry[3] in model.pending)
            real.pending.pop(last).cancel()
            model.pending.pop(last).cancel()
            until = max(model.now, horizon - 1)
            assert real.sim.run(until=until) == model.run(until, None)
        else:
            until = (None if rng.random() < 0.3
                     else model.now + rng.randrange(0, 30))
            max_events = (None if rng.random() < 0.5
                          else rng.randrange(0, 6))
            assert (real.sim.run(until=until, max_events=max_events)
                    == model.run(until, max_events))
        _check(real, model)
    assert real.sim.run() == model.run(None, None)
    _check(real, model)
    assert real.sim.pending() == 0
