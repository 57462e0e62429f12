"""Boundary semantics of bounded pops, pinned before and after batching.

The ``pop_next(until=...)`` contract the event loop was built on has two
subtleties that a batch-draining refactor could silently shift:

* the bound is **inclusive** — an event at ``time == until`` pops, an
  event at ``time == until + 1`` stays and ``None`` is returned;
* cancelled heads encountered during the scan are lazily discarded and
  decrement the live count **even when they lie beyond the bound** —
  the phantom-pending accounting fixed in PR 1.

These tests pin both behaviours explicitly, then hold ``pop_batch`` (the
one-timestamp drain ``Simulator.run`` inlines) to the same boundary: a
batch never crosses ``until``, never mixes timestamps, and its
lazy-discard accounting matches the single-event scan exactly.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.sim.events import Event, EventHeap


def times(events: List[Event]) -> List[int]:
    return [event.time for event in events]


# -- pop_next(until=...) boundary pins (pre-batching contract) --------------


def test_pop_next_until_is_inclusive() -> None:
    heap = EventHeap()
    heap.push(10, lambda: None)
    event = heap.pop_next(until=10)
    assert event is not None and event.time == 10


def test_pop_next_beyond_until_stays_and_returns_none() -> None:
    heap = EventHeap()
    heap.push(11, lambda: None)
    assert heap.pop_next(until=10) is None
    # The event was not consumed: it is still live and still pops later.
    assert len(heap) == 1
    event = heap.pop_next(until=11)
    assert event is not None and event.time == 11


def test_pop_next_exact_boundary_orders_ties_by_priority_then_seq() -> None:
    heap = EventHeap()
    first = heap.push(10, lambda: None, priority=0)
    second = heap.push(10, lambda: None, priority=0)
    urgent = heap.push(10, lambda: None, priority=-1)
    order = [heap.pop_next(until=10) for _ in range(3)]
    assert order == [urgent, first, second]
    assert heap.pop_next(until=10) is None


def test_pop_next_discards_cancelled_head_beyond_until() -> None:
    """A cancelled head past the bound is lazily discarded (with live-count
    decrement) even though the scan returns None — the phantom-pending
    interaction: without the discard, ``len`` would report an event that
    can never run."""
    heap = EventHeap()
    doomed = heap.push(50, lambda: None)
    doomed.cancel()
    assert len(heap) == 1
    assert heap.pop_next(until=10) is None
    assert len(heap) == 0  # the scan consumed the cancelled entry


def test_pop_next_scans_through_cancelled_run_to_live_event() -> None:
    heap = EventHeap()
    doomed = [heap.push(5, lambda: None) for _ in range(4)]
    survivor = heap.push(5, lambda: None)
    for event in doomed:
        event.cancel()
    assert len(heap) == 5
    event = heap.pop_next(until=5)
    assert event is survivor
    assert len(heap) == 0


def test_pop_next_cancelled_head_before_live_event_beyond_bound() -> None:
    """Mixed case: cancelled entry inside the bound, live entry beyond it.
    The cancelled entry is discarded, the live entry stays, None returns."""
    heap = EventHeap()
    doomed = heap.push(3, lambda: None)
    heap.push(20, lambda: None)
    doomed.cancel()
    assert heap.pop_next(until=10) is None
    assert len(heap) == 1
    assert heap.peek_time() == 20


def test_pop_next_none_bound_means_unbounded() -> None:
    heap = EventHeap()
    heap.push(10**9, lambda: None)
    event = heap.pop_next(until=None)
    assert event is not None and event.time == 10**9


# -- pop_batch: same boundary, batched ---------------------------------------


def test_pop_batch_drains_one_timestamp_run() -> None:
    heap = EventHeap()
    heap.push(10, lambda: None)
    heap.push(10, lambda: None)
    heap.push(12, lambda: None)
    batch = heap.pop_batch()
    assert times(batch) == [10, 10]
    assert len(heap) == 1
    assert times(heap.pop_batch()) == [12]
    assert heap.pop_batch() == []


def test_pop_batch_respects_inclusive_until() -> None:
    heap = EventHeap()
    heap.push(10, lambda: None)
    heap.push(10, lambda: None)
    assert times(heap.pop_batch(until=10)) == [10, 10]
    heap.push(11, lambda: None)
    assert heap.pop_batch(until=10) == []
    assert len(heap) == 1


def test_pop_batch_never_mixes_timestamps() -> None:
    heap = EventHeap()
    heap.push(10, lambda: None)
    heap.push(11, lambda: None)
    assert times(heap.pop_batch()) == [10]
    assert times(heap.pop_batch()) == [11]


def test_pop_batch_orders_ties_by_priority_then_seq() -> None:
    heap = EventHeap()
    first = heap.push(7, lambda: None, priority=0)
    urgent = heap.push(7, lambda: None, priority=-2)
    second = heap.push(7, lambda: None, priority=0)
    assert heap.pop_batch() == [urgent, first, second]


def test_pop_batch_discards_cancelled_heads_with_accounting() -> None:
    heap = EventHeap()
    doomed = heap.push(5, lambda: None)
    survivor = heap.push(5, lambda: None)
    later_doomed = heap.push(50, lambda: None)
    doomed.cancel()
    later_doomed.cancel()
    assert heap.pop_batch(until=10) == [survivor]
    # The in-run cancelled entry was discarded with the batch; the one
    # beyond the bound is discarded by the next bounded scan, exactly as
    # pop_next does.
    assert len(heap) == 1
    assert heap.pop_batch(until=10) == []
    assert len(heap) == 0


def test_pop_batch_cancelled_mid_run_is_skipped() -> None:
    heap = EventHeap()
    first = heap.push(5, lambda: None)
    doomed = heap.push(5, lambda: None)
    third = heap.push(5, lambda: None)
    doomed.cancel()
    assert heap.pop_batch() == [first, third]
    assert len(heap) == 0


def test_pop_batch_limit_splits_a_run() -> None:
    heap = EventHeap()
    events = [heap.push(4, lambda: None) for _ in range(5)]
    batch = heap.pop_batch(limit=3)
    assert batch == events[:3]
    assert heap.pop_batch(limit=3) == events[3:]
