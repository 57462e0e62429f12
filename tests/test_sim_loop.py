"""Unit tests for the Simulator event loop."""

import pytest

from repro.sim import SchedulingError, SimulationError, Simulator


def test_starts_at_zero():
    assert Simulator().now == 0


def test_call_at_advances_clock():
    sim = Simulator()
    seen = []
    sim.call_at(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100]
    assert sim.now == 100


def test_call_after_is_relative():
    sim = Simulator()
    seen = []
    sim.call_at(50, lambda: sim.call_after(25, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [75]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.call_at(10, lambda: seen.append("early"))
    sim.call_at(100, lambda: seen.append("late"))
    sim.run(until=50)
    assert seen == ["early"]
    assert sim.now == 50
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=1234)
    assert sim.now == 1234


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_at(100, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.call_at(50, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SchedulingError):
        Simulator().call_after(-5, lambda: None)


def test_max_events_bounds_execution():
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        sim.call_after(1, tick)

    sim.call_at(0, tick)
    sim.run(max_events=10)
    assert count[0] == 10


def test_run_until_idle_raises_on_runaway():
    sim = Simulator()

    def tick():
        sim.call_after(1, tick)

    sim.call_at(0, tick)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_events_executed_counter():
    sim = Simulator()
    for t in range(5):
        sim.call_at(t, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_pending_counts_scheduled_events():
    sim = Simulator()
    sim.call_at(1, lambda: None)
    sim.call_at(2, lambda: None)
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    event = sim.call_at(10, lambda: seen.append("x"))
    event.cancel()
    sim.run()
    assert seen == []


def test_run_until_idle_with_only_cancelled_events():
    """Regression: a schedule-then-cancel must not leave phantom pending
    events — run_until_idle used to raise "did not go idle" here."""
    sim = Simulator()
    event = sim.call_at(10, lambda: None)
    event.cancel()
    sim.run_until_idle()
    assert sim.pending() == 0


def test_run_until_idle_with_trailing_cancelled_event():
    sim = Simulator()
    fired = []
    sim.call_at(5, lambda: fired.append("a"))
    trailing = sim.call_at(20, lambda: fired.append("b"))
    sim.call_at(6, trailing.cancel)
    sim.run_until_idle()
    assert fired == ["a"]
    assert sim.pending() == 0


def test_deterministic_interleaving():
    def run_once():
        sim = Simulator()
        order = []
        sim.call_at(5, lambda: order.append("a"))
        sim.call_at(5, lambda: order.append("b"))
        sim.call_at(3, lambda: sim.call_at(5, lambda: order.append("c")))
        sim.run()
        return order

    assert run_once() == run_once() == ["a", "b", "c"]


def test_events_executed_counts_a_run_that_raises():
    """An action that raises still leaves every event it and its
    predecessors executed in the counter: fault campaigns report
    ``events_executed`` for runs that end in a SimulationError."""
    sim = Simulator()
    sim.call_at(1, lambda: None)
    sim.call_at(2, lambda: None)
    sim.call_at(3, lambda: sim.call_after(-1, lambda: None))
    with pytest.raises(SchedulingError):
        sim.run()
    assert sim.events_executed == 3
    sim.call_at(4, lambda: None)
    sim.run()
    assert sim.events_executed == 4
