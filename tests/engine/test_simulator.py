"""Unit tests for the simulation kernel."""

import pytest

from repro.engine.errors import DeadlockError, SimulationError
from repro.engine.simulator import Simulator


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: seen.append(sim.now))
    sim.schedule(3, lambda: seen.append(sim.now))
    final = sim.run()
    assert seen == [3, 10]
    assert final == 10


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(5, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.schedule(2, outer)
    sim.run()
    assert seen == [("outer", 2), ("inner", 7)]


def test_schedule_at_past_raises():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_max_cycles_guard():
    sim = Simulator(max_cycles=100)

    def reschedule():
        sim.schedule(60, reschedule)

    sim.schedule(60, reschedule)
    with pytest.raises(SimulationError):
        sim.run()


def test_until_predicate_stops_early():
    sim = Simulator()
    count = []
    for cycle in range(1, 11):
        sim.schedule(cycle, lambda: count.append(1))
    sim.run(until=lambda: len(count) >= 3)
    assert len(count) == 3
    assert sim.now == 3


def test_deadlock_reported_when_agents_blocked():
    sim = Simulator()
    sim.add_blocked_reporter(lambda: ["core 0 sleeping on lrwait"])
    sim.schedule(1, lambda: None)
    with pytest.raises(DeadlockError, match="core 0"):
        sim.run()


def test_clean_drain_without_blocked_agents():
    sim = Simulator()
    sim.add_blocked_reporter(lambda: [])
    sim.schedule(1, lambda: None)
    assert sim.run() == 1


def test_run_for_stops_at_deadline():
    sim = Simulator()
    seen = []
    for cycle in (1, 5, 50):
        sim.schedule(cycle, lambda c=cycle: seen.append(c))
    sim.run_for(10)
    assert seen == [1, 5]
    assert sim.now == 10
    sim.run_for(100)
    assert seen == [1, 5, 50]


def test_run_for_enforces_max_cycles():
    # A 30-cycle tick from cycle 50: 50 and 80 fit under max_cycles,
    # the tick at 110 is a runaway, as it is for run().
    sim = Simulator(max_cycles=100)
    seen = []

    def tick():
        seen.append(sim.now)
        sim.schedule(30, tick)

    sim.schedule(50, tick)
    with pytest.raises(SimulationError, match="max_cycles=100"):
        sim.run_for(200)
    assert seen == [50, 80]
    assert sim.now == 80


def test_run_for_clock_never_moves_backwards():
    sim = Simulator(max_cycles=100)
    sim.schedule(40, lambda: None)
    assert sim.run_for(500) == 100      # horizon capped at max_cycles
    assert sim.run_for(-5) == 100       # a negative horizon is a no-op


def test_run_for_honours_stop_and_clears_it():
    sim = Simulator()
    seen = []

    def stopper():
        seen.append("stop")
        sim.stop()

    sim.schedule(2, stopper)
    sim.schedule(3, lambda: seen.append("after"))
    assert sim.run_for(5) == 2
    assert seen == ["stop"]
    assert sim.now == 2
    # The flag did not leak: the next run() dispatches every event.
    sim.schedule(1, lambda: seen.append("a"))
    sim.schedule(2, lambda: seen.append("b"))
    sim.run()
    assert seen == ["stop", "after", "a", "b"]


def test_run_for_clears_stop_when_a_handler_raises():
    sim = Simulator()

    def stop_then_fail():
        sim.stop()
        raise RuntimeError("handler bug")

    sim.schedule(1, stop_then_fail)
    with pytest.raises(RuntimeError):
        sim.run_for(5)
    seen = []
    sim.schedule(1, lambda: seen.append(1))
    sim.schedule(2, lambda: seen.append(2))
    sim.run()
    assert seen == [1, 2]


def test_pending_events_counter():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


# -- stop() --------------------------------------------------------------------


def test_stop_ends_run_after_the_current_event():
    # Same-cycle events behind the stopping one stay queued, exactly as
    # when an until predicate turns true after that event.
    sim = Simulator()
    seen = []

    def stopper():
        seen.append("stop")
        sim.stop()
        seen.append("rest of handler")

    sim.schedule(3, lambda: seen.append("before"))
    sim.schedule(4, stopper)
    sim.schedule(4, lambda: seen.append("same cycle"))
    sim.schedule(9, lambda: seen.append("later"))
    assert sim.run() == 4
    assert seen == ["before", "stop", "rest of handler"]
    assert sim.pending_events == 2


def test_stopped_run_skips_the_deadlock_check():
    sim = Simulator()
    sim.add_blocked_reporter(lambda: ["core 0 sleeping on lrwait"])
    sim.schedule(1, sim.stop)
    assert sim.run() == 1


def test_stop_also_ends_a_run_with_until():
    sim = Simulator()
    calls = []
    sim.schedule(1, sim.stop)
    sim.schedule(2, lambda: None)
    sim.run(until=lambda: calls.append(1) or False)
    assert sim.now == 1
    assert sim.pending_events == 1


def test_stop_does_not_outlive_its_run():
    sim = Simulator()
    seen = []
    sim.schedule(1, sim.stop)
    sim.run()
    for cycle in (2, 3, 4):
        sim.schedule_at(cycle, lambda c=cycle: seen.append(c))
    assert sim.run() == 4
    assert seen == [2, 3, 4]


def test_stop_is_cleared_when_the_run_raises():
    sim = Simulator()

    def stop_then_fail():
        sim.stop()
        raise RuntimeError("handler bug")

    sim.schedule(1, stop_then_fail)
    with pytest.raises(RuntimeError):
        sim.run()
    seen = []
    sim.schedule(1, lambda: seen.append(1))
    sim.schedule(2, lambda: seen.append(2))
    sim.run()
    assert seen == [1, 2]


def test_reset_drops_a_pending_stop():
    sim = Simulator()
    sim.stop()
    sim.reset()
    seen = []
    sim.schedule(1, lambda: seen.append(1))
    sim.schedule(2, lambda: seen.append(2))
    sim.run()
    assert seen == [1, 2]
