"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, lambda: fired.append("c"))
        sim.schedule(10, lambda: fired.append("a"))
        sim.schedule(20, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(5, lambda tag=tag: fired.append(tag))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(10, lambda: chain(n + 1))

        sim.schedule(0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 30


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_does_not_disturb_others(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append("a"))
        victim = sim.schedule(10, lambda: fired.append("b"))
        sim.schedule(10, lambda: fired.append("c"))
        victim.cancel()
        sim.run()
        assert fired == ["a", "c"]

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        e1 = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending_events() == 2
        e1.cancel()
        sim.run()
        assert sim.pending_events() == 0


class TestRunControl:
    def test_run_returns_fired_count(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1, lambda: None)
        assert sim.run() == 5

    def test_cancelled_events_not_counted(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None).cancel()
        assert sim.run() == 1

    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append("early"))
        sim.schedule(100, lambda: fired.append("late"))
        count = sim.run_until(50)
        assert count == 1
        assert fired == ["early"]
        assert sim.now == 50
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_inclusive_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(50, lambda: fired.append("x"))
        sim.run_until(50)
        assert fired == ["x"]

    def test_empty_run(self):
        sim = Simulator()
        assert sim.run() == 0
        assert sim.now == 0
