"""Unit tests for counter kinds, the registry, snapshots, and sampling."""

import pytest

from repro.counters.counter import (
    AverageCounter,
    DerivedCounter,
    RawCounter,
    ValueCounter,
)
from repro.counters.interval import IntervalSampler
from repro.counters.registry import CounterRegistry


class TestRawCounter:
    def test_starts_at_zero(self):
        assert RawCounter("/t/c").get_value() == 0

    def test_increment(self):
        c = RawCounter("/t/c")
        c.increment()
        c.increment(5)
        assert c.get_value() == 6


class TestValueCounter:
    def test_set_get(self):
        c = ValueCounter("/t/v")
        c.set_value(2.5)
        assert c.get_value() == 2.5

    def test_source_backed(self):
        state = {"x": 1.0}
        c = ValueCounter("/t/v", source=lambda: state["x"])
        assert c.get_value() == 1.0
        state["x"] = 9.0
        assert c.get_value() == 9.0

    def test_source_backed_rejects_set(self):
        c = ValueCounter("/t/v", source=lambda: 0.0)
        with pytest.raises(RuntimeError):
            c.set_value(1.0)


class TestAverageCounter:
    def test_empty_reports_zero(self):
        assert AverageCounter("/t/a").get_value() == 0.0

    def test_average(self):
        c = AverageCounter("/t/a")
        for v in (10.0, 20.0, 30.0):
            c.add_sample(v)
        assert c.get_value() == 20.0


class TestDerivedCounter:
    def test_computed_on_read(self):
        base = RawCounter("/t/c")
        derived = DerivedCounter("/t/d", lambda: base.get_value() * 2)
        base.increment(3)
        assert derived.get_value() == 6


class TestRegistry:
    def test_register_and_get_by_short_name(self):
        reg = CounterRegistry()
        c = reg.raw("/threads/count/cumulative")
        assert reg.get("/threads/count/cumulative") is c
        assert reg.get("/threads{locality#0/total}/count/cumulative") is c

    def test_duplicate_registration_raises(self):
        reg = CounterRegistry()
        reg.raw("/threads/count/cumulative")
        with pytest.raises(ValueError, match="already registered"):
            reg.raw("/threads/count/cumulative")

    def test_wildcard_registration_raises(self):
        reg = CounterRegistry()
        with pytest.raises(ValueError, match="wildcard"):
            reg.raw("/threads{locality#0/worker-thread#*}/count/cumulative")

    def test_missing_counter_raises_keyerror(self):
        with pytest.raises(KeyError):
            CounterRegistry().get("/threads/idle-rate")

    def test_contains(self):
        reg = CounterRegistry()
        reg.raw("/threads/count/cumulative")
        assert "/threads/count/cumulative" in reg
        assert "/threads/idle-rate" not in reg
        assert "not a name" not in reg

    def test_query_wildcard(self):
        reg = CounterRegistry()
        for i in range(4):
            reg.raw(f"/threads{{locality#0/worker-thread#{i}}}/count/cumulative")
        reg.raw("/threads/count/cumulative")
        found = list(
            reg.query("/threads{locality#0/worker-thread#*}/count/cumulative")
        )
        assert len(found) == 4

    def test_len_and_iter(self):
        reg = CounterRegistry()
        reg.raw("/a/b")
        reg.raw("/a/c")
        assert len(reg) == 2
        assert {c.name for c in reg} == {
            "/a{locality#0/total}/b",
            "/a{locality#0/total}/c",
        }


class TestSnapshots:
    def test_snapshot_reads_values(self):
        reg = CounterRegistry()
        c = reg.raw("/a/b")
        c.increment(7)
        snap = reg.snapshot(timestamp_ns=100)
        assert snap.get("/a/b") == 7
        assert snap.timestamp_ns == 100

    def test_snapshot_immutable_wrt_later_changes(self):
        reg = CounterRegistry()
        c = reg.raw("/a/b")
        snap = reg.snapshot()
        c.increment(5)
        assert snap.get("/a/b") == 0

    def test_delta_of_raw(self):
        reg = CounterRegistry()
        c = reg.raw("/a/b")
        c.increment(3)
        first = reg.snapshot(10)
        c.increment(4)
        second = reg.snapshot(25)
        delta = second.delta(first)
        assert delta.get("/a/b") == 4
        assert delta.timestamp_ns == 15

    def test_delta_of_average_is_exact(self):
        reg = CounterRegistry()
        a = reg.average("/a/avg")
        a.add_sample(10.0)
        first = reg.snapshot(0)
        a.add_sample(30.0)
        a.add_sample(50.0)
        second = reg.snapshot(1)
        # The interval average must be (30+50)/2, not a difference of ratios.
        assert second.delta(first).get("/a/avg") == 40.0

    def test_get_default_for_missing(self):
        reg = CounterRegistry()
        snap = reg.snapshot()
        assert snap.get("/no/counter", default=-1.0) == -1.0


class TestIntervalSampler:
    def test_sampling_produces_deltas(self):
        reg = CounterRegistry()
        c = reg.raw("/a/b")
        sampler = IntervalSampler(reg)
        sampler.start(0)
        c.increment(5)
        s1 = sampler.sample(100)
        c.increment(2)
        s2 = sampler.sample(250)
        assert s1.get("/a/b") == 5
        assert s2.get("/a/b") == 2
        assert s1.length_ns == 100
        assert s2.length_ns == 150

    def test_sample_without_start_self_starts(self):
        reg = CounterRegistry()
        sampler = IntervalSampler(reg)
        s = sampler.sample(50)
        assert s.start_ns == 50
        assert s.end_ns == 50


class TestSnapshotMismatch:
    def test_delta_over_different_counter_sets_raises(self):
        reg = CounterRegistry()
        reg.raw("/a/b").increment(1)
        first = reg.snapshot(0)
        reg.raw("/a/c").increment(2)
        second = reg.snapshot(10)
        with pytest.raises(ValueError) as excinfo:
            second.delta(first)
        # The error must name the offending counters, both directions.
        message = str(excinfo.value)
        assert "/a{locality#0/total}/c" in message
        assert "extra" in message

    def test_delta_names_missing_counters(self):
        reg_a = CounterRegistry()
        reg_a.raw("/a/b")
        reg_a.raw("/a/gone")
        earlier = reg_a.snapshot(0)
        reg_b = CounterRegistry()
        reg_b.raw("/a/b")
        later = reg_b.snapshot(5)
        with pytest.raises(ValueError) as excinfo:
            later.delta(earlier)
        message = str(excinfo.value)
        assert "/a{locality#0/total}/gone" in message
        assert "missing" in message

    def test_matching_sets_still_subtract(self):
        reg = CounterRegistry()
        c = reg.raw("/a/b")
        c.increment(3)
        first = reg.snapshot(0)
        c.increment(4)
        assert reg.snapshot(1).delta(first).get("/a/b") == 4


class TestLocalityAggregation:
    def _registry(self):
        reg = CounterRegistry()
        for loc, value in enumerate((5, 7, 11)):
            reg.raw(f"/parcels{{locality#{loc}/total}}/count/sent").increment(
                value
            )
        reg.raw("/parcels{locality#1/total}/count/received").increment(100)
        return reg

    def test_total_sums_across_localities(self):
        reg = self._registry()
        assert reg.total("/parcels{locality#*/total}/count/sent") == 23

    def test_total_of_nothing_is_zero(self):
        assert CounterRegistry().total("/x{locality#*/total}/y") == 0.0

    def test_per_locality(self):
        reg = self._registry()
        assert reg.per_locality("/parcels{locality#*/total}/count/sent") == {
            0: 5.0,
            1: 7.0,
            2: 11.0,
        }
