"""Unit tests for the HPX-style counter-name grammar."""

import pytest

from repro.counters.names import (
    WELL_KNOWN_COUNTERS,
    CounterName,
    parse_counter_name,
)


class TestParsing:
    def test_abbreviated_name_expands_to_total(self):
        name = parse_counter_name("/threads/idle-rate")
        assert name.object_name == "threads"
        assert name.counter_path == "idle-rate"
        assert name.parent_instance == "locality"
        assert name.parent_index == 0
        assert name.instance == "total"
        assert name.instance_index is None

    def test_full_name(self):
        name = parse_counter_name(
            "/threads{locality#0/worker-thread#3}/count/pending-accesses"
        )
        assert name.parent_index == 0
        assert name.instance == "worker-thread"
        assert name.instance_index == 3
        assert name.counter_path == "count/pending-accesses"

    def test_nested_counter_path(self):
        name = parse_counter_name("/threads/time/average-overhead")
        assert name.counter_path == "time/average-overhead"

    def test_parameters(self):
        name = parse_counter_name("/threads/idle-rate@interval=100")
        assert name.parameters == "interval=100"

    def test_wildcard_instance(self):
        name = parse_counter_name(
            "/threads{locality#0/worker-thread#*}/count/cumulative"
        )
        assert name.is_wildcard
        assert name.instance_index is None

    def test_wildcard_locality(self):
        name = parse_counter_name("/threads{locality#*/total}/idle-rate")
        assert name.is_wildcard
        assert name.parent_index is None

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "threads/idle-rate",
            "/",
            "/threads",
            "/threads{}/idle-rate",
            "/threads{locality}/idle-rate",
            "/1threads/idle-rate",
        ],
    )
    def test_malformed_names_raise(self, bad):
        with pytest.raises(ValueError):
            parse_counter_name(bad)


class TestCanonical:
    def test_round_trip_abbreviated(self):
        name = parse_counter_name("/threads/idle-rate")
        assert name.canonical() == "/threads{locality#0/total}/idle-rate"
        assert parse_counter_name(name.canonical()) == name

    def test_round_trip_worker_instance(self):
        text = "/threads{locality#0/worker-thread#7}/time/cumulative"
        assert parse_counter_name(text).canonical() == text

    def test_parameters_preserved(self):
        text = "/threads{locality#0/total}/idle-rate@x=1"
        assert parse_counter_name(text).canonical() == text


class TestMatching:
    def test_exact_match(self):
        query = parse_counter_name("/threads/idle-rate")
        assert query.matches(parse_counter_name("/threads/idle-rate"))

    def test_wildcard_matches_all_workers(self):
        query = parse_counter_name(
            "/threads{locality#0/worker-thread#*}/count/cumulative"
        )
        for i in range(4):
            concrete = parse_counter_name(
                f"/threads{{locality#0/worker-thread#{i}}}/count/cumulative"
            )
            assert query.matches(concrete)

    def test_wildcard_does_not_match_total(self):
        query = parse_counter_name(
            "/threads{locality#0/worker-thread#*}/count/cumulative"
        )
        total = parse_counter_name("/threads/count/cumulative")
        assert not query.matches(total)

    def test_different_counter_path_no_match(self):
        query = parse_counter_name("/threads/idle-rate")
        assert not query.matches(parse_counter_name("/threads/count/cumulative"))

    def test_different_object_no_match(self):
        query = parse_counter_name("/threads/idle-rate")
        assert not query.matches(parse_counter_name("/runtime/idle-rate"))


class TestWellKnown:
    def test_all_well_known_names_parse(self):
        for text in WELL_KNOWN_COUNTERS:
            name = parse_counter_name(text)
            assert not name.is_wildcard

    def test_papers_counters_present(self):
        # The counters the paper's metrics depend on (Sec. II-A).
        for required in (
            "/threads/idle-rate",
            "/threads/time/average",
            "/threads/time/average-overhead",
            "/threads/count/cumulative",
            "/threads/count/pending-accesses",
            "/threads/count/pending-misses",
            "/threads/count/cumulative-phases",
            "/threads/time/average-phase",
            "/threads/time/average-phase-overhead",
        ):
            assert required in WELL_KNOWN_COUNTERS


class TestLocalityAddressing:
    """First-class locality#N prefixes (the repro.dist registry uses them)."""

    def test_locality_property(self):
        name = parse_counter_name("/parcels{locality#3/total}/count/sent")
        assert name.locality == 3

    def test_locality_property_default_prefix(self):
        assert parse_counter_name("/threads/idle-rate").locality == 0

    def test_locality_property_wildcard_is_none(self):
        name = parse_counter_name("/parcels{locality#*/total}/count/sent")
        assert name.locality is None

    def test_wildcard_canonical_round_trip(self):
        text = "/parcels{locality#*/total}/count/bytes-sent"
        name = parse_counter_name(text)
        assert name.canonical() == text
        assert parse_counter_name(name.canonical()) == name

    def test_wildcard_locality_discovery(self):
        from repro.counters.registry import CounterRegistry

        reg = CounterRegistry()
        for loc in range(3):
            reg.raw(f"/parcels{{locality#{loc}/total}}/count/sent")
        reg.raw("/parcels{locality#1/total}/count/received")
        assert len(list(reg.query("/parcels{locality#*/total}/count/sent"))) == 3
        found = reg.per_locality("/parcels{locality#*/total}/count/sent")
        assert sorted(found) == [0, 1, 2]
