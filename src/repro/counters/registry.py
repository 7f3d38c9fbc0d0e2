"""Counter registry: the runtime-wide name → counter map.

Mirrors HPX's performance-counter registry: counters are registered under
canonical names, looked up by exact or abbreviated name, discovered with
``#*`` wildcards, and read in bulk into immutable :class:`CounterSnapshot`
objects.  Snapshots support subtraction, which is what interval sampling and
the paper's "measure over any interval of interest" methodology (Sec. II-A)
are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Mapping

from repro.counters.counter import (
    AverageCounter,
    Counter,
    DerivedCounter,
    RawCounter,
    ValueCounter,
)
from repro.counters.names import CounterName, parse_counter_name

#: snapshot folds parse each distinct name once per process, not per read
_parsed_name = lru_cache(maxsize=8192)(parse_counter_name)


@dataclass(frozen=True)
class CounterSnapshot:
    """An immutable point-in-time reading of a set of counters.

    For :class:`AverageCounter` entries the snapshot stores the *(sum, count)*
    pair rather than the quotient, so that interval differences of averages
    are exact: ``(s2 - s1) / (c2 - c1)`` is the true average over the
    interval, not a difference of ratios.
    """

    timestamp_ns: int
    values: Mapping[str, float]
    average_pairs: Mapping[str, tuple[float, int]]

    def get(self, name: str, default: float = 0.0) -> float:
        """Read a counter value by canonical or abbreviated name."""
        if name in self.values:
            return self.values[name]
        if name in self.average_pairs:
            total, count = self.average_pairs[name]
            return total / count if count else 0.0
        canonical = parse_counter_name(name).canonical()
        if canonical in self.values:
            return self.values[canonical]
        if canonical in self.average_pairs:
            total, count = self.average_pairs[canonical]
            return total / count if count else 0.0
        return default

    def _matching(self, pattern: str) -> Iterator[tuple[CounterName, float]]:
        query = _parsed_name(pattern)
        averages = ((name, total / count if count else 0.0)
                    for name, (total, count) in self.average_pairs.items())
        for name, value in chain(self.values.items(), averages):
            parsed = _parsed_name(name)
            if query.matches(parsed):
                yield parsed, value

    def total(self, pattern: str) -> float:
        """Sum of every reading matching a possibly wildcarded name.

        The distributed aggregation primitive: with the ``locality#*``
        wildcard this folds one counter across all localities, e.g.
        ``total("/parcels{locality#*/total}/count/sent")`` is the
        system-wide parcel count.  Matching zero counters sums to 0.0.
        """
        return sum(value for _, value in self._matching(pattern))

    def per_locality(self, pattern: str) -> dict[int, float]:
        """Locality index → reading for counters matching ``pattern``.

        Use with a ``locality#*`` wildcard to discover which localities
        expose a counter and read them all; several matches on the same
        locality (e.g. a ``worker-thread#*`` instance wildcard) sum.
        """
        out: dict[int, float] = {}
        for parsed, value in self._matching(pattern):
            if parsed.locality is not None:
                out[parsed.locality] = out.get(parsed.locality, 0.0) + value
        return dict(sorted(out.items()))

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """The interval reading ``self - earlier``.

        Raw counts subtract; average counters subtract their (sum, count)
        pairs; gauges keep the later value (a gauge has no meaningful delta).

        Both snapshots must read the *same* counter set — counters live for
        a runtime's whole lifetime, so differing sets mean the snapshots came
        from different runtimes (or different registries) and any "interval"
        between them is meaningless.  Raises :class:`ValueError` naming the
        offending counters.
        """
        mine = set(self.values) | set(self.average_pairs)
        theirs = set(earlier.values) | set(earlier.average_pairs)
        if mine != theirs:
            missing = sorted(theirs - mine)
            extra = sorted(mine - theirs)
            parts = []
            if missing:
                parts.append(f"missing from the later snapshot: {missing}")
            if extra:
                parts.append(f"extra in the later snapshot: {extra}")
            raise ValueError(
                "cannot subtract snapshots over different counter sets; "
                + "; ".join(parts)
            )
        values = dict(self.values)
        for key, old in earlier.values.items():
            if key in values and not key.endswith("@gauge"):
                values[key] = values[key] - old
        pairs = {}
        for key, (total, count) in self.average_pairs.items():
            old_total, old_count = earlier.average_pairs.get(key, (0.0, 0))
            pairs[key] = (total - old_total, count - old_count)
        return CounterSnapshot(
            timestamp_ns=self.timestamp_ns - earlier.timestamp_ns,
            values=values,
            average_pairs=pairs,
        )


class CounterRegistry:
    """Name-indexed collection of counters with wildcard discovery."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._parsed: dict[str, CounterName] = {}

    # -- registration ------------------------------------------------------

    def register(self, name: str, counter: Counter) -> Counter:
        """Register ``counter`` under ``name`` (canonicalized).

        Returns the counter for chaining.  Re-registering a name raises
        :class:`ValueError`; counters are meant to live for a runtime's whole
        lifetime.
        """
        parsed = parse_counter_name(name)
        if parsed.is_wildcard:
            raise ValueError(f"cannot register wildcard name {name!r}")
        canonical = parsed.canonical()
        if canonical in self._counters:
            raise ValueError(f"counter {canonical!r} already registered")
        counter.name = canonical
        self._counters[canonical] = counter
        self._parsed[canonical] = parsed
        return counter

    def raw(self, name: str, description: str = "") -> RawCounter:
        return self.register(name, RawCounter(name, description))  # type: ignore[return-value]

    def value(self, name: str, description: str = "", source=None) -> ValueCounter:
        return self.register(name, ValueCounter(name, description, source))  # type: ignore[return-value]

    def average(self, name: str, description: str = "") -> AverageCounter:
        return self.register(name, AverageCounter(name, description))  # type: ignore[return-value]

    def derived(self, name: str, fn, description: str = "") -> DerivedCounter:
        return self.register(name, DerivedCounter(name, fn, description))  # type: ignore[return-value]

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Counter:
        """Exact lookup by canonical or abbreviated name."""
        canonical = parse_counter_name(name).canonical()
        try:
            return self._counters[canonical]
        except KeyError:
            raise KeyError(f"no counter registered as {canonical!r}") from None

    def query(self, pattern: str) -> Iterator[Counter]:
        """Yield counters matching a possibly wildcarded name.

        ``/threads{locality#0/worker-thread#*}/count/pending-accesses``
        yields the per-worker instances.
        """
        query = parse_counter_name(pattern)
        for canonical, parsed in self._parsed.items():
            if query.matches(parsed):
                yield self._counters[canonical]

    def total(self, pattern: str) -> float:
        """Sum of the current readings matching a possibly wildcarded name
        (see :meth:`CounterSnapshot.total`)."""
        return self.snapshot().total(pattern)

    def per_locality(self, pattern: str) -> dict[int, float]:
        """Locality index → summed current reading matching ``pattern``
        (see :meth:`CounterSnapshot.per_locality`)."""
        return self.snapshot().per_locality(pattern)

    def __contains__(self, name: str) -> bool:
        try:
            canonical = parse_counter_name(name).canonical()
        except ValueError:
            return False
        return canonical in self._counters

    def __iter__(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def __len__(self) -> int:
        return len(self._counters)

    # -- bulk operations ----------------------------------------------------

    def snapshot(self, timestamp_ns: int = 0) -> CounterSnapshot:
        """Read every counter into an immutable snapshot."""
        values: dict[str, float] = {}
        pairs: dict[str, tuple[float, int]] = {}
        for canonical, counter in self._counters.items():
            if isinstance(counter, AverageCounter):
                pairs[canonical] = (counter.total, counter.count)
            else:
                values[canonical] = counter.get_value()
        return CounterSnapshot(
            timestamp_ns=timestamp_ns, values=values, average_pairs=pairs
        )
