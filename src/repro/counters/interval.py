"""Interval sampling of counters.

The paper stresses that every metric "can be calculated over any interval of
interest" (Sec. II-A) — that is what makes the metrics usable for *dynamic*
adaptation rather than only post-mortem analysis.  :class:`IntervalSampler`
takes successive snapshots of a registry and exposes the per-interval deltas.
:class:`repro.core.policy.PolicyEngine` collects them on a virtual-time
timer and feeds them to its policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.counters.registry import CounterRegistry, CounterSnapshot


@dataclass(frozen=True)
class IntervalSample:
    """Counter deltas over one sampling interval."""

    start_ns: int
    end_ns: int
    delta: CounterSnapshot

    @property
    def length_ns(self) -> int:
        return self.end_ns - self.start_ns

    def get(self, name: str, default: float = 0.0) -> float:
        return self.delta.get(name, default)


@dataclass
class IntervalSampler:
    """Collects per-interval counter deltas from a registry.

    Call :meth:`sample` at each observation point (the simulated runtime calls
    it on a virtual-time timer); each call closes the current interval and
    opens the next.
    """

    registry: CounterRegistry
    samples: list[IntervalSample] = field(default_factory=list)
    _last: CounterSnapshot | None = field(default=None, repr=False)
    _last_ns: int = 0

    def start(self, now_ns: int) -> None:
        """Open the first interval at virtual time ``now_ns``."""
        self._last = self.registry.snapshot(now_ns)
        self._last_ns = now_ns

    def sample(self, now_ns: int) -> IntervalSample:
        """Close the current interval at ``now_ns`` and record its deltas."""
        if self._last is None:
            self.start(now_ns)
        assert self._last is not None
        current = self.registry.snapshot(now_ns)
        interval = IntervalSample(
            start_ns=self._last_ns,
            end_ns=now_ns,
            delta=current.delta(self._last),
        )
        self.samples.append(interval)
        self._last = current
        self._last_ns = now_ns
        return interval
