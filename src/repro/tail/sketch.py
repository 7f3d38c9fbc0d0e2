"""A bounded response-time sketch with rounded-rank quantiles.

The gray-failure detector keeps one :class:`QuantileSketch` per monitored
locality (heartbeat gap ratios) and per link (ack round-trips).  A plain
ring buffer is the right structure here: the detector wants *recent*
behaviour — a locality that was slow ten thousand observations ago but is
healthy now should read healthy — and the windows are small enough
(:data:`repro.tail.manager.SKETCH_CAPACITY`, 64) that sorting a copy on
each quantile query is cheaper than maintaining any clever summary.
Everything is deterministic: no sampling, no hashing.
"""

from __future__ import annotations


class QuantileSketch:
    """Last-``capacity`` observations, with rounded-rank quantile queries."""

    __slots__ = ("_ring", "_capacity", "_next")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._ring: list[float] = []
        self._next = 0

    def add(self, value: float) -> None:
        """Record one observation, evicting the oldest when full."""
        if len(self._ring) < self._capacity:
            self._ring.append(value)
        else:
            self._ring[self._next] = value
            self._next = (self._next + 1) % self._capacity

    def __len__(self) -> int:
        """Observations currently in the window."""
        return len(self._ring)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of the current window, by rounded rank.

        Over the ``n`` sorted observations this returns the one of rank
        ``int(q * n + 0.5)`` — ``q * n`` rounded half up, clamped to
        ``1..n`` — not the nearest rank ``ceil(q * n)`` of
        :func:`repro.util.stats.quantile`: ``q = 0.9`` over ``1..7`` gives
        6, not 7.

        Raises on an empty sketch — callers gate on ``len(sketch)`` against
        their ``min_samples`` threshold before trusting any quantile.
        """
        if not self._ring:
            raise ValueError("quantile of an empty sketch")
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        ordered = sorted(self._ring)
        rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
        return ordered[rank]

    def median(self) -> float:
        return self.quantile(0.5)
