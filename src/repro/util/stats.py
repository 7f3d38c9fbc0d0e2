"""Sample statistics as used in the paper's methodology (Sec. II / IV).

The paper runs each experiment multiple times and reports the mean, standard
deviation, and coefficient of variation (COV = stddev / mean) of execution
times and event counts, noting that COVs stay below 10% for most
configurations.  :class:`SampleStats` packages exactly those quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean. Raises ``ValueError`` on an empty sequence."""
    if not samples:
        raise ValueError("mean() of empty sequence")
    return math.fsum(samples) / len(samples)


def stddev(samples: Sequence[float]) -> float:
    """Sample standard deviation (ddof=1); 0.0 for fewer than two samples."""
    n = len(samples)
    if n == 0:
        raise ValueError("stddev() of empty sequence")
    if n == 1:
        return 0.0
    m = mean(samples)
    var = math.fsum((x - m) ** 2 for x in samples) / (n - 1)
    return math.sqrt(var)


def cov(samples: Sequence[float]) -> float:
    """Coefficient of variation: stddev / |mean|.

    Returns 0.0 when the mean is zero (all-zero samples), matching how the
    paper treats event counts that never fire.
    """
    m = mean(samples)
    if m == 0:
        return 0.0
    return stddev(samples) / abs(m)


@dataclass(frozen=True)
class SampleStats:
    """Mean / stddev / COV summary of a repeated measurement."""

    n: int
    mean: float
    stddev: float
    cov: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "SampleStats":
        xs = list(samples)
        if not xs:
            raise ValueError("SampleStats.from_samples() of empty sequence")
        return cls(
            n=len(xs),
            mean=mean(xs),
            stddev=stddev(xs),
            cov=cov(xs),
            minimum=min(xs),
            maximum=max(xs),
        )

    def within_stddev(self, value: float) -> bool:
        """True when ``value`` lies within one standard deviation of the mean.

        The paper uses this criterion to argue that a threshold-selected grain
        size is statistically indistinguishable from the best one (Sec. IV-A).
        """
        return abs(value - self.mean) <= self.stddev


def quantile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile: the smallest sample x such that at
    least ``ceil(q * n)`` samples are <= x.

    No interpolation: the result is always an element of ``samples``, so
    a reported p99 is a latency some request actually experienced — the
    convention tail-latency SLOs are written against.  ``q`` must lie in
    (0, 1]; ``q=1.0`` is the maximum, and any ``q <= 1/n`` the minimum.
    Raises :class:`ValueError` on an empty sequence or out-of-range ``q``.
    """
    if not samples:
        raise ValueError("quantile() of empty sequence")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[_nearest_rank(q, len(ordered)) - 1]


def _nearest_rank(q: float, n: int) -> int:
    """1-based nearest rank ``ceil(q * n)``, robust to float noise.

    ``0.999 * 1000`` is ``999.0000000000001`` in binary, whose plain ceil
    (1000) would silently turn a p999 into the maximum; the epsilon
    restores the mathematically intended rank.
    """
    return max(1, math.ceil(q * n - 1e-9))
