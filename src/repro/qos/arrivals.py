"""Deterministic open-loop arrival generators for the QoS service layer.

The paper's workloads are closed-loop: the next task exists because the
previous one finished.  A service handling outside traffic is *open-loop*
— requests arrive on the offered schedule whether or not the system keeps
up — which is what makes overload possible and tail latency meaningful.

Four generators cover the canonical service traffic shapes:

:class:`PeriodicArrivals`
    A fixed gap and no randomness — figO's offered load, where the gap
    ``grain / (cores * u)`` offers ``u`` times the machine's capacity.

:class:`PoissonArrivals`
    Memoryless arrivals at a constant mean rate — the M in M/G/k, and the
    baseline assumption of almost every queueing model.

:class:`BurstyArrivals`
    A two-state Markov-modulated Poisson process (MMPP on-off): bursts at
    ``burst_factor`` times the within-ON rate separated by silent gaps.
    Same mean rate as a Poisson stream with the same ``interarrival_ns``,
    radically worse tail behaviour — the shape batch/analytics tenants
    actually produce.

:class:`DiurnalArrivals`
    A nonhomogeneous Poisson process whose rate swings sinusoidally with
    ``amplitude`` around the mean over one ``period_ns``, generated by
    thinning — the compressed analogue of a day/night traffic cycle.

Every timestamp is a pure function of ``(seed, tenant_id, draw index)``
via the same SplitMix64 streams the fault planner uses, so arrival
schedules are bit-reproducible across runs and backends; role tags keep
the gap / modulation / thinning streams disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.faults.plan import stream_unit

__all__ = [
    "PeriodicArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "ArrivalProcess",
]

#: role tags for the arrival decision streams (see repro.faults.plan for
#: the taken ones: 0x11/0x22/0x33 faults, 0x7B.. taskbench, 0x7D.. verify)
_ROLE_GAP = 0x90
_ROLE_PHASE = 0x91
_ROLE_THIN = 0x92

#: hard cap on arrivals from one generator call — a mis-scaled rate should
#: fail loudly, not allocate without bound
_MAX_ARRIVALS = 5_000_000


def _exponential_gap(mean_ns: float, u: float) -> float:
    """Inverse-CDF exponential gap; ``u`` in [0, 1) from a unit stream."""
    return -mean_ns * math.log(1.0 - u)


def _check_window(window_ns: int) -> None:
    if window_ns <= 0:
        raise ValueError(f"window_ns must be positive, got {window_ns}")


class ArrivalProcess:
    """Interface: a deterministic schedule of arrival timestamps.

    ``times(seed, tenant_id, window_ns)`` returns strictly increasing
    integer nanosecond offsets in ``[0, window_ns)``.
    """

    interarrival_ns: float

    def times(self, seed: int, tenant_id: int, window_ns: int) -> list[int]:
        raise NotImplementedError


def _monotone(ts: list[float], window_ns: int) -> list[int]:
    """Quantize to ns and enforce strict monotonicity inside the window."""
    out: list[int] = []
    last = -1
    for t in ts:
        tick = max(int(t), last + 1)
        if tick >= window_ns:
            break
        out.append(tick)
        last = tick
    return out


@dataclass(frozen=True)
class PeriodicArrivals(ArrivalProcess):
    """One arrival every ``interarrival_ns``, starting at ``t = 0``.

    Arrival ``k`` lands at ``int(k * interarrival_ns)``: each tick is a
    product, never a running sum, because summing a fractional gap drifts
    (at a gap of 1000/24 ns, summing yields one arrival too many in a
    300 us window).  The seed and tenant id are ignored.
    """

    interarrival_ns: float

    def __post_init__(self) -> None:
        # Below 1 ns, int(k * gap) repeats ticks, which are then not
        # strictly increasing.
        if self.interarrival_ns < 1:
            raise ValueError(
                f"interarrival_ns must be >= 1, got {self.interarrival_ns}"
            )

    def times(self, seed: int, tenant_id: int, window_ns: int) -> list[int]:
        del seed, tenant_id
        _check_window(window_ns)
        out: list[int] = []
        k = 0
        while k < _MAX_ARRIVALS and k * self.interarrival_ns < window_ns:
            out.append(int(k * self.interarrival_ns))
            k += 1
        return out


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals with the given mean interarrival time."""

    interarrival_ns: float

    def __post_init__(self) -> None:
        if self.interarrival_ns <= 0:
            raise ValueError(
                f"interarrival_ns must be positive, got {self.interarrival_ns}"
            )

    def times(self, seed: int, tenant_id: int, window_ns: int) -> list[int]:
        _check_window(window_ns)
        ts: list[float] = []
        t = 0.0
        k = 0
        while True:
            t += _exponential_gap(
                self.interarrival_ns, stream_unit(seed, _ROLE_GAP, tenant_id, k)
            )
            k += 1
            if t >= window_ns or k > _MAX_ARRIVALS:
                break
            ts.append(t)
        return _monotone(ts, window_ns)


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """MMPP on-off: Poisson bursts separated by exponential silences.

    ``interarrival_ns`` is the *overall* mean gap, so a bursty tenant
    offers the same average load as a Poisson one with equal settings.
    ``on_fraction`` of the time is spent in the ON state, where arrivals
    come ``1 / on_fraction`` times faster than the overall mean;
    ``burst_ns`` is the mean ON-state dwell (the OFF dwell follows from
    ``on_fraction``).
    """

    interarrival_ns: float
    on_fraction: float = 0.25
    burst_ns: float = 20_000.0

    def __post_init__(self) -> None:
        if self.interarrival_ns <= 0:
            raise ValueError(
                f"interarrival_ns must be positive, got {self.interarrival_ns}"
            )
        if not 0.0 < self.on_fraction < 1.0:
            raise ValueError(
                f"on_fraction must be in (0, 1), got {self.on_fraction}"
            )
        if self.burst_ns <= 0:
            raise ValueError(f"burst_ns must be positive, got {self.burst_ns}")

    def times(self, seed: int, tenant_id: int, window_ns: int) -> list[int]:
        _check_window(window_ns)
        on_gap = self.interarrival_ns * self.on_fraction
        off_dwell = self.burst_ns * (1.0 - self.on_fraction) / self.on_fraction
        ts: list[float] = []
        t = 0.0
        k = 0  # gap-draw index
        j = 0  # phase-draw index
        on = True
        phase_end = _exponential_gap(
            self.burst_ns, stream_unit(seed, _ROLE_PHASE, tenant_id, j)
        )
        while t < window_ns and k <= _MAX_ARRIVALS:
            if on:
                nxt = t + _exponential_gap(
                    on_gap, stream_unit(seed, _ROLE_GAP, tenant_id, k)
                )
                k += 1
                if nxt < phase_end:
                    t = nxt
                    if t < window_ns:
                        ts.append(t)
                    continue
            # Cross into the next phase; the partial gap is discarded
            # (memorylessness makes that exact for the ON state).
            t = phase_end
            on = not on
            j += 1
            dwell = self.burst_ns if on else off_dwell
            phase_end = t + _exponential_gap(
                dwell, stream_unit(seed, _ROLE_PHASE, tenant_id, j)
            )
        return _monotone(ts, window_ns)


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally modulated Poisson arrivals (thinning construction).

    Instantaneous rate at time ``t`` is ``base * (1 + amplitude *
    sin(2 pi t / period_ns))`` where ``base = 1 / interarrival_ns``;
    candidates are drawn at the peak rate and accepted with probability
    ``rate(t) / peak`` — the standard exact simulation of a
    nonhomogeneous Poisson process.
    """

    interarrival_ns: float
    period_ns: float = 200_000.0
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        if self.interarrival_ns <= 0:
            raise ValueError(
                f"interarrival_ns must be positive, got {self.interarrival_ns}"
            )
        if self.period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {self.period_ns}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )

    def times(self, seed: int, tenant_id: int, window_ns: int) -> list[int]:
        _check_window(window_ns)
        base = 1.0 / self.interarrival_ns
        peak = base * (1.0 + self.amplitude)
        peak_gap = 1.0 / peak
        ts: list[float] = []
        t = 0.0
        k = 0
        while True:
            t += _exponential_gap(
                peak_gap, stream_unit(seed, _ROLE_GAP, tenant_id, k)
            )
            if t >= window_ns or k > _MAX_ARRIVALS:
                break
            rate = base * (
                1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period_ns)
            )
            if stream_unit(seed, _ROLE_THIN, tenant_id, k) < rate / peak:
                ts.append(t)
            k += 1
        return _monotone(ts, window_ns)
