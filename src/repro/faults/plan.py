"""Deterministic, seeded fault plans and their injector.

A :class:`FaultPlan` is a *declarative* description of everything that may
go wrong during one distributed run: parcel drops and duplications, windows
of link degradation, straggler localities, and fail-stop crashes.  The
:class:`FaultInjector` turns the plan into per-decision answers
("does transmission (parcel #12, attempt 2) survive the wire?") that are a
pure function of ``(seed, parcel id, attempt)`` — **not** of a shared
sequential RNG — so:

- the same seed reproduces the same fault schedule exactly, run after run
  and process after process (no dependence on ``PYTHONHASHSEED`` or on the
  order in which other components draw randomness);
- changing one component's behaviour (e.g. a different retry budget) does
  not perturb the fate of unrelated parcels, which keeps experiments
  comparable across configurations.

The hash underneath is SplitMix64, chosen because it is a few integer
multiplies per decision (the injector sits on the parcel hot path) and has
no observable correlation between adjacent keys at this scale.

``FaultPlan.none()`` is the explicit "injection disabled" plan:
:class:`repro.dist.DistRuntime` treats an inactive plan exactly like no
plan at all, so the resilience layer costs nothing when off.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK = (1 << 64) - 1
#: role tags keep the drop / duplicate decision streams disjoint even for
#: identical (parcel, attempt) keys
_ROLE_DROP = 0x11
_ROLE_DUPLICATE = 0x22
#: heartbeat emission jitter of the crash-recovery failure detector
#: (repro.recovery); registered here so the role-tag space stays collision-
#: free as components add streams (0x33 the parcelport's retransmit
#: jitter, 0x44 breaker probe, 0x7B-0x7E taskbench/verify generators,
#: 0x80-0x85 verify harness incl. the RT and tail legs, 0x90-0x92 qos
#: arrivals, 0xA0-0xA2 rt release/gap/exec draws, 0xB0-0xB2 reserved for
#: repro.tail)
ROLE_HEARTBEAT = 0x55


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stream_u64(seed: int, *key: int) -> int:
    """A deterministic 64-bit draw for ``(seed, *key)``."""
    x = seed & _MASK
    for part in key:
        x = _splitmix64(x ^ (part & _MASK))
    return _splitmix64(x)


def stream_unit(seed: int, *key: int) -> float:
    """A deterministic draw in ``[0, 1)`` for ``(seed, *key)``."""
    return stream_u64(seed, *key) / float(1 << 64)


@dataclass(frozen=True)
class LinkDegradation:
    """A transient window in which a link (or every link) runs degraded.

    During ``[start_ns, end_ns)`` the affected link's latency is multiplied
    by ``latency_factor`` and its bandwidth by ``bandwidth_factor`` (so a
    factor of 0.5 *halves* the bandwidth).  ``src``/``dst`` of ``None``
    match every locality — a cluster-wide interconnect brown-out.
    """

    start_ns: int
    end_ns: int
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    src: int | None = None
    dst: int | None = None

    def __post_init__(self) -> None:
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ValueError(
                f"degradation window [{self.start_ns}, {self.end_ns}) is empty"
            )
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1 (a degradation)")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        for end in (self.src, self.dst):
            if end is not None and end < 0:
                raise ValueError(f"degraded link endpoint {end} must be >= 0")

    def matches(self, src: int, dst: int, at_ns: int) -> bool:
        if not self.start_ns <= at_ns < self.end_ns:
            return False
        if self.src is not None and self.src != src:
            return False
        return self.dst is None or self.dst == dst


@dataclass(frozen=True)
class Straggler:
    """One locality whose every task runs ``factor`` times slower.

    Models a node with a failing fan, a co-scheduled tenant, or thermal
    throttling — the classic cause of tail latency in bulk-synchronous
    codes.  Applied as a multiplier on the locality's per-task compute and
    management costs at runtime construction.
    """

    locality: int
    factor: float

    def __post_init__(self) -> None:
        if self.locality < 0:
            raise ValueError("locality must be >= 0")
        if self.factor < 1.0:
            raise ValueError("a straggler factor must be >= 1")


@dataclass(frozen=True)
class CrashAt:
    """Fail-stop: ``locality`` dies at virtual time ``at_ns``.

    From that instant the locality runs no further tasks, sends nothing,
    and every parcel arriving at it is dropped on the floor.
    """

    locality: int
    at_ns: int

    def __post_init__(self) -> None:
        if self.locality < 0:
            raise ValueError("locality must be >= 0")
        if self.at_ns < 0:
            raise ValueError("at_ns must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one run, reproducible from ``seed``.

    ``drop_rate`` / ``duplicate_rate`` apply independently to every wire
    transmission (retransmissions included).  ``doom_every`` > 0
    additionally dooms every parcel whose id is a multiple of it — *all* of
    a doomed parcel's transmissions are dropped, modelling a message whose
    path is broken outright; this is what guarantees retry-budget
    exhaustion (and hence recovery) at a known, deterministic rate, where a
    plain per-transmission drop rate almost never exhausts a healthy
    budget.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    doom_every: int = 0
    degradations: tuple[LinkDegradation, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    crashes: tuple[CrashAt, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError(
                f"duplicate_rate must be in [0, 1), got {self.duplicate_rate}"
            )
        if self.doom_every < 0:
            raise ValueError("doom_every must be >= 0 (0 disables)")
        for kind, entries in (("Straggler", self.stragglers),
                              ("CrashAt", self.crashes)):
            seen = [e.locality for e in entries]
            if len(seen) != len(set(seen)):
                raise ValueError(f"at most one {kind} per locality")

    @classmethod
    def none(cls) -> "FaultPlan":
        """The explicit no-faults plan; the runtime treats it as absent."""
        return cls()

    @property
    def is_active(self) -> bool:
        """True when this plan can actually perturb a run."""
        return bool(
            self.drop_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.doom_every > 0
            or self.degradations
            or self.stragglers
            or self.crashes
        )


class FaultInjector:
    """Answers per-decision fault questions for one run, deterministically.

    One instance per :class:`repro.dist.DistRuntime`; stateless between
    calls, so asking the same question twice gives the same answer (the
    property the figR determinism check rides on).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._straggler = {s.locality: s.factor for s in plan.stragglers}
        self._crash = {c.locality: c.at_ns for c in plan.crashes}

    # -- the wire ------------------------------------------------------------

    def doomed(self, parcel_id: int) -> bool:
        """True when every transmission of this parcel is dropped."""
        every = self.plan.doom_every
        return every > 0 and parcel_id % every == 0

    def drops(self, parcel_id: int, attempt: int) -> bool:
        """Does transmission ``attempt`` of ``parcel_id`` die on the wire?"""
        if self.doomed(parcel_id):
            return True
        rate = self.plan.drop_rate
        if rate <= 0.0:
            return False
        return stream_unit(self.plan.seed, _ROLE_DROP, parcel_id, attempt) < rate

    def duplicates(self, parcel_id: int, attempt: int) -> bool:
        """Does the network deliver a spurious second copy of this one?"""
        rate = self.plan.duplicate_rate
        if rate <= 0.0:
            return False
        return (
            stream_unit(self.plan.seed, _ROLE_DUPLICATE, parcel_id, attempt)
            < rate
        )

    def link_multipliers(
        self, src: int, dst: int, at_ns: int
    ) -> tuple[float, float]:
        """(latency multiplier, bandwidth multiplier) for a send at ``at_ns``.

        Overlapping degradation windows compound multiplicatively.
        """
        latency = 1.0
        bandwidth = 1.0
        for window in self.plan.degradations:
            if window.matches(src, dst, at_ns):
                latency *= window.latency_factor
                bandwidth *= window.bandwidth_factor
        return latency, bandwidth

    # -- the machines --------------------------------------------------------

    def straggler_factor(self, locality: int) -> float:
        """Per-task cost multiplier of ``locality`` (1.0 = healthy)."""
        return self._straggler.get(locality, 1.0)

    def crash_time(self, locality: int) -> int | None:
        """When ``locality`` fail-stops, or None if it never does."""
        return self._crash.get(locality)
