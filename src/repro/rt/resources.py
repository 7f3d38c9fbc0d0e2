"""Shared resources and the protocols that bound (or fail to bound) blocking.

A job that reaches its critical section *acquires* its resource and holds
it across the region's subtask boundaries — the cooperative preemption
points the grain axis creates.  While it holds, other jobs of the set run
in between its subtasks; a higher-priority job that needs the same
resource must *wait*.  How long it waits is the whole story of priority
inversion, and the protocol decides it:

``none``
    Requests queue by priority but the holder keeps its own (possibly
    LOW) priority.  Under the Priority Local scheduler, LOW work runs
    only when nothing else is queued — medium-priority traffic therefore
    starves the holder indefinitely while the HIGH waiter blocks.  That
    *unbounded* blocking is textbook priority inversion, and this
    protocol exists so the effect is observable rather than assumed.

``inherit``
    Priority inheritance: while a higher-priority job waits, the holder's
    *effective* priority is boosted to the waiter's.  The holder's
    remaining critical-section subtasks then spawn at the boosted
    priority, so blocking is bounded by the remaining critical section
    plus one subtask in flight.

``ceiling``
    Immediate priority ceiling: acquiring a resource boosts the holder to
    the resource's ceiling (the highest base priority of any task that
    uses it) for the whole critical section — inversion never begins.

:class:`ResourceManager` implements all three over *jobs* (anything with
``job_id`` / ``base_priority`` / ``effective_priority`` attributes — the
:class:`repro.rt.service.Job`), and accumulates the counters the service
layer exposes as ``/rt/count/{inversions,inheritance-boosts,blocked}``
and ``/rt/time/blocked``.  An *inversion* is counted when a wait's
blocked duration exceeds the manager's ``inversion_threshold_ns`` — a
bound chosen so that a holder which made steady progress (any protocol
that boosts it) always releases in time, while a starved holder cannot.

The lock operation itself costs time: :meth:`repro.sim.costmodel.
CostModel.lock_cost_ns` (``LOCK_OVERHEAD_NS``) is charged to
the acquiring subtask by the service layer, so contention shows up in the
simulated clock, not just in the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.runtime.task import Priority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from repro.rt.service import Job

__all__ = ["PROTOCOLS", "ResourceManager", "ResourceStats"]

#: the three resource protocols, by CLI/config name
PROTOCOLS = ("none", "inherit", "ceiling")


@dataclass
class ResourceStats:
    """Counters accumulated by one :class:`ResourceManager`."""

    #: grants whose blocked duration exceeded the inversion threshold
    inversions: int = 0
    #: times a holder's effective priority was raised by a waiter/ceiling
    inheritance_boosts: int = 0
    #: acquire attempts that found the resource held
    blocked: int = 0
    #: total virtual time jobs spent blocked on a held resource
    blocked_ns: int = 0
    #: longest single blocked wait observed
    max_blocked_ns: int = 0

    def record_wait(self, waited_ns: int, threshold_ns: int) -> None:
        self.blocked_ns += waited_ns
        if waited_ns > self.max_blocked_ns:
            self.max_blocked_ns = waited_ns
        if waited_ns > threshold_ns:
            self.inversions += 1


@dataclass
class _ResourceState:
    holder: "Job | None" = None
    #: FIFO of (job, blocked_since_ns); grant order re-sorts by priority
    waiters: list[tuple["Job", int]] = field(default_factory=list)


class ResourceManager:
    """Grant/queue/boost logic for one task set's shared resources.

    ``ceilings`` maps resource name -> highest base priority of any task
    using it (the service computes this from the :class:`TaskSet`); only
    the ``ceiling`` protocol reads it.  All tie-breaks are deterministic
    (priority, then blocked-since, then job id), so runs replay
    bit-identically.
    """

    def __init__(
        self,
        resources: tuple[str, ...],
        *,
        protocol: str = "none",
        inversion_threshold_ns: int = 0,
        ceilings: dict[str, Priority] | None = None,
    ) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown resource protocol {protocol!r}; expected one of "
                f"{PROTOCOLS}"
            )
        if inversion_threshold_ns < 0:
            raise ValueError(
                f"inversion_threshold_ns must be >= 0, got "
                f"{inversion_threshold_ns}"
            )
        self.protocol = protocol
        self.inversion_threshold_ns = inversion_threshold_ns
        self.ceilings = dict(ceilings or {})
        self.stats = ResourceStats()
        self._state = {name: _ResourceState() for name in resources}
        #: called with the boosted job after every effective-priority raise;
        #: the service layer uses it to *re-queue* a chunk the job already
        #: has waiting at the stale priority (a real RTOS re-inserts the
        #: boosted thread into its new priority queue — without this, a
        #: starved LOW chunk would never feel the boost and inheritance
        #: could not bound anything)
        self.on_boost: "Callable[[Job], None] | None" = None

    # -- the protocol-facing surface -------------------------------------------

    def acquire(self, job: "Job", resource: str, now_ns: int) -> bool:
        """Try to take ``resource`` for ``job``; False parks it as a waiter.

        On a grant the ``ceiling`` protocol boosts the new holder
        immediately; on a block the ``inherit`` protocol boosts the
        current holder to the waiter's effective priority.
        """
        state = self._state[resource]
        if state.holder is None:
            state.holder = job
            self._apply_ceiling(job, resource)
            return True
        self.stats.blocked += 1
        state.waiters.append((job, now_ns))
        if self.protocol == "inherit":
            self._boost(state.holder, job.effective_priority)
        return False

    def release(self, job: "Job", resource: str, now_ns: int) -> "Job | None":
        """Release ``resource``; returns the next holder (already granted).

        The releasing job's effective priority drops back to its base;
        the grant goes to the highest-effective-priority waiter (earliest
        blocked, then lowest job id, on ties), whose blocked time is
        recorded — and compared against the inversion threshold — here.
        """
        state = self._state[resource]
        if state.holder is not job:
            raise RuntimeError(
                f"job {job.job_id} released {resource!r} it does not hold"
            )
        state.holder = None
        if job.effective_priority != job.base_priority:
            job.effective_priority = job.base_priority
        if not state.waiters:
            return None
        state.waiters.sort(
            key=lambda w: (-int(w[0].effective_priority), w[1], w[0].job_id)
        )
        winner, since = state.waiters.pop(0)
        self.stats.record_wait(now_ns - since, self.inversion_threshold_ns)
        state.holder = winner
        self._apply_ceiling(winner, resource)
        if self.protocol == "inherit":
            # Waiters still queued keep the new holder boosted.
            for other, _ in state.waiters:
                self._boost(winner, other.effective_priority)
        return winner

    def holder(self, resource: str) -> "Job | None":
        return self._state[resource].holder

    def waiting(self, resource: str) -> int:
        """Jobs queued on ``resource``.  Tests read it to check that an
        acquire on a held resource blocks and queues the job."""
        return len(self._state[resource].waiters)

    # -- boosts ----------------------------------------------------------------

    def _boost(self, job: "Job", to: Priority) -> None:
        if to > job.effective_priority:
            job.effective_priority = to
            self.stats.inheritance_boosts += 1
            if self.on_boost is not None:
                self.on_boost(job)

    def _apply_ceiling(self, job: "Job", resource: str) -> None:
        if self.protocol != "ceiling":
            return
        ceiling = self.ceilings.get(resource)
        if ceiling is not None:
            self._boost(job, ceiling)
