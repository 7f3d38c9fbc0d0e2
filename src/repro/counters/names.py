"""Counter-name grammar, modelled on HPX's performance-counter names.

HPX counter names have the shape::

    /objectname{parentinstancename#parentindex/instancename#instanceindex}/countername@parameters

e.g. ``/threads{locality#0/worker-thread#3}/count/pending-accesses``.  The
paper refers to counters by their abbreviated form (``/threads/idle-rate``),
which addresses the *total* aggregate across all worker threads of locality 0.
We implement the same convention: a name without an instance block expands to
``{locality#0/total}``.

The paper's own experiments are single-node, so its counters all live at
``locality#0``.  The distributed runtime (:mod:`repro.dist`) instantiates
real localities: per-locality counters carry a ``locality#N`` prefix and the
``locality#*`` wildcard addresses all of them at once (see
:meth:`repro.counters.registry.CounterRegistry.total`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_NAME_RE = re.compile(
    r"""
    ^/
    (?P<object>[a-zA-Z][\w-]*)                 # object, e.g. threads
    (?:\{
        (?P<parent>[a-zA-Z][\w-]*)\#(?P<parentindex>\d+|\*)
        (?:/
            (?P<instance>[a-zA-Z][\w-]*)
            (?:\#(?P<instanceindex>\d+|\*))?
        )?
    \})?
    /
    (?P<counter>[\w-]+(?:/[\w-]+)*)            # counter path, e.g. time/average
    (?:@(?P<parameters>.*))?
    $
    """,
    re.VERBOSE,
)

TOTAL_INSTANCE = "total"


@dataclass(frozen=True)
class CounterName:
    """A parsed, canonicalized counter name.

    ``instance_index`` is ``None`` for aggregate instances such as ``total``
    and for wildcard queries; ``-1`` is never used as a sentinel.
    """

    object_name: str
    counter_path: str
    parent_instance: str = "locality"
    parent_index: int | None = 0
    instance: str = TOTAL_INSTANCE
    instance_index: int | None = None
    parameters: str | None = field(default=None, compare=True)

    @property
    def is_wildcard(self) -> bool:
        """True when any component of the instance block is ``*``."""
        return self.parent_index is None or (
            self.instance != TOTAL_INSTANCE and self.instance_index is None
        )

    @property
    def locality(self) -> int | None:
        """The locality index this name addresses.

        ``None`` for a ``locality#*`` wildcard or when the parent instance is
        not a locality at all (no such counters exist today, but the grammar
        permits them).
        """
        if self.parent_instance != "locality":
            return None
        return self.parent_index

    def canonical(self) -> str:
        """The full canonical string form of this name."""
        parent_ix = "*" if self.parent_index is None else str(self.parent_index)
        inst = self.instance
        if inst != TOTAL_INSTANCE:
            inst_ix = (
                "*" if self.instance_index is None else str(self.instance_index)
            )
            inst = f"{inst}#{inst_ix}"
        base = (
            f"/{self.object_name}"
            f"{{{self.parent_instance}#{parent_ix}/{inst}}}"
            f"/{self.counter_path}"
        )
        if self.parameters is not None:
            base += f"@{self.parameters}"
        return base

    def matches(self, other: "CounterName") -> bool:
        """True when ``other`` (a concrete name) matches this possibly
        wildcarded query name."""
        if (
            self.object_name != other.object_name
            or self.counter_path != other.counter_path
        ):
            return False
        if self.parent_index is not None and self.parent_index != other.parent_index:
            return False
        if self.instance != other.instance:
            return False
        if (
            self.instance_index is not None
            and self.instance_index != other.instance_index
        ):
            return False
        return True


def parse_counter_name(text: str) -> CounterName:
    """Parse ``text`` into a :class:`CounterName`.

    Raises :class:`ValueError` for names that do not follow the grammar.
    """
    m = _NAME_RE.match(text)
    if m is None:
        raise ValueError(f"malformed counter name: {text!r}")
    parent = m.group("parent") or "locality"
    parent_index_s = m.group("parentindex")
    if parent_index_s is None:
        parent_index: int | None = 0
    elif parent_index_s == "*":
        parent_index = None
    else:
        parent_index = int(parent_index_s)
    instance = m.group("instance") or TOTAL_INSTANCE
    instance_index_s = m.group("instanceindex")
    if instance_index_s is None or instance_index_s == "*":
        instance_index = None
    else:
        instance_index = int(instance_index_s)
    return CounterName(
        object_name=m.group("object"),
        counter_path=m.group("counter"),
        parent_instance=parent,
        parent_index=parent_index,
        instance=instance,
        instance_index=instance_index,
        parameters=m.group("parameters"),
    )


#: Counters the paper's metrics depend on (Sec. II-A), with the HPX names.
WELL_KNOWN_COUNTERS: dict[str, str] = {
    "/threads/idle-rate": "ratio of thread-management time to total time (Eq. 1)",
    "/threads/time/average": "average task execution time t_d (Eq. 2)",
    "/threads/time/average-overhead": "average per-task management time t_o (Eq. 3)",
    "/threads/time/cumulative": "running sum of task execution times (sum t_exec)",
    "/threads/time/cumulative-overhead": "running sum of management times",
    "/threads/count/cumulative": "number of HPX-threads executed n_t",
    "/threads/count/cumulative-phases": "number of thread phases executed",
    "/threads/time/average-phase": "average duration of a thread phase",
    "/threads/time/average-phase-overhead": "average management time per phase",
    "/threads/count/pending-accesses": "pending-queue lookups by the scheduler",
    "/threads/count/pending-misses": "pending-queue lookups that found no work",
    "/threads/count/staged-accesses": "staged-queue lookups by the scheduler",
    "/threads/count/staged-misses": "staged-queue lookups that found no work",
    "/threads/count/stolen": "tasks obtained from another worker's queues",
    "/threads/count/stolen-staged": "staged tasks stolen before conversion",
    "/runtime/uptime": "virtual wall-clock time of the runtime (ns)",
}
