"""Dynamic checkers: the opt-in ``check=True`` runtime mode.

Static lint sees source; these checkers see the *actual* graph and the
actual interleaving:

- **Leaked futures (DC301)** — every future the runtime hands out is
  registered; any still pending when the run finishes means its task never
  ran or a dependency chain was dropped.
- **Runtime dependency cycles (DC302)** — the registered futures' recorded
  ``dependencies`` are checked for cycles before the run starts (and again
  when a deadlock is diagnosed), so the error names the futures in the loop
  instead of "N tasks outstanding".
- **Lockset data races (DC303)** — a lightweight Eraser-style monitor:
  state wrapped with :meth:`RuntimeChecker.monitor` records, per access,
  the accessing thread and the set of :class:`TrackedLock` objects it
  holds; a location whose candidate lockset intersects to empty across two
  or more threads (with at least one write) is reported as a race.

All three report :class:`~repro.analysis.findings.Finding` records and are
raised bundled in a :class:`CheckError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, TYPE_CHECKING

from repro.analysis.findings import Finding
from repro.analysis.graph import graph_from_futures

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.future import Future


class CheckError(RuntimeError):
    """One or more dynamic-check findings; ``.findings`` has the details."""

    def __init__(self, findings: list[Finding]):
        self.findings = findings
        lines = [f.format() for f in findings]
        super().__init__(
            f"{len(findings)} runtime check finding(s):\n  " + "\n  ".join(lines)
        )


class TrackedLock:
    """A reentrant lock whose ownership the checker can see.

    Use it exactly like ``threading.RLock``; the lockset monitor only
    understands locks acquired through this wrapper.
    """

    def __init__(self, checker: "RuntimeChecker", name: str) -> None:
        self._checker = checker
        self._lock = threading.RLock()
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._checker._held(self).add(self)
        return acquired

    def release(self) -> None:
        self._checker._held(self).discard(self)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TrackedLock {self.name!r}>"


@dataclass
class _VarState:
    """Eraser candidate-lockset state for one monitored location."""

    lockset: set[TrackedLock] | None = None  # None = no access yet
    #: the threads themselves, not their idents: the OS reuses an ident
    #: once its thread is joined, and holding the thread keeps it unique
    threads: set[threading.Thread] = field(default_factory=set)
    writes: int = 0
    reads: int = 0

    def record(self, held: set[TrackedLock], is_write: bool) -> None:
        if self.lockset is None:
            self.lockset = set(held)
        else:
            self.lockset &= held
        self.threads.add(threading.current_thread())
        if is_write:
            self.writes += 1
        else:
            self.reads += 1

    @property
    def is_race(self) -> bool:
        return (
            len(self.threads) > 1 and self.writes > 0 and not self.lockset
        )


class Monitored:
    """Access-recording proxy around a shared object.

    Attribute and item reads/writes pass through to the wrapped object and
    are recorded against the checker, keyed ``name.attr`` / ``name[key]``.
    """

    __slots__ = ("_mon_target", "_mon_checker", "_mon_name")

    def __init__(self, target: Any, checker: "RuntimeChecker", name: str) -> None:
        object.__setattr__(self, "_mon_target", target)
        object.__setattr__(self, "_mon_checker", checker)
        object.__setattr__(self, "_mon_name", name)

    def __getattr__(self, attr: str) -> Any:
        checker: RuntimeChecker = object.__getattribute__(self, "_mon_checker")
        name: str = object.__getattribute__(self, "_mon_name")
        checker._record(f"{name}.{attr}", is_write=False)
        return getattr(object.__getattribute__(self, "_mon_target"), attr)

    def __setattr__(self, attr: str, value: Any) -> None:
        checker: RuntimeChecker = object.__getattribute__(self, "_mon_checker")
        name: str = object.__getattribute__(self, "_mon_name")
        checker._record(f"{name}.{attr}", is_write=True)
        setattr(object.__getattribute__(self, "_mon_target"), attr, value)

    def __getitem__(self, key: Any) -> Any:
        checker: RuntimeChecker = object.__getattribute__(self, "_mon_checker")
        name: str = object.__getattribute__(self, "_mon_name")
        checker._record(f"{name}[{key!r}]", is_write=False)
        return object.__getattribute__(self, "_mon_target")[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        checker: RuntimeChecker = object.__getattribute__(self, "_mon_checker")
        name: str = object.__getattribute__(self, "_mon_name")
        checker._record(f"{name}[{key!r}]", is_write=True)
        object.__getattribute__(self, "_mon_target")[key] = value

    def __len__(self) -> int:
        return len(object.__getattribute__(self, "_mon_target"))


class RuntimeChecker:
    """Collects dynamic findings for one runtime instance."""

    def __init__(self, runtime_name: str = "runtime") -> None:
        self.runtime_name = runtime_name
        self._futures: list["Future"] = []
        self._vars: dict[str, _VarState] = {}
        self._tls = threading.local()
        self._mutex = threading.Lock()

    # -- future registration ---------------------------------------------------

    def register_future(self, future: "Future") -> None:
        with self._mutex:
            self._futures.append(future)

    # -- lockset machinery -----------------------------------------------------

    def tracked_lock(self, name: str = "lock") -> TrackedLock:
        return TrackedLock(self, name)

    def monitor(self, target: Any, name: str) -> Monitored:
        """Wrap shared state so accesses through the proxy are checked."""
        return Monitored(target, self, name)

    def _held(self, _lock: TrackedLock) -> set[TrackedLock]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = set()
            self._tls.held = held
        return held

    def _record(self, key: str, is_write: bool) -> None:
        held = set(getattr(self._tls, "held", ()) or ())
        with self._mutex:
            self._vars.setdefault(key, _VarState()).record(held, is_write)

    # -- findings --------------------------------------------------------------

    def leak_findings(self) -> list[Finding]:
        """DC301 for every registered future still pending."""
        return [
            Finding(
                "DC301",
                f"future {f.name!r} (#{f.future_id}) was still pending at "
                f"{self.runtime_name} completion — its task never ran "
                "(dropped dependency edge or unreachable input)",
            )
            for f in self._futures
            if not f.is_ready
        ]

    def cycle_findings(self) -> list[Finding]:
        """DC302 for every dependency cycle among registered futures."""
        graph = graph_from_futures(self._futures)
        out: list[Finding] = []
        for cycle in graph.find_cycles():
            members = ", ".join(graph.name_of(n) for n in cycle)
            out.append(
                Finding(
                    "DC302",
                    f"dependency cycle among futures: {members} — the "
                    "cycle can never become ready (deadlock)",
                )
            )
        return out

    def race_findings(self) -> list[Finding]:
        """DC303 for every monitored location with an empty lockset race."""
        with self._mutex:
            states = dict(self._vars)
        out: list[Finding] = []
        for key, state in sorted(states.items()):
            if state.is_race:
                out.append(
                    Finding(
                        "DC303",
                        f"{key} was accessed by {len(state.threads)} threads "
                        f"({state.writes} writes, {state.reads} reads) with "
                        "no common lock held — lockset race",
                    )
                )
        return out

    def all_findings(self) -> list[Finding]:
        return self.cycle_findings() + self.leak_findings() + self.race_findings()

    def raise_if_findings(self, findings: Iterable[Finding] | None = None) -> None:
        collected = list(findings) if findings is not None else self.all_findings()
        if collected:
            raise CheckError(collected)
