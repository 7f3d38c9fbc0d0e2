"""Counter kinds.

Four kinds cover every counter the paper uses:

- :class:`RawCounter` — monotonically increasing event count
  (queue accesses, tasks executed);
- :class:`ValueCounter` — instantaneous gauge (queue length, uptime);
- :class:`AverageCounter` — maintains a running sum and a sample count and
  reports their quotient (``/threads/time/average``,
  ``/threads/time/average-overhead``);
- :class:`DerivedCounter` — computed on read from other counters
  (``/threads/idle-rate`` is derived from the cumulative exec and func times).

All counters are cheap plain-Python objects; the simulated runtime increments
them inline on the event path, exactly where the HPX scheduler increments its
native counters.
"""

from __future__ import annotations

from typing import Callable


class Counter:
    """Base class: a named source of one numeric value."""

    __slots__ = ("name", "description")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description

    def get_value(self) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}={self.get_value()!r}>"


class RawCounter(Counter):
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self.value: int = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def get_value(self) -> float:
        return self.value


class ValueCounter(Counter):
    """Instantaneous gauge; may also be backed by a callable."""

    __slots__ = ("_value", "_source")

    def __init__(
        self,
        name: str,
        description: str = "",
        source: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(name, description)
        self._value: float = 0.0
        self._source = source

    def set_value(self, value: float) -> None:
        if self._source is not None:
            raise RuntimeError(f"{self.name} is source-backed; cannot set")
        self._value = value

    def get_value(self) -> float:
        if self._source is not None:
            return self._source()
        return self._value


class AverageCounter(Counter):
    """Running sum / sample count, reported as their quotient.

    ``get_value`` returns 0.0 before the first sample, matching HPX's
    behaviour of reporting zero for idle average counters.
    """

    __slots__ = ("total", "count")

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self.total: float = 0.0
        self.count: int = 0

    def add_sample(self, value: float) -> None:
        self.total += value
        self.count += 1

    def get_value(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count


class DerivedCounter(Counter):
    """Computed on read from a closure over other counters."""

    __slots__ = ("_fn",)

    def __init__(
        self, name: str, fn: Callable[[], float], description: str = ""
    ) -> None:
        super().__init__(name, description)
        self._fn = fn

    def get_value(self) -> float:
        return self._fn()
