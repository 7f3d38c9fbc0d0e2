"""The reference switch of the simulator's fast paths.

A fast path skips work whose outcome it has already proved, such as an
idle search over queues known to be empty
(:meth:`repro.schedulers.base.SchedulingPolicy.find_work`).  An object
built inside :func:`reference` runs the original code instead and raises
:class:`FastPathError` where the proof would have been wrong, so a run
built inside the switch and one built outside it must agree exactly
(``PF411`` in :mod:`repro.verify`).

The switch is process-wide.  It is read once, when an object is built,
so it costs nothing per operation.  No ``repro`` import runs here, so any
package may import this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["FastPathError", "in_reference", "reference"]

_depth = 0


class FastPathError(AssertionError):
    """A fast path's invariant failed in reference mode."""


@contextmanager
def reference() -> Iterator[None]:
    """Build objects in reference mode inside this block (re-entrant)."""
    global _depth
    _depth += 1
    try:
        yield
    finally:
        _depth -= 1


def in_reference() -> bool:
    """True inside :func:`reference`."""
    return _depth > 0
