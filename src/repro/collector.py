"""Pause Python's cyclic garbage collector while a task graph is built and run.

Every simulated task allocates several tracked containers (its future,
its closures, its dependency list), and they stay alive until the run
ends.  With the collector on, every young collection and, ever more
often, every full one walks that growing live graph again, so on the
fine-grain side most of a graph build's host time went to the collector.
:func:`paused` turns automatic collection off for a block.  It wraps the
graph builders, :meth:`repro.sim.engine.Simulator.run`/``run_until`` (the
loop every simulated runtime runs in), and the functions that build and
run in one call, so that their one exit collection runs after the graph
is freed instead of walking it, still live, at the end of the build.
Pausing each task's submission instead would do nothing: the allocation
count carries over, so the first allocation after the pause collects.

On the way out the pause turns the collector back on and collects the
young generation once, the collection it put off.  It collects only the
young one: a full collection at every exit walks every live object again,
the graph an enclosing caller still holds included, and costs more than
the pause saves on short runs.

The pause is exact: no ``repro`` module defines ``__del__``, imports
``weakref`` or imports ``gc`` apart from this one
(``tests/test_collector.py`` scans the source), so no result can observe
when a collection runs.  The collector's switch is process-wide, across
threads too: a pause opened in one thread covers the others until it
ends, and pauses that overlap change only when collection resumes, never
a result.

No ``repro`` import runs here, so any package may import this module.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["paused"]


@contextmanager
def paused() -> Iterator[None]:
    """Pause automatic collection inside this block (re-entrant; also a
    decorator, ``@paused()``).

    If the collector is on, it is turned off, and on exit, raise or not,
    turned back on before generation 0 is collected.  If it is already
    off, because the caller turned it off or an enclosing pause did,
    nothing happens.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect(0)
