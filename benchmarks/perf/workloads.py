"""The benchmark's workloads: fixed lists of simulation cells.

A cell is one simulation, split the way the benchmark times it:
``Cell.setup`` builds the runtime, its configuration and the task graph,
and returns ``(run, check)``.  ``run`` is the run call (``Runtime.run``,
``DistRuntime.wait`` or ``run_qos_service``); ``check`` applies the
cell's built-in check to its result and reduces it to a named field list,
whose sha256 is the cell's digest, plus the model counts the per-layer
report reads.

Every input is generated here from the benchmark seed ``S``; the program
under test receives only those inputs.  This module imports ``repro``, so
the caller puts ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.apps.stencil1d import StencilConfig, build_stencil_graph
from repro.dist import DistConfig, DistRuntime, FaultPlan, RetryParams
from repro.experiments import figH_tail_tolerance as figH
from repro.experiments import figQ_qos_isolation as figQ
from repro.faults.plan import Straggler
from repro.qos import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    QosServiceConfig,
    Tenant,
    run_qos_service,
)
from repro.runtime.runtime import Runtime, RuntimeConfig

#: ``/threads{locality#N/total}/<path>`` counters every digest covers
THREAD_FIELDS = (
    "count/cumulative",
    "count/cumulative-phases",
    "time/cumulative",
    "idle-rate",
    "count/pending-accesses",
    "count/pending-misses",
    "count/staged-accesses",
    "count/staged-misses",
    "count/stolen",
)

#: ``DistRunResult`` scalars the dist-gray digest adds
DIST_FIELDS = (
    "parcels_sent",
    "parcels_received",
    "parcels_dropped",
    "parcels_retransmitted",
    "heartbeats_sent",
    "checkpoints_taken",
    "hedges_sent",
    "hedges_won",
    "tasks_speculated",
    "speculation_wins",
)

#: model counts a cell reports; summed over a pass by the per-layer report
COUNT_KEYS = (
    "phases",
    "steals",
    "probe_hits",
    "parcels_sent",
    "parcels_retransmitted",
    "heartbeats",
    "checkpoints",
    "hedges_sent",
    "hedges_won",
    "tasks_speculated",
    "speculation_wins",
    "offered",
    "shed",
    "arrivals",
)


class CellCheckError(Exception):
    """A cell's result failed its built-in check."""


@dataclass(frozen=True)
class Checked:
    """What a finished cell reports: its digest fields and model counts."""

    fields: dict[str, Any]
    counts: dict[str, float]

    @property
    def digest(self) -> str:
        """sha256 over the named field list (floats keep every digit)."""
        text = json.dumps(self.fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _thread_counters(snapshots) -> dict[str, list[float]]:
    """Each thread field's per-locality ``total`` values, locality order."""
    out: dict[str, list[float]] = {}
    for path in THREAD_FIELDS:
        values = []
        for snap in snapshots:
            keys = [
                k for k in snap.values
                if k.startswith("/threads{locality#")
                and k.endswith(f"/total}}/{path}")
            ]
            values.extend(snap.values[k] for k in sorted(keys))
        out[path] = values
    return out


def _thread_counts(threads: dict[str, list[float]]) -> dict[str, float]:
    accesses = sum(threads["count/pending-accesses"]) + sum(
        threads["count/staged-accesses"]
    )
    misses = sum(threads["count/pending-misses"]) + sum(
        threads["count/staged-misses"]
    )
    return {
        "phases": sum(threads["count/cumulative-phases"]),
        "steals": sum(threads["count/stolen"]),
        "probe_hits": accesses - misses,
    }


@dataclass(frozen=True)
class Cell:
    """One simulation of a workload; ``label`` names it in reports."""

    label: str
    #: builds the runtime and graph; returns ``(run, check)``
    setup: Callable[[], tuple[Callable[[], Any], Callable[[Any], Checked]]]


# -- HPX-Stencil -------------------------------------------------------------


def stencil_cell(
    platform: str, cores: int, points: int, steps: int, partition: int,
    seed: int,
) -> Cell:
    def setup():
        runtime = Runtime(
            RuntimeConfig(platform=platform, num_cores=cores, seed=seed)
        )
        config = StencilConfig(
            total_points=points, partition_points=partition, time_steps=steps
        )
        finals = build_stencil_graph(runtime, config)

        def check(result) -> Checked:
            unready = sum(1 for f in finals if not f.is_ready)
            if unready:
                raise CellCheckError(f"{unready} final partitions not ready")
            if result.tasks_executed != config.total_tasks:
                raise CellCheckError(
                    f"{result.tasks_executed} tasks executed, graph has "
                    f"{config.total_tasks}"
                )
            threads = _thread_counters([result.counters])
            fields = {
                "makespan_ns": result.execution_time_ns,
                "tasks_executed": result.tasks_executed,
                **threads,
            }
            return Checked(fields, _thread_counts(threads))

        return runtime.run, check

    return Cell(f"{platform}/p{partition}/s{seed}", setup)


# -- figH gray-failure cell ----------------------------------------------------


def dist_gray_cell(
    steps: int, width: int, severity: float, tail_on: bool, seed: int
) -> Cell:
    def setup():
        config = DistConfig(
            num_localities=figH.NUM_LOCALITIES,
            platform=figH.PLATFORM,
            cores_per_locality=figH.CORES_PER_LOCALITY,
            seed=seed,
            faults=FaultPlan(
                seed=seed + 7,
                drop_rate=figH.DROP_RATE,
                stragglers=(Straggler(figH.STRAGGLER_LOCALITY, severity),),
            ),
            retry=RetryParams(),
            crash_recovery=figH.RECOVERY,
            tail=figH.TAIL if tail_on else None,
        )
        runtime = DistRuntime(config)
        finals = figH.build_workload(runtime, steps, width)

        def check(result) -> Checked:
            values = [f.value for f in finals]
            if values != figH.serial_reference(steps, width):
                raise CellCheckError("final values differ from serial reference")
            result.assert_parcels_conserved()
            if result.crashes_detected != 0:
                raise CellCheckError(
                    f"{result.crashes_detected} crashes declared on a gray failure"
                )
            threads = _thread_counters(result.per_locality)
            fields = {
                "makespan_ns": result.execution_time_ns,
                "tasks_executed": result.tasks_executed,
                **threads,
                **{name: getattr(result, name) for name in DIST_FIELDS},
            }
            counts = _thread_counts(threads)
            counts.update(
                parcels_sent=result.parcels_sent,
                parcels_retransmitted=result.parcels_retransmitted,
                heartbeats=result.heartbeats_sent,
                checkpoints=result.checkpoints_taken,
                hedges_sent=result.hedges_sent,
                hedges_won=result.hedges_won,
                tasks_speculated=result.tasks_speculated,
                speculation_wins=result.speculation_wins,
            )
            return Checked(fields, counts)

        return lambda: runtime.wait(finals), check

    tail = "tail" if tail_on else "notail"
    return Cell(f"w{width}/x{severity:g}/{tail}/s{seed}", setup)


# -- figQ traffic under shedding -------------------------------------------------


def _gap_ns(utilization: float) -> float:
    return figQ.GRAIN_NS / (figQ.NUM_CORES * utilization)


def qos_tenants(total_utilization: float) -> list[Tenant]:
    """figQ's tenant mix: web pinned, api/etl scaled to the offered load."""
    m = (total_utilization - figQ.WEB_UTILIZATION) / 0.85
    return [
        Tenant(0, "web", figQ.INTERACTIVE, figQ.GRAIN_NS,
               PoissonArrivals(_gap_ns(figQ.WEB_UTILIZATION))),
        Tenant(1, "api", figQ.STANDARD, figQ.GRAIN_NS,
               DiurnalArrivals(_gap_ns(0.3 * m))),
        Tenant(2, "etl", figQ.BATCH, figQ.GRAIN_NS,
               BurstyArrivals(_gap_ns(0.5 * m))),
    ]


def qos_cell(utilization: float, window_ns: int, seed: int) -> Cell:
    def setup():
        tenants = qos_tenants(utilization)
        config = QosServiceConfig(
            platform=figQ.PLATFORM,
            num_cores=figQ.NUM_CORES,
            seed=seed,
            window_ns=window_ns,
            overload=figQ.SHED,
        )

        def check(outcome) -> Checked:
            if not outcome.conserved():
                raise CellCheckError("a tenant's arrived != completed + shed")
            result = outcome.result
            threads = _thread_counters([result.counters])
            fields: dict[str, Any] = {
                "makespan_ns": result.execution_time_ns,
                "tasks_executed": result.tasks_executed,
                **threads,
            }
            for tenant in outcome.tenants:
                stats = outcome.stats[tenant.tenant_id]
                fields[tenant.name] = [
                    stats.arrived, stats.completed, stats.shed, stats.p(0.99)
                ]
            counts = _thread_counts(threads)
            counts.update(
                offered=result.tasks_offered,
                shed=result.tasks_shed,
                arrivals=sum(s.arrived for s in outcome.stats.values()),
            )
            return Checked(fields, counts)

        return lambda: run_qos_service(tenants, config), check

    return Cell(f"x{utilization:g}/s{seed}", setup)


# -- the catalogue ---------------------------------------------------------------


def stencil_fine(s: int) -> list[Cell]:
    return [
        stencil_cell("haswell", 28, 1 << 21, 5, partition, seed)
        for seed in range(s + 1, s + 5)
        for partition in (256, 512, 1024)
    ]


def stencil_starved(s: int) -> list[Cell]:
    return [
        stencil_cell("xeon-phi", 60, 1 << 21, 2, partition, seed)
        for seed in range(s + 1, s + 4)
        for partition in (65536, 131072, 262144)
    ]


def dist_gray(s: int) -> list[Cell]:
    return [
        dist_gray_cell(48, width, severity, tail_on, seed + s)
        for seed in (19, 23, 29)
        for width in (8, 2)
        for severity in (8.0, 32.0)
        for tail_on in (True, False)
    ]


def qos_shed(s: int) -> list[Cell]:
    return [qos_cell(4.0, 3_000_000, seed) for seed in range(s, s + 6)]


#: workload name -> cell list for a seed, in the order cells run
WORKLOADS: dict[str, Callable[[int], list[Cell]]] = {
    "stencil-fine": stencil_fine,
    "stencil-starved": stencil_starved,
    "dist-gray": dist_gray,
    "qos-shed": qos_shed,
}
