#!/usr/bin/env python
"""Quickstart: tolerating gray failure — stragglers, not crashes.

A straggling locality is the failure the crash detector of
``examples/crash_recovery.py`` must *not* act on: its heartbeats arrive,
just late.  ``DistConfig(tail=TailConfig(...))`` arms three mechanisms
for exactly that gray zone:

1. a quantile-based gray detector (heartbeat-gap and ack-RTT sketches)
   that flags a slow locality ``degraded`` — a third state between
   healthy and declared-dead that never triggers recovery;
2. hedged parcels: a send unacked past an adaptive, quantile-derived
   delay is re-sent on a second timer, first ack wins, duplicates are
   deduplicated by the reliable transport's ledger;
3. speculative task re-execution: pending tasks of a degraded locality
   are cloned onto healthy survivors, first completion wins, within a
   ``MAX_SPECULATION_FRAC`` work budget.

When a *real* crash happens beside the straggler, partition fencing
keeps the two failure modes from blurring: the declared locality's
epoch is bumped and its stale parcels are rejected on arrival.

Run: ``python examples/tail_tolerance.py``
"""

from repro.dist import (
    CrashAt,
    DistConfig,
    DistRuntime,
    FaultPlan,
    RecoveryConfig,
    RetryParams,
    Straggler,
    TailConfig,
)
from repro.runtime.work import FixedWork

LOCALITIES = 4
STEPS = 10
WIDTH = 2
GRAIN_NS = 60_000
SLOW = 2          # the straggling locality
FACTOR = 4.0      # how slow (heartbeats stretch, but still arrive)
TAIL = TailConfig(check_interval_ns=25_000, hedge_min_delay_ns=5_000)


def build_ring(runtime: DistRuntime):
    """WIDTH ring-coupled chains per locality: every step consumes its
    own and the right neighbour's previous value, so a slow locality
    drags every chain through each rendezvous."""
    prev = [
        [
            runtime.make_ready_future(
                float(i + j), locality=i, name=f"root{i}c{j}"
            )
            for j in range(WIDTH)
        ]
        for i in range(LOCALITIES)
    ]
    for step in range(STEPS):
        prev = [
            [
                runtime.dataflow(
                    (
                        lambda a, b, step=step, i=i, j=j:
                        a * 0.5 + b * 0.25 + step * 0.001 + i + j * 0.01
                    ),
                    [prev[i][j], prev[(i + 1) % LOCALITIES][j]],
                    locality=i,
                    work=FixedWork(GRAIN_NS),
                    name=f"s{step}l{i}c{j}",
                )
                for j in range(WIDTH)
            ]
            for i in range(LOCALITIES)
        ]
    return [f for row in prev for f in row]


def serial_reference():
    vals = [[float(i + j) for j in range(WIDTH)] for i in range(LOCALITIES)]
    for step in range(STEPS):
        vals = [
            [
                vals[i][j] * 0.5
                + vals[(i + 1) % LOCALITIES][j] * 0.25
                + step * 0.001 + i + j * 0.01
                for j in range(WIDTH)
            ]
            for i in range(LOCALITIES)
        ]
    return [v for row in vals for v in row]


def run_ring(config: DistConfig):
    runtime = DistRuntime(config)
    finals = build_ring(runtime)
    result = runtime.wait(finals)
    return runtime, result, [f.value for f in finals]


def base_config(**overrides) -> DistConfig:
    defaults = dict(
        num_localities=LOCALITIES,
        cores_per_locality=2,
        seed=13,
        retry=RetryParams(),
        crash_recovery=RecoveryConfig(checkpoint_interval_ns=200_000),
    )
    defaults.update(overrides)
    return DistConfig(**defaults)


def gray_not_dead_demo(reference) -> None:
    print("== gray, not dead: the detector's third state ==")
    runtime, result, values = run_ring(
        base_config(
            faults=FaultPlan(seed=13, stragglers=(Straggler(SLOW, FACTOR),)),
            tail=TAIL,
        )
    )
    print(
        f"locality {SLOW} ran {FACTOR:g}x slow; crash declarations: "
        f"{result.crashes_detected}, degraded flags raised: "
        f"{result.degraded_events}"
    )
    for line in runtime.tail_manager.diagnose():
        print(f"  {line}")
    print(f"values match the serial reference: {values == reference}")


def rescue_demo(reference) -> None:
    print("\n== hedging + speculation absorb the straggler's tax ==")
    plan = FaultPlan(
        seed=13, drop_rate=0.02, stragglers=(Straggler(SLOW, FACTOR),)
    )
    _, off, off_values = run_ring(base_config(faults=plan, tail=None))
    _, on, on_values = run_ring(base_config(faults=plan, tail=TAIL))
    print(
        f"makespan without tail tolerance: {off.execution_time_ns / 1e3:.0f}"
        f" us; with: {on.execution_time_ns / 1e3:.0f} us"
    )
    print(
        f"hedged parcels: {on.hedges_armed} armed, {on.hedges_sent} sent, "
        f"{on.hedges_won} won, {on.hedges_cancelled} cancelled by the ack"
    )
    print(
        f"speculation: {on.tasks_speculated} clones "
        f"(budget {on.speculation_budget}), {on.speculation_wins} won, "
        f"{on.speculations_cancelled} cancelled, "
        f"{on.originals_cancelled} originals called off"
    )
    print(
        "ledger balances (wins + cancelled == speculated): "
        f"{on.speculation_wins + on.speculations_cancelled == on.tasks_speculated}"
    )
    print(
        "both legs match the serial reference: "
        f"{off_values == reference and on_values == reference}"
    )


def fencing_demo(reference) -> None:
    print("\n== a real crash beside the straggler: fencing ==")
    runtime, result, values = run_ring(
        base_config(
            faults=FaultPlan(
                seed=13,
                crashes=(CrashAt(1, 300_000),),
                stragglers=(Straggler(SLOW, FACTOR),),
            ),
            tail=TAIL,
        )
    )
    tm = runtime.tail_manager
    print(
        f"declarations: {result.crashes_detected} (the crash, exactly "
        f"once); the {FACTOR:g}x straggler stayed gray: "
        f"{tm.degraded_localities == (SLOW,)}"
    )
    print(
        f"crashed locality fenced at epoch {tm.epoch_of(1)}; its "
        f"pre-declaration parcels are stale: {tm.is_stale(1, 0)}"
    )
    print(f"recovered values match the serial reference: {values == reference}")


if __name__ == "__main__":
    reference = serial_reference()
    gray_not_dead_demo(reference)
    rescue_demo(reference)
    fencing_demo(reference)
