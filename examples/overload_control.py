#!/usr/bin/env python
"""Quickstart: overload control — shedding, credits, breakers, the governor.

The paper measures a *closed* loop: the stencil offers exactly as much
work as the machine absorbs.  This example opens the loop — tasks arrive
on a virtual-time schedule whether or not the runtime keeps up — and
walks the four overload-control layers of :mod:`repro.overload`:

1. **admission control**: an unbounded runtime accepts every task, so its
   completion time diverges with offered load; a bounded queue with the
   ``shed`` policy rejects the excess with a typed ``TaskShedError`` and
   keeps goodput at the capacity plateau;
2. **credit-based flow control**: per-destination sender windows bound
   in-flight parcels on the distributed stencil's halo exchange;
3. **circuit breakers**: on a link degraded 60x, the breaker opens after
   a few consecutive ack-timeouts and parks traffic instead of feeding
   the retransmission storm;
4. **the governor**: under sustained 3x overload it watches idle-rate
   (Eq. 1), overhead ratio and queue depth, coarsens the grain between
   epochs, and drives goodput to a plateau fine grain never reaches.

Run: ``python examples/overload_control.py``
"""

from repro.apps.stencil1d_dist import DistStencilConfig, run_dist_stencil
from repro.dist import DistConfig, FaultPlan, RetryParams
from repro.faults.plan import LinkDegradation
from repro.overload import (
    AdmissionParams,
    BreakerParams,
    CreditParams,
    GovernorSignals,
    OverloadConfig,
    OverloadGovernor,
)
from repro.qos import (
    PeriodicArrivals,
    QosServiceConfig,
    Tenant,
    run_qos_service,
)

NUM_CORES = 8
WINDOW_NS = 300_000  # open-loop arrival window
STENCIL = DistStencilConfig(
    total_points=16_384,
    partition_points=1_024,
    time_steps=8,
    decomposition="cyclic",  # every halo crosses the network
)


def offered(utilization, *, grain_ns=2_500, admission=None, seed=0):
    # One unclassed tenant arriving every grain / (cores * u) ns offers
    # u times the machine's pure-execution capacity.
    tenant = Tenant(
        0, "offered", None, grain_ns,
        PeriodicArrivals(grain_ns / (NUM_CORES * utilization)),
    )
    config = QosServiceConfig(
        platform="haswell",
        num_cores=NUM_CORES,
        seed=seed,
        window_ns=WINDOW_NS,
        overload=OverloadConfig(admission=admission) if admission else None,
        scheduler="priority-local",
    )
    return run_qos_service([tenant], config)


def admission_demo() -> None:
    print("== admission control: divergence vs a typed bound ==")
    shed_params = AdmissionParams(max_depth=64, policy="shed")
    for utilization in (1.0, 4.0):
        unbounded = offered(utilization)
        shed = offered(utilization, admission=shed_params)
        stats = shed.stats[0]
        print(
            f"offered {utilization:.0f}x capacity: "
            f"unbounded t={unbounded.result.execution_time_ns / 1e3:7.1f} us"
            f"  |  shed t={shed.result.execution_time_ns / 1e3:7.1f} us, "
            f"completed {stats.completed}/{stats.arrived}, "
            f"shed {stats.shed} (peak depth "
            f"{shed.result.peak_queue_depth:.0f} <= 64)"
        )
    print(
        "the unbounded runtime's completion time diverges with load; "
        "shedding keeps it pinned near the arrival window"
    )


def credit_demo() -> None:
    print("\n== credit-based flow control on the halo exchange ==")

    def stencil(overload=None):
        config = DistConfig(
            num_localities=2,
            cores_per_locality=4,
            retry=RetryParams(max_retries=8),
            overload=overload,
        )
        result = run_dist_stencil(config, STENCIL).result
        result.assert_parcels_conserved()
        return result

    baseline = stencil()
    credited = stencil(OverloadConfig(credits=CreditParams(window=4)))
    print(
        f"uncontrolled: {baseline.max_unacked_in_flight} unacked parcels in "
        f"flight at peak; window=4: {credited.max_unacked_in_flight} "
        f"({credited.sends_deferred} sends parked "
        f"{credited.credits_exhausted_ns / 1e3:.1f} us total)"
    )


def breaker_demo() -> None:
    print("\n== circuit breaker on a 60x-degraded link ==")
    degraded = FaultPlan(
        degradations=(
            LinkDegradation(
                start_ns=50_000, end_ns=3_050_000, latency_factor=60.0,
                src=0, dst=1,
            ),
        )
    )

    def stencil(overload=None):
        config = DistConfig(
            num_localities=2,
            cores_per_locality=4,
            retry=RetryParams(max_retries=8),
            faults=degraded,
            overload=overload,
        )
        result = run_dist_stencil(config, STENCIL).result
        result.assert_parcels_conserved()
        return result

    storm = stencil()
    capped = stencil(
        OverloadConfig(
            breaker=BreakerParams(failure_threshold=2, cooldown_ns=400_000)
        )
    )
    print(
        f"retransmissions into the dead window: {storm.parcels_retransmitted} "
        f"without a breaker, {capped.parcels_retransmitted} with one "
        f"({capped.breaker_transitions} breaker transitions)"
    )


def governor_demo() -> None:
    print("\n== the governor: graceful degradation under 3x overload ==")
    governor = OverloadGovernor(grain_ns=1_000)
    shed_params = AdmissionParams(max_depth=64, policy="shed")
    final = None
    for epoch in range(6):
        out = offered(
            3.0, grain_ns=governor.grain_ns, admission=shed_params, seed=epoch
        )
        action = governor.observe(GovernorSignals.from_run(out.result))
        print(
            f"epoch {epoch}: grain {action.grain_ns:>5} ns, "
            f"goodput {out.goodput:.2f}, action {action.kind}"
        )
        final = out
    baseline = offered(3.0, grain_ns=1_000, admission=shed_params)
    print(
        f"goodput plateaus at {final.goodput:.2f} under the governor vs "
        f"{baseline.goodput:.2f} stuck at fine grain"
    )


def main() -> None:
    admission_demo()
    credit_demo()
    breaker_demo()
    governor_demo()


if __name__ == "__main__":
    main()
