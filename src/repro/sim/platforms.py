"""Experimental platforms (paper Table I) and their cost-model calibration.

The four nodes of the paper's evaluation — Sandy Bridge, Ivy Bridge, Haswell
and the Xeon Phi (Knights Corner) coprocessor — are described here both by
their published specifications (Table I) and by the calibration constants the
cost model needs.

Calibration anchors taken from the paper's own text rather than invented:

- Haswell: "the average task duration for computing 12,500 grid points using
  one core is 21 microseconds" (Sec. IV-A) -> ~1.7 ns/point; the in-text
  78,125-point partition has a 99 us average duration -> ~1.27 ns/point once
  partly out of L2.  Serial execution of 100M points x 50 steps at that rate
  is ~6.5-8.5 s, matching Fig. 3c's single-core curve.
- Xeon Phi: 12,500 points take 1.1 ms on one core -> ~88 ns/point, matching
  Fig. 3d's much taller curves (5 time steps instead of 50).
- The strong-scaling ceiling on Haswell (28 cores only ~4-5x faster than 1)
  implies the stencil is bandwidth-bound; the per-core demand implied by the
  per-point time (~24 streamed bytes/point) against a ~100 GB/s node gives
  exactly that saturation, which is what the paper measures as *wait time*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class CostParams:
    """The cost constants the platforms calibrate, consumed by
    :class:`repro.sim.costmodel.CostModel`.

    Only the numbers that differ between machines live here; the ones every
    platform shares are module constants of :mod:`repro.sim.costmodel`.  All
    times are nanoseconds of virtual time.
    """

    #: compute time per grid point, single core, data resident in L2
    per_point_ns: float
    #: total thread-management time per task (create + stage->pend + switch)
    task_overhead_ns: float
    #: extra cost of taking work from another worker in the same NUMA domain
    steal_cost_ns: float = 250.0
    #: extra cost of taking work from a remote NUMA domain
    numa_steal_cost_ns: float = 700.0
    #: coefficient of the convex queue/allocator-contention growth of the
    #: per-task management cost: scale = 1 + coef * (active_cores - 1)^exp,
    #: with exp = :data:`repro.sim.costmodel.CONTENTION_EXP`.
    #: The paper's fine-grain data implies strongly superlinear growth
    #: (~1 us/task on 1 core vs >10 us/task on 28 cores; see Sec. IV-A's
    #: 90% idle-rates), hence the quadratic exponent.
    contention_coef: float = 0.020
    #: sustained node memory bandwidth available to the stencil (bytes/ns)
    mem_bandwidth_bytes_per_ns: float = 95.0
    #: cost of the timestamp pair taken per task for the timing counters;
    #: the paper found this insignificant except for sub-4us tasks on 1 core
    timer_overhead_ns: float = 30.0


@dataclass(frozen=True)
class PlatformSpec:
    """One row of Table I plus topology and calibration data."""

    name: str
    microarchitecture: str
    processor: str
    clock_ghz: float
    turbo_ghz: float | None
    cores: int
    numa_domains: int
    hardware_threads_per_core: int
    hardware_threading_active: bool
    l1_bytes: int
    l2_bytes: int
    shared_l3_bytes: int | None
    ram_bytes: int
    costs: CostParams = field(repr=False)
    #: core counts plotted for this platform in Fig. 3
    fig3_core_counts: tuple[int, ...] = ()


SANDY_BRIDGE = PlatformSpec(
    name="Sandy Bridge (SB)",
    microarchitecture="Sandy Bridge",
    processor="Intel Xeon E5 2690",
    clock_ghz=2.9,
    turbo_ghz=3.8,
    cores=16,
    numa_domains=2,
    hardware_threads_per_core=2,
    hardware_threading_active=False,
    l1_bytes=32 * KB,
    l2_bytes=256 * KB,
    shared_l3_bytes=20 * MB,
    ram_bytes=64 * GB,
    costs=CostParams(
        per_point_ns=1.05,
        task_overhead_ns=800.0,
        mem_bandwidth_bytes_per_ns=90.0,
    ),
    fig3_core_counts=(1, 2, 4, 8, 12, 16),
)

IVY_BRIDGE = PlatformSpec(
    name="Ivy Bridge (IB)",
    microarchitecture="Ivy Bridge",
    processor="Intel Xeon E5-2679 v2",
    clock_ghz=2.3,
    turbo_ghz=3.3,
    cores=20,
    numa_domains=2,
    hardware_threads_per_core=2,
    hardware_threading_active=False,
    l1_bytes=32 * KB,
    l2_bytes=256 * KB,
    shared_l3_bytes=35 * MB,
    ram_bytes=128 * GB,
    costs=CostParams(
        per_point_ns=1.22,
        task_overhead_ns=850.0,
        mem_bandwidth_bytes_per_ns=90.0,
    ),
    fig3_core_counts=(1, 2, 4, 8, 16, 20),
)

HASWELL = PlatformSpec(
    name="Haswell (HW)",
    microarchitecture="Haswell",
    processor="Intel Xeon E5-2695 v3",
    clock_ghz=2.3,
    turbo_ghz=3.3,
    cores=28,
    numa_domains=2,
    hardware_threads_per_core=2,
    hardware_threading_active=False,
    l1_bytes=32 * KB,
    l2_bytes=256 * KB,
    shared_l3_bytes=35 * MB,
    ram_bytes=128 * GB,
    costs=CostParams(
        per_point_ns=1.27,
        task_overhead_ns=900.0,
        mem_bandwidth_bytes_per_ns=95.0,
    ),
    fig3_core_counts=(1, 2, 4, 8, 16, 28),
)

XEON_PHI = PlatformSpec(
    name="Xeon Phi",
    microarchitecture="Xeon Phi (Knights Corner)",
    processor="Intel Xeon Phi",
    clock_ghz=1.2,
    turbo_ghz=None,
    cores=61,
    numa_domains=1,
    hardware_threads_per_core=4,
    hardware_threading_active=True,
    l1_bytes=32 * KB,
    l2_bytes=512 * KB,
    shared_l3_bytes=None,
    ram_bytes=8 * GB,
    costs=CostParams(
        per_point_ns=88.0,
        task_overhead_ns=4500.0,
        steal_cost_ns=900.0,
        numa_steal_cost_ns=900.0,
        # KNC cores extract little bandwidth individually; this is the
        # effective figure for non-prefetched stencil streams.
        mem_bandwidth_bytes_per_ns=7.0,
        contention_coef=0.018,
        timer_overhead_ns=120.0,
    ),
    # The paper runs 1..60 cores (one thread/core; extra threads gave no
    # benefit) and 5 time steps (the "paper" scale's phi_time_steps).
    fig3_core_counts=(1, 2, 4, 8, 16, 32, 60),
)

PLATFORMS: dict[str, PlatformSpec] = {
    "sandy-bridge": SANDY_BRIDGE,
    "ivy-bridge": IVY_BRIDGE,
    "haswell": HASWELL,
    "xeon-phi": XEON_PHI,
}

#: Aliases accepted by :func:`get_platform`.
_ALIASES = {
    "sb": "sandy-bridge",
    "ib": "ivy-bridge",
    "hw": "haswell",
    "knc": "xeon-phi",
    "phi": "xeon-phi",
}


def get_platform(name: str) -> PlatformSpec:
    """Look up a platform by key or alias (case-insensitive)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return PLATFORMS[key]
    except KeyError:
        valid = sorted(set(PLATFORMS) | set(_ALIASES))
        raise KeyError(f"unknown platform {name!r}; expected one of {valid}") from None
