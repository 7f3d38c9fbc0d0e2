"""Self-describing fuzz workloads: :class:`WorkloadSpec` and its generator.

A :class:`WorkloadSpec` pins *everything* one differential run needs — the
Task Bench patterns composed into the graph, the grid, the kernel and its
granularity, seeded per-task priorities, the runtime shape (cores,
scheduler, platform, seed), and the distributed leg (localities, placement,
fault plan) — as plain JSON-serializable data.  The same spec therefore
replays bit-identically in any process: ``python -m repro.verify replay``
needs nothing but the JSON.

:func:`generate_spec` draws every field through the SplitMix64 streams of
:mod:`repro.faults.plan` (pure functions of ``(seed, role, index)``), the
same construction the fault injector and ``random_nearest`` pattern use:
no RNG objects, no hidden state, and seed ``k`` means the same workload on
every machine.

``size()`` is the shrinker's metric (:mod:`repro.verify.shrink`): the task
count plus one point for each optional complication (faults, priorities,
extra localities, fine grain).  Every shrink transformation strictly
reduces it, which is what makes shrinking terminate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.faults.plan import stream_u64
from repro.taskbench.kernels import ComputeKernel, ImbalancedKernel, KernelSpec
from repro.taskbench.patterns import PATTERNS, TaskBenchSpec

#: role tags keeping generator draws disjoint from taskbench (0x7B/0x7C)
#: and fault-injector (0x11/0x22/0x33) streams
_ROLE_GEN = 0x7D
_ROLE_PHASE = 0x7E

#: grain at or above which a workload no longer counts as "fine-grained"
#: for the shrinker's size metric (coarsening to this is one shrink step)
COARSE_GRAIN_NS = 10_000

#: kernels the generator can draw (memory kernels route through the cache
#: model whose timing is platform business, not structure — excluded here)
KERNELS = ("compute", "imbalanced")

#: schedulers the generator draws from; parity must hold across all of them
GENERATOR_SCHEDULERS = ("priority-local", "priority-local-lifo", "global-queue")

#: patterns the generator draws from (the whole catalogue; widths are
#: always powers of two so ``fft`` is always admissible)
GENERATOR_PATTERNS = tuple(sorted(PATTERNS))


@dataclass(frozen=True)
class WorkloadSpec:
    """One fuzz workload: pattern phases x grid x kernel x runtime shape.

    ``seed`` feeds the *workload* (pattern edges, kernel jitter, priority
    draws, task-value hashing); ``runtime_seed`` feeds the runtimes' cost
    models.  They are distinct so either can be held fixed while the other
    sweeps.
    """

    seed: int = 0
    #: pattern phases; each is an independent ``width x steps`` grid built
    #: in the same runtime launch (a composed workload)
    patterns: tuple[str, ...] = ("stencil_1d",)
    width: int = 4
    steps: int = 3
    grain_ns: int = 2_000
    kernel: str = "compute"
    #: seeded per-task priorities (LOW/NORMAL/HIGH) instead of all-NORMAL
    use_priorities: bool = False
    num_cores: int = 2
    scheduler: str = "priority-local"
    platform: str = "haswell"
    runtime_seed: int = 0
    #: distributed leg: ``1`` means "only the mandatory DistRuntime@1
    #: equivalence check"; ``> 1`` adds a faulted multi-locality run
    num_localities: int = 1
    placement: str = "block"
    #: wire fault plan for the multi-locality leg (ignored at 1 locality)
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    fault_seed: int = 0
    #: seeded per-task QoS classes routed through the qos bucket scheduler
    use_qos: bool = False
    #: how many of the three default classes the draw uses (2 or 3)
    num_qos_classes: int = 2
    #: crash-with-recovery leg: the last locality dies halfway through the
    #: clean multi-locality run and checkpoint/restart + lineage
    #: re-execution must reproduce the exact structural answer
    use_recovery: bool = False
    #: real-time leg: a small fixed task set runs twice through
    #: ``run_rt_service`` (protocol drawn from the spec seed) and PF409
    #: must hold — released == on-time + missed, blocked time only under
    #: contention, bit-identical miss sets across the two runs
    use_rt: bool = False
    #: tail-tolerance leg: the multi-locality run repeats with a straggler
    #: locality and ``TailConfig`` armed (hedging + speculation + fencing);
    #: PF410 must balance the first-wins ledger and PF401 must still hold
    #: with hedge copies on the wire
    use_tail: bool = False

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("patterns must not be empty")
        for name in self.patterns:
            if name not in PATTERNS:
                raise ValueError(
                    f"unknown pattern {name!r}; expected one of "
                    f"{sorted(PATTERNS)}"
                )
            PATTERNS[name].validate(self.width)
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.grain_ns < 1:
            raise ValueError(f"grain_ns must be >= 1, got {self.grain_ns}")
        if self.kernel not in KERNELS:
            raise ValueError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.num_localities < 1:
            raise ValueError(
                f"num_localities must be >= 1, got {self.num_localities}"
            )
        if self.num_localities > self.width:
            raise ValueError(
                f"{self.num_localities} localities cannot all own one of "
                f"{self.width} columns"
            )
        if self.placement not in ("block", "cyclic"):
            raise ValueError(
                f"placement must be 'block' or 'cyclic', got {self.placement!r}"
            )
        for rate_name in ("drop_rate", "duplicate_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1), got {rate}")
        if self.num_qos_classes not in (2, 3):
            raise ValueError(
                f"num_qos_classes must be 2 or 3, got {self.num_qos_classes}"
            )
        if self.use_recovery and self.num_localities < 2:
            raise ValueError(
                "use_recovery needs num_localities >= 2 (a survivor must "
                "remain to recover onto)"
            )
        if self.use_tail and self.num_localities < 2:
            raise ValueError(
                "use_tail needs num_localities >= 2 (speculation clones a "
                "degraded locality's tasks onto a healthy one)"
            )

    # -- derived shape ---------------------------------------------------------

    @property
    def total_tasks(self) -> int:
        return len(self.patterns) * self.width * self.steps

    @property
    def faults_active(self) -> bool:
        """Faults only ever touch the multi-locality wire."""
        return self.num_localities > 1 and (
            self.drop_rate > 0.0 or self.duplicate_rate > 0.0
        )

    def size(self) -> int:
        """The shrinker's strictly-decreasing metric (>= 1 always)."""
        return (
            self.total_tasks
            + int(self.faults_active)
            + int(self.use_priorities)
            + (self.num_localities - 1)
            + int(self.grain_ns < COARSE_GRAIN_NS)
            + int(self.use_qos)
            + int(self.use_recovery)
            + int(self.use_rt)
            + int(self.use_tail)
        )

    def make_kernel(self) -> KernelSpec:
        if self.kernel == "imbalanced":
            return ImbalancedKernel(task_ns=self.grain_ns)
        return ComputeKernel(task_ns=self.grain_ns)

    def phase_seed(self, phase: int) -> int:
        """Workload seed of pattern phase ``phase`` (disjoint streams, so
        two phases of the same pattern still differ)."""
        return stream_u64(self.seed, _ROLE_PHASE, phase)

    def taskbench_specs(self) -> list[TaskBenchSpec]:
        """The pattern phases as ordinary Task Bench specs."""
        kernel = self.make_kernel()
        return [
            TaskBenchSpec(
                pattern=name,
                width=self.width,
                steps=self.steps,
                kernel=kernel,
                seed=self.phase_seed(k),
            )
            for k, name in enumerate(self.patterns)
        ]

    # -- JSON round-trip -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "patterns": list(self.patterns),
            "width": self.width,
            "steps": self.steps,
            "grain_ns": self.grain_ns,
            "kernel": self.kernel,
            "use_priorities": self.use_priorities,
            "num_cores": self.num_cores,
            "scheduler": self.scheduler,
            "platform": self.platform,
            "runtime_seed": self.runtime_seed,
            "num_localities": self.num_localities,
            "placement": self.placement,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "fault_seed": self.fault_seed,
            "use_qos": self.use_qos,
            "num_qos_classes": self.num_qos_classes,
            "use_recovery": self.use_recovery,
            "use_rt": self.use_rt,
            "use_tail": self.use_tail,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WorkloadSpec":
        known = dict(data)
        known["patterns"] = tuple(known.get("patterns", ("stencil_1d",)))
        return cls(**known)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        return cls.from_dict(json.loads(text))


# -- the seeded generator -------------------------------------------------------


def _draw(seed: int, idx: int, options: tuple) -> Any:
    return options[stream_u64(seed, _ROLE_GEN, idx) % len(options)]


def generate_spec(seed: int) -> WorkloadSpec:
    """Workload number ``seed`` of the fuzz corpus.

    Pure function: every field is a SplitMix64 draw keyed by ``(seed,
    role, field-index)``, so spec ``k`` is identical in every process and
    adding new fields at fresh indices never perturbs old ones.  Widths
    are powers of two (``fft`` admissibility) and grids stay small: the
    corpus optimizes for *many specs per second*, not large graphs —
    divergence almost always reproduces at trivial sizes.
    """
    n_patterns = 1 + stream_u64(seed, _ROLE_GEN, 0) % 3
    patterns = tuple(
        _draw(seed, 100 + i, GENERATOR_PATTERNS) for i in range(n_patterns)
    )
    width = _draw(seed, 1, (2, 4, 8))
    num_localities = _draw(seed, 10, (1, 1, 2))
    faulted = num_localities > 1 and stream_u64(seed, _ROLE_GEN, 12) % 3 == 0
    # ~1/3 of the corpus routes through the QoS bucket scheduler with
    # seeded per-task classes; parity (PF401-PF407) must hold there too
    use_qos = stream_u64(seed, _ROLE_GEN, 14) % 3 == 0
    # ~1/3 of the clean multi-locality specs also run the crash-with-
    # recovery leg (PF408); kept disjoint from wire faults so each
    # complication shrinks away independently
    use_recovery = (
        num_localities > 1
        and not faulted
        and stream_u64(seed, _ROLE_GEN, 16) % 3 == 0
    )
    # ~1/4 of the corpus also runs the real-time leg (PF409); drawn at a
    # fresh index so older specs replay unchanged
    use_rt = stream_u64(seed, _ROLE_GEN, 17) % 4 == 0
    # ~3/4 of the multi-locality specs also run the tail-tolerance leg
    # (PF410): straggler + TailConfig, hedging and speculation armed —
    # 17 of the first 50 corpus seeds take it
    use_tail = (
        num_localities > 1 and stream_u64(seed, _ROLE_GEN, 18) % 4 != 0
    )
    return WorkloadSpec(
        seed=stream_u64(seed, _ROLE_GEN, 99),
        patterns=patterns,
        width=width,
        steps=1 + stream_u64(seed, _ROLE_GEN, 2) % 5,
        grain_ns=_draw(seed, 3, (500, 1_000, 2_000, 5_000)),
        kernel=_draw(seed, 4, KERNELS),
        use_priorities=stream_u64(seed, _ROLE_GEN, 5) % 2 == 0,
        num_cores=_draw(seed, 6, (1, 2, 4)),
        scheduler="qos" if use_qos else _draw(seed, 7, GENERATOR_SCHEDULERS),
        platform="haswell",
        runtime_seed=stream_u64(seed, _ROLE_GEN, 8) % 2**32,
        num_localities=num_localities,
        placement=_draw(seed, 11, ("block", "cyclic")),
        drop_rate=0.05 if faulted else 0.0,
        duplicate_rate=0.05 if faulted else 0.0,
        fault_seed=stream_u64(seed, _ROLE_GEN, 13) % 2**32,
        use_qos=use_qos,
        num_qos_classes=2 + stream_u64(seed, _ROLE_GEN, 15) % 2,
        use_recovery=use_recovery,
        use_rt=use_rt,
        use_tail=use_tail,
    )
