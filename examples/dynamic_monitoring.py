#!/usr/bin/env python
"""Dynamic counter monitoring: the paper's "over any interval" methodology.

Sec. II-A stresses that every metric "can be calculated over any interval of
interest", which is what makes runtime adaptation possible.  This example
runs HPX-Stencil under a policy engine with no policies — periodic counter
sampling and nothing else — and prints per-interval idle-rate, task
throughput and queue activity: the live signal the adaptive tuner and the
throttling policy consume.

Run: ``python examples/dynamic_monitoring.py``
"""

from repro.apps.stencil1d import StencilConfig, build_stencil_graph
from repro.core.policy import PolicyEngine
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.util.tables import format_table

SAMPLE_INTERVAL_NS = 200_000  # 200 us of virtual time


def main() -> None:
    rt = Runtime(RuntimeConfig(platform="haswell", num_cores=8, seed=7))
    config = StencilConfig(
        total_points=1 << 19, partition_points=2_048, time_steps=10
    )
    build_stencil_graph(rt, config)
    result = PolicyEngine(rt, interval_ns=SAMPLE_INTERVAL_NS).run()

    rows = []
    for sample in rt.sampler.samples:
        func = sample.get("/threads/time/cumulative-func")
        exec_ = sample.get("/threads/time/cumulative")
        idle = (func - exec_) / func if func > 0 else 0.0
        rows.append(
            [
                f"{sample.start_ns / 1e6:.2f}-{sample.end_ns / 1e6:.2f}",
                int(sample.get("/threads/count/cumulative")),
                f"{idle:.1%}",
                int(sample.get("/threads/count/pending-accesses")),
                int(sample.get("/threads/count/stolen")),
            ]
        )
    print(
        format_table(
            ["interval (ms)", "tasks", "idle-rate", "pendQ accesses", "stolen"],
            rows,
            title=f"per-interval counters ({SAMPLE_INTERVAL_NS / 1e3:.0f} us "
            "sampling, virtual time)",
        )
    )
    print(
        f"\nwhole run: {result.execution_time_s * 1e3:.3f} ms, "
        f"{result.tasks_executed} tasks, idle-rate {result.idle_rate:.1%}"
    )


if __name__ == "__main__":
    main()
