"""Unit tests for repro.qos.service and the per-tenant counter surface."""

import pytest

from repro.overload.admission import AdmissionParams
from repro.overload.config import OverloadConfig
from repro.qos import (
    BurstyArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    QosServiceConfig,
    Tenant,
    default_classes,
    run_qos_service,
)
from repro.qos.classes import HIST_BUCKETS_US

BATCH, STANDARD, INTERACTIVE = default_classes()

SHED64 = OverloadConfig(admission=AdmissionParams(max_depth=64, policy="shed"))


def tenants(inter_util=0.15, batch_util=0.5, grain=2_000, cores=8):
    return [
        Tenant(
            0, "web", INTERACTIVE, grain,
            PoissonArrivals(grain / (cores * inter_util)),
        ),
        Tenant(
            1, "etl", BATCH, grain,
            BurstyArrivals(grain / (cores * batch_util)),
        ),
    ]


class TestServiceRun:
    def test_conservation_per_tenant(self):
        out = run_qos_service(
            tenants(), QosServiceConfig(window_ns=200_000, overload=SHED64)
        )
        assert out.conserved()
        for s in out.stats.values():
            assert s.arrived > 0
            assert s.arrived == s.completed + s.shed

    def test_bit_identical_rerun(self):
        cfg = QosServiceConfig(window_ns=200_000, overload=SHED64)
        a = run_qos_service(tenants(batch_util=2.0), cfg)
        b = run_qos_service(tenants(batch_util=2.0), cfg)
        assert a.result.execution_time_ns == b.result.execution_time_ns
        assert a.result.counters.values == b.result.counters.values
        for tid in a.stats:
            assert a.stats[tid].sojourn_ns == b.stats[tid].sojourn_ns

    def test_latency_samples_match_completions(self):
        out = run_qos_service(tenants(), QosServiceConfig(window_ns=150_000))
        for s in out.stats.values():
            assert len(s.sojourn_ns) == s.completed
            assert sum(s.hist) == s.completed
            assert all(x >= 0 for x in s.sojourn_ns)

    def test_stats_for_by_name(self):
        out = run_qos_service(tenants(), QosServiceConfig(window_ns=100_000))
        assert out.stats_for("web") is out.stats[0]
        with pytest.raises(KeyError):
            out.stats_for("nobody")

    def test_validation(self):
        with pytest.raises(ValueError):
            run_qos_service([], QosServiceConfig())
        ts = tenants()
        dup = [ts[0], Tenant(0, "copy", BATCH, 1_000, PoissonArrivals(1e3))]
        with pytest.raises(ValueError):
            run_qos_service(dup, QosServiceConfig())
        with pytest.raises(ValueError):
            QosServiceConfig(window_ns=0)
        with pytest.raises(ValueError):
            QosServiceConfig(num_cores=0)

    def test_tenant_validation(self):
        with pytest.raises(TypeError):  # arrivals are required
            Tenant(0, "x", BATCH, 1_000)
        with pytest.raises(ValueError):
            Tenant(0, "x", None, 0, PeriodicArrivals(1_000.0))


class TestCounterSurface:
    def test_tenant_counters_track_stats(self):
        out = run_qos_service(
            tenants(batch_util=2.0),
            QosServiceConfig(window_ns=200_000, overload=SHED64),
        )
        counters = out.result.counters
        for tenant in out.tenants:
            s = out.stats[tenant.tenant_id]
            n = tenant.tenant_id
            assert counters.get(f"/qos{{tenant#{n}}}/count/arrived") == s.arrived
            assert (
                counters.get(f"/qos{{tenant#{n}}}/count/completed")
                == s.completed
            )
            assert counters.get(f"/qos{{tenant#{n}}}/count/shed") == s.shed
            assert counters.get(
                f"/qos{{tenant#{n}}}/time/latency-p99@gauge"
            ) == s.p(0.99)

    def test_histogram_counters_cover_every_completion(self):
        out = run_qos_service(tenants(), QosServiceConfig(window_ns=150_000))
        counters = out.result.counters
        for tenant in out.tenants:
            total = sum(
                counters.get(
                    f"/qos{{tenant#{tenant.tenant_id}}}/count/latency-le-{b}us"
                )
                for b in HIST_BUCKETS_US
            ) + counters.get(
                f"/qos{{tenant#{tenant.tenant_id}}}/count/latency-le-inf"
            )
            assert total == out.stats[tenant.tenant_id].completed

    def test_high_qos_aggregates_cover_top_rank_only(self):
        out = run_qos_service(
            tenants(batch_util=2.0),
            QosServiceConfig(window_ns=200_000, overload=SHED64),
        )
        counters = out.result.counters
        web = out.stats_for("web")
        assert counters.get("/qos/count/high-arrived") == web.arrived
        assert counters.get("/qos/count/high-shed") == web.shed

    def test_unclassed_tenant_registers_no_counters(self):
        bulk = Tenant(1, "bulk", None, 2_000, PeriodicArrivals(4_000.0))
        out = run_qos_service(
            [tenants()[0], bulk], QosServiceConfig(window_ns=100_000)
        )
        assert out.conserved()
        assert out.stats[1].arrived == 25
        counters = out.result.counters
        web = out.stats[0].arrived
        assert counters.get("/qos{tenant#0}/count/arrived") == web
        assert counters.get("/qos/count/high-arrived") == web
        bulk_names = [n for n in counters.values if "{tenant#1" in n]
        assert not bulk_names


class TestSchedulerChoice:
    def test_default_policy_is_qos_buckets_over_tenant_classes(self):
        from repro.qos.scheduler import QosBucketScheduler
        from repro.qos.service import _resolve_policy

        policy = _resolve_policy(QosServiceConfig(), tuple(tenants()))
        assert isinstance(policy, QosBucketScheduler)
        assert {c.name for c in policy.classes} == {"interactive", "batch"}

    def test_unclassed_tenants_need_an_explicit_scheduler(self):
        bulk = Tenant(0, "bulk", None, 2_000, PeriodicArrivals(4_000.0))
        with pytest.raises(ValueError, match="at least one class"):
            run_qos_service([bulk], QosServiceConfig())

    def test_explicit_baseline_scheduler_is_honoured(self):
        out = run_qos_service(
            tenants(),
            QosServiceConfig(window_ns=100_000, scheduler="priority-local"),
        )
        assert out.conserved()
        assert all(s.completed > 0 for s in out.stats.values())
