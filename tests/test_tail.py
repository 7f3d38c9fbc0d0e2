"""The gray-failure tolerance layer: `repro.tail`.

Unit coverage for the quantile sketch, the config validation, and the
TailManager's hedging/fencing arithmetic, plus the detector/declaration
interplay the layer exists for: a straggler beside a real crash must
produce *exactly one* declaration (the crash) and a degraded flag (the
straggler) — never two declarations, never zero — and speculative
re-execution must not double-execute tasks the recovery layer already
restored (asserted through value parity with a serial reference and the
``SPECULATION_CONSERVED`` / ``PARCELS_CONSERVED`` invariants).
"""

import pytest

from repro.dist import (
    DistConfig,
    DistRuntime,
    FaultPlan,
    RetryParams,
    TailConfig,
)
from repro.faults.plan import CrashAt, Straggler
from repro.recovery import RecoveryConfig
from repro.runtime.work import FixedWork
from repro.tail.sketch import QuantileSketch
from repro.verify.invariants import PARCELS_CONSERVED, SPECULATION_CONSERVED
from repro.verify.spec import generate_spec

# --------------------------------------------------------------------------
# The shared scenario: N localities in a ring, each step mixes a column
# with its right neighbour.  The crash at 200us lands mid-computation and
# the 4x straggler stays *under* the default suspicion threshold
# (suspicion_after=4.0), so it is gray — degraded, never declared.
# --------------------------------------------------------------------------

N = 3
STEPS = 8
WIDTH = 2
SEED = 11

CRASH = CrashAt(locality=1, at_ns=200_000)
STRAGGLER = Straggler(locality=2, factor=4.0)


def _step(t, i, j):
    return lambda a, b: a * 0.5 + b * 0.25 + t * 0.001 + i + j * 0.01


def _build(rt):
    prev = [
        [
            rt.make_ready_future(float(i + j), locality=i, name=f"r{i}c{j}")
            for j in range(WIDTH)
        ]
        for i in range(N)
    ]
    for t in range(STEPS):
        prev = [
            [
                rt.dataflow(
                    _step(t, i, j),
                    [prev[i][j], prev[(i + 1) % N][j]],
                    locality=i,
                    work=FixedWork(40_000),
                    name=f"s{t}l{i}c{j}",
                )
                for j in range(WIDTH)
            ]
            for i in range(N)
        ]
    return [f for row in prev for f in row]


def _reference():
    prev = [[float(i + j) for j in range(WIDTH)] for i in range(N)]
    for t in range(STEPS):
        prev = [
            [
                _step(t, i, j)(prev[i][j], prev[(i + 1) % N][j])
                for j in range(WIDTH)
            ]
            for i in range(N)
        ]
    return [v for row in prev for v in row]


def _run(*, crashes=(), stragglers=(), tail=None):
    rt = DistRuntime(
        DistConfig(
            num_localities=N,
            cores_per_locality=2,
            seed=SEED,
            faults=FaultPlan(
                seed=SEED + 3, crashes=tuple(crashes),
                stragglers=tuple(stragglers),
            ),
            retry=RetryParams(),
            crash_recovery=RecoveryConfig(checkpoint_interval_ns=150_000),
            tail=tail,
        )
    )
    finals = _build(rt)
    result = rt.wait(finals)
    values = [f.value for f in finals]
    return rt, result, values


def _tail_config(**overrides):
    return TailConfig(
        check_interval_ns=25_000, hedge_min_delay_ns=5_000, **overrides
    )


class TestQuantileSketch:
    def test_ring_eviction(self):
        s = QuantileSketch(3)
        for v in (1.0, 2.0, 3.0, 4.0):
            s.add(v)
        assert len(s) == 3
        assert s.total_observations == 4
        # 1.0 was evicted: even the 1e-9 quantile lands on 2.0.
        assert s.quantile(1e-9) == 2.0

    def test_nearest_rank_quantile(self):
        s = QuantileSketch(10)
        for v in (10.0, 20.0, 30.0, 40.0):
            s.add(v)
        assert s.quantile(1.0) == 40.0
        assert s.quantile(0.5) == 20.0
        assert s.median() == 20.0
        # The rank is q * n rounded half up, not ceil(q * n): 0.9 over
        # seven observations is rank 6.
        seven = QuantileSketch(10)
        for v in range(1, 8):
            seven.add(float(v))
        assert seven.quantile(0.9) == 6.0

    def test_single_sample(self):
        s = QuantileSketch(4)
        s.add(7.0)
        assert s.quantile(0.9) == 7.0

    def test_empty_sketch_raises(self):
        with pytest.raises(ValueError, match="empty"):
            QuantileSketch(4).quantile(0.5)

    def test_bad_quantile_raises(self):
        s = QuantileSketch(4)
        s.add(1.0)
        with pytest.raises(ValueError, match="quantile"):
            s.quantile(0.0)
        with pytest.raises(ValueError, match="quantile"):
            s.quantile(1.5)

    def test_bad_capacity_raises(self):
        with pytest.raises(ValueError, match="capacity"):
            QuantileSketch(0)


class TestTailConfigValidation:
    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"min_samples": 0}, "min_samples"),
            ({"check_interval_ns": 0}, "check_interval_ns"),
            ({"hedge_min_delay_ns": -1}, "hedge_min_delay_ns"),
        ],
    )
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TailConfig(**kwargs)

    def test_defaults_valid(self):
        TailConfig()


class TestDistConfigTailValidation:
    def test_tail_requires_crash_recovery(self):
        with pytest.raises(ValueError, match="crash-recovery"):
            DistConfig(
                num_localities=2,
                tail=TailConfig(),
                retry=RetryParams(),
            )

    def test_tail_requires_retry(self):
        with pytest.raises(ValueError, match="reliable transport"):
            DistConfig(
                num_localities=2,
                tail=TailConfig(),
                crash_recovery=RecoveryConfig(),
            )


class TestTailManagerUnits:
    """Hedging/fencing arithmetic on a constructed (never run) runtime."""

    def _manager(self, tail):
        rt = DistRuntime(
            DistConfig(
                num_localities=N,
                seed=SEED,
                retry=RetryParams(),
                crash_recovery=RecoveryConfig(),
                tail=tail,
            )
        )
        return rt.tail_manager

    def test_no_hedge_delay_before_min_samples(self):
        tm = self._manager(TailConfig(min_samples=4))
        assert tm.hedge_delay_ns(0, 1) is None
        for _ in range(3):
            tm.note_ack_rtt(0, 1, 10_000)
        assert tm.hedge_delay_ns(0, 1) is None

    def test_hedge_delay_is_multiplied_quantile(self):
        tm = self._manager(
            TailConfig(
                min_samples=4,
                hedge_min_delay_ns=0,
            )
        )
        for _ in range(4):
            tm.note_ack_rtt(0, 1, 10_000)
        assert tm.hedge_delay_ns(0, 1) == 20_000
        # The link is directional and the sketch is per-link.
        assert tm.hedge_delay_ns(1, 0) is None

    def test_hedge_delay_floor(self):
        tm = self._manager(TailConfig(min_samples=1, hedge_min_delay_ns=50_000))
        tm.note_ack_rtt(0, 1, 1_000)
        assert tm.hedge_delay_ns(0, 1) == 50_000

    def test_hedging_disabled_means_no_delay(self):
        tm = self._manager(TailConfig(hedge=False, min_samples=1))
        tm.note_ack_rtt(0, 1, 10_000)
        assert tm.hedge_delay_ns(0, 1) is None

    def test_fencing_defaults(self):
        tm = self._manager(TailConfig())
        for p in range(N):
            assert tm.epoch_of(p) == 0
            assert not tm.is_fenced(p)
            assert not tm.is_stale(p, 0)

    def test_fencing_disabled_never_stale(self):
        tm = self._manager(TailConfig(fencing=False))
        tm.on_declare(1)
        assert tm.epoch_of(1) == 0
        assert not tm.is_fenced(1)
        assert not tm.is_stale(1, 0)


class TestDisabledTail:
    def test_no_tail_fields_without_tail_config(self):
        _, result, values = _run(stragglers=(STRAGGLER,), tail=None)
        assert values == _reference()
        assert result.degraded_events == 0
        assert result.localities_degraded == 0
        assert result.hedges_armed == 0
        assert result.tasks_speculated == 0
        assert result.fenced_rejections == 0
        assert not any("/tail" in n for n in result.counters.values)


class TestDetectorDeclarationInterplay:
    def test_straggler_alone_is_degraded_never_declared(self):
        rt, result, values = _run(stragglers=(STRAGGLER,), tail=_tail_config())
        assert values == _reference()
        assert result.crashes_detected == 0
        assert result.degraded_events > 0
        assert rt.tail_manager.degraded_localities == (STRAGGLER.locality,)

    def test_crash_alone_is_declared(self):
        _, result, values = _run(crashes=(CRASH,), tail=_tail_config())
        assert values == _reference()
        assert result.crashes_detected == 1

    def test_straggler_beside_crash_one_declaration_one_flag(self):
        rt, result, values = _run(
            crashes=(CRASH,), stragglers=(STRAGGLER,), tail=_tail_config()
        )
        tm = rt.tail_manager
        # Exactly one declaration: the crash.  The straggler stays gray.
        assert result.crashes_detected == 1
        assert result.degraded_events > 0
        assert tm.degraded_localities == (STRAGGLER.locality,)
        assert not tm.is_fenced(STRAGGLER.locality)
        # The declared locality is fenced, not degraded.
        assert tm.is_fenced(CRASH.locality)
        assert tm.epoch_of(CRASH.locality) == 1
        assert tm.is_stale(CRASH.locality, 0)
        assert not tm.is_stale(CRASH.locality, 1)
        assert len(tm._fence_notes) == 1
        # Speculation beside in-flight recovery must not double-execute
        # restored tasks: values match the serial reference and the
        # speculation/parcel ledgers balance.
        assert values == _reference()
        SPECULATION_CONSERVED.require(result)
        PARCELS_CONSERVED.require(result)

    def test_tail_counters_exported(self):
        _, result, _ = _run(stragglers=(STRAGGLER,), tail=_tail_config())
        names = result.counters.values
        for loc in range(N):
            assert f"/tail{{locality#{loc}/total}}/count/degraded@gauge" in names
            assert f"/tail{{locality#{loc}/total}}/count/speculations" in names


class TestSpeculationLedger:
    def test_ledger_identities_under_straggle(self):
        _, result, values = _run(stragglers=(STRAGGLER,), tail=_tail_config())
        assert values == _reference()
        assert result.tasks_speculated > 0
        assert (
            result.speculation_wins + result.speculations_cancelled
            == result.tasks_speculated
        )
        assert result.originals_cancelled <= result.speculation_wins
        assert result.hedges_sent == result.hedges_won + result.hedges_lost
        assert (
            result.hedges_armed
            == result.hedges_sent + result.hedges_cancelled
        )
        SPECULATION_CONSERVED.require(result)

    def test_speculation_respects_budget(self):
        rt, result, _ = _run(stragglers=(STRAGGLER,), tail=_tail_config())
        assert result.tasks_speculated <= rt.tail_manager.speculation_budget

    def test_speculation_disabled(self):
        _, result, values = _run(
            stragglers=(STRAGGLER,), tail=_tail_config(speculate=False)
        )
        assert values == _reference()
        assert result.tasks_speculated == 0
        assert result.originals_cancelled == 0


class TestUseTailCorpusDensity:
    def test_fuzz_corpus_takes_the_tail_leg(self):
        specs = [generate_spec(seed) for seed in range(50)]
        tailed = [s for s in specs if s.use_tail]
        assert len(tailed) >= 10
        assert all(s.num_localities >= 2 for s in tailed)
