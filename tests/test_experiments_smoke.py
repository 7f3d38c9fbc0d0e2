"""Integration tests: every experiment runs end-to-end at smoke scale.

These tests verify the harness machinery (runners produce well-formed
FigureResults, the CLI drives them, markdown renders); the *scientific*
shape checks are exercised at bench/default scale by the benchmarks and the
EXPERIMENTS.md generation, because several shapes need more tasks per core
than the smoke scale provides.  The Xeon Phi figures fig5 and fig10 also
assert theirs at bench scale here, as slow tests.

Some runners also pin their exact series against ``tests/golden/`` (see
``tests/_golden.py``), so a refactor that moves any reproduced value fails
here even when every shape check still passes.
"""

import pytest

from repro.experiments import cli
from repro.experiments.config import get_scale
from tests._golden import assert_golden

SMOKE = get_scale("smoke")


class TestTable1:
    def test_run_and_checks(self):
        from repro.experiments import table1_platforms as exp

        fig = exp.run(SMOKE)
        assert exp.shape_checks(fig) == []
        assert "Table I" in fig.notes[0]
        assert "28" in fig.notes[0]  # Haswell cores
        assert_golden(fig, "table1")


class TestFigureRunnersSmoke:
    """Each runner produces panels/series of the expected shape."""

    def test_fig3_single_platform(self):
        from repro.experiments import fig3_execution_time as exp

        fig = exp.run(SMOKE.with_(points_per_decade=1), platforms=["sandy-bridge"])
        (panel,) = fig.panels
        assert "Sandy Bridge" in panel
        series = fig.panels[panel]
        assert len(series) == 6  # the paper's SB core counts
        assert all(s.points for s in series)
        assert_golden(fig, "fig3-sandy-bridge")

    @pytest.mark.slow
    def test_fig3_series_pinned(self):
        # All four platforms at every paper core count: Priority Local on
        # each machine shape the figures use (about 10 s).
        from repro.experiments import fig3_execution_time as exp

        assert_golden(exp.run(SMOKE), "fig3")

    def test_fig4_structure(self):
        from repro.experiments import fig4_idle_rate_haswell as exp

        fig = exp.run(SMOKE.with_(points_per_decade=1))
        assert set(fig.panels) == {
            "haswell 8 cores", "haswell 16 cores", "haswell 28 cores",
        }
        for series_list in fig.panels.values():
            labels = {s.label for s in series_list}
            assert labels == {"execution time (s)", "idle-rate"}
            idle = next(s for s in series_list if s.label == "idle-rate")
            assert all(0.0 <= y <= 1.0 for _, y in idle.points)
        assert_golden(fig, "fig4")

    def test_fig6_wait_times_positive_masses(self):
        from repro.experiments import fig6_wait_time as exp

        fig = exp.run(SMOKE)
        (panel,) = fig.panels
        assert len(fig.panels[panel]) == 4  # 4/8/16/28 cores
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        assert_golden(fig, "fig6")

    def test_fig7_series_complete(self):
        from repro.experiments import fig7_decomposition_haswell as exp

        fig = exp.run(SMOKE.with_(points_per_decade=1))
        for series_list in fig.panels.values():
            assert {s.label for s in series_list} == {
                "Exec Time", "HPX-TM", "WT", "HPX-TM & WT",
            }
        assert_golden(fig, "fig7")

    def test_fig9_series_complete(self):
        from repro.experiments import fig9_pending_queue_haswell as exp

        fig = exp.run(SMOKE.with_(points_per_decade=1))
        for series_list in fig.panels.values():
            assert {s.label for s in series_list} == {
                "execution time (s)", "pending-Q accesses",
            }
            accesses = next(
                s for s in series_list if s.label == "pending-Q accesses"
            )
            assert all(y > 0 for _, y in accesses.points)
        assert_golden(fig, "fig9")

    def test_fig5_series_pinned(self):
        from repro.experiments import fig5_idle_rate_phi as exp

        assert_golden(exp.run(SMOKE), "fig5")

    def test_fig8_series_pinned(self):
        from repro.experiments import fig8_decomposition_phi as exp

        assert_golden(exp.run(SMOKE), "fig8")

    def test_fig10_series_pinned(self):
        from repro.experiments import fig10_pending_queue_phi as exp

        assert_golden(exp.run(SMOKE), "fig10")

    def test_ablations_series_pinned(self):
        # Sweeps every registered scheduler, qos and rt-edf included.
        from repro.experiments import ablations as exp

        assert_golden(exp.run(SMOKE), "ablations")

    def test_selection_outcomes_attached(self):
        from repro.experiments import selection_experiment as exp

        fig = exp.run(SMOKE)
        outcomes = fig.outcomes  # type: ignore[attr-defined]
        assert [o.rule for o in outcomes] == [
            "min-time-oracle", "idle-rate<=30%", "min-pending-accesses",
        ]
        assert outcomes[0].slowdown == 1.0
        assert_golden(fig, "selection")


class TestXeonPhiShapesAtBenchScale:
    """The Xeon Phi figures' shape checks need bench scale's tasks per
    core; each run takes a few seconds now that idle searches are O(1)."""

    @pytest.mark.slow
    def test_fig5_shape_checks(self):
        from repro.experiments import fig5_idle_rate_phi as exp

        problems = exp.shape_checks(exp.run(get_scale("bench")))
        assert problems == [], problems

    @pytest.mark.slow
    def test_fig10_shape_checks(self):
        from repro.experiments import fig10_pending_queue_phi as exp

        problems = exp.shape_checks(exp.run(get_scale("bench")))
        assert problems == [], problems


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in cli.EXPERIMENT_MODULES:
            assert name in out

    def test_run_table1(self, capsys):
        rc = cli.main(["table1", "--scale", "smoke", "--no-plots"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all shape checks passed" in out

    def test_markdown_output(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        rc = cli.main(
            ["table1", "--scale", "smoke", "--no-plots", "--markdown", str(path)]
        )
        assert rc == 0
        text = path.read_text()
        assert "## table1" in text
        assert "**Paper claims**" in text
        assert "**Shape checks**" in text

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            cli.run_experiment("fig99", "smoke")

    def test_no_experiments_errors(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_all_expands(self):
        # Don't actually run 'all' (slow); check the expansion logic via
        # the registry being non-trivial.
        assert len(cli.EXPERIMENT_MODULES) == 23

    def test_list_subcommand(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for figure in ("figT", "figD", "figR", "figQ", "figC", "figE", "figH"):
            assert figure in out
        # One line per experiment: name plus its one-line title.
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(cli.EXPERIMENT_MODULES)
        assert any("METG" in line for line in lines)


class TestFigRSmoke:
    """figR (resilience vs grain) runs end-to-end at smoke scale.

    Unlike most figures, figR's shape checks are asserted at smoke scale
    too: determinism, validation, conservation and the retransmission/
    recovery scaling hold at any scale by construction, and the grain
    grid is wide enough for the minimum shift even at smoke.
    """

    def test_run_and_checks(self):
        from repro.experiments import figR_resilience_grain as exp

        fig = exp.run(SMOKE)
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        summary = next(p for p in fig.panels if p.startswith("summary"))
        labels = {s.label for s in fig.panels[summary]}
        assert "best grain (points)" in labels
        assert "determinism (1 = bit-identical rerun)" in labels
        assert "validated (1 = matches serial reference)" in labels
        # One panel per drop rate plus the summary.
        assert len(fig.panels) == len(exp.DROP_RATES) + 1
        assert_golden(fig, "figR")


class TestFigCSmoke:
    """figC (crash recovery vs grain) runs end-to-end at smoke scale.

    Recovery conservation, bit-identical reruns, the legacy death with
    recovery off and the best checkpoint interval coarsening with the
    grain are properties of the recovery stack, so they are asserted at
    smoke scale, together with the figure's exact series pin.
    """

    def test_run_and_checks(self):
        from repro.experiments import figC_crash_recovery as exp

        fig = exp.run(SMOKE)
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        labels = {s.label for s in fig.panels["summary (x = grain ns)"]}
        assert "best checkpoint interval (ns)" in labels
        assert "determinism (1 = bit-identical rerun)" in labels
        # One panel per grain plus the summary.
        assert len(fig.panels) == len(exp.GRAINS_NS) + 1
        assert_golden(fig, "figC")


class TestFigTSmoke:
    """figT (Task Bench METG) runs end-to-end at smoke scale.

    Like figR, figT asserts its shape checks at smoke scale too: the
    pattern ordering, METG monotonicity, selection-rule containment and
    determinism are all properties of the simulator, not of sweep density,
    and the smoke grid (64x8, 2 grains/decade) resolves them.
    """

    def test_run_and_checks(self):
        from repro.experiments import figT_taskbench_metg as exp

        fig = exp.run(SMOKE)
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        labels = {s.label for s in fig.panels["summary"]}
        assert "METG(50%) by pattern (x = catalogue index)" in labels
        assert "METG(50%) vs cores (stencil_1d)" in labels
        assert "bit-identical rerun (1 = yes)" in labels
        curves = fig.panels[f"efficiency vs grain ({exp.CORES} cores)"]
        assert {s.label for s in curves} == set(exp.METG_PATTERNS)
        assert_golden(fig, "figT")


class TestFigOSmoke:
    """figO (overload control) runs end-to-end at smoke scale.

    Like figR/figT, figO's shape checks are asserted at smoke scale too:
    divergence-vs-plateau, bound enforcement, breaker capping, governor
    convergence, determinism and conservation are properties of the
    control stack, not of sweep density.
    """

    def test_run_and_checks(self):
        from repro.experiments import figO_overload as exp

        fig = exp.run(SMOKE)
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        labels = {s.label for s in fig.panels["summary"]}
        assert "determinism (1 = bit-identical rerun)" in labels
        assert "conservation violations" in labels
        goodput = {s.label for s in fig.panels["A admission: goodput"]}
        assert goodput == set(exp.POLICIES)
        assert_golden(fig, "figO")


class TestFigQSmoke:
    """figQ (QoS priority isolation) runs end-to-end at smoke scale.

    Like figR/figT/figO, figQ's shape checks are asserted at smoke scale
    too: isolation, class-aware shedding, the ablation gap, determinism
    and conservation are properties of the QoS stack, not of sweep
    density, and the fixed 300 us arrival window already yields hundreds
    of latency samples per tenant.
    """

    def test_run_and_checks(self):
        from repro.experiments import figQ_qos_isolation as exp

        fig = exp.run(SMOKE)
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        labels = {s.label for s in fig.panels["summary"]}
        assert "determinism (1 = bit-identical rerun)" in labels
        assert "conservation violations" in labels
        tenants = {s.label for s in fig.panels["A p99 sojourn (us)"]}
        assert tenants == {"web", "api", "etl"}
        ablation = {s.label for s in fig.panels["C scheduler ablation at 4x"]}
        assert "web p99 (us)" in ablation
        assert_golden(fig, "figQ")


class TestFigESmoke:
    """figE (deadline-miss rate vs grain) runs end-to-end at smoke scale.

    The RT shape claims — the miss-rate U at the baseline overhead
    regime, the best grain strictly coarsening with overhead, the
    protocol contrast (inversion under ``none``, bounded blocking under
    inheritance), determinism and conservation — are properties of the
    stack, not of sweep density, so they are asserted at smoke scale
    with the reduced grain/regime grid.
    """

    def test_run_and_checks(self):
        from repro.experiments import figE_rt_deadline as exp

        fig = exp.run(SMOKE)
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        labels = {s.label for s in fig.panels["summary"]}
        assert "determinism (1 = bit-identical rerun)" in labels
        assert "conservation violations" in labels
        for scheduler in exp.SCHEDULERS_SMOKE:
            panel = f"miss rate vs grain ({scheduler})"
            factors = {s.label for s in fig.panels[panel]}
            assert factors == {
                f"overhead x{f:g}" for f in exp.FACTORS_SMOKE
            }
        protocols = {
            s.label for s in fig.panels["resource protocols at valley grain"]
        }
        assert protocols == {
            "inversions",
            "max blocked (ns)",
            "ctrl deadline misses",
        }
        assert_golden(fig, "figE")


class TestFigHSmoke:
    """figH (tail tolerance vs grain) runs end-to-end at smoke scale.

    The gray-failure shape claims — the unprotected best grain coarsening
    with straggler severity, the hedged/speculating leg bounded by 2x
    fault-free, speculation within budget, zero crash declarations, and
    bit-identical reruns — are properties of the stack, not of sweep
    density, so they are asserted in full at smoke scale.
    """

    def test_run_and_checks(self):
        from repro.experiments import figH_tail_tolerance as exp

        fig = exp.run(SMOKE)
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        summary = "summary (x = straggler severity)"
        labels = {s.label for s in fig.panels[summary]}
        assert "determinism (1 = bit-identical rerun)" in labels
        assert "best grain, tail off (ns)" in labels
        assert "speculation budget" in labels
        for severity in exp.SEVERITIES:
            panel = f"{exp.PLATFORM} straggler {severity:g}x"
            legs = {s.label for s in fig.panels[panel]}
            assert legs == {
                "tail tolerance on: p99 makespan (s)",
                "tail tolerance off: p99 makespan (s)",
            }
        assert_golden(fig, "figH")

    def test_severe_straggler_stays_gray(self):
        from repro.experiments import figH_tail_tolerance as exp

        result, _ = exp.run_cell(
            10, 4, severity=exp.SEVERITIES[-1], tail_on=True, seed=exp.SEED
        )
        assert result.crashes_detected == 0
        assert result.degraded_events > 0
        assert result.tasks_speculated > 0


class TestExtensionExperimentsSmoke:
    """The extension experiments run end-to-end at smoke scale."""

    @pytest.mark.slow
    def test_throttling_runs(self):
        from repro.experiments import throttling_experiment as exp

        fig = exp.run(SMOKE)
        (panel,) = fig.panels
        labels = {s.label for s in fig.panels[panel]}
        assert "plain (28 workers)" in labels
        assert "throttled" in labels
        assert "final worker limit" in labels
        assert_golden(fig, "throttling")

    @pytest.mark.slow
    def test_cov_runs(self):
        from repro.experiments import cov_experiment as exp

        fig = exp.run(SMOKE.with_(points_per_decade=1))
        (panel,) = fig.panels
        for series in fig.panels[panel]:
            assert all(v >= 0.0 for _, v in series.points)
        assert_golden(fig, "cov")

    @pytest.mark.slow
    def test_wavefront_runs_and_checks(self):
        from repro.experiments import wavefront_generality as exp

        fig = exp.run(SMOKE)
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        assert_golden(fig, "wavefront")

    def test_tuner_converges_and_is_pinned(self):
        from repro.experiments import tuner_experiment as exp

        fig = exp.run(SMOKE)
        problems = exp.shape_checks(fig)
        assert problems == [], problems
        assert_golden(fig, "tuner")
