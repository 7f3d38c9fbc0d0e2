"""The PF4xx invariant objects: catalogue wiring, verdicts, legacy text."""

import pytest

from repro.analysis.findings import RULES, Severity
from repro.counters.registry import CounterSnapshot
from repro.dist.runtime import DistRunResult
from repro.runtime.runtime import RunResult
from repro.verify.invariants import (
    ADMISSION_CONSERVED,
    ANALYSIS_CLEAN,
    DEPENDENCY_ORDER_CONSERVED,
    INVARIANTS,
    PARCELS_CONSERVED,
    RECOVERY_CONSERVED,
    RERUN_IDENTICAL,
    SPECULATION_CONSERVED,
    SPILL_CONSERVED,
    TASKS_CONSERVED,
)


def _snapshot(values=None):
    return CounterSnapshot(timestamp_ns=0, values=values or {}, average_pairs={})


#: DistRunResult field -> the locality-0 counter it folds
_COUNTER_OF = {
    field: f"/{family}{{locality#0/total}}/{path}"
    for field, family, path in (
        ("parcels_sent", "parcels", "count/sent"),
        ("parcels_received", "parcels", "count/received"),
        ("parcels_dropped", "parcels", "count/dropped"),
        ("parcels_retransmitted", "parcels", "count/retransmitted"),
        ("duplicates_discarded", "parcels", "count/duplicates-discarded"),
        ("crashes_detected", "recovery", "count/declared"),
        ("tasks_checkpointed", "recovery", "count/checkpointed"),
        ("tasks_restored", "recovery", "count/restored"),
        ("tasks_reexecuted", "recovery", "count/reexecuted"),
        ("tasks_lost", "recovery", "count/lost"),
        ("detection_ns", "recovery", "time/detection"),
        ("restore_ns", "recovery", "time/restore"),
        ("reexecution_ns", "recovery", "time/reexecution"),
        ("recovery_total_ns", "recovery", "time/total"),
        ("hedges_armed", "tail", "count/hedges-armed"),
        ("hedges_sent", "tail", "count/hedges-sent"),
        ("hedges_won", "tail", "count/hedges-won"),
        ("hedges_lost", "tail", "count/hedges-lost"),
        ("hedges_cancelled", "tail", "count/hedges-cancelled"),
        ("tasks_speculated", "tail", "count/speculations"),
        ("speculation_wins", "tail", "count/speculation-wins"),
        ("speculations_cancelled", "tail", "count/speculations-cancelled"),
        ("originals_cancelled", "tail", "count/originals-cancelled"),
        ("speculation_budget", "tail", "count/speculation-budget@gauge"),
    )
}


def _dist_result(**fields) -> DistRunResult:
    """A one-locality result whose named fields read the given values
    through a synthetic counter snapshot."""
    values = {_COUNTER_OF[name]: float(v) for name, v in fields.items()}
    result = DistRunResult(
        execution_time_ns=1_000,
        counters=_snapshot(values),
        per_locality=(_snapshot(),),
        platform_name="haswell",
        num_localities=1,
        cores_per_locality=2,
        tasks_executed=4,
    )
    for name, value in fields.items():
        assert getattr(result, name) == value, name
    return result


def _run_result(values=None, **overrides) -> RunResult:
    base = dict(
        execution_time_ns=1_000,
        counters=_snapshot(values),
        platform_name="haswell",
        num_cores=2,
        tasks_executed=4,
    )
    base.update(overrides)
    return RunResult(**base)


# -- catalogue wiring --------------------------------------------------------------


def test_every_invariant_rule_is_in_the_shared_catalogue():
    for inv in INVARIANTS.values():
        assert inv.rule_id in RULES
        assert RULES[inv.rule_id].severity is Severity.ERROR


def test_findings_resolve_severity_through_the_catalogue():
    findings = ADMISSION_CONSERVED.check(10, 4, 5)
    assert len(findings) == 1
    assert findings[0].rule_id == "PF404"
    assert findings[0].severity is Severity.ERROR


# -- PF401: parcel conservation ----------------------------------------------------


def test_parcels_conserved_holds_on_balanced_books():
    result = _dist_result(
        parcels_sent=7, parcels_retransmitted=2,
        parcels_received=6, parcels_dropped=2, duplicates_discarded=1,
    )
    assert PARCELS_CONSERVED.holds(result)
    assert PARCELS_CONSERVED.check(result) == []


def test_parcels_conserved_failure_text_is_the_legacy_text():
    """Regression: the shared invariant must raise the *identical* message
    the hand-rolled ``assert_parcels_conserved`` raised before extraction —
    both via ``require`` and via the method that now delegates to it."""
    result = _dist_result(
        parcels_sent=3, parcels_retransmitted=1,
        parcels_received=2, parcels_dropped=0, duplicates_discarded=0,
    )
    expected = (
        "parcel conservation violated: 3 sent + 1 retransmitted != "
        "2 received + 0 dropped + 0 duplicates discarded"
    )
    with pytest.raises(AssertionError) as via_invariant:
        PARCELS_CONSERVED.require(result)
    assert str(via_invariant.value) == expected
    with pytest.raises(AssertionError) as via_method:
        result.assert_parcels_conserved()
    assert str(via_method.value) == expected


# -- PF408: recovery conservation, one violating snapshot per clause --------------

#: a recovered run whose books balance: 3 lost and re-executed, 2 restored
#: from 5 checkpointed, and the recovery time decomposing exactly
_RECOVERED = dict(
    crashes_detected=1, tasks_lost=3, tasks_reexecuted=3,
    tasks_restored=2, tasks_checkpointed=5,
    detection_ns=100, restore_ns=20, reexecution_ns=300,
    recovery_total_ns=420,
)


def test_recovery_conserved_holds_on_balanced_books():
    assert RECOVERY_CONSERVED.holds(_dist_result(**_RECOVERED))
    assert RECOVERY_CONSERVED.holds(_dist_result())


@pytest.mark.parametrize(
    "fields, text",
    [
        (dict(tasks_lost=2, tasks_reexecuted=2), "with no crash declared"),
        ({**_RECOVERED, "tasks_reexecuted": 2},
         "3 task(s) lost to the crash but 2 re-executed"),
        ({**_RECOVERED, "tasks_restored": 6},
         "6 task(s) restored exceeds the 5 ever made durable"),
        ({**_RECOVERED, "recovery_total_ns": 421},
         "time-to-recover 421 ns != detection 100 + restore 20 + "
         "re-execution 300 ns"),
    ],
    ids=["lost-without-crash", "lost-not-reexecuted", "restore-not-durable",
         "time-not-decomposed"],
)
def test_recovery_conserved_names_each_violated_clause(fields, text):
    findings = RECOVERY_CONSERVED.check(_dist_result(**fields))
    assert [f.rule_id for f in findings] == ["PF408"]
    assert findings[0].message.startswith("recovery conservation violated: ")
    assert text in findings[0].message


# -- PF410: speculation conservation, one violating snapshot per clause -----------

#: 4 clones (3 won, 1 called off, 2 originals cancelled) within a budget of
#: 5, and 6 hedges armed (4 sent: 3 won, 1 lost; 2 cancelled)
_SPECULATED = dict(
    tasks_speculated=4, speculation_wins=3, speculations_cancelled=1,
    originals_cancelled=2, speculation_budget=5,
    hedges_armed=6, hedges_sent=4, hedges_won=3, hedges_lost=1,
    hedges_cancelled=2,
)


def test_speculation_conserved_holds_on_balanced_books():
    assert SPECULATION_CONSERVED.holds(_dist_result(**_SPECULATED))
    assert SPECULATION_CONSERVED.holds(_dist_result())


@pytest.mark.parametrize(
    "fields, text",
    [
        ({**_SPECULATED, "speculation_wins": 2},
         "4 task(s) speculated != 2 clone wins + 1 called off"),
        ({**_SPECULATED, "originals_cancelled": 4},
         "4 original(s) cancelled exceeds 3 clone win(s)"),
        ({**_SPECULATED, "hedges_won": 2},
         "4 hedge(s) sent != 2 won + 1 deduplicated"),
        ({**_SPECULATED, "hedges_cancelled": 1},
         "6 hedge timer(s) armed != 4 fired + 1 cancelled"),
        ({**_SPECULATED, "speculation_budget": 3},
         "4 task(s) speculated exceeds the work-amplification budget of 3"),
        # Only an inconsistent ledger reaches this clause: with no clone
        # speculated, the first two clauses already forbid any cancelled
        # original unless the call-off count is negative.
        (dict(speculation_wins=1, speculations_cancelled=-1,
              originals_cancelled=1),
         "1 original(s) cancelled with no speculation launched"),
    ],
    ids=["unresolved-clone", "original-without-win", "hedge-fate",
         "hedge-timer", "over-budget", "cancel-without-speculation"],
)
def test_speculation_conserved_names_each_violated_clause(fields, text):
    findings = SPECULATION_CONSERVED.check(_dist_result(**fields))
    assert [f.rule_id for f in findings] == ["PF410"]
    assert findings[0].message.startswith(
        "speculation conservation violated: "
    )
    assert text in findings[0].message


# -- PF402 / PF403 -----------------------------------------------------------------


def test_tasks_conserved_verdicts():
    assert TASKS_CONSERVED.holds(12, 0, 12)
    assert "never became ready" in TASKS_CONSERVED.check(12, 3, 9)[0].message
    assert "executed 13" in TASKS_CONSERVED.check(12, 0, 13)[0].message


def test_dependency_order_verdicts():
    assert DEPENDENCY_ORDER_CONSERVED.holds(0xAB, 0xAB)
    found = DEPENDENCY_ORDER_CONSERVED.check(0xAB, 0xAC, backend="thread")
    assert found[0].rule_id == "PF403"
    assert "thread" in found[0].message


# -- PF404: counter identities -----------------------------------------------------


def test_admission_conserved_verdicts():
    assert ADMISSION_CONSERVED.holds(10, 7, 3)
    assert not ADMISSION_CONSERVED.holds(10, 7, 2)


def test_spill_conserved_reads_the_overload_counters():
    good = _run_result(
        {"/overload/count/spilled": 4.0, "/overload/count/readmitted": 4.0}
    )
    bad = _run_result(
        {"/overload/count/spilled": 4.0, "/overload/count/readmitted": 3.0}
    )
    assert SPILL_CONSERVED.holds(good)
    assert "spill conservation violated" in SPILL_CONSERVED.check(bad)[0].message


# -- PF405 / PF406 -----------------------------------------------------------------


def test_analysis_clean_passes_none_through():
    assert ANALYSIS_CLEAN.holds(None)
    assert "DC301" in ANALYSIS_CLEAN.check("DC301: leaked", backend="sim")[0].message


def test_rerun_identical_compares_time_then_counters():
    a = _run_result({"/threads/count/cumulative": 4.0})
    same = _run_result({"/threads/count/cumulative": 4.0})
    slower = _run_result(
        {"/threads/count/cumulative": 4.0}, execution_time_ns=2_000
    )
    other = _run_result({"/threads/count/cumulative": 5.0})
    assert RERUN_IDENTICAL.holds(a, same)
    assert "execution time" in RERUN_IDENTICAL.check(a, slower)[0].message
    assert "counters differ" in RERUN_IDENTICAL.check(a, other)[0].message
