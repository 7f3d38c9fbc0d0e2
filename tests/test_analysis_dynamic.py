"""Dynamic ``check=True`` mode: leaks, cycles, and lockset races.

The acceptance bar: the checkers must catch an *injected* dependency cycle
and a leaked future under both runtimes, while leaving clean programs
untouched, and the lockset monitor must flag unlocked cross-thread mutation
but not lock-guarded access.
"""

import threading

import pytest

from repro import Future, Runtime, RuntimeConfig, ThreadRuntime
from repro.analysis import CheckError, RuntimeChecker


# -- simulated runtime -------------------------------------------------------------


def test_clean_run_passes_checks():
    rt = Runtime(RuntimeConfig(num_cores=2, check=True))
    parts = [rt.async_(lambda i=i: i) for i in range(8)]
    total = rt.dataflow(lambda *xs: sum(xs), parts, name="total")
    rt.run()
    assert total.value == sum(range(8))


def test_leaked_future_detected_at_run_end():
    rt = Runtime(RuntimeConfig(num_cores=2, check=True))
    never = Future("never")  # nobody will ever satisfy this
    rt.dataflow(lambda x: x, [never], name="starved")
    with pytest.raises(CheckError) as exc_info:
        rt.run()
    findings = exc_info.value.findings
    assert [f.rule_id for f in findings] == ["DC301"]
    assert "'starved'" in findings[0].message


def test_injected_dependency_cycle_detected_before_run():
    rt = Runtime(RuntimeConfig(num_cores=2, check=True))
    a = rt.dataflow(lambda x: x, [Future("seed")], name="a")
    b = rt.dataflow(lambda x: x, [a], name="b")
    # Inject the back edge a <- b, closing the cycle a -> b -> a.
    a.dependencies = (b,)
    with pytest.raises(CheckError) as exc_info:
        rt.run()
    findings = exc_info.value.findings
    assert any(f.rule_id == "DC302" for f in findings)
    msg = next(f.message for f in findings if f.rule_id == "DC302")
    assert "a" in msg and "b" in msg


def test_check_off_means_no_registration_overhead():
    rt = Runtime(num_cores=2)
    assert rt.checker is None
    rt.async_(lambda: 1)
    rt.run()


# -- thread runtime ----------------------------------------------------------------


def test_thread_runtime_clean_shutdown_passes():
    with ThreadRuntime(num_workers=2, check=True) as rt:
        fs = [rt.async_(lambda i=i: i * i) for i in range(10)]
        total = rt.dataflow(lambda *xs: sum(xs), fs)
        assert rt.wait(total) == sum(i * i for i in range(10))


def test_thread_runtime_leaked_future_detected_at_shutdown():
    rt = ThreadRuntime(num_workers=2, check=True).start()
    never = Future("never")
    rt.dataflow(lambda x: x, [never], name="starved")
    with pytest.raises(CheckError) as exc_info:
        rt.shutdown()
    assert any(f.rule_id == "DC301" for f in exc_info.value.findings)


def test_thread_runtime_injected_cycle_detected_at_shutdown():
    rt = ThreadRuntime(num_workers=2, check=True).start()
    seed = Future("seed")
    a = rt.dataflow(lambda x: x, [seed], name="a")
    b = rt.dataflow(lambda x: x, [a], name="b")
    a.dependencies = (b,)
    with pytest.raises(CheckError) as exc_info:
        rt.shutdown()
    assert any(f.rule_id == "DC302" for f in exc_info.value.findings)


def test_unclean_shutdown_skips_checks():
    # wait=False means we did not drain; pending futures are not "leaks".
    rt = ThreadRuntime(num_workers=1, check=True).start()
    rt.dataflow(lambda x: x, [Future("never")])
    rt.shutdown(wait=False)  # must not raise


# -- lockset monitor ----------------------------------------------------------------


def _hammer(state, n_threads: int = 4, iters: int = 200, lock=None):
    """Increment state["n"] from several threads, optionally locked."""

    def work():
        for _ in range(iters):
            if lock is not None:
                with lock:
                    state["n"] = state["n"] + 1
            else:
                state["n"] = state["n"] + 1

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_lockset_detects_unlocked_cross_thread_writes():
    checker = RuntimeChecker("test")
    state = checker.monitor({"n": 0}, "counter")
    _hammer(state)
    findings = checker.race_findings()
    assert len(findings) == 1
    assert findings[0].rule_id == "DC303"
    assert "counter['n']" in findings[0].message


def test_lockset_detects_writes_from_threads_that_never_overlap():
    # Each writer is joined before the next starts, so the OS may hand the
    # second thread the first one's ident; the race must be seen anyway.
    def write(state):
        state["n"] = state["n"] + 1

    for pair in range(20):
        checker = RuntimeChecker("test")
        state = checker.monitor({"n": 0}, f"counter{pair}")
        for _ in range(2):
            writer = threading.Thread(target=write, args=(state,))
            writer.start()
            writer.join()
        assert [f.rule_id for f in checker.race_findings()] == ["DC303"], pair


def test_lockset_accepts_lock_guarded_writes():
    checker = RuntimeChecker("test")
    state = checker.monitor({"n": 0}, "counter")
    lock = checker.tracked_lock("counter-lock")
    _hammer(state, lock=lock)
    assert checker.race_findings() == []
    assert state["n"] == 800  # and the lock actually serialized the updates


def test_lockset_single_thread_is_never_a_race():
    checker = RuntimeChecker("test")
    state = checker.monitor([0], "arr")
    for _ in range(100):
        state[0] = state[0] + 1
    assert checker.race_findings() == []


def test_lockset_read_only_sharing_is_clean():
    checker = RuntimeChecker("test")
    state = checker.monitor({"n": 42}, "config")
    reads = []

    def read():
        for _ in range(50):
            reads.append(state["n"])

    threads = [threading.Thread(target=read) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert checker.race_findings() == []
    assert set(reads) == {42}


def test_monitor_inside_thread_runtime_tasks():
    # A barrier forces the four tasks onto four distinct worker threads at
    # the same time (tiny tasks would otherwise all land on one worker and
    # single-thread access is, correctly, not a race).
    barrier = threading.Barrier(4, timeout=10.0)
    rt = ThreadRuntime(num_workers=4, check=True).start()
    shared = rt.checker.monitor({"hits": 0}, "shared")

    def bump():
        barrier.wait()
        shared["hits"] = shared["hits"] + 1

    fs = [rt.async_(bump) for _ in range(4)]
    for f in fs:
        rt.wait(f)
    # 4 threads, no lock: the monitor must flag it (the increment itself
    # may or may not lose updates under the GIL — the *lockset* is empty
    # either way, which is the point of Eraser-style checking), and the
    # checked shutdown must surface it.
    assert [f.rule_id for f in rt.checker.race_findings()] == ["DC303"]
    with pytest.raises(CheckError) as exc_info:
        rt.shutdown()
    assert any(f.rule_id == "DC303" for f in exc_info.value.findings)


def test_monitor_findings_do_not_fail_clean_shutdown_when_guarded():
    with ThreadRuntime(num_workers=4, check=True) as rt:
        lock = rt.checker.tracked_lock("shared-lock")
        shared = rt.checker.monitor({"hits": 0}, "shared")

        def bump():
            with lock:
                shared["hits"] = shared["hits"] + 1

        fs = [rt.async_(bump) for _ in range(16)]
        for f in fs:
            rt.wait(f)
    assert shared["hits"] == 16
