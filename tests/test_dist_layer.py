"""The layer protocol (``repro.layer``)."""

import pytest

from repro.counters.registry import CounterRegistry
from repro.dist import DistConfig, DistRuntime, RetryParams
from repro.dist.network import NetworkModel
from repro.dist.parcel import Parcelport
from repro.layer import Layer, implementers
from repro.recovery import RecoveryConfig
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.task import Task
from repro.runtime.work import FixedWork
from repro.sim.engine import Simulator

#: every hook a parcelport calls, once per protocol step of a parcel
PORT_HOOKS = (
    "on_send", "hold", "on_park", "on_unpark", "on_transmit", "on_arrive",
    "on_ack", "on_timeout", "on_settle", "on_halt",
)


class RejectFirstSend(Layer):
    """Rejects the first send it sees, then lets every send through."""

    def __init__(self) -> None:
        self.sends = 0

    def on_send(self, port, parcel) -> None:
        self.sends += 1
        if self.sends == 1:
            raise RuntimeError("rejected")


def test_implementers_are_the_overriding_layers_in_order():
    first, plain, second = RejectFirstSend(), Layer(), RejectFirstSend()
    layers = (first, plain, second)
    assert implementers(layers, "on_send") == (first, second)
    assert implementers(layers, "on_ack") == ()


def test_no_layer_configured_means_no_layer_anywhere():
    rt = DistRuntime(DistConfig(num_localities=2, cores_per_locality=1))
    assert rt.layers == ()
    assert rt.recovery_manager is None and rt.tail_manager is None
    assert all(loc.parcelport.layers == () for loc in rt.localities)


def test_recovery_adds_no_per_parcel_hook():
    rt = DistRuntime(
        DistConfig(
            num_localities=2,
            cores_per_locality=1,
            retry=RetryParams(),
            crash_recovery=RecoveryConfig(),
        )
    )
    assert rt.layers == (rt.recovery_manager,)
    for loc in rt.localities:
        for hook in PORT_HOOKS:
            assert implementers(loc.parcelport.layers, hook) == (), hook


def test_rejected_send_draws_no_parcel_id_and_books_nothing():
    # Parcel ids key the fault streams: a rejected send must not use one.
    sim = Simulator()
    registry = CounterRegistry()
    sender = Parcelport(
        0, sim, NetworkModel(), registry, layers=(RejectFirstSend(),)
    )
    receiver = Parcelport(1, sim, NetworkModel(), registry)
    ports = {0: sender, 1: receiver}
    sender.connect(ports)
    receiver.connect(ports)
    with pytest.raises(RuntimeError, match="rejected"):
        sender.send(1, "v", 8, lambda p: None)
    delivered = []
    assert sender.send(1, "v", 8, delivered.append).parcel_id == 1
    sim.run()
    assert len(delivered) == 1
    snap = registry.snapshot(sim.now)
    assert snap.get("/parcels{locality#0/total}/count/sent") == 1
    assert snap.get("/parcels{locality#0/total}/count/bytes-sent") == (
        delivered[0].wire_bytes
    )


class StageLog(Layer):
    """Records every staged task with its parent."""

    def __init__(self) -> None:
        self.staged = []

    def on_stage(self, executor, task, parent) -> None:
        self.staged.append((task, parent))


def test_no_layer_means_empty_executor_hook_tuples():
    executors = [Runtime(RuntimeConfig(num_cores=2)).executor] + [
        loc.runtime.executor
        for loc in DistRuntime(
            DistConfig(num_localities=2, cores_per_locality=1)
        ).localities
    ]
    for ex in executors:
        assert ex.layers == ()
        assert (ex._stage_layers, ex._steal_layers, ex._phase_layers,
                ex._finish_layers) == ((), (), (), ())


def test_stage_layer_sees_every_staged_task_with_its_parent_in_order():
    rt = Runtime(RuntimeConfig(num_cores=2))
    log = StageLog()
    rt.executor.layers = (log,)
    assert implementers(rt.executor.layers, "on_phase") == ()
    children = []

    def spawn_two():
        for _ in range(2):
            children.append(Task(lambda: None, work=FixedWork(1_000)))
            rt.spawn(children[-1])

    first = Task(spawn_two, work=FixedWork(1_000))
    second = Task(lambda: None, work=FixedWork(1_000))
    rt.spawn(first)
    rt.spawn(second)
    rt.run()
    assert log.staged == [
        (first, None), (second, None), (children[0], first),
        (children[1], first),
    ]
