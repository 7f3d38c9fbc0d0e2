"""Crash recovery for the distributed runtime (see :mod:`.manager`).

Public surface::

    from repro.recovery import RecoveryConfig

    cfg = DistConfig(num_localities=4,
                     crash_recovery=RecoveryConfig(checkpoint_interval_ns=200_000),
                     faults=FaultPlan(crashes=(CrashAt(3, 1_000_000),)))

:class:`RecoveryManager` is constructed by the runtime itself; applications
only ever touch :class:`RecoveryConfig`.
"""

from repro.recovery.config import RecoveryConfig
from repro.recovery.manager import RecoveryManager

__all__ = ["RecoveryConfig", "RecoveryManager"]
