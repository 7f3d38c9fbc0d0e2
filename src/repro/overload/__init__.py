"""Overload control: keep the simulated runtime stable under offered
load it cannot absorb.

Four layers, each strictly opt-in (defaults reproduce pre-overload
behaviour bit-for-bit):

- :mod:`repro.overload.admission` — bounded scheduler queues with
  ``block`` / ``shed`` / ``spill`` overflow policies;
- credit-based flow control on the parcelport
  (:class:`~repro.overload.config.CreditParams`);
- :mod:`repro.overload.breaker` — per-link circuit breakers over the
  retry transport;
- :mod:`repro.overload.governor` — the epoch-level graceful-degradation
  controller.

figO's open-loop offered load runs through
:func:`repro.qos.service.run_qos_service` as one unclassed tenant.  See
``docs/overload.md`` for the counter catalogue and the conservation
identity figO asserts.
"""

from repro.overload.admission import AdmissionControl, AdmissionParams, AdmissionStats
from repro.overload.breaker import BreakerParams, BreakerState, CircuitBreaker
from repro.overload.config import CreditParams, OverloadConfig
from repro.overload.errors import CircuitOpenError, OverloadError, TaskShedError
from repro.overload.governor import GovernorAction, GovernorSignals, OverloadGovernor

__all__ = [
    "AdmissionControl",
    "AdmissionParams",
    "AdmissionStats",
    "BreakerParams",
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "CreditParams",
    "GovernorAction",
    "GovernorSignals",
    "OverloadConfig",
    "OverloadError",
    "OverloadGovernor",
    "TaskShedError",
]
