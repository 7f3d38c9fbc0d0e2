"""Tail tolerance for gray failures: slow-but-alive localities and links.

Public surface:

- :class:`repro.tail.config.TailConfig` — every knob, frozen;
- :class:`repro.tail.sketch.QuantileSketch` — bounded response-time window;
- :class:`repro.tail.manager.TailManager` — detector + hedged parcels +
  speculation + fencing, one per :class:`repro.dist.DistRuntime` when
  ``DistConfig.tail`` is set, hooked into every parcelport and executor
  as a :class:`repro.layer.Layer`.

The typed fence error lives with the rest of the failure hierarchy in
:mod:`repro.faults.errors`.
"""

from repro.tail.config import TailConfig
from repro.tail.manager import TailManager
from repro.tail.sketch import QuantileSketch

__all__ = ["TailConfig", "TailManager", "QuantileSketch"]
