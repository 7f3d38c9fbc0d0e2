"""Experiment harness: regenerate every table and figure of the paper.

Each experiment module exposes

- ``run(scale) -> FigureResult`` — execute the sweep at a given
  :class:`repro.experiments.config.Scale`;
- ``shape_checks(result) -> list[str]`` — the paper's qualitative claims for
  that figure, returned as a list of violations (empty list = reproduced).

The mapping to the paper (``repro.experiments.cli.EXPERIMENT_MODULES``
holds the same 23 names):

==============  ====================================================
experiment      paper artifact
==============  ====================================================
``table1``      Table I, platform specifications
``fig3``        Fig. 3a-d, execution time vs grain, strong scaling
``fig4``        Fig. 4a-c, idle-rate, Haswell 8/16/28 cores
``fig5``        Fig. 5a-c, idle-rate, Xeon Phi 16/32/60 cores
``fig6``        Fig. 6, wait time per HPX-thread, Haswell
``fig7``        Fig. 7a-c, TM overhead + wait time, Haswell
``fig8``        Fig. 8a-c, TM overhead + wait time, Xeon Phi
``fig9``        Fig. 9a-c, pending-queue accesses, Haswell
``fig10``       Fig. 10a-c, pending-queue accesses, Xeon Phi
``selection``   Sec. IV-A / IV-E in-text grain-selection claims
``tuner``       Sec. VI future work: adaptive grain-size tuning
``ablation``    scheduler-policy / NUMA / timer-overhead ablations
``throttling``  Sec. VI future work: metric-driven concurrency throttling
``cov``         Sec. IV methodology: coefficient of variation of time
``wavefront``   methodology generality: a 2-D wavefront application
``figD``        extension: the grain U-curve vs locality count
``figR``        extension: parcel faults move the U-curve minimum
``figC``        extension: best checkpoint interval vs grain, crashes
``figT``        extension: Task Bench METG(50%) by dependence pattern
``figO``        extension: overload control and graceful degradation
``figQ``        extension: QoS priority isolation under overload
``figE``        extension: deadline-miss rate vs grain (real-time)
``figH``        extension: tail tolerance, grain vs straggler severity
==============  ====================================================

Run from the command line::

    repro-experiments --list
    repro-experiments fig4 --scale bench
    repro-experiments all --scale default --out results/
"""

from repro.experiments.config import SCALES, Scale, get_scale
from repro.experiments.report import FigureResult, Series

__all__ = ["SCALES", "Scale", "get_scale", "FigureResult", "Series"]
