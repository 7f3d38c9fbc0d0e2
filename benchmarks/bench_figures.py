"""Every registered experiment at the ``bench`` scale, one benchmark each.

The parameters are the names in
``repro.experiments.cli.EXPERIMENT_MODULES``, so each benchmark's id is the
CLI's experiment name, which is also the name ``BENCH_<rev>.json`` records
it under (every name equals its module's ``FIGURE_ID``).  See each
experiment module's docstring for the paper context and the claims its
shape checks enforce.
"""

import pytest

from _support import run_figure_benchmark
from repro.experiments.cli import EXPERIMENT_MODULES, load_experiment


@pytest.mark.parametrize("name", EXPERIMENT_MODULES)
def test_reproduction(benchmark, bench_scale, name):
    run_figure_benchmark(benchmark, load_experiment(name), bench_scale)
