"""Shared utilities: statistics, table rendering, ASCII plotting.

These helpers are deliberately dependency-light (numpy only) so that every
other subpackage can use them without import cycles.
"""

from repro.util.stats import SampleStats, cov, mean, stddev
from repro.util.tables import format_table

__all__ = [
    "SampleStats",
    "cov",
    "mean",
    "stddev",
    "format_table",
]
