"""2-D wavefront: a compute-bound, pipeline-parallel granularity workload.

The stencil is bandwidth-bound with ring-neighbour dependencies; this
companion workload has the *other* classic dependency topology: a 2-D
dynamic-programming wavefront (global sequence alignment), where tile
(I, J) depends on its north and west neighbours.  Parallelism grows along
anti-diagonals, so grain (tile size) trades scheduling overhead against
pipeline fill/drain — a different granularity trade-off than the
stencil's, on which the paper's metrics and tuner work unchanged.

Payloads:

- token mode (default): tiles carry :class:`FixedWork` proportional to
  their cell count; used for sweeps;
- ``validate=True``: tiles compute a real Needleman-Wunsch score block with
  NumPy, exchanging boundary rows/columns/corners through their futures,
  and the final score must equal :func:`serial_alignment_score`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.collector import paused
from repro.runtime.future import Future, make_ready_future
from repro.runtime.runtime import RunResult, Runtime, RuntimeConfig
from repro.runtime.work import FixedWork

#: alignment scoring (classic small-integer scheme)
MATCH = 2
MISMATCH = -1
GAP = -1


@dataclass(frozen=True)
class WavefrontConfig:
    """An ``n x n``-cell DP table processed in ``tile x tile`` blocks."""

    n: int = 1 << 10
    tile: int = 64
    #: virtual compute cost per cell (token mode)
    cell_ns: int = 2
    validate: bool = False
    seed: int = 5

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= self.tile <= self.n:
            raise ValueError(f"tile={self.tile} outside 1..{self.n}")
        if self.cell_ns < 1:
            raise ValueError("cell_ns must be >= 1")

    @property
    def tiles_per_side(self) -> int:
        return math.ceil(self.n / self.tile)

    @property
    def total_tasks(self) -> int:
        return self.tiles_per_side**2


def random_sequences(config: WavefrontConfig) -> tuple[np.ndarray, np.ndarray]:
    """Two deterministic pseudo-random DNA-like sequences of length n."""
    rng = np.random.default_rng(config.seed)
    return (
        rng.integers(0, 4, size=config.n, dtype=np.int8),
        rng.integers(0, 4, size=config.n, dtype=np.int8),
    )


def _dp_rows(
    a: np.ndarray,
    b: np.ndarray,
    top_row: np.ndarray,
    left_col: np.ndarray,
    corner: int,
) -> tuple[np.ndarray, np.ndarray]:
    """DP over a block: returns (last row of H incl. corner, east column).

    ``top_row[j]`` is H[i0-1][j0+j] for j in 1..len(b) (so len == len(b));
    ``left_col[i]`` is H[i0+i][j0-1] for i in 1..len(a); ``corner`` is
    H[i0-1][j0-1].
    """
    cols = len(b)
    h_prev = np.empty(cols + 1, dtype=np.int64)
    h_prev[0] = corner
    h_prev[1:] = top_row
    east = np.empty(len(a), dtype=np.int64)
    for i in range(len(a)):
        cur = np.empty(cols + 1, dtype=np.int64)
        cur[0] = left_col[i]
        sub = np.where(b == a[i], MATCH, MISMATCH)
        # Diagonal and north moves vectorize; the west move is a sequential
        # running max along the row.
        cand = np.maximum(h_prev[:-1] + sub, h_prev[1:] + GAP)
        running = int(cur[0])
        out = cur[1:]
        for j in range(cols):
            value = cand[j]
            west = running + GAP
            running = value if value >= west else west
            out[j] = running
        east[i] = running
        h_prev = cur
    return h_prev, east


def serial_alignment_score(a: np.ndarray, b: np.ndarray) -> int:
    """Reference Needleman-Wunsch score: the whole table as one block."""
    top = np.arange(1, len(b) + 1, dtype=np.int64) * GAP
    left = np.arange(1, len(a) + 1, dtype=np.int64) * GAP
    last_row, _ = _dp_rows(a, b, top, left, corner=0)
    return int(last_row[-1])


@paused()
def run_wavefront(
    runtime_config: RuntimeConfig, config: WavefrontConfig
) -> tuple[RunResult, int | None]:
    """Run the tiled wavefront; returns (run result, score or None).

    Each tile is one dataflow node depending on its north and west tiles;
    tile values are ``(south_row, east_col, south_east_corner)`` triples
    (``None`` placeholders in token mode).  The north-west corner each
    interior tile also needs is exchanged through a per-run dict keyed by
    tile index — safe because the simulated executor runs bodies
    sequentially in dependency order.
    """
    rt = Runtime(runtime_config)
    tps = config.tiles_per_side
    starts = [k * config.tile for k in range(tps)]
    bounds = [min((k + 1) * config.tile, config.n) for k in range(tps)]

    validate = config.validate
    if validate:
        a, b = random_sequences(config)
    corners: dict[tuple[int, int], int] = {}

    def north_border(tj: int) -> Future:
        if validate:
            row = np.arange(starts[tj] + 1, bounds[tj] + 1, dtype=np.int64) * GAP
            value = (row, None, bounds[tj] * GAP)
        else:
            value = (None, None, None)
        return make_ready_future(value, name=f"border-n{tj}")

    def west_border(ti: int) -> Future:
        if validate:
            col = np.arange(starts[ti] + 1, bounds[ti] + 1, dtype=np.int64) * GAP
            value = (None, col, bounds[ti] * GAP)
        else:
            value = (None, None, None)
        return make_ready_future(value, name=f"border-w{ti}")

    tiles: dict[tuple[int, int], Future] = {}
    for diag in range(2 * tps - 1):
        for ti in range(max(0, diag - tps + 1), min(diag + 1, tps)):
            tj = diag - ti
            north = tiles.get((ti - 1, tj)) or north_border(tj)
            west = tiles.get((ti, tj - 1)) or west_border(ti)
            cells = (bounds[ti] - starts[ti]) * (bounds[tj] - starts[tj])

            if validate:
                a_slice = a[starts[ti]:bounds[ti]]
                b_slice = b[starts[tj]:bounds[tj]]

                def body(north_v, west_v, a_slice=a_slice, b_slice=b_slice,
                         ti=ti, tj=tj):
                    if ti == 0 and tj == 0:
                        corner = 0
                    elif ti == 0:
                        corner = starts[tj] * GAP  # H[0][sj]
                    elif tj == 0:
                        corner = starts[ti] * GAP  # H[si][0]
                    else:
                        corner = corners[(ti - 1, tj - 1)]
                    last_row, east = _dp_rows(
                        a_slice, b_slice, north_v[0], west_v[1], corner
                    )
                    se = int(last_row[-1])
                    corners[(ti, tj)] = se
                    return (last_row[1:], east, se)
            else:
                def body(_n, _w):
                    return (None, None, None)

            tiles[(ti, tj)] = rt.dataflow(
                body,
                [north, west],
                work=FixedWork(max(1, cells * config.cell_ns)),
                name=f"tile[{ti}][{tj}]",
            )

    result = rt.run()
    score: int | None = None
    if validate:
        score = tiles[(tps - 1, tps - 1)].value[2]
    return result, score


def wavefront_run_fn(n: int, cell_ns: int = 2):
    """A ``(RuntimeConfig, grain) -> RunResult`` closure for the
    characterization driver and tuner, with the grain expressed as the tile
    side length."""

    def run(runtime_config: RuntimeConfig, tile: int) -> RunResult:
        config = WavefrontConfig(n=n, tile=min(tile, n), cell_ns=cell_ns)
        result, _ = run_wavefront(runtime_config, config)
        return result

    return run
