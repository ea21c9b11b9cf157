"""Whole-path builders kept beside the tests as references.

No experiment holds a whole Brownian path any more: the phase-counting
experiments stream theirs from stochastic.brownian_blocks.  The tests
still build whole paths, to feed phase_propagate and the oracles, and to
check the streamed routes against the whole-path ones bit for bit.
"""

import math

import numpy as np

from vrjplab.spectrum import phase_propagate
from vrjplab.stochastic import PathKind, RngStream, SampledPath, grid_cells


def path_times(path: SampledPath) -> np.ndarray:
    """Times t0 + k*step of the path's nodes."""
    return path.t0 + path.step * np.arange(path.values.size)


def sample_brownian_path(t0: float, t1: float, step: float, s: RngStream) -> SampledPath:
    """Brownian path on the grid covering [t0, t1], cells of width step.

    Increments over each grid cell are independent N(0, step).  When the
    span contains 0, the path is pinned to 0 at the grid point nearest 0,
    which splits it into two independent one-sided paths glued there;
    otherwise it is pinned at the left end.
    """
    ncells, _ = grid_cells(t1 - t0, step)
    vals = np.empty(ncells + 1)
    vals[0] = 0.0
    incr = vals[1:]
    s.gen.standard_normal(out=incr)
    incr *= math.sqrt(step)
    np.cumsum(incr, out=incr)
    anchor = int(np.clip(round(-t0 / step), 0, ncells))
    vals -= vals[anchor]
    return SampledPath(t0, step, vals, PathKind.BROWNIAN)


def renewal_gaps_whole_path(e_level: float, horizon: float, s: RngStream,
                            step: float) -> np.ndarray:
    """renewal_statistics' gaps from one whole path: the route before streaming."""
    b = sample_brownian_path(0.0, horizon, step, s)
    times = np.concatenate([[0.0], phase_propagate(e_level, b).crossings])
    return np.diff(times)
