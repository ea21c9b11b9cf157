"""Whole-path and whole-chain builders kept beside the tests as references.

No experiment holds a whole Brownian path: the phase-counting experiments
read only the increments of theirs, streamed from
stochastic.brownian_increments.  The tests still build whole paths, to feed
phase_propagate and the oracles, and to check the streamed routes against
whole-path ones.  Likewise matsumoto_yor.build_my_chains keeps
only the chain ends; chain_arrays_from_a gives the whole chains.  And
dos_sweep counts by segment transfer matrices; lane_counts runs every lane
cell by cell, as dos_sweep did before.  And green_circle.invert_R_explicit
reads its entries through a skewed view of the arc table;
invert_R_explicit_indexed reads them through n x n index arrays, as it did
before.
"""

import math
from dataclasses import dataclass

import numpy as np

import vrjplab.spectrum as sp
from vrjplab.green_circle import _arcs
from vrjplab.stochastic import RngStream, SampledPath, grid_cells


@dataclass
class BrownianPath:
    """A Brownian path B on the grid t0 + k*step, k = 0..len(values)-1."""
    t0: float
    step: float
    values: np.ndarray


def path_times(path) -> np.ndarray:
    """Times t0 + k*step of the path's nodes."""
    return path.t0 + path.step * np.arange(path.values.size)


def sample_brownian_path(t0: float, t1: float, step: float, s: RngStream) -> BrownianPath:
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
    return BrownianPath(t0, step, vals)


def geometric(b: BrownianPath) -> SampledPath:
    """The geometric path M = e^{B_t - t/2} of b, on b's grid."""
    return SampledPath(b.t0, b.step, np.exp(b.values - path_times(b) / 2.0))


def sample_gbm_path(t0: float, t1: float, step: float, s: RngStream) -> SampledPath:
    """geometric(sample_brownian_path(t0, t1, step, s))."""
    return geometric(sample_brownian_path(t0, t1, step, s))


def renewal_lane_whole_path(e_level: float, t_cut: float, s: RngStream, step: float,
                            n_cells: int):
    """One renewal lane by the scalar route on its path drawn whole, up to the lane's stop.

    The increments of n_cells cells come from one draw of s, their log
    ratios from one array operation, and one scalar _scan reads them all.
    Returns, for each crossing up to the first at or after t_cut, its cell
    and time; raises if no crossing within n_cells reaches t_cut.
    """
    x = s.gen.standard_normal(n_cells) * math.sqrt(step)
    ratios = np.concatenate([[0.0], x[:-1] + x[1:] - step])
    cells, entry, nc, _ = sp._scan(ratios, math.sqrt(e_level) * step)
    times = sp._crossing_times(cells, entry, nc, step, math.sqrt(e_level))
    stop = int(np.searchsorted(times, t_cut))
    if stop == times.size:
        raise ValueError(f"no crossing at or after {t_cut} within {n_cells} cells")
    return np.repeat(cells, nc)[:stop + 1], times[:stop + 1]


def lane_counts(ratio_blocks, n_rep: int, step: float, e_list) -> np.ndarray:
    """pi-crossing counts of every (E, replica) lane over the whole of its path, cell by cell.

    ratio_blocks yields (lo, log ratios of cells lo..hi-1) of the n_rep
    paths, one row each, all on the same grid, for consecutive blocks of
    cells (spectrum._cell_ratios).  Lane e * n_rep + r reads replica r,
    from its own copy of the ratios, and runs the block's cells one numpy
    step each (spectrum._lane_step).  Returns counts of shape
    (len(e_list), n_rep).
    """
    dpsi = np.repeat([math.sqrt(e) * step for e in e_list], n_rep)
    paths = np.tile(np.arange(n_rep), len(e_list))
    uv, count = sp._lane_start(dpsi.size), np.zeros(dpsi.size)
    for _, d in ratio_blocks:
        uv = sp._lane_step(np.take(np.exp(d).T, paths, axis=1), uv, dpsi, count)
    return count.astype(np.int64).reshape(len(e_list), n_rep)


def chain_arrays_from_a(a: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, g11, z) along the chain; vectorized over leading replica axis."""
    a = np.asarray(a, dtype=float)
    psi = np.cumprod(a, axis=-1)
    psi_prev = np.concatenate([np.ones_like(a[..., :1]), psi[..., :-1]], axis=-1)
    g11 = np.cumsum(psi_prev ** 2 * a, axis=-1) / m
    return psi, g11, g11 / psi


def invert_R_explicit_indexed(u) -> np.ndarray:
    """green_circle.invert_R_explicit with its entries gathered by index arrays."""
    u = np.asarray(u, dtype=float)
    n = u.size
    logs = np.log(u)
    s, cl, log_den = _arcs(u * u, logs, np.arange(n), n - 1)
    idx_i, idx_j = np.indices((n, n))
    # P(i..j-1): the ((j-i-1) mod n) + 1 elements from i
    log_p = cl[idx_i + (idx_j - idx_i - 1) % n + 1] - cl[idx_i]
    # S(j+1..i-1): the (i-j-1) mod n elements ending at i-1
    s_val = s[(idx_i - idx_j - 1) % n, (idx_i - 1) % n]
    half = np.exp(log_p - log_den) * s_val
    inv = half + half.T
    np.fill_diagonal(inv, s[n - 1, (np.arange(n) - 1) % n] * math.exp(-log_den))
    return inv
