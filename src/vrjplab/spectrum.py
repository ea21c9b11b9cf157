"""Eigenvalue counting for the continuum operator, by phase and by matrix.

Phase route.  The eigenvalue equation in the variable phi = g/M is the
Sturm-Liouville problem (M^2 phi')' + E M^2 phi = 0, whose polar angle
obeys

    theta' = cos(theta)^2 / M^2 + E M^2 sin(theta)^2,  theta(-lam) = 0,

and eigenvalues below E are counted by pi-crossings of theta.  Raw ODE
stepping is hopeless when M^2 spans e^{+-40}, so the propagation
freezes the coefficient per grid cell (geometric mean of the endpoint
values) and advances the auxiliary angle

    psi = arctan(sqrt(E) M^2 tan(theta)),

which under a frozen coefficient moves linearly at the constant rate
sqrt(E); crossings of multiples of pi by psi and theta coincide branch
by branch.  This per-cell closed form is exact and unconditionally
stable; the only approximation is the piecewise-constant coefficient.
Gauge re-projection at each cell boundary is a product in the rotation
form below, which stays finite where tan(theta) overflows.

The recurrence sees the path only through each cell's log coefficient
ratio logc_i - logc_{i-1} = log M_{i+1} - log M_{i-1}.  For a geometric
path given by its values (a SampledPath) they are differences of its
log values, free of E.  For log M = B_t - t/2 they are x_{i-1} + x_i - h,
with x the Brownian increments and h the cell width: the anchor of B, the
grid's origin and log sqrt(E) cancel, so the phase-counting experiments
never build B and read the increments as they are drawn
(stochastic.brownian_increments).  That form is also the more accurate
one: it adds two O(sqrt(h)) numbers, where a difference of two log M
values loses the digits of their magnitude, which grows along a path.

The lane route (_lane_step) advances every lane, one path read at one
energy, by one numpy step per cell over blocks of _LANE_BLOCK cells; each
path's ratio is broadcast over the lanes that read it.  It is the one
per-cell step of the experiments.  renewal_statistics needs the time of
every crossing, so its lanes run cell by cell along their paths.
dos_sweep needs only counts, so it cuts each path into segments and runs
the lanes wider across the segments of every path at once (segment
counts, below).  A single given path (phase_propagate) goes through the
scalar loop _scan, one lane in Python floats, about 20 times faster than
a numpy step per cell on one lane.  Neither experiment holds a whole
path, so memory does not grow with the horizon or with lam.

Rotation form.  In the Pruefer vector (u, v) = rho (sin psi, cos psi)
(Pruefer 1926) a frozen cell is linear: the gauge rescale by the ratio r
scales u by r, and the advance rotates (u, v) by sqrt(E) h.  So a lane
carries (u, v), not psi, across cells and blocks, and a cell takes
multiplies and adds; atan2 is taken only of a crossing's entry vector, and
the cosine and sine of the advance once per call.  The scalar scan and the
lanes run the same arithmetic: the same float operations in the same
order, on ratios, cosines, sines and entry angles from the same numpy
calls, so _scan's crossing cells, entry angles and counts are a lane's,
bit for bit.  Each vector is rescaled by a power of two at block ends (and
more often where the ratios are extreme); that is exact and commutes with
every later operation, so nothing overflows at long horizons and no bit
depends on the block.

Segment counts.  A cell is linear in (u, v), so a segment of cells is
a 2x2 transfer matrix T.  Two basis lanes over the segment, from psi = 0,
(u, v) = (0, 1), and from psi = pi/2, (1, 0), give its columns: a lane
ends at (-1)^c 2^-e times the image of its start, c its count (each
crossing and each whole half-turn negates the vector) and e the sum of
its rescale exponents, which _lane_step reports, so the two columns come
to one scale.  The lift of the phase map is increasing and commutes with
a turn by pi (Sturm oscillation), so from any entry angle psi in [0, pi)
the count is c0 or c0 + 1, where c0 is the psi = 0 lane's count.  With w
= (-1)^c0 T (u, v) for the entry vector (u, v), it is c0 + 1 iff w has
turned past pi, w_u < -tol w_v: the cells' own crossing test, so an end
within tol of a crossing rounds to the crossed side as a lane's does (the
tie rule).  The next entry vector is w, or -w clamped to u >= 0 after a
crossing, rescaled by a power of two; no atan2 is taken.  dos_sweep runs
the basis lanes of every (E, segment, path) of a window of _WINDOW cells
in one wide _lane_step and then chains the segments in order, a numpy
step per segment: about twice as fast as its lanes cell by cell, whose
numpy calls on 150 lanes cost more than their arithmetic.  Its counts
are the lanes' unless a crossing ends a segment within rounding of the
tie rule's threshold, which the chain reaches through T's rounding and
not the lane's.  A window whose ratios could move a vector by more than
_RESCALE_EFOLDS / 2 e-folds within a segment, where T's columns might not
share a float64 scale, runs its lanes cell by cell, as do a window's last
cells short of a segment.

Renewal gaps from lanes.  At a pi-crossing psi is 0 whatever M is, and
from there it reads only future log ratios, which are Brownian
increments; so a lane from theta = 0 on its own path has gaps of the same
law as one long path.  (One increment carries across a crossing, an O(h)
coupling that the lag-1 check sees within a lane.)  A lane keeps the gaps
that start before a cut time T_c, so it runs to its first crossing at or
after T_c.  Whether its k-th gap is kept depends only on the gaps before
it, so by Wald's identity (Wald 1944) the kept gaps sum on average to
pi/sqrt(E) times their mean number: their mean has no length bias, only
the O(1/lanes) bias of a ratio.  Keeping the gaps that end before T_c
would favour short gaps, and counting crossings up to a fixed time is
biased by O(1/T).  The stop reads only crossing times, never the block.

Matrix routes.  The scaled discrete circle operator (weight n) has
eigenvalues approximating the continuum ones, counted by a dense
eigensolve.  A conservative finite-difference operator built from a
sampled path (fluxes from the trapezoid resistances, boundary seam
implementing g(-lam) = g(lam) and the twisted flux matching) provides
the deterministic spectral oracle.  It imports scipy.sparse when called,
so the phase-counting runs, which never call it, do not pay that import.

The renewal mean.  The mean first crossing time pi/sqrt(E) is checked as
a double integral over the quadrant by a tensor double-exponential rule
in numpy (mean_t1_quadrature), which imports nothing from scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

from .beta_field import BetaField, dense_h
from .stochastic import RngStream, SampledPath, brownian_increments, grid_cells, stream_blocks

_PI = math.pi


@dataclass
class PhaseTrace:
    theta_final: float
    crossings: np.ndarray     # times of pi-crossings, offsets from the path start
    count: int                # exact number of pi-crossings; equals floor(theta/pi)


_CROSS_TOL = 1e-10   # endpoint-exact crossings round to the crossed side
# Cells per block of the lane route, and the most cells the scalar route
# reads between two rescales.  Neither changes a bit.
_LANE_BLOCK = 256
# Cells per window of dos_sweep: every path's increments are drawn, and its
# ratios formed and counted by segments, a window at a time.  At the
# registered 50 replicas the increments and the ratios take 0.8 MB each;
# 8192 cells ran slower (1.45-1.6 s against 1.2-1.3 s at the registered
# sizes, 2-vCPU Xeon VM) and raised the peak resident set by 6 MB more.
_WINDOW = 2048
# The most e-folds a Pruefer vector may grow or shrink by between two
# rescales: from max(|u|, |v|) in [1/2, 1) it stays within 2^(+-866).
_RESCALE_EFOLDS = 600.0


def _cell_ratios(blocks, h: float, before=None):
    """Yield (lo, log ratios of cells lo..hi-1) of Brownian paths, from their increments.

    blocks yields (lo, x), x[r, j] the increment over cell lo + j of path
    r (stochastic.brownian_increments), on cells of width h.  With log M =
    B_t - t/2, the ratio between the frozen coefficients of cell i and
    cell i - 1 is log M_{i+1} - log M_{i-1} = (x_{i-1} + x_i) - h: the
    anchor of B, the grid's origin and log sqrt(E) cancel.  before holds
    each path's increment over the cell before the first block; without
    it that cell has no predecessor and takes ratio 0.  One increment
    carries across blocks.
    """
    for lo, x in blocks:
        d = np.empty(x.shape)
        d[:, 0] = 0.0 if before is None else before + x[:, 0] - h
        np.add(x[:, :-1], x[:, 1:], out=d[:, 1:])
        d[:, 1:] -= h
        before = x[:, -1].copy()
        yield lo, d
        del d                           # the caller's to keep or free before the next block


def _scan(d: np.ndarray, dpsi: float):
    """Scalar route: one lane of _lane_step over the log ratios d from psi = 0, in a Python loop.

    A cell does the lane's multiplies, adds and compares, in its order and
    on the same numbers: the ratios are np.exp of d, the advance's turns,
    cosine and sine come from _rotation, and the entry angles from one
    np.arctan2 over the vectors (u, v) recorded at the crossings.  So its
    crossing cells, entry angles and crossings are a lane's, bit for bit.
    The vector is rescaled like a lane's, at least every _LANE_BLOCK cells.
    Returns the crossing cells, their entry angles and crossings, and the
    final (u, v).
    """
    ratios = np.exp(d)
    turns, c, s = (float(a[0]) for a in _rotation(np.array([dpsi])))
    ms, tol = -s, -_CROSS_TOL
    u, v, records = 0.0, 1.0, []
    every = min(_LANE_BLOCK, _rescale_every(ratios))
    for lo in range(0, ratios.size, every):
        for j, r in enumerate(ratios[lo:lo + every].tolist(), lo):
            u *= r
            x, y = c * u + s * v, c * v + ms * u
            if x < tol * y:
                records.append((j, u, v, turns + 1.0))
                x, y = (-x if x < 0.0 else 0.0), -y     # np.maximum(-x, 0.0): -0.0 gives +0.0
            elif turns:
                records.append((j, u, v, turns))
            u, v = x, y
        e = math.frexp(max(abs(u), abs(v)))[1]
        u, v = math.ldexp(u, -e), math.ldexp(v, -e)
    cells, u_in, v_in, nc = np.array(records, dtype=float).reshape(-1, 4).T
    return cells.astype(np.int64), np.arctan2(u_in, v_in), nc.astype(np.int64), (u, v)


def _crossing_times(cells, psi_in, ncross, step: float, root_e) -> np.ndarray:
    """Times from the path start of the pi-crossings in cells entered at psi_in.

    Cell i is crossed ncross[i] times.  The gauge angle moves at rate
    root_e = sqrt(E) (one value, or one per cell), so a cell's j-th
    crossing is at cell*h + (j*pi - psi_in)/sqrt(E).
    """
    nc = np.asarray(ncross, dtype=np.int64)
    cells = np.repeat(cells, nc)
    psi_in = np.repeat(psi_in, nc)
    root_e = np.repeat(root_e, nc) if np.ndim(root_e) else root_e
    j = np.arange(1, cells.size + 1) - np.repeat(np.cumsum(nc) - nc, nc)
    return cells * step + (j * _PI - psi_in) / root_e


def phase_propagate(e_level: float, gbm: SampledPath) -> PhaseTrace:
    """Propagate the phase over the whole span of the geometric path gbm from theta = 0.

    Cell i reads the log ratio log M_{i+1} - log M_{i-1}, which does not
    depend on E; the first cell has no predecessor and reads 0, as in
    _cell_ratios.  The final vector is unwound to theta by the last cell's
    coefficient.
    """
    if not e_level > 0:
        raise ValueError("E must be positive")
    if gbm.values.size < 2:
        raise ValueError("path has no cell: phase propagation needs at least two nodes")
    logm = np.log(gbm.values)
    d = np.zeros(logm.size - 1)
    np.subtract(logm[2:], logm[:-2], out=d[1:])
    root_e = math.sqrt(e_level)
    cells, entry, nc, (u, v) = _scan(d, root_e * gbm.step)
    logc_last = 0.5 * math.log(e_level) + logm[-2] + logm[-1]
    phi = max(math.atan2(u, math.exp(min(logc_last, 700.0)) * v), 0.0)
    crossings = _crossing_times(cells, entry, nc, gbm.step, root_e)
    return PhaseTrace(crossings.size * _PI + phi, crossings, crossings.size)


def count_states_phase(e_level: float, gbm: SampledPath) -> int:
    """floor(theta(lam)/pi); brackets the true count within -1/+2."""
    return phase_propagate(e_level, gbm).count


def _lane_step(ratios, uv, dpsi, count, records=None, log2_scale=None) -> np.ndarray:
    """Lane route: advance every lane across one block of cells, one numpy step per cell.

    ratios[j] holds the coefficient ratios (the exp of the log ratios) that
    the paths read at the block's cell j, over one or more path axes; lane
    g * P + p reads path p (flat index over the P paths), so a ratio is
    broadcast over the lane groups g and never copied per lane.  uv[:, k]
    is lane k's Pruefer vector (u, v), proportional to (sin psi, cos psi),
    on entering the block and dpsi[k] = sqrt(E)*h its advance.  A cell's
    map is linear in (u, v) (Pruefer 1926): the rescale psi -> atan2(r sin
    psi, cos psi) is u *= r and the advance a rotation by dpsi, so a cell
    takes multiplies and adds and no transcendental; the cosine and sine of
    dpsi are taken once per call.  A cell writes the rotated vectors into a
    spare buffer, and the two buffers swap.  A lane crosses in a cell iff
    its rotated u < -tol v: an advance that ends within about tol of pi
    crosses.  Only in cells where some lane crosses, those lanes add the
    crossing to count, record atan2 of their vector before the rotation as
    the entry angle, turn by -pi (flip the sign) and clamp u >= 0.  A lane
    with dpsi >= pi adds its whole half-turns to count in every cell and
    rotates by the rest.  So a lane's vector is (-1)^count times the image
    of its entry vector under the cells' linear maps, up to a positive
    factor.  Given records, a cell with crossings appends (its cell index
    in the block per crossing lane, those lanes, their entry angles, their
    crossings).

    (u, v) carries over to the next block as it is.  A cell moves its norm
    by a factor of at most max(r, 1/r), so each vector is rescaled by a
    power of two, to max(|u|, |v|) in [1/2, 1), before its norm can have
    moved by _RESCALE_EFOLDS e-folds, and at the block's end: it stays in
    the float64 range at any horizon.  The rescale is exact, and every
    later operation (products, sums, the crossing test, atan2) commutes
    with it, so no bit depends on the block.  Given log2_scale, each lane's
    rescale exponents are added to it: the vector times 2^log2_scale is
    the unrescaled one.  Returns the vectors after the block, shape
    (2, lanes); uv is used as scratch.
    """
    turns, c, s = _rotation(dpsi)
    wraps = turns > 0
    any_wrap = bool(wraps.any())
    # a buffer holds u then v: its products by (c, c) and by (-s, s) are the
    # four products of the rotation, in two calls
    cc, ss = np.concatenate([c, c]), np.concatenate([-s, s])
    n, paths = dpsi.size, ratios.shape[1:]
    w, u, v, rows = _halves(uv.reshape(-1))
    w2, u2, v2, rows2 = _halves(np.empty(2 * n))
    # u by lane group and path; one group takes the paths' shape, as a
    # broadcast multiply costs about 0.5 us more per cell
    shape = paths if n == math.prod(paths) else (-1, *paths)
    g, g2 = u.reshape(shape), u2.reshape(shape)
    p, pu, pv, _ = _halves(np.empty(2 * n))
    q, qu, qv, _ = _halves(np.empty(2 * n))
    t, crossed = np.empty(n), np.empty(n, dtype=bool)
    mul, add, less, nonzero = np.multiply, np.add, np.less, np.count_nonzero
    every = _rescale_every(ratios)
    for lo in range(0, len(ratios), every):
        for j, r in enumerate(ratios[lo:lo + every], lo):
            mul(g, r, out=g)
            mul(w, cc, out=p)
            mul(w, ss, out=q)
            add(pu, qv, out=u2)             # c u + s v
            add(pv, qu, out=v2)             # c v - s u
            mul(v2, -_CROSS_TOL, out=t)
            less(u2, t, out=crossed)
            if any_wrap or nonzero(crossed):
                add(count, crossed, out=count)
                if records is not None:
                    k = np.flatnonzero(crossed | wraps)
                    records.append((np.full(k.size, j), k, np.arctan2(u[k], v[k]),
                                    turns[k] + crossed[k]))
                np.negative(rows2, out=rows2, where=crossed)
                np.maximum(u2, 0.0, out=u2, where=crossed)
            w, u, v, rows, g, w2, u2, v2, rows2, g2 = w2, u2, v2, rows2, g2, w, u, v, rows, g
        _, e = np.frexp(np.maximum(np.abs(u), np.abs(v)))
        if log2_scale is not None:
            log2_scale += e
        np.negative(e, out=e)
        np.ldexp(rows, e, out=rows)
    count += turns * len(ratios)
    return rows


def _rotation(dpsi: np.ndarray):
    """The whole half-turns of each advance dpsi, and the cosine and sine of the rest."""
    turns = np.floor(dpsi / _PI)
    rest = dpsi - turns * _PI
    return turns, np.cos(rest), np.sin(rest)


def _rescale_every(ratios: np.ndarray) -> int:
    """Cells over which a Pruefer vector reading these ratios moves by <= _RESCALE_EFOLDS e-folds."""
    growth = math.log(max(ratios.max(), 1.0 / ratios.min()))
    return max(1, int(_RESCALE_EFOLDS / growth)) if growth > 0 else len(ratios)


def _halves(buf: np.ndarray):
    """A buffer of lane vectors, u then v: (the buffer, u, v, the (2, lanes) rows)."""
    n = buf.size // 2
    return buf, buf[:n], buf[n:], buf.reshape(2, n)


def _segment_counts(ratio_windows, n_rep: int, step: float, e_list) -> np.ndarray:
    """pi-crossing counts of every (E, replica) lane over the whole of its path, by segments.

    ratio_windows yields (lo, log ratios of cells lo..hi-1) of the n_rep
    paths, one row each, all on the same grid, for consecutive windows of
    cells (_cell_ratios); each window is exponentiated in place, once for
    every energy.  A window's whole segments of _LANE_BLOCK cells go
    through _segment_step, and its last cells, fewer than a segment,
    through the lanes themselves (_lane_step); so does every cell of a
    window whose ratios could move a vector by more than _RESCALE_EFOLDS /
    2 e-folds within a segment.  Lane e * n_rep + r reads replica r.
    Memory is O(lanes x window).  Returns counts of shape (len(e_list),
    n_rep).
    """
    dpsi = np.array([math.sqrt(e) * step for e in e_list])
    uv, count = _lane_start(dpsi.size * n_rep), np.zeros(dpsi.size * n_rep)
    for _, d in ratio_windows:
        cells = np.exp(d, out=d).T                   # a cell-major view of the window
        n_seg = len(cells) // _LANE_BLOCK if _rescale_every(cells) >= 2 * _LANE_BLOCK else 0
        cut = n_seg * _LANE_BLOCK
        if n_seg:      # the ratios by (cell of the segment, segment, path): a view
            uv = _segment_step(d[:, :cut].reshape(n_rep, n_seg, _LANE_BLOCK).transpose(2, 1, 0),
                               uv, dpsi, count)
        if cut < len(cells):
            uv = _lane_step(cells[cut:], uv, np.repeat(dpsi, n_rep), count)
        del d, cells                                 # freed before the next window is drawn
    return count.astype(np.int64).reshape(dpsi.size, n_rep)


def _segment_step(ratios, uv, dpsi, count) -> np.ndarray:
    """Advance the lanes uv, one per (E, path), across consecutive segments, by transfer matrices.

    ratios[j, k, r] is path r's ratio at cell j of segment k; lane e * paths
    + r runs at dpsi[e] with Pruefer vector uv[:, e * paths + r] and adds
    its crossings to count.  One wide _lane_step runs two basis lanes per
    (E, segment, path), from psi = 0, (u, v) = (0, 1), and from psi = pi/2,
    (1, 0); by linearity they give the segment's 2x2 transfer matrix T
    (module docstring), and the segments are then chained in order, a
    numpy step per segment.  Returns the vectors after the last segment.
    """
    n_seg, n_path = ratios.shape[1:]
    n_e = dpsi.size
    basis = np.zeros((2, n_e, 2, n_seg, n_path))
    basis[1, :, 0] = 1.0                             # psi = 0
    basis[0, :, 1] = 1.0                             # psi = pi/2
    crossings, scale = np.zeros(basis[0].size), np.zeros(basis[0].size, dtype=np.int64)
    ends = _lane_step(ratios, basis.reshape(2, -1), np.repeat(dpsi, 2 * n_seg * n_path),
                      crossings, log2_scale=scale)
    # by segment first: (segment, 2 or 1, E, basis lane, path)
    ends, crossings, scale = (np.moveaxis(a.reshape(-1, n_e, 2, n_seg, n_path), 3, 0)
                              for a in (ends, crossings, scale))
    # T's columns (-1)^c 2^scale (end vector), in units of the psi = 0 lane's
    # (-1)^c0 2^scale0: the psi = pi/2 column changes sign with c0 + c1
    col_v = ends[:, :, :, 0]
    col_u = np.ldexp(ends[:, :, :, 1], scale[:, :, :, 1] - scale[:, :, :, 0])
    np.negative(col_u, out=col_u, where=(crossings[:, :, :, 0] + crossings[:, :, :, 1]) % 2 == 1)
    c0 = crossings[:, 0, :, 0]
    lanes = uv.reshape(2, n_e, n_path)
    n = count.reshape(n_e, n_path)
    for k in range(n_seg):
        # w = (-1)^c0 T (u, v) up to a positive factor: the lane's count is
        # c0, plus one if w has turned past pi
        w = lanes[1] * col_v[k]
        w += lanes[0] * col_u[k]
        crossed = w[0] < -_CROSS_TOL * w[1]
        n += c0[k]
        n += crossed
        np.negative(w, out=w, where=crossed)
        np.maximum(w[0], 0.0, out=w[0], where=crossed)
        _, e = np.frexp(np.maximum(np.abs(w[0]), np.abs(w[1])))
        lanes = np.ldexp(w, -e)
    return lanes.reshape(2, -1)


def _lane_start(n_lanes: int) -> np.ndarray:
    """Pruefer vectors (u, v) = (sin 0, cos 0) of n_lanes lanes at psi = 0."""
    return np.repeat([[0.0], [1.0]], n_lanes, axis=1)


# ---------------------------------------------------------------------------
# Matrix routes
# ---------------------------------------------------------------------------

_DENSE_EIG_BUDGET = 4000


def discrete_spectrum_matrix(field: BetaField, n: int) -> np.ndarray:
    """Eigenvalues of the scaled discrete operator n * H_beta, ascending."""
    h = dense_h(field.graph, field.beta)
    if h.shape[0] > _DENSE_EIG_BUDGET:
        raise ValueError(f"dense eigensolve budget exceeded: {h.shape[0]} > {_DENSE_EIG_BUDGET}")
    return np.linalg.eigvalsh(n * h)


def count_states_matrix(e_level: float, field: BetaField, n: int) -> int:
    """Number of eigenvalues of n * H_beta at or below E."""
    return int(np.searchsorted(discrete_spectrum_matrix(field, n), e_level, side="right"))


def fd_operator_twisted(gbm: SampledPath) -> scipy.sparse.csr_matrix:
    """Sparse FD operator with the circle domain conditions.

    Unknowns are g at grid nodes 0..N-1 with the endpoint identified
    (g continuous across the seam); the seam cell joins g_{N-1} through
    the right endpoint value of M to g_0 through the left one, which
    discretizes the twisted flux matching by eliminating the duplicate
    endpoint unknown.  Energy form: sum over cells of
    (g_q/M_q - g_p/M_p)^2 / r_cell, mass h per node.
    """
    import scipy.sparse

    m = gbm.values
    h = gbm.step
    r = 0.5 * h * (1.0 / m[:-1] ** 2 + 1.0 / m[1:] ** 2)   # cell resistance: trapezoid of 1/M^2
    n = m.size - 1                       # distinct nodes on the circle
    alpha = 1.0 / m                      # 1/M at nodes 0..N (N = seam twin of 0)
    # cell c joins p = c to q = c + 1 mod n.  Its four entries go in the order
    # (p, p), (q, q), (p, q), (q, p): csr_matrix sums duplicates in that order,
    # so it fixes the last bits of the matrix.
    p = np.arange(n)
    q = (p + 1) % n
    ap = alpha[:-1]
    aq = alpha[1:]                       # at the seam this is 1/M_lam, not 1/M_-lam
    w = 1.0 / r
    off = -ap * aq * w
    rows = np.stack([p, q, p, q], axis=1).ravel()
    cols = np.stack([p, q, q, p], axis=1).ravel()
    vals = np.stack([ap * ap * w, aq * aq * w, off, off], axis=1).ravel()
    a = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return a / h


def fd_spectrum_twisted(gbm: SampledPath, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the twisted FD operator (shift-invert).

    ARPACK starts from the fixed vector of ones, not a random one, so the
    eigenvalues repeat to the last digit on every run.  k must be below the node count.
    """
    import scipy.sparse.linalg

    a = fd_operator_twisted(gbm).tocsc()
    if not k < a.shape[0]:
        raise ValueError(f"k={k} eigenvalues need more than the {a.shape[0]} circle nodes")
    vals = scipy.sparse.linalg.eigsh(a, k=k, sigma=0.0, which="LM",
                                     v0=np.ones(a.shape[0]), return_eigenvectors=False)
    return np.sort(vals)


# ---------------------------------------------------------------------------
# Renewal gaps and the density-of-states sweep
# ---------------------------------------------------------------------------

# Lanes per energy of the renewal gaps: at the registered 4000 crossings per
# energy each keeps about 16 gaps, about 3900 lag-1 pairs within lanes, and
# each numpy step of a cell spreads its call overhead over 256 lanes.
_LANES = 256


def renewal_statistics(e_levels, horizons, s: RngStream, step: float) -> list[list[np.ndarray]]:
    """pi-crossing gaps of _LANES independent lanes per energy: per energy, one array per lane.

    Lane r of energy e_levels[k] reads path r, log M = B_t - t/2 with B
    drawn from s.substream(r + 1) (stochastic.stream_blocks) on cells of
    width step, from theta = 0, and keeps its gaps that start before
    T_c = horizons[k] / _LANES (module docstring).  Every energy reads the
    same paths.  The arguments are checked before any draw; whether the
    gaps suffice is for the caller to judge (experiments._exp_renewal).
    """
    e_levels, horizons = list(e_levels), list(horizons)
    for e_level, horizon in zip(e_levels, horizons, strict=True):
        if not e_level > 0:
            raise ValueError("E must be positive")
        grid_cells(horizon, step)        # a positive, finite horizon and step
    if not e_levels:
        return []
    t_cut = np.divide(horizons, _LANES)
    lane, _, times = _lane_crossings(np.sqrt(e_levels), t_cut, s, step)
    per_lane = np.split(times, np.searchsorted(lane, np.arange(1, t_cut.size * _LANES)))
    return [[_lane_gaps(t, cut) for t in per_lane[k * _LANES:(k + 1) * _LANES]]
            for k, cut in enumerate(t_cut)]


def _lane_crossings(root_e, t_cut, s: RngStream, step: float):
    """Run renewal_statistics' lanes: the (lane, cell, time) of each crossing, sorted by lane.

    Lane k * _LANES + r runs at sqrt(E) = root_e[k] on path r until it has
    a crossing at or after t_cut[k].  The lanes run as a grid, every energy
    with a running lane on every path with one, so that each path's ratios
    are broadcast over the energies.  The paths are drawn _LANE_BLOCK cells
    at a time; a path leaves the grid once all its lanes are done, and an
    energy once all of its lanes are.  A done lane runs on while the grid
    holds it; _lane_gaps drops the crossings after its stop, which depend
    on the block and on the other lanes.
    """
    gens = [path.gen for _, _, path in stream_blocks(s, _LANES, 1)]
    energies = np.arange(root_e.size)    # the energies with a running lane
    paths = np.arange(_LANES)            # the paths with a running lane, still drawn
    done = np.zeros((root_e.size, _LANES), dtype=bool)
    uv, before, found, lo = _lane_start(done.size), None, [], 0
    while paths.size:
        ratios, before = _lane_block([gens[p] for p in paths], before, step)
        records = []
        uv = _lane_step(ratios, uv, np.repeat(root_e[energies] * step, paths.size),
                        np.zeros(uv.shape[1]), records)
        del ratios                       # freed before the next block is drawn
        if records:
            cells, k, entry, nc = (np.concatenate(a) for a in zip(*records))
            nc = nc.astype(np.int64)
            e, p = energies[k // paths.size], paths[k % paths.size]
            times = _crossing_times(lo + cells, entry, nc, step, root_e[e])
            cells, e, p = (np.repeat(a, nc) for a in (lo + cells, e, p))   # one per crossing
            found.append((e * _LANES + p, cells, times))
            stop = times >= t_cut[e]
            done[e[stop], p[stop]] = True
        running = ~done[np.ix_(energies, paths)]
        on_e, on_p = running.any(axis=1), running.any(axis=0)
        uv = uv.reshape(2, energies.size, paths.size)[:, on_e][:, :, on_p].reshape(2, -1)
        energies, paths, before = energies[on_e], paths[on_p], before[on_p]
        lo += _LANE_BLOCK
    lane, cell, times = (np.concatenate(a) for a in zip(*found))
    order = np.argsort(lane, kind="stable")
    return lane[order], cell[order], times[order]


def _lane_block(gens, before, step: float):
    """The next _LANE_BLOCK cells of one path per generator: (ratios by cell, last increments).

    before holds each path's increment over the cell before the block (None
    at the start).  The ratios are copied to one contiguous row per cell,
    which the lane step reads faster than a strided row.  The block's
    increments are released on return, before the next block is drawn.
    """
    [(_, x)] = brownian_increments(gens, _LANE_BLOCK, step, _LANE_BLOCK)
    [(_, d)] = _cell_ratios([(0, x)], step, before)
    last = x[:, -1].copy()
    del x
    return np.ascontiguousarray(np.exp(d, out=d).T), last


def _lane_gaps(times: np.ndarray, t_cut: float) -> np.ndarray:
    """A lane's kept gaps: those that start before t_cut, up to its first crossing from t_cut on."""
    return np.diff(times[:np.searchsorted(times, t_cut) + 1], prepend=0.0)


def dos_sweep(e_list, lam: float, replicas: int, s: RngStream, step: float) -> np.ndarray:
    """Eigenvalue counts N_lam(E) by the phase route, shape (len(e_list), replicas).

    One path per replica, shared across the E values (the counts are
    then monotone-coupled, which tightens ratio comparisons).  Replica r's
    path is log_gbm_rows' path of s.substream(r + 1) on the grid_cells
    grid of [-lam, lam]; the lanes read only its cells' log ratios, in
    which its anchor B_0 = 0 cancels, so its increments stream in a window
    of _WINDOW cells at a time (stochastic.brownian_increments,
    _cell_ratios) and are counted by segments (_segment_counts).  The sizes
    are checked before any draw.
    """
    e_list = list(e_list)
    if not e_list:
        raise ValueError("dos_sweep needs an energy: e_list is empty")
    if replicas < 1:
        raise ValueError(f"dos_sweep needs replicas >= 1, got {replicas}")
    if any(not e > 0 for e in e_list):
        raise ValueError("E must be positive")
    half, h = grid_cells(lam, step)
    gens = [path_stream.gen for _, _, path_stream in stream_blocks(s, replicas, 1)]
    windows = brownian_increments(gens, 2 * half, h, _WINDOW)
    return _segment_counts(_cell_ratios(windows, h), replicas, h, e_list)


# ---------------------------------------------------------------------------
# The interarrival mean by a double-exponential rule
# ---------------------------------------------------------------------------

_DE_LEVEL = 6          # step h = 2^-6 in s
_DE_HALF_WIDTH = 4.5   # nodes on |s| <= 4.5: 577 a side
_DE_ROWS = 32          # u-rows of the integrand evaluated at a time


def mean_t1_quadrature(e_level: float) -> float:
    """Mean first pi-crossing time by a tensor exp-sinh rule on the quadrant.

    Evaluates (1/2) iint exp(-t/(2u(t+u)) - E t/2) (2u+t) / (u^{3/2}
    (t+u)^{3/2}) du dt over u, t > 0; it equals pi/sqrt(E).  Both axes take
    the double-exponential nodes of Takahasi & Mori (1974) for the half-line,
    x = exp(pi/2 sinh s) with weight h x pi/2 cosh s, at s = k h for
    |s| <= _DE_HALF_WIDTH = 4.5 and h = 2^-_DE_LEVEL = 2^-6: 577 nodes from
    2.0e-31 to 5.0e30.  The integrand is evaluated _DE_ROWS u-rows at a
    time, so no temporary holds more than 32 x 577 values.

    Node range.  The cut leaves out most at small t: as t -> 0 the
    u-integral grows like sqrt(pi/(2t)), so the strip t < tau holds
    sqrt(2 pi tau), 1.1e-15 at tau = 2.0e-31, or 3.6e-16 sqrt(E) relative
    to pi/sqrt(E) (3.6e-13 at E = 1e6 and 3.6e-10 at E = 1e12, where the
    measured errors were 2.7e-13 and 2.9e-10).  As u -> 0 the t-integral
    tends to 2, so u < 2.0e-31 holds 4e-31; for large u it is 2/(E u^2), so
    u > 5.0e30 holds 4e-31/E; exp(-E t/2) leaves nothing beyond t = 5.0e30
    for E above 1e-28.

    Step.  At E = 4 the relative error was 2.2e-5 at level 3 (h = 1/8),
    4.2e-8 at level 4 and 5.5e-12 at level 5, and is 5.7e-16 at level 6,
    rounding.  A double-exponential rule's error falls like exp(-c/h), so
    each halving of h raises it to a power above 1.  From E = 1e-6 to
    E = 1e6 level 6 was within 3e-13 relative of pi/sqrt(E).

    Error estimate.  The level-5 rule is nested in this one: every second
    node on each axis, with doubled weights.  Its gap from the level-6 sum
    costs no extra evaluation, and since level 5's error is 1e3 to 1e4
    times level 6's, the gap bounds the level-6 error (at E = 4, 5.5e-12
    against 5.7e-16).  It does not see the cut of the node range, bounded
    above.  Raises RuntimeError when the gap exceeds 1e-4 of the value.
    """
    if not e_level > 0:
        raise ValueError("E must be positive")
    val, val_coarse = _mean_t1_sums(e_level)
    rel = abs(val - val_coarse) / max(abs(val), 1e-300)
    if rel > 1e-4:
        raise RuntimeError(f"quadrature did not converge: rel err {rel:.2e}")
    return val


def _mean_t1_sums(e_level: float) -> tuple[float, float]:
    """The mean-T1 integral by the rule at _DE_LEVEL and by its nested rule."""
    h = 2.0 ** -_DE_LEVEL
    k = round(_DE_HALF_WIDTH / h)
    s = np.arange(-k, k + 1) * h
    t = np.exp(0.5 * _PI * np.sinh(s))         # the nodes of both axes
    w = h * 0.5 * _PI * np.cosh(s) * t
    half_et = 0.5 * e_level * t
    fine = coarse = 0.0
    for a in range(0, t.size, _DE_ROWS):       # a is even, as the nested nodes are
        u = t[a:a + _DE_ROWS, None]
        q = t + u
        f = q + u                               # 2u + t
        q *= u                                  # u (t + u)
        f /= q * np.sqrt(q)
        f *= np.exp(-0.5 * t / q - half_et)
        fine += w[a:a + _DE_ROWS] @ (f @ w)
        coarse += w[a:a + _DE_ROWS:2] @ (f[::2, ::2] @ w[::2])
    # the integrand's factor 1/2; the nested rule doubles each axis's weights
    return 0.5 * fine, 2.0 * coarse
