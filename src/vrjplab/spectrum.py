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
Gauge re-projection at each cell boundary goes through atan2, which
saturates gracefully where tan(theta) overflows.

The recurrence sees the path only through each cell's log coefficient
ratio logc_i - logc_{i-1} = log M_{i+1} - log M_{i-1}.  For a geometric
path given by its values (a SampledPath) the ratios are differences of
the cells' logc.  For log M = B_t - t/2 they are x_{i-1} + x_i - h, with x
the Brownian increments and h the cell width: the anchor of B, the grid's
origin and log sqrt(E) cancel, so the phase-counting experiments never
build B and read the increments as they are drawn
(stochastic.brownian_increments).  That form is also the more accurate
one: it adds two O(sqrt(h)) numbers, where a difference of two logc
values loses the digits of their magnitude, which grows along a path.

The cell recurrence is sequential, so it runs by one of two routes,
chosen by the caller's shape.  A single path (renewal gaps, single
counts) goes through one scalar driver, _scan, over fixed-size chunks of
ratios that records only the cells where a crossing happens.  A batch of
equal paths (the density-of-states sweep) advances every (replica x E)
lane at once, one numpy step per cell, over fixed-size blocks of cells.
Neither experiment holds a whole path, so memory does not grow with the
horizon or with lam.

The scalar loop holds the interpreter lock, so threads cannot overlap the
renewal scans.  renewal_statistics fills one bin of about equal work per
pool worker and runs the first bin in this process and each other one in
a forked child (stochastic.map_forked).  A long path may be cut at a
multiple of the scan chunk.  A piece that starts at cell lo > 0 draws its
increments from cell 0 and scans a warm-up of _WARM_TIME before lo from
psi = 0 (_scan_bin).  The recurrence contracts on the projective line (the
products of the cell maps have a positive Lyapunov exponent), so two
float64 scans of one path from different angles become bitwise equal
after some tens of thousands of cells at step 1e-3, and stay equal, the
recurrence being deterministic.  The parent stitches each path's pieces
in order and keeps a piece only if its psi at lo equals the previous
piece's final psi bit for bit; otherwise it rescans the piece from the
true state until the two agree at a chunk end (_scan with merge).  So the
gaps are those of one scan of the whole path, bit for bit, whatever the
cuts and the worker count.  A child sends back only its pieces' crossing
records and end angles.  Fork, not spawn: a spawned child would import
numpy and this module afresh, about 0.17 s, against a scan of about a
second.  The pool threads are idle during the scans and the scans import
nothing, which is what makes the fork safe; Python 3.12+ still warns
(DeprecationWarning) on forking a process that has threads.

Matrix routes.  The scaled discrete circle operator (weight n) has
eigenvalues approximating the continuum ones, counted by a dense
eigensolve.  A conservative finite-difference operator built from a
sampled path (fluxes from the trapezoid resistances, boundary seam
implementing g(-lam) = g(lam) and the twisted flux matching) provides
the deterministic spectral oracle.  It and the quadrature of the renewal
mean import scipy.sparse and scipy.integrate when called, so the
phase-counting runs, which call neither, do not pay those imports.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

from .beta_field import BetaField, dense_h
from .stochastic import (RngStream, SampledPath, brownian_increments, grid_cells, map_forked,
                         pool_workers, stream_blocks)

_PI = math.pi


@dataclass
class PhaseTrace:
    theta_final: float
    crossings: np.ndarray     # times of pi-crossings, offsets from the path start
    count: int                # exact number of pi-crossings; equals floor(theta/pi)


_CROSS_TOL = 1e-10   # endpoint-exact crossings round to the crossed side


def _first_crossing_angle() -> float:
    """Smallest advanced angle x whose crossing count (x + tol) // pi is >= 1.

    fl(x + tol) is monotone in x, so x < this bound is exactly the test
    (x + tol) // pi == 0, with one comparison instead of an add and a divide.
    """
    x = _PI - _CROSS_TOL
    while x + _CROSS_TOL >= _PI:
        x = math.nextafter(x, 0.0)
    while x + _CROSS_TOL < _PI:
        x = math.nextafter(x, 4.0)
    return x


_CROSS_ANGLE = _first_crossing_angle()
# Cells per chunk of the scalar route (one tolist() each) and per block of
# the lane route.  Neither changes a count.
_SCAN_CHUNK = 1 << 15
_LANE_BLOCK = 256


def _scan_cells(ratios: list[float], psi: float, dpsi: float, first: int,
                records: list) -> float:
    """Advance the gauge angle psi in [0, pi) across consecutive cells.

    ratios[j] = log of the coefficient ratio between cell first+j and the
    cell before it.  At a cell boundary the angle is rescaled by that
    ratio, which stays O(1) on a Brownian grid, so no precision is lost
    even when M^2 itself spans hundreds of e-folds.  The rescaled angle
    is nonnegative (sin psi >= 0 on [0, pi)).  A cell whose advanced
    angle crosses pi appends (cell, entry angle, crossings).
    """
    exp, sin, cos, atan2 = math.exp, math.sin, math.cos, math.atan2
    cross_at = _CROSS_ANGLE
    for i, d in enumerate(ratios, first):
        psi = atan2(exp(d) * sin(psi), cos(psi))
        x = psi + dpsi
        if x < cross_at:
            psi = x
            continue
        ncross = int((x + _CROSS_TOL) // _PI)
        records.append((i, psi, ncross))
        psi = x - ncross * _PI
        if psi < 0.0:
            psi = 0.0
    return psi


def _path_chunks(gbm: SampledPath, e_level: float):
    """Yield (lo, log ratios of cells lo..hi-1) of a geometric path, _SCAN_CHUNK cells at a time.

    Cell i's log coefficient is logc_i = log sqrt(E) + log M_i + log
    M_{i+1} (the frozen M^2), and its ratio is logc_i - logc_{i-1}; the
    first cell has no predecessor and takes ratio 0.
    """
    c0 = 0.5 * math.log(e_level)
    n = gbm.values.size - 1
    prev = None                  # logc of the cell before the chunk
    for lo in range(0, n, _SCAN_CHUNK):
        logm = np.log(gbm.values[lo:min(n, lo + _SCAN_CHUNK) + 1])
        logc = c0 + logm[:-1] + logm[1:]
        ratios = np.empty(logc.size)
        ratios[0] = 0.0 if prev is None else logc[0] - prev
        np.subtract(logc[1:], logc[:-1], out=ratios[1:])
        prev = logc[-1]
        yield lo, ratios


def _cell_ratios(blocks, h: float):
    """Yield (lo, log ratios of cells lo..hi-1) of Brownian paths, from their increments.

    blocks yields (lo, x), x[r, j] the increment over cell lo + j of path
    r (stochastic.brownian_increments), on cells of width h.  With log M =
    B_t - t/2, the ratio between the frozen coefficients of cell i and
    cell i - 1 is log M_{i+1} - log M_{i-1} = (x_{i-1} + x_i) - h: the
    anchor of B, the grid's origin and log sqrt(E) cancel.  The first
    block's first cell has no predecessor here and takes ratio 0; one
    increment carries across blocks.
    """
    before = None
    for lo, x in blocks:
        d = np.empty(x.shape)
        d[:, 0] = 0.0 if before is None else before + x[:, 0] - h
        np.add(x[:, :-1], x[:, 1:], out=d[:, 1:])
        d[:, 1:] -= h
        before = x[:, -1].copy()
        yield lo, d


@dataclass
class _Piece:
    """The scan of cells lo..hi-1 of one path (_scan)."""
    lo: int
    hi: int
    entry: float      # psi on entering cell lo
    records: list     # _scan_cells' records of cells lo..hi-1
    ends: dict        # chunk end e in (lo, hi] -> psi after cell e - 1


def _scan(chunks, step: float, e_level: float, lo: int, hi: int, start: int = 0,
          psi: float = 0.0, merge: _Piece | None = None) -> _Piece:
    """Scalar route: scan cells start..hi-1 from psi, given on entering cell start.

    chunks yields (c, log ratios of cells c..c'-1) for consecutive chunks
    of cells of width step, up to cell hi - 1, the first one holding cell
    start (_path_chunks, _renewal_chunks).  Returns the crossing records of
    cells lo..hi-1, psi on entering lo and psi at each chunk end past lo.
    Given merge, an earlier scan of the same cells, the scan stops at the
    first chunk end where psi equals merge's bit for bit; merge's records
    and ends stand from there on.  Memory is one chunk plus the records.
    """
    dpsi = math.sqrt(e_level) * step
    records: list = []
    entry, ends = psi, {}
    for c, ratios in chunks:
        first = max(start, c)
        psi = _scan_cells(ratios[first - c:].tolist(), psi, dpsi, first, records)
        end = c + ratios.size
        if end <= lo:
            entry = psi
            continue
        ends[end] = psi
        if merge is not None and psi.hex() == merge.ends[end].hex():
            records += [r for r in merge.records if r[0] >= end]
            ends = {**merge.ends, **ends}
            break
    return _Piece(lo, hi, entry, [r for r in records if r[0] >= lo], ends)


def _crossing_times(records: list, step: float, e_level: float) -> np.ndarray:
    """Times of the pi-crossings of _scan_cells' records, offsets from the path start.

    Within cell i the gauge angle moves at rate sqrt(E) from its entry
    angle, so its j-th crossing is at i*h + (j*pi - psi_in)/sqrt(E).
    """
    rec = np.array(records, dtype=float).reshape(-1, 3)
    nc = rec[:, 2].astype(np.int64)
    cells = np.repeat(rec[:, 0].astype(np.int64), nc)
    psi_in = np.repeat(rec[:, 1], nc)
    j = np.arange(1, cells.size + 1) - np.repeat(np.cumsum(nc) - nc, nc)
    return cells * step + (j * _PI - psi_in) / math.sqrt(e_level)


def phase_propagate(e_level: float, gbm: SampledPath) -> PhaseTrace:
    """Propagate the phase over the whole span of the geometric path gbm from theta = 0."""
    if not e_level > 0:
        raise ValueError("E must be positive")
    n = gbm.values.size - 1
    if n < 1:
        raise ValueError("path has no cell: phase propagation needs at least two nodes")
    scan = _scan(_path_chunks(gbm, e_level), gbm.step, e_level, 0, n)
    psi = scan.ends[n]
    # unwind the final gauge angle to the raw phase fraction by the last cell's logc
    logm = np.log(gbm.values[-2:])
    logc_last = 0.5 * math.log(e_level) + logm[0] + logm[1]
    phi = math.atan2(math.sin(psi), math.exp(min(logc_last, 700.0)) * math.cos(psi))
    if phi < 0.0:
        phi = 0.0
    crossings = _crossing_times(scan.records, gbm.step, e_level)
    return PhaseTrace(crossings.size * _PI + phi, crossings, crossings.size)


def count_states_phase(e_level: float, gbm: SampledPath) -> int:
    """floor(theta(lam)/pi); brackets the true count within -1/+2."""
    return phase_propagate(e_level, gbm).count


def _lane_counts(ratio_blocks, n_rep: int, step: float, e_list) -> np.ndarray:
    """Lane route: pi-crossing counts of every (E, replica) lane at once.

    ratio_blocks yields (lo, log ratios of cells lo..hi-1) of the n_rep
    paths, one row each, all on the same grid, for consecutive blocks of
    cells (_cell_ratios).  The ratios do not depend on E, so each is
    exponentiated once for all of a replica's lanes.  Each cell takes the
    scalar route's steps on all lanes together: rescale through arctan2,
    advance by sqrt(E)*h, then (only in cells where some lane crosses)
    floor-divide by pi with the tolerance and clamp at 0.  Memory is
    O(lanes x block).  Returns counts of shape (len(e_list), n_rep).
    """
    dpsi = np.repeat([math.sqrt(e) * step for e in e_list], n_rep)
    n_lanes = dpsi.size
    psi = np.zeros(n_lanes)
    count = np.zeros(n_lanes)
    sn, cs, nc = np.empty(n_lanes), np.empty(n_lanes), np.empty(n_lanes)
    crossing = np.empty(n_lanes, dtype=bool)
    for _, d in ratio_blocks:
        # one row per cell; lane e * n_rep + r takes replica r's ratio
        for r in np.tile(np.exp(d).T, len(e_list)):
            np.sin(psi, out=sn)
            np.cos(psi, out=cs)
            np.multiply(r, sn, out=sn)
            np.arctan2(sn, cs, out=psi)
            np.add(psi, dpsi, out=psi)
            np.greater_equal(psi, _CROSS_ANGLE, out=crossing)
            if np.count_nonzero(crossing):
                np.add(psi, _CROSS_TOL, out=nc)
                np.floor_divide(nc, _PI, out=nc)
                count += nc
                psi -= nc * _PI
                np.maximum(psi, 0.0, out=psi)
    return count.astype(np.int64).reshape(len(e_list), n_rep)


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


def fd_spectrum_twisted(gbm: SampledPath, k: int = 8) -> np.ndarray:
    """Lowest k eigenvalues of the twisted FD operator (shift-invert).

    ARPACK starts from the fixed vector of ones, not a random one, so the
    eigenvalues repeat to the last digit on every run.
    """
    import scipy.sparse.linalg

    a = fd_operator_twisted(gbm).tocsc()
    vals = scipy.sparse.linalg.eigsh(a, k=k, sigma=0.0, which="LM",
                                     v0=np.ones(a.shape[0]), return_eigenvectors=False)
    return np.sort(vals)


# ---------------------------------------------------------------------------
# Renewal gaps and the density-of-states sweep
# ---------------------------------------------------------------------------

# The warm-up before a cut, as a time: the contraction that lets a warm-up
# land on the true angle bit for bit acts per unit of time, not per cell.
# Measured at step 1e-3, E in {0.25, 1, 4, 16}, 36 cuts per energy: the
# first bitwise-equal cell came after a median of 32-35k cells, at most
# 69.4k; this is 2^17 cells at step 1e-3.
_WARM_TIME = 131.072
# Per-cell cost of drawing a path's increments without scanning them,
# relative to scanning a cell (which draws it too): 19.7-22.3 ns against
# 348-392 ns, ratios 0.052-0.064, on a 2-vCPU Xeon VM (standard_normal and
# its scale over 32768-cell chunks, against the whole scan at E = 1 and 4).
_DRAW_COST = 0.055


def _warm_cells(step: float) -> int:
    """Cells of the warm-up before a cut: _WARM_TIME on cells of width step."""
    return math.ceil(_WARM_TIME / step)


def renewal_statistics(e_levels, horizons, streams, step: float = 1e-3,
                       min_count: int = 100) -> list[np.ndarray]:
    """Interarrival gaps of the pi-crossing times on [0, horizons[k]], one array per energy.

    Path k is B from B_0 = 0, drawn from streams[k] on cells of width step,
    read as log M = B_t - t/2 and scanned at energy e_levels[k] from
    theta = 0.  The gaps are those of one scan of the whole path, bit for
    bit, whatever the pool_workers() count: the first bin of work runs in
    this process and the others in forked children (see the module
    docstring); with one usable CPU nothing is cut or forked.  Every energy
    and horizon is checked before any child starts.  The streams are not
    advanced.
    """
    streams = list(streams)
    sizes = []
    for e_level, horizon, _ in zip(e_levels, horizons, streams, strict=True):
        if not e_level > 0:
            raise ValueError("E must be positive")
        sizes.append(grid_cells(horizon, step)[0])
    bins = _renewal_bins(sizes, pool_workers(), _warm_cells(step))
    jobs = [([(e_levels[k], streams[k], step, lo, hi) for k, lo, hi in b],) for b in bins]
    done = [piece for pieces in map_forked(_scan_bin, jobs) for piece in pieces]
    paths = [k for b in bins for k, _, _ in b]
    out = []
    for k, e_level in enumerate(e_levels):
        records: list = []
        psi = 0.0                    # the true psi on entering the next piece
        for piece in (piece for j, piece in zip(paths, done) if j == k):
            if piece.entry.hex() != psi.hex():
                chunks = _renewal_chunks(streams[k], piece.hi, step, piece.lo)
                piece = _scan(chunks, step, e_level, piece.lo, piece.hi, piece.lo, psi, piece)
            records += piece.records
            psi = piece.ends[piece.hi]
        crossings = _crossing_times(records, step, e_level)
        gaps = np.diff(np.concatenate([[0.0], crossings]))
        if gaps.size < min_count:
            raise RuntimeError(f"insufficient data: {gaps.size} interarrivals < {min_count}")
        out.append(gaps)
    return out


def _piece_cost(lo: int, hi: int, warm: int) -> float:
    """Cost of _scan_bin's scan of cells lo..hi-1, in scanned cells.

    The cells, the warm-up of up to warm cells and the draw-only prefix
    before the warm-up.
    """
    warm = min(lo, warm)
    return hi - lo + warm + _DRAW_COST * (lo - warm)


def _renewal_bins(sizes: list[int], workers: int, warm: int) -> list[list]:
    """Cut paths of sizes[k] cells into at most workers bins of about equal _piece_cost.

    A bin is a list of pieces (k, lo, hi): cells lo..hi-1 of path k, with
    lo and hi multiples of _SCAN_CHUNK unless they are a path's ends.  A
    cut piece costs a warm-up of warm cells.  The bins are the greedy
    fill, in path order, of the smallest bin cost (found by bisection)
    that needs at most workers bins, so the bins in order hold every
    path's cells in order.  One worker gets one bin of whole paths.
    """
    def fill(cap: float):
        bins, cur, room = [], [], cap
        for k, n in enumerate(sizes):
            lo = 0
            while lo < n:
                if _piece_cost(lo, n, warm) <= room:
                    hi = n
                else:                # the longest piece from lo that fits
                    hi = lo + int((room - _piece_cost(lo, lo, warm)) // _SCAN_CHUNK) * _SCAN_CHUNK
                if hi > lo:
                    cur.append((k, lo, hi))
                    room -= _piece_cost(lo, hi, warm)
                    lo = hi
                if lo < n:           # the bin is full
                    if not cur:
                        return None
                    bins.append(cur)
                    cur, room = [], cap
        return bins + [cur]

    low, high = 0.0, float(sum(sizes))
    for _ in range(50):
        mid = (low + high) / 2
        bins = fill(mid)
        if bins is not None and len(bins) <= workers:
            high = mid
        else:
            low = mid
    return fill(high)


def _renewal_chunks(s: RngStream, hi: int, step: float, start: int):
    """Yield _scan's chunks of the path of a copy of s, cells 0..hi-1.

    The increments are drawn from cell 0 (stochastic.brownian_increments),
    so the ratios are those of the whole path bit for bit.  The chunks
    that end before cell start - 1 are drawn only; the first one kept
    holds cell start - 1, so every cell from start on has its true ratio.
    """
    incr = brownian_increments([copy.deepcopy(s.gen)], hi, step, _SCAN_CHUNK)
    for lo, d in _cell_ratios(((lo, x) for lo, x in incr if lo + x.shape[1] >= start), step):
        yield lo, d[0]


def _scan_bin(pieces) -> list[_Piece]:
    """A bin's job: _scan of each piece (e_level, s, step, lo, hi), in order.

    A piece that starts at lo > 0 scans a warm-up of _warm_cells(step)
    cells before lo from psi = 0, which is invariant under rescaling, so
    the warm-up's first ratio does not matter.
    """
    out = []
    for e_level, s, step, lo, hi in pieces:
        start = max(0, lo - _warm_cells(step))
        out.append(_scan(_renewal_chunks(s, hi, step, start), step, e_level, lo, hi, start))
    return out


def dos_sweep(e_list, lam: float, replicas: int, s: RngStream,
              step: float = 1e-3) -> np.ndarray:
    """Eigenvalue counts N_lam(E) by the phase route, shape (len(e_list), replicas).

    One path per replica, shared across the E values (the counts are
    then monotone-coupled, which tightens ratio comparisons).  Replica r's
    path is log_gbm_rows' path of s.substream(r + 1) on the grid_cells
    grid of [-lam, lam]; the lane route reads only its cells' log ratios,
    in which its anchor B_0 = 0 cancels, so its increments stream in a
    lane block at a time (stochastic.brownian_increments, _cell_ratios).
    """
    e_list = list(e_list)
    if any(not e > 0 for e in e_list):
        raise ValueError("E must be positive")
    half, h = grid_cells(lam, step)
    gens = [path_stream.gen for _, _, path_stream in stream_blocks(s, replicas, 1)]
    blocks = brownian_increments(gens, 2 * half, h, _LANE_BLOCK)
    return _lane_counts(_cell_ratios(blocks, h), replicas, h, e_list)


# ---------------------------------------------------------------------------
# The interarrival mean by quadrature
# ---------------------------------------------------------------------------

_QUAD_EPSREL = 1e-8   # relative tolerance of the adaptive quadrature


def mean_t1_quadrature(e_level: float) -> float:
    """Mean first pi-crossing time by adaptive 2-D quadrature.

    Evaluates (1/2) iint exp(-t/(2u(t+u)) - E t/2) / (sqrt(u) sqrt(t+u))
    * (2u+t)/(u(t+u)) du dt over the positive quadrant, mapped to the
    unit square by u = x/(1-x), t = y/(1-y); equals pi/sqrt(E).
    """
    import scipy.integrate

    if not e_level > 0:
        raise ValueError("E must be positive")

    def integrand(x: float, y: float) -> float:
        u = x / (1.0 - x)
        t = y / (1.0 - y)
        if u <= 0.0 or t <= 0.0:
            return 0.0
        jac = 1.0 / ((1.0 - x) ** 2 * (1.0 - y) ** 2)
        expo = -t / (2.0 * u * (t + u)) - 0.5 * e_level * t
        if expo < -700.0:
            return 0.0
        core = math.exp(expo) / (math.sqrt(u) * math.sqrt(t + u)) \
            * (2.0 * u + t) / (u * (t + u))
        return 0.5 * core * jac

    val, err = scipy.integrate.dblquad(integrand, 0.0, 1.0, 0.0, 1.0,
                                       epsabs=1e-12, epsrel=_QUAD_EPSREL)
    rel = err / max(abs(val), 1e-300)
    if rel > 1e-4:
        raise RuntimeError(f"quadrature did not converge: rel err {rel:.2e}")
    return val
