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

The cell recurrence is sequential, so it runs by one of two routes,
chosen by the caller's shape.  A single path (renewal gaps, single
counts) goes through a scalar loop over fixed-size chunks of log M that
records only the cells where a crossing happens; the chunks come from a
SampledPath or, for the renewal gaps, straight from the streamed Brownian
path (stochastic.brownian_blocks).  A batch of equal paths (the
density-of-states sweep) advances every (replica x E) lane at once, one
numpy step per cell, over fixed-size blocks of cells that stream from the
replicas' paths.  Neither experiment holds a whole path, so memory does
not grow with the horizon or with lam.

The scalar loop holds the interpreter lock, so threads cannot overlap the
renewal scans.  renewal_statistics fills one bin of about equal work per
pool worker and runs the first bin in this process and each other one in
a forked child (stochastic.map_forked).  A long path may be cut at a
multiple of the scan chunk.  A piece that starts at cell lo > 0 draws its
path from node 0 and scans a warm-up of _WARM_CELLS cells before lo from
psi = 0.  The recurrence contracts on the projective line (the products of
the cell maps have a positive Lyapunov exponent), so two float64 scans of
one path from different angles become bitwise equal after some tens of
thousands of cells at step 1e-3, and stay equal.  The parent stitches each
path's pieces in order and keeps a piece only if its psi at lo equals the
previous piece's final psi bit for bit; otherwise it rescans from the true
state until the two agree at a chunk end.  So the gaps are those of one
scan of the whole path, bit for bit, whatever the cuts and the worker
count.  A child sends back only its pieces' crossing records and end
angles.  Fork, not spawn: a spawned child would import numpy and scipy
afresh, about 0.75 s, against a scan of about a second.  The pool threads
are idle during the scans, which is what makes the fork safe; Python
3.12+ still warns (DeprecationWarning) on forking a process that has
threads.

Matrix routes.  The scaled discrete circle operator (weight n) has
eigenvalues approximating the continuum ones, counted by a dense
eigensolve.  A conservative finite-difference operator built from a
sampled path (fluxes from the trapezoid resistances, boundary seam
implementing g(-lam) = g(lam) and the twisted flux matching) provides
the deterministic spectral oracle.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg

from .beta_field import BetaField, dense_h
from .stochastic import (PathKind, RngStream, SampledPath, brownian_blocks, grid_cells,
                         map_forked, map_stream_blocks, pool_workers, stream_blocks)

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
# Cells per chunk of the scalar route (one tolist() each) and of the lane
# route's anchor pre-pass; cells per block of the lane route.  Neither
# changes a count.
_SCAN_CHUNK = 1 << 15
_LANE_BLOCK = 256


def _brownian_log_m(b: np.ndarray, t0: float, step: float, lo: int) -> np.ndarray:
    """log M = B_t - t/2, with B on nodes lo, lo+1, ... (last axis of b) of the grid t0 + k*step.

    Reading the log directly keeps long horizons representable where the
    geometric values themselves would over/underflow float64.
    """
    return b - (t0 + step * np.arange(lo, lo + b.shape[-1])) / 2.0


def _log_m(path: SampledPath, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """log of the geometric path on nodes lo..hi-1; a brownian input B is read as e^{B - t/2}."""
    vals = path.values[lo:hi]
    if path.kind is PathKind.GBM:
        return np.log(vals)
    return _brownian_log_m(vals, path.t0, path.step, lo)


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


@dataclass
class _Scan:
    """One path's propagation: crossing records and the final gauge state."""
    cells: np.ndarray      # recorded cells, increasing
    psi_in: np.ndarray     # gauge angle on entering each recorded cell
    ncross: np.ndarray     # pi-crossings within each recorded cell
    psi: float             # final gauge angle
    logc_last: float       # logc of the last cell

    @property
    def count(self) -> int:
        return int(self.ncross.sum())


def _record_arrays(records: list):
    """(cells, entry angles, crossings) of _scan_cells' records, as arrays."""
    rec = np.array(records, dtype=float).reshape(-1, 3)
    return rec[:, 0].astype(np.int64), rec[:, 1], rec[:, 2].astype(np.int64)


def _path_chunks(gbm: SampledPath):
    """Yield (lo, log M on nodes lo..hi) over the path, _SCAN_CHUNK cells at a time."""
    n = gbm.values.size - 1
    for lo in range(0, n, _SCAN_CHUNK):
        yield lo, _log_m(gbm, lo, min(n, lo + _SCAN_CHUNK) + 1)


def _scan_chunks(chunks, step: float, e_level: float, records: list, start: int = 0,
                 psi: float = 0.0):
    """Scalar route: advance psi, given on entering cell start, chunk by chunk.

    chunks yields (lo, log M on nodes lo..hi) for consecutive chunks of
    cells of width step; consecutive chunks share a node.  Scans the cells
    from start on, appends their crossing records to records and yields
    (hi, psi after cell hi - 1, logc of cell hi - 1) after each chunk.
    Every cell but cell 0 takes its ratio from the logc of the cell before
    it, so a scan that starts at start > 0 needs the chunk holding cell
    start - 1.  Memory is one chunk plus the records.
    """
    c0 = 0.5 * math.log(e_level)
    dpsi = math.sqrt(e_level) * step
    prev = None
    for lo, logm in chunks:
        # logc on the chunk's cells: c0 + log of the frozen M^2 (c0 = log sqrt(E))
        logc = c0 + logm[:-1] + logm[1:]
        ratios = np.empty(logc.size)
        # the first cell has no predecessor; psi = 0 is invariant under rescaling
        ratios[0] = 0.0 if prev is None else logc[0] - prev
        np.subtract(logc[1:], logc[:-1], out=ratios[1:])
        prev = logc[-1]
        first = max(start, lo)
        psi = _scan_cells(ratios[first - lo:].tolist(), psi, dpsi, first, records)
        yield lo + logc.size, psi, float(prev)


def _phase_scan(chunks, step: float, e_level: float) -> _Scan:
    """Propagate one path from theta = 0 over all of its chunks (_scan_chunks)."""
    records: list = []
    for _, psi, logc_last in _scan_chunks(chunks, step, e_level, records):
        pass
    return _Scan(*_record_arrays(records), psi, logc_last)


def _crossing_times(cells: np.ndarray, psi_in: np.ndarray, nc: np.ndarray, step: float,
                    e_level: float) -> np.ndarray:
    """Times of the pi-crossings, offsets from the path start.

    Within cell i the gauge angle moves at rate sqrt(E) from its entry
    angle, so its j-th crossing is at i*h + (j*pi - psi_in)/sqrt(E).
    """
    cells = np.repeat(cells, nc)
    psi_in = np.repeat(psi_in, nc)
    j = np.arange(1, cells.size + 1) - np.repeat(np.cumsum(nc) - nc, nc)
    return cells * step + (j * _PI - psi_in) / math.sqrt(e_level)


def phase_propagate(e_level: float, gbm: SampledPath,
                    collect_crossings: bool = True) -> PhaseTrace:
    """Propagate the phase over the whole path span from theta = 0."""
    if e_level <= 0:
        raise ValueError("E must be positive")
    if gbm.values.size < 2:
        raise ValueError("path has no cell: phase propagation needs at least two nodes")
    scan = _phase_scan(_path_chunks(gbm), gbm.step, e_level)
    psi = scan.psi
    # unwind the final gauge angle to the raw phase fraction
    phi = math.atan2(math.sin(psi), math.exp(min(scan.logc_last, 700.0)) * math.cos(psi))
    if phi < 0.0:
        phi = 0.0
    count = scan.count
    theta_final = float(count) * _PI + phi
    crossings = (_crossing_times(scan.cells, scan.psi_in, scan.ncross, gbm.step, e_level)
                 if collect_crossings else np.empty(0))
    return PhaseTrace(theta_final, crossings, count)


def count_states_phase(e_level: float, gbm: SampledPath) -> int:
    """floor(theta(lam)/pi); brackets the true count within -1/+2."""
    return phase_propagate(e_level, gbm, collect_crossings=False).count


def _lane_counts(logm_blocks, n_rep: int, step: float, e_list) -> np.ndarray:
    """Lane route: pi-crossing counts of every (E, replica) lane at once.

    logm_blocks yields log M of the n_rep paths, one row each, all on the
    same grid, a block of consecutive cells at a time: a block holds the
    nodes of its cells, so consecutive blocks share a node.  Each cell
    takes the scalar route's steps on all lanes together: rescale through
    arctan2, advance by sqrt(E)*h, then (only in cells where some lane
    crosses) floor-divide by pi with the tolerance and clamp at 0.  Memory
    is O(lanes x block).  Returns counts of shape (len(e_list), n_rep).
    """
    c0 = np.array([0.5 * math.log(e) for e in e_list])[:, None, None]
    dpsi = np.repeat([math.sqrt(e) * step for e in e_list], n_rep)
    n_lanes = dpsi.size
    psi = np.zeros(n_lanes)
    count = np.zeros(n_lanes)
    sn, cs, nc = np.empty(n_lanes), np.empty(n_lanes), np.empty(n_lanes)
    crossing = np.empty(n_lanes, dtype=bool)
    before = None                    # logc of the cell before the block, for its first ratio
    for logm in logm_blocks:
        logc = c0 + logm[None, :, :-1] + logm[None, :, 1:]
        # the first cell has no predecessor: log ratio 0
        logc = np.concatenate([logc[:, :, :1] if before is None else before, logc], axis=2)
        before = logc[:, :, -1:]
        ratios = np.moveaxis(np.diff(logc, axis=2), 2, 0)
        for r in np.exp(ratios).reshape(-1, n_lanes):
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
    a = fd_operator_twisted(gbm).tocsc()
    vals = scipy.sparse.linalg.eigsh(a, k=k, sigma=0.0, which="LM",
                                     v0=np.ones(a.shape[0]), return_eigenvectors=False)
    return np.sort(vals)


# ---------------------------------------------------------------------------
# Renewal gaps and the density-of-states sweep
# ---------------------------------------------------------------------------

# A piece of a renewal path that starts at cell lo > 0 scans from cell
# lo - _WARM_CELLS with psi = 0 and is kept if its psi on entering cell lo
# equals the true one bit for bit.  Two scans of one path from different
# angles become equal after a while (the recurrence contracts on the
# projective line; Furstenberg) and stay equal, the recurrence being
# deterministic.  Measured at step 1e-3, E in {0.25, 1, 4, 16}, 36 cuts per
# energy: the first bitwise-equal cell came after a median of 32-35k cells,
# at most 69.4k.  The contraction acts per unit of time, so a finer step
# should need proportionally more cells; a piece that has not merged falls
# back to an exact rescan (_resume_scan).
_WARM_CELLS = 1 << 17
# Per-cell cost of drawing a path's nodes without scanning them, relative to
# scanning a cell (which draws it too): 26.3-26.9 ns against 370-376 ns on a
# 2-vCPU VM (standard_normal, the scale and the running sum over 32768-cell
# chunks, against the whole scan).
_DRAW_COST = 0.07


def renewal_statistics(e_levels, horizons, streams, step: float = 1e-3,
                       min_count: int = 100) -> list[np.ndarray]:
    """Interarrival gaps of the pi-crossing times on [0, horizons[k]], one array per energy.

    Path k is B from B_0 = 0, drawn from streams[k] on cells of width step,
    scanned at energy e_levels[k] from theta = 0.  The scans fill
    pool_workers() bins of about equal cost (_renewal_bins); the first bin
    runs in this process, the others in forked children
    (stochastic.map_forked).  A long path may be cut into pieces at
    multiples of _SCAN_CHUNK.  A piece that starts at cell lo > 0 draws
    its path from node 0 on a copy of the stream, scans a warm-up of
    _WARM_CELLS cells before lo from psi = 0, and records psi on entering
    lo and its crossings from lo on (_renewal_piece).  Here the pieces of
    each path are stitched in order: a piece is kept only if its psi at lo
    equals the previous piece's final psi bit for bit; otherwise the scan
    resumes from the previous piece's true state (_resume_scan).  So the
    gaps are those of one scan of the whole path, bit for bit, whatever the
    cuts and the worker count.  With one usable CPU nothing is cut or
    forked.  Every energy and horizon is checked before any child starts.
    The streams are not advanced.
    """
    streams = list(streams)
    sizes = []
    for e_level, horizon, _ in zip(e_levels, horizons, streams, strict=True):
        if e_level <= 0:
            raise ValueError("E must be positive")
        sizes.append(grid_cells(horizon, step)[0])
    bins = _renewal_bins(sizes, pool_workers())
    jobs = [([(e_levels[k], streams[k], step, lo, hi) for k, lo, hi in b],) for b in bins]
    done = [piece for pieces in map_forked(_scan_bin, jobs) for piece in pieces]
    paths = [k for b in bins for k, _, _ in b]
    out = []
    for k, e_level in enumerate(e_levels):
        records: list = []
        psi = 0.0                    # the true psi on entering the next piece
        for piece in (piece for j, piece in zip(paths, done) if j == k):
            if piece.entry.hex() != psi.hex():
                piece = _resume_scan(e_level, streams[k], step, psi, piece)
            records += piece.records
            psi = piece.ends[piece.hi]
        crossings = _crossing_times(*_record_arrays(records), step, e_level)
        gaps = np.diff(np.concatenate([[0.0], crossings]))
        if gaps.size < min_count:
            raise RuntimeError(f"insufficient data: {gaps.size} interarrivals < {min_count}")
        out.append(gaps)
    return out


def _piece_cost(lo: int, hi: int) -> float:
    """Cost of _renewal_piece on cells lo..hi-1, in scanned cells.

    The cells, the warm-up and the draw-only prefix before the warm-up.
    """
    warm = min(lo, _WARM_CELLS)
    return hi - lo + warm + _DRAW_COST * (lo - warm)


def _renewal_bins(sizes: list[int], workers: int) -> list[list]:
    """Cut paths of sizes[k] cells into at most workers bins of about equal _piece_cost.

    A bin is a list of pieces (k, lo, hi): cells lo..hi-1 of path k, with
    lo and hi multiples of _SCAN_CHUNK unless they are a path's ends.  The
    bins are the greedy fill, in path order, of the smallest bin cost
    (found by bisection) that needs at most workers bins, so the bins in
    order hold every path's cells in order.  One worker gets one bin of
    whole paths.
    """
    def fill(cap: float):
        bins, cur, room = [], [], cap
        for k, n in enumerate(sizes):
            lo = 0
            while lo < n:
                if _piece_cost(lo, n) <= room:
                    hi = n
                else:                # the longest piece from lo that fits
                    hi = lo + int((room - _piece_cost(lo, lo)) // _SCAN_CHUNK) * _SCAN_CHUNK
                if hi > lo:
                    cur.append((k, lo, hi))
                    room -= _piece_cost(lo, hi)
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


@dataclass
class _Piece:
    """The scan of cells lo..hi-1 of one renewal path (_renewal_piece)."""
    lo: int
    hi: int
    entry: float      # psi on entering cell lo: exact at lo = 0, after the warm-up otherwise
    records: list     # _scan_cells' records of cells lo..hi-1
    ends: dict        # chunk end e in (lo, hi] -> psi after cell e - 1


def _renewal_chunks(s: RngStream, hi: int, step: float, start: int):
    """Yield _scan_chunks' chunks of the path B of a copy of s, up to node hi.

    The path is drawn from node 0 (stochastic.brownian_blocks), so its
    nodes are those of the whole path bit for bit; the chunks that end
    before cell start are drawn only.
    """
    for lo, b in brownian_blocks([copy.deepcopy(s.gen)], hi, step, _SCAN_CHUNK):
        if lo + b.shape[1] - 1 >= start:
            yield lo, _brownian_log_m(b[0], 0.0, step, lo)


def _scan_bin(pieces) -> list[_Piece]:
    """A bin's job: _renewal_piece(e_level, s, step, lo, hi) for each of its pieces, in order."""
    return [_renewal_piece(*piece) for piece in pieces]


def _renewal_piece(e_level: float, s: RngStream, step: float, lo: int, hi: int) -> _Piece:
    """Scan cells lo..hi-1 of the path of s, after a warm-up of _WARM_CELLS cells from psi = 0."""
    start = max(0, lo - _WARM_CELLS)
    records: list = []
    entry, ends = 0.0, {}
    for end, psi, _ in _scan_chunks(_renewal_chunks(s, hi, step, start), step, e_level,
                                    records, start):
        if end <= lo:
            entry = psi
        else:
            ends[end] = psi
    return _Piece(lo, hi, entry, [r for r in records if r[0] >= lo], ends)


def _resume_scan(e_level: float, s: RngStream, step: float, psi: float,
                 piece: _Piece) -> _Piece:
    """piece, scanned again from the true psi on entering its cell lo.

    The scan stops at the first chunk end where its psi equals the piece's
    bit for bit; from there on the piece's records are the true ones.
    """
    records: list = []
    ends = {}
    for end, state, _ in _scan_chunks(_renewal_chunks(s, piece.hi, step, piece.lo), step,
                                      e_level, records, piece.lo, psi):
        if end <= piece.lo:
            continue
        ends[end] = state
        if state.hex() == piece.ends[end].hex():
            records += [r for r in piece.records if r[0] >= end]
            break
    return _Piece(piece.lo, piece.hi, psi, records, {**piece.ends, **ends})


def dos_sweep(e_list, lam: float, replicas: int, s: RngStream,
              step: float = 1e-3) -> np.ndarray:
    """Eigenvalue counts N_lam(E) by the phase route, shape (len(e_list), replicas).

    One path per replica, shared across the E values (the counts are
    then monotone-coupled, which tightens ratio comparisons).  The paths
    stream into the lane route a lane block at a time (_log_m_blocks).
    """
    _, h = grid_cells(lam, step)
    return _lane_counts(_log_m_blocks(lam, step, replicas, s), replicas, h, list(e_list))


def _log_m_blocks(lam: float, step: float, replicas: int, s: RngStream):
    """Yield the replicas' log M on [-lam, lam], one row each, a lane block of nodes at a time.

    Row r is log_gbm_rows' path of s.substream(r + 1): B on the grid_cells
    grid of each side, anchored to 0 at t = 0 (node half), read as
    B_t - t/2.  A pre-pass on the worker pool finds each anchor B'_half
    of the unanchored path by summing only the first half of the
    replica's draws, from a fresh substream.  The blocks then stream on
    this thread, each (B' - anchor) - t/2 with log_gbm_rows' operations,
    so the rows equal its rows bit for bit.
    """
    half, h = grid_cells(lam, step)
    anchor = np.empty(replicas)

    def first_half(r: int, _count: int, path_stream: RngStream) -> None:
        for _, b in brownian_blocks([path_stream.gen], half, h, _SCAN_CHUNK):
            anchor[r] = b[0, -1]

    map_stream_blocks(first_half, s, replicas, 1)
    gens = [path_stream.gen for _, _, path_stream in stream_blocks(s, replicas, 1)]
    for lo, b in brownian_blocks(gens, 2 * half, h, _LANE_BLOCK):
        yield _brownian_log_m(b - anchor[:, None], -lam, h, lo)


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
    if e_level <= 0:
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
