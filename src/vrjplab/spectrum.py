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
chosen by the caller's shape.  A single path (renewal statistics, single
counts) goes through a scalar loop over fixed-size chunks of the path
that records only the cells where a crossing happens.  A batch of equal
paths (the density-of-states sweep) advances every (replica x E) lane at
once, one numpy step per cell, over fixed-size blocks of cells.

Matrix routes.  The scaled discrete circle operator (weight n) has
eigenvalues approximating the continuum ones, counted by a dense
eigensolve.  A conservative finite-difference operator built from a
sampled path (fluxes from the trapezoid resistances, boundary seam
implementing g(-lam) = g(lam) and the twisted flux matching) provides
the deterministic spectral oracle; a Dirichlet variant with an O(dim)
inertia count serves at sizes where dense solves are impossible (the
Dirichlet and twisted counts interlace within 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg

from .beta_field import BetaField, dense_h
from .stochastic import PathKind, RngStream, SampledPath, sample_brownian_path, stream_blocks

_PI = math.pi


@dataclass
class PhaseTrace:
    e_level: float
    lam: float
    theta_final: float
    crossings: np.ndarray     # times of pi-crossings, offsets from the path start
    grid_step: float
    branch_count: int         # exact number of pi-crossings; equals floor(theta/pi)

    @property
    def count(self) -> int:
        return self.branch_count


@dataclass
class DiscreteSpectrum:
    class Source(Enum):
        BETA_MATRIX = "beta_matrix"
        FD_OPERATOR = "fd_operator"

    eigenvalues: np.ndarray
    source: "DiscreteSpectrum.Source"


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
_SCAN_CHUNK = 1 << 15   # cells per chunk of the scalar route (one tolist() each)
_LANE_BLOCK = 2048      # cells per block of the lane route


def _log_m(path: SampledPath, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """log of the geometric path on nodes lo..hi-1; a brownian input B is read as e^{B - t/2}.

    Reading the log directly keeps long horizons representable where the
    geometric values themselves would over/underflow float64.
    """
    vals = path.values[lo:hi]
    if path.kind is PathKind.GBM:
        return np.log(vals)
    times = path.t0 + path.step * np.arange(lo, lo + vals.size)
    return vals - times / 2.0


def _cell_log_coefficients(path: SampledPath, c0: float, lo: int, hi: int) -> np.ndarray:
    """logc on cells lo..hi-1: c0 + log of the frozen M^2 (c0 = log sqrt(E))."""
    logm = _log_m(path, lo, hi + 1)
    return c0 + logm[:-1] + logm[1:]


def _scan_cells(ratios: list[float], psi: float, dpsi: float, first: int,
                record_at: float, records: list) -> float:
    """Advance the gauge angle psi in [0, pi) across consecutive cells.

    ratios[j] = log of the coefficient ratio between cell first+j and the
    cell before it.  At a cell boundary the angle is rescaled by that
    ratio, which stays O(1) on a Brownian grid, so no precision is lost
    even when M^2 itself spans hundreds of e-folds.  The rescaled angle
    is nonnegative (sin psi >= 0 on [0, pi)).  A cell whose advanced
    angle reaches record_at appends (cell, entry angle, crossings).
    """
    exp, sin, cos, atan2 = math.exp, math.sin, math.cos, math.atan2
    for i, d in enumerate(ratios, first):
        psi = atan2(exp(d) * sin(psi), cos(psi))
        x = psi + dpsi
        if x < record_at:
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


def _phase_scan(gbm: SampledPath, e_level: float, every_cell: bool = False) -> _Scan:
    """Scalar route: propagate one path from theta = 0, chunk by chunk.

    Records the crossing cells only, so memory beyond the path is one
    chunk plus the records; every_cell records all cells (short paths).
    """
    n = gbm.values.size - 1
    c0 = 0.5 * math.log(e_level)
    dpsi = math.sqrt(e_level) * gbm.step
    record_at = -math.inf if every_cell else _CROSS_ANGLE
    records: list = []
    psi = 0.0
    prev = None
    for lo in range(0, n, _SCAN_CHUNK):
        logc = _cell_log_coefficients(gbm, c0, lo, min(n, lo + _SCAN_CHUNK))
        ratios = np.empty(logc.size)
        # the first cell has no predecessor; psi = 0 is invariant under rescaling
        ratios[0] = 0.0 if prev is None else logc[0] - prev
        np.subtract(logc[1:], logc[:-1], out=ratios[1:])
        prev = logc[-1]
        psi = _scan_cells(ratios.tolist(), psi, dpsi, lo, record_at, records)
    rec = np.array(records, dtype=float).reshape(-1, 3)
    return _Scan(rec[:, 0].astype(np.int64), rec[:, 1], rec[:, 2].astype(np.int64),
                 psi, float(prev))


def _crossing_times(scan: _Scan, step: float, e_level: float) -> np.ndarray:
    """Times of the pi-crossings, offsets from the path start.

    Within cell i the gauge angle moves at rate sqrt(E) from its entry
    angle, so its j-th crossing is at i*h + (j*pi - psi_in)/sqrt(E).
    """
    nc = scan.ncross
    cells = np.repeat(scan.cells, nc)
    psi_in = np.repeat(scan.psi_in, nc)
    j = np.arange(1, cells.size + 1) - np.repeat(np.cumsum(nc) - nc, nc)
    return cells * step + (j * _PI - psi_in) / math.sqrt(e_level)


def phase_propagate(e_level: float, gbm: SampledPath,
                    collect_crossings: bool = True) -> PhaseTrace:
    """Propagate the phase over the whole path span from theta = 0."""
    if e_level <= 0:
        raise ValueError("E must be positive")
    scan = _phase_scan(gbm, e_level)
    psi = scan.psi
    # unwind the final gauge angle to the raw phase fraction
    phi = math.atan2(math.sin(psi), math.exp(min(scan.logc_last, 700.0)) * math.cos(psi))
    if phi < 0.0:
        phi = 0.0
    count = scan.count
    theta_final = float(count) * _PI + phi
    crossings = _crossing_times(scan, gbm.step, e_level) if collect_crossings else np.empty(0)
    lam = 0.5 * (gbm.t_end - gbm.t0)
    return PhaseTrace(e_level, lam, theta_final, crossings, gbm.step, count)


def count_states_phase(e_level: float, gbm: SampledPath) -> int:
    """floor(theta(lam)/pi); brackets the true count within -1/+2."""
    return phase_propagate(e_level, gbm, collect_crossings=False).count


def _lane_counts(logm: np.ndarray, step: float, e_list) -> np.ndarray:
    """Lane route: pi-crossing counts of every (E, replica) lane at once.

    logm holds one log-M path per row, all on the same grid.  Each cell
    takes the scalar route's steps on all lanes together: rescale through
    arctan2, advance by sqrt(E)*h, then (only in cells where some lane
    crosses) floor-divide by pi with the tolerance and clamp at 0.  Cells
    go in blocks of _LANE_BLOCK, so memory beyond logm is O(lanes x block).
    Returns counts of shape (len(e_list), replicas).
    """
    n_rep, n = logm.shape[0], logm.shape[1] - 1
    c0 = np.array([0.5 * math.log(e) for e in e_list])[:, None, None]
    dpsi = np.repeat([math.sqrt(e) * step for e in e_list], n_rep)
    n_lanes = dpsi.size
    psi = np.zeros(n_lanes)
    count = np.zeros(n_lanes)
    sn, cs, nc = np.empty(n_lanes), np.empty(n_lanes), np.empty(n_lanes)
    crossing = np.empty(n_lanes, dtype=bool)
    for lo in range(0, n, _LANE_BLOCK):
        hi = min(n, lo + _LANE_BLOCK)
        first = max(lo - 1, 0)       # the cell before the block, for the first ratio
        logc = c0 + logm[None, :, first:hi] + logm[None, :, first + 1:hi + 1]
        if lo == 0:                  # the first cell has no predecessor: log ratio 0
            logc = np.concatenate([logc[:, :, :1], logc], axis=2)
        ratios = np.moveaxis(np.diff(logc, axis=2), 2, 0)
        for r in np.exp(ratios).reshape(hi - lo, n_lanes):
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


def phase_propagate_rk4(e_level: float, gbm: SampledPath,
                        max_step_angle: float = 0.05) -> float:
    """Generic RK4 integration of the phase ODE with the same frozen cells.

    Small-scale oracle for the closed-form propagation; substeps per
    cell are chosen so the angle advance stays below max_step_angle.
    """
    logm = _log_m(gbm)
    h = gbm.step
    theta = 0.0
    for i in range(logm.size - 1):
        m2 = math.exp(logm[i] + logm[i + 1])
        a = 1.0 / m2
        b = e_level * m2
        rate = max(a, b)
        nsub = max(1, int(math.ceil(rate * h / max_step_angle)))
        dt = h / nsub

        for _ in range(nsub):
            k1 = a * math.cos(theta) ** 2 + b * math.sin(theta) ** 2
            t2 = theta + 0.5 * dt * k1
            k2 = a * math.cos(t2) ** 2 + b * math.sin(t2) ** 2
            t3 = theta + 0.5 * dt * k2
            k3 = a * math.cos(t3) ** 2 + b * math.sin(t3) ** 2
            t4 = theta + dt * k3
            k4 = a * math.cos(t4) ** 2 + b * math.sin(t4) ** 2
            theta += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return theta


def riccati_cell_check(e_level: float, gbm: SampledPath, n_cells: int = 200,
                       eps_frac: float = 0.02) -> float:
    """Max relative deviation of the per-cell Riccati identity.

    Within a cell (coefficient frozen), j = -cot(theta) must satisfy
    j' = j^2 / M^2 + E M^2.  Checked by centered differences of the
    exact in-cell propagation at the cell midpoint, skipping cells where
    cot is ill-conditioned.
    """
    logc = _cell_log_coefficients(gbm, 0.5 * math.log(e_level), 0, gbm.values.size - 1)
    psi_in = _phase_scan(gbm, e_level, every_cell=True).psi_in
    h = gbm.step
    sqrt_e = math.sqrt(e_level)
    worst = 0.0
    checked = 0
    for i in range(0, logc.size, max(1, logc.size // (4 * n_cells))):
        c = math.exp(logc[i])
        m2 = c / sqrt_e

        def theta_at(delta):
            psi = psi_in[i] + sqrt_e * delta
            kk = math.floor(psi / _PI)
            frac = psi - kk * _PI
            return kk * _PI + math.atan2(math.sin(frac), c * math.cos(frac))

        mid = 0.5 * h
        eps = eps_frac * h
        th = theta_at(mid)
        if min(abs(math.sin(th)), abs(math.cos(th))) < 0.2:
            continue
        j_mid = -1.0 / math.tan(th)
        j_plus = -1.0 / math.tan(theta_at(mid + eps))
        j_minus = -1.0 / math.tan(theta_at(mid - eps))
        fd = (j_plus - j_minus) / (2.0 * eps)
        rhs = j_mid * j_mid / m2 + e_level * m2
        worst = max(worst, abs(fd - rhs) / abs(rhs))
        checked += 1
        if checked >= n_cells:
            break
    if checked == 0:
        raise RuntimeError("no well-conditioned cells found for the check")
    return worst


# ---------------------------------------------------------------------------
# Matrix routes
# ---------------------------------------------------------------------------

_DENSE_EIG_BUDGET = 4000


def discrete_spectrum_matrix(field: BetaField, n: int) -> DiscreteSpectrum:
    """Eigenvalues of the scaled discrete operator n * H_beta."""
    h = dense_h(field.graph, field.beta)
    if h.shape[0] > _DENSE_EIG_BUDGET:
        raise ValueError(f"dense eigensolve budget exceeded: {h.shape[0]} > {_DENSE_EIG_BUDGET}")
    vals = np.linalg.eigvalsh(n * h)
    return DiscreteSpectrum(vals, DiscreteSpectrum.Source.BETA_MATRIX)


def count_states_matrix(e_level: float, field: BetaField, n: int) -> int:
    """Number of eigenvalues of n * H_beta at or below E."""
    spec = discrete_spectrum_matrix(field, n)
    return int(np.searchsorted(spec.eigenvalues, e_level, side="right"))


def _fd_resistances(gbm: SampledPath) -> np.ndarray:
    """Per-cell resistance of the conservative stencil: trapezoid of 1/M^2."""
    m = gbm.values
    return 0.5 * gbm.step * (1.0 / m[:-1] ** 2 + 1.0 / m[1:] ** 2)


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
    r = _fd_resistances(gbm)
    n = m.size - 1                       # distinct nodes on the circle
    alpha = 1.0 / m                      # 1/M at nodes 0..N (N = seam twin of 0)
    rows, cols, vals = [], [], []
    for c in range(n):
        p, q = c, (c + 1) % n
        ap = alpha[c]
        aq = alpha[c + 1]                # at the seam this is 1/M_lam, not 1/M_-lam
        w = 1.0 / r[c]
        rows += [p, q, p, q]
        cols += [p, q, q, p]
        vals += [ap * ap * w, aq * aq * w, -ap * aq * w, -ap * aq * w]
    a = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return a / h


def fd_spectrum_twisted(gbm: SampledPath, k: int = 8) -> DiscreteSpectrum:
    """Lowest k eigenvalues of the twisted FD operator (shift-invert).

    ARPACK starts from the fixed vector of ones, not a random one, so the
    eigenvalues repeat to the last digit on every run.
    """
    a = fd_operator_twisted(gbm).tocsc()
    vals = scipy.sparse.linalg.eigsh(a, k=k, sigma=0.0, which="LM",
                                     v0=np.ones(a.shape[0]), return_eigenvectors=False)
    return DiscreteSpectrum(np.sort(vals), DiscreteSpectrum.Source.FD_OPERATOR)


def count_states_fd_dirichlet(gbm: SampledPath, e_level: float) -> int:
    """Dirichlet eigenvalue count below E by LDL inertia, O(dim).

    Interlaces the twisted count within 1; usable at grid sizes far
    beyond the dense budget.
    """
    m = gbm.values
    h = gbm.step
    w = 1.0 / _fd_resistances(gbm)       # cell stiffness, phi variables
    # interior nodes 1..N-1 of the Dirichlet problem in phi
    diag = w[:-1] + w[1:] - e_level * h * m[1:-1] ** 2
    off = -w[1:-1]
    count = 0
    d = diag[0]
    if d < 0:
        count += 1
    for i in range(1, diag.size):
        denom = d if d != 0.0 else 1e-300
        d = diag[i] - off[i - 1] ** 2 / denom
        if d < 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Renewal statistics and the density-of-states sweep
# ---------------------------------------------------------------------------

@dataclass
class RenewalSummary:
    e_level: float
    n_interarrivals: int
    mean: float
    se_mean: float
    variance: float
    lag1_corr: float
    corr_half_width: float

    @property
    def target_mean(self) -> float:
        return _PI / math.sqrt(self.e_level)


def renewal_statistics(e_level: float, horizon: float, s: RngStream,
                       step: float = 1e-3, min_count: int = 100) -> RenewalSummary:
    """Interarrival statistics of the pi-crossing times on [0, horizon]."""
    if e_level <= 0:
        raise ValueError("E must be positive")
    b = sample_brownian_path(0.0, horizon, step, s)
    trace = phase_propagate(e_level, b, collect_crossings=True)
    times = np.concatenate([[0.0], trace.crossings])
    gaps = np.diff(times)
    if gaps.size < min_count:
        raise RuntimeError(f"insufficient data: {gaps.size} interarrivals < {min_count}")
    mean = float(np.mean(gaps))
    var = float(np.var(gaps, ddof=1))
    se = math.sqrt(var / gaps.size)
    a, bb = gaps[:-1] - mean, gaps[1:] - mean
    lag1 = float(np.sum(a * bb) / math.sqrt(np.sum(a * a) * np.sum(bb * bb)))
    return RenewalSummary(e_level, gaps.size, mean, se, var, lag1,
                          2.5758 / math.sqrt(gaps.size - 1))


@dataclass
class DosRow:
    e_level: float
    lam: float
    replicas: int
    mean_density: float
    half_width: float
    target: float


def dos_sweep(e_list, lam: float, replicas: int, s: RngStream,
              step: float = 1e-3) -> list[DosRow]:
    """Per-E mean and CI of N_lam(E)/(2 lam) from the phase route.

    One path per replica, shared across the E values (the counts are
    then monotone-coupled, which tightens ratio comparisons).
    """
    e_list = list(e_list)
    logm = None                  # (replicas x nodes), allocated once the grid is known
    for r, _, path_stream in stream_blocks(s, replicas, 1):
        path_logm = _log_m(sample_brownian_path(-lam, lam, step, path_stream))
        if logm is None:
            logm = np.empty((replicas, path_logm.size))
        logm[r] = path_logm
    counts = _lane_counts(logm, step, e_list)
    rows = []
    for ei, e_level in enumerate(e_list):
        dens = counts[ei] / (2.0 * lam)
        mean = float(np.mean(dens))
        hw = float(2.5758 * np.std(dens, ddof=1) / math.sqrt(replicas))
        rows.append(DosRow(e_level, lam, replicas, mean, hw, math.sqrt(e_level) / _PI))
    return rows


# ---------------------------------------------------------------------------
# The interarrival mean by quadrature
# ---------------------------------------------------------------------------

def mean_t1_quadrature(e_level: float, epsrel: float = 1e-8) -> float:
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
                                       epsabs=1e-12, epsrel=epsrel)
    rel = err / max(abs(val), 1e-300)
    if rel > 1e-4:
        raise RuntimeError(f"quadrature did not converge: rel err {rel:.2e}")
    return val


def f_star_negative(z: float, e_level: float) -> float:
    """Bounded solution of the generator equation L f = 1 on the negative axis.

    f(z) = -int_z^0 h(u) du.  The outer integrand h pairs an exploding
    exponential with a vanishing one; the inner integral is evaluated in
    a rescaled variable that combines the two exponents into a single
    nonpositive one, so the removable singularity at 0 evaluates cleanly
    to 1/E.
    """
    if z > 0:
        raise ValueError("negative-branch argument must be <= 0")
    val, _ = scipy.integrate.quad(_f_star_outer_neg, z, 0.0,
                                  args=(e_level,), limit=200)
    return -val


def _f_star_outer_neg(u: float, e_level: float) -> float:
    a = abs(u)
    e = e_level
    rate = a * a / e + 1.0   # total decay scale of the inner integrand

    def inner(v: float) -> float:
        w = v / rate
        s = 2.0 * a * w / e
        return math.exp(-(a * a / e) * w - w / (1.0 + s)) / math.sqrt(1.0 + s)

    val, _ = scipy.integrate.quad(inner, 0.0, np.inf, limit=200)
    return val / (e * rate)


def _f_star_outer_pos(u: float, e_level: float) -> float:
    e = e_level
    rate = u * u / e + 1.0

    def inner(v: float) -> float:
        w = v / rate
        s = 2.0 * u * w / e
        return math.exp(-(u * u / e) * w / (1.0 + s) - w) / (1.0 + s) ** 1.5

    val, _ = scipy.integrate.quad(inner, 0.0, np.inf, limit=200)
    return val / (e * rate)


def mean_t1_from_f_star(e_level: float) -> float:
    """Cross-check route: f*(+inf) - f*(-inf) by two 1-D outer quadratures."""
    neg, _ = scipy.integrate.quad(_f_star_outer_neg, -np.inf, 0.0,
                                  args=(e_level,), limit=300)
    pos, _ = scipy.integrate.quad(_f_star_outer_pos, 0.0, np.inf,
                                  args=(e_level,), limit=300)
    return neg + pos
