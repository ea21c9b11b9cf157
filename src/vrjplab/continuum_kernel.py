"""The limiting kernel on the circle and on the line, with its operator checks.

A kernel instance wraps one geometric Brownian path M on [-lam, lam]
(anchored M_0 = 1) plus the cumulative trapezoid of 1/M^2.  For t <= t'
the circle kernel value is

    M_t M_t' / (M_lam - M_-lam)^2 * ( M_lam^2  I(t', lam)
                                    + M_lam M_-lam I(t, t')
                                    + M_-lam^2 I(-lam, t) )

with I(a, b) = int_a^b ds / M_s^2.  All integrals are trapezoid sums on
the path grid; no Ito correction applies since these are path
functionals, not stochastic integrals.  The line kernel truncates the
lower limit of I at the sampled horizon.

The inverse operator is applied through conservative finite
differences: fluxes of g/M use the resistances h / (I_{i+1} - I_i) of
the same cumulative, never a direct difference of the rough path, which
makes the discrete identity (M^2 (Gf/M)')' = -f M hold to roundoff.

Ensemble samplers (diagonal law, truncated exponential-functional
ratio, quadratic-form law, line diagonal) are vectorized across
replicas and reuse the same trapezoid discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import TestReport, ks_one_sample
from .stochastic import (PathKind, RngStream, SampledPath, cumtrapz, exp_functional_walk,
                         gbm_from_brownian, grid_cells, inverse_gamma_half_cdf,
                         map_stream_blocks, sample_brownian_path, stream_blocks)

_DEGENERATE_REL_TOL = 1e-12


class DegeneratePathError(ValueError):
    """Raised when M_lam = M_-lam (probability-zero event) makes the kernel singular."""


def _read_path(gbm: SampledPath, inv_sq_cum: np.ndarray, x: float) -> tuple[float, float]:
    """(M, I) at grid coordinate x: M log-linear and I linear between nodes."""
    i = min(int(x), gbm.values.size - 2)
    f = x - i
    v = gbm.values
    m = float(np.exp((1 - f) * np.log(v[i]) + f * np.log(v[i + 1])))
    ic = float((1 - f) * inv_sq_cum[i] + f * inv_sq_cum[i + 1])
    return m, ic


def two_sided_gbm(lam: float, step: float, s: RngStream) -> SampledPath:
    """GBM on [-lam, lam] anchored at M_0 = 1, grid chosen to hit 0 and +-lam."""
    _, h = grid_cells(lam, step)
    b = sample_brownian_path(-lam, lam, h, s)
    return gbm_from_brownian(b)


@dataclass
class CircleKernel:
    lam: float
    gbm: SampledPath
    inv_sq_cum: np.ndarray

    def __post_init__(self) -> None:
        m = self.gbm.values
        if abs(m[-1] - m[0]) <= _DEGENERATE_REL_TOL * max(m[-1], m[0]):
            raise DegeneratePathError("M_lam and M_-lam coincide")

    @classmethod
    def from_path(cls, gbm: SampledPath) -> "CircleKernel":
        if gbm.kind is not PathKind.GBM:
            raise ValueError("CircleKernel needs a gbm path")
        lam = gbm.t_end
        if abs(gbm.t0 + lam) > 1e-9 * max(1.0, lam):
            raise ValueError("path must cover [-lam, lam]")
        ic = cumtrapz(1.0 / gbm.values ** 2, gbm.step)
        return cls(lam, gbm, ic)

    @classmethod
    def sample(cls, lam: float, step: float, s: RngStream) -> "CircleKernel":
        return cls.from_path(two_sided_gbm(lam, step, s))

    # -- interpolated path reads ------------------------------------------
    def _coord(self, t: float) -> float:
        if not -self.lam - 1e-12 <= t <= self.lam + 1e-12:
            raise ValueError(f"t={t} outside [-{self.lam}, {self.lam}]")
        return min(max((t + self.lam) / self.gbm.step, 0.0), self.gbm.values.size - 1.0)

    def _read(self, t: float) -> tuple[float, float]:
        return _read_path(self.gbm, self.inv_sq_cum, self._coord(t))

    @property
    def m_left(self) -> float:
        return float(self.gbm.values[0])

    @property
    def m_right(self) -> float:
        return float(self.gbm.values[-1])


def kernel_eval(k: CircleKernel, t: float, t2: float) -> float:
    """Symmetric kernel value at (t, t2)."""
    a, b = (t, t2) if t <= t2 else (t2, t)
    ml, mr = k.m_left, k.m_right
    ma, ic_a = k._read(a)
    mb, ic_b = k._read(b)
    total = float(k.inv_sq_cum[-1])
    bracket = (mr * mr * (total - ic_b) + mr * ml * (ic_b - ic_a) + ml * ml * ic_a)
    return ma * mb * bracket / (mr - ml) ** 2


def _f_values(k: CircleKernel, f) -> np.ndarray:
    if callable(f):
        return np.asarray(f(k.gbm.times), dtype=float)
    fv = np.asarray(f, dtype=float)
    if fv.size != k.gbm.values.size:
        raise ValueError("sampled f must live on the kernel grid")
    return fv


def quadratic_form(k: CircleKernel, f) -> float:
    """Energy <f, Gf> via the single-integral closed form."""
    fv = _f_values(k, f)
    m = k.gbm.values
    h = k.gbm.step
    ml, mr = k.m_left, k.m_right
    c = cumtrapz(fv * m, h)
    total = c[-1]
    integrand = (ml * (total - c) + mr * c) ** 2 / m ** 2
    return float(np.trapezoid(integrand, dx=h) / (mr - ml) ** 2)


def apply_kernel(k: CircleKernel, f) -> np.ndarray:
    """g = Gf on the path grid, O(grid) via cumulative trapezoid sums."""
    fv = _f_values(k, f)
    m = k.gbm.values
    h = k.gbm.step
    ml, mr = k.m_left, k.m_right
    ic = k.inv_sq_cum
    p = fv * m
    cp = cumtrapz(p, h)
    cq = cumtrapz(p * ic, h)
    pt, q, u = cp[-1], cq[-1], ic[-1]
    dm2 = (mr - ml) ** 2
    const = (mr * mr * (u * pt - q) + mr * ml * q) / dm2
    return m * ((cq - ic * cp) + const - ic * pt * ml * (mr - ml) / dm2)


def flux_fd(k: CircleKernel, g: np.ndarray) -> np.ndarray:
    """M^2 (g/M)' at half nodes by conservative differences.

    The half-node coefficient is the resistance form h / (I_{i+1} - I_i)
    of the stored cumulative, never a finite difference of M itself.
    """
    phi = np.asarray(g, dtype=float) / k.gbm.values
    d_ic = np.diff(k.inv_sq_cum)
    return np.diff(phi) / d_ic


def flux_closed_form(k: CircleKernel, f) -> np.ndarray:
    """Closed form of M^2 (Gf/M)' at half nodes."""
    fv = _f_values(k, f)
    m = k.gbm.values
    h = k.gbm.step
    ml, mr = k.m_left, k.m_right
    cp = cumtrapz(fv * m, h)
    pt = cp[-1]
    cp_half = 0.5 * (cp[1:] + cp[:-1])
    return -(cp_half + ml * pt / (mr - ml))


def operator_residual(k: CircleKernel, f) -> float:
    """Relative L2 residual of H(Gf) - f over the interior grid.

    H g = -(1/M) (M^2 (g/M)')' applied with the conservative stencil.
    """
    fv = _f_values(k, f)
    g = apply_kernel(k, fv)
    flux = flux_fd(k, g)
    m = k.gbm.values
    h = k.gbm.step
    hg = -(flux[1:] - flux[:-1]) / (h * m[1:-1])
    num = float(np.linalg.norm(hg - fv[1:-1]))
    den = float(np.linalg.norm(fv[1:-1]))
    return num / den if den > 0 else num


def twisted_neumann_mismatch(k: CircleKernel, g: np.ndarray) -> float:
    """Relative gap in M_-lam (g/M)'(-lam) = M_lam (g/M)'(lam).

    One-sided estimate from the boundary: the conservative half-node
    fluxes M^2 (g/M)' are linearly extrapolated to the endpoints, then
    divided by the endpoint M (so the rough path is only ever read,
    never differenced).
    """
    flux = flux_fd(k, g)
    left = (1.5 * flux[0] - 0.5 * flux[1]) / k.m_left
    right = (1.5 * flux[-1] - 0.5 * flux[-2]) / k.m_right
    scale = max(abs(left), abs(right), 1e-300)
    return abs(left - right) / scale


# ---------------------------------------------------------------------------
# Line (infinite-volume) kernel
# ---------------------------------------------------------------------------

@dataclass
class LineKernel:
    """Truncated infinite-volume kernel: lower integration limit -horizon.

    The discarded tail int_{-inf}^{-horizon} ds/M^2 is pathwise of order
    e^{-horizon}; no correction term is added (the tail has infinite
    mean).  Evaluation is restricted to |t| <= horizon/2 to keep the
    truncation bias negligible.
    """

    horizon: float
    gbm: SampledPath
    inv_sq_cum: np.ndarray

    @classmethod
    def sample(cls, horizon: float, step: float, s: RngStream) -> "LineKernel":
        gbm = two_sided_gbm(horizon, step, s)
        return cls(horizon, gbm, cumtrapz(1.0 / gbm.values ** 2, gbm.step))

    @classmethod
    def from_path(cls, gbm: SampledPath) -> "LineKernel":
        return cls(gbm.t_end, gbm, cumtrapz(1.0 / gbm.values ** 2, gbm.step))

    def _read(self, t: float) -> tuple[float, float]:
        x = min(max((t + self.horizon) / self.gbm.step, 0.0), self.gbm.values.size - 1.0)
        return _read_path(self.gbm, self.inv_sq_cum, x)


def line_kernel_eval(k: LineKernel, t: float, t2: float) -> float:
    for arg in (t, t2):
        if abs(arg) > 0.5 * k.horizon + 1e-12:
            raise ValueError("evaluation restricted to [-horizon/2, horizon/2]")
    a, b = (t, t2) if t <= t2 else (t2, t)
    ma, ic_a = k._read(a)
    mb, _ = k._read(b)
    return ma * mb * ic_a


# ---------------------------------------------------------------------------
# Ensemble samplers (vectorized across replicas)
# ---------------------------------------------------------------------------

# The four samplers below take their replica streams from stream_blocks.
# The block sizes fix the seeded output, so they are constants, not memory
# knobs.  The matrix samplers run their stream blocks on the worker pool
# (stochastic.map_stream_blocks), each block writing its own slice of the
# output, so the output does not depend on the worker count.  A block is
# built one row block of about _ROW_BLOCK_ELEMS grid values (256 KB) at a
# time, so the working set stays in cache and memory does not grow with
# n_rep; numpy fills rows in order, so the draws do not depend on the row
# block.  The stepwise samplers walk their blocks in turn: the walk itself
# draws ahead on the pool, and a pool task never submits to the pool.
_DIAGONAL_STREAM_BLOCK = 2000
_QUADRATIC_STREAM_BLOCK = 1000
_RATIO_STREAM_BLOCK = 4000
_LINE_STREAM_BLOCK = 2000
_ROW_BLOCK_ELEMS = 1 << 15


def _gbm_rows(lam: float, half: int, h: float, first: int, count: int,
              block_stream: RngStream):
    """Yield (first replica, rows of two-sided GBM on [-lam, lam]) for one stream block.

    The grid is -lam + h*k, k = 0..2*half, with M = 1 at k = half.  The
    block's replicas first .. first + count - 1 come a row block at a time;
    the yielded array is overwritten by the next row block.
    """
    n_cells = 2 * half
    half_times = (-lam + h * np.arange(n_cells + 1)) / 2.0
    rows = max(1, _ROW_BLOCK_ELEMS // (n_cells + 1))
    incr_buf = np.empty((rows, n_cells))
    m_buf = np.empty((rows, n_cells + 1))
    sqrt_h = math.sqrt(h)
    gen = block_stream.gen
    stop = first + count
    for lo in range(first, stop, rows):
        r = min(rows, stop - lo)
        incr, m = incr_buf[:r], m_buf[:r]
        gen.standard_normal(out=incr)
        incr *= sqrt_h
        m[:, 0] = 0.0
        np.cumsum(incr, axis=1, out=m[:, 1:])
        m -= m[:, half, None].copy()
        m -= half_times
        np.exp(m, out=m)
        yield lo, m


def sample_kernel_diagonal(lam: float, t: float, step: float, n_rep: int,
                           s: RngStream) -> np.ndarray:
    """Replicated G(t, t) values; distributed as 1/(2*gamma) for every t."""
    half, h = grid_cells(lam, step)
    j = int(round((t + lam) / h))
    out = np.empty(n_rep)

    def block(first: int, count: int, block_stream: RngStream) -> None:
        for lo, m in _gbm_rows(lam, half, h, first, count, block_stream):
            ml, mr, mj = m[:, 0].copy(), m[:, -1].copy(), m[:, j].copy()
            np.square(m, out=m)
            np.divide(1.0, m, out=m)
            ic = cumtrapz(m, h)
            total, icj = ic[:, -1], ic[:, j]
            bracket = mr ** 2 * (total - icj) + ml ** 2 * icj
            out[lo:lo + m.shape[0]] = mj ** 2 * bracket / (mr - ml) ** 2

    map_stream_blocks(block, s, n_rep, _DIAGONAL_STREAM_BLOCK)
    return out


def sample_quadratic_form(lam: float, f, step: float, n_rep: int,
                          s: RngStream) -> np.ndarray:
    """Replicated <f, Gf> values for a deterministic f (callable on times)."""
    half, h = grid_cells(lam, step)
    fv = np.asarray(f(-lam + h * np.arange(2 * half + 1)), dtype=float)
    out = np.empty(n_rep)

    def block(first: int, count: int, block_stream: RngStream) -> None:
        for lo, m in _gbm_rows(lam, half, h, first, count, block_stream):
            ml, mr = m[:, 0:1].copy(), m[:, -1:].copy()
            p = fv * m
            c = cumtrapz(p, h)
            total = c[:, -1:].copy()
            # integrand (ml (total - c) + mr c)^2 / M^2, built in p
            np.subtract(total, c, out=p)
            p *= ml
            c *= mr
            p += c
            np.square(p, out=p)
            np.square(m, out=m)
            p /= m
            out[lo:lo + m.shape[0]] = (np.trapezoid(p, dx=h, axis=1)
                                       / (mr[:, 0] - ml[:, 0]) ** 2)

    map_stream_blocks(block, s, n_rep, _QUADRATIC_STREAM_BLOCK)
    return out


def _walk_ends(span: float, step: float, n_rep: int, s: RngStream,
               block: int) -> tuple[np.ndarray, np.ndarray]:
    """(a_span, int_0^span e^{2a_s - s} ds) per replica, on the grid_cells grid."""
    nsteps, h = grid_cells(span, step)
    alpha = np.empty(n_rep)
    integ = np.empty(n_rep)
    for first, count, block_stream in stream_blocks(s, n_rep, block):
        stop = first + count
        alpha[first:stop], integ[first:stop], _ = exp_functional_walk(
            block_stream.gen, count, h, nsteps)
    return alpha, integ


def sample_dufresne_ratio(lam: float, step: float, n_rep: int, s: RngStream) -> np.ndarray:
    """int_0^lam e^{2a_s - s} ds / (e^{a_lam - lam/2} - 1)^2 per replica."""
    alpha, integ = _walk_ends(lam, step, n_rep, s, _RATIO_STREAM_BLOCK)
    return integ / (np.exp(alpha - 0.5 * lam) - 1.0) ** 2


def sample_line_diagonal(horizon: float, step: float, n_rep: int, s: RngStream) -> np.ndarray:
    """G_inf(0, 0) = int_{-horizon}^0 ds/M^2 per replica (one-sided walk).

    Integrating backward from 0, s -> -s turns 1/M^2 into e^{2w_s - s}.
    """
    return _walk_ends(horizon, step, n_rep, s, _LINE_STREAM_BLOCK)[1]


def dufresne_ratio_check(lam: float, s: RngStream, n_rep: int = 10_000,
                         step: float = 1e-3, alpha: float = 0.01) -> TestReport:
    if lam <= 0:
        raise ValueError("lam must be positive")
    samples = sample_dufresne_ratio(lam, step, n_rep, s)
    return ks_one_sample(samples, inverse_gamma_half_cdf, alpha,
                         label=f"dufresne-ratio lam={lam}")


@dataclass
class MbgReport:
    """Marginals of ln V_t per snapshot time, and the verdicts on them.

    ``reports`` holds, for each t, the mean check |mean + t/2| <= 3 se and
    the variance check |var - t| <= 0.1 t, then the increment
    decorrelation check |corr| <= z_0.995 / sqrt(n).
    """

    t_grid: tuple[float, ...]
    mean_log: np.ndarray
    se_mean: np.ndarray
    var_log: np.ndarray
    incr_corr: float
    reports: list[TestReport]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def mbg_transform_check(s: RngStream, t_grid: tuple[float, ...] = (0.5, 1.0, 2.0),
                        n_rep: int = 10_000, step: float = 1e-3,
                        tail: float = 40.0) -> MbgReport:
    """Geometric-Brownian-motion law of the normalized forward-tail ratio.

    V_t = e^{-a_t + t/2} int_t^inf e^{2a-s} ds / int_0^inf e^{2a-s} ds,
    integrals truncated at horizon max(t)+tail; checks the GBM marginals
    of ln V_t and the decorrelation of increments.
    """
    t_grid = tuple(sorted(t_grid))
    snaps = tuple(int(round(t / step)) for t in t_grid)
    if len(t_grid) != 3 or not 0 < snaps[0] < snaps[1] < snaps[2]:
        raise ValueError("mbg check needs three positive snapshot times on distinct steps")
    horizon = t_grid[-1] + tail
    nsteps = int(round(horizon / step))
    _, integ, at = exp_functional_walk(s.gen, n_rep, step, nsteps, snaps)
    log_v = np.empty((len(t_grid), n_rep))
    for ti, (t, (alpha_t, integ_t)) in enumerate(zip(t_grid, at)):
        log_v[ti] = -alpha_t + t / 2.0 + np.log(integ - integ_t) - np.log(integ)
    mean_log = log_v.mean(axis=1)
    se = log_v.std(axis=1, ddof=1) / math.sqrt(n_rep)
    var_log = log_v.var(axis=1, ddof=1)
    d1 = log_v[1] - log_v[0]
    d2 = log_v[2] - log_v[1]
    corr = float(np.corrcoef(d1, d2)[0, 1])
    reports = []
    for i, t in enumerate(t_grid):
        dev = abs(mean_log[i] + t / 2.0)
        reports.append(TestReport(dev, n_rep, 0.0, 3.0 * se[i], bool(dev <= 3.0 * se[i]),
                                  f"ln V mean t={t}"))
        dev = abs(var_log[i] - t)
        reports.append(TestReport(dev, n_rep, 0.0, 0.10 * t, bool(dev <= 0.10 * t),
                                  f"ln V variance t={t}"))
    half_width = 2.5758 / math.sqrt(n_rep)
    reports.append(TestReport(abs(corr), n_rep, 0.0, half_width, abs(corr) <= half_width,
                              "increment decorrelation"))
    return MbgReport(t_grid, mean_log, se, var_log, corr, reports)
