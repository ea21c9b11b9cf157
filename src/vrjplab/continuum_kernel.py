"""The limiting kernel on the circle and on the line, with its operator checks.

One class, KernelPath, holds one geometric Brownian path M on [-lam, lam]
(anchored M_0 = 1) plus the cumulative trapezoid of 1/M^2; both kernels
are read from it.  For t <= t' the circle kernel value is

    M_t M_t' / (M_lam - M_-lam)^2 * ( M_lam^2  I(t', lam)
                                    + M_lam M_-lam I(t, t')
                                    + M_-lam^2 I(-lam, t) )

with I(a, b) = int_a^b ds / M_s^2.  All integrals are trapezoid sums on
the path grid; no Ito correction applies since these are path
functionals, not stochastic integrals.  The line kernel
M_t M_t' I(-lam, t) truncates the lower limit of I at the sampled end -lam.

The inverse operator is applied through conservative finite
differences: fluxes of g/M use the resistances h / (I_{i+1} - I_i) of
the same cumulative, never a direct difference of the rough path, which
makes the discrete identity (M^2 (Gf/M)')' = -f M hold to roundoff.

Ensemble samplers (diagonal law, truncated exponential-functional
ratio, quadratic-form law, line diagonal) are vectorized across
replicas and reuse the same trapezoid discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stochastic import (RngStream, SampledPath, cumtrapz, exp_functional_walk, grid_cells,
                         log_gbm_rows, map_stream_blocks, stream_blocks, walk_ends)

_DEGENERATE_REL_TOL = 1e-12


class DegeneratePathError(ValueError):
    """Raised when M_lam = M_-lam (probability-zero event) makes the kernel singular."""


@dataclass
class KernelPath:
    lam: float
    gbm: SampledPath
    inv_sq_cum: np.ndarray

    def __post_init__(self) -> None:
        m = self.gbm.values
        if abs(m[-1] - m[0]) <= _DEGENERATE_REL_TOL * max(m[-1], m[0]):
            raise DegeneratePathError("M_lam and M_-lam coincide")

    @classmethod
    def from_path(cls, gbm: SampledPath) -> "KernelPath":
        lam = gbm.t_end
        if abs(gbm.t0 + lam) > 1e-9 * max(1.0, lam):
            raise ValueError("path must cover [-lam, lam]")
        ic = cumtrapz(1.0 / gbm.values ** 2, gbm.step)
        return cls(lam, gbm, ic)

    @classmethod
    def sample(cls, lam: float, step: float, s: RngStream) -> "KernelPath":
        """One GBM path on [-lam, lam] from s, anchored M_0 = 1 on the grid_cells grid."""
        _, h = grid_cells(lam, step)
        _, m = next(log_gbm_rows(lam, step, 1, s))
        return cls.from_path(SampledPath(-lam, h, np.exp(m[0])))

    def _read(self, t: float) -> tuple[float, float]:
        """(M, I) at time t: M log-linear and I linear between grid nodes."""
        if not -self.lam - 1e-12 <= t <= self.lam + 1e-12:
            raise ValueError(f"t={t} outside [-{self.lam}, {self.lam}]")
        v, ic = self.gbm.values, self.inv_sq_cum
        x = min(max((t + self.lam) / self.gbm.step, 0.0), v.size - 1.0)
        i = min(int(x), v.size - 2)
        f = x - i
        return (float(np.exp((1 - f) * np.log(v[i]) + f * np.log(v[i + 1]))),
                float((1 - f) * ic[i] + f * ic[i + 1]))

    @property
    def m_left(self) -> float:
        return float(self.gbm.values[0])

    @property
    def m_right(self) -> float:
        return float(self.gbm.values[-1])


def kernel_eval(k: KernelPath, t: float, t2: float) -> float:
    """Symmetric kernel value at (t, t2)."""
    a, b = (t, t2) if t <= t2 else (t2, t)
    ml, mr = k.m_left, k.m_right
    ma, ic_a = k._read(a)
    mb, ic_b = k._read(b)
    total = float(k.inv_sq_cum[-1])
    bracket = (mr * mr * (total - ic_b) + mr * ml * (ic_b - ic_a) + ml * ml * ic_a)
    return ma * mb * bracket / (mr - ml) ** 2


def _f_values(k: KernelPath, f) -> np.ndarray:
    fv = np.asarray(f, dtype=float)
    if fv.size != k.gbm.values.size:
        raise ValueError("sampled f must live on the kernel grid")
    return fv


def apply_kernel(k: KernelPath, f) -> np.ndarray:
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


def flux_fd(k: KernelPath, g: np.ndarray) -> np.ndarray:
    """M^2 (g/M)' at half nodes by conservative differences.

    The half-node coefficient is the resistance form h / (I_{i+1} - I_i)
    of the stored cumulative, never a finite difference of M itself.
    """
    phi = np.asarray(g, dtype=float) / k.gbm.values
    d_ic = np.diff(k.inv_sq_cum)
    return np.diff(phi) / d_ic


def flux_closed_form(k: KernelPath, f) -> np.ndarray:
    """Closed form of M^2 (Gf/M)' at half nodes."""
    fv = _f_values(k, f)
    m = k.gbm.values
    h = k.gbm.step
    ml, mr = k.m_left, k.m_right
    cp = cumtrapz(fv * m, h)
    pt = cp[-1]
    cp_half = 0.5 * (cp[1:] + cp[:-1])
    return -(cp_half + ml * pt / (mr - ml))


def operator_residual(k: KernelPath, f) -> float:
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


def twisted_neumann_mismatch(k: KernelPath, g: np.ndarray) -> float:
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


def line_kernel_eval(k: KernelPath, t: float, t2: float) -> float:
    """Truncated infinite-volume kernel: lower integration limit -lam.

    The discarded tail int_{-inf}^{-lam} ds/M^2 is pathwise of order
    e^{-lam}; no correction term is added (the tail has infinite mean).
    Evaluation is restricted to |t| <= lam/2 to keep the truncation bias
    negligible.
    """
    for arg in (t, t2):
        if abs(arg) > 0.5 * k.lam + 1e-12:
            raise ValueError("evaluation restricted to [-lam/2, lam/2]")
    a, b = (t, t2) if t <= t2 else (t2, t)
    ma, ic_a = k._read(a)
    mb, _ = k._read(b)
    return ma * mb * ic_a


# ---------------------------------------------------------------------------
# Ensemble samplers (vectorized across replicas)
# ---------------------------------------------------------------------------

# The five samplers below take their replica streams from stream_blocks.
# The block sizes fix the seeded output, so they are constants, not memory
# knobs.  The matrix samplers run their stream blocks on the worker pool
# (stochastic.map_stream_blocks), each block writing its own slice of the
# output, so the output does not depend on the worker count.  A block takes
# its paths from stochastic.log_gbm_rows one row block at a time and
# exponentiates each in place, so memory does not grow with n_rep.  The
# stepwise samplers walk their blocks in turn, in the calling thread.
_DIAGONAL_STREAM_BLOCK = 2000
_QUADRATIC_STREAM_BLOCK = 1000
_RATIO_STREAM_BLOCK = 4000
_LINE_STREAM_BLOCK = 2000
_MBG_STREAM_BLOCK = 5000


def kernel_diagonal_node(lam: float, t: float, step: float) -> tuple[int, float]:
    """(j, -lam + j*h): the node of the grid on [-lam, lam] nearest t, and its time."""
    _, h = grid_cells(lam, step)
    if abs(t) > lam:
        raise ValueError(f"t={t} outside [-{lam}, {lam}]")
    j = int(round((t + lam) / h))
    return j, -lam + h * j


def _coarse_trapezoid(y: np.ndarray, h: float, lo: int, hi: int) -> np.ndarray:
    """Per row, the trapezoid of y over columns lo..hi on every second node from lo.

    The cells are 2h wide; a stretch of an odd number of cells ends with
    one cell of width h, the fine sum's, as exp_functional_walk's coarse
    sum does.  Zero when lo == hi.
    """
    out = cumtrapz(y[:, lo:hi + 1:2], 2.0 * h)[:, -1]
    if (hi - lo) % 2:
        out += 0.5 * h * (y[:, hi - 1] + y[:, hi])
    return out


def sample_kernel_diagonal(lam: float, t: float, step: float, n_rep: int,
                           s: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Replicated G(t', t') values at the node t' nearest t (kernel_diagonal_node).

    Distributed as 1/(2*gamma) for every t in [-lam, lam].  Returns the
    values with I = int 1/M^2 at the grid's step h, and with I summed on
    every second node of the same paths (step 2h), afresh from the node
    j of t' (_coarse_trapezoid); their gap estimates the step's bias
    (exp_functional_walk).
    """
    j, _ = kernel_diagonal_node(lam, t, step)
    half, h = grid_cells(lam, step)
    out = np.empty((2, n_rep))

    def block(first: int, count: int, block_stream: RngStream) -> None:
        for lo, m in log_gbm_rows(lam, step, count, block_stream):
            np.exp(m, out=m)
            ml, mr, mj = m[:, 0].copy(), m[:, -1].copy(), m[:, j].copy()
            np.square(m, out=m)
            np.divide(1.0, m, out=m)
            ic = cumtrapz(m, h)
            total, icj = ic[:, -1], ic[:, j]
            bracket = np.stack((mr ** 2 * (total - icj) + ml ** 2 * icj,
                                mr ** 2 * _coarse_trapezoid(m, h, j, 2 * half)
                                + ml ** 2 * _coarse_trapezoid(m, h, 0, j)))
            out[:, first + lo:first + lo + len(m)] = mj ** 2 * bracket / (mr - ml) ** 2

    map_stream_blocks(block, s, n_rep, _DIAGONAL_STREAM_BLOCK)
    return out[0], out[1]


def sample_quadratic_form(lam: float, f, step: float, n_rep: int,
                          s: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Replicated <f, Gf> values for a deterministic f (callable on times).

    Returns the values with both trapezoids at the grid's step h, and
    with both on every second node of the same paths (step 2h; the grid
    has an even number of cells); their gap estimates the step's bias
    (exp_functional_walk).
    """
    half, h = grid_cells(lam, step)
    fv = np.asarray(f(-lam + h * np.arange(2 * half + 1)), dtype=float)
    out = np.empty((2, n_rep))

    def block(first: int, count: int, block_stream: RngStream) -> None:
        for lo, m in log_gbm_rows(lam, step, count, block_stream):
            np.exp(m, out=m)
            ml, mr = m[:, 0:1].copy(), m[:, -1:].copy()
            p = fv * m
            c = cumtrapz(p, h)
            c2 = cumtrapz(p[:, ::2], 2.0 * h)
            total = c[:, -1:].copy()
            # integrand (ml (total - c) + mr c)^2 / M^2, built in p
            np.subtract(total, c, out=p)
            p *= ml
            c *= mr
            p += c
            np.square(p, out=p)
            np.square(m, out=m)
            p /= m
            rows = slice(first + lo, first + lo + len(m))
            dm2 = (mr[:, 0] - ml[:, 0]) ** 2
            out[0, rows] = np.trapezoid(p, dx=h, axis=1) / dm2
            q2 = (ml * (c2[:, -1:] - c2) + mr * c2) ** 2 / m[:, ::2]
            out[1, rows] = np.trapezoid(q2, dx=2.0 * h, axis=1) / dm2

    map_stream_blocks(block, s, n_rep, _QUADRATIC_STREAM_BLOCK)
    return out[0], out[1]


def sample_dufresne_ratio(lam: float, step: float, n_rep: int,
                          s: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """int_0^lam e^{2a_s - s} ds / (e^{a_lam - lam/2} - 1)^2 per replica.

    Returns the ratio with the integral at the grid's step h and with the
    integral on every second node of the same paths (step 2h); their gap
    estimates the step's bias (exp_functional_walk).
    """
    alpha, integ, coarse = walk_ends(lam, step, n_rep, s, _RATIO_STREAM_BLOCK)
    denom = (np.exp(alpha - 0.5 * lam) - 1.0) ** 2
    return integ / denom, coarse / denom


def sample_line_diagonal(horizon: float, step: float, n_rep: int, s: RngStream) -> np.ndarray:
    """G_inf(0, 0) = int_{-horizon}^0 ds/M^2 per replica (one-sided walk).

    Integrating backward from 0, s -> -s turns 1/M^2 into e^{2w_s - s}.
    """
    return walk_ends(horizon, step, n_rep, s, _LINE_STREAM_BLOCK)[1]


def mbg_transform_check(s: RngStream, t_grid: tuple[float, ...], n_rep: int, step: float,
                        tail: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, ln V, ln V on every second node): ln V per snapshot and replica.

    The walk runs on the grid_cells grid of [0, max(t_grid) + tail] and
    reads each snapshot at the node k = round(t/h) nearest t (t_grid
    sorted), at the node time tau = k*h, which equals t only when t is a
    whole number of cells.  Row i of ln V holds

        V_tau = e^{-a_tau + tau/2} int_tau^inf e^{2a-s} ds / int_0^inf e^{2a-s} ds

    at tau[i] per replica (columns), the integrals truncated at the
    horizon, which every tau precedes (at it the tail integral is empty).
    V is a geometric Brownian motion from 1, so ln V_tau ~ N(-tau/2, tau)
    with independent increments.  The third array is ln V with the
    integrals on every second node of the same paths (step 2h); its gap
    to ln V estimates the step's bias (exp_functional_walk).
    """
    t_grid = tuple(sorted(t_grid))
    nsteps, h = grid_cells(t_grid[-1] + tail, step)
    nodes = tuple(int(round(t / h)) for t in t_grid)
    if len(t_grid) != 3 or not 0 < nodes[0] < nodes[1] < nodes[2] < nsteps:
        raise ValueError("mbg check needs three positive snapshot times on distinct steps "
                         "before the horizon")
    tau = np.array(nodes) * h
    log_v = np.empty((2, len(nodes), n_rep))
    for first, count, block_stream in stream_blocks(s, n_rep, _MBG_STREAM_BLOCK):
        _, integ, coarse, at = exp_functional_walk(block_stream.gen, count, h, nsteps, nodes)
        cols = slice(first, first + count)
        for ti, (alpha_t, integ_t, coarse_t) in enumerate(at):
            drift = -alpha_t + tau[ti] / 2.0
            log_v[0, ti, cols] = drift + np.log(integ - integ_t) - np.log(integ)
            log_v[1, ti, cols] = drift + np.log(coarse - coarse_t) - np.log(coarse)
    return tau, log_v[0], log_v[1]
