"""Deterministic, seedable randomness and the elementary samplers.

Every stochastic routine in this package consumes an explicit
:class:`RngStream`.  A stream is identified by a ``(seed, stream_id)``
pair and is backed by the counter-based Philox generator, so distinct
``stream_id`` values give statistically independent substreams and the
same pair reproduces the identical draw sequence bit for bit (per numpy
release; Gaussian draws use numpy's ziggurat and are not guaranteed
stable across numpy versions).

Reference distributions used throughout the verification suites
(Inverse Gaussian, Gamma(1/2, 1), and the law of 1/(2*gamma)) live here
as closed-form CDFs.

The ensemble samplers use up to one thread per usable CPU, through one
private pool (``_pool``).  A pool task either owns one stream block and
its slice of the output, or draws the next chunk of a walk's normals, so
seeded output does not depend on the thread count.  Pool tasks call
numpy and untraced helpers only, and never submit to the pool themselves.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import erf, log_ndtr, ndtr


class PathKind(Enum):
    BROWNIAN = "brownian"
    GBM = "gbm"


@dataclass
class RngStream:
    """Single-consumer source of uniform randomness.

    Distinct ``stream_id`` values under the same seed are independent;
    parallel replicas must each get their own stream.
    """

    seed: int
    stream_id: int
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        bits = np.random.Philox(key=np.array(
            [self.seed % (1 << 64), self.stream_id % (1 << 64)], dtype=np.uint64))
        self.gen = np.random.Generator(bits)

    def substream(self, k: int) -> "RngStream":
        """Derive the k-th sibling stream (same seed, shifted stream_id)."""
        return RngStream(self.seed, self.stream_id + k)


def new_stream(seed: int, stream_id: int = 0) -> RngStream:
    return RngStream(seed, stream_id)


@dataclass(frozen=True)
class IGParams:
    """Parameters (mean mu, shape lam) of an Inverse Gaussian law."""

    mu: float
    lam: float

    def __post_init__(self) -> None:
        if not (self.mu > 0 and self.lam > 0):
            raise ValueError(f"IGParams requires mu>0 and lam>0, got {self}")


@dataclass
class SampledPath:
    """A path on the regular grid t0 + k*step, k = 0..len(values)-1."""

    t0: float
    step: float
    values: np.ndarray
    kind: PathKind

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size == 0:
            raise ValueError("empty path")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.kind is PathKind.GBM and not np.all(self.values > 0):
            raise ValueError("gbm path must be strictly positive")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(self.values.size)

    @property
    def t_end(self) -> float:
        return self.t0 + self.step * (self.values.size - 1)

    def index_of(self, t: float) -> int:
        """Nearest grid index for time t; t must lie on the grid span."""
        i = int(round((t - self.t0) / self.step))
        if i < 0 or i >= self.values.size:
            raise ValueError(f"time {t} outside the sampled span")
        return i


def sample_inverse_gaussian(p: IGParams, s: RngStream, size: int | None = None):
    """Draw from IG(mu, lam) via one Gamma(1/2,1) draw plus a uniform acceptance."""
    n = 1 if size is None else size
    out = ig_root_draws(p.mu, p.lam, s.gen, n)
    return float(out[0]) if size is None else out


def ig_root_draws(mu, lam, gen: np.random.Generator, n: int) -> np.ndarray:
    """n draws from IG(mu, lam); ``lam`` may be an array of n shapes.

    The root construction: with y = 2*gamma (gamma ~ Gamma(1/2,1)),

        x = mu + mu^2 y/(2 lam) - (mu/(2 lam)) sqrt(4 mu lam y + mu^2 y^2)

    is the smaller root of the IG quadratic; accept x with probability
    mu/(mu + x), else return mu^2/x.  Exact, no rejection loop.
    """
    g = gen.standard_gamma(0.5, size=n)
    y = 2.0 * g
    x = mu + mu * mu * y / (2.0 * lam) \
        - (mu / (2.0 * lam)) * np.sqrt(4.0 * mu * lam * y + mu * mu * y * y)
    u = gen.uniform(size=n)
    return np.where(u <= mu / (mu + x), x, mu * mu / x)


def sample_gamma_half(s: RngStream, size: int | None = None):
    """Draw from Gamma(shape 1/2, rate 1)."""
    g = s.gen.standard_gamma(0.5, size=size)
    return float(g) if size is None else g


def grid_cells(span: float, step: float) -> tuple[int, float]:
    """Cells n and cell width span/n of the grid on a span of length ``span``.

    n = max(1, ceil(span/step)) is the fewest cells no wider than ``step``
    (up to a 1e-9 tolerance, so a span that is a whole number of steps is
    not given an extra cell by roundoff).  Two-sided samplers on
    [-lam, lam] use it per side, so the grid hits -lam, 0 and lam.
    """
    n = max(1, int(math.ceil(span / step - 1e-9)))
    return n, span / n


def cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid of y along its last axis, 0 in the first column."""
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape)
    cells = out[..., 1:]
    np.add(y[..., 1:], y[..., :-1], out=cells)
    cells *= 0.5 * h
    np.cumsum(cells, axis=-1, out=cells)
    out[..., 0] = 0.0
    return out


_POOL: ThreadPoolExecutor | None = None


def _pool() -> ThreadPoolExecutor:
    """The package's worker pool, built on first use: one thread per usable CPU."""
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0)),
                                   thread_name_prefix="vrjplab")
    return _POOL


def _forget_pool() -> None:
    # a forked child has none of the parent's threads; it builds its own pool
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=_forget_pool)


def pool_workers() -> int:
    """Number of threads in the worker pool."""
    return _pool()._max_workers


def stream_blocks(s: RngStream, n_rep: int, block: int):
    """Yield (first, count, stream): replicas first .. first + count - 1 draw from stream.

    The one rule that maps replicas to streams: blocks of ``block`` replicas,
    the block at ``first`` drawing from s.substream(first + 1).  The block
    size fixes the seeded output, so callers pass a constant.
    """
    for first in range(0, n_rep, block):
        yield first, min(block, n_rep - first), s.substream(first + 1)


def map_stream_blocks(fn, s: RngStream, n_rep: int, block: int) -> None:
    """Run fn(first, count, stream) for every stream block, blocks on the pool.

    Each call must write only its own replicas' slice of the output.
    """
    tasks = [_pool().submit(fn, *b) for b in stream_blocks(s, n_rep, block)]
    wait(tasks)
    for task in tasks:
        task.result()


# A draw chunk of the walk holds about this many normals (1 MB); two are
# alive at once.  Larger chunks cost resident memory, smaller ones more
# hand-offs between the threads.
_DRAW_CHUNK_ELEMS = 1 << 17


def exp_functional_walk(gen: np.random.Generator, n: int, h: float, nsteps: int,
                        snaps: tuple[int, ...] = ()):
    """Walk a_k = a_{k-1} + sqrt(h) N(0, 1) from a_0 = 0 for n replicas, nsteps steps.

    The step-k increments are the k-th (n,) block of normals from ``gen``.
    They are drawn (steps x n) chunks at a time on the pool, one chunk ahead
    of the steps; numpy fills a chunk in row order, so the draws are those
    of one (n,) draw per step.  Returns a_nsteps, the trapezoid sum I of
    e^{2 a_k - k h} over k = 0..nsteps, and a list of copies of (a_k, I_k)
    for each step k in ``snaps`` (1 <= k <= nsteps).
    """
    sqrt_h = math.sqrt(h)
    rows = max(1, min(nsteps, _DRAW_CHUNK_ELEMS // max(n, 1)))
    bufs = (np.empty((rows, n)), np.empty((rows, n)))

    def draw(j: int) -> np.ndarray:
        z = bufs[j % 2][:min(rows, nsteps - j * rows)]
        gen.standard_normal(out=z)
        return z

    alpha = np.zeros(n)
    integ = np.zeros(n)
    prev = np.ones(n)  # e^{2 a_0 - 0}
    seen = {}
    chunks = -(-nsteps // rows)
    pending = _pool().submit(draw, 0)
    for j in range(chunks):
        normals = pending.result()
        if j + 1 < chunks:
            pending = _pool().submit(draw, j + 1)
        for i, z in enumerate(normals):
            k = j * rows + i + 1
            alpha += z * sqrt_h
            cur = np.exp(2.0 * alpha - k * h)
            integ += 0.5 * h * (prev + cur)
            prev = cur
            if k in snaps:
                seen[k] = (alpha.copy(), integ.copy())
    return alpha, integ, [seen[k] for k in snaps]


def sample_brownian_path(t0: float, t1: float, step: float, s: RngStream) -> SampledPath:
    """Two-sided Brownian path on the grid covering [t0, t1].

    Increments over each grid cell are independent N(0, step).  When the
    span contains 0, the path is pinned to 0 at the grid point nearest 0,
    which splits it into two independent one-sided paths glued there;
    otherwise it is pinned at the left end.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t0 >= t1:
        raise ValueError("need t0 < t1")
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


def gbm_from_brownian(b: SampledPath) -> SampledPath:
    """Map a Brownian path B to the geometric path exp(B_t - t/2)."""
    if b.kind is not PathKind.BROWNIAN:
        raise ValueError("gbm_from_brownian needs a brownian path")
    vals = np.exp(b.values - b.times / 2.0)
    return SampledPath(b.t0, b.step, vals, PathKind.GBM)


def sample_gbm_path(t0: float, t1: float, step: float, s: RngStream) -> SampledPath:
    return gbm_from_brownian(sample_brownian_path(t0, t1, step, s))


# ---------------------------------------------------------------------------
# Reference CDFs
# ---------------------------------------------------------------------------

def gamma_half_cdf(x):
    """CDF of Gamma(1/2, 1): erf(sqrt(x))."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, erf(np.sqrt(np.maximum(x, 0.0))), 0.0)


def inverse_gamma_half_cdf(x):
    """CDF of 1/(2*gamma) with gamma ~ Gamma(1/2, 1).

    P(1/(2 gamma) <= x) = P(gamma >= 1/(2x)) = 1 - erf(1/sqrt(2x)).
    """
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) and scalar:
        raise ValueError("inverse_gamma_half_cdf needs x > 0")
    out = np.where(x > 0, 1.0 - erf(1.0 / np.sqrt(2.0 * np.maximum(x, 1e-300))), 0.0)
    return float(out) if scalar else out


def scaled_inverse_gamma_half_cdf(x, c: float):
    """CDF of c/(2*gamma) for a positive constant c."""
    return inverse_gamma_half_cdf(np.asarray(x, dtype=float) / c)


def inverse_gaussian_cdf(x, p: IGParams):
    """CDF of IG(mu, lam), stable for large shape via log-normal-cdf."""
    out = inverse_gaussian_cdf_arrays(x, p.mu, p.lam)
    return float(out) if np.ndim(out) == 0 else out


def inverse_gaussian_cdf_arrays(x, mu, lam):
    """Elementwise IG CDF for broadcastable (x, mu, lam) arrays."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    pos = x > 0
    xs = np.where(pos, x, 1.0)
    r = np.sqrt(lam / xs)
    a = ndtr(r * (xs / mu - 1.0))
    b = np.exp(2.0 * lam / mu + log_ndtr(-r * (xs / mu + 1.0)))
    return np.where(pos, a + b, 0.0)
