"""Deterministic, seedable randomness and the elementary samplers.

Each draw primitive lives here once: the mean-1 Inverse Gaussian draw, the
builder of two-sided log-geometric paths (``log_gbm_rows``), the streamed
Brownian increments (``brownian_increments``) and the
exponential-functional walk.  The IG draw takes its chi^2_1 variate as Z^2
and finishes its output in place, a cache-sized block at a time, so it
needs no whole-size temporaries.  Every stepwise ensemble reads its
per-step normals from one source, ``step_normals``, which draws them in
the calling thread.  Every ensemble sampler maps its replicas to streams
by one rule, ``stream_blocks``.

The phase-counting experiments read only the increments of their paths
(``brownian_increments``), a block of cells at a time (a window of
spectrum._WINDOW cells of every replica's path for the density of states,
spectrum._LANE_BLOCK cells of every running path for the renewal gaps), so
their memory does not grow with the path length.  The renewal gaps draw one path per
lane, shared by the energies, until every lane on it has stopped at its
first crossing at or after a cut time (spectrum: why no length bias).
``log_gbm_rows`` draws each row block in one call: its row blocks run on
the worker threads, where a draw per row (as in ``brownian_increments``)
and a new buffer per block made the matrix samplers measurably slower.
Both keep one buffer for the whole call.

Every stochastic routine in this package consumes an explicit
:class:`RngStream`.  A stream is keyed by a seed and a path of integers:
``new_stream(seed, id)`` has the path ``(id,)`` and ``substream(k)``
appends k, so the children of one stream never meet its siblings'.
numpy's ``SeedSequence(seed, spawn_key=path)`` hashes the key into the
state of an SFC64 generator, so distinct paths give independent streams,
and the same key reproduces the same draws bit for bit within one stream
epoch (``STREAM_EPOCH``, written to every run's manifest) and numpy
release (Gaussian draws use numpy's ziggurat and are not guaranteed stable
across numpy versions).  Epoch 1 keyed Philox by (seed, id) and made
``substream(k)`` the stream id + k.  SFC64 draws a normal in 11-13 ns
where Philox took 20-22 ns, and a uniform in 2-3.4 ns where it took
6-8.6 ns (2-vCPU x86_64 VM, numpy 2.4, 8192 to 2M draws per call).

Reference distributions used throughout the verification suites (the
Inverse Gaussian and the law of 1/(2*gamma)) live here as closed-form
CDFs; they import scipy.special when called, so that runs which never
call them do not pay its import.

The matrix samplers use up to one thread per usable CPU, through one
private pool (``_pool``).  A pool task owns one stream block and its
slice of the output, so seeded output does not depend on the thread
count.  Pool tasks call numpy and untraced helpers only, and never submit
to the pool themselves.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np


# Bumped whenever seeded draws move on purpose, and written to every run's
# manifest with the bit generator: epoch 2 keys SFC64 streams by
# SeedSequence spawn paths and draws the IG variate from Z^2.
STREAM_EPOCH = 2
BIT_GENERATOR = "SFC64"    # by name: np.random is imported on first use, not with this module


@dataclass
class RngStream:
    """Single-consumer source of uniform randomness, keyed by (seed, path).

    The generator is SFC64 seeded by SeedSequence(seed, spawn_key=path), a
    negative seed taken mod 2^64.  Distinct paths under the same seed are
    independent, so parallel replicas must each get their own stream.
    """

    seed: int
    path: tuple[int, ...]
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        key = np.random.SeedSequence(self.seed % (1 << 64), spawn_key=self.path)
        self.gen = np.random.Generator(getattr(np.random, BIT_GENERATOR)(key))

    def substream(self, k: int) -> "RngStream":
        """The k-th child stream: path + (k,), so children of distinct streams never meet."""
        return RngStream(self.seed, self.path + (k,))


def new_stream(seed: int, stream_id: int) -> RngStream:
    return RngStream(seed, (stream_id,))


@dataclass
class SampledPath:
    """A geometric path M on the regular grid t0 + k*step, k = 0..len(values)-1."""

    t0: float
    step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size == 0:
            raise ValueError("empty path")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not np.all(self.values > 0):
            raise ValueError("gbm path must be strictly positive")

    @property
    def t_end(self) -> float:
        return self.t0 + self.step * (self.values.size - 1)


# A block holds about this many values (256 KB): a row-blocked caller's
# working set stays in cache and does not grow with the path or replica count.
_ROW_BLOCK_ELEMS = 1 << 15


def sample_inverse_gaussian(lam, s: RngStream, size: int) -> np.ndarray:
    """``size`` draws from IG(1, lam); ``lam`` > 0 is a scalar or an array of ``size`` shapes.

    Every mean reduces to mean 1 by the scale relation
    IG(mu, lam) = mu * IG(1, lam/mu).  The root construction of Michael,
    Schucany & Haas (1976): with y = Z^2 (Z ~ N(0, 1), so y ~ chi^2_1,
    the law of 2*gamma, gamma ~ Gamma(1/2, 1)), the IG quadratic has the
    roots x+ = 1 + (y + sqrt(4 lam y + y^2)) / (2 lam) and x- = 1/x+.
    Return x- with probability 1/(1 + x-) = x+/(1 + x+), else x+.  Exact,
    no rejection loop.  x- is taken as 1/x+, never as the difference
    1 + y/(2 lam) - sqrt(...)/(2 lam), which cancels to 0 or below when
    y/lam is large.

    Every normal is drawn first, straight into the output; then each block
    of ``_ROW_BLOCK_ELEMS`` draws its uniforms and is finished in place.
    numpy fills element by element and each element meets the same float
    operations as in a whole-array pass, so the draws do not depend on the
    block, and the scratch memory does not grow with ``size``.  A size-1
    ``lam`` counts as a scalar; any other length than ``size`` is a
    ValueError.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("IG shape lam must be positive")
    if lam.size == 1:
        lam = lam.reshape(())
    elif lam.shape != (size,):
        raise ValueError(f"IG shape lam must be a scalar or of length {size}, "
                         f"got shape {lam.shape}")
    y = s.gen.standard_normal(size)
    block = max(1, min(size, _ROW_BLOCK_ELEMS))
    root, u, small = np.empty(block), np.empty(block), np.empty(block, dtype=bool)
    for lo in range(0, size, block):
        n = min(block, size - lo)
        x, r, ub, sm = y[lo:lo + n], root[:n], u[:n], small[:n]
        lb = lam if lam.ndim == 0 else lam[lo:lo + n]
        np.square(x, out=x)               # y
        np.multiply(4.0 * lb, x, out=r)
        np.multiply(x, x, out=ub)
        r += ub
        np.sqrt(r, out=r)
        r += x
        r /= 2.0 * lb
        np.add(r, 1.0, out=x)             # the larger root x+
        s.gen.random(out=ub)              # the bits of uniform(size=n)
        np.add(x, 1.0, out=r)
        np.divide(x, r, out=r)
        np.less_equal(ub, r, out=sm)      # u <= x+/(1 + x+): the smaller root
        np.divide(1.0, x, out=x, where=sm)
    return y


def grid_cells(span: float, step: float) -> tuple[int, float]:
    """Cells n and cell width span/n of the grid on a span of length ``span``.

    n = max(1, ceil(span/step)) is the fewest cells no wider than ``step``
    (up to a 1e-9 tolerance, so a span that is a whole number of steps is
    not given an extra cell by roundoff).  The stepwise walks on
    [0, span] take these cells, so they end at span; two-sided samplers
    on [-lam, lam] use it per side, so the grid hits -lam, 0 and lam.
    Raises ValueError unless span and step are positive and finite.
    """
    if not (0 < span < math.inf and 0 < step < math.inf):
        raise ValueError(f"grid span and step must be positive and finite, "
                         f"got span={span}, step={step}")
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


def pool_workers() -> int:
    """Number of threads in the worker pool."""
    return _pool()._max_workers


def stream_blocks(s: RngStream, n_rep: int, block: int):
    """Yield (first, count, stream): replicas first .. first + count - 1 draw from stream.

    The one rule that maps replicas to streams: blocks of ``block`` replicas,
    the block at ``first`` drawing from s.substream(first + 1).  The block
    size fixes the seeded output, so callers pass a constant.  The blocks
    are children of s, so a caller that hands s to stream_blocks takes no
    other child of s.
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


# A draw chunk holds about this many normals (1 MB): fewer, larger draw
# calls, and resident memory that does not grow with the step count.
_DRAW_CHUNK_ELEMS = 1 << 17


def step_normals(gen: np.random.Generator, n: int, nsteps: int):
    """Yield the nsteps (n,) blocks of standard normals of a stepwise loop, in order.

    The step-k block is the k-th (n,) block of normals from ``gen``.  They
    are drawn (steps x n) chunks at a time, in the calling thread, into one
    buffer; numpy fills a chunk in row order, so the draws are those of
    one (n,) draw per step.  A yielded block is overwritten once the next
    chunk is drawn, so a loop uses each block before it takes the next.
    """
    rows = max(1, min(nsteps, _DRAW_CHUNK_ELEMS // max(n, 1)))
    buf = np.empty((rows, n))
    for lo in range(0, nsteps, rows):
        normals = buf[:min(rows, nsteps - lo)]
        gen.standard_normal(out=normals)
        yield from normals


def exp_functional_walk(gen: np.random.Generator, n: int, h: float, nsteps: int,
                        snaps: tuple[int, ...] = ()):
    """Walk a_k = a_{k-1} + sqrt(h) N(0, 1) from a_0 = 0 for n replicas, nsteps steps.

    The step-k increments are the k-th block of ``step_normals``.  Returns
    a_nsteps, the trapezoid sum I of f_k = e^{2 a_k - k h} over
    k = 0..nsteps, the trapezoid sum J of the same path on every second
    node (cells of width 2h), and a list of copies of (a_k, I_k, J_k) for
    each step k in ``snaps`` (1 <= k <= nsteps).  J counts its nodes from
    0 and afresh from each snapshot; a stretch of an odd number of cells,
    up to a snapshot or to the end, ends with one cell of width h, the
    fine sum's.  So J sums over [0, k] and over [k, nsteps] with positive
    weights, and J - I leaves out only those odd cells, each of whose
    own error is O(h^3).

    With exact Brownian values at the nodes the trapezoid is weak order 2
    (Lapeyre & Temam 2001 for the Asian-option analogue): for a smooth
    functional g, E g(I) - E g(I_exact) = C h^2 + o(h^2).  The coarse sum
    has the error 4 C h^2, so (E g(J) - E g(I)) / 3 estimates the error at
    h from one run; on a deterministic smooth integrand it is exact to
    O(h^4) (Euler-Maclaurin).  J costs one add per two steps and does not
    touch the operations of I, so I is bit-identical to a walk without J.
    """
    sqrt_h = math.sqrt(h)
    alpha = np.zeros(n)
    integ = np.zeros(n)
    coarse = np.zeros(n)
    prev = np.ones(n)  # e^{2 a_0 - 0}
    node = prev        # f at J's last node
    start = 0          # where J last started counting its nodes
    seen = {}
    for k, z in enumerate(step_normals(gen, n, nsteps), 1):
        alpha += z * sqrt_h
        cur = np.exp(2.0 * alpha - k * h)
        cell = 0.5 * h * (prev + cur)
        integ += cell
        prev = cur
        if (k - start) % 2 == 0:
            coarse += h * (node + cur)
            node = cur
        elif k == nsteps or k in snaps:
            coarse += cell
            node = cur
        if k in snaps:
            start = k
            seen[k] = (alpha.copy(), integ.copy(), coarse.copy())
    return alpha, integ, coarse, [seen[k] for k in snaps]


def walk_ends(span: float, step: float, n_rep: int, s: RngStream,
              block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_span, I, J) per replica of exp_functional_walk on the grid_cells grid of [0, span].

    I is the trapezoid of int_0^span e^{2a_s - s} ds at the grid's step h
    and J the trapezoid of the same path on every second node (step 2h).
    The replicas walk in stream_blocks of ``block``, one after another in
    the calling thread.
    """
    nsteps, h = grid_cells(span, step)
    ends = np.empty((3, n_rep))
    for first, count, block_stream in stream_blocks(s, n_rep, block):
        ends[:, first:first + count] = exp_functional_walk(block_stream.gen, count,
                                                           h, nsteps)[:3]
    return ends[0], ends[1], ends[2]


def brownian_increments(gens, n_cells: int, step: float, block: int):
    """Yield (lo, increments over cells lo..hi-1) of one Brownian path per generator.

    A block of ``block`` cells at a time: row r holds sqrt(step) N_k for
    k = lo..hi-1, hi = min(lo + block, n_cells), where N_k is gens[r]'s
    k-th standard normal in draw order, the increment over cell k of the
    path B_0 = 0, B_{k+1} = B_k + sqrt(step) N_k.  The values do not
    depend on ``block``, and memory is O(len(gens) x block).  The yielded
    array is overwritten by the next block.
    """
    sqrt_h = math.sqrt(step)
    buf = np.empty((len(gens), min(block, n_cells)))
    for lo in range(0, n_cells, block):
        incr = buf[:, :min(block, n_cells - lo)]
        for gen, row in zip(gens, incr):
            gen.standard_normal(out=row)
        incr *= sqrt_h
        yield lo, incr


def log_gbm_rows(lam: float, step: float, count: int, s: RngStream):
    """Yield (first row, rows of log M_t = B_t - t/2 on [-lam, lam]) for count paths.

    The one builder of two-sided paths.  grid_cells cuts each side, so the
    grid -lam + h*k, k = 0..2*half, hits -lam, 0 and lam, with B = 0 at
    k = half.  The paths come a row block at a time, drawn from ``s`` in
    row order, so the draws do not depend on the row block; the yielded
    array is overwritten by the next row block.
    """
    half, h = grid_cells(lam, step)
    n_cells = 2 * half
    half_times = (-lam + h * np.arange(n_cells + 1)) / 2.0
    rows = max(1, min(count, _ROW_BLOCK_ELEMS // (n_cells + 1)))
    incr_buf = np.empty((rows, n_cells))
    m_buf = np.empty((rows, n_cells + 1))
    sqrt_h = math.sqrt(h)
    for lo in range(0, count, rows):
        r = min(rows, count - lo)
        incr, m = incr_buf[:r], m_buf[:r]
        s.gen.standard_normal(out=incr)
        incr *= sqrt_h
        m[:, 0] = 0.0
        np.cumsum(incr, axis=1, out=m[:, 1:])
        m -= m[:, half, None].copy()
        m -= half_times
        yield lo, m


# ---------------------------------------------------------------------------
# Reference CDFs
# ---------------------------------------------------------------------------

def inverse_gamma_half_cdf(x):
    """CDF of 1/(2*gamma) with gamma ~ Gamma(1/2, 1).

    P(1/(2 gamma) <= x) = P(gamma >= 1/(2x)) = 1 - erf(1/sqrt(2x)).
    """
    from scipy.special import erf

    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) and scalar:
        raise ValueError("inverse_gamma_half_cdf needs x > 0")
    out = np.where(x > 0, 1.0 - erf(1.0 / np.sqrt(2.0 * np.maximum(x, 1e-300))), 0.0)
    return float(out) if scalar else out


def inverse_gaussian_cdf(x, mu, lam):
    """CDF of IG(mu, lam), elementwise over broadcastable (x, mu, lam).

    Stable for large shape: the second term is taken through log_ndtr.
    """
    from scipy.special import log_ndtr, ndtr

    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    pos = x > 0
    xs = np.where(pos, x, 1.0)
    r = np.sqrt(lam / xs)
    a = ndtr(r * (xs / mu - 1.0))
    b = np.exp(2.0 * lam / mu + log_ndtr(-r * (xs / mu + 1.0)))
    return np.where(pos, a + b, 0.0)
