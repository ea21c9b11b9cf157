"""Deterministic, seedable randomness and the elementary samplers.

Each draw primitive lives here once: the mean-1 Inverse Gaussian draw, the
builder of two-sided log-geometric paths (``log_gbm_rows``), the streamed
Brownian path (``brownian_blocks``) and the exponential-functional walk.
Every stepwise ensemble reads its per-step normals from one draw-ahead
source, ``step_normals``.  The phase-counting experiments read their paths
from ``brownian_blocks`` a block of nodes at a time, so their memory does
not grow with the path length.  ``log_gbm_rows`` keeps its own reused
buffers and one draw per row block: its row blocks run on the worker
threads, where a draw per row and a new buffer per block (as in
``brownian_blocks``) made the matrix samplers measurably slower.

Every stochastic routine in this package consumes an explicit
:class:`RngStream`.  A stream is identified by a ``(seed, stream_id)``
pair and is backed by the counter-based Philox generator, so distinct
``stream_id`` values give statistically independent substreams and the
same pair reproduces the identical draw sequence bit for bit (per numpy
release; Gaussian draws use numpy's ziggurat and are not guaranteed
stable across numpy versions).

Reference distributions used throughout the verification suites (the
Inverse Gaussian and the law of 1/(2*gamma)) live here as closed-form
CDFs.

The ensemble samplers use up to one thread per usable CPU, through one
private pool (``_pool``).  A pool task either owns one stream block and
its slice of the output, or draws the next chunk of ``step_normals``, so
seeded output does not depend on the thread count.  Pool tasks call
numpy and untraced helpers only, and never submit to the pool themselves.

Pure-Python work holds the interpreter lock, so the pool cannot overlap
it; ``map_forked`` runs such jobs in forked child processes instead, at
most one fewer than the pool's workers at once, so the worker count has
the one source, the usable CPUs.  Fork, not spawn or forkserver: a new
interpreter imports numpy and scipy afresh, about 0.75 s per child on a
2-vCPU VM, which is more than the overlap saves on the phase scans it
serves.  Forking a process with threads is safe only while those threads
hold no lock the child needs; the pool's threads are idle while
``map_forked`` runs, the child builds a pool of its own if it needs one
(``os.register_at_fork`` below), and the job touches only its own
arguments.  Python 3.12+ warns (DeprecationWarning) on every fork of a
process that has threads; the idle pool threads are what it sees.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import multiprocessing.connection
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
    def t_end(self) -> float:
        return self.t0 + self.step * (self.values.size - 1)


def sample_inverse_gaussian(lam, s: RngStream, size: int) -> np.ndarray:
    """``size`` draws from IG(1, lam); ``lam`` > 0 is a scalar or an array of ``size`` shapes.

    Every mean reduces to mean 1 by the scale relation
    IG(mu, lam) = mu * IG(1, lam/mu).  The root construction: with
    y = 2*gamma (gamma ~ Gamma(1/2,1)),

        x = 1 + y/(2 lam) - (1/(2 lam)) sqrt(4 lam y + y^2)

    is the smaller root of the IG quadratic; accept x with probability
    1/(1 + x), else return 1/x.  Exact, no rejection loop.
    """
    if not np.all(np.asarray(lam) > 0):
        raise ValueError("IG shape lam must be positive")
    y = 2.0 * s.gen.standard_gamma(0.5, size=size)
    x = 1.0 + y / (2.0 * lam) - (1.0 / (2.0 * lam)) * np.sqrt(4.0 * lam * y + y * y)
    u = s.gen.uniform(size=size)
    return np.where(u <= 1.0 / (1.0 + x), x, 1.0 / x)


def grid_cells(span: float, step: float) -> tuple[int, float]:
    """Cells n and cell width span/n of the grid on a span of length ``span``.

    n = max(1, ceil(span/step)) is the fewest cells no wider than ``step``
    (up to a 1e-9 tolerance, so a span that is a whole number of steps is
    not given an extra cell by roundoff).  Two-sided samplers on
    [-lam, lam] use it per side, so the grid hits -lam, 0 and lam.
    Raises ValueError unless span and step are positive and finite.
    """
    if not (0 < span < math.inf and 0 < step < math.inf):
        raise ValueError(f"grid span and step must be positive and finite, "
                         f"got span={span}, step={step}")
    n = max(1, int(math.ceil(span / step - 1e-9)))
    return n, span / n


def walk_steps(span: float, step: float) -> int:
    """Steps round(span/step) of a stepwise walk on [0, span].

    Raises ValueError unless span and step are positive and finite and
    give at least one step, so a walk never runs on an empty grid.
    """
    if not (0 < span < math.inf and 0 < step < math.inf):
        raise ValueError(f"walk span and step must be positive and finite, "
                         f"got span={span}, step={step}")
    nsteps = int(round(span / step))
    if nsteps < 1:
        raise ValueError(f"walk needs at least one step, got span={span}, step={step}")
    return nsteps


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


def _forked_call(conn, fn, job) -> None:
    # runs in the child: reply (True, result) or (False, the exception)
    try:
        reply = (True, fn(*job))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def map_forked(fn, jobs) -> list:
    """[fn(*job) for job in jobs]: jobs[0] in this process, the others in forked children.

    For pure-Python work, which holds the interpreter lock, so threads
    cannot overlap it.  At most pool_workers() - 1 children are alive at
    once; with one worker every job runs here and nothing is forked.  A
    child pickles back only fn's result.  Results come in job order.  A
    child's exception is raised again here with its own type and message;
    a child that exits without a reply raises RuntimeError.  Every child
    is reaped before this returns, and on an error the ones still running
    are terminated first.  Callers must not run it while pool tasks are
    in flight (see the module docstring on fork).
    """
    jobs = list(jobs)
    slots = pool_workers() - 1
    if slots < 1 or len(jobs) < 2:
        return [fn(*job) for job in jobs]
    ctx = multiprocessing.get_context("fork")
    results = [None] * len(jobs)
    running = {}                        # reply connection -> (job index, child)
    queued = iter(range(1, len(jobs)))

    def start(i: int) -> None:
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_forked_call, args=(send, fn, jobs[i]), daemon=True)
        child.start()
        send.close()
        running[recv] = (i, child)

    try:
        for i in itertools.islice(queued, slots):
            start(i)
        results[0] = fn(*jobs[0])
        while running:
            for conn in multiprocessing.connection.wait(list(running)):
                i, child = running.pop(conn)
                try:
                    ok, value = conn.recv()
                except EOFError:
                    child.join()
                    raise RuntimeError(f"forked job {i} exited with code {child.exitcode} "
                                       f"without a result") from None
                finally:
                    conn.close()
                child.join()
                if not ok:
                    raise value
                results[i] = value
                following = next(queued, None)
                if following is not None:
                    start(following)
    finally:
        for conn, (_, child) in running.items():
            child.terminate()
            child.join()
            conn.close()
    return results


# A draw chunk holds about this many normals (1 MB); two are alive at once.
# Larger chunks cost resident memory, smaller ones more hand-offs between
# the threads.
_DRAW_CHUNK_ELEMS = 1 << 17


def step_normals(gen: np.random.Generator, n: int, nsteps: int):
    """Yield the nsteps (n,) blocks of standard normals of a stepwise loop, in order.

    The step-k block is the k-th (n,) block of normals from ``gen``.  They
    are drawn (steps x n) chunks at a time on the pool, one chunk ahead of
    the steps; numpy fills a chunk in row order, so the draws are those of
    one (n,) draw per step.  A yielded block may be overwritten once the
    next one is taken, so a loop uses each block before it takes the next.
    Read the generator to its end: only then has the last chunk been drawn.
    """
    rows = max(1, min(nsteps, _DRAW_CHUNK_ELEMS // max(n, 1)))
    bufs = (np.empty((rows, n)), np.empty((rows, n)))

    def draw(j: int) -> np.ndarray:
        z = bufs[j % 2][:min(rows, nsteps - j * rows)]
        gen.standard_normal(out=z)
        return z

    chunks = -(-nsteps // rows)
    pending = _pool().submit(draw, 0)
    for j in range(chunks):
        normals = pending.result()
        if j + 1 < chunks:
            pending = _pool().submit(draw, j + 1)
        yield from normals


def exp_functional_walk(gen: np.random.Generator, n: int, h: float, nsteps: int,
                        snaps: tuple[int, ...] = ()):
    """Walk a_k = a_{k-1} + sqrt(h) N(0, 1) from a_0 = 0 for n replicas, nsteps steps.

    The step-k increments are the k-th block of ``step_normals``.  Returns
    a_nsteps, the trapezoid sum I of e^{2 a_k - k h} over k = 0..nsteps,
    and a list of copies of (a_k, I_k) for each step k in ``snaps``
    (1 <= k <= nsteps).
    """
    sqrt_h = math.sqrt(h)
    alpha = np.zeros(n)
    integ = np.zeros(n)
    prev = np.ones(n)  # e^{2 a_0 - 0}
    seen = {}
    for k, z in enumerate(step_normals(gen, n, nsteps), 1):
        alpha += z * sqrt_h
        cur = np.exp(2.0 * alpha - k * h)
        integ += 0.5 * h * (prev + cur)
        prev = cur
        if k in snaps:
            seen[k] = (alpha.copy(), integ.copy())
    return alpha, integ, [seen[k] for k in snaps]


def brownian_blocks(gens, n_cells: int, step: float, block: int):
    """Yield (lo, nodes lo..hi of B) for one Brownian path per generator, block cells at a time.

    Row r is the path B_0 = 0, B_k = B_{k-1} + sqrt(step) N_k of gens[r],
    whose N_k are gens[r]'s standard normals in draw order, on nodes
    0..n_cells.  A block holds nodes lo..hi with hi = min(lo + block,
    n_cells), so consecutive blocks share a node.  The running sum carries
    across blocks and adds the same terms in the same order as one cumsum
    over the whole path, so the values do not depend on ``block``, and
    memory is O(len(gens) x block).  The yielded array is overwritten by
    the next block.
    """
    sqrt_h = math.sqrt(step)
    buf = np.empty((len(gens), min(block, n_cells) + 1))
    carry = np.zeros(len(gens))
    for lo in range(0, n_cells, block):
        nodes = buf[:, :min(block, n_cells - lo) + 1]
        nodes[:, 0] = carry
        for gen, row in zip(gens, nodes):
            gen.standard_normal(out=row[1:])
        nodes[:, 1:] *= sqrt_h
        np.cumsum(nodes, axis=1, out=nodes)
        carry = nodes[:, -1].copy()
        yield lo, nodes


# A row block holds about this many grid values (256 KB): a row-blocked
# caller's working set stays in cache and does not grow with the path count.
_ROW_BLOCK_ELEMS = 1 << 15


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
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    pos = x > 0
    xs = np.where(pos, x, 1.0)
    r = np.sqrt(lam / xs)
    a = ndtr(r * (xs / mu - 1.0))
    b = np.exp(2.0 * lam / mu + log_ndtr(-r * (xs / mu + 1.0)))
    return np.where(pos, a + b, 0.0)
