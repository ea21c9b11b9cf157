"""The stepwise exponential-functional samplers against their original loops.

sample_dufresne_ratio, sample_line_diagonal, the mbg_transform_check loop
and sample_z_pathwise below are the original implementations, kept
verbatim as the oracle (the mbg oracle returns its four statistics rather
than a report; the library forms them in the mbg_corollary experiment,
from the ln V samples of mbg_transform_check; it takes its grid from
grid_cells, as every sampler does).  The library now runs all
four on one walk,
stochastic.exp_functional_walk, with replica streams from
stochastic.stream_blocks.  The first three do the same steps in the same
order, so they must match bit for bit.  The pathwise Z oracle carries e as
a running product, where the walk computes e^2 as exp(2a - kh), so it may
differ in the last digits but must sort the same.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import vrjplab.continuum_kernel as ck
import vrjplab.matsumoto_yor as my
from vrjplab.experiments import _exp_mbg
from vrjplab.stochastic import (RngStream, exp_functional_walk, grid_cells, new_stream,
                                stream_blocks)


def sample_dufresne_ratio(lam: float, step: float, n_rep: int, s: RngStream,
                          batch: int = 4000) -> np.ndarray:
    """int_0^lam e^{2a_s - s} ds / (e^{a_lam - lam/2} - 1)^2 per replica."""
    half, h = grid_cells(lam, step)
    out = np.empty(n_rep)
    done = 0
    while done < n_rep:
        b = min(batch, n_rep - done)
        gen = s.substream(done + 1).gen
        alpha = np.zeros(b)
        integ = np.zeros(b)
        prev = np.ones(b)  # e^{2 a_0 - 0}
        for k in range(1, half + 1):
            alpha = alpha + gen.standard_normal(b) * math.sqrt(h)
            cur = np.exp(2.0 * alpha - k * h)
            integ += 0.5 * h * (prev + cur)
            prev = cur
        denom = (np.exp(alpha - 0.5 * lam) - 1.0) ** 2
        out[done:done + b] = integ / denom
        done += b
    return out


def sample_line_diagonal(horizon: float, step: float, n_rep: int, s: RngStream,
                         batch: int = 2000) -> np.ndarray:
    """G_inf(0, 0) = int_{-horizon}^0 ds/M^2 per replica (one-sided walk)."""
    half, h = grid_cells(horizon, step)
    out = np.empty(n_rep)
    done = 0
    while done < n_rep:
        b = min(batch, n_rep - done)
        gen = s.substream(done + 1).gen
        # integrate backward from 0: s -> -s turns 1/M^2 into e^{2w_s - s}
        w = np.zeros(b)
        integ = np.zeros(b)
        prev = np.ones(b)
        for k in range(1, half + 1):
            w = w + gen.standard_normal(b) * math.sqrt(h)
            cur = np.exp(2.0 * w - k * h)
            integ += 0.5 * h * (prev + cur)
            prev = cur
        out[done:done + b] = integ
        done += b
    return out


def mbg_statistics(s: RngStream, t_grid: tuple[float, ...] = (0.5, 1.0, 2.0),
                   n_rep: int = 10_000, step: float = 1e-3,
                   tail: float = 40.0):
    """(mean_log, se, var_log, corr) of the original mbg_transform_check."""
    t_grid = tuple(sorted(t_grid))
    if len(t_grid) != 3 or t_grid[0] <= 0:
        raise ValueError("mbg check needs three positive snapshot times")
    horizon = t_grid[-1] + tail
    nsteps, step = grid_cells(horizon, step)
    snap_idx = {int(round(t / step)): ti for ti, t in enumerate(t_grid)}
    gen = s.gen
    alpha = np.zeros(n_rep)
    integ = np.zeros(n_rep)
    prev = np.ones(n_rep)
    alpha_at = np.empty((len(t_grid), n_rep))
    integ_at = np.empty((len(t_grid), n_rep))
    sq = math.sqrt(step)
    for k in range(1, nsteps + 1):
        alpha += gen.standard_normal(n_rep) * sq
        cur = np.exp(2.0 * alpha - k * step)
        integ += 0.5 * step * (prev + cur)
        prev = cur
        if k in snap_idx:
            ti = snap_idx[k]
            alpha_at[ti] = alpha
            integ_at[ti] = integ
    log_v = np.empty((len(t_grid), n_rep))
    for ti, t in enumerate(t_grid):
        log_v[ti] = (-alpha_at[ti] + t / 2.0
                     + np.log(integ - integ_at[ti]) - np.log(integ))
    mean_log = log_v.mean(axis=1)
    se = log_v.std(axis=1, ddof=1) / math.sqrt(n_rep)
    var_log = log_v.var(axis=1, ddof=1)
    d1 = log_v[1] - log_v[0]
    d2 = log_v[2] - log_v[1]
    corr = float(np.corrcoef(d1, d2)[0, 1])
    return mean_log, se, var_log, corr


def sample_z_pathwise(tmax: float, step: float, n_rep: int, s: RngStream) -> np.ndarray:
    """Ensemble of Z_tmax from the pathwise construction (stepwise, O(n_rep) memory)."""
    nsteps = int(round(tmax / step))
    e = np.ones(n_rep)
    t_acc = np.zeros(n_rep)
    sq = math.sqrt(step)
    for _ in range(nsteps):
        e_new = e * np.exp(sq * s.gen.standard_normal(n_rep) - 0.5 * step)
        t_acc += 0.5 * step * (e * e + e_new * e_new)
        e = e_new
    return t_acc / e


# Up to 20 cells per walk keeps the examples fast; n_rep is drawn both
# inside one stream block and across the first boundary of each sampler's
# block (4000 for the ratio, 2000 for the line diagonal).
seeds = st.integers(0, 2 ** 32 - 1)
spans = st.sampled_from([0.1, 0.37, 2.0, 5.0])
cells = st.integers(1, 20)
stretch = st.floats(0.0, 1.0)


@given(seed=seeds, lam=spans, n_cells=cells, u=stretch,
       n_rep=st.one_of(st.integers(1, 300), st.integers(3990, 4300)))
def test_dufresne_ratio_bit_identical_to_oracle(seed, lam, n_cells, u, n_rep):
    step = lam / n_cells * (1.0 + 0.3 * u)
    got = ck.sample_dufresne_ratio(lam, step, n_rep, new_stream(seed, 5))
    want = sample_dufresne_ratio(lam, step, n_rep, new_stream(seed, 5))
    assert np.array_equal(got, want)


@given(seed=seeds, horizon=spans, n_cells=cells, u=stretch,
       n_rep=st.one_of(st.integers(1, 300), st.integers(1990, 2300)))
def test_line_diagonal_bit_identical_to_oracle(seed, horizon, n_cells, u, n_rep):
    step = horizon / n_cells * (1.0 + 0.3 * u)
    got = ck.sample_line_diagonal(horizon, step, n_rep, new_stream(seed, 6))
    want = sample_line_diagonal(horizon, step, n_rep, new_stream(seed, 6))
    assert np.array_equal(got, want)


def test_ratio_and_line_span_several_stream_blocks():
    # 9000 replicas: three ratio blocks and five line blocks, the last partial.
    for lam, step in ((2.0, 0.2), (0.37, 0.1)):
        got = ck.sample_dufresne_ratio(lam, step, 9000, new_stream(11, 1))
        assert np.array_equal(got, sample_dufresne_ratio(lam, step, 9000,
                                                         new_stream(11, 1)))
        got = ck.sample_line_diagonal(lam, step, 9000, new_stream(11, 2))
        assert np.array_equal(got, sample_line_diagonal(lam, step, 9000,
                                                        new_stream(11, 2)))


# Steps of 0.02 to 0.2 keep the snapshots at t = 0.5, 1, 2 on distinct steps.
@given(seed=seeds, step=st.floats(0.02, 0.2), tail=st.floats(0.5, 3.0),
       n_rep=st.integers(10, 3000))
def test_mbg_statistics_bit_identical_to_oracle(seed, step, tail, n_rep):
    res = _exp_mbg({"n": n_rep, "step": step, "tail": tail}, new_stream(seed, 7))
    mean_log, se, var_log, corr = mbg_statistics(new_stream(seed, 7), (0.5, 1.0, 2.0),
                                                 n_rep, step, tail)
    assert np.array_equal([r["mean_log"] for r in res.rows], mean_log)
    assert np.array_equal([r["se"] for r in res.rows], se)
    assert np.array_equal([r["var_log"] for r in res.rows], var_log)
    assert len(res.reports) == 7
    decorrelation = res.reports[-1]
    assert decorrelation.label == "increment decorrelation"
    assert decorrelation.statistic == abs(corr)


@given(seed=seeds, tmax=st.sampled_from([0.1, 0.5, 1.0, 3.0]), n_steps=st.integers(1, 60),
       n_rep=st.integers(1, 2000))
def test_z_pathwise_matches_oracle_to_roundoff(seed, tmax, n_steps, n_rep):
    step = tmax / n_steps
    got = my.sample_z_pathwise(tmax, step, n_rep, new_stream(seed, 8))
    want = sample_z_pathwise(tmax, step, n_rep, new_stream(seed, 8))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert np.array_equal(np.argsort(got), np.argsort(want))


# 2.5 is not a whole number of steps of 1.0: both Z samplers take the three
# cells of width 2.5/3 that end at t = 2.5
def test_euler_maruyama_z_ends_at_an_off_grid_span():
    n, h = 500, 2.5 / 3
    gen = new_stream(3, 4).gen
    z = np.zeros(n)
    for _ in range(3):
        dw = math.sqrt(h) * gen.standard_normal(n)
        z = z + z * dw + (1.0 + z) * h
    assert np.array_equal(my.euler_maruyama_z(2.5, 1.0, n, new_stream(3, 4)), z)


def test_z_pathwise_ends_at_an_off_grid_span():
    n, h = 500, 2.5 / 3
    alpha, integ, _ = exp_functional_walk(new_stream(3, 5).gen, n, h, 3)
    want = integ / np.exp(alpha - 3 * h / 2)
    assert np.array_equal(my.sample_z_pathwise(2.5, 1.0, n, new_stream(3, 5)), want)


@given(n_rep=st.integers(0, 10_000), block=st.integers(1, 5000))
def test_stream_blocks_cover_each_replica_once(n_rep, block):
    s = new_stream(3, 10)
    covered = []
    for first, count, stream in stream_blocks(s, n_rep, block):
        assert 1 <= count <= block
        assert (stream.seed, stream.stream_id) == (3, 10 + first + 1)
        covered.extend(range(first, first + count))
    assert covered == list(range(n_rep))
