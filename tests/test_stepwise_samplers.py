"""The stepwise exponential-functional samplers against their original loops.

sample_dufresne_ratio, sample_line_diagonal, the mbg_transform_check loop
and sample_z_pathwise below are the original implementations, kept
verbatim as the oracle (the mbg oracle returns its four statistics rather
than a report; the library forms them in the mbg_corollary experiment,
from the ln V samples of mbg_transform_check; it takes its grid from
grid_cells, as every sampler does, and forms ln V at the node time k*h it
read, not at the requested t).  The library now runs all
four on one walk,
stochastic.exp_functional_walk, with replica streams from
stochastic.stream_blocks; the oracles take theirs by the same rule.  The first three do the same steps in the same
order, so they must match bit for bit.  The pathwise Z oracle carries e as
a running product, where the walk computes e^2 as exp(2a - kh), so it may
differ in the last digits but must sort the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vrjplab.continuum_kernel as ck
import vrjplab.matsumoto_yor as my
import vrjplab.stochastic as stochastic
from vrjplab.experiments import _exp_mbg, _increment_corr, get_experiment
from vrjplab.stochastic import (RngStream, exp_functional_walk, grid_cells, new_stream,
                                step_normals, stream_blocks)


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
                   tail: float = 40.0, batch: int = 5000):
    """(mean_log, se, var_log, corr) of the original mbg_transform_check."""
    t_grid = tuple(sorted(t_grid))
    if len(t_grid) != 3 or t_grid[0] <= 0:
        raise ValueError("mbg check needs three positive snapshot times")
    horizon = t_grid[-1] + tail
    nsteps, step = grid_cells(horizon, step)
    snap_idx = {int(round(t / step)): ti for ti, t in enumerate(t_grid)}
    log_v = np.empty((len(t_grid), n_rep))
    for done in range(0, n_rep, batch):
        b = min(batch, n_rep - done)
        gen = s.substream(done + 1).gen
        alpha = np.zeros(b)
        integ = np.zeros(b)
        prev = np.ones(b)
        alpha_at = np.empty((len(t_grid), b))
        integ_at = np.empty((len(t_grid), b))
        sq = math.sqrt(step)
        for k in range(1, nsteps + 1):
            alpha += gen.standard_normal(b) * sq
            cur = np.exp(2.0 * alpha - k * step)
            integ += 0.5 * step * (prev + cur)
            prev = cur
            if k in snap_idx:
                ti = snap_idx[k]
                alpha_at[ti] = alpha
                integ_at[ti] = integ
        for ti, k in enumerate(snap_idx):
            tau = k * step                  # the node time the walk read
            log_v[ti, done:done + b] = (-alpha_at[ti] + tau / 2.0
                                        + np.log(integ - integ_at[ti]) - np.log(integ))
    mean_log = log_v.mean(axis=1)
    se = log_v.std(axis=1, ddof=1) / math.sqrt(n_rep)
    var_log = log_v.var(axis=1, ddof=1)
    d1 = log_v[1] - log_v[0]
    d2 = log_v[2] - log_v[1]
    corr = float(np.corrcoef(d1, d2)[0, 1])
    return mean_log, se, var_log, corr


def sample_z_pathwise(tmax: float, step: float, n_rep: int, s: RngStream,
                      batch: int = 5000) -> np.ndarray:
    """Ensemble of Z_tmax from the pathwise construction (stepwise, O(n_rep) memory)."""
    nsteps = int(round(tmax / step))
    out = np.empty(n_rep)
    sq = math.sqrt(step)
    for done in range(0, n_rep, batch):
        b = min(batch, n_rep - done)
        gen = s.substream(done + 1).gen
        e = np.ones(b)
        t_acc = np.zeros(b)
        for _ in range(nsteps):
            e_new = e * np.exp(sq * gen.standard_normal(b) - 0.5 * step)
            t_acc += 0.5 * step * (e * e + e_new * e_new)
            e = e_new
        out[done:done + b] = t_acc / e
    return out


# Up to 20 cells per walk keeps the examples fast; n_rep is drawn both
# inside one stream block and across the first boundary of each sampler's
# block (4000 for the ratio, 2000 for the line diagonal, 5000 for the mbg
# and Z walks).
seeds = st.integers(0, 2 ** 32 - 1)
spans = st.sampled_from([0.1, 0.37, 2.0, 5.0])
cells = st.integers(1, 20)
stretch = st.floats(0.0, 1.0)


@given(seed=seeds, lam=spans, n_cells=cells, u=stretch,
       n_rep=st.one_of(st.integers(1, 300), st.integers(3990, 4300)))
def test_dufresne_ratio_bit_identical_to_oracle(seed, lam, n_cells, u, n_rep):
    step = lam / n_cells * (1.0 + 0.3 * u)
    got, _ = ck.sample_dufresne_ratio(lam, step, n_rep, new_stream(seed, 5))
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
        got, _ = ck.sample_dufresne_ratio(lam, step, 9000, new_stream(11, 1))
        assert np.array_equal(got, sample_dufresne_ratio(lam, step, 9000,
                                                         new_stream(11, 1)))
        got = ck.sample_line_diagonal(lam, step, 9000, new_stream(11, 2))
        assert np.array_equal(got, sample_line_diagonal(lam, step, 9000,
                                                        new_stream(11, 2)))


# Steps of 0.02 to 0.2 keep the snapshots at t = 0.5, 1, 2 on distinct steps.
@given(seed=seeds, step=st.floats(0.02, 0.2), tail=st.floats(0.5, 3.0),
       n_rep=st.one_of(st.integers(10, 3000), st.integers(4990, 5300)))
def test_mbg_statistics_bit_identical_to_oracle(seed, step, tail, n_rep):
    res = _exp_mbg({"n": n_rep, "step": step, "tail": tail}, new_stream(seed, 7))
    mean_log, se, var_log, corr = mbg_statistics(new_stream(seed, 7), (0.5, 1.0, 2.0),
                                                 n_rep, step, tail)
    assert np.array_equal([r["mean_log"] for r in res.rows], mean_log)
    assert np.array_equal([r["se"] for r in res.rows], se)
    assert np.array_equal([r["var_log"] for r in res.rows], var_log)
    _, h = grid_cells(2.0 + tail, step)
    assert [r["t"] for r in res.rows] == [round(t / h) * h for t in (0.5, 1.0, 2.0)]
    (decorrelation,) = [r for r in res.reports if r.label == "increment decorrelation"]
    assert decorrelation.statistic == abs(corr)


@given(seed=seeds, tmax=st.sampled_from([0.1, 0.5, 1.0, 3.0]), n_steps=st.integers(1, 60),
       n_rep=st.one_of(st.integers(1, 2000), st.integers(4990, 5300)))
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
    gen = new_stream(3, 4).substream(1).gen     # the one stream block
    z = np.zeros(n)
    for _ in range(3):
        dw = math.sqrt(h) * gen.standard_normal(n)
        z = z + z * dw + (1.0 + z) * h
    assert np.array_equal(my.euler_maruyama_z(2.5, 1.0, n, new_stream(3, 4)), z)


def test_z_pathwise_ends_at_an_off_grid_span():
    n, h = 500, 2.5 / 3
    alpha, integ, _, _ = exp_functional_walk(new_stream(3, 5).substream(1).gen, n, h, 3)
    want = integ / np.exp(alpha - 3 * h / 2)
    assert np.array_equal(my.sample_z_pathwise(2.5, 1.0, n, new_stream(3, 5)), want)


@given(n_rep=st.integers(0, 10_000), block=st.integers(1, 5000))
def test_stream_blocks_cover_each_replica_once(n_rep, block):
    s = new_stream(3, 10)
    covered = []
    for first, count, stream in stream_blocks(s, n_rep, block):
        assert 1 <= count <= block
        assert (stream.seed, stream.path) == (3, (10, first + 1))
        covered.extend(range(first, first + count))
    assert covered == list(range(n_rep))


class _ZeroNormals:
    """A generator stub whose normals are all 0, so the walk's path is a_k = 0."""

    def standard_normal(self, out):
        out.fill(0.0)
        return out


@pytest.mark.parametrize("nsteps", [20, 40, 80])
def test_richardson_estimate_is_exact_to_h4(nsteps):
    # On a = 0 the walk sums f = e^{-s} over [0, T].  By Euler-Maclaurin the
    # trapezoid's error is c h^2/12 - c h^4/720 + O(h^6), c = f'(T) - f'(0)
    # = 1 - e^{-T}, so (J - I)/3 = c h^2/12 - c h^4/144 + O(h^6) misses the
    # error by -c h^4/180.
    T = 2.0
    h, c = T / nsteps, 1.0 - math.exp(-T)
    _, integ, coarse, _ = exp_functional_walk(_ZeroNormals(), 3, h, nsteps)
    err = integ - c
    estimate = (coarse - integ) / 3.0
    assert np.allclose(err, c * h ** 2 / 12, rtol=h ** 2)
    assert np.allclose(estimate - err, -c * h ** 4 / 180, rtol=h ** 2)


@pytest.mark.parametrize("nsteps, snaps", [(7, (1, 2, 5, 7)), (8, (3, 4, 8)), (9, (4,))])
def test_coarse_sum_on_every_second_node(nsteps, snaps):
    # J is the trapezoid of width 2h on the nodes counted from 0 and afresh
    # from each snapshot, a stretch of an odd number of cells ending with
    # one fine cell: on a path recorded from the same draws
    n, h = 50, 0.3
    alpha, integ, coarse, at = exp_functional_walk(new_stream(4, 1).gen, n, h, nsteps, snaps)
    z = np.array([b.copy() for b in step_normals(new_stream(4, 1).gen, n, nsteps)])
    a = np.vstack([np.zeros(n), np.cumsum(z * math.sqrt(h), axis=0)])
    f = np.exp(2.0 * a - h * np.arange(nsteps + 1)[:, None])

    def stretch(lo, hi):
        nodes = f[lo:hi + 1:2]
        out = h * (nodes[1:] + nodes[:-1]).sum(axis=0)
        return out + 0.5 * h * (f[hi - 1] + f[hi]) if (hi - lo) % 2 else out

    bounds = sorted({0, *snaps, nsteps})
    coarse_at = dict(zip(bounds[1:], np.cumsum([stretch(lo, hi) for lo, hi
                                                in zip(bounds, bounds[1:])], axis=0)))
    assert np.allclose(alpha, a[-1], rtol=1e-13)
    assert np.allclose(coarse, coarse_at[nsteps], rtol=1e-12)
    for k, (a_k, i_k, j_k) in zip(snaps, at):
        assert np.allclose(a_k, a[k], rtol=1e-13)
        assert np.allclose(i_k, 0.5 * h * (f[1:k + 1] + f[:k]).sum(axis=0), rtol=1e-12)
        assert np.allclose(j_k, coarse_at[k], rtol=1e-12)


def _left_riemann_walk(gen, n, h, nsteps, snaps=()):
    """The walk with a left Riemann sum in place of both trapezoids (even nsteps)."""
    alpha, integ, coarse, prev = np.zeros(n), np.zeros(n), np.zeros(n), np.ones(n)
    for k, z in enumerate(step_normals(gen, n, nsteps), 1):
        alpha += z * math.sqrt(h)
        integ += h * prev
        if k % 2:
            coarse += 2.0 * h * prev
        prev = np.exp(2.0 * alpha - k * h)
    return alpha, integ, coarse, []


def _bias_verdict(seed, step):
    spec = get_experiment("dufresne_ratio")
    params = {**spec.defaults, "lams": (5.0,), "n": 10_000, "step": step}
    (bias,) = [r for r in spec.fn(params, new_stream(seed, 0)).reports
               if r.label == "step bias h vs 2h"]
    return bias


# At the registered step 1e-2 the left Riemann sum's own bias in mean u at
# lam = 5 is 7.7e-4 to 8.1e-4, no more than the budget of 8.1e-4 at n = 1e4,
# so the verdict passes it there; at step 0.05 its bias is five times that,
# and the verdict must reject it.
def test_bias_verdict_rejects_a_left_riemann_walk(monkeypatch):
    for seed in range(5):
        assert _bias_verdict(seed, 0.05).passed
        assert _bias_verdict(seed, get_experiment("dufresne_ratio").defaults["step"]).passed
    monkeypatch.setattr(stochastic, "exp_functional_walk", _left_riemann_walk)
    for seed in range(5):
        assert not _bias_verdict(seed, 0.05).passed


def test_bias_verdict_covers_the_decorrelation():
    # at step 0.15 and n = 4e4 the decorrelation's coupled gap over 3 is
    # about eight times its 1/20 budget, more than any ln V mean's or
    # variance's: the verdict fails on it, and reads that gap; at the
    # registered step it passes
    spec = get_experiment("mbg_corollary")
    params = {**spec.defaults, "step": 0.15, "n": 40_000}
    reports = {r.label: r for r in spec.fn(params, new_stream(0, 0)).reports}
    _, log_v, log_v_coarse = ck.mbg_transform_check(new_stream(0, 0), (0.5, 1.0, 2.0),
                                                    40_000, 0.15, params["tail"])
    gap = _increment_corr(log_v_coarse) - _increment_corr(log_v)
    bias = reports["step bias h vs 2h"]
    assert bias.statistic == abs(gap) / (3.0 * reports["increment decorrelation"].critical)
    assert not bias.passed and bias.statistic > 5 * bias.critical
    reports = spec.fn(dict(spec.defaults), new_stream(0, 0)).reports
    assert [r.passed for r in reports if r.label == "step bias h vs 2h"] == [True]
