"""The row-blocked matrix samplers against the whole-matrix originals.

_gbm_matrix, _cumtrapz, sample_kernel_diagonal and sample_quadratic_form
below are the original implementations, kept verbatim as the oracle: they
build each stream block as one (replicas x grid) matrix.  The samplers in
continuum_kernel take the same blocks a few rows at a time from
stochastic.log_gbm_rows, with the same operations in the same order, so
their samples must be equal bit for bit.  The samplers also return each
value with its trapezoids on every second node (the coarse sums of the
step-bias verdicts); those are checked against hand-built coarse
trapezoids, and the verdicts against a left Riemann sum.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vrjplab.continuum_kernel as ck
import vrjplab.stochastic as stoch
from vrjplab.experiments import get_experiment
from vrjplab.stochastic import RngStream, new_stream


def _cumtrapz(y: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    cells = 0.5 * h * (np.take(y, range(1, y.shape[axis]), axis=axis)
                       + np.take(y, range(0, y.shape[axis] - 1), axis=axis))
    out_shape = list(y.shape)
    out = np.zeros(out_shape)
    idx = [slice(None)] * y.ndim
    idx[axis] = slice(1, None)
    out[tuple(idx)] = np.cumsum(cells, axis=axis)
    return out


def _gbm_matrix(lam: float, step: float, n_rep: int, s: RngStream):
    """(n_rep, K+1) matrix of two-sided GBM values on [-lam, lam], plus grid."""
    half = max(1, int(math.ceil(lam / step - 1e-9)))
    h = lam / half
    n_cells = 2 * half
    incr = s.gen.standard_normal((n_rep, n_cells)) * math.sqrt(h)
    b = np.concatenate([np.zeros((n_rep, 1)), np.cumsum(incr, axis=1)], axis=1)
    b -= b[:, half][:, None]
    times = -lam + h * np.arange(n_cells + 1)
    return np.exp(b - times / 2.0), times, h


def sample_kernel_diagonal(lam: float, t: float, step: float, n_rep: int,
                           s: RngStream, batch: int = 2000) -> np.ndarray:
    """Replicated G(t, t) values; distributed as 1/(2*gamma) for every t."""
    out = np.empty(n_rep)
    done = 0
    while done < n_rep:
        b = min(batch, n_rep - done)
        m, times, h = _gbm_matrix(lam, step, b, s.substream(done + 1))
        ic = _cumtrapz(1.0 / m ** 2, h, axis=1)
        j = int(round((t + lam) / h))
        ml, mr = m[:, 0], m[:, -1]
        total = ic[:, -1]
        bracket = mr ** 2 * (total - ic[:, j]) + ml ** 2 * ic[:, j]
        out[done:done + b] = m[:, j] ** 2 * bracket / (mr - ml) ** 2
        done += b
    return out


def sample_quadratic_form(lam: float, f, step: float, n_rep: int,
                          s: RngStream, batch: int = 1000) -> np.ndarray:
    """Replicated <f, Gf> values for a deterministic f (callable on times)."""
    out = np.empty(n_rep)
    done = 0
    while done < n_rep:
        b = min(batch, n_rep - done)
        m, times, h = _gbm_matrix(lam, step, b, s.substream(done + 1))
        fv = np.asarray(f(times), dtype=float)
        ml, mr = m[:, 0:1], m[:, -1:]
        c = _cumtrapz(fv[None, :] * m, h, axis=1)
        total = c[:, -1:]
        integrand = (ml * (total - c) + mr * c) ** 2 / m ** 2
        qf = np.trapezoid(integrand, dx=h, axis=1) / (mr[:, 0] - ml[:, 0]) ** 2
        out[done:done + b] = qf
        done += b
    return out


def _f_one(t):
    return np.ones_like(t)


def _f_cos(t):
    return np.cos(np.pi * t) + 2.0


# Grids of 3 to 301 nodes: row blocks of 108 to 10922 rows, so n_rep both
# under and over one row block, and over one stream block (2000 and 1000).
lams = st.sampled_from([0.01, 0.3, 1.0, 2.0])
cells_per_side = st.integers(1, 150)
n_reps = st.one_of(st.integers(1, 300), st.integers(1990, 2300))
f_cases = st.sampled_from([_f_one, _f_cos])


def _rows_per_block(half):
    return max(1, stoch._ROW_BLOCK_ELEMS // (2 * half + 1))


@given(seed=st.integers(0, 2 ** 32 - 1), lam=lams, half=cells_per_side, n_rep=n_reps,
       t_pos=st.sampled_from([0.0, 1.0, "inner"]), u=st.floats(0.0, 1.0))
def test_kernel_diagonal_bit_identical_to_oracle(seed, lam, half, n_rep, t_pos, u):
    step = lam / half * (1.0 + 0.3 * u)
    t = -lam + 2.0 * lam * (u if t_pos == "inner" else t_pos)
    got, _ = ck.sample_kernel_diagonal(lam, t, step, n_rep, new_stream(seed, 3))
    want = sample_kernel_diagonal(lam, t, step, n_rep, new_stream(seed, 3))
    assert np.array_equal(got, want)


@given(seed=st.integers(0, 2 ** 32 - 1), lam=lams, half=cells_per_side, n_rep=n_reps,
       f=f_cases, u=st.floats(0.0, 1.0))
def test_quadratic_form_bit_identical_to_oracle(seed, lam, half, n_rep, f, u):
    step = lam / half * (1.0 + 0.3 * u)
    got, _ = ck.sample_quadratic_form(lam, f, step, n_rep, new_stream(seed, 4))
    want = sample_quadratic_form(lam, f, step, n_rep, new_stream(seed, 4))
    assert np.array_equal(got, want)


def test_gate_sizes_span_row_and_stream_blocks_bit_identically():
    # 2001 nodes: 16-row blocks (201 nodes: 163-row blocks); 2050 replicas
    # cross a stream block of either sampler and end in a partial row block.
    # t = 0.01 is an odd node at step 1e-2.
    lam, n_rep = 1.0, 2050
    for step in (1e-3, 1e-2):
        assert n_rep % _rows_per_block(round(lam / step)) != 0
        for t in (-lam, 0.0, 0.01, lam):
            got, _ = ck.sample_kernel_diagonal(lam, t, step, n_rep, new_stream(11, 1))
            assert np.array_equal(got, sample_kernel_diagonal(lam, t, step, n_rep,
                                                              new_stream(11, 1)))
        for f in (_f_one, _f_cos):
            got, _ = ck.sample_quadratic_form(lam, f, step, n_rep, new_stream(11, 2))
            assert np.array_equal(got, sample_quadratic_form(lam, f, step, n_rep,
                                                             new_stream(11, 2)))


def _coarse_stretch(y, h, lo, hi):
    """Trapezoid of width 2h on y's columns lo, lo + 2, ..., one fine cell if hi - lo is odd."""
    nodes = y[:, lo:hi + 1:2]
    out = h * (nodes[:, 1:] + nodes[:, :-1]).sum(axis=1)
    return out + 0.5 * h * (y[:, hi - 1] + y[:, hi]) if (hi - lo) % 2 else out


@pytest.mark.parametrize("t", [0.01, 0.0, -1.0, 0.99])
def test_coarse_diagonal_sums_two_stretches_from_the_node(t):
    # at step 1e-2, t = 0.01 is node 101 of 200 and t = 0.99 node 199: both
    # stretches [0, j] and [j, 200] have an odd number of cells and end
    # with one fine cell; t = 0 (node 100) and t = -1 (node 0) have none
    lam, step, n_rep = 1.0, 1e-2, 300
    j, _ = ck.kernel_diagonal_node(lam, t, step)
    _, coarse = ck.sample_kernel_diagonal(lam, t, step, n_rep, new_stream(6, 2))
    m, _, h = _gbm_matrix(lam, step, n_rep, new_stream(6, 2).substream(1))
    y = 1.0 / m ** 2
    ml, mr, mj = m[:, 0], m[:, -1], m[:, j]
    bracket = mr ** 2 * _coarse_stretch(y, h, j, 200) + ml ** 2 * _coarse_stretch(y, h, 0, j)
    assert np.allclose(coarse, mj ** 2 * bracket / (mr - ml) ** 2, rtol=1e-12, atol=0)


@pytest.mark.parametrize("f", [_f_one, _f_cos])
def test_coarse_quadratic_form_reads_every_second_node(f):
    lam, step, n_rep = 1.0, 1e-2, 300
    _, coarse = ck.sample_quadratic_form(lam, f, step, n_rep, new_stream(6, 3))
    m, times, h = _gbm_matrix(lam, step, n_rep, new_stream(6, 3).substream(1))
    # the oracle's formula on the even columns, at width 2h
    m2 = m[:, ::2]
    ml, mr = m2[:, 0:1], m2[:, -1:]
    c = _cumtrapz(f(times[::2]) * m2, 2.0 * h, axis=1)
    integrand = (ml * (c[:, -1:] - c) + mr * c) ** 2 / m2 ** 2
    want = np.trapezoid(integrand, dx=2.0 * h, axis=1) / (mr[:, 0] - ml[:, 0]) ** 2
    assert np.allclose(coarse, want, rtol=1e-12, atol=0)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_memory_bounded_by_row_block():
    lam, step, n_rep = 1.0, 1e-3, 10_000
    diag = _peak_bytes(lambda: ck.sample_kernel_diagonal(lam, 0.0, step, n_rep,
                                                         new_stream(1, 0)))
    quad = _peak_bytes(lambda: ck.sample_quadratic_form(lam, _f_cos, step, n_rep,
                                                        new_stream(1, 0)))
    assert diag < 8e6
    assert quad < 8e6


def _left_riemann_cumtrapz(y, h):
    """The cumulative left Riemann sum, a first-order mutant of cumtrapz."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    out[..., 1:] = h * np.cumsum(y[..., :-1], axis=-1)
    return out


def _bias_verdict(name, seed, step):
    spec = get_experiment(name)
    (bias,) = [r for r in spec.fn({**spec.defaults, "step": step}, new_stream(seed, 0)).reports
               if r.label == "step bias h vs 2h"]
    return bias


# At step 0.05, with the left Riemann cumulative in both the fine and the
# coarse sums, the verdict reads about 1.6 (diagonal) and 1.35 (quadratic
# form) times its budget; with the trapezoid it reads at most 0.12 of it.
@pytest.mark.parametrize("name", ["dufresne_diagonal", "functional_identity"])
def test_bias_verdict_rejects_a_left_riemann_cumtrapz(monkeypatch, name):
    for seed in range(3):
        assert _bias_verdict(name, seed, 0.05).passed
        assert _bias_verdict(name, seed, get_experiment(name).defaults["step"]).passed
    monkeypatch.setattr(ck, "cumtrapz", _left_riemann_cumtrapz)
    for seed in range(3):
        assert not _bias_verdict(name, seed, 0.05).passed
