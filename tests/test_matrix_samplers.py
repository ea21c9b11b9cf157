"""The row-blocked matrix samplers against the whole-matrix originals.

_gbm_matrix, _cumtrapz, sample_kernel_diagonal and sample_quadratic_form
below are the original implementations, kept verbatim as the oracle: they
build each stream block as one (replicas x grid) matrix.  The samplers in
continuum_kernel take the same blocks a few rows at a time from
stochastic.log_gbm_rows, with the same operations in the same order, so the
outputs must be equal bit for bit.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import vrjplab.continuum_kernel as ck
import vrjplab.stochastic as stoch
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
    got = ck.sample_kernel_diagonal(lam, t, step, n_rep, new_stream(seed, 3))
    want = sample_kernel_diagonal(lam, t, step, n_rep, new_stream(seed, 3))
    assert np.array_equal(got, want)


@given(seed=st.integers(0, 2 ** 32 - 1), lam=lams, half=cells_per_side, n_rep=n_reps,
       f=f_cases, u=st.floats(0.0, 1.0))
def test_quadratic_form_bit_identical_to_oracle(seed, lam, half, n_rep, f, u):
    step = lam / half * (1.0 + 0.3 * u)
    got = ck.sample_quadratic_form(lam, f, step, n_rep, new_stream(seed, 4))
    want = sample_quadratic_form(lam, f, step, n_rep, new_stream(seed, 4))
    assert np.array_equal(got, want)


def test_gate_sizes_span_row_and_stream_blocks_bit_identically():
    # 2001 nodes: 16-row blocks; 2050 replicas cross a stream block of
    # either sampler and end in a partial row block.
    lam, step, n_rep = 1.0, 1e-3, 2050
    assert n_rep % _rows_per_block(1000) != 0
    for t in (-lam, 0.0, lam):
        got = ck.sample_kernel_diagonal(lam, t, step, n_rep, new_stream(11, 1))
        assert np.array_equal(got, sample_kernel_diagonal(lam, t, step, n_rep,
                                                          new_stream(11, 1)))
    for f in (_f_one, _f_cos):
        got = ck.sample_quadratic_form(lam, f, step, n_rep, new_stream(11, 2))
        assert np.array_equal(got, sample_quadratic_form(lam, f, step, n_rep,
                                                         new_stream(11, 2)))


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
