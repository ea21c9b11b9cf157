"""Limiting kernel, quadratic form, operator checks, line kernel, identities."""

import math

import numpy as np
import pytest

from vrjplab.continuum_kernel import (DegeneratePathError, KernelPath,
                                      apply_kernel, flux_closed_form, flux_fd,
                                      kernel_diagonal_node, kernel_eval,
                                      line_kernel_eval,
                                      mbg_transform_check, operator_residual,
                                      sample_dufresne_ratio,
                                      sample_kernel_diagonal,
                                      sample_line_diagonal,
                                      sample_quadratic_form,
                                      twisted_neumann_mismatch)
from vrjplab.experiments import deterministic_flat_gbm, get_experiment
from vrjplab.stats import ks_one_sample, ks_two_sample
from vrjplab.stochastic import (SampledPath, inverse_gamma_half_cdf,
                                new_stream)

from reference_paths import path_times


def kernel_matrix(k: KernelPath, stride: int = 1) -> np.ndarray:
    """Kernel evaluated on the (strided) path grid as a dense symmetric matrix."""
    m = k.gbm.values[::stride]
    ic = k.inv_sq_cum[::stride]
    ml, mr = k.m_left, k.m_right
    total = float(k.inv_sq_cum[-1])
    ic_lo = np.minimum.outer(ic, ic)
    ic_hi = np.maximum.outer(ic, ic)
    bracket = mr * mr * (total - ic_hi) + mr * ml * (ic_hi - ic_lo) + ml * ml * ic_lo
    return np.outer(m, m) * bracket / (mr - ml) ** 2


def quadratic_form_double_route(k: KernelPath, f, stride: int = 1) -> float:
    """Oracle: direct 2-D trapezoid of f(t) G(t,t') f(t') for f sampled on the grid."""
    fv = np.asarray(f, dtype=float)[::stride]
    g = kernel_matrix(k, stride)
    h = k.gbm.step * stride
    w = np.full(fv.size, h)
    w[0] = w[-1] = h / 2.0
    wf = w * fv
    return float(wf @ g @ wf)


def test_kernel_deterministic_value():
    k = KernelPath.from_path(deterministic_flat_gbm(2.0, 1e-3))
    expect = (math.e ** 2 - math.e ** -2) / (math.e - math.e ** -1) ** 2
    assert kernel_eval(k, 0.0, 0.0) == pytest.approx(expect, rel=1e-6)


def test_kernel_symmetry_and_positivity():
    k = KernelPath.sample(1.0, 1e-3, new_stream(1, 0))
    for (t, t2) in ((0.3, -0.4), (-0.9, 0.9), (0.0, 0.5)):
        a = kernel_eval(k, t, t2)
        assert a == kernel_eval(k, t2, t)
        assert a > 0


def test_kernel_range_and_degenerate_errors():
    k = KernelPath.sample(1.0, 1e-3, new_stream(2, 0))
    with pytest.raises(ValueError):
        kernel_eval(k, 1.5, 0.0)
    flat = SampledPath(-1.0, 1e-2, np.ones(201))
    with pytest.raises(DegeneratePathError):
        KernelPath.from_path(flat)


def test_diagonal_law_and_t_invariance():
    s0, _ = sample_kernel_diagonal(1.0, 0.0, 1e-3, 4000, new_stream(3, 0))
    s_half, _ = sample_kernel_diagonal(1.0, 0.5, 1e-3, 4000, new_stream(3, 50))
    assert ks_one_sample(s0, inverse_gamma_half_cdf, 0.01).passed
    assert ks_two_sample(s0, s_half, 0.01).passed


def test_dufresne_diagonal_names_the_node_it_read():
    # t = 0.0004 on a grid of step 0.01 reads the node t = 0
    assert kernel_diagonal_node(1.0, 0.0004, 0.01) == (100, 0.0)
    assert kernel_diagonal_node(1.0, -0.63, 0.01)[0] == 37
    spec = get_experiment("dufresne_diagonal")
    result = spec.fn({**spec.defaults, "t": 0.0004, "step": 0.01, "n": 500}, new_stream(3, 0))
    assert result.reports[0].label == "kernel-diagonal lam=1.0 t=0.0"


def test_quadratic_form_zero_and_positive():
    # replica 0 of the sampler reads the path KernelPath.sample draws from
    # s.substream(1), the stream of its first block
    s = new_stream(4, 0)
    assert sample_quadratic_form(1.0, np.zeros_like, 1e-3, 1, s)[0][0] == 0.0
    for f in (lambda t: np.sin(np.pi * t), lambda t: t ** 2,
              lambda t: np.cos(3 * t) + 0.1):
        assert sample_quadratic_form(1.0, f, 1e-3, 1, s)[0][0] > 0


def test_quadratic_form_double_route_oracle():
    s = new_stream(5, 3)
    k = KernelPath.sample(1.0, 1e-3, s.substream(1))
    f = lambda t: np.cos(np.pi * t) + 2.0
    q1 = sample_quadratic_form(1.0, f, 1e-3, 1, s)[0][0]
    q2 = quadratic_form_double_route(k, f(path_times(k.gbm)))
    assert abs(q1 - q2) / abs(q2) < 1e-6


def test_quadratic_form_law_f_one():
    lam = 1.0
    qf, _ = sample_quadratic_form(lam, lambda t: np.ones_like(t), 1e-3, 4000,
                                  new_stream(6, 0))
    cdf = lambda x: inverse_gamma_half_cdf(x / (2 * lam) ** 2)
    assert ks_one_sample(qf, cdf, 0.01).passed


def test_apply_kernel_matches_matrix_route():
    k = KernelPath.sample(1.0, 1e-3, new_stream(7, 0))
    f = np.cos(np.pi * path_times(k.gbm)) + 2.0
    g = apply_kernel(k, f)
    gm = kernel_matrix(k)
    w = np.full(f.size, k.gbm.step)
    w[0] = w[-1] = 0.5 * k.gbm.step
    g2 = gm @ (w * f)
    assert np.max(np.abs(g - g2)) < 1e-10 * np.max(np.abs(g2))


def test_apply_kernel_boundary_and_neumann():
    k = KernelPath.sample(1.0, 1e-3, new_stream(8, 0))
    f = np.sin(2 * np.pi * path_times(k.gbm)) + 1.5
    g = apply_kernel(k, f)
    assert abs(g[0] - g[-1]) < 1e-8 * max(abs(g[0]), abs(g[-1]))
    assert twisted_neumann_mismatch(k, g) < 1e-3


def test_apply_kernel_linearity():
    k = KernelPath.sample(0.5, 1e-3, new_stream(9, 0))
    t = path_times(k.gbm)
    f1, f2 = np.cos(t), np.exp(-t * t)
    lhs = apply_kernel(k, 2.0 * f1 + 3.0 * f2)
    rhs = 2.0 * apply_kernel(k, f1) + 3.0 * apply_kernel(k, f2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_operator_residual_small():
    k = KernelPath.sample(1.0, 1e-3, new_stream(10, 0))
    f = np.cos(np.pi * path_times(k.gbm)) + 2.0
    assert operator_residual(k, f) < 1e-2
    assert operator_residual(k, np.zeros_like(f) + 1e-300) == pytest.approx(0.0, abs=1e-6)


def test_flux_fd_matches_closed_form():
    k = KernelPath.sample(1.0, 1e-3, new_stream(11, 0))
    f = np.cos(np.pi * path_times(k.gbm)) + 2.0
    g = apply_kernel(k, f)
    a = flux_fd(k, g)
    b = flux_closed_form(k, f)
    assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-3


def test_line_kernel_diag_law():
    # the trapezoid walks' registered step; its bias budget is derived in
    # experiments._exp_dufresne_ratio
    s = sample_line_diagonal(40.0, 1e-2, 4000, new_stream(12, 0))
    assert ks_one_sample(s, inverse_gamma_half_cdf, 0.01).passed


def test_line_kernel_truncation_bias_pathwise():
    k = KernelPath.sample(40.0, 1e-3, new_stream(13, 0))
    worst = 0.0
    for t in np.linspace(-2, 2, 7):
        for t2 in np.linspace(-2, 2, 7):
            worst = max(worst, abs(kernel_eval(k, t, t2) - line_kernel_eval(k, t, t2)))
    assert worst < 1e-3


def test_line_kernel_ratio_is_geometric_path():
    lk = KernelPath.sample(20.0, 1e-3, new_stream(14, 0))
    g00 = line_kernel_eval(lk, 0.0, 0.0)
    for t in (0.5, 1.0, 3.0):
        ratio = line_kernel_eval(lk, 0.0, t) / g00
        m_t, _ = lk._read(t)
        assert ratio == pytest.approx(m_t, rel=1e-12)


def test_line_kernel_range_guard():
    lk = KernelPath.sample(10.0, 1e-2, new_stream(15, 0))
    with pytest.raises(ValueError):
        line_kernel_eval(lk, 6.0, 0.0)


def test_dufresne_ratio_small_lambda():
    samples, _ = sample_dufresne_ratio(0.1, 1e-3, 4000, new_stream(16, 0))
    rep = ks_one_sample(samples, inverse_gamma_half_cdf, 0.01)
    assert rep.passed, rep
    with pytest.raises(ValueError):
        sample_dufresne_ratio(0.0, 1e-3, 10, new_stream(16, 1))


def test_mbg_transform():
    # ln V_t ~ N(-t/2, t) with independent increments
    _, log_v, _ = mbg_transform_check(new_stream(17, 0), (0.5, 1.0, 2.0), n_rep=4000,
                                      step=2e-3, tail=30.0)
    assert log_v.shape == (3, 4000)
    mean_log = log_v.mean(axis=1)
    se = log_v.std(axis=1, ddof=1) / math.sqrt(4000)
    var_log = log_v.var(axis=1, ddof=1)
    for i, t in enumerate((0.5, 1.0, 2.0)):
        assert abs(mean_log[i] + t / 2.0) <= 3.0 * se[i]
        assert abs(var_log[i] - t) <= 0.10 * t
    corr = np.corrcoef(log_v[1] - log_v[0], log_v[2] - log_v[1])[0, 1]
    assert abs(corr) <= 2.5758 / math.sqrt(4000)
    assert abs(mean_log[1] + 0.5) < 3 * se[1]
    assert abs(var_log[2] - 2.0) < 0.2


def test_mbg_snapshots_must_fall_on_distinct_positive_steps():
    for t_grid in ((0.0004, 1.0, 2.0), (0.5, 0.5004, 2.0), (0.0, 1.0, 2.0), (1.0, 2.0)):
        with pytest.raises(ValueError):
            mbg_transform_check(new_stream(21, 0), t_grid, n_rep=10, step=1e-3, tail=1.0)
    # the last snapshot lies past the horizon 2 - 1, or at the horizon 2 + 0,
    # where its tail integral is empty
    for tail in (-1.0, 0.0):
        with pytest.raises(ValueError):
            mbg_transform_check(new_stream(21, 0), (0.5, 1.0, 2.0), n_rep=10, step=1e-3, tail=tail)


def test_interpolated_discrete_matches_kernel_law():
    # interpolated discrete entries at (0.3, -0.4), n = 256, vs kernel samples
    from vrjplab.green_circle import green_entries_from_a
    from vrjplab.stochastic import sample_inverse_gaussian

    n, nrep = 256, 3000
    size = n
    dim = 2 * size + 1
    a = sample_inverse_gaussian(float(n), new_stream(18, 0), size=nrep * dim).reshape(nrep, dim)
    t, t2 = 0.3, -0.4
    x, y = t * n + size, t2 * n + size
    ix, iy = int(math.floor(x)), int(math.floor(y))
    fx, fy = x - ix, y - iy
    corner = {}
    for dx in (0, 1):
        for dy in (0, 1):
            corner[(dx, dy)] = green_entries_from_a(a, float(n),
                                                    (ix + dx) % dim, (iy + dy) % dim)
    disc = ((1 - fx) * (1 - fy) * corner[(0, 0)] + fx * (1 - fy) * corner[(1, 0)]
            + (1 - fx) * fy * corner[(0, 1)] + fx * fy * corner[(1, 1)])

    cont = np.empty(nrep)
    s = new_stream(19, 0)
    for r in range(nrep):
        k = KernelPath.sample(1.0, 2e-3, s.substream(r + 1))
        cont[r] = kernel_eval(k, t, t2)
    rep = ks_two_sample(disc, cont, 0.01)
    assert rep.passed, rep
