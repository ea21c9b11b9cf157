"""Construction and measure of the random potential."""

import math

import numpy as np
import pytest
import scipy.integrate as si

from vrjplab.beta_field import (BetaField, GraphShape, WeightedGraph1D,
                                circle_betas_from_a, circle_field_from_a,
                                construct_beta_circle, dense_h, halfline_betas_from_a,
                                laplace_transform_closed_form, nu_density,
                                sample_circle_field)
from vrjplab.stats import ks_one_sample
from vrjplab.stochastic import inverse_gaussian_cdf, new_stream, sample_inverse_gaussian


def _circle_beta_matrix(size, weight, n_rep, stream):
    dim = 2 * size + 1
    a = sample_inverse_gaussian(weight, stream, size=n_rep * dim).reshape(n_rep, dim)
    return circle_betas_from_a(a, weight)


def test_construct_circle_shapes_and_invariant():
    f = construct_beta_circle(1.0, 8, new_stream(1, 0))
    assert f.graph.shape is GraphShape.CIRCLE
    assert f.graph.n_vertices == 17
    assert f.weight == 8.0
    expect = 0.5 * 8.0 * (np.roll(f.a_seq, -1) + 1.0 / f.a_seq)
    assert np.allclose(f.beta, expect, rtol=0, atol=0)
    with pytest.raises(ValueError):
        construct_beta_circle(0.05, 8, new_stream(1, 1))


def test_circle_marginal_law():
    # 1/(2 beta_i) is IG(1/(2w), 1) on the circle of uniform weight w
    w = 8.0
    betas = _circle_beta_matrix(8, w, 10_000, new_stream(2, 0))
    x = 1.0 / (2.0 * betas[:, 3])
    rep = ks_one_sample(x, lambda v: inverse_gaussian_cdf(v, 1.0 / (2 * w), 1.0), 0.01)
    assert rep.passed, rep


def test_one_dependence():
    betas = _circle_beta_matrix(5, 2.0, 100_000, new_stream(3, 0))
    c = np.corrcoef(betas, rowvar=False)
    se = 1.0 / math.sqrt(betas.shape[0])
    assert abs(c[0, 1]) > 10 * se          # neighbours strongly dependent
    for d in (2, 3, 4):
        assert abs(c[0, d]) < 4 * se


def test_degenerate_all_ones_rejected():
    with pytest.raises(ValueError, match="singular|degenerate"):
        circle_field_from_a(np.ones(7), 3.0)


def test_negative_multiplier_rejected():
    # each field below also has an indefinite H_beta
    with pytest.raises(ValueError):
        circle_field_from_a(np.array([-1.0, 2.0, 0.5]), 1.0)
    a = np.array([1.0, -1.0])
    graph = WeightedGraph1D(GraphShape.HALFLINE_SEGMENT, 2, 2.0)
    with pytest.raises(ValueError):
        BetaField(graph, halfline_betas_from_a(a, 2.0), a)


def test_positive_definite_check_always_passes():
    for i in range(30):
        f = sample_circle_field(6, 4.0, new_stream(4, i))
        np.linalg.cholesky(dense_h(f.graph, f.beta))


def test_halfline_count_one_law():
    # 2 beta_1 / m = 1/A with A ~ IG(1, m)
    m = 4.0
    a = sample_inverse_gaussian(m, new_stream(6, 0), size=10_000)
    x = 2.0 * halfline_betas_from_a(a.reshape(-1, 1), m)[:, 0] / m
    rep = ks_one_sample(1.0 / x, lambda v: inverse_gaussian_cdf(v, 1.0, m), 0.01)
    assert rep.passed


def test_density_single_vertex_formula():
    g = WeightedGraph1D(GraphShape.HALFLINE_SEGMENT, 1, 1.0)
    b = 0.7
    expect = math.sqrt(2 / math.pi) * math.exp(-b) / math.sqrt(2 * b)
    assert nu_density([b], g) == pytest.approx(expect, rel=1e-12)


def test_density_zero_outside_support():
    g = WeightedGraph1D(GraphShape.CIRCLE, 1, 1.0)
    # beta too small: H has a nonpositive eigenvalue
    assert nu_density([0.1, 0.1, 0.1], g) == 0.0


def test_density_normalizes_by_quadrature():
    g = WeightedGraph1D(GraphShape.HALFLINE_SEGMENT, 1, 1.0)
    for eta in (None, [1.5]):
        val, _ = si.quad(lambda b: nu_density([b], g, eta), 0, 60, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_density_guards():
    g = WeightedGraph1D(GraphShape.HALFLINE_SEGMENT, 13, 1.0)
    with pytest.raises(ValueError, match="restricted"):
        nu_density(np.ones(13), g)
    g3 = WeightedGraph1D(GraphShape.CIRCLE, 1, 1.0)
    with pytest.raises(ValueError):
        nu_density([1.0, 2.0], g3)


def test_laplace_trivial_and_scalar():
    g = WeightedGraph1D(GraphShape.HALFLINE_SEGMENT, 1, 1.0)
    assert laplace_transform_closed_form([0.0], g) == pytest.approx(1.0)
    t = 1.0
    assert laplace_transform_closed_form([t], g) == pytest.approx((1 + t) ** -0.5)
    with pytest.raises(ValueError):
        laplace_transform_closed_form([-0.5], g)


def test_laplace_circle_monte_carlo():
    # t = (1, 0, 0) on the 3-vertex circle of weight 1
    w, size = 1.0, 1
    g = WeightedGraph1D(GraphShape.CIRCLE, size, w)
    betas = _circle_beta_matrix(size, w, 100_000, new_stream(7, 0))
    mc = np.exp(-betas[:, 0])
    cf = laplace_transform_closed_form([1.0, 0.0, 0.0], g)
    se = mc.std(ddof=1) / math.sqrt(mc.size)
    assert abs(mc.mean() - cf) < 4 * se


def test_laplace_battery():
    # circles sizes 1..3 and half-line segments 1..5 over weights {1,2,8},
    # random nonnegative t vectors, MC vs closed form within 4 SE
    k = 0
    for w in (1.0, 2.0, 8.0):
        for size in (1, 2, 3):
            g = WeightedGraph1D(GraphShape.CIRCLE, size, w)
            dim = g.n_vertices
            tv = new_stream(8, k).gen.uniform(0.0, 1.5, dim)
            betas = _circle_beta_matrix(size, w, 100_000, new_stream(9, k))
            k += 1
            mc = np.exp(-(betas @ tv))
            se = mc.std(ddof=1) / math.sqrt(mc.size)
            cf = laplace_transform_closed_form(tv, g)
            assert abs(mc.mean() - cf) < 4 * se, (w, size)
        for count in (1, 2, 3, 4, 5):
            g = WeightedGraph1D(GraphShape.HALFLINE_SEGMENT, count, w)
            eta = np.zeros(count)
            eta[-1] = w            # boundary edge leaving the segment
            tv = new_stream(8, k).gen.uniform(0.0, 1.5, count)
            a = sample_inverse_gaussian(w, new_stream(9, k),
                                        size=100_000 * count).reshape(100_000, count)
            k += 1
            mc = np.exp(-(halfline_betas_from_a(a, w) @ tv))
            se = mc.std(ddof=1) / math.sqrt(mc.size)
            cf = laplace_transform_closed_form(tv, g, eta)
            assert abs(mc.mean() - cf) < 4 * se, (w, count)


def test_halfline_single_vertex_laplace_mc():
    # E[exp(-beta_1)] for m=2 against the closed form with boundary eta
    m = 2.0
    a = sample_inverse_gaussian(m, new_stream(10, 0), size=100_000)
    b1 = 0.5 * m / a
    g = WeightedGraph1D(GraphShape.HALFLINE_SEGMENT, 1, m)
    cf = laplace_transform_closed_form([1.0], g, [m])
    se = np.exp(-b1).std(ddof=1) / math.sqrt(b1.size)
    assert abs(np.exp(-b1).mean() - cf) < 4 * se


def test_field_validation():
    g = WeightedGraph1D(GraphShape.CIRCLE, 2, 1.0)
    with pytest.raises(ValueError):
        BetaField(g, np.ones(4), np.ones(5))
    with pytest.raises(ValueError):
        WeightedGraph1D(GraphShape.CIRCLE, 0, 1.0)
    with pytest.raises(ValueError):
        WeightedGraph1D(GraphShape.CIRCLE, 2, -1.0)
