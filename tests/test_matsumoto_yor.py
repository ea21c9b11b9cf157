"""Discrete chains, their kernel and intertwining, and the continuum limit."""

import math

import numpy as np
import pytest

import vrjplab.matsumoto_yor as my
from vrjplab.beta_field import dense_h, GraphShape, WeightedGraph1D
from vrjplab.experiments import get_experiment
from vrjplab.matsumoto_yor import (build_my_chains, euler_maruyama_z, kernel_step,
                                   sample_z_pathwise)
from vrjplab.stats import ks_two_sample, mean_ci
from vrjplab.stochastic import exp_functional_walk, new_stream, sample_inverse_gaussian

from reference_paths import chain_arrays_from_a


def test_chain_all_ones_degenerate():
    psi, g11, z = chain_arrays_from_a(np.ones(10), 1.0)
    assert np.allclose(psi, 1.0)
    assert np.allclose(g11, np.arange(1, 11))
    assert np.allclose(z, np.arange(1, 11))


def test_chain_matches_dense_inverse():
    # psi_n = m Ghat(1, n) and g11_n = Ghat(1, 1) for the half-line operator
    m, length = 3, 8
    a = sample_inverse_gaussian(float(m), new_stream(1, 0), size=length)
    psi, g11, z = chain_arrays_from_a(a, float(m))
    from vrjplab.beta_field import halfline_betas_from_a
    beta = halfline_betas_from_a(a, float(m))
    g = WeightedGraph1D(GraphShape.HALFLINE_SEGMENT, length, float(m))
    for n in (1, 4, 8):
        h_n = dense_h(g, beta)[:n, :n]
        ghat = np.linalg.inv(h_n)
        assert psi[n - 1] == pytest.approx(m * ghat[0, n - 1], rel=1e-10)
        assert g11[n - 1] == pytest.approx(ghat[0, 0], rel=1e-10)
        assert z[n - 1] == pytest.approx(ghat[0, 0] / (m * ghat[0, n - 1]), rel=1e-10)


def _full_chains(m, length, n_rep, s):
    # whole (n_rep, length) chains from the draws build_my_chains makes;
    # build_my_chains keeps only their last columns
    a = sample_inverse_gaussian(float(m), s, size=n_rep * length).reshape(n_rep, length)
    return chain_arrays_from_a(a, float(m))


def test_chain_first_z_and_guards():
    # z_1 = g11_1 / psi_1 = A_1 / (m A_1) = 1/m on every replica
    _, _, z = _full_chains(16, 4, 100, new_stream(10, 0))
    assert np.allclose(z[:, 0] * 16, 1.0, rtol=1e-12, atol=0.0)
    for m, length in ((0, 4), (16, 0)):
        with pytest.raises(ValueError):
            build_my_chains(m, length, 10, new_stream(10, 1))


def test_psi_is_mean_one_martingale():
    psi, _, _ = _full_chains(5, 20, 10_000, new_stream(2, 0))
    for n in (1, 5, 20):
        est, half = mean_ci(psi[:, n - 1], 0.01)
        assert abs(est - 1.0) < half, n


def test_martingale_bracket_constant():
    # E[psi_n^2 - g11_n] = 1 for every n.  The summand's fourth moment
    # grows geometrically in n, so the normal CI is only trusted where
    # n/m stays moderate; m = 32 keeps it sound out to n = 32.
    psi, g11, _ = _full_chains(32, 32, 200_000, new_stream(3, 1))
    for n in (4, 16, 32):
        d = psi[:, n - 1] ** 2 - g11[:, n - 1]
        est, half = mean_ci(d, 0.01)
        assert abs(est - 1.0) < max(half, 1e-3), n


def test_kernel_step_conditional_mean():
    # E[z' | z] = z + (1 + z)/m
    m, z0 = 5, 2.0
    s = new_stream(4, 0)
    draws = kernel_step(np.full(200_000, z0), m, s)
    est, half = mean_ci(draws, 0.01)
    assert abs(est - (z0 + (1 + z0) / m)) < half


def test_kernel_step_no_blowup_at_large_z():
    # one-step mean stays linear in z: E[z' | z] = z (1 + 1/m) + 1/m
    m, z0 = 5, 1e6
    draws = kernel_step(np.full(50_000, z0), m, new_stream(4, 1))
    expect = z0 + (1 + z0) / m
    assert abs(draws.mean() - expect) / expect < 0.02


def test_kernel_step_one_element_and_guards():
    v = kernel_step(np.array([1.5]), 4, new_stream(5, 0))
    assert v.shape == (1,) and v[0] > 0
    with pytest.raises(ValueError):
        kernel_step(np.array([1.5, -1.0]), 4, new_stream(5, 1))


def test_kernel_vs_construction_distribution():
    # the construction chain and the kernel-iterated chain agree in law
    m, n_rep = 5, 10_000
    for length in (5, 10, 20):
        _, z = build_my_chains(m, length, n_rep, new_stream(6, length))
        z_ker = np.full(n_rep, 1.0 / m)
        ks = new_stream(7, length)
        for _ in range(length - 1):
            z_ker = kernel_step(z_ker, m, ks)
        rep = ks_two_sample(z, z_ker, 0.01)
        assert rep.passed, (length, rep)


def test_conditional_psi_small_z_concentrates():
    # psi | z ~ IG(1, 1/z): variance z, so tight around 1 for small z
    z = np.full(5000, 1e-6)
    x = sample_inverse_gaussian(1.0 / z, new_stream(8, 0), z.size)
    assert np.max(np.abs(x - 1.0)) < 0.02


def test_conditional_variance_matches_z():
    # Var(psi | z) = z, checked in a thin z-window of chain samples
    pn, zn = build_my_chains(5, 12, 200_000, new_stream(9, 0))
    lo, hi = np.quantile(zn, [0.45, 0.55])
    sel = pn[(zn >= lo) & (zn < hi)]
    z_mid = float(np.median(zn[(zn >= lo) & (zn < hi)]))
    var = float(np.var(sel, ddof=1))
    assert abs(var - z_mid) / z_mid < 0.15


@pytest.mark.parametrize("shape, passes", [(1.0, True), (0.8, False)])
def test_variance_verdict_on_exact_and_widened_conditional_laws(monkeypatch, shape, passes):
    # the chains' z with psi redrawn from IG(1, shape/z): the exact law at
    # shape 1, and at 0.8 a conditional variance 1.25 z, which the weighted
    # mean of (psi-1)^2/z reads about 2.2 to 3.6 critical values off
    def chains(m, length, n_rep, s):
        _, z = build_my_chains(m, length, n_rep, s)
        return sample_inverse_gaussian(shape / z, s.substream(99), z.size), z

    monkeypatch.setattr(my, "build_my_chains", chains)
    spec = get_experiment("intertwining")
    for seed in range(2):
        reports = spec.fn(dict(spec.defaults), new_stream(seed, 0)).reports
        (var_rep,) = [r for r in reports if r.label.startswith("conditional variance")]
        assert var_rep.passed == passes


def test_scaled_chain_marginal_matches_gbm():
    m, n_rep = 64, 10_000
    psi, _ = build_my_chains(m, m, n_rep, new_stream(11, 0))
    direct = np.exp(new_stream(11, 1).gen.standard_normal(n_rep) - 0.5)
    rep = ks_two_sample(psi, direct, 0.01)
    assert rep.passed, rep


def test_scaling_stability_m64_vs_m256():
    n_rep = 8_000
    psi64, z64 = build_my_chains(64, 64, n_rep, new_stream(12, 0))
    psi256, z256 = build_my_chains(256, 256, n_rep, new_stream(12, 1))
    assert ks_two_sample(psi64, psi256, 0.01).passed
    assert ks_two_sample(z64, z256, 0.01).passed


def test_continuum_walk_invariants():
    # T_t = int_0^t e^2 is the walk's trapezoid sum I; e_1 = e^{a_1 - 1/2}
    # is a mean-1 martingale
    alpha, integ, _, at = exp_functional_walk(new_stream(13, 0).gen, 4000, 1e-2, 100,
                                           (50,))
    assert np.all(integ > at[0][1]) and np.all(at[0][1] > 0)
    est, half = mean_ci(np.exp(alpha - 0.5), 0.01)
    assert abs(est - 1.0) < half


def test_continuum_mean_t_one():
    # E[T_1] = e - 1 by Fubini on the second moment of the geometric path
    _, t1, _, _ = exp_functional_walk(new_stream(14, 0).gen, 4000, 1e-2, 100)
    est, half = mean_ci(t1, 0.01)
    assert abs(est - (math.e - 1.0)) < max(half, 5e-3)


def test_z_drift_only_ode():
    # the scheme's ensemble mean follows its drift-only recursion exactly:
    # E[Z_{k+1}] = (1 + h) E[Z_k] + h, so E[Z_n] = (1 + h)^n - 1
    h, n = 1e-3, 50_000
    z = euler_maruyama_z(1.0, h, n, new_stream(15, 0))
    est, half = mean_ci(z, 0.01)
    assert abs(est - ((1.0 + h) ** round(1.0 / h) - 1.0)) < half


def test_z_mean_slope_at_zero():
    # d/dt E[Z_t] = 1 + E[Z_t]; at t = 0.01 the mean is e^t - 1
    t = 0.01
    z = sample_z_pathwise(t, 1e-3, 50_000, new_stream(16, 0))
    est, half = mean_ci(z, 0.01)
    assert abs(est - (math.exp(t) - 1.0)) < max(half, 1e-5)


def test_z_diffusion_two_sample():
    s = new_stream(17, 0)
    za = sample_z_pathwise(1.0, 1e-3, 4000, s)
    zb = euler_maruyama_z(1.0, 1e-3, 4000, s.substream(1))
    rep = ks_two_sample(za, zb, 0.01)
    assert rep.passed, rep
