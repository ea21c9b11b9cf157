"""Phase propagation, matrix counting routes, renewal and quadrature.

The cell loop that assembled the twisted FD operator is kept here as the
oracle of its array assembly.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse

from vrjplab.beta_field import construct_beta_circle
from vrjplab.continuum_kernel import KernelPath
from vrjplab.experiments import _RENEWAL_MIN_GAPS, deterministic_flat_gbm, get_experiment
from vrjplab.stats import mean_ci, z_two_sided
from vrjplab import spectrum
from vrjplab.spectrum import (_LANES, _mean_t1_sums, count_states_matrix, count_states_phase,
                              discrete_spectrum_matrix, dos_sweep,
                              fd_operator_twisted, fd_spectrum_twisted, mean_t1_quadrature,
                              phase_propagate, renewal_statistics)
from vrjplab.stochastic import SampledPath, new_stream

from reference_paths import sample_gbm_path


def _unit_gbm(span, step):
    return SampledPath(0.0, step, np.ones(int(round(span / step)) + 1))


def count_states_fd_dirichlet(gbm: SampledPath, e_level: float) -> int:
    """Dirichlet eigenvalue count below E by LDL inertia, O(dim).

    Interlaces the twisted count within 1; usable at grid sizes far
    beyond the dense budget.
    """
    m = gbm.values
    h = gbm.step
    w = 1.0 / (0.5 * h * (1.0 / m[:-1] ** 2 + 1.0 / m[1:] ** 2))   # cell stiffness, phi variables
    # interior nodes 1..N-1 of the Dirichlet problem in phi
    diag = w[:-1] + w[1:] - e_level * h * m[1:-1] ** 2
    off = -w[1:-1]
    count = 0
    d = diag[0]
    if d < 0:
        count += 1
    for i in range(1, diag.size):
        denom = d if d != 0.0 else 1e-300
        d = diag[i] - off[i - 1] ** 2 / denom
        if d < 0:
            count += 1
    return count


def fd_operator_twisted_loop(gbm: SampledPath) -> scipy.sparse.csr_matrix:
    """Oracle: the twisted FD operator assembled one cell at a time."""
    m = gbm.values
    h = gbm.step
    r = 0.5 * h * (1.0 / m[:-1] ** 2 + 1.0 / m[1:] ** 2)
    n = m.size - 1
    alpha = 1.0 / m
    rows, cols, vals = [], [], []
    for c in range(n):
        p, q = c, (c + 1) % n
        ap = alpha[c]
        aq = alpha[c + 1]
        w = 1.0 / r[c]
        rows += [p, q, p, q]
        cols += [p, q, q, p]
        vals += [ap * ap * w, aq * aq * w, -ap * aq * w, -ap * aq * w]
    a = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return a / h


def f_star_negative(z: float, e_level: float) -> float:
    """Bounded solution of the generator equation L f = 1 on the negative axis.

    f(z) = -int_z^0 h(u) du.  The outer integrand h pairs an exploding
    exponential with a vanishing one; the inner integral is evaluated in
    a rescaled variable that combines the two exponents into a single
    nonpositive one, so the removable singularity at 0 evaluates cleanly
    to 1/E.
    """
    if z > 0:
        raise ValueError("negative-branch argument must be <= 0")
    val, _ = scipy.integrate.quad(_f_star_outer_neg, z, 0.0,
                                  args=(e_level,), limit=200)
    return -val


def _f_star_outer_neg(u: float, e_level: float) -> float:
    a = abs(u)
    e = e_level
    rate = a * a / e + 1.0   # total decay scale of the inner integrand

    def inner(v: float) -> float:
        w = v / rate
        s = 2.0 * a * w / e
        return math.exp(-(a * a / e) * w - w / (1.0 + s)) / math.sqrt(1.0 + s)

    val, _ = scipy.integrate.quad(inner, 0.0, np.inf, limit=200)
    return val / (e * rate)


def _f_star_outer_pos(u: float, e_level: float) -> float:
    e = e_level
    rate = u * u / e + 1.0

    def inner(v: float) -> float:
        w = v / rate
        s = 2.0 * u * w / e
        return math.exp(-(u * u / e) * w / (1.0 + s) - w) / (1.0 + s) ** 1.5

    val, _ = scipy.integrate.quad(inner, 0.0, np.inf, limit=200)
    return val / (e * rate)


def mean_t1_from_f_star(e_level: float) -> float:
    """Cross-check route: f*(+inf) - f*(-inf) by two 1-D outer quadratures."""
    neg, _ = scipy.integrate.quad(_f_star_outer_neg, -np.inf, 0.0,
                                  args=(e_level,), limit=300)
    pos, _ = scipy.integrate.quad(_f_star_outer_pos, 0.0, np.inf,
                                  args=(e_level,), limit=300)
    return neg + pos


def test_phase_constant_coefficient_crossings():
    tr = phase_propagate(math.pi ** 2, _unit_gbm(10.0, 1e-3))
    assert tr.count == 10
    assert len(tr.crossings) == 10
    assert np.all(np.diff(tr.crossings) > 0)
    # crossings at integer times: rate sqrt(E)/pi = 1
    assert np.max(np.abs(tr.crossings - np.arange(1, 11))) < 1e-6


def test_phase_trace_invariants():
    gbm = sample_gbm_path(-3.0, 3.0, 1e-3, new_stream(1, 0))
    tr = phase_propagate(2.0, gbm)
    assert tr.theta_final >= 0
    assert tr.count == int(tr.theta_final / math.pi)
    assert np.all(np.diff(tr.crossings) > 0)


def test_phase_monotone_in_energy():
    gbm = sample_gbm_path(-3.0, 3.0, 1e-3, new_stream(2, 0))
    t1 = phase_propagate(1.0, gbm).theta_final
    t4 = phase_propagate(4.0, gbm).theta_final
    assert t4 > t1


def test_phase_monotone_in_span():
    # theta(lam) grows with lam on a nested path
    gbm = sample_gbm_path(-4.0, 4.0, 1e-3, new_stream(3, 0))
    sub = SampledPath(gbm.t0, gbm.step, gbm.values[:4001])
    t_short = phase_propagate(1.0, sub).theta_final
    t_long = phase_propagate(1.0, gbm).theta_final
    assert t_long > t_short


def test_phase_rejects_bad_energy():
    with pytest.raises(ValueError):
        phase_propagate(0.0, _unit_gbm(1.0, 1e-2))


def test_phase_rejects_path_without_cell():
    one_node = SampledPath(0.0, 1e-3, np.ones(1))
    with pytest.raises(ValueError, match="no cell"):
        phase_propagate(1.0, one_node)
    with pytest.raises(ValueError, match="no cell"):
        count_states_phase(1.0, one_node)


def test_count_states_phase_flat_path():
    gbm = deterministic_flat_gbm(math.pi, 1e-3)
    # exact counting function of the drift-only operator at lam = pi
    for e_level, n_true in ((0.2, 0), (1.25, 3), (5.0, 5)):
        c = count_states_phase(e_level, gbm)
        assert abs(c - n_true) <= 2, (e_level, c)
    assert count_states_phase(0.2, gbm) in (0, 1)


def test_count_nondecreasing_in_energy():
    gbm = sample_gbm_path(-5.0, 5.0, 1e-3, new_stream(6, 0))
    counts = [count_states_phase(e, gbm) for e in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_matrix_count_limits():
    f = construct_beta_circle(1.0, 8, new_stream(7, 0))
    dim = f.graph.n_vertices
    assert count_states_matrix(1e12, f, 8) == dim
    eig = discrete_spectrum_matrix(f, 8)
    assert np.all(eig > 0)


def test_matrix_count_budget_guard(monkeypatch):
    import vrjplab.spectrum as sp
    monkeypatch.setattr(sp, "_DENSE_EIG_BUDGET", 10)
    f = construct_beta_circle(1.0, 8, new_stream(7, 1))   # 17 vertices > 10
    with pytest.raises(ValueError, match="budget"):
        count_states_matrix(1.0, f, 8)


def test_fd_spectrum_flat_path_oracle():
    gbm = deterministic_flat_gbm(math.pi, 1e-3)
    eig = fd_spectrum_twisted(gbm, k=7)
    exact = np.array([0.25, 1.25, 1.25, 4.25, 4.25, 9.25, 9.25])
    assert np.max(np.abs(eig - exact)) < 1e-3


def test_fd_operator_matches_cell_loop():
    # the array assembly gives the loop's CSR arrays to the last bit: on the
    # flat path, on 20 sampled paths and on one long one
    paths = [deterministic_flat_gbm(math.pi, 1e-3)]
    paths += [KernelPath.sample(1.0, 2e-3, new_stream(20, i)).gbm for i in range(20)]
    paths.append(KernelPath.sample(40.0, 2e-3, new_stream(21, 0)).gbm)
    for gbm in paths:
        got, want = fd_operator_twisted(gbm), fd_operator_twisted_loop(gbm)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part
            assert getattr(got, part).dtype == getattr(want, part).dtype, part


def test_fd_dirichlet_count_flat_path():
    gbm = deterministic_flat_gbm(math.pi, 1e-3)
    # Dirichlet counts interlace the twisted ones within 1
    for e_level, n_true in ((1.25, 3), (5.0, 5)):
        c = count_states_fd_dirichlet(gbm, e_level)
        assert abs(c - n_true) <= 2


def test_phase_fd_bracket_on_shared_path():
    for seed in (0, 1):
        geo = sample_gbm_path(-10.0, 10.0, 1e-3, new_stream(8, seed))
        for e_level in (1.0, 4.0):
            cp = count_states_phase(e_level, geo)
            cf = count_states_fd_dirichlet(geo, e_level)
            assert abs(cp - cf) <= 3, (seed, e_level, cp, cf)


def test_phase_count_brackets_the_twisted_fd_count_pathwise():
    # per path, not in the mean: on 25 paths at lam = 2 (800 cells of 5e-3)
    # and 4 energies, the phase count minus the number of eigenvalues below E
    # of the twisted FD operator (dense eigvalsh) is 0 or -1 in all 100 cases
    lam, step, seen = 2.0, 5e-3, set()
    for seed in range(25):
        geo = sample_gbm_path(-lam, lam, step, new_stream(seed, 3))
        vals = np.linalg.eigvalsh(fd_operator_twisted(geo).toarray())
        for e_level in (1.0, 4.0, 9.0, 16.0):
            gap = count_states_phase(e_level, geo) - int(np.searchsorted(vals, e_level))
            assert gap in (0, -1), (seed, e_level, gap)
            seen.add(gap)
    assert seen == {0, -1}


def test_matrix_vs_phase_mean_counts():
    # the two routes approximate the same count; each carries a documented
    # O(1) offset (floor bracket for the phase, finite-n for the matrix),
    # so the means must agree within mutual CI plus the +-2 bracket
    lam, e_level, reps = 10.0, 4.0, 120
    mc = np.array([count_states_matrix(
        e_level, construct_beta_circle(lam, 32, new_stream(9, r)), 32)
        for r in range(reps)])
    pc = np.array([count_states_phase(
        e_level, sample_gbm_path(-lam, lam, 1e-3, new_stream(10, r)))
        for r in range(reps)])
    ci = 2.58 * (mc.std(ddof=1) + pc.std(ddof=1)) / math.sqrt(reps)
    assert abs(mc.mean() - pc.mean()) <= 2.0 + 2 * ci


def _mean_se(gaps):
    return float(np.mean(gaps)), math.sqrt(float(np.var(gaps, ddof=1)) / gaps.size)


def test_renewal_statistics():
    [lanes] = renewal_statistics([4.0], [500.0], new_stream(11, 0), step=1e-3)
    assert len(lanes) == _LANES and all(g.size >= 1 for g in lanes)
    gaps = np.concatenate(lanes)
    assert gaps.size >= 100 and np.all(gaps > 0)
    mean, se = _mean_se(gaps)
    assert abs(mean - math.pi / 2.0) < 3 * se + 0.02
    # lag-1 pairs within a lane only
    a = np.concatenate([g[:-1] for g in lanes]) - mean
    b = np.concatenate([g[1:] for g in lanes]) - mean
    assert a.size == gaps.size - _LANES
    lag1 = float(np.sum(a * b) / math.sqrt(np.sum(a * a) * np.sum(b * b)))
    assert abs(lag1) < 2 * z_two_sided(0.01) / math.sqrt(a.size)


def test_renewal_rate_matches_dos_density():
    # (mean interarrival)^-1 is the crossings-per-unit-length rate that the
    # density sweep estimates; the two must agree within joint CI
    e_level = 4.0
    [lanes] = renewal_statistics([e_level], [1000.0], new_stream(30, 0), step=1e-3)
    mean, se = _mean_se(np.concatenate(lanes))
    rate = 1.0 / mean
    rate_hw = se / mean ** 2 * 2.58
    counts = dos_sweep([e_level], lam=50.0, replicas=16, s=new_stream(30, 1), step=1e-3)
    density, half_width = mean_ci(counts[0] / 100.0, 0.01)
    assert abs(rate - density) < 3 * (rate_hw + half_width) + 2 / 100.0


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phase_counting_memory_does_not_grow_with_path_length():
    # the paths stream through: quadrupling the renewal horizon (each
    # lane's cut time 3.9 -> 15.6, about 4.5k -> 16k cells for each of the
    # 256 lanes) or lam (20k -> 80k cells for each of 8 replicas) adds no
    # path memory; whole paths would add at least 23 MB and 3.8 MB.  The
    # slack covers the crossing records.
    renewal = [_peak_bytes(lambda: renewal_statistics([4.0], [horizon], new_stream(31, 0), 1e-3))
               for horizon in (1000.0, 4000.0)]
    dos = [_peak_bytes(lambda: dos_sweep([1.0, 4.0], lam, 8, new_stream(31, 1), 1e-3))
           for lam in (10.0, 40.0)]
    assert renewal[1] - renewal[0] < 1e6
    assert dos[1] - dos[0] < 1e6


def test_renewal_insufficient_data():
    # every lane keeps at least its first gap, so the experiment's floor must
    # exceed the lane count; a cut time of 20/256 keeps only the first gaps
    spec = get_experiment("renewal_mean")
    params = {**spec.defaults, "e_list": (1.0,), "horizon_crossings": 20.0 / math.pi}
    match = f"insufficient data: {_LANES} interarrivals < {_RENEWAL_MIN_GAPS}"
    with pytest.raises(RuntimeError, match=match):
        spec.fn(params, new_stream(11, 1))


def test_mean_t1_quadrature_values():
    for e_level in (1.0, 4.0):
        val = mean_t1_quadrature(e_level)
        assert abs(val - math.pi / math.sqrt(e_level)) < 1e-4


def test_mean_t1_scaling():
    vals = [mean_t1_quadrature(e) * math.sqrt(e) for e in (1.0, 2.0, 4.0, 9.0)]
    assert max(vals) - min(vals) < 1e-4


# energies far from the registered ones, where an adaptive 2-D quadrature
# raised (1e-6, 1e4) or missed the mass near t ~ 1/E (1e6)
@pytest.mark.parametrize("e_level", (1e-6, 1e-3, 1.0, 1e3, 1e4, 1e6))
def test_mean_t1_quadrature_far_from_the_registered_energies(e_level):
    val, val_coarse = _mean_t1_sums(e_level)
    assert val == mean_t1_quadrature(e_level)
    target = math.pi / math.sqrt(e_level)
    err = abs(val - target)
    assert err <= 1e-9 * target
    # the nested rule's gap is an honest estimate of the error
    assert err <= abs(val - val_coarse) + 1e-15 * val


def test_mean_t1_quadrature_refuses_a_rule_too_coarse(monkeypatch):
    # at level 2 (h = 1/4) the nested level-1 rule is 6e-3 of the value away at E = 1
    monkeypatch.setattr(spectrum, "_DE_LEVEL", 2)
    with pytest.raises(RuntimeError, match="quadrature did not converge: rel err 6.25e-03"):
        mean_t1_quadrature(1.0)
    with pytest.raises(ValueError, match="E must be positive"):
        mean_t1_quadrature(0.0)


def test_mean_t1_quadrature_memory():
    mean_t1_quadrature(4.0)
    tracemalloc.start()
    try:
        mean_t1_quadrature(4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_mean_t1_f_star_cross_check():
    for e_level in (1.0, 4.0):
        val = mean_t1_from_f_star(e_level)
        assert abs(val - math.pi / math.sqrt(e_level)) < 1e-6


def test_f_star_negative_branch():
    # bounded, decreasing from 0, approaching a finite limit like 1/|z|
    vals = [f_star_negative(z, 1.0) for z in (0.0, -1.0, -5.0, -100.0, -1000.0)]
    assert vals[0] == 0.0
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - vals[-2]) < 0.01
    assert abs(vals[-1]) < 3.0
    with pytest.raises(ValueError):
        f_star_negative(1.0, 1.0)


def test_dos_sweep_small():
    counts = dos_sweep([1.0, 4.0], lam=40.0, replicas=12, s=new_stream(12, 0), step=1e-3)
    assert counts.shape == (2, 12)
    density = np.mean(counts / 80.0, axis=1)
    for d, e_level in zip(density, (1.0, 4.0)):
        target = math.sqrt(e_level) / math.pi
        assert abs(d - target) / target < 0.15
    assert density[1] / density[0] == pytest.approx(2.0, abs=0.3)
