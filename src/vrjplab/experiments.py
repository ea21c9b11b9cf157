"""Experiment registry: every verification suite as a named, seeded run.

Each experiment is a pure function of (params, stream) returning CSV
rows plus pass/fail reports, so a run with identical config reproduces
byte-identical numeric output.  The registry entries carry a one-line
description and the mathematical identity they exercise; the CLI lists
and runs them, each parameter typed as its registered default (cli.run).

The layers return samples; the registry judges.  Every statistic, target
and critical value is formed here, from the samples a layer returns, and
stats.TestReport derives pass/fail from the statistic and critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import beta_field, continuum_kernel, green_circle, matsumoto_yor, spectrum
from .stats import TestReport, ks_one_sample, ks_two_sample, mean_ci, z_two_sided
from .stochastic import (RngStream, SampledPath, grid_cells,
                         inverse_gamma_half_cdf, inverse_gaussian_cdf,
                         sample_inverse_gaussian, stream_blocks)


@dataclass
class ExperimentResult:
    rows: list[dict]
    reports: list[TestReport]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    fn: Callable[[dict, RngStream], ExperimentResult]
    description: str
    identity: str
    defaults: dict = field(default_factory=dict)


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(name: str, description: str, identity: str, defaults: dict):
    def deco(fn):
        _REGISTRY[name] = ExperimentSpec(name, fn, description, identity, defaults)
        return fn
    return deco


def get_experiment(name: str) -> ExperimentSpec:
    if name not in _REGISTRY:
        raise KeyError(f"unknown experiment '{name}'; see the list command")
    return _REGISTRY[name]


def list_experiments() -> list[ExperimentSpec]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def deterministic_flat_gbm(lam: float, step: float) -> SampledPath:
    """The drift-only geometric path e^{-t/2} on [-lam, lam] (flat noise)."""
    half, h = grid_cells(lam, step)
    times = -lam + h * np.arange(2 * half + 1)
    return SampledPath(-lam, h, np.exp(-times / 2.0))


# A trapezoid walk's step is fine enough when the bias it puts in a checked
# statistic is at most this fraction of that statistic's critical value.
_BIAS_BUDGET = 1.0 / 20.0


def _step_bias(gaps, criticals, n: int) -> TestReport:
    """The step-bias verdict of a trapezoid walk.

    gaps[i] is a statistic's coupled gap, its value on every second node of
    the walk's paths minus its value on every node, and criticals[i] the
    critical value of the verdict it feeds.  gap/3 estimates the bias at
    the walk's step (exp_functional_walk), and the budget is
    _BIAS_BUDGET * criticals[i]; so the statistic is the largest
    |gap_i| / (3 criticals[i]), against _BIAS_BUDGET.
    """
    stat = float(np.max(np.abs(gaps) / (3.0 * np.asarray(criticals))))
    return TestReport(stat, n, 0.0, _BIAS_BUDGET, "step bias h vs 2h")


def _ks_with_step_bias(cases, alpha: float, n: int) -> ExperimentResult:
    """A KS verdict of u = cdf(samples) per (row, label, samples, coarse, cdf) case, then
    the step-bias verdict of the gaps mean(cdf(coarse) - cdf(samples)) (_step_bias)."""
    rows, reps, gaps = [], [], []
    for row, label, samples, coarse, cdf in cases:
        reps.append(ks_one_sample(samples, cdf, alpha, label=label))
        rows.append({**row, **reps[-1].as_row()})
        gaps.append(np.mean(cdf(coarse) - cdf(samples)))
    return ExperimentResult(rows, reps + [_step_bias(gaps, [r.critical for r in reps], n)])


def _increment_corr(log_v: np.ndarray) -> float:
    """Correlation of the ln V increments over [t_0, t_1] and [t_1, t_2] (rows of log_v)."""
    return float(np.corrcoef(log_v[1] - log_v[0], log_v[2] - log_v[1])[0, 1])


# ---------------------------------------------------------------------------
# Registered experiments (one per acceptance criterion)
# ---------------------------------------------------------------------------

@register("dufresne_diagonal",
          "KS of kernel diagonal samples G(0,0) against the 1/(2 gamma) law",
          "diagonal identity in law: G(t,t) ~ 1/(2 gamma), gamma ~ Gamma(1/2,1)",
          {"lam": 1.0, "step": 1e-2, "n": 10_000, "alpha": 0.01, "t": 0.0})
def _exp_dufresne_diagonal(p: dict, s: RngStream) -> ExperimentResult:
    """A KS verdict of u = F(G), F the 1/(2 gamma) CDF, and a step-bias verdict.

    The step.  G reads I = int 1/M^2 as a trapezoid over exact Brownian
    node values, weak order 2 as in exp_functional_walk, so the bias of
    mean u at cell width h is C h^2.  The budget is 1/20 of the KS
    critical value c(alpha)/sqrt(n), 8.1e-4 at n = 1e4 and alpha = 0.01.
    At lam = 1, n = 1e4 and h = 5e-2, the coupled estimate of that bias
    (the gap of mean u between every second node and every node, over 3)
    was at most 4.3e-3 of the critical value at seeds 0 and 1, so C is at
    most 1.7 critical values per unit h^2, and h up to 0.17 fits the
    budget.  The registered step is 1e-2, the step of the other trapezoid
    criteria: C h^2 <= 1.7e-4 of the critical value, 1/300 of the budget,
    which stays inside it up to n ~ 1e9.  The step-bias verdict checks this
    on every run (_step_bias).
    """
    samples, coarse = continuum_kernel.sample_kernel_diagonal(p["lam"], p["t"], p["step"],
                                                              p["n"], s)
    # the verdict names the grid node the sampler read, not the requested t
    _, t_node = continuum_kernel.kernel_diagonal_node(p["lam"], p["t"], p["step"])
    label = f"kernel-diagonal lam={p['lam']} t={t_node}"
    return _ks_with_step_bias([({}, label, samples, coarse, inverse_gamma_half_cdf)],
                              p["alpha"], p["n"])


@register("dufresne_ratio",
          "KS of the truncated exponential-functional ratio against 1/(2 gamma)",
          "int_0^lam e^{2a-s} ds / (e^{a_lam - lam/2} - 1)^2 ~ 1/(2 gamma) for every lam",
          {"lams": (0.1, 5.0, 40.0), "step": 1e-2, "n": 10_000, "alpha": 0.01})
def _exp_dufresne_ratio(p: dict, s: RngStream) -> ExperimentResult:
    """A KS verdict of u = F(R) per lam, F the 1/(2 gamma) CDF, and a step-bias verdict.

    The step.  The walk's trapezoid is weak order 2 (exp_functional_walk),
    so the bias of mean u at cell width h is C h^2.  The budget is 1/20 of
    the KS critical value c(alpha)/sqrt(n), 8.1e-4 at n = 1e4 and
    alpha = 0.01.  Coupled runs (the same paths read at every m-th node)
    moved mean u by at most 2.1e-4 at h = 0.1 (lam = 40), so C <= 0.021,
    and by at most 7e-6 at h = 1e-2, within their noise.  C h^2 <= 8.1e-4
    allows h up to 0.2 at n = 1e4; the registered step is the measured
    1e-2, whose bias of about 2e-6 is 1/400 of the budget and stays inside
    it up to n ~ 1e9.  The step-bias verdict checks this on every run:
    the gap of mean u between every second node and every node over 3,
    against the budget (_step_bias).
    """
    cases = (({"lam": lam}, f"dufresne-ratio lam={lam}",
              *continuum_kernel.sample_dufresne_ratio(lam, p["step"], p["n"], s.substream(i)),
              inverse_gamma_half_cdf) for i, lam in enumerate(p["lams"]))
    return _ks_with_step_bias(cases, p["alpha"], p["n"])


@register("functional_identity",
          "KS of the kernel quadratic form against (int f)^2 / (2 gamma)",
          "<f, G f> ~ (int f)^2 / (2 gamma) for deterministic nonnegative f",
          {"lam": 1.0, "step": 1e-2, "n": 10_000, "alpha": 0.01})
def _exp_functional_identity(p: dict, s: RngStream) -> ExperimentResult:
    """A KS verdict of u = F(<f, G f>) per f and a step-bias verdict.

    The step, as in dufresne_diagonal: both trapezoids of the quadratic
    form run over exact Brownian node values, so the bias of mean u is
    C h^2, against a budget of 1/20 of the KS critical value.  At lam = 1,
    n = 1e4 and h = 5e-2 the coupled estimate of that bias was at most
    2.4e-3 of the critical value over both f at seeds 0 and 1, so C is at
    most 1.0 critical values per unit h^2 and h up to 0.22 fits.  The
    registered step 1e-2 keeps the bias at most 1e-4 of the critical
    value, 1/500 of the budget.  The step-bias verdict checks it on every
    run (_step_bias).
    """
    lam = p["lam"]
    forms = {
        "f=1": (lambda t: np.ones_like(t), 2.0 * lam),
        "f=cos(pi t/lam)+2": (lambda t: np.cos(np.pi * t / lam) + 2.0, 4.0 * lam),
    }
    cases = (({"f": label, "integral": integral}, f"quadratic-form {label}",
              *continuum_kernel.sample_quadratic_form(lam, f, p["step"], p["n"], s.substream(i)),
              lambda x, c=integral ** 2: inverse_gamma_half_cdf(x / c))
             for i, (label, (f, integral)) in enumerate(forms.items()))
    return _ks_with_step_bias(cases, p["alpha"], p["n"])


# Replicas per stream block of discrete_green_law's multiplier rows; a
# constant, as it fixes the seeded output (stochastic.stream_blocks).
_GREEN_STREAM_BLOCK = 5000


@register("discrete_green_law",
          "KS of discrete circle Green diagonal entries against 1/(2 gamma)",
          "G(i,i) ~ 1/(2 gamma) on any circle field",
          {"n_weight": 8, "lam": 1.0, "n": 10_000, "alpha": 0.01})
def _exp_discrete_green(p: dict, s: RngStream) -> ExperimentResult:
    n_w, lam = p["n_weight"], p["lam"]
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got lam={lam}")
    size = math.ceil(lam * n_w)
    dim = 2 * size + 1
    # one row of multipliers per replica, diagonal entry via the O(dim) path
    a = np.empty((p["n"], dim))
    for first, count, block_stream in stream_blocks(s, p["n"], _GREEN_STREAM_BLOCK):
        a[first:first + count] = sample_inverse_gaussian(n_w, block_stream,
                                                         size=count * dim).reshape(count, dim)
    g00 = green_circle.green_entries_from_a(a, n_w, size, size)
    rep = ks_one_sample(g00, inverse_gamma_half_cdf, p["alpha"],
                        label=f"discrete-green-diagonal n={n_w} lam={lam}")
    return ExperimentResult([rep.as_row()], [rep])


@register("explicit_inverse",
          "Closed-form circle inverse against an exact-where-needed long-double solve",
          "per-entry match of the directed-product inverse with H^-1 built from the A's",
          {"n_fields": 20, "max_dim": 401, "weight": 8.0, "tol": 1e-10})
def _exp_explicit_inverse(p: dict, s: RngStream) -> ExperimentResult:
    """The closed form's worst relative deviation from H^-1 over n_fields fields, against tol.

    The oracle is green_circle.oracle_deviation: H^-1 solved in long double
    from the A's themselves, with its one cancellation taken exactly, and
    exact Fractions for any column it cannot judge against tol.  A float64
    solve from the rounded beta was off by up to cond(H) * 1e-16 (1.4e-7
    at cond 2.8e10), more than the closed form it was meant to check.
    """
    green_circle.require_longdouble()
    rows, reps = [], []
    worst = 0.0
    sizes = np.linspace(3, (p["max_dim"] - 1) // 2, p["n_fields"]).astype(int)
    for i, size in enumerate(sizes):
        f = beta_field.sample_circle_field(int(size), p["weight"], s.substream(i + 1))
        ge = green_circle.green_from_field(f, green_circle.Provenance.EXPLICIT_FORMULA)
        dev, bound, exact_cols = green_circle.oracle_deviation(f, ge, p["tol"])
        worst = max(worst, dev)
        rows.append({"dim": 2 * int(size) + 1, "max_rel_dev": dev, "oracle_bound": bound,
                     "exact_columns": exact_cols})
    rep = TestReport(worst, p["n_fields"], 0.0, p["tol"], "explicit vs long-double inverse")
    # exact 3-vertex case u = 2
    inv = green_circle.invert_R_explicit(np.full(3, 2.0))
    exact_dev = max(abs(inv[0, 0] - 3.0 / 7.0), abs(inv[0, 1] - 2.0 / 7.0))
    rep2 = TestReport(exact_dev, 3, 0.0, 1e-14, "3-vertex u=2 exact")
    rows.append({"dim": 3, "max_rel_dev": exact_dev})
    return ExperimentResult(rows, [rep, rep2])


def _my_chains(m: int, length: int, n: int, s: RngStream):
    """build_my_chains, refused before any draw below length 2: z_1 = 1/m is deterministic."""
    if length < 2:
        raise ValueError(f"length={length}: a chain needs length >= 1, and a verdict on "
                         "z_length needs length >= 2, as z_1 = 1/m is deterministic")
    return matsumoto_yor.build_my_chains(m, length, n, s)


@register("matsumoto_yor_kernel",
          "Two-sample KS between construction-chain z and kernel-iterated z",
          "z is Markov: z' = (z/m) / IG(1/(m + 1/z), 1)",
          {"m": 5, "length": 20, "n": 10_000, "alpha": 0.01})
def _exp_my_kernel(p: dict, s: RngStream) -> ExperimentResult:
    m, length, n = p["m"], p["length"], p["n"]
    # two children of s: the chains' stream blocks are children of theirs
    _, z_con = _my_chains(m, length, n, s.substream(1))
    z_ker = np.full(n, 1.0 / m)          # z_1 = 1/m identically
    ker_stream = s.substream(2)
    for _ in range(length - 1):
        z_ker = matsumoto_yor.kernel_step(z_ker, m, ker_stream)
    rep = ks_two_sample(z_con, z_ker, p["alpha"],
                        label=f"kernel-vs-construction z_{length} m={m}")
    return ExperimentResult([rep.as_row()], [rep])


@register("intertwining",
          "Decile-binned conditional law of psi given z against IG(1, 1/z)",
          "psi | z ~ IG(1, 1/z); conditional variance equals z",
          {"m": 5, "length": 20, "n": 100_000, "alpha": 0.01, "min_pass": 9})
def _exp_intertwining(p: dict, s: RngStream) -> ExperimentResult:
    """A KS verdict of u = F(psi | z) per decile of z, and a conditional-variance verdict.

    The variance.  Under psi | z ~ IG(1, 1/z) the second and fourth central
    moments of psi are z and 15 z^3 + 3 z^2, so y = (psi - 1)^2 / z has
    E[y | z] = 1 and Var(y | z) = 2 + 15 z, for each sample on its own z.
    Given the z's the y's are independent, and the weighted mean
    ybar = sum w y / sum w with w = 1 / (2 + 15 z), the least-variance
    unbiased linear combination, has mean 1 and variance 1 / sum w.  By the
    CLT (every weight is at most 1/2 and sum w grows like n), ybar lies
    within z_{1-alpha/2} / sqrt(sum w) of 1 with probability 1 - alpha:
    that is the critical value, 2.5758 / sqrt(sum w) at alpha = 0.01.  The
    plain mean of y has the same null law but weights the rare large z,
    whose y vary most, as much as the rest; against psi | z ~ IG(1, 0.8/z),
    E[y | z] = 1.25, it rejected 14 of seeds 0-19 where the weighted mean
    rejects all 20.  The deciles partition the samples, so the sums are
    taken bin by bin, and each row's y_mean is its bin's weighted mean.
    """
    m, length, n = p["m"], p["length"], p["n"]
    psi_n, z_n = _my_chains(m, length, n, s)
    edges = np.quantile(z_n, np.linspace(0, 1, 11))
    rows, reps = [], []
    n_pass = 0
    sum_w = sum_wy = 0.0
    for b in range(10):
        mask = (z_n >= edges[b]) & (z_n <= edges[b + 1] if b == 9 else z_n < edges[b + 1])
        sel = psi_n[mask]
        z_sel = z_n[mask]
        # condition on each sample's own z: under the null the transformed
        # values are exactly uniform, so decile width does not bias the bin
        u = inverse_gaussian_cdf(sel, 1.0, 1.0 / z_sel)
        rep = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0), p["alpha"],
                            label=f"intertwining bin {b}")
        n_pass += rep.passed
        w = 1.0 / (2.0 + 15.0 * z_sel)
        bin_w, bin_wy = float(np.sum(w)), float(np.sum(w * (sel - 1.0) ** 2 / z_sel))
        sum_w, sum_wy = sum_w + bin_w, sum_wy + bin_wy
        rows.append({"bin": b, "z_median": float(np.median(z_sel)), "n_bin": int(sel.size),
                     "y_mean": bin_wy / bin_w, **rep.as_row()})
        reps.append(rep)
    bin_rep = TestReport(10 - n_pass, n, p["alpha"], 10 - p["min_pass"] + 0.5,
                         f"bins passed: {n_pass}/10")
    var_rep = TestReport(abs(sum_wy / sum_w - 1.0), n, p["alpha"],
                         z_two_sided(p["alpha"]) / math.sqrt(sum_w),
                         "conditional variance: weighted mean of (psi-1)^2/z")
    return ExperimentResult(rows, [bin_rep, var_rep])


@register("z_diffusion",
          "Two-sample KS: pathwise Z_t vs Euler-Maruyama of dZ = Z dW + (1+Z) dt",
          "Z is a diffusion with generator (z^2/2) d^2/dz^2 + (1+z) d/dz",
          # 1e-3, not the trapezoid walks' 1e-2: Euler-Maruyama is weak order 1, and at
          # 1e-2 its mean drifts by about -0.7% and its coupled KS distance to the 1e-3
          # run is 13% of the critical value, past a 1/20 budget
          {"tmax": 1.0, "n": 10_000, "step": 1e-3, "alpha": 0.01})
def _exp_z_diffusion(p: dict, s: RngStream) -> ExperimentResult:
    n = p["n"]
    # two children of s: each sampler's stream blocks are children of its own
    za = matsumoto_yor.sample_z_pathwise(p["tmax"], p["step"], n, s.substream(1))
    zb = matsumoto_yor.euler_maruyama_z(p["tmax"], p["step"], n, s.substream(2))
    rep = ks_two_sample(za, zb, p["alpha"], label=f"z-diffusion t={p['tmax']}")
    return ExperimentResult([rep.as_row()], [rep])


@register("mbg_corollary",
          "GBM law of the normalized forward exponential-functional ratio",
          "e^{-a_t+t/2} int_t^inf e^{2a-s} ds / int_0^inf e^{2a-s} ds is a GBM from 1",
          {"n": 10_000, "step": 1e-2, "tail": 40.0})
def _exp_mbg(p: dict, s: RngStream) -> ExperimentResult:
    """ln V mean and variance at three snapshot nodes, decorrelation and step bias.

    Each verdict is judged at the node time tau the walk read
    (mbg_transform_check); tau = t when t is a whole number of cells.

    The step.  The trapezoid integrals are weak order 2
    (exp_functional_walk), so the bias of each ln V mean and variance is
    C h^2.  The budget is 1/20 of each verdict's critical value: 0.15 se
    for the mean (1.1e-3 to 2.1e-3 at n = 1e4) and 0.005 tau for the
    variance.  Coupled runs over span 42 moved the mean by at most 4e-5
    and the variance by at most 2e-4 at h = 1e-2, a 25th and a 12th of the
    smallest budgets, so the registered step is 1e-2.  The step-bias
    verdict checks this on every run: each statistic's gap between every
    second node and every node over 3, against its budget (_step_bias).
    The decorrelation's gap counts too: 1.4e-4 at h = 1e-2 (seed 25),
    against 3/20 of its critical value, 3.9e-3 at n = 1e4.
    """
    n = p["n"]
    if n < 2:
        raise ValueError(f"n={n} replicas form no verdict on data: the variances need n >= 2")
    taus, log_v, log_v_coarse = continuum_kernel.mbg_transform_check(
        s, (0.5, 1.0, 2.0), n, p["step"], p["tail"])
    mean_log = log_v.mean(axis=1)
    se = log_v.std(axis=1, ddof=1) / math.sqrt(n)
    var_log = log_v.var(axis=1, ddof=1)
    corr = _increment_corr(log_v)
    mean_gaps = np.mean(log_v_coarse - log_v, axis=1)
    var_gaps = log_v_coarse.var(axis=1, ddof=1) - var_log
    rows, reps, gaps = [], [], []
    for i, tau in enumerate(taus.tolist()):
        mean_rep = TestReport(abs(mean_log[i] + tau / 2.0), n, 0.0, 3.0 * se[i],
                              f"ln V mean t={tau}")
        var_rep = TestReport(abs(var_log[i] - tau), n, 0.0, 0.10 * tau,
                             f"ln V variance t={tau}")
        reps += [mean_rep, var_rep]
        gaps += [mean_gaps[i], var_gaps[i]]
        rows.append({"t": tau, "mean_log": mean_log[i], "se": se[i], "var_log": var_log[i],
                     "mean_ok": mean_rep.passed, "var_ok": var_rep.passed})
    corr_rep = TestReport(abs(corr), n, 0.0, z_two_sided(0.01) / math.sqrt(n),
                          "increment decorrelation")
    gaps.append(_increment_corr(log_v_coarse) - corr)
    reps.append(_step_bias(gaps, [r.critical for r in reps + [corr_rep]], n))
    reps.append(corr_rep)
    return ExperimentResult(rows, reps)


@register("mean_t1_quadrature",
          "Double-exponential 2-D quadrature of the mean first crossing time",
          "E[T_1] double integral evaluates to pi/sqrt(E)",
          {"e_list": (1.0, 2.0, 4.0, 9.0), "tol": 1e-4})
def _exp_t1_quad(p: dict, s: RngStream) -> ExperimentResult:
    rows, reps = [], []
    for e in p["e_list"]:
        val = spectrum.mean_t1_quadrature(e)
        target = math.pi / math.sqrt(e)
        rel = abs(val - target) / target
        rows.append({"E": e, "value": val, "target": target, "rel_err": rel})
        reps.append(TestReport(rel, 1, 0.0, p["tol"], f"mean-T1 quadrature E={e}"))
    return ExperimentResult(rows, reps)


_RENEWAL_MIN_GAPS = 1000    # gaps per energy; the registered horizon keeps about 4000


@register("renewal_mean",
          "Interarrival statistics of the phase pi-crossings on independent lanes",
          "crossing interarrivals are i.i.d. with mean pi/sqrt(E)",
          {"e_list": (1.0, 4.0), "horizon_crossings": 4000.0, "step": 1e-3,
           "tol": 0.02})
def _exp_renewal(p: dict, s: RngStream) -> ExperimentResult:
    """Mean and lag-1 correlation of the n gaps of an energy's spectrum.renewal_statistics lanes;
    RuntimeError before any verdict if an energy keeps fewer than _RENEWAL_MIN_GAPS."""
    rows, reps = [], []
    if any(not e > 0 for e in p["e_list"]):
        raise ValueError("E must be positive")    # before the horizons divide by sqrt(E)
    horizons = [p["horizon_crossings"] * math.pi / math.sqrt(e) for e in p["e_list"]]
    all_lanes = spectrum.renewal_statistics(p["e_list"], horizons, s, p["step"])
    for n in (sum(g.size for g in lanes) for lanes in all_lanes):
        if n < _RENEWAL_MIN_GAPS:
            raise RuntimeError(f"insufficient data: {n} interarrivals < {_RENEWAL_MIN_GAPS}")
    for e, lanes in zip(p["e_list"], all_lanes):
        gaps = np.concatenate(lanes)
        n = gaps.size
        mean = float(np.mean(gaps))
        target = math.pi / math.sqrt(e)
        rel = abs(mean - target) / target
        # lag-1 pairs within each lane, n - lanes of them, centred on the overall mean
        a = np.concatenate([g[:-1] for g in lanes]) - mean
        b = np.concatenate([g[1:] for g in lanes]) - mean
        lag1 = float(np.sum(a * b) / math.sqrt(np.sum(a * a) * np.sum(b * b)))
        corr_ci = z_two_sided(0.01) / math.sqrt(a.size)
        rows.append({"E": e, "n": n, "mean": mean, "target": target,
                     "rel_err": rel, "lag1_corr": lag1, "corr_ci": corr_ci})
        reps.append(TestReport(rel, n, 0.0, p["tol"], f"renewal mean E={e}"))
        reps.append(TestReport(abs(lag1), n, 0.0, corr_ci, f"lag-1 corr E={e}"))
    return ExperimentResult(rows, reps)


@register("dos_sweep",
          "Integrated density of states by the phase route",
          "N_lam(E) / (2 lam) tends to sqrt(E)/pi",
          {"e_list": (1.0, 4.0, 9.0), "lam": 200.0, "replicas": 50,
           "step": 1e-3, "tol": 0.05})
def _exp_dos(p: dict, s: RngStream) -> ExperimentResult:
    e_list, lam, replicas = p["e_list"], p["lam"], p["replicas"]
    if replicas < 2:    # before the sweep draws
        raise ValueError(f"replicas={replicas}: a density CI needs at least 2 samples, "
                         "so replicas >= 2")
    counts = spectrum.dos_sweep(e_list, lam, replicas, s, p["step"])
    rows, reps = [], []
    for e, c in zip(e_list, counts):
        density, half_width = mean_ci(c / (2.0 * lam), 0.01)
        target = math.sqrt(e) / math.pi
        rel = abs(density - target) / target
        rows.append({"E": e, "density": density, "half_width": half_width,
                     "target": target, "rel_err": rel})
        reps.append(TestReport(rel, replicas, 0.0, p["tol"], f"dos density E={e}"))
    if len(rows) >= 2 and rows[0]["E"] == 1.0 and rows[1]["E"] == 4.0:
        lo, hi = rows[0], rows[1]
        if lo["density"] == 0:    # the ratio divides by it
            raise ValueError(f"lam={lam} leaves no replica an eigenvalue below E = 1")
        ratio = hi["density"] / lo["density"]
        rel_hw = hi["half_width"] / hi["density"] + lo["half_width"] / lo["density"]
        crit = max(2.0 * 2.0 * rel_hw, 0.1)
        reps.append(TestReport(abs(ratio - 2.0), replicas, 0.0, crit,
                               f"E=4/E=1 density ratio = {ratio:.4f}"))
    return ExperimentResult(rows, reps)


@register("spectrum_oracle",
          "Deterministic flat-noise spectrum: FD eigensolve and phase bracket",
          "drift-only path has eigenvalues 1/4 and 1/4 + k^2 (k >= 1 doubled) at lam = pi",
          {"step": 1e-3, "eig_tol": 1e-3, "bracket": 2})
def _exp_spectrum_oracle(p: dict, s: RngStream) -> ExperimentResult:
    lam = math.pi
    gbm = deterministic_flat_gbm(lam, p["step"])
    eig = spectrum.fd_spectrum_twisted(gbm, k=7)
    exact = np.array([0.25, 1.25, 1.25, 4.25, 4.25, 9.25, 9.25])
    dev = float(np.max(np.abs(eig - exact)))
    rows = [{"k": i, "eig_fd": float(v), "eig_exact": float(e)}
            for i, (v, e) in enumerate(zip(eig, exact))]
    reps = [TestReport(dev, 7, 0.0, p["eig_tol"], "fd eigenvalues vs closed form")]
    exact_counts = {0.2: 0, 1.25: 3, 5.0: 5}
    for e_level, n_true in exact_counts.items():
        c = spectrum.count_states_phase(e_level, gbm)
        rows.append({"k": -1, "eig_fd": float(c), "eig_exact": float(n_true)})
        reps.append(TestReport(abs(c - n_true), 1, 0.0, p["bracket"] + 0.5,
                               f"phase count bracket E={e_level}"))
    return ExperimentResult(rows, reps)


@register("null_calibration",
          "Rejection rate of the KS layer on true-null data",
          "one-sample KS at alpha = 0.01 rejects at most 4% of 200 null runs",
          {"reps": 200, "n": 10_000, "alpha": 0.01, "max_rate": 0.04})
def _exp_null_calibration(p: dict, s: RngStream) -> ExperimentResult:
    if p["reps"] < 1:
        raise ValueError("null calibration needs reps >= 1")
    rejects = 0
    for i in range(p["reps"]):
        u = s.substream(i + 1).gen.uniform(size=p["n"])
        rep = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0), p["alpha"])
        rejects += not rep.passed
    rate = rejects / p["reps"]
    rep = TestReport(rate, p["reps"], p["alpha"], p["max_rate"],
                     f"null rejection rate {rate:.3f}")
    return ExperimentResult([{"reps": p["reps"], "rejections": rejects,
                              "rate": rate}], [rep])
