"""Experiment registry: every verification suite as a named, seeded run.

Each experiment is a pure function of (params, stream) returning CSV
rows plus pass/fail reports, so a run with identical config reproduces
byte-identical numeric output.  The registry entries carry a one-line
description and the mathematical identity they exercise; the CLI lists
and runs them.

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
from .stochastic import (PathKind, RngStream, SampledPath, grid_cells,
                         inverse_gamma_half_cdf, inverse_gaussian_cdf,
                         sample_inverse_gaussian)


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
    return SampledPath(-lam, h, np.exp(-times / 2.0), PathKind.GBM)


# ---------------------------------------------------------------------------
# Registered experiments (one per acceptance criterion)
# ---------------------------------------------------------------------------

@register("dufresne_diagonal",
          "KS of kernel diagonal samples G(0,0) against the 1/(2 gamma) law",
          "diagonal identity in law: G(t,t) ~ 1/(2 gamma), gamma ~ Gamma(1/2,1)",
          {"lam": 1.0, "step": 1e-3, "n": 10_000, "alpha": 0.01, "t": 0.0})
def _exp_dufresne_diagonal(p: dict, s: RngStream) -> ExperimentResult:
    samples = continuum_kernel.sample_kernel_diagonal(p["lam"], p["t"], p["step"],
                                                      int(p["n"]), s)
    # the verdict names the grid node the sampler read, not the requested t
    _, t_node = continuum_kernel.kernel_diagonal_node(p["lam"], p["t"], p["step"])
    rep = ks_one_sample(samples, inverse_gamma_half_cdf, p["alpha"],
                        label=f"kernel-diagonal lam={p['lam']} t={t_node}")
    return ExperimentResult([rep.as_row()], [rep])


@register("dufresne_ratio",
          "KS of the truncated exponential-functional ratio against 1/(2 gamma)",
          "int_0^lam e^{2a-s} ds / (e^{a_lam - lam/2} - 1)^2 ~ 1/(2 gamma) for every lam",
          {"lams": (0.1, 5.0, 40.0), "step": 1e-3, "n": 10_000, "alpha": 0.01})
def _exp_dufresne_ratio(p: dict, s: RngStream) -> ExperimentResult:
    rows, reps = [], []
    for i, lam in enumerate(tuple(np.atleast_1d(p["lams"]))):
        lam = float(lam)
        samples = continuum_kernel.sample_dufresne_ratio(lam, p["step"], int(p["n"]),
                                                         s.substream(i))
        rep = ks_one_sample(samples, inverse_gamma_half_cdf, p["alpha"],
                            label=f"dufresne-ratio lam={lam}")
        reps.append(rep)
        rows.append({"lam": lam, **rep.as_row()})
    return ExperimentResult(rows, reps)


@register("functional_identity",
          "KS of the kernel quadratic form against (int f)^2 / (2 gamma)",
          "<f, G f> ~ (int f)^2 / (2 gamma) for deterministic nonnegative f",
          {"lam": 1.0, "step": 1e-3, "n": 10_000, "alpha": 0.01})
def _exp_functional_identity(p: dict, s: RngStream) -> ExperimentResult:
    lam = p["lam"]
    cases = {
        "f=1": (lambda t: np.ones_like(t), 2.0 * lam),
        "f=cos(pi t/lam)+2": (lambda t: np.cos(np.pi * t / lam) + 2.0, 4.0 * lam),
    }
    rows, reps = [], []
    for i, (label, (f, integral)) in enumerate(cases.items()):
        samples = continuum_kernel.sample_quadratic_form(lam, f, p["step"],
                                                         int(p["n"]), s.substream(i))
        cdf = lambda x, c=integral ** 2: inverse_gamma_half_cdf(x / c)
        rep = ks_one_sample(samples, cdf, p["alpha"], label=f"quadratic-form {label}")
        reps.append(rep)
        rows.append({"f": label, "integral": integral, **rep.as_row()})
    return ExperimentResult(rows, reps)


@register("discrete_green_law",
          "KS of discrete circle Green diagonal entries against 1/(2 gamma)",
          "G(i,i) ~ 1/(2 gamma) on any circle field",
          {"n_weight": 8, "lam": 1.0, "n": 10_000, "alpha": 0.01})
def _exp_discrete_green(p: dict, s: RngStream) -> ExperimentResult:
    n_w = int(p["n_weight"])
    size = int(math.ceil(p["lam"] * n_w))
    dim = 2 * size + 1
    # one row of multipliers per replica, diagonal entry via the O(dim) path
    a = sample_inverse_gaussian(float(n_w), s, size=int(p["n"]) * dim).reshape(int(p["n"]), dim)
    g00 = green_circle.green_entries_from_a(a, float(n_w), size, size)
    rep = ks_one_sample(g00, inverse_gamma_half_cdf, p["alpha"],
                        label=f"discrete-green-diagonal n={n_w} lam={p['lam']}")
    return ExperimentResult([rep.as_row()], [rep])


@register("explicit_inverse",
          "Closed-form circle inverse against dense factorization",
          "per-entry match of the directed-product inverse with a dense solve",
          {"n_fields": 20, "max_dim": 401, "weight": 8.0, "tol": 1e-10})
def _exp_explicit_inverse(p: dict, s: RngStream) -> ExperimentResult:
    rows, reps = [], []
    worst = 0.0
    sizes = np.linspace(3, (int(p["max_dim"]) - 1) // 2, int(p["n_fields"])).astype(int)
    for i, size in enumerate(sizes):
        f = beta_field.sample_circle_field(int(size), p["weight"], s.substream(i + 1))
        ge = green_circle.green_from_field(f, green_circle.Provenance.EXPLICIT_FORMULA)
        gd = green_circle.green_from_field(f, green_circle.Provenance.DENSE_SOLVE)
        dev = float(np.max(np.abs(ge - gd) / np.abs(gd)))
        worst = max(worst, dev)
        rows.append({"dim": 2 * int(size) + 1, "max_rel_dev": dev})
    rep = TestReport(worst, int(p["n_fields"]), 0.0, p["tol"], "explicit-vs-dense inverse")
    # exact 3-vertex case u = 2
    inv = green_circle.invert_R_explicit(np.full(3, 2.0))
    exact_dev = max(abs(inv[0, 0] - 3.0 / 7.0), abs(inv[0, 1] - 2.0 / 7.0))
    rep2 = TestReport(exact_dev, 3, 0.0, 1e-14, "3-vertex u=2 exact")
    rows.append({"dim": 3, "max_rel_dev": exact_dev})
    return ExperimentResult(rows, [rep, rep2])


@register("matsumoto_yor_kernel",
          "Two-sample KS between construction-chain z and kernel-iterated z",
          "z is Markov: z' = (z/m) / IG(1/(m + 1/z), 1)",
          {"m": 5, "length": 20, "n": 10_000, "alpha": 0.01})
def _exp_my_kernel(p: dict, s: RngStream) -> ExperimentResult:
    m, length, n = int(p["m"]), int(p["length"]), int(p["n"])
    _, _, z = matsumoto_yor.build_my_chains(m, length, n, s)
    z_con = z[:, -1]
    z_ker = np.full(n, 1.0 / m)          # z_1 = 1/m identically
    ker_stream = s.substream(1)
    for _ in range(length - 1):
        z_ker = matsumoto_yor.kernel_step(z_ker, m, ker_stream)
    rep = ks_two_sample(z_con, z_ker, p["alpha"],
                        label=f"kernel-vs-construction z_{length} m={m}")
    return ExperimentResult([rep.as_row()], [rep])


@register("intertwining",
          "Decile-binned conditional law of psi given z against IG(1, 1/z)",
          "psi | z ~ IG(1, 1/z); conditional variance equals z",
          {"m": 5, "length": 20, "n": 100_000, "alpha": 0.01,
           "min_pass": 9, "var_tol": 0.15})
def _exp_intertwining(p: dict, s: RngStream) -> ExperimentResult:
    m, length, n = int(p["m"]), int(p["length"]), int(p["n"])
    psi, _, z = matsumoto_yor.build_my_chains(m, length, n, s)
    psi_n, z_n = psi[:, -1], z[:, -1]
    edges = np.quantile(z_n, np.linspace(0, 1, 11))
    rows, reps = [], []
    n_pass = 0
    var_ratios = []
    for b in range(10):
        mask = (z_n >= edges[b]) & (z_n <= edges[b + 1] if b == 9 else z_n < edges[b + 1])
        sel = psi_n[mask]
        z_sel = z_n[mask]
        z_med = float(np.median(z_sel))
        # condition on each sample's own z: under the null the transformed
        # values are exactly uniform, so decile width does not bias the bin
        u = inverse_gaussian_cdf(sel, 1.0, 1.0 / z_sel)
        rep = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0), p["alpha"],
                            label=f"intertwining bin {b}")
        n_pass += rep.passed
        var_ratio = float(np.var(sel, ddof=1)) / z_med
        var_ratios.append(var_ratio)
        rows.append({"bin": b, "z_median": z_med, "n_bin": int(sel.size),
                     "var_ratio": var_ratio, **rep.as_row()})
        reps.append(rep)
    bin_rep = TestReport(10 - n_pass, n, p["alpha"], 10 - math.ceil(p["min_pass"]) + 0.5,
                         f"bins passed: {n_pass}/10")
    mean_ratio = float(np.mean(var_ratios))
    var_rep = TestReport(abs(mean_ratio - 1.0), n, 0.0, p["var_tol"],
                         f"conditional variance / z = {mean_ratio:.4f}")
    return ExperimentResult(rows, [bin_rep, var_rep])


@register("z_diffusion",
          "Two-sample KS: pathwise Z_t vs Euler-Maruyama of dZ = Z dW + (1+Z) dt",
          "Z is a diffusion with generator (z^2/2) d^2/dz^2 + (1+z) d/dz",
          {"tmax": 1.0, "n": 10_000, "step": 1e-3, "alpha": 0.01})
def _exp_z_diffusion(p: dict, s: RngStream) -> ExperimentResult:
    n = int(p["n"])
    za = matsumoto_yor.sample_z_pathwise(p["tmax"], p["step"], n, s)
    zb = matsumoto_yor.euler_maruyama_z(p["tmax"], p["step"], n, s.substream(1))
    rep = ks_two_sample(za, zb, p["alpha"], label=f"z-diffusion t={p['tmax']}")
    return ExperimentResult([rep.as_row()], [rep])


@register("mbg_corollary",
          "GBM law of the normalized forward exponential-functional ratio",
          "e^{-a_t+t/2} int_t^inf e^{2a-s} ds / int_0^inf e^{2a-s} ds is a GBM from 1",
          {"n": 10_000, "step": 1e-3, "tail": 40.0})
def _exp_mbg(p: dict, s: RngStream) -> ExperimentResult:
    t_grid, n = (0.5, 1.0, 2.0), int(p["n"])
    log_v = continuum_kernel.mbg_transform_check(s, t_grid, n, p["step"], p["tail"])
    mean_log = log_v.mean(axis=1)
    se = log_v.std(axis=1, ddof=1) / math.sqrt(n)
    var_log = log_v.var(axis=1, ddof=1)
    corr = float(np.corrcoef(log_v[1] - log_v[0], log_v[2] - log_v[1])[0, 1])
    rows, reps = [], []
    for i, t in enumerate(t_grid):
        mean_rep = TestReport(abs(mean_log[i] + t / 2.0), n, 0.0, 3.0 * se[i],
                              f"ln V mean t={t}")
        var_rep = TestReport(abs(var_log[i] - t), n, 0.0, 0.10 * t, f"ln V variance t={t}")
        reps += [mean_rep, var_rep]
        rows.append({"t": t, "mean_log": mean_log[i], "se": se[i], "var_log": var_log[i],
                     "mean_ok": mean_rep.passed, "var_ok": var_rep.passed})
    reps.append(TestReport(abs(corr), n, 0.0, z_two_sided(0.01) / math.sqrt(n),
                           "increment decorrelation"))
    return ExperimentResult(rows, reps)


@register("mean_t1_quadrature",
          "Adaptive 2-D quadrature of the mean first crossing time",
          "E[T_1] double integral evaluates to pi/sqrt(E)",
          {"e_list": (1.0, 2.0, 4.0, 9.0), "tol": 1e-4})
def _exp_t1_quad(p: dict, s: RngStream) -> ExperimentResult:
    rows, reps = [], []
    for e in tuple(np.atleast_1d(p["e_list"])):
        val = spectrum.mean_t1_quadrature(float(e))
        target = math.pi / math.sqrt(e)
        rel = abs(val - target) / target
        rows.append({"E": float(e), "value": val, "target": target, "rel_err": rel})
        reps.append(TestReport(rel, 1, 0.0, p["tol"], f"mean-T1 quadrature E={e}"))
    return ExperimentResult(rows, reps)


@register("renewal_mean",
          "Interarrival statistics of the phase pi-crossings on a long path",
          "crossing interarrivals are i.i.d. with mean pi/sqrt(E)",
          {"e_list": (1.0, 4.0), "horizon_crossings": 4000.0, "step": 1e-3,
           "tol": 0.02})
def _exp_renewal(p: dict, s: RngStream) -> ExperimentResult:
    rows, reps = [], []
    e_list = [float(e) for e in np.atleast_1d(p["e_list"])]
    horizons = [p["horizon_crossings"] * math.pi / math.sqrt(e) for e in e_list]
    all_gaps = spectrum.renewal_statistics(
        e_list, horizons, [s.substream(i + 1) for i in range(len(e_list))],
        p["step"], min_count=1000)
    for e, gaps in zip(e_list, all_gaps):
        n = gaps.size
        mean = float(np.mean(gaps))
        target = math.pi / math.sqrt(e)
        rel = abs(mean - target) / target
        # lag-1 correlation, both sides centred on the overall mean
        a, b = gaps[:-1] - mean, gaps[1:] - mean
        lag1 = float(np.sum(a * b) / math.sqrt(np.sum(a * a) * np.sum(b * b)))
        corr_ci = z_two_sided(0.01) / math.sqrt(n - 1)
        rows.append({"E": float(e), "n": n, "mean": mean, "target": target,
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
    e_list, lam, replicas = tuple(np.atleast_1d(p["e_list"])), p["lam"], int(p["replicas"])
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
        reps.append(TestReport(abs(c - n_true), 1, 0.0, int(p["bracket"]) + 0.5,
                               f"phase count bracket E={e_level}"))
    return ExperimentResult(rows, reps)


@register("null_calibration",
          "Rejection rate of the KS layer on true-null data",
          "one-sample KS at alpha = 0.01 rejects at most 4% of 200 null runs",
          {"reps": 200, "n": 10_000, "alpha": 0.01, "max_rate": 0.04})
def _exp_null_calibration(p: dict, s: RngStream) -> ExperimentResult:
    rejects = 0
    for i in range(int(p["reps"])):
        u = s.substream(i + 1).gen.uniform(size=int(p["n"]))
        rep = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0), p["alpha"])
        rejects += not rep.passed
    rate = rejects / int(p["reps"])
    rep = TestReport(rate, int(p["reps"]), p["alpha"], p["max_rate"],
                     f"null rejection rate {rate:.3f}")
    return ExperimentResult([{"reps": int(p["reps"]), "rejections": rejects,
                              "rate": rate}], [rep])
