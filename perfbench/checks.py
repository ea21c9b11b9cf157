"""Output checks: every operation's output against closed forms or laws.

Each checker reads what one ``vrjplab.cli.run`` call reported (the rows of
its results.csv and the verdicts of its manifest) and returns a list of
:class:`Check`.  Targets are computed here from the experiment's effective
parameters, never read from the program's own verdicts or from stored
output.  Statistical checks carry an exact p-value; deterministic ones carry
p = 1 (holds) or p = 0 (violated).  A round rejects a check whose p-value is
below ``ALPHA_ROUND / (checks in the round)``, so a correct program fails a
round with probability at most ``ALPHA_ROUND``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import stats

ALPHA_ROUND = 1e-5

# Half-width of the renewal-mean check, relative to pi/sqrt(E).  At ~1100
# interarrivals the estimator's relative standard error is ~1.1% at E = 1
# (interarrival CV^2 ~ 0.14) and smaller at larger E, so 4.5% is >= 4 standard
# errors, while a mean off by 5% is always rejected.
RENEWAL_MEAN_TOL = 0.045

# explicit_inverse: the program's own tolerance, and the deviation above which
# a disagreement is a wrong answer rather than the known conditioning fault.
INVERSE_TOL = 1e-10
INVERSE_GROSS = 1e-5
INVERSE_FAULT = "explicit_inverse: fixed 1e-10 relative tolerance ignores cond(H)"


@dataclass(frozen=True)
class Check:
    label: str
    p: float
    fault: str | None = None   # a named program fault that explains a rejection


def holds(label: str, ok: bool, fault: str | None = None) -> Check:
    return Check(label, 1.0 if ok else 0.0, fault)


_NP_SCALAR = re.compile(r"^np\.\w+\((.*)\)$")


def cell(text: str) -> float:
    """Parse a results.csv number; numpy 2 scalars are written as np.float64(x)."""
    m = _NP_SCALAR.match(text)
    return float(m.group(1) if m else text)


# ---------------------------------------------------------------------------
# p-values from exact distributions
# ---------------------------------------------------------------------------

def ks_one_sample_p(d: float, n: int) -> float:
    """P(D_n >= d) for the one-sample KS statistic (scipy's exact kstwo)."""
    return float(stats.kstwo.sf(d, n))


def ks_two_sample_p(d: float, m: int) -> float:
    """P(D_{m,m} >= d) for two equal samples of size m (Gnedenko-Korolyuk).

    D takes values c/m; P(D >= c/m) = 2 sum_{k>=1} (-1)^{k+1}
    C(2m, m - kc) / C(2m, m).
    """
    c = int(round(d * m))
    if c <= 0:
        return 1.0
    log_norm = math.lgamma(m + 1) * 2 - math.lgamma(2 * m + 1)
    total = 0.0
    for k in range(1, m // c + 1):
        j = m - k * c
        log_term = (math.lgamma(2 * m + 1) - math.lgamma(j + 1)
                    - math.lgamma(2 * m - j + 1) + log_norm)
        term = math.exp(log_term)
        total += term if k % 2 else -term
        if term < 1e-300:
            break
    return float(min(1.0, max(0.0, 2.0 * total)))


def ks_critical(n: int, alpha: float) -> float:
    """One-sample KS statistic at which the exact p-value equals alpha."""
    return float(stats.kstwo.isf(alpha, n))


def _normal_p(z: float) -> float:
    return float(2.0 * stats.norm.sf(abs(z)))


def _corr_p(r: float, n: int) -> float:
    """Two-sided p of a sample correlation under independence (Fisher z)."""
    return _normal_p(math.atanh(min(abs(r), 1.0 - 1e-16)) * math.sqrt(n - 3))


# ---------------------------------------------------------------------------
# Per-experiment checkers: (params, rows, verdicts) -> [Check]
# ---------------------------------------------------------------------------

def _ks_rows(rows, label_key, two_sample=False):
    """KS p-values from each row's statistic and n (n1 + n2 for two equal samples)."""
    out = []
    for r in rows:
        d, n = cell(r["statistic"]), int(cell(r["n"]))
        p = ks_two_sample_p(d, n // 2) if two_sample else ks_one_sample_p(d, n)
        out.append(Check(f"ks {r[label_key]}", p))
    return out


def _dos_sweep(p, rows, verdicts):
    from vrjplab.experiments import deterministic_flat_gbm
    from vrjplab.spectrum import count_states_phase

    lam = float(p["lam"])
    e_list = [float(e) for e in np.atleast_1d(p["e_list"])]
    out = [holds("dos rows", [cell(r["E"]) for r in rows] == e_list)]
    for r in rows:
        e = cell(r["E"])
        target = math.sqrt(e) / math.pi
        slack = 3.0 / (2.0 * lam) + cell(r["half_width"])
        out.append(holds(f"density E={e}", abs(cell(r["density"]) - target) <= slack))
    # the drift-only path e^{-t/2} has oscillation frequency sqrt(E - 1/4)
    flat = deterministic_flat_gbm(lam, float(p["step"]))
    for e in e_list:
        exact = math.floor(2.0 * lam * math.sqrt(max(e - 0.25, 0.0)) / math.pi)
        out.append(holds(f"flat count E={e}", count_states_phase(e, flat) == exact))
    return out


def _renewal_mean(p, rows, verdicts):
    e_list = [float(e) for e in np.atleast_1d(p["e_list"])]
    out = [holds("renewal rows", [cell(r["E"]) for r in rows] == e_list)]
    for r in rows:
        e, n = cell(r["E"]), int(cell(r["n"]))
        target = math.pi / math.sqrt(e)
        out.append(holds(f"renewal n E={e}", n >= 1000))
        out.append(holds(f"renewal mean E={e}",
                         abs(cell(r["mean"]) - target) <= RENEWAL_MEAN_TOL * target))
        out.append(Check(f"lag-1 corr E={e}", _corr_p(cell(r["lag1_corr"]), n)))
    return out


def _mean_t1_quadrature(p, rows, verdicts):
    out = [holds("quadrature rows", len(rows) == len(np.atleast_1d(p["e_list"])))]
    for r in rows:
        target = math.pi / math.sqrt(cell(r["E"]))
        out.append(holds(f"quadrature E={cell(r['E'])}",
                         abs(cell(r["value"]) - target) <= 1e-4 * target))
    return out


def _spectrum_oracle(p, rows, verdicts):
    # circle of length 2*pi, drift-only path: eigenvalues 1/4 + k^2, k >= 1 doubled
    exact = sorted([0.25] + [0.25 + k * k for k in (1, 2, 3)] * 2)
    eig = [cell(r["eig_fd"]) for r in rows if int(cell(r["k"])) >= 0]
    return [holds("eigenvalue count", len(eig) == len(exact))] + [
        holds(f"eigenvalue {i}", abs(v - x) <= float(p["eig_tol"]))
        for i, (v, x) in enumerate(zip(eig, exact))]


def _explicit_inverse(p, rows, verdicts):
    fields = [r for r in rows if int(cell(r["dim"])) > 3]
    exact3 = [r for r in rows if int(cell(r["dim"])) == 3]
    worst = max(cell(r["max_rel_dev"]) for r in fields)
    # the dim-3 row is the u = 2 three-vertex circle: entries 3/7 and 2/7
    return [
        holds("field count", len(fields) == int(p["n_fields"])),
        holds("3-vertex entries 3/7, 2/7",
              len(exact3) == 1 and cell(exact3[0]["max_rel_dev"]) <= 1e-14),
        holds("explicit vs dense: no gross error", worst < INVERSE_GROSS),
        holds("explicit vs dense within 1e-10", worst < INVERSE_TOL, INVERSE_FAULT),
    ]


def _functional_identity(p, rows, verdicts):
    lam = float(p["lam"])
    integrals = [cell(r["integral"]) for r in rows]
    targets = [(2.0 * lam) ** 2, (4.0 * lam) ** 2]
    return [holds("targets (2 lam)^2, (4 lam)^2",
                  len(integrals) == 2 and all(abs(i * i - t) <= 1e-12 * t
                                              for i, t in zip(integrals, targets)))
            ] + _ks_rows(rows, "f")


def _null_calibration(p, rows, verdicts):
    (r,) = rows
    reps, rejections = int(cell(r["reps"])), int(cell(r["rejections"]))
    # rejections of a level-alpha test on true nulls are Binomial(reps, alpha)
    pval = float(stats.binom.sf(rejections - 1, reps, float(p["alpha"])))
    return [holds("null reps", reps == int(p["reps"])),
            Check("null rejections", pval)]


def _mbg_corollary(p, rows, verdicts):
    n = int(p["n"])
    out = [holds("mbg rows", len(rows) == 3)]
    for r in rows:
        t = cell(r["t"])
        # ln V_t of a GBM from 1 is N(-t/2, t)
        z = (cell(r["mean_log"]) + t / 2.0) / cell(r["se"])
        out.append(Check(f"ln V mean t={t}", _normal_p(z)))
        chi = (n - 1) * cell(r["var_log"]) / t
        out.append(Check(f"ln V variance t={t}",
                         float(2.0 * min(stats.chi2.cdf(chi, n - 1),
                                         stats.chi2.sf(chi, n - 1)))))
    (corr,) = [v for v in verdicts if v["label"] == "increment decorrelation"]
    out.append(Check("increment decorrelation", _corr_p(corr["statistic"], n)))
    return out


CHECKERS = {
    "dos_sweep": _dos_sweep,
    "renewal_mean": _renewal_mean,
    "mean_t1_quadrature": _mean_t1_quadrature,
    "spectrum_oracle": _spectrum_oracle,
    "explicit_inverse": _explicit_inverse,
    "functional_identity": _functional_identity,
    "null_calibration": _null_calibration,
    "mbg_corollary": _mbg_corollary,
    "dufresne_diagonal": lambda p, rows, v: _ks_rows(rows, "label"),
    "dufresne_ratio": lambda p, rows, v: _ks_rows(rows, "lam"),
    "discrete_green_law": lambda p, rows, v: _ks_rows(rows, "label"),
    "intertwining": lambda p, rows, v: _ks_rows(rows, "bin"),
    "matsumoto_yor_kernel": lambda p, rows, v: _ks_rows(rows, "label", two_sample=True),
    "z_diffusion": lambda p, rows, v: _ks_rows(rows, "label", two_sample=True),
}


def check_output(experiment: str, params: dict, rows: list[dict],
                 verdicts: list[dict]) -> list[Check]:
    return CHECKERS[experiment](params, rows, verdicts)


def rejected(checks: list[Check], n_round: int) -> list[Check]:
    """Checks rejected at the family-wise level of a round of n_round checks."""
    level = ALPHA_ROUND / max(n_round, 1)
    return [c for c in checks if not c.p >= level]
