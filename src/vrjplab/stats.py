"""Hypothesis-testing layer shared by every identity-in-law check.

It holds the pass rule, the quantiles, sup-distance (Kolmogorov-Smirnov)
tests and a mean confidence interval.  A verdict passes when its statistic
is at most its critical value.  Critical values are the classical
asymptotics, accurate at the sample sizes (N >= 1e4) the suites use.
Heavy-tailed laws such as 1/(2*gamma) must always be compared through
KS, never through moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import math

import numpy as np

# Kolmogorov asymptotic critical constants c(alpha): K(c) = 1 - alpha.
_KS_CRITICAL = {0.05: 1.358, 0.01: 1.628}
# Two-sided normal quantiles z_{1 - alpha/2}; the 0.01 entry is the 2.5758
# that every seeded output has been computed with.
_Z_TWO_SIDED = {0.05: 1.959963984540054, 0.01: 2.5758}


@dataclass(frozen=True)
class TestReport:
    """One verdict: it passes when statistic <= critical, so a NaN statistic fails."""

    statistic: float
    n: int
    alpha: float
    critical: float
    label: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.statistic <= self.critical)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def as_row(self) -> dict:
        """The verdict as one row: the keys of results.csv and manifest.json."""
        return {"label": self.label, "statistic": self.statistic, "critical": self.critical,
                "n": self.n, "alpha": self.alpha, "verdict": self.verdict}

    def __str__(self) -> str:
        return (f"[{self.verdict.upper():4s}] {self.label}: stat={self.statistic:.5g} "
                f"crit={self.critical:.5g} n={self.n} alpha={self.alpha}")


def _quantile(table: dict[float, float], alpha: float) -> float:
    if alpha not in table:
        raise ValueError(f"alpha must be one of {sorted(table)}, got {alpha}")
    return table[alpha]


def ks_one_sample(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray],
                  alpha: float, label: str = "") -> TestReport:
    """One-sample KS test of ``samples`` against a monotone CDF."""
    c = _quantile(_KS_CRITICAL, alpha)
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    stat = float(max(d_plus, d_minus))
    crit = c / math.sqrt(n)
    return TestReport(stat, n, alpha, crit, label)


def ks_two_sample(a: Sequence[float], b: Sequence[float], alpha: float,
                  label: str = "") -> TestReport:
    """Two-sample KS test (sup distance between empirical CDFs)."""
    c = _quantile(_KS_CRITICAL, alpha)
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = a.size, b.size
    if min(n1, n2) < 100:
        raise ValueError(f"need at least 100 samples per side, got {n1}, {n2}")
    allx = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, allx, side="right") / n1
    cdf2 = np.searchsorted(b, allx, side="right") / n2
    stat = float(np.max(np.abs(cdf1 - cdf2)))
    crit = c * math.sqrt((n1 + n2) / (n1 * n2))
    return TestReport(stat, n1 + n2, alpha, crit, label)


def z_two_sided(alpha: float) -> float:
    """The two-sided normal quantile z_{1 - alpha/2}."""
    return _quantile(_Z_TWO_SIDED, alpha)


def mean_ci(samples: Sequence[float], alpha: float) -> tuple[float, float]:
    """Sample mean with a normal-approximation half width."""
    z = z_two_sided(alpha)
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    est = float(np.mean(x))
    half = float(z * np.std(x, ddof=1) / np.sqrt(n))
    return est, half
