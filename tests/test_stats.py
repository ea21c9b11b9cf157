"""The pass rule, the KS layer and the mean interval."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from vrjplab import stats
from vrjplab.stats import ks_one_sample, ks_two_sample, mean_ci
from vrjplab.stochastic import new_stream


def _uniform_cdf(x):
    return np.clip(x, 0.0, 1.0)


def test_ks_one_sample_null():
    u = new_stream(1, 0).gen.uniform(size=10_000)
    rep = ks_one_sample(u, _uniform_cdf, 0.01)
    assert rep.passed and rep.statistic < 0.0163
    assert rep.critical == pytest.approx(1.628 / 100.0)


def test_ks_one_sample_degenerate_fails():
    rep = ks_one_sample(np.full(1000, 0.5), _uniform_cdf, 0.01)
    assert not rep.passed
    assert rep.statistic == pytest.approx(0.5, abs=1e-3)


def test_ks_one_sample_too_few():
    with pytest.raises(ValueError):
        ks_one_sample(np.ones(10), _uniform_cdf, 0.01)
    with pytest.raises(ValueError):
        ks_one_sample(np.array([]), _uniform_cdf, 0.01)


def test_ks_alpha_guard():
    u = new_stream(1, 1).gen.uniform(size=200)
    with pytest.raises(ValueError):
        ks_one_sample(u, _uniform_cdf, 0.10)


def test_ks_two_sample_same_law():
    a = new_stream(2, 0).gen.uniform(size=10_000)
    b = new_stream(2, 1).gen.uniform(size=10_000)
    rep = ks_two_sample(a, b, 0.01)
    assert rep.passed


def test_ks_two_sample_distinct_laws():
    g = new_stream(3, 0).gen
    a = g.standard_gamma(0.5, size=10_000)
    b = g.standard_gamma(1.0, size=10_000)
    rep = ks_two_sample(a, b, 0.01)
    assert not rep.passed


def test_ks_two_sample_identical_sequences():
    a = new_stream(4, 0).gen.uniform(size=500)
    rep = ks_two_sample(a, a.copy(), 0.05)
    assert rep.statistic == 0.0


def test_mean_ci():
    x = new_stream(5, 0).gen.normal(2.0, 1.0, size=50_000)
    est, half = mean_ci(x, 0.01)
    assert abs(est - 2.0) < half
    assert half == 2.5758 * np.std(x, ddof=1) / np.sqrt(x.size)
    est2, hw = mean_ci(np.full(100, 3.0), 0.05)
    assert est2 == 3.0 and hw == 0.0
    _, hw05 = mean_ci(x, 0.05)
    assert hw05 / half == pytest.approx(1.959963984540054 / 2.5758, rel=1e-12)
    with pytest.raises(ValueError):
        mean_ci(x, 0.10)
    with pytest.raises(ValueError):
        mean_ci(x[:1], 0.01)


def test_report_passes_at_equality():
    assert stats.TestReport(0.04, 200, 0.01, 0.04).passed
    assert stats.TestReport(0.5, 1, 0.0, 0.5).verdict == "pass"
    assert not stats.TestReport(math.nextafter(0.5, 1.0), 1, 0.0, 0.5).passed


def test_report_nan_statistic_fails():
    rep = stats.TestReport(float("nan"), 10, 0.0, 1.0, "nan")
    assert not rep.passed and rep.verdict == "fail"
    assert not stats.TestReport(np.float64("nan"), 10, 0.0, np.inf).passed


def test_report_takes_no_passed_argument():
    with pytest.raises(TypeError):
        stats.TestReport(0.0, 10, 0.01, 1.0, passed=True)
    with pytest.raises(TypeError):
        stats.TestReport(0.0, 10, 0.01, 1.0, True, "label")


def test_only_stats_and_experiments_name_test_report():
    # layers return samples; only the registry forms verdicts
    src = Path(stats.__file__).parent
    naming = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id == "TestReport")
                    or (isinstance(node, ast.Attribute) and node.attr == "TestReport")
                    or (isinstance(node, ast.alias) and node.name == "TestReport")):
                naming.add(path.name)
    assert naming == {"stats.py", "experiments.py"}


def test_reports_deterministic():
    u = new_stream(6, 0).gen.uniform(size=1000)
    r1 = ks_one_sample(u, _uniform_cdf, 0.01, label="x")
    r2 = ks_one_sample(u, _uniform_cdf, 0.01, label="x")
    assert r1 == r2


def test_null_calibration_small():
    # 50 quick replicas; the full 200-run calibration is acceptance criterion 14
    rejects = 0
    for i in range(50):
        u = new_stream(7, i).gen.uniform(size=2000)
        rejects += not ks_one_sample(u, _uniform_cdf, 0.01).passed
    assert rejects <= 3
