"""Self-test of the benchmark's output checks, at tiny sizes.

    python3 perfbench/selftest.py

Runs one round of every workload at its tiny profile and requires every
check to hold, then corrupts outputs on purpose and requires the checks to
reject each corruption.  Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import math
import sys

import run  # sets the thread environment before numpy is imported
import numpy as np
from scipy import stats

from checks import (ALPHA_ROUND, cell, check_output, ks_critical, ks_one_sample_p,
                    ks_two_sample_p, rejected)
from workloads import WORKLOADS


def main() -> int:
    cli = run._import_program()
    failures = []

    def expect(label, ok):
        print(f"[{'ok' if ok else 'FAIL':4s}] {label}")
        if not ok:
            failures.append(label)

    outputs = {}
    for w in WORKLOADS.values():
        round_ops = run.build_round(cli, "selftest", 7, 1, w.tiny, run.OUT / "selftest")
        _, results, _ = run.run_round(cli, round_ops)
        _, wrong = run.check_round(round_ops, results)
        expect(f"{w.name}: tiny round passes every check", not wrong)
        for line in wrong:
            print(f"       {line}")
        for (op, params, config), out in zip(round_ops, results):
            outputs[op.experiment] = (params, run.read_rows(config, out), out.verdicts)

    def rejects(label, experiment, key, fn, where=lambda r: True, want=True):
        """Corrupt column ``key`` of the matching rows; expect a rejection."""
        params, rows, verdicts = outputs[experiment]
        rows = copy.deepcopy(rows)
        for r in rows:
            if where(r):
                r[key] = repr(float(fn(r)))
        checks = check_output(experiment, params, rows, verdicts)
        expect(label, bool(rejected(checks, len(checks))) == want)

    rejects("dos: density scaled by 1.1 is rejected", "dos_sweep",
            "density", lambda r: 1.1 * cell(r["density"]))
    rejects("spectrum: eigenvalue shifted by 0.01 is rejected", "spectrum_oracle",
            "eig_fd", lambda r: cell(r["eig_fd"]) + 0.01, lambda r: cell(r["k"]) == 1)
    for factor in (1.05, 0.95):
        rejects(f"renewal: mean at {factor} pi/sqrt(E) is rejected", "renewal_mean",
                "mean", lambda r: factor * math.pi / math.sqrt(cell(r["E"])))
    n = int(cell(outputs["dufresne_diagonal"][1][0]["n"]))
    crit = ks_critical(n, ALPHA_ROUND)     # the level of a one-check round
    rejects("ks: statistic just above the family-wise critical value is rejected",
            "dufresne_diagonal", "statistic", lambda r: 1.01 * crit)
    rejects("ks: statistic just below it is accepted", "dufresne_diagonal",
            "statistic", lambda r: 0.99 * crit, want=False)
    rejects("two-sample ks: statistic 0.5 is rejected", "z_diffusion",
            "statistic", lambda r: 0.5)
    rejects("quadrature: value off by 2e-4 is rejected", "mean_t1_quadrature",
            "value", lambda r: cell(r["value"]) * (1 + 2e-4))
    rejects("inverse: 3-vertex entry off by 1e-12 is rejected", "explicit_inverse",
            "max_rel_dev", lambda r: 1e-12, lambda r: cell(r["dim"]) == 3)
    rejects("functional identity: wrong integral is rejected", "functional_identity",
            "integral", lambda r: 1.01 * cell(r["integral"]))
    rejects("mbg: ln V mean off by 10 standard errors is rejected", "mbg_corollary",
            "mean_log", lambda r: cell(r["mean_log"]) + 10 * cell(r["se"]))

    # the exact p-values against scipy's own exact two-sample test and kstwo
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=300), rng.normal(0.2, 1.0, size=300)
    ref = stats.ks_2samp(a, b, method="exact")
    expect("two-sample p-value equals scipy's exact ks_2samp",
           math.isclose(ks_two_sample_p(ref.statistic, 300), ref.pvalue, rel_tol=1e-9))
    ref1 = stats.kstest(a, "norm", method="exact")
    expect("one-sample p-value equals scipy's exact kstest",
           math.isclose(ks_one_sample_p(ref1.statistic, 300), ref1.pvalue, rel_tol=1e-9))

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
