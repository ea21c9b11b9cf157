"""Every registered experiment with a time step either checks that step's bias or keeps 1e-3.

An experiment that reads a trapezoid walk at its registered step reports
exactly one "step bias h vs 2h" verdict (experiments._step_bias).  The
others are listed below with the reason they have none, and must keep the
fine step 1e-3, so that a coarser step without a verdict fails here.
"""

import pytest

from vrjplab.experiments import get_experiment, list_experiments
from vrjplab.stochastic import new_stream

# name -> overrides that make a run tiny
WITH_VERDICT = {
    "dufresne_diagonal": {"n": 500},
    "functional_identity": {"n": 500},
    "dufresne_ratio": {"lams": (0.1, 1.0), "n": 200},
    "mbg_corollary": {"n": 200, "tail": 5.0},
}
WITHOUT_VERDICT = {
    "z_diffusion": "Euler-Maruyama is weak order 1; its h-vs-2h gap is not a 3x bias estimate",
    "dos_sweep": "phase lanes, first order; their verdict is still to come",
    "renewal_mean": "phase lanes, first order; their coupled gaps are not yet measured",
    "spectrum_oracle": "deterministic flat path: no sampling, a closed-form target",
}


def test_every_stepped_experiment_is_classified():
    stepped = {spec.name for spec in list_experiments() if "step" in spec.defaults}
    assert stepped == set(WITH_VERDICT) | set(WITHOUT_VERDICT)


@pytest.mark.parametrize("name", sorted(WITH_VERDICT))
def test_trapezoid_experiment_reports_one_step_bias_verdict(name):
    spec = get_experiment(name)
    result = spec.fn({**spec.defaults, **WITH_VERDICT[name]}, new_stream(3, 0))
    labels = [r.label for r in result.reports]
    assert labels.count("step bias h vs 2h") == 1
    # the verdict goes to the reports only, never into results.csv
    assert not any("step bias" in str(v) for row in result.rows for v in row.values())


@pytest.mark.parametrize("name", sorted(WITHOUT_VERDICT))
def test_experiment_without_a_verdict_keeps_the_fine_step(name):
    assert get_experiment(name).defaults["step"] <= 1e-3
