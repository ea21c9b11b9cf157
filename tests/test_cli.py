"""CLI registry, persistence, reproducibility, exit codes."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

from vrjplab.cli import ExperimentConfig, main, run
from vrjplab.experiments import get_experiment, list_experiments


def test_registry_contents():
    names = [spec.name for spec in list_experiments()]
    assert names == sorted(names)
    assert "matsumoto_yor_kernel" in names
    assert "dos_sweep" in names
    assert len(names) == 14
    for spec in list_experiments():
        assert spec.description
        assert spec.identity


def test_unknown_experiment():
    with pytest.raises(KeyError):
        get_experiment("nope")


def test_run_writes_results_and_manifest(tmp_path):
    cfg = ExperimentConfig("mean_t1_quadrature", seed=5,
                           params={"e_list": [1.0, 4.0]}, output_dir=tmp_path)
    manifest = run(cfg)
    assert manifest.passed
    out = tmp_path / "mean_t1_quadrature"
    assert (out / "results.csv").exists()
    data = json.loads((out / "manifest.json").read_text())
    assert data["passed"] is True
    assert data["seed"] == 5
    assert data["result_files"] == ["results.csv"]
    assert data["artifact_version"]
    # the effective parameters: registered defaults with the overrides applied
    defaults = get_experiment("mean_t1_quadrature").defaults
    assert data["params"] == {**{k: list(v) if isinstance(v, tuple) else v
                                 for k, v in defaults.items()}, "e_list": [1.0, 4.0]}
    assert data["versions"] == {"numpy": np.__version__, "scipy": scipy.__version__,
                                "python": platform.python_version()}
    # the worker-pool size (one thread per usable CPU) and the BLAS thread settings
    assert data["workers"] == len(os.sched_getaffinity(0))
    assert data["thread_env"] == {v: os.environ.get(v)
                                  for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header.startswith("E,")


def test_run_reproducibility_byte_identical(tmp_path):
    cfg1 = ExperimentConfig("null_calibration", seed=9,
                            params={"reps": 20, "n": 1000}, output_dir=tmp_path / "a")
    cfg2 = ExperimentConfig("null_calibration", seed=9,
                            params={"reps": 20, "n": 1000}, output_dir=tmp_path / "b")
    run(cfg1)
    run(cfg2)
    c1 = (tmp_path / "a/null_calibration/results.csv").read_bytes()
    c2 = (tmp_path / "b/null_calibration/results.csv").read_bytes()
    assert c1 == c2


def test_spectrum_oracle_rerun_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run(ExperimentConfig("spectrum_oracle", seed=11, output_dir=tmp_path / sub))
    c1 = (tmp_path / "a/spectrum_oracle/results.csv").read_bytes()
    c2 = (tmp_path / "b/spectrum_oracle/results.csv").read_bytes()
    assert c1 == c2


def test_run_rejects_unknown_param(tmp_path):
    cfg = ExperimentConfig("mean_t1_quadrature", seed=1,
                           params={"bogus": 1}, output_dir=tmp_path)
    with pytest.raises(ValueError, match="unknown parameter"):
        run(cfg)


def test_main_list_and_exit_codes(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "dos_sweep" in out and "checks:" in out

    rc = main(["run", "--name", "no_such", "--out", str(tmp_path / "none")])
    assert rc == 2
    assert not (tmp_path / "none").exists()   # nothing written on failure

    rc = main(["run", "--name", "mean_t1_quadrature", "--seed", "3",
               "--param", "e_list=[1.0]", "--out", str(tmp_path)])
    assert rc == 0

    rc = main(["run", "--name", "mean_t1_quadrature",
               "--param", "notkeyvalue", "--out", str(tmp_path)])
    assert rc == 2



@pytest.mark.parametrize("name, param, message", [
    ("renewal_mean", "horizon_crossings=10", "insufficient data"),
    ("renewal_mean", "horizon_crossings=500", "insufficient data"),
    ("intertwining", "length=0", "length >= 1"),
    ("dos_sweep", "lam=1.0 replicas=1", "at least 2 samples"),
    ("dufresne_diagonal", "t=-1.5 n=500 step=0.01", "t=-1.5 outside"),
    ("dufresne_diagonal", "t=2", "t=2 outside"),
    ("dufresne_diagonal", "step=-0.01", "positive and finite"),
    ("functional_identity", "lam=0", "positive and finite"),
    ("dos_sweep", "lam=0", "positive and finite"),
    ("z_diffusion", "tmax=-1 n=200", "positive and finite"),
    ("z_diffusion", "step=0 n=200", "positive and finite"),
    ("z_diffusion", "tmax=0.0004 n=200", "at least one step"),
    ("mbg_corollary", "step=0 n=200", "positive and finite"),
])
def test_main_params_too_small_exit_2(tmp_path, capsys, name, param, message):
    # parameters too small to form a statistic, a grid that cannot be built
    # and a node off the grid are usage errors, not verdicts
    overrides = [arg for kv in param.split() for arg in ("--param", kv)]
    rc = main(["run", "--name", name, *overrides, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / name).exists()


def test_output_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VRJPLAB_OUT", str(tmp_path / "envout"))
    rc = main(["run", "--name", "mean_t1_quadrature", "--seed", "1",
               "--param", "e_list=[4.0]"])
    assert rc == 0
    assert (tmp_path / "envout/mean_t1_quadrature/results.csv").exists()


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "vrjplab.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "renewal_mean" in proc.stdout


def test_numpy_scalars_written_as_plain_decimals(tmp_path):
    cfg = ExperimentConfig("dos_sweep", seed=2,
                           params={"lam": 2.0, "replicas": 3, "e_list": [1.0, 4.0]},
                           output_dir=tmp_path)
    run(cfg)
    text = (tmp_path / "dos_sweep/results.csv").read_text()
    assert "np." not in text
    assert text.splitlines()[1].startswith("1.0,")
