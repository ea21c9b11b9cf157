"""CLI registry, persistence, reproducibility, parameter typing, exit codes, import cost."""

import ast
import csv
import dataclasses
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import vrjplab
from vrjplab import experiments, green_circle
from vrjplab.cli import ExperimentConfig, main, run
from vrjplab.experiments import get_experiment, list_experiments
from vrjplab.stochastic import new_stream


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
    t0, c0 = time.perf_counter(), time.process_time()
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
    assert data["platform"] == {"system": platform.system(), "release": platform.release(),
                                "machine": platform.machine()}
    # the worker-pool size (one thread per usable CPU) and the BLAS thread settings
    assert data["workers"] == len(os.sched_getaffinity(0))
    assert data["thread_env"] == {v: os.environ.get(v)
                                  for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    # the experiment's own wall and CPU time, and the process's peak resident set
    assert 0 < data["elapsed_s"] < time.perf_counter() - t0
    assert 0 < data["cpu_s"] <= time.process_time() - c0
    rss_now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 0 < data["peak_rss_mb"] <= rss_now
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header.startswith("E,")


def test_manifest_records_the_stream_epoch(tmp_path):
    # seeded draws are pinned by the stream epoch, the bit generator and the
    # numpy release together, so the manifest names all three
    run(ExperimentConfig("null_calibration", seed=3, params={"reps": 2, "n": 100},
                         output_dir=tmp_path))
    data = json.loads((tmp_path / "null_calibration" / "manifest.json").read_text())
    assert (data["stream_epoch"], data["bit_generator"]) == (2, "SFC64")
    assert data["bit_generator"] == type(new_stream(3, 0).gen.bit_generator).__name__
    assert data["versions"]["numpy"] == np.__version__


def test_explicit_inverse_refuses_a_short_long_double(tmp_path, monkeypatch, capsys):
    # where np.longdouble is float64 (MSVC) the oracle could not judge 1e-10
    monkeypatch.setattr(green_circle, "LONGDOUBLE_EPS", float(np.finfo(float).eps))
    assert main(["run", "--name", "explicit_inverse", "--out", str(tmp_path)]) == 2
    assert "needs the 80-bit type or wider" in capsys.readouterr().err
    assert not (tmp_path / "explicit_inverse").exists()


def test_manifest_starts_no_subprocess(tmp_path, monkeypatch):
    # platform.platform() runs `uname -p` in a forked subprocess, whose copy
    # of this process would be read as a child's peak in RUSAGE_CHILDREN
    def no_subprocess(*args, **kwargs):
        raise AssertionError("the manifest started a subprocess")

    monkeypatch.setattr(platform, "platform", no_subprocess)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    monkeypatch.setattr(os, "fork", no_subprocess)
    cfg = ExperimentConfig("mean_t1_quadrature", seed=5,
                           params={"e_list": [1.0]}, output_dir=tmp_path)
    assert run(cfg).passed


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


def test_main_key_error_inside_an_experiment_is_not_a_usage_error(tmp_path, monkeypatch):
    # only the registry lookup's KeyError means an unknown experiment name
    def broken(params, stream):
        raise KeyError("raised inside the experiment")

    spec = get_experiment("mean_t1_quadrature")
    monkeypatch.setitem(experiments._REGISTRY, spec.name, dataclasses.replace(spec, fn=broken))
    with pytest.raises(KeyError, match="raised inside the experiment"):
        main(["run", "--name", spec.name, "--out", str(tmp_path)])


@pytest.mark.parametrize("name, param, message", [
    ("renewal_mean", "horizon_crossings=10", "insufficient data"),
    ("renewal_mean", "horizon_crossings=500", "insufficient data"),
    ("intertwining", "length=0", "length >= 1"),
    ("intertwining", "length=1", "length >= 2"),
    ("matsumoto_yor_kernel", "length=1", "length >= 2"),
    ("spectrum_oracle", "step=2", "need more than the 4 circle nodes"),
    ("spectrum_oracle", "step=5", "need more than the 2 circle nodes"),
    ("mbg_corollary", "tail=0", "before the horizon"),
    ("dos_sweep", "lam=1.0 replicas=1", "at least 2 samples"),
    ("dos_sweep", "replicas=0", "replicas >= 2"),
    ("dos_sweep", "e_list=[]", "e_list is empty"),
    ("dufresne_diagonal", "t=-1.5 n=500 step=0.01", "t=-1.5 outside"),
    ("dufresne_diagonal", "t=2", "t=2.0 outside"),
    ("dufresne_diagonal", "step=-0.01", "positive and finite"),
    ("functional_identity", "lam=0", "positive and finite"),
    ("dos_sweep", "lam=0", "positive and finite"),
    ("dos_sweep", "e_list=[0.0]", "E must be positive"),
    ("dos_sweep", "e_list=[-1.0,4.0]", "E must be positive"),
    ("renewal_mean", "e_list=[1.0,0.0]", "E must be positive"),
    ("dos_sweep", "e_list=[NaN,4.0] lam=1 replicas=3", "E must be positive"),
    ("renewal_mean", "e_list=[NaN]", "E must be positive"),
    ("z_diffusion", "tmax=-1 n=200", "positive and finite"),
    ("z_diffusion", "step=0 n=200", "positive and finite"),
    ("z_diffusion", "tmax=NaN n=200", "positive and finite"),
    ("mbg_corollary", "step=0 n=200", "positive and finite"),
    ("renewal_mean", "e_list=[]", "form no verdict"),
    ("mean_t1_quadrature", "e_list=[]", "form no verdict"),
    ("null_calibration", "reps=0", "reps >= 1"),
    ("explicit_inverse", "n_fields=0", "form no verdict on data"),
    ("mbg_corollary", "n=1", "form no verdict on data"),
    ("intertwining", "n=0", "n_rep >= 1"),
    ("discrete_green_law", "lam=Infinity", "positive and finite"),
    ("discrete_green_law", "lam=NaN", "positive and finite"),
    ("dos_sweep", "lam=abc", "not of the form key=<JSON value>"),
    ("functional_identity", "n=2.5", "type of its default 10000, not 2.5"),
    ("dos_sweep", 'e_list=["a"]', "type of its default (1.0, 4.0, 9.0), not ['a']"),
    ("dos_sweep", "lam=true", "type of its default 200.0, not True"),
    ("dos_sweep", "lam=0.05 replicas=3", "no replica an eigenvalue below E = 1"),
])
def test_main_params_too_small_exit_2(tmp_path, capsys, name, param, message):
    # parameters too small to form a statistic or that form a verdict on no
    # data, a grid that cannot be built, a node off the grid, an energy E that
    # is not > 0 and a value that is not of its default's type are usage
    # errors, not verdicts, refused before any computation warns
    overrides = [arg for kv in param.split() for arg in ("--param", kv)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--name", name, *overrides, "--out", str(tmp_path)])
    assert [str(w.message) for w in caught] == []
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / name).exists()


def test_params_typed_against_the_defaults(tmp_path):
    # an int takes an integral float; a tuple takes a number, stored as floats
    def params_and_csv(sub, name, *params):
        args = [arg for kv in params for arg in ("--param", kv)]
        assert main(["run", "--name", name, *args, "--out", str(tmp_path / sub)]) == 0
        out = tmp_path / sub / name
        return (json.loads((out / "manifest.json").read_text())["params"],
                (out / "results.csv").read_bytes())

    p_float, csv_float = params_and_csv("a", "null_calibration", "reps=2", "n=1e4")
    p_int, csv_int = params_and_csv("b", "null_calibration", "reps=2", "n=10000")
    assert p_float["n"] == 10000 and isinstance(p_float["n"], int)
    assert p_float == p_int and csv_float == csv_int
    assert params_and_csv("c", "mean_t1_quadrature", "e_list=4")[0]["e_list"] == [4.0]
    # numpy scalars from a programmatic caller pass, as the defaults' types
    manifest = run(ExperimentConfig("null_calibration", seed=0, output_dir=tmp_path / "d",
                                    params={"reps": np.int64(2), "n": np.float64(100.0),
                                            "max_rate": np.float32(0.5)}))
    assert type(manifest.params["reps"]) is int and type(manifest.params["n"]) is int
    assert type(manifest.params["max_rate"]) is float


# conversions that cli._typed makes once for every run
_CONVERSIONS = ("int", "float", "np.atleast_1d", "math.ceil")


def _param_conversions(source: str) -> tuple[int, list[str]]:
    """(registered bodies, calls of a conversion on a p[...] subscript in them), by AST."""
    bodies, found = 0, []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and any(
                isinstance(d, ast.Call) and ast.unparse(d.func) == "register"
                for d in fn.decorator_list)):
            continue
        bodies += 1
        p = fn.args.args[0].arg
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) in _CONVERSIONS
                    and any(isinstance(a, ast.Subscript) and ast.unparse(a.value) == p
                            for a in node.args)):
                found.append(f"{fn.name}:{node.lineno}")
    return bodies, found


def test_experiment_bodies_do_not_convert_their_params():
    source = Path(experiments.__file__).read_text()
    assert _param_conversions(source) == (len(list_experiments()), [])
    # the census sees a conversion where one is written
    for old, new in (('p["n"], s)', 'int(p["n"]), s)'),
                     ('enumerate(p["lams"])', 'enumerate(np.atleast_1d(p["lams"]))'),
                     ('10 - p["min_pass"]', '10 - math.ceil(p["min_pass"])'),
                     ('p["bracket"] + 0.5', 'float(p["bracket"]) + 0.5')):
        assert source.count(old) == 1
        assert len(_param_conversions(source.replace(old, new))[1]) == 1


def _dead_defaults(sources: dict[str, str]) -> list[str]:
    """module.function(parameter) for each default that every call site passes, by AST.

    sources maps module names to their text.  A function's call sites are the
    calls of its name, bare or as an attribute, in any module; a function
    with none is not judged.  A call passes a parameter by keyword, or by
    position before any *args.  label is exempt: it is display text, not a run value.
    """
    defs, sites = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        # a method's first parameter is bound, so its call sites do not pass it
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
                   if isinstance(f, ast.FunctionDef)
                   and "staticmethod" not in map(ast.unparse, f.decorator_list)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defs.append((module, node, int(id(node) in methods)))
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                sites.setdefault(name, []).append(node)
    found = []
    for module, fn, bound in defs:
        a, calls = fn.args, sites.get(fn.name, [])
        positional = a.posonlyargs + a.args
        defaulted = [(i - bound, p.arg) for i, p in enumerate(positional)
                     if i >= len(positional) - len(a.defaults)]
        defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        for i, arg in defaulted:
            def passes(call):
                n_pos = next((k for k, x in enumerate(call.args) if isinstance(x, ast.Starred)),
                             len(call.args))
                return (i is not None and i < n_pos) or arg in (k.arg for k in call.keywords)
            if calls and arg != "label" and all(map(passes, calls)):
                found.append(f"{module}.{fn.name}({arg})")
    return sorted(found)


def test_no_layer_default_that_every_caller_overrides():
    # the registry holds every run value's default; a layer default that
    # every call site in the package passes is dead, and can go stale
    package = Path(vrjplab.__file__).parent
    sources = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    assert _dead_defaults(sources) == []
    # the census sees each default that every caller passes where one is written
    restored = {
        "stochastic": [("stream_id: int)", "stream_id: int = 0)")],
        "green_circle": [("method: Provenance)",
                          "method: Provenance = Provenance.EXPLICIT_FORMULA)")],
        "continuum_kernel": [("t_grid: tuple[float, ...], n_rep: int, step: float,\n"
                              "                        tail: float)",
                              "t_grid=(0.5, 1.0, 2.0), n_rep=10_000, step=1e-3, tail=40.0)")],
        "spectrum": [("twisted(gbm: SampledPath, k: int)", "twisted(gbm: SampledPath, k=8)"),
                     ("s: RngStream, step: float) -> list",
                      "s: RngStream, step=1e-3, min_count=100) -> list"),
                     ("s: RngStream, step: float) -> np.ndarray:",
                      "s: RngStream, step=1e-3) -> np.ndarray:")],
        "experiments": [('horizons, s, p["step"])', 'horizons, s, p["step"], min_count=1000)')],
    }
    mutated = dict(sources)
    for module, edits in restored.items():
        for old, new in edits:
            assert mutated[module].count(old) == 1, old
            mutated[module] = mutated[module].replace(old, new)
    assert _dead_defaults(mutated) == [
        "continuum_kernel.mbg_transform_check(n_rep)", "continuum_kernel.mbg_transform_check(step)",
        "continuum_kernel.mbg_transform_check(t_grid)", "continuum_kernel.mbg_transform_check(tail)",
        "green_circle.green_from_field(method)", "spectrum.dos_sweep(step)",
        "spectrum.fd_spectrum_twisted(k)", "spectrum.renewal_statistics(min_count)",
        "spectrum.renewal_statistics(step)", "stochastic.new_stream(stream_id)"]
    # and none that a call site leaves to its default
    mutated["cli"] = mutated["cli"].replace("new_stream(config.seed, 0)", "new_stream(config.seed)")
    assert "stochastic.new_stream(stream_id)" not in _dead_defaults(mutated)


def test_output_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VRJPLAB_OUT", str(tmp_path / "envout"))
    rc = main(["run", "--name", "mean_t1_quadrature", "--seed", "1",
               "--param", "e_list=[4.0]"])
    assert rc == 0
    assert (tmp_path / "envout/mean_t1_quadrature/results.csv").exists()


def _child_env() -> dict:
    """This environment with the vrjplab under test first on a child's PYTHONPATH.

    pytest's own ``pythonpath`` setting reaches only its own process.
    """
    paths = [str(Path(vrjplab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "vrjplab.cli", "list"],
                          capture_output=True, text=True, env=_child_env())
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


# scipy subpackages that importing vrjplab must not load: the package imports
# the ones it uses inside the functions that call them, so a run that never
# calls those (the phase-counting ones) does not pay their import time and
# memory.  Every test module imports scipy, so only a fresh interpreter can
# show what vrjplab loads.
HEAVY_SCIPY = ("scipy.special", "scipy.integrate", "scipy.sparse", "scipy.linalg",
               "scipy.optimize", "scipy.stats")

_HEAVY_LOADED = f"""
import sys
def heavy_loaded():
    return sorted(m for m in sys.modules if ".".join(m.split(".")[:2]) in {HEAVY_SCIPY!r})
"""


def _fresh_python(code: str, *args: str) -> dict:
    """Run code in a new interpreter that imports this vrjplab; its last line, as JSON."""
    proc = subprocess.run([sys.executable, "-c", _HEAVY_LOADED + code, *args],
                          capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argvs", [
    [["list"]],
    [["run", "--name", "renewal_mean", "--seed", "11",
      "--param", "e_list=[16.0]", "--param", "horizon_crossings=1100"],
     ["run", "--name", "dos_sweep", "--seed", "11",
      "--param", "lam=2.0", "--param", "replicas=3"]],
], ids=["list", "phase_runs"])
def test_cli_loads_no_heavy_scipy(tmp_path, argvs):
    argvs = [argv + ["--out", str(tmp_path)] if argv[0] == "run" else argv for argv in argvs]
    got = _fresh_python("""
import json
from vrjplab.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "loaded": heavy_loaded()}))
""", json.dumps(argvs))
    assert all(code in (0, 1) for code in got["codes"])
    assert got["loaded"] == []


# the first call of each route whose scipy import is made inside the call; one
# source text, run in a fresh interpreter and in this one, so the calls are the same
_DEFERRED_CALLS = """
import math
import numpy as np
from vrjplab import green_circle, spectrum, stochastic
from vrjplab.beta_field import sample_circle_field
from vrjplab.experiments import deterministic_flat_gbm
x = np.linspace(0.05, 20.0, 101)
field = sample_circle_field(9, 3.0, stochastic.new_stream(3, 1))
out = {
    "gamma_half": stochastic.inverse_gamma_half_cdf(x),
    "gaussian": stochastic.inverse_gaussian_cdf(x, 1.0, np.linspace(0.5, 40.0, 101)),
    "dense": green_circle.green_from_field(field, green_circle.Provenance.DENSE_SOLVE),
    "fd": spectrum.fd_spectrum_twisted(deterministic_flat_gbm(math.pi, 1e-2), k=8),
}
"""


def test_deferred_scipy_routes_give_the_same_bits_on_first_use(tmp_path):
    got = _fresh_python("""
import json
import vrjplab.cli
before = heavy_loaded()
""" + _DEFERRED_CALLS + """
np.savez(sys.argv[1], **out)
print(json.dumps({"before": before}))
""", str(tmp_path / "first.npz"))
    assert got["before"] == []
    first = np.load(tmp_path / "first.npz")
    here = {}
    exec(_DEFERRED_CALLS, here)
    assert sorted(first.files) == sorted(here["out"])
    for name, value in here["out"].items():
        assert np.array_equal(first[name], value), name


def test_mean_t1_quadrature_far_energies_run_without_scipy(tmp_path):
    # the double-exponential rule is numpy alone, and holds far from the
    # registered energies (an adaptive dblquad failed at both)
    got = _fresh_python("""
import json
from vrjplab.cli import main
codes = [main(["run", "--name", "mean_t1_quadrature", "--param", p, "--out", sys.argv[1]])
         for p in ("e_list=1e6", "e_list=1e-6")]
print(json.dumps({"codes": codes, "loaded": heavy_loaded()}))
""", str(tmp_path))
    assert got == {"codes": [0, 0], "loaded": []}


def test_audit_writes_runs_and_failures(tmp_path, capsys):
    # discrete_green_law's KS verdict fails at seed 19, one of its level-0.01
    # false fails over seeds 0-39, and passes at seed 18
    names = ["discrete_green_law", "matsumoto_yor_kernel"]
    argv = ["audit", "--seeds", "18..19", "--out", str(tmp_path)]
    assert main(argv + [a for name in names for a in ("--name", name)]) == 1
    out = tmp_path / "audit"
    runs = list(csv.DictReader((out / "runs.csv").open()))
    assert [(r["name"], r["seed"]) for r in runs] == [(n, s) for s in ("18", "19") for n in names]
    for r in runs:
        manifest = json.loads((out / f"seed{r['seed']}" / r["name"] / "manifest.json").read_text())
        assert r["passed"] == str(manifest["passed"])
        assert r["failed"] == "; ".join(v["label"] for v in manifest["verdicts"]
                                        if v["verdict"] == "fail")
        for key in ("elapsed_s", "cpu_s", "peak_rss_mb"):
            assert float(r[key]) == manifest[key] > 0
        results = (out / f"seed{r['seed']}" / r["name"] / "results.csv").read_bytes()
        assert r["results_sha256"] == hashlib.sha256(results).hexdigest()
    failures = {r["name"]: r for r in csv.DictReader((out / "failures.csv").open())}
    assert failures["discrete_green_law"]["failed_seeds"] == "19"
    assert failures["matsumoto_yor_kernel"]["failed_runs"] == "0"
    assert "discrete_green_law     1/2 failed: seeds 19" in capsys.readouterr().out


@pytest.mark.parametrize("args", [["--seeds", "5..2"], ["--seeds", "a..b"], ["--seeds", "3"],
                                  ["--seeds", "0..1", "--name", "nope"]])
def test_audit_usage_errors(tmp_path, args):
    assert main(["audit", "--out", str(tmp_path)] + args) == 2
    assert not (tmp_path / "audit").exists()


def test_audit_pool_is_imported_only_by_the_command():
    got = _fresh_python("""
import json
import vrjplab.cli
print(json.dumps({"loaded": [m for m in ("multiprocessing", "concurrent.futures.process")
                             if m in sys.modules]}))
""")
    assert got["loaded"] == []
