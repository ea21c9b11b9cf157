"""Command-line front end: seeded experiment runs with reproducible outputs.

    vrjplab list
    vrjplab run --name dos_sweep --seed 7 --param lam=100 --out results/
    vrjplab audit --seeds 0..39 [--name intertwining] --out results/

Each run writes <out>/<name>/results.csv (numeric table, shortest
round-trip decimals, byte-identical across reruns of the same config)
and manifest.json (the effective parameters, the stream epoch and bit
generator, package and library versions, the platform, the worker-pool
size and BLAS thread settings,
timestamps, the experiment's wall and CPU seconds, the process's peak
resident set, verdicts).
audit runs registered experiments at their defaults over a range of seeds,
each run in a fresh process, at most nproc at a time, and writes
<out>/audit/runs.csv (one row per run: the failed verdicts, elapsed_s, cpu_s,
peak_rss_mb and the sha256 of its results.csv, so that two audits' outputs
compare by a diff of their runs.csv) and <out>/audit/failures.csv (failed
seeds per experiment).
--param takes a JSON number or list, typed against the registered default
(_typed).  Exit code 0 when every verdict passes, 1 otherwise, 2 on usage errors:
malformed values, parameters too small to form a statistic, verdicts on no data.
"""

from __future__ import annotations

import argparse
import csv
import json
import numbers
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .experiments import ExperimentResult, get_experiment, list_experiments
from .stochastic import BIT_GENERATOR, STREAM_EPOCH, new_stream, pool_workers

OUTPUT_ENV_VAR = "VRJPLAB_OUT"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    params: dict = field(default_factory=dict)
    output_dir: Path = Path("vrjplab_out")


@dataclass
class RunManifest:
    config: ExperimentConfig
    params: dict              # the registered defaults with config.params applied
    artifact_version: str
    started: str
    finished: str
    result_files: list[str]
    verdicts: list[dict]
    elapsed_s: float          # wall seconds of the experiment itself
    cpu_s: float              # its CPU seconds, the pool threads' included
    peak_rss_mb: float        # the process's resident high-water mark at the end

    @property
    def passed(self) -> bool:
        return all(v["verdict"] == "pass" for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "name": self.config.name,
            "seed": self.config.seed,
            "params": self.params,
            "output_dir": str(self.config.output_dir),
            "artifact_version": self.artifact_version,
            # seeded draws are pinned per stream epoch, bit generator and numpy release
            "stream_epoch": STREAM_EPOCH,
            "bit_generator": BIT_GENERATOR,
            "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                         "python": platform.python_version()},
            # not platform.platform(), whose `uname -p` child process, a copy
            # of this one, would count in RUSAGE_CHILDREN
            "platform": {"system": platform.system(), "release": platform.release(),
                         "machine": platform.machine()},
            # seeded draws do not depend on the worker count
            "workers": pool_workers(),
            "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "started": self.started,
            "finished": self.finished,
            "elapsed_s": self.elapsed_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "result_files": self.result_files,
            "verdicts": self.verdicts,
            "passed": self.passed,
        }


def _format_cell(v) -> str:
    if hasattr(v, "item"):    # numpy scalar; np.float64's repr names its type
        v = v.item()
    return repr(v) if isinstance(v, float) else str(v)


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    fields = list(rows[0].keys())
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        for row in rows:
            w.writerow([_format_cell(row.get(k, "")) for k in fields])


def _typed(key: str, value, default):
    """value as the type of default: an int takes an integral number (1e4 is 10000), a float
    any real, a tuple a real or a list of them, as floats.  NaN and inf pass: layers refuse."""
    items = value if isinstance(value, (list, tuple)) else [value]
    if all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
        if isinstance(default, tuple):
            return tuple(float(v) for v in items)
        if items is not value and (isinstance(default, float)
                                   or isinstance(value, numbers.Integral)
                                   or float(value).is_integer()):
            return type(default)(value)
    raise ValueError(f"parameter '{key}' takes the type of its default {default!r}, not {value!r}")


def run(config: ExperimentConfig) -> RunManifest:
    """Execute a registered experiment and persist its results.

    Raises ValueError, before writing anything, on an unknown or ill-typed parameter
    (_typed), and on no verdict or one on no data (n < 1 or a critical not finite).
    """
    spec = get_experiment(config.name)
    params = dict(spec.defaults)
    for k, v in config.params.items():
        if k not in params:
            raise ValueError(f"unknown parameter '{k}' for experiment '{config.name}' "
                             f"(accepts: {sorted(params)})")
        params[k] = _typed(k, v, params[k])
    started = datetime.now(timezone.utc).isoformat()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result: ExperimentResult = spec.fn(params, new_stream(config.seed, 0))
    elapsed_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    if not result.reports or any(r.n < 1 or not np.isfinite(r.critical) for r in result.reports):
        raise ValueError(f"parameters of '{config.name}' form no verdict on data: {params}")
    finished = datetime.now(timezone.utc).isoformat()

    out_dir = Path(config.output_dir) / config.name
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    _write_csv(csv_path, result.rows)
    verdicts = [r.as_row() for r in result.reports]
    # ru_maxrss is in kilobytes on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    manifest = RunManifest(config, params, __version__, started, finished,
                           [csv_path.name], verdicts, elapsed_s, cpu_s, peak_rss_mb)
    (out_dir / "manifest.json").write_text(json.dumps(manifest.to_json(), indent=2))
    return manifest


def _audit_run(name: str, seed: int, out_dir: Path) -> dict:
    """One audit run at the registered defaults, in a child process: its row of runs.csv."""
    import hashlib
    import subprocess

    out = out_dir / f"seed{seed}"
    paths = [str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run([sys.executable, "-m", "vrjplab.cli", "run", "--name", name,
                           "--seed", str(seed), "--out", str(out)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)})
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{name} at seed {seed}: {proc.stderr.strip()}")
    manifest = json.loads((out / name / "manifest.json").read_text())
    failed = [v["label"] for v in manifest["verdicts"] if v["verdict"] != "pass"]
    results = hashlib.sha256((out / name / "results.csv").read_bytes()).hexdigest()
    return {"name": name, "seed": seed, "passed": manifest["passed"],
            "failed": "; ".join(failed), "elapsed_s": manifest["elapsed_s"],
            "cpu_s": manifest["cpu_s"], "peak_rss_mb": manifest["peak_rss_mb"],
            "results_sha256": results}


def audit(names: list[str], seeds: range, out_dir: Path) -> list[dict]:
    """Run every (name, seed) at the registered defaults; write runs.csv and failures.csv.

    Returns the rows of failures.csv, one per experiment.

    Each run is a `run` command in a fresh process, so its manifest's cpu_s
    and peak_rss_mb are its own.  One process per usable CPU runs at a time.
    """
    from concurrent.futures import ThreadPoolExecutor

    out_dir.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        rows = list(pool.map(lambda task: _audit_run(*task, out_dir),
                             [(name, seed) for seed in seeds for name in names]))
    _write_csv(out_dir / "runs.csv", rows)
    failures = []
    for name in names:
        failed = [str(r["seed"]) for r in rows if r["name"] == name and not r["passed"]]
        failures.append({"name": name, "runs": len(seeds), "failed_runs": len(failed),
                         "failed_seeds": " ".join(failed)})
    _write_csv(out_dir / "failures.csv", failures)
    return failures


def _parse_seeds(text: str) -> range:
    """Seeds A..B, both ends included."""
    lo, _, hi = text.partition("..")
    try:
        seeds = range(int(lo), int(hi) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        raise ValueError(f"seeds '{text}' are not of the form A..B with A <= B")
    return seeds


def _parse_param(text: str) -> tuple[str, object]:
    key, eq, raw = text.partition("=")
    try:
        return key, json.loads(raw if eq else "")    # no '=' is malformed too
    except json.JSONDecodeError:
        raise ValueError(f"parameter '{text}' is not of the form key=<JSON value>") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vrjplab",
        description="Verification experiments for the 1-D reinforced-walk operator lab")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run one registered experiment")
    p_run.add_argument("--name", required=True)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE", help="override a default parameter")
    p_run.add_argument("--out", default=None, help="output directory "
                       f"(default ${OUTPUT_ENV_VAR} or ./vrjplab_out)")

    p_audit = sub.add_parser("audit", help="run experiments over a range of seeds")
    p_audit.add_argument("--seeds", required=True, metavar="A..B")
    p_audit.add_argument("--name", action="append", default=None,
                         help="an experiment to audit (default: all of them)")
    p_audit.add_argument("--out", default=None, help="output directory "
                         f"(default ${OUTPUT_ENV_VAR} or ./vrjplab_out)")

    sub.add_parser("list", help="list registered experiments")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:          # argparse exits on --help and usage errors
        return 2 if exc.code else 0

    if args.command == "list":
        for spec in list_experiments():
            print(f"{spec.name:22s} {spec.description}")
            print(f"{'':22s}   checks: {spec.identity}")
        return 0

    if args.command == "run":
        out = args.out or os.environ.get(OUTPUT_ENV_VAR, "vrjplab_out")
        try:
            get_experiment(args.name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        try:
            params = dict(_parse_param(p) for p in args.param)
            config = ExperimentConfig(args.name, args.seed, params, Path(out))
            manifest = run(config)
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for v in manifest.verdicts:
            print(f"[{v['verdict'].upper():4s}] {v['label']}: "
                  f"stat={v['statistic']:.6g} crit={v['critical']:.6g}")
        print(f"results: {Path(out) / config.name}")
        return 0 if manifest.passed else 1

    if args.command == "audit":
        out = Path(args.out or os.environ.get(OUTPUT_ENV_VAR, "vrjplab_out")) / "audit"
        try:
            names = args.name or [spec.name for spec in list_experiments()]
            for name in names:
                get_experiment(name)
            seeds = _parse_seeds(args.seeds)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        try:
            failures = audit(names, seeds, out)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for f in failures:
            print(f"{f['name']:22s} {f['failed_runs']}/{f['runs']} failed"
                  + (f": seeds {f['failed_seeds']}" if f["failed_runs"] else ""))
        print(f"results: {out}")
        return 1 if any(f["failed_runs"] for f in failures) else 0

    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
