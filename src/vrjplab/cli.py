"""Command-line front end: seeded experiment runs with reproducible outputs.

    vrjplab list
    vrjplab run --name dos_sweep --seed 7 --param lam=100 --out results/

Each run writes <out>/<name>/results.csv (numeric table, shortest
round-trip decimals, byte-identical across reruns of the same config)
and manifest.json (the effective parameters, package and library
versions, the platform, the worker-pool size and BLAS thread settings,
timestamps, the experiment's wall and CPU seconds, the process's peak
resident set, verdicts).
Exit code 0 when every verdict passes, 1 otherwise, 2 on usage errors,
including parameters too small to form a statistic.
"""

from __future__ import annotations

import argparse
import csv
import json
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
from .stochastic import new_stream, pool_workers

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
            "params": _jsonable(self.params),
            "output_dir": str(self.config.output_dir),
            "artifact_version": self.artifact_version,
            # bit streams are pinned per numpy release
            "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                         "python": platform.python_version()},
            # not platform.platform(), whose `uname -p` child process, a copy
            # of this one, would count in RUSAGE_CHILDREN
            "platform": {"system": platform.system(), "release": platform.release(),
                         "machine": platform.machine()},
            # seeded draws do not depend on the worker count; the dense
            # inverse of explicit_inverse depends on the BLAS thread count
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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):
        return obj.item()
    return obj


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


def run(config: ExperimentConfig) -> RunManifest:
    """Execute a registered experiment and persist its results."""
    spec = get_experiment(config.name)
    params = dict(spec.defaults)
    for k, v in config.params.items():
        if k not in params:
            raise ValueError(f"unknown parameter '{k}' for experiment '{config.name}' "
                             f"(accepts: {sorted(params)})")
        params[k] = v
    started = datetime.now(timezone.utc).isoformat()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result: ExperimentResult = spec.fn(params, new_stream(config.seed, 0))
    elapsed_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
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


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValueError(f"parameter '{text}' is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


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
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            manifest = run(config)
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for v in manifest.verdicts:
            print(f"[{v['verdict'].upper():4s}] {v['label']}: "
                  f"stat={v['statistic']:.6g} crit={v['critical']:.6g}")
        print(f"results: {Path(out) / config.name}")
        return 0 if manifest.passed else 1

    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
