"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload phase_counting --seed 1 --seconds 45 --trace 0

A run sets up the program (``setup_s``: the median of five fresh processes,
each timed from spawn until vrjplab is imported and the workload's inputs are
built; one before the warm-up, the others between timed rounds), runs one
untimed warm-up round at the workload's tiny sizes, then timed rounds until
``--seconds`` have passed and at least three rounds are done.  ``round_s``
is the median round time, each round's wall time normalised to a reference
host speed by a probe loop timed while it runs (hostspeed.py); the raw wall
times go to the run record.  Every operation's output is checked after its
round, outside the timed region.  With ``--trace 1`` the layers are traced
and the per-layer metrics are printed instead of the end-to-end ones; layers
the workload does not call are then measured on one tiny reference round of
every workload.

The last line of standard output is the result object; a per-run record and
the spans of a traced run go to perfbench/out/.  When the program cannot be
run (for example, no src/vrjplab in the checkout) the exit code is non-zero
and no result is printed.
"""

from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool, set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostProbe, probe_time  # noqa: E402
from workloads import WORKLOADS, op_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 3
# set-up is timed once before the warm-up and once after each of the first
# timed rounds, so that its median spans the run's host spells, not one
SETUP_PROBES = 5


def _import_program():
    """Import vrjplab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "vrjplab" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'vrjplab'}")
    sys.path.insert(0, str(src))
    import vrjplab.cli
    if Path(vrjplab.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: vrjplab imported from {vrjplab.cli.__file__}")
    return vrjplab.cli


def build_round(cli, workload, seed: int, round_index: int, ops, out_dir: Path):
    """The operations of one round: (op, effective params, ExperimentConfig)."""
    from vrjplab.experiments import get_experiment
    round_ops = []
    for i, op in enumerate(ops):
        params = {**get_experiment(op.experiment).defaults, **op.params}
        config = cli.ExperimentConfig(op.experiment, op_seed(seed, round_index, i, op),
                                      dict(op.params), out_dir / workload)
        round_ops.append((op, params, config))
    return round_ops


def run_round(cli, round_ops, probe=None):
    """Run the operations; returns the round's wall time, their outputs and
    the host-speed probe times taken while they ran."""
    outputs = []
    if probe:
        probe.take()
    t0 = time.perf_counter()
    for _, _, config in round_ops:
        try:
            outputs.append(cli.run(config))
        except Exception as exc:  # an operation that raises is a failed operation
            outputs.append(exc)
    elapsed = time.perf_counter() - t0
    return elapsed, outputs, probe.take() if probe else []


def read_rows(config, manifest) -> list[dict]:
    """The rows of an operation's results.csv, as strings."""
    path = Path(config.output_dir) / config.name / manifest.result_files[0]
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_round(round_ops, outputs):
    """Check every output; returns per-op (failed, named faults) and the wrong checks."""
    from checks import Check, check_output, rejected  # scipy.stats: not part of set-up

    per_op = []
    for (op, params, config), out in zip(round_ops, outputs):
        if isinstance(out, Exception):
            per_op.append([Check(f"raised {type(out).__name__}: {out}", 0.0)])
            continue
        try:
            per_op.append(check_output(op.experiment, params, read_rows(config, out),
                                       out.verdicts))
        except (KeyError, ValueError, IndexError) as exc:
            per_op.append([Check(f"unreadable output: {exc!r}", 0.0)])
    n_checks = sum(len(c) for c in per_op)
    results, wrong = [], []
    for (op, _, config), checks in zip(round_ops, per_op):
        bad = rejected(checks, n_checks)
        faults = {c.fault for c in bad if c.fault}
        wrong += [f"{config.name} seed {config.seed}: {c.label} (p={c.p:.3g})"
                  for c in bad if not c.fault]
        results.append((bool(bad), sorted(faults)))
    return results, wrong


def setup_probe(workload: str, seed: int) -> None:
    """Child process of a set-up measurement: import, build inputs, say ready."""
    cli = _import_program()
    w = WORKLOADS[workload]
    build_round(cli, workload, seed, 1, w.ops, OUT / "vrjplab")
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Time one fresh process from spawn until it is ready to run the workload."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe exited with code {code}")
    return elapsed


def loc_per_module() -> dict[str, int]:
    return {p.name: sum(1 for line in p.read_text().splitlines() if line.strip())
            for p in sorted((ROOT / "src" / "vrjplab").glob("*.py"))}


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup_times = [measure_setup(args.workload, args.seed)]
    cli = _import_program()
    import numpy
    import scipy
    from tracing import Tracer, layer_metrics, per_layer_spec

    w = WORKLOADS[args.workload]
    out_dir = OUT / "vrjplab"
    attempted, failed = Counter(), Counter()
    faults, wrong = Counter(), []
    tracer = probe = None
    round_probe_times = []

    def do_round(index, ops, tag=None, count=True):
        round_ops = build_round(cli, w.name, args.seed, index, ops, out_dir)
        gc.collect()
        if tracer:
            tracer.round = tag
        elapsed, outputs, samples = run_round(cli, round_ops, probe)
        if tracer:
            tracer.round = None
        if probe:
            round_probe_times.append(probe_time(samples))
        results, bad = check_round(round_ops, outputs)
        wrong.extend(bad)
        if count:
            for (op, _, _), (op_failed, op_faults) in zip(round_ops, results):
                attempted[op.experiment] += 1
                failed[op.experiment] += op_failed
                faults.update(op_faults)
        return elapsed

    # warm-up, untimed and uncounted: the tiny profile runs the same code paths
    do_round(0, w.tiny, count=False)
    # round times are normalised by the host-speed probe (hostspeed.py);
    # a traced run reports raw layer times and runs no probe
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        probe = HostProbe(w.probe)
        probe.install()
    round_times = []
    t_start = time.perf_counter()
    try:
        while len(round_times) < MIN_ROUNDS or time.perf_counter() - t_start < args.seconds:
            round_times.append(do_round(len(round_times) + 1, w.ops, f"r{len(round_times) + 1}"))
            if len(setup_times) < SETUP_PROBES:
                setup_times.append(measure_setup(args.workload, args.seed))
    finally:
        if probe:
            probe.uninstall()
    while len(setup_times) < SETUP_PROBES:  # runs shorter than SETUP_PROBES - 1 rounds
        setup_times.append(measure_setup(args.workload, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loc": loc_per_module(),
        "ops": [{"experiment": op.experiment, "params": op.params,
                 "pinned_seed": op.pinned_seed} for op in w.ops],
        "attempted": dict(attempted), "failed": dict(failed), "faults": dict(faults),
        "wrong": wrong, "setup_s": setup_times, "round_wall_s": round_times,
        "peak_rss_mb": peak_rss_mb,
    }
    if probe:
        record.update(probe=probe.kind, round_probe_s=round_probe_times,
                      round_s=[probe.reference_s * t / p
                               for t, p in zip(round_times, round_probe_times)])
    if args.trace:
        # reference round: tiny sizes of every workload, for layers not called above
        reference = [op for wl in WORKLOADS.values() for op in wl.tiny]
        do_round(-1, reference, "reference", count=False)
        tracer.uninstall()
        rounds = [f"r{i}" for i in range(1, len(round_times) + 1)]
        metrics, source, work = layer_metrics(tracer.spans, rounds, "reference")
        record.update(layer_metrics=metrics, layer_source=source, work_per_round=work,
                      untraced=tracer.untraced)
        result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in per_layer_spec()}
    else:
        result_metrics = {
            "round_s": {"value": statistics.median(record["round_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(record["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}_seed{args.seed}_trace{args.trace}"
    if tracer:
        tracer.dump(OUT / f"{stem}_spans.json")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))
    for line in wrong:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": sum(attempted.values()),
                      "failed": sum(failed.values()), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
