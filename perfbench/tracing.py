"""Per-layer tracing: spans around the program's public layer functions.

The tracer replaces each traced function at every ``vrjplab`` module binding
that holds it (``from .stats import ks_one_sample`` makes a second binding),
so calls between modules pass through the wrapper.  Spans (name, start, end,
parent, round) are kept in memory and written once at the end.  Work counts
come from call arguments, so they repeat exactly from round to round.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass


def _cells(t0, t1, step):
    return int(math.ceil((t1 - t0) / step - 1e-9))


def _green_layer(a):
    return ("green_circle.dense" if a["method"].name == "DENSE_SOLVE"
            else "green_circle.explicit")


# (module, function, layer or layer-of-arguments, work-of-arguments or None).
# A layer's work unit is the one its rate metric divides by busy time.
LAYER_FUNCTIONS = [
    ("spectrum", "phase_propagate", "spectrum.phase",
     lambda a: a["gbm"].values.size - 1),
    ("spectrum", "dos_sweep", "spectrum.dos", None),
    ("spectrum", "renewal_statistics", "spectrum.renewal", None),
    ("spectrum", "fd_spectrum_twisted", "spectrum.fd_eigsh", None),
    ("spectrum", "mean_t1_quadrature", "spectrum.quadrature", None),
    ("stochastic", "sample_brownian_path", "stochastic.path",
     lambda a: _cells(a["t0"], a["t1"], a["step"])),
    ("stochastic", "sample_inverse_gaussian", "stochastic.ig",
     lambda a: 1 if a["size"] is None else int(a["size"])),
    ("beta_field", "sample_circle_field", "beta_field.field",
     lambda a: 2 * int(a["size"]) + 1),
    ("green_circle", "green_from_field", _green_layer, None),
    ("green_circle", "invert_R_explicit", "green_circle.explicit", None),
    ("green_circle", "green_entries_from_a", "green_circle.entries_from_a", None),
    ("matsumoto_yor", "build_my_chains", "matsumoto_yor.chain", None),
    ("matsumoto_yor", "kernel_step", "matsumoto_yor.kernel_step", None),
    ("matsumoto_yor", "sample_z_pathwise", "matsumoto_yor.z",
     lambda a: a["n_rep"] * int(round(a["tmax"] / a["step"]))),
    ("matsumoto_yor", "euler_maruyama_z", "matsumoto_yor.z",
     lambda a: a["n_rep"] * int(round(a["tmax"] / a["step"]))),
    ("continuum_kernel", "sample_dufresne_ratio", "continuum_kernel.stepwise",
     lambda a: a["n_rep"] * max(1, _cells(0.0, a["lam"], a["step"]))),
    ("continuum_kernel", "sample_line_diagonal", "continuum_kernel.stepwise",
     lambda a: a["n_rep"] * max(1, _cells(0.0, a["horizon"], a["step"]))),
    ("continuum_kernel", "mbg_transform_check", "continuum_kernel.stepwise",
     lambda a: a["n_rep"] * int(round((max(a["t_grid"]) + a["tail"]) / a["step"]))),
    ("continuum_kernel", "sample_kernel_diagonal", "continuum_kernel.matrix",
     lambda a: a["n_rep"] * 2 * max(1, _cells(0.0, a["lam"], a["step"]))),
    ("continuum_kernel", "sample_quadratic_form", "continuum_kernel.matrix",
     lambda a: a["n_rep"] * 2 * max(1, _cells(0.0, a["lam"], a["step"]))),
    ("stats", "ks_one_sample", "stats.ks", lambda a: len(a["samples"])),
    ("stats", "ks_two_sample", "stats.ks", lambda a: len(a["a"]) + len(a["b"])),
]

# Layer -> name of its rate metric (work units per busy second), if it has one.
LAYERS = {
    "spectrum.phase": "spectrum.phase_cells_per_s",
    "spectrum.dos": None,
    "spectrum.renewal": None,
    "spectrum.fd_eigsh": None,
    "spectrum.quadrature": None,
    "stochastic.path": "stochastic.path_cells_per_s",
    "stochastic.ig": "stochastic.ig_draws_per_s",
    "beta_field.field": "beta_field.field_vertices_per_s",
    "green_circle.explicit": None,
    "green_circle.dense": None,
    "green_circle.entries_from_a": None,
    "matsumoto_yor.chain": None,
    "matsumoto_yor.kernel_step": None,
    "matsumoto_yor.z": "matsumoto_yor.z_replica_steps_per_s",
    "continuum_kernel.stepwise": "continuum_kernel.stepwise_replica_steps_per_s",
    "continuum_kernel.matrix": "continuum_kernel.matrix_replica_cells_per_s",
    "stats.ks": "stats.ks_samples_per_s",
    "experiments": None,   # experiment bodies
    "cli": None,           # cli.run; its self time is CSV and manifest persistence
}


def metric_names(layer: str) -> dict[str, str]:
    """Metric name of each figure of a layer: calls, busy, self and rate."""
    sep = "." if layer in ("experiments", "cli") else "_"
    names = {"calls": f"{layer}{sep}calls", "busy": f"{layer}{sep}busy_s",
             "self": f"{layer}{sep}{'persist_s' if layer == 'cli' else 'self_s'}"}
    if LAYERS[layer]:
        names["rate"] = LAYERS[layer]
    return names


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in output order."""
    out = []
    for layer in LAYERS:
        n = metric_names(layer)
        out.append({"name": n["calls"], "unit": "count", "better": "lower"})
        out.append({"name": n["busy"], "unit": "s", "better": "lower"})
        out.append({"name": n["self"], "unit": "s", "better": "lower"})
        if "rate" in n:
            out.append({"name": n["rate"], "unit": "1/s", "better": "higher"})
    return out


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    round: str
    work: int | None


class Tracer:
    """Records spans while ``round`` is set; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.untraced: list[str] = []

    def _wrap(self, fn, name, layer, work):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.round is None:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = Span(name, layer(a) if callable(layer) else layer, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.round,
                        work(a) if work else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _patch_everywhere(self, target, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "vrjplab" or mod_name.startswith("vrjplab."):
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def install(self) -> None:
        import vrjplab.cli
        import vrjplab.experiments  # noqa: F401  (registers the experiments)

        for mod_name, fn_name, layer, work in LAYER_FUNCTIONS:
            mod = sys.modules.get(f"vrjplab.{mod_name}")
            target = getattr(mod, fn_name, None)
            if target is None:
                self.untraced.append(f"{mod_name}.{fn_name}")
                continue
            self._patch_everywhere(target, self._wrap(target, fn_name, layer, work))

        get_experiment = vrjplab.cli.get_experiment

        def traced_get_experiment(name):
            spec = get_experiment(name)
            return dataclasses.replace(
                spec, fn=self._wrap(spec.fn, name, "experiments", None))

        self._patched.append((vrjplab.cli, "get_experiment", get_experiment))
        vrjplab.cli.get_experiment = traced_get_experiment
        run = vrjplab.cli.run
        self._patched.append((vrjplab.cli, "run", run))
        vrjplab.cli.run = self._wrap(run, "run", "cli", None)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh)


def layer_metrics(spans: list[Span], rounds: list[str],
                  fallback_round: str) -> tuple[dict, dict, dict]:
    """Per-layer metrics, the source of each layer and its work per round.

    Metrics are per-round medians of calls, busy and self seconds, and work
    per busy second over all rounds.  A layer the rounds never call is
    reported from ``fallback_round`` instead.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    by = {}
    for i, s in enumerate(spans):
        nested = False
        p = s.parent
        while p is not None:
            if spans[p].layer == s.layer:
                nested = True
                break
            p = spans[p].parent
        f = by.setdefault((s.layer, s.round), {"calls": 0, "busy": 0.0, "self": 0.0,
                                               "work": 0})
        f["self"] += (s.end - s.start) - child[i]
        if not nested:
            f["calls"] += 1
            f["busy"] += s.end - s.start
            f["work"] += s.work or 0
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0}
    metrics, source, work = {}, {}, {}
    for layer in LAYERS:
        use = rounds
        if not any((layer, r) in by for r in rounds):
            use = [fallback_round]
        source[layer] = "workload" if use is rounds else "reference"
        figs = [by.get((layer, r), empty) for r in use]
        names = metric_names(layer)
        metrics[names["calls"]] = statistics.median(f["calls"] for f in figs)
        metrics[names["busy"]] = statistics.median(f["busy"] for f in figs)
        metrics[names["self"]] = statistics.median(f["self"] for f in figs)
        if "rate" in names:
            busy = sum(f["busy"] for f in figs)
            metrics[names["rate"]] = sum(f["work"] for f in figs) / busy if busy else 0.0
            work[layer] = statistics.median(f["work"] for f in figs)
    return metrics, source, work
