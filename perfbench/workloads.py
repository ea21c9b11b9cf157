"""The benchmark's workloads: which registered experiments a round calls.

A round calls each of a workload's operations once.  An operation is one
call of ``vrjplab.cli.run`` on a registered experiment with parameter
overrides; everything else about the experiment comes from its registered
defaults, so the benchmark keeps working when module internals change.

Every workload has a full profile (what the timed runs measure) and a tiny
profile (what the warm-up, the self-test and the traced reference round run).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The explicit-vs-dense inverse comparison fails on seed-dependent fields
# (cond(H) up to ~1e10 against a fixed 1e-10 tolerance).  Running it on one
# pinned seed that shows the fault makes it fail on every call, so the failed
# share of a run is exact whatever the workload seed.
EXPLICIT_INVERSE_SEED = 29


@dataclass(frozen=True)
class Op:
    experiment: str
    params: dict = field(default_factory=dict)
    pinned_seed: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    tiny: tuple[Op, ...]
    probe: str  # host-speed probe whose work resembles the workload's (hostspeed.py)


STEPWISE = (Op("dufresne_ratio", {"n": 1000}),
            Op("mbg_corollary", {"n": 1000}),
            Op("z_diffusion", {"n": 1000}))
BATCHED = (Op("dufresne_diagonal"),
           Op("functional_identity"),
           Op("discrete_green_law"),
           Op("explicit_inverse", pinned_seed=EXPLICIT_INVERSE_SEED),
           Op("matsumoto_yor_kernel"),
           Op("intertwining"),
           Op("null_calibration"),
           Op("mean_t1_quadrature"),
           Op("spectrum_oracle"))

WORKLOADS = {w.name: w for w in (
    Workload(
        "phase_counting",
        "the per-cell phase loop: 150 equal-length paths with lanes to batch, "
        "then one multi-million-cell path per energy with none, whose memory grows with length",
        (Op("dos_sweep", {"lam": 5.0}),
         Op("renewal_mean", {"horizon_crossings": 1100.0})),
        (Op("dos_sweep", {"lam": 40.0, "replicas": 6, "e_list": [16.0]}),
         Op("renewal_mean", {"e_list": [16.0], "horizon_crossings": 1100.0})),
        "interpreter",
    ),
    Workload(
        "ensemble_samplers",
        "replica ensembles: tens of thousands of small numpy steps per call, whole "
        "(replica x grid) arrays, the discrete-circle layers, KS and quadrature",
        STEPWISE + BATCHED,
        (Op("dufresne_ratio", {"lams": [0.1, 1.0], "n": 200}),
         Op("mbg_corollary", {"n": 200, "tail": 5.0}),
         Op("z_diffusion", {"n": 200, "tmax": 0.5}),
         Op("dufresne_diagonal", {"lam": 0.5, "step": 1e-2, "n": 500}),
         Op("functional_identity", {"lam": 0.5, "step": 1e-2, "n": 500}),
         Op("discrete_green_law", {"n": 500}),
         Op("explicit_inverse", {"n_fields": 3, "max_dim": 41}),
         Op("matsumoto_yor_kernel", {"n": 500}),
         Op("intertwining", {"n": 5000}),
         Op("null_calibration", {"reps": 20, "n": 200}),
         Op("mean_t1_quadrature", {"e_list": [4.0]}),
         Op("spectrum_oracle")),
        "numpy",
    ),
)}


def op_seed(seed: int, round_index: int, op_index: int, op: Op) -> int:
    """Seed of one operation: distinct per (workload seed, round, op)."""
    if op.pinned_seed is not None:
        return op.pinned_seed
    return (seed * 1_000_003 + round_index) * 64 + op_index
