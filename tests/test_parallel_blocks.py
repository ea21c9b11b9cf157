"""The worker pool: seeded output for any worker count, one span per traced call.

The matrix samplers run their stream blocks on stochastic's private pool.
step_normals (read by exp_functional_walk and euler_maruyama_z) draws its
normals in the calling thread, a chunk of steps at a time, and the
phase-counting lane runs (dos_sweep, renewal_statistics) use no pool; the
walks must still equal a loop of one draw per step.  Swapping the pool for
one of 1, 2 or 3 threads must not move a single bit.  Pool tasks call
only untraced helpers (the path builder log_gbm_rows), so a traced
sampler records one span per call however many threads work for it.
"""

import contextlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import vrjplab.continuum_kernel as ck
import vrjplab.matsumoto_yor as my
import vrjplab.spectrum as sp
import vrjplab.stochastic as st
from vrjplab.experiments import get_experiment
from vrjplab.stochastic import exp_functional_walk, new_stream

from reference_paths import lane_counts

WORKER_COUNTS = (1, 2, 3)


@contextlib.contextmanager
def _pool_of(workers):
    # frequent thread switches, so that a task writing outside its own
    # slice or buffer would show
    saved, interval = st._POOL, sys.getswitchinterval()
    st._POOL = ThreadPoolExecutor(workers)
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        st._POOL.shutdown()
        st._POOL = saved


def _for_each_worker_count(fn):
    out = []
    for workers in WORKER_COUNTS:
        with _pool_of(workers):
            assert st.pool_workers() == workers
            out.append(fn())
    return out


def _assert_all_equal(results):
    first = results[0]
    for other in results[1:]:
        for a, b in zip(first, other):
            assert np.array_equal(a, b)


def test_matrix_samplers_identical_for_any_worker_count():
    # 4500 replicas: two full diagonal stream blocks of 2000 and a partial
    # one; 2500: two full quadratic-form blocks of 1000 and a partial one
    lam, step = 1.0, 1e-2

    def run():
        return (*ck.sample_kernel_diagonal(lam, 0.3, step, 4500, new_stream(5, 1)),
                *ck.sample_quadratic_form(lam, np.cos, step, 2500, new_stream(5, 2)))

    _assert_all_equal(_for_each_worker_count(run))


def test_dos_sweep_identical_for_any_worker_count():
    # 7 replicas; 402 cells of width 2.005/201, two lane blocks; and the
    # lane counts of the ratios of one whole draw per replica
    e_list, lam, replicas, step, s = [1.0, 4.0, 9.0], 2.005, 7, 1e-2, new_stream(5, 3)

    def run():
        return (sp.dos_sweep(e_list, lam, replicas, s, step),)

    results = _for_each_worker_count(run)
    half, h = st.grid_cells(lam, step)
    assert 2 * half > sp._LANE_BLOCK
    x = np.array([s.substream(r + 1).gen.standard_normal(2 * half) * math.sqrt(h)
                  for r in range(replicas)])
    ratios = np.concatenate([np.zeros((replicas, 1)), x[:, :-1] + x[:, 1:] - h], axis=1)
    results.append((lane_counts([(0, ratios)], replicas, h, e_list),))
    _assert_all_equal(results)


def _walk_serial(gen, n, h, nsteps, snaps):
    """One (n,) draw per step: the walk without draw chunks."""
    alpha, integ, prev, seen = np.zeros(n), np.zeros(n), np.ones(n), {}
    for k in range(1, nsteps + 1):
        alpha += gen.standard_normal(n) * math.sqrt(h)
        cur = np.exp(2.0 * alpha - k * h)
        integ += 0.5 * h * (prev + cur)
        prev = cur
        if k in snaps:
            seen[k] = (alpha.copy(), integ.copy())
    return alpha, integ, [seen[k] for k in snaps]


# 1000 replicas: chunks of 131 steps, the last one partial; more replicas
# than one chunk holds: chunks of one step
@pytest.mark.parametrize("n, nsteps", [(1000, 600), (st._DRAW_CHUNK_ELEMS + 7, 3)])
def test_walk_identical_for_any_worker_count(n, nsteps):
    rows = max(1, st._DRAW_CHUNK_ELEMS // n)
    assert nsteps > rows
    # the last step of the first chunk, the first of the second, the end
    snaps = (rows, rows + 1, nsteps)
    h = 1e-3

    def run():
        alpha, integ, _, at = exp_functional_walk(new_stream(8, 3).gen, n, h, nsteps, snaps)
        return [alpha, integ] + [x for snap in at for x in snap[:2]]

    results = _for_each_worker_count(run)
    alpha, integ, at = _walk_serial(new_stream(8, 3).gen, n, h, nsteps, snaps)
    results.append([alpha, integ] + [x for pair in at for x in pair])
    _assert_all_equal(results)


def _euler_serial(tmax, step, n_rep, s, batch=5000):
    """euler_maruyama_z without draw chunks: one draw per step and stream block.

    Replicas done .. done + batch - 1 draw from s.substream(done + 1).
    """
    nsteps = int(round(tmax / step))
    out = np.empty(n_rep)
    sq = math.sqrt(step)
    for done in range(0, n_rep, batch):
        b = min(batch, n_rep - done)
        gen = s.substream(done + 1).gen
        z = np.zeros(b)
        for _ in range(nsteps):
            dw = sq * gen.standard_normal(b)
            z = z + z * dw + (1.0 + z) * step
        out[done:done + b] = z
    return out


# 600 steps of 1000 replicas in one stream block, in chunks of 131 steps;
# and three steps of more replicas than a chunk holds, over 27 stream blocks
@pytest.mark.parametrize("n, tmax", [(1000, 0.6), (st._DRAW_CHUNK_ELEMS + 7, 0.003)])
def test_euler_maruyama_identical_for_any_worker_count(n, tmax):
    step = 1e-3
    results = _for_each_worker_count(
        lambda: [my.euler_maruyama_z(tmax, step, n, new_stream(8, 4))])
    results.append([_euler_serial(tmax, step, n, new_stream(8, 4))])
    _assert_all_equal(results)


def test_walk_leaves_the_generator_after_its_last_draw():
    gen, ref = new_stream(2, 0).gen, new_stream(2, 0).gen
    exp_functional_walk(gen, 1000, 1e-3, 600)
    ref.standard_normal(600 * 1000)
    assert gen.standard_normal() == ref.standard_normal()


def test_renewal_gaps_identical_for_any_worker_count():
    # three energies on the same 256 paths of about 1600 cells at step 1e-2;
    # and each energy run alone, whose lanes read the same paths
    e_levels, horizons, step = [1.0, 4.0, 9.0], [4000.0] * 3, 1e-2

    def run():
        return [g for lanes in sp.renewal_statistics(e_levels, horizons, new_stream(7, 0), step)
                for g in lanes]

    results = _for_each_worker_count(run)
    results.append([g for e, h in zip(e_levels, horizons)
                    for g in sp.renewal_statistics([e], [h], new_stream(7, 0), step)[0]])
    _assert_all_equal(results)


@pytest.mark.parametrize("e_level, horizon", [(-1.0, 50.0), (0.0, 50.0), (1.0, 0.0),
                                              (1.0, math.inf), (1.0, math.nan)])
def test_bad_renewal_argument_raises_before_any_draw(monkeypatch, e_level, horizon):
    # nothing is drawn, let alone run, before every energy and horizon is checked
    def no_draw(*args):
        raise AssertionError("drew before the arguments were checked")

    monkeypatch.setattr(sp, "brownian_increments", no_draw)
    monkeypatch.setattr(sp, "stream_blocks", no_draw)
    with pytest.raises(ValueError):
        sp.renewal_statistics([1.0, e_level], [50.0, horizon], new_stream(7, 0), 1e-2)


@pytest.mark.parametrize("params, message", [
    ({"e_list": []}, "e_list is empty"),
    ({"replicas": 0}, "replicas >= 1"),
    ({"e_list": [1.0, 0.0]}, "E must be positive"),
    ({"lam": 0.0}, "positive and finite"),
])
def test_bad_dos_sweep_argument_raises_before_any_draw(monkeypatch, params, message):
    # the sizes, energies and grid are checked before any path is drawn
    def no_draw(*args):
        raise AssertionError("drew before the arguments were checked")

    monkeypatch.setattr(sp, "brownian_increments", no_draw)
    monkeypatch.setattr(sp, "stream_blocks", no_draw)
    args = {"e_list": [1.0], "lam": 2.0, "replicas": 3, **params}
    with pytest.raises(ValueError, match=message):
        sp.dos_sweep(args["e_list"], args["lam"], args["replicas"], new_stream(7, 0), 1e-2)


def test_dos_sweep_experiment_refuses_one_replica_before_any_draw(monkeypatch):
    # a density CI needs two replicas; the experiment says so before the sweep
    def no_sweep(*args):
        raise AssertionError("swept before replicas was checked")

    monkeypatch.setattr(sp, "dos_sweep", no_sweep)
    spec = get_experiment("dos_sweep")
    with pytest.raises(ValueError, match="replicas >= 2"):
        spec.fn({**spec.defaults, "replicas": 1}, new_stream(7, 0))


THREADED_SAMPLERS = [
    (ck, "sample_kernel_diagonal",
     lambda f: f(1.0, 0.0, 1e-2, 4500, new_stream(1, 0))),
    (ck, "sample_quadratic_form",
     lambda f: f(1.0, np.cos, 1e-2, 2500, new_stream(1, 0))),
    (ck, "sample_dufresne_ratio", lambda f: f(0.5, 1e-3, 5000, new_stream(1, 0))),
    (ck, "sample_line_diagonal", lambda f: f(0.5, 1e-3, 3000, new_stream(1, 0))),
    (ck, "mbg_transform_check",
     lambda f: f(new_stream(1, 0), (0.5, 1.0, 2.0), 1000, 1e-2, 1.0)),
    (my, "sample_z_pathwise", lambda f: f(1.0, 1e-3, 1000, new_stream(1, 0))),
    (my, "euler_maruyama_z", lambda f: f(1.0, 1e-3, 1000, new_stream(1, 0))),
    (sp, "dos_sweep", lambda f: f([1.0, 4.0], 2.0, 7, new_stream(1, 0), 1e-2)),
    (sp, "renewal_statistics",
     lambda f: f([1.0, 4.0, 9.0], [500.0] * 3, new_stream(1, 0), 1e-2)),
]


@pytest.fixture
def tracer():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from tracing import Tracer
    finally:
        sys.path.pop(0)
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


@pytest.mark.parametrize("module, name, call", THREADED_SAMPLERS,
                         ids=[name for _, name, _ in THREADED_SAMPLERS])
def test_threaded_sampler_records_one_span(tracer, module, name, call):
    tracer.round = "r1"
    try:
        call(getattr(module, name))
    finally:
        tracer.round = None
    assert [s.name for s in tracer.spans] == [name]
