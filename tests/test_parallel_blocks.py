"""The worker pool: seeded output for any worker count, one span per traced call.

The matrix samplers run their stream blocks on stochastic's private pool,
and exp_functional_walk draws its normals on it one chunk ahead of the
steps.  Swapping the pool for one of 1, 2 or 3 threads must not move a
single bit.  Pool tasks call only untraced helpers, so a traced sampler
records one span per call however many threads work for it.
"""

import contextlib
import math
import os
import select
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import vrjplab.continuum_kernel as ck
import vrjplab.matsumoto_yor as my
import vrjplab.stochastic as st
from vrjplab.stochastic import exp_functional_walk, new_stream

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
        return (ck.sample_kernel_diagonal(lam, 0.3, step, 4500, new_stream(5, 1)),
                ck.sample_quadratic_form(lam, np.cos, step, 2500, new_stream(5, 2)))

    _assert_all_equal(_for_each_worker_count(run))


def _walk_serial(gen, n, h, nsteps, snaps):
    """One (n,) draw per step: the walk without draw-ahead."""
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
        alpha, integ, at = exp_functional_walk(new_stream(8, 3).gen, n, h, nsteps, snaps)
        return [alpha, integ] + [x for pair in at for x in pair]

    results = _for_each_worker_count(run)
    alpha, integ, at = _walk_serial(new_stream(8, 3).gen, n, h, nsteps, snaps)
    results.append([alpha, integ] + [x for pair in at for x in pair])
    _assert_all_equal(results)


def test_walk_leaves_the_generator_after_its_last_draw():
    gen, ref = new_stream(2, 0).gen, new_stream(2, 0).gen
    exp_functional_walk(gen, 1000, 1e-3, 600)
    ref.standard_normal(600 * 1000)
    assert gen.standard_normal() == ref.standard_normal()


def test_forked_child_builds_its_own_pool():
    # the parent's pool threads do not exist in a forked child; a child
    # that reused the pool would wait forever for its blocks
    def run():
        return ck.sample_kernel_diagonal(1.0, 0.0, 1e-2, 4500, new_stream(6, 0))

    want = run()
    assert st._POOL is not None
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(w, b"1" if np.array_equal(run(), want) else b"0")
        finally:
            os._exit(0)
    os.close(w)
    try:
        ready, _, _ = select.select([r], [], [], 60.0)
        answer = os.read(r, 1) if ready else b""
    finally:
        os.close(r)
        if not answer:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert answer == b"1"


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
