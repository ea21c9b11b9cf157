"""The worker pool: seeded output for any worker count, one span per traced call.

The matrix samplers run their stream blocks on stochastic's private pool,
and step_normals (read by exp_functional_walk and euler_maruyama_z) draws
its normals on it one chunk ahead of the steps.  renewal_statistics
spreads its scans over one bin per pool worker, cutting long paths into
pieces, and runs every bin after the first in a forked child.  Swapping
the pool for one of 1, 2 or 3 threads must not move a single bit, and
neither may the cuts, a warm-up too short to merge, or a fallback rescan.
Pool tasks and forked children call only untraced helpers (the path
builder log_gbm_rows, the increment streamer brownian_increments, the
renewal bin job _scan_bin), so a traced sampler records one span per call
however many threads or processes work for it.  A child's error, a child
that dies and an error in this process each end the call with every child
reaped.
"""

import contextlib
import inspect
import math
import multiprocessing
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
import vrjplab.spectrum as sp
import vrjplab.stochastic as st
from vrjplab.stochastic import exp_functional_walk, grid_cells, new_stream

from reference_paths import renewal_gaps_whole_path

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
    results.append((sp._lane_counts([(0, ratios)], replicas, h, e_list),))
    _assert_all_equal(results)


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
        alpha, integ, _, at = exp_functional_walk(new_stream(8, 3).gen, n, h, nsteps, snaps)
        return [alpha, integ] + [x for snap in at for x in snap[:2]]

    results = _for_each_worker_count(run)
    alpha, integ, at = _walk_serial(new_stream(8, 3).gen, n, h, nsteps, snaps)
    results.append([alpha, integ] + [x for pair in at for x in pair])
    _assert_all_equal(results)


def _euler_serial(tmax, step, n_rep, s):
    """euler_maruyama_z as it was: one (n_rep,) draw per step, no draw-ahead."""
    nsteps = int(round(tmax / step))
    z = np.zeros(n_rep)
    sq = math.sqrt(step)
    for _ in range(nsteps):
        dw = sq * s.gen.standard_normal(n_rep)
        z = z + z * dw + (1.0 + z) * step
    return z


# the same chunk shapes as the walk test: 600 steps of 1000 replicas, and
# three one-step chunks of more replicas than a chunk holds
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


# three energies, 5000 cells of width 1e-2 each: too short to cut, so the
# bins hold whole paths, [[0, 1], [2]] at two workers and one path each at
# three
RENEWAL_JOBS = ([1.0, 4.0, 9.0], [50.0, 50.0, 50.0], 1e-2)


def _renewal(e_levels, horizons, step, min_count=1):
    streams = [new_stream(7, k + 1) for k in range(len(e_levels))]
    return sp.renewal_statistics(e_levels, horizons, streams, step, min_count)


def _assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    # a wait that never ends fails the test instead of hanging it
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    saved = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved)


def test_renewal_gaps_identical_for_any_worker_count():
    e_levels, horizons, step = RENEWAL_JOBS

    def run():
        with _deadline(60):
            gaps = _renewal(e_levels, horizons, step)
        _assert_no_child_left()
        return gaps

    results = _for_each_worker_count(run)
    alone = [sp.renewal_statistics([e], [h], [new_stream(7, k + 1)], step, 1)[0]
             for k, (e, h) in enumerate(zip(e_levels, horizons))]
    results.append(alone)
    assert all(g.size > 10 for g in alone)
    _assert_all_equal(results)


def test_child_error_reaches_the_parent(monkeypatch):
    # with two workers the bin of E = 9 runs in a child; it fails there, and
    # its error arrives as it would have been raised here
    e_levels, horizons, step = RENEWAL_JOBS
    sizes = [grid_cells(h, step)[0] for h in horizons]
    bins = sp._renewal_bins(sizes, 2, sp._warm_cells(step))
    assert [[k for k, _, _ in b] for b in bins] == [[0, 1], [2]]
    scan_bin = sp._scan_bin

    def fails_at_nine(pieces):
        if any(e_level == 9.0 for e_level, *_ in pieces):
            raise RuntimeError(f"no scan at E=9 in a bin of {len(pieces)} pieces")
        return scan_bin(pieces)

    with pytest.raises(RuntimeError, match="no scan at E=9") as here:
        fails_at_nine([(9.0, new_stream(7, 3), step, 0, sizes[2])])
    monkeypatch.setattr(sp, "_scan_bin", fails_at_nine)
    with _pool_of(2), _deadline(60):
        with pytest.raises(RuntimeError) as err:
            _renewal(e_levels, horizons, step)
    assert type(err.value) is RuntimeError and str(err.value) == str(here.value)
    _assert_no_child_left()


def test_child_that_dies_without_reply_raises(monkeypatch):
    parent = os.getpid()
    scan_bin = sp._scan_bin

    def dies_in_a_child(pieces):
        if os.getpid() != parent:
            os._exit(1)
        return scan_bin(pieces)

    monkeypatch.setattr(sp, "_scan_bin", dies_in_a_child)
    e_levels, horizons, step = RENEWAL_JOBS
    with _pool_of(2), _deadline(60):
        with pytest.raises(RuntimeError, match="exited with code 1 without a result"):
            _renewal(e_levels, horizons, step)
    _assert_no_child_left()


def test_parent_error_terminates_running_children(monkeypatch):
    # the bin in this process fails at once while the child scans its half
    # of a path of 1e8 cells (tens of seconds): the child is terminated and
    # reaped, not waited for
    parent = os.getpid()
    scan_bin = sp._scan_bin

    def fails_here(pieces):
        if os.getpid() == parent:
            raise ValueError("the bin of this process failed")
        return scan_bin(pieces)

    monkeypatch.setattr(sp, "_scan_bin", fails_here)
    e_levels, horizons, step = [1.0], [1e6], 1e-2
    with _pool_of(2), _deadline(10):
        with pytest.raises(ValueError, match="the bin of this process failed"):
            _renewal(e_levels, horizons, step)
    _assert_no_child_left()


@pytest.mark.parametrize("e_level, horizon", [(-1.0, 50.0), (0.0, 50.0), (1.0, 0.0),
                                              (1.0, math.inf), (1.0, math.nan)])
def test_bad_renewal_argument_raises_before_any_fork(monkeypatch, e_level, horizon):
    def no_fork(fn, jobs):
        raise AssertionError("forked before the arguments were checked")

    monkeypatch.setattr(sp, "map_forked", no_fork)
    with pytest.raises(ValueError):
        _renewal([1.0, e_level], [50.0, horizon], 1e-2)


# paths of 400k and 100k cells: two and three workers cut the first one
# past its warm-up
CUT_JOBS = ([1.0, 4.0], [4000.0, 1000.0], 1e-2)


def _cuts(e_levels, horizons, step, workers):
    """The cut pieces (lo > 0) of renewal_statistics' bins for this many workers."""
    sizes = [grid_cells(h, step)[0] for h in horizons]
    bins = sp._renewal_bins(sizes, workers, sp._warm_cells(step))
    return [(k, lo) for b in bins for k, lo, _ in b if lo > 0]


def _whole_path_gaps(e_levels, horizons, step):
    return [renewal_gaps_whole_path(e, h, new_stream(7, k + 1), step)
            for k, (e, h) in enumerate(zip(e_levels, horizons))]


def _count_fallbacks(monkeypatch):
    # the fallback rescans are the _scan calls given a piece to merge with
    calls = []
    scan = sp._scan

    def counted(*args, **kwargs):
        call = inspect.signature(scan).bind(*args, **kwargs).arguments
        if call.get("merge") is not None:
            calls.append(call)
        return scan(*args, **kwargs)

    monkeypatch.setattr(sp, "_scan", counted)
    return calls


def test_renewal_gaps_identical_across_cuts():
    e_levels, horizons, step = CUT_JOBS
    assert _cuts(e_levels, horizons, step, 1) == []
    for workers in (2, 3):
        assert any(lo > sp._warm_cells(step) for _, lo in _cuts(e_levels, horizons, step, workers))

    def run():
        with _deadline(60):
            gaps = _renewal(e_levels, horizons, step)
        _assert_no_child_left()
        return gaps

    results = _for_each_worker_count(run)
    results.append(_whole_path_gaps(e_levels, horizons, step))
    _assert_all_equal(results)


def test_every_cut_falls_back_without_warm_up(monkeypatch):
    # a warm-up of 3 cells from psi = 0 never lands on the true angle, so
    # every cut is rescanned from the true state, and the gaps do not move
    e_levels, horizons, step = CUT_JOBS
    monkeypatch.setattr(sp, "_WARM_TIME", 3 * step)
    assert sp._warm_cells(step) == 3
    fallbacks = _count_fallbacks(monkeypatch)
    cuts = _cuts(e_levels, horizons, step, 3)
    assert len(cuts) >= 2
    with _pool_of(3), _deadline(60):
        gaps = _renewal(e_levels, horizons, step)
    assert len(fallbacks) == len(cuts)
    _assert_all_equal([gaps, _whole_path_gaps(e_levels, horizons, step)])


def test_fallback_that_never_merges_rescans_to_the_end():
    # an earlier scan one ulp off at every chunk end never merges: the
    # fallback rescans every cell up to hi, and its records and end angles
    # are those of a plain scan from the true angle
    e_level, step, lo, hi = 1.0, CUT_JOBS[2], 5 * sp._SCAN_CHUNK, 10 * sp._SCAN_CHUNK
    s = new_stream(7, 1)

    def scan_from_lo(psi, merge=None):
        return sp._scan(sp._renewal_chunks(s, hi, step, lo), step, e_level, lo, hi, lo, psi,
                        merge)

    entry = sp._scan(sp._renewal_chunks(s, hi, step, 0), step, e_level, lo, hi).entry
    plain = scan_from_lo(entry)
    off = sp._Piece(lo, hi, entry, [],
                    {end: math.nextafter(psi, math.inf) for end, psi in plain.ends.items()})
    got = scan_from_lo(entry, off)
    assert len(plain.ends) == 5 and plain.records
    assert got.records == plain.records and got.ends == plain.ends


def _assert_merges_at_every_cut(monkeypatch, workers, e_levels, horizons, step, min_cuts):
    # every cut past its warm-up, each warm-up reaching the true angle bit
    # for bit, with no fallback rescan
    monkeypatch.setattr(sp, "pool_workers", lambda: workers)
    fallbacks = _count_fallbacks(monkeypatch)
    cuts = _cuts(e_levels, horizons, step, workers)
    assert len(cuts) >= min_cuts and all(lo > sp._warm_cells(step) for _, lo in cuts)
    with _pool_of(2), _deadline(120):
        gaps = _renewal(e_levels, horizons, step)
    assert fallbacks == []
    _assert_all_equal([gaps, _whole_path_gaps(e_levels, horizons, step)])


def test_warm_up_merges_at_every_cut(monkeypatch):
    # 22 bins over two 600k-cell paths at step 1e-3 cut each path ten times
    _assert_merges_at_every_cut(monkeypatch, 22, [1.0, 4.0], [600.0, 600.0], 1e-3, 20)


def test_warm_up_merges_at_a_finer_step(monkeypatch):
    # the warm-up is a time: at step 1e-4 it is 1310720 cells, and two bins
    # cut a 1.5M-cell path past it
    _assert_merges_at_every_cut(monkeypatch, 2, [1.0], [150.0], 1e-4, 1)


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
     lambda f: f([1.0, 4.0, 9.0], [50.0] * 3, [new_stream(1, k) for k in range(3)], 1e-2, 1)),
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
