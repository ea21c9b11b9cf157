"""The phase-counting engine against a reference per-cell loop.

_phase_core below is the original scalar propagation in the angle form,
kept verbatim as the oracle; it reads a geometric path's values.  The
engine runs the rotation form (a Pruefer vector), which rounds
differently: the scalar route on the same path must give every count and
crossing cell of the oracle, and its crossing times and theta within a
bound derived from the two routes' ratio arrays and roundings.  The
experiments read the cell log ratios of a path from its Brownian
increments, and must meet the oracle in the same way.  The scalar route
is one lane of the lane route, run in Python floats: on the same ratios
the two must give the same crossing cells, entry angles, crossings and
times bit for bit, also where a cell turns the phase by pi or more and
where log M drifts by a thousand e-folds.  The lane counts must be the
closed-form count on the flat path.  Two more reference routes check the
closed form itself: a generic RK4 integration of the phase ODE, and the
per-cell Riccati identity at the oracle's entry angles.

dos_sweep and renewal_statistics stream their increments.  The lane
counts must be those of all the ratios held whole, bit for bit, and the
counts and renewal gaps must not depend on the lane block, from one cell
to one block that holds every lane's whole path.  Each renewal lane must
give the crossing cells and times of a scalar scan of its path drawn
whole, bit for bit; and its kept gaps must have no length bias.

dos_sweep counts by segment transfer matrices.  Its counts must be those
of every lane run cell by cell (reference_paths.lane_counts): with a
short last window and segment, where a cell turns the phase by more than
pi, on the flat path, where log M drifts by a thousand e-folds, where a
segment ends on a crossing, and where a window's ratios are too wide for
one float64 scale.  Its counts at lam = 5 are pinned.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vrjplab.spectrum as sp
from vrjplab.spectrum import (_CROSS_TOL, _LANES, _PI, count_states_phase, dos_sweep,
                              phase_propagate, renewal_statistics)
from vrjplab.stochastic import (SampledPath, brownian_increments, grid_cells, log_gbm_rows,
                                new_stream)

from reference_paths import (geometric, lane_counts, renewal_lane_whole_path,
                             sample_brownian_path, sample_gbm_path)


def _phase_core(logc, dpsi):
    """Advance the gauge angle across all cells; branch counts and entry angles.

    logc[i] = log of sqrt(E) * (frozen M^2 on cell i); dpsi = sqrt(E)*h.
    The state never leaves the gauge: at a cell boundary the angle is
    rescaled by the neighbouring-cell ratio exp(logc[i] - logc[i-1]),
    which stays O(1) on a Brownian grid, so no precision is lost even
    when M^2 itself spans hundreds of e-folds.
    """
    n = logc.size
    kcum = np.empty(n + 1, dtype=np.int64)
    psi_in = np.empty(n)
    kcum[0] = 0
    k = 0
    psi = 0.0                    # fractional gauge angle in [0, pi)
    for i in range(n):
        if i > 0:
            r = math.exp(logc[i] - logc[i - 1])
            psi = math.atan2(r * math.sin(psi), math.cos(psi))
            if psi < 0.0:
                psi = 0.0
        psi_in[i] = psi
        psi_new = psi + dpsi
        ncross = int((psi_new + _CROSS_TOL) // _PI)
        k += ncross
        psi = psi_new - ncross * _PI
        if psi < 0.0:
            psi = 0.0
        kcum[i + 1] = k
    return kcum, psi_in, psi


def _oracle_logc(path, e_level):
    logm = np.log(path.values)
    return 0.5 * math.log(e_level) + logm[:-1] + logm[1:]


def _oracle(path, e_level):
    """(count, the cell of each crossing, theta, the crossing times)."""
    logc = _oracle_logc(path, e_level)
    kcum, psi_in, psi = _phase_core(logc, math.sqrt(e_level) * path.step)
    phi = math.atan2(math.sin(psi), math.exp(min(logc[-1], 700.0)) * math.cos(psi))
    theta = float(kcum[-1]) * _PI + max(phi, 0.0)
    dk = np.diff(kcum)
    cells = np.nonzero(dk)[0]
    times = [i * path.step + (np.arange(1, dk[i] + 1) * _PI - psi_in[i]) / math.sqrt(e_level)
             for i in cells]
    times = np.concatenate(times) if times else np.empty(0)
    return int(kcum[-1]), np.repeat(cells, dk[cells]), theta, times


def _path(seed, lam, step):
    return sample_gbm_path(-lam, lam, step, new_stream(seed, 3))


def _path_ratios(path):
    """phase_propagate's log ratios of a geometric path: log M_{i+1} - log M_{i-1}, 0 first."""
    logm = np.log(path.values)
    return np.concatenate([[0.0], logm[2:] - logm[:-2]])


def _increment_ratios(seed, n_cells, step, block):
    """_cell_ratios of the increments _path(seed, ...) draws, block cells at a time."""
    incr = brownian_increments([new_stream(seed, 3).gen], n_cells, step, block)
    return ((lo, d[0]) for lo, d in sp._cell_ratios(incr, step))


def _scan_times(d, step, e_level):
    """The cell and time of each crossing of _scan over the log ratios d."""
    cells, entry, nc, _ = sp._scan(d, math.sqrt(e_level) * step)
    return np.repeat(cells, nc), sp._crossing_times(cells, entry, nc, step, math.sqrt(e_level))


energies = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 9.0, 16.0, 30.0])
steps = st.sampled_from([1e-3, 4e-3, 1e-2])


# A bound on how far apart the angles of two scans of the same cells can
# be, each rounded in float64: every cell of the oracle takes at most eight
# roundings (exp, sin, their product, cos, atan2, the advance, the wrap's
# product and difference).  A relative error of at most 2^-52 in an atan2
# argument moves the angle by at most 2^-53, and each of the others by at
# most one ulp of a number below 2*pi, so each moves the angle by at most
# ulp(2*pi).  A cell of the rotation form (the scalar route and the lanes)
# rounds the scaled u and the four products and two sums of its rotation,
# each by at most 2^-53 of the vector's norm, and its entry atan2 once:
# about ulp(2*pi) = 2^-50 of angle in all, within the eight that the bound
# allows.
_CELL_ROUNDING = 8 * np.spacing(2 * math.pi)


def _oracle_bounds(path, e_level, d_other):
    """Bounds on how far a scan of the ratios d_other lands from the oracle.

    Returns, per cell, a bound on the distance of its entry angles, and a
    bound on that of theta.  theta unwinds the final angle psi by the last
    cell's coefficient C = e^logc, with d theta / d psi = C / (cos^2 psi +
    C^2 sin^2 psi); the last cell's advance and the unwinding round twice
    each.
    """
    logc = _oracle_logc(path, e_level)
    d = np.concatenate([[0.0], np.diff(logc)])
    _, psi_in, psi = _phase_core(logc, math.sqrt(e_level) * path.step)
    entry = _angle_bounds(d, psi_in, math.sqrt(e_level) * path.step, np.abs(d - d_other))
    big_c = math.exp(min(logc[-1], 700.0))
    gain = big_c / (math.cos(psi) ** 2 + (big_c * math.sin(psi)) ** 2)
    return entry, gain * (entry[-1] + 2 * _CELL_ROUNDING) + 2 * _CELL_ROUNDING


def _angle_bounds(d, psi_in, dpsi, dd):
    """Per cell, a bound on how far a scan of the ratios d + dd enters from psi_in, d's scan.

    To first order in the differences, the rescale psi -> atan2(e^d sin psi,
    cos psi) passes an angle error on with factor e^d / (cos^2 + e^2d sin^2)
    and a ratio error |dd| with factor e^d |sin cos| / (cos^2 + e^2d sin^2),
    both at psi_in; each scan adds _CELL_ROUNDING per cell.
    """
    # psi on leaving each cell: advanced, wrapped and clamped as the oracle does
    x = psi_in + dpsi
    out = np.maximum(x - ((x + _CROSS_TOL) // _PI) * _PI, 0.0)
    c2, s2 = np.cos(out[:-1]) ** 2, np.sin(out[:-1]) ** 2
    r = np.exp(d[1:])
    den = c2 + r * r * s2
    gain = r / den
    from_ratio = r * np.sqrt(c2 * s2) / den * dd[1:]
    bound = np.zeros(psi_in.size)
    for i in range(1, psi_in.size):
        bound[i] = (gain[i - 1] * (bound[i - 1] + 2 * _CELL_ROUNDING) + from_ratio[i - 1]
                    + 2 * _CELL_ROUNDING)
    return bound


def _assert_tracks_oracle(path, e_level, d, cells, times, theta=None):
    """A scan of the log ratios d of path against the oracle: every count and crossing
    cell equal, every crossing time and theta within _oracle_bounds (plus eight ulps of
    a time, the two routes' rounding of i*h + (j*pi - psi)/sqrt(E))."""
    count, want_cells, want_theta, want = _oracle(path, e_level)
    assert cells.size == count and np.array_equal(cells, want_cells)
    entry, theta_bound = _oracle_bounds(path, e_level, d)
    assert np.all(np.abs(times - want)
                  <= entry[cells] / math.sqrt(e_level) + 8 * np.spacing(want))
    assert theta is None or abs(theta - want_theta) <= theta_bound


def _propagate_tracks_oracle(path, e_level):
    # the oracle reads the differences of logc, phase_propagate the E-free
    # log ratios and the Pruefer vector: the counts and cells are the same
    # bits, the times and theta within the bound of the two roundings
    tr = phase_propagate(e_level, path)
    cells, times = _scan_times(_path_ratios(path), path.step, e_level)
    assert np.array_equal(tr.crossings, times)
    _assert_tracks_oracle(path, e_level, _path_ratios(path), cells, times, tr.theta_final)


@given(seed=st.integers(0, 2 ** 32 - 1), e_level=energies,
       lam=st.floats(0.05, 5.0), step=steps)
def test_scalar_route_bit_identical_to_oracle(seed, e_level, lam, step):
    _propagate_tracks_oracle(_path(seed, lam, step), e_level)


def test_scalar_route_across_chunk_seams():
    # more cells than one rescale interval, read _LANE_BLOCK cells at a time
    path = _path(17, 20.0, 1e-3)
    assert path.values.size - 1 > sp._rescale_every(np.exp(_path_ratios(path)))
    for e_level in (1.0, 9.0):
        _propagate_tracks_oracle(path, e_level)


def test_gbm_path_bit_identical_to_oracle():
    geo = geometric(sample_brownian_path(-3.0, 3.0, 1e-3, new_stream(8, 3)))
    for e_level in (1.0, 4.0):
        _propagate_tracks_oracle(geo, e_level)


@given(seed=st.integers(0, 2 ** 32 - 1), e_level=energies,
       lam=st.floats(0.05, 5.0), step=steps, block=st.sampled_from([1, 7, 256]))
def test_scalar_route_is_one_lane_bit_for_bit(seed, e_level, lam, step, block):
    # phase_propagate and one lane of _lane_step fed the same ratios, block
    # cells at a time: the same crossing cells, entry angles, crossings and
    # times, and the lane count of _lane_counts is count_states_phase
    path = _path(seed, lam, step)
    d, dpsi = _path_ratios(path), math.sqrt(e_level) * path.step
    cells, nc, entry, _ = _lane_records(d, dpsi, block)
    got = sp._scan(d, dpsi)
    assert all(np.array_equal(a, b) for a, b in zip(got, (cells, entry, nc)))
    tr = phase_propagate(e_level, path)
    assert tr.count == nc.sum()
    assert np.array_equal(tr.crossings,
                          sp._crossing_times(cells, entry, nc, path.step, math.sqrt(e_level)))
    lanes = lane_counts([(0, d[None])], 1, path.step, [e_level])
    assert lanes[0, 0] == count_states_phase(e_level, path)


@pytest.mark.parametrize("seed", [5, 6])
def test_increment_ratios_track_the_path_ratios(seed):
    # the experiments' ratios x_{i-1} + x_i - h of a path's increments and the
    # oracle's logc differences of its geometric values, on the same draws:
    # every count and cell equal, and every crossing time within the bound
    # that the two ratio arrays give
    path = _path(seed, 50.0, 1e-3)
    n = path.values.size - 1
    [(_, d_inc)] = list(_increment_ratios(seed, n, path.step, n))
    for e_level in (0.25, 1.0, 4.0, 16.0):
        cells, times = _scan_times(d_inc, path.step, e_level)
        _assert_tracks_oracle(path, e_level, d_inc, cells, times)


def _lane_case(seed, lam, step, replicas, e_list, block):
    # the lanes read the increments of the oracle's paths, block cells at a time
    paths = [_path(seed + r, lam, step) for r in range(replicas)]
    gens = [new_stream(seed + r, 3).gen for r in range(replicas)]
    incr = brownian_increments(gens, paths[0].values.size - 1, step, block)
    lanes = lane_counts(sp._cell_ratios(incr, step), replicas, step, e_list)
    oracle = np.array([[_oracle(p, e)[0] for p in paths] for e in e_list])
    return lanes, oracle


@given(seed=st.integers(0, 2 ** 32 - 8), lam=st.floats(0.05, 3.0), step=steps,
       replicas=st.integers(1, 4),
       e_list=st.lists(energies, min_size=1, max_size=4, unique=True).map(sorted),
       block=st.integers(1, 5000))
def test_lane_counts_equal_oracle_and_nondecreasing_in_e(seed, lam, step, replicas, e_list,
                                                         block):
    lanes, oracle = _lane_case(seed, lam, step, replicas, e_list, block)
    assert np.array_equal(lanes, oracle)
    assert np.all(np.diff(lanes, axis=0) >= 0)


def test_dos_sweep_spans_several_lane_blocks():
    lam, step, replicas, e_list = 6.0, 1e-3, 3, [1.0, 4.0]
    assert 2 * lam / step > 2 * sp._LANE_BLOCK
    s = new_stream(21, 0)
    counts = dos_sweep(e_list, lam, replicas, s, step)
    paths = [sample_gbm_path(-lam, lam, step, s.substream(r + 1)) for r in range(replicas)]
    oracle = np.array([[_oracle(p, e_level)[0] for p in paths] for e_level in e_list])
    assert counts.shape == (len(e_list), replicas)
    assert np.array_equal(counts, oracle)


# 0.3337 is not a whole number of steps: 334 cells a side of width 0.3337/334
@pytest.mark.parametrize("lam", [1.0, 0.3337])
def test_dos_sweep_streams_the_log_gbm_rows(lam, monkeypatch):
    # each streamed block of ratios is its slice of the ratios of one whole
    # draw per replica, the draws of its log_gbm_rows row; the counts are
    # the lane counts of those ratios held whole, at lane blocks of 1 and 7
    # cells too, and the oracle's counts on the log_gbm_rows rows themselves
    step, replicas, e_list, s = 1e-3, 3, [1.0, 4.0, 9.0], new_stream(22, 0)
    half, h = grid_cells(lam, step)
    assert 2 * half > 2 * sp._LANE_BLOCK
    whole = []
    for r in range(replicas):
        x = s.substream(r + 1).gen.standard_normal(2 * half) * math.sqrt(h)
        whole.append(np.concatenate([[0.0], x[:-1] + x[1:] - h]))
    whole = np.array(whole)
    gens = [s.substream(r + 1).gen for r in range(replicas)]
    seen = 0
    for lo, d in sp._cell_ratios(brownian_increments(gens, 2 * half, h, sp._LANE_BLOCK), h):
        assert lo == seen and np.array_equal(d, whole[:, lo:lo + d.shape[1]])
        seen += d.shape[1]
    assert seen == 2 * half
    counts = dos_sweep(e_list, lam, replicas, s, step)
    assert np.array_equal(counts, lane_counts([(0, whole)], replicas, h, e_list))
    for block in (1, 7):
        with monkeypatch.context() as m:
            m.setattr(sp, "_LANE_BLOCK", block)
            assert np.array_equal(dos_sweep(e_list, lam, replicas, s, step), counts)
    rows = [SampledPath(-lam, h, np.exp(m[0]))
            for _, m in (next(log_gbm_rows(lam, step, 1, s.substream(r + 1)))
                         for r in range(replicas))]
    assert np.array_equal(counts, [[_oracle(p, e)[0] for p in rows] for e in e_list])


def _lanes_equal(a, b):
    return all(np.array_equal(x, y) for ea, eb in zip(a, b, strict=True)
               for x, y in zip(ea, eb, strict=True))


# T_c = 5 mean gaps of 314 cells at E = 1 (step 1e-2), 10 at E = 4 and 15 at
# E = 9: blocks of 1, 7, 256 and 1000 cells cut every lane, and one block of
# 4096 cells holds every lane's path whole
@pytest.mark.parametrize("e_level", [1.0, 4.0, 9.0])
def test_renewal_gaps_bit_identical_to_whole_path(e_level, monkeypatch):
    step, t_cut, s = 1e-2, 5 * math.pi, new_stream(40, 1)

    def run(block):
        with monkeypatch.context() as m:
            m.setattr(sp, "_LANE_BLOCK", block)
            return renewal_statistics([e_level], [_LANES * t_cut], s, step)

    got = run(sp._LANE_BLOCK)
    assert max(g.sum() for g in got[0]) < 4096 * step
    assert _lanes_equal(got, run(1000))
    assert _lanes_equal(got, run(4096))
    assert _lanes_equal(got, run(1))
    assert _lanes_equal(got, run(7))


def test_renewal_lanes_track_a_scalar_scan():
    # every lane against _scan of its path drawn whole, up to the lane's stop:
    # every crossing cell and time the same bits, and the gaps those of the
    # lane's times
    step, s = 1e-2, new_stream(41, 0)
    e_levels = [1.0, 4.0]
    t_cut = [2.5 * math.pi / math.sqrt(e) for e in e_levels]
    lane, cell, times = sp._lane_crossings(np.sqrt(e_levels), np.array(t_cut), s, step)
    gaps = renewal_statistics(e_levels, [_LANES * t for t in t_cut], s, step)
    for i in range(len(e_levels) * _LANES):
        k, r = divmod(i, _LANES)
        mine = lane == i
        stop = int(np.searchsorted(times[mine], t_cut[k])) + 1
        got_cells, got = cell[mine][:stop], times[mine][:stop]
        want_cells, want = renewal_lane_whole_path(e_levels[k], t_cut[k], s.substream(r + 1),
                                                   step, int(got_cells[-1]) + 1)
        assert np.array_equal(got_cells, want_cells) and np.array_equal(got, want)
        assert np.array_equal(gaps[k][r], np.diff(got, prepend=0.0))


def _mean_within_3se(lanes, e_level):
    gaps = np.concatenate(lanes)
    se = math.sqrt(np.var(gaps, ddof=1) / gaps.size)
    return abs(gaps.mean() - math.pi / math.sqrt(e_level)) <= 3 * se


def _gaps_ending_before(times, t_cut):
    # the length-biased rule: only the gaps that end before t_cut
    return np.diff(times[:np.searchsorted(times, t_cut)], prepend=0.0)


def test_renewal_mean_has_no_length_bias(monkeypatch):
    # T_c of about one mean gap, where most lanes keep one or two gaps: the
    # kept gaps start before T_c, so their mean is unbiased (Wald); keeping
    # those that end before T_c favours short gaps and must fail
    e_levels, s = [1.0, 4.0], new_stream(42, 0)
    horizons = [_LANES * math.pi / math.sqrt(e) for e in e_levels]

    def means_within_3se():
        lanes = renewal_statistics(e_levels, horizons, s, 1e-3)
        return [_mean_within_3se(g, e) for g, e in zip(lanes, e_levels)]

    assert means_within_3se() == [True, True]
    monkeypatch.setattr(sp, "_lane_gaps", _gaps_ending_before)
    assert means_within_3se() == [False, False]


def _lane_records(d, dpsi, block):
    """One lane over the log ratios d, block cells at a time: crossing cells, crossings,
    entry angles and the final Pruefer vector."""
    uv, records = sp._lane_start(1), [(np.empty(0, np.int64), np.empty(0), np.empty(0))]
    for lo in range(0, d.size, block):
        part = []
        uv = sp._lane_step(np.exp(d[lo:lo + block])[:, None], uv, np.array([dpsi]),
                           np.zeros(1), part)
        records += [(lo + j, entry, nc) for j, _, entry, nc in part]
    cells, entry, nc = (np.concatenate(a) for a in zip(*records))
    return cells, nc.astype(np.int64), entry, uv


def _scan_is_the_lane(d, dpsi, block):
    """_scan over the log ratios d equals one lane read block cells at a time, bit for bit."""
    cells, nc, entry, _ = _lane_records(d, dpsi, block)
    return all(np.array_equal(a, b) for a, b in zip(sp._scan(d, dpsi), (cells, entry, nc)))


def test_lane_stays_finite_where_log_m_drifts_by_1000_e_folds():
    # log M = B_t + 2.5 t on 40 000 cells of width 1e-2 rises by 1000
    # e-folds, each cell ratio by 0.05; the Pruefer vector grows with it and
    # would overflow unscaled.  The lane stays finite, its entry angles and
    # final vector are the same bits at blocks of 1, 7 and 256 cells, and
    # _scan gives its crossing cells, entry angles and crossings bit for bit.
    step, e_level, n = 1e-2, 16.0, 40_000
    x = new_stream(44, 0).gen.standard_normal(n) * math.sqrt(step)
    d = np.concatenate([[0.0], x[:-1] + x[1:]]) + 0.05
    assert abs(d.sum()) / 2 > 800
    dpsi = math.sqrt(e_level) * step
    cells, nc, entry, uv = _lane_records(d, dpsi, sp._LANE_BLOCK)
    assert np.all(np.isfinite(entry)) and np.all(np.isfinite(uv))
    assert _scan_is_the_lane(d, dpsi, sp._LANE_BLOCK)
    for block in (1, 7):
        other = _lane_records(d, dpsi, block)
        assert all(np.array_equal(a, b) for a, b in zip(other, (cells, nc, entry, uv)))
    # the segments' transfer matrices, 12.8 e-folds of drift each, count alike
    assert sp._rescale_every(np.exp(d)) >= 2 * sp._LANE_BLOCK
    windows = [(lo, d[None, lo:lo + sp._WINDOW].copy()) for lo in range(0, n, sp._WINDOW)]
    assert sp._segment_counts(windows, 1, step, [e_level])[0, 0] == nc.sum()


@pytest.mark.parametrize("dpsi", [math.pi - 1e-3, math.pi, 2.5 * math.pi])
def test_lanes_that_turn_half_a_circle_or_more_per_cell(dpsi):
    # cells of width dpsi at E = 1, so a lane adds the whole half-turns to its
    # count and rotates by the rest: on every path _scan is the lane bit for
    # bit, every count is _scan's, and every renewal lane gives the crossing
    # cells and times of _scan of its path
    s, n_cells, replicas = new_stream(45, 0), 600, 4
    gens = [s.substream(r + 1).gen for r in range(replicas)]
    blocks = list(sp._cell_ratios(brownian_increments(gens, n_cells, dpsi, sp._LANE_BLOCK),
                                  dpsi))
    whole = np.concatenate([d for _, d in blocks], axis=1)
    assert all(_scan_is_the_lane(row, dpsi, sp._LANE_BLOCK) for row in whole)
    want = [sp._scan(row, dpsi)[2].sum() for row in whole]
    assert np.array_equal(lane_counts(blocks, replicas, dpsi, [1.0])[0], want)
    # ratios this wide leave no segment a shared float64 scale: the segment
    # route runs these lanes cell by cell, and gives the same counts
    assert sp._rescale_every(np.exp(whole).T) < 2 * sp._LANE_BLOCK
    assert np.array_equal(sp._segment_counts([(0, whole.copy())], replicas, dpsi, [1.0])[0], want)
    t_cut = 8 * dpsi
    lane, cell, times = sp._lane_crossings(np.array([1.0]), np.array([t_cut]), s, dpsi)
    for r in range(_LANES):
        stop = int(np.searchsorted(times[lane == r], t_cut)) + 1
        got_cells, got = cell[lane == r][:stop], times[lane == r][:stop]
        want_cells, want = renewal_lane_whole_path(1.0, t_cut, s.substream(r + 1), dpsi,
                                                   int(got_cells[-1]) + 1)
        assert np.array_equal(got_cells, want_cells) and np.array_equal(got, want)


@pytest.mark.parametrize("lam", [math.pi, 5.0])
def test_lane_counts_on_the_flat_path(lam):
    # every increment 0, so log M = -t/2 and the phase turns at the rate
    # sqrt(E - 1/4): the count is floor(2 lam sqrt(E - 1/4) / pi), which at
    # lam = pi and E = 1.25 lands exactly on the endpoint
    e_list = [0.2, 1.25, 5.0, 9.0]
    half, h = grid_cells(lam, 1e-3)
    counts = lane_counts(sp._cell_ratios([(0, np.zeros((1, 2 * half)))], h), 1, h, e_list)
    exact = [math.floor(2 * lam * math.sqrt(max(e - 0.25, 0.0)) / math.pi) for e in e_list]
    assert counts[:, 0].tolist() == exact
    windows = ((lo, np.zeros((1, min(sp._WINDOW, 2 * half - lo))))
               for lo in range(0, 2 * half, sp._WINDOW))
    assert np.array_equal(sp._segment_counts(sp._cell_ratios(windows, h), 1, h, e_list), counts)


def phase_propagate_rk4(e_level: float, gbm: SampledPath,
                        max_step_angle: float = 0.05) -> float:
    """Generic RK4 integration of the phase ODE with the same frozen cells.

    Small-scale oracle for the closed-form propagation; substeps per
    cell are chosen so the angle advance stays below max_step_angle.
    """
    logm = np.log(gbm.values)
    h = gbm.step
    theta = 0.0
    for i in range(logm.size - 1):
        m2 = math.exp(logm[i] + logm[i + 1])
        a = 1.0 / m2
        b = e_level * m2
        rate = max(a, b)
        nsub = max(1, int(math.ceil(rate * h / max_step_angle)))
        dt = h / nsub

        for _ in range(nsub):
            k1 = a * math.cos(theta) ** 2 + b * math.sin(theta) ** 2
            t2 = theta + 0.5 * dt * k1
            k2 = a * math.cos(t2) ** 2 + b * math.sin(t2) ** 2
            t3 = theta + 0.5 * dt * k2
            k3 = a * math.cos(t3) ** 2 + b * math.sin(t3) ** 2
            t4 = theta + dt * k3
            k4 = a * math.cos(t4) ** 2 + b * math.sin(t4) ** 2
            theta += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return theta


def riccati_cell_check(e_level: float, gbm: SampledPath, n_cells: int = 200,
                       eps_frac: float = 0.02) -> float:
    """Max relative deviation of the per-cell Riccati identity.

    Within a cell (coefficient frozen), j = -cot(theta) must satisfy
    j' = j^2 / M^2 + E M^2.  Checked by centered differences of the
    exact in-cell propagation at the cell midpoint, skipping cells where
    cot is ill-conditioned.
    """
    logc = _oracle_logc(gbm, e_level)
    _, psi_in, _ = _phase_core(logc, math.sqrt(e_level) * gbm.step)
    h = gbm.step
    sqrt_e = math.sqrt(e_level)
    worst = 0.0
    checked = 0
    for i in range(0, logc.size, max(1, logc.size // (4 * n_cells))):
        c = math.exp(logc[i])
        m2 = c / sqrt_e

        def theta_at(delta):
            psi = psi_in[i] + sqrt_e * delta
            kk = math.floor(psi / math.pi)
            frac = psi - kk * math.pi
            return kk * math.pi + math.atan2(math.sin(frac), c * math.cos(frac))

        mid = 0.5 * h
        eps = eps_frac * h
        th = theta_at(mid)
        if min(abs(math.sin(th)), abs(math.cos(th))) < 0.2:
            continue
        j_mid = -1.0 / math.tan(th)
        j_plus = -1.0 / math.tan(theta_at(mid + eps))
        j_minus = -1.0 / math.tan(theta_at(mid - eps))
        fd = (j_plus - j_minus) / (2.0 * eps)
        rhs = j_mid * j_mid / m2 + e_level * m2
        worst = max(worst, abs(fd - rhs) / abs(rhs))
        checked += 1
        if checked >= n_cells:
            break
    if checked == 0:
        raise RuntimeError("no well-conditioned cells found for the check")
    return worst


def test_phase_rk4_oracle():
    gbm = sample_gbm_path(-5.0, 5.0, 1e-3, new_stream(4, 0))
    exact = phase_propagate(1.0, gbm).theta_final
    rk4 = phase_propagate_rk4(1.0, gbm)
    assert abs(exact - rk4) < 1e-3


def test_riccati_cell_identity():
    gbm = sample_gbm_path(-5.0, 5.0, 1e-3, new_stream(5, 0))
    assert riccati_cell_check(1.0, gbm) < 0.01


# 10 000 cells at lam = 5: four whole windows and one of 1808 cells, seven
# segments and 16 cells; 80 000 at lam = 40: 39 whole windows and 128 cells.
# E = 1.2e7 turns the phase by 3.46 > pi per cell of 1e-3.
@pytest.mark.parametrize("lam", [5.0, 40.0])
def test_segment_counts_equal_the_lane_oracle(lam):
    # the seeded streams of dos_sweep, counted cell by cell by every lane
    step, replicas, e_list, s = 1e-3, 4, [0.5, 1.0, 9.0, 1.2e7], new_stream(46, 0)
    half, h = grid_cells(lam, step)
    assert (2 * half) % sp._WINDOW and (2 * half) % sp._WINDOW % sp._LANE_BLOCK
    assert math.sqrt(e_list[-1]) * h > math.pi
    gens = [s.substream(r + 1).gen for r in range(replicas)]
    oracle = lane_counts(sp._cell_ratios(brownian_increments(gens, 2 * half, h, sp._LANE_BLOCK),
                                         h), replicas, h, e_list)
    assert np.array_equal(dos_sweep(e_list, lam, replicas, s, step), oracle)


def _digest(counts):
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()[:16]


# dos_sweep's counts at stream epoch 2, which the lane route (lane_counts)
# gives alike: at lam = 5 over the registered energies and replicas (sha256
# of the int64 array), and at the benchmark's smallest size
_PINNED_LAM5 = ["384381a7d4f4dd68", "1a5dd488e1ab8328", "e87aceefbb3ac878",
                "8966fbd6f05fd3f9", "4e7fdba4ac837aae"]
_PINNED_TINY = [[100, 102, 102, 100, 102, 99], [101, 103, 103, 101, 98, 103],
                [102, 97, 99, 100, 103, 102]]


def test_dos_sweep_counts_pinned():
    got = [_digest(dos_sweep([1.0, 4.0, 9.0], 5.0, 50, new_stream(seed, 0), 1e-3))
           for seed in range(5)]
    assert got == _PINNED_LAM5
    tiny = [dos_sweep([16.0], 40.0, 6, new_stream(seed, 0), 1e-3)[0].tolist()
            for seed in range(3)]
    assert tiny == _PINNED_TINY


# Ratios of 1 make each cell a rotation by dpsi.  At dpsi = (pi - short) / 512
# every second segment of 256 cells ends on a crossing, short of pi by 0 (up
# to rounding) or by 0.6 tol: the lanes count each, within tol, and restart
# from psi = 0 exactly; so must the chain.  4608 cells: two windows and two
# segments, the last ending on the ninth crossing.
@pytest.mark.parametrize("short", [0.0, 0.6 * _CROSS_TOL])
def test_segment_ends_on_a_crossing_round_as_the_lanes_do(short):
    step, n = (math.pi - short) / 512, 2 * sp._WINDOW + 2 * sp._LANE_BLOCK
    windows = [(lo, np.zeros((1, min(sp._WINDOW, n - lo)))) for lo in range(0, n, sp._WINDOW)]
    assert lane_counts(windows, 1, step, [1.0])[0, 0] == n // 512
    assert sp._segment_counts(windows, 1, step, [1.0])[0, 0] == n // 512


def test_segments_too_wide_for_one_float64_scale_run_cell_by_cell():
    # quarter turns and log ratios of +-10 by turns: over two cells u grows
    # by e^10 and v shrinks by e^10, so a segment's two columns would differ
    # by 2^3693; the window runs its lanes cell by cell, as the oracle does
    n, step = 2 * sp._WINDOW + 100, math.pi / 2
    d = np.tile([10.0, -10.0], n // 2)[None]
    assert sp._rescale_every(np.exp(d).T) < 2 * sp._LANE_BLOCK
    want = lane_counts([(0, d.copy())], 1, step, [1.0])
    windows = [(lo, d[:, lo:lo + sp._WINDOW].copy()) for lo in range(0, n, sp._WINDOW)]
    assert np.array_equal(sp._segment_counts(windows, 1, step, [1.0]), want)
