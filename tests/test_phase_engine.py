"""The phase-counting engine against a reference per-cell loop.

_phase_core below is the original scalar propagation, kept verbatim as
the oracle.  The scalar route must reproduce it bit for bit; the lane
route (numpy transcendentals, which may differ from math.* by an ulp)
must reproduce every count.  Two more reference routes check the closed
form itself: a generic RK4 integration of the phase ODE, and the
per-cell Riccati identity at the oracle's entry angles.

renewal_statistics and dos_sweep stream their paths; they must give what
the whole-path routes they replaced give, bit for bit: the renewal gaps
of sample_brownian_path + phase_propagate, and the lane counts of the
log_gbm_rows rows held whole.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vrjplab.spectrum as sp
from vrjplab.spectrum import _CROSS_TOL, _PI, dos_sweep, phase_propagate, renewal_statistics
from vrjplab.stochastic import PathKind, SampledPath, grid_cells, log_gbm_rows, new_stream

from reference_paths import path_times, renewal_gaps_whole_path, sample_brownian_path


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


def _oracle_logm(path):
    """log M on the path nodes; a brownian input B is read as e^{B - t/2}."""
    if path.kind is PathKind.GBM:
        return np.log(path.values)
    return path.values - path_times(path) / 2.0


def _oracle_logc(path, e_level):
    logm = _oracle_logm(path)
    return 0.5 * math.log(e_level) + logm[:-1] + logm[1:]


def _oracle(path, e_level):
    """(count, final gauge angle, crossing cells, their entry angles, theta, times)."""
    logc = _oracle_logc(path, e_level)
    kcum, psi_in, psi = _phase_core(logc, math.sqrt(e_level) * path.step)
    phi = math.atan2(math.sin(psi), math.exp(min(logc[-1], 700.0)) * math.cos(psi))
    theta = float(kcum[-1]) * _PI + max(phi, 0.0)
    dk = np.diff(kcum)
    cells = np.nonzero(dk)[0]
    times = [i * path.step + (np.arange(1, dk[i] + 1) * _PI - psi_in[i]) / math.sqrt(e_level)
             for i in cells]
    times = np.concatenate(times) if times else np.empty(0)
    return int(kcum[-1]), psi, cells, psi_in[cells], theta, times


def _path(seed, lam, step):
    return sample_brownian_path(-lam, lam, step, new_stream(seed, 3))


energies = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 9.0, 16.0, 30.0])
steps = st.sampled_from([1e-3, 4e-3, 1e-2])


@given(seed=st.integers(0, 2 ** 32 - 1), e_level=energies,
       lam=st.floats(0.05, 5.0), step=steps)
def test_scalar_route_bit_identical_to_oracle(seed, e_level, lam, step):
    path = _path(seed, lam, step)
    count, psi, cells, psi_in, theta, times = _oracle(path, e_level)
    scan = sp._phase_scan(sp._path_chunks(path), path.step, e_level)
    assert scan.count == count
    assert scan.psi == psi
    assert np.array_equal(scan.cells, cells)
    assert np.array_equal(scan.psi_in, psi_in)
    tr = phase_propagate(e_level, path)
    assert tr.count == count and tr.theta_final == theta
    assert np.array_equal(tr.crossings, times)


def test_scalar_route_across_chunk_seams():
    path = _path(17, 20.0, 1e-3)
    assert path.values.size - 1 > sp._SCAN_CHUNK
    for e_level in (1.0, 9.0):
        count, psi, cells, psi_in, theta, times = _oracle(path, e_level)
        tr = phase_propagate(e_level, path)
        assert (tr.count, tr.theta_final) == (count, theta)
        assert np.array_equal(tr.crossings, times)


def test_gbm_path_bit_identical_to_oracle():
    b = _path(8, 3.0, 1e-3)
    geo = SampledPath(b.t0, b.step, np.exp(b.values - path_times(b) / 2.0), PathKind.GBM)
    for e_level in (1.0, 4.0):
        scan = sp._phase_scan(sp._path_chunks(geo), geo.step, e_level)
        assert scan.count == _oracle(geo, e_level)[0]


def _lane_blocks(logm, block):
    """The rows of logm a block of cells at a time; consecutive blocks share a node."""
    n = logm.shape[1] - 1
    return (logm[:, lo:min(n, lo + block) + 1] for lo in range(0, n, block))


def _lane_case(seed, lam, step, replicas, e_list, block):
    paths = [_path(seed + r, lam, step) for r in range(replicas)]
    logm = np.stack([sp._log_m(p) for p in paths])
    lanes = sp._lane_counts(_lane_blocks(logm, block), replicas, step, e_list)
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
    paths = [sample_brownian_path(-lam, lam, step, s.substream(r + 1)) for r in range(replicas)]
    oracle = np.array([[_oracle(p, e_level)[0] for p in paths] for e_level in e_list])
    assert counts.shape == (len(e_list), replicas)
    assert np.array_equal(counts, oracle)


# 0.3337 is not a whole number of steps: 334 cells a side of width 0.3337/334
@pytest.mark.parametrize("lam", [1.0, 0.3337])
def test_dos_sweep_streams_the_log_gbm_rows(lam):
    # each streamed block is its slice of the log_gbm_rows rows, and the
    # counts are the lane counts of those rows held whole
    step, replicas, e_list, s = 1e-3, 3, [1.0, 4.0, 9.0], new_stream(22, 0)
    half, h = grid_cells(lam, step)
    assert 2 * half > 2 * sp._LANE_BLOCK
    rows = np.concatenate([next(log_gbm_rows(lam, step, 1, s.substream(r + 1)))[1]
                           for r in range(replicas)])
    seen = 0
    for block in sp._log_m_blocks(lam, step, replicas, s):
        assert np.array_equal(block, rows[:, seen:seen + block.shape[1]])
        seen += block.shape[1] - 1
    assert seen == 2 * half
    want = sp._lane_counts([rows], replicas, h, e_list)
    assert np.array_equal(dos_sweep(e_list, lam, replicas, s, step), want)


# horizons of 10038 cells (inside one scan chunk) and of 70006 cells (two
# chunks and part of a third), neither a whole number of steps; then the
# same with chunks of 1000 cells
@pytest.mark.parametrize("e_level", [1.0, 4.0, 9.0])
def test_renewal_gaps_bit_identical_to_whole_path(e_level, monkeypatch):
    step = 1e-2
    for horizon in (100.3705, 700.0537):
        want = renewal_gaps_whole_path(e_level, horizon, new_stream(40, 1), step)
        [got] = renewal_statistics([e_level], [horizon], [new_stream(40, 1)], step, min_count=1)
        assert np.array_equal(got, want)
        with monkeypatch.context() as m:
            m.setattr(sp, "_SCAN_CHUNK", 1000)
            [got] = renewal_statistics([e_level], [horizon], [new_stream(40, 1)], step,
                                       min_count=1)
        assert np.array_equal(got, want)


def phase_propagate_rk4(e_level: float, gbm: SampledPath,
                        max_step_angle: float = 0.05) -> float:
    """Generic RK4 integration of the phase ODE with the same frozen cells.

    Small-scale oracle for the closed-form propagation; substeps per
    cell are chosen so the angle advance stays below max_step_angle.
    """
    logm = _oracle_logm(gbm)
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
    gbm = sample_brownian_path(-5.0, 5.0, 1e-3, new_stream(4, 0))
    exact = phase_propagate(1.0, gbm, collect_crossings=False).theta_final
    rk4 = phase_propagate_rk4(1.0, gbm)
    assert abs(exact - rk4) < 1e-3


def test_riccati_cell_identity():
    gbm = sample_brownian_path(-5.0, 5.0, 1e-3, new_stream(5, 0))
    assert riccati_cell_check(1.0, gbm) < 0.01
