"""The phase-counting engine against a reference per-cell loop.

_phase_core below is the original scalar propagation, kept verbatim as
the oracle.  The scalar route must reproduce it bit for bit; the lane
route (numpy transcendentals, which may differ from math.* by an ulp)
must reproduce every count.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import vrjplab.spectrum as sp
from vrjplab.spectrum import _CROSS_TOL, _PI, dos_sweep, phase_propagate
from vrjplab.stochastic import PathKind, SampledPath, new_stream, sample_brownian_path


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
    logm = np.log(path.values) if path.kind is PathKind.GBM else path.values - path.times / 2.0
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
    scan = sp._phase_scan(path, e_level)
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


def test_every_cell_records_oracle_entry_angles():
    path = _path(5, 2.0, 1e-3)
    logc = _oracle_logc(path, 2.0)
    _, psi_in, _ = _phase_core(logc, math.sqrt(2.0) * path.step)
    scan = sp._phase_scan(path, 2.0, every_cell=True)
    assert np.array_equal(scan.cells, np.arange(logc.size))
    assert np.array_equal(scan.psi_in, psi_in)


def test_gbm_path_bit_identical_to_oracle():
    b = _path(8, 3.0, 1e-3)
    geo = SampledPath(b.t0, b.step, np.exp(b.values - b.times / 2.0), PathKind.GBM)
    for e_level in (1.0, 4.0):
        assert sp._phase_scan(geo, e_level).count == _oracle(geo, e_level)[0]


def _lane_case(seed, lam, step, replicas, e_list):
    paths = [_path(seed + r, lam, step) for r in range(replicas)]
    logm = np.stack([sp._log_m(p) for p in paths])
    lanes = sp._lane_counts(logm, step, e_list)
    oracle = np.array([[_oracle(p, e)[0] for p in paths] for e in e_list])
    return lanes, oracle


@given(seed=st.integers(0, 2 ** 32 - 8), lam=st.floats(0.05, 3.0), step=steps,
       replicas=st.integers(1, 4),
       e_list=st.lists(energies, min_size=1, max_size=4, unique=True).map(sorted))
def test_lane_counts_equal_oracle_and_nondecreasing_in_e(seed, lam, step, replicas, e_list):
    lanes, oracle = _lane_case(seed, lam, step, replicas, e_list)
    assert np.array_equal(lanes, oracle)
    assert np.all(np.diff(lanes, axis=0) >= 0)


def test_dos_sweep_spans_several_lane_blocks():
    lam, step, replicas, e_list = 6.0, 1e-3, 3, [1.0, 4.0]
    assert 2 * lam / step > 2 * sp._LANE_BLOCK
    s = new_stream(21, 0)
    rows = dos_sweep(e_list, lam, replicas, s, step)
    paths = [sample_brownian_path(-lam, lam, step, s.substream(r + 1)) for r in range(replicas)]
    for row, e_level in zip(rows, e_list):
        dens = np.array([_oracle(p, e_level)[0] for p in paths]) / (2.0 * lam)
        assert row.mean_density == float(np.mean(dens))
        assert row.half_width == float(2.5758 * np.std(dens, ddof=1) / math.sqrt(replicas))
