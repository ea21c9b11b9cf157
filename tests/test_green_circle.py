"""Explicit circle inverse against oracles, path sums, the interpolated law.

The truncated path-sum expansion of G and the loop that built the arc
table of the closed form are reference routes, kept here as oracles, and
reference_paths.invert_R_explicit_indexed the closed form's index reads.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from vrjplab.beta_field import circle_field_from_a, dense_h, sample_circle_field
import vrjplab.green_circle as gc
from vrjplab.green_circle import (Provenance, green_entries_from_a,
                                  green_from_field, invert_R_explicit, u_sequence)
from vrjplab.stats import ks_two_sample
from vrjplab.stochastic import new_stream, sample_inverse_gaussian

from reference_paths import invert_R_explicit_indexed


def _r_dense(u):
    n = u.size
    r = np.zeros((n, n))
    for i in range(n):
        r[i, i] = 1 + u[i] ** 2
        r[i, (i + 1) % n] -= u[i]
        r[(i + 1) % n, i] -= u[i]
    return r


def path_sum_green(field, i: int, j: int, max_len: int) -> float:
    """Truncated path-sum expansion of G(i, j).

    Sums W_sigma / (2 beta)_sigma over paths of length <= max_len; the
    partial sums increase monotonically to the true entry.
    """
    n = field.graph.n_vertices
    if n > 7:
        raise ValueError("path sums restricted to graphs with <= 7 vertices")
    if max_len > 30:
        raise ValueError("max_len capped at 30")
    h = dense_h(field.graph, field.beta)
    off = -np.triu(h, 1) - np.tril(h, -1)      # conductance matrix
    q = off / (2.0 * field.beta)[None, :]      # step i->j weight W_ij/(2 beta_j)
    r = np.zeros(n)
    r[i % n] = 1.0
    total = 0.0
    for _ in range(max_len + 1):
        total += r[j % n]
        r = r @ q
    return total / (2.0 * field.beta[i % n])


def _arc_table_loop(u):
    """cum_g[s, e] = 1 + sum_{s' <= s} prod_{d=0..s'} w[(e-d) mod n], w = u^2."""
    n = u.size
    w = u * u
    cum_g = np.empty((n - 1, n))
    row = w.copy()
    acc = 1.0 + row
    cum_g[0] = acc
    for s in range(1, n - 1):
        row = row * np.roll(w, s)
        acc = acc + row
        cum_g[s] = acc
    return cum_g


def test_assemble_h_uniform_case():
    a = np.full(3, 2.0)
    # force beta = w + g via a synthetic field: beta_i = (w/2)(A_{i+1} + 1/A_i)
    f = circle_field_from_a(a, 1.0)
    dense = dense_h(f.graph, f.beta)
    assert np.allclose(np.diag(dense), 2 * f.beta)
    assert dense[0, 1] == -1.0 and dense[0, 2] == -1.0
    assert np.array_equal(dense, dense.T)


def test_h_factorization_identity():
    # H = w D^-1 R D^-1 with D = diag(sqrt(A))
    f = sample_circle_field(10, 4.0, new_stream(1, 0))
    u = u_sequence(f)
    d_inv = np.diag(1.0 / np.sqrt(f.a_seq))
    lhs = dense_h(f.graph, f.beta)
    rhs = f.weight * d_inv @ _r_dense(u) @ d_inv
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_invert_r_three_vertex_exact():
    inv = invert_R_explicit(np.full(3, 2.0))
    assert abs(inv[0, 0] - 3.0 / 7.0) < 1e-14
    assert abs(inv[0, 1] - 2.0 / 7.0) < 1e-14
    assert abs(inv[2, 0] - 2.0 / 7.0) < 1e-14


def test_invert_r_random_against_dense():
    gen = new_stream(2, 0).gen
    u = gen.uniform(0.5, 2.0, size=50)
    inv = invert_R_explicit(u)
    dense = np.linalg.inv(_r_dense(u))
    assert np.max(np.abs(inv - dense) / np.abs(dense)) < 1e-10
    assert np.max(np.abs(_r_dense(u) @ inv - np.eye(50))) < 1e-10


def test_arc_table_bit_identical_to_loop():
    for dim in (3, 4, 5, 17, 100, 101, 401):
        for seed in range(4):
            u = new_stream(30 + seed, dim).gen.uniform(0.5, 2.0, size=dim)
            s, _, _ = gc._arcs(u * u, np.log(u), np.arange(dim), dim - 1)
            assert np.array_equal(s[1:], _arc_table_loop(u))
            assert np.array_equal(s[0], np.ones(dim))
    for size in (1, 8, 200):
        u = u_sequence(sample_circle_field(size, 8.0, new_stream(31, size)))
        s, _, _ = gc._arcs(u * u, np.log(u), np.arange(u.size), u.size - 1)
        assert np.array_equal(s[1:], _arc_table_loop(u))


def test_invert_r_guards():
    with pytest.raises(ValueError):
        invert_R_explicit(np.array([2.0, 0.5]))              # dim < 3
    with pytest.raises(ValueError):
        invert_R_explicit(np.ones(5))                        # prod u = 1
    with pytest.raises(ValueError):
        invert_R_explicit(np.array([2.0, -0.5, 1.0]))        # u <= 0


def test_green_routes_agree():
    for i in range(5):
        f = sample_circle_field(4 + 3 * i, 3.0, new_stream(3, i))
        ge = green_from_field(f, Provenance.EXPLICIT_FORMULA)
        gd = green_from_field(f, Provenance.DENSE_SOLVE)
        assert np.max(np.abs(ge - gd) / np.abs(gd)) < 1e-10
        assert np.all(ge > 0)
        h = dense_h(f.graph, f.beta)
        assert np.max(np.abs(h @ ge - np.eye(h.shape[0]))) < 1e-9


def test_green_single_entry_matches_full():
    f = sample_circle_field(7, 2.0, new_stream(4, 0))
    g = green_from_field(f, Provenance.EXPLICIT_FORMULA)
    n = g.shape[0]
    for (i, j) in ((0, 0), (3, 3), (2, 9), (14, 1), (9, 2)):
        val = green_entries_from_a(f.a_seq[None, :], f.weight, i, j)[0]
        assert val == pytest.approx(g[i % n, j % n], rel=1e-12)


def test_rotation_invariance_of_diagonal_law():
    w, size, n_rep = 6.0, 6, 4000
    dim = 2 * size + 1
    a = sample_inverse_gaussian(w, new_stream(5, 0), size=n_rep * dim).reshape(n_rep, dim)
    d0 = green_entries_from_a(a, w, 0, 0)
    a2 = sample_inverse_gaussian(w, new_stream(5, 1), size=n_rep * dim).reshape(n_rep, dim)
    dk = green_entries_from_a(a2, w, 4, 4)
    rep = ks_two_sample(d0, dk, 0.01)
    assert rep.passed, rep


def test_path_sum_below_distance_is_zero():
    f = sample_circle_field(3, 1.0, new_stream(9, 0))
    assert path_sum_green(f, 0, 3, 2) == 0.0


def test_path_sum_converges_to_green():
    # the 31 terms fall short of G(0, 1) by exactly the geometric tail
    # sum_{k > 30} (q^k)_{01} / (2 beta_0) = (q^31 (I - q)^-1)_{01} / (2 beta_0)
    # of the step matrix q, whose spectral radius is below 1; the tail's
    # size depends on the field (near-singular fields converge far slower)
    f = sample_circle_field(1, 1.0, new_stream(10, 3))
    gd = green_from_field(f, Provenance.DENSE_SOLVE)
    val = path_sum_green(f, 0, 1, 30)
    h = dense_h(f.graph, f.beta)
    q = (-np.triu(h, 1) - np.tril(h, -1)) / (2.0 * f.beta)[None, :]
    assert np.max(np.abs(np.linalg.eigvals(q))) < 1.0
    tail = (np.linalg.matrix_power(q, 31) @ np.linalg.inv(np.eye(3) - q))[0, 1] / (2.0 * f.beta[0])
    assert val <= gd[0, 1]
    assert abs(val + tail - gd[0, 1]) <= 1e-12 * gd[0, 1]


def test_path_sum_monotone():
    f = sample_circle_field(2, 1.0, new_stream(11, 0))
    vals = [path_sum_green(f, 0, 2, m) for m in range(12)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_path_sum_guards():
    f = sample_circle_field(5, 1.0, new_stream(12, 0))
    with pytest.raises(ValueError):
        path_sum_green(f, 0, 1, 5)      # 11 vertices > 7
    f3 = sample_circle_field(3, 1.0, new_stream(12, 1))
    with pytest.raises(ValueError):
        path_sum_green(f3, 0, 1, 31)


def test_interpolated_law_stabilizes_in_n():
    # empirical law of the interpolated entry at fixed (t, t') for n=64 vs n=256
    def samples(n, nrep, seed, t=0.3, t2=-0.4):
        size = n
        dim = 2 * size + 1
        a = sample_inverse_gaussian(float(n), new_stream(seed, 0),
                                    size=nrep * dim).reshape(nrep, dim)
        x, y = t * n + size, t2 * n + size
        ix, iy = int(math.floor(x)), int(math.floor(y))
        fx, fy = x - ix, y - iy
        corner = {}
        for dx in (0, 1):
            for dy in (0, 1):
                corner[(dx, dy)] = green_entries_from_a(a, float(n),
                                                        (ix + dx) % dim, (iy + dy) % dim)
        return ((1 - fx) * (1 - fy) * corner[(0, 0)] + fx * (1 - fy) * corner[(1, 0)]
                + (1 - fx) * fy * corner[(0, 1)] + fx * fy * corner[(1, 1)])

    rep = ks_two_sample(samples(64, 3000, 14), samples(256, 3000, 15), 0.01)
    assert rep.passed, rep


def test_invert_r_explicit_equals_the_indexed_reads():
    # the skewed view of the arc table reads the entries that n x n index
    # arrays gather, bit for bit, from dim 7 to dim 401
    for size in (3, 4, 10, 57, 131, 200):
        u = u_sequence(sample_circle_field(size, 8.0, new_stream(32, size)))
        assert np.array_equal(invert_R_explicit(u), invert_R_explicit_indexed(u))


def _near_singular_field():
    # 21 vertices at weight 8 whose A's multiply to within 5.2e-4 of 1:
    # cond(H) = 1.07e10
    return sample_circle_field(10, 8.0, new_stream(7163, 0))


def _rel(x, exact) -> float:
    """Largest |x - exact| / exact, exactly, over long-double or float x and Fraction exact."""
    return float(max(abs(Fraction(*v.as_integer_ratio()) - e) / e for v, e in zip(x, exact)))


def test_exact_column_of_a_near_singular_field():
    f = _near_singular_field()
    assert np.linalg.cond(dense_h(f.graph, f.beta)) >= 1e9
    (col,) = gc.green_exact_columns(f, [0]).T
    # H col = e_0 with not a bit to spare
    a, w, n = [Fraction(x) for x in f.a_seq.tolist()], Fraction(f.weight), f.a_seq.size
    assert [w * (a[(i + 1) % n] + 1 / a[i]) * col[i] - w * col[i - 1] - w * col[(i + 1) % n]
            for i in range(n)] == [1] + [0] * (n - 1)
    assert (float(col[0]), float(col[10])) == (34142739.45229357, 22293849.64323509)
    # the long-double oracle holds to its bound, here a few eps; the closed
    # form holds to 3.1e-13; the float64 dense solve of the rounded beta
    # misses by 4.6e-8, past the 1e-10 that explicit_inverse asks
    gl, bound = gc.green_longdouble(f)
    assert _rel(gl[:, 0], col) <= min(bound, 1e-17)
    assert _rel(green_from_field(f, Provenance.EXPLICIT_FORMULA)[:, 0], col) < 1e-12
    assert _rel(green_from_field(f, Provenance.DENSE_SOLVE)[:, 0], col) > 1e-10


def test_oracle_solves_exactly_each_column_it_cannot_judge():
    f = _near_singular_field()
    ge = green_from_field(f, Provenance.EXPLICIT_FORMULA)
    dev, bound, exact_cols = gc.oracle_deviation(f, ge, 1e-10)
    assert (exact_cols, dev < 1e-12, bound < 1e-15) == (0, True, True)
    # judged against its own deviation, every column is within the bound
    # of tol, so all of them are solved exactly
    dev_exact, _, exact_cols = gc.oracle_deviation(f, ge, dev)
    assert exact_cols == 21
    exact = gc.green_exact_columns(f, range(21))
    assert dev_exact == max(_rel(ge[:, j], exact[:, j]) for j in range(21))


def test_oracle_agrees_with_the_dense_solve_on_well_conditioned_fields():
    for i in range(5):
        f = sample_circle_field(4 + 3 * i, 3.0, new_stream(3, i))
        gl, _ = gc.green_longdouble(f)
        h = dense_h(f.graph, f.beta)
        assert np.linalg.cond(h) < 1e5
        gd = green_from_field(f, Provenance.DENSE_SOLVE)
        assert np.max(np.abs(gl - gd) / gl) < 1e-11
