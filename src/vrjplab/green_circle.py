"""The Green function on the discrete circle: closed form and oracles.

The operator on a circle field factorizes as H = w * D^-1 R D^-1 with
D = diag(sqrt(A_i)) and R the cyclic tridiagonal matrix built from
u_i = sqrt(A_i A_{i+1}) (diagonal 1 + u_i^2, off-diagonals -u_i).  R has
a closed-form inverse whose entries are directed products and sums of
the u_i around the circle over the common denominator (prod u - 1)^2,
so the Green matrix G = H^-1 = (1/w) D R^-1 D is available without any
linear solve.  The oracle it is judged by (oracle_deviation) solves H
from the A's in long double, in a form with no cancellation but one
exact determinant, and exactly, in Fractions, for any column whose
verdict the long double cannot decide.  A dense Cholesky route of the
float64 beta is kept as a cross-check: its error grows as cond(H) * 1e-16,
past the closed form's own.

All indices here are array coordinates 0..dim-1; the circle orientation
is the +1 increment, and every directed product/sum is read from the
one arc helper, _arcs.  Long products are accumulated in log space; the
denominator uses expm1 so near-degenerate fields (prod u close to 1) do
not lose precision.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .beta_field import BetaField, dense_h

_DEGENERATE_TOL = 1e-12
LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)


class Provenance(Enum):
    EXPLICIT_FORMULA = "explicit_formula"
    DENSE_SOLVE = "dense_solve"


def u_sequence(field: BetaField) -> np.ndarray:
    a = field.a_seq
    return np.sqrt(a * np.roll(a, -1))


def _arcs(w: np.ndarray, logs: np.ndarray, ends, length: int):
    """Arc tables of a cyclic sequence u (last axis) that both closed forms read.

    Takes w = u^2 and logs = log u.  Returns (s, cl, log_den):

    * s[..., k, m] is S over the k elements of the arc ending at ends[m],
      k = 0..length: 1 + w_e + w_e w_{e-1} + ... (1 on the empty arc k = 0);
    * cl is the cumulative log of u over two laps of the circle, so the
      directed product P of u over the L elements from a is
      exp(cl[..., a + L] - cl[..., a]);
    * log_den is log (prod u - 1)^2, through expm1 of the log-product.
    """
    n = w.shape[-1]
    idx = (np.asarray(ends)[None, :] - np.arange(length)[:, None]) % n
    prods = np.cumprod(w[..., idx], axis=-2)
    ones = np.ones(prods.shape[:-2] + (1, prods.shape[-1]))
    s = np.cumsum(np.concatenate([ones, prods], axis=-2), axis=-2)
    c = np.cumsum(logs, axis=-1)
    cl = np.concatenate([np.zeros(c.shape[:-1] + (1,)), c, c[..., -1:] + c], axis=-1)
    log_prod = np.sum(logs, axis=-1)
    # math's expm1 and log, row by row: numpy's round differently, and the
    # seeded output of the full inverse is pinned to these
    log_den = np.array([2.0 * math.log(abs(math.expm1(x)))
                        for x in np.ravel(log_prod).tolist()]).reshape(np.shape(log_prod))
    return s, cl, log_den


def invert_R_explicit(u) -> np.ndarray:
    """Closed-form inverse of the cyclic matrix R built from u.

    Entry (i, j), i != j, is

        [ P(i..j-1) S(j+1..i-1) + P(j..i-1) S(i+1..j-1) ] / (prod u - 1)^2

    with P a directed product of u over the arc and S = 1 + the sum of
    directed squared-u products ending at the arc's last element (S = 1
    on the empty arc b = a-1); the diagonal is S(i+1..i-1) over the same
    denominator.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    if n < 3:
        raise ValueError("need dim >= 3")
    if np.any(u <= 0):
        raise ValueError("u entries must be positive")
    logs = np.log(u)
    if abs(np.sum(logs)) < _DEGENERATE_TOL:
        raise ValueError("degenerate u sequence: prod(u) = 1")
    # column i of the S table ends at i - 1
    s, cl, log_den = _arcs(u * u, logs, (np.arange(n) - 1) % n, n - 1)
    # P(i..j-1) = exp(cl[j'] - cl[i]) with j' = j above the diagonal and
    # j + n on and below it (the (j-i-1) mod n + 1 elements from i)
    above = np.arange(n) > np.arange(n)[:, None]
    log_p = np.where(above, cl[:n], cl[n:2 * n]) - cl[:n, None]
    # S(j+1..i-1), the (i-j-1) mod n elements ending at i-1: rows i-1, i-2, ...
    # of column i, cyclically; on the table stacked twice, row i-1-j+n, so
    # a view with step (one row + one column, -one row) reads it in place
    twice = np.concatenate([s, s])
    rs, cs = twice.strides
    s_val = np.lib.stride_tricks.as_strided(twice[n - 1:], (n, n), (rs + cs, -rs),
                                            writeable=False)
    half = np.exp(log_p - log_den) * s_val
    inv = half + half.T
    np.fill_diagonal(inv, s[n - 1] * math.exp(-log_den))
    return inv


def green_from_field(field: BetaField, method: Provenance) -> np.ndarray:
    """Green matrix G = H^-1 by the closed form or by dense factorization."""
    if method is Provenance.EXPLICIT_FORMULA:
        rinv = invert_R_explicit(u_sequence(field))
        d = np.sqrt(field.a_seq)
        return (np.outer(d, d) * rinv) / field.weight
    if method is Provenance.DENSE_SOLVE:
        from scipy.linalg import solve_triangular

        h = dense_h(field.graph, field.beta)
        # H = L L^T, so H^-1 = L^-T L^-1
        chol_inv = solve_triangular(np.linalg.cholesky(h), np.eye(h.shape[0]), lower=True)
        g = chol_inv.T @ chol_inv
        return 0.5 * (g + g.T)
    raise ValueError(f"unsupported method {method}")


# ---------------------------------------------------------------------------
# The oracle: H^-1 from the A's in long double, exact where it cannot decide
# ---------------------------------------------------------------------------

def _det_ratio(a: np.ndarray) -> tuple[int, int]:
    """(num, den) of det H / w^n = (prod A - 1)^2 / prod A, exactly.

    The A's are binary fractions, so prod A = N/D with integers N and D;
    this is the one difference of nearly equal numbers in H^-1.
    """
    num = den = 1
    for x in a.tolist():
        x_num, x_den = x.as_integer_ratio()
        num *= x_num
        den *= x_den
    return (num - den) ** 2, num * den


def _longdouble_quotient(num: int, den: int) -> np.longdouble:
    """num/den > 0 in long double, within one unit in its last place."""
    shift = 64 - (num.bit_length() - den.bit_length())
    q = (num << shift) // den if shift >= 0 else num // (den << -shift)
    return np.ldexp(np.longdouble(q >> 32) * np.longdouble(1 << 32)
                    + np.longdouble(q & 0xFFFFFFFF), -shift)


def _inverse_columns(a: np.ndarray, w, ratio, cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of H^-1 in the dtype of a, w and ratio = _det_ratio's quotient.

    H has diagonal d_i = w (A_{i+1} + 1/A_i) and -w on the edges of the
    circle, the corner (n-1, 0) included.  Border it: H_o is H on nodes
    0..m-1, m = n - 1, a tridiagonal M-matrix, and node m couples to it by
    h = -w (e_0 + e_{m-1}).

    * A Thomas sweep of H_o from node 0 has the pivots
      p_k = w (A_{k+1} + 1/s_k), s_0 = A_0, s_k = A_k^2 s_{k-1} + A_k, and
      one from node m-1 has q_k = w (1/A_k + 1/r_k), r_{m-1} = 1/A_m,
      r_k = r_{k+1} / A_{k+1}^2 + 1/A_{k+1} (substitute into
      p_k = d_k - w^2/p_{k-1}).  For i <= j, with U_k = prod_{l<k} w/p_l
      and V_j = prod_{l>j} q_l/p_l,
      (H_o^-1)_ij = U_j V_j / (p_j U_i)  (Usmani 1994).
    * With y = H_o^-1 (e_0 + e_{m-1}) and the Schur complement
      sigma = det H / det H_o = w * ratio * U_m, the bordered inverse is
      [[H_o^-1 + (w^2/sigma) y y^T, (w/sigma) y], [(w/sigma) y^T, 1/sigma]].

    Every step adds, multiplies or divides positive numbers, and sigma's
    cancellation is taken exactly in ratio, so in floating point each
    entry is within 20 n^2 eps (first order: s_k and r_k gather up to
    4 k eps, each of U, V up to 2 n^2 eps, and the rest a few eps more).
    The same code runs on np.longdouble arrays and on object arrays of
    Fractions.
    """
    m = a.size - 1
    s, r = a[:m].copy(), a[:m].copy()
    r[m - 1] = 1 / a[m]
    for k in range(1, m):
        s[k] = a[k] * a[k] * s[k - 1] + a[k]
        j = m - 1 - k
        r[j] = r[j + 1] / (a[j + 1] * a[j + 1]) + 1 / a[j + 1]
    p = w * (a[1:] + 1 / s)
    q = w * (1 / a[:m] + 1 / r)
    one = a[:1] / a[:1]     # 1 in a's dtype: an int 1 would divide to a float
    u = np.concatenate([one, np.cumprod(w / p)])
    v = np.concatenate([np.cumprod((q / p)[:0:-1])[::-1], one])
    sigma = w * ratio * u[m]
    col = u[:m] * v / p

    def h_o(i, j):
        """(H_o^-1)[i, j] for index vectors i, j."""
        return np.where(i[:, None] <= j[None, :], np.outer(1 / u[i], col[j]),
                        np.outer(col[i], 1 / u[j]))

    nodes = np.arange(m)
    inner = np.minimum(cols, m - 1)
    y = h_o(nodes, np.array([0, m - 1])).sum(axis=1)
    out = np.empty((m + 1, cols.size), dtype=p.dtype)
    out[:m] = h_o(nodes, inner) + (w * w / sigma) * np.outer(y, y[inner])
    out[m] = (w / sigma) * y[inner]
    last = cols == m
    out[:m, last] = (w / sigma) * y[:, None]
    out[m, last] = 1 / sigma
    return out


def require_longdouble() -> None:
    """Refuse a long double too short for the oracle to judge a 1e-10 deviation."""
    if LONGDOUBLE_EPS > 1e-18:
        raise ValueError(f"np.longdouble has eps {LONGDOUBLE_EPS:.3g} here; the inverse "
                         "oracle needs the 80-bit type or wider (eps <= 1e-18)")


def green_longdouble(field: BetaField) -> tuple[np.ndarray, float]:
    """(G, bound): G = H^-1 in np.longdouble, built from the field's A's, and
    20 n^2 eps, the relative error bound of its every entry (_inverse_columns)."""
    require_longdouble()
    a = field.a_seq.astype(np.longdouble)
    ratio = _longdouble_quotient(*_det_ratio(field.a_seq))
    g = _inverse_columns(a, np.longdouble(field.weight), ratio, np.arange(a.size))
    return g, 20.0 * a.size ** 2 * LONGDOUBLE_EPS


def green_exact_columns(field: BetaField, cols) -> np.ndarray:
    """Columns ``cols`` of G = H^-1 exactly: an object array of Fractions, dim x len(cols).

    The A's and the weight are binary fractions, so this is G itself.  It
    takes about 10 s for three columns at dim 201.
    """
    from fractions import Fraction   # and decimal: 3.5 ms of import, for a rare route

    a = np.array([Fraction(x) for x in field.a_seq.tolist()], dtype=object)
    return _inverse_columns(a, Fraction(field.weight), Fraction(*_det_ratio(field.a_seq)),
                            np.asarray(cols))


def oracle_deviation(field: BetaField, g: np.ndarray, tol: float) -> tuple[float, float, int]:
    """(max_ij |g_ij - G_ij| / G_ij, the oracle's bound, columns solved exactly).

    G = H^-1 is read from green_longdouble.  An entry whose deviation lies
    within twice the oracle's bound of ``tol`` cannot be judged against
    ``tol`` from it, so its column is read from green_exact_columns
    instead; the verdict never rests on an oracle error.
    """
    gl, bound = green_longdouble(field)
    dev = np.subtract(g, gl)         # in long double
    np.abs(dev, out=dev)
    dev /= gl
    if dev.max() < tol - 2.0 * bound:
        return float(dev.max()), bound, 0
    unsure = np.flatnonzero(np.any(np.abs(dev - tol) <= 2.0 * bound, axis=0))
    if unsure.size:
        from fractions import Fraction

        exact = green_exact_columns(field, unsure)
        gx = np.array([[Fraction(x) for x in row] for row in g[:, unsure].tolist()], dtype=object)
        dev[:, unsure] = (abs(gx - exact) / exact).astype(float)
    return float(np.max(dev)), bound, int(unsure.size)


def green_entries_from_a(a2d: np.ndarray, weight: float, i: int, j: int) -> np.ndarray:
    """G(i, j) for a batch of circle fields given as rows of A multipliers.

    O(dim) per replica; used by the ensemble experiments where the full
    inverse would be wasteful.
    """
    a2d = np.atleast_2d(np.asarray(a2d, dtype=float))
    n = a2d.shape[1]
    w = a2d * np.roll(a2d, -1, axis=1)          # u_k^2 = A_k A_{k+1}
    logu = 0.5 * np.log(w)
    i %= n
    j %= n
    if i == j:
        s, _, log_den = _arcs(w, logu, [(i - 1) % n], n - 1)
        rinv = s[:, n - 1, 0] * np.exp(-log_den)
    else:
        # S(j+1..i-1) and S(i+1..j-1) end at i-1 and j-1
        l1, l2 = (i - j - 1) % n, (j - i - 1) % n
        s, cl, log_den = _arcs(w, logu, [(i - 1) % n, (j - 1) % n], max(l1, l2))
        lp1 = cl[:, i + l2 + 1] - cl[:, i]          # P(i..j-1)
        lp2 = cl[:, j + l1 + 1] - cl[:, j]          # P(j..i-1)
        rinv = np.exp(lp1 - log_den) * s[:, l1, 0] + np.exp(lp2 - log_den) * s[:, l2, 1]
    return np.sqrt(a2d[:, i] * a2d[:, j]) * rinv / weight

