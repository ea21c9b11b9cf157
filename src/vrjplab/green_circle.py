"""The Green function on the discrete circle: closed form and oracles.

The operator on a circle field factorizes as H = w * D^-1 R D^-1 with
D = diag(sqrt(A_i)) and R the cyclic tridiagonal matrix built from
u_i = sqrt(A_i A_{i+1}) (diagonal 1 + u_i^2, off-diagonals -u_i).  R has
a closed-form inverse whose entries are directed products and sums of
the u_i around the circle over the common denominator (prod u - 1)^2,
so the Green matrix G = H^-1 = (1/w) D R^-1 D is available without any
linear solve.  A dense Cholesky route is kept as the oracle.

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
    s, cl, log_den = _arcs(u * u, logs, np.arange(n), n - 1)
    idx_i, idx_j = np.indices((n, n))
    # P(i..j-1): the ((j-i-1) mod n) + 1 elements from i
    log_p = cl[idx_i + (idx_j - idx_i - 1) % n + 1] - cl[idx_i]
    # S(j+1..i-1): the (i-j-1) mod n elements ending at i-1
    s_val = s[(idx_i - idx_j - 1) % n, (idx_i - 1) % n]
    half = np.exp(log_p - log_den) * s_val
    inv = half + half.T
    np.fill_diagonal(inv, s[n - 1, (np.arange(n) - 1) % n] * math.exp(-log_den))
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

