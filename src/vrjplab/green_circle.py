"""The Green function on the discrete circle: closed form and oracles.

The operator on a circle field factorizes as H = w * D^-1 R D^-1 with
D = diag(sqrt(A_i)) and R the cyclic tridiagonal matrix built from
u_i = sqrt(A_i A_{i+1}) (diagonal 1 + u_i^2, off-diagonals -u_i).  R has
a closed-form inverse whose entries are directed products and sums of
the u_i around the circle over the common denominator (prod u - 1)^2,
so the Green matrix G = H^-1 = (1/w) D R^-1 D is available without any
linear solve.  A dense Cholesky route is kept as the oracle.

All indices here are array coordinates 0..dim-1; the circle orientation
is the +1 increment, and every directed product/sum goes through the
same arc helpers.  Long products are accumulated in log space; the
denominator uses expm1 so near-degenerate fields (prod u close to 1) do
not lose precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .beta_field import BetaField, dense_h

_INVERSE_REL_TOL = 1e-10


class Provenance(Enum):
    EXPLICIT_FORMULA = "explicit_formula"
    DENSE_SOLVE = "dense_solve"


@dataclass
class GreenMatrix:
    dim: int
    entries: np.ndarray
    provenance: Provenance

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError("entries shape mismatch")


@dataclass
class USequence:
    u: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        if np.any(self.u <= 0):
            raise ValueError("u entries must be positive")
        if abs(np.sum(np.log(self.u))) < 1e-12:
            raise ValueError("degenerate u sequence: prod(u) = 1")


def u_sequence(field: BetaField) -> USequence:
    a = field.a_seq
    return USequence(np.sqrt(a * np.roll(a, -1)))


def _log_denominator(u: np.ndarray) -> float:
    """log of (prod u - 1)^2 via expm1 of the log-product."""
    return 2.0 * math.log(abs(math.expm1(float(np.sum(np.log(u))))))


def invert_R_explicit(u: USequence) -> GreenMatrix:
    """Closed-form inverse of the cyclic matrix R built from u.

    Entry (i, j), i != j, is

        [ P(i..j-1) S(j+1..i-1) + P(j..i-1) S(i+1..j-1) ] / (prod u - 1)^2

    with P a directed product of u over the arc and S = 1 + the sum of
    directed squared-u products ending at the arc's last element (S = 1
    on the empty arc b = a-1); the diagonal is S(i+1..i-1) over the same
    denominator.
    """
    un = u.u
    n = un.size
    if n < 3:
        raise ValueError("need dim >= 3")
    w = un * un
    # C[s, e] = prod_{d=0..s} w[(e-d) mod n]; cumG[s, e] = 1 + sum_{s'<=s} C[s', e]
    cum_g = np.empty((n - 1, n))
    row = w.copy()
    acc = 1.0 + row
    cum_g[0] = acc
    for s in range(1, n - 1):
        row = row * np.roll(w, s)
        acc = acc + row
        cum_g[s] = acc
    logs = np.log(un)
    cl = np.concatenate([[0.0], np.cumsum(logs)])
    cl2 = np.concatenate([cl, cl[n] + cl[1:]])
    idx_i, idx_j = np.indices((n, n))
    # P(i -> j-1): arc length ((j-i-1) mod n) + 1
    arc_p = (idx_j - idx_i - 1) % n + 1
    log_p = cl2[idx_i + arc_p] - cl2[idx_i]
    # S(j+1 -> i-1): empty iff j == i-1; else row index ((i-j-2) mod n)
    arc_s = (idx_i - idx_j - 2) % n
    s_val = cum_g[np.minimum(arc_s, n - 2), (idx_i - 1) % n]
    s_val = np.where((idx_j - idx_i + 1) % n == 0, 1.0, s_val)
    log_den = _log_denominator(un)
    half = np.exp(log_p - log_den) * s_val
    inv = half + half.T
    diag = cum_g[n - 2, (np.arange(n) - 1) % n] * math.exp(-log_den)
    np.fill_diagonal(inv, diag)
    return GreenMatrix(n, inv, Provenance.EXPLICIT_FORMULA)


def green_from_field(field: BetaField, method: Provenance = Provenance.EXPLICIT_FORMULA) -> GreenMatrix:
    """Green matrix G = H^-1 by the closed form or by dense factorization."""
    if method is Provenance.EXPLICIT_FORMULA:
        rinv = invert_R_explicit(u_sequence(field)).entries
        d = np.sqrt(field.a_seq)
        g = (np.outer(d, d) * rinv) / field.weight
        return GreenMatrix(field.graph.n_vertices, g, method)
    if method is Provenance.DENSE_SOLVE:
        h = dense_h(field.graph, field.beta)
        chol = np.linalg.cholesky(h)
        eye = np.eye(h.shape[0])
        g = np.linalg.solve(chol.T, np.linalg.solve(chol, eye))
        g = 0.5 * (g + g.T)
        return GreenMatrix(h.shape[0], g, method)
    raise ValueError(f"unsupported method {method}")


def _arc_sum(w2d: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """S(a..b) per replica: 1 + sum of directed squared-u products ending at b."""
    if (b - a + 1) % n == 0:
        return np.ones(w2d.shape[0])
    length = (b - a) % n + 1
    t = np.zeros(w2d.shape[0])
    for d in range(length):
        t = w2d[:, (a + d) % n] * (1.0 + t)
    return 1.0 + t


def _arc_logprod(logu2d: np.ndarray, a: int, length: int, n: int) -> np.ndarray:
    idx = (a + np.arange(length)) % n
    return np.sum(logu2d[:, idx], axis=1)


def green_entries_from_a(a2d: np.ndarray, weight: float, i: int, j: int) -> np.ndarray:
    """G(i, j) for a batch of circle fields given as rows of A multipliers.

    O(dim) per replica; used by the ensemble experiments where the full
    inverse would be wasteful.
    """
    a2d = np.atleast_2d(np.asarray(a2d, dtype=float))
    n = a2d.shape[1]
    w = a2d * np.roll(a2d, -1, axis=1)          # u_k^2 = A_k A_{k+1}
    logu = 0.5 * np.log(w)
    log_den = 2.0 * np.log(np.abs(np.expm1(np.sum(logu, axis=1))))
    i %= n
    j %= n
    if i == j:
        num = _arc_sum(w, (i + 1) % n, (i - 1) % n, n)
        rinv = num * np.exp(-log_den)
    else:
        lp1 = _arc_logprod(logu, i, (j - i - 1) % n + 1, n)
        s1 = _arc_sum(w, (j + 1) % n, (i - 1) % n, n)
        lp2 = _arc_logprod(logu, j, (i - j - 1) % n + 1, n)
        s2 = _arc_sum(w, (i + 1) % n, (j - 1) % n, n)
        rinv = np.exp(lp1 - log_den) * s1 + np.exp(lp2 - log_den) * s2
    return np.sqrt(a2d[:, i] * a2d[:, j]) * rinv / weight


def interpolate_green(g: GreenMatrix, n: int, t: float, t2: float) -> float:
    """Rescaled bilinear interpolation of the Green matrix at (t, t2).

    Grid nodes sit at vertex/n positions; exact at the nodes, cyclic
    across the wrap cell.
    """
    dim = g.dim
    k = (dim - 1) // 2
    lam_max = k / n
    for arg in (t, t2):
        if not -lam_max - 1e-12 <= arg <= lam_max + 1e-12:
            raise ValueError(f"interpolation argument {arg} outside [-{lam_max}, {lam_max}]")
    x = t * n + k
    y = t2 * n + k
    ix, iy = int(math.floor(x + 1e-12)), int(math.floor(y + 1e-12))
    fx, fy = x - ix, y - iy
    ix %= dim
    iy %= dim
    jx, jy = (ix + 1) % dim, (iy + 1) % dim
    e = g.entries
    return float(e[ix, iy]
                 + fx * (e[jx, iy] - e[ix, iy])
                 + fy * (e[ix, jy] - e[ix, iy])
                 + fx * fy * (e[ix, iy] + e[jx, jy] - e[ix, jy] - e[jx, iy]))


def path_sum_green(field: BetaField, i: int, j: int, max_len: int) -> float:
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


def vrjp_rates(g: GreenMatrix, field: BetaField, i0: int) -> dict[tuple[int, int], float]:
    """Quenched jump rates i -> j = (W_ij / 2) G(i0, j) / G(i0, i)."""
    n = field.graph.n_vertices
    i0 %= n
    w = field.weight
    rates: dict[tuple[int, int], float] = {}
    for a, b in field.graph.edges():
        rates[(a, b)] = 0.5 * w * g.entries[i0, b] / g.entries[i0, a]
        rates[(b, a)] = 0.5 * w * g.entries[i0, a] / g.entries[i0, b]
    return rates
