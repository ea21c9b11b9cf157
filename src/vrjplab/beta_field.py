"""Random potential on the discrete circle and half-line.

The potential ``beta`` on a uniformly weighted 1-D graph is generated
from i.i.d. Inverse Gaussian multipliers ``A_i``:

* circle, weight w:      beta_i = (w/2) (A_{i+1} + 1/A_i)   (cyclic),
* half-line, weight w:   beta_1 = w/(2 A_1),
                         beta_i = (w/2) A_{i-1} + w/(2 A_i)  for i >= 2,

with A_i ~ IG(1, w).  The generating sequence is kept on the field
because every downstream closed form is a polynomial in the A's.

The measure of the potential (density and Laplace transform, including
the boundary vector eta used when restricting an infinite graph) is
exposed for verification on tiny graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .stochastic import RngStream, sample_inverse_gaussian

_DENSITY_MAX_VERTICES = 12
_DEGENERATE_TOL = 1e-12


class GraphShape(Enum):
    CIRCLE = "circle"
    HALFLINE_SEGMENT = "halfline_segment"


@dataclass(frozen=True)
class WeightedGraph1D:
    """Uniformly weighted circle (vertices -size..size) or segment 1..size."""

    shape: GraphShape
    size: int
    weight: float

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    @property
    def n_vertices(self) -> int:
        if self.shape is GraphShape.CIRCLE:
            return 2 * self.size + 1
        return self.size

    def edges(self) -> list[tuple[int, int]]:
        """Edge list in array coordinates 0..n_vertices-1."""
        n = self.n_vertices
        e = [(a, a + 1) for a in range(n - 1)]
        if self.shape is GraphShape.CIRCLE:
            e.append((n - 1, 0))
        return e


@dataclass
class BetaField:
    """A potential vector together with the multipliers that generated it."""

    graph: WeightedGraph1D
    beta: np.ndarray
    a_seq: np.ndarray

    def __post_init__(self) -> None:
        self.beta = np.asarray(self.beta, dtype=float)
        self.a_seq = np.asarray(self.a_seq, dtype=float)
        n = self.graph.n_vertices
        if self.beta.size != n or self.a_seq.size != n:
            raise ValueError("beta/a_seq length must match the vertex count")
        # For beta built from the A's, H_beta > 0 follows from these two: on
        # the segment the LDL^T pivots of H are w/A_i, and on the circle H = w D^-1 B B^T D^-1 with
        # D = diag(sqrt(A)) and B cyclic bidiagonal, det B = 1 - prod A.
        if not np.all(self.a_seq > 0):
            raise ValueError("multipliers A_i must be positive")
        if self.graph.shape is GraphShape.CIRCLE:
            # prod A_i = 1 makes H_beta singular (probability-zero event)
            if abs(np.sum(np.log(self.a_seq))) < _DEGENERATE_TOL:
                raise ValueError("degenerate field: prod(A_i) = 1, H_beta singular")

    @property
    def weight(self) -> float:
        return self.graph.weight


def dense_h(graph: WeightedGraph1D, beta: np.ndarray) -> np.ndarray:
    """Dense operator matrix: diagonal 2*beta, -weight on edges."""
    n = graph.n_vertices
    beta = np.asarray(beta, dtype=float)
    if beta.size != n:
        raise ValueError("beta length mismatch")
    h = np.zeros((n, n))
    np.fill_diagonal(h, 2.0 * beta)
    for a, b in graph.edges():
        h[a, b] -= graph.weight
        h[b, a] -= graph.weight
    return h


def circle_betas_from_a(a: np.ndarray, weight: float) -> np.ndarray:
    """beta_i = (w/2)(A_{i+1} + 1/A_i) with cyclic indexing; vectorized over rows."""
    a = np.asarray(a, dtype=float)
    return 0.5 * weight * (np.roll(a, -1, axis=-1) + 1.0 / a)


def halfline_betas_from_a(a: np.ndarray, weight: float) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    beta = 0.5 * weight / a
    beta[..., 1:] += 0.5 * weight * a[..., :-1]
    return beta


def circle_field_from_a(a: np.ndarray, weight: float) -> BetaField:
    a = np.asarray(a, dtype=float)
    size = (a.size - 1) // 2
    if 2 * size + 1 != a.size:
        raise ValueError("circle needs an odd number of vertices")
    graph = WeightedGraph1D(GraphShape.CIRCLE, size, weight)
    return BetaField(graph, circle_betas_from_a(a, weight), a)


def sample_circle_field(size: int, weight: float, s: RngStream) -> BetaField:
    """Circle field on 2*size+1 vertices with uniform conductance ``weight``."""
    a = sample_inverse_gaussian(weight, s, size=2 * size + 1)
    return circle_field_from_a(a, weight)


def construct_beta_circle(lam: float, n: int, s: RngStream) -> BetaField:
    """Scaled circle field: size ceil(lam*n), weight n, A_i ~ IG(1, n)."""
    if lam * n < 1:
        raise ValueError("need lam*n >= 1")
    return sample_circle_field(int(math.ceil(lam * n)), float(n), s)


def _checked_eta(eta, n: int) -> np.ndarray:
    if eta is None:
        return np.zeros(n)
    eta = np.asarray(eta, dtype=float)
    if eta.size != n:
        raise ValueError(f"eta length {eta.size} != vertex count {n}")
    if np.any(eta < 0):
        raise ValueError("eta entries must be nonnegative")
    return eta


def nu_density(beta, graph: WeightedGraph1D, eta=None) -> float:
    """Probability density of the potential measure at ``beta``.

    Returns 0 when the operator matrix is not positive definite; only
    meant for tiny graphs (dense factorization, |V| <= 12).
    """
    n = graph.n_vertices
    if n > _DENSITY_MAX_VERTICES:
        raise ValueError(f"density evaluation restricted to |V| <= {_DENSITY_MAX_VERTICES}")
    beta = np.asarray(beta, dtype=float)
    if beta.size != n:
        raise ValueError("beta length mismatch")
    eta = _checked_eta(eta, n)
    h = dense_h(graph, beta)
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return 0.0
    ones = np.ones(n)
    # <eta, H^-1 eta> through the factor; log det from the factor diagonal
    w = np.linalg.solve(chol, eta)
    quad = float(w @ w)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    logval = (0.5 * n * math.log(2.0 / math.pi)
              - 0.5 * float(ones @ h @ ones) - 0.5 * quad + float(eta @ ones)
              - 0.5 * logdet)
    return math.exp(logval)


def laplace_transform_closed_form(t, graph: WeightedGraph1D, eta=None) -> float:
    """Exact value of the Laplace transform E[exp(-<t, beta>)].

    Boundary terms for restrictions of an infinite graph enter through
    ``eta`` (e.g. the half-line segment 1..k carries eta = weight at
    vertex k for the edge leaving the segment).
    """
    n = graph.n_vertices
    t = np.asarray(t, dtype=float)
    if t.size != n:
        raise ValueError("t length mismatch")
    if np.any(t < 0):
        raise ValueError("t entries must be nonnegative")
    eta = _checked_eta(eta, n)
    s = np.sqrt(1.0 + t)
    log_val = -float(eta @ (s - 1.0))
    for a, b in graph.edges():
        log_val -= graph.weight * (s[a] * s[b] - 1.0)
    log_val -= float(np.sum(np.log(s)))
    return math.exp(log_val)
