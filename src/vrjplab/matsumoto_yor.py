"""Discrete Matsumoto-Yor chains and their continuum counterparts.

A chain of weight m is driven by i.i.d. multipliers A_i ~ IG(1, m):

    psi_n  = prod_{i<=n} A_i                (a mean-1 martingale),
    g11_n  = (1/m) sum_{k=0}^{n-1} psi_k^2 A_{k+1},
    z_n    = g11_n / psi_n,

which are the half-line Green quantities written directly in the
multipliers.  The ensembles stream to the chain ends: ``build_my_chains``
runs the chains a block of replicas at a time and returns psi_L and z_L
only, what the kernel and intertwining experiments read; whole chains come
from ``chain_arrays_from_a``.  The hidden-Markov structure is exposed
through the one-step transition kernel of z; the conditional law of psi
given z, IG(1, 1/z), is checked on the chains through its CDF (the
intertwining experiment).  Rescaling step 1/m, the pair converges to the geometric
Brownian motion e_t and Z_t = (int e^2) / e.  Z_t has two ensemble
samplers here: pathwise, from the exponential-functional walk, and the
Euler-Maruyama scheme of its diffusion.  Both take their per-step
normals from stochastic.step_normals.
"""

from __future__ import annotations

import math

import numpy as np

from .stochastic import (_ROW_BLOCK_ELEMS, RngStream, exp_functional_walk,
                         sample_inverse_gaussian, step_normals, walk_steps)


def chain_arrays_from_a(a: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, g11, z) along the chain; vectorized over leading replica axis."""
    a = np.asarray(a, dtype=float)
    psi = np.cumprod(a, axis=-1)
    psi_prev = np.concatenate([np.ones_like(a[..., :1]), psi[..., :-1]], axis=-1)
    g11 = np.cumsum(psi_prev ** 2 * a, axis=-1) / m
    return psi, g11, g11 / psi


def build_my_chains(m: int, length: int, n_rep: int, s: RngStream):
    """(psi_L, z_L), L = ``length``: the ends of n_rep chains, one per replica.

    Every multiplier is drawn in one call, so the draws do not depend on
    the block; chain_arrays_from_a then runs a block of rows at a time and
    only the last column is kept, so the memory beyond the multipliers
    themselves does not grow with n_rep.
    """
    if m < 1 or length < 1:
        raise ValueError("need m >= 1 and length >= 1")
    a = sample_inverse_gaussian(float(m), s, size=n_rep * length).reshape(n_rep, length)
    psi_end, z_end = np.empty(n_rep), np.empty(n_rep)
    rows = max(1, _ROW_BLOCK_ELEMS // length)
    for lo in range(0, n_rep, rows):
        psi, _, z = chain_arrays_from_a(a[lo:lo + rows], float(m))
        psi_end[lo:lo + rows] = psi[:, -1]
        z_end[lo:lo + rows] = z[:, -1]
    return psi_end, z_end


def kernel_step(z: np.ndarray, m: int, s: RngStream) -> np.ndarray:
    """One draw of z_{n+1} given z_n = z per element: (z/m) / IG(1/(m + 1/z), 1).

    The IG(1/eta, 1) variate comes from the scale relation
    IG(mu, lam) = mu * IG(1, lam/mu), so a single mean-1 draw of shape
    eta = m + 1/z serves every element.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("z must be positive")
    eta = m + 1.0 / z
    return (z / m) * eta / sample_inverse_gaussian(eta, s, eta.size)


def sample_z_pathwise(tmax: float, step: float, n_rep: int, s: RngStream) -> np.ndarray:
    """Ensemble of Z_tmax = int_0^tmax e^2 / e_tmax, e_t = e^{a_t - t/2} (O(n_rep) memory)."""
    nsteps = walk_steps(tmax, step)
    alpha, integ, _ = exp_functional_walk(s.gen, n_rep, step, nsteps)
    return integ / np.exp(alpha - nsteps * step / 2)


def euler_maruyama_z(tmax: float, step: float, n_rep: int, s: RngStream) -> np.ndarray:
    """Euler-Maruyama ensemble for dZ = Z dW + (1 + Z) dt from Z_0 = 0."""
    nsteps = walk_steps(tmax, step)
    z = np.zeros(n_rep)
    sq = math.sqrt(step)
    for w in step_normals(s.gen, n_rep, nsteps):
        dw = sq * w
        z = z + z * dw + (1.0 + z) * step
    return z
