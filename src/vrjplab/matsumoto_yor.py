"""Discrete Matsumoto-Yor chains and their continuum counterparts.

A chain of weight m is driven by i.i.d. multipliers A_i ~ IG(1, m):

    psi_n  = prod_{i<=n} A_i                (a mean-1 martingale),
    g11_n  = (1/m) sum_{k=0}^{n-1} psi_k^2 A_{k+1},
    z_n    = g11_n / psi_n,

which are the half-line Green quantities written directly in the
multipliers.  ``build_my_chains`` runs every chain at once, one
multiplier column at a time, and returns the chain ends psi_L and z_L
only, what the kernel and intertwining experiments read.  The
hidden-Markov structure is exposed through the one-step transition
kernel of z; the conditional law of psi given z, IG(1, 1/z), is checked
on the chains through its CDF (the intertwining experiment).  Rescaling
step 1/m, the pair converges to the geometric Brownian motion e_t and
Z_t = (int e^2) / e.  Z_t has two ensemble samplers here: pathwise, from
the exponential-functional walk, and the Euler-Maruyama scheme of its
diffusion.  Both walk the grid_cells grid of [0, tmax] and take their
per-step normals from stochastic.step_normals, a stream block of
replicas at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .stochastic import (RngStream, grid_cells, sample_inverse_gaussian, step_normals,
                         stream_blocks, walk_ends)

# Replicas per stream block (stochastic.stream_blocks).  The block sizes fix
# the seeded output, so they are constants; 5000 splits the registered
# 10 000 replicas in two.  The blocks run in turn, in the calling thread.
_CHAIN_STREAM_BLOCK = 5000
_Z_STREAM_BLOCK = 5000


def build_my_chains(m: int, length: int, n_rep: int, s: RngStream):
    """(psi_L, z_L), L = ``length``: the ends of n_rep chains, one per replica.

    Each stream block draws its multipliers in one call, row r for its
    replica r.  The chains then run one multiplier column at a time: the
    float operations of a cumulative product and sum, in the same order,
    in O(block) beside them.
    """
    if m < 1 or length < 1 or n_rep < 1:
        raise ValueError("need m >= 1, length >= 1 and n_rep >= 1")
    psi, g11 = np.ones(n_rep), np.zeros(n_rep)
    for first, count, block_stream in stream_blocks(s, n_rep, _CHAIN_STREAM_BLOCK):
        a = sample_inverse_gaussian(float(m), block_stream, size=count * length)
        p, g = psi[first:first + count], g11[first:first + count]
        for col in a.reshape(count, length).T:
            g += p ** 2 * col
            p *= col
    g11 /= m
    return psi, g11 / psi


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
    nsteps, h = grid_cells(tmax, step)
    alpha, integ, _ = walk_ends(tmax, step, n_rep, s, _Z_STREAM_BLOCK)
    return integ / np.exp(alpha - nsteps * h / 2)


def euler_maruyama_z(tmax: float, step: float, n_rep: int, s: RngStream) -> np.ndarray:
    """Euler-Maruyama ensemble for dZ = Z dW + (1 + Z) dt from Z_0 = 0."""
    nsteps, h = grid_cells(tmax, step)
    sq = math.sqrt(h)
    out = np.empty(n_rep)
    for first, count, block_stream in stream_blocks(s, n_rep, _Z_STREAM_BLOCK):
        z = np.zeros(count)
        for w in step_normals(block_stream.gen, count, nsteps):
            dw = sq * w
            z = z + z * dw + (1.0 + z) * h
        out[first:first + count] = z
    return out
