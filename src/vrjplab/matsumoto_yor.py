"""Discrete Matsumoto-Yor chains and their continuum counterparts.

A chain of weight m is driven by i.i.d. multipliers A_i ~ IG(1, m):

    psi_n  = prod_{i<=n} A_i                (a mean-1 martingale),
    g11_n  = (1/m) sum_{k=0}^{n-1} psi_k^2 A_{k+1},
    z_n    = g11_n / psi_n,

which are the half-line Green quantities written directly in the
multipliers.  The hidden-Markov structure is exposed through two
samplers: the one-step transition kernel of z and the conditional law
of psi given z (an IG(1, 1/z) draw).  Rescaling step 1/m, the pair
converges to the geometric Brownian motion e_t and Z_t = (int e^2) / e,
whose pathwise construction and diffusion check live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import TestReport, ks_two_sample
from .stochastic import (IGParams, RngStream, SampledPath, cumtrapz, exp_functional_walk,
                         ig_root_draws, sample_gbm_path, sample_inverse_gaussian)


@dataclass
class MYChain:
    m: int
    length: int
    psi: np.ndarray      # psi_1..psi_length
    zhat: np.ndarray     # z_1..z_length
    g11: np.ndarray
    a_seq: np.ndarray


@dataclass
class MYContinuum:
    gbm: SampledPath
    big_t: np.ndarray    # cumulative trapezoid of e^2
    z: np.ndarray        # big_t / e


@dataclass
class LinearPath:
    """Piecewise-linear interpolation used for the rescaled chains."""

    t0: float
    step: float
    values: np.ndarray

    def at(self, t):
        times = self.t0 + self.step * np.arange(self.values.size)
        return np.interp(t, times, self.values)


def chain_arrays_from_a(a: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, g11, z) along the chain; vectorized over leading replica axis."""
    a = np.asarray(a, dtype=float)
    psi = np.cumprod(a, axis=-1)
    psi_prev = np.concatenate([np.ones_like(a[..., :1]), psi[..., :-1]], axis=-1)
    g11 = np.cumsum(psi_prev ** 2 * a, axis=-1) / m
    return psi, g11, g11 / psi


def build_my_chain(m: int, length: int, s: RngStream) -> MYChain:
    if m < 1 or length < 1:
        raise ValueError("need m >= 1 and length >= 1")
    a = sample_inverse_gaussian(IGParams(1.0, float(m)), s, size=length)
    psi, g11, z = chain_arrays_from_a(a, float(m))
    return MYChain(m, length, psi, z, g11, a)


def build_my_chains(m: int, length: int, n_rep: int, s: RngStream):
    """Ensemble version: (psi, g11, z) arrays of shape (n_rep, length)."""
    a = sample_inverse_gaussian(IGParams(1.0, float(m)), s,
                                size=n_rep * length).reshape(n_rep, length)
    return chain_arrays_from_a(a, float(m))


def kernel_step(z, m: int, s: RngStream):
    """One draw of z_{n+1} given z_n = z: (z/m) / IG(1/(m + 1/z), 1).

    Accepts a scalar or an array of current states (one draw each).
    The IG(1/eta, 1) variate comes from the scale relation
    IG(mu, lam) = mu * IG(1, lam/mu), so a single mean-1 draw of shape
    eta = m + 1/z serves every element.
    """
    zs = np.asarray(z, dtype=float)
    if np.any(zs <= 0):
        raise ValueError("z must be positive")
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    eta = m + 1.0 / zs
    out = (zs / m) * eta / ig_root_draws(1.0, eta, s.gen, eta.size)
    return float(out[0]) if scalar else out


def conditional_psi_given_z(z, s: RngStream):
    """Sample the conditional law of psi given z: IG(1, 1/z)."""
    zs = np.asarray(z, dtype=float)
    if np.any(zs <= 0):
        raise ValueError("z must be positive")
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    out = ig_root_draws(1.0, 1.0 / zs, s.gen, zs.size)
    return float(out[0]) if scalar else out


def scale_to_continuum(chain: MYChain) -> tuple[LinearPath, LinearPath]:
    """Rescaled piecewise-linear paths (psi~, z~) on [0, length/m].

    Node k/m carries (psi_k, z_k) with the conventional start
    (psi_0, z_0) = (1, 0).
    """
    if chain.length < chain.m:
        raise ValueError("chain too short to cover t in [0, 1]")
    psi_vals = np.concatenate([[1.0], chain.psi])
    z_vals = np.concatenate([[0.0], chain.zhat])
    h = 1.0 / chain.m
    return LinearPath(0.0, h, psi_vals), LinearPath(0.0, h, z_vals)


def build_continuum(tmax: float, step: float, s: RngStream) -> MYContinuum:
    """Pathwise (e, T, Z) on [0, tmax]; T by the trapezoid rule.

    The grid must resolve e^2; step <= 1e-3 is the documented default.
    """
    gbm = sample_gbm_path(0.0, tmax, step, s)
    big_t = cumtrapz(gbm.values ** 2, step)
    return MYContinuum(gbm, big_t, big_t / gbm.values)


def sample_z_pathwise(tmax: float, step: float, n_rep: int, s: RngStream) -> np.ndarray:
    """Ensemble of Z_tmax = int_0^tmax e^2 / e_tmax, e_t = e^{a_t - t/2} (O(n_rep) memory)."""
    nsteps = int(round(tmax / step))
    alpha, integ, _ = exp_functional_walk(s.gen, n_rep, step, nsteps)
    return integ / np.exp(alpha - nsteps * step / 2)


def euler_maruyama_z(tmax: float, step: float, n_rep: int, s: RngStream,
                     noise: bool = True) -> np.ndarray:
    """Euler-Maruyama ensemble for dZ = Z dW + (1 + Z) dt from Z_0 = 0."""
    nsteps = int(round(tmax / step))
    z = np.zeros(n_rep)
    sq = math.sqrt(step)
    for _ in range(nsteps):
        dw = sq * s.gen.standard_normal(n_rep) if noise else 0.0
        z = z + z * dw + (1.0 + z) * step
    return z


def z_diffusion_step_check(tmax: float, s: RngStream, n_rep: int = 10_000,
                           path_step: float = 1e-3, euler_step: float = 1e-3,
                           alpha: float = 0.01) -> TestReport:
    """Two-sample KS: pathwise Z_tmax vs the Euler-Maruyama ensemble."""
    za = sample_z_pathwise(tmax, path_step, n_rep, s)
    zb = euler_maruyama_z(tmax, euler_step, n_rep, s.substream(1))
    return ks_two_sample(za, zb, alpha, label=f"z-diffusion t={tmax}")
