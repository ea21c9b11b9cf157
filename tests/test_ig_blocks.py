"""The blocked IG sampler and the chain ends against whole-array versions.

sample_inverse_gaussian and build_my_chains below are the whole-array
forms, kept as the oracle: the sampler finishes the whole output in
several full-size temporaries, and the chain builder returns whole
(n_rep x length) arrays.  The library draws the same normals and uniforms
in the same order and gives each element the same float operations, the
IG draws a block at a time and the chains one multiplier column at a time,
keeping only the chain ends, so its outputs must equal the oracle's (last
columns) bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vrjplab.matsumoto_yor as my
import vrjplab.stochastic as stoch
from vrjplab.stochastic import RngStream, new_stream

from reference_paths import chain_arrays_from_a


def sample_inverse_gaussian(lam, s: RngStream, size: int) -> np.ndarray:
    """``size`` draws from IG(1, lam); ``lam`` > 0 is a scalar or an array of ``size`` shapes.

    Every mean reduces to mean 1 by the scale relation
    IG(mu, lam) = mu * IG(1, lam/mu).  The root construction: with
    y = Z^2 (Z ~ N(0, 1)),

        x+ = 1 + (y + sqrt(4 lam y + y^2)) / (2 lam)

    is the larger root of the IG quadratic and 1/x+ the smaller; return
    1/x+ with probability x+/(1 + x+), else x+.  Exact, no rejection loop.
    """
    if not np.all(np.asarray(lam) > 0):
        raise ValueError("IG shape lam must be positive")
    y = np.square(s.gen.standard_normal(size))
    x = 1.0 + (y + np.sqrt(4.0 * lam * y + y * y)) / (2.0 * lam)
    u = s.gen.uniform(size=size)
    return np.where(u <= x / (x + 1.0), 1.0 / x, x)


def build_my_chains(m: int, length: int, n_rep: int, s: RngStream, batch: int = 5000):
    """(psi, g11, z) arrays of shape (n_rep, length), one chain per replica.

    Replicas done .. done + batch - 1 draw their multipliers from
    s.substream(done + 1), row r for replica r.
    """
    if m < 1 or length < 1:
        raise ValueError("need m >= 1 and length >= 1")
    a = np.concatenate([
        sample_inverse_gaussian(float(m), s.substream(done + 1),
                                size=min(batch, n_rep - done) * length)
        for done in range(0, n_rep, batch)]).reshape(n_rep, length)
    return chain_arrays_from_a(a, float(m))


BLOCK = stoch._ROW_BLOCK_ELEMS

# sizes under one block, at the first boundary and across the second
sizes = st.one_of(st.integers(0, 300), st.integers(BLOCK - 3, BLOCK + 3),
                  st.integers(2 * BLOCK - 300, 2 * BLOCK + 300))
lam_kinds = st.sampled_from(["scalar", "size-1", "per-draw"])


def _lam(kind, value, size, seed):
    if kind == "scalar":
        return value
    if kind == "size-1":
        return np.array([value])
    # per-element shapes, as kernel_step passes them
    return value * (0.25 + np.random.default_rng(seed).random(size))


def _assert_chain_ends_match(m, length, n_rep, seed):
    psi, z = my.build_my_chains(m, length, n_rep, new_stream(seed, 2))
    psi_o, _, z_o = build_my_chains(m, length, n_rep, new_stream(seed, 2))
    assert np.array_equal(psi, psi_o[:, -1])
    assert np.array_equal(z, z_o[:, -1])


@given(seed=st.integers(0, 2 ** 32 - 1), size=sizes, kind=lam_kinds,
       value=st.floats(1e-3, 1e3))
def test_ig_bit_identical_to_oracle(seed, size, kind, value):
    lam = _lam(kind, value, size, seed)
    got = stoch.sample_inverse_gaussian(lam, new_stream(seed, 1), size)
    assert np.array_equal(got, sample_inverse_gaussian(lam, new_stream(seed, 1), size))


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 300), length=st.integers(1, 40),
       blocks=st.integers(0, 2), extra=st.integers(1, 300))
def test_chain_ends_bit_identical_to_oracle(seed, m, length, blocks, extra):
    # n_rep * length draws under one IG block, or across one or two block
    # ends; short chains then span several stream blocks of replicas
    rows = BLOCK // length
    _assert_chain_ends_match(m, length, blocks * rows + extra, seed)


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
def test_block_constant_does_not_change_the_draws(monkeypatch, block):
    monkeypatch.setattr(stoch, "_ROW_BLOCK_ELEMS", block)
    for lam in (3.0, _lam("per-draw", 3.0, 1000, 4)):
        got = stoch.sample_inverse_gaussian(lam, new_stream(4, 0), 1000)
        assert np.array_equal(got, sample_inverse_gaussian(lam, new_stream(4, 0), 1000))
    _assert_chain_ends_match(5, 20, 333, 4)
    _assert_chain_ends_match(3, 9, 50, 5)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_ig_and_chain_memory_is_the_draws_plus_blocks():
    # 2e6 draws take 15.3 MB (of 2^20 bytes); the whole-array routes
    # peaked at 78.2 MB, the blocked sampler at 15.8 MB and the chain
    # recursion at 17.6 MB
    s = new_stream(3, 0)
    assert _peak_mb(lambda: stoch.sample_inverse_gaussian(5.0, s, 2_000_000)) < 24
    assert _peak_mb(lambda: my.build_my_chains(5, 20, 100_000, s)) < 24
