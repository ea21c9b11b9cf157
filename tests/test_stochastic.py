"""Samplers and reference distributions."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special

import vrjplab
import vrjplab.stochastic as st
from vrjplab.continuum_kernel import KernelPath
from vrjplab.experiments import list_experiments
from vrjplab.stats import ks_one_sample, mean_ci
from vrjplab.stochastic import (SampledPath, grid_cells,
                                inverse_gamma_half_cdf, inverse_gaussian_cdf,
                                log_gbm_rows, new_stream, sample_inverse_gaussian)

from reference_paths import path_times, sample_brownian_path


def test_stream_determinism():
    a = new_stream(42, 0).gen.uniform(size=100)
    b = new_stream(42, 0).gen.uniform(size=100)
    assert np.array_equal(a, b)


def test_stream_zero_seed_ok():
    s = new_stream(0, 0)
    assert 0.0 <= s.gen.uniform() < 1.0


def test_substreams_uncorrelated():
    u = new_stream(42, 0).gen.uniform(size=100_000)
    v = new_stream(42, 1).gen.uniform(size=100_000)
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.01


def test_substream_keys_are_paths():
    # a child's children are not its siblings: with a stream id that adds k,
    # s.substream(1).substream(1) was s.substream(2)
    s = new_stream(42, 3)
    assert (s.path, s.substream(1).path, s.substream(1).substream(1).path) == (
        (3,), (3, 1), (3, 1, 1))
    a = s.substream(1).substream(1).gen.standard_normal(1000)
    b = s.substream(2).gen.standard_normal(1000)
    assert not np.any(a == b)
    assert type(s.gen.bit_generator).__name__ == st.BIT_GENERATOR


def test_sibling_streams_of_stream_blocks_are_uncorrelated():
    # 64 stream blocks of one replica: under independence each pairwise
    # correlation of N normals is about N(0, 1/N).  Of the 2016 pairs, the
    # number outside the 99% band z_0.995 / sqrt(N) is Binomial(2016, 0.01)
    # (mean 20, 99.9% quantile 36), and none is outside the band that holds
    # all 2016 pairs at once with probability 0.99 (Bonferroni)
    from scipy import stats

    n_draw = 20_000
    x = np.array([b.gen.standard_normal(n_draw)
                  for _, _, b in st.stream_blocks(new_stream(5, 0), 64, 1)])
    z = np.abs(np.corrcoef(x)[np.triu_indices(64, 1)]) * math.sqrt(n_draw)
    assert np.sum(z > stats.norm.isf(0.005)) <= stats.binom.ppf(0.999, z.size, 0.01)
    assert z.max() < stats.norm.isf(0.005 / z.size)


def test_ig_params_validation():
    with pytest.raises(ValueError):
        sample_inverse_gaussian(0.0, new_stream(1, 0), 3)
    with pytest.raises(ValueError):
        sample_inverse_gaussian(np.array([1.0, -2.0, 3.0]), new_stream(1, 0), 3)


def test_ig_lam_is_one_shape_or_one_per_draw():
    # a size-1 lam is a scalar; any other length than size is refused
    # before a draw, with both lengths in the message
    one = sample_inverse_gaussian(np.array([2.5]), new_stream(1, 1), 5)
    assert np.array_equal(one, sample_inverse_gaussian(2.5, new_stream(1, 1), 5))
    for lam in (np.ones(4), np.ones(6), np.ones((5, 1)), np.ones((1, 5))):
        with pytest.raises(ValueError, match=rf"length 5, got shape \({lam.shape[0]},"):
            sample_inverse_gaussian(lam, new_stream(1, 1), 5)


def test_ig_moments():
    s = new_stream(7, 0)
    x = sample_inverse_gaussian(4.0, s, size=100_000)
    m1, h1 = mean_ci(x, 0.01)
    m2, h2 = mean_ci(x ** 2, 0.01)
    assert abs(m1 - 1.0) < h1
    assert abs(m2 - 1.25) < h2


def test_ig_small_shape_roots_stay_positive():
    # y/lam reaches 1e9 and more: the smaller root taken as a difference
    # cancelled to 0 or below in 22 333 of these 1e5 draws; as 1/x+ it cannot
    x = sample_inverse_gaussian(1e-8, new_stream(3, 0), 100_000)
    assert np.all(x > 0) and np.all(np.isfinite(x))


@pytest.mark.parametrize("lam", [1e-2, 1.0, 1e2])
def test_ig_ks_across_shapes(lam):
    x = sample_inverse_gaussian(lam, new_stream(9, 1), 20_000)
    rep = ks_one_sample(x, lambda v: inverse_gaussian_cdf(v, 1.0, lam), 0.01)
    assert rep.passed, rep


def test_ig_large_shape_concentration():
    s = new_stream(8, 0)
    x = sample_inverse_gaussian(1e8, s, size=10_000)
    assert np.all(np.abs(x - 1.0) < 1e-3)


def test_ig_ks_against_closed_form_cdf():
    s = new_stream(9, 0)
    x = sample_inverse_gaussian(2.0, s, size=10_000)
    rep = ks_one_sample(x, lambda v: inverse_gaussian_cdf(v, 1.0, 2.0), 0.01)
    assert rep.passed, rep


def test_ig_log_moment_asymptotics():
    # mean of ln IG(1,n) ~ -1/(2n), variance ~ 1/n
    for n in (16, 64, 256):
        s = new_stream(100 + n, 0)
        x = np.log(sample_inverse_gaussian(float(n), s, size=20_000))
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() + 1.0 / (2 * n)) < 3 * se, n
        assert abs(x.var(ddof=1) - 1.0 / n) < 0.10 / n, n


def test_gamma_half():
    x = new_stream(10, 0).gen.standard_gamma(0.5, size=100_000)
    assert np.all(x > 0)
    m, h = mean_ci(x, 0.01)
    assert abs(m - 0.5) < h
    rep = ks_one_sample(x[:10_000], lambda v: scipy.special.gammainc(0.5, v), 0.01)
    assert rep.passed and rep.statistic < 0.0163


def test_brownian_marginal_variance():
    s = new_stream(11, 0)
    vals = np.array([sample_brownian_path(0.0, 1.0, 0.01, s).values[-1]
                     for _ in range(10_000)])
    v = vals.var(ddof=1)
    assert abs(v - 1.0) < 4 * math.sqrt(2.0 / vals.size)


def test_brownian_two_sided_independence():
    s = new_stream(12, 0)
    left, right = [], []
    for _ in range(4000):
        p = sample_brownian_path(-1.0, 1.0, 0.1, s)
        assert p.values[10] == 0.0         # the grid -1 + 0.1 k meets 0 at k = 10
        left.append(p.values[0])
        right.append(p.values[-1])
    cov = np.mean(np.array(left) * np.array(right))
    assert abs(cov) < 4.0 / math.sqrt(len(left))


def test_brownian_preconditions():
    s = new_stream(13, 0)
    with pytest.raises(ValueError):
        sample_brownian_path(0.0, 1.0, 0.0, s)
    with pytest.raises(ValueError):
        sample_brownian_path(1.0, 1.0, 0.1, s)


def test_brownian_path_is_cumsum_of_scaled_draws():
    # the path is filled in place; its values are those of the plain
    # cumsum of the scaled increments, anchored at the grid point nearest 0
    path = sample_brownian_path(-1.0, 2.0, 1e-2, new_stream(4, 2))
    incr = new_stream(4, 2).gen.standard_normal(300) * math.sqrt(1e-2)
    want = np.concatenate([[0.0], np.cumsum(incr)])
    assert np.array_equal(path.values, want - want[100])


@pytest.mark.parametrize("block", [1, 7, 300, 1000])
def test_brownian_blocks_equal_the_whole_path(block):
    # row r is one whole scaled draw of its own generator, bit for bit,
    # whatever the block; the blocks cover the cells in order
    n_cells, step = 300, 1e-2
    want = [new_stream(9, r).gen.standard_normal(n_cells) * math.sqrt(step) for r in range(3)]
    gens = [new_stream(9, r).gen for r in range(3)]
    seen = 0
    for lo, incr in st.brownian_increments(gens, n_cells, step, block):
        assert lo == seen and incr.shape == (3, min(block, n_cells - lo))
        for row, whole in zip(incr, want):
            assert np.array_equal(row, whole[lo:lo + incr.shape[1]])
        seen += incr.shape[1]
    assert seen == n_cells


def test_walk_steps(monkeypatch):
    # the stepwise walks on [0, tmax] take the grid_cells steps, one (n,)
    # draw of normals per step from their one stream block, none from s
    # itself, and refuse a bad (span, step) before any draw
    import vrjplab.matsumoto_yor as my
    blocks, stream_blocks = [], st.stream_blocks

    def recording(s, n_rep, block):
        for b in stream_blocks(s, n_rep, block):
            blocks.append(b[2])
            yield b

    for module in (my, st):     # st for walk_ends
        monkeypatch.setattr(module, "stream_blocks", recording)
    n = 3
    for walk in (my.euler_maruyama_z, my.sample_z_pathwise):
        for span, step, nsteps in ((1.0, 1e-3, 1000), (2.5, 1.0, 3), (1e-4, 1e-3, 1)):
            s, ref = new_stream(5, 2), new_stream(5, 2).substream(1).gen
            blocks.clear()
            walk(span, step, n, s)
            ref.standard_normal(n * nsteps)
            assert [b.path for b in blocks] == [(2, 1)]
            assert blocks[0].gen.uniform() == ref.uniform()
            assert s.gen.uniform() == new_stream(5, 2).gen.uniform()
        for span, step in ((-1.0, 1e-3), (1.0, 0.0), (0.0, 1e-3), (math.inf, 1.0),
                           (math.nan, 1.0)):
            s = new_stream(5, 2)
            with pytest.raises(ValueError, match="positive and finite"):
                walk(span, step, n, s)
            assert s.gen.uniform() == new_stream(5, 2).gen.uniform()


def test_sampled_path_is_geometric():
    # a SampledPath is M itself, so a value that is not positive is refused
    for values in ([1.0, 0.0], [1.0, -0.5], [1.0, np.nan]):
        with pytest.raises(ValueError, match="strictly positive"):
            SampledPath(0.0, 1e-3, np.array(values))


def test_grid_cells():
    assert grid_cells(1.0, 1e-3) == (1000, 1.0 / 1000)
    assert grid_cells(4.9, 0.7) == (7, 4.9 / 7)      # 4.9/0.7 rounds above 7
    assert grid_cells(0.3, 0.07) == (5, 0.3 / 5)
    assert grid_cells(0.01, 1.0) == (1, 0.01)          # a span under one step is one cell
    assert grid_cells(2.5, 1.0) == (3, 2.5 / 3)          # the last cell ends at the span
    for span, step in ((-1.0, 1e-3), (1.0, 0.0), (0.0, 1e-3), (math.inf, 1.0),
                       (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="positive and finite"):
            grid_cells(span, step)


def test_gbm_deterministic_transform():
    # KernelPath.sample is the geometric map exp(B_t - t/2) of the one
    # builder row, equal to it applied to the two-sided Brownian path of
    # the same stream, with M_0 = 1 exactly
    for lam, step in ((1.0, 1e-3), (40.0, 1e-3), (0.37, 2e-3)):
        half, h = grid_cells(lam, step)
        b = sample_brownian_path(-lam, lam, h, new_stream(3, 1))
        gbm = KernelPath.sample(lam, step, new_stream(3, 1)).gbm
        assert (gbm.t0, gbm.step) == (-lam, h)
        assert np.array_equal(gbm.values, np.exp(b.values - path_times(b) / 2.0))
        assert gbm.values[half] == 1.0


def test_gbm_martingale_and_log_moment():
    lam, n = 1.0, 10_000
    ends = np.empty(n)
    for lo, rows in log_gbm_rows(lam, 0.01, n, new_stream(14, 0)):
        ends[lo:lo + len(rows)] = np.exp(rows[:, -1])
    m, h = mean_ci(ends, 0.01)
    assert abs(m - 1.0) < h
    lm, lh = mean_ci(np.log(ends), 0.01)
    assert abs(lm + 0.5 * lam) < lh


def test_gbm_grid_identity():
    # every builder row is a two-sided Brownian path of the same stream
    # read as log M = B_t - t/2: on a whole number of steps and not, and
    # over more than one row block
    for lam, step in ((1.0, 1e-2), (0.37, 2e-2)):
        half, h = grid_cells(lam, step)
        per_block = st._ROW_BLOCK_ELEMS // (2 * half + 1)
        count = 2 * per_block + 5
        ref = new_stream(15, 0)
        seen = 0
        for lo, rows in log_gbm_rows(lam, step, count, new_stream(15, 0)):
            assert lo == seen and len(rows) <= per_block
            for row in rows:
                b = sample_brownian_path(-lam, lam, h, ref)
                assert np.array_equal(row, b.values - path_times(b) / 2.0)
            seen += len(rows)
        assert seen == count


def test_draws_live_only_in_stochastic():
    # every normal and gamma variate in the package is drawn in stochastic.py
    src = Path(vrjplab.__file__).parent
    drawing = []
    for path in sorted(src.glob("*.py")):
        if path.name == "stochastic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("standard_normal", "standard_gamma")):
                drawing.append(f"{path.name}:{node.lineno}")
    assert drawing == []


# Helpers kept in src/ although no registered experiment runs them yet, each
# with the ROADMAP item that is to run them.  The census below lets this list
# only shrink: a helper leaves it when an experiment reaches it or when it is
# deleted.
PENDING = (
    ("continuum_kernel.KernelPath", "item 6: the kernel is the Green function of H"),
    ("continuum_kernel.kernel_eval", "item 6: the kernel is the Green function of H"),
    ("continuum_kernel.line_kernel_eval", "item 6: the line diagonal law"),
    ("continuum_kernel.apply_kernel", "item 6: the kernel is the Green function of H"),
    ("continuum_kernel.flux_fd", "item 6: the kernel is the Green function of H"),
    ("continuum_kernel.flux_closed_form", "item 6: the kernel is the Green function of H"),
    ("continuum_kernel.operator_residual", "item 6: the kernel is the Green function of H"),
    ("continuum_kernel.twisted_neumann_mismatch",
     "item 6: the kernel is the Green function of H"),
    ("continuum_kernel.sample_line_diagonal", "item 6: the line diagonal law"),
    ("beta_field.nu_density", "item 6: the law of beta"),
    ("beta_field.laplace_transform_closed_form", "item 6: the law of beta"),
    ("beta_field.halfline_betas_from_a", "item 6: the law of beta"),
    ("beta_field.construct_beta_circle", "item 5: the spectral scaling limit"),
    ("spectrum.discrete_spectrum_matrix", "item 5: the spectral scaling limit"),
    ("spectrum.count_states_matrix", "item 5: the spectral scaling limit"),
)


def _top_level_census():
    """(definitions, reach) of the package's top-level names, by AST.

    A definition is a top-level function, class or assigned name, keyed
    "module.name".  reach(roots) follows the names each reached definition
    refers to (bare names and module.attribute through the package's own
    imports) and returns every definition reached.  The statements a module
    runs on import, such as a fork hook, are roots of every reach.
    """
    src = Path(vrjplab.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    defs, on_import = {}, []
    names = {mod: {} for mod in trees}    # per module: local name -> "module.name"
    modules = {mod: {} for mod in trees}  # per module: local alias -> package module
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        names[mod][local] = f"{node.module}.{alias.name}"
                    elif alias.name in trees:
                        modules[mod][local] = alias.name
                    else:
                        names[mod][local] = f"__init__.{alias.name}"
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            elif isinstance(node, ast.Import) or (isinstance(node, ast.Expr) and
                                                  isinstance(node.value, ast.Constant)):
                continue
            else:
                on_import.append((mod, node))
                continue
            for name in targets:
                names[mod][name] = f"{mod}.{name}"
                defs.setdefault(f"{mod}.{name}", []).append((mod, node))

    def refs(mod, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in names[mod]:
                yield names[mod][sub.id]
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id in modules[mod]):
                yield f"{modules[mod][sub.value.id]}.{sub.attr}"

    def reach(roots):
        seen = set()
        todo = [name for mod, node in on_import for name in refs(mod, node)] + list(roots)
        while todo:
            name = todo.pop()
            if name in seen or name not in defs:
                continue
            seen.add(name)
            for mod, node in defs[name]:
                todo.extend(refs(mod, node))
        return seen

    return defs, reach


def test_src_holds_only_what_experiments_run():
    # every top-level definition in src/ is reached from a registered
    # experiment or the CLI, or is a PENDING helper (or reached from one);
    # a PENDING helper that is reached or gone must leave the list
    defs, reach = _top_level_census()
    roots = [f"experiments.{spec.fn.__name__}" for spec in list_experiments()]
    roots += ["cli.main", "cli.run"]
    pending = [name for name, _ in PENDING]
    run = reach(roots)
    assert sorted(set(pending) & run) == []
    assert sorted(set(pending) - set(defs)) == []
    assert sorted(set(defs) - reach(roots + pending)) == []


def test_inverse_gamma_half_cdf_values():
    assert abs(inverse_gamma_half_cdf(2.1981) - 0.5) < 1e-4
    assert inverse_gamma_half_cdf(1e12) > 1 - 1e-5
    assert inverse_gamma_half_cdf(1e-12) < 1e-10
    with pytest.raises(ValueError):
        inverse_gamma_half_cdf(0.0)
    x = np.linspace(0.1, 50, 200)
    assert np.all(np.diff(inverse_gamma_half_cdf(x)) > 0)


def test_inverse_gamma_half_cdf_matches_quadrature():
    # density of 1/(2g): integrate the Gamma(1/2,1) density transformed
    def dens(x):
        return math.exp(-1.0 / (2 * x)) / (math.sqrt(2.0 * math.pi) * x ** 1.5)

    for x0 in (0.5, 2.0, 10.0):
        val, _ = si.quad(dens, 0, x0, limit=200)
        assert abs(val - inverse_gamma_half_cdf(x0)) < 1e-9
