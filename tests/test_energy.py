import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.ndimage import gaussian_filter

from aglab import energy as energy_mod
from aglab.energy import (
    MinimizeOptions,
    energy,
    energy_gradient,
    energy_limit_table,
    grad_norm,
    minimize,
    mollified_limit_field,
)
from aglab.errors import NonFiniteEnergy
from aglab.fields import ScalarField, diff_ops, exact_limit_field, fd_gradient
from aglab.geometry import EXTERIOR, INTERIOR, Ellipse, Grid, Stadium, ridge_set

RNG = np.random.default_rng(23)


def unit_square_grid(n=32, pad=3):
    g = Grid(origin=(0.0, 0.0), h=1.0 / n, nx=n + 2 * pad, ny=n + 2 * pad)
    mask = np.full((g.nx, g.ny), EXTERIOR, dtype=np.uint8)
    mask[pad:pad + n, pad:pad + n] = INTERIOR  # nodal area exactly 1
    g.mask = mask
    g.ridge_near = np.zeros((g.nx, g.ny), bool)
    return g


def test_energy_trivials():
    g = unit_square_grid()
    zero = ScalarField(g, np.zeros(g.shape))
    for eta in (0.0, 0.5):
        split = energy(zero, 1.0, eta)
        assert split.hessian_term == 0.0
        assert split.potential_term == pytest.approx(1.0, abs=1e-12)
    lin = ScalarField(g, g.nodes[..., 0])
    assert energy(lin, 1.0, 0.0).total == pytest.approx(0.0, abs=1e-20)
    assert energy(lin, 1.0, 2.0).total == pytest.approx(0.0, abs=1e-20)


def test_energy_split_consistency():
    g = unit_square_grid()
    u = ScalarField(g, np.sin(g.nodes[..., 0]) * g.nodes[..., 1])
    s = energy(u, 0.37, 0.1)
    assert s.total == pytest.approx(s.hessian_term + s.potential_term)
    assert s.hessian_term >= 0 and s.potential_term >= 0


def test_energy_nonfinite():
    g = unit_square_grid()
    vals = np.zeros(g.shape)
    vals[10, 10] = np.nan
    with pytest.raises(NonFiniteEnergy):
        energy(ScalarField(g, vals), 1.0, 0.1)


def test_energy_of_reference_field(ellipse, grid128, limit128):
    # hessian term approaches eps * (smooth curvature mass + ridge jump TV)
    u, _ = limit128
    split = energy(u, 0.1, 0.0)
    a, b, d = ellipse.a, ellipse.b, ellipse.delta

    def smooth(t):
        g = np.sqrt(np.cos(t) ** 2 + 4 * np.sin(t) ** 2)
        kappa = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
        speed = np.sqrt(a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2)
        return kappa * (b**2 * g + d) * speed

    smooth_mass, _ = quad(smooth, 0, 2 * np.pi, limit=200)
    r = ridge_set(ellipse)
    jump_mass, _ = quad(lambda x: 2 * np.sin(float(r.data(np.array([x]))["beta"][0])), -0.75, 0.75, limit=200)
    oracle = 0.1 * (smooth_mass + jump_mass)
    assert split.hessian_term == pytest.approx(oracle, rel=0.02)
    # off-ridge potential density is at quadrature accuracy
    off = grid128.active() & (np.abs(grid128.nodes[..., 1]) > 2 * grid128.h)
    gnorm = fd_gradient(u).norm()
    assert np.max((1 - gnorm[off] ** 2) ** 2) <= grid128.h**2


@pytest.mark.parametrize("power", [1, 2])
def test_gradient_directional_check(ellipse, grid64, limit64, power):
    u0, _ = limit64
    for _ in range(3):
        vals = u0.values + 0.05 * RNG.standard_normal(grid64.shape)
        u = ScalarField(grid64, vals)
        g = energy_gradient(u, 0.25, 0.2, power)
        du = RNG.standard_normal(grid64.shape)
        du[~grid64.interior()] = 0.0
        t = 1e-6
        ep = energy(ScalarField(grid64, vals + t * du), 0.25, 0.2, power).total
        em = energy(ScalarField(grid64, vals - t * du), 0.25, 0.2, power).total
        directional = (ep - em) / (2 * t)
        assert abs(directional - float(np.sum(g * du))) / abs(directional) <= 1e-5


def _five_operator_energy(u, eps, eta, power, region=None):
    """The energy as five separate products, summed over a boolean node mask."""
    ops = diff_ops(u.grid)
    flat = u.values.ravel()
    g1, g2, a, c, b = (op @ flat for op in (ops.d1, ops.d2, ops.d11, ops.d22, ops.d12))
    q = a * a + 2.0 * b * b + c * c
    hess = np.sqrt(q + eta * eta) - eta if power == 1 else q
    pot = (1.0 - g1 * g1 - g2 * g2) ** 2
    keep = (u.grid.active() if region is None else region).ravel()
    h2 = u.grid.h**2
    return eps * h2 * float(np.sum(hess[keep])), h2 / eps * float(np.sum(pot[keep]))


def _five_operator_gradient(u, eps, eta, power):
    """The energy gradient through the transposes of the five operators."""
    ops = diff_ops(u.grid)
    flat = u.values.ravel()
    g1, g2, a, c, b = (op @ flat for op in (ops.d1, ops.d2, ops.d11, ops.d22, ops.d12))
    w = 1.0 - g1 * g1 - g2 * g2
    grad = (-4.0 / eps) * (ops.d1.T @ (w * g1) + ops.d2.T @ (w * g2))
    if power == 1:
        r = 1.0 / np.sqrt(a * a + 2 * b * b + c * c + eta * eta)
        grad += eps * (ops.d11.T @ (r * a) + ops.d22.T @ (r * c) + 2.0 * (ops.d12.T @ (r * b)))
    else:
        grad += eps * (2.0 * (ops.d11.T @ a) + 2.0 * (ops.d22.T @ c) + 4.0 * (ops.d12.T @ b))
    grad = (u.grid.h**2 * grad).reshape(u.grid.shape)
    grad[~u.grid.interior()] = 0.0
    return grad


@pytest.mark.parametrize("angle", [0.0, 0.35])
@pytest.mark.parametrize("power", [1, 2])
def test_stacked_operator_matches_five_operators(ellipse, angle, power):
    grid = Grid.cover(ellipse, resolution=32, angle=angle)
    vals = mollified_limit_field(ellipse, grid).values + 0.02 * RNG.standard_normal(grid.shape)
    u = ScalarField(grid, vals)
    for region in (None, grid.interior()):
        split = energy(u, 0.3, 0.1, power, region=region)
        assert (split.hessian_term, split.potential_term) == _five_operator_energy(u, 0.3, 0.1, power, region)
    g = energy_gradient(u, 0.3, 0.1, power)
    ref = _five_operator_gradient(u, 0.3, 0.1, power)
    assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("power", [1, 2])
def test_symmetric_metric_factor_solves(ellipse, power):
    grid = Grid.cover(ellipse, resolution=40)
    u = mollified_limit_field(ellipse, grid)
    H = energy_mod._newton_matrix(u, 0.2, 0.05, power)
    assert abs(H - H.T).max() <= 1e-14 * abs(H).max()
    rhs = RNG.standard_normal(H.shape[0])
    pattern = energy_mod._newton_pattern(grid)
    for _ in range(2):  # the first factor on the grid picks the column order, the second reuses it
        lu = energy_mod._factor(H, pattern)
        x = lu.solve(rhs)
        assert np.linalg.norm(H @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("power", [1, 2])
def test_newton_matrix_matches_gradient_difference(ellipse, power):
    # |grad u| > 1 at every active node, where W is the exact Hessian
    grid = Grid.cover(ellipse, resolution=24)
    x, y = grid.nodes[..., 0], grid.nodes[..., 1]
    u = ScalarField(grid, 1.5 * x + 0.2 * y + 0.05 * np.sin(3 * x) * np.cos(2 * y))
    z = (diff_ops(grid).stacked @ u.values.ravel()).reshape(5, -1)
    assert np.min(z[0] ** 2 + z[1] ** 2) > 1.2
    eps, eta = 0.3, 0.2
    idx = diff_ops(grid).interior_idx
    v = np.zeros(grid.shape)
    v.ravel()[idx] = RNG.standard_normal(idx.size)
    t = 1e-8  # the difference error falls as t^2 down to about here
    gp = energy_gradient(ScalarField(grid, u.values + t * v), eps, eta, power)
    gm = energy_gradient(ScalarField(grid, u.values - t * v), eps, eta, power)
    fd = ((gp - gm) / (2 * t)).ravel()[idx]
    H = energy_mod._newton_matrix(u, eps, eta, power)
    Hv = H @ v.ravel()[idx] - 8.0 * grid.h**2 / eps * v.ravel()[idx]
    assert np.max(np.abs(Hv - fd)) <= 1e-7 * np.max(np.abs(fd))


def _product_newton_matrix(u, eps, eta, power):
    """H = h^2 B^T W B + gamma I through two sparse products, W assembled from its 13 blocks."""
    ops = diff_ops(u.grid)
    z = (ops.stacked @ u.values.ravel()).reshape(5, -1)
    W = energy_mod._nodal_hessian(z, eps, eta, power)
    n = z.shape[1]
    node = np.arange(n)
    rows = np.concatenate([i * n + node for i, _ in energy_mod._BLOCKS])
    cols = np.concatenate([j * n + node for _, j in energy_mod._BLOCKS])
    vals = np.concatenate([W[i, j] for i, j in energy_mod._BLOCKS])
    W_sp = sp.csr_matrix((vals, (rows, cols)), shape=(5 * n, 5 * n))
    h2 = u.grid.h**2
    return h2 * (ops.stacked_t @ W_sp @ ops.stacked_t.T) + 8.0 * h2 / eps * sp.identity(ops.interior_idx.size)


@functools.cache
def _small_grid(shape):
    return Grid.cover(Ellipse(1.0, 0.5) if shape == "ellipse" else Stadium(2.0, 1.0), resolution=16)


# slope 0.5 puts |grad u| below 1 at most nodes and 1.5 above it, so that the
# potential block takes both of its branches; 1.0 mixes them
@given(shape=st.sampled_from(["ellipse", "stadium"]), slope=st.sampled_from([0.5, 1.0, 1.5]),
       turn=st.floats(0.0, 2 * np.pi), noise=st.floats(0.0, 0.1), seed=st.integers(0, 2**32 - 1),
       eps=st.floats(0.05, 2.0), eta=st.floats(1e-3, 1.0), power=st.sampled_from([1, 2]))
def test_newton_matrix_matches_the_product_formula(shape, slope, turn, noise, seed, eps, eta, power):
    grid = _small_grid(shape)
    x, y = grid.nodes[..., 0], grid.nodes[..., 1]
    rough = noise * grid.h * np.random.default_rng(seed).standard_normal(grid.shape)
    vals = slope * (np.cos(turn) * x + np.sin(turn) * y) + rough
    u = ScalarField(grid, vals)
    H = energy_mod._newton_matrix(u, eps, eta, power)
    ref = _product_newton_matrix(u, eps, eta, power)
    assert H.format == "csc" and H.shape == ref.shape
    assert abs(H - ref).max() <= 1e-14 * abs(H).max()
    # the product drops exact zeros, the fixed pattern keeps them
    pattern = energy_mod._newton_pattern(grid)
    n = H.shape[0]
    pattern_keys = np.repeat(np.arange(n), np.diff(pattern.indptr)) * n + pattern.indices
    ref = ref.tocoo()
    assert np.isin(ref.col * n + ref.row, pattern_keys).all()


def test_newton_pattern_is_cached_per_grid(ellipse):
    grid = Grid.cover(ellipse, resolution=16)
    pattern = energy_mod._newton_pattern(grid)
    assert energy_mod._newton_pattern(grid) is pattern
    assert energy_mod._newton_pattern(Grid.cover(ellipse, resolution=16)) is not pattern


def test_second_minimize_on_a_grid_reuses_the_column_order(ellipse, monkeypatch):
    orderings = []

    def recording_splu(*args, **kwargs):
        orderings.append(kwargs["permc_spec"])
        return splu(*args, **kwargs)

    splu = sla.splu
    monkeypatch.setattr(sla, "splu", recording_splu)
    grid = Grid.cover(ellipse, resolution=24)
    opts = MinimizeOptions(max_iter=400, hessian_power=1)
    fresh = minimize(ellipse, grid, 0.3, opts)
    # only the first factor on the grid orders its columns
    assert orderings == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (fresh.iterations - 1)
    orderings.clear()
    again = minimize(ellipse, grid, 0.3, opts)
    assert orderings == ["NATURAL"] * again.iterations
    assert [lv.iterations for lv in again.levels] == [lv.iterations for lv in fresh.levels]
    assert [lv.backtracks for lv in again.levels] == [lv.backtracks for lv in fresh.levels]
    for a, b in zip(again.levels, fresh.levels):
        assert abs(a.split.total - b.split.total) <= 1e-12 * b.split.total


_DERIV = st.floats(-50.0, 50.0)


@given(z=st.lists(_DERIV, min_size=5, max_size=5), eta=st.floats(1e-4, 2.0), power=st.sampled_from([1, 2]))
def test_nodal_hessian_is_psd(z, eta, power):
    W = energy_mod._nodal_hessian(np.array(z)[:, None], 0.3, eta, power)[:, :, 0]
    assert np.array_equal(W, W.T)
    assert np.min(np.linalg.eigvalsh(W)) >= -1e-12 * np.max(np.abs(W))


def test_gradient_zero_off_interior(grid64, limit64):
    u0, _ = limit64
    g = energy_gradient(u0, 0.5, 0.3)
    assert np.all(g[~grid64.interior()] == 0.0)


def test_gradient_requires_smoothing():
    g = unit_square_grid()
    u = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        energy_gradient(u, 1.0, 0.0, hessian_power=1)


@pytest.mark.parametrize("domain, h", [
    (Ellipse(1.0, 0.5), 1 / 40),  # the benchmark's minimize-ellipse grid
    (Ellipse(1.0, 0.5), 1 / 64),  # characteristics-ellipse
    (Ellipse(1.0, 0.5), 1 / 160),  # diagnostics-ellipse
    (Stadium(2.0, 1.0), 1 / 64),  # characteristics-stadium
    (Stadium(1.0, 0.5), 1 / 32),
    (Ellipse(3.0, 0.2), 1 / 32),
])
def test_blur_is_ndimage_nearest_gaussian(domain, h):
    grid = Grid.cover(domain, h=h)
    u, _ = exact_limit_field(domain, grid)
    for sigma in (0.5, 1.5, 2.0, 3.0):
        want = gaussian_filter(u.values, sigma, mode="nearest")
        assert np.array_equal(energy_mod._gaussian_blur_nearest(u.values, sigma), want)
    start = mollified_limit_field(domain, grid)
    want = gaussian_filter(u.values, 2.0, mode="nearest")
    assert np.array_equal(start.values, np.where(grid.interior(), want, u.values))


@pytest.mark.parametrize("shape", [(5, 7), (1, 1), (2, 40), (89, 49)])
def test_blur_is_ndimage_nearest_gaussian_on_small_arrays(shape):
    # the sigma = 3 kernel has radius 12: edge extension reaches past both ends of a 5 x 7 array
    v = RNG.standard_normal(shape)
    for sigma in (0.5, 1.5, 3.0):
        assert np.array_equal(energy_mod._gaussian_blur_nearest(v, sigma), gaussian_filter(v, sigma, mode="nearest"))


def test_minimize_beats_mollified_start(ellipse):
    grid = Grid.cover(ellipse, resolution=48)
    opts = MinimizeOptions(max_iter=400, tol=5e-3, hessian_power=1)
    res = minimize(ellipse, grid, 10.0, opts)
    start = mollified_limit_field(ellipse, grid)
    e_start = energy(start, 10.0, res.eta_final, 1).total
    e_final = energy(res.u, 10.0, res.eta_final, 1).total
    assert e_final <= e_start + 1e-12
    # pinned nodes never change, exactly
    u_exact, _ = exact_limit_field(ellipse, grid)
    collar = grid.collar()
    assert np.array_equal(res.u.values[collar], u_exact.values[collar])


def test_minimize_energy_nonincreasing_in_max_iter(ellipse):
    # power 2 runs one level, so the runs capped at k steps follow one trajectory
    grid = Grid.cover(ellipse, resolution=40)
    totals = []
    for k in range(8):
        res = minimize(ellipse, grid, 0.5, MinimizeOptions(max_iter=k, tol=1e-3, hessian_power=2))
        assert len(res.levels) == 1 and res.iterations == k
        # k = 6 stops at a gradient norm of about 4 tol
        assert res.converged == (res.levels[-1].grad_norm <= 1e-3)
        totals.append(res.levels[-1].split.total)
    assert all(b <= a for a, b in zip(totals[:-1], totals[1:]))
    assert totals[-1] < totals[0]


def test_minimize_warm_start_fewer_iterations(ellipse):
    grid = Grid.cover(ellipse, resolution=48)
    opts = MinimizeOptions(max_iter=3000, tol=3e-3, hessian_power=2)
    cold = minimize(ellipse, grid, 0.3, opts)
    assert cold.converged
    opts_warm = MinimizeOptions(max_iter=3000, tol=3e-3, hessian_power=2, warm_start=cold.u)
    res_next_cold = minimize(ellipse, grid, 0.25, MinimizeOptions(max_iter=3000, tol=3e-3, hessian_power=2))
    res_next_warm = minimize(ellipse, grid, 0.25, MinimizeOptions(max_iter=3000, tol=3e-3, hessian_power=2, warm_start=cold.u))
    assert res_next_warm.iterations < res_next_cold.iterations


def test_minimize_rotation_covariance_disk():
    disk = Ellipse(0.6, 0.6)
    totals = []
    for angle in (0.0, 0.35):
        grid = Grid.cover(disk, resolution=48, angle=angle)
        opts = MinimizeOptions(max_iter=4000, tol=1e-3, hessian_power=2)
        res = minimize(disk, grid, 0.3, opts)
        assert res.converged
        totals.append(res.levels[-1].split.total)
    assert abs(totals[1] - totals[0]) / totals[0] < 1e-3


def test_failed_line_search_keeps_its_iterations(ellipse, monkeypatch):
    # two trials per line search: the first level accepts steps, then ends on
    # a failed search, and so does every later one
    monkeypatch.setattr(energy_mod, "_MAX_BACKTRACKS", 2)
    calls = []

    def counted_gradient(*args, **kwargs):
        calls.append(1)
        return energy_gradient(*args, **kwargs)

    monkeypatch.setattr(energy_mod, "energy_gradient", counted_gradient)
    grid = Grid.cover(ellipse, resolution=32)
    res = minimize(ellipse, grid, 0.2, MinimizeOptions(max_iter=400, hessian_power=1))
    # every level's budget is at least 400 // 11 = 36 steps
    assert any(0 < lv.iterations < 36 and not lv.converged for lv in res.levels)
    # one gradient per level start, one per accepted step
    assert res.iterations == len(calls) - len(res.levels)
    assert not res.converged
    start = mollified_limit_field(ellipse, grid)
    assert energy(res.u, 0.2, res.eta_final).total <= energy(start, 0.2, res.eta_final).total


def test_max_iter_caps_every_level(ellipse):
    # 11 eta levels and 5 iterations: levels whose share rounds to 0 take no step
    grid = Grid.cover(ellipse, resolution=32)
    res = minimize(ellipse, grid, 0.3, MinimizeOptions(max_iter=5, hessian_power=1))
    assert len(res.levels) == 11
    assert res.iterations <= 5


def test_minimize_calls_the_traced_entry_points(ellipse, monkeypatch):
    # the benchmark's traced run counts these three names; a fused path
    # that bypassed them would hide the energy layer from it
    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(energy_mod, "energy", counted("energy", energy))
    monkeypatch.setattr(energy_mod, "energy_gradient", counted("gradient", energy_gradient))
    monkeypatch.setattr(sla, "splu", counted("splu", sla.splu))
    grid = Grid.cover(ellipse, resolution=32)
    # with two trials per line search every level ends on a failed one
    for max_backtracks, failed in ((60, 0), (2, 11)):
        monkeypatch.setattr(energy_mod, "_MAX_BACKTRACKS", max_backtracks)
        counts = {"energy": 0, "gradient": 0, "splu": 0}
        res = minimize(ellipse, grid, 0.2, MinimizeOptions(max_iter=400, hessian_power=1))
        # no level uses up its budget of at least 36 steps, so a level that
        # did not converge ended on a failed line search
        assert all(lv.iterations < 36 for lv in res.levels)
        assert sum(not lv.converged for lv in res.levels) == failed
        assert counts["energy"] > res.iterations > 0
        assert counts["gradient"] == res.iterations + len(res.levels)
        # one factor per line search, failed ones included
        assert counts["splu"] == res.iterations + failed


def test_level_records(ellipse):
    grid = Grid.cover(ellipse, resolution=24)
    opts = MinimizeOptions(max_iter=400, hessian_power=1)
    res = minimize(ellipse, grid, 0.3, opts)
    assert len(res.levels) == 11
    assert sum(lv.iterations for lv in res.levels) == res.iterations
    assert res.levels[-1].converged == res.converged
    assert res.levels[-1].eta == res.eta_final
    assert res.levels[-1].split == energy(res.u, 0.3, res.eta_final)
    g = energy_gradient(res.u, 0.3, res.eta_final)
    assert res.levels[-1].grad_norm == grad_norm(grid, g)
    assert sum(lv.backtracks for lv in res.levels) > 0


# Energies the Barzilai-Borwein minimizer that preceded Newton reached on
# the ellipse 1 x 0.5 at h = 1/40 and eps = 0.2 with default options.
@pytest.mark.parametrize("power, reference", [(1, 1.1262599591019906), (2, 4.492102977132873)])
def test_newton_matches_previous_minimizer(ellipse, power, reference):
    grid = Grid.cover(ellipse, h=1 / 40)
    res = minimize(ellipse, grid, 0.2, MinimizeOptions(hessian_power=power))
    assert all(lv.grad_norm <= 1e-3 for lv in res.levels)
    assert res.iterations <= 60
    assert abs(res.levels[-1].split.total - reference) <= 1e-9 * reference


def test_benchmark_minimize_trajectory(ellipse):
    # the benchmark's minimize-ellipse job: a solver change that moves any of
    # these numbers says so
    grid = Grid.cover(ellipse, h=1 / 40)
    res = minimize(ellipse, grid, 0.2, MinimizeOptions(hessian_power=1))
    assert [lv.iterations for lv in res.levels] == [13, 5, 4, 3, 3, 2, 2, 2, 2]
    assert [lv.backtracks for lv in res.levels] == [14, 0, 0, 0, 0, 0, 0, 0, 0]
    assert res.converged
    assert abs(res.levels[-1].split.total - 1.1262599590928513) <= 1e-12 * 1.1262599590928513


def test_limit_table_single_row(ellipse):
    grid = Grid.cover(ellipse, resolution=32)
    table = energy_limit_table(ellipse, grid, [5.0], MinimizeOptions(max_iter=200, tol=1e-2, hessian_power=2))
    assert len(table.rows) == 1
    assert table.w11_monotone and table.gap_monotone


def test_limit_table_requires_decreasing(ellipse, grid64):
    with pytest.raises(ValueError):
        energy_limit_table(ellipse, grid64, [0.1, 0.2])


@pytest.mark.parametrize("eta_min", [0.0, -1.0, np.nan])
def test_minimize_rejects_an_eta_min_the_schedule_never_reaches(ellipse, eta_min):
    # at hessian_power = 1 eta halves from eta0 until it reaches eta_min; below 0 it never does
    grid = Grid.cover(ellipse, resolution=16)
    with pytest.raises(ValueError, match="needs eta_min > 0"):
        minimize(ellipse, grid, 0.4, MinimizeOptions(eta_min=eta_min, hessian_power=1))


def test_grad_norm_scale(grid64):
    g = np.zeros(grid64.shape)
    g[10, 10] = grid64.h
    assert grad_norm(grid64, g) == pytest.approx(1.0)
