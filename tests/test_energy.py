import functools
import tracemalloc

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
from aglab.fields import ScalarField, _derivative, diff_ops, dump_field, exact_limit_field, fd_gradient, load_field
from aglab.geometry import COLLAR, EXTERIOR, INTERIOR, Ellipse, Grid, Stadium, ridge_set

RNG = np.random.default_rng(23)


def unit_square_grid(n=32, pad=3):
    g = Grid(origin=(0.0, 0.0), h=1.0 / n, nx=n + 2 * pad, ny=n + 2 * pad)
    mask = np.full((g.nx, g.ny), EXTERIOR, dtype=np.uint8)
    mask[pad:pad + n, pad:pad + n] = INTERIOR  # nodal area exactly 1
    g.mask = mask
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
    gnorm = np.linalg.norm(fd_gradient(u).values, axis=-1)
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


def _five_operators(grid):
    """d1, d2, d11, d22 and d12 = d1 d2 of the grid, as separate matrices."""
    d1, d2 = (_derivative(grid.active(), grid.h, axis, 1) for axis in (0, 1))
    d11, d22 = (_derivative(grid.active(), grid.h, axis, 2) for axis in (0, 1))
    return d1, d2, d11, d22, (d1 @ d2).tocsr()


def _five_operator_energy(u, eps, eta, power, region=None):
    """The energy as five separate products, summed over a boolean node mask."""
    flat = u.values.ravel()
    g1, g2, a, c, b = (op @ flat for op in _five_operators(u.grid))
    q = a * a + 2.0 * b * b + c * c
    hess = np.sqrt(q + eta * eta) - eta if power == 1 else q
    pot = (1.0 - g1 * g1 - g2 * g2) ** 2
    keep = (u.grid.active() if region is None else region).ravel()
    h2 = u.grid.h**2
    return eps * h2 * float(np.sum(hess[keep])), h2 / eps * float(np.sum(pot[keep]))


def _five_operator_gradient(u, eps, eta, power):
    """The energy gradient through the transposes of the five operators."""
    d1, d2, d11, d22, d12 = _five_operators(u.grid)
    flat = u.values.ravel()
    g1, g2, a, c, b = (op @ flat for op in (d1, d2, d11, d22, d12))
    w = 1.0 - g1 * g1 - g2 * g2
    grad = (-4.0 / eps) * (d1.T @ (w * g1) + d2.T @ (w * g2))
    if power == 1:
        r = 1.0 / np.sqrt(a * a + 2 * b * b + c * c + eta * eta)
        grad += eps * (d11.T @ (r * a) + d22.T @ (r * c) + 2.0 * (d12.T @ (r * b)))
    else:
        grad += eps * (2.0 * (d11.T @ a) + 2.0 * (d22.T @ c) + 4.0 * (d12.T @ b))
    grad = (u.grid.h**2 * grad).reshape(u.grid.shape)
    grad[~u.grid.interior()] = 0.0
    return grad


@pytest.mark.parametrize("angle", [0.0, 0.35])
@pytest.mark.parametrize("power", [1, 2])
def test_stacked_operator_matches_five_operators(ellipse, angle, power):
    grid = Grid.cover(ellipse, resolution=32, angle=angle)
    vals = mollified_limit_field(grid).values + 0.02 * RNG.standard_normal(grid.shape)
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
    u = mollified_limit_field(grid)
    op = energy_mod._newton_operator(u, 0.2, 0.05, power)
    H = op.matrix()
    assert abs(H - H.T).max() <= 1e-14 * abs(H).max()
    rhs = RNG.standard_normal(H.shape[0])
    x = energy_mod._factor(H).solve(rhs)
    assert np.linalg.norm(H @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert np.linalg.norm(op @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


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
    H = energy_mod._newton_operator(u, eps, eta, power)
    Hv = H @ v.ravel()[idx] - 8.0 * grid.h**2 / eps * v.ravel()[idx]
    assert np.max(np.abs(Hv - fd)) <= 1e-7 * np.max(np.abs(fd))


def _blockwise_newton_matrix(u, eps, eta, power):
    """H = h^2 sum over _BLOCKS of B_i^T diag(W[i, j]) B_j + gamma I, one block at a time."""
    ops = diff_ops(u.grid)
    z = (ops.stacked @ u.values.ravel()).reshape(5, -1)
    W = energy_mod._nodal_hessian(z, eps, eta, power)
    n = z.shape[1]
    B = [ops.stacked[k * n:(k + 1) * n][:, ops.interior_idx] for k in range(5)]
    h2 = u.grid.h**2
    return (h2 * sum(B[i].T @ sp.diags(W[i, j]) @ B[j] for i, j in energy_mod._BLOCKS)
            + 8.0 * h2 / eps * sp.identity(ops.interior_idx.size))


@functools.cache
def _small_grid(shape):
    return Grid.cover(Ellipse(1.0, 0.5) if shape == "ellipse" else Stadium(2.0, 1.0), resolution=16)


# slope 0.5 puts |grad u| below 1 at most nodes and 1.5 above it, so that the
# potential block takes both of its branches; 1.0 mixes them
_SLOPED_STATES = given(
    shape=st.sampled_from(["ellipse", "stadium"]), slope=st.sampled_from([0.5, 1.0, 1.5]),
    turn=st.floats(0.0, 2 * np.pi), noise=st.floats(0.0, 0.1), seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.05, 2.0), eta=st.floats(1e-3, 1.0), power=st.sampled_from([1, 2]))


def _sloped_state(shape, slope, turn, noise, seed):
    grid = _small_grid(shape)
    x, y = grid.nodes[..., 0], grid.nodes[..., 1]
    rough = noise * grid.h * np.random.default_rng(seed).standard_normal(grid.shape)
    return ScalarField(grid, slope * (np.cos(turn) * x + np.sin(turn) * y) + rough)


@_SLOPED_STATES
def test_newton_matrix_matches_the_product_formula(shape, slope, turn, noise, seed, eps, eta, power):
    u = _sloped_state(shape, slope, turn, noise, seed)
    H = energy_mod._newton_operator(u, eps, eta, power).matrix()
    ref = _blockwise_newton_matrix(u, eps, eta, power)
    assert H.format == "csc" and H.shape == ref.shape
    assert abs(H - ref).max() <= 1e-14 * abs(H).max()


@_SLOPED_STATES
def test_newton_operator_multiplies_as_the_assembled_matrix(shape, slope, turn, noise, seed, eps, eta, power):
    u = _sloped_state(shape, slope, turn, noise, seed)
    op = energy_mod._newton_operator(u, eps, eta, power)
    H = op.matrix()
    assert abs(H - H.T).max() <= 1e-14 * abs(H).max()
    v = np.random.default_rng(seed).standard_normal(H.shape[0])
    Hv = H @ v
    assert np.max(np.abs(op @ v - Hv)) <= 1e-14 * np.max(np.abs(Hv))


class _CountedSolves:
    """A factor whose ``solve`` calls are counted."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, b):
        self.calls += 1
        return self.lu.solve(b)


@functools.cache
def _cg_start():
    ellipse = Ellipse(1.0, 0.5)
    grid = Grid.cover(ellipse, resolution=16)
    return grid, mollified_limit_field(grid)


# the preconditioner is a factor of another state, eps and eta, as when a
# step reuses the factor of an earlier step or eta level; rtol spans the
# forcing terms a step may ask for
@given(seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 0.2), other_noise=st.floats(0.0, 0.2),
       eps=st.floats(0.1, 1.0), eta=st.floats(1e-3, 1.0), other_eta=st.floats(1e-3, 1.0),
       power=st.sampled_from([1, 2]), rtol=st.floats(energy_mod._CG_RTOL, energy_mod._FORCING_MAX))
def test_preconditioned_cg_returns_a_descent_direction(seed, noise, other_noise, eps, eta, other_eta, power,
                                                       rtol):
    grid, start = _cg_start()
    rng = np.random.default_rng(seed)
    idx = diff_ops(grid).interior_idx

    def state(scale):
        vals = start.values.copy()
        vals.ravel()[idx] += scale * grid.h * rng.standard_normal(idx.size)
        return ScalarField(grid, vals)

    u = state(noise)
    H = energy_mod._newton_operator(u, eps, eta, power)
    g = energy_gradient(u, eps, eta, power).ravel()[idx]
    other = energy_mod._factor(energy_mod._newton_operator(state(other_noise), 2 * eps, other_eta, power).matrix())
    d, iterations = energy_mod._preconditioned_cg(H, g, other, rtol)
    if d is not None:
        assert np.linalg.norm(H @ d - g) <= rtol * np.linalg.norm(g)
        assert g @ d > 0
    own = _CountedSolves(energy_mod._factor(H.matrix()))
    d, iterations = energy_mod._preconditioned_cg(H, g, own, rtol)
    assert d is not None and own.calls == 1 and iterations == 1
    assert np.linalg.norm(H @ d - g) <= 1e-10 * np.linalg.norm(g)


_NORM = st.floats(1e-8, 1e4)


@given(gn=_NORM, gn_prev=st.none() | _NORM, eta_prev=st.floats(energy_mod._CG_RTOL, energy_mod._FORCING_MAX),
       tol=st.floats(1e-8, 1e-1))
def test_forcing_term_is_bounded(gn, gn_prev, eta_prev, tol):
    eta = energy_mod._forcing(gn, gn_prev, eta_prev, tol)
    assert energy_mod._CG_RTOL <= eta <= energy_mod._FORCING_MAX
    # a level's first step solves loosely, and no step oversolves for tol
    if gn_prev is None:
        assert eta == energy_mod._FORCING_MAX
    assert eta >= min(energy_mod._FORCING_MAX, 0.5 * tol / gn)


# gn_k = gn_0 r^(2^k) converges quadratically.  The safeguard 0.9 eta_prev^2
# holds the forcing term up for the first few steps, and Kelley's 0.5 tol / gn
# for the last ones; tol = 1e-100 gn_0 leaves steps between them
@given(gn0=st.floats(1.0, 1e3), r=st.floats(0.05, 0.95))
def test_forcing_term_falls_to_the_floor_under_quadratic_convergence(gn0, r):
    tol = 1e-100 * gn0
    gn, gn_prev, eta, etas = gn0 * r, None, energy_mod._FORCING_MAX, []
    while gn > tol:
        eta = energy_mod._forcing(gn, gn_prev, eta, tol)
        etas.append(eta)
        gn_prev, gn = gn, gn * (gn / gn0)
    assert etas[0] == energy_mod._FORCING_MAX
    assert energy_mod._CG_RTOL in etas


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


@pytest.mark.parametrize("power", [0, 3])
@pytest.mark.parametrize("query", [energy, energy_gradient, energy_mod._newton_operator],
                         ids=["energy", "gradient", "newton_operator"])
def test_unknown_hessian_power_raises(query, power):
    g = unit_square_grid()
    u = ScalarField(g, np.sin(g.nodes[..., 0]) * g.nodes[..., 1])
    with pytest.raises(ValueError, match="hessian_power must be 1 or 2"):
        query(u, 0.5, 0.1, power)


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
    u, _ = exact_limit_field(grid)
    for sigma in (0.5, 1.5, 2.0, 3.0):
        want = gaussian_filter(u.values, sigma, mode="nearest")
        assert np.array_equal(energy_mod._gaussian_blur_nearest(u.values, sigma), want)
    start = mollified_limit_field(grid)
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
    res = minimize(grid, 10.0, opts)
    start = mollified_limit_field(grid)
    e_start = energy(start, 10.0, res.eta_final, 1).total
    e_final = energy(res.u, 10.0, res.eta_final, 1).total
    assert e_final <= e_start + 1e-12
    # pinned nodes never change, exactly
    u_exact, _ = exact_limit_field(grid)
    collar = grid.mask == COLLAR
    assert np.array_equal(res.u.values[collar], u_exact.values[collar])


def test_minimize_energy_nonincreasing_in_max_iter(ellipse):
    # power 2 runs one level, so the runs capped at k steps follow one trajectory
    grid = Grid.cover(ellipse, resolution=40)
    totals = []
    for k in range(8):
        res = minimize(grid, 0.5, MinimizeOptions(max_iter=k, tol=1e-3, hessian_power=2))
        assert len(res.levels) == 1 and res.iterations == k
        # k = 6 stops at a gradient norm of about 4 tol
        assert res.converged == (res.levels[-1].grad_norm <= 1e-3)
        totals.append(res.levels[-1].split.total)
    assert all(b <= a for a, b in zip(totals[:-1], totals[1:]))
    assert totals[-1] < totals[0]


def test_minimize_warm_start_fewer_iterations(ellipse):
    grid = Grid.cover(ellipse, resolution=48)
    opts = MinimizeOptions(max_iter=3000, tol=3e-3, hessian_power=2)
    cold = minimize(grid, 0.3, opts)
    assert cold.converged
    opts_warm = MinimizeOptions(max_iter=3000, tol=3e-3, hessian_power=2, warm_start=cold.u)
    res_next_cold = minimize(grid, 0.25, MinimizeOptions(max_iter=3000, tol=3e-3, hessian_power=2))
    res_next_warm = minimize(grid, 0.25, MinimizeOptions(max_iter=3000, tol=3e-3, hessian_power=2, warm_start=cold.u))
    assert res_next_warm.iterations < res_next_cold.iterations


def test_minimize_rotation_covariance_disk():
    disk = Ellipse(0.6, 0.6)
    totals = []
    for angle in (0.0, 0.35):
        grid = Grid.cover(disk, resolution=48, angle=angle)
        opts = MinimizeOptions(max_iter=4000, tol=1e-3, hessian_power=2)
        res = minimize(grid, 0.3, opts)
        assert res.converged
        totals.append(res.levels[-1].split.total)
    assert abs(totals[1] - totals[0]) / totals[0] < 1e-3


def test_failed_line_search_keeps_its_iterations(ellipse, monkeypatch):
    # Armijo at 0.9 with three trials per line search (t = 1, 1/2, 1/4): a
    # step d with g.d = d.H d, as CG gives, lowers the quadratic model by
    # only (1 - t/2) t g.d, so a search succeeds only where the energy
    # falls faster than its model.  The first level accepts steps, then
    # ends on a failed search, and so does every later one
    monkeypatch.setattr(energy_mod, "_ARMIJO", 0.9)
    monkeypatch.setattr(energy_mod, "_MAX_BACKTRACKS", 3)
    calls = []

    def counted_gradient(*args, **kwargs):
        calls.append(1)
        return energy_gradient(*args, **kwargs)

    monkeypatch.setattr(energy_mod, "energy_gradient", counted_gradient)
    grid = Grid.cover(ellipse, resolution=32)
    res = minimize(grid, 0.2, MinimizeOptions(max_iter=400, hessian_power=1))
    # every level's budget is at least 400 // 11 = 36 steps
    assert any(0 < lv.iterations < 36 and not lv.converged for lv in res.levels)
    # one gradient per level start, one per accepted step
    assert res.iterations == len(calls) - len(res.levels)
    assert not res.converged
    start = mollified_limit_field(grid)
    assert energy(res.u, 0.2, res.eta_final).total <= energy(start, 0.2, res.eta_final).total


def test_max_iter_caps_every_level(ellipse):
    # 11 eta levels and 5 iterations: levels whose share rounds to 0 take no step
    grid = Grid.cover(ellipse, resolution=32)
    res = minimize(grid, 0.3, MinimizeOptions(max_iter=5, hessian_power=1))
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
    # with the line search of test_failed_line_search_keeps_its_iterations
    # every level ends on a failed one
    for armijo, max_backtracks, failed in ((1e-4, 60, 0), (0.9, 3, 11)):
        monkeypatch.setattr(energy_mod, "_ARMIJO", armijo)
        monkeypatch.setattr(energy_mod, "_MAX_BACKTRACKS", max_backtracks)
        counts = {"energy": 0, "gradient": 0, "splu": 0}
        res = minimize(grid, 0.2, MinimizeOptions(max_iter=400, hessian_power=1))
        # no level uses up its budget of at least 36 steps, so a level that
        # did not converge ended on a failed line search
        assert all(lv.iterations < 36 for lv in res.levels)
        assert sum(not lv.converged for lv in res.levels) == failed
        assert counts["energy"] > res.iterations > 0
        assert counts["gradient"] == res.iterations + len(res.levels)
        # every factor goes through splu; at most one per line search, failed ones included
        assert 0 < counts["splu"] == sum(lv.factors for lv in res.levels) <= res.iterations + failed


def test_level_records(ellipse):
    grid = Grid.cover(ellipse, resolution=24)
    opts = MinimizeOptions(max_iter=400, hessian_power=1)
    res = minimize(grid, 0.3, opts)
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
    res = minimize(grid, 0.2, MinimizeOptions(hessian_power=power))
    assert all(lv.grad_norm <= 1e-3 for lv in res.levels)
    assert res.iterations <= 60
    assert abs(res.levels[-1].split.total - reference) <= 1e-9 * reference


def test_benchmark_minimize_trajectory(ellipse):
    # the benchmark's minimize-ellipse job: a solver change that moves any of
    # these numbers says so
    grid = Grid.cover(ellipse, h=1 / 40)
    res = minimize(grid, 0.2, MinimizeOptions(hessian_power=1))
    assert [lv.iterations for lv in res.levels] == [12, 5, 5, 5, 3, 4, 3, 3, 2]
    assert [lv.backtracks for lv in res.levels] == [4, 0, 0, 0, 0, 0, 0, 0, 0]
    assert res.converged
    assert abs(res.levels[-1].split.total - 1.1262599590943088) <= 1e-12 * 1.1262599590943088


def test_benchmark_minimize_keeps_its_factor(ellipse):
    # the benchmark's minimize-ellipse job takes 42 steps; CG on the kept
    # factor, stopped at each step's forcing term, solves most of them, so
    # few of them factor H (3 factors and 116 solves; a fixed CG tolerance
    # of _CG_RTOL took 7 and 254)
    grid = Grid.cover(ellipse, h=1 / 40)
    res = minimize(grid, 0.2, MinimizeOptions(hessian_power=1))
    assert res.levels[0].factors >= 1
    assert sum(lv.factors for lv in res.levels) <= 5
    # a factor whose CG runs get long is replaced before it stalls
    assert sum(lv.solves for lv in res.levels) <= 160


def test_benchmark_minimize_assembles_h_only_to_factor_it(ellipse, monkeypatch):
    # CG multiplies by H through the stacked operator, so the benchmark's
    # job assembles H for its 3 factors alone and leaves no cache behind
    matrix = energy_mod._NewtonOperator.matrix
    assembled = []
    monkeypatch.setattr(energy_mod._NewtonOperator, "matrix", lambda self: assembled.append(1) or matrix(self))
    grid = Grid.cover(ellipse, h=1 / 40)
    covered = set(vars(grid))
    # every run on the grid builds these caches; build them before tracing
    diff_ops(grid)
    grid.nodes
    tracemalloc.start()
    try:
        res = minimize(grid, 0.2, MinimizeOptions(hessian_power=1))
        factors = sum(lv.factors for lv in res.levels)
        del res
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(assembled) == factors == 3
    assert [key for key in vars(grid) if key.startswith("_") and key not in covered] == ["_diff_ops"]
    assert kept < 0.1 * 2**20


def test_benchmark_minimize_is_reproducible(ellipse):
    # the solver's path reads iteration counts, never a clock, so two runs
    # on fresh grids take the same steps, factors and solves
    runs = [minimize(Grid.cover(ellipse, h=1 / 40), 0.2, MinimizeOptions(hessian_power=1))
            for _ in range(2)]
    assert np.array_equal(runs[0].u.values, runs[1].u.values)
    for key in ("iterations", "factors", "solves"):
        assert [getattr(lv, key) for lv in runs[0].levels] == [getattr(lv, key) for lv in runs[1].levels]


def test_an_ascent_direction_ends_the_level(ellipse, monkeypatch):
    # a step along which the energy rises is never taken, however small
    solve = energy_mod._KeptFactor.solve
    monkeypatch.setattr(energy_mod._KeptFactor, "solve", lambda self, H, b, rtol: -solve(self, H, b, rtol))
    grid = Grid.cover(ellipse, resolution=24)
    start = mollified_limit_field(grid)
    res = minimize(grid, 0.3, MinimizeOptions(max_iter=400, hessian_power=1))
    assert np.array_equal(res.u.values, start.values)
    for lv in res.levels:
        assert not lv.converged
        assert lv.iterations == lv.backtracks == 0
        assert lv.split == energy(start, 0.3, lv.eta)


def test_minimize_leaves_a_fold_start_for_the_standard_minimizer(ellipse):
    # u_0.3 = 0.3 - |d - 0.3| solves |grad u| = 1 a.e. with the same boundary
    # data, but its gradient flips on {d = 0.3}; from it the inexact Newton
    # steps still reach the minimizer of the mollified start
    grid = Grid.cover(ellipse, h=1 / 40)
    d, _ = exact_limit_field(grid)
    fold = ScalarField(grid, 0.3 - np.abs(d.values - 0.3))
    res = minimize(grid, 0.2, MinimizeOptions(hessian_power=1, warm_start=fold))
    assert all(lv.converged for lv in res.levels)
    # loose CG on the first level's many steps keeps the factor (13 factors;
    # a fixed CG tolerance of _CG_RTOL took 67)
    assert sum(lv.factors for lv in res.levels) <= 25
    assert abs(res.levels[-1].split.total - 1.1262599590928513) <= 1e-9 * 1.1262599590928513


def test_minimize_needs_a_covered_grid(tmp_path, limit64):
    # a loaded dump's grid has no domain to pin the collar to
    dump_field(tmp_path / "u.txt", limit64[0])
    with pytest.raises(ValueError, match="no domain"):
        minimize(load_field(tmp_path / "u.txt").grid, 0.3)


def test_limit_table_single_row(ellipse):
    grid = Grid.cover(ellipse, resolution=32)
    table = energy_limit_table(grid, [5.0], MinimizeOptions(max_iter=200, tol=1e-2, hessian_power=2))
    assert len(table.rows) == 1
    assert table.w11_monotone and table.gap_monotone


def test_limit_table_requires_decreasing(ellipse, grid64):
    with pytest.raises(ValueError):
        energy_limit_table(grid64, [0.1, 0.2])


@pytest.mark.parametrize("eta_min", [0.0, -1.0, np.nan])
def test_minimize_rejects_an_eta_min_the_schedule_never_reaches(ellipse, eta_min):
    # at hessian_power = 1 eta halves from eta0 until it reaches eta_min; below 0 it never does
    grid = Grid.cover(ellipse, resolution=16)
    with pytest.raises(ValueError, match="needs eta_min > 0"):
        minimize(grid, 0.4, MinimizeOptions(eta_min=eta_min, hessian_power=1))


def test_grad_norm_scale(grid64):
    g = np.zeros(grid64.shape)
    g[10, 10] = grid64.h
    assert grad_norm(grid64, g) == pytest.approx(1.0)
