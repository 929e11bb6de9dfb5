import numpy as np
import pytest
from scipy.integrate import quad

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
from aglab.fields import ScalarField, exact_limit_field, fd_gradient, fd_hessian_norm
from aglab.geometry import EXTERIOR, INTERIOR, Ellipse, Grid, ridge_set

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


def test_gradient_zero_off_interior(grid64, limit64):
    u0, _ = limit64
    g = energy_gradient(u0, 0.5, 0.3)
    assert np.all(g[~grid64.interior()] == 0.0)


def test_gradient_requires_smoothing():
    g = unit_square_grid()
    u = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        energy_gradient(u, 1.0, 0.0, hessian_power=1)


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


def test_minimize_history_monotone_within_levels(ellipse):
    grid = Grid.cover(ellipse, resolution=40)
    opts = MinimizeOptions(max_iter=300, tol=1e-3, hessian_power=2)
    res = minimize(ellipse, grid, 0.5, opts)
    energies = [s.total for s in res.energy_history]
    for start, stop in zip(res.level_starts, res.level_starts[1:] + [len(energies)]):
        seg = energies[max(start - 1, 0):stop]
        assert all(b <= a + 1e-12 for a, b in zip(seg[:-1], seg[1:]))


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
        totals.append(res.energy_history[-1].total)
    assert abs(totals[1] - totals[0]) / totals[0] < 1e-3


def test_failed_line_search_keeps_its_iterations(ellipse, monkeypatch):
    # one halving per line search: most levels end on a failed search
    monkeypatch.setattr(energy_mod, "_MAX_BACKTRACKS", 1)
    calls = []

    def counted_gradient(*args, **kwargs):
        calls.append(1)
        return energy_gradient(*args, **kwargs)

    monkeypatch.setattr(energy_mod, "energy_gradient", counted_gradient)
    grid = Grid.cover(ellipse, resolution=32)
    res = minimize(ellipse, grid, 0.3, MinimizeOptions(max_iter=400, hessian_power=1))
    # one gradient per level start, one per accepted step
    assert res.iterations == len(calls) - len(res.level_starts)
    assert not res.converged
    start = mollified_limit_field(ellipse, grid)
    assert energy(res.u, 0.3, res.eta_final).total <= energy(start, 0.3, res.eta_final).total


def test_limit_table_single_row(ellipse):
    grid = Grid.cover(ellipse, resolution=32)
    table = energy_limit_table(ellipse, grid, [5.0], MinimizeOptions(max_iter=200, tol=1e-2, hessian_power=2))
    assert len(table.rows) == 1
    assert table.w11_monotone and table.gap_monotone


def test_limit_table_requires_decreasing(ellipse, grid64):
    with pytest.raises(ValueError):
        energy_limit_table(ellipse, grid64, [0.1, 0.2])


def test_grad_norm_scale(grid64):
    g = np.zeros(grid64.shape)
    g[10, 10] = grid64.h
    assert grad_norm(grid64, g) == pytest.approx(1.0)
