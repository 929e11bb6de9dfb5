import json

import numpy as np
import pytest
import scipy.sparse as sp

from aglab import fields, geometry
from aglab.fields import (
    CellMeasure,
    ScalarField,
    VectorField,
    diff_ops,
    dump_field,
    exact_limit_field,
    fd_gradient,
    load_field,
    w11_distance,
    weak_divergence,
)
from aglab.geometry import EXTERIOR, INTERIOR, Ellipse, Grid, Stadium, grad_signed_distance

RNG = np.random.default_rng(7)


def fd_perp_gradient(u: ScalarField) -> VectorField:
    g = fd_gradient(u).values
    return VectorField(u.grid, np.stack([-g[..., 1], g[..., 0]], axis=-1))


def fd_hessian_norm(u: ScalarField, eta: float) -> ScalarField:
    """Smoothed Frobenius norm sqrt(|H|^2 + eta^2) - eta of the FD Hessian."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    ops = diff_ops(u.grid)
    flat = u.values.ravel()
    q = (ops.d11 @ flat) ** 2 + 2.0 * (ops.d12 @ flat) ** 2 + (ops.d22 @ flat) ** 2
    vals = np.sqrt(q + eta * eta) - eta
    return ScalarField(u.grid, vals.reshape(u.grid.shape))


def square_grid(n=48, h=1 / 32, pad=3):
    """Axis box test grid whose interior is an n x n node block."""
    g = Grid(origin=(0.0, 0.0), h=h, nx=n + 2 * pad, ny=n + 2 * pad)
    mask = np.full((g.nx, g.ny), EXTERIOR, dtype=np.uint8)
    mask[pad:pad + n, pad:pad + n] = INTERIOR
    g.mask = mask
    g.ridge_near = np.zeros((g.nx, g.ny), dtype=bool)
    return g


def test_gradient_exact_on_linear():
    g = square_grid()
    u = ScalarField(g, g.nodes[..., 0])
    gv = fd_gradient(u).values
    assert np.allclose(gv[g.active()], [1.0, 0.0], atol=1e-13)
    pv = fd_perp_gradient(u).values
    assert np.allclose(pv[g.active()], [0.0, 1.0], atol=1e-13)


def test_gradient_exact_on_quadratic():
    # centered and one-sided second-order stencils are exact on quadratics
    g = square_grid()
    x, y = g.nodes[..., 0], g.nodes[..., 1]
    u = ScalarField(g, 0.5 * x**2 - x * y + y**2)
    gv = fd_gradient(u).values
    want = np.stack([x - y, -x + 2 * y], axis=-1)
    assert np.max(np.abs((gv - want)[g.active()])) < 1e-11


def test_hessian_norm_examples():
    g = square_grid()
    x, y = g.nodes[..., 0], g.nodes[..., 1]
    affine = ScalarField(g, 2.0 + 3.0 * x - y)
    for eta in (0.0, 0.3, 2.0):
        assert np.max(np.abs(fd_hessian_norm(affine, eta).values[g.active()])) < 1e-10
    quad = ScalarField(g, 0.5 * (x**2 + y**2))
    assert np.allclose(fd_hessian_norm(quad, 0.0).values[g.active()], np.sqrt(2.0), atol=1e-9)
    xy = ScalarField(g, x * y)
    assert np.allclose(fd_hessian_norm(xy, 1.0).values[g.active()], np.sqrt(3.0) - 1.0, atol=1e-9)


def test_fd_operators_linear():
    g = square_grid()
    x, y = g.nodes[..., 0], g.nodes[..., 1]
    u = ScalarField(g, np.sin(x) * np.cos(y))
    v = ScalarField(g, np.cos(2 * x) + y**3)
    alpha, beta = 0.7, -1.3
    combo = ScalarField(g, alpha * u.values + beta * v.values)
    lhs = fd_gradient(combo).values
    rhs = alpha * fd_gradient(u).values + beta * fd_gradient(v).values
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_limit_gradient_consistency(ellipse, grid128, limit128):
    u, _ = limit128
    g = fd_gradient(u).values
    pts = grid128.nodes
    off = grid128.interior() & ~grid128.ridge_near
    # exclude rows whose stencil straddles the ridge, and a fixed ball
    # around the ridge endpoints where curvature is unbounded
    off &= np.abs(pts[..., 1]) > 1.5 * grid128.h
    for ex in (-0.75, 0.75):
        off &= np.hypot(pts[..., 0] - ex, pts[..., 1]) > 0.06
    err = np.abs(np.linalg.norm(g, axis=-1) - 1.0)[off].max()
    assert err < 40 * grid128.h**2
    exact = grad_signed_distance(ellipse, grid128.nodes)
    assert np.max(np.linalg.norm((g - exact), axis=-1)[off]) < 60 * grid128.h**2


def test_w11_trivials(ellipse, grid64, limit64):
    u, _ = limit64
    assert w11_distance(u, u, grid64.interior()) == 0.0
    c = 0.37
    v = ScalarField(grid64, u.values + c)
    area = grid64.interior().sum() * grid64.h**2
    assert w11_distance(u, v, grid64.interior()) == pytest.approx(c * area, rel=1e-12)


def test_w11_metric_properties(grid64, limit64):
    u0, _ = limit64
    region = grid64.interior()
    fields = []
    for _ in range(3):
        fields.append(ScalarField(grid64, u0.values + 0.01 * RNG.standard_normal(grid64.shape)))
    a, b, c = fields
    dab = w11_distance(a, b, region)
    dba = w11_distance(b, a, region)
    assert dab == pytest.approx(dba, rel=1e-14)
    assert w11_distance(a, c, region) <= dab + w11_distance(b, c, region) + 1e-12


def test_w11_quadrature_oracle(ellipse, grid64, limit64):
    u0, _ = limit64
    pts = grid64.nodes
    s = 0.15

    def bump(x, y):
        return np.exp(-(x**2 + y**2) / (2 * s**2))

    pert = 0.01 * np.sin(np.pi * pts[..., 0]) * bump(pts[..., 0], pts[..., 1])
    u1 = ScalarField(grid64, u0.values + pert)
    got = w11_distance(u1, u0, grid64.interior())

    def dens(x, y):
        bb = bump(x, y)
        d = 0.01 * np.sin(np.pi * x) * bb
        dx = 0.01 * (np.pi * np.cos(np.pi * x) * bb - np.sin(np.pi * x) * bb * x / s**2)
        dy = -0.01 * np.sin(np.pi * x) * bb * y / s**2
        return np.abs(d) + np.hypot(dx, dy)

    sub = (np.arange(3) + 0.5) / 3 - 0.5
    xs = pts[..., 0][..., None, None] + sub[None, None, :, None] * grid64.h
    ys = pts[..., 1][..., None, None] + sub[None, None, None, :] * grid64.h
    cellwise = dens(xs, ys).mean(axis=(-1, -2)) * grid64.h**2
    oracle = float(cellwise[grid64.interior()].sum())
    assert got == pytest.approx(oracle, rel=0.01)


def test_weak_divergence_constant_zero():
    g = square_grid()
    F = VectorField(g, np.broadcast_to([1.3, -0.4], g.shape + (2,)).copy())
    wd = weak_divergence(F)
    assert np.max(np.abs(wd.masses)) == 0.0


def test_weak_divergence_linear_field():
    g = square_grid()
    F = VectorField(g, g.nodes.copy())  # div = 2 exactly
    wd = weak_divergence(F)
    pts = g.nodes
    disk = (np.hypot(pts[..., 0] - 0.7, pts[..., 1] - 0.7) < 0.3) & g.active()
    area = disk.sum() * g.h**2
    assert wd.total_mass(disk) == pytest.approx(2 * area, rel=1e-12)


def test_weak_divergence_theorem_compact_support():
    g = square_grid()
    x, y = g.nodes[..., 0] - 0.7, g.nodes[..., 1] - 0.7
    w = np.exp(-(x**2 + y**2) / (2 * 0.1**2))
    F = VectorField(g, np.stack([w * y, -w * x * y], axis=-1))
    wd = weak_divergence(F)
    assert abs(wd.total_mass()) < 1e-12


def test_weak_divergence_jump_bracket():
    # straight vertical jump: line-integrated mass approaches the bracket
    beta = np.pi / 3
    lo_err = None
    for n in (48, 96):
        g = square_grid(n=n, h=1.0 / n)
        x = g.nodes[..., 0]
        m = np.where(x[..., None] > 0.6, [np.cos(beta), np.sin(beta)], [np.cos(beta), -np.sin(beta)])
        wd = weak_divergence(VectorField(g, m))
        band = (np.abs(x - 0.6) < 3 * g.h) & g.active() & (np.abs(g.nodes[..., 1] - 0.7) < 0.2)
        per_len = wd.total_mass(band) / 0.4
        bracket = 0.0  # [m . e1] = 0 across a vertical jump of this pair
        err = abs(per_len - bracket)
        assert err < 1e-10
        # and a pair with a genuine normal bracket
        m2 = np.where(x[..., None] > 0.6, [np.cos(beta), np.sin(beta)], [-np.cos(beta), np.sin(beta)])
        wd2 = weak_divergence(VectorField(g, m2))
        per_len2 = wd2.total_mass(band) / 0.4
        want = 2 * np.cos(beta)
        err2 = abs(per_len2 - want)
        if lo_err is not None:
            assert err2 <= lo_err * 0.7 + 1e-12
        lo_err = err2


def test_vortex_production_second_order():
    # smooth unit divergence-free field: weak divergence TV -> 0 like h^2
    tvs = []
    for n in (40, 80):
        g = square_grid(n=n, h=1.0 / n)
        x, y = g.nodes[..., 0] - 0.75, g.nodes[..., 1] - 0.75
        r = np.hypot(x, y)
        keep = (r > 0.25) & (r < 0.7)
        g.mask = np.where(keep, INTERIOR, EXTERIOR).astype(np.uint8)
        m = np.stack([-y, x], axis=-1) / np.where(r == 0, 1.0, r)[..., None]
        wd = weak_divergence(VectorField(g, m))
        tvs.append(wd.total_variation(g.active()))
    assert tvs[1] < tvs[0] / 3.0  # at least close to the h^2 rate


@pytest.mark.parametrize("domain", [Ellipse(1.0, 0.5), Stadium(2.0, 1.0)], ids=["ellipse", "stadium"])
def test_exact_limit_field_projects_once(domain, monkeypatch):
    calls = []
    project = geometry._project_raw
    monkeypatch.setattr(geometry, "_project_raw", lambda d, x: calls.append(1) or project(d, x))
    grid = Grid.cover(domain, h=1 / 32)
    calls.clear()
    u, m = exact_limit_field(domain, grid)
    assert len(calls) == 1
    # the same bits as the separate distance and field queries
    assert np.array_equal(u.values, geometry.signed_distance(domain, grid.nodes))
    assert np.array_equal(m.values, geometry.limit_vector_field(domain, grid.nodes))


def test_dump_roundtrip(tmp_path, grid64, limit64):
    u, m = limit64
    p1 = tmp_path / "u.txt"
    dump_field(p1, u)
    back = load_field(p1)
    assert np.allclose(back.values, u.values, atol=1e-10)
    p2 = tmp_path / "m.txt"
    dump_field(p2, m)
    mv = load_field(p2)
    assert np.allclose(mv.values, m.values, atol=1e-10)
    # deterministic bytes
    dump_field(tmp_path / "again.txt", u)
    assert (tmp_path / "again.txt").read_bytes() == p1.read_bytes()
    meta = json.loads((tmp_path / "u.txt.json").read_text())
    assert meta["nx"] == grid64.nx and meta["components"] == 1


def test_dump_field_matches_row_loop(tmp_path, grid64, limit64):
    """The file holds the rows of a per-node f-string loop, byte for byte."""
    pts = grid64.nodes
    for fld in limit64:
        lines = []
        for i in range(grid64.nx):
            for j in range(grid64.ny):
                x, y = pts[i, j]
                if isinstance(fld, VectorField):
                    v = fld.values[i, j]
                    lines.append(f"{i} {j} {x:.12g} {y:.12g} {v[0]:.12g} {v[1]:.12g}")
                else:
                    lines.append(f"{i} {j} {x:.12g} {y:.12g} {fld.values[i, j]:.12g}")
        path = tmp_path / "f.txt"
        dump_field(path, fld)
        assert path.read_text() == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the two stencil cascades that the table-driven ``fields._derivative`` replaced,
# kept as its reference


def _old_emit(rows, cols, data, case_mask, offsets, coeffs, ny, axis):
    ii, jj = np.nonzero(case_mask)
    lin = ii * ny + jj
    for off, c in zip(offsets, coeffs):
        if axis == 0:
            tgt = (ii + off) * ny + jj
        else:
            tgt = ii * ny + (jj + off)
        rows.append(lin)
        cols.append(tgt)
        data.append(np.full(lin.shape, c))


def _old_matrix(rows, cols, data, n):
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))


def _old_first_derivative(active, h, axis):
    def nb(k):
        return fields._shifted(active, k, 0) if axis == 0 else fields._shifted(active, 0, k)

    A = active
    cen = A & nb(1) & nb(-1)
    fwd2 = A & ~cen & nb(1) & nb(2)
    bwd2 = A & ~cen & ~fwd2 & nb(-1) & nb(-2)
    fwd1 = A & ~cen & ~fwd2 & ~bwd2 & nb(1)
    bwd1 = A & ~cen & ~fwd2 & ~bwd2 & ~fwd1 & nb(-1)
    rows, cols, data = [], [], []
    ny = active.shape[1]
    _old_emit(rows, cols, data, cen, (1, -1), (0.5 / h, -0.5 / h), ny, axis)
    _old_emit(rows, cols, data, fwd2, (0, 1, 2), (-1.5 / h, 2.0 / h, -0.5 / h), ny, axis)
    _old_emit(rows, cols, data, bwd2, (0, -1, -2), (1.5 / h, -2.0 / h, 0.5 / h), ny, axis)
    _old_emit(rows, cols, data, fwd1, (0, 1), (-1.0 / h, 1.0 / h), ny, axis)
    _old_emit(rows, cols, data, bwd1, (0, -1), (1.0 / h, -1.0 / h), ny, axis)
    return _old_matrix(rows, cols, data, active.size)


def _old_second_derivative(active, h, axis):
    def nb(k):
        return fields._shifted(active, k, 0) if axis == 0 else fields._shifted(active, 0, k)

    h2 = h * h
    A = active
    cen = A & nb(1) & nb(-1)
    fwd3 = A & ~cen & nb(1) & nb(2) & nb(3)
    bwd3 = A & ~cen & ~fwd3 & nb(-1) & nb(-2) & nb(-3)
    fwd2 = A & ~cen & ~fwd3 & ~bwd3 & nb(1) & nb(2)
    bwd2 = A & ~cen & ~fwd3 & ~bwd3 & ~fwd2 & nb(-1) & nb(-2)
    rows, cols, data = [], [], []
    ny = active.shape[1]
    _old_emit(rows, cols, data, cen, (-1, 0, 1), (1 / h2, -2 / h2, 1 / h2), ny, axis)
    _old_emit(rows, cols, data, fwd3, (0, 1, 2, 3), (2 / h2, -5 / h2, 4 / h2, -1 / h2), ny, axis)
    _old_emit(rows, cols, data, bwd3, (0, -1, -2, -3), (2 / h2, -5 / h2, 4 / h2, -1 / h2), ny, axis)
    _old_emit(rows, cols, data, fwd2, (0, 1, 2), (1 / h2, -2 / h2, 1 / h2), ny, axis)
    _old_emit(rows, cols, data, bwd2, (0, -1, -2), (1 / h2, -2 / h2, 1 / h2), ny, axis)
    return _old_matrix(rows, cols, data, active.size)


def _same_csr(A, B):
    return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices) and np.array_equal(A.data, B.data))


def test_stencils_match_the_cascades_on_random_masks():
    rng = np.random.default_rng(11)
    for _ in range(200):
        shape = tuple(rng.integers(1, 12, size=2))
        active = rng.random(shape) < rng.uniform(0.3, 1.0)
        h = rng.uniform(0.01, 1.0)
        for axis in (0, 1):
            assert _same_csr(fields._derivative(active, h, axis, 1), _old_first_derivative(active, h, axis))
            assert _same_csr(fields._derivative(active, h, axis, 2), _old_second_derivative(active, h, axis))


@pytest.mark.parametrize("domain", [Ellipse(1.0, 0.5), Stadium(2.0, 1.0)], ids=["ellipse", "stadium"])
def test_diff_ops_match_the_cascades(domain):
    # same arrays, in the same (unsorted) order, so every product sums in the same order
    grid = Grid.cover(domain, h=1 / 40)
    ops = diff_ops(grid)
    active, h = grid.active(), grid.h
    d1, d2 = (_old_first_derivative(active, h, axis) for axis in (0, 1))
    d11, d22 = (_old_second_derivative(active, h, axis) for axis in (0, 1))
    d12 = (d1 @ d2).tocsr()
    stacked = sp.vstack([op[ops.active_idx] for op in (d1, d2, d11, d22, d12)], format="csr")
    for new, old in [(ops.d1, d1), (ops.d2, d2), (ops.d11, d11), (ops.d22, d22), (ops.d12, d12),
                     (ops.stacked, stacked), (ops.stacked_t, stacked[:, ops.interior_idx].T.tocsr())]:
        assert _same_csr(new, old)
