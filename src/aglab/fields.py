"""Grid fields and finite-difference calculus.

Scalar/vector fields are node arrays on a :class:`~aglab.geometry.Grid`.
Derivative stencils are assembled once per grid as sparse matrices:
second-order centered where both neighbours are active, second-order
one-sided at mask edges, first-order as a last resort.  The weak
divergence pairs a vector field against nodal hat functions, which on a
uniform grid reduces to centered differences on stencil-complete nodes;
its output is a scalar field whose value at a node is the signed mass of
that node's dual cell.  The reference field is that of the grid's
domain, which only grids from ``Grid.cover`` have (a loaded dump's has none).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .geometry import Grid


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("field shape does not match grid")


@dataclass
class VectorField:
    grid: Grid
    values: np.ndarray  # (nx, ny, 2)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape + (2,):
            raise ValueError("field shape does not match grid")


# ---------------------------------------------------------------------------
# stencil assembly


def _shifted(A: np.ndarray, di: int, dj: int) -> np.ndarray:
    """B[i, j] = A[i+di, j+dj], False outside the array."""
    B = np.zeros_like(A)
    nx, ny = A.shape
    i0, i1 = max(0, -di), min(nx, nx - di)
    j0, j1 = max(0, -dj), min(ny, ny - dj)
    if i0 < i1 and j0 < j1:
        B[i0:i1, j0:j1] = A[i0 + di:i1 + di, j0 + dj:j1 + dj]
    return B


# (offsets along the axis, weights times h^order) per derivative order, in
# order of preference: a node takes the first stencil whose nodes are all active
_STENCILS = {
    1: (((1, -1), (0.5, -0.5)), ((0, 1, 2), (-1.5, 2.0, -0.5)), ((0, -1, -2), (1.5, -2.0, 0.5)),
        ((0, 1), (-1.0, 1.0)), ((0, -1), (1.0, -1.0))),
    2: (((-1, 0, 1), (1, -2, 1)), ((0, 1, 2, 3), (2, -5, 4, -1)), ((0, -1, -2, -3), (2, -5, 4, -1)),
        ((0, 1, 2), (1, -2, 1)), ((0, -1, -2), (1, -2, 1))),
}


def _derivative(active: np.ndarray, h: float, axis: int, order: int) -> sp.csr_matrix:
    """First or second derivative along ``axis``, second order where a stencil allows it.

    Rows of inactive nodes, and of active nodes no stencil fits, are empty.
    """
    scale = h if order == 1 else h * h
    ny = active.shape[1]
    step = ny if axis == 0 else 1  # flat-index distance of one node along the axis
    free = active.copy()
    rows, cols, data = [], [], []
    for offsets, weights in _STENCILS[order]:
        case = free.copy()
        for off in offsets:
            case &= _shifted(active, off, 0) if axis == 0 else _shifted(active, 0, off)
        free &= ~case
        ii, jj = np.nonzero(case)
        lin = ii * ny + jj
        for off, w in zip(offsets, weights):
            rows.append(lin)
            cols.append(lin + off * step)
            data.append(np.full(lin.shape, w / scale))
    n = active.size
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))


@dataclass(frozen=True)
class DiffOps:
    """The five derivative operators of a grid, stacked.

    ``stacked`` holds the active rows of d1, d2, d11, d22 and d12 one
    block after the other (5 * n_active x N), so one product gives every
    derivative the energy needs; its rows follow ``active_idx`` within each
    block.  ``stacked_t`` is its transpose restricted to the interior
    nodes ``interior_idx`` (n_interior x 5 * n_active), which maps weights
    on those rows back to interior slots in one product.
    """

    active_idx: np.ndarray
    interior_idx: np.ndarray
    stacked: sp.csr_matrix
    stacked_t: sp.csr_matrix


def diff_ops(grid: Grid) -> DiffOps:
    """Sparse derivative operators for the grid, stacked (cached on the grid object).

    d1, d2, d11 and d22 come from ``_derivative`` and d12 = d1 d2; only
    their stacked form and its interior-restricted transpose (see
    :class:`DiffOps`) are kept.
    """
    cached = grid.__dict__.get("_diff_ops")
    if cached is not None:
        return cached
    active = grid.active()
    d1, d2 = (_derivative(active, grid.h, axis, 1) for axis in (0, 1))
    d11, d22 = (_derivative(active, grid.h, axis, 2) for axis in (0, 1))
    active_idx = np.flatnonzero(active.ravel())
    interior_idx = np.flatnonzero(grid.interior().ravel())
    stacked = sp.vstack([op[active_idx] for op in (d1, d2, d11, d22, (d1 @ d2).tocsr())], format="csr")
    ops = DiffOps(
        active_idx=active_idx,
        interior_idx=interior_idx,
        stacked=stacked,
        stacked_t=stacked[:, interior_idx].T.tocsr(),
    )
    grid.__dict__["_diff_ops"] = ops
    return ops


# ---------------------------------------------------------------------------
# calculus


def fd_gradient(u: ScalarField) -> VectorField:
    """Nodal gradient from the first two blocks of the stacked operator; zero at inactive nodes."""
    ops = diff_ops(u.grid)
    n = ops.active_idx.size
    g = np.zeros((u.values.size, 2))
    g[ops.active_idx] = (ops.stacked[:2 * n] @ u.values.ravel()).reshape(2, n).T
    return VectorField(u.grid, g.reshape(u.grid.shape + (2,)))


def w11_distance(u: ScalarField, v: ScalarField, region: np.ndarray) -> float:
    """h^2-weighted L1 distance of values plus gradients over the region."""
    if u.grid is not v.grid:
        raise ValueError("fields must share a grid")
    diff = ScalarField(u.grid, u.values - v.values)
    g = fd_gradient(diff).values
    g0, g1 = g[..., 0], g[..., 1]
    dens = np.abs(diff.values) + np.sqrt(g0 * g0 + g1 * g1)
    return float(u.grid.h**2 * np.sum(dens[region]))


def weak_divergence(F: VectorField) -> ScalarField:
    """Distributional divergence against nodal hat functions, as each dual cell's mass.

    Each stencil-complete active node carries the mass
    h^2 * (centered div F); rim nodes (incomplete stencil) carry zero, so
    totals over the active region measure interior production only.
    """
    grid = F.grid
    if grid.angle != 0.0:
        raise NotImplementedError("weak divergence expects an axis-aligned grid")
    A = grid.active()
    ok = A & _shifted(A, 1, 0) & _shifted(A, -1, 0) & _shifted(A, 0, 1) & _shifted(A, 0, -1)
    F1, F2 = F.values[..., 0], F.values[..., 1]
    div = np.zeros(grid.shape)
    div[1:-1, :] += F1[2:, :] - F1[:-2, :]
    div[:, 1:-1] += F2[:, 2:] - F2[:, :-2]
    div /= 2.0 * grid.h
    return ScalarField(grid, np.where(ok, grid.h**2 * div, 0.0))


# ---------------------------------------------------------------------------
# analytic reference field


def exact_limit_field(grid: Grid) -> tuple[ScalarField, VectorField]:
    """Extended signed distance of the grid's domain and its perp-gradient at the nodes.

    Nodes near the ridge receive the one-sided value from their own side
    of it, and nodes on it (x2 == 0 exactly) the value from above.  The
    values are the read-only arrays of ``grid.limit_field``, shared and
    not copied; a grid not from ``Grid.cover`` has no domain: ValueError.
    """
    u, m = grid.limit_field
    return ScalarField(grid, u), VectorField(grid, m)


# ---------------------------------------------------------------------------
# dumps: one line per node "i j x y value[ value2]" plus a JSON sidecar


def _grid_meta(grid: Grid) -> dict:
    return {
        "origin": [grid.origin[0], grid.origin[1]],
        "h": grid.h,
        "nx": grid.nx,
        "ny": grid.ny,
        "angle": grid.angle,
    }


def dump_field(path: str | Path, fld: ScalarField | VectorField) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    grid = fld.grid
    # one row per node, i-major: i j x y value(s)
    ij = np.indices((grid.nx, grid.ny)).transpose(1, 2, 0)
    values = fld.values.reshape(grid.nx, grid.ny, -1)
    cols = np.concatenate([ij, grid.nodes, values], axis=-1).reshape(grid.nx * grid.ny, -1)
    # np.savetxt's bytes, from one format call over all rows
    row = "%d %d " + " ".join(["%.12g"] * (cols.shape[1] - 2)) + "\n"
    path.write_text((row * cols.shape[0]) % tuple(cols.ravel().tolist()))
    meta = _grid_meta(grid)
    meta["components"] = values.shape[-1]
    Path(str(path) + ".json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def load_field(path: str | Path) -> ScalarField | VectorField:
    """The field of a ``dump_field`` dump; ValueError unless each node (i, j) has one row of finite values."""
    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    grid = Grid(origin=tuple(meta["origin"]), h=meta["h"], nx=meta["nx"], ny=meta["ny"], angle=meta["angle"])
    raw = np.loadtxt(path, ndmin=2)
    ncomp = meta["components"]
    ij = raw[:, :2].astype(int)
    # as many integer (i, j) rows as nodes, each on the grid and no two alike
    if not (raw.shape == (grid.nx * grid.ny, 4 + ncomp) and np.array_equal(ij, raw[:, :2])
            and np.all((ij >= 0) & (ij < grid.shape)) and np.unique(ij[:, 0] * grid.ny + ij[:, 1]).size == len(ij)
            and np.isfinite(raw[:, 4:]).all()):
        raise ValueError(f"{path} does not hold one row of {ncomp} finite value(s) per node (i, j) of its grid")
    vals = np.empty((grid.nx, grid.ny, ncomp))
    vals[ij[:, 0], ij[:, 1]] = raw[:, 4:]
    if ncomp == 1:
        return ScalarField(grid, vals[..., 0])
    return VectorField(grid, vals)
