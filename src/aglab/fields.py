"""Grid fields and finite-difference calculus.

Scalar/vector fields are node arrays on a :class:`~aglab.geometry.Grid`.
Derivative stencils are assembled once per grid as sparse matrices:
second-order centered where both neighbours are active, second-order
one-sided at mask edges, first-order as a last resort.  The weak
divergence pairs a vector field against nodal hat functions, which on a
uniform grid reduces to centered differences on stencil-complete nodes;
its output is a signed measure on dual cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import geometry
from .geometry import Domain, Grid


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

    def norm(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=-1)


@dataclass
class CellMeasure:
    """Signed mass per dual cell (one cell per node)."""

    grid: Grid
    masses: np.ndarray

    def total_mass(self, region: np.ndarray | None = None) -> float:
        m = self.masses if region is None else self.masses[region]
        return float(np.sum(m))

    def total_variation(self, region: np.ndarray | None = None) -> float:
        m = self.masses if region is None else self.masses[region]
        return float(np.sum(np.abs(m)))


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
    """The five derivative operators of a grid, separately and stacked.

    ``stacked`` holds the active rows of ``d1, d2, d11, d22, d12`` one
    block after the other (5 * n_active x N), so one product gives every
    derivative the energy needs; its rows follow ``active_idx`` within each
    block.  ``stacked_t`` is its transpose restricted to the interior
    nodes ``interior_idx`` (n_interior x 5 * n_active), which maps weights
    on those rows back to interior slots in one product.
    """

    d1: sp.csr_matrix
    d2: sp.csr_matrix
    d11: sp.csr_matrix
    d22: sp.csr_matrix
    d12: sp.csr_matrix
    active_idx: np.ndarray
    interior_idx: np.ndarray
    stacked: sp.csr_matrix
    stacked_t: sp.csr_matrix


def diff_ops(grid: Grid) -> DiffOps:
    """Sparse derivative operators for the grid (cached on the grid object).

    Besides the five operators this builds their stacked form and its
    interior-restricted transpose (see :class:`DiffOps`) once per grid.
    """
    cached = grid.__dict__.get("_diff_ops")
    if cached is not None:
        return cached
    active = grid.active()
    d1, d2 = (_derivative(active, grid.h, axis, 1) for axis in (0, 1))
    d11, d22 = (_derivative(active, grid.h, axis, 2) for axis in (0, 1))
    d12 = (d1 @ d2).tocsr()
    active_idx = np.flatnonzero(active.ravel())
    interior_idx = np.flatnonzero(grid.interior().ravel())
    stacked = sp.vstack([op[active_idx] for op in (d1, d2, d11, d22, d12)], format="csr")
    ops = DiffOps(
        d1=d1,
        d2=d2,
        d11=d11,
        d22=d22,
        d12=d12,
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
    ops = diff_ops(u.grid)
    flat = u.values.ravel()
    g1 = (ops.d1 @ flat).reshape(u.grid.shape)
    g2 = (ops.d2 @ flat).reshape(u.grid.shape)
    return VectorField(u.grid, np.stack([g1, g2], axis=-1))


def w11_distance(u: ScalarField, v: ScalarField, region: np.ndarray) -> float:
    """h^2-weighted L1 distance of values plus gradients over the region."""
    if u.grid is not v.grid:
        raise ValueError("fields must share a grid")
    diff = ScalarField(u.grid, u.values - v.values)
    g = fd_gradient(diff).values
    dens = np.abs(diff.values) + np.linalg.norm(g, axis=-1)
    return float(u.grid.h**2 * np.sum(dens[region]))


def weak_divergence(F: VectorField) -> CellMeasure:
    """Distributional divergence against nodal hat functions.

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
    masses = np.where(ok, grid.h**2 * div, 0.0)
    return CellMeasure(grid, masses)


# ---------------------------------------------------------------------------
# analytic reference field


def exact_limit_field(domain: Domain, grid: Grid) -> tuple[ScalarField, VectorField]:
    """Extended signed distance and its perp-gradient sampled at the nodes.

    Ridge-near nodes receive the one-sided value from their own side of
    the ridge (upper side for x2 == 0 exactly); they stay flagged in
    ``grid.ridge_near``.
    """
    u, grad = geometry._signed_distance_grad(domain, grid.nodes)
    return ScalarField(grid, u), VectorField(grid, geometry.rot90(grad))


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
    np.savetxt(path, cols, fmt="%d %d " + " ".join(["%.12g"] * (cols.shape[1] - 2)))
    meta = _grid_meta(grid)
    meta["components"] = values.shape[-1]
    Path(str(path) + ".json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def load_field(path: str | Path) -> ScalarField | VectorField:
    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    grid = Grid(origin=tuple(meta["origin"]), h=meta["h"], nx=meta["nx"], ny=meta["ny"], angle=meta["angle"])
    raw = np.loadtxt(path)
    ncomp = meta["components"]
    vals = np.zeros((grid.nx, grid.ny, ncomp))
    ii = raw[:, 0].astype(int)
    jj = raw[:, 1].astype(int)
    vals[ii, jj, :] = raw[:, 4:4 + ncomp]
    if ncomp == 1:
        return ScalarField(grid, vals[..., 0])
    return VectorField(grid, vals)
