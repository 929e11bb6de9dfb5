"""Evaluation and minimization of the perturbed functional on the grid.

The discrete energy is an h^2-weighted nodal quadrature over all
non-exterior nodes of

    eps * |hess u|_eta  +  (1/eps) * (1 - |grad u|^2)^2,

where |hess u|_eta = sqrt(|hess u|_F^2 + eta^2) - eta is the smoothed
Frobenius norm (``hessian_power=1``, the default) or |hess u|_F^2
(``hessian_power=2``).  Collar nodes are pinned to the extended signed
distance, which encodes both the boundary value and the unit inward
slope; minimization acts on interior nodes only.

The one solver is damped Newton with a plain Armijo backtrack, run
under a continuation schedule on the smoothing parameter eta.  Its
matrix is h^2 B^T W B + gamma I on the interior unknowns: B stacks the
five derivative operators, W is the per-node curvature of the energy
density made positive semidefinite, and gamma = 8 h^2 / eps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from . import entropy as entropy_mod
from .errors import NonFiniteEnergy
from .fields import ScalarField, diff_ops, exact_limit_field, w11_distance
from .geometry import Domain, Grid, ridge_set

_ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking test
_MAX_BACKTRACKS = 60  # step halvings before a line search gives up


@dataclass(frozen=True)
class EnergySplit:
    hessian_term: float
    potential_term: float

    @property
    def total(self) -> float:
        return self.hessian_term + self.potential_term


@dataclass
class MinimizeOptions:
    max_iter: int = 4000
    tol: float = 1e-3
    eta0: float = 1.0
    eta_min: float | None = None  # default 1e-4 / h
    hessian_power: int = 1
    warm_start: ScalarField | None = None

    def resolved_eta_min(self, h: float) -> float:
        return self.eta_min if self.eta_min is not None else 1e-4 / h


@dataclass(frozen=True)
class LevelRecord:
    """How the solver ran on one eta level."""

    eta: float
    iterations: int
    backtracks: int  # step halvings over all line searches of the level
    split: EnergySplit  # of the state the level returned
    grad_norm: float  # of the same state
    converged: bool  # grad_norm <= tol


@dataclass
class MinimizeResult:
    u: ScalarField
    eps: float
    eta_final: float
    iterations: int  # Newton steps over all levels
    converged: bool  # of the last level
    # one record per eta level in schedule order; the last one holds the
    # energy split and gradient norm of ``u``
    levels: list[LevelRecord]


def energy(u: ScalarField, eps: float, eta: float, hessian_power: int = 1,
           region: np.ndarray | None = None) -> EnergySplit:
    """Split energy over all non-exterior nodes, or the active nodes of ``region``.

    One product with the stacked operator of :func:`~aglab.fields.diff_ops`
    gives the five derivatives at every active node.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    grid = u.grid
    ops = diff_ops(grid)
    g1, g2, a, c, b = (ops.stacked @ u.values.ravel()).reshape(5, -1)
    q = a * a + 2.0 * b * b + c * c
    if hessian_power == 1:
        hess = np.sqrt(q + eta * eta) - eta
    elif hessian_power == 2:
        hess = q
    else:
        raise ValueError("hessian_power must be 1 or 2")
    pot = (1.0 - g1 * g1 - g2 * g2) ** 2
    if region is not None:
        keep = region.ravel()[ops.active_idx]
        hess, pot = hess[keep], pot[keep]
    h2 = grid.h**2
    hess_term = eps * h2 * float(np.sum(hess))
    pot_term = h2 / eps * float(np.sum(pot))
    if not (np.isfinite(hess_term) and np.isfinite(pot_term)):
        raise NonFiniteEnergy("non-finite nodal energy term")
    return EnergySplit(hess_term, pot_term)


def energy_gradient(u: ScalarField, eps: float, eta: float, hessian_power: int = 1) -> np.ndarray:
    """Exact gradient of the discrete energy w.r.t. interior node values.

    One product with the stacked operator gives the derivatives, and one
    with its interior-restricted transpose maps the nodal weights back to
    interior slots.  Entries at collar and exterior slots are zero.
    """
    if hessian_power == 1 and eta <= 0:
        raise ValueError("hessian_power=1 requires eta > 0 for a smooth gradient")
    grid = u.grid
    ops = diff_ops(grid)
    g1, g2, a, c, b = (ops.stacked @ u.values.ravel()).reshape(5, -1)
    w = (-4.0 / eps) * (1.0 - g1 * g1 - g2 * g2)
    if hessian_power == 1:
        r = eps / np.sqrt(a * a + 2 * b * b + c * c + eta * eta)
        weights = (w * g1, w * g2, r * a, r * c, 2.0 * r * b)
    else:
        weights = (w * g1, w * g2, 2.0 * eps * a, 2.0 * eps * c, 4.0 * eps * b)
    grad = np.zeros(grid.shape)
    grad.ravel()[ops.interior_idx] = grid.h**2 * (ops.stacked_t @ np.concatenate(weights))
    return grad


def grad_norm(grid: Grid, g: np.ndarray) -> float:
    """L2 norm of the variational derivative (g holds h^2-weighted entries)."""
    return float(np.linalg.norm(g) / grid.h)


def mollified_limit_field(domain: Domain, grid: Grid, radius_cells: float = 2.0) -> ScalarField:
    """Gaussian-blurred extended distance with the collar re-pinned."""
    u_exact, _ = exact_limit_field(domain, grid)
    blurred = gaussian_filter(u_exact.values, sigma=radius_cells, mode="nearest")
    vals = np.where(grid.interior(), blurred, u_exact.values)
    return ScalarField(grid, vals)


_BLOCKS = [(i, j) for block in ((0, 1), (2, 3, 4)) for i in block for j in block]  # nonzero blocks of W


def _nodal_hessian(z: np.ndarray, eps: float, eta: float, power: int) -> np.ndarray:
    """PSD 5x5 curvature W of the nodal energy density, shape (5, 5, n).

    ``z`` holds the stacked derivatives (g1, g2, a, c, b) of n nodes.  The
    potential block is the Hessian of (1 - |g|^2)^2 / eps,
    (4/eps)(2 g g^T + (|g|^2 - 1) I), with its negative part dropped where
    |g| < 1.  The hessian-term block is the exact Hessian of the convex
    eps*sqrt(y^T S y + eta^2), eps (S/r - (S y)(S y)^T / r^3), with
    S = diag(1, 1, 2) over y = (a, c, b) and r the square root; for
    ``power=2`` it is 2 eps S.  Every entry of both blocks is set, so the
    off-diagonal ones appear exactly once on each side.
    """
    g, y = z[:2], z[2:]
    W = np.zeros((5, 5, z.shape[1]))
    W[:2, :2] = (8.0 / eps) * (g[:, None] * g[None, :])
    excess = (4.0 / eps) * np.maximum(0.0, g[0] * g[0] + g[1] * g[1] - 1.0)
    W[0, 0] += excess
    W[1, 1] += excess
    S = np.array([1.0, 1.0, 2.0])
    if power == 1:
        r = np.sqrt(y[0] * y[0] + y[1] * y[1] + 2.0 * y[2] * y[2] + eta * eta)
        sy = S[:, None] * y / r**1.5
        W[2:, 2:] = eps * (np.diag(S)[:, :, None] / r - sy[:, None] * sy[None, :])
    else:
        W[2:, 2:] = 2.0 * eps * np.diag(S)[:, :, None]
    return W


def _newton_matrix(u: ScalarField, eps: float, eta: float, power: int):
    """Newton matrix H = h^2 B^T W B + gamma I on the interior unknowns.

    B is the stacked operator restricted to interior columns (its
    transpose is ``stacked_t``), W the per-node curvature of
    :func:`_nodal_hessian`, and gamma = 8 h^2 / eps.  H is SPD.
    """
    import scipy.sparse as sp

    grid = u.grid
    ops = diff_ops(grid)
    z = (ops.stacked @ u.values.ravel()).reshape(5, -1)
    W = _nodal_hessian(z, eps, eta, power)
    n = z.shape[1]
    node = np.arange(n)
    rows = np.concatenate([i * n + node for i, _ in _BLOCKS])
    cols = np.concatenate([j * n + node for _, j in _BLOCKS])
    vals = np.concatenate([W[i, j] for i, j in _BLOCKS])
    W_sp = sp.csr_matrix((vals, (rows, cols)), shape=(5 * n, 5 * n))
    h2 = grid.h**2
    BtWB = ops.stacked_t @ (W_sp @ ops.stacked_t.T)
    return h2 * BtWB + (8.0 * h2 / eps) * sp.identity(ops.interior_idx.size, format="csr")


def _factor(H):
    """SuperLU factor of the SPD matrix H.

    Symmetric mode, a minimum-degree ordering of H^T + H and pivots kept
    on the diagonal give less fill, and a faster factor and solve, than
    the default column ordering for nonsymmetric matrices.
    """
    from scipy.sparse.linalg import splu

    return splu(H.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _newton_level(u0: ScalarField, eps: float, eta: float, opts: MinimizeOptions,
                  budget: int) -> tuple[ScalarField, LevelRecord]:
    """Damped Newton steps on one eta level, with a plain Armijo backtrack.

    Each step factors H (:func:`_newton_matrix`) at the current state,
    solves H d = g on the interior unknowns, and halves t from 1 until
    E(u - t d) <= E(u) - _ARMIJO t g.d.  Accepted steps only lower the
    energy, so the current state is always the best one.  The level ends
    when the gradient norm meets ``tol``, after ``budget`` steps, or on a
    line search that runs out of its ``_MAX_BACKTRACKS`` halvings; it
    counts as converged only in the first case.
    """
    grid = u0.grid
    power = opts.hessian_power
    idx = diff_ops(grid).interior_idx
    u = u0.values
    split = energy(u0, eps, eta, power)
    g = energy_gradient(u0, eps, eta, power)
    gn = grad_norm(grid, g)
    it = backtracks = 0
    while it < budget and gn > opts.tol:
        # zero off the interior, so a step leaves the collar exactly pinned;
        # H and its factor are freed at once, so no two are alive together
        d = np.zeros(u.size)
        d[idx] = _factor(_newton_matrix(ScalarField(grid, u), eps, eta, power)).solve(g.ravel()[idx])
        d = d.reshape(grid.shape)
        slope = float(np.sum(g * d))  # positive: H is SPD
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = u - t * d
            trial_split = energy(ScalarField(grid, trial), eps, eta, power)
            if trial_split.total <= split.total - _ARMIJO * t * slope:
                break
            t *= 0.5
            backtracks += 1
        else:
            break
        u, split = trial, trial_split
        g = energy_gradient(ScalarField(grid, u), eps, eta, power)
        gn = grad_norm(grid, g)
        it += 1
    return ScalarField(grid, u), LevelRecord(eta, it, backtracks, split, gn, gn <= opts.tol)


def minimize(domain: Domain, grid: Grid, eps: float, opts: MinimizeOptions | None = None) -> MinimizeResult:
    """Descend the energy over interior nodes with the collar pinned.

    Starts from the mollified extended distance unless a warm start is
    supplied.  With ``hessian_power=1`` the smoothing parameter follows
    the continuation schedule eta_k = max(eta_min, eta0 * 2^-k),
    re-converging at each level; with ``hessian_power=2`` the energy is
    already smooth and a single level (eta ignored) is run.
    """
    opts = opts or MinimizeOptions()
    if eps <= 0:
        raise ValueError("eps must be positive")
    if opts.warm_start is not None:
        u = ScalarField(grid, opts.warm_start.values.copy())
        u_exact, _ = exact_limit_field(domain, grid)
        u.values[~grid.interior()] = u_exact.values[~grid.interior()]
    else:
        u = mollified_limit_field(domain, grid)

    if opts.hessian_power == 1:
        eta_min = opts.resolved_eta_min(grid.h)
        etas = []
        e = opts.eta0
        while e > eta_min * (1 + 1e-12):
            etas.append(e)
            e /= 2.0
        etas.append(eta_min)
    else:
        etas = [0.0]

    levels: list[LevelRecord] = []
    for k, eta in enumerate(etas):
        # the remaining iterations, shared among the remaining levels; a
        # level whose share rounds to 0 takes no step, so max_iter holds
        budget = (opts.max_iter - sum(lv.iterations for lv in levels)) // (len(etas) - k)
        u, level = _newton_level(u, eps, eta, opts, budget)
        levels.append(level)
    return MinimizeResult(
        u=u,
        eps=eps,
        eta_final=etas[-1],
        iterations=sum(lv.iterations for lv in levels),
        converged=levels[-1].converged,
        levels=levels,
    )


# ---------------------------------------------------------------------------
# limit table


@dataclass
class LimitRow:
    eps: float
    total: float
    hessian_term: float
    potential_term: float
    core_total: float
    w11: float
    converged: bool
    iterations: int


@dataclass
class LimitTable:
    rows: list[LimitRow]
    f0_reference: float
    w11_monotone: bool
    gap_monotone: bool


def energy_limit_table(domain: Domain, grid: Grid, eps_list: list[float],
                       opts: MinimizeOptions | None = None, slack: float = 0.05) -> LimitTable:
    """Minimize along a decreasing eps schedule, warm-starting each run.

    Rows carry the energy split and the W^{1,1} distance to the extended
    distance over interior nodes; monotonicity of that distance and of
    the relative energy gap (up to ``slack``) is recorded on the table.
    """
    if any(e2 >= e1 for e1, e2 in zip(eps_list[:-1], eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    opts = opts or MinimizeOptions()
    u_exact, _ = exact_limit_field(domain, grid)
    f0_ref = entropy_mod.f0_jump(ridge_set(domain))
    rows: list[LimitRow] = []
    warm = opts.warm_start
    for eps in eps_list:
        run_opts = replace(opts, warm_start=warm)
        res = minimize(domain, grid, eps, run_opts)
        split = res.levels[-1].split
        core = energy(res.u, eps, res.eta_final, opts.hessian_power, region=grid.interior())
        rows.append(LimitRow(
            eps=eps,
            total=split.total,
            hessian_term=split.hessian_term,
            potential_term=split.potential_term,
            core_total=core.total,
            w11=w11_distance(res.u, u_exact, grid.interior()),
            converged=res.converged,
            iterations=res.iterations,
        ))
        warm = res.u
    w11_ok = all(r2.w11 <= r1.w11 * (1 + slack) for r1, r2 in zip(rows[:-1], rows[1:]))
    gap_ok = True
    if f0_ref > 0:
        # core energies: the minimized functional exceeds them by the
        # pinned collar cost, an offset shared by every competitor
        gaps = [abs(r.core_total - f0_ref) / f0_ref for r in rows]
        gap_ok = all(g2 <= g1 * (1 + slack) for g1, g2 in zip(gaps[:-1], gaps[1:]))
    return LimitTable(rows, f0_ref, w11_ok, gap_ok)
