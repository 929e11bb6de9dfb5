"""Evaluation and minimization of the perturbed functional on the grid.

The discrete energy is an h^2-weighted nodal quadrature over all
non-exterior nodes of

    eps * |hess u|_eta  +  (1/eps) * (1 - |grad u|^2)^2,

where |hess u|_eta = sqrt(|hess u|_F^2 + eta^2) - eta is the smoothed
Frobenius norm (``hessian_power=1``, the default) or |hess u|_F^2
(``hessian_power=2``).  Collar nodes are pinned to the extended signed
distance, which encodes both the boundary value and the unit inward
slope; minimization acts on interior nodes only.

The one solver is preconditioned Barzilai-Borwein steps with a
nonmonotone Armijo backtracking window, run under a continuation
schedule on the smoothing parameter eta.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from . import entropy as entropy_mod
from .errors import NonFiniteEnergy
from .fields import ScalarField, diff_ops, exact_limit_field, w11_distance
from .geometry import Domain, Grid, ridge_set

_ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking test
_MAX_BACKTRACKS = 60  # step halvings before a line search gives up
_WINDOW = 10  # accepted energies the nonmonotone test compares against


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


@dataclass
class MinimizeResult:
    u: ScalarField
    energy_history: list[EnergySplit]
    grad_norm_history: list[float]
    eps: float
    eta_final: float
    iterations: int
    converged: bool
    # indices into energy_history where a new eta level starts; the
    # monotone-descent guarantee holds within each level (the smoothed
    # objective changes across levels)
    level_starts: list[int] = field(default_factory=list)


def _derivatives(u_flat: np.ndarray, grid: Grid):
    ops = diff_ops(grid)
    return (
        ops.d1 @ u_flat,
        ops.d2 @ u_flat,
        ops.d11 @ u_flat,
        ops.d22 @ u_flat,
        ops.d12 @ u_flat,
    )


def energy(u: ScalarField, eps: float, eta: float, hessian_power: int = 1,
           region: np.ndarray | None = None) -> EnergySplit:
    """Split energy over all non-exterior nodes (or a node subset)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    grid = u.grid
    active = (grid.active() if region is None else region).ravel()
    g1, g2, a, c, b = _derivatives(u.values.ravel(), grid)
    q = a * a + 2.0 * b * b + c * c
    if hessian_power == 1:
        hess = np.sqrt(q + eta * eta) - eta
    elif hessian_power == 2:
        hess = q
    else:
        raise ValueError("hessian_power must be 1 or 2")
    pot = (1.0 - g1 * g1 - g2 * g2) ** 2
    h2 = grid.h**2
    hess_term = eps * h2 * float(np.sum(hess[active]))
    pot_term = h2 / eps * float(np.sum(pot[active]))
    if not (np.isfinite(hess_term) and np.isfinite(pot_term)):
        raise NonFiniteEnergy("non-finite nodal energy term")
    return EnergySplit(hess_term, pot_term)


def energy_gradient(u: ScalarField, eps: float, eta: float, hessian_power: int = 1) -> np.ndarray:
    """Exact gradient of the discrete energy w.r.t. interior node values.

    Entries at collar and exterior slots are zero.
    """
    if hessian_power == 1 and eta <= 0:
        raise ValueError("hessian_power=1 requires eta > 0 for a smooth gradient")
    grid = u.grid
    ops = diff_ops(grid)
    flat = u.values.ravel()
    g1, g2, a, c, b = _derivatives(flat, grid)
    h2 = grid.h**2

    w = 1.0 - g1 * g1 - g2 * g2
    grad = (-4.0 / eps) * (ops.d1.T @ (w * g1) + ops.d2.T @ (w * g2))
    if hessian_power == 1:
        r = 1.0 / np.sqrt(a * a + 2 * b * b + c * c + eta * eta)
        grad += eps * (ops.d11.T @ (r * a) + ops.d22.T @ (r * c) + 2.0 * (ops.d12.T @ (r * b)))
    else:
        grad += eps * (2.0 * (ops.d11.T @ a) + 2.0 * (ops.d22.T @ c) + 4.0 * (ops.d12.T @ b))
    grad *= h2
    grad = grad.reshape(grid.shape)
    grad[~grid.interior()] = 0.0
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


def _hessian_metric(grid: Grid, eps: float, eta: float, power: int):
    """Factorized SPD metric gamma*I + c*Q on interior unknowns.

    Q is the quadratic form of the hessian term, the stiff part of the
    energy; solving in this metric removes the h^-4 conditioning that
    makes plain gradient steps crawl.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    ops = diff_ops(grid)
    idx = np.flatnonzero(grid.interior().ravel())
    h2 = grid.h**2
    Q = (ops.d11.T @ ops.d11 + 2.0 * (ops.d12.T @ ops.d12) + ops.d22.T @ ops.d22).tocsr()
    Q = Q[idx][:, idx]
    c = 2.0 * eps * h2 if power == 2 else eps * h2 / max(eta, grid.h)
    gamma = 8.0 * h2 / eps
    M = (gamma * sp.identity(idx.size, format="csr") + c * Q).tocsc()
    lu = splu(M)
    return idx, lu, M


def _bb_minimize(u0: ScalarField, eps: float, eta: float, opts: MinimizeOptions,
                 budget: int, history: list, gn_history: list) -> tuple[ScalarField, int, bool]:
    """Preconditioned Barzilai-Borwein with windowed backtracking.

    Steps follow the gradient in the metric of the (stiff, quadratic)
    hessian-term operator; acceptance compares against the worst of the
    last ``_WINDOW`` accepted energies (Grippo, Lampariello & Lucidi
    1986), since forcing per-step monotonicity degrades BB to tiny-step
    steepest descent.  The recorded history follows the best accepted
    state, which is also what gets returned.

    If ``_MAX_BACKTRACKS`` halvings find no acceptable step, the level
    ends there: the best state is recorded and returned with the
    iterations actually taken, and counts as converged only if its
    gradient norm meets ``tol``.
    """
    from collections import deque

    grid = u0.grid
    interior = grid.interior()
    u = u0.values.copy()
    power = opts.hessian_power
    idx, lu, M = _hessian_metric(grid, eps, eta, power)

    def E(vals):
        return energy(ScalarField(grid, vals), eps, eta, power)

    def direction(gvals):
        d = np.zeros(grid.shape[0] * grid.shape[1])
        d[idx] = lu.solve(gvals.ravel()[idx])
        return d.reshape(grid.shape)

    split = E(u)
    g = energy_gradient(ScalarField(grid, u), eps, eta, power)
    gn = grad_norm(grid, g)
    alpha = 1.0
    window = deque([split.total], maxlen=_WINDOW)
    best_u, best_split, best_gn = u.copy(), split, gn
    it = 0

    def record():
        history.append(best_split)
        gn_history.append(best_gn)

    while it < budget:
        if gn <= opts.tol and split.total <= best_split.total + 1e-9:
            best_u, best_split, best_gn = u, split, gn
            record()
            return ScalarField(grid, best_u), it, True
        d = direction(g)
        slope = float(np.sum(g * d))  # positive: d is the metric gradient
        step = alpha
        ref = max(window)
        for _ in range(_MAX_BACKTRACKS):
            trial = u - step * d
            trial[~interior] = u0.values[~interior]
            trial_split = E(trial)
            if trial_split.total <= ref - _ARMIJO * step * slope + 1e-12:
                break
            step *= 0.5
        else:
            record()
            return ScalarField(grid, best_u), it, best_gn <= opts.tol
        prev_u, prev_g = u, g
        u, split = trial, trial_split
        window.append(split.total)
        g = energy_gradient(ScalarField(grid, u), eps, eta, power)
        gn = grad_norm(grid, g)
        it += 1
        if split.total < best_split.total:
            best_u, best_split, best_gn = u.copy(), split, gn
            record()
        s = (u - prev_u).ravel()[idx]
        y = (g - prev_g).ravel()[idx]
        sy = float(s @ y)
        if sy > 1e-30:
            alpha = float(s @ (M @ s)) / sy
        else:
            alpha = step * 2.0
        alpha = min(max(alpha, 1e-10), 1e10)
    record()
    return ScalarField(grid, best_u), it, gn <= opts.tol and split.total <= best_split.total + 1e-9


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

    history: list[EnergySplit] = [energy(u, eps, etas[0], opts.hessian_power)]
    gn_history: list[float] = []
    level_starts: list[int] = []
    total_it = 0
    converged = False
    for k, eta in enumerate(etas):
        level_starts.append(len(history))
        budget = max(1, (opts.max_iter - total_it) // max(1, len(etas) - k))
        u, it, converged = _bb_minimize(u, eps, eta, opts, budget, history, gn_history)
        total_it += it
    return MinimizeResult(
        u=u,
        energy_history=history,
        grad_norm_history=gn_history,
        eps=eps,
        eta_final=etas[-1],
        iterations=total_it,
        converged=converged,
        level_starts=level_starts,
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

    def gaps(self) -> list[float]:
        """Relative defect-energy gaps of the core-domain energies.

        The minimized functional lives on the extended domain; its value
        exceeds the core-domain energy by the pinned collar cost, a fixed
        offset shared by every competitor.  The limit the gap tracks is a
        statement about the core energy, so that is what enters here.
        """
        return [abs(r.core_total - self.f0_reference) / self.f0_reference for r in self.rows]


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
        split = res.energy_history[-1]
        eta_last = res.eta_final
        core = energy(res.u, eps, eta_last, opts.hessian_power, region=grid.interior())
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
        gaps = [abs(r.core_total - f0_ref) / f0_ref for r in rows]
        gap_ok = all(g2 <= g1 * (1 + slack) for g1, g2 in zip(gaps[:-1], gaps[1:]))
    return LimitTable(rows, f0_ref, w11_ok, gap_ok)
