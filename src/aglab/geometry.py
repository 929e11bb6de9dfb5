"""Exact geometry of ellipse and stadium domains.

Provides the signed distance (positive inside) and its gradient, the
ridge (medial axis) with per-point one-sided traces, node
classification on a uniform grid covering the extended domain, and the
package's 1D quadrature.  A covered grid carries its domain, that
domain's limit field and its ridge; a grid from a loaded dump has none
of them.
On the stadium the distance and gradient are closed form in the offset
from the core segment; only the ellipse needs a closest-point
projection (``_project_raw``).

Conventions used throughout the package:

* the extended field ``u`` equals +dist(x, boundary) inside the domain
  and -dist(x, boundary) outside;
* the reference vector field is ``m = rot90(grad u)`` with the
  counter-clockwise rotation ``rot90(v) = (-v2, v1)``;
  ``signed_distance_grad`` is the one query for ``grad u`` (and with it
  ``u``), so every caller builds m from it;
* the ridge of both supported shapes is a horizontal segment on the
  x-axis with normal ``RIDGE_NORMAL`` = (0, 1); its upper/lower traces
  satisfy ``m+ = exp(i(sbar + beta))`` and ``m- = exp(i(sbar - beta))``
  with the bisector ``sbar = RIDGE_SBAR = 3*pi/2`` and ``beta`` in
  [0, pi].  The angle between the traces is ``2 * min(beta, pi - beta)``;
  beta exceeds pi/2 where the field crosses the ridge upward (the left
  half of the ellipse ridge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NoConvergence, QuadratureFailure

INTERIOR = 0
COLLAR = 1
EXTERIOR = 2

RIDGE_NORMAL = (0.0, 1.0)
RIDGE_SBAR = 1.5 * np.pi
_ON_BOUNDARY_TOL = 1e-12
_NO_DOMAIN = "the grid has no domain: only Grid.cover gives a grid one"
_GHOST = 2  # exterior node layers that Grid.cover adds beyond the collar on every side


def rot90(v: np.ndarray) -> np.ndarray:
    """Counter-clockwise rotation by pi/2 applied along the last axis."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Ellipse:
    """Ellipse x^2/a^2 + y^2/b^2 < 1 with a >= b > 0, plus collar width delta."""

    a: float
    b: float
    delta: float | None = None

    def __post_init__(self):
        if not (self.a >= self.b > 0):
            raise ValueError(f"ellipse requires a >= b > 0, got a={self.a}, b={self.b}")
        if self.delta is None:
            object.__setattr__(self, "delta", 0.1 * self.b)
        if not (0 < self.delta <= 0.5 * self.b):
            raise ValueError(f"collar width must lie in (0, b/2], got {self.delta}")

    def bounding_box(self):
        d = self.delta
        return (-self.a - d, self.a + d), (-self.b - d, self.b + d)

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x[..., 0] / self.a) ** 2 + (x[..., 1] / self.b) ** 2 <= 1.0


@dataclass(frozen=True)
class Stadium:
    """Points within distance R of the core segment [0, L] x {0}."""

    L: float
    R: float
    delta: float | None = None

    def __post_init__(self):
        if not (self.L > 0 and self.R > 0):
            raise ValueError(f"stadium requires L > 0 and R > 0, got L={self.L}, R={self.R}")
        if self.delta is None:
            object.__setattr__(self, "delta", 0.1 * self.R)
        if not (0 < self.delta <= 0.5 * self.R):
            raise ValueError(f"collar width must lie in (0, R/2], got {self.delta}")

    def bounding_box(self):
        d = self.delta
        return (-self.R - d, self.L + self.R + d), (-self.R - d, self.R + d)

    def contains(self, x: np.ndarray) -> np.ndarray:
        return core_distance(self, np.asarray(x, dtype=float)) <= self.R


Domain = Ellipse | Stadium


def core_distance(domain: Stadium, x: np.ndarray) -> np.ndarray:
    """Distance from x to the stadium core segment [0, L] x {0}."""
    q1 = np.clip(x[..., 0], 0.0, domain.L)
    return np.hypot(x[..., 0] - q1, x[..., 1])


# ---------------------------------------------------------------------------
# ellipse closest-point projection (monotone Newton on the Lagrange multiplier)

_NEWTON_MAX_ITER = 30


def _ellipse_quadrant_point(a: float, b: float, px, py):
    """Closest ellipse point (qx, qy) to (px, py); requires px, py >= 0.

    Eberly, "Distance from a Point to an Ellipse, an Ellipsoid, or a
    Hyperellipsoid" (Geometric Tools, 2013): with X = a px, Y = b py,
    c2 = a^2 - b^2 and the shifted Lagrange multiplier u > 0, the closest
    point is q = (a X / (u + c2), b Y / u), where u is the root of

        F(u) = (X / (u + c2))^2 + (Y / u)^2 - 1,

    and p - q is normal to the ellipse at q for every u.  F is convex and
    decreasing, so Newton climbs monotonically to the root from any start
    with F >= 0.  Each term of F alone gives one, u >= Y and u >= X - c2.
    Near the evolute cusp (X ~ c2, Y -> 0) the root ~ (c2 Y^2 / 2)^(1/3)
    lies far above both; there (1 + u/c2)^-2 >= 1 - 2u/c2 gives a third,
    min(c2 Y / sqrt(2 (c2^2 - X^2)), c2 (Y / 2X)^(2/3)).  From the largest
    of the three, no point of the hard sets in tests/test_geometry.py takes
    more than 6 steps.  A circle (c2 == 0) converges to u = hypot(X, Y).

    Where Y is zero, or subnormal so that u would carry too few digits, q
    is the upper-quadrant root in closed form, which encodes the one-sided
    (from above) projection on the ridge segment.
    """
    c2 = a * a - b * b
    X, Y = np.broadcast_arrays(a * np.asarray(px, dtype=float), b * np.asarray(py, dtype=float))
    qx, qy = np.empty(X.shape), np.empty(X.shape)
    axis = Y < np.finfo(float).tiny
    # NaN marks a ratio or bound that does not apply (X >= c2, or c2 == 0);
    # fmin / fmax skip it.  Y / 2X overflows to inf for subnormal X beside a
    # normal Y; fmin then takes the other bound
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = np.fmin(X[axis] / c2, 1.0)
        X, Y = X[~axis], Y[~axis]
        cusp = np.fmin(c2 * Y / np.sqrt(2 * (c2 - X) * (c2 + X)), c2 * np.cbrt(Y / (2 * X)) ** 2)
    qx[axis], qy[axis] = a * rho, b * np.sqrt((1 - rho) * (1 + rho))

    u = np.fmax(np.maximum(Y, X - c2), cusp)
    for _ in range(_NEWTON_MAX_ITER):
        w = u + c2
        g0, g1 = X / w, Y / u
        s0, s1 = g0 * g0, g1 * g1
        f = s0 + s1 - 1
        live = f > 4 * np.finfo(float).eps
        if not live.any():
            break
        # Newton step -F/F', scaled by u so that no term overflows
        u = u + np.where(live, 0.5 * u * f / (s0 * (u / w) + s1), 0.0)
    else:
        raise NoConvergence("ellipse closest-point iteration did not converge")
    qx[~axis], qy[~axis] = a * g0, b * g1
    return qx, qy


def _project_raw(domain: Ellipse, x: np.ndarray):
    """Closest ellipse point and distance for each query point.

    Points with x2 == 0 are treated as lying on the upper side, so the
    returned projection is the limit from above; away from the ridge this
    coincides with the unique projection.  The stadium needs no projection:
    its distance and gradient are closed form through the core offset.
    """
    x = np.asarray(x, dtype=float)
    sx = np.where(x[..., 0] < 0, -1.0, 1.0)
    sy = np.where(x[..., 1] < 0, -1.0, 1.0)
    qx, qy = _ellipse_quadrant_point(domain.a, domain.b, np.abs(x[..., 0]), np.abs(x[..., 1]))
    q = np.stack([sx * qx, sy * qy], axis=-1)
    dist = np.hypot(x[..., 0] - q[..., 0], x[..., 1] - q[..., 1])
    return q, dist


def signed_distance(domain: Domain, x) -> np.ndarray | float:
    """Distance to the boundary, positive inside the domain, negative outside."""
    x = np.asarray(x, dtype=float)
    if isinstance(domain, Stadium):
        sd = domain.R - core_distance(domain, x)
    else:
        _, dist = _project_raw(domain, x)
        sd = np.where(domain.contains(x), dist, -dist)
    return float(sd) if sd.ndim == 0 else sd


def signed_distance_grad(domain: Domain, x) -> tuple[np.ndarray, np.ndarray]:
    """Signed distance and its gradient, one-sided on the ridge.

    The distance is equal bit for bit to ``signed_distance``; the gradient
    is the limit from above where x2 == 0, and the reference field is its
    ``rot90``.  On the stadium both are closed form in the core offset
    v = x - (clip(x1, 0, L), 0): sd = R - |v| and grad = -v/|v|, with
    (0, -1) on the core.  On the ellipse they come from one closest-point
    query q: grad is the inward unit normal at q, -(qx/a^2, qy/b^2)/|...|,
    inside, outside and on the boundary, with no cancellation in x - q.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(domain, Stadium):
        v0, v1 = x[..., 0] - np.clip(x[..., 0], 0.0, domain.L), x[..., 1]
        r = np.hypot(v0, v1)
        on_core = r == 0.0
        safe = np.where(on_core, 1.0, r)
        g = np.stack([np.where(on_core, 0.0, -v0 / safe), np.where(on_core, -1.0, -v1 / safe)], axis=-1)
        return domain.R - r, g
    q, dist = _project_raw(domain, x)
    n0, n1 = q[..., 0] / domain.a**2, q[..., 1] / domain.b**2
    r = np.hypot(n0, n1)
    return np.where(domain.contains(x), dist, -dist), np.stack([-n0 / r, -n1 / r], axis=-1)


# ---------------------------------------------------------------------------
# ridge


@dataclass(frozen=True)
class RidgeSet:
    """The jump segment [lo, hi] x {0} with per-point one-sided trace data.

    ``data(x1)`` evaluates, for ridge abscissas x1 in the closed segment,
    the upper/lower traces ``m_plus`` and ``m_minus`` and their angle
    ``beta`` from the bisector ``RIDGE_SBAR``; the normal is
    ``RIDGE_NORMAL`` everywhere.  A disk's ridge is the single point
    lo == hi.
    """

    domain: Domain
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def data(self, x1) -> dict:
        """One-sided traces at the ridge points (x1, 0).

        Returns ``m_plus`` and ``m_minus``, the limits of m from above and
        from below, and their angle ``beta`` from ``RIDGE_SBAR``, as in the
        module docstring.  They hold at the ridge ends too, where the two
        traces meet (beta is pi and 0 at the ellipse's evolute cusps); the
        tracer reads its admissibility tests from them at every crossing.
        Scalars have x1's shape; vectors add a trailing axis of 2.
        """
        x1 = np.asarray(x1, dtype=float)
        if self.length == 0.0:
            raise ValueError("degenerate ridge has no interior points")
        _, grad = signed_distance_grad(self.domain, np.stack([x1, np.zeros_like(x1)], axis=-1))
        m_plus = rot90(grad)
        m_minus = np.stack([-m_plus[..., 0], m_plus[..., 1]], axis=-1)
        # beta in [0, pi] is pinned by m+ = e^{i(sbar + beta)}; it passes
        # pi/2 where the normal flux through the ridge changes sign
        beta = np.mod(np.arctan2(m_plus[..., 1], m_plus[..., 0]) - RIDGE_SBAR, 2 * np.pi)
        return {"m_plus": m_plus, "m_minus": m_minus, "beta": beta}


def ridge_set(domain: Domain) -> RidgeSet:
    """The domain's ridge: |x1| <= (a^2 - b^2)/a between the evolute's cusps on the ellipse, the core on the stadium."""
    if isinstance(domain, Ellipse):
        half = (domain.a**2 - domain.b**2) / domain.a
        return RidgeSet(domain, -half, half)
    return RidgeSet(domain, 0.0, domain.L)


# ---------------------------------------------------------------------------
# grid


@dataclass
class Grid:
    """Uniform square-cell lattice covering the extended domain.

    Node (i, j) sits at ``origin + i*h*e1 + j*h*e2`` where (e1, e2) are
    the lattice axes (world axes rotated by ``angle``).  ``mask`` holds
    the INTERIOR / COLLAR / EXTERIOR class per node.  Only ``Grid.cover``
    sets ``mask`` and ``domain``; other grids (``fields.load_field``'s)
    have neither, and ``active``, ``interior``, ``limit_field`` and
    ``ridge`` raise ValueError on them.
    """

    origin: tuple[float, float]
    h: float
    nx: int
    ny: int
    angle: float = 0.0
    mask: np.ndarray | None = field(default=None, repr=False)
    domain: Domain | None = None

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        c, s = np.cos(self.angle), np.sin(self.angle)
        return np.array([c, s]), np.array([-s, c])

    @cached_property
    def nodes(self) -> np.ndarray:
        """World coordinates of all nodes, shape (nx, ny, 2)."""
        i = np.arange(self.nx)[:, None]
        j = np.arange(self.ny)[None, :]
        e1, e2 = self.axes
        x = self.origin[0] + self.h * (i * e1[0] + j * e2[0])
        y = self.origin[1] + self.h * (i * e1[1] + j * e2[1])
        return np.stack([np.broadcast_to(x, (self.nx, self.ny)), np.broadcast_to(y, (self.nx, self.ny))], axis=-1)

    @cached_property
    def limit_field(self) -> tuple[np.ndarray, np.ndarray]:
        """The domain's read-only signed distance and m = rot90(grad) at the nodes; ValueError with no domain."""
        if self.domain is None:
            raise ValueError(_NO_DOMAIN)
        sd, grad = signed_distance_grad(self.domain, self.nodes)
        m = rot90(grad)
        sd.flags.writeable = m.flags.writeable = False
        return sd, m

    @cached_property
    def ridge(self) -> RidgeSet:
        """The domain's ridge record, built once per grid; ValueError with no domain."""
        if self.domain is None:
            raise ValueError(_NO_DOMAIN)
        return ridge_set(self.domain)

    @property
    def shape(self) -> tuple[int, int]:
        return self.nx, self.ny

    def _node_classes(self) -> np.ndarray:
        if self.mask is None:
            raise ValueError("the grid has no INTERIOR / COLLAR / EXTERIOR node classes: only Grid.cover sets them")
        return self.mask

    def active(self) -> np.ndarray:
        return self._node_classes() != EXTERIOR

    def interior(self) -> np.ndarray:
        return self._node_classes() == INTERIOR

    @staticmethod
    def cover(domain: Domain, h: float | None = None, resolution: int | None = None, angle: float = 0.0) -> "Grid":
        """Grid covering the delta-extended domain with at least ``_GHOST`` exterior layers.

        Exactly one of ``h`` (cell size) or ``resolution`` (cells across the
        longer bounding-box side) must be given, with h > 0 or resolution >= 1;
        otherwise ValueError.

        The grid's ``domain`` is the one covered.  On the ellipse the nodes
        are classified from ``grid.limit_field``, whose distance equals
        ``signed_distance`` bit for bit, so one closest-point solve per node
        serves both.  The stadium classifies from its closed-form distance
        and computes its field on first use.
        """
        if (h is None) == (resolution is None):
            raise ValueError("specify exactly one of h or resolution")
        if not ((h is None or h > 0) and (resolution is None or resolution >= 1)):
            raise ValueError(f"a grid needs h > 0 or resolution >= 1; got h={h}, resolution={resolution}")
        (x0, x1), (y0, y1) = domain.bounding_box()
        wx, wy = x1 - x0, y1 - y0
        if h is None:
            h = max(wx, wy) / resolution
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        # lattice extents large enough that the rotated lattice box still
        # contains the axis-aligned bounding box (exactly wx/2, wy/2 at angle 0)
        c, s = np.cos(angle), np.sin(angle)
        ex = abs(c) * wx / 2 + abs(s) * wy / 2
        ey = abs(s) * wx / 2 + abs(c) * wy / 2
        half_nx = int(np.ceil(ex / h)) + _GHOST
        half_ny = int(np.ceil(ey / h)) + _GHOST
        e1, e2 = np.array([c, s]), np.array([-s, c])
        origin = np.array([cx, cy]) - h * half_nx * e1 - h * half_ny * e2
        grid = Grid(origin=tuple(origin), h=h, nx=2 * half_nx + 1, ny=2 * half_ny + 1, angle=angle, domain=domain)
        sd = signed_distance(domain, grid.nodes) if isinstance(domain, Stadium) else grid.limit_field[0]
        grid.mask = np.full(grid.shape, EXTERIOR, dtype=np.uint8)
        grid.mask[sd > -domain.delta] = COLLAR
        grid.mask[sd >= -_ON_BOUNDARY_TOL] = INTERIOR
        return grid


# ---------------------------------------------------------------------------
# 1D quadrature

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_QUAD_ABS, _QUAD_REL = 1e-12, 1e-10
_QUAD_PANELS = (1, 2, 4, 8, 16, 32, 64)


def integrate(f: Callable[[np.ndarray], np.ndarray], edges) -> float:
    """Integral over [edges[0], edges[-1]] of f, smooth between the edges.

    Every interval is split into 1, 2, 4, ... equal panels of the 32-point
    Gauss-Legendre rule, with one call of f on a 1D array of all nodes per
    round, until two rounds agree to max(1e-12, 1e-10 |value|); at 64
    panels per interval QuadratureFailure is raised instead.
    """
    edges = np.asarray(edges, dtype=float)
    val = np.nan
    for n in _QUAD_PANELS:
        half = np.repeat(np.diff(edges) / (2 * n), n)
        mid = np.repeat(edges[:-1], n) + half * np.tile(np.arange(1, 2 * n, 2), len(edges) - 1)
        x = mid[:, None] + half[:, None] * GL_NODES
        new = float(np.sum(half * (np.reshape(f(x.ravel()), x.shape) @ GL_WEIGHTS)))
        err, val = abs(new - val), new
        if err <= max(_QUAD_ABS, _QUAD_REL * abs(val)):
            return val
    raise QuadratureFailure(f"sums at 32 and 64 panels per interval differ by {err:.3e}")
