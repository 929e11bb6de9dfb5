"""Exact geometry of ellipse and stadium domains.

Provides signed distance (positive inside), closest-point projection,
the ridge (medial axis) with per-point one-sided traces, node
classification on a uniform grid covering the extended domain, and
parametrized (offset) boundary curves for 1D quadrature.

Conventions used throughout the package:

* the extended field ``u`` equals +dist(x, boundary) inside the domain
  and -dist(x, boundary) outside;
* the reference vector field is ``m = rot90(grad u)`` with the
  counter-clockwise rotation ``rot90(v) = (-v2, v1)``;
* the ridge of both supported shapes is a horizontal segment on the
  x-axis with normal n = (0, 1); its upper/lower traces satisfy
  ``m+ = exp(i(sbar + beta))`` and ``m- = exp(i(sbar - beta))`` with
  ``sbar = 3*pi/2`` and ``beta`` in (0, pi).  The angle between the
  traces is ``2 * half_angle`` with ``half_angle = min(beta, pi - beta)``
  in (0, pi/2]; beta itself exceeds pi/2 where the field crosses the
  ridge upward (the left half of the ellipse ridge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import AmbiguousProjection, NoConvergence

INTERIOR = 0
COLLAR = 1
EXTERIOR = 2

RIDGE_SBAR = 1.5 * np.pi
_ON_BOUNDARY_TOL = 1e-12
_RIDGE_TOL = 1e-12


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

    @property
    def kind(self) -> str:
        return "ellipse"

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

    @property
    def kind(self) -> str:
        return "stadium"

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
# closest-point projection (ellipse: monotone Newton on the Lagrange multiplier)

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
        g0, g1 = X / (u + c2), Y / u
        f = g0 * g0 + g1 * g1 - 1
        live = f > 4 * np.finfo(float).eps
        if not live.any():
            break
        # Newton step -F/F', scaled by u so that no term overflows
        u = u + np.where(live, 0.5 * u * f / (g0 * g0 * (u / (u + c2)) + g1 * g1), 0.0)
    else:
        raise NoConvergence("ellipse closest-point iteration did not converge")
    qx[~axis], qy[~axis] = a * g0, b * g1
    return qx, qy


def _project_raw(domain: Domain, x: np.ndarray):
    """One-sided closest boundary point and distance for each query point.

    Points with x2 == 0 are treated as lying on the upper side, so the
    returned projection is the limit from above; away from the ridge this
    coincides with the unique projection.
    """
    x = np.asarray(x, dtype=float)
    sx = np.where(x[..., 0] < 0, -1.0, 1.0)
    sy = np.where(x[..., 1] < 0, -1.0, 1.0)
    if isinstance(domain, Ellipse):
        qx, qy = _ellipse_quadrant_point(domain.a, domain.b, np.abs(x[..., 0]), np.abs(x[..., 1]))
        q = np.stack([sx * qx, sy * qy], axis=-1)
        dist = np.hypot(x[..., 0] - q[..., 0], x[..., 1] - q[..., 1])
        return q, dist
    # stadium: closed-form case split through the core segment
    q1 = np.clip(x[..., 0], 0.0, domain.L)
    v1 = x[..., 0] - q1
    v2 = x[..., 1]
    r = np.hypot(v1, v2)
    on_core = r == 0.0
    safe_r = np.where(on_core, 1.0, r)
    d1 = np.where(on_core, 0.0, v1 / safe_r)
    d2 = np.where(on_core, sy, v2 / safe_r)
    q = np.stack([q1 + domain.R * d1, domain.R * d2], axis=-1)
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


def ridge_distance(domain: Domain, x) -> np.ndarray | float:
    """Distance from x to the ridge segment."""
    x = np.asarray(x, dtype=float)
    lo, hi = ridge_span(domain)
    q1 = np.clip(x[..., 0], lo, hi)
    d = np.hypot(x[..., 0] - q1, x[..., 1])
    return float(d) if d.ndim == 0 else d


def project_to_boundary(domain: Domain, x, tol: float = _RIDGE_TOL) -> np.ndarray:
    """Unique closest boundary point; raises AmbiguousProjection on the ridge."""
    x = np.asarray(x, dtype=float)
    if np.any(ridge_distance(domain, x) <= tol):
        raise AmbiguousProjection("projection queried on the ridge (medial axis)")
    q, _ = _project_raw(domain, x)
    return q


def _inward_normal(domain: Domain, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if isinstance(domain, Ellipse):
        v = np.stack([x[..., 0] / domain.a**2, x[..., 1] / domain.b**2], axis=-1)
    else:
        q1 = np.clip(x[..., 0], 0.0, domain.L)
        v = np.stack([x[..., 0] - q1, x[..., 1]], axis=-1)
    nrm = np.linalg.norm(v, axis=-1, keepdims=True)
    return -v / np.where(nrm == 0, 1.0, nrm)


def _signed_distance_grad(domain: Domain, x) -> tuple[np.ndarray, np.ndarray]:
    """Signed distance and its gradient from one closest-point query.

    Equal bit for bit to ``signed_distance`` and ``grad_signed_distance``
    (closed-form distance on the stadium, one-sided gradient on the ridge).
    """
    x = np.asarray(x, dtype=float)
    q, dist = _project_raw(domain, x)
    inside = domain.contains(x)
    if isinstance(domain, Stadium):
        sd = domain.R - core_distance(domain, x)
    else:
        sd = np.where(inside, dist, -dist)
    on_bdry = dist <= 1e-15
    safe = np.where(on_bdry, 1.0, dist)
    # outside, u = -dist so grad u keeps pointing from q toward the interior
    sign = np.where(inside, 1.0, -1.0)[..., None]
    g = sign * (x - q) / safe[..., None]
    if np.any(on_bdry):
        g = np.where(on_bdry[..., None], _inward_normal(domain, x), g)
    return sd, g


def grad_signed_distance(domain: Domain, x) -> np.ndarray:
    """Analytic gradient of the signed distance (one-sided on the ridge)."""
    return _signed_distance_grad(domain, x)[1]


def limit_vector_field(domain: Domain, x) -> np.ndarray:
    """The reference field m = rot90(grad u); one-sided on the ridge."""
    return rot90(grad_signed_distance(domain, x))


# ---------------------------------------------------------------------------
# ridge


def ridge_span(domain: Domain) -> tuple[float, float]:
    if isinstance(domain, Ellipse):
        c2 = domain.a**2 - domain.b**2
        half = c2 / domain.a
        return -half, half
    return 0.0, domain.L


@dataclass(frozen=True)
class RidgeSet:
    """Horizontal jump segment with per-point one-sided trace data.

    ``data(x1)`` evaluates, for ridge abscissas x1 strictly inside the
    segment, the upper/lower traces m+ / m-, the normal n = (0, 1), the
    half-angle beta in (0, pi/2], the bisector angle sbar = 3*pi/2, and
    the distance to the boundary.
    """

    domain: Domain
    p_minus: tuple[float, float]
    p_plus: tuple[float, float]

    @property
    def length(self) -> float:
        return self.p_plus[0] - self.p_minus[0]

    def contains(self, x1) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        return (x1 > self.p_minus[0]) & (x1 < self.p_plus[0])

    def data(self, x1) -> dict:
        x1 = np.asarray(x1, dtype=float)
        if self.length == 0.0:
            raise ValueError("degenerate ridge has no interior points")
        pts = np.stack([x1, np.zeros_like(x1)], axis=-1)
        q_up, dist = _project_raw(self.domain, pts)
        m_plus = np.stack([q_up[..., 1], x1 - q_up[..., 0]], axis=-1) / dist[..., None]
        m_minus = np.stack([-m_plus[..., 0], m_plus[..., 1]], axis=-1)
        # beta in (0, pi) is pinned by m+ = e^{i(sbar + beta)}; it passes
        # pi/2 where the normal flux through the ridge changes sign
        beta = np.mod(np.arctan2(m_plus[..., 1], m_plus[..., 0]) - RIDGE_SBAR, 2 * np.pi)
        n = np.zeros_like(m_plus)
        n[..., 1] = 1.0
        return {
            "x1": x1,
            "n": n,
            "m_plus": m_plus,
            "m_minus": m_minus,
            "beta": beta,
            "half_angle": np.minimum(beta, np.pi - beta),
            "sbar": np.full_like(np.asarray(x1, dtype=float), RIDGE_SBAR),
            "dist": dist,
        }

    def beta(self, x1) -> np.ndarray:
        return self.data(x1)["beta"]


def ridge_set(domain: Domain) -> RidgeSet:
    lo, hi = ridge_span(domain)
    return RidgeSet(domain, (lo, 0.0), (hi, 0.0))


# ---------------------------------------------------------------------------
# grid


@dataclass
class Grid:
    """Uniform square-cell lattice covering the extended domain.

    Node (i, j) sits at ``origin + i*h*e1 + j*h*e2`` where (e1, e2) are
    the lattice axes (world axes rotated by ``angle``).  ``mask`` holds
    the INTERIOR / COLLAR / EXTERIOR class per node and ``ridge_near``
    flags nodes within h/2 of the ridge segment.
    """

    origin: tuple[float, float]
    h: float
    nx: int
    ny: int
    angle: float = 0.0
    mask: np.ndarray | None = field(default=None, repr=False)
    ridge_near: np.ndarray | None = field(default=None, repr=False)

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

    @property
    def shape(self) -> tuple[int, int]:
        return self.nx, self.ny

    def active(self) -> np.ndarray:
        return self.mask != EXTERIOR

    def interior(self) -> np.ndarray:
        return self.mask == INTERIOR

    def collar(self) -> np.ndarray:
        return self.mask == COLLAR

    @staticmethod
    def cover(domain: Domain, h: float | None = None, resolution: int | None = None,
              ghost: int = 2, angle: float = 0.0) -> "Grid":
        """Grid covering the delta-extended domain with >= `ghost` exterior layers.

        Exactly one of ``h`` (cell size) or ``resolution`` (cells across the
        longer bounding-box side) must be given.
        """
        if (h is None) == (resolution is None):
            raise ValueError("specify exactly one of h or resolution")
        (x0, x1), (y0, y1) = domain.bounding_box()
        wx, wy = x1 - x0, y1 - y0
        if h is None:
            h = max(wx, wy) / resolution
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        if angle != 0.0:
            # lattice extents large enough that the rotated lattice box
            # still contains the axis-aligned bounding box
            c, s = np.cos(angle), np.sin(angle)
            ex = abs(c) * wx / 2 + abs(s) * wy / 2
            ey = abs(s) * wx / 2 + abs(c) * wy / 2
        else:
            ex, ey = wx / 2, wy / 2
        half_nx = int(np.ceil(ex / h)) + ghost
        half_ny = int(np.ceil(ey / h)) + ghost
        e1 = np.array([np.cos(angle), np.sin(angle)])
        e2 = np.array([-np.sin(angle), np.cos(angle)])
        origin = np.array([cx, cy]) - h * half_nx * e1 - h * half_ny * e2
        grid = Grid(origin=(origin[0], origin[1]), h=h, nx=2 * half_nx + 1, ny=2 * half_ny + 1, angle=angle)
        grid.classify(domain)
        return grid

    def classify(self, domain: Domain) -> None:
        sd = signed_distance(domain, self.nodes)
        mask = np.full(self.shape, EXTERIOR, dtype=np.uint8)
        mask[sd > -domain.delta] = COLLAR
        mask[sd >= -_ON_BOUNDARY_TOL] = INTERIOR
        self.mask = mask
        self.ridge_near = ridge_distance(domain, self.nodes) <= 0.5 * self.h


# ---------------------------------------------------------------------------
# offset boundary curves (level sets of the signed distance, outside variant)


@dataclass(frozen=True)
class CurvePiece:
    t0: float
    t1: float
    point: Callable[[np.ndarray], np.ndarray]
    normal: Callable[[np.ndarray], np.ndarray]
    speed: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BoundaryCurve:
    """Piecewise-smooth parametrization of an offset boundary {u = -d}."""

    pieces: tuple[CurvePiece, ...]

    def integrate(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray], rtol: float = 1e-10) -> float:
        """Integral of f(point, outward_normal) dH^1 over the curve."""
        from scipy.integrate import quad

        total = 0.0
        for p in self.pieces:
            def integrand(t, p=p):
                val = f(p.point(t), p.normal(t)) * p.speed(t)
                return np.asarray(val).reshape(-1)[0]

            val, _ = quad(integrand, p.t0, p.t1, epsabs=1e-12, epsrel=rtol, limit=200)
            total += val
        return total

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n quadrature nodes (points, normals, dH^1 weights), composite midpoint."""
        pts, nrm, w = [], [], []
        lengths = []
        from scipy.integrate import quad

        for p in self.pieces:
            ln, _ = quad(lambda t, p=p: float(p.speed(np.asarray(t))), p.t0, p.t1, epsabs=1e-12, limit=200)
            lengths.append(ln)
        total_len = sum(lengths)
        for p, ln in zip(self.pieces, lengths):
            k = max(4, int(round(n * ln / total_len)))
            t = p.t0 + (np.arange(k) + 0.5) * (p.t1 - p.t0) / k
            pts.append(p.point(t))
            nrm.append(p.normal(t))
            w.append(p.speed(t) * (p.t1 - p.t0) / k)
        return np.concatenate(pts), np.concatenate(nrm), np.concatenate(w)


def offset_boundary(domain: Domain, d: float) -> BoundaryCurve:
    """The curve {signed_distance = -d} for d >= 0 (d = delta gives the outer rim)."""
    if isinstance(domain, Ellipse):
        a, b = domain.a, domain.b

        def point(t):
            t = np.atleast_1d(t)
            g = np.sqrt((b * np.cos(t)) ** 2 + (a * np.sin(t)) ** 2)
            nx, ny = b * np.cos(t) / g, a * np.sin(t) / g
            return np.stack([a * np.cos(t) + d * nx, b * np.sin(t) + d * ny], axis=-1)

        def normal(t):
            t = np.atleast_1d(t)
            g = np.sqrt((b * np.cos(t)) ** 2 + (a * np.sin(t)) ** 2)
            return np.stack([b * np.cos(t) / g, a * np.sin(t) / g], axis=-1)

        def speed(t):
            t = np.atleast_1d(t)
            gt = np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)
            kappa = a * b / gt**3
            return gt * (1.0 + d * kappa)

        return BoundaryCurve((CurvePiece(0.0, 2 * np.pi, point, normal, speed),))

    L, R = domain.L, domain.R
    r = R + d

    def arc(center, phi0, phi1):
        def point(t):
            t = np.atleast_1d(t)
            return np.stack([center[0] + r * np.cos(t), center[1] + r * np.sin(t)], axis=-1)

        def normal(t):
            t = np.atleast_1d(t)
            return np.stack([np.cos(t), np.sin(t)], axis=-1)

        def speed(t):
            return np.full(np.shape(np.atleast_1d(t)), r)

        return CurvePiece(phi0, phi1, point, normal, speed)

    def line(y, x0, x1, ny):
        def point(t):
            t = np.atleast_1d(t)
            return np.stack([x0 + (x1 - x0) * t, np.full_like(t, y)], axis=-1)

        def normal(t):
            t = np.atleast_1d(t)
            return np.stack([np.zeros_like(t), np.full_like(t, ny)], axis=-1)

        def speed(t):
            return np.full(np.shape(np.atleast_1d(t)), abs(x1 - x0))

        return CurvePiece(0.0, 1.0, point, normal, speed)

    return BoundaryCurve((
        line(r, 0.0, L, 1.0),
        arc((L, 0.0), -0.5 * np.pi, 0.5 * np.pi),
        line(-r, L, 0.0, -1.0),
        arc((0.0, 0.0), 0.5 * np.pi, 1.5 * np.pi),
    ))
