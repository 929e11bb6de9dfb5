"""Entropy calculus for unit divergence-free fields.

An entropy is any callable z -> Phi(z) on plane vectors, arrays of shape
(..., 2); only entropy production takes one as such.  Two families
supply them.

A cubic frame is its angle theta, the frame (e^{i theta}, e^{i(theta +
pi/2)}), and its entropy Sigma_theta is ``partial(sigma_frame, theta)``.
Sigma_theta is evaluated only in closed form, a cubic polynomial in z,
which is valid off the circle too.  It has only the harmonics +-2 in
theta: Sigma_theta = cos 2theta Sigma_0 + sin 2theta Sigma_{pi/4} at every
z, so the productions of the two frames ``TWO_FRAMES`` give every frame's.

A circle generator is its trig polynomial psi.  ``entropy_from_generator``
integrates

    dPhi/ds(e^{is}) = 2 psi(s + pi/2) e^{i(s + pi/2)}

to the component polynomials of an ``EntropyMap``, which is called on a
vector through its angle.  The map closes around the circle iff psi has
no first harmonic, which is checked on the coefficients.  The frame
entropy Sigma_theta is the map of the generator sin 2(s - theta).

The module also holds the two measures of the defect functional, the
two-frame norm of a field's production and the jump integral along the
ridge, and the closed-form flux through the outer rim.

A polynomial sum_{|k|<=n} c_k e^{iks} is evaluated through the point
w = e^{is} on the unit circle: one complex exponential per point, then
Horner's rule for sum_j c_{j-n} w^j, times conj(w)^n = w^{-n}.  A plane
vector z is taken to w = e^{i arg z}, so both components of a map share
one w, and the zero vector maps to w = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonClosed
from .fields import ScalarField, VectorField, weak_divergence
from .geometry import Domain, RidgeSet, Stadium, integrate

Entropy = Callable[[np.ndarray], np.ndarray]  # z -> Phi(z) on plane vectors of shape (..., 2)
_CLOSURE_TOL = 1e-12  # largest mean or first harmonic that still counts as zero


# ---------------------------------------------------------------------------
# trigonometric polynomials (complex exponential coefficients, Hermitian)


class TrigPoly:
    """Real trigonometric polynomial sum_k c_k e^{iks} with c_{-k} = conj(c_k)."""

    __slots__ = ("c", "n")

    def __init__(self, c: np.ndarray):
        c = np.asarray(c, dtype=complex)
        if c.size % 2 != 1:
            raise ValueError("coefficient array must have odd length 2n+1")
        self.c = c
        self.n = c.size // 2

    @staticmethod
    def from_harmonics(cos: dict[int, float] | None = None, sin: dict[int, float] | None = None) -> "TrigPoly":
        """sum_k cos[k] cos(ks) + sin[k] sin(ks), with no constant term."""
        cos = cos or {}
        sin = sin or {}
        n = max([0, *cos.keys(), *sin.keys()])
        c = np.zeros(2 * n + 1, dtype=complex)
        for k, a in cos.items():
            c[n + k] += a / 2
            c[n - k] += a / 2
        for k, b in sin.items():
            c[n + k] += -1j * b / 2
            c[n - k] += 1j * b / 2
        return TrigPoly(c)

    def ks(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def __call__(self, s) -> np.ndarray:
        return self.at(np.exp(1j * np.asarray(s, dtype=float)))

    def at(self, w: np.ndarray) -> np.ndarray:
        """The polynomial at s where w = e^{is}, by Horner's rule in w."""
        acc = np.full(np.shape(w), self.c[-1])
        for ck in self.c[-2::-1]:
            acc *= w
            acc += ck
        acc *= np.conj(w) ** self.n
        return np.real(acc)

    def derivative(self) -> "TrigPoly":
        return TrigPoly(1j * self.ks() * self.c)

    def antiderivative(self) -> "TrigPoly":
        """Periodic antiderivative with zero mean; requires zero mean input."""
        if abs(self.c[self.n]) > _CLOSURE_TOL * max(1.0, np.abs(self.c).max()):
            raise NonClosed("antiderivative of a trig polynomial with nonzero mean")
        k = self.ks().astype(float)
        k[self.n] = 1.0
        out = self.c / (1j * k)
        out[self.n] = 0.0
        return TrigPoly(out)

    def shift(self, theta: float) -> "TrigPoly":
        """The polynomial s -> f(s - theta)."""
        return TrigPoly(self.c * np.exp(-1j * self.ks() * theta))

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return TrigPoly(np.convolve(self.c, other.c))
        return TrigPoly(self.c * other)

    __rmul__ = __mul__

    def harmonic(self, k: int) -> complex:
        if abs(k) > self.n:
            return 0.0 + 0.0j
        return complex(self.c[self.n + k])


# ---------------------------------------------------------------------------
# the cubic frame family


def sigma_frame(theta: float, z: np.ndarray) -> np.ndarray:
    """(4/3)((z.a2)^3 a1 + (z.a1)^3 a2) for the frame (a1, a2) = (e^{i theta}, e^{i(theta + pi/2)})."""
    z = np.asarray(z, dtype=float)
    a1 = np.array([np.cos(theta), np.sin(theta)])
    a2 = np.array([-np.sin(theta), np.cos(theta)])
    p = z[..., 0] * a1[0] + z[..., 1] * a1[1]
    q = z[..., 0] * a2[0] + z[..., 1] * a2[1]
    out = np.empty_like(z)
    p3, q3 = p * p * p, q * q * q
    out[..., 0] = (4.0 / 3.0) * (q3 * a1[0] + p3 * a2[0])
    out[..., 1] = (4.0 / 3.0) * (q3 * a1[1] + p3 * a2[1])
    return out


# ---------------------------------------------------------------------------
# generators and entropy maps


@dataclass(frozen=True)
class EntropyMap:
    """The entropy of a circle generator, by its component trig polynomials (phi1, phi2).

    Called on plane vectors, it evaluates at their angle: z is taken to
    e^{i arg z} on the circle, and the zero vector to angle 0.
    """

    phi1: TrigPoly
    phi2: TrigPoly

    def eval_circle(self, s) -> np.ndarray:
        w = np.exp(1j * np.asarray(s, dtype=float))
        return np.stack([self.phi1.at(w), self.phi2.at(w)], axis=-1)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return self.eval_circle(np.arctan2(z[..., 1], z[..., 0]))


def entropy_from_generator(psi: TrigPoly) -> EntropyMap:
    """Integrate dPhi/ds = 2 psi(s + pi/2) e^{i(s + pi/2)} to a zero-mean map."""
    if abs(psi.harmonic(1)) > _CLOSURE_TOL:
        raise NonClosed("generator carries a first harmonic; map does not close")
    shifted = psi.shift(-0.5 * np.pi)  # psi(s + pi/2)
    comp1 = 2.0 * shifted * TrigPoly.from_harmonics(sin={1: -1.0})
    comp2 = 2.0 * shifted * TrigPoly.from_harmonics(cos={1: 1.0})
    return EntropyMap(comp1.antiderivative(), comp2.antiderivative())


# ---------------------------------------------------------------------------
# production measures and the defect functionals


def entropy_production(m: VectorField, phi: Entropy) -> ScalarField:
    """Weak divergence of Phi(m): each node's value is the mass of its dual cell."""
    return weak_divergence(VectorField(m.grid, phi(m.values)))


# The axis and diagonal frame angles of two_frame_norm.  Frame theta's
# production is cos 2theta times the first one's plus sin 2theta times the second's.
TWO_FRAMES = (0.0, np.pi / 4)


def two_frame_norm(prod_e: ScalarField, prod_eps: ScalarField) -> float:
    """sqrt(TV_e^2 + TV_eps^2) over active cells, from the productions of the frames TWO_FRAMES."""
    active = prod_e.grid.active()
    return float(np.hypot(*(np.sum(np.abs(p.values[active])) for p in (prod_e, prod_eps))))


def f0_jump(ridge: RidgeSet) -> float:
    """(1/3) integral of |m+ - m-|^3 = (2 sin beta)^3 / 3 along the ridge.

    Integrated in theta on [0, pi] with x1 = mid - half cos(theta), whose
    factor half sin(theta) smooths sin^3 beta ~ eps^(3/2) at the ridge ends.
    """
    lo, hi = ridge.lo, ridge.hi
    if hi - lo <= 0:
        return 0.0
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def integrand(theta):
        beta = ridge.data(mid - half * np.cos(theta))["beta"]
        return (2.0 * np.sin(beta)) ** 3 / 3.0 * half * np.sin(theta)

    return integrate(integrand, (0.0, np.pi))


def boundary_flux(domain: Domain) -> float:
    """Flux of Sigma_0(m) through the outer rim {u = -delta}, in closed form.

    By the divergence theorem it equals the total production inside, which
    for the reference field concentrates on the ridge.  On the rim m =
    (n2, -n1) for the outward normal n = e^{i phi}, so

        Sigma_theta(m) . n = -(4/3) cos 2(phi - theta),

    and arc length is (rho(phi) + delta) dphi, where rho is the boundary's
    radius of curvature at the normal angle phi.  Both domains are convex
    and symmetric in the x-axis, so the delta part and the sin 2phi part
    integrate to 0, and flux(theta) = cos 2theta * flux(0), so flux(0) is
    all a report needs.  On the stadium the arcs' rho = R integrates to 0
    as well, and the two flat sides, of length L at phi = +-pi/2, leave
    flux(0) = (8/3) L.  On the ellipse, in the parameter t of (a cos t,
    b sin t), flux(0) is the integral over [0, 2pi] of
    (4/3)(a^2 sin^2 t - b^2 cos^2 t) / sqrt(a^2 sin^2 t + b^2 cos^2 t).
    """
    if isinstance(domain, Stadium):
        return 8.0 / 3.0 * domain.L
    a2, b2 = domain.a**2, domain.b**2

    def integrand(t):
        s2, c2 = np.sin(t) ** 2, np.cos(t) ** 2
        return (4.0 / 3.0) * (a2 * s2 - b2 * c2) / np.sqrt(a2 * s2 + b2 * c2)

    return integrate(integrand, (0.0, 2 * np.pi))
