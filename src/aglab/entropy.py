"""Entropy calculus for unit divergence-free fields.

The cubic frame family, construction of entropies from circle
generators, entropy-production measures via the weak divergence, the
defect functional evaluated three ways (two-frame combination, frame
supremum, ridge jump integral), and boundary-flux quadrature.

Entropies are represented as trigonometric polynomials on the circle:
a map Phi with dPhi/ds(e^{is}) . e^{is} = 0 is stored through the two
component polynomials, and the generator psi enters via

    dPhi/ds(e^{is}) = 2 psi(s + pi/2) e^{i(s + pi/2)}.

Closure of Phi around the circle is equivalent to psi having no first
harmonic, which is checkable on the coefficients.

A polynomial sum_{|k|<=n} c_k e^{iks} is evaluated through the point
w = e^{is} on the unit circle: one complex exponential per point, then
Horner's rule for sum_j c_{j-n} w^j, times conj(w)^n = w^{-n}.  A plane
vector z is taken to w = e^{i arg z}, so both components of a map share
one w, and the zero vector maps to w = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonClosed
from .fields import CellMeasure, VectorField, weak_divergence
from .geometry import Domain, RidgeSet, integrate, offset_boundary


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
    def zero() -> "TrigPoly":
        return TrigPoly(np.zeros(1, dtype=complex))

    @staticmethod
    def from_harmonics(const: float = 0.0, cos: dict[int, float] | None = None,
                       sin: dict[int, float] | None = None) -> "TrigPoly":
        cos = cos or {}
        sin = sin or {}
        n = max([0, *cos.keys(), *sin.keys()])
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = const
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

    def antiderivative(self, tol: float = 1e-12) -> "TrigPoly":
        """Periodic antiderivative with zero mean; requires zero mean input."""
        if abs(self.c[self.n]) > tol * max(1.0, np.abs(self.c).max()):
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

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        n = max(self.n, other.n)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n - self.n:n + self.n + 1] += self.c
        c[n - other.n:n + other.n + 1] += other.c
        return TrigPoly(c)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-1.0) * other

    @property
    def mean(self) -> float:
        return float(np.real(self.c[self.n]))

    def harmonic(self, k: int) -> complex:
        if abs(k) > self.n:
            return 0.0 + 0.0j
        return complex(self.c[self.n + k])


def _sin() -> TrigPoly:
    return TrigPoly.from_harmonics(sin={1: 1.0})


def _cos() -> TrigPoly:
    return TrigPoly.from_harmonics(cos={1: 1.0})


# ---------------------------------------------------------------------------
# frames and the cubic family


@dataclass(frozen=True)
class Frame:
    """Orthonormal frame (alpha1, alpha2) = (e^{i theta}, e^{i(theta + pi/2)})."""

    theta: float

    @property
    def alpha1(self) -> np.ndarray:
        return np.array([np.cos(self.theta), np.sin(self.theta)])

    @property
    def alpha2(self) -> np.ndarray:
        return np.array([-np.sin(self.theta), np.cos(self.theta)])


def sigma_frame(frame: Frame, z: np.ndarray) -> np.ndarray:
    """(4/3)((z.a2)^3 a1 + (z.a1)^3 a2), the cubic entropy of the frame."""
    z = np.asarray(z, dtype=float)
    a1, a2 = frame.alpha1, frame.alpha2
    p = z[..., 0] * a1[0] + z[..., 1] * a1[1]
    q = z[..., 0] * a2[0] + z[..., 1] * a2[1]
    out = np.empty_like(z)
    p3, q3 = p * p * p, q * q * q
    out[..., 0] = (4.0 / 3.0) * (q3 * a1[0] + p3 * a2[0])
    out[..., 1] = (4.0 / 3.0) * (q3 * a1[1] + p3 * a2[1])
    return out


def frame_generator(frame: Frame) -> "EntropyGenerator":
    """Circle generator of the cubic frame entropy: psi(t) = sin(2(t - theta))."""
    return EntropyGenerator(TrigPoly.from_harmonics(sin={2: 1.0}).shift(frame.theta))


# ---------------------------------------------------------------------------
# generators and entropy maps


@dataclass(frozen=True)
class EntropyGenerator:
    """Trig-polynomial generator psi; pi-periodic iff only even harmonics."""

    psi: TrigPoly

    @property
    def pi_periodic(self) -> bool:
        ks = self.psi.ks()
        odd = ks % 2 != 0
        return bool(np.all(np.abs(self.psi.c[odd]) <= 1e-14))

    def closure_defect(self) -> float:
        """Magnitude of the forbidden first harmonic of psi."""
        return abs(self.psi.harmonic(1))


@dataclass(frozen=True)
class EntropyMap:
    """Circle-to-plane entropy, component trig polynomials (phi1, phi2).

    ``vector_eval``, when set, evaluates the map directly on plane
    vectors (used by the cubic frame family, whose closed form is a
    polynomial in z and therefore meaningful slightly off the circle).
    Otherwise vectors are radially projected to the circle first.
    """

    phi1: TrigPoly
    phi2: TrigPoly
    vector_eval: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)

    def eval_circle(self, s) -> np.ndarray:
        w = np.exp(1j * np.asarray(s, dtype=float))
        return np.stack([self.phi1.at(w), self.phi2.at(w)], axis=-1)

    def eval_vectors(self, z: np.ndarray) -> np.ndarray:
        if self.vector_eval is not None:
            return self.vector_eval(np.asarray(z, dtype=float))
        z = np.asarray(z, dtype=float)
        angle = np.arctan2(z[..., 1], z[..., 0])
        return self.eval_circle(angle)


def entropy_from_generator(gen: EntropyGenerator, tol: float = 1e-12) -> EntropyMap:
    """Integrate dPhi/ds = 2 psi(s + pi/2) e^{i(s + pi/2)} to a zero-mean map."""
    if gen.closure_defect() > tol:
        raise NonClosed("generator carries a first harmonic; map does not close")
    shifted = gen.psi.shift(-0.5 * np.pi)  # psi(s + pi/2)
    comp1 = 2.0 * shifted * ((-1.0) * _sin())
    comp2 = 2.0 * shifted * _cos()
    phi1 = comp1.antiderivative(tol=tol)
    phi2 = comp2.antiderivative(tol=tol)
    return EntropyMap(phi1, phi2)


def frame_entropy_map(frame: Frame) -> EntropyMap:
    """The cubic frame entropy as an EntropyMap with exact vector evaluation."""
    base1 = TrigPoly.from_harmonics(sin={1: 1.0, 3: -1.0 / 3.0})
    base2 = TrigPoly.from_harmonics(cos={1: 1.0, 3: 1.0 / 3.0})
    th = frame.theta
    s1, s2 = base1.shift(th), base2.shift(th)
    phi1 = np.cos(th) * s1 + (-np.sin(th)) * s2
    phi2 = np.sin(th) * s1 + np.cos(th) * s2
    return EntropyMap(phi1, phi2, vector_eval=lambda z, f=frame: sigma_frame(f, z))


def jump_bracket(phi: EntropyMap, m_plus, m_minus, n) -> np.ndarray:
    """Geometric jump bracket n . (Phi(m+) - Phi(m-)), one per trailing vector."""
    d = phi.eval_vectors(m_plus) - phi.eval_vectors(m_minus)
    return np.sum(np.asarray(n, dtype=float) * d, axis=-1)


# ---------------------------------------------------------------------------
# production measures and the defect functionals


def entropy_production(m: VectorField, phi: EntropyMap) -> CellMeasure:
    """Weak divergence of Phi(m) as a dual-cell measure."""
    return weak_divergence(VectorField(m.grid, phi.eval_vectors(m.values)))


TWO_FRAMES = (0.0, np.pi / 4)  # the axis and diagonal frame angles of f0_tilde_two_frames


def f0_tilde_two_frames(m: VectorField) -> float:
    """sqrt(TV_e^2 + TV_eps^2) over active cells for the axis and diagonal frames."""
    return two_frame_norm(*(entropy_production(m, frame_entropy_map(Frame(t))) for t in TWO_FRAMES))


def two_frame_norm(prod_e: CellMeasure, prod_eps: CellMeasure) -> float:
    """f0_tilde_two_frames from the productions of the two frames TWO_FRAMES."""
    active = prod_e.grid.active()
    return float(np.hypot(prod_e.total_variation(active), prod_eps.total_variation(active)))


def f0_tilde_sup(m: VectorField, n_frames: int) -> float:
    """Cellwise sup over the frame family theta_k = k pi / (2 n_frames)."""
    if n_frames < 2:
        raise ValueError("n_frames must be at least 2")
    active = m.grid.active()
    best = np.zeros(m.grid.shape)
    for k in range(n_frames):
        theta = k * np.pi / (2.0 * n_frames)
        prod = entropy_production(m, frame_entropy_map(Frame(theta)))
        best = np.maximum(best, np.abs(prod.masses))
    return float(np.sum(best[active]))


def f0_jump(ridge: RidgeSet) -> float:
    """(1/3) integral of |m+ - m-|^3 = (2 sin beta)^3 / 3 along the ridge.

    Integrated in theta on [0, pi] with x1 = mid - half cos(theta), whose
    factor half sin(theta) smooths sin^3 beta ~ eps^(3/2) at the ridge ends.
    """
    lo, hi = ridge.p_minus[0], ridge.p_plus[0]
    if hi - lo <= 0:
        return 0.0
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def integrand(theta):
        beta = ridge.data(mid - half * np.cos(theta))["beta"]
        return (2.0 * np.sin(beta)) ** 3 / 3.0 * half * np.sin(theta)

    return integrate(integrand, (0.0, np.pi))


def boundary_flux(domain: Domain, frame: Frame) -> float:
    """Flux of Sigma_frame(m) through the outer rim {u = -delta}.

    On that curve m = (n2, -n1) for the outward normal n, so the flux is
    a 1D integral in the curve parameter (the angle t of (a cos t, b sin t)
    on the ellipse); by the divergence theorem it equals the total
    production inside, which for the reference field concentrates on the ridge.
    """
    phi = frame_entropy_map(frame)

    def integrand(pt, n):
        mbar = np.stack([n[..., 1], -n[..., 0]], axis=-1)
        return np.sum(phi.eval_vectors(mbar) * n, axis=-1)

    return offset_boundary(domain, domain.delta).integrate(integrand)
