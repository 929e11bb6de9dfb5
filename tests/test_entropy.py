from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from aglab import entropy
from aglab.entropy import (
    TWO_FRAMES,
    TrigPoly,
    boundary_flux,
    entropy_from_generator,
    entropy_production,
    f0_jump,
    sigma_frame,
    two_frame_norm,
)
from aglab.errors import NonClosed
from aglab.fields import VectorField, exact_limit_field
from aglab.geometry import EXTERIOR, INTERIOR, Ellipse, Grid, Stadium, ridge_set
from aglab.kinetic import jump_identity_check

RNG = np.random.default_rng(11)


def frame_generator(theta: float) -> TrigPoly:
    """Circle generator of the cubic frame entropy: psi(s) = sin 2(s - theta)."""
    return TrigPoly.from_harmonics(sin={2: 1.0}).shift(theta)


def jump_bracket(phi, m_plus, m_minus, n) -> float:
    """Geometric jump bracket n . (Phi(m+) - Phi(m-)) of one pair of traces."""
    return float(np.dot(n, phi(m_plus) - phi(m_minus)))


def max_defect(phi, n_samples: int = 1024) -> float:
    """Max over the circle of dPhi/ds(e^{is}) . e^{is}, identically 0 for a genuine entropy."""
    s = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
    d1 = phi.phi1.derivative()(s)
    d2 = phi.phi2.derivative()(s)
    return float(np.max(np.abs(d1 * np.cos(s) + d2 * np.sin(s))))


# frozen regression value for Ellipse(1, 0.5): adaptive quadrature of the
# cubic jump density computed from the two-sided projections
F0_ELLIPSE = 3.0973312761654945


def two_frames(m):
    """The two-frame norm of the field's productions, as the entropy report combines them."""
    return two_frame_norm(*(entropy_production(m, partial(sigma_frame, t)) for t in TWO_FRAMES))


def test_sigma_frame_examples():
    assert sigma_frame(0.0, np.array([0.0, 1.0])) == pytest.approx([4 / 3, 0.0])
    assert sigma_frame(0.0, np.array([0.0, 0.0])) == pytest.approx([0.0, 0.0])
    z = np.array([np.sqrt(2) / 2, np.sqrt(2) / 2])
    want = (4 / 3) * np.array([-np.sin(np.pi / 4), np.cos(np.pi / 4)])  # the frame's alpha2
    assert sigma_frame(np.pi / 4, z) == pytest.approx(want)
    assert want == pytest.approx([-2 * np.sqrt(2) / 3, 2 * np.sqrt(2) / 3])


def test_sigma_frame_odd():
    z = RNG.standard_normal((32, 2))
    theta = 0.7
    assert np.allclose(sigma_frame(theta, -z), -sigma_frame(theta, z), atol=0.0)


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(0, 2 * np.pi), rot=st.floats(0, 2 * np.pi),
       zx=st.floats(-2, 2), zy=st.floats(-2, 2))
def test_sigma_frame_equivariance(theta, rot, zx, zy):
    z = np.array([zx, zy])
    c, s = np.cos(rot), np.sin(rot)
    R = np.array([[c, -s], [s, c]])
    lhs = sigma_frame(theta + rot, R @ z)
    rhs = R @ sigma_frame(theta, z)
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(-2 * np.pi, 2 * np.pi), r=st.floats(0, 2), arg=st.floats(0, 2 * np.pi))
def test_sigma_frame_is_linear_in_the_two_frames(theta, r, arg):
    # Sigma_theta has only the harmonics +-2 in theta, off the unit circle too;
    # the entropy report reads every frame's production from the TWO_FRAMES ones by this
    z = r * np.array([np.cos(arg), np.sin(arg)])
    lhs = sigma_frame(theta, z)
    rhs = np.cos(2 * theta) * sigma_frame(0.0, z) + np.sin(2 * theta) * sigma_frame(np.pi / 4, z)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * (1 + r**3)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("hermitian", [True, False])
def test_trig_poly_matches_exponential_sum(n, hermitian):
    rng = np.random.default_rng(100 * n + hermitian)
    c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    if hermitian:
        c = 0.5 * (c + np.conj(c[::-1]))
    s = rng.uniform(-7.0, 7.0, size=(40, 3))
    ks = np.arange(-n, n + 1)
    want = np.real(np.exp(1j * np.multiply.outer(s, ks)) @ c)
    got = TrigPoly(c)(s)
    assert got.shape == s.shape
    assert np.max(np.abs(got - want)) <= 1e-13
    assert float(TrigPoly(c)(np.asarray(s[0, 0]))) == pytest.approx(want[0, 0], abs=1e-13)


def test_sigma_frame_matches_power_form():
    z = RNG.uniform(-1.5, 1.5, size=(64, 2))
    for theta in (0.0, 0.4, np.pi / 4, 2.0):
        a1 = np.array([np.cos(theta), np.sin(theta)])
        a2 = np.array([-np.sin(theta), np.cos(theta)])
        p = z[..., 0] * a1[0] + z[..., 1] * a1[1]
        q = z[..., 0] * a2[0] + z[..., 1] * a2[1]
        want = np.stack([(4.0 / 3.0) * (q**3 * a1[0] + p**3 * a2[0]),
                         (4.0 / 3.0) * (q**3 * a1[1] + p**3 * a2[1])], axis=-1)
        np.testing.assert_allclose(sigma_frame(theta, z), want, rtol=1e-14, atol=1e-15)


def test_entropy_map_call_matches_angle_form():
    phi = entropy_from_generator(TrigPoly.from_harmonics(sin={4: 1.0}, cos={2: 0.3}))
    z = RNG.standard_normal((50, 2))
    z[:3] = 0.0  # the zero vector is taken to angle 0
    angle = np.arctan2(z[:, 1], z[:, 0])
    want = np.stack([np.real(np.exp(1j * np.multiply.outer(angle, p.ks())) @ p.c)
                     for p in (phi.phi1, phi.phi2)], axis=-1)
    assert np.max(np.abs(phi(z) - want)) <= 1e-13
    assert np.array_equal(phi(z[:3]), np.repeat(phi.eval_circle(0.0)[None], 3, axis=0))


def test_entropy_from_zero_generator():
    phi = entropy_from_generator(TrigPoly(np.zeros(1)))
    s = np.linspace(0, 2 * np.pi, 64)
    assert np.allclose(phi.eval_circle(s), 0.0)


def test_entropy_defect_vanishes():
    phi = entropy_from_generator(TrigPoly.from_harmonics(cos={2: 1.0}))
    assert max_defect(phi, 1024) < 1e-12


def test_entropy_reproduces_cubic_frame():
    # psi = sin(2s) integrates to the axis-frame cubic entropy
    phi = entropy_from_generator(frame_generator(0.0))
    s = np.linspace(0, 2 * np.pi, 257)
    # its harmonics: (4/3)(sin^3 s, cos^3 s) = (sin s - sin 3s / 3, cos s + cos 3s / 3)
    ref = np.stack([np.sin(s) - np.sin(3 * s) / 3, np.cos(s) + np.cos(3 * s) / 3], axis=-1)
    assert np.max(np.abs(phi.eval_circle(s) - ref)) < 1e-10
    # and the closed form on the circle
    z = np.stack([np.cos(s), np.sin(s)], axis=-1)
    assert np.max(np.abs(phi.eval_circle(s) - sigma_frame(0.0, z))) < 1e-10


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(-2 * np.pi, 2 * np.pi))
def test_frame_generator_integrates_to_the_frame_entropy(theta):
    s = np.linspace(0, 2 * np.pi, 257)
    phi = entropy_from_generator(frame_generator(theta))
    z = np.stack([np.cos(s), np.sin(s)], axis=-1)
    assert np.max(np.abs(phi.eval_circle(s) - sigma_frame(theta, z))) <= 1e-13


def test_non_closed_generator_rejected():
    with pytest.raises(NonClosed):
        entropy_from_generator(TrigPoly.from_harmonics(cos={1: 1.0}))


def test_jump_identity_check_rejects_odd_harmonics():
    lhs, rhs = jump_identity_check(np.pi / 3, TrigPoly.from_harmonics(cos={2: 1.0}, sin={4: 0.5}))
    assert abs(lhs - rhs) <= 1e-8
    for odd in ({3: 1.0}, {3: 1e-10}):
        with pytest.raises(ValueError, match="pi-periodic"):
            jump_identity_check(np.pi / 3, TrigPoly.from_harmonics(cos=odd))


def test_production_constant_field_zero(grid64):
    m = VectorField(grid64, np.broadcast_to([1.0, 0.0], grid64.shape + (2,)).copy())
    prod = entropy_production(m, partial(sigma_frame, 0.3))
    assert np.max(np.abs(prod.values)) == 0.0


def test_production_annulus_second_order():
    tvs = []
    for n in (48, 96):
        g = Grid(origin=(0.0, 0.0), h=1.5 / n, nx=n + 6, ny=n + 6)
        pts = g.nodes
        x, y = pts[..., 0] - 0.75, pts[..., 1] - 0.75
        r = np.hypot(x, y)
        g.mask = np.where((r > 0.25) & (r < 0.7), INTERIOR, EXTERIOR).astype(np.uint8)
        m = VectorField(g, np.stack([-y, x], axis=-1) / np.where(r == 0, 1, r)[..., None])
        for phi in (partial(sigma_frame, 0.0), entropy_from_generator(TrigPoly.from_harmonics(cos={2: 1.0}))):
            tvs.append(float(np.sum(np.abs(entropy_production(m, phi).values[g.active()]))))
    assert tvs[2] < tvs[0] / 3
    assert tvs[3] < tvs[1] / 3


def test_production_jump_bracket():
    # vertical jump with unit traces: line density approaches n.(Phi+ - Phi-)
    beta = np.pi / 3
    m_plus = np.array([np.cos(beta), np.sin(beta)])
    m_minus = np.array([np.cos(beta), -np.sin(beta)])
    phi = partial(sigma_frame, 0.0)
    bracket = jump_bracket(phi, m_plus, m_minus, np.array([1.0, 0.0]))
    n = 96
    g = Grid(origin=(0.0, 0.0), h=1.5 / n, nx=n, ny=n)
    g.mask = np.full(g.shape, INTERIOR, np.uint8)
    x = g.nodes[..., 0]
    m = np.where(x[..., None] > 0.7, m_plus, m_minus)
    prod = entropy_production(VectorField(g, m), phi)
    band = (np.abs(x - 0.7) < 4 * g.h) & (np.abs(g.nodes[..., 1] - 0.7) < 0.3)
    assert np.sum(prod.values[band]) / 0.6 == pytest.approx(bracket, rel=5 * g.h)


def test_f0_jump_values(ellipse, stadium):
    assert f0_jump(ridge_set(ellipse)) == pytest.approx(F0_ELLIPSE, abs=1e-9)
    assert f0_jump(ridge_set(stadium)) == pytest.approx(8 / 3 * 2, rel=1e-10)
    assert f0_jump(ridge_set(Ellipse(0.8, 0.8))) == 0.0


def test_two_frames_vs_jump_and_flux(ellipse, grid64, limit64):
    _, m = limit64
    two = two_frames(m)
    assert two == pytest.approx(F0_ELLIPSE, rel=0.02)
    flux = boundary_flux(ellipse)
    assert flux == pytest.approx(F0_ELLIPSE, rel=1e-8)
    assert abs(np.cos(2 * np.pi / 4) * flux) < 1e-10


def rim_flux_by_quad(domain, theta: float) -> float:
    """Flux of sigma_frame through the outer rim by adaptive quadrature in the normal angle phi.

    Arc length is (rho(phi) + delta) dphi, rho the boundary's radius of
    curvature; the stadium's flat sides add L at phi = +-pi/2.
    """
    def density(phi):
        n = np.array([np.cos(phi), np.sin(phi)])
        if isinstance(domain, Ellipse):
            a2, b2 = domain.a**2, domain.b**2
            rho = a2 * b2 / (a2 * n[0] ** 2 + b2 * n[1] ** 2) ** 1.5
        else:
            rho = domain.R
        return float(sigma_frame(theta, np.array([n[1], -n[0]])) @ n) * (rho + domain.delta)

    flux, _ = quad(density, -np.pi, np.pi, epsabs=1e-13, epsrel=1e-12, limit=400)
    if isinstance(domain, Stadium):
        flux += sum(float(sigma_frame(theta, np.array([n1, 0.0])) @ np.array([0.0, n1])) * domain.L
                    for n1 in (1.0, -1.0))
    return flux


@pytest.mark.parametrize("domain", [Ellipse(1.0, 0.5), Ellipse(1.0, 0.05), Stadium(2.0, 1.0)],
                         ids=["ellipse", "eccentric-ellipse", "stadium"])
def test_jump_energy_and_flux_match_adaptive_quadrature(domain):
    # scalar-callback adaptive quadrature as the reference; the eccentric
    # ellipse is the case that needs 8-16 panels per interval
    ridge = ridge_set(domain)

    def density(x):
        return (2.0 * np.sin(ridge.data(np.array([x]))["beta"][0])) ** 3 / 3.0

    ref, _ = quad(density, ridge.lo, ridge.hi, epsabs=1e-13, epsrel=1e-12, limit=400)
    assert f0_jump(ridge) == pytest.approx(ref, rel=1e-9)
    for theta in (0.0, np.pi / 8):
        assert np.cos(2 * theta) * boundary_flux(domain) == pytest.approx(rim_flux_by_quad(domain, theta), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.0, 2 * np.pi), a=st.floats(0.2, 2.0), aspect=st.floats(0.05, 1.0),
       collar=st.floats(0.01, 1.0))
def test_ellipse_flux_matches_adaptive_quadrature(theta, a, aspect, collar):
    b = a * aspect
    domain = Ellipse(a, b, collar * 0.5 * b)
    flux = np.cos(2 * theta) * boundary_flux(domain)
    assert flux == pytest.approx(rim_flux_by_quad(domain, theta), rel=1e-9, abs=1e-12)


def test_boundary_flux_evaluates_the_entropy_once_per_round(ellipse, monkeypatch):
    # one array call per panel-doubling round, not one call per abscissa
    points = []
    integrate = entropy.integrate

    def counted(f, edges):
        return integrate(lambda t: points.append(np.size(t)) or f(t), edges)

    monkeypatch.setattr(entropy, "integrate", counted)
    boundary_flux(ellipse)
    assert 1 <= len(points) <= 3
    assert min(points) > 1


def test_two_frames_constant_zero(grid64):
    m = VectorField(grid64, np.broadcast_to([0.6, 0.8], grid64.shape + (2,)).copy())
    assert two_frames(m) == 0.0
