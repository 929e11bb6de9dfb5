import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aglab import geometry
from aglab.errors import QuadratureFailure
from aglab.fields import exact_limit_field
from aglab.geometry import (
    COLLAR,
    EXTERIOR,
    INTERIOR,
    RIDGE_NORMAL,
    RIDGE_SBAR,
    Ellipse,
    Grid,
    Stadium,
    ridge_set,
    rot90,
    _project_raw,
    signed_distance,
    signed_distance_grad,
)
from aglab.lagrangian import DomainFlow, ensemble_representation_check

RNG = np.random.default_rng(20240811)


def oracle_distance(boundary_samples, x):
    return float(np.min(np.hypot(boundary_samples[:, 0] - x[0], boundary_samples[:, 1] - x[1])))


def test_signed_distance_trivials(ellipse):
    assert signed_distance(ellipse, [0.0, 0.0]) == pytest.approx(0.5, abs=1e-14)
    assert signed_distance(ellipse, [2.0, 0.0]) == pytest.approx(-1.0, abs=1e-14)


def test_signed_distance_vs_sampling_oracle(ellipse, boundary_samples):
    pts = [(0.3, 0.1), (-0.7, 0.2), (0.9, 0.3), (1.3, -0.4), (0.0, 0.49)]
    for p in pts:
        got = abs(signed_distance(ellipse, list(p)))
        want = oracle_distance(boundary_samples, p)
        assert got == pytest.approx(want, abs=1e-8)


def project(domain, x):
    """Closest boundary point of points off the ridge, where it is unique."""
    return _project_raw(domain, np.asarray(x, dtype=float))[0]


def test_projection_trivials(ellipse, stadium):
    assert project(ellipse, [2.0, 0.0]) == pytest.approx([1.0, 0.0], abs=1e-12)
    x = np.array([1.0, 3.0])
    sd, g = signed_distance_grad(stadium, x)
    assert x - sd * g == pytest.approx([1.0, 1.0], abs=1e-14)


def test_projection_vs_sampling_oracle(ellipse, boundary_samples):
    p = np.array([0.3, 0.1])
    q = project(ellipse, p)
    d = np.hypot(boundary_samples[:, 0] - p[0], boundary_samples[:, 1] - p[1])
    q_oracle = boundary_samples[np.argmin(d)]
    assert q == pytest.approx(q_oracle, abs=1e-5)  # sample spacing limits the oracle
    assert np.hypot(*(p - q)) == pytest.approx(d.min(), abs=1e-8)


def test_projection_idempotent(ellipse):
    pts = RNG.uniform(-1.2, 1.2, size=(64, 2))
    pts = pts[np.abs(pts[:, 1]) > 1e-3]
    q = project(ellipse, pts)
    q2 = project(ellipse, q + 1e-13)  # nudge off the exact boundary
    assert np.max(np.abs(q - q2)) < 1e-10


def test_ridge_endpoints_ellipse(ellipse, boundary_samples):
    r = ridge_set(ellipse)
    assert (r.lo, r.hi) == pytest.approx((-0.75, 0.75))
    # oracle: beyond the endpoint the closest-point set is a single cluster
    # near the vertex, strictly inside it splits into two symmetric clusters
    d = np.hypot(boundary_samples[:, 0] - 0.70, boundary_samples[:, 1])
    near = boundary_samples[d < d.min() + 1e-9]
    assert np.any(near[:, 1] > 0.01) and np.any(near[:, 1] < -0.01)
    d = np.hypot(boundary_samples[:, 0] - 0.80, boundary_samples[:, 1])
    near = boundary_samples[d < d.min() + 1e-9]
    assert np.all(np.abs(near[:, 1]) < 0.01)


def test_ridge_endpoints_stadium(stadium):
    r = ridge_set(stadium)
    assert (r.lo, r.hi) == pytest.approx((0.0, 2.0))
    d = r.data(np.array([0.5, 1.0, 1.5]))
    assert d["beta"] == pytest.approx(np.pi / 2)


def test_ridge_traces(ellipse):
    r = ridge_set(ellipse)
    xs = np.array([0.0, 0.3, -0.5, 0.7])
    d = r.data(xs)
    assert np.allclose(np.linalg.norm(d["m_plus"], axis=-1), 1.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(d["m_minus"], axis=-1), 1.0, atol=1e-14)
    # tangential components opposite, normal components equal
    assert np.allclose(d["m_plus"][:, 0], -d["m_minus"][:, 0], atol=1e-14)
    assert np.allclose(d["m_plus"][:, 1], d["m_minus"][:, 1], atol=1e-14)
    assert np.array_equal(RIDGE_NORMAL, [0.0, 1.0])
    assert np.all((d["beta"] > 0) & (d["beta"] < np.pi))
    half_angle = np.minimum(d["beta"], np.pi - d["beta"])
    assert np.all((half_angle > 0) & (half_angle <= np.pi / 2 + 1e-14))
    # jump strength is set by the half-angle
    assert np.allclose(np.linalg.norm(d["m_plus"] - d["m_minus"], axis=-1),
                       2 * np.sin(half_angle), atol=1e-12)
    # exact trace parametrization from bisector and beta
    sbar = RIDGE_SBAR
    expect_plus = np.stack([np.cos(sbar + d["beta"]), np.sin(sbar + d["beta"])], axis=-1)
    expect_minus = np.stack([np.cos(sbar - d["beta"]), np.sin(sbar - d["beta"])], axis=-1)
    assert np.allclose(d["m_plus"], expect_plus, atol=1e-12)
    assert np.allclose(d["m_minus"], expect_minus, atol=1e-12)
    # center: projections (0, +-0.5), m1+ = sin(beta) > 0
    assert d["m_plus"][0] == pytest.approx([1.0, 0.0], abs=1e-14)
    assert d["beta"][0] == pytest.approx(np.pi / 2)


def test_gradient_is_unit_off_ridge(ellipse):
    h = 1e-5
    pts = RNG.uniform(-0.9, 0.9, size=(128, 2)) * np.array([1.0, 0.5])
    pts = pts[np.abs(pts[:, 1]) > 0.02]
    gx = (signed_distance(ellipse, pts + [h, 0]) - signed_distance(ellipse, pts - [h, 0])) / (2 * h)
    gy = (signed_distance(ellipse, pts + [0, h]) - signed_distance(ellipse, pts - [0, h])) / (2 * h)
    assert np.max(np.abs(np.hypot(gx, gy) - 1.0)) < 1e-8
    # matches the analytic gradient
    _, g = signed_distance_grad(ellipse, pts)
    assert np.max(np.abs(g[:, 0] - gx)) < 1e-7
    assert np.max(np.abs(g[:, 1] - gy)) < 1e-7


def test_limit_field_unit_norm(ellipse, grid64, limit64):
    _, m = limit64
    norms = np.linalg.norm(m.values, axis=-1)
    assert np.allclose(norms[grid64.active()], 1.0, atol=1e-12)


def test_grid_classification(ellipse, grid64):
    sd = signed_distance(ellipse, grid64.nodes)
    assert np.all((grid64.mask == INTERIOR) == (sd >= -1e-12))
    assert np.all((grid64.mask == COLLAR) == ((sd > -ellipse.delta) & (sd < -1e-12)))
    # at least two exterior ghost layers on every side
    assert np.all(grid64.mask[:2, :] == EXTERIOR)
    assert np.all(grid64.mask[-2:, :] == EXTERIOR)
    assert np.all(grid64.mask[:, :2] == EXTERIOR)
    assert np.all(grid64.mask[:, -2:] == EXTERIOR)


@pytest.mark.parametrize("size", [{"h": 0.0}, {"h": -0.1}, {"h": np.nan}, {"resolution": 0},
                                  {"resolution": -3}, {"h": -np.inf}, {"resolution": np.nan},
                                  {}, {"h": 0.1, "resolution": 16}])
def test_grid_cover_rejects_bad_sizes(ellipse, size):
    with pytest.raises(ValueError):
        Grid.cover(ellipse, **size)


def test_domain_validation():
    with pytest.raises(ValueError):
        Ellipse(0.5, 1.0)
    with pytest.raises(ValueError):
        Ellipse(1.0, 0.5, delta=0.3)  # above the b/2 cap
    with pytest.raises(ValueError):
        Stadium(-1.0, 1.0)
    assert Ellipse(1.0, 0.5).delta == pytest.approx(0.05)
    assert Stadium(2.0, 1.0).delta == pytest.approx(0.1)


def test_stadium_signed_distance_closed_form(stadium):
    pts = RNG.uniform(-1.5, 3.5, size=(256, 2))
    q1 = np.clip(pts[:, 0], 0.0, stadium.L)
    want = stadium.R - np.hypot(pts[:, 0] - q1, pts[:, 1])
    assert np.allclose(signed_distance(stadium, pts), want, atol=1e-14)


# ---------------------------------------------------------------------------
# stadium closed form on numerically hard inputs


def stadium_points(dom):
    """Points on and beside the core and its ends, within [1e-14, 1e-4] of the boundary, and far out."""
    L, R = dom.L, dom.R
    tiny_y = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                       st.builds(lambda k, s: s * 10.0**k, st.floats(-300.0, -30.0), st.sampled_from([1.0, -1.0])))
    near_core = st.tuples(st.floats(0.0, L), tiny_y)
    ends = st.tuples(st.one_of(st.sampled_from([0.0, L]), st.floats(-2 * R, 0.0), st.floats(L, L + 2 * R)),
                     st.one_of(tiny_y, st.floats(-2 * R, 2 * R)))
    off = st.builds(lambda k, s: s * 10.0**k, st.floats(-14.0, -4.0), st.sampled_from([1.0, -1.0]))
    side = st.builds(lambda x1, s, e: (x1, s * (R + e)), st.floats(0.0, L), st.sampled_from([1.0, -1.0]), off)
    cap = st.builds(lambda t, c, e: (c * L + (2 * c - 1) * (R + e) * np.cos(t), (R + e) * np.sin(t)),
                    st.floats(-np.pi / 2, np.pi / 2), st.sampled_from([0, 1]), off)
    far = st.builds(lambda r, t: (L / 2 + r * np.cos(t), r * np.sin(t)),
                    st.floats(2 * (L + R), 1e3 * (L + R)), st.floats(0, 2 * np.pi))
    return st.one_of(near_core, ends, side, cap, far)


@given(data=st.data())
def test_stadium_gradient_is_closed_form(data):
    # against -v/|v| in extended precision, v = x - (clip(x1, 0, L), 0); a
    # gradient through a closest point q loses digits to x - q near the boundary
    dom = Stadium(data.draw(st.floats(0.5, 3.0)), data.draw(st.floats(0.2, 2.0)))
    x = np.array(data.draw(stadium_points(dom)))
    sd, g = signed_distance_grad(dom, x)
    assert np.array_equal(sd, signed_distance(dom, x))
    xl = x.astype(np.longdouble)
    v = np.array([xl[0] - np.clip(xl[0], 0, dom.L), xl[1]])
    r = np.hypot(v[0], v[1])
    want = np.array([0.0, -1.0]) if r == 0 else -v / r  # on the core, the limit from above
    assert np.max(np.abs(g - want)) <= 1e-15


@given(t=st.floats(0.0, 2 * np.pi), depth=st.sampled_from([1e-6, 1e-9, 1e-12]), side=st.sampled_from([1, -1]))
def test_ellipse_gradient_is_the_normal_near_the_boundary(ellipse, t, depth, side):
    # against the inward unit normal at the closest point, in extended
    # precision; a gradient through x - q loses digits to the cancellation there
    a, b, tl = np.longdouble(ellipse.a), np.longdouble(ellipse.b), np.longdouble(t)
    q = np.array([a * np.cos(tl), b * np.sin(tl)])
    n = -np.array([q[0] / a**2, q[1] / b**2])
    n /= np.hypot(n[0], n[1])
    x = (q + side * np.longdouble(depth) * n).astype(float)
    sd, g = signed_distance_grad(ellipse, x)
    assert np.array_equal(sd, signed_distance(ellipse, x))
    assert np.max(np.abs(g - n)) <= 1e-15


def test_stadium_queries_never_project(stadium, monkeypatch):
    calls = []
    project = geometry._project_raw
    monkeypatch.setattr(geometry, "_project_raw", lambda d, x: calls.append(1) or project(d, x))
    exact_limit_field(Grid.cover(stadium, h=1 / 32))
    ensemble_representation_check(DomainFlow(Grid.cover(stadium, h=1 / 64)), 2000, 0.5, seed=1)
    assert calls == []


def test_integrate_rough_integrand_fails_explicitly():
    # a sign wave with hundreds of jumps defeats panel doubling; the failure
    # surfaces as an exception instead of a wrong value
    with pytest.raises(QuadratureFailure):
        geometry.integrate(lambda t: np.sign(np.sin(300.0 * np.cos(t) + 0.3)), (0.0, 2 * np.pi))


def test_limit_field_one_sided_on_ridge(ellipse):
    m_up = rot90(signed_distance_grad(ellipse, np.array([0.3, 0.0]))[1])
    m_up2 = rot90(signed_distance_grad(ellipse, np.array([0.3, 1e-9]))[1])
    assert np.allclose(m_up, m_up2, atol=1e-6)
    assert m_up[0] > 0


# ---------------------------------------------------------------------------
# ellipse projection on numerically hard inputs

SHAPES = [Ellipse(1.0, 0.5), Ellipse(1.0, 1.0)]


def _ridge_end(dom):
    return (dom.a**2 - dom.b**2) / dom.a


def _evolute(dom, t):
    c2 = dom.a**2 - dom.b**2
    return c2 / dom.a * np.cos(t) ** 3, c2 / dom.b * np.sin(t) ** 3


def near_ridge(dom):
    """x across the ridge span and exactly at its ends, y in [5e-324, 1e-3]."""
    e = _ridge_end(dom)
    xs = st.one_of(st.sampled_from([-e, e]), st.floats(-1.2 * e, 1.2 * e))
    ys = st.one_of(st.just(5e-324), st.floats(-323.0, -3.0).map(lambda k: 10.0**k))
    return st.tuples(xs, ys)


def hard_points(dom):
    near_evolute = st.builds(lambda t, dx, dy: np.add(_evolute(dom, t), (dx, dy)),
                             st.floats(0, 2 * np.pi), st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6))
    far = st.builds(lambda r, t: (r * np.cos(t), r * np.sin(t)),
                    st.floats(2 * dom.a, 1e3 * dom.a), st.floats(0, 2 * np.pi))
    return st.one_of(near_ridge(dom), near_evolute, far)


@pytest.mark.parametrize("dom", SHAPES, ids=["ellipse", "circle"])
@given(data=st.data())
def test_projection_properties_hard_inputs(dom, data, boundary_samples):
    p = np.array(data.draw(hard_points(dom)))
    q, dist = _project_raw(dom, p)
    a, b = dom.a, dom.b
    scale = np.hypot(*p) + a
    # q on the ellipse
    assert abs((q[0] / a) ** 2 + (q[1] / b) ** 2 - 1) <= 1e-14
    # p - q along the normal at q
    n = np.array([q[0] / a**2, q[1] / b**2])
    assert abs((p[0] - q[0]) * n[1] - (p[1] - q[1]) * n[0]) <= 64 * np.finfo(float).eps * scale * np.hypot(*n)
    # no boundary point is closer
    if a == b:
        assert dist == pytest.approx(abs(np.hypot(*p) - a), abs=8 * np.finfo(float).eps * scale)
    else:
        assert dist <= oracle_distance(boundary_samples, p) + 8 * np.finfo(float).eps * scale


@pytest.mark.parametrize("dom", SHAPES, ids=["ellipse", "circle"])
@given(data=st.data())
def test_projection_ridge_limit_from_above(dom, data):
    x, y = data.draw(near_ridge(dom))
    q, dist = _project_raw(dom, np.array([x, y]))
    q0, dist0 = _project_raw(dom, np.array([x, 0.0]))
    # the distance is 1-Lipschitz
    assert abs(dist - dist0) <= y + 4 * np.finfo(float).eps
    # y -> 0+ reaches the one-sided closed form; on the circle the ridge is
    # the centre, which every boundary point is closest to
    if y <= 1e-100 and dom.a > dom.b:
        assert q == pytest.approx(q0, abs=1e-14)


@given(data=st.data())
def test_ridge_traces_are_the_field_beside_the_ridge(data):
    # the tracer reads its crossings from the ridge record, which must be the
    # field's limit from either side
    a = data.draw(st.floats(0.5, 2.0))
    dom = data.draw(st.one_of(st.builds(lambda r: Ellipse(a, r * a), st.floats(0.1, 1.0, exclude_max=True)),
                              st.just(Stadium(2.0, 1.0))))
    r = ridge_set(dom)
    x1 = r.lo + data.draw(st.floats(0.01, 0.99)) * r.length
    delta = 10.0 ** data.draw(st.floats(-300.0, -30.0))
    d = r.data(np.array([x1]))
    above = rot90(signed_distance_grad(dom, np.array([[x1, delta]]))[1])
    below = rot90(signed_distance_grad(dom, np.array([[x1, -delta]]))[1])
    assert np.max(np.abs(above - d["m_plus"])) <= 1e-13
    assert np.max(np.abs(below - d["m_minus"])) <= 1e-13


def test_projection_subnormal_y_takes_axis_branch(ellipse):
    for x in (0.3, -0.71816327524742196):
        q, dist = _project_raw(ellipse, np.array([x, 5e-324]))
        q0, dist0 = _project_raw(ellipse, np.array([x, 0.0]))
        assert np.all(np.isfinite(q)) and q[1] > 0
        assert np.array_equal(q, q0) and dist == dist0
    assert q0 == pytest.approx([-0.95755103366, 0.14413189960], abs=1e-10)


def test_projection_subnormal_x_does_not_warn(ellipse):
    # the cusp bound's Y / 2X overflows to inf, which fmin discards
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, _ = _project_raw(ellipse, np.array([5e-324, 0.3]))
    assert np.all(np.isfinite(q))
    assert (q[0] / ellipse.a) ** 2 + (q[1] / ellipse.b) ** 2 == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("ab", [(1.0, 0.5), (1.0, 0.99), (3.0, 0.2), (1.0, 0.01), (1.0, 1.0)])
def test_projection_newton_steps_bounded(ab, monkeypatch):
    """Every hard point converges within six Newton steps plus the final check."""
    dom = Ellipse(*ab)
    rng = np.random.default_rng(3)
    e, k = _ridge_end(dom), 2000
    tiny_y = 10.0 ** rng.uniform(-307.0, -3.0, k)
    pts = np.concatenate([
        rng.uniform(-2 * dom.a, 2 * dom.a, (20 * k, 2)),
        np.stack([rng.uniform(-1.2 * e, 1.2 * e, k), tiny_y], axis=-1),
        np.stack([rng.choice([-e, e], k) * (1 + rng.choice([0, 1e-16, -1e-8, 1e-4], k)), tiny_y], axis=-1),
        np.stack(_evolute(dom, rng.uniform(0, 2 * np.pi, k)), axis=-1) + rng.uniform(-1e-6, 1e-6, (k, 2)),
        rng.standard_normal((k, 2)) * 10.0 ** rng.uniform(0, 8, (k, 1)),
    ])
    monkeypatch.setattr(geometry, "_NEWTON_MAX_ITER", 7)
    _, dist = _project_raw(dom, pts)
    assert np.all(np.isfinite(dist))
