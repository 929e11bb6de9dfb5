import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aglab import geometry
from aglab.errors import AmbiguousProjection
from aglab.geometry import (
    COLLAR,
    EXTERIOR,
    INTERIOR,
    Ellipse,
    Grid,
    Stadium,
    grad_signed_distance,
    limit_vector_field,
    offset_boundary,
    project_to_boundary,
    ridge_set,
    _project_raw,
    signed_distance,
)

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


def test_projection_trivials(ellipse, stadium):
    assert project_to_boundary(ellipse, [2.0, 0.0]) == pytest.approx([1.0, 0.0], abs=1e-12)
    assert project_to_boundary(stadium, [1.0, 3.0]) == pytest.approx([1.0, 1.0], abs=1e-14)


def test_projection_vs_sampling_oracle(ellipse, boundary_samples):
    p = np.array([0.3, 0.1])
    q = project_to_boundary(ellipse, p)
    d = np.hypot(boundary_samples[:, 0] - p[0], boundary_samples[:, 1] - p[1])
    q_oracle = boundary_samples[np.argmin(d)]
    assert q == pytest.approx(q_oracle, abs=1e-5)  # sample spacing limits the oracle
    assert np.hypot(*(p - q)) == pytest.approx(d.min(), abs=1e-8)


def test_projection_idempotent(ellipse):
    pts = RNG.uniform(-1.2, 1.2, size=(64, 2))
    pts = pts[np.abs(pts[:, 1]) > 1e-3]
    q = project_to_boundary(ellipse, pts)
    q2 = project_to_boundary(ellipse, q + 1e-13)  # nudge off the exact boundary
    assert np.max(np.abs(q - q2)) < 1e-10


def test_projection_ambiguous_on_ridge(ellipse):
    with pytest.raises(AmbiguousProjection):
        project_to_boundary(ellipse, [0.2, 0.0])


def test_ridge_endpoints_ellipse(ellipse, boundary_samples):
    r = ridge_set(ellipse)
    assert r.p_minus == pytest.approx((-0.75, 0.0))
    assert r.p_plus == pytest.approx((0.75, 0.0))
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
    assert r.p_minus == pytest.approx((0.0, 0.0))
    assert r.p_plus == pytest.approx((2.0, 0.0))
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
    assert np.allclose(d["n"], [0.0, 1.0])
    assert np.all((d["beta"] > 0) & (d["beta"] < np.pi))
    assert np.all((d["half_angle"] > 0) & (d["half_angle"] <= np.pi / 2 + 1e-14))
    # jump strength is set by the half-angle
    assert np.allclose(np.linalg.norm(d["m_plus"] - d["m_minus"], axis=-1),
                       2 * np.sin(d["half_angle"]), atol=1e-12)
    # exact trace parametrization from bisector and beta
    sbar = d["sbar"]
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
    g = grad_signed_distance(ellipse, pts)
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


def test_grid_ridge_near(ellipse, grid64):
    pts = grid64.nodes
    near = grid64.ridge_near
    span = 0.75
    inside = (np.abs(pts[..., 1]) <= grid64.h / 2 + 1e-15) & (np.abs(pts[..., 0]) <= span)
    assert np.all(near[inside])


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


def test_offset_boundary_length(ellipse):
    # ellipse circumference plus 2*pi*d for the outward offset
    curve = offset_boundary(ellipse, ellipse.delta)
    length = curve.integrate(lambda p, n: np.ones(p.shape[:-1]))
    from scipy.integrate import quad

    base, _ = quad(lambda t: np.sqrt(np.sin(t) ** 2 + 0.25 * np.cos(t) ** 2), 0, 2 * np.pi)
    assert length == pytest.approx(base + 2 * np.pi * ellipse.delta, rel=1e-9)


def test_offset_boundary_stadium_length(stadium):
    curve = offset_boundary(stadium, 0.0)
    length = curve.integrate(lambda p, n: np.ones(p.shape[:-1]))
    assert length == pytest.approx(2 * stadium.L + 2 * np.pi * stadium.R, rel=1e-12)


def test_limit_field_one_sided_on_ridge(ellipse):
    m_up = limit_vector_field(ellipse, np.array([0.3, 0.0]))
    m_up2 = limit_vector_field(ellipse, np.array([0.3, 1e-9]))
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
