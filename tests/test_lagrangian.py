import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from aglab import geometry, lagrangian
from aglab.geometry import Ellipse, Stadium, offset_boundary
from aglab.lagrangian import (
    DomainFlow,
    _trace_batch,
    ensemble_representation_check,
    sigma_gamma,
    trace_characteristic,
)


class ConstantFlow:
    """Uniform field on an axis box; no ridge.  Test double for the checker."""

    def __init__(self, half_width: float, half_height: float, direction: float = 0.0):
        self.bbox = (-half_width, half_width, -half_height, half_height)
        self.direction = direction
        self.ridge = None

    def m(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        out[..., 0] = np.cos(self.direction)
        out[..., 1] = np.sin(self.direction)
        return out

    def inside(self, x: np.ndarray) -> np.ndarray:
        x0, x1, y0, y1 = self.bbox
        return (x[..., 0] > x0) & (x[..., 0] < x1) & (x[..., 1] > y0) & (x[..., 1] < y1)

    def exit_time(self, p: np.ndarray, v: np.ndarray, t_end: np.ndarray) -> np.ndarray:
        """Time to the first wall of the box along p + t v, capped at t_end."""
        x0, x1, y0, y1 = self.bbox
        wall = np.where(v > 0, [x1, y1], [x0, y0])
        with np.errstate(divide="ignore"):
            t_wall = np.where(v != 0, (wall - p) / v, np.inf)
        return np.minimum(t_end, t_wall.min(axis=-1))


def test_trace_straight_up_no_jumps(ellipse):
    c = trace_characteristic(ellipse, ((0.0, 0.2), np.pi / 2), 2.0)
    assert not c.jumps and not c.stuck
    # exits through the top of the inset subdomain
    assert c.points[-1][1] > 0.45
    assert abs(c.points[-1][0]) < 1e-12


def test_trace_downward_reflects(ellipse):
    c = trace_characteristic(ellipse, ((0.0, 0.2), 3 * np.pi / 2), 2.0)
    assert len(c.jumps) == 1
    j = c.jumps[0]
    assert j.t == pytest.approx(0.2, abs=1e-12)
    assert j.x[1] == 0.0
    assert j.arc_length <= np.pi + 1e-12
    assert j.s_plus == pytest.approx(np.pi / 2)
    assert not c.stuck


def test_trace_constant_field_square():
    flow = ConstantFlow(1.0, 1.0, direction=0.0)
    elapsed, pos, stuck, jumps, anchors = _trace_batch(
        flow, np.array([[0.0, 0.0]]), np.array([0.3]), np.array([5.0]), +1)
    assert jumps["t"].size == 0
    assert not stuck[0]
    # exits through the right wall moving at angle 0.3
    assert pos[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_unit_speed_between_events(ellipse):
    c = trace_characteristic(ellipse, ((0.1, 0.2), 3 * np.pi / 2 + 0.3), 1.5)
    for t0, t1 in ((0.02, 0.09), (0.03, 0.05)):
        p0, p1 = c.position(t0), c.position(t1)
        assert np.hypot(*(p1 - p0)) == pytest.approx(t1 - t0, abs=1e-12)


def test_jumps_only_on_ridge(ellipse):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6)
        y = rng.uniform(0.05, 0.3)
        s = rng.uniform(np.pi, 2 * np.pi)
        c = trace_characteristic(ellipse, ((x, y), s), 1.0)
        for j in c.jumps:
            assert j.x[1] == 0.0
            assert j.arc_length < np.pi + 1e-12


def test_sigma_gamma_bookkeeping(ellipse):
    c0 = trace_characteristic(ellipse, ((0.0, 0.2), np.pi / 2), 1.0)
    assert sigma_gamma(c0) == []
    assert c0.tot_var_s == 0.0
    c1 = trace_characteristic(ellipse, ((-0.3, 0.1), -0.2), 2.0)
    arcs = sigma_gamma(c1)
    assert len(arcs) == len(c1.jumps) == 1
    assert arcs[0]["length"] == pytest.approx(0.4, abs=1e-12)
    assert c1.tot_var_s == pytest.approx(sum(a["length"] for a in arcs))


def test_stadium_bounce(stadium):
    c = trace_characteristic(stadium, ((1.0, 0.5), -np.pi / 4), 3.0)
    assert len(c.jumps) >= 1
    j = c.jumps[0]
    assert j.s_minus == pytest.approx(-np.pi / 4 + 2 * np.pi)
    assert np.mod(j.s_plus, 2 * np.pi) == pytest.approx(np.pi / 4)


def test_ensemble_requires_thousand_curves(ellipse):
    with pytest.raises(ValueError):
        ensemble_representation_check(ellipse, 10, 1.0, 0, 1 / 64)


def test_ensemble_uniform_reference():
    flow = ConstantFlow(1.0, 0.8)
    rep = ensemble_representation_check(flow, 20000, 0.8, seed=3, h=0.02)
    assert rep.pushforward_ok
    assert rep.n_jumps == 0 and rep.stuck_curves == 0


def test_ensemble_ellipse_statistics(ellipse):
    rep = ensemble_representation_check(ellipse, 20000, 1.0, seed=9, h=1 / 64)
    assert rep.pushforward_ok
    assert rep.ridge_mass_fraction >= 0.95
    assert 0.95 <= rep.cancellation_ratio <= 1.05
    assert rep.ks_p_value >= 0.01
    assert rep.stuck_curves == 0


def test_ensemble_seed_reproducible(ellipse):
    r1 = ensemble_representation_check(ellipse, 2000, 0.6, seed=17, h=1 / 64)
    r2 = ensemble_representation_check(ellipse, 2000, 0.6, seed=17, h=1 / 64)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)


def test_domain_flow_inset_guard(ellipse):
    with pytest.raises(ValueError):
        DomainFlow(ellipse, ellipse.delta * 2)


# ---------------------------------------------------------------------------
# hard inputs for the event tracer

HARD_FLOWS = [DomainFlow(Ellipse(1.0, 0.5), 0.025), DomainFlow(Stadium(2.0, 1.0), 0.03125)]


def exit_curve(flow):
    """Pieces of the curve {sd = level}, where traced curves exit."""
    return offset_boundary(flow.domain, -flow.level).pieces


def on_exit_curve(flow):
    """A point of the exit curve and its outward unit normal."""
    pieces = exit_curve(flow)

    def point(k, f):
        piece = pieces[k]
        t = piece.t0 + f * (piece.t1 - piece.t0)
        return piece.point(t)[0], piece.normal(t)[0]

    return st.builds(point, st.integers(0, len(pieces) - 1), st.floats(0.0, 1.0))


def hard_starts(flow, direction):
    """(start, angle) pairs on the inputs that are numerically hard for the tracer."""
    lo, hi, _ = flow.ridge
    x0, x1, y0, y1 = flow.bbox
    angle = st.floats(0.0, 2 * np.pi)
    # the exit curve lies `inset` inside the bounding box
    on_axis = st.tuples(
        st.one_of(st.sampled_from([lo, hi]), st.floats(x0 + flow.inset, x1 - flow.inset)).map(lambda x: (x, 0.0)),
        angle)
    horizontal = st.tuples(st.tuples(st.floats(x0, x1), st.floats(y0, y1)), st.sampled_from([0.0, np.pi]))
    # the ray passes through a ridge endpoint after time d
    endpoint = st.builds(
        lambda e, s, d: ((e - direction * d * np.cos(s), -direction * d * np.sin(s)), s),
        st.sampled_from([lo, hi]), angle, st.floats(0.0, 0.25))

    # smallest radius of curvature of the exit curve
    dom = flow.domain
    r_min = -flow.level + (dom.b**2 / dom.a if isinstance(dom, Ellipse) else dom.R)

    def tangent(ep, tilt, u, side):
        # leave the exit curve at e at angle `tilt` to its tangent, from
        # l = u sin(tilt) r_min back along the ray: the start lies inside,
        # at depth about l sin(tilt) (1 - u / 2)
        e, n = ep
        w = side * np.cos(tilt) * np.array([-n[1], n[0]]) + np.sin(tilt) * n
        start = e - u * np.sin(tilt) * r_min * w
        return (tuple(start), float(np.arctan2(direction * w[1], direction * w[0])))

    near_tangent = st.builds(tangent, on_exit_curve(flow), st.floats(-6.0, -1.0).map(lambda k: 10.0**k),
                             st.floats(0.01, 1.5), st.sampled_from([-1.0, 1.0]))
    near_exit = st.builds(lambda ep, d, s: (tuple(ep[0] - d * ep[1]), s),
                          on_exit_curve(flow), st.floats(-14.0, -12.0).map(lambda k: 10.0**k), angle)
    return st.one_of(on_axis, horizontal, endpoint, near_tangent, near_exit)


@pytest.mark.parametrize("flow", HARD_FLOWS, ids=["ellipse", "stadium"])
@given(data=st.data())
def test_trace_properties_hard_inputs(flow, data):
    direction = data.draw(st.sampled_from([1, -1]))
    start, s = data.draw(hard_starts(flow, direction))
    start = np.array([start])
    assume(flow.inside(start)[0])
    budget = data.draw(st.one_of(st.just(10.0), st.floats(0.0, 0.3)))
    elapsed, pos, stuck, jumps, anchors = _trace_batch(
        flow, start, np.array([s]), np.array([budget]), direction)
    assert elapsed[0] <= budget
    # at most one ridge event, and events sit on the ridge segment
    assert jumps["t"].size + stuck[0] <= 1
    assert np.all(jumps["x"][:, 1] == 0.0)
    assert np.all((flow.ridge[0] <= jumps["x"][:, 0]) & (jumps["x"][:, 0] <= flow.ridge[1]))
    if stuck[0]:
        assert pos[0, 1] == 0.0
    else:
        gap = geometry.signed_distance(flow.domain, pos[0]) - flow.level
        assert gap >= -1e-12
        if budget == 10.0:  # longer than any path, so the curve exits
            assert elapsed[0] < budget and abs(gap) <= 1e-12
    # anchors in time order, unit speed along the recorded angle between them
    times = np.append(anchors["t"], elapsed[0])
    points = np.vstack([anchors["pos"], pos])
    assert np.all(np.diff(times) >= 0.0)
    for k, a in enumerate(anchors["ang"]):
        step = direction * (times[k + 1] - times[k]) * np.array([np.cos(a), np.sin(a)])
        assert np.abs(points[k + 1] - points[k] - step).max() <= 1e-12


def test_start_outside_domain_raises(ellipse):
    with pytest.raises(ValueError):
        trace_characteristic(ellipse, ((1.5, 0.1), np.pi), 1.0)


@pytest.mark.parametrize("flow", HARD_FLOWS, ids=["ellipse", "stadium"])
def test_exit_newton_steps_bounded(flow, monkeypatch):
    """Exactly tangent exits from 1e-6 to 1e-15 inside take at most 30 Newton steps.

    Their roots lie down to 1e-8 from the start while Newton starts 10
    away and, where sd is quadratic along the ray, roughly halves t per
    step: the slowest inputs found.
    """
    monkeypatch.setattr(lagrangian, "_EXIT_MAX_ITER", 30)
    for piece in exit_curve(flow):
        ts = np.linspace(piece.t0, piece.t1, 50)
        e, n = piece.point(ts), piece.normal(ts)
        for depth in (1e-6, 1e-10, 1e-13, 1e-15):
            for side in (1.0, -1.0):
                p = e - depth * n
                v = side * np.stack([-n[:, 1], n[:, 0]], axis=-1)
                keep = flow.inside(p)
                t = flow.exit_time(p[keep], v[keep], np.full(keep.sum(), 10.0))
                x = p[keep] + t[:, None] * v[keep]
                assert np.abs(geometry.signed_distance(flow.domain, x) - flow.level).max() <= 1e-12
