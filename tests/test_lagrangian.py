import functools
import json
import math
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import kolmogorov as kolmogorov_sf
from scipy.stats import ks_2samp, kstwobign

from aglab import geometry, lagrangian
from aglab.geometry import Ellipse, Grid, Stadium
from aglab.lagrangian import (
    DomainFlow,
    _trace_batch,
    _weighted_ks,
    arc_arrays,
    curve_at,
    ensemble_representation_check,
)

NO_REFLECTION = (-np.inf, np.nan, np.nan)


@functools.cache
def covered(domain, h):
    """The domain's grid of cell size h, covered once per (domain, h)."""
    return Grid.cover(domain, h=h)


def flow_on(domain, h=1 / 64):
    """The flow the ensemble traces on the domain's grid of cell size h: inset min(2h, delta/2)."""
    return DomainFlow(covered(domain, h))


def trace(domain, start, s, T):
    """One forward curve from `start` at angle `s` over [0, T], on the inset delta/4 of the grid h = delta/8."""
    flow = flow_on(domain, domain.delta / 8)
    elapsed, end, stuck, t_ref, x_ref, s_ref = _trace_batch(flow, np.array([start]), np.array([s]), np.array([T]), +1)
    return {"start": np.array(start), "s0": s, "t_plus": elapsed[0], "end": end[0], "stuck": stuck[0],
            "fwd": (t_ref[0], x_ref[0], s_ref[0])}


def position(c, t):
    return curve_at(t, c["start"], 0.0, c["s0"], c["fwd"], NO_REFLECTION)[0]


def sigma_gamma(c) -> list[dict]:
    """Signed angular arcs carried by the curve, one per jump.

    The angular derivative vanishes between jumps (the angle is
    piecewise constant), so the curve's kinetic measure reduces to the
    jump arcs; counter-clockwise arcs carry sign +1, clockwise -1, and
    the ensemble aggregation flips the overall sign.
    """
    t, x, s_plus = c["fwd"]
    if not np.isfinite(t):
        return []
    s_minus = np.mod(c["s0"], 2 * np.pi)
    ccw, length = arc_arrays(np.array([s_minus]), np.array([s_plus]))
    return [{"t": t, "x": list(x), "s_from": s_minus, "s_to": s_plus,
             "sign": 1.0 if ccw[0] else -1.0, "length": float(length[0])}]


def tot_var_s(c) -> float:
    """Total variation of the curve's angle: the summed jump arc lengths."""
    return float(sum(a["length"] for a in sigma_gamma(c)))


class ConstantFlow:
    """Uniform field on an axis box; no ridge.  Test double for the checker."""

    def __init__(self, half_width: float, half_height: float, direction: float = 0.0):
        self.bbox = (-half_width, half_width, -half_height, half_height)
        self.direction = direction
        self.ridge = None
        self.h = 0.02  # the cell size the ensemble check reads; with no ridge there is no jump for it to bin

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
    c = trace(ellipse, (0.0, 0.2), np.pi / 2, 2.0)
    assert not sigma_gamma(c) and not c["stuck"]
    # exits through the top of the inset subdomain
    assert c["end"][1] > 0.45
    assert abs(c["end"][0]) < 1e-12


def test_trace_downward_reflects(ellipse):
    c = trace(ellipse, (0.0, 0.2), 3 * np.pi / 2, 2.0)
    arcs = sigma_gamma(c)
    assert len(arcs) == 1
    j = arcs[0]
    assert j["t"] == pytest.approx(0.2, abs=1e-12)
    assert j["x"][1] == 0.0
    assert j["length"] <= np.pi + 1e-12
    assert j["s_to"] == pytest.approx(np.pi / 2)
    assert not c["stuck"]


def test_trace_constant_field_square():
    flow = ConstantFlow(1.0, 1.0, direction=0.0)
    elapsed, pos, stuck, t_ref, x_ref, s_ref = _trace_batch(
        flow, np.array([[0.0, 0.0]]), np.array([0.3]), np.array([5.0]), +1)
    assert np.isinf(t_ref[0]) and np.isnan(x_ref[0]).all() and s_ref[0] == 0.3
    assert not stuck[0]
    # exits through the right wall moving at angle 0.3
    assert pos[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_trace_batch_exits_in_one_call(ellipse):
    """A bounce, a free crossing and a curve that misses the ridge share one exit_time call."""
    flow = flow_on(ellipse, 1 / 80)  # inset 0.025
    calls = []

    def exit_time(p, v, t_end):
        calls.append(p.shape[0])
        return DomainFlow.exit_time(flow, p, v, t_end)

    flow.exit_time = exit_time
    starts = np.array([[0.0, 0.2], [0.5, 0.1], [0.0, 0.2]])
    angles = np.array([3 * np.pi / 2, 3.665, np.pi / 2])
    elapsed, pos, stuck, t_ref, x_ref, s_ref = _trace_batch(flow, starts, angles, np.full(3, 10.0), +1)
    assert np.isfinite(t_ref).tolist() == [True, False, False]
    assert not stuck.any()
    assert np.sign(pos[:, 1]).tolist() == [1.0, -1.0, 1.0]  # bounced back, crossed, never met the ridge
    assert calls == [3]


def test_unit_speed_between_events(ellipse):
    c = trace(ellipse, (0.1, 0.2), 3 * np.pi / 2 + 0.3, 1.5)
    for t0, t1 in ((0.02, 0.09), (0.03, 0.05)):
        p0, p1 = position(c, np.array([t0, t1]))
        assert np.hypot(*(p1 - p0)) == pytest.approx(t1 - t0, abs=1e-12)


def test_jumps_only_on_ridge(ellipse):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6)
        y = rng.uniform(0.05, 0.3)
        s = rng.uniform(np.pi, 2 * np.pi)
        for j in sigma_gamma(trace(ellipse, (x, y), s, 1.0)):
            assert j["x"][1] == 0.0
            assert j["length"] < np.pi + 1e-12


def test_sigma_gamma_bookkeeping(ellipse):
    c0 = trace(ellipse, (0.0, 0.2), np.pi / 2, 1.0)
    assert sigma_gamma(c0) == []
    assert tot_var_s(c0) == 0.0
    c1 = trace(ellipse, (-0.3, 0.1), -0.2, 2.0)
    arcs = sigma_gamma(c1)
    assert len(arcs) == np.isfinite(c1["fwd"][0]) == 1
    assert arcs[0]["length"] == pytest.approx(0.4, abs=1e-12)
    assert tot_var_s(c1) == pytest.approx(sum(a["length"] for a in arcs))


def test_stadium_bounce(stadium):
    c = trace(stadium, (1.0, 0.5), -np.pi / 4, 3.0)
    arcs = sigma_gamma(c)
    assert len(arcs) >= 1
    j = arcs[0]
    assert j["s_from"] == pytest.approx(-np.pi / 4 + 2 * np.pi)
    assert np.mod(j["s_to"], 2 * np.pi) == pytest.approx(np.pi / 4)


def same_tail(a: float, b: float) -> bool:
    # the closed-form series agree with scipy's Kolmogorov tail to 5e-15 on [0, 3]
    return abs(a - b) <= 1e-14 or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("arg", [-1.0, 0.0, 1e-300, 1e-8, 0.5, 1.36, 3.0, 20.0, 1e3, np.nan])
def test_ks_tail_is_kstwobign_sf(arg):
    assert same_tail(lagrangian.kolmogorov(arg), float(kstwobign.sf(arg)))


def test_ks_tail_matches_scipy_kolmogorov():
    # both series, their switch at y = 1 and the flat tail below y = 0.05
    for y in [*np.linspace(0.0, 3.0, 3001), 5.0, 10.0, np.inf]:
        assert same_tail(lagrangian.kolmogorov(float(y)), float(kolmogorov_sf(y))), y


def test_weighted_ks_p_value_is_kstwobign_sf(monkeypatch):
    # record the scaled statistic each call hands to the Kolmogorov tail
    args = []
    tail = lagrangian.kolmogorov
    monkeypatch.setattr(lagrangian, "kolmogorov", lambda a: args.append(a) or tail(a))
    rng = np.random.default_rng(3)
    x = rng.uniform(size=50)
    cases = [
        (x, np.ones(50), x, np.ones(50)),  # arg 0
        (np.array([0.0, 1.0]), np.ones(2), np.array([0.0, 0.5, 1.0]), np.array([1.0, 1e-15, 1.0])),  # ~4e-16
        (rng.uniform(size=60), rng.uniform(0.5, 2, 60), rng.uniform(size=80), rng.uniform(0.5, 2, 80)),  # ~0.9
        (rng.uniform(size=60), rng.uniform(0.5, 2, 60), rng.uniform(size=80) + 0.4, rng.uniform(0.5, 2, 80)),
        (rng.uniform(size=500), np.ones(500), rng.uniform(size=500) + 2, np.ones(500)),  # ~16
        (x, np.full(50, 1e200), x + 0.1, np.ones(50)),  # the effective size overflows: NaN
    ]
    for v1, w1, v2, w2 in cases:
        first = np.arange(v1.size + v2.size) < v1.size
        with np.errstate(over="ignore", invalid="ignore"):
            _, p = _weighted_ks(np.concatenate([v1, v2]), np.concatenate([w1, w2]), first, ~first)
        assert same_tail(p, float(kstwobign.sf(args[-1])))
    assert len(args) == len(cases)
    assert args[0] == 0.0 and 0 < args[1] < 1e-15 and 2 < args[3] < 4 and args[4] > 10 and np.isnan(args[5])


def test_ensemble_requires_thousand_curves(ellipse):
    with pytest.raises(ValueError):
        ensemble_representation_check(flow_on(ellipse), 10, 1.0, 0)


def test_ensemble_uniform_reference():
    flow = ConstantFlow(1.0, 0.8)
    rep = ensemble_representation_check(flow, 20000, 0.8, seed=3)
    assert rep.pushforward_ok
    assert rep.n_jumps == 0 and rep.stuck_curves == 0


def test_ensemble_ellipse_statistics(ellipse):
    rep = ensemble_representation_check(flow_on(ellipse), 20000, 1.0, seed=9)
    assert rep.pushforward_ok
    assert rep.ridge_mass_fraction >= 0.95
    assert 0.95 <= rep.cancellation_ratio <= 1.05
    assert rep.ks_p_value >= 0.01
    assert rep.stuck_curves == 0


def test_ensemble_seed_reproducible(ellipse):
    r1 = ensemble_representation_check(flow_on(ellipse), 2000, 0.6, seed=17)
    r2 = ensemble_representation_check(flow_on(ellipse), 2000, 0.6, seed=17)
    assert json.dumps(asdict(r1), sort_keys=True) == json.dumps(asdict(r2), sort_keys=True)


def test_endpoint_check_catches_a_bounce_without_a_turn(ellipse, monkeypatch):
    flow = flow_on(ellipse)
    ref = ensemble_representation_check(flow, 2000, 0.6, seed=17)
    assert ref.n_jumps > 0 and ref.endpoint_ok and ref.endpoint_error <= 1e-12
    trace = lagrangian._trace_batch

    def old_heading(flow, pos0, ang0, budget, direction):
        # reflected curves keep moving along the heading they arrived with
        elapsed, pos, stuck, t_ref, x_ref, ang = trace(flow, pos0, ang0, budget, direction)
        b = np.isfinite(t_ref)
        s0, d = np.broadcast_to(ang0, b.shape)[b], np.broadcast_to(direction, b.shape)[b]
        heading = d[:, None] * np.stack([np.cos(s0), np.sin(s0)], axis=-1)
        pos[b] = x_ref[b] + (elapsed[b] - t_ref[b])[:, None] * heading
        return elapsed, pos, stuck, t_ref, x_ref, ang

    monkeypatch.setattr(lagrangian, "_trace_batch", old_heading)
    bad = ensemble_representation_check(flow, 2000, 0.6, seed=17)
    assert not bad.endpoint_ok
    # no other verdict or statistic sees the mutation
    others = lambda rep: {k: v for k, v in asdict(rep).items() if not k.startswith("endpoint")}
    assert others(bad) == others(ref)


@given(data=st.data())
def test_bin_index_is_where_histogramdd_bins(data):
    """Every edge, one ulp to either side, the closed last edge and points outside land as histogramdd puts them."""
    lo, width = data.draw(st.floats(-10.0, 10.0)), data.draw(st.floats(1e-3, 20.0))
    edges = np.linspace(lo, lo + width, data.draw(st.integers(1, 12)) + 1)
    ulp = [np.nextafter(e, side) for e in edges for side in (-np.inf, np.inf)]
    drawn = data.draw(st.lists(st.floats(lo - width, lo + 2 * width), max_size=20))
    v = np.array([*edges, *ulp, -np.inf, np.inf, np.nan, *drawn])
    hist = [np.histogramdd(np.array([[x]]), bins=[edges])[0] for x in v]
    expected = [int(np.flatnonzero(h)[0]) if h.any() else -1 for h in hist]
    assert lagrangian._bin_index(v, edges).tolist() == expected


@given(seed=st.integers(0, 2**32 - 1))
def test_chunk_histogram_is_one_histogramdd_per_probe(seed):
    """One bincount over the four probe rows equals four histogramdd calls bit for bit."""
    rng = np.random.default_rng(seed)
    edges = (np.linspace(-1.1, 3.1, 11), np.linspace(-1.1, 1.1, 7), np.linspace(0.0, 2 * np.pi, 9))
    n = 300

    def values(e, shape):
        # inside, on an edge (the closed last one too), one ulp off an edge, outside
        pool = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), [e[0] - 1, e[-1] + 1]])
        v = rng.uniform(e[0], e[-1], shape)
        pick = rng.uniform(size=shape) < 0.3
        v[pick] = rng.choice(pool, pick.sum())
        return v

    x = np.stack([values(edges[0], (4, n)), values(edges[1], (4, n))], axis=-1)
    x[0, :3, 0] = np.nan, np.inf, -np.inf
    s = values(edges[2], (4, n)) + rng.integers(-1, 2, (4, n)) * 2 * np.pi
    alive = rng.uniform(size=(4, n)) < 0.8
    weights = rng.uniform(0.5, 3.0, n)
    got = lagrangian._histograms(x, s, alive, weights, edges)
    want = np.stack([np.histogramdd(np.column_stack([x[j, alive[j]], np.mod(s[j, alive[j]], 2 * np.pi)]),
                                    bins=edges, weights=weights[alive[j]])[0] for j in range(4)])
    assert got.tobytes() == want.tobytes()


DOMAINS = pytest.mark.parametrize("domain", [Ellipse(1.0, 0.5), Stadium(2.0, 1.0)], ids=["ellipse", "stadium"])


@pytest.mark.parametrize("chunk", [1000, 777])
@DOMAINS
def test_ensemble_is_chunk_invariant(domain, chunk, monkeypatch):
    """The chunk size sets how many curves are held at once, not what is drawn or reported."""
    n = 3000
    flow = flow_on(domain)
    inside, trace = flow.inside, lagrangian._trace_batch
    tested, calls = [], []
    monkeypatch.setattr(flow, "inside", lambda x: tested.append(len(x)) or inside(x))
    monkeypatch.setattr(lagrangian, "_trace_batch", lambda *a, **k: calls.append(a) or trace(*a, **k))

    def run(size):
        monkeypatch.setattr(lagrangian, "_CHUNK", size)
        tested.clear()
        sample = lagrangian.sample_chi_points(flow, n, np.random.default_rng(5))
        n_tested = sum(tested)
        calls.clear()
        rep = asdict(ensemble_representation_check(flow, n, 0.5, seed=5))
        chi2 = [probe.pop("chi2") for probe in rep["probes"]]
        return sample, n_tested, len(calls), rep, chi2

    (pts_ref, angs_ref), tested_ref, _, ref, chi2_ref = run(10**9)
    (pts, angs), n_tested, n_calls, rep, chi2 = run(chunk)
    assert np.array_equal(pts, pts_ref) and np.array_equal(angs, angs_ref)
    # one round of 2n candidates; chunks past the n-th kept point go untested
    assert tested_ref == 2 * n and n_tested < 2 * n
    assert n_calls == math.ceil(n / chunk)
    assert ref["n_jumps"] > 0 and rep == ref
    np.testing.assert_allclose(chi2, chi2_ref, rtol=1e-12, atol=0)


@DOMAINS
def test_ensemble_memory_grows_by_the_sample_not_the_trace(domain):
    """Beyond one chunk the check holds, per curve, its sampled phase point, its draws and its jump records."""
    flow = flow_on(domain)
    peaks = []
    for n in (10000, 40000):
        tracemalloc.start()
        try:
            ensemble_representation_check(flow, n, 0.5, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # measured: 86 B per curve on the ellipse, 65 B on the stadium; the bound leaves 14 B
    assert (peaks[1] - peaks[0]) / 30000 <= 100  # bytes per curve


# ---------------------------------------------------------------------------
# the sampler of {chi = 1}


def rejection_sample_chi_points(flow, n, rng):
    """Reference sampler: x, y and s drawn together, kept when inside and admissible.

    Each round draws 4(n - have) candidates (at least 1024) and tests them
    ``_CHUNK`` at a time up to the chunk that brings the n-th kept point;
    ``flow.m`` is read at every candidate inside, kept or not.
    """
    x0, x1, y0, y1 = flow.bbox
    pts, angs, have = np.empty((n, 2)), np.empty(n), 0
    while have < n:
        k = max(4 * (n - have), 1024)
        xs, ys, ss = rng.uniform(x0, x1, k), rng.uniform(y0, y1, k), rng.uniform(0.0, 2 * np.pi, k)
        for i in range(0, k, lagrangian._CHUNK):
            if have >= n:
                break
            cand = np.stack([xs[i:i + lagrangian._CHUNK], ys[i:i + lagrangian._CHUNK]], axis=-1)
            s = ss[i:i + lagrangian._CHUNK]
            keep = flow.inside(cand)
            m = flow.m(cand[keep])
            keep[keep] = (np.cos(s[keep]) * m[..., 0] + np.sin(s[keep]) * m[..., 1]) > lagrangian._CHI_TOL
            got = np.flatnonzero(keep)[:n - have]
            pts[have:have + got.size], angs[have:have + got.size] = cand[got], s[got]
            have += got.size
    return pts, angs


def two_stage_sample_chi_points(flow, n, rng):
    """Reference sampler: positions first, then angles tested on e^{is}.m(x) itself.

    The positions are drawn and kept as ``sample_chi_points`` keeps them.
    Then m is read at the kept points ``_CHUNK`` at a time, each angle is
    arg m(x) + pi (u - 1/2) mod 2 pi, and a start whose e^{is}.m(x) is not
    above ``_CHI_TOL`` draws its u again, reading m again at its point.
    """
    x0, x1, y0, y1 = flow.bbox
    chunk = lagrangian._CHUNK
    pts, have = np.empty((n, 2)), 0
    while have < n:
        k = max(2 * (n - have), 1024)
        xs, ys = rng.uniform(x0, x1, k), rng.uniform(y0, y1, k)
        for i in range(0, k, chunk):
            if have >= n:
                break
            cand = np.stack([xs[i:i + chunk], ys[i:i + chunk]], axis=-1)
            got = np.flatnonzero(flow.inside(cand))[:n - have]
            pts[have:have + got.size] = cand[got]
            have += got.size

    def half_circle(x, u):
        m = flow.m(x)
        s = np.mod(np.arctan2(m[:, 1], m[:, 0]) + np.pi * (u - 0.5), 2 * np.pi)
        return s, np.cos(s) * m[:, 0] + np.sin(s) * m[:, 1] > lagrangian._CHI_TOL

    u = rng.uniform(0.0, 1.0, n)
    angs, ok = np.empty(n), np.empty(n, dtype=bool)
    for i in range(0, n, chunk):
        angs[i:i + chunk], ok[i:i + chunk] = half_circle(pts[i:i + chunk], u[i:i + chunk])
    redo = np.flatnonzero(~ok)
    while redo.size:
        s, ok = half_circle(pts[redo], rng.uniform(0.0, 1.0, redo.size))
        angs[redo[ok]] = s[ok]
        redo = redo[~ok]
    return pts, angs


@DOMAINS
def test_sampler_has_the_law_of_the_rejection_sampler(domain):
    """Two-sample KS on x1, x2 and s - arg m(x), 200k points a side, independent seeds.

    Each of the three p-values is tested at 1e-3, so two samplers with
    one law fail it on a domain with probability under 0.3% over seeds.
    At these seeds: 0.33, 0.61, 0.22 (ellipse) and 0.63, 0.59, 0.15 (stadium).
    """
    flow = flow_on(domain)
    n = 200_000

    def coordinates(pts, angs):
        m = flow.m(pts)
        relative = np.mod(angs - np.arctan2(m[:, 1], m[:, 0]) + np.pi, 2 * np.pi) - np.pi
        return pts[:, 0], pts[:, 1], relative

    sampled = coordinates(*lagrangian.sample_chi_points(flow, n, np.random.default_rng(11)))
    rejection = coordinates(*rejection_sample_chi_points(flow, n, np.random.default_rng(12)))
    assert np.all(np.abs(sampled[2]) < 0.5 * np.pi)
    for a, b in zip(sampled, rejection):
        assert ks_2samp(a, b).pvalue > 1e-3


def sampled_flows():
    """Ellipses with b/a in [0.1, 1] (the disk too), the stadium, and uniform fields on a box."""
    ellipse = st.one_of(st.just(1.0), st.floats(0.1, 1.0)).map(lambda r: flow_on(Ellipse(1.0, r)))
    constant = st.floats(0.0, 2 * np.pi).map(lambda d: ConstantFlow(1.0, 0.8, direction=d))
    return st.one_of(ellipse, st.just(flow_on(Stadium(2.0, 1.0))), constant)


@given(data=st.data())
def test_every_sampled_start_is_inside_and_admissible(data):
    flow = data.draw(sampled_flows())
    chunk = data.draw(st.integers(7, 300))
    n = data.draw(st.integers(1, 1023).filter(lambda n: n % chunk))
    seed = data.draw(st.integers(0, 2**32 - 1))
    with mock.patch.object(lagrangian, "_CHUNK", chunk):
        pts, angs = lagrangian.sample_chi_points(flow, n, np.random.default_rng(seed))
        ref_pts, ref_angs = two_stage_sample_chi_points(flow, n, np.random.default_rng(seed))
    m = flow.m(pts)
    assert pts.shape == (n, 2) and angs.shape == (n,)
    assert np.all(flow.inside(pts))
    assert np.all(np.cos(angs) * m[:, 0] + np.sin(angs) * m[:, 1] > lagrangian._CHI_TOL)
    # testing sin(pi u) in place of e^{is}.m(x) keeps every draw and every bit
    assert pts.tobytes() == ref_pts.tobytes() and angs.tobytes() == ref_angs.tobytes()


def test_sampler_redraws_the_sliver():
    """Starts at the ends of the half circle, where e^{is}.m is not above _CHI_TOL, draw their angle again."""
    flow, n = ConstantFlow(1.0, 0.8, direction=0.3), 2000
    angle_draws = []

    class EndsFirst:
        """The first draw on [0, 1) puts every fourth start on each end of the half circle."""

        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)

        def uniform(self, lo, hi, size):
            u = self.rng.uniform(lo, hi, size)
            if (lo, hi) == (0.0, 1.0):
                if not angle_draws:
                    u[0::4], u[1::4] = 0.0, np.nextafter(1.0, 0.0)
                angle_draws.append(size)
            return u

    with mock.patch.object(flow, "m", wraps=flow.m) as read_m:
        pts, angs = lagrangian.sample_chi_points(flow, n, EndsFirst(4))
    # m is read once per kept position, not again at a redrawn start
    assert sum(len(call.args[0]) for call in read_m.call_args_list) == n
    ref_pts, ref_angs = lagrangian.sample_chi_points(flow, n, np.random.default_rng(4))
    m = flow.m(pts)
    assert np.all(np.cos(angs) * m[:, 0] + np.sin(angs) * m[:, 1] > lagrangian._CHI_TOL)
    # the 1000 starts on the ends, and only they, are drawn again
    assert angle_draws == [n, n // 2]
    untouched = np.arange(n) % 4 >= 2
    assert np.array_equal(pts, ref_pts) and np.array_equal(angs[untouched], ref_angs[untouched])


# ---------------------------------------------------------------------------
# hard inputs for the event tracer

HARD_FLOWS = [flow_on(Ellipse(1.0, 0.5), 1 / 80), flow_on(Stadium(2.0, 1.0))]  # insets 0.025 and 1/32


def exit_curve(flow, t):
    """Points of the curve {sd = level}, where traced curves exit, and their outward unit normals.

    Each t in [0, 1] picks a point x of an elliptic ring inside the domain
    and off the ridge; along x's normal line the gradient of sd is constant,
    so x + (level - sd(x)) grad(x) lies on the exit curve, with normal -grad(x).
    """
    dom = flow.domain
    if isinstance(dom, Ellipse):
        cx, ax, ay = 0.0, 0.9 * dom.a, 0.9 * dom.b
    else:
        cx, ax, ay = 0.5 * dom.L, 0.5 * (dom.L + dom.R), 0.5 * dom.R
    t = 2 * np.pi * np.asarray(t, dtype=float)
    ring = np.stack([cx + ax * np.cos(t), ay * np.sin(t)], axis=-1)
    sd, grad = geometry.signed_distance_grad(dom, ring)
    return ring + (flow.level - sd)[..., None] * grad, -grad


def on_exit_curve(flow):
    """A point of the exit curve and its outward unit normal."""
    return st.floats(0.0, 1.0).map(lambda t: exit_curve(flow, t))


def hard_starts(flow, direction):
    """(start, angle) pairs on the inputs that are numerically hard for the tracer."""
    lo, hi = flow.ridge.lo, flow.ridge.hi
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
    elapsed, pos, stuck, t_ref, x_ref, s_ref = _trace_batch(
        flow, start, np.array([s]), np.array([budget]), direction)
    assert elapsed[0] <= budget
    # at most one ridge event, and events sit on the ridge segment
    reflected = bool(np.isfinite(t_ref[0]))
    assert reflected + stuck[0] <= 1
    if reflected:
        assert x_ref[0, 1] == 0.0
        assert flow.ridge.lo <= x_ref[0, 0] <= flow.ridge.hi
    if stuck[0]:
        assert pos[0, 1] == 0.0
    else:
        gap = geometry.signed_distance(flow.domain, pos[0]) - flow.level
        assert gap >= -1e-12
        if budget == 10.0:  # longer than any path, so the curve exits
            assert elapsed[0] < budget and abs(gap) <= 1e-12
    # start, event and end in time order, unit speed along the recorded angle between them
    times = [0.0, t_ref[0], elapsed[0]] if reflected else [0.0, elapsed[0]]
    points = [start[0], x_ref[0], pos[0]] if reflected else [start[0], pos[0]]
    angles = [s, s_ref[0]] if reflected else [s]
    assert np.all(np.diff(times) >= 0.0)
    for k, a in enumerate(angles):
        step = direction * (times[k + 1] - times[k]) * np.array([np.cos(a), np.sin(a)])
        assert np.abs(points[k + 1] - points[k] - step).max() <= 1e-12


@pytest.mark.parametrize("flow", HARD_FLOWS, ids=["ellipse", "stadium"])
@given(data=st.data())
def test_trace_both_ways_in_one_call(flow, data):
    """One call tracing every start both ways returns bit for bit what two one-way calls return."""
    pairs = data.draw(st.lists(st.one_of(hard_starts(flow, 1), hard_starts(flow, -1)), min_size=1, max_size=6))
    budget = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.just(10.0), st.floats(0.0, 0.3)),
                                         min_size=2 * len(pairs), max_size=2 * len(pairs)))).reshape(2, -1)
    starts, angles = np.array([p for p, _ in pairs]), np.array([s for _, s in pairs])
    keep = flow.inside(starts)
    assume(keep.any())
    starts, angles, budget = starts[keep], angles[keep], budget[:, keep]
    both = _trace_batch(flow, starts, angles, budget, lagrangian._BOTH_WAYS)
    for row, direction in enumerate((1, -1)):
        one = _trace_batch(flow, starts, angles, budget[row], direction)
        assert [r[row].tobytes() for r in both] == [r.tobytes() for r in one]
    # a start outside the domain is refused, however many ways it is traced
    outside = np.vstack([starts, [[flow.bbox[1] + 1.0, 0.0]]])
    with pytest.raises(ValueError):
        _trace_batch(flow, outside, np.append(angles, 0.0), np.ones((2, len(outside))), lagrangian._BOTH_WAYS)


@pytest.mark.parametrize("flow", HARD_FLOWS, ids=["ellipse", "stadium"])
@given(data=st.data())
def test_curve_at_reflection_tie(flow, data):
    """At its reflection time a curve is on the outgoing line forward and on the start line backward."""
    lo, hi = flow.ridge.lo, flow.ridge.hi
    direction = data.draw(st.sampled_from([1, -1]))
    s = data.draw(st.floats(0.0, 2 * np.pi))
    # the start's line meets the ridge at (xc, 0) after time d
    xc, d = data.draw(st.floats(lo, hi)), data.draw(st.floats(1e-6, 0.5))
    start = np.array([[xc - direction * d * np.cos(s), -direction * d * np.sin(s)]])
    assume(flow.inside(start)[0])
    _, _, _, t_ref, x_ref, s_ref = _trace_batch(flow, start, np.array([s]), np.array([10.0]), direction)
    assume(np.isfinite(t_ref[0]))
    t0 = data.draw(st.floats(0.0, 1.0))
    t_r = t0 + direction * t_ref[0]
    record = (t_r, x_ref[0], s_ref[0])
    fwd, bwd = (record, NO_REFLECTION) if direction == 1 else ((np.inf, np.nan, np.nan), record)
    x, a = curve_at(np.array([np.nextafter(t_r, -np.inf), t_r]), start[0], t0, s, fwd, bwd)
    assert a.tolist() == ([s, s_ref[0]] if direction == 1 else [s_ref[0], s])
    assert np.abs(x[1] - x[0]).max() <= 1e-12


def nested_where_curve_at(t, start, t0, s0, fwd, bwd):
    """The placement rule of ``curve_at`` as two nested ``np.where`` over every entry and quantity."""
    (t_f, x_f, s_f), (t_b, x_b, s_b) = fwd, bwd
    after, before = t >= t_f, t < t_b

    def line(f, b, s):
        return np.where(after, f, np.where(before, b, s))

    def coord(i, trig):
        base = line(*(p[..., i] if np.ndim(p) else p for p in (x_f, x_b, start)))
        return base + dt * line(trig(s_f), trig(s_b), trig(s0))

    dt = t - line(t_f, t_b, t0)
    return np.stack([coord(0, np.cos), coord(1, np.sin)], axis=-1), line(s_f, s_b, s0)


def reflecting_starts(flow, direction, n):
    """n starts whose lines meet the ridge after a drawn time when traced in ``direction``."""
    lo, hi = flow.ridge.lo, flow.ridge.hi
    one = st.builds(lambda s, xc, d: ((xc - direction * d * np.cos(s), -direction * d * np.sin(s)), s),
                    st.floats(0.0, 2 * np.pi), st.floats(lo, hi), st.floats(1e-6, 0.5))
    return st.lists(one, min_size=n, max_size=n)


@pytest.mark.parametrize("flow", HARD_FLOWS, ids=["ellipse", "stadium"])
@given(data=st.data())
def test_curve_at_is_the_right_continuous_rule(flow, data):
    """Times before, at and after both reflection instants land on the line the docstring names, bit for bit.

    Curve k runs from its start on its own forward record and on the
    backward record of another start traced backward (a real curve
    reflects in one direction of time at most, but the rule takes any
    two records); with ``overlap`` the backward instant follows the
    forward one, where the forward line wins.
    """
    n = 4
    recs = []
    for direction in (1, -1):
        pairs = data.draw(reflecting_starts(flow, direction, n))
        starts, angles = np.array([p for p, _ in pairs]), np.array([a for _, a in pairs])
        assume(flow.inside(starts).all())
        rec = _trace_batch(flow, starts, angles, np.full(n, 10.0), direction)[3:]
        first = np.argsort(~np.isfinite(rec[0]), kind="stable")  # reflecting curves first, so curve 0 has both
        recs.append([r[first] for r in (starts, angles, *rec)])
    (start, s0, tf_ref, x_f, s_f), (_, _, tb_ref, x_b, s_b) = recs
    assume(np.isfinite(tf_ref[0]) and np.isfinite(tb_ref[0]))
    t0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    t_f = t0 + tf_ref
    if data.draw(st.booleans(), label="overlap"):
        t_b = np.where(np.isfinite(tf_ref), t_f, t0) + np.array(data.draw(
            st.lists(st.sampled_from([0.0, 1e-9, 0.25]), min_size=n, max_size=n)))
    else:
        t_b = t0 - tb_ref
    t_b = np.where(np.isfinite(tb_ref), t_b, -np.inf)
    # each instant, the floats either side of it, the start and a drawn time, per curve
    instants = [np.where(np.isfinite(r), r, t0 + k) for r, k in ((t_f, 1.0), (t_b, -1.0))]
    t = np.vstack([np.nextafter(r, side) for r in instants for side in (-np.inf, r, np.inf)]
                  + [t0, np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))])
    cases = [((t_f, x_f, s_f), (t_b, x_b, s_b)), ((t_f, x_f, s_f), NO_REFLECTION)]
    for fwd, bwd in cases:
        x, s = curve_at(t, start, t0, s0, fwd, bwd)
        ref_x, ref_s = nested_where_curve_at(t, start, t0, s0, fwd, bwd)
        assert x.tobytes() == ref_x.tobytes() and s.tobytes() == ref_s.tobytes()
        # the angle is right-continuous: the forward line from its instant on, the backward strictly before its own
        tb, sb = (np.broadcast_to(r, t0.shape) for r in (bwd[0], bwd[2]))
        for (j, k), tk in np.ndenumerate(t):
            assert s[j, k] == (s_f[k] if tk >= t_f[k] else sb[k] if tk < tb[k] else s0[k])


@pytest.mark.parametrize("flow", HARD_FLOWS, ids=["ellipse", "stadium"])
def test_trace_batch_reads_crossings_from_the_ridge_record(flow, monkeypatch):
    """Admissibility at a crossing comes from ``flow.ridge.data``; the field is never probed."""
    calls = []
    m = DomainFlow.m
    monkeypatch.setattr(DomainFlow, "m", lambda self, x: calls.append(len(x)) or m(self, x))
    x = flow.ridge.lo + np.array([0.3, 0.3, 0.7, 0.7]) * flow.ridge.length
    starts = np.stack([x, [0.1, 0.1, -0.1, -0.1]], axis=-1)
    angles = np.array([-0.25, -0.75, 0.25, 0.75]) * np.pi
    _, pos, stuck, t_ref, _, _ = _trace_batch(flow, starts, angles, np.full(4, 10.0), +1)
    crossed = np.sign(pos[:, 1]) != np.sign(starts[:, 1])
    assert np.isfinite(t_ref).any() and crossed.any() and not stuck.any()
    assert calls == []


def test_start_outside_domain_raises(ellipse):
    with pytest.raises(ValueError):
        trace(ellipse, (1.5, 0.1), np.pi, 1.0)


def newton_from_every_end(flow, p, v, t_end):
    """Exit times by Newton from every segment end, those in the domain included."""
    t, live = np.array(t_end, dtype=float), np.arange(len(t_end))
    while live.size:
        x = p + t[live, None] * v
        sd, grad = geometry.signed_distance_grad(flow.domain, x)
        g = sd - flow.level
        out = g < -16 * np.finfo(float).eps * np.maximum(np.abs(x[:, 0]), np.abs(x[:, 1]))
        live, p, v = live[out], p[out], v[out]
        t[live] -= g[out] / (grad[out, 0] * v[:, 0] + grad[out, 1] * v[:, 1])
    return t


@pytest.mark.parametrize("flow", HARD_FLOWS, ids=["ellipse", "stadium"])
def test_exit_time_projects_no_end_in_the_domain(flow, monkeypatch):
    """Segment ends in the domain never reach ``signed_distance_grad``; the exit times stay bit for bit."""
    rng = np.random.default_rng(5)
    x0, x1, y0, y1 = flow.bbox
    p = np.stack([rng.uniform(x0, x1, 4000), rng.uniform(y0, y1, 4000)], axis=-1)
    p = p[flow.inside(p)]
    ang = rng.uniform(0.0, 2 * np.pi, len(p))
    v = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    t_end = rng.uniform(0.0, 1.5, len(p))
    reference = newton_from_every_end(flow, p, v, t_end)
    queried = []
    sdg = geometry.signed_distance_grad
    monkeypatch.setattr(geometry, "signed_distance_grad", lambda dom, x: queried.append(x) or sdg(dom, x))

    ends = p + t_end[:, None] * v
    ins = flow.domain.contains(ends)
    assert ins.any() and (~ins).any() and (~flow.inside(ends)).any()
    t = flow.exit_time(p[ins], v[ins], t_end[ins])
    assert queried == [] and t.tobytes() == t_end[ins].tobytes()

    t = flow.exit_time(p, v, t_end)
    assert queried[0].tobytes() == ends[~ins].tobytes()
    assert t.tobytes() == reference.tobytes()


@pytest.mark.parametrize("flow", HARD_FLOWS, ids=["ellipse", "stadium"])
def test_exit_newton_steps_bounded(flow, monkeypatch):
    """Exactly tangent exits from 1e-6 to 1e-15 inside take at most 30 Newton steps.

    Their roots lie down to 1e-8 from the start while Newton starts 10
    away and, where sd is quadratic along the ray, roughly halves t per
    step: the slowest inputs found.
    """
    monkeypatch.setattr(lagrangian, "_EXIT_MAX_ITER", 30)
    e, n = exit_curve(flow, np.linspace(0.0, 1.0, 200))
    for depth in (1e-6, 1e-10, 1e-13, 1e-15):
        for side in (1.0, -1.0):
            p = e - depth * n
            v = side * np.stack([-n[:, 1], n[:, 0]], axis=-1)
            keep = flow.inside(p)
            t = flow.exit_time(p[keep], v[keep], np.full(keep.sum(), 10.0))
            x = p[keep] + t[:, None] * v[keep]
            assert np.abs(geometry.signed_distance(flow.domain, x) - flow.level).max() <= 1e-12
