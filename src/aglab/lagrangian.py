"""Characteristic curves of the limit field and ensemble statistics.

Curves move in straight lines at unit speed with a constant angle
between events.  At a ridge crossing the angle either carries over
unchanged (when it is admissible on the far side) or is reflected
across the ridge line, ``s -> 2*sbar - s + pi`` with the ridge bisector
``sbar``; for the horizontal ridge this is the mirror ``s -> -s`` and
the curve re-enters its own side.  For the reference field the mirrored
angle is admissible on the near side exactly when the crossing is
blocked, so the rule is total away from ties.

The tracer therefore has no time step: it moves each curve from event to
event.  The ridge y = 0 is met at ``-y / v_y``, and the exit from the
convex domain {sd > level} is the root of sd - level along the ray,
which Newton reaches monotonically from the far end of the segment.
After a free crossing or a reflection a curve sits at y = 0 on a
straight line that never returns to it, so every curve has at most one
ridge event in each direction of time.  The tracer therefore returns
one record per curve and direction (the reflection's time, point and
outgoing angle) in place of a path: a curve is its start, its two
records and its ends, and ``curve_at`` reads its position and angle at
any time from them.

The ensemble check samples phase points uniformly from {chi = 1} on an
inset subdomain, attaches a uniform random time in (0, T), traces each
curve forward and backward to exit or window edge, and reweights by
T / lifetime, which makes the time-t pushforward an unbiased estimate
of the chi density at every probe time.  Jump arcs aggregate (with the
sign convention that clockwise arcs contribute positively) into an
empirical kinetic measure used for concentration, cancellation, and
stationarity statistics.  The stationarity p-value is the asymptotic
Kolmogorov tail ``scipy.special.kolmogorov`` of the scaled two-sample
statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from . import geometry
from .errors import NoConvergence
from .geometry import Domain, ridge_span

TWO_PI = 2.0 * np.pi
MIN_CURVES = 1000  # the smallest ensemble the representation check accepts
_PROBE_FRACS = (0.2, 0.4, 0.6, 0.8)  # probe times of the pushforward test, as fractions of T
_MIN_EXPECTED = 8.0  # a bin enters the chi-squared sum once it expects this many effective curves
_SIDE_EPS = 1e-30
_CHI_TOL = 1e-12
_EXIT_MAX_ITER = 40


# ---------------------------------------------------------------------------
# flow fields


class DomainFlow:
    """Reference flow of a domain restricted to the inset subdomain."""

    def __init__(self, domain: Domain, inset: float):
        if inset >= domain.delta:
            raise ValueError("inset must be smaller than the collar width")
        self.domain = domain
        self.inset = inset
        self.level = inset - domain.delta  # inside <=> signed_distance > level
        lo, hi = ridge_span(domain)
        self.ridge = (lo, hi, geometry.RIDGE_SBAR) if hi > lo else None
        (x0, x1), (y0, y1) = domain.bounding_box()
        self.bbox = (x0, x1, y0, y1)

    def m(self, x: np.ndarray) -> np.ndarray:
        return geometry.limit_vector_field(self.domain, x)

    def inside(self, x: np.ndarray) -> np.ndarray:
        # in the domain sd >= 0 > level, so only the other points are projected
        keep = self.domain.contains(x)
        out = ~keep
        keep[out] = geometry.signed_distance(self.domain, x[out]) > self.level
        return keep

    def exit_time(self, p: np.ndarray, v: np.ndarray, t_end: np.ndarray) -> np.ndarray:
        """First t at which p + t v leaves {sd > level}, or t_end if it stays inside.

        Newton on g(t) = sd(p + t v) - level, started from t_end.  The
        domain is convex, so sd is a minimum of affine functions and hence
        concave along the ray; from a point outside (g < 0) Newton
        decreases t monotonically to the root, with no bracket and no
        bisection.  A point is frozen once g >= -16 eps max|x_i|, the
        rounding floor of sd at x; on the first step this means that the
        segment end is inside.
        """
        t = np.array(t_end, dtype=float)
        live = np.arange(t.size)
        for _ in range(_EXIT_MAX_ITER):
            x = p[live] + t[live, None] * v[live]
            sd, grad = geometry._signed_distance_grad(self.domain, x)
            g = sd - self.level
            out = g < -16 * np.finfo(float).eps * np.abs(x).max(axis=-1)
            live = live[out]
            if not live.size:
                return t
            t[live] -= g[out] / np.sum(grad[out] * v[live], axis=-1)
        raise NoConvergence("exit-time iteration did not converge")


# ---------------------------------------------------------------------------
# batched tracer


def _trace_batch(flow, pos0: np.ndarray, ang0: np.ndarray, budget: np.ndarray, direction: int):
    """Trace a batch of curves to their exits, through at most one ridge event each.

    A curve moves at unit speed on a straight line.  It meets the ridge
    at ``-y / v_y`` when that time is within its budget and the crossing
    lies in the ridge span; there it crosses freely, reflects, or stops
    (dead, counted as stuck).  A free crossing or a reflection leaves
    y = 0 on a straight line that never meets it again, so one ridge test
    and one ``flow.exit_time`` call, which takes every curve that is not
    dead to the first of its exit from the flow's domain and the end of
    its budget, trace the whole batch.

    Raises ValueError when a start lies outside the flow's domain.
    Returns elapsed times, final positions and stuck flags, and per curve
    the reflection record: its time (inf where the curve does not
    reflect), its position (NaN where it does not) and the angle after
    it, which is the curve's final angle.
    """
    pos = np.array(pos0, dtype=float)
    ang = np.array(ang0, dtype=float)
    if not np.all(flow.inside(pos)):
        raise ValueError("a characteristic starts outside the traced domain")
    n = pos.shape[0]
    elapsed = np.zeros(n)
    stuck = np.zeros(n, dtype=bool)
    t_ref = np.full(n, np.inf)
    x_ref = np.full((n, 2), np.nan)
    # motion is direction * e^{is}; admissibility always references e^{is}
    v = direction * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if flow.ridge is not None:
        r_lo, r_hi, r_sbar = flow.ridge
        # a tiny or zero v_y gives an infinite or NaN tau, which fails every test below
        with np.errstate(all="ignore"):
            tau = -pos[:, 1] / v[:, 1]
            xc = pos[:, 0] + tau * v[:, 0]
            c = np.flatnonzero((tau > 1e-14) & (tau <= budget) & (xc >= r_lo) & (xc <= r_hi))
        tau, xc, cur_ang = tau[c], xc[c], ang[c]
        from_above = pos[c, 1] > 0
        far_y = np.where(from_above, -_SIDE_EPS, _SIDE_EPS)
        m_far = flow.m(np.stack([xc, far_y], axis=-1))
        blocked = np.cos(cur_ang) * m_far[:, 0] + np.sin(cur_ang) * m_far[:, 1] <= _CHI_TOL
        # free crossers keep their angle; blocked ones reflect
        s_new = np.mod(2.0 * r_sbar - cur_ang + np.pi, TWO_PI)
        m_near = flow.m(np.stack([xc, -far_y], axis=-1))
        dead = blocked & (np.cos(s_new) * m_near[:, 0] + np.sin(s_new) * m_near[:, 1] < -_CHI_TOL)
        bounce = blocked & ~dead

        elapsed[c] = tau
        pos[c] = np.stack([xc, np.zeros(c.size)], axis=-1)
        stuck[c[dead]] = True
        b = c[bounce]
        t_ref[b] = tau[bounce]
        x_ref[b] = pos[b]
        ang[b] = s_new[bounce]
        v[b] = direction * np.stack([np.cos(ang[b]), np.sin(ang[b])], axis=-1)

    go = np.flatnonzero((budget > 0) & ~stuck)
    t = flow.exit_time(pos[go], v[go], budget[go] - elapsed[go])
    pos[go] += t[:, None] * v[go]
    # after a ridge event, tau + (budget - tau) can round above the budget
    elapsed[go] = np.minimum(elapsed[go] + t, budget[go])
    return elapsed, pos, stuck, t_ref, x_ref, ang


def curve_at(t, start, t0, s0, fwd, bwd) -> tuple[np.ndarray, np.ndarray]:
    """Positions and angles at times ``t`` of curves given by their records.

    A curve passes ``start`` at time ``t0`` with angle ``s0``.  ``fwd`` and
    ``bwd`` are its forward and backward reflection records, each a
    (time, point, outgoing angle) triple whose time is +inf (forward) or
    -inf (backward) where the curve does not reflect.  The angle is
    right-continuous in forward time: from the forward reflection time on
    the curve runs on the forward record's line, strictly before the
    backward reflection time on the backward record's, and in between on
    the start's.  Times and angles broadcast against each other; points
    carry a trailing axis of 2.
    """
    (t_f, x_f, s_f), (t_b, x_b, s_b) = fwd, bwd
    after, before = t >= t_f, t < t_b
    base_t = np.where(after, t_f, np.where(before, t_b, t0))
    base_x = np.where(after[..., None], x_f, np.where(before[..., None], x_b, start))
    s = np.where(after, s_f, np.where(before, s_b, s0))
    return base_x + (t - base_t)[..., None] * np.stack([np.cos(s), np.sin(s)], axis=-1), s


def _arc_arrays(s_minus: np.ndarray, s_plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ccw_len = np.mod(s_plus - s_minus, TWO_PI)
    ccw = ccw_len <= np.pi + 1e-14
    length = np.where(ccw, ccw_len, TWO_PI - ccw_len)
    return ccw, length


# ---------------------------------------------------------------------------
# ensemble check


def _circ_overlap(a0: np.ndarray, a_len: float, b0: np.ndarray, b_len: float) -> np.ndarray:
    """Length of the overlap of circle arcs [a0, a0+a_len) and [b0, b0+b_len)."""
    s = np.mod(b0 - a0, TWO_PI)
    first = np.maximum(0.0, np.minimum(a_len, s + b_len) - s)
    s2 = s - TWO_PI
    second = np.maximum(0.0, np.minimum(a_len, s2 + b_len) - np.maximum(0.0, s2))
    return first + second


@dataclass
class ProbeStat:
    t: float
    chi2: float
    dof: int
    threshold: float
    ok: bool


@dataclass
class EnsembleReport:
    n_curves: int
    window: float
    seed: int
    stuck_curves: int
    n_jumps: int
    endpoint_error: float
    endpoint_ok: bool
    probe_stats: list[ProbeStat]
    pushforward_ok: bool
    ridge_mass_fraction: float
    concentration_ok: bool
    cancellation_ratio: float
    cancellation_ok: bool
    ks_statistic: float
    ks_p_value: float
    stationarity_ok: bool

    def to_json(self) -> dict:
        out = {k: getattr(self, k) for k in (
            "n_curves", "window", "seed", "stuck_curves", "n_jumps",
            "endpoint_error", "endpoint_ok", "pushforward_ok", "ridge_mass_fraction", "concentration_ok",
            "cancellation_ratio", "cancellation_ok", "ks_statistic",
            "ks_p_value", "stationarity_ok")}
        out["probes"] = [
            {"t": p.t, "chi2": p.chi2, "dof": p.dof, "threshold": p.threshold, "ok": p.ok}
            for p in self.probe_stats
        ]
        return out


def _sample_chi_points(flow, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    x0, x1, y0, y1 = flow.bbox
    pts = np.zeros((0, 2))
    angs = np.zeros(0)
    while pts.shape[0] < n:
        k = max(4 * (n - pts.shape[0]), 1024)
        cand = np.stack([rng.uniform(x0, x1, k), rng.uniform(y0, y1, k)], axis=-1)
        s = rng.uniform(0.0, TWO_PI, k)
        keep = flow.inside(cand)
        m = flow.m(cand[keep])
        keep[keep] = (np.cos(s[keep]) * m[..., 0] + np.sin(s[keep]) * m[..., 1]) > _CHI_TOL
        pts = np.vstack([pts, cand[keep]])
        angs = np.concatenate([angs, s[keep]])
    return pts[:n], angs[:n]


def ensemble_flow(domain: Domain, h: float) -> DomainFlow:
    """The flow the ensemble check traces on a grid of cell size h.

    Its inset is 2h, capped so that coarse grids still leave a collar margin.
    """
    return DomainFlow(domain, min(2.0 * h, 0.5 * domain.delta))


def ensemble_representation_check(
    flow,
    n_curves: int,
    T: float,
    seed: int,
    h: float,
) -> EnsembleReport:
    """Monte Carlo validation of the characteristic ensemble.

    Reports, for the sampled ensemble: a chi-squared comparison of the
    time-t pushforward against the chi density at several probe times;
    the fraction of empirical kinetic mass within 2h of the ridge; the
    cancellation ratio TV(aggregate)/sum of per-curve TVs; a
    two-window Kolmogorov-Smirnov test of angular stationarity; and the
    largest distance, over curves that are not stuck, between a traced
    end and the place ``curve_at`` gives it from the curve's records.
    """
    if n_curves < MIN_CURVES:
        raise ValueError(f"ensemble check needs at least {MIN_CURVES} curves")
    # spatial (x, y) and angular bins of the pushforward test
    nbx, nby, angular_bins = (10, 6, 8) if n_curves >= 50000 else (6, 4, 6)
    rng = np.random.default_rng(seed)
    pts, angs = _sample_chi_points(flow, n_curves, rng)
    t0 = rng.uniform(0.0, T, n_curves)

    fwd_elapsed, fwd_end, fwd_stuck, fwd_t, fwd_x, fwd_s = _trace_batch(flow, pts, angs, T - t0, direction=+1)
    bwd_elapsed, bwd_end, bwd_stuck, bwd_t, bwd_x, bwd_s = _trace_batch(flow, pts, angs, t0, direction=-1)

    t_plus = t0 + fwd_elapsed
    t_minus = t0 - bwd_elapsed
    lifetime = np.maximum(t_plus - t_minus, 1e-12)
    weights = T / lifetime
    stuck_curves = int(np.sum(fwd_stuck | bwd_stuck))
    after_t, before_t = t0 + fwd_t, t0 - bwd_t
    fwd, bwd = (after_t, fwd_x, fwd_s), (before_t, bwd_x, bwd_s)

    # every end that is not stuck must lie where the curve's records put it
    live = ~(fwd_stuck | bwd_stuck)
    miss = np.stack([curve_at(t_plus, pts, t0, angs, fwd, bwd)[0] - fwd_end,
                     curve_at(t_minus, pts, t0, angs, fwd, bwd)[0] - bwd_end])
    endpoint_error = float(np.sqrt(np.max(np.sum(miss * miss, axis=-1)[:, live], initial=0.0)))

    probes = [f * T for f in _PROBE_FRACS]
    probe_stats = []
    x0b, x1b, y0b, y1b = flow.bbox
    xe = np.linspace(x0b, x1b, nbx + 1)
    ye = np.linspace(y0b, y1b, nby + 1)
    se = np.linspace(0.0, TWO_PI, angular_bins + 1)

    # expected occupation per (spatial, angular) bin from the chi density
    gs = 5
    xs_c = xe[:-1][:, None] + (np.arange(gs) + 0.5)[None, :] * (xe[1] - xe[0]) / gs
    ys_c = ye[:-1][:, None] + (np.arange(gs) + 0.5)[None, :] * (ye[1] - ye[0]) / gs
    subx = xs_c.reshape(nbx, 1, gs, 1)
    suby = ys_c.reshape(1, nby, 1, gs)
    subpts = np.stack(np.broadcast_arrays(subx, suby), axis=-1).reshape(-1, 2)
    sub_in = flow.inside(subpts)
    m_sub = flow.m(subpts)
    theta = np.arctan2(m_sub[:, 1], m_sub[:, 0])
    arc0 = np.mod(theta - 0.5 * np.pi, TWO_PI)
    bin_vol = np.zeros((nbx, nby, angular_bins))
    cellarea = (xe[1] - xe[0]) * (ye[1] - ye[0]) / (gs * gs)
    for k in range(angular_bins):
        ov = _circ_overlap(arc0, np.pi, np.full_like(arc0, se[k]), se[1] - se[0])
        contrib = np.where(sub_in, ov, 0.0) * cellarea
        bin_vol[:, :, k] = contrib.reshape(nbx, nby, gs, gs).sum(axis=(2, 3))
    p_bin = bin_vol / bin_vol.sum()

    w2_ratio = float(np.sum(weights**2) / np.sum(weights))
    pushforward_ok = True
    for tp in probes:
        ids = np.flatnonzero((t_minus < tp) & (tp < t_plus))
        x, s = curve_at(tp, pts, t0, angs, fwd, bwd)
        H, _ = np.histogramdd(np.column_stack([x[ids], np.mod(s[ids], TWO_PI)]),
                              bins=(xe, ye, se), weights=weights[ids])
        expected = np.sum(weights[ids]) * p_bin
        sel = expected >= _MIN_EXPECTED * w2_ratio
        dof = int(np.sum(sel)) - 1
        if dof < 1:
            probe_stats.append(ProbeStat(tp, 0.0, 0, 0.0, True))
            continue
        chi2 = float(np.sum((H[sel] - expected[sel]) ** 2 / (expected[sel] * w2_ratio)))
        thresh = dof + 4.0 * math.sqrt(2.0 * dof)
        ok = chi2 <= thresh
        pushforward_ok &= ok
        probe_stats.append(ProbeStat(tp, chi2, dof, thresh, ok))

    # --- aggregate kinetic measure from jump arcs ---
    fc, bc = np.flatnonzero(np.isfinite(fwd_t)), np.flatnonzero(np.isfinite(bwd_t))
    jc = np.concatenate([fc, bc])
    jt = np.concatenate([after_t[fc], before_t[bc]])
    jx = np.vstack([fwd_x[fc], bwd_x[bc]])
    # a backward reflection runs from its outgoing angle to the start angle in forward time
    s0 = np.mod(angs, TWO_PI)
    jsm = np.concatenate([s0[fc], bwd_s[bc]])
    jsp = np.concatenate([fwd_s[fc], s0[bc]])
    n_jumps = int(jc.size)
    ccw, arc_len = _arc_arrays(jsm, jsp)
    jw = weights[jc]

    ridge_frac = 1.0
    cancellation = 1.0
    ks_stat, ks_p = 0.0, 1.0
    if n_jumps > 0:
        # concentration: all arcs live at their jump points
        near = np.abs(jx[:, 1]) <= 2.0 * h
        ridge_frac = float(np.sum(jw[near] * arc_len[near]) / np.sum(jw * arc_len))

        # signed aggregation on (ridge cell, angular bin)
        if flow.ridge is not None:
            r_lo, r_hi, _ = flow.ridge
        else:
            r_lo, r_hi = x0b, x1b
        ncell = max(int(np.ceil((r_hi - r_lo) / h)), 1)
        nsb = 64
        seb = np.linspace(0.0, TWO_PI, nsb + 1)
        cell = np.clip(((jx[:, 0] - r_lo) / (r_hi - r_lo + 1e-300) * ncell).astype(int), 0, ncell - 1)
        start = np.where(ccw, jsm, jsp)
        sgn_omega = np.where(ccw, -1.0, 1.0)  # aggregate sign flips the arc sign
        agg = np.zeros((ncell, nsb))
        for k in range(nsb):
            ov = _circ_overlap(np.mod(start, TWO_PI), arc_len, np.full(n_jumps, seb[k]), seb[1] - seb[0])
            np.add.at(agg, (cell, np.full(n_jumps, k)), sgn_omega * jw * ov)
        tv_agg = float(np.sum(np.abs(agg)))
        tv_curves = float(np.sum(jw * arc_len))
        cancellation = tv_agg / tv_curves if tv_curves > 0 else 1.0

        # two-window stationarity (angular marginals at shared ridge cells)
        w1 = jt < 0.5 * T
        cells1 = set(np.unique(cell[w1]).tolist())
        cells2 = set(np.unique(cell[~w1]).tolist())
        shared = np.array(sorted(cells1 & cells2), dtype=int)
        use = np.isin(cell, shared)
        ks_stat, ks_p = _weighted_ks(
            np.mod(start, TWO_PI), arc_len * jw, w1 & use, ~w1 & use)

    report = EnsembleReport(
        n_curves=n_curves,
        window=T,
        seed=seed,
        stuck_curves=stuck_curves,
        n_jumps=n_jumps,
        endpoint_error=endpoint_error,
        endpoint_ok=endpoint_error <= 1e-9,
        probe_stats=probe_stats,
        pushforward_ok=bool(pushforward_ok),
        ridge_mass_fraction=ridge_frac,
        concentration_ok=ridge_frac >= 0.95,
        cancellation_ratio=cancellation,
        cancellation_ok=0.95 <= cancellation <= 1.05,
        ks_statistic=ks_stat,
        ks_p_value=ks_p,
        stationarity_ok=ks_p >= 0.01,
    )
    return report


def _weighted_ks(values: np.ndarray, weights: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> tuple[float, float]:
    """Two-sample KS on weighted samples with effective sample sizes."""
    if not (np.any(m1) and np.any(m2)):
        return 0.0, 1.0
    v1, w1 = values[m1], weights[m1]
    v2, w2 = values[m2], weights[m2]
    grid = np.sort(np.unique(np.concatenate([v1, v2])))

    def cdf(v, w):
        order = np.argsort(v)
        vv, ww = v[order], np.cumsum(w[order])
        ww = ww / ww[-1]
        idx = np.searchsorted(vv, grid, side="right") - 1
        out = np.where(idx >= 0, ww[np.clip(idx, 0, ww.size - 1)], 0.0)
        return out

    d = float(np.max(np.abs(cdf(v1, w1) - cdf(v2, w2))))
    n1 = float(np.sum(w1) ** 2 / np.sum(w1**2))
    n2 = float(np.sum(w2) ** 2 / np.sum(w2**2))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    arg = (en + 0.12 + 0.11 / en) * d
    p = float(kolmogorov(arg))
    return d, p
