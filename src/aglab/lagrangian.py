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

The ensemble check samples phase points uniformly from {chi = 1} on an
inset subdomain, attaches a uniform random time in (0, T), traces each
curve forward and backward to exit or window edge, and reweights by
T / lifetime, which makes the time-t pushforward an unbiased estimate
of the chi density at every probe time.  Jump arcs aggregate (with the
sign convention that clockwise arcs contribute positively) into an
empirical kinetic measure used for concentration, cancellation, and
stationarity statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import distributions as _dists

from . import geometry
from .errors import NoConvergence
from .geometry import Domain, ridge_span

TWO_PI = 2.0 * np.pi
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
# curve records


@dataclass(frozen=True)
class JumpRecord:
    t: float
    x: tuple[float, float]
    s_minus: float
    s_plus: float
    ccw: bool
    arc_length: float


@dataclass
class Characteristic:
    """Polyline spatial path with a right-continuous piecewise-constant angle."""

    t_minus: float
    t_plus: float
    times: np.ndarray          # anchor times, increasing, len k+1
    points: np.ndarray         # anchor positions, (k+1, 2)
    angles: np.ndarray         # angle on [times[i], times[i+1]), len k
    jumps: list[JumpRecord] = field(default_factory=list)
    stuck: bool = False

    def position(self, t: float) -> np.ndarray:
        if not (self.t_minus <= t <= self.t_plus):
            raise ValueError("time outside the curve's interval")
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(max(k, 0), len(self.angles) - 1)
        dt = t - self.times[k]
        return self.points[k] + dt * np.array([np.cos(self.angles[k]), np.sin(self.angles[k])])

    def angle(self, t: float) -> float:
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(max(k, 0), len(self.angles) - 1)
        return float(self.angles[k])

    @property
    def tot_var_s(self) -> float:
        return float(sum(j.arc_length for j in self.jumps))


def sigma_gamma(curve: Characteristic) -> list[dict]:
    """Signed angular arcs carried by the curve, one per jump.

    The angular derivative vanishes between jumps (the angle is
    piecewise constant), so the curve's kinetic measure reduces to the
    jump arcs; counter-clockwise arcs carry sign +1, clockwise -1, and
    the ensemble aggregation flips the overall sign.
    """
    arcs = []
    for j in curve.jumps:
        arcs.append({
            "t": j.t,
            "x": list(j.x),
            "s_from": j.s_minus,
            "s_to": j.s_plus,
            "sign": 1.0 if j.ccw else -1.0,
            "length": j.arc_length,
        })
    return arcs


# ---------------------------------------------------------------------------
# batched tracer


def _trace_batch(flow, pos0: np.ndarray, ang0: np.ndarray, budget: np.ndarray, direction: int):
    """Trace a batch of curves from event to event.

    Between events a curve moves at unit speed on a straight line.  Each
    pass takes every live curve to its first event: the ridge hit at
    ``-y / v_y`` when the crossing lies in the ridge span, else the first
    of its exit from the flow's domain and the end of its budget
    (``flow.exit_time``).  At the ridge a curve crosses freely, reflects,
    or stops (dead, counted as stuck).  A free crossing or a reflection
    leaves y = 0 on a straight line that never meets it again, so each
    curve has at most one ridge event and the loop makes at most two
    passes.

    Raises ValueError when a start lies outside the flow's domain.
    Returns elapsed times, final positions, stuck flags, a flat jump
    table, and flat anchor arrays (anchor = start or angle change).
    """
    pos = np.array(pos0, dtype=float)
    ang = np.array(ang0, dtype=float)
    if not np.all(flow.inside(pos)):
        raise ValueError("a characteristic starts outside the traced domain")
    n = pos.shape[0]
    elapsed = np.zeros(n)
    alive = budget > 0
    stuck = np.zeros(n, dtype=bool)

    j_curve, j_t, j_x, j_sm, j_sp = [], [], [], [], []
    a_curve = [np.arange(n)]
    a_t = [np.zeros(n)]
    a_pos = [pos.copy()]
    a_ang = [ang.copy()]

    while np.any(alive):
        idx = np.flatnonzero(alive)
        remain = budget[idx] - elapsed[idx]
        # motion is direction * e^{is}; admissibility always references e^{is}
        v = direction * np.stack([np.cos(ang[idx]), np.sin(ang[idx])], axis=-1)
        hit = np.zeros(idx.size, dtype=bool)
        if flow.ridge is not None:
            r_lo, r_hi, r_sbar = flow.ridge
            y0 = pos[idx, 1]
            # a tiny or zero v_y gives an infinite or NaN tau, which fails every test below
            with np.errstate(all="ignore"):
                tau = -y0 / v[:, 1]
                xc = pos[idx, 0] + tau * v[:, 0]
                hit = (tau > 1e-14) & (tau <= remain) & (xc >= r_lo) & (xc <= r_hi)
        if np.any(hit):
            c = np.flatnonzero(hit)
            gi = idx[c]
            tau_c = tau[c]
            xc_c = xc[c]
            cur_ang = ang[gi]
            from_above = y0[c] > 0
            far_y = np.where(from_above, -_SIDE_EPS, _SIDE_EPS)
            near_y = -far_y
            m_far = flow.m(np.stack([xc_c, far_y], axis=-1))
            dots_far = np.cos(cur_ang) * m_far[:, 0] + np.sin(cur_ang) * m_far[:, 1]
            blocked = dots_far <= _CHI_TOL
            # free crossers keep their angle; blocked ones reflect
            s_new = np.mod(2.0 * r_sbar - cur_ang + np.pi, TWO_PI)
            m_near = flow.m(np.stack([xc_c, near_y], axis=-1))
            dots_near = np.cos(s_new) * m_near[:, 0] + np.sin(s_new) * m_near[:, 1]
            dead = blocked & (dots_near < -_CHI_TOL)
            bounce = blocked & ~dead

            elapsed[gi] += tau_c
            pos[gi, 0] = xc_c
            pos[gi, 1] = 0.0
            stuck[gi[dead]] = True
            alive[gi[dead]] = False
            if np.any(bounce):
                b = gi[bounce]
                t_event = elapsed[b]
                x_event = np.stack([xc_c[bounce], np.zeros(b.size)], axis=-1)
                old = np.mod(cur_ang[bounce], TWO_PI)
                new = s_new[bounce]
                j_curve.append(b)
                j_t.append(t_event)
                j_x.append(x_event)
                j_sm.append(old if direction > 0 else new)
                j_sp.append(new if direction > 0 else old)
                ang[b] = new
                a_curve.append(b)
                a_t.append(t_event)
                a_pos.append(x_event)
                a_ang.append(new)

        last = np.flatnonzero(~hit)
        gi = idx[last]
        t = flow.exit_time(pos[gi], v[last], remain[last])
        pos[gi] += t[:, None] * v[last]
        # after a ridge event, tau + (budget - tau) can round above the budget
        elapsed[gi] = np.minimum(elapsed[gi] + t, budget[gi])
        alive[gi] = False

    jumps = {
        "curve": np.concatenate(j_curve) if j_curve else np.zeros(0, dtype=int),
        "t": np.concatenate(j_t) if j_t else np.zeros(0),
        "x": np.concatenate(j_x) if j_x else np.zeros((0, 2)),
        "s_minus": np.concatenate(j_sm) if j_sm else np.zeros(0),
        "s_plus": np.concatenate(j_sp) if j_sp else np.zeros(0),
    }
    anchors = {
        "curve": np.concatenate(a_curve),
        "t": np.concatenate(a_t),
        "pos": np.concatenate(a_pos),
        "ang": np.concatenate(a_ang),
    }
    return elapsed, pos, stuck, jumps, anchors


def trace_characteristic(domain: Domain, start: tuple[tuple[float, float], float],
                         T: float, inset: float | None = None) -> Characteristic:
    """Trace a single forward characteristic from (x, s) over [0, T].

    Raises ValueError when x lies outside the inset domain.
    """
    (x0, y0), s0 = start
    if inset is None:
        inset = 0.25 * domain.delta
    flow = DomainFlow(domain, inset)
    elapsed, pos_end, stuck, jumps, anchors = _trace_batch(
        flow, np.array([[x0, y0]]), np.array([s0]), np.array([T]), direction=+1
    )
    order = np.argsort(anchors["t"], kind="stable")
    times = anchors["t"][order]
    points = anchors["pos"][order]
    angles = anchors["ang"][order]
    times = np.append(times, elapsed[0])
    points = np.vstack([points, pos_end])
    jrecs = []
    ccw_arr, len_arr = _arc_arrays(jumps["s_minus"], jumps["s_plus"])
    for k in range(jumps["t"].size):
        jrecs.append(JumpRecord(
            t=float(jumps["t"][k]),
            x=(float(jumps["x"][k, 0]), float(jumps["x"][k, 1])),
            s_minus=float(jumps["s_minus"][k]),
            s_plus=float(jumps["s_plus"][k]),
            ccw=bool(ccw_arr[k]),
            arc_length=float(len_arr[k]),
        ))
    return Characteristic(
        t_minus=0.0, t_plus=float(elapsed[0]),
        times=times, points=points, angles=angles,
        jumps=jrecs, stuck=bool(stuck[0]),
    )


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
            "pushforward_ok", "ridge_mass_fraction", "concentration_ok",
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


def ensemble_representation_check(
    domain_or_flow,
    n_curves: int,
    T: float,
    seed: int,
    h: float,
    probe_fracs: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8),
    spatial_bins: tuple[int, int] | None = None,
    angular_bins: int | None = None,
    min_expected: float = 8.0,
) -> EnsembleReport:
    """Monte Carlo validation of the characteristic ensemble.

    Reports, for the sampled ensemble: a chi-squared comparison of the
    time-t pushforward against the chi density at several probe times;
    the fraction of empirical kinetic mass within 2h of the ridge; the
    cancellation ratio TV(aggregate)/sum of per-curve TVs; and a
    two-window Kolmogorov-Smirnov test of angular stationarity.
    """
    if n_curves < 1000:
        raise ValueError("ensemble check needs at least 10^3 curves")
    if spatial_bins is None:
        spatial_bins = (10, 6) if n_curves >= 50000 else (6, 4)
    if angular_bins is None:
        angular_bins = 8 if n_curves >= 50000 else 6
    if isinstance(domain_or_flow, (geometry.Ellipse, geometry.Stadium)):
        # inset 2h, capped so coarse grids still leave a collar margin
        flow = DomainFlow(domain_or_flow, min(2.0 * h, 0.5 * domain_or_flow.delta))
    else:
        flow = domain_or_flow
    rng = np.random.default_rng(seed)
    pts, angs = _sample_chi_points(flow, n_curves, rng)
    t0 = rng.uniform(0.0, T, n_curves)

    fwd_elapsed, _, fwd_stuck, fwd_jumps, fwd_anchors = _trace_batch(
        flow, pts, angs, T - t0, direction=+1)
    bwd_elapsed, bwd_end_pos, bwd_stuck, bwd_jumps, bwd_anchors = _trace_batch(
        flow, pts, angs, t0, direction=-1)

    t_plus = t0 + fwd_elapsed
    t_minus = t0 - bwd_elapsed
    lifetime = np.maximum(t_plus - t_minus, 1e-12)
    weights = T / lifetime
    stuck_curves = int(np.sum(fwd_stuck | bwd_stuck))

    # --- merged anchors (absolute forward time) for pushforward probes ---
    # backward-pass anchors store the angle valid at earlier times; in the
    # sorted-by-time list the forward-segment angle starting at a backward
    # anchor is the *next* anchor's stored angle.  The backward entry point
    # is appended as an extra anchor so the earliest segment is covered;
    # its own angle is never read (the next anchor's replaces it), so it is
    # NaN.  The backward pass's tau = 0 start block duplicates the forward
    # start anchors and is dropped.
    n = n_curves
    bjc = bwd_anchors["curve"][n:]
    bjt = bwd_anchors["t"][n:]
    bjp = bwd_anchors["pos"][n:]
    bja = bwd_anchors["ang"][n:]
    anc_curve = np.concatenate([fwd_anchors["curve"], bjc, np.arange(n)])
    anc_t = np.concatenate([
        t0[fwd_anchors["curve"]] + fwd_anchors["t"],
        t0[bjc] - bjt,
        t_minus - 1e-12,  # keep entry anchors strictly earliest per curve
    ])
    anc_pos = np.vstack([fwd_anchors["pos"], bjp, bwd_end_pos])
    anc_ang = np.concatenate([fwd_anchors["ang"], bja, np.full(n, np.nan)])
    is_bwd = np.concatenate([
        np.zeros(fwd_anchors["curve"].size, dtype=bool),
        np.ones(bjc.size + n, dtype=bool),
    ])
    order = np.lexsort((anc_t, anc_curve))
    anc_curve, anc_t, anc_pos, anc_ang = anc_curve[order], anc_t[order], anc_pos[order], anc_ang[order]
    is_bwd = is_bwd[order]
    same_curve_next = np.zeros(anc_t.size, dtype=bool)
    same_curve_next[:-1] = anc_curve[:-1] == anc_curve[1:]
    fwd_ang = anc_ang.copy()
    idxs = np.flatnonzero(is_bwd & same_curve_next)
    if idxs.size:
        fwd_ang[idxs] = anc_ang[idxs + 1]

    key_span = 2.0 * T + 2.0
    key = anc_curve.astype(float) * key_span + (anc_t + 0.5 * T + 1.0)

    probes = [f * T for f in probe_fracs]
    probe_stats = []
    x0b, x1b, y0b, y1b = flow.bbox
    nbx, nby = spatial_bins
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
        alive = (t_minus < tp) & (tp < t_plus)
        ids = np.flatnonzero(alive)
        look = np.searchsorted(key, ids.astype(float) * key_span + (tp + 0.5 * T + 1.0), side="right") - 1
        look = np.clip(look, 0, key.size - 1)
        base_t = anc_t[look]
        base_p = anc_pos[look]
        base_a = fwd_ang[look]
        dtau = tp - base_t
        px = base_p[:, 0] + dtau * np.cos(base_a)
        py = base_p[:, 1] + dtau * np.sin(base_a)
        sa = np.mod(base_a, TWO_PI)
        H, _ = np.histogramdd(
            np.stack([px, py, sa], axis=-1),
            bins=(xe, ye, se),
            weights=weights[ids],
        )
        expected = np.sum(weights[ids]) * p_bin
        sel = expected >= min_expected * w2_ratio
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
    jc = np.concatenate([fwd_jumps["curve"], bwd_jumps["curve"]])
    jt = np.concatenate([t0[fwd_jumps["curve"]] + fwd_jumps["t"],
                         t0[bwd_jumps["curve"]] - bwd_jumps["t"]])
    jx = np.vstack([fwd_jumps["x"], bwd_jumps["x"]])
    jsm = np.concatenate([fwd_jumps["s_minus"], bwd_jumps["s_minus"]])
    jsp = np.concatenate([fwd_jumps["s_plus"], bwd_jumps["s_plus"]])
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
    p = float(_dists.kstwobign.sf(arg))
    return d, p
