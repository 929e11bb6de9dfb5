"""Characteristic curves of the limit field and ensemble statistics.

Curves move in straight lines at unit speed with a constant angle
between events.  At a ridge crossing the angle either carries over
unchanged (when it is admissible on the far side) or is reflected
across the ridge line, ``s -> 2*sbar - s + pi`` with the ridge bisector
``sbar``; for the horizontal ridge this is the mirror ``s -> -s`` and
the curve re-enters its own side.  Admissibility on either side is read
from the one-sided traces m+ and m- of the ridge record
(``RidgeSet.data``) at the crossing point.  For the reference field the
mirrored angle is admissible on the near side exactly when the crossing
is blocked, so the rule is total away from ties.

The tracer therefore has no time step: it moves each curve from event to
event.  The ridge y = 0 is met at ``-y / v_y``, and the exit from the
convex domain {sd > level} is the root of sd - level along the ray,
which Newton reaches monotonically from the far end of the segment; a
segment whose far end lies in the domain itself stays inside, and that
end is frozen without a closest-point projection.  After a free
crossing or a reflection a curve sits at y = 0 on a straight line that
never returns to it, so every curve has at most one ridge event in each
direction of time.  The tracer therefore returns one record per curve
and direction (the reflection's time, point and outgoing angle) in
place of a path: a curve is its start, its two records and its ends,
and ``curve_at`` reads its position and angle at any time from them.

The ensemble check samples phase points uniformly from {chi = 1} on an
inset subdomain in one pass: positions uniform on the subdomain by
rejection from its bounding box, arg m read once at each, then each
angle s = arg m(x) + pi (u - 1/2) uniform on the admissible half circle.
That is the law of drawing (x, s) together and rejecting inadmissible
angles, which accepts with probability 1/2 at every x; m is a unit
field, so e^{is}.m(x) = sin(pi u) and the angle test reads u alone.
The check attaches a uniform random time in (0, T) to each phase point,
traces each curve forward and backward to exit or window edge, and
reweights by T / lifetime, which makes the time-t pushforward an
unbiased estimate of the chi density at every probe time.  Jump arcs
aggregate (with the sign convention that clockwise arcs contribute
positively) into an empirical kinetic measure used for concentration,
cancellation, and stationarity statistics.
The stationarity p-value is the asymptotic Kolmogorov tail
(:func:`kolmogorov`) of the scaled two-sample statistic.

The ensemble is sampled once and then traced, checked and binned
``_CHUNK`` curves at a time, each chunk in one tracer call (both ways in
time), one ``curve_at`` call and one ``np.bincount``: beyond one chunk,
memory grows with the ensemble size only through the sampled phase
points and the jump records.  Histograms sum over chunks, so chi^2 may
move in its last bits with ``_CHUNK``; every other statistic is
independent of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import NoConvergence
from .geometry import RIDGE_SBAR, Grid

TWO_PI = 2.0 * np.pi
MIN_CURVES = 1000  # the smallest ensemble the representation check accepts
_PROBE_FRACS = (0.2, 0.4, 0.6, 0.8)  # probe times of the pushforward test, as fractions of T
_MIN_EXPECTED = 8.0  # a bin enters the chi-squared sum once it expects this many effective curves
_CHI_TOL = 1e-12
_EXIT_MAX_ITER = 40
_CHUNK = 8192  # curves traced and binned at once; it, not the ensemble size, sets the working memory
_BOTH_WAYS = np.array([[1], [-1]])  # directions of a chunk's forward and backward traces


# ---------------------------------------------------------------------------
# flow fields


class DomainFlow:
    """Reference flow of a covered grid's domain on the inset subdomain {sd > level = inset - delta}.

    Its domain, ridge record and cell size h are the grid's, and its inset
    is 2h, capped at delta/2 so that coarse grids still leave a collar margin.
    """

    def __init__(self, grid: Grid):
        self.ridge = grid.ridge if grid.ridge.length > 0 else None  # a disk's ridge is one point
        self.domain, self.h = grid.domain, grid.h
        self.inset = min(2.0 * self.h, 0.5 * self.domain.delta)
        self.level = self.inset - self.domain.delta  # inside <=> signed_distance > level
        (x0, x1), (y0, y1) = self.domain.bounding_box()
        self.bbox = (x0, x1, y0, y1)

    def m(self, x: np.ndarray) -> np.ndarray:
        return geometry.rot90(geometry.signed_distance_grad(self.domain, x)[1])

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
        segment end is inside.  A segment end in the domain itself, where
        sd >= 0 > level, is frozen before the first step, unprojected.
        """
        t = np.array(t_end, dtype=float)
        live = np.flatnonzero(~self.domain.contains(p + t[:, None] * v))
        if not live.size:
            return t
        p, v = p[live], v[live]
        for _ in range(_EXIT_MAX_ITER):
            x = p + t[live, None] * v
            sd, grad = geometry.signed_distance_grad(self.domain, x)
            g = sd - self.level
            out = g < -16 * np.finfo(float).eps * np.maximum(np.abs(x[:, 0]), np.abs(x[:, 1]))
            live, p, v = live[out], p[out], v[out]
            if not live.size:
                return t
            t[live] -= g[out] / (grad[out, 0] * v[:, 0] + grad[out, 1] * v[:, 1])
        raise NoConvergence("exit-time iteration did not converge")


# ---------------------------------------------------------------------------
# batched tracer


def _trace_batch(flow, pos0: np.ndarray, ang0: np.ndarray, budget: np.ndarray, direction):
    """Trace a batch of curves to their exits, through at most one ridge event each.

    ``pos0`` (n, 2) and ``ang0`` (n,) are n starts; ``budget`` (not
    negative) and ``direction`` (+1 forward in time, -1 backward)
    broadcast to a shape ending in n, one curve per entry, so (2, n)
    budgets against directions [[1], [-1]] trace each start both ways.
    Each start is tested against the domain once, and a backward velocity
    is the exact negation of the forward one.

    A curve moves at unit speed on a straight line.  It meets the ridge
    at ``-y / v_y`` when that time is within its budget and the crossing
    lies in the ridge span; there it crosses freely, reflects, or stops
    (dead, counted as stuck).  The traces of ``flow.ridge.data`` at the
    crossing decide: the curve crosses when its angle is admissible for
    the far side's trace, and reflects when the mirrored angle is
    admissible for the near side's.  A free crossing or a reflection
    leaves y = 0 on a straight line that never meets it again, so one
    ridge test and one ``flow.exit_time`` call, which takes every curve
    to the first of its exit from the flow's domain and the end of its
    budget (a dead curve has none left), trace the whole batch.

    Raises ValueError when a start lies outside the flow's domain.
    Returns, in the broadcast shape, elapsed times, final positions and
    stuck flags, and per curve the reflection record: its time (inf where
    the curve does not reflect), its position (NaN where it does not) and
    the angle after it, which is the curve's final angle.
    """
    if not np.all(flow.inside(pos0)):
        raise ValueError("a characteristic starts outside the traced domain")
    budget, direction = np.broadcast_arrays(np.asarray(budget, dtype=float), direction)
    shape = budget.shape
    # motion is direction * e^{is}; admissibility always references e^{is}
    v = (direction[..., None] * np.stack([np.cos(ang0), np.sin(ang0)], axis=-1)).reshape(-1, 2)
    budget, direction = budget.ravel(), direction.ravel()
    pos = np.array(np.broadcast_to(pos0, shape + (2,)), dtype=float).reshape(-1, 2)
    ang = np.array(np.broadcast_to(ang0, shape), dtype=float).ravel()
    n = pos.shape[0]
    elapsed = np.zeros(n)
    stuck = np.zeros(n, dtype=bool)
    t_ref = np.full(n, np.inf)
    x_ref = np.full((n, 2), np.nan)
    if flow.ridge is not None:
        r_lo, r_hi = flow.ridge.lo, flow.ridge.hi
        # a tiny or zero v_y gives an infinite or NaN tau, which fails every test below
        with np.errstate(all="ignore"):
            tau = -pos[:, 1] / v[:, 1]
            xc = pos[:, 0] + tau * v[:, 0]
            c = np.flatnonzero((tau > 1e-14) & (tau <= budget) & (xc >= r_lo) & (xc <= r_hi))
        tau, xc, cur_ang = tau[c], xc[c], ang[c]
        # the far side's trace decides the crossing, the near side's the reflection
        traces = flow.ridge.data(xc)
        from_above = (pos[c, 1] > 0)[:, None]
        m_far = np.where(from_above, traces["m_minus"], traces["m_plus"])
        blocked = np.cos(cur_ang) * m_far[:, 0] + np.sin(cur_ang) * m_far[:, 1] <= _CHI_TOL
        # free crossers keep their angle; blocked ones reflect
        s_new = np.mod(2.0 * RIDGE_SBAR - cur_ang + np.pi, TWO_PI)
        m_near = np.where(from_above, traces["m_plus"], traces["m_minus"])
        dead = blocked & (np.cos(s_new) * m_near[:, 0] + np.sin(s_new) * m_near[:, 1] < -_CHI_TOL)
        bounce = blocked & ~dead

        elapsed[c] = tau
        pos[c, 0], pos[c, 1] = xc, 0.0
        stuck[c[dead]] = True
        b = c[bounce]
        t_ref[b] = tau[bounce]
        x_ref[b] = pos[b]
        ang[b] = s_new[bounce]
        v[b] = direction[b, None] * np.stack([np.cos(ang[b]), np.sin(ang[b])], axis=-1)

    # a dead curve has no time left, and exit_time leaves a curve with none where it is
    t = flow.exit_time(pos, v, np.where(stuck, 0.0, budget - elapsed))
    pos += t[:, None] * v
    # after a ridge event, tau + (budget - tau) can round above the budget
    elapsed = np.minimum(elapsed + t, budget)
    return tuple(r.reshape(shape + r.shape[1:]) for r in (elapsed, pos, stuck, t_ref, x_ref, ang))


def curve_at(t, start, t0, s0, fwd, bwd) -> tuple[np.ndarray, np.ndarray]:
    """Positions and angles at times ``t`` of curves given by their records.

    A curve passes ``start`` at time ``t0`` with angle ``s0``.  ``fwd`` and
    ``bwd`` are its forward and backward reflection records, each a
    (time, point, outgoing angle) triple whose time is +inf (forward) or
    -inf (backward) where the curve does not reflect.  The angle is
    right-continuous in forward time: from the forward reflection time on
    the curve runs on the forward record's line, strictly before the
    backward reflection time on the backward record's, and in between on
    the start's.  Each entry is placed on the start's line first, then
    moved to the backward record's line and last to the forward record's
    where those apply, so the forward line wins where both do.  Times and
    angles broadcast against each other and the start; points carry a
    trailing axis of 2, or are a scalar NaN in a missing record.  Cosine
    and sine are taken once per curve on the start's line and once per
    moved entry on a record's.
    """
    dt = t - t0
    # each coordinate is written in place into one array: a stack of two fresh sums costs more than the arithmetic
    x = np.empty(np.broadcast_shapes(np.shape(dt), np.shape(s0), np.shape(start)[:-1]) + (2,))
    for k, trig in enumerate((np.cos, np.sin)):
        np.multiply(dt, trig(s0), out=x[..., k])
        x[..., k] += start[..., k]
    s = np.array(np.broadcast_to(s0, x.shape[:-1]), dtype=float)
    shape = s.shape or (1,)  # one time alone is moved as an array of one entry
    xv, sv = x.reshape(shape + (2,)), s.reshape(shape)
    for on, (t_r, x_r, s_r) in ((t < bwd[0], bwd), (t >= fwd[0], fwd)):
        i = np.unravel_index(np.flatnonzero(np.broadcast_to(on, shape)), shape)
        t_on, t_r, s_r = (np.broadcast_to(q, shape)[i] for q in (t, t_r, s_r))
        xv[i] = np.broadcast_to(x_r, xv.shape)[i] + (t_on - t_r)[:, None] * np.stack([np.cos(s_r), np.sin(s_r)], -1)
        sv[i] = s_r
    return x, s


def arc_arrays(s_minus: np.ndarray, s_plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orientation (True for counter-clockwise) and length of the shorter arc from s_minus to s_plus."""
    ccw_len = np.mod(s_plus - s_minus, TWO_PI)
    ccw = ccw_len <= np.pi + 1e-14
    length = np.where(ccw, ccw_len, TWO_PI - ccw_len)
    return ccw, length


# ---------------------------------------------------------------------------
# ensemble check


def _circ_overlap(a0: np.ndarray, a_len: float, b0: float, b_len: float) -> np.ndarray:
    """Length of the overlap of circle arcs [a0, a0+a_len) and [b0, b0+b_len)."""
    s = np.mod(b0 - a0, TWO_PI)
    first = np.maximum(0.0, np.minimum(a_len, s + b_len) - s)
    s2 = s - TWO_PI
    second = np.maximum(0.0, np.minimum(a_len, s2 + b_len) - np.maximum(0.0, s2))
    return first + second


def _bin_index(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each value on the uniform ``edges`` where ``np.histogramdd`` puts it, -1 outside them.

    Bins are [e_k, e_k+1), the last one closed.  The guess from the bin
    width is off by at most one; the neighbouring edges correct it.
    """
    nb, lo, hi = edges.size - 1, edges[0], edges[-1]
    # clamped before the cast, which NaN and inf would make warn
    k = np.fmax(np.fmin((v - lo) * (nb / (hi - lo)), nb - 1), 0).astype(np.intp)
    upper = np.append(edges[1:-1], np.inf)  # the last bin has no upper edge to leave by
    return np.where(v <= hi, k - (v < edges[k]) + (v >= upper[k]), -1)


def _histograms(x: np.ndarray, s: np.ndarray, alive: np.ndarray, weights: np.ndarray, edges) -> np.ndarray:
    """Weighted histograms of the alive phase points (x, s mod 2 pi) on ``edges``, one per row.

    One ``np.bincount`` bins every row, each bin summing in point order as
    one ``np.histogramdd`` per row does, so the two agree bit for bit.
    """
    xe, ye, se = edges
    ix, iy, js = _bin_index(x[..., 0], xe), _bin_index(x[..., 1], ye), _bin_index(np.mod(s, TWO_PI), se)
    kept = alive & (ix >= 0) & (iy >= 0) & (js >= 0)
    shape = (len(s), xe.size - 1, ye.size - 1, se.size - 1)
    flat = ((np.arange(len(s))[:, None] * shape[1] + ix) * shape[2] + iy) * shape[3] + js
    w = np.broadcast_to(weights, kept.shape)[kept]
    return np.bincount(flat[kept], weights=w, minlength=math.prod(shape)).reshape(shape)


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
    probes: list[ProbeStat]
    pushforward_ok: bool
    ridge_mass_fraction: float
    concentration_ok: bool
    cancellation_ratio: float
    cancellation_ok: bool
    ks_statistic: float
    ks_p_value: float
    stationarity_ok: bool


def sample_chi_points(flow, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """n phase points (position, angle) drawn uniformly from {chi = 1} in the flow's domain.

    One pass.  Each round draws x and y for k = max(2(n - have), 1024)
    candidates and tests them ``_CHUNK`` at a time, up to the chunk that
    brings the n-th kept point, so the draws do not depend on the chunk
    size; arg m is read once, at each chunk's kept points.  Then one draw
    of n uniforms u sets s = arg m(x) + pi (u - 1/2) mod 2 pi.  As m is a
    unit field, e^{is}.m(x) = sin(pi u): a u with sin(pi u) not above
    ``_CHI_TOL`` is drawn again, all such in one draw, until none is left.
    Testing e^{is}.m(x) itself would keep the same draws but for u within
    about 1e-16 of the sliver's edge, where rounding may split the two.

    This is the law of the rejection sampler that keeps uniform (x, y, s)
    inside with e^{is}.m > ``_CHI_TOL``: it accepts with probability 1/2
    (less the sliver) at every x, so its positions are uniform on the
    domain and its angles uniform on the admissible half circle given x.
    """
    x0, x1, y0, y1 = flow.bbox
    pts, arg_m, have = np.empty((n, 2)), np.empty(n), 0
    while have < n:
        k = max(2 * (n - have), 1024)
        xs, ys = rng.uniform(x0, x1, k), rng.uniform(y0, y1, k)
        for i in range(0, k, _CHUNK):
            if have >= n:
                break
            cand = np.stack([xs[i:i + _CHUNK], ys[i:i + _CHUNK]], axis=-1)
            got = cand[np.flatnonzero(flow.inside(cand))[:n - have]]
            m = flow.m(got)
            pts[have:have + len(got)] = got
            arg_m[have:have + len(got)] = np.arctan2(m[:, 1], m[:, 0])
            have += len(got)
    u = rng.uniform(0.0, 1.0, n)
    redo = np.flatnonzero(np.sin(np.pi * u) <= _CHI_TOL)
    while redo.size:
        u[redo] = rng.uniform(0.0, 1.0, redo.size)
        redo = redo[np.sin(np.pi * u[redo]) <= _CHI_TOL]
    # s = arg m + pi (u - 1/2) mod 2 pi, formed in place in u, in that order of operations
    u -= 0.5
    u *= np.pi
    u += arg_m
    return pts, np.mod(u, TWO_PI, out=u)


def ensemble_representation_check(flow, n_curves: int, T: float, seed: int) -> EnsembleReport:
    """Monte Carlo validation of the characteristic ensemble.

    Reports, for the sampled ensemble: a chi-squared comparison of the
    time-t pushforward against the chi density at several probe times;
    the fraction of empirical kinetic mass within 2h of the ridge, h
    being ``flow.h``, the cell size of the flow's grid; the cancellation
    ratio TV(aggregate)/sum of per-curve TVs; a two-window
    Kolmogorov-Smirnov test of angular stationarity; and the largest
    distance, over curves that are not stuck, between a traced end and
    the place ``curve_at`` gives it from the curve's records.

    The phase points are sampled once by :func:`sample_chi_points`, in
    one pass with the law of rejection on (x, y, s) and m read once per
    kept position, and the start times after them; the curves are traced
    and binned in chunks of ``_CHUNK``; only the sampled points and the
    jump records grow with ``n_curves``.  Probes are binned exactly as ``np.histogramdd`` bins
    them, and the jump records keep the order of one pass, so chi^2
    alone, summed over chunks, may move (in its last bits) with
    ``_CHUNK``.
    """
    if n_curves < MIN_CURVES:
        raise ValueError(f"ensemble check needs at least {MIN_CURVES} curves")
    h = flow.h
    # spatial (x, y) and angular bins of the pushforward test
    nbx, nby, angular_bins = (10, 6, 8) if n_curves >= 50000 else (6, 4, 6)
    rng = np.random.default_rng(seed)
    pts, angs = sample_chi_points(flow, n_curves, rng)
    t0 = rng.uniform(0.0, T, n_curves)

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
        ov = _circ_overlap(arc0, np.pi, se[k], se[1] - se[0])
        contrib = np.where(sub_in, ov, 0.0) * cellarea
        bin_vol[:, :, k] = contrib.reshape(nbx, nby, gs, gs).sum(axis=(2, 3))
    p_bin = bin_vol / bin_vol.sum()

    # per probe time, the weighted histogram of the curves alive then and their total weight
    probe_t = [f * T for f in _PROBE_FRACS]
    t_probe = np.array(probe_t)[:, None]
    H = np.zeros((len(probe_t), nbx, nby, angular_bins))
    mass = np.zeros(len(probe_t))
    stuck_curves, miss2, w_sum, w2_sum = 0, 0.0, 0.0, 0.0
    # jump records (time, point, s-, s+, weight); forward and backward kept apart for their order
    fwd_jumps, bwd_jumps = [], []
    for i in range(0, n_curves, _CHUNK):
        p, a, t0c = pts[i:i + _CHUNK], angs[i:i + _CHUNK], t0[i:i + _CHUNK]
        # row 0 runs forward in time to T, row 1 backward to 0
        elapsed, end, stuck, t_ref, x_ref, s_ref = _trace_batch(flow, p, a, np.stack([T - t0c, t0c]), _BOTH_WAYS)
        t_end = t0c + _BOTH_WAYS * elapsed
        lifetime = np.maximum(t_end[0] - t_end[1], 1e-12)
        weights = T / lifetime
        live = ~(stuck[0] | stuck[1])
        stuck_curves += int(np.count_nonzero(~live))
        w_sum += float(np.sum(weights))
        w2_sum += float(np.sum(weights**2))
        t_ref = t0c + _BOTH_WAYS * t_ref  # reflection times on the clock of t0
        fwd, bwd = (t_ref[0], x_ref[0], s_ref[0]), (t_ref[1], x_ref[1], s_ref[1])

        # one placement at both ends and at every probe time
        x, s = curve_at(np.vstack([t_end, np.broadcast_to(t_probe, (len(probe_t), t0c.size))]), p, t0c, a, fwd, bwd)
        # every end that is not stuck must lie where the curve's records put it
        miss = x[:2] - end
        miss2 = max(miss2, float(np.max((miss[..., 0] ** 2 + miss[..., 1] ** 2)[:, live], initial=0.0)))

        alive = (t_end[1] < t_probe) & (t_probe < t_end[0])
        H += _histograms(x[2:], s[2:], alive, weights, (xe, ye, se))
        mass += [np.sum(weights[al]) for al in alive]

        # a backward reflection runs from its outgoing angle to the start angle in forward time
        fc, bc = np.flatnonzero(np.isfinite(t_ref[0])), np.flatnonzero(np.isfinite(t_ref[1]))
        s0 = np.mod(a, TWO_PI)
        fwd_jumps.append((t_ref[0, fc], x_ref[0, fc], s0[fc], s_ref[0, fc], weights[fc]))
        bwd_jumps.append((t_ref[1, bc], x_ref[1, bc], s_ref[1, bc], s0[bc], weights[bc]))
    endpoint_error = math.sqrt(miss2)

    probes = []
    w2_ratio = w2_sum / w_sum
    pushforward_ok = True
    for tp, Hp, mp in zip(probe_t, H, mass):
        expected = mp * p_bin
        sel = expected >= _MIN_EXPECTED * w2_ratio
        dof = int(np.sum(sel)) - 1
        if dof < 1:
            probes.append(ProbeStat(tp, 0.0, 0, 0.0, True))
            continue
        chi2 = float(np.sum((Hp[sel] - expected[sel]) ** 2 / (expected[sel] * w2_ratio)))
        thresh = dof + 4.0 * math.sqrt(2.0 * dof)
        ok = chi2 <= thresh
        pushforward_ok &= ok
        probes.append(ProbeStat(tp, chi2, dof, thresh, ok))

    # --- aggregate kinetic measure from jump arcs ---
    jt, jx, jsm, jsp, jw = (np.concatenate(parts) for parts in zip(*fwd_jumps, *bwd_jumps))
    n_jumps = int(jt.size)
    ccw, arc_len = arc_arrays(jsm, jsp)

    ridge_frac = 1.0
    cancellation = 1.0
    ks_stat, ks_p = 0.0, 1.0
    if n_jumps > 0:
        # concentration: all arcs live at their jump points
        near = np.abs(jx[:, 1]) <= 2.0 * h
        ridge_frac = float(np.sum(jw[near] * arc_len[near]) / np.sum(jw * arc_len))

        # signed aggregation on (ridge cell, angular bin); a flow with no ridge
        # records no reflection, so n_jumps > 0 implies flow.ridge is set
        r_lo, r_hi = flow.ridge.lo, flow.ridge.hi
        ncell = max(int(np.ceil((r_hi - r_lo) / h)), 1)
        nsb = 64
        seb = np.linspace(0.0, TWO_PI, nsb + 1)
        cell = np.clip(((jx[:, 0] - r_lo) / (r_hi - r_lo + 1e-300) * ncell).astype(int), 0, ncell - 1)
        start = np.mod(np.where(ccw, jsm, jsp), TWO_PI)
        signed = np.where(ccw, -jw, jw)  # aggregate sign flips the arc sign
        agg = np.zeros((ncell, nsb))
        for k in range(nsb):
            ov = _circ_overlap(start, arc_len, seb[k], seb[1] - seb[0])
            agg[:, k] = np.bincount(cell, weights=signed * ov, minlength=ncell)
        tv_agg = float(np.sum(np.abs(agg)))
        tv_curves = float(np.sum(jw * arc_len))
        cancellation = tv_agg / tv_curves if tv_curves > 0 else 1.0

        # two-window stationarity (angular marginals at shared ridge cells)
        w1 = jt < 0.5 * T
        cells1 = set(np.unique(cell[w1]).tolist())
        cells2 = set(np.unique(cell[~w1]).tolist())
        shared = np.array(sorted(cells1 & cells2), dtype=int)
        use = np.isin(cell, shared)
        ks_stat, ks_p = _weighted_ks(start, arc_len * jw, w1 & use, ~w1 & use)

    report = EnsembleReport(
        n_curves=n_curves,
        window=T,
        seed=seed,
        stuck_curves=stuck_curves,
        n_jumps=n_jumps,
        endpoint_error=endpoint_error,
        endpoint_ok=endpoint_error <= 1e-9,
        probes=probes,
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


def kolmogorov(y: float) -> float:
    """Survival function P(K > y) of the Kolmogorov distribution.

    Below y = 1 it is 1 - K(y) with the theta-function form of the CDF,
    K(y) = sqrt(2 pi) / y * sum_k exp(-(2k - 1)^2 pi^2 / (8 y^2)); above,
    the alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2).  The first
    term each sum leaves out is below 1e-100 on its range, and below
    y = 0.05 the CDF is under 1e-200, so the tail is 1.  A NaN stays NaN.
    """
    if y < 1.0:
        if y <= 0.05:
            return 1.0
        cdf = sum(math.exp(-((2 * k - 1) * math.pi / y) ** 2 / 8.0) for k in range(1, 8))
        return 1.0 - math.sqrt(2.0 * math.pi) / y * cdf
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * y * y) for k in range(1, 20))


def _weighted_ks(values: np.ndarray, weights: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> tuple[float, float]:
    """Two-sample KS on weighted samples with effective sample sizes."""
    if not (np.any(m1) and np.any(m2)):
        return 0.0, 1.0
    v1, w1 = values[m1], weights[m1]
    v2, w2 = values[m2], weights[m2]
    grid = np.unique(np.concatenate([v1, v2]))

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
    p = kolmogorov(arg)
    return d, p
