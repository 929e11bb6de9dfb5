"""Kinetic formulation tools.

The one-bit density chi(x, s) = 1{e^{is} . m(x) > 0}, the explicit
pi-periodic jump densities on the circle with their normalization
constant, minimal angular disintegrations, the jump identity relating
entropies to the unnormalized density, total-variation minimality
checks, the weak kinetic-identity residual against a bank of test
functions, and the sign-structure report for quadrant arcs.  A circle
generator is its trig polynomial psi, as in ``entropy``; ``GENERATORS``
holds the low even harmonics sin 2s, cos 2s, sin 4s and cos 4s.

Angular measures are represented exactly: a finite atom list plus a
piecewise density, every piece of the form A*sin(s - phase) + B on an
arc.  Total variations and constant shifts are evaluated in closed form
(sign changes of a shifted sine are explicit), which keeps the 1e-10
normalization checks honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .entropy import TrigPoly, entropy_from_generator
from .errors import BetaOutOfRange
from .fields import VectorField
from .geometry import GL_NODES, GL_WEIGHTS, RIDGE_SBAR, Grid, integrate, ridge_set, signed_distance

TWO_PI = 2.0 * np.pi
_UNIT_TOL = 1e-10  # the normalization and minimality tolerance of unit-TV measures


def _wrap(s):
    return np.mod(s, TWO_PI)


# ---------------------------------------------------------------------------
# circle measures


@dataclass(frozen=True)
class Piece:
    """Density A*sin(s - phase) + B on the arc [s0, s1]."""

    s0: float
    s1: float
    amp: float
    phase: float
    offset: float

    def antiderivative(self, s):
        return -self.amp * np.cos(s - self.phase) + self.offset * s

    def abs_integral(self) -> float:
        a, b = self.s0, self.s1
        if self.amp == 0.0:
            return abs(self.offset) * (b - a)
        cuts = [a, b]
        r = -self.offset / self.amp
        if abs(r) <= 1.0:
            u1 = np.arcsin(r)
            for u in (u1, np.pi - u1):
                k0 = int(np.floor((a - self.phase - u) / TWO_PI)) - 1
                k1 = int(np.ceil((b - self.phase - u) / TWO_PI)) + 1
                for k in range(k0, k1 + 1):
                    z = self.phase + u + k * TWO_PI
                    if a < z < b:
                        cuts.append(z)
        F, cuts = self.antiderivative, sorted(cuts)
        return float(sum(abs(F(q) - F(p)) for p, q in zip(cuts[:-1], cuts[1:])))


@dataclass
class CircleMeasure:
    """Signed measure on R/2piZ: atoms plus a piecewise sin+const density."""

    atoms: list[tuple[float, float]] = field(default_factory=list)
    pieces: list[Piece] = field(default_factory=list)

    def __post_init__(self):
        self.atoms = [(float(_wrap(s)), float(w)) for s, w in self.atoms]
        self.pieces = sorted(self.pieces, key=lambda p: p.s0)

    # -- integrals ----------------------------------------------------------
    def total_variation(self) -> float:
        tv = sum(abs(w) for _, w in self.atoms)
        tv += sum(p.abs_integral() for p in self.pieces)
        return float(tv)

    # -- algebra ------------------------------------------------------------
    def covered_length(self) -> float:
        return float(sum(p.s1 - p.s0 for p in self.pieces))

    def with_const(self, alpha: float) -> "CircleMeasure":
        """The measure plus alpha * (Lebesgue on the circle)."""
        if abs(self.covered_length() - TWO_PI) > 1e-9:
            raise ValueError("density pieces must cover the circle to add a constant")
        pieces = [Piece(p.s0, p.s1, p.amp, p.phase, p.offset + alpha) for p in self.pieces]
        return CircleMeasure(list(self.atoms), pieces)

    def scaled(self, c: float) -> "CircleMeasure":
        atoms = [(s, c * w) for s, w in self.atoms]
        pieces = [Piece(p.s0, p.s1, c * p.amp, p.phase, c * p.offset) for p in self.pieces]
        return CircleMeasure(atoms, pieces)

    def shifted(self, s_bar: float) -> "CircleMeasure":
        """Pushforward under s -> s + s_bar (density becomes f(s - s_bar))."""
        atoms = [(_wrap(s + s_bar), w) for s, w in self.atoms]
        pieces = []
        for p in self.pieces:
            a = _wrap(p.s0 + s_bar)
            b = a + (p.s1 - p.s0)
            if b <= TWO_PI + 1e-15:
                pieces.append(Piece(a, min(b, TWO_PI), p.amp, _wrap(p.phase + s_bar), p.offset))
            else:
                ph = _wrap(p.phase + s_bar)
                pieces.append(Piece(a, TWO_PI, p.amp, ph, p.offset))
                pieces.append(Piece(0.0, b - TWO_PI, p.amp, ph, p.offset))
        return CircleMeasure(atoms, pieces)


def _pairings(measures: list[CircleMeasure], fs: list[TrigPoly]) -> np.ndarray:
    """Integral of each trig polynomial of fs against each measure, shape (len(fs), len(measures)).

    The measures must be piecewise densities; one with atoms raises
    ValueError.  Each piece is integrated by one panel of the 32-point
    Gauss-Legendre rule, exact to rounding for the polynomials paired here.
    The piece arrays, the density at the nodes and e^{is} at the nodes are
    built once for the whole list; each f then costs one ``TrigPoly.at`` on
    them.  Per measure, pieces are added in order, as a loop over the
    measure would add them.
    """
    if any(mu.atoms for mu in measures):
        raise ValueError("pairings take piecewise densities only, not atoms")
    out = np.zeros((len(fs), len(measures)))
    pieces = [(i, p.s0, p.s1, p.amp, p.phase, p.offset) for i, mu in enumerate(measures) for p in mu.pieces]
    if pieces:
        idx, s0, s1, amp, phase, offset = (np.array(col) for col in zip(*pieces))
        half = 0.5 * (s1 - s0)
        s = (0.5 * (s0 + s1))[:, None] + half[:, None] * GL_NODES
        density = amp[:, None] * np.sin(s - phase[:, None]) + offset[:, None]
        e = np.exp(1j * s)
        for row, f in zip(out, fs):
            np.add.at(row, idx, half * np.sum(GL_WEIGHTS * f.at(e) * density, axis=1))
    return out


def _cover_with_zeros(pieces: list[Piece]) -> list[Piece]:
    """Insert zero-density pieces so the circle is fully covered."""
    pieces = sorted(pieces, key=lambda p: p.s0)
    out = []
    cursor = 0.0
    for p in pieces:
        if p.s0 > cursor + 1e-15:
            out.append(Piece(cursor, p.s0, 0.0, 0.0, 0.0))
        out.append(p)
        cursor = max(cursor, p.s1)
    if cursor < TWO_PI - 1e-15:
        out.append(Piece(cursor, TWO_PI, 0.0, 0.0, 0.0))
    return out


# ---------------------------------------------------------------------------
# explicit jump densities


def g_beta(beta: float, s) -> np.ndarray | float:
    """Unnormalized pi-periodic jump density with zero mean.

    On [0, pi]: (sin s - cos b) 1_{[pi/2-b, pi/2+b]}(s) - (2/pi)(sin b - b cos b).
    """
    if not (0.0 <= beta < np.pi):
        raise BetaOutOfRange(f"beta must lie in [0, pi), got {beta}")
    s = np.asarray(s, dtype=float)
    sig = np.mod(s, np.pi)
    hump = np.where((sig >= np.pi / 2 - beta) & (sig <= np.pi / 2 + beta), np.sin(sig) - np.cos(beta), 0.0)
    out = hump - (2.0 / np.pi) * (np.sin(beta) - beta * np.cos(beta))
    return float(out) if out.ndim == 0 else out


def _gbar_unnormalized(beta: float) -> CircleMeasure:
    """The raw jump density as a measure; beta and pi - beta give the same one."""
    beta = min(beta, np.pi - beta)
    if beta <= np.pi / 4:
        lo, hi = np.pi / 2 - beta, np.pi / 2 + beta
        pieces = [
            Piece(lo, hi, 1.0, 0.0, -np.cos(beta)),
            Piece(lo + np.pi, hi + np.pi, 1.0, np.pi, -np.cos(beta)),
        ]
        return CircleMeasure([], _cover_with_zeros(pieces))
    lo, hi = np.pi / 2 - beta, np.pi / 2 + beta
    base = np.cos(beta) - np.sqrt(2.0) / 2.0
    pieces = [
        Piece(max(lo, 0.0), min(hi, np.pi), 1.0, 0.0, -np.sqrt(2.0) / 2.0),
        Piece(max(lo + np.pi, np.pi), min(hi + np.pi, TWO_PI), 1.0, np.pi, -np.sqrt(2.0) / 2.0),
    ]
    covered = _cover_with_zeros(pieces)
    out = [Piece(p.s0, p.s1, p.amp, p.phase, p.offset if p.amp != 0 else base) for p in covered]
    return CircleMeasure([], out)


def gbar_beta(beta: float) -> CircleMeasure:
    """Normalized pi-periodic jump density: the raw density scaled by c(beta) to total variation 1."""
    if not (0.0 < beta < np.pi):
        raise BetaOutOfRange(f"beta must lie in (0, pi), got {beta}")
    raw = _gbar_unnormalized(beta)
    return raw.scaled(1.0 / raw.total_variation())


# ---------------------------------------------------------------------------
# minimal disintegrations


@dataclass(frozen=True)
class Jump:
    beta: float
    s_bar: float


@dataclass(frozen=True)
class NonJump:
    s_bar: float
    sign: int = 1


def minimal_disintegration(kind: Jump | NonJump) -> CircleMeasure:
    """Unit-TV angular disintegration of the minimal kinetic measure."""
    if isinstance(kind, Jump):
        return gbar_beta(kind.beta).shifted(kind.s_bar)
    s, sgn = kind.s_bar, float(np.sign(kind.sign) or 1.0)
    atoms = [(s - np.pi / 2, 0.5 * sgn), (s + np.pi / 2, 0.5 * sgn)]
    return CircleMeasure(atoms, _cover_with_zeros([]))


def minimality_check(mu: CircleMeasure, alphas: Iterable[float]) -> bool:
    """True iff adding any sampled constant density does not lower the TV, up to _UNIT_TOL."""
    tv0 = mu.total_variation()
    if abs(tv0 - 1.0) > _UNIT_TOL:
        raise ValueError(f"measure must have unit total variation, got {tv0}")
    return all(mu.with_const(a).total_variation() >= tv0 - _UNIT_TOL for a in alphas)


# ---------------------------------------------------------------------------
# jump identity


def jump_identity_check(beta: float, psi: TrigPoly) -> tuple[float, float]:
    """Both sides of e1.(Phi(e^{ib}) - Phi(e^{-ib})) = -int g_b psi' ds.

    psi must be pi-periodic, with even harmonics only; an odd one raises
    ValueError.  The left side comes from the integrated entropy map, the
    right side from ``integrate`` of the closed-form density against psi',
    split at its breaks pi/2 +- b and 3pi/2 +- b; the two paths share no
    code.
    """
    if not (0.0 <= beta <= np.pi / 2):
        raise BetaOutOfRange(f"identity requires beta in [0, pi/2], got {beta}")
    if np.any(np.abs(psi.c[psi.ks() % 2 != 0]) > 1e-14):
        raise ValueError("generator must be pi-periodic (even harmonics only)")
    phi = entropy_from_generator(psi)
    lhs = float(phi.eval_circle(np.asarray(beta))[0] - phi.eval_circle(np.asarray(-beta))[0])
    dpsi = psi.derivative()
    edges = sorted({0.0, np.pi / 2 - beta, np.pi / 2 + beta, 3 * np.pi / 2 - beta, 3 * np.pi / 2 + beta, TWO_PI})
    return lhs, -integrate(lambda s: g_beta(beta, s) * dpsi(s), edges)


# ---------------------------------------------------------------------------
# ridge sigma field


def ridge_sigma_field(grid: Grid) -> dict[tuple[int, int], CircleMeasure]:
    """Minimal kinetic measure on the ridge of a covered grid's domain, as node cells {(i, j0): measure}.

    Cell i covers the ridge segment [a, b] within h/2 of its node and holds
    -(b - a) times the raw jump density at the segment's beta, shifted to
    the ridge angle.  By the jump identity, for every generator psi

        int psi' dsigma_cell = -(b - a) n.(Phi_psi(m+) - Phi_psi(m-)),

    with n = ``RIDGE_NORMAL`` and m+-, beta the traces and angle at the
    segment's middle.  That is what the weak kinetic identity of
    ``kinetic_residual`` asks of a jump across the ridge, so no cell is
    calibrated: the density is explicit.
    """
    if grid.angle != 0.0:
        raise NotImplementedError("ridge sigma field expects an axis-aligned grid")
    ridge = ridge_set(grid.domain)
    lo, hi = ridge.lo, ridge.hi
    if hi <= lo:
        return {}
    pts = grid.nodes
    j0 = int(np.argmin(np.abs(pts[0, :, 1])))
    xs = pts[:, j0, 0]
    h = grid.h

    a = np.maximum(xs - h / 2, lo)
    b = np.minimum(xs + h / 2, hi)
    on = np.flatnonzero(b - a > 0)
    a, b = a[on], b[on]
    eps_in = 1e-9 * max(1.0, hi - lo)
    betas = ridge.data(np.clip(0.5 * (a + b), lo + eps_in, hi - eps_in))["beta"]
    per_cell = zip(on.tolist(), betas.tolist(), (b - a).tolist())
    return {(i, j0): _gbar_unnormalized(beta).shifted(RIDGE_SBAR).scaled(-seg) for i, beta, seg in per_cell}


# ---------------------------------------------------------------------------
# kinetic residual


@dataclass(frozen=True)
class CompactBump:
    """C^infty bump exp(-r^2 / (R^2 - r^2)) supported in the radius-R disk."""

    center: tuple[float, float]
    radius: float

    def _eval(self, x: np.ndarray):
        """Offsets (dx, dy), R^2, the support mask, R^2 - r^2 on it and the bump value."""
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - self.center[0]
        dy = x[..., 1] - self.center[1]
        r2 = dx * dx + dy * dy
        R2 = self.radius**2
        inside = r2 < R2
        denom = np.where(inside, R2 - r2, 1.0)
        return dx, dy, R2, inside, denom, np.where(inside, np.exp(-r2 / denom), 0.0)

    def value(self, x: np.ndarray) -> np.ndarray:
        return self._eval(x)[-1]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        dx, dy, R2, inside, denom, f = self._eval(x)
        fac = np.where(inside, -2.0 * R2 / denom**2, 0.0) * f
        return np.stack([fac * dx, fac * dy], axis=-1)


PSI_SIN2 = TrigPoly.from_harmonics(sin={2: 1.0})
PSI_COS2 = TrigPoly.from_harmonics(cos={2: 1.0})
PSI_SIN4 = TrigPoly.from_harmonics(sin={4: 1.0})
PSI_COS4 = TrigPoly.from_harmonics(cos={4: 1.0})
GENERATORS = (PSI_SIN2, PSI_COS2, PSI_SIN4, PSI_COS4)  # the generators psi of the jump identity and the residual


def default_test_bank(grid: Grid) -> list[CompactBump]:
    """The spatial test functions zeta of the weak kinetic identity: ridge-centered and off-ridge bumps.

    Bump supports are sized from the signed distance to the domain of the
    (covered) grid so they stay inside the extended domain; otherwise the weak identity
    picks up boundary flux that has nothing to do with the kinetic measure.
    """
    domain = grid.domain
    ridge = ridge_set(domain)
    lo, hi = ridge.lo, ridge.hi
    span = max(hi - lo, 4 * grid.h)
    if hi > lo:
        centers = [(lo + f * (hi - lo), 0.0) for f in (0.25, 0.5, 0.75)]
    else:
        centers = [(0.5 * (lo + hi), 0.0)]
    depth = signed_distance(domain, np.array([0.5 * (lo + hi), 0.0]))
    centers.append((0.5 * (lo + hi), 0.45 * depth))
    bumps = []
    for c in centers:
        room = signed_distance(domain, np.asarray(c)) + domain.delta
        bumps.append(CompactBump(c, min(0.5 * span, 0.9 * room)))
    return bumps


def kinetic_residual(m: VectorField, cells: dict[tuple[int, int], CircleMeasure],
                     bumps: list[CompactBump]) -> tuple[float, float]:
    """Max over the bumps zeta and GENERATORS psi of |int Phi(m).grad(zeta) - int zeta psi' dsigma|.

    sigma is given by its node cells, and Phi is the entropy of the generator
    psi, evaluated at the angle of m.  Returns that maximum and the same
    maximum for sigma = 0, the largest |int Phi(m).grad(zeta)|.  Each input is evaluated once per
    call: w = e^{i arg m} at the active nodes, each bump's gradient there
    and its value at the cell nodes, and the table of every psi' paired
    with every cell.  A generator then costs its two component polynomials
    at w, as ``EntropyMap`` evaluates them.
    """
    grid = m.grid
    active = grid.active()
    pts = grid.nodes
    cell_pts = pts[[i for i, _ in cells], [j for _, j in cells]].reshape(-1, 2)
    grads = [bump.gradient(pts[active]) for bump in bumps]
    zetas = [bump.value(cell_pts) for bump in bumps]
    w = np.exp(1j * np.arctan2(m.values[..., 1][active], m.values[..., 0][active]))
    table = _pairings(list(cells.values()), [psi.derivative() for psi in GENERATORS])
    worst = without = 0.0
    for psi, pairings in zip(GENERATORS, table):
        phi = entropy_from_generator(psi)
        p1, p2 = phi.phi1.at(w), phi.phi2.at(w)
        for gz, zeta in zip(grads, zetas):
            lhs = grid.h**2 * float(np.sum(p1 * gz[:, 0] + p2 * gz[:, 1]))
            worst = max(worst, abs(lhs - float(zeta @ pairings)))
            without = max(without, abs(lhs))
    return worst, without


# ---------------------------------------------------------------------------
# sign structure


def derivative_min_on_arcs(mu: CircleMeasure) -> float:
    """Min of the density derivative over (0, pi/2) u (pi, 3pi/2).

    Atoms are ignored; only the piecewise-smooth density is examined.
    Candidate minimizers are arc/piece endpoints and interior extrema of
    the shifted sine, so the minimum is exact.  Pieces lie in [0, 2pi]
    (``shifted`` wraps and splits there) and both arcs in [0, 3pi/2], so
    no piece meets an arc shifted by 2pi.
    """
    arcs = ((0.0, np.pi / 2), (np.pi, 3 * np.pi / 2))
    best = np.inf
    for p in mu.pieces:
        for a0, a1 in arcs:
            lo, hi = max(p.s0, a0), min(p.s1, a1)
            if hi <= lo:
                continue
            cands = [lo, hi]
            k0 = int(np.floor((lo - p.phase) / np.pi))
            for k in range(k0, k0 + 3):
                z = p.phase + k * np.pi
                if lo < z < hi:
                    cands.append(z)
            vals = [p.amp * np.cos(c - p.phase) for c in cands]
            best = min(best, min(vals))
    return float(best if np.isfinite(best) else 0.0)


def sign_structure_report(cells: dict[tuple[int, int], CircleMeasure]) -> dict:
    """Nonnegativity margins of d/ds(sigma_x) on the two quadrant arcs, sigma given by its node cells."""
    return {"min_margin": min((derivative_min_on_arcs(mu) for mu in cells.values()), default=0.0),
            "n_cells": len(cells)}
