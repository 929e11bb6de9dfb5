"""Kinetic formulation tools.

The one-bit density chi(x, s) = 1{e^{is} . m(x) > 0}, the explicit
pi-periodic jump densities on the circle with their normalization
constant, minimal angular disintegrations, the jump identity relating
entropies to the unnormalized density, total-variation minimality
checks, the weak kinetic-identity residual against a bank of test
functions, and the sign-structure report for quadrant arcs.

Angular measures are represented exactly: a finite atom list plus a
piecewise density, every piece of the form A*sin(s - phase) + B on an
arc.  Total variations and constant shifts are evaluated in closed form
(sign changes of a shifted sine are explicit), which keeps the 1e-10
normalization checks honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .entropy import (
    EntropyGenerator,
    Frame,
    TrigPoly,
    entropy_from_generator,
    frame_entropy_map,
    frame_generator,
    jump_bracket,
)
from .errors import BetaOutOfRange
from .fields import VectorField
from .geometry import GL_NODES, GL_WEIGHTS, Domain, Grid, RidgeSet, integrate, ridge_set, signed_distance

TWO_PI = 2.0 * np.pi


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

    def density(self, s):
        return self.amp * np.sin(s - self.phase) + self.offset

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

    def signed_integral(self) -> float:
        return float(self.antiderivative(self.s1) - self.antiderivative(self.s0))


@dataclass
class CircleMeasure:
    """Signed measure on R/2piZ: atoms plus a piecewise sin+const density."""

    atoms: list[tuple[float, float]] = field(default_factory=list)
    pieces: list[Piece] = field(default_factory=list)
    pi_periodic: bool = False

    def __post_init__(self):
        self.atoms = [(float(_wrap(s)), float(w)) for s, w in self.atoms]
        self.pieces = sorted(self.pieces, key=lambda p: p.s0)

    # -- evaluation ---------------------------------------------------------
    def density(self, s) -> np.ndarray:
        s = _wrap(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        for p in self.pieces:
            sel = (s >= p.s0) & (s < p.s1)
            out[sel] = p.density(s[sel])
        return out

    # -- integrals ----------------------------------------------------------
    def total_variation(self) -> float:
        tv = sum(abs(w) for _, w in self.atoms)
        tv += sum(p.abs_integral() for p in self.pieces)
        return float(tv)

    def total_mass(self) -> float:
        mass = sum(w for _, w in self.atoms)
        mass += sum(p.signed_integral() for p in self.pieces)
        return float(mass)

    # -- algebra ------------------------------------------------------------
    def covered_length(self) -> float:
        return float(sum(p.s1 - p.s0 for p in self.pieces))

    def with_const(self, alpha: float) -> "CircleMeasure":
        """The measure plus alpha * (Lebesgue on the circle)."""
        if abs(self.covered_length() - TWO_PI) > 1e-9:
            raise ValueError("density pieces must cover the circle to add a constant")
        pieces = [Piece(p.s0, p.s1, p.amp, p.phase, p.offset + alpha) for p in self.pieces]
        return CircleMeasure(list(self.atoms), pieces, pi_periodic=False)

    def scaled(self, c: float) -> "CircleMeasure":
        atoms = [(s, c * w) for s, w in self.atoms]
        pieces = [Piece(p.s0, p.s1, c * p.amp, p.phase, c * p.offset) for p in self.pieces]
        return CircleMeasure(atoms, pieces, pi_periodic=self.pi_periodic)

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
        return CircleMeasure(atoms, pieces, pi_periodic=self.pi_periodic)

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "atoms": [[s, w] for s, w in self.atoms],
            "pieces": [
                {"s0": p.s0, "s1": p.s1, "kind": "const" if p.amp == 0 else "sin",
                 "params": [p.amp, p.phase, p.offset]}
                for p in self.pieces
            ],
            "pi_periodic": self.pi_periodic,
        }


def _pairings(measures: list[CircleMeasure], f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Integral of f against each measure, with one call of f for the whole list.

    Atoms are weighted point values; each piece is integrated by one panel of
    the 32-point Gauss-Legendre rule, exact to rounding for the trig
    polynomials f paired here.  Per measure, atoms come first and pieces
    follow in order, as a loop over the measure would add them.
    """
    out = np.zeros(len(measures))
    atoms = [(i, s, w) for i, mu in enumerate(measures) for s, w in mu.atoms]
    if atoms:
        idx, s, w = (np.array(col) for col in zip(*atoms))
        np.add.at(out, idx, w * f(s))
    pieces = [(i, p.s0, p.s1, p.amp, p.phase, p.offset) for i, mu in enumerate(measures) for p in mu.pieces]
    if pieces:
        idx, s0, s1, amp, phase, offset = (np.array(col) for col in zip(*pieces))
        half = 0.5 * (s1 - s0)
        s = (0.5 * (s0 + s1))[:, None] + half[:, None] * GL_NODES
        density = amp[:, None] * np.sin(s - phase[:, None]) + offset[:, None]
        np.add.at(out, idx, half * np.sum(GL_WEIGHTS * f(s) * density, axis=1))
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
    if beta <= np.pi / 4:
        lo, hi = np.pi / 2 - beta, np.pi / 2 + beta
        pieces = [
            Piece(lo, hi, 1.0, 0.0, -np.cos(beta)),
            Piece(lo + np.pi, hi + np.pi, 1.0, np.pi, -np.cos(beta)),
        ]
        return CircleMeasure([], _cover_with_zeros(pieces), pi_periodic=True)
    lo, hi = np.pi / 2 - beta, np.pi / 2 + beta
    base = np.cos(beta) - np.sqrt(2.0) / 2.0
    pieces = [
        Piece(max(lo, 0.0), min(hi, np.pi), 1.0, 0.0, -np.sqrt(2.0) / 2.0),
        Piece(max(lo + np.pi, np.pi), min(hi + np.pi, TWO_PI), 1.0, np.pi, -np.sqrt(2.0) / 2.0),
    ]
    covered = _cover_with_zeros(pieces)
    out = [Piece(p.s0, p.s1, p.amp, p.phase, p.offset if p.amp != 0 else base) for p in covered]
    return CircleMeasure([], out, pi_periodic=True)


@lru_cache(maxsize=4096)
def c_beta(beta: float) -> float:
    """Normalization constant: c(beta) scales the raw density to unit TV."""
    if not (0.0 < beta < np.pi):
        raise BetaOutOfRange(f"beta must lie in (0, pi), got {beta}")
    if beta > np.pi / 2:
        return c_beta(np.pi - beta)
    tv = _gbar_unnormalized(beta).total_variation()
    return 1.0 / tv


def gbar_beta(beta: float) -> CircleMeasure:
    """Normalized pi-periodic jump density (total variation exactly 1)."""
    if not (0.0 < beta < np.pi):
        raise BetaOutOfRange(f"beta must lie in (0, pi), got {beta}")
    if beta > np.pi / 2:
        return gbar_beta(np.pi - beta)
    return _gbar_unnormalized(beta).scaled(c_beta(beta))


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
    return CircleMeasure(atoms, _cover_with_zeros([]), pi_periodic=True)


def minimality_check(mu: CircleMeasure, alphas: Iterable[float], tol: float = 1e-10) -> bool:
    """True iff adding any sampled constant density does not lower the TV."""
    tv0 = mu.total_variation()
    if abs(tv0 - 1.0) > 1e-10:
        raise ValueError(f"measure must have unit total variation, got {tv0}")
    return all(mu.with_const(a).total_variation() >= tv0 - tol for a in alphas)


# ---------------------------------------------------------------------------
# jump identity


def jump_identity_check(beta: float, gen: EntropyGenerator) -> tuple[float, float]:
    """Both sides of e1.(Phi(e^{ib}) - Phi(e^{-ib})) = -int g_b psi' ds.

    The left side comes from the integrated entropy map, the right side
    from ``integrate`` of the closed-form density against psi', split at
    its breaks pi/2 +- b and 3pi/2 +- b; the two paths share no code.
    """
    if not (0.0 <= beta <= np.pi / 2):
        raise BetaOutOfRange(f"identity requires beta in [0, pi/2], got {beta}")
    if not gen.pi_periodic:
        raise ValueError("generator must be pi-periodic")
    phi = entropy_from_generator(gen)
    lhs = float(phi.eval_circle(np.asarray(beta))[0] - phi.eval_circle(np.asarray(-beta))[0])
    dpsi = gen.psi.derivative()
    edges = sorted({0.0, np.pi / 2 - beta, np.pi / 2 + beta, 3 * np.pi / 2 - beta, 3 * np.pi / 2 + beta, TWO_PI})
    return lhs, -integrate(lambda s: g_beta(beta, s) * dpsi(s), edges)


# ---------------------------------------------------------------------------
# ridge sigma field


@dataclass
class RidgeSigmaField:
    """Node-indexed angular measures supported on the ridge cells.

    ``rho`` holds the per-cell calibration factor: the scalar multiple of
    the unit-TV jump density whose axis-frame pairing reproduces the
    geometric jump bracket of the traces.  It is computed, not assumed,
    and comes out negative for this field's jump orientation (the ridge
    bisector sits a quarter turn from the density's reference axis).
    """

    grid: Grid
    cells: dict[tuple[int, int], CircleMeasure]
    rho: dict[tuple[int, int], float]
    seg_length: dict[tuple[int, int], float]
    beta: dict[tuple[int, int], float]

    def total_variation(self) -> float:
        return sum(m.total_variation() for m in self.cells.values())


def ridge_sigma_field(domain: Domain, grid: Grid) -> RidgeSigmaField:
    """Calibrated minimal-measure candidate concentrated on the ridge row."""
    if grid.angle != 0.0:
        raise NotImplementedError("ridge sigma field expects an axis-aligned grid")
    ridge = ridge_set(domain)
    lo, hi = ridge.p_minus[0], ridge.p_plus[0]
    if hi <= lo:
        return RidgeSigmaField(grid, {}, {}, {}, {})
    pts = grid.nodes
    j0 = int(np.argmin(np.abs(pts[0, :, 1])))
    xs = pts[:, j0, 0]
    h = grid.h
    phi_e = frame_entropy_map(Frame(0.0))
    dpsi_e = frame_generator(Frame(0.0)).psi.derivative()

    a = np.maximum(xs - h / 2, lo)
    b = np.minimum(xs + h / 2, hi)
    on = np.flatnonzero(b - a > 0)
    a, b = a[on], b[on]
    eps_in = 1e-9 * max(1.0, hi - lo)
    data = ridge.data(np.clip(0.5 * (a + b), lo + eps_in, hi - eps_in))
    bases = [gbar_beta(beta).shifted(sbar) for beta, sbar in zip(data["beta"].tolist(), data["sbar"].tolist())]
    bracket = jump_bracket(phi_e, data["m_plus"], data["m_minus"], data["n"])
    r = -bracket / _pairings(bases, dpsi_e)
    keys = [(i, j0) for i in on.tolist()]
    rho = dict(zip(keys, r.tolist()))
    seg = dict(zip(keys, (b - a).tolist()))
    cells = {key: base.scaled(rho[key] * seg[key]) for key, base in zip(keys, bases)}
    return RidgeSigmaField(grid, cells, rho, seg, dict(zip(keys, data["beta"].tolist())))


# ---------------------------------------------------------------------------
# kinetic residual


@dataclass(frozen=True)
class CompactBump:
    """C^infty bump exp(-r^2 / (R^2 - r^2)) supported in the radius-R disk."""

    center: tuple[float, float]
    radius: float

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - self.center[0]
        dy = x[..., 1] - self.center[1]
        r2 = dx * dx + dy * dy
        R2 = self.radius**2
        inside = r2 < R2
        denom = np.where(inside, R2 - r2, 1.0)
        return np.where(inside, np.exp(-r2 / denom), 0.0)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - self.center[0]
        dy = x[..., 1] - self.center[1]
        r2 = dx * dx + dy * dy
        R2 = self.radius**2
        inside = r2 < R2
        denom = np.where(inside, R2 - r2, 1.0)
        f = np.where(inside, np.exp(-r2 / denom), 0.0)
        fac = np.where(inside, -2.0 * R2 / denom**2, 0.0) * f
        return np.stack([fac * dx, fac * dy], axis=-1)


@dataclass
class TestBank:
    bumps: list[CompactBump]
    generators: list[EntropyGenerator]


PSI_SIN2 = TrigPoly.from_harmonics(sin={2: 1.0})
PSI_COS2 = TrigPoly.from_harmonics(cos={2: 1.0})
PSI_SIN4 = TrigPoly.from_harmonics(sin={4: 1.0})
PSI_COS4 = TrigPoly.from_harmonics(cos={4: 1.0})


def default_test_bank(domain: Domain, grid: Grid) -> TestBank:
    """Ridge-centered and off-ridge bumps, low even-harmonic generators.

    Bump supports are sized from the signed distance so they stay inside
    the extended domain; otherwise the weak identity picks up boundary
    flux that has nothing to do with the kinetic measure.
    """
    ridge = ridge_set(domain)
    lo, hi = ridge.p_minus[0], ridge.p_plus[0]
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
    gens = [EntropyGenerator(p) for p in (PSI_SIN2, PSI_COS2, PSI_SIN4, PSI_COS4)]
    return TestBank(bumps, gens)


@dataclass
class KineticResidualReport:
    max_residual: float
    without_sigma: float  # the residual of sigma = 0: max over the bank of |int Phi(m).grad(zeta)|


def kinetic_residual(m: VectorField, cells: dict[tuple[int, int], CircleMeasure],
                     bank: TestBank) -> KineticResidualReport:
    """Max over the bank of |int Phi(m).grad(zeta) - int zeta psi' dsigma|, sigma given by its node cells."""
    grid = m.grid
    active = grid.active()
    pts = grid.nodes
    cell_pts = pts[[i for i, _ in cells], [j for _, j in cells]].reshape(-1, 2)
    grads = [bump.gradient(pts)[active] for bump in bank.bumps]
    zetas = [bump.value(cell_pts) for bump in bank.bumps]
    worst = without = 0.0
    for gen in bank.generators:
        phi_m = entropy_from_generator(gen).eval_vectors(m.values[active])
        pairings = _pairings(list(cells.values()), gen.psi.derivative())
        for gz, zeta in zip(grads, zetas):
            lhs = grid.h**2 * float(np.sum(np.sum(phi_m * gz, axis=-1)))
            worst = max(worst, abs(lhs - float(zeta @ pairings)))
            without = max(without, abs(lhs))
    return KineticResidualReport(worst, without)


# ---------------------------------------------------------------------------
# sign structure


def derivative_min_on_arcs(mu: CircleMeasure) -> float:
    """Min of the density derivative over (0, pi/2) u (pi, 3pi/2).

    Atoms are ignored; only the piecewise-smooth density is examined.
    Candidate minimizers are arc/piece endpoints and interior extrema of
    the shifted sine, so the minimum is exact.
    """
    arcs = ((0.0, np.pi / 2), (np.pi, 3 * np.pi / 2))
    best = np.inf
    for p in mu.pieces:
        for copy in (0.0, TWO_PI):
            s0, s1 = p.s0 + copy, p.s1 + copy
            for a0, a1 in arcs:
                lo, hi = max(s0, a0), min(s1, a1)
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


@dataclass
class SignStructureReport:
    min_margin: float
    vertical_normal_fraction: float
    n_cells: int

    def to_json(self) -> dict:
        return {
            "min_margin": self.min_margin,
            "vertical_normal_fraction": self.vertical_normal_fraction,
            "n_cells": self.n_cells,
        }


def sign_structure_report(cells: dict[tuple[int, int], CircleMeasure], ridge: RidgeSet) -> SignStructureReport:
    """Nonnegativity margins of d/ds(sigma_x) on the two quadrant arcs, sigma given by its node cells.

    Also reports the fraction of ridge normals aligned with the vertical
    axis, the axis-alignment census for the jump set.
    """
    min_margin = min((derivative_min_on_arcs(mu) for mu in cells.values()), default=0.0)
    vertical = 1.0
    if ridge.length > 0:
        xs = np.linspace(ridge.p_minus[0], ridge.p_plus[0], 257)[1:-1]
        n = ridge.data(xs)["n"]
        aligned = np.abs(np.abs(n[..., 1]) - 1.0) < 1e-9
        vertical = float(np.mean(aligned))
    return SignStructureReport(min_margin, vertical, len(cells))
