from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from aglab import kinetic
from aglab.entropy import TrigPoly, entropy_from_generator, sigma_frame
from aglab.errors import BetaOutOfRange
from aglab.fields import VectorField, exact_limit_field
from aglab.geometry import RIDGE_NORMAL, RIDGE_SBAR, Grid, ridge_set
from aglab.kinetic import (
    GENERATORS,
    PSI_COS2,
    PSI_COS4,
    PSI_SIN2,
    PSI_SIN4,
    CircleMeasure,
    Jump,
    NonJump,
    Piece,
    _pairings,
    default_test_bank,
    derivative_min_on_arcs,
    g_beta,
    gbar_beta,
    jump_identity_check,
    kinetic_residual,
    minimal_disintegration,
    minimality_check,
    ridge_sigma_field,
    sign_structure_report,
)

GENS = [PSI_COS2, PSI_SIN2, PSI_COS4, PSI_SIN4]
ALPHAS = [-1.0, -0.1, -0.05, -0.01, 0.01, 0.05, 0.1, 1.0]
TWO_PI = 2.0 * np.pi


def frame_generator(theta: float) -> TrigPoly:
    """Circle generator of the cubic frame entropy: psi(s) = sin 2(s - theta)."""
    return TrigPoly.from_harmonics(sin={2: 1.0}).shift(theta)


def jump_bracket(phi, m_plus, m_minus, n) -> float:
    """Geometric jump bracket n . (Phi(m+) - Phi(m-)) of one pair of traces."""
    return float(np.dot(n, phi(m_plus) - phi(m_minus)))


def sigma_zero_disintegration(s_bar: float, sign: int = 1) -> CircleMeasure:
    """Zero-average normalization: +-(1/4)(delta_s + delta_{s+pi} - L1/pi)."""
    sgn = float(np.sign(sign) or 1.0)
    atoms = [(s_bar, 0.25 * sgn), (s_bar + np.pi, 0.25 * sgn)]
    pieces = [Piece(0.0, TWO_PI, 0.0, 0.0, -sgn / (4.0 * np.pi))]
    return CircleMeasure(atoms, pieces)


def piece_density(p: Piece, s):
    return p.amp * np.sin(s - p.phase) + p.offset


def density(mu: CircleMeasure, s) -> np.ndarray:
    """The measure's density at the angles s, read from its pieces; atoms are left out."""
    s = np.mod(np.asarray(s, dtype=float), TWO_PI)
    out = np.zeros_like(s)
    for p in mu.pieces:
        sel = (s >= p.s0) & (s < p.s1)
        out[sel] = piece_density(p, s[sel])
    return out


def total_mass(mu: CircleMeasure) -> float:
    """Signed mass: the atoms' weights plus each piece's integral, in closed form."""
    pieces = sum(p.antiderivative(p.s1) - p.antiderivative(p.s0) for p in mu.pieces)
    return float(sum(w for _, w in mu.atoms) + pieces)


@dataclass
class KineticSample:
    s_values: np.ndarray
    chi: np.ndarray  # uint8, shape (nx, ny, N_s)

    def measure_per_node(self) -> np.ndarray:
        """Angular measure of {chi = 1} per node (bin-counting estimate)."""
        return self.chi.sum(axis=-1) * (TWO_PI / self.s_values.size)


def chi_sample(m: VectorField, n_s: int, tie_tol: float = 1e-14) -> KineticSample:
    """Exact thresholding chi = 1{e^{is} . m > 0}; ties count as 0."""
    if n_s % 2 != 0:
        raise ValueError("n_s must be even so s and s + pi are both sampled")
    s = np.arange(n_s) * (TWO_PI / n_s)
    dots = np.multiply.outer(m.values[..., 0], np.cos(s)) + np.multiply.outer(m.values[..., 1], np.sin(s))
    return KineticSample(s, (dots > tie_tol).astype(np.uint8))


def test_g_beta_point_value():
    assert g_beta(np.pi / 2, np.pi / 2) == pytest.approx(1 - 2 / np.pi, abs=1e-15)


def test_g_beta_pi_periodic_and_zero_mean():
    s = np.linspace(0, np.pi, 97)
    for beta in (0.3, np.pi / 4, 1.2, np.pi / 2):
        assert np.allclose(g_beta(beta, s), g_beta(beta, s + np.pi), atol=1e-14)
        breaks = sorted({np.pi / 2 - beta, np.pi / 2 + beta, 3 * np.pi / 2 - beta, 3 * np.pi / 2 + beta})
        mean, _ = quad(lambda t: g_beta(beta, t), 0, 2 * np.pi, points=breaks, limit=100)
        assert abs(mean) < 1e-12


def test_g_beta_out_of_range():
    with pytest.raises(BetaOutOfRange):
        g_beta(3.5, 0.1)
    # at and near the ends the raw density's total variation rounds to 0
    for beta in (0.0, 1e-300, 1e-8, 1e-6, np.pi - 1e-8):
        with pytest.raises(BetaOutOfRange):
            gbar_beta(beta)


def c_beta(beta: float) -> float:
    """c(beta), the scale of gbar_beta's raw density: the amplitude of its sine pieces (raw amplitude 1)."""
    return max(p.amp for p in gbar_beta(beta).pieces)


def test_c_beta_half_pi():
    assert c_beta(np.pi / 2) == pytest.approx(1.0 / (4 * (np.sqrt(2) - 1)), abs=1e-12)


def test_gbar_normalization_dense_grid():
    betas = np.linspace(0.0, np.pi, 102)[1:-1]
    worst = max(abs(gbar_beta(float(b)).total_variation() - 1.0) for b in betas)
    assert worst <= 1e-10


def test_gbar_tv_quadrature_crosscheck():
    # independent of the closed-form TV: adaptive quadrature of |density|
    for beta in (0.2, np.pi / 4 - 0.01, np.pi / 4 + 0.01, 1.3):
        mu = gbar_beta(beta)
        val = 0.0
        for p in mu.pieces:
            v, _ = quad(lambda s, p=p: abs(piece_density(p, s)), p.s0, p.s1, limit=100)
            val += v
        assert val == pytest.approx(1.0, abs=1e-9)


def test_gbar_symmetry_and_continuity():
    s = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    assert np.allclose(density(gbar_beta(2 * np.pi / 3), s), density(gbar_beta(np.pi / 3), s), atol=1e-14)
    d1 = density(gbar_beta(np.pi / 4 - 1e-9), s)
    d2 = density(gbar_beta(np.pi / 4 + 1e-9), s)
    assert np.max(np.abs(d1 - d2)) < 1e-6
    # pi-periodicity of the densities
    for beta in (0.4, 1.1):
        mu = gbar_beta(beta)
        assert np.allclose(density(mu, s), density(mu, s + np.pi), atol=1e-13)


@pytest.mark.parametrize("beta", [np.pi / 8, np.pi / 4, np.pi / 3, 3 * np.pi / 8, np.pi / 2])
@pytest.mark.parametrize("gen", GENS)
def test_jump_identity(beta, gen):
    lhs, rhs = jump_identity_check(beta, gen)
    assert abs(lhs - rhs) <= 1e-8


def test_jump_identity_degenerate():
    lhs, rhs = jump_identity_check(0.0, GENS[0])
    assert abs(lhs) < 1e-14 and abs(rhs) < 1e-12


def test_minimal_disintegration_nonjump():
    mu = minimal_disintegration(NonJump(0.0, 1))
    atoms = sorted(mu.atoms)
    assert atoms[0][0] == pytest.approx(np.pi / 2)
    assert atoms[1][0] == pytest.approx(3 * np.pi / 2)
    assert atoms[0][1] == atoms[1][1] == pytest.approx(0.5)
    assert mu.total_variation() == pytest.approx(1.0, abs=1e-14)
    neg = minimal_disintegration(NonJump(1.0, -1))
    assert neg.total_variation() == pytest.approx(1.0, abs=1e-14)
    assert total_mass(neg) == pytest.approx(-1.0, abs=1e-14)


def test_minimal_disintegration_jump():
    mu = minimal_disintegration(Jump(np.pi / 3, np.pi / 2))
    assert mu.total_variation() == pytest.approx(1.0, abs=1e-12)
    s = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    assert np.allclose(density(mu, s), density(gbar_beta(np.pi / 3), s - np.pi / 2), atol=1e-12)


def test_sigma_zero_variant():
    mu = sigma_zero_disintegration(0.0, 1)
    assert mu.total_variation() == pytest.approx(1.0, abs=1e-14)  # 1/4 (1 + 1 + 2)
    assert {round(s, 12) for s, _ in mu.atoms} == {0.0, round(np.pi, 12)}
    assert total_mass(mu) == pytest.approx(0.5 - 0.5, abs=1e-14)


@pytest.mark.parametrize("kind", [
    NonJump(0.0, 1), NonJump(2.0, -1),
    Jump(np.pi / 3, np.pi / 2), Jump(np.pi / 6, 0.0), Jump(2.4, 1.0),
])
def test_minimality_of_constructors(kind):
    assert minimality_check(minimal_disintegration(kind), ALPHAS)


@pytest.mark.parametrize("shift", [0.05, -0.05])
@pytest.mark.parametrize("kind", [Jump(np.pi / 3, np.pi / 2), Jump(1.2, 0.0), Jump(np.pi / 6, 0.25)])
def test_minimality_fails_after_constant_shift(kind, shift):
    mu = minimal_disintegration(kind).with_const(shift)
    mu = mu.scaled(1.0 / mu.total_variation())
    assert not minimality_check(mu, ALPHAS)


def test_chi_sample_half_circle(grid64, limit64):
    _, m = limit64
    const = VectorField(grid64, np.broadcast_to([1.0, 0.0], grid64.shape + (2,)).copy())
    ks = chi_sample(const, 64)
    s = ks.s_values
    want = (np.cos(s) > 1e-14).astype(np.uint8)
    assert np.all(ks.chi == want[None, None, :])
    # antipodal complementarity off ties
    half = 32
    dots = np.cos(s)
    no_tie = np.abs(dots) > 1e-14
    tot = ks.chi[..., :half] + ks.chi[..., half:]
    assert np.all(tot[..., no_tie[:half]] == 1)
    # per-node measure of the admissible half circle
    ks2 = chi_sample(m, 64)
    meas = ks2.measure_per_node()[grid64.active()]
    assert np.all(np.abs(meas - np.pi) <= 2 * np.pi / 64 + 1e-12)
    with pytest.raises(ValueError):
        chi_sample(m, 63)


def test_bracket_matches_g_quadrature():
    # vertical-normal configuration: n = (0,1), traces e^{i(sbar +- beta)}
    sbar = np.pi / 2
    for beta in (np.pi / 6, np.pi / 4, np.pi / 3):
        m_plus = np.array([np.cos(sbar + beta), np.sin(sbar + beta)])
        m_minus = np.array([np.cos(sbar - beta), np.sin(sbar - beta)])
        n = np.array([0.0, 1.0])
        for psi in GENS:
            phi = entropy_from_generator(psi)
            geom = jump_bracket(phi, m_plus, m_minus, n)
            dpsi = psi.derivative()
            val, _ = quad(lambda s: g_beta(beta, s - sbar) * float(dpsi(np.asarray(s))),
                          0, 2 * np.pi, limit=200,
                          points=[sbar + np.pi / 2 - beta, sbar + np.pi / 2 + beta,
                                  sbar - np.pi / 2 + beta, sbar - np.pi / 2 - beta])
            assert geom == pytest.approx(-val, abs=1e-8)


def ridge_cells(domain, grid) -> dict:
    """Per ridge-row node (i, j0), one at a time: its segment's length b - a, and beta, m+ and m- at its middle."""
    ridge = ridge_set(domain)
    lo, hi = ridge.lo, ridge.hi
    j0 = int(np.argmin(np.abs(grid.nodes[0, :, 1])))
    xs, h = grid.nodes[:, j0, 0], grid.h
    eps_in = 1e-9 * max(1.0, hi - lo)
    out = {}
    for i in range(grid.nx):
        a = max(xs[i] - h / 2, lo)
        b = min(xs[i] + h / 2, hi)
        if b - a > 0:
            data = ridge.data(np.asarray([np.clip(0.5 * (a + b), lo + eps_in, hi - eps_in)]))
            out[(i, j0)] = b - a, float(data["beta"][0]), data["m_plus"][0], data["m_minus"][0]
    return out


def test_ridge_sigma_field_calibration(ellipse, grid64):
    # each cell is rho (b - a) times the unit-TV density at its beta, with rho = -1/c(beta)
    cells = ridge_sigma_field(grid64)
    segments = ridge_cells(ellipse, grid64)
    assert cells and list(cells) == list(segments)
    for key, mu in cells.items():
        seg, beta, _, _ = segments[key]
        assert mu.total_variation() == pytest.approx(seg / c_beta(beta), rel=1e-9)
        base = gbar_beta(beta).shifted(RIDGE_SBAR)
        rho = [p.amp / (seg * q.amp) for p, q in zip(mu.pieces, base.pieces) if q.amp]
        assert rho and all(r == pytest.approx(-1.0 / c_beta(beta), rel=1e-9) for r in rho)


def test_ridge_sigma_field_rejects_rotated_grid(ellipse):
    with pytest.raises(NotImplementedError):
        ridge_sigma_field(Grid.cover(ellipse, resolution=16, angle=0.3))


def test_kinetic_residual_refines(ellipse):
    prev = None
    for h in (1 / 32, 1 / 64):
        g = Grid.cover(ellipse, h=h)
        _, m = exact_limit_field(g)
        bumps = default_test_bank(g)
        with_sigma, without = kinetic_residual(m, ridge_sigma_field(g), bumps)
        assert with_sigma < 0.12 * without
        if prev is not None:
            assert with_sigma < prev * 0.75
        prev = with_sigma


def test_residual_zero_for_constant_field(grid64):
    # constant Phi(m) pairs against grad(zeta) of a compact bump: zero up
    # to the nodal quadrature error of the bump itself
    m = VectorField(grid64, np.broadcast_to([0.0, 1.0], grid64.shape + (2,)).copy())
    residual, _ = kinetic_residual(m, {}, default_test_bank(grid64))
    assert residual < 0.5 * grid64.h**2


def test_sign_structure_margins():
    for beta in (0.3, np.pi / 4, 1.0, np.pi / 2):
        assert derivative_min_on_arcs(gbar_beta(beta).shifted(np.pi)) >= -1e-12
    # tilted jump flagged by a strictly negative margin
    assert derivative_min_on_arcs(gbar_beta(np.pi / 3).shifted(np.pi / 4)) < -0.1


def test_sign_structure_report_on_reference(ellipse, grid64):
    cells = ridge_sigma_field(grid64)
    rep = sign_structure_report(cells)
    assert rep["min_margin"] >= -1e-12
    assert rep["n_cells"] == len(cells)


# ---------------------------------------------------------------------------
# the batched kinetic code against the per-measure and per-cell formulas


def integrate_against(mu: CircleMeasure, f) -> float:
    """Integral of f against one piecewise density: 32-point Gauss-Legendre per piece."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for p in mu.pieces:
        half = 0.5 * (p.s1 - p.s0)
        mid = 0.5 * (p.s0 + p.s1)
        s = mid + half * nodes
        total += half * float(np.sum(weights * np.asarray(f(s)) * piece_density(p, s)))
    return float(total)


def test_pairings_match_per_measure_integrals():
    measures = [
        gbar_beta(0.4).shifted(1.3),
        gbar_beta(1.2),
        CircleMeasure(),  # nothing to integrate
        minimal_disintegration(Jump(2.4, 1.0)).scaled(-0.3),
        CircleMeasure(pieces=[Piece(0.0, TWO_PI, 0.0, 0.0, 0.7)]),  # a constant piece
    ]
    fs = [psi.derivative() for psi in GENS]
    want = np.array([[integrate_against(mu, f) for mu in measures] for f in fs])
    got = _pairings(measures, fs)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14
    assert _pairings([], fs).shape == (len(fs), 0)


@pytest.mark.parametrize("atomic", [minimal_disintegration(NonJump(0.7, -1)), sigma_zero_disintegration(2.0, 1)],
                         ids=["atoms-beside-zero-pieces", "atoms-and-a-constant-piece"])
def test_pairings_reject_atoms(atomic):
    with pytest.raises(ValueError, match="atoms"):
        _pairings([gbar_beta(0.4), atomic], [PSI_SIN2.derivative()])


_JUMPS = st.builds(lambda beta, s, c: gbar_beta(beta).shifted(s).scaled(c),
                   st.floats(0.01, np.pi - 0.01), st.floats(0.0, TWO_PI), st.floats(-2.0, 2.0))
_EVEN_GENERATORS = st.builds(lambda a, b, c, d: TrigPoly.from_harmonics(cos={2: a, 4: b}, sin={2: c, 4: d}),
                             *[st.floats(-1.0, 1.0)] * 4)


@given(measures=st.lists(_JUMPS, max_size=6),
       gens=st.lists(st.one_of(st.sampled_from(GENS), _EVEN_GENERATORS), min_size=1, max_size=5))
def test_pairings_bank_matches_single_generator_calls(measures, gens):
    fs = [psi.derivative() for psi in gens]
    one_by_one = np.stack([_pairings(measures, [f])[0] for f in fs])
    assert np.array_equal(_pairings(measures, fs), one_by_one)


@pytest.fixture(scope="module", params=["ellipse", "stadium"])
def field64(request):
    """A domain, its h = 1/64 grid and the limit field on it."""
    domain = request.getfixturevalue(request.param)
    grid = Grid.cover(domain, h=1 / 64)
    return domain, grid, exact_limit_field(grid)[1]


def test_ridge_sigma_field_satisfies_the_jump_identity(field64):
    # for every generator, int psi' dsigma_cell = -(b - a) n.(Phi(m+) - Phi(m-)), cell by cell
    domain, grid64, _ = field64
    cells = ridge_sigma_field(grid64)
    segments = ridge_cells(domain, grid64)
    assert segments and list(cells) == list(segments)
    for psi in GENERATORS:
        phi, dpsi = entropy_from_generator(psi), psi.derivative()
        for key, (seg, _, m_plus, m_minus) in segments.items():
            want = -seg * jump_bracket(phi, m_plus, m_minus, RIDGE_NORMAL)
            assert abs(integrate_against(cells[key], dpsi) - want) <= 1e-12 * seg


def test_ridge_sigma_field_uses_the_explicit_density(ellipse, grid64, monkeypatch):
    # no cell is normalized or calibrated by a pairing
    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(kinetic, "gbar_beta", refuse)
    monkeypatch.setattr(kinetic, "_pairings", refuse)
    assert ridge_sigma_field(grid64)


def test_ridge_sigma_field_matches_per_cell_loop(field64):
    # cross-check against the calibration path: each cell against
    # base.scaled(rho (b - a)), rho = -bracket / pairing of the unit-TV base,
    # to 1e-13 in rho
    domain, grid64, _ = field64
    cells = ridge_sigma_field(grid64)
    phi_e = partial(sigma_frame, 0.0)
    dpsi_e = frame_generator(0.0).derivative()
    segments = ridge_cells(domain, grid64)
    assert segments and list(cells) == list(segments)
    for key, (seg, beta, m_plus, m_minus) in segments.items():
        base = gbar_beta(beta).shifted(RIDGE_SBAR)
        bracket = jump_bracket(phi_e, m_plus, m_minus, RIDGE_NORMAL)
        want, got = base.scaled(-bracket / integrate_against(base, dpsi_e) * seg), cells[key]
        assert got.atoms == want.atoms
        assert [(p.s0, p.s1, p.phase) for p in got.pieces] == [(p.s0, p.s1, p.phase) for p in want.pieces]
        for p, q, b in zip(got.pieces, want.pieces, base.pieces):
            assert abs(p.amp - q.amp) <= 1e-13 * seg * abs(b.amp)
            assert abs(p.offset - q.offset) <= 1e-13 * seg * abs(b.offset)


def test_kinetic_residual_matches_per_cell_loop(field64):
    domain, grid64, m = field64
    cells = ridge_sigma_field(grid64)
    bumps = default_test_bank(grid64)
    active, pts = grid64.active(), grid64.nodes
    angle = np.arctan2(m.values[..., 1], m.values[..., 0])
    worst = 0.0
    for psi in GENERATORS:
        phi = entropy_from_generator(psi)
        phi_m = np.stack([np.real(np.exp(1j * np.multiply.outer(angle, p.ks())) @ p.c)
                          for p in (phi.phi1, phi.phi2)], axis=-1)
        dpsi = psi.derivative()
        pairings = {key: integrate_against(mu, dpsi) for key, mu in cells.items()}
        for bump in bumps:
            lhs = grid64.h**2 * float(np.sum(np.sum(phi_m * bump.gradient(pts), axis=-1)[active]))
            rhs = sum(float(bump.value(pts[key])) * pairings[key] for key in cells)
            worst = max(worst, abs(lhs - rhs))
    residual, without = kinetic_residual(m, cells, bumps)
    assert abs(residual - worst) <= 1e-13
    assert kinetic_residual(m, {}, bumps) == (without, without)
