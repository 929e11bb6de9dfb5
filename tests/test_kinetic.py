from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from aglab.entropy import (
    EntropyGenerator,
    Frame,
    TrigPoly,
    entropy_from_generator,
    frame_entropy_map,
    frame_generator,
    jump_bracket,
)
from aglab.errors import BetaOutOfRange
from aglab.fields import VectorField, exact_limit_field
from aglab.geometry import Ellipse, Grid, ridge_set
from aglab.kinetic import (
    PSI_COS2,
    PSI_COS4,
    PSI_SIN2,
    PSI_SIN4,
    CircleMeasure,
    Jump,
    NonJump,
    Piece,
    RidgeSigmaField,
    _pairings,
    c_beta,
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

GENS = [EntropyGenerator(p) for p in (PSI_COS2, PSI_SIN2, PSI_COS4, PSI_SIN4)]
ALPHAS = [-1.0, -0.1, -0.05, -0.01, 0.01, 0.05, 0.1, 1.0]
TWO_PI = 2.0 * np.pi


def sigma_zero_disintegration(s_bar: float, sign: int = 1) -> CircleMeasure:
    """Zero-average normalization: +-(1/4)(delta_s + delta_{s+pi} - L1/pi)."""
    sgn = float(np.sign(sign) or 1.0)
    atoms = [(s_bar, 0.25 * sgn), (s_bar + np.pi, 0.25 * sgn)]
    pieces = [Piece(0.0, TWO_PI, 0.0, 0.0, -sgn / (4.0 * np.pi))]
    return CircleMeasure(atoms, pieces, pi_periodic=True)


def circle_measure_from_json(obj: dict) -> CircleMeasure:
    """Inverse of ``CircleMeasure.to_json``."""
    atoms = [(s, w) for s, w in obj["atoms"]]
    pieces = [Piece(p["s0"], p["s1"], *p["params"]) for p in obj["pieces"]]
    return CircleMeasure(atoms, pieces, pi_periodic=obj.get("pi_periodic", False))


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
    with pytest.raises(BetaOutOfRange):
        gbar_beta(0.0)


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
            v, _ = quad(lambda s, p=p: abs(p.density(s)), p.s0, p.s1, limit=100)
            val += v
        assert val == pytest.approx(1.0, abs=1e-9)


def test_gbar_symmetry_and_continuity():
    s = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    assert np.allclose(gbar_beta(2 * np.pi / 3).density(s), gbar_beta(np.pi / 3).density(s), atol=1e-14)
    d1 = gbar_beta(np.pi / 4 - 1e-9).density(s)
    d2 = gbar_beta(np.pi / 4 + 1e-9).density(s)
    assert np.max(np.abs(d1 - d2)) < 1e-6
    # pi-periodicity of the densities
    for beta in (0.4, 1.1):
        mu = gbar_beta(beta)
        assert np.allclose(mu.density(s), mu.density(s + np.pi), atol=1e-13)


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
    assert neg.total_mass() == pytest.approx(-1.0, abs=1e-14)


def test_minimal_disintegration_jump():
    mu = minimal_disintegration(Jump(np.pi / 3, np.pi / 2))
    assert mu.total_variation() == pytest.approx(1.0, abs=1e-12)
    s = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    assert np.allclose(mu.density(s), gbar_beta(np.pi / 3).density(s - np.pi / 2), atol=1e-12)


def test_sigma_zero_variant():
    mu = sigma_zero_disintegration(0.0, 1)
    assert mu.total_variation() == pytest.approx(1.0, abs=1e-14)  # 1/4 (1 + 1 + 2)
    assert {round(s, 12) for s, _ in mu.atoms} == {0.0, round(np.pi, 12)}
    assert mu.total_mass() == pytest.approx(0.5 - 0.5, abs=1e-14)


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
        for gen in GENS:
            phi_map = frame_entropy_map(Frame(0.0)) if gen is None else None
            phi = entropy_from_generator(gen)
            geom = jump_bracket(phi, m_plus, m_minus, n)
            dpsi = gen.psi.derivative()
            val, _ = quad(lambda s: g_beta(beta, s - sbar) * float(dpsi(np.asarray(s))),
                          0, 2 * np.pi, limit=200,
                          points=[sbar + np.pi / 2 - beta, sbar + np.pi / 2 + beta,
                                  sbar - np.pi / 2 + beta, sbar - np.pi / 2 - beta])
            assert geom == pytest.approx(-val, abs=1e-8)


def test_ridge_sigma_field_calibration(ellipse, grid64):
    sig = ridge_sigma_field(ellipse, grid64)
    assert sig.cells
    for key, rho in sig.rho.items():
        beta = sig.beta[key]
        assert rho == pytest.approx(-1.0 / c_beta(beta), rel=1e-9)
    # total variation equals segment length / c(beta) summed
    tv = sig.total_variation()
    want = sum(l / c_beta(sig.beta[k]) for k, l in sig.seg_length.items())
    assert tv == pytest.approx(want, rel=1e-9)


def test_ridge_sigma_field_rejects_rotated_grid(ellipse):
    with pytest.raises(NotImplementedError):
        ridge_sigma_field(ellipse, Grid.cover(ellipse, resolution=16, angle=0.3))


def test_kinetic_residual_refines(ellipse):
    prev = None
    for h in (1 / 32, 1 / 64):
        g = Grid.cover(ellipse, h=h)
        _, m = exact_limit_field(ellipse, g)
        bank = default_test_bank(ellipse, g)
        with_sigma = kinetic_residual(m, ridge_sigma_field(ellipse, g).cells, bank).max_residual
        without = kinetic_residual(m, {}, bank).max_residual
        assert with_sigma < 0.12 * without
        if prev is not None:
            assert with_sigma < prev * 0.75
        prev = with_sigma


def test_residual_zero_for_constant_field(grid64):
    # constant Phi(m) pairs against grad(zeta) of a compact bump: zero up
    # to the nodal quadrature error of the bump itself
    m = VectorField(grid64, np.broadcast_to([0.0, 1.0], grid64.shape + (2,)).copy())
    bank = default_test_bank(Ellipse(1.0, 0.5), grid64)
    rep = kinetic_residual(m, {}, bank)
    assert rep.max_residual < 0.5 * grid64.h**2


def test_sign_structure_margins():
    for beta in (0.3, np.pi / 4, 1.0, np.pi / 2):
        assert derivative_min_on_arcs(gbar_beta(beta).shifted(np.pi)) >= -1e-12
    # tilted jump flagged by a strictly negative margin
    assert derivative_min_on_arcs(gbar_beta(np.pi / 3).shifted(np.pi / 4)) < -0.1


def test_sign_structure_report_on_reference(ellipse, grid64):
    sig = ridge_sigma_field(ellipse, grid64)
    rep = sign_structure_report(sig.cells, ridge_set(ellipse))
    assert rep.min_margin >= -1e-12
    assert rep.vertical_normal_fraction == 1.0
    assert rep.n_cells == len(sig.cells)


def test_circle_measure_serialization_roundtrip():
    mu = minimal_disintegration(Jump(1.1, 0.7))
    back = circle_measure_from_json(mu.to_json())
    s = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    assert np.allclose(back.density(s), mu.density(s), atol=1e-15)
    assert back.total_variation() == pytest.approx(mu.total_variation(), abs=1e-14)


# ---------------------------------------------------------------------------
# the batched kinetic code against the per-measure and per-cell formulas


def integrate_against(mu: CircleMeasure, f) -> float:
    """Integral of f against one measure: atoms, then 32-point Gauss-Legendre per piece."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = sum(w * float(np.asarray(f(np.asarray(s)))) for s, w in mu.atoms)
    for p in mu.pieces:
        half = 0.5 * (p.s1 - p.s0)
        mid = 0.5 * (p.s0 + p.s1)
        s = mid + half * nodes
        total += half * float(np.sum(weights * np.asarray(f(s)) * p.density(s)))
    return float(total)


def test_pairings_match_per_measure_integrals():
    measures = [
        gbar_beta(0.4).shifted(1.3),  # pieces only
        gbar_beta(1.2),
        minimal_disintegration(NonJump(0.7, -1)),  # atoms beside zero pieces
        sigma_zero_disintegration(2.0, 1),  # atoms and a constant piece
        CircleMeasure(),  # nothing to integrate
        minimal_disintegration(Jump(2.4, 1.0)).scaled(-0.3),
    ]
    for gen in GENS:
        f = gen.psi.derivative()
        want = np.array([integrate_against(mu, f) for mu in measures])
        assert np.max(np.abs(_pairings(measures, f) - want)) <= 1e-14
    assert _pairings([], GENS[0].psi).shape == (0,)


def test_ridge_sigma_field_matches_per_cell_loop(ellipse, grid64):
    sig = ridge_sigma_field(ellipse, grid64)
    ridge = ridge_set(ellipse)
    lo, hi = ridge.p_minus[0], ridge.p_plus[0]
    j0 = int(np.argmin(np.abs(grid64.nodes[0, :, 1])))
    xs, h = grid64.nodes[:, j0, 0], grid64.h
    phi_e = frame_entropy_map(Frame(0.0))
    dpsi_e = frame_generator(Frame(0.0)).psi.derivative()
    eps_in = 1e-9 * max(1.0, hi - lo)
    rho, seg, betas = {}, {}, {}
    for i in range(grid64.nx):
        a = max(xs[i] - h / 2, lo)
        b = min(xs[i] + h / 2, hi)
        if b - a <= 0:
            continue
        data = ridge.data(np.asarray([np.clip(0.5 * (a + b), lo + eps_in, hi - eps_in)]))
        beta = float(data["beta"][0])
        base = gbar_beta(beta).shifted(float(data["sbar"][0]))
        bracket = float(jump_bracket(phi_e, data["m_plus"][0], data["m_minus"][0], data["n"][0]))
        rho[(i, j0)] = -bracket / integrate_against(base, dpsi_e)
        seg[(i, j0)] = b - a
        betas[(i, j0)] = beta
    assert list(sig.cells) == list(rho)
    assert sig.beta == betas and sig.seg_length == seg
    assert max(abs(sig.rho[k] - rho[k]) for k in rho) <= 1e-13


def test_kinetic_residual_matches_per_cell_loop(ellipse, grid64, limit64):
    _, m = limit64
    sigma = ridge_sigma_field(ellipse, grid64)
    bank = default_test_bank(ellipse, grid64)
    active, pts = grid64.active(), grid64.nodes
    angle = np.arctan2(m.values[..., 1], m.values[..., 0])
    worst = 0.0
    for gen in bank.generators:
        phi = entropy_from_generator(gen)
        phi_m = np.stack([np.real(np.exp(1j * np.multiply.outer(angle, p.ks())) @ p.c)
                          for p in (phi.phi1, phi.phi2)], axis=-1)
        dpsi = gen.psi.derivative()
        pairings = {key: integrate_against(mu, dpsi) for key, mu in sigma.cells.items()}
        for bump in bank.bumps:
            lhs = grid64.h**2 * float(np.sum(np.sum(phi_m * bump.gradient(pts), axis=-1)[active]))
            rhs = sum(float(bump.value(pts[key])) * pairings[key] for key in sigma.cells)
            worst = max(worst, abs(lhs - rhs))
    rep = kinetic_residual(m, sigma.cells, bank)
    assert abs(rep.max_residual - worst) <= 1e-13
    assert rep.without_sigma == kinetic_residual(m, {}, bank).max_residual
    empty = kinetic_residual(m, RidgeSigmaField(grid64, {}, {}, {}, {}).cells, bank)
    assert empty.max_residual == empty.without_sigma == rep.without_sigma
