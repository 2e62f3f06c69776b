"""Tests for the radial solver, diagnostics, estimate checks and defects."""

import math

import numpy as np
import pytest

from ellab import constants as ct
from ellab import modelspace as ms
from ellab import nonlinearity as nl
from ellab import pdelab as pde
from ellab.errors import (
    BlowUp,
    KindMismatch,
    NoConvergence,
    NoRoot,
    PositivityLost,
    RangeViolation,
)

FLAT4 = ms.flat(4)
LANE_EMDEN = nl.power(2.0)


def lane_emden_profile(bv=0.5, m=512, R=1.0):
    return pde.solve_radial_bvp(FLAT4, LANE_EMDEN, R, bv, pde.SolverConfig(m=m))


def constant_profile(spec, value, m=256):
    """u = value on FLAT4 over [0, 2]: a solution only where f(value) = 0."""
    grid = pde.RadialGrid.uniform(1.0, m)
    u = np.full(m + 1, float(value))
    z = np.zeros(m + 1)
    f, _, _ = nl.evaluate_many(spec, np.array([value]))
    return pde.SolutionProfile(grid, u, z, FLAT4, spec, float(value),
                               float(abs(f[0])), {"constant": True, "R": 1.0})


# --- solver -----------------------------------------------------------------

def test_zero_reaction_constant_solution():
    # a Lichnerowicz reaction with a = b = c = 0 has no terms: f == 0
    zero = nl.lichnerowicz(0, 0, 3, 0, 0.5)
    prof = pde.solve_radial_bvp(FLAT4, zero, 1.0, 1.0, pde.SolverConfig(m=128))
    assert np.max(np.abs(prof.u - 1.0)) == 0.0


def test_allen_cahn_equilibrium():
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    prof = pde.solve_radial_bvp(FLAT4, spec, 1.0, 1.0, pde.SolverConfig(m=128))
    assert np.max(np.abs(prof.u - 1.0)) == 0.0
    assert prof.residual_norm == 0.0


def test_solver_reproduces_exact_solution():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    R = 0.5
    bv = float(ms.appendix_solution(asp, np.array([2 * R]))[0][0])
    prof = pde.solve_radial_bvp(asp.space, nl.power(2.0), R, bv,
                                pde.SolverConfig(m=1024))
    ue, _, _, _ = ms.appendix_solution(asp, prof.r)
    assert np.max(np.abs(prof.u - ue) / ue) < 2e-6


def test_solver_second_order():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    R = 0.5
    bv = float(ms.appendix_solution(asp, np.array([2 * R]))[0][0])
    errs = []
    for m in (256, 512):
        prof = pde.solve_radial_bvp(asp.space, nl.power(2.0), R, bv,
                                    pde.SolverConfig(m=m))
        ue, _, _, _ = ms.appendix_solution(asp, prof.r)
        errs.append(np.max(np.abs(prof.u - ue) / ue))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.2)


def test_solver_positivity_floor():
    prof = lane_emden_profile(bv=1e-3)
    assert np.min(prof.u) >= 1e-12 * prof.boundary_value


def test_solver_residual_contract():
    prof = lane_emden_profile()
    res, _, _ = pde._residual(prof.space, prof.spec, prof.grid,
                              pde._drift(prof.space, prof.grid), prof.u[None])
    f, _, _ = nl.evaluate_many(prof.spec, prof.u)
    scale = max(1.0, float(np.max(np.abs(f))))
    floor = 100 * np.finfo(float).eps * float(np.max(prof.u)) / prof.grid.h**2
    assert np.max(np.abs(res)) <= 1e-11 * scale + floor


@pytest.mark.parametrize("space", [FLAT4, ms.appendix_space(5.0, 2.0, 1.0).space])
@pytest.mark.parametrize("m", [128, 1024])
def test_march_solves_the_newton_equations(space, m):
    # marching from the solver's own centre value retraces its profile
    prof = pde.solve_radial_bvp(space, LANE_EMDEN, 1.0, 0.5, pde.SolverConfig(m=m))
    bv = pde.march_boundary_values(space, LANE_EMDEN, 1.0, m, [prof.u[0]])
    assert abs(bv[0] - 0.5) <= 1e-10


def test_march_zeroes_lanes_without_a_positive_solution():
    # on flat:4 at R = 1, Lane-Emden from a centre of 20 crosses zero before
    # r = 2; the small centre survives with its boundary value just below it
    bv = pde.march_boundary_values(FLAT4, LANE_EMDEN, 1.0, 128, [1e-3, 20.0])
    assert 0.99e-3 < bv[0] < 1e-3 and bv[1] == 0.0
    # f = t - t^3 is negative above 1: from 5 the profile grows without bound
    allen_cahn = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    bv = pde.march_boundary_values(FLAT4, allen_cahn, 1.0, 128, [1.0, 5.0])
    assert bv[0] == pytest.approx(1.0) and bv[1] == 0.0


@pytest.mark.parametrize("space, top, at", [
    (FLAT4, 0.8585103773656032, 571),
    (ms.appendix_space(5.0, 2.0, 1.0).space, 1.0999485741291068, 578),
])
def test_branch_maximum_is_pinned_bit_for_bit(space, top, at):
    reach = pde.branch(space, LANE_EMDEN, 1.0)
    assert (float(np.max(reach)), int(np.argmax(reach))) == (top, at)


def test_branch_is_read_only_and_leaves_the_centres_alone():
    centres = pde.BRANCH_CENTRES.copy()
    pde.branch.cache_clear()
    reach = pde.branch(FLAT4, LANE_EMDEN, 1.0)
    with pytest.raises(ValueError):
        reach[0] = 1.0
    assert pde.branch(FLAT4, LANE_EMDEN, 1.0) is reach
    assert np.array_equal(pde.BRANCH_CENTRES, centres)


def test_supercritical_data_fails():
    with pytest.raises((BlowUp, NoConvergence, pde.PositivityLost)):
        pde.solve_radial_bvp(FLAT4, LANE_EMDEN, 1.0, 50.0, pde.SolverConfig(m=256))


@pytest.mark.parametrize("values", [[0.5, 50.0, 0.6], [0.5, 50.0, 0.9, 0.6]])
def test_lane_failure_is_the_first_failing_value(values):
    # a loop over the values would stop at 50, which has no solution; 0.9
    # fails sooner in the loop's steps but later in value order
    with pytest.raises(NoConvergence) as alone:
        pde.solve_radial_bvp(FLAT4, LANE_EMDEN, 1.0, 50.0, pde.SolverConfig(m=256))
    with pytest.raises(type(alone.value)) as batch:
        pde.solve_radial_lanes(FLAT4, LANE_EMDEN, 1.0, values,
                               pde.SolverConfig(m=256))
    assert str(batch.value) == str(alone.value)


@pytest.mark.parametrize("m, error", [(1024, NoConvergence), (4096, PositivityLost)])
def test_no_solution_keeps_its_error_type(m, error):
    # bv = 0.9 lies above the fold of flat:4 at R = 1: Newton runs out of
    # steps at m = 1024 and of positive iterates at m = 4096; both name it
    with pytest.raises(error, match="exceeds the branch maximum 0.858716"):
        pde.solve_radial_bvp(FLAT4, LANE_EMDEN, 1.0, 0.9, pde.SolverConfig(m=m))


def test_rejects_nonpositive_boundary():
    with pytest.raises(ValueError):
        pde.solve_radial_bvp(FLAT4, LANE_EMDEN, 1.0, 0.0)


# --- diagnostics --------------------------------------------------------------

def test_diagnostics_constant_profile():
    spec = nl.power(2.0)
    prof = constant_profile(spec, 3.0)
    dia = pde.diagnostics(prof, spec, pde.DiagnosticParams(beta=0.5, d=1.0))
    assert np.allclose(dia.x, 0.0)
    assert np.allclose(dia.Q, 3.0)  # f(c)/c = c for the quadratic power


def test_diagnostics_chain_rule_identity():
    prof = lane_emden_profile()
    beta = 0.7
    dia = pde.diagnostics(prof, prof.spec, pde.DiagnosticParams(beta=beta))
    assert np.allclose(dia.field, beta**2 * prof.du**2 / prof.u**2, rtol=1e-12)


def test_diagnostics_appendix_closed_form():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    prof = pde.exact_profile(asp, 1.0, 512)
    q = pde.diagnostics(prof, prof.spec, pde.DiagnosticParams(beta=1.0, d=1.0)).Q
    expected = 16.0 / (asp.mu**2 + prof.r**2)
    assert np.max(np.abs(q - expected)) < 1e-8


# --- epsilon selection ----------------------------------------------------------

def test_choose_epsilon_quadratic():
    # f(t)/t = t, so eps = K + 1/R^2
    assert pde.choose_epsilon(nl.power(2.0), 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-11)
    assert pde.choose_epsilon(nl.power(2.0), 1.0, 3.0, 0.5) == pytest.approx(7.0, rel=1e-11)


def test_choose_epsilon_cubic():
    # f(L eps)/(L eps) = (2 eps)^2 -> eps = sqrt(K + 1/R^2)/2
    got = pde.choose_epsilon(nl.power(3.0), 2.0, 0.0, 1.0)
    assert got == pytest.approx(0.5, rel=1e-11)
    got = pde.choose_epsilon(nl.power(3.0), 2.0, 3.0, 1.0)
    assert got == pytest.approx(1.0, rel=1e-11)


def test_choose_epsilon_no_root_for_linear():
    with pytest.raises(NoRoot):
        pde.choose_epsilon(nl.power(1.0), 1.0, 1.0, 1.0)  # f(t)/t constant 1 < 2


# --- estimate checks -------------------------------------------------------------

def test_estimate_lane_emden_battery_small():
    cert = ct.synthesize(4.0, nl.compute_indices(LANE_EMDEN), "1.9")
    for bv in (0.05, 0.2, 0.5):
        prof = lane_emden_profile(bv=bv)
        rep = pde.check_estimate(prof, cert, 0.0, 1.0, "gradient-strong")
        assert rep.passed
        assert rep.measured <= rep.bound


def test_estimate_pass_monotone_in_constant():
    import dataclasses
    cert = ct.synthesize(4.0, nl.compute_indices(LANE_EMDEN), "1.9")
    prof = lane_emden_profile(bv=0.5)
    rep = pde.check_estimate(prof, cert, 0.0, 1.0, "gradient-strong")
    assert rep.passed
    for factor in (10.0, 100.0):
        bigger = dataclasses.replace(cert, C=cert.C * factor)
        assert pde.check_estimate(prof, bigger, 0.0, 1.0, "gradient-strong").passed


def test_estimate_appendix_large_ball_ratio():
    # on a huge ball the measured supremum approaches 8K, so the report's
    # ratio approaches 8/C
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    cert = ct.synthesize(5.0, nl.compute_indices(nl.power(2.0)), "1.9")
    R = 1e3 * asp.mu
    prof = pde.exact_profile(asp, R, 4096)
    rep = pde.check_estimate(prof, cert, asp.K, R, "gradient-strong")
    assert rep.passed
    assert rep.measured == pytest.approx(8.0 * asp.K, rel=1e-6)
    assert rep.ratio == pytest.approx(8.0 / cert.C, rel=1e-5)


def test_estimate_constant_allen_cahn_zero_gradient():
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    prof = constant_profile(spec, 1.0)
    cert = ct.synthesize(4.0, nl.compute_indices(spec), "8", spec=spec)
    rep = pde.check_estimate(prof, cert, 0.0, 1.0, "gradient-weak")
    assert rep.measured == 0.0
    assert rep.passed


def test_estimate_eps_forms():
    spec = nl.power(2.0)
    cert = ct.synthesize(5.0, nl.compute_indices(spec), "1.7")
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    prof = pde.exact_profile(asp, 1.0, 512)
    for kind in ("eps-I", "eps-II"):
        rep = pde.check_estimate(prof, cert, asp.K, 1.0, kind, eps=0.1)
        assert rep.passed
        assert rep.details["eps"] == 0.1
    # the two left-hand weightings differ: (u+eps)^2 in the gradient
    # denominator makes the second form pointwise smaller off the center,
    # though the supremum can sit at r = 0 where the gradient vanishes
    r1 = pde.check_estimate(prof, cert, asp.K, 1.0, "eps-I", eps=0.5)
    r2 = pde.check_estimate(prof, cert, asp.K, 1.0, "eps-II", eps=0.5)
    assert r2.measured <= r1.measured
    eps, beta = 0.5, cert.beta
    u, du = prof.u, prof.du
    f, _, _ = nl.evaluate_many(prof.spec, u)
    field1 = (u + eps) ** (-beta) * (du**2 / u**2 + f / u)
    field2 = (u + eps) ** (-beta) * (du**2 / (u + eps) ** 2 + f / u)
    interior = du**2 > 0
    assert np.all(field2[interior] < field1[interior])


def test_epsilon_sweep_all_pass():
    spec = nl.power(2.0)
    cert = ct.synthesize(5.0, nl.compute_indices(spec), "1.7")
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    prof = pde.exact_profile(asp, 1.0, 512)
    # log-spaced eps in [1e-6, 1] u(0), plus the eps solving
    # f(L eps)/(L eps) = K + 1/R^2
    u0 = float(prof.u[0])
    L = cert.chi_L if cert.chi_L else 1.0
    eps_values = [*np.geomspace(1e-6 * u0, u0, 13),
                  pde.choose_epsilon(prof.spec, L, asp.K, 1.0)]
    for kind in ("eps-I", "eps-II"):
        reports = [pde.check_estimate(prof, cert, asp.K, 1.0, kind, eps=float(e))
                   for e in eps_values]
        assert len(reports) == 14  # 13 sweep values plus the balancing root
        assert all(r.passed for r in reports)


def test_estimate_kind_mismatch():
    cert = ct.synthesize(4.0, nl.compute_indices(LANE_EMDEN), "1.9")
    prof = lane_emden_profile()
    with pytest.raises(KindMismatch):
        pde.check_estimate(prof, cert, 0.0, 1.0, "lichnerowicz")
    with pytest.raises(KindMismatch):
        pde.check_estimate(prof, cert, 0.0, 1.0, "no-such-kind")


def test_estimate_lichnerowicz_kind():
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    cert = ct.synthesize(4.0, nl.compute_indices(spec), "8", spec=spec)
    prof = pde.solve_radial_bvp(FLAT4, spec, 1.0, 0.7, pde.SolverConfig(m=512))
    rep = pde.check_estimate(prof, cert, 0.0, 1.0, "lichnerowicz")
    assert rep.passed
    # bound collapses to C/R^2 at K = 0; with K large the loss term kicks in
    rep2 = pde.check_estimate(prof, cert, 2.0, 1.0, "lichnerowicz")
    assert rep2.bound > rep.bound


# --- differential inequality -----------------------------------------------------

def test_defect_appendix_exact_profile():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    cert = ct.synthesize(5.0, nl.compute_indices(nl.power(2.0)), "1.9")
    K = ms.curvature_bound(asp.space, 2.0).K
    prof = pde.exact_profile(asp, 1.0, 4096)
    rep = pde.verify_elliptic_inequality(prof, pde.DiagnosticParams(beta=cert.beta),
                                         "F", K)
    assert rep.min_defect >= -1e-4 * rep.scale


def test_defect_field_second_order():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    params = pde.DiagnosticParams(beta=0.46)
    K = 1.0
    reps = {m: pde.verify_elliptic_inequality(pde.exact_profile(asp, 1.0, m),
                                              params, "F", K)
            for m in (1024, 2048, 4096)}
    a = reps[1024].defect_values
    b = reps[2048].defect_values[::2]
    c = reps[4096].defect_values[::4]
    e1 = np.max(np.abs(a - b))
    e2 = np.max(np.abs(b - c))
    assert e1 / e2 == pytest.approx(4.0, abs=0.4)


def test_defect_solver_profile_negative_part_shrinks():
    cert = ct.synthesize(4.0, nl.compute_indices(LANE_EMDEN), "1.3")
    params = pde.DiagnosticParams(beta=cert.beta, d=cert.d)
    mins = {}
    for m in (1024, 2048):
        prof = lane_emden_profile(bv=0.8, m=m)
        mins[m] = pde.verify_elliptic_inequality(prof, params, "F", 0.0).min_defect
    assert mins[1024] < 0  # discretization error is visible
    assert mins[1024] / mins[2048] == pytest.approx(4.0, abs=1.0)


def test_defect_constant_profile_sign_bookkeeping():
    # u = c with f(c) > 0 is not a solution; the checker must still evaluate
    # the full signed right side, which reduces to the pure y^2 term
    spec = nl.power(2.0)
    prof = constant_profile(spec, 2.0)
    params = pde.DiagnosticParams(beta=0.5, gamma=1.0, d=0.3, eps=0.1)
    rep = pde.verify_elliptic_inequality(prof, params, "F", 0.0)
    _, _, W = ct.coeffs_first_kind(4.0, 0.5, 1.0, 0.3, 2.0, 0.1, 2.0, 2.0)
    expected = -float(W) * 2.0**2 * (2.0 + 0.1) ** (-0.5)
    # exact up to stencil roundoff; interior nodes carry no truncation at all
    assert rep.min_defect == pytest.approx(expected, abs=1e-9)
    assert float(np.max(rep.defect_values)) == pytest.approx(expected, rel=1e-12)


def test_defect_needs_positive_reaction():
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    prof = pde.solve_radial_bvp(FLAT4, spec, 1.0, 1.5, pde.SolverConfig(m=256))
    with pytest.raises(RangeViolation):
        pde.verify_elliptic_inequality(prof, pde.DiagnosticParams(beta=0.5), "F", 0.0)


def test_defect_second_kind():
    flat3 = ms.flat(3)
    prof = pde.solve_radial_bvp(flat3, LANE_EMDEN, 1.0, 0.5, pde.SolverConfig(m=2048))
    params = pde.DiagnosticParams(beta=0.8, gamma=1.0, d=0.05, eps=0.01,
                                  transform="second")
    rep = pde.verify_elliptic_inequality(prof, params, "G", 0.0)
    assert rep.min_defect >= -1e-4 * rep.scale


# --- scaling ---------------------------------------------------------------------

def test_scaling_appendix_family_closed_under_rescale():
    # the exact family maps to itself with mu -> mu/s
    asp = ms.appendix_space_from_mu(5.0, 2.0, 2.0)
    s = 2.0
    target = ms.appendix_space_from_mu(5.0, 2.0, asp.mu / s)
    r = np.linspace(0.0, 3.0, 200)
    u_base, _, _, _ = ms.appendix_solution(asp, s * r)
    u_scaled = s ** (2.0 / (2.0 - 1.0)) * u_base
    u_target, _, _, _ = ms.appendix_solution(target, r)
    assert np.max(np.abs(u_scaled - u_target)) < 1e-12 * np.max(u_target)


def test_scaling_covariance_off_the_exact_grids():
    # u_s(x) = s^2 u(s x) solves u^2 on the ball of radius R/s; at these s
    # the grid spacing 2R/(s m) is not scaled exactly, unlike criterion 11's
    # s = 0.5 and 2, so the solves agree to rounding only
    params = pde.DiagnosticParams(beta=1.0, d=1.0)
    base = lane_emden_profile(bv=0.5, m=4096)
    q = pde.diagnostics(base, LANE_EMDEN, params).Q
    for s in (1.5, 3.0):
        scaled = lane_emden_profile(bv=0.5 * s**2, m=4096, R=1.0 / s)
        q_s = pde.diagnostics(scaled, LANE_EMDEN, params).Q
        want_u, want_q = s**2 * base.u, s**2 * q
        assert (np.max(np.abs(scaled.u - want_u))
                <= 1e-12 * np.max(np.abs(want_u))), s
        assert np.max(np.abs(q_s - want_q)) <= 1e-10 * np.max(np.abs(want_q)), s


@pytest.mark.parametrize("nodes", [None, 40, 3, 2],
                         ids=["profile", "clamped", "clamped-3", "clamped-2"])
def test_cubic_spline_matches_scipy_bit_for_bit(nodes):
    from scipy.interpolate import CubicSpline as ScipySpline

    if nodes is None:  # a large fit: a solver profile's 4097 nodes
        prof = lane_emden_profile(m=4096)
        x, y = prof.r, prof.u
    else:
        rng = np.random.default_rng(11)
        x, y = np.sort(rng.uniform(0.0, 3.0, nodes)), rng.normal(size=nodes)
    ref = ScipySpline(x, y, bc_type=((1, 0.0), "not-a-knot"))
    port = pde.CubicSpline.fit(x, y)
    assert np.array_equal(port.c, ref.c)
    # knots (both ends among them), off-knot points, and just outside
    h = 1e-3 * (x[-1] - x[0])
    p = np.concatenate((x, 0.5 * (x[:-1] + x[1:]), x[:-1] + 0.3 * np.diff(x),
                        [x[0] - h, x[-1] + h]))
    assert np.array_equal(port(p), ref(p))
    for nu in (1, 2):
        assert np.array_equal(port.derivative(nu)(p), ref.derivative(nu)(p)), nu


def test_cubic_spline_rejects_bad_nodes():
    x = np.linspace(0.0, 1.0, 5)
    for bad in (x[::-1], np.where(x == 0.5, np.nan, x), x[:1]):
        with pytest.raises(ValueError):
            pde.CubicSpline.fit(bad, np.ones(len(bad)))


# --- export ----------------------------------------------------------------------

def test_profile_table_shape():
    prof = lane_emden_profile(m=128)
    header, cols = pde.profile_table(prof)
    assert header == ["r", "u", "du", "Q", "F", "G"]
    assert all(len(c) == 129 for c in cols)
