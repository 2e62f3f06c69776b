"""Tests for coefficient formulas, recipes, and certificate grid checks."""

import dataclasses
import math

import numpy as np
import pytest

from ellab import constants as ct
from ellab import nonlinearity as nl
from ellab.errors import (
    HypothesisViolation,
    Infeasible,
    InvalidDelta,
    NegativeRadicand,
)


# --- first-kind coefficients -------------------------------------------------

def test_first_kind_simple_corner():
    U, V, W = ct.coeffs_first_kind(N=2, beta=1.0, gamma=0.0, d=0.0, u=3.7,
                                   eps=0.0, r1=0.0, r2=0.0)
    assert U == pytest.approx(2.0)
    assert W == pytest.approx(1.0)


def test_first_kind_cross_with_ratio_two():
    _, V, _ = ct.coeffs_first_kind(N=2, beta=1.0, gamma=0.0, d=0.0, u=1.0,
                                   eps=0.0, r1=2.0, r2=0.0)
    assert V == pytest.approx(2.0)


def test_first_kind_gamma_one_small_eps_limit():
    # as eps -> 0 the x^2 coefficient collapses to the window-recipe floor
    for N, beta in [(4, 0.7), (5, 0.5), (6, 0.3)]:
        floor = ((2.0 / N) * (1.0 + 1.0 / beta) - 1.0) * (1.0 + 1.0 / beta)
        u = 2.3
        U, _, _ = ct.coeffs_first_kind(N=N, beta=beta, gamma=1.0, d=0.0, u=u,
                                       eps=1e-12 * u, r1=0.0, r2=0.0)
        assert U == pytest.approx(floor, abs=1e-8)


# --- second-kind coefficients ------------------------------------------------

def test_second_kind_x_is_constant_for_gamma_one():
    for N, beta in [(2, 1.5), (3, 0.8), (5, 0.5)]:
        expected = ((2.0 / N) * (1.0 + 1.0 / beta) - 1.0) * (1.0 + 1.0 / beta)
        for u, eps in [(0.1, 0.5), (3.0, 1e-3), (100.0, 7.0)]:
            X, _, _ = ct.coeffs_second_kind(N=N, beta=beta, gamma=1.0, d=0.0,
                                            u=u, eps=eps, r1=0.0, r2=0.0)
            assert X == pytest.approx(expected, rel=1e-13)


def test_second_kind_degenerate_corner_matches_first_kind():
    for N, beta in [(3, 0.5), (5, 1.2)]:
        X, _, _ = ct.coeffs_second_kind(N=N, beta=beta, gamma=0.0, d=0.0,
                                        u=1.0, eps=1e-14, r1=0.0, r2=0.0)
        U, _, _ = ct.coeffs_first_kind(N=N, beta=beta, gamma=0.0, d=0.0,
                                       u=1.0, eps=0.0, r1=0.0, r2=0.0)
        assert X == pytest.approx(U, abs=1e-12)
        assert X == pytest.approx((2.0 / N) * (1 + 1 / beta) ** 2 - 2.0, abs=1e-12)


def test_second_kind_admissibility_boundary():
    # beta = 2/(N-2) exactly makes the constant x^2 coefficient vanish
    X, _, _ = ct.coeffs_second_kind(N=4, beta=1.0, gamma=1.0, d=0.0, u=1.0,
                                    eps=0.1, r1=0.0, r2=0.0)
    assert X == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("N,theorem,spec,kw", [
    (4.0, "1.3", nl.power(2.0), {}),
    (3.0, "1.5", nl.power(2.0), {"alpha": 2.5}),
    (4.0, "8", nl.lichnerowicz(1, 1, 3, 0, 0.5), {}),
])
def test_cross_terms_match_first_kind_V(N, theorem, spec, kw):
    # amgm_slots forms V*y ratio-free from coefficients read off
    # coeffs_first_kind; its exchanged cross quantity must agree with the one
    # built from V and the ratios on certify's u-grid
    cert = ct.synthesize(N, nl.compute_indices(spec), theorem, spec=spec, **kw)
    assert cert.kind == "first" and cert.cross_mode == "amgm" and cert.gamma == 0.0
    assert cert.d > 0 or theorem != "1.3"
    u = np.geomspace(*ct.DEFAULT_U_RANGE, ct.U_POINTS)
    f, df, d2f = nl.evaluate_many(spec, u)
    m = nl.ratio_mask(spec, u, f)
    U, V, W = ct.coeffs_first_kind(N, cert.beta, cert.gamma, cert.d, u[m], 0.0,
                                   u[m] * df[m] / f[m], u[m] ** 2 * d2f[m] / f[m])
    _, _, cross, y, mask = ct.amgm_slots(cert, spec, u)
    assert np.array_equal(mask, m)
    y = y[m]
    budget = np.sqrt(np.maximum(U - cert.retain_x2, 0.0)
                     * np.maximum(W - cert.retain_y2, 0.0))
    weight = 1.0 if cert.cross_weight == "one" else np.abs(y)
    cross_ratio = (V * y + 2.0 * budget * np.abs(y)) / weight
    scale = np.maximum(np.abs(V * y), np.abs(y)) / weight
    assert np.all(np.abs(cross_ratio - cross[m]) <= 1e-12 * scale)


# --- combined cross bound ----------------------------------------------------

def test_H_closed_form_identity():
    # (1 + b0)^2 - N b0^2 = 1 at b0 = 2/(N-1) collapses H to a linear form
    for N in range(2, 11):
        b0 = 2.0 / (N - 1.0)
        for lam in np.linspace(1.1, nl.p_threshold(N) - 0.01, 20):
            h = ct.H_value(b0, 0.0, 0.0, N, lam, 0.0)
            assert abs(h - 2.0 * ((N + 3.0) / (N - 1.0) - lam)) <= 1e-12


def test_H_at_dimension_one():
    for lam in (0.5, 1.0, 2.0, 5.0):
        b0 = max(lam, 1.0)
        assert ct.H_value(b0, 0.0, 0.0, 1.0, lam, 0.0) >= 4.0 - 1e-12


def test_H_with_vanishing_radicand():
    # push l to the largest feasible value at d = 0: the radical term dies
    N, beta, lam = 4.0, 0.5, 2.0
    l_max = (2.0 / N) * beta**2
    h = ct.H_value(beta, 0.0, l_max, N, lam, 0.0)
    assert h == pytest.approx((4.0 / N) * (1 + beta) + 2 * (1 - lam), abs=1e-12)


def test_H_negative_radicand_raises():
    with pytest.raises(NegativeRadicand):
        ct.H_value(0.5, 0.0, 1.0, 4.0, 2.0, 0.0)


# --- parabola ---------------------------------------------------------------

def q_axis(beta, d):
    """Symmetry axis of the parabola Q_value: 1/2 + beta + beta^2/d."""
    return 0.5 + beta + beta**2 / d


def test_q_axis_identity_and_threshold():
    N, lam, beta = 5.0, 2.0, 0.5
    d0 = 2 * beta**2 / (N * (lam - 1 - beta))
    assert d0 == pytest.approx(0.2)
    assert q_axis(beta, d0) == pytest.approx(2.25)
    assert q_axis(beta, d0) == pytest.approx(0.5 + beta + N * (lam - 1 - beta) / 2)
    # axis >= lam exactly when beta <= lam - (N-1)/(N-2)
    for b in np.linspace(0.05, 0.95, 19):
        d0b = 2 * b**2 / (N * (lam - 1 - b))
        if d0b > 0:
            assert (q_axis(b, d0b) >= lam) == (b <= lam - (N - 1) / (N - 2) + 1e-12)


def test_q_minimum_at_axis():
    beta, d, N = 0.5, 0.1, 5.0
    axis = q_axis(beta, d)
    xs = np.linspace(axis - 3, axis + 3, 301)
    vals = [ct.Q_value(x, beta, d, N) for x in xs]
    assert min(vals) == pytest.approx(ct.Q_value(axis, beta, d, N), abs=1e-9)


# --- recipes ------------------------------------------------------------------

def test_weak_recipe_case2_worked_example():
    rec = ct.weak_recipe(3.0, 2.5)
    assert rec["case"] == 2
    assert rec["l"] == pytest.approx(6.0, abs=1e-12)
    assert rec["beta"] == pytest.approx(0.25, abs=1e-12)
    assert rec["L"] == pytest.approx(4.0, abs=1e-12)
    l = rec["l"]
    assert abs(4 * l / (3 * l - 2) - 1.5) <= 1e-12


def test_weak_recipe_case1_worked_example():
    rec = ct.weak_recipe(4.0, 1.5)
    assert rec["case"] == 1
    assert rec["beta"] == pytest.approx(0.25)
    assert rec["L"] == pytest.approx(2.0)


def test_weak_recipe_case2_identity_grid():
    rng = np.random.default_rng(0)
    for _ in range(50):
        N = rng.uniform(2.0, 12.0)
        p = nl.p_threshold(N)
        lo = 1 + 4 / N
        if lo >= p:
            continue
        alpha = rng.uniform(lo + 1e-3, p - 1e-3)
        rec = ct.weak_recipe(N, alpha)
        assert abs(4 * rec["l"] / (N * rec["l"] - 2) - (alpha - 1)) <= 1e-12


def test_weak_recipe_gain_positive_iff_subthreshold():
    # straddle the threshold (N+3)/(N-1)
    for N in (3.0, 4.0, 6.0):
        p = nl.p_threshold(N)
        for alpha in (p - 0.2, p - 1e-6, p + 1e-6, p + 0.2):
            if alpha <= 1 + 4 / N:
                continue
            rec = ct.weak_recipe(N, alpha)
            assert (rec["L"] > 0) == (alpha < p)


def test_window_interval_matches_worked_example():
    lo, hi = ct._window_interval_first(5.0, 2.0)
    assert lo == pytest.approx(2.0 / 7.0, abs=1e-15)
    assert hi == pytest.approx(2.0 / 3.0, abs=1e-15)
    cert = ct.synthesize(5.0, nl.compute_indices(nl.power(2.0)), "1.7")
    assert lo < cert.beta < hi
    d0 = 2 * cert.beta**2 / (5.0 * (2.0 - 1.0 - cert.beta))
    assert 0 < cert.d < d0
    assert ct.Q_value(2.0, cert.beta, cert.d, 5.0) > 0


@pytest.mark.parametrize("N,terms,case", [(2.5, [(1, 2.1), (1, 3.8)], 2),
                                          (2.0, [(1, 2.1), (1, 6.0)], 1)])
def test_window_second_worst_is_the_parabola_minimum(N, terms, case):
    # below dimension three the y-floor takes d * worst, with worst the least
    # value of (b + 1 - x)(b - x)/b^2 on [lower, upper]; here its vertex
    # b + 1/2 lies inside
    idx = nl.compute_indices(nl.power_sum(terms))
    cert = ct.synthesize(N, idx, "1.7")
    assert cert.recipe == f"window-second-case{case}"
    b = cert.beta
    assert idx.lower < b + 0.5 < idx.upper
    x = np.linspace(idx.lower, idx.upper, 2**20 + 1)
    scanned = np.min((b + 1 - x) * (b - x)) / b**2
    # d = ylin / (2 (1 + |worst|)) is below its cap for these inputs, and
    # Y = ylin + d * worst, so |worst| = Y / d - 2
    worst = -(cert.floors["Y0"] / ct.FLOOR_HEADROOM / cert.d - 2.0)
    assert worst == pytest.approx(scanned, rel=1e-10)


def test_subcritical_monotone_feasibility():
    # shrinking l and d from an accepted pair keeps the x^2 and y^2 floors
    idx = nl.compute_indices(nl.power(2.0))
    cert = ct.synthesize(4.0, idx, "1.3")
    N, beta, lam = 4.0, cert.beta, 2.0
    U = (2 / N) * (1 + 1 / beta) ** 2 - 2
    for fl, fd in [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5)]:
        l, d = cert.l * fl, cert.d * fd
        assert U - l > 0
        assert (2 / N) * beta**2 + d * (1 - lam) - l > 0


def test_synthesize_rejects_supercritical():
    idx = nl.compute_indices(nl.power(4.0))
    with pytest.raises((Infeasible, HypothesisViolation)):
        ct.synthesize(5.0, idx, "1.3")
    with pytest.raises(Infeasible):
        ct.synthesize(5.0, idx, "1.9", alpha=4.0)  # above p_S(5) = 7/3


def test_synthesize_15_needs_the_spec():
    # the cross floor is located on the reaction itself, as theorem 8's is
    idx = nl.compute_indices(nl.power(2.0))
    with pytest.raises(HypothesisViolation):
        ct.synthesize(3.0, idx, "1.5", alpha=2.5)


def test_synthesize_19_dispatch():
    low = ct.synthesize(4.0, nl.compute_indices(nl.power(2.0)), "1.9")
    assert low.recipe == "subcritical-amgm"
    high = ct.synthesize(5.0, nl.compute_indices(nl.power(2.0)), "1.9")
    assert high.recipe.startswith("window")
    assert high.beta0 is not None
    r = nl.rho(5.0, 2.0)
    assert high.beta0 == pytest.approx(0.5 * (r + min(0.5 * (r + 1.0), 2.0 / 3.0)))


# --- Lichnerowicz constants ---------------------------------------------------

def test_lichnerowicz_tables():
    L_abc, liou, beta, M, case, delta = ct.lichnerowicz_constants(4, 1, 3, 0, 1.0)
    assert case == 3
    assert L_abc == pytest.approx(1.0)   # the supplied delta
    assert liou == pytest.approx(1.0)
    L_abc, liou, beta, M, case, _ = ct.lichnerowicz_constants(4, 3, 1.5, 0, 1.0)
    assert case == 1
    assert L_abc == pytest.approx(3.0)
    assert liou == pytest.approx(1.5)
    assert ct.liouville_threshold(7, 0.0, 2.5) == 0.0


def test_lichnerowicz_case1_equation():
    _, _, beta, M, case, _ = ct.lichnerowicz_constants(4, 3, 1.5, 0, 1.0)
    assert case == 1 and M == 2.0
    lhs = (4 / 4) * ((1 + beta) - math.sqrt((1 + beta) ** 2 - 8 * beta**2))
    assert lhs == pytest.approx(2 * 0.5, abs=1e-9)
    assert beta == pytest.approx(0.5, abs=1e-9)


def test_lichnerowicz_case2_beta():
    _, _, beta, M, case, _ = ct.lichnerowicz_constants(4.0, 1.0, 1.8, 0, None)
    assert case == 2
    assert beta == pytest.approx(2 * 0.8 - 1)  # N(sigma-1)/2 - 1
    assert M == pytest.approx((2 / 4) * (1 + 1 / beta) ** 2 - 2)
    assert M > 0


def test_lichnerowicz_delta_bounds():
    with pytest.raises(InvalidDelta):
        ct.lichnerowicz_constants(4, 1, 3, 0, 5.0)  # cap is 2 at N = 4
    with pytest.raises(InvalidDelta):
        ct.lichnerowicz_constants(4, 1, 3, 0, 0.0)


def test_liouville_factor_two_consistency():
    # the threshold is half the supremum of admissible quadratic-loss values
    for n in (2.0, 4.0, 9.0):
        split = ct._sigma_split(n)
        cap = ct._delta_cap(n)
        for a in (0.5, 1.0, 3.0):
            sig_lo = 0.5 * (1 + split)
            assert ct.liouville_threshold(n, a, sig_lo) == pytest.approx(
                0.5 * (2 * (sig_lo - 1) * a), abs=1e-12)
            sig_hi = split + 1.0
            assert ct.liouville_threshold(n, a, sig_hi) == pytest.approx(
                0.5 * cap, abs=1e-12)


# --- certification -------------------------------------------------------------

def _certified(N, theorem, spec, **kw):
    idx = nl.compute_indices(spec)
    cert = ct.synthesize(N, idx, theorem, spec=spec, **kw)
    return ct.certify(cert, spec, N)


@pytest.mark.parametrize("N,theorem,spec,kw", [
    (4.0, "1.3", nl.power(2.0), {}),
    (3.0, "1.5", nl.power(2.0), {"alpha": 2.5}),
    (2.5, "1.5", nl.lichnerowicz(1, 1, 3, 0, 0.5), {"alpha": 2.8}),
    (5.0, "1.7", nl.power(2.0), {}),
    (3.0, "1.7", nl.power(3.5), {}),
    (2.0, "1.7", nl.power(6.0), {}),
    (5.0, "1.8", nl.power(2.0), {}),
    (4.0, "1.9", nl.power(2.0), {}),
    (5.0, "1.9", nl.power(2.0), {}),
    (4.0, "8", nl.lichnerowicz(1, 1, 3, 0, 0.5), {}),
    (4.0, "8", nl.lichnerowicz(3, 2, 1.5, 0.5, 0.5), {}),
])
def test_synthesized_certificates_certify(N, theorem, spec, kw):
    cert = _certified(N, theorem, spec, **kw)
    assert cert.status == "certified"
    assert cert.verification["worst_margin"] > 0
    for v in cert.floors.values():
        assert v >= 0


@pytest.mark.parametrize("N", [3.0, 4.0, 5.0, 6.0, 8.0])
def test_theorem_19_certifies_up_to_the_sobolev_exponent(N):
    # the estimate claims every alpha in (1, p_S(N)); the margins shrink
    # towards the edge (3.5e-8 at N = 5 and 0.9999) but stay positive
    for share in (0.99, 0.995, 0.999, 0.9999):
        spec = nl.power(1.0 + share * (nl.p_sobolev(N) - 1.0))
        cert = _certified(N, "1.9", spec)
        assert cert.status == "certified"
        assert cert.verification["worst_margin"] > 0


def test_floors_positive_for_standard_certs():
    cert = _certified(5.0, "1.7", nl.power(2.0))
    assert all(v > 0 for v in cert.floors.values())


def test_certify_eps_independent_for_unregularized(monkeypatch):
    spec = nl.power(2.0)
    idx = nl.compute_indices(spec)
    cert = ct.synthesize(4.0, idx, "1.3")
    monkeypatch.setattr(ct, "DEFAULT_EPS_RANGE", (1e-6, 1e-3))
    a = ct.certify(cert, spec, 4.0)
    monkeypatch.setattr(ct, "DEFAULT_EPS_RANGE", (1e-2, 1.0))
    b = ct.certify(cert, spec, 4.0)
    assert a.verification["margins"] == b.verification["margins"]


def test_broken_certificate_reports_zero_margin():
    spec = nl.power(2.0)
    idx = nl.compute_indices(spec)
    cert = ct.synthesize(5.0, idx, "1.7")
    # beta at the admissibility edge kills the x^2 floor
    broken = dataclasses.replace(cert, beta=2.0 / 3.0,
                                 floors={"U0": 0.0, "V0": cert.floors["V0"],
                                         "W0": cert.floors["W0"]})
    out = ct.certify(broken, spec, 5.0)
    assert out.status == "infeasible"
    assert abs(out.verification["margins"]["U0"]) < 1e-9


def test_certificate_serializes():
    from ellab import reporting
    cert = _certified(5.0, "1.7", nl.power(2.0))
    text = reporting.dumps(cert.as_dict())
    assert '"theorem": "1.7"' in text
    assert reporting.dumps(cert.as_dict()) == text


def test_assemble_constant_monotone_in_envelope():
    c1, _ = ct.assemble_constant(0.5, 0.5, 0.0, 0.1, 100.0)
    c2, _ = ct.assemble_constant(0.5, 0.5, 0.0, 0.1, 1000.0)
    assert c2 > c1
