"""Tests for weighted model spaces, curvature, and the exact-solution family."""

import math

import numpy as np
import pytest

from ellab import modelspace as ms
from ellab.errors import DimensionMismatch, InvalidAlpha


def _random_points(rng, n, count, radius):
    x = rng.normal(size=(count, n))
    scales = rng.uniform(0.01, radius, size=count)
    return x / np.linalg.norm(x, axis=1, keepdims=True) * scales[:, None]


# --- curvature tensor ------------------------------------------------------

def test_flat_space_tensor_is_zero():
    sp = ms.flat(4)
    x = np.array([0.3, -0.1, 0.9, 0.2])
    assert np.allclose(ms.ricci_tensor(sp, x), 0.0)
    rep = ms.curvature_bound(sp, 5.0)
    assert rep.K == 0.0


def test_zero_weight_short_circuit_matches_sampled_path():
    # gamma = 0 gives an identically zero weight that takes the log weight's
    # candidate radii
    sampled = ms.curvature_bound(ms.log_weight_space(4, 5.0, 0.0, 1.0), 5.0)
    short = ms.curvature_bound(ms.flat(4, 5.0), 5.0)
    assert short.as_dict() == sampled.as_dict()


def test_dimension_mismatch():
    sp = ms.flat(4)
    with pytest.raises(DimensionMismatch):
        ms.ricci_tensor(sp, np.array([1.0, 2.0]))


def test_appendix_tensor_matches_printed_form():
    # n=4, N=5, alpha=2, mu=1: tensor must equal
    # gamma/(mu^2+|x|^2)^2 [2 delta_ij (mu^2+|x|^2) - 4(1+gamma/(N-n)) x_i x_j]
    asp = ms.appendix_space_from_mu(5.0, 2.0, 1.0)
    assert asp.gamma == -1.0
    sp = asp.space
    rng = np.random.default_rng(11)
    for x in _random_points(rng, 4, 20, 3.0):
        s = 1.0 + float(x @ x)
        expected = (asp.gamma / s**2) * (
            2.0 * np.eye(4) * s
            - 4.0 * (1.0 + asp.gamma / (asp.N - asp.n)) * np.outer(x, x))
        got = ms.ricci_tensor(sp, x)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_eigenvalues_match_dense_solver():
    # oracle: numpy's symmetric eigensolver on the assembled matrix
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    sp = asp.space
    rng = np.random.default_rng(5)
    for x in _random_points(rng, sp.n, 100, 10.0):
        r = float(np.linalg.norm(x))
        eig = np.linalg.eigvalsh(ms.ricci_tensor(sp, x))
        lam_rad = float(ms.radial_eigenvalue(sp, r))
        lam_tan = float(ms.tangential_eigenvalue(sp, r))
        expected = np.sort(np.array([lam_rad] + [lam_tan] * (sp.n - 1)))
        assert np.max(np.abs(eig - expected)) < 1e-10


# --- curvature bound -------------------------------------------------------

def brute_force_min(space, r_max, n=400001):
    r = np.linspace(0, r_max, n)
    return min(ms.radial_eigenvalue(space, r).min(),
               ms.tangential_eigenvalue(space, r).min())


def test_curvature_bound_first_branch():
    # N - n = 1 >= -(2/3) gamma = 2/3: minimum 2 gamma / mu^2 at the origin
    asp = ms.appendix_space_from_mu(5.0, 2.0, math.sqrt(2.0))
    rep = ms.curvature_bound(asp.space, 20.0)
    assert rep.minimum == pytest.approx(-1.0, abs=1e-10)
    assert rep.K == pytest.approx(1.0, abs=1e-10)
    assert rep.argmin_r == pytest.approx(0.0, abs=1e-6)
    assert brute_force_min(asp.space, 20.0) == pytest.approx(rep.minimum, abs=1e-8)


def test_curvature_bound_second_branch():
    # N - n = 0.2 < -(2/3) gamma = 2/3: interior minimum with the printed value
    asp = ms.appendix_space_from_mu(4.2, 2.0, 1.0)
    m = asp.N - asp.n
    g = asp.gamma
    expected = -g * (m + 2 * g) ** 2 / (4 * m * (m + g)) / asp.mu**2
    rep = ms.curvature_bound(asp.space, 20.0)
    assert rep.minimum == pytest.approx(expected, abs=1e-8)
    assert rep.argmin_r > 0
    assert brute_force_min(asp.space, 20.0) == pytest.approx(expected, abs=1e-8)


def test_curvature_minimum_scales_like_inverse_mu_squared():
    a1 = ms.appendix_space_from_mu(5.0, 2.0, 1.0)
    a2 = ms.appendix_space_from_mu(5.0, 2.0, 2.0)
    m1 = ms.curvature_bound(a1.space, 30.0).minimum
    m2 = ms.curvature_bound(a2.space, 60.0).minimum
    assert m1 / m2 == pytest.approx(4.0, rel=1e-9)


def test_curvature_scale_covariance():
    # phi(s r) multiplies the eigenvalue minimum by s^2: for the log weight
    # that is the weight at mu/s, for a table the same values at nodes/s
    asp = ms.appendix_space_from_mu(5.0, 2.0, 1.0)
    nodes = np.linspace(0.0, 20.0, 2001)
    values = np.asarray(asp.space.phi(nodes))
    base = ms.curvature_bound(asp.space, 40.0).minimum
    base_table = ms.curvature_bound(ms.table_weight_space(4, 5.0, nodes, values),
                                    40.0).minimum
    for s in (0.5, 2.0):
        scaled = ms.log_weight_space(4, 5.0, asp.gamma, asp.mu / s)
        got = ms.curvature_bound(scaled, 40.0 / s).minimum
        assert got == pytest.approx(s * s * base, rel=1e-9)
        table = ms.table_weight_space(4, 5.0, nodes / s, values)
        got = ms.curvature_bound(table, 40.0 / s).minimum
        assert got == pytest.approx(s * s * base_table, rel=1e-9)


def test_table_curvature_bound_matches_a_dense_scan():
    # 4001 nodes of the interior-branch weight: the spline's minimum lies
    # inside a piece, at a root of the radial curve's derivative
    asp = ms.appendix_space(4.2, 2.0, 1.0)
    nodes = np.linspace(0.0, 20.0, 4001)
    sp = ms.table_weight_space(4, 4.2, nodes, np.asarray(asp.space.phi(nodes)))
    rep = ms.curvature_bound(sp, 20.0)
    scan = brute_force_min(sp, 20.0)
    assert rep.which == "radial" and 1.9 < rep.argmin_r < 2.1
    assert rep.minimum <= scan + 1e-14
    assert scan - rep.minimum < 1e-9


def test_log_weight_with_positive_gamma_has_an_interior_minimum():
    # n = 4, N = 5, alpha = 7: gamma = 2/3 > 0, radial minimum -49/90 at
    # r = sqrt(13/7), the tangential curve is positive
    sp = ms.log_weight_space(4, 5.0, ms.decay_coefficient(4, 7.0), 1.0)
    rep = ms.curvature_bound(sp, 20.0)
    assert rep.minimum == pytest.approx(-49.0 / 90.0, rel=1e-14)
    assert rep.argmin_r == pytest.approx(math.sqrt(13.0 / 7.0), rel=1e-12)
    scan = brute_force_min(sp, 20.0)
    assert rep.minimum <= scan + 1e-14
    assert scan - rep.minimum < 1e-9


def test_curvature_bound_names_a_weight_without_candidates():
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    sp = ms.WeightedSpace(4, 5.0, zero, zero, zero, weight_kind="custom")
    with pytest.raises(ValueError, match="'custom'"):
        ms.curvature_bound(sp, 1.0)


def test_report_minimum_below_curves():
    asp = ms.appendix_space(6.0, 1.9, 0.7)
    rep = ms.curvature_bound(asp.space, 25.0)
    r = np.linspace(0, 25.0, 2000)
    assert np.all(ms.radial_eigenvalue(asp.space, r) >= rep.minimum - 1e-12)
    assert np.all(ms.tangential_eigenvalue(asp.space, r) >= rep.minimum - 1e-12)


# --- exact family ----------------------------------------------------------

def test_appendix_space_solves_for_mu():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    assert asp.n == 4
    assert asp.gamma == -1.0
    assert asp.mu == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_appendix_mu_scaling_with_K():
    a = ms.appendix_space(5.0, 2.0, 4.0)
    assert a.mu == pytest.approx(math.sqrt(0.5), abs=1e-14)


def test_ambient_dimension_rule():
    assert ms.ambient_dimension(5.0) == 4
    assert ms.ambient_dimension(4.5) == 4
    assert ms.appendix_space(4.5, 2.0, 1.0).gamma == -1.0


def test_invalid_alpha():
    with pytest.raises(InvalidAlpha):
        ms.appendix_space(5.0, 7.0 / 3.0, 1.0)  # alpha = p_S(5) not allowed


def test_round_trip_requested_K():
    for N, alpha, K in [(5.0, 2.0, 1.0), (5.0, 2.2, 0.3), (6.0, 1.9, 2.0),
                        (10.0, 1.4, 1.0), (4.2, 2.0, 1.0)]:
        asp = ms.appendix_space(N, alpha, K)
        rep = ms.curvature_bound(asp.space, 50.0 * asp.mu)
        assert rep.K == pytest.approx(K, rel=1e-10)


def test_exact_solution_formula_n4_alpha2():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    r = np.linspace(0, 10, 101)
    u, du, lap, res = ms.appendix_solution(asp, r)
    mu2 = asp.mu**2
    assert np.allclose(u, 16 * mu2 / (mu2 + r**2) ** 2, rtol=1e-13)
    assert np.allclose(lap, -16 * (16 * mu2) * mu2 / (mu2 + r**2) ** 4, rtol=1e-12)
    assert u[0] == pytest.approx((math.sqrt(16 / 1.0) / asp.mu) ** 2)


def test_exact_solution_residual_many_configs():
    for N, alpha in [(5.0, 2.0), (5.0, 2.2), (6.0, 2.0), (10.0, 1.5)]:
        asp = ms.appendix_space_from_mu(N, alpha, 1.3)
        r = np.linspace(0.0, 100.0, 4001)
        u, _, _, res = ms.appendix_solution(asp, r)
        assert np.max(np.abs(res)) <= 1e-10 * np.max(u**alpha)


def test_exact_solution_decay():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    for r in (1e3, 1e4):
        u, _, _, _ = ms.appendix_solution(asp, np.array([r]))
        expected = (asp.mu * math.sqrt(16.0) ) ** 2 / r ** 4
        assert u[0] == pytest.approx(expected, rel=1e-5)


# --- weighted Laplacian ----------------------------------------------------

def test_laplacian_classical_identity():
    sp = ms.flat(5)
    r = np.array([0.0, 0.5, 2.0])
    val = ms.weighted_laplacian_values(sp, r**2, 2 * r, np.full_like(r, 2.0), r)
    assert val == pytest.approx(np.full(3, 2 * 5))


def test_laplacian_constant():
    sp = ms.flat(3)
    r = np.array([1.3])
    val = ms.weighted_laplacian_values(sp, np.ones_like(r), np.zeros_like(r),
                                       np.zeros_like(r), r)
    assert val[0] == 0.0


def test_laplacian_fd_convergence():
    # O(h^2) convergence of a finite-difference Laplacian toward the analytic
    # weighted Laplacian of the exact solution, checked at two resolutions
    asp = ms.appendix_space(5.0, 2.0, 1.0)

    def fd_error(h):
        r = np.arange(1, 51) * 10 * h  # interior sample points
        u0, _, lap, _ = ms.appendix_solution(asp, r)
        up, _, _, _ = ms.appendix_solution(asp, r + h)
        um, _, _, _ = ms.appendix_solution(asp, r - h)
        d2 = (up - 2 * u0 + um) / h**2
        d1 = (up - um) / (2 * h)
        fd = d2 + (asp.n - 1) / r * d1 - np.asarray(asp.space.dphi(r)) * d1
        return np.max(np.abs(fd - lap))

    e1, e2 = fd_error(2e-3), fd_error(1e-3)
    assert e1 / e2 == pytest.approx(4.0, abs=0.4)


# --- sharpness diagnostic --------------------------------------------------

def test_sharpness_closed_form_n4_alpha2():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    sup, ratio, argmax = ms.sharpness_quantity(asp)
    assert sup == pytest.approx(16.0 / asp.mu**2, abs=1e-10)
    assert ratio == pytest.approx(8.0, abs=1e-8)
    assert argmax == pytest.approx(0.0, abs=1e-5)


def test_sharpness_interior_supremum_matches_a_dense_scan():
    # n = 6, alpha = 1.3: the supremum lies off the origin
    asp = ms.appendix_space(7.0, 1.3, 0.5)
    sup, ratio, argmax = ms.sharpness_quantity(asp)

    def diag(r):
        u, du, _, _ = ms.appendix_solution(asp, r)
        return (du / u) ** 2 + u ** (asp.alpha - 1.0)

    r = np.linspace(0.0, 50.0 * asp.mu, 100001)
    i = int(np.argmax(diag(r)))
    fine = np.linspace(r[i - 1], r[i + 1], 100001)
    d = diag(fine)
    assert argmax == pytest.approx(2.1022, abs=1e-4)
    assert argmax == pytest.approx(fine[np.argmax(d)], abs=1e-6)
    assert sup >= np.max(d) - 1e-15
    assert sup == pytest.approx(np.max(d), rel=1e-13)
    assert ratio == pytest.approx(sup / 0.5, rel=1e-15)


def test_sharpness_ratio_mu_independent():
    r1 = ms.appendix_space_from_mu(5.0, 2.0, 1.0)
    r2 = ms.appendix_space_from_mu(5.0, 2.0, 3.0)
    s1, q1, _ = ms.sharpness_quantity(r1)
    s2, q2, _ = ms.sharpness_quantity(r2)
    assert q1 == pytest.approx(q2, abs=1e-10)


def test_sharpness_doubling_K():
    a1 = ms.appendix_space(5.0, 2.0, 1.0)
    a2 = ms.appendix_space(5.0, 2.0, 2.0)
    s1, q1, _ = ms.sharpness_quantity(a1)
    s2, q2, _ = ms.sharpness_quantity(a2)
    assert a2.mu**2 == pytest.approx(a1.mu**2 / 2, rel=1e-12)
    assert s2 == pytest.approx(2 * s1, rel=1e-10)
    assert q2 == pytest.approx(q1, abs=1e-10)


# --- JSON ------------------------------------------------------------------

def test_space_json_round_trip():
    again = ms.from_json({"n": 4, "N": 4.0, "weight": {"kind": "zero"}})
    assert again.n == 4 and again.N == 4.0 and again.weight_kind == "zero"
    assert ms.from_json({"n": 3}).weight_kind == "zero"

    asp = ms.appendix_space(5.0, 2.0, 1.0)
    again = ms.from_json({"n": 4, "N": 5.0,
                          "weight": {"kind": "appendix", "alpha": 2.0,
                                     "mu": asp.mu}})
    r = np.linspace(0, 5, 50)
    assert np.allclose(again.phi(r), asp.space.phi(r))

    nodes = np.linspace(0, 20, 4001)
    again = ms.from_json({"n": 4, "N": 5.0,
                          "weight": {"kind": "custom-radial",
                                     "r": nodes.tolist(),
                                     "values": asp.space.phi(nodes).tolist()}})
    assert again.weight_kind == "table"
    assert np.allclose(again.phi(r), asp.space.phi(r), atol=1e-8)


def test_table_weight_space():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    r = np.linspace(0, 20, 4001)
    sp = ms.table_weight_space(4, 5.0, r, np.asarray(asp.space.phi(r)))
    mid = np.linspace(0.5, 10, 100)
    assert np.max(np.abs(np.asarray(sp.phi(mid)) - np.asarray(asp.space.phi(mid)))) < 1e-8
    assert np.max(np.abs(np.asarray(sp.dphi(mid)) - np.asarray(asp.space.dphi(mid)))) < 1e-5
