"""Tests for the nonlinearity module: evaluation, indices, exponents, hypotheses."""

import math
import typing

import numpy as np
import pytest

from ellab import nonlinearity as nl
from ellab.errors import NonPositiveArgument, RhoUndefined, SignChange, UnsupportedTheorem


# --- independent sampling oracle ------------------------------------------

def sampled_ratio_extrema(spec, lo=1e-10, hi=1e10, n=200001):
    """Brute-force inf/sup of t f'/f and inf of t^2 f''/f on a dense log grid."""
    t = np.geomspace(lo, hi, n)
    f, df, d2f = nl.evaluate_many(spec, t)
    r1 = t * df / f
    r2 = t * t * d2f / f
    return r1.min(), r1.max(), r2.min()


# Dense-grid answers to the hypothesis checks, which `nonlinearity` gives
# termwise from the monomial sum: each tests its property at every node.
ORACLE_GRID = np.geomspace(1e-8, 1e8, 20001)


def sampled_power_ratio_nonincreasing(spec, alpha, t=ORACLE_GRID):
    """t f' <= alpha f at every node, up to rounding."""
    f, df, _ = nl.evaluate_many(spec, t)
    slack = t * df - alpha * f
    return bool(np.all(slack <= 1e-12 * (np.abs(f) + np.abs(t * df) + 1e-300)))


def sampled_ratio_nondecreasing(spec, t=ORACLE_GRID):
    """(t f'/f)' >= 0 in log t, i.e. r2 >= r1 (r1 - 1), at every node where
    the ratios are reliable."""
    f, df, d2f = nl.evaluate_many(spec, t)
    ok = nl.ratio_mask(spec, t, f)
    if not np.any(ok):
        return False
    t, fv = t[ok], f[ok]
    r1 = t * df[ok] / fv
    r2 = t * t * d2f[ok] / fv
    gap = r2 - r1 * (r1 - 1.0)
    return bool(np.all(gap >= -1e-9 * (1.0 + np.abs(r1) ** 2)))


def sampled_vanishing_slope_at_zero(spec):
    """|f(t)/t| small at t = 1e-14 and not above its value at 1e-6."""
    t = np.geomspace(1e-14, 1e-6, 9)
    f, _, _ = nl.evaluate_many(spec, t)
    vals = np.abs(f / t)
    return bool(vals[0] < 1e-6 and vals[0] <= vals[-1])


def sampled_inverse_increasing(spec, beta, t=np.geomspace(1e-6, 1e6, 20001)):
    """t^(-1-beta) f(t) positive and strictly increasing over the nodes."""
    f, _, _ = nl.evaluate_many(spec, t)
    vals = t ** (-1.0 - beta) * f
    return bool(np.all(vals > 0) and np.all(np.diff(vals) > 0))


def fd_derivatives(spec, t, rel=1e-3):
    """Richardson-extrapolated centered differences of f, step scaled to t."""
    def once(h):
        fp, _, _ = nl.evaluate_many(spec, np.array([t + h]))
        fm, _, _ = nl.evaluate_many(spec, np.array([t - h]))
        f0, _, _ = nl.evaluate_many(spec, np.array([t]))
        return (fp[0] - fm[0]) / (2 * h), (fp[0] - 2 * f0[0] + fm[0]) / h**2

    h = rel * t
    d1a, d2a = once(h)
    d1b, d2b = once(h / 2)
    return (4 * d1b - d1a) / 3, (4 * d2b - d2a) / 3


def mp_second_index(mp, terms):
    """inf of t^2 f''/f by mpmath at 60 digits.

    t^2 f''/f is the mean of a(a - 1) under the weights k t^a.  Scan it on
    4001 nodes of x = ln t in [-20, 20].  At a least end node, return its
    limit a(a - 1) of the least or greatest exponent; at an inner one, scan
    again between the node's neighbours on 41 nodes, 24 times.
    """
    with mp.workdps(60):
        ks = [mp.mpf(k) for k, _a in terms]
        exps = [mp.mpf(a) for _k, a in terms]

        def mean(x):
            ws = [k * mp.exp(a * x) for k, a in zip(ks, exps)]
            return sum(w * a * (a - 1) for w, a in zip(ws, exps)) / sum(ws)

        lo, hi, n = mp.mpf(-20), mp.mpf(20), 4001
        for scan in range(25):
            xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
            vals = [mean(x) for x in xs]
            i = min(range(n), key=vals.__getitem__)
            if scan == 0 and i in (0, n - 1):
                a = min(exps) if i == 0 else max(exps)
                return float(a * (a - 1))
            lo, hi, n = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)], 41
        return float(vals[i])


# --- evaluation ------------------------------------------------------------

def test_evaluate_power_law():
    f, df, d2f = nl.evaluate_many(nl.power(2.0), np.array([3.0]))
    assert (f[0], df[0], d2f[0]) == (9.0, 6.0, 2.0)


def test_evaluate_lichnerowicz_allen_cahn_at_one():
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    f, df, d2f = nl.evaluate_many(spec, np.array([1.0]))
    assert (f[0], df[0], d2f[0]) == (0.0, -2.0, -6.0)


def test_evaluate_power_sum():
    spec = nl.power_sum([(1, 2), (1, 3)])
    f, df, d2f = nl.evaluate_many(spec, np.array([2.0]))
    assert (f[0], df[0], d2f[0]) == (12.0, 16.0, 14.0)


def test_evaluate_rejects_nonpositive():
    with pytest.raises(NonPositiveArgument):
        nl.evaluate_many(nl.power(2.0), np.array([0.0]))
    with pytest.raises(NonPositiveArgument):
        nl.evaluate_many(nl.power(2.0), np.array([-1.0]))


@pytest.mark.parametrize("spec", [
    nl.power(2.0),
    nl.power_sum([(1.0, 2.0), (2.0, 3.5), (0.5, 0.5)]),
    nl.lichnerowicz(1, 1, 3, 2, 0.5),
    nl.lichnerowicz(0, 0, 3, 0, 0.5),   # the empty sum
])
def test_lower_orders_are_the_leading_arrays_bit_for_bit(spec):
    # under- and overflowing monomials included
    t = np.geomspace(1e-200, 1e200, 4001)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        full = nl.evaluate_many(spec, t)
        for order in (0, 1):
            lower = nl.evaluate_many(spec, t, order=order)
            assert len(lower) == order + 1
            for got, want in zip(lower, full):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [
    nl.power(2.0),
    nl.power(0.5),
    nl.power_sum([(1.0, 2.0), (2.0, 3.5)]),
    nl.power_sum([(1.0, 0.5), (1.0, 2.0)]),
    nl.lichnerowicz(1, 0, 3, 2, 0.5),
    nl.lichnerowicz(0, 1, 3, 0, 0.5),
    nl.lichnerowicz(1, 1, 3, 0, 0.5),
])
def test_analytic_derivatives_match_finite_differences(spec):
    for t in np.geomspace(1e-6, 1e6, 25):
        d1, d2 = fd_derivatives(spec, t)
        f, a1, a2 = nl.evaluate_many(spec, np.array([t]))
        assert a1[0] == pytest.approx(d1, rel=1e-8, abs=1e-8 * abs(f[0]) / t)
        assert a2[0] == pytest.approx(d2, rel=1e-8, abs=1e-8 * abs(f[0]) / t**2)


# --- indices ---------------------------------------------------------------

def test_indices_power_law_exact():
    rep = nl.compute_indices(nl.power(2.0))
    assert (rep.lower, rep.upper, rep.second) == (2.0, 2.0, 2.0)


def test_indices_power_sum_two_terms():
    spec = nl.power_sum([(1, 2), (1, 3)])
    rep = nl.compute_indices(spec)
    s_lo, s_hi, s_se = sampled_ratio_extrema(spec)
    assert rep.lower == pytest.approx(s_lo, abs=1e-6)
    assert rep.upper == pytest.approx(s_hi, abs=1e-6)
    assert rep.second == pytest.approx(s_se, abs=1e-6)
    assert (rep.lower, rep.upper, rep.second) == pytest.approx((2.0, 3.0, 2.0), abs=1e-9)


def test_indices_power_sum_fractional():
    rep = nl.compute_indices(nl.power_sum([(1, 0.5), (1, 2)]))
    s_lo, s_hi, _ = sampled_ratio_extrema(nl.power_sum([(1, 0.5), (1, 2)]))
    assert rep.lower == pytest.approx(0.5, abs=1e-9)
    assert rep.upper == pytest.approx(2.0, abs=1e-9)
    assert (s_lo, s_hi) == pytest.approx((0.5, 2.0), abs=1e-6)


def test_indices_power_sum_min_max_rule():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.integers(2, 5)
        ks = rng.uniform(0.2, 3.0, m)
        als = rng.uniform(0.1, 4.0, m)
        spec = nl.power_sum(list(zip(ks, als)))
        rep = nl.compute_indices(spec)
        assert rep.lower == pytest.approx(als.min(), abs=1e-12)
        assert rep.upper == pytest.approx(als.max(), abs=1e-12)
        s_lo, s_hi, _ = sampled_ratio_extrema(spec, 1e-8, 1e8, 20001)
        assert s_lo >= rep.lower - 1e-9
        assert s_hi <= rep.upper + 1e-9


def test_index_bounds_hold_at_random_points():
    rng = np.random.default_rng(42)
    specs = [nl.power(1.7), nl.power_sum([(1, 1.2), (0.5, 2.8)]),
             nl.power_sum([(1, 2), (1, 3)])]
    for spec in specs:
        rep = nl.compute_indices(spec)
        t = rng.uniform(1e-3, 1e3, 10_000)
        f, df, _ = nl.evaluate_many(spec, t)
        r1 = t * df / f
        assert np.all(r1 >= rep.lower - 1e-9)
        assert np.all(r1 <= rep.upper + 1e-9)


@pytest.mark.parametrize("terms,want,ulps", [
    # pair sums 0.7, 2.8 and 2.9 straddle 1: the infimum sits at x = -3.7267
    ([(1, 0.3), (5, 0.4), (1, 2.5)], -0.23300358044522923, 2),
    ([(2, 0.1), (1, 0.2), (0.3, 3.0)], -0.10915073972412194, 2),
    # every pair sum is above 1: the limit 45 * 44 at t -> 0
    ([(1, 45), (1, 50)], 1980.0, 0),
    # every pair sum is below 1: the limit at t -> inf
    ([(1, 0.1), (3, 0.4)], -0.24, 0),
])
def test_second_index_matches_mpmath(terms, want, ulps):
    mp = pytest.importorskip("mpmath")
    assert mp_second_index(mp, terms) == want
    got = nl.compute_indices(nl.power_sum(terms)).second
    assert abs(got - want) <= ulps * math.ulp(want)


def test_second_index_of_huge_opposite_exponents():
    mp = pytest.importorskip("mpmath")
    # t^-1e6 and t^1e6 under- or overflow at almost every t; the infimum of
    # the weighted mean is about 6.67e11, at t = e^(3.5e-12), far above the
    # termwise floor min a(a - 1) = -0.25
    terms = [(1, -1e6), (1, 0.5), (1, 1e6)]
    rep = nl.compute_indices(nl.power_sum(terms))
    assert (rep.lower, rep.upper) == (-1e6, 1e6)
    assert rep.second == pytest.approx(mp_second_index(mp, terms), rel=1e-9)


def test_second_index_samples_no_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the second index sampled an array")

    monkeypatch.setattr(nl, "evaluate_many", refuse)
    monkeypatch.setattr(np, "geomspace", refuse)
    for terms in ([(1, 0.3), (5, 0.4), (1, 2.5)], [(1, 2), (1, 3)],
                  [(1, 0.1), (3, 0.4)]):
        assert math.isfinite(nl.compute_indices(nl.power_sum(terms)).second)


def test_indices_sign_changing_lichnerowicz():
    rep = nl.compute_indices(nl.lichnerowicz(1, 1, 3, 0, 0.5))
    assert rep.lower == -math.inf and rep.upper == math.inf
    assert not rep.upper_finite


def test_indices_declared_positive_but_vanishing():
    bad = nl.NonlinearitySpec(nl.Lichnerowicz(1, 1, 3, 0, 0.5), positive=True)
    with pytest.raises(SignChange):
        nl.compute_indices(bad)


def test_critical_exponents_rho_needs_dimension_above_one():
    with pytest.raises(RhoUndefined):
        nl.critical_exponents(1.0, 2.0)
    assert nl.critical_exponents(1.0).rho is None


# --- critical exponents ----------------------------------------------------

def test_exponents_at_four():
    es = nl.critical_exponents(4.0)
    assert es.p_sobolev == 3.0
    assert es.p == pytest.approx(7.0 / 3.0)


def test_exponents_at_one():
    es = nl.critical_exponents(1.0)
    assert es.p == math.inf and es.p_sobolev == math.inf


def test_rho_value():
    assert nl.rho(5.0, 2.0) == pytest.approx(2.0 / 7.0, abs=1e-15)


def test_rho_undefined_at_one():
    with pytest.raises(RhoUndefined):
        nl.rho(1.0, 2.0)


def test_p_ordering_and_monotonicity():
    Ns = np.linspace(1.01, 40, 300)
    p = np.array([nl.p_threshold(N) for N in Ns])
    assert np.all(np.diff(p) <= 1e-12)
    Ns2 = np.linspace(2.01, 40, 300)
    ps = np.array([nl.p_sobolev(N) for N in Ns2])
    assert np.all(np.diff(ps) <= 1e-12)
    for N in np.linspace(2.1, 30, 50):
        assert nl.p_threshold(N) < nl.p_sobolev(N)


def test_rho_branch_split_has_a_jump():
    # the two branch formulas do not agree at the internal split for N in
    # (2,3); the definition switches branch there and the lab records the gap
    for N in (2.2, 2.5, 2.9):
        edge = (N + 1) / (N - 2)
        b1, b2 = nl.rho_branches(N, edge)
        assert abs(b1 - b2) > 1e-6
        assert nl.rho(N, edge) == b2
        assert nl.rho(N, edge - 1e-9) == pytest.approx(b1, abs=1e-6)


def test_one_plus_rho_below_upper_in_window():
    rng = np.random.default_rng(3)
    for _ in range(200):
        N = rng.uniform(1.01, 12.0)
        p, ps = nl.p_threshold(N), nl.p_sobolev(N)
        hi = min(ps, p + 10.0)
        lam = rng.uniform(p, hi * 0.999)
        assert 1.0 + nl.rho(N, lam) < lam


# --- hypotheses ------------------------------------------------------------

def test_power_two_fails_13_passes_17_at_five():
    spec = nl.power(2.0)
    r13 = nl.check_hypotheses(spec, 5.0, "1.3")
    assert not r13.satisfied and not r13.checks["upper_below_p"]
    r17 = nl.check_hypotheses(spec, 5.0, "1.7")
    assert r17.satisfied


def test_power_two_passes_13_at_four():
    assert nl.check_hypotheses(nl.power(2.0), 4.0, "1.3").satisfied


def test_lichnerowicz_power_ratio_condition():
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    # t^-3 (t - t^3) = t^-2 - 1 decreases; passes 1.5 with alpha=3 iff 3 < p(N)
    assert nl.power_ratio_nonincreasing(spec, 3.0)
    assert nl.check_hypotheses(spec, 2.5, "1.5", alpha=3.0).satisfied
    assert not nl.check_hypotheses(spec, 3.5, "1.5", alpha=3.0).satisfied


def test_power_ratio_nonincreasing_oracle():
    # grid oracle: direct monotonicity of t^-alpha f on a dense grid
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    t = np.geomspace(1e-6, 1e6, 5001)
    f, _, _ = nl.evaluate_many(spec, t)
    vals = t ** (-3.0) * f
    assert np.all(np.diff(vals) <= 1e-12)


def test_inverse_bounded_power_law():
    assert nl.inverse_bounded(nl.power(2.0), 0.5)


def test_inverse_bounded_fails_when_not_increasing():
    assert not nl.inverse_bounded(nl.power(2.0), 1.5)  # exponent 2-1-1.5 < 0


def test_ratio_mask_drops_nodes_next_to_a_root():
    # t - t^3 vanishes at 1; one ulp away |f| is ~1e-16 of the term scale
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    t = np.array([0.5, np.nextafter(1.0, 2.0), 2.0])
    f, df, _ = nl.evaluate_many(spec, t)
    assert f[1] != 0
    assert nl.ratio_mask(spec, t, f).tolist() == [True, False, True]


@pytest.mark.parametrize("spec", [
    nl.power(2.0),
    nl.power(3.5),
    nl.power_sum([(1, 2), (1, 3)]),
    nl.power_sum([(1, 0.5), (2, 2.5)]),
    nl.lichnerowicz(1, 0, 3, 2, 0.5),
    nl.lichnerowicz(0, 1, 3, 0, 0.5),
    nl.lichnerowicz(1, 1, 3, 0, 0.5),
    nl.lichnerowicz(0, 0, 3, 2, 0.5),
])
def test_termwise_hypotheses_match_grid_fallbacks(spec):
    # away from threshold cases (p0 = 0, alpha equal to an exponent) the
    # monomial-sum answers and the dense-grid ones must agree
    for alpha in (1.5, 2.5, 4.0):
        assert (nl.power_ratio_nonincreasing(spec, alpha)
                == sampled_power_ratio_nonincreasing(spec, alpha))
    assert nl.vanishing_slope_at_zero(spec) == sampled_vanishing_slope_at_zero(spec)
    for beta in (0.25, 0.75, 2.0):
        assert (nl.inverse_bounded(spec, beta)
                == sampled_inverse_increasing(spec, beta))
    assert nl.ratio_nondecreasing(spec) == sampled_ratio_nondecreasing(spec)


def test_ratio_nondecreasing_check():
    assert nl.ratio_nondecreasing(nl.power(2.0))
    # t^40 overflows on the sampling grid, but t f'/f = 40 is constant
    assert nl.ratio_nondecreasing(nl.power(40.0))
    assert nl.ratio_nondecreasing(nl.power_sum([(1, 2), (1, 3)]))
    assert nl.ratio_nondecreasing(nl.lichnerowicz(0, 1, 3, 0, 0.5))  # -t^3
    # mixed signs: t f'/f is unbounded both ways around the root of f
    assert not nl.ratio_nondecreasing(nl.lichnerowicz(1, 1, 3, 0, 0.5))
    # f = no terms: there is no ratio
    assert not nl.ratio_nondecreasing(nl.lichnerowicz(0, 0, 3, 0, 0.5))


def test_ratio_nondecreasing_false_for_a_root_beyond_the_grid():
    # f = 2t - t^1.0015 + t^0.75 has its root beyond t = 1e200, so on
    # [1e-8, 1e8] t f'/f decreases by less than a grid test's slack
    spec = nl.lichnerowicz(2, 1, 1.0015, 1, 0.75)
    assert sampled_ratio_nondecreasing(spec)
    assert not nl.ratio_nondecreasing(spec)
    assert nl.compute_indices(spec).upper == math.inf


def test_theorem_18_hypotheses_for_lane_emden():
    # upper index 2 sits in [p(5), p_S(5)) = [2, 7/3)
    rep = nl.check_hypotheses(nl.power(2.0), 5.0, "1.8", beta=0.6)
    assert rep.satisfied


def test_unknown_theorem():
    with pytest.raises(UnsupportedTheorem):
        nl.check_hypotheses(nl.power(2.0), 4.0, "9.99")


# --- JSON interface --------------------------------------------------------

def test_json_round_trip():
    for spec in (nl.power(2.0), nl.power_sum([(1, 2), (1, 3)]),
                 nl.lichnerowicz(1, 1, 3, 0, 0.5)):
        again = nl.from_json(nl.to_json(spec))
        assert again == spec


def test_every_family_round_trips_through_json():
    # a family that `from_json` cannot build is one the CLI cannot receive
    examples = {nl.PowerLaw: nl.power(2.5),
                nl.PowerSum: nl.power_sum([(1, 0.5), (2, 2.5)]),
                nl.Lichnerowicz: nl.lichnerowicz(1, 0, 3, 2, 0.5)}
    assert set(examples) == set(typing.get_args(nl.Family))
    for family, spec in examples.items():
        assert type(spec.family) is family
        assert nl.from_json(nl.to_json(spec)) == spec
