"""Tests for the implication structure among the three basic estimates."""

import math

import numpy as np
import pytest

from ellab import modelspace as ms
from ellab import nonlinearity as nl
from ellab import pdelab as pde
from ellab import relations as rel
from ellab.errors import HypothesisViolation, NoConvergence

FLAT4 = ms.flat(4)
LANE_EMDEN = nl.power(2.0)


def allen_cahn_equilibrium():
    # f = t - t^3 vanishes at 1, so the solver returns u = 1 exactly
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    return spec, pde.solve_radial_bvp(FLAT4, spec, 1.0, 1.0, pde.SolverConfig(m=256))


def small_corpus(m=512):
    _, corpus = rel.boundary_sweep(FLAT4, LANE_EMDEN, 1.0, m, 1e-2)
    return corpus


# --- Harnack factor ----------------------------------------------------------

def test_harnack_constant_values():
    assert rel.harnack_constant(0.0, 1.0, 2.0) == 1.0
    assert rel.harnack_constant(1.0, 0.0, 7.0) == pytest.approx(math.e**2)
    assert rel.harnack_constant(4.0, 1.0, 1.0) == pytest.approx(
        math.exp(2.0 * math.sqrt(8.0)))


def test_harnack_constant_monotone():
    base = rel.harnack_constant(1.0, 1.0, 1.0)
    assert rel.harnack_constant(2.0, 1.0, 1.0) > base
    assert rel.harnack_constant(1.0, 2.0, 1.0) > base
    assert rel.harnack_constant(1.0, 1.0, 2.0) > base


def test_harnack_constant_rejects_bad_args():
    with pytest.raises(ValueError):
        rel.harnack_constant(-1.0, 0.0, 1.0)


# --- measured constants -------------------------------------------------------

def test_measured_constants_constant_profile():
    _, prof = allen_cahn_equilibrium()
    mc = rel.measured_constants(prof, 0.0, 1.0)
    assert mc["C_L"] == 0.0
    assert mc["C_H"] == 1.0
    assert rel.harnack_constant(mc["C_L"], 0.0, 1.0) == 1.0


def test_measured_constants_appendix_closed_form():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    prof = pde.exact_profile(asp, 1.0, 2048)
    mc = rel.measured_constants(prof, asp.K, 1.0)
    # u = 16 mu^2/(mu^2+r^2)^2 is decreasing, so sup/inf has a closed form
    assert mc["C_H"] == pytest.approx(((asp.mu**2 + 1.0) / asp.mu**2) ** 2, rel=1e-12)


# --- implication suite ----------------------------------------------------------

def test_suite_lane_emden_corpus():
    corpus = small_corpus()
    rep = rel.implication_suite(corpus, 4.0, LANE_EMDEN, 0.0, 1.0)
    assert rep.arrows["gradient_to_harnack"]["sharp_bound_holds"]
    assert rep.arrows["bound_to_gradient"]["all_finite"]
    assert rep.arrows["harnack_to_bound"]["all_finite"]
    assert all(r["arrow_gradient_to_harnack"] for r in rep.rows)
    # the empirical envelope really bounds the corpus
    slope = rep.arrows["bound_to_gradient"]["envelope_slope"]
    for r in rep.rows:
        assert r["C_L_R"] <= slope * r["C_U_2R"] + 1e-12


def test_suite_includes_constant_and_exact_profiles():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    exact = pde.exact_profile(asp, 1.0, 1024)
    rep = rel.implication_suite([exact], 5.0, nl.power(2.0), asp.K, 1.0)
    assert rep.rows[0]["arrow_gradient_to_harnack"]


def test_suite_hypothesis_gate():
    spec, prof = allen_cahn_equilibrium()  # sign-changing, unbounded index
    with pytest.raises(HypothesisViolation):
        rel.implication_suite([prof], 4.0, spec, 0.0, 1.0)


def test_suite_report_serializes():
    from ellab import reporting
    rep = rel.implication_suite(small_corpus(), 4.0, LANE_EMDEN, 0.0, 1.0)
    text = reporting.dumps(rep.as_dict())
    assert '"gradient_to_harnack"' in text
    header, cols = rep.csv_matrix()
    assert len(header) == len(cols)
    assert len(cols[0]) == rel.SWEEP_COUNT


def test_boundary_sweep_is_deterministic():
    vals1, _ = rel.boundary_sweep(FLAT4, LANE_EMDEN, 1.0, 256, 1e-3)
    vals2, _ = rel.boundary_sweep(FLAT4, LANE_EMDEN, 1.0, 256, 1e-3)
    assert np.array_equal(vals1, vals2)


@pytest.mark.parametrize("space,rung", [
    (ms.flat(3), 0.4),
    (FLAT4, 0.8),
    (ms.appendix_space(5.0, 2.0, 1.0).space, 0.8),
])
@pytest.mark.parametrize("m", [512, 1024, 2048])
def test_boundary_sweep_tops_out_at_the_rung_below_the_fold(space, rung, m):
    # the folds lie at about 0.586, 0.859 and 1.100: the top rung is the
    # one the Newton solver reaches, and every corpus value converges
    values, corpus = rel.boundary_sweep(space, LANE_EMDEN, 1.0, m, 1e-3)
    assert np.array_equal(values, np.geomspace(1e-3, 0.9 * rung, 20))
    assert [p.boundary_value for p in corpus] == list(values)


@pytest.mark.parametrize("R,rung", [(2.0, 0.2), (2.5, 0.1)])
def test_boundary_sweep_rung_follows_the_scaled_fold(R, rung):
    # the fold 0.8587 / R^2 is 0.215 at R = 2 and 0.137 at R = 2.5
    values, _ = rel.boundary_sweep(FLAT4, LANE_EMDEN, R, 512, 1e-3)
    assert values[-1] == 0.9 * rung


def test_boundary_sweep_names_the_branch_maximum():
    # Lane-Emden scaling: the flat:4 fold at R = 1 (about 0.8587) moves to
    # 0.8587 / R^2 at radius R, below the lowest rung 0.1
    with pytest.raises(HypothesisViolation, match=r"0\.008[56]"):
        rel.boundary_sweep(FLAT4, LANE_EMDEN, 10.0, 512, 1e-3)


def test_boundary_sweep_names_the_march_minimum():
    # f = t + 2 sqrt(t): the coarse march lives only from u(0) of about 1.15
    # up, with boundary values from 0.0031; refined on the 512 grid between
    # that centre and the dead one below, the branch reaches 1.885e-4
    spec = nl.lichnerowicz(1, 0, 3, 2, 0.5)
    with pytest.raises(HypothesisViolation,
                       match=r"starts at 1e-05, below 0\.000188547, the smallest"):
        rel.boundary_sweep(FLAT4, spec, 1.0, 512, 1e-5)


@pytest.mark.parametrize("lo", [0.9 * 0.8, 0.75, 0.85])
def test_boundary_sweep_rejects_a_start_at_or_above_its_end(monkeypatch, lo):
    # on flat:4 at R = 1 the sweep ends at 0.9 * 0.8 = 0.72, below the top
    def solve(*args, **kwargs):
        raise AssertionError("no Newton solve before the range check")

    monkeypatch.setattr(pde, "solve_radial_lanes", solve)
    with pytest.raises(HypothesisViolation,
                       match=rf"starts at {lo:g}, at or above its end 0\.72 .*"
                             r"branch top 0\.8585"):
        rel.boundary_sweep(FLAT4, LANE_EMDEN, 1.0, 512, lo)


def count_marches(monkeypatch):
    """The grid of each march from here on, in call order."""
    calls = []
    march = pde.march_boundary_values

    def counted(*args):
        calls.append(args[3])
        return march(*args)

    monkeypatch.setattr(pde, "march_boundary_values", counted)
    return calls


@pytest.mark.parametrize("space", [ms.flat(3), FLAT4,
                                   ms.appendix_space(5.0, 2.0, 1.0).space])
def test_boundary_sweep_marches_once_when_the_first_centre_lives(monkeypatch,
                                                                  space):
    calls = count_marches(monkeypatch)
    pde.branch.cache_clear()
    rel.boundary_sweep(space, LANE_EMDEN, 1.0, 1024, 1e-3)
    assert calls == [pde.BRANCH_GRID]


def test_boundary_sweep_reuses_the_branch_of_its_space_and_radius(monkeypatch):
    # the coarse branch does not depend on the sweep's grid m, but on R
    pde.branch.cache_clear()
    rel.boundary_sweep(FLAT4, LANE_EMDEN, 1.0, 1024, 1e-3)
    calls = count_marches(monkeypatch)
    rel.boundary_sweep(FLAT4, LANE_EMDEN, 1.0, 512, 1e-3)
    assert calls == []
    rel.boundary_sweep(FLAT4, LANE_EMDEN, 0.5, 512, 1e-3)
    assert calls == [pde.BRANCH_GRID]


@pytest.mark.parametrize("space,spec", [
    (ms.flat(3), LANE_EMDEN),
    (FLAT4, LANE_EMDEN),
    (ms.appendix_space(5.0, 2.0, 1.0).space, LANE_EMDEN),
    (FLAT4, nl.power_sum([(1, 2), (1, 2.5)])),
])
@pytest.mark.parametrize("m", [512, 777, 2048])
def test_boundary_sweep_profiles_equal_one_value_solves(space, spec, m):
    values, corpus = rel.boundary_sweep(space, spec, 1.0, m, 1e-3)
    for bv, lane in zip(values, corpus):
        alone = pde.solve_radial_bvp(space, spec, 1.0, float(bv),
                                     pde.SolverConfig(m=m))
        for name in ("u", "du"):
            assert np.array_equal(getattr(lane, name), getattr(alone, name))
        assert lane.residual_norm == alone.residual_norm
        assert lane.meta == alone.meta


def test_boundary_sweep_propagates_corpus_solver_errors(monkeypatch):
    def solve(space, spec, R, values, config):
        raise NoConvergence("no profile")

    monkeypatch.setattr(pde, "solve_radial_lanes", solve)
    with pytest.raises(NoConvergence):
        rel.boundary_sweep(FLAT4, LANE_EMDEN, 1.0, 512, 1e-3)
