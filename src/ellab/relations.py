"""Empirical implication structure among the three basic estimates.

For a positive solution on a ball the lab measures the smallest constants
making each display true,

    universal bound      sup f(u)/u          <= C_U (K + 1/R^2)
    gradient bound       sup |grad u|^2/u^2  <= C_L (K + 1/R^2)
    Harnack inequality   sup u               <= C_H inf u

and tests the three arrows between them on solution corpora: the bound on
the double ball forces a gradient constant on the inner ball (recorded as an
empirical map, no closed form exists), the gradient constant forces Harnack
with the explicit factor exp(2 sqrt(C_L (K R^2 + 1))), and Harnack on the
double ball forces a universal bound inside (again an empirical map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nonlinearity as nl
from .errors import HypothesisViolation, LabError
from .pdelab import SolutionProfile

INTERP_TOL = 1e-8     # relative slack of the gradient -> Harnack arrow
PROBE_GROWTH = 2.0    # boundary-value factor between convergence probes
MAX_PROBE = 40        # probes before the sweep takes the last good value


def harnack_constant(C_L: float, K: float, R: float) -> float:
    """Harnack factor implied by a gradient constant: e^(2 sqrt(C_L(KR^2+1)))."""
    if C_L < 0 or K < 0 or R <= 0:
        raise ValueError("need C_L >= 0, K >= 0, R > 0")
    return math.exp(2.0 * math.sqrt(C_L * (K * R**2 + 1.0)))


def measured_constants(profile: SolutionProfile, K: float, radius: float) -> dict:
    """Smallest constants making each display true for this profile."""
    sel = profile.ball(radius)
    u, du = profile.u[sel], profile.du[sel]
    f, _, _ = nl.evaluate_many(profile.spec, u)
    level = K + 1.0 / radius**2
    return {
        "C_U": float(np.max(f / u)) / level,
        "C_L": float(np.max(du**2 / u**2)) / level,
        "C_H": float(np.max(u) / np.min(u)),
    }


@dataclass(frozen=True)
class ImplicationReport:
    N: float
    K: float
    R: float
    rows: list
    arrows: dict
    hypothesis_checks: dict
    notes: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"N": self.N, "K": self.K, "R": self.R, "rows": list(self.rows),
                "arrows": dict(self.arrows),
                "hypothesis_checks": dict(self.hypothesis_checks),
                "notes": dict(self.notes)}

    def csv_matrix(self):
        header = ["profile", "boundary_value", "C_U_2R", "C_L_R", "C_H_R",
                  "harnack_bound", "arrow_bound_to_gradient",
                  "arrow_gradient_to_harnack", "arrow_harnack_to_bound"]
        cols = [[], [], [], [], [], [], [], [], []]
        for i, row in enumerate(self.rows):
            vals = [i, row["boundary_value"], row["C_U_2R"], row["C_L_R"],
                    row["C_H_R"], row["harnack_bound"],
                    row["arrow_bound_to_gradient"],
                    row["arrow_gradient_to_harnack"],
                    row["arrow_harnack_to_bound"]]
            for c, v in zip(cols, vals):
                c.append(v)
        return header, [np.asarray(c) for c in cols]


def implication_suite(corpus: list[SolutionProfile], N: float,
                      spec: nl.NonlinearitySpec, K: float, R: float) -> ImplicationReport:
    """Measure the three constants per profile and check each arrow.

    Arrow checks:
      (a) bound -> gradient: both constants finite over the corpus; the
          empirical map is summarized by an affine envelope fit.
      (b) gradient -> Harnack: sup/inf on the inner ball stays below the
          explicit factor built from that profile's own measured C_L.
      (c) Harnack -> bound: both constants finite; empirical map recorded.
    """
    idx = nl.compute_indices(spec)
    hyp = {
        # arrow (a) needs a comparison exponent with t^-c f non-increasing
        "power_ratio_nonincreasing": (idx.upper_finite
                                      and nl.power_ratio_nonincreasing(spec, idx.upper)),
        "f_nonnegative": spec.positive,
        # arrow (c) needs f > 0, upper index under the Sobolev exponent, and
        # a non-decreasing log-derivative ratio
        "upper_below_sobolev": idx.upper_finite and idx.upper < nl.p_sobolev(N),
        "ratio_nondecreasing": nl.ratio_nondecreasing(spec),
        # gradient -> Harnack needs continuity; lab profiles are smooth, so
        # the hypothesis holds vacuously and is only recorded
        "continuity": True,
    }
    if not (hyp["f_nonnegative"] or hyp["power_ratio_nonincreasing"]):
        raise HypothesisViolation("corpus reaction fits no implication lemma")

    rows = []
    ok_b = True
    for prof in corpus:
        outer = measured_constants(prof, K, 2.0 * R)
        inner = measured_constants(prof, K, R)
        hb = harnack_constant(inner["C_L"], K, R)
        row = {
            "boundary_value": prof.boundary_value,
            "C_U_2R": outer["C_U"], "C_L_R": inner["C_L"],
            "C_H_R": inner["C_H"], "C_H_2R": outer["C_H"],
            "C_U_R": inner["C_U"],
            "harnack_bound": hb,
            "arrow_bound_to_gradient": math.isfinite(outer["C_U"])
                                       and math.isfinite(inner["C_L"]),
            "arrow_gradient_to_harnack": inner["C_H"] <= hb * (1.0 + INTERP_TOL),
            "arrow_harnack_to_bound": math.isfinite(outer["C_H"])
                                      and math.isfinite(inner["C_U"]),
        }
        ok_b = ok_b and row["arrow_gradient_to_harnack"]
        rows.append(row)

    cu = np.array([r["C_U_2R"] for r in rows])
    cl = np.array([r["C_L_R"] for r in rows])
    ch = np.array([r["C_H_2R"] for r in rows])
    cui = np.array([r["C_U_R"] for r in rows])
    # affine envelope of the empirical bound -> gradient map
    slope = float(np.max(cl / np.maximum(cu, 1e-12))) if len(rows) else 0.0
    arrows = {
        "bound_to_gradient": {
            "all_finite": bool(np.all(np.isfinite(cu)) and np.all(np.isfinite(cl))),
            "envelope_slope": slope,
            "envelope_offset": float(np.max(cl)) if len(rows) else 0.0,
        },
        "gradient_to_harnack": {"sharp_bound_holds": bool(ok_b)},
        "harnack_to_bound": {
            "all_finite": bool(np.all(np.isfinite(ch)) and np.all(np.isfinite(cui))),
            "envelope_slope": float(np.max(cui / np.maximum(ch, 1e-12))) if len(rows) else 0.0,
        },
    }
    return ImplicationReport(N, K, R, rows, arrows, hyp)


def boundary_sweep(solve, lo: float, hi_start: float, count: int = 20):
    """Boundary values log-spaced inside the solver's convergent range.

    `solve` maps a boundary value to a profile or raises a LabError; the
    upper end of the range is found by geometric probing, then `count` values
    are drawn.  Any other exception is a bug and propagates.
    """
    hi = hi_start
    last_good = None
    for _ in range(MAX_PROBE):
        try:
            solve(hi)
            last_good = hi
            hi *= PROBE_GROWTH
        except LabError:
            break
    if last_good is None:
        raise HypothesisViolation("no convergent boundary value found")
    values = np.geomspace(lo, 0.9 * last_good, count)
    profiles = []
    for bv in values:
        profiles.append(solve(float(bv)))
    return values, profiles
