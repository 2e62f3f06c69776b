"""The lab's acceptance battery.

Each criterion is a function returning a `CriterionResult`; `run_suite`
executes all of them in order and is shared by the test suite and the CLI's
`suite` command.  Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import constants as ct
from . import modelspace as ms
from . import nonlinearity as nl
from . import pdelab as pde
from . import relations as rel


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.number:>2}. {self.name} ({self.seconds:.2f}s)"


def _c01_appendix_exactness() -> CriterionResult:
    details = {}
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    ok = asp.n == 4 and asp.gamma == -1.0
    details["n"] = asp.n
    details["gamma"] = asp.gamma
    details["mu"] = asp.mu
    ok = ok and abs(asp.mu - math.sqrt(2.0)) <= 1e-14
    rel_res = ms.appendix_relative_residual(asp)
    details["max_relative_residual"] = rel_res
    ok = ok and rel_res <= 1e-10
    sup, ratio, _ = ms.sharpness_quantity(asp)
    details["sharpness_ratio"] = ratio
    ok = ok and abs(ratio - 8.0) <= 1e-8
    return CriterionResult(1, "exact-family space, residual and sharpness ratio",
                           ok, details)


def _scanned_minimum(space, r_max: float) -> float:
    """Least value of both eigenvalue curves on 4096 points of [0, r_max],
    then on 4096 points across the bracket of the smallest one."""
    def least(r):
        return np.minimum(ms.radial_eigenvalue(space, r),
                          ms.tangential_eigenvalue(space, r))

    r = np.linspace(0.0, r_max, 4096)
    i = int(np.argmin(least(r)))
    fine = np.linspace(r[max(i - 1, 0)], r[min(i + 1, len(r) - 1)], 4096)
    return float(np.min(least(fine)))


def _c02_eigenvalue_crosscheck() -> CriterionResult:
    details = {}
    ok = True
    rng = np.random.default_rng(20240817)
    for tag, (N, alpha) in {"origin-branch": (5.0, 2.0),
                            "interior-branch": (4.2, 2.0)}.items():
        asp = ms.appendix_space_from_mu(N, alpha, 1.0)
        sp = asp.space
        worst = ms.eigenvalue_deviation(sp, rng, 50)
        details[f"{tag}_eigen_dev"] = worst
        ok = ok and worst <= 1e-10
        m = asp.N - asp.n
        g = asp.gamma
        if m >= -(2.0 / 3.0) * g:
            case_min = 2.0 * g / asp.mu**2
        else:
            case_min = -g * (m + 2 * g) ** 2 / (4 * m * (m + g)) / asp.mu**2
        got = _scanned_minimum(sp, 20.0)
        details[f"{tag}_min_dev"] = abs(got - case_min)
        ok = ok and abs(got - case_min) <= 1e-8
    return CriterionResult(2, "curvature eigenvalues vs dense solver, both branches",
                           ok, details)


def _c03_cross_bound_identity() -> CriterionResult:
    worst = 0.0
    for N in range(2, 11):
        b0 = 2.0 / (N - 1.0)
        for lam in np.linspace(1.1, nl.p_threshold(N) - 0.01, 20):
            h = ct.H_value(b0, 0.0, 0.0, float(N), float(lam), 0.0)
            worst = max(worst, abs(h - 2.0 * ((N + 3.0) / (N - 1.0) - lam)))
    return CriterionResult(3, "combined cross bound collapses to its linear form",
                           worst <= 1e-12, {"worst_abs_dev": worst})


def _c04_weak_recipe_identity() -> CriterionResult:
    details = {}
    rec = ct.weak_recipe(3.0, 2.5)
    ok = (abs(rec["l"] - 6.0) <= 1e-12 and abs(rec["beta"] - 0.25) <= 1e-12
          and abs(rec["L"] - 4.0) <= 1e-12)
    details["worked_example"] = rec
    worst = 0.0
    flips_ok = True
    for N in (3.0, 4.0, 6.0, 9.0):
        p = nl.p_threshold(N)
        for alpha in np.linspace(1.0 + 4.0 / N + 1e-3, p + 0.3, 40):
            r = ct.weak_recipe(N, alpha)
            worst = max(worst, abs(4 * r["l"] / (N * r["l"] - 2) - (alpha - 1)))
            flips_ok = flips_ok and ((r["L"] > 0) == (alpha < p))
    details["worst_identity_dev"] = worst
    details["gain_sign_matches_threshold"] = flips_ok
    ok = ok and worst <= 1e-12 and flips_ok
    return CriterionResult(4, "gradient-only recipe identity and gain threshold",
                           ok, details)


def _c05_certificate_floors() -> CriterionResult:
    details = {}
    ok = True
    cases = [
        ("1.3", 4.0, nl.power(2.0), {}),
        ("1.5", 3.0, nl.power(2.0), {"alpha": 2.5}),
        ("1.7", 5.0, nl.power(2.0), {}),
        ("1.7", 3.0, nl.power(3.5), {}),
        ("1.9", 4.0, nl.power(2.0), {}),
        ("1.9", 5.0, nl.power(2.0), {}),
        ("8", 4.0, nl.lichnerowicz(1, 1, 3, 0, 0.5), {}),
    ]
    for thm, N, spec, kw in cases:
        t0 = time.perf_counter()
        cert = ct.synthesize(N, nl.compute_indices(spec), thm, spec=spec, **kw)
        out = ct.certify(cert, spec, N)
        dt = time.perf_counter() - t0
        key = f"{thm}@N={N}"
        details[key] = {"status": out.status,
                        "worst_margin": out.verification["worst_margin"],
                        "within_budget": dt < 10.0}
        ok = ok and out.status == "certified"
        ok = ok and out.verification["worst_margin"] > 0
        ok = ok and dt < 10.0
    return CriterionResult(5, "synthesized certificates pass grid certification",
                           ok, details)


def _c06_solver_order() -> CriterionResult:
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    R = 0.5
    bv = float(ms.appendix_solution(asp, np.array([2 * R]))[0][0])
    errs = {}
    for m in (1024, 2048):
        prof = pde.solve_radial_bvp(asp.space, nl.power(2.0), R, bv,
                                    pde.SolverConfig(m=m))
        ue, _, _, _ = ms.appendix_solution(asp, prof.r)
        errs[m] = float(np.max(np.abs(prof.u - ue) / ue))
    ratio = errs[1024] / errs[2048]
    ok = abs(ratio - 4.0) <= 0.2 and errs[2048] <= 1e-6
    return CriterionResult(6, "solver error is second order against the exact family",
                           ok, {"errors": errs, "ratio": ratio})


def _c07_inequality_defect() -> CriterionResult:
    details = {}
    ok = True

    def shrinkage(make_profile, params, which, K, grids):
        # fit the defect bound -c h^2 on the coarse grid; the fine grid must
        # respect it and the negative part must shrink at the h^2 rate (the
        # grids sit below the float64 noise crossover of the FD operator)
        mins = {}
        for m in grids:
            rep = pde.verify_elliptic_inequality(make_profile(m), params, which, K)
            mins[m] = rep.min_defect
        coarse, fine = mins[grids[0]], mins[grids[1]]
        if coarse >= 0.0 and fine >= 0.0:
            return mins, True  # continuum slack dominates: nothing to shrink
        c_fit = abs(coarse) / (2.0 / grids[0]) ** 2
        bound_ok = fine >= -1.5 * c_fit * (2.0 / grids[1]) ** 2
        ratio_ok = fine >= 0.0 or 2.5 <= coarse / fine <= 6.0
        return mins, bound_ok and ratio_ok

    asp = ms.appendix_space(5.0, 2.0, 1.0)
    cert9 = ct.synthesize(5.0, nl.compute_indices(nl.power(2.0)), "1.9")
    K = ms.curvature_bound(asp.space, 2.0).K
    mins, good = shrinkage(lambda m: pde.exact_profile(asp, 1.0, m),
                           pde.DiagnosticParams(beta=cert9.beta), "F", K,
                           (2048, 4096))
    details["exact_family_F"] = mins
    ok = ok and good

    flat4 = ms.flat(4)
    cert3 = ct.synthesize(4.0, nl.compute_indices(nl.power(2.0)), "1.3")
    params = pde.DiagnosticParams(beta=cert3.beta, d=cert3.d)
    bvs = np.geomspace(0.1, 0.7, 10)
    worst = {}
    for bv in bvs:
        mins, good = shrinkage(
            lambda m, bv=bv: pde.solve_radial_bvp(flat4, nl.power(2.0), 1.0,
                                                  float(bv), pde.SolverConfig(m=m)),
            params, "F", 0.0, (512, 1024))
        worst[float(bv)] = mins
        ok = ok and good
    details["lane_emden_F_min"] = min(v[1024] for v in worst.values())

    flat3 = ms.flat(3)
    paramsG = pde.DiagnosticParams(beta=0.8, gamma=1.0, d=0.05, eps=0.01,
                                   transform="second")
    mins, good = shrinkage(
        lambda m: pde.solve_radial_bvp(flat3, nl.power(2.0), 1.0, 0.5,
                                       pde.SolverConfig(m=m)),
        paramsG, "G", 0.0, (512, 1024))
    details["second_kind_G"] = mins
    ok = ok and good
    return CriterionResult(7, "differential-inequality defect vanishes at rate h^2",
                           ok, details)


@functools.cache
def _lane_emden_sweep():
    """`relations.boundary_sweep` of u^2 on flat:4 at R = 1, built once for
    criteria 08 and 09; callers only read the profiles."""
    return rel.boundary_sweep(ms.flat(4), nl.power(2.0), 1.0, 1024, 1e-3)


def _c08_estimate_battery() -> CriterionResult:
    spec = nl.power(2.0)
    cert = ct.synthesize(4.0, nl.compute_indices(spec), "1.9")
    values, corpus = _lane_emden_sweep()
    measured = []
    ok = True
    for prof in corpus:
        rep = pde.check_estimate(prof, cert, 0.0, 1.0, "gradient-strong")
        measured.append(rep.measured)
        ok = ok and rep.passed
    details = {"sweep": [float(v) for v in values],
               "max_measured_times_R2": max(measured), "C": cert.C}
    return CriterionResult(8, "boundary sweep stays below the certificate constant",
                           ok, details)


def _c09_harnack_arrow() -> CriterionResult:
    spec = nl.power(2.0)
    _, corpus = _lane_emden_sweep()
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    rep = rel.implication_suite(corpus, 4.0, spec, 0.0, 1.0)
    rep2 = rel.implication_suite([pde.exact_profile(asp, 1.0, 2048)], 5.0,
                                 nl.power(2.0), asp.K, 1.0)
    ok = (rep.arrows["gradient_to_harnack"]["sharp_bound_holds"]
          and rep2.arrows["gradient_to_harnack"]["sharp_bound_holds"])
    worst = max((r["C_H_R"] / r["harnack_bound"] for r in rep.rows + rep2.rows),
                default=0.0)
    return CriterionResult(9, "Harnack factor from the measured gradient constant",
                           ok, {"worst_quotient": worst})


def _c10_lichnerowicz_thresholds() -> CriterionResult:
    details = {}
    ok = abs(ct.liouville_threshold(4, 1, 3) - 1.0) <= 1e-15
    ok = ok and abs(ct.liouville_threshold(4, 3, 1.5) - 1.5) <= 1e-15
    ok = ok and ct.liouville_threshold(5, 0.0, 2.2) == 0.0
    ok = ok and ct.liouville_threshold(9, 0.0, 7.0) == 0.0
    L_abc, _, _, _, case, _ = ct.lichnerowicz_constants(4.0, 3.0, 1.5, 0.0, 1.0)
    ok = ok and case == 1 and abs(L_abc - 3.0) <= 1e-15
    details["tables"] = {"L(4,1,3)": ct.liouville_threshold(4, 1, 3),
                         "L(4,3,1.5)": ct.liouville_threshold(4, 3, 1.5),
                         "L(n,0,s)": 0.0, "L_abc(4,3,1.5,.)": L_abc}
    spec = nl.lichnerowicz(1, 1, 3, 0, 0.5)
    prof = pde.solve_radial_bvp(ms.flat(4), spec, 1.0, 1.0, pde.SolverConfig(m=512))
    dev = float(np.max(np.abs(prof.u - 1.0)))
    grad = float(np.max(prof.du**2 / prof.u**2))
    details["equilibrium_deviation"] = dev
    details["equilibrium_gradient"] = grad
    ok = ok and dev == 0.0 and grad == 0.0
    return CriterionResult(10, "Lichnerowicz threshold tables and the frozen equilibrium",
                           ok, details)


def _c11_scaling_property() -> CriterionResult:
    # for f = u^a on flat space, u_s(x) = s^(2/(a-1)) u(s x) solves the
    # problem on the ball of radius R/s and its Q is s^2 Q(u)(s x); the grid
    # over [0, 2R/s] has the same node count, so the solves compare node for
    # node
    flat4, alpha = ms.flat(4), 2.0
    spec = nl.power(alpha)
    config = pde.SolverConfig(m=4096)
    params = pde.DiagnosticParams(beta=1.0, d=1.0)
    prof = pde.solve_radial_bvp(flat4, spec, 1.0, 0.5, config)
    q = pde.diagnostics(prof, spec, params).Q

    def deviation(got, want):
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    details = {}
    ok = True
    for s in (0.5, 2.0):
        k = s ** (2.0 / (alpha - 1.0))
        scaled = pde.solve_radial_bvp(flat4, spec, 1.0 / s, 0.5 * k, config)
        q_s = pde.diagnostics(scaled, spec, params).Q
        dev = max(deviation(scaled.u, k * prof.u), deviation(q_s, s**2 * q))
        details[f"s={s}"] = dev
        ok = ok and dev <= 1e-8
    return CriterionResult(11, "quadratic-diagnostic scaling structure",
                           ok, details)


CRITERIA = [
    _c01_appendix_exactness,
    _c02_eigenvalue_crosscheck,
    _c03_cross_bound_identity,
    _c04_weak_recipe_identity,
    _c05_certificate_floors,
    _c06_solver_order,
    _c07_inequality_defect,
    _c08_estimate_battery,
    _c09_harnack_arrow,
    _c10_lichnerowicz_thresholds,
    _c11_scaling_property,
]


def run_suite(printer=None) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        t0 = time.perf_counter()
        res = fn()
        res.seconds = time.perf_counter() - t0
        results.append(res)
        if printer is not None:
            printer(res.line())
    return results
