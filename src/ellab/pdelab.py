"""Radial semilinear boundary value problems and estimate verification.

The solver discretizes

    u'' + ((n-1)/r - phi'(r)) u' + f(u) = 0,   u'(0) = 0,  u(2R) = boundary

on a uniform grid over [0, 2R] with centered second-order differences and a
ghost node enforcing the symmetry condition at the origin, so the Jacobian is
tridiagonal.  Newton steps are damped with positivity backtracking: the
reaction need not be monotone and the estimates only concern positive
solutions.

On top of profiles the module computes the transform diagnostics (w, the
first/second-kind auxiliary fields, and the estimate quantity Q), checks each
estimate kind against a certificate's constant, solves for the regularization
size from f(L eps)/(L eps) = K + 1/R^2, verifies the differential inequality
of the auxiliary fields node by node, and tests the scaling structure of pure
power reactions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# scipy is imported inside the functions that call it: importing it costs more
# than most commands' maths, and `indices` and `certify` never need it.

from . import modelspace as ms
from . import nonlinearity as nl
from .constants import Certificate, coeffs_first_kind, coeffs_second_kind
from .errors import (
    BlowUp,
    KindMismatch,
    NoConvergence,
    NoRoot,
    PositivityLost,
    RangeViolation,
)

ESTIMATE_KINDS = ("gradient-strong", "gradient-weak", "eps-I", "eps-II",
                  "universal-bound", "harnack", "lichnerowicz")

MAX_ITER = 60          # Newton steps before NoConvergence
MAX_BACKTRACK = 40     # step halvings before PositivityLost
BLOWUP_FACTOR = 1e8    # max(u) / boundary value that counts as blow-up


@dataclass(frozen=True)
class RadialGrid:
    nodes: np.ndarray
    h: float
    R: float

    @staticmethod
    def uniform(R: float, m: int) -> "RadialGrid":
        nodes = np.linspace(0.0, 2.0 * R, m + 1)
        return RadialGrid(nodes, nodes[1] - nodes[0], R)


@dataclass(frozen=True)
class SolverConfig:
    m: int = 2048                 # intervals; m+1 nodes
    tol: float = 1e-11            # residual tolerance relative to scale


@dataclass(frozen=True)
class SolutionProfile:
    grid: RadialGrid
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    space: ms.WeightedSpace
    spec: nl.NonlinearitySpec
    boundary_value: float
    residual_norm: float
    meta: dict = field(default_factory=dict)

    @property
    def r(self) -> np.ndarray:
        return self.grid.nodes

    def ball(self, radius: float) -> np.ndarray:
        return self.grid.nodes <= radius * (1.0 + 1e-12)


def _pde_residual(space, spec, grid: RadialGrid, u: np.ndarray, bv: float):
    """Residual of the discrete operator at the unknowns u[0..m-1]."""
    h, r = grid.h, grid.nodes
    n = space.n
    m = len(r) - 1
    full = np.concatenate([u, [bv]])
    f, _, _ = nl.evaluate_many(spec, np.maximum(full, 1e-300))
    res = np.empty(m)
    res[0] = 2.0 * n * (full[1] - full[0]) / h**2 + f[0]
    rr = r[1:m]
    drift = (n - 1.0) / rr - np.asarray(space.dphi(rr), dtype=float)
    res[1:] = ((full[2:m + 1] - 2.0 * full[1:m] + full[0:m - 1]) / h**2
               + drift * (full[2:m + 1] - full[0:m - 1]) / (2.0 * h) + f[1:m])
    return res


def _jacobian_banded(space, spec, grid: RadialGrid, u: np.ndarray):
    h, r = grid.h, grid.nodes
    n = space.n
    m = len(r) - 1
    _, df, _ = nl.evaluate_many(spec, np.maximum(u, 1e-300))
    lower = np.zeros(m)
    diag = np.zeros(m)
    upper = np.zeros(m)
    diag[0] = -2.0 * n / h**2 + df[0]
    upper[0] = 2.0 * n / h**2
    rr = r[1:m]
    drift = (n - 1.0) / rr - np.asarray(space.dphi(rr), dtype=float)
    diag[1:] = -2.0 / h**2 + df[1:m]
    lower[1:] = 1.0 / h**2 - drift / (2.0 * h)
    upper[1:] = 1.0 / h**2 + drift / (2.0 * h)
    ab = np.zeros((3, m))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return ab


def solve_radial_bvp(space: ms.WeightedSpace, spec: nl.NonlinearitySpec,
                     R: float, boundary_value: float,
                     config: SolverConfig = SolverConfig()) -> SolutionProfile:
    """Damped-Newton solution of the radial problem on [0, 2R]."""
    from scipy.linalg import solve_banded

    if boundary_value <= 0:
        raise ValueError("boundary value must be positive")
    grid = RadialGrid.uniform(R, config.m)
    m = config.m
    u = np.full(m, boundary_value)

    def roundoff_floor(vec):
        # the difference operator cannot be evaluated below a few ulps of u/h^2
        return 10.0 * np.finfo(float).eps * float(np.max(vec)) / grid.h**2

    def tol_of(vec):
        f, _, _ = nl.evaluate_many(spec, np.maximum(vec, 1e-300))
        scale = max(1.0, float(np.max(np.abs(f))))
        return config.tol * scale + roundoff_floor(vec)

    res = _pde_residual(space, spec, grid, u, boundary_value)
    norm = float(np.max(np.abs(res)))
    converged = norm <= tol_of(u)
    iters = 0
    while not converged:
        if iters >= MAX_ITER:
            raise NoConvergence(f"residual {norm:.3e} after {iters} iterations")
        ab = _jacobian_banded(space, spec, grid, u)
        step = solve_banded((1, 1), ab, -res)
        t = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACK):
            cand = u + t * step
            if np.min(cand) > 0:
                cand_res = _pde_residual(space, spec, grid, cand, boundary_value)
                cand_norm = float(np.max(np.abs(cand_res)))
                if cand_norm < norm or cand_norm <= tol_of(cand):
                    u, res, norm = cand, cand_res, cand_norm
                    accepted = True
                    break
            t /= 2.0
        if not accepted:
            if norm <= 5.0 * roundoff_floor(u):
                break  # stalled at the evaluation floor: as converged as it gets
            raise PositivityLost("no positive iterate with residual decrease")
        if np.max(u) > BLOWUP_FACTOR * boundary_value:
            raise BlowUp("solution norm exceeded the blow-up cap")
        iters += 1
        converged = norm <= tol_of(u)

    full = np.concatenate([u, [boundary_value]])
    du, d2u = _fd_derivatives(full, grid.h)
    return SolutionProfile(grid, full, du, d2u, space, spec, boundary_value,
                           norm, {"newton_iterations": iters, "m": m, "R": R})


def _fd_derivatives(u: np.ndarray, h: float):
    """Second-order one-sided/centered derivative tables on the uniform grid."""
    du = np.gradient(u, h, edge_order=2)
    d2u = np.empty_like(u)
    d2u[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    d2u[0] = (2 * u[0] - 5 * u[1] + 4 * u[2] - u[3]) / h**2
    d2u[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / h**2
    return du, d2u


def exact_profile(aspace: ms.AppendixSpace, R: float, m: int = 2048) -> SolutionProfile:
    """Profile of the closed-form solution with analytic derivatives."""
    grid = RadialGrid.uniform(R, m)
    u, du, _, res = ms.appendix_solution(aspace, grid.nodes)
    d2u = ms.appendix_solution_second(aspace, grid.nodes)
    spec = nl.power(aspace.alpha)
    return SolutionProfile(grid, u, du, d2u, aspace.space, spec,
                           float(u[-1]), float(np.max(np.abs(res))),
                           {"exact": True, "mu": aspace.mu, "R": R})


def constant_profile(space: ms.WeightedSpace, spec: nl.NonlinearitySpec,
                     R: float, value: float, m: int = 256) -> SolutionProfile:
    grid = RadialGrid.uniform(R, m)
    u = np.full(m + 1, float(value))
    z = np.zeros(m + 1)
    f, _, _ = nl.evaluate_many(spec, np.array([value]))
    return SolutionProfile(grid, u, z, z, space, spec, float(value),
                           float(abs(f[0])), {"constant": True, "R": R})


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class DiagnosticParams:
    beta: float
    gamma: float = 0.0
    d: float = 0.0
    eps: float = 0.0
    transform: str = "first"   # "first": w = u^-beta; "second": w = (u+eps)^-beta


@dataclass(frozen=True)
class DiagnosticField:
    params: DiagnosticParams
    w: np.ndarray
    x: np.ndarray        # |grad w|^2 / w^2
    y: np.ndarray        # f(u)/u
    weight: np.ndarray   # prefactor of the auxiliary field
    field: np.ndarray    # weight * (x + d y)
    Q: np.ndarray        # |grad u|^2/u^2 + d f(u)/u


def diagnostics(profile: SolutionProfile, spec: nl.NonlinearitySpec,
                params: DiagnosticParams) -> DiagnosticField:
    u, du = profile.u, profile.du
    b, g, d, eps = params.beta, params.gamma, params.d, params.eps
    f, _, _ = nl.evaluate_many(spec, u)
    y = f / u
    if params.transform == "second":
        if eps <= 0:
            raise ValueError("second transform needs eps > 0")
        w = (u + eps) ** (-b)
        x = b * b * du * du / (u + eps) ** 2
        weight = w**g
    else:
        w = u ** (-b)
        x = b * b * du * du / (u * u)
        weight = (u + eps) ** (-b * g)
    fld = weight * (x + d * y)
    Q = du * du / (u * u) + d * y
    return DiagnosticField(params, w, x, y, weight, fld, Q)


def estimate_quantity(profile: SolutionProfile, spec: nl.NonlinearitySpec) -> np.ndarray:
    """|grad u|^2/u^2 + f(u)/u, the strong-estimate diagnostic."""
    f, _, _ = nl.evaluate_many(spec, profile.u)
    return profile.du**2 / profile.u**2 + f / profile.u


# ---------------------------------------------------------------------------
# epsilon selection


def choose_epsilon(spec: nl.NonlinearitySpec, L: float, K: float, R: float,
                   rel_tol: float = 1e-12) -> float:
    """The unique eps > 0 with f(L eps)/(L eps) = K + 1/R^2.

    Needs f(t)/t -> 0 at zero and nondecreasing (lower index >= 1); without
    those the target level may never be crossed.
    """
    target = K + 1.0 / R**2

    def g(e):
        t = L * e
        f, _, _ = nl.evaluate_many(spec, np.array([t]))
        return float(f[0]) / t

    glo = g(1e-30)
    if not glo < target:
        raise NoRoot("f(t)/t does not start below the target level")
    lo = 1e-30
    hi = 1.0
    prev = glo
    stalls = 0
    while True:
        gv = g(hi)
        if not math.isfinite(gv):
            raise NoRoot("f(t)/t lost meaning before crossing the target")
        if gv >= target:
            break
        stalls = stalls + 1 if gv <= prev * (1.0 + 1e-9) else 0
        if stalls >= 4 or hi > 1e60:
            raise NoRoot("f(t)/t stays below the target level")
        prev = gv
        hi *= 10.0
    while hi - lo > rel_tol * hi:
        mid = math.sqrt(lo * hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# estimate checks


@dataclass(frozen=True)
class EstimateReport:
    kind: str
    measured: float
    bound: float
    ratio: float
    passed: bool
    constants: dict
    details: dict

    def as_dict(self) -> dict:
        return {"kind": self.kind, "measured": self.measured, "bound": self.bound,
                "ratio": self.ratio, "passed": self.passed,
                "constants": dict(self.constants), "details": dict(self.details)}


_KIND_FOR_THEOREM = {
    "1.3": ("gradient-strong",),
    "1.5": ("gradient-weak",),
    "1.7": ("eps-I", "eps-II"),
    "1.8": ("gradient-strong", "eps-I", "eps-II"),
    "1.9": ("gradient-strong",),
    "8": ("lichnerowicz", "gradient-weak"),
}


def check_estimate(profile: SolutionProfile, cert: Certificate, K: float,
                   R: float, kind: str, eps: Optional[float] = None) -> EstimateReport:
    """Measure the estimate quantity on the inner ball against the bound."""
    if kind not in ESTIMATE_KINDS:
        raise KindMismatch(f"unknown estimate kind {kind!r}")
    if kind != "harnack" and kind != "universal-bound":
        allowed = _KIND_FOR_THEOREM.get(cert.theorem, ())
        if kind not in allowed:
            raise KindMismatch(
                f"kind {kind!r} incompatible with a theorem-{cert.theorem} certificate")
    spec = profile.spec
    inner = profile.ball(R)
    u, du = profile.u[inner], profile.du[inner]
    f, _, _ = nl.evaluate_many(spec, u)
    C = cert.C
    details: dict = {"R": R, "K": K}

    if kind in ("gradient-strong",):
        measured = float(np.max(du**2 / u**2 + f / u))
        bound = C * (K + 1.0 / R**2)
    elif kind == "gradient-weak":
        measured = float(np.max(du**2 / u**2))
        bound = C * (K + 1.0 / R**2)
    elif kind == "universal-bound":
        measured = float(np.max(f / u))
        bound = C * (K + 1.0 / R**2)
    elif kind == "harnack":
        measured = float(np.max(u) / np.min(u))
        bound = C
    elif kind == "lichnerowicz":
        if cert.L_abc is None:
            raise KindMismatch("certificate carries no quadratic-loss constant")
        measured = float(np.max(du**2 / u**2))
        bound = C * (1.0 / R**2 + math.sqrt(K) / R
                     + max(2.0 * K - cert.L_abc, 0.0))
        details["L_abc"] = cert.L_abc
    else:  # eps-I / eps-II
        if eps is None:
            L = cert.chi_L if cert.chi_L else 1.0
            eps = choose_epsilon(spec, L, K, R)
        L = cert.chi_L if cert.chi_L else 1.0
        beta = cert.beta
        fL, _, _ = nl.evaluate_many(spec, np.array([L * eps]))
        grad_den = u**2 if kind == "eps-I" else (u + eps) ** 2
        measured = float(np.max((u + eps) ** (-beta) * (du**2 / grad_den + f / u)))
        bound = C * eps ** (-beta) * (K + 1.0 / R**2 + float(fL[0]) / eps)
        details.update({"eps": eps, "L": L, "beta": beta})

    ratio = measured / bound if bound > 0 else math.inf
    return EstimateReport(kind, measured, bound, ratio, measured <= bound,
                          {"C": C, "theorem": cert.theorem}, details)


def epsilon_sweep(profile: SolutionProfile, cert: Certificate, K: float,
                  R: float, kind: str = "eps-I", count: int = 13) -> list[EstimateReport]:
    """Window-estimate reports over log-spaced eps in [1e-6, 1] u(0), plus the
    eps solving f(L eps)/(L eps) = K + 1/R^2 when that root exists."""
    u0 = float(profile.u[0])
    eps_values = list(np.geomspace(1e-6 * u0, u0, count))
    L = cert.chi_L if cert.chi_L else 1.0
    try:
        eps_values.append(choose_epsilon(profile.spec, L, K, R))
    except NoRoot:
        pass
    return [check_estimate(profile, cert, K, R, kind, eps=float(e))
            for e in eps_values]


# ---------------------------------------------------------------------------
# differential-inequality verification


@dataclass(frozen=True)
class DefectReport:
    which: str
    min_defect: float
    argmin_r: float
    scale: float
    h: float
    restricted_to: float
    r_values: np.ndarray = field(default=None, repr=False, compare=False)
    defect_values: np.ndarray = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {"which": self.which, "min_defect": self.min_defect,
                "argmin_r": self.argmin_r, "scale": self.scale, "h": self.h,
                "restricted_to": self.restricted_to}


def verify_elliptic_inequality(profile: SolutionProfile, params: DiagnosticParams,
                               which: str, K: float) -> DefectReport:
    """Node-by-node defect of the auxiliary field's differential inequality.

    defect = lap_w(A) - [curvature term + drift term + quadratic form], on
    r <= 3R/2.  For solver or exact profiles of a positive reaction the
    inequality is exact, so any negative defect is discretization error and
    must shrink like h^2.
    """
    spec = profile.spec
    u = profile.u
    f, df, d2f = nl.evaluate_many(spec, u)
    if np.any(f <= 0):
        raise RangeViolation("the reaction must be positive on the profile range")
    r1 = u * df / f
    r2 = u * u * d2f / f

    dia = diagnostics(profile, spec, params)
    b, g, d, eps = params.beta, params.gamma, params.d, params.eps
    N = profile.space.N
    if which == "F":
        U, V, W = coeffs_first_kind(N, b, g, d, u, eps, r1, r2)
        drift_coeff = 2.0 * (1.0 / b - 1.0 + g * u / (u + eps))
        dlogw = -b * profile.du / u
    elif which == "G":
        U, V, W = coeffs_second_kind(N, b, g, d, u, eps, r1, r2)
        drift_coeff = 2.0 * (1.0 / b - 1.0 + g)
        dlogw = -b * profile.du / (u + eps)
    else:
        raise ValueError("which must be 'F' or 'G'")

    h = profile.grid.h
    A = dia.field
    dA, d2A = _fd_derivatives(A, h)
    lapA = ms.weighted_laplacian_values(profile.space, A, dA, d2A, profile.r)
    quad = dia.weight * (U * dia.x**2 + V * dia.x * dia.y + W * dia.y**2
                         - 2.0 * K * dia.x)
    rhs = drift_coeff * dA * dlogw + quad
    defect = lapA - rhs

    sel = profile.r <= 1.5 * profile.grid.R * (1 + 1e-12)
    sel[-1] = False  # one-sided boundary stencil is not part of the claim
    idx = int(np.argmin(defect[sel]))
    r_sel = profile.r[sel]
    scale = float(np.max(dia.weight * (dia.x + np.abs(dia.y)) ** 2) + 1e-300)
    return DefectReport(which, float(defect[sel][idx]), float(r_sel[idx]),
                        scale, h, 1.5 * profile.grid.R,
                        r_values=r_sel, defect_values=defect[sel])


# ---------------------------------------------------------------------------
# scaling structure


@dataclass(frozen=True)
class ScalingReport:
    s: float
    max_deviation: float
    residual_norm: float


def scaling_check(profile: SolutionProfile, s: float) -> ScalingReport:
    """Deviation of Q(u_s)(r) = s^2 Q(u)(s r) for u_s(x) = s^(2/(a-1)) u(s x).

    The rescaled profile is built by cubic interpolation of the original
    values only; its derivative comes from the new spline, so the identity is
    tested rather than assumed.
    """
    from scipy.interpolate import CubicSpline

    fam = profile.spec.family
    if not isinstance(fam, nl.PowerLaw):
        raise ValueError("scaling structure is specific to pure power reactions")
    if profile.space.weight_kind != "zero":
        raise ValueError("scaling check needs an unweighted space")
    alpha = fam.alpha
    r = profile.r
    base = CubicSpline(r, profile.u)
    dbase = base.derivative()

    r_max = r[-1] / max(s, 1.0)
    # deliberately misaligned node count so the spline is evaluated off-knot
    rs = np.linspace(0.0, r_max, max(257, int(0.83 * len(r)) | 1))
    us = s ** (2.0 / (alpha - 1.0)) * base(s * rs)
    sp = CubicSpline(rs, us)
    dsp = sp.derivative()
    d2sp = sp.derivative(2)

    lo, hi = 0.05 * r_max, 0.90 * r_max
    mid = rs[(rs >= lo) & (rs <= hi)]
    q_s = (dsp(mid) / sp(mid)) ** 2 + sp(mid) ** (alpha - 1.0)
    q_base = (dbase(s * mid) / base(s * mid)) ** 2 + base(s * mid) ** (alpha - 1.0)
    target = s**2 * q_base
    scale = float(np.max(np.abs(target)) + 1e-300)
    dev = float(np.max(np.abs(q_s - target))) / scale

    lap = d2sp(mid) + (profile.space.n - 1.0) / mid * dsp(mid)
    res = float(np.max(np.abs(lap + sp(mid) ** alpha)))
    return ScalingReport(s, dev, res)


# ---------------------------------------------------------------------------
# profile export


def profile_table(profile: SolutionProfile, params: Optional[DiagnosticParams] = None):
    """(header, columns) for CSV export: r, u, u', Q, F, G."""
    spec = profile.spec
    if params is None:
        params = DiagnosticParams(beta=1.0, gamma=0.0, d=1.0, eps=0.0)
    first = diagnostics(profile, spec, params)
    eps = params.eps if params.eps > 0 else 1e-3 * float(np.max(profile.u))
    second = diagnostics(profile, spec, DiagnosticParams(
        params.beta, params.gamma, params.d, eps, "second"))
    q = estimate_quantity(profile, spec)
    header = ["r", "u", "du", "Q", "F", "G"]
    cols = [profile.r, profile.u, profile.du, q, first.field, second.field]
    return header, cols
