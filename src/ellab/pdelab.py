"""Radial semilinear boundary value problems and estimate verification.

The solver discretizes

    u'' + ((n-1)/r - phi'(r)) u' + f(u) = 0,   u'(0) = 0,  u(2R) = boundary

on a uniform grid over [0, 2R] with centered second-order differences and a
ghost node enforcing the symmetry condition at the origin, so the Jacobian is
tridiagonal.  Newton steps are damped with positivity backtracking: the
reaction need not be monotone and the estimates only concern positive
solutions.  Many boundary values are solved at once as independent lanes
of one Newton loop.  The same discrete equations, marched outward from a
centre value u(0) instead, give the boundary value of each centre value:
many centre values at once, without a Jacobian, which maps the solution
branch.

On top of profiles the module computes the transform diagnostics (the
first/second-kind auxiliary fields and the estimate quantity Q), checks each
estimate kind against a certificate's constant, solves for the regularization
size from f(L eps)/(L eps) = K + 1/R^2, and verifies the differential
inequality of the auxiliary fields node by node.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# The solver and the cubic spline take LAPACK's dgtsv from scipy's `_flapack`
# extension, loaded by its file on first use: importing a scipy package costs
# far more than any command's maths, so no command imports one.

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
                  "lichnerowicz")

MAX_ITER = 60          # Newton steps before NoConvergence
MAX_BACKTRACK = 40     # step halvings before PositivityLost
BLOWUP_FACTOR = 1e8    # max(u) / boundary value that counts as blow-up
# centre values u(0) that map a solution branch, log-spaced over
# 0.1 * 2^(-40..40), about 5.6% apart; the lower half finds a branch that
# peaks below the boundary sweep's lowest rung 0.1
BRANCH_CENTRES = 0.1 * np.geomspace(2.0**-40, 2.0**40, 1023)
BRANCH_GRID = 128      # intervals of the coarse march over those centres
BRANCH_CACHE = 32      # (space, spec, R) triples whose coarse branch is kept
REFINE_CENTRES = 65    # centres between two of those that refine a bracket
EPS_REL_TOL = 1e-12    # relative width at which choose_epsilon stops bisecting
_FLAPACK = "scipy.linalg._flapack"


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
    space: ms.WeightedSpace
    spec: nl.NonlinearitySpec
    boundary_value: float
    residual_norm: float
    meta: dict = field(default_factory=dict)

    @property
    def r(self) -> np.ndarray:
        return self.grid.nodes

    def ball(self, radius: float) -> slice:
        """The nodes with r <= radius (up to rounding): a prefix of the
        sorted grid, so indexing with it gives views, not copies."""
        return slice(0, int(np.searchsorted(self.grid.nodes,
                                            radius * (1.0 + 1e-12), "right")))


def _drift(space, grid: RadialGrid) -> np.ndarray:
    """First-order coefficient (n-1)/r - phi'(r) at the interior nodes."""
    rr = grid.nodes[1:-1]
    return (space.n - 1.0) / rr - np.asarray(space.dphi(rr), dtype=float)


def _residual(space, spec, grid: RadialGrid, drift: np.ndarray, full: np.ndarray):
    """Residual rows of the discrete operator for lanes of nodal values.

    `full` is (lanes, m+1) with the boundary value last; f and f' at the
    nodes come back with the residual, for the tolerance and the Jacobian.
    """
    h, n = grid.h, space.n
    m = full.shape[1] - 1
    f, df = nl.evaluate_many(spec, np.maximum(full, 1e-300), order=1)
    res = np.empty((len(full), m))
    res[:, 0] = 2.0 * n * (full[:, 1] - full[:, 0]) / h**2 + f[:, 0]
    res[:, 1:] = ((full[:, 2:] - 2.0 * full[:, 1:m] + full[:, :m - 1]) / h**2
                  + drift * (full[:, 2:] - full[:, :m - 1]) / (2.0 * h)
                  + f[:, 1:m])
    return res, f, df


def _dgtsv():
    """LAPACK's tridiagonal solver from scipy's compiled `_flapack` module.

    The module is registered under its own name, so a later `import
    scipy.linalg` shares this module object instead of loading a second one.
    """
    flapack = sys.modules.get(_FLAPACK)
    if flapack is None:
        linalg = [os.path.join(root, "linalg") for root in
                  importlib.util.find_spec("scipy").submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, linalg)
        flapack = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = flapack
        spec.loader.exec_module(flapack)
    return flapack.dgtsv


def solve_radial_bvp(space: ms.WeightedSpace, spec: nl.NonlinearitySpec,
                     R: float, boundary_value: float,
                     config: SolverConfig = SolverConfig()) -> SolutionProfile:
    """Damped-Newton solution of the radial problem on [0, 2R]: the one-lane
    case of `solve_radial_lanes`."""
    return solve_radial_lanes(space, spec, R, [boundary_value], config)[0]


def solve_radial_lanes(space: ms.WeightedSpace, spec: nl.NonlinearitySpec,
                       R: float, boundary_values,
                       config: SolverConfig = SolverConfig()) -> list[SolutionProfile]:
    """Damped-Newton solutions of the radial problem on [0, 2R], one lane per
    boundary value, all advanced in one loop.

    Each lane keeps its own step length, positivity backtracking, floor-stall
    exit, blow-up cap and MAX_ITER, and a converged lane is frozen, so every
    profile is the one a solve of its value alone gives.  The Jacobians of the
    active lanes form one tridiagonal system with zero entries between lanes,
    solved by one LAPACK call per step.  If lanes fail, the error of the first
    failing lane in value order is raised, as a loop over the values would.
    """
    dgtsv = _dgtsv()
    bvs = np.asarray(boundary_values, dtype=float)
    if np.any(bvs <= 0):
        raise ValueError("boundary value must be positive")
    grid = RadialGrid.uniform(R, config.m)
    m, h, n = config.m, grid.h, space.n
    drift = _drift(space, grid)
    # Jacobian bands of one lane; its last row couples to the boundary value,
    # not to the next lane, so the entries past it are zero
    diag = np.full(m, -2.0 / h**2)
    diag[0] = -2.0 * n / h**2
    upper = np.zeros(m)
    upper[0] = 2.0 * n / h**2
    upper[1:-1] = (1.0 / h**2 + drift / (2.0 * h))[:-1]
    lower = np.zeros(m)
    lower[:-1] = 1.0 / h**2 - drift / (2.0 * h)

    def floor_of(u):
        # the difference operator cannot be evaluated below a few ulps of u/h^2
        return 10.0 * np.finfo(float).eps * np.max(u, axis=1) / h**2

    def evaluate(u, bv):
        """Residual, its norm, the tolerance and f' of each lane."""
        # an overflowing lane fails by name at the top of the loop
        with np.errstate(over="ignore", invalid="ignore"):
            res, f, df = _residual(space, spec, grid, drift,
                                   np.concatenate([u, bv[:, None]], axis=1))
        scale = np.maximum(1.0, np.max(np.abs(f[:, :m]), axis=1))
        return (res, np.max(np.abs(res), axis=1),
                config.tol * scale + floor_of(u), df[:, :m])

    # results by lane; `lanes` maps the active rows below to their values
    full = np.repeat(bvs[:, None], m + 1, axis=1)
    norms = np.empty(bvs.size)
    steps = np.zeros(bvs.size, dtype=int)
    failure = None

    def settle(sel):
        full[lanes[sel], :m] = u[sel]
        norms[lanes[sel]] = norm[sel]
        steps[lanes[sel]] = iters

    def fail(bad, error):
        """Record the first bad lane's error; only lanes before it matter now."""
        nonlocal failure
        first = int(np.argmax(bad))
        failure = error
        return np.arange(bad.size) < first

    lanes, bv = np.arange(bvs.size), bvs
    u = full[:, :m].copy()
    res, norm, tol, df = evaluate(u, bv)
    live = np.ones(bvs.size, dtype=bool)
    iters = 0
    while True:
        # an overflowing f makes the tolerance infinite too, so the residual
        # would pass it
        overflow = live & ~(np.isfinite(norm) & np.isfinite(tol))
        if overflow.any():
            i = int(np.argmax(overflow))
            live &= fail(overflow, BlowUp(
                f"the residual overflows at boundary value {bv[i]:.6g} "
                f"(residual {norm[i]:.3e}, tolerance {tol[i]:.3e})"))
        done = live & (norm <= tol)
        settle(done)
        live &= ~done
        if iters >= MAX_ITER and live.any():
            i = int(np.argmax(live))
            live &= fail(live, _no_solution(
                NoConvergence, space, spec, R, m, bv[i],
                f"residual {norm[i]:.3e} after {iters} iterations"))
        d = diag + df
        # a non-finite row would leak into its neighbour lanes through the
        # zero coupling entries; alone it fails the solver's input check
        broken = live & ~np.isfinite(d).all(axis=1)
        if broken.any():
            live &= fail(broken, ValueError("array must not contain infs or NaNs"))
        if not live.all():
            lanes, bv, u, res, norm, tol, df, d = (
                a[live] for a in (lanes, bv, u, res, norm, tol, df, d))
        if not lanes.size:
            break
        k = lanes.size
        # the step overwrites the residual: no lane needs it any more, and an
        # accepted lane brings its own with its f'
        np.negative(res, out=res)
        step, info = dgtsv(np.tile(lower, k)[:-1], d.ravel(),
                           np.tile(upper, k)[:-1], res.ravel(), 1, 1, 1, 1)[3:]
        if info:
            raise np.linalg.LinAlgError("singular matrix")
        step = step.reshape(k, m)
        del d
        res, df = np.empty((k, m)), np.empty((k, m))

        # every lane halves its step from 1 until it is accepted, so the
        # lanes still pending in a round share one step length t
        accepted = np.zeros(k, dtype=bool)
        t = 1.0
        for _ in range(MAX_BACKTRACK):
            cand = u + t * step
            tried = ~accepted & (np.min(cand, axis=1) > 0)
            if tried.any():
                whole = tried.all()
                sel = slice(None) if whole else tried
                c_res, c_norm, c_tol, c_df = evaluate(cand[sel], bv[sel])
                ok = (c_norm < norm[sel]) | (c_norm <= c_tol)
                if whole and ok.all():
                    u, res, norm, tol, df = cand, c_res, c_norm, c_tol, c_df
                    accepted[:] = True
                    break
                took = np.flatnonzero(tried)[ok]
                u[took], res[took], norm[took], tol[took], df[took] = (
                    cand[sel][ok], c_res[ok], c_norm[ok], c_tol[ok], c_df[ok])
                accepted[took] = True
                if accepted.all():
                    break
            t /= 2.0

        live = accepted
        if not accepted.all():
            # stalled at the evaluation floor: as converged as it gets
            stalled = ~accepted & (norm <= 5.0 * floor_of(u))
            settle(stalled)
            lost = ~accepted & ~stalled
            if lost.any():
                live = live & fail(lost, _no_solution(
                    PositivityLost, space, spec, R, m, bv[int(np.argmax(lost))],
                    "no positive iterate with residual decrease"))
        blown = live & (np.max(u, axis=1) > BLOWUP_FACTOR * bv)
        if blown.any():
            live &= fail(blown, BlowUp("solution norm exceeded the blow-up cap"))
        iters += 1

    if failure is not None:
        raise failure
    du = np.gradient(full, h, axis=-1, edge_order=2)
    return [SolutionProfile(grid, full[j], du[j], space, spec,
                            float(bvs[j]), float(norms[j]),
                            {"newton_iterations": int(steps[j]), "m": m, "R": R})
            for j in range(bvs.size)]


def _no_solution(error, space, spec, R, m, bv, message):
    """A failed lane's `error`, naming the branch maximum when bv lies
    above it; only failing solves pay for the march.  The coarse branch
    brackets the top between the neighbours of its best centre (the grid
    moves the top's centre by O(h^2) only)."""
    i = int(np.argmax(branch(space, spec, R)))
    top = float(np.max(refine(space, spec, R, m, i - 1, i + 1)))
    if bv > top:
        message = (f"no solution: boundary value {bv:.6g} exceeds the branch "
                   f"maximum {top:.6g} ({message})")
    return error(message)


@functools.lru_cache(maxsize=BRANCH_CACHE)
def branch(space: ms.WeightedSpace, spec: nl.NonlinearitySpec,
           R: float) -> np.ndarray:
    """Boundary value of each of BRANCH_CENTRES on a BRANCH_GRID grid, 0
    where the centre has no positive solution: the one coarse map of the
    solution branch.

    The map does not depend on the grid of any solve, so the last
    BRANCH_CACHE maps are kept, and each is read-only.
    """
    out = march_boundary_values(space, spec, R, BRANCH_GRID, BRANCH_CENTRES)
    out.flags.writeable = False
    return out


def refine(space: ms.WeightedSpace, spec: nl.NonlinearitySpec, R: float,
           m: int, lo: int, hi: int) -> np.ndarray:
    """Boundary values on an m-interval grid of REFINE_CENTRES centres
    log-spaced from BRANCH_CENTRES[lo] to BRANCH_CENTRES[hi], both indices
    clipped to the centre set."""
    a, b = BRANCH_CENTRES[np.clip([lo, hi], 0, BRANCH_CENTRES.size - 1)]
    return march_boundary_values(space, spec, R, m,
                                 np.geomspace(a, b, REFINE_CENTRES))


def march_boundary_values(space: ms.WeightedSpace, spec: nl.NonlinearitySpec,
                          R: float, m: int, centres) -> np.ndarray:
    """u(2R) of the discrete equations of `solve_radial_bvp` from u(0) = a.

    Each row of the discrete operator fixes u_{i+1} from u_i and u_{i-1}, so
    the equations are marched outward from the centre for every value a in
    `centres` at once.  A lane that reaches u <= 0, or passes BLOWUP_FACTOR
    times its centre value, has no positive solution there and returns 0.
    """
    grid = RadialGrid.uniform(R, m)
    h2 = grid.h**2
    c = _drift(space, grid) * (grid.h / 2.0)
    behind, ahead = 1.0 - c, 1.0 + c
    a = np.asarray(centres, dtype=float)
    lanes = np.arange(a.size)
    cap = BLOWUP_FACTOR * a
    out = np.zeros(a.size)
    # a diverging lane overflows before it is dropped; it is dead either way
    with np.errstate(over="ignore", invalid="ignore"):
        (f,) = nl.evaluate_many(spec, a, order=0)
        prev, cur = a, a - h2 * f / (2.0 * space.n)
        for i in range(m - 1):
            live = (cur > 0) & (cur <= cap)
            if not live.all():
                lanes, prev, cur, cap = lanes[live], prev[live], cur[live], cap[live]
            (f,) = nl.evaluate_many(spec, cur, order=0)
            # (2 cur - (1 - c_i) prev - h^2 f) / (1 + c_i) in that order, in
            # arrays this row made: prev may be the caller's centres
            nxt = 2.0 * cur
            nxt -= behind[i] * prev
            f *= h2
            nxt -= f
            nxt /= ahead[i]
            prev, cur = cur, nxt
        live = (cur > 0) & (cur <= cap)
    out[lanes[live]] = cur[live]
    return out


def _fd_derivatives(u: np.ndarray, h: float):
    """Second-order one-sided/centered derivative tables on the uniform grid,
    along the last axis."""
    du = np.gradient(u, h, axis=-1, edge_order=2)
    d2u = np.empty_like(u)
    d2u[..., 1:-1] = (u[..., 2:] - 2 * u[..., 1:-1] + u[..., :-2]) / h**2
    d2u[..., 0] = (2 * u[..., 0] - 5 * u[..., 1] + 4 * u[..., 2] - u[..., 3]) / h**2
    d2u[..., -1] = (2 * u[..., -1] - 5 * u[..., -2] + 4 * u[..., -3]
                    - u[..., -4]) / h**2
    return du, d2u


def exact_profile(aspace: ms.AppendixSpace, R: float, m: int = 2048) -> SolutionProfile:
    """Profile of the closed-form solution with analytic derivatives."""
    grid = RadialGrid.uniform(R, m)
    u, du, _, res = ms.appendix_solution(aspace, grid.nodes)
    spec = nl.power(aspace.alpha)
    return SolutionProfile(grid, u, du, aspace.space, spec,
                           float(u[-1]), float(np.max(np.abs(res))),
                           {"exact": True, "mu": aspace.mu, "R": R})


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
    x: np.ndarray        # |grad w|^2 / w^2
    y: np.ndarray        # f(u)/u
    weight: np.ndarray   # prefactor of the auxiliary field
    field: np.ndarray    # weight * (x + d y)
    Q: np.ndarray        # |grad u|^2/u^2 + d f(u)/u


def diagnostics(profile: SolutionProfile, spec: nl.NonlinearitySpec,
                params: DiagnosticParams) -> DiagnosticField:
    u, du = profile.u, profile.du
    b, g, d, eps = params.beta, params.gamma, params.d, params.eps
    (f,) = nl.evaluate_many(spec, u, order=0)
    y = f / u
    if params.transform == "second":
        if eps <= 0:
            raise ValueError("second transform needs eps > 0")
        x = b * b * du * du / (u + eps) ** 2
        weight = ((u + eps) ** (-b)) ** g
    else:
        x = b * b * du * du / (u * u)
        weight = (u + eps) ** (-b * g)
    fld = weight * (x + d * y)
    Q = du * du / (u * u) + d * y
    return DiagnosticField(x, y, weight, fld, Q)


# ---------------------------------------------------------------------------
# epsilon selection


def choose_epsilon(spec: nl.NonlinearitySpec, L: float, K: float, R: float) -> float:
    """The unique eps > 0 with f(L eps)/(L eps) = K + 1/R^2.

    Needs f(t)/t -> 0 at zero and nondecreasing (lower index >= 1); without
    those the target level may never be crossed.
    """
    target = K + 1.0 / R**2

    def g(e):
        t = L * e
        (f,) = nl.evaluate_many(spec, np.array([t]), order=0)
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
    while hi - lo > EPS_REL_TOL * hi:
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
    if kind not in _KIND_FOR_THEOREM.get(cert.theorem, ()):
        raise KindMismatch(
            f"kind {kind!r} incompatible with a theorem-{cert.theorem} certificate")
    spec = profile.spec
    inner = profile.ball(R)
    u, du = profile.u[inner], profile.du[inner]
    (f,) = nl.evaluate_many(spec, u, order=0)
    C = cert.C
    details: dict = {"R": R, "K": K}

    if kind == "gradient-strong":
        measured = float(np.max(du**2 / u**2 + f / u))
        bound = C * (K + 1.0 / R**2)
    elif kind == "gradient-weak":
        measured = float(np.max(du**2 / u**2))
        bound = C * (K + 1.0 / R**2)
    elif kind == "lichnerowicz":
        if cert.L_abc is None:
            raise KindMismatch("certificate carries no quadratic-loss constant")
        measured = float(np.max(du**2 / u**2))
        bound = C * (1.0 / R**2 + math.sqrt(K) / R
                     + max(2.0 * K - cert.L_abc, 0.0))
        details["L_abc"] = cert.L_abc
    else:  # eps-I / eps-II
        L = cert.chi_L if cert.chi_L else 1.0
        if eps is None:
            eps = choose_epsilon(spec, L, K, R)
        beta = cert.beta
        (fL,) = nl.evaluate_many(spec, np.array([L * eps]), order=0)
        grad_den = u**2 if kind == "eps-I" else (u + eps) ** 2
        measured = float(np.max((u + eps) ** (-beta) * (du**2 / grad_den + f / u)))
        bound = C * eps ** (-beta) * (K + 1.0 / R**2 + float(fL[0]) / eps)
        details.update({"eps": eps, "L": L, "beta": beta})

    ratio = measured / bound if bound > 0 else math.inf
    return EstimateReport(kind, measured, bound, ratio, measured <= bound,
                          {"C": C, "theorem": cert.theorem}, details)


# ---------------------------------------------------------------------------
# differential-inequality verification


@dataclass(frozen=True)
class DefectReport:
    min_defect: float
    scale: float
    defect_values: np.ndarray = field(default=None, repr=False, compare=False)


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
    scale = float(np.max(dia.weight * (dia.x + np.abs(dia.y)) ** 2) + 1e-300)
    return DefectReport(float(np.min(defect[sel])), scale,
                        defect_values=defect[sel])


# ---------------------------------------------------------------------------
# cubic spline


@dataclass(frozen=True, eq=False)
class CubicSpline:
    """Piecewise cubic in the power basis: on [x[i], x[i+1]) it is
    sum_k c[k, i] (p - x[i])^(K-1-k) for K = len(c), the last interval closed
    and the end pieces extended outside [x[0], x[-1]].

    A port of scipy.interpolate's `CubicSpline` and `PPoly` (scipy, BSD-3)
    with a clamped start, slope 0 at x[0], and a not-a-knot end.  It keeps
    their float operations in their order, so coefficients, values and
    derivatives are bit-for-bit scipy's.
    """

    x: np.ndarray
    c: np.ndarray

    @staticmethod
    def fit(x, y) -> "CubicSpline":
        """Interpolating spline with first derivative 0 at x[0] and a
        not-a-knot end."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        dx = np.diff(x)
        if (x.ndim != 1 or y.shape != x.shape or n < 2
                or not (np.isfinite(x).all() and np.isfinite(y).all()
                        and (dx > 0).all())):
            raise ValueError("a cubic spline needs finite values on at least 2 "
                             "strictly increasing nodes")
        slope = np.diff(y) / dx
        # the tridiagonal system (dl, d, du) s = b for the knot slopes s; rows
        # 0 and n-1 are the end conditions
        dl, d, du, b = np.empty(n - 1), np.empty(n), np.empty(n - 1), np.empty(n)
        dl[:-1], d[1:-1], du[1:] = dx[1:], 2 * (dx[:-1] + dx[1:]), dx[:-1]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d[0], du[0], b[0] = 1.0, 0.0, 0.0
        if n == 2:
            # one interval has no not-a-knot end; scipy clamps it to the chord
            d[-1], dl[-1], b[-1] = 1.0, 0.0, slope[0]
        else:
            e = x[-1] - x[-3]
            d[-1], dl[-1] = dx[-2], e
            b[-1] = (dx[-1]**2 * slope[-2] + (2 * e + dx[-1]) * dx[-2] * slope[-1]) / e
        s, info = _dgtsv()(dl, d, du, b, 1, 1, 1, 1)[3:]
        if info:
            raise np.linalg.LinAlgError("singular matrix")
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        return CubicSpline(x, np.stack((t / dx, (slope - s[:-1]) / dx - t,
                                        s[:-1], y[:-1])))

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        i = np.clip(np.searchsorted(self.x, p, "right") - 1, 0, len(self.x) - 2)
        s = p - self.x[i]
        # summed from the constant term up with running powers of s, as scipy
        # does; its start from 0.0 turns a -0.0 constant into 0.0
        res, z = 0.0 + self.c[-1, i], s
        for row in self.c[-2::-1]:
            res = res + row[i] * z
            z = z * s
        return res

    def derivative(self, nu: int = 1) -> "CubicSpline":
        k = len(self.c) - nu
        factor = np.array([math.perm(j + nu - 1, nu) for j in range(k, 0, -1)],
                          dtype=float)
        return CubicSpline(self.x, self.c[:k] * factor[:, None])


# ---------------------------------------------------------------------------
# profile export


def profile_table(profile: SolutionProfile):
    """(header, columns) for CSV export: r, u, u', Q, F, G.

    F and G are the first- and second-kind fields at beta = d = 1, gamma = 0;
    G regularizes with eps = 1e-3 max u.  At d = 1, Q is the strong-estimate
    quantity |grad u|^2/u^2 + f(u)/u.
    """
    spec = profile.spec
    first = diagnostics(profile, spec, DiagnosticParams(beta=1.0, d=1.0))
    eps = 1e-3 * float(np.max(profile.u))
    second = diagnostics(profile, spec, DiagnosticParams(beta=1.0, d=1.0, eps=eps,
                                                         transform="second"))
    header = ["r", "u", "du", "Q", "F", "G"]
    cols = [profile.r, profile.u, profile.du, first.Q, first.field, second.field]
    return header, cols
