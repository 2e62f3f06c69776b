"""Coefficient formulas, parameter recipes, and certified constant tuples.

Everything revolves around the two auxiliary transforms of a positive solution
u of  lap(u) + f(u) = 0:

    first kind   w = u^-beta,        A = (u+eps)^(-beta*gamma) (x + d y)
    second kind  w = (u+eps)^-beta,  A = w^gamma (x + d y)

with x = |grad w|^2 / w^2 and y = f(u)/u.  Differentiating A and inserting the
curvature-dimension inequality leaves a quadratic form

    U x^2 + V x y + W y^2        (X, Y, Z for the second kind)

whose coefficients are explicit in (N, beta, gamma, d, eps, u) and the two
ratios r1 = u f'/f, r2 = u^2 f''/f.  A parameter tuple is useful exactly when
these coefficients admit positive floors, possibly after an AM-GM exchange
between the x^2 and y^2 slots and, for the eps-regularized recipes, up to a
bounded dip on the small-solution set {u < L eps}.

A Certificate freezes one such tuple together with its floors and the exact
pointwise claims that `certify` re-checks on a (u, eps) grid:

  * x^2 slot:  U >= U0 everywhere (U0 > 0);
  * y^2 slot:  W >= W0, with W >= W0 - L on {u < L eps} when regularized;
  * cross slot, two modes:
      - "raw":  V >= V0 (minus L on the small set), used when the recipe
        keeps the printed V positive outright;
      - "amgm": the exchanged quantity
            cross(u) = V.y + 2 sqrt((U - retain_x2)^+ (W - retain_y2)^+) |y|
        stays above V0 * weight(u), where weight is y, |y| or 1 depending on
        what the recipe's final inequality needs.  V.y is evaluated in the
        ratio-free form so sign-changing terms are handled exactly.

Floors are recorded at half the recipe's algebraic bound, so a sound tuple
certifies with strictly positive worst margin while a boundary tuple (for
example beta at the admissibility edge) fails with margin ~ 0.

The final constant of each estimate is existence-level: the cut-off function
constants are folded into one fixed envelope factor (DEFAULT_ENVELOPE = 100)
and the assembly is reported term by term, so enlarging the envelope never
flips a pass into a fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import nonlinearity as nl
from .errors import (
    HypothesisViolation,
    Infeasible,
    InvalidDelta,
    NegativeRadicand,
    UnsupportedTheorem,
)

DEFAULT_ENVELOPE = 100.0
FLOOR_HEADROOM = 0.5          # floors are this fraction of the algebraic bound
MARGIN_TOL = 1e-10            # a certification margin below this is a failure
BISECT_REL = 1e-10            # relative width at which parameter searches stop

DEFAULT_U_RANGE = (1e-6, 1e6)    # the (u, eps) grid `certify` checks on
DEFAULT_EPS_RANGE = (1e-6, 1.0)
U_POINTS = 241
EPS_POINTS = 41


# ---------------------------------------------------------------------------
# coefficient formulas: the single source, in plain arithmetic so numpy arrays
# broadcast and sympy symbols give the exact forms tests/test_identities.py
# checks.  X does not depend on (u, eps) and comes back as a scalar.


def coeffs_first_kind(N, beta, gamma, d, u, eps, r1, r2):
    """Vectorized (U, V, W) of the first-kind quadratic form."""
    s = u / (u + eps)
    U = (2.0 / N) * (1.0 + 1.0 / beta) ** 2 \
        + (gamma / beta - gamma**2) * s**2 \
        + 2.0 * (1.0 - 1.0 / beta) * gamma * s - 2.0
    V = (4.0 / N) * (1.0 + beta) + 2.0 * (1.0 - r1) \
        + d * (r2 / beta**2 - (2.0 / beta) * (r1 - 1.0)) \
        + gamma * s * (beta + d * ((1.0 / beta - gamma) * s + 2.0 - 2.0 / beta))
    W = 2.0 * beta**2 / N + d * (beta * gamma * s + 1.0 - r1)
    return U, V, W


def coeffs_second_kind(N, beta, gamma, d, u, eps, r1, r2):
    """Vectorized (X, Y, Z) of the second-kind quadratic form (eps > 0)."""
    s = u / (u + eps)
    t = (u + eps) / u
    X = (2.0 / N) * (1.0 + 1.0 / beta) ** 2 + 2.0 * gamma - gamma**2 \
        - gamma / beta - 2.0
    Y = ((4.0 / N) * (1.0 + beta) + 2.0 + gamma * beta) * s - 2.0 * r1 \
        + 2.0 * d * (gamma - 1.0 + 1.0 / beta) * ((t / beta) * (r1 - 1.0) - gamma) \
        + d * ((t**2 / beta**2) * (r2 + 2.0 - 2.0 * r1)
               + gamma * (gamma + 1.0 / beta)
               - (2.0 * gamma / beta) * t * (r1 - 1.0))
    Z = (2.0 * beta**2 / N) * s**2 + d * (beta * gamma * s + 1.0 - r1)
    return X, Y, Z


def H_value(beta: float, d: float, l: float, N: float,
            upper: float, second: float) -> float:
    """Combined cross bound 2 sqrt(rad1 * rad2) + linear terms.

    rad1 = (2/N)(1 + 1/beta)^2 - 2 - l and rad2 = (2/N) beta^2 + d(1 - upper) - l
    must both be nonnegative.
    """
    rad1 = (2.0 / N) * (1.0 + 1.0 / beta) ** 2 - 2.0 - l
    rad2 = (2.0 / N) * beta**2 + d * (1.0 - upper) - l
    if rad1 < 0 or rad2 < 0:
        raise NegativeRadicand(f"radicands ({rad1}, {rad2}) must be >= 0")
    return (2.0 * math.sqrt(rad1 * rad2) + (4.0 / N) * (1.0 + beta)
            + (2.0 + 2.0 * d / beta) * (1.0 - upper) + d * second / beta**2)


def Q_value(x: float, beta: float, d: float, N: float) -> float:
    """Upward parabola controlling the cross coefficient for gamma = 1."""
    return ((4.0 / N) * (1.0 + beta) + beta + 2.0 * (1.0 - x)
            + (d / beta**2) * (x - beta) * (x - 1.0 - beta))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    theorem: str
    recipe: str
    kind: str                   # "first" or "second"
    N: float
    beta: float
    gamma: float
    d: float
    floors: dict                # {"U0","V0","W0"} or {"X0","Y0","Z0"}
    cross_mode: str             # "raw" | "amgm"
    cross_weight: str           # "y" | "abs_y" | "one"
    retain_x2: float            # x^2 amount kept out of the AM-GM exchange
    retain_y2: float
    L: float                    # quadratic gain coefficient of the estimate
    chi_L: Optional[float]      # small-set constant; None when not regularized
    C: float                    # final existence-level constant
    C_breakdown: dict
    l: Optional[float] = None
    alpha: Optional[float] = None
    beta0: Optional[float] = None
    delta: Optional[float] = None
    M: Optional[float] = None
    L_abc: Optional[float] = None
    liouville: Optional[float] = None
    indices: Optional[dict] = None
    status: str = "synthesized"
    verification: Optional[dict] = None
    notes: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "theorem": self.theorem, "recipe": self.recipe, "kind": self.kind,
            "N": self.N, "beta": self.beta, "gamma": self.gamma, "d": self.d,
            "floors": dict(self.floors), "cross_mode": self.cross_mode,
            "cross_weight": self.cross_weight, "retain_x2": self.retain_x2,
            "retain_y2": self.retain_y2, "L": self.L, "chi_L": self.chi_L,
            "C": self.C, "C_breakdown": dict(self.C_breakdown),
            "status": self.status, "notes": dict(self.notes),
        }
        for name in ("l", "alpha", "beta0", "delta", "M", "L_abc", "liouville"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        if self.indices is not None:
            out["indices"] = dict(self.indices)
        if self.verification is not None:
            out["verification"] = dict(self.verification)
        return out


def assemble_constant(L: float, beta: float, gamma: float, d: float,
                      envelope: float = DEFAULT_ENVELOPE) -> tuple[float, dict]:
    """Existence-level estimate constant from the quadratic gain L.

    The maximum-point inequality gives sup A <= (2/L)(2K + cutoff terms); the
    unspecified cut-off constants are folded into `envelope`, and the result
    is rescaled by the transform factor that converts the auxiliary quadratic
    back to |grad u|^2/u^2 + f/u.
    """
    drift = abs(1.0 / beta - 1.0) + gamma
    cutoff = envelope * (1.5 + 2.0 * (1.0 + drift**2 / L))
    on_aux = (2.0 / L) * (2.0 + cutoff)
    transform = 1.0 / beta**2 if d <= 0 else max(1.0 / beta**2, 1.0 / d)
    C = on_aux * transform
    breakdown = {
        "gain_L": L,
        "drift_coefficient": drift,
        "envelope": envelope,
        "cutoff_term": cutoff,
        "bound_on_auxiliary": on_aux,
        "transform_factor": transform,
    }
    return C, breakdown


def _floor_pair(value: float) -> float:
    """Report a floor at a fixed headroom below its algebraic bound."""
    return FLOOR_HEADROOM * value


# --- recipe: positive f with upper index below (N+3)/(N-1) ------------------


def _subcritical_beta(N: float, upper: float) -> float:
    if N > 1:
        return 2.0 / (N - 1.0)
    return max(upper, 1.0)


def _subcritical_target(N: float, upper: float) -> float:
    if N == 1:
        return 2.0
    return (N + 3.0) / (N - 1.0) - upper


def _synth_subcritical(N: float, idx: nl.IndexReport, theorem: str) -> Certificate:
    """Joint (l, d) search from the origin for the strong gradient estimate.

    Feasibility is monotone along rays toward the origin, so a single
    bisection along the scaled ray (l, d) = t (l_cap, d_cap) suffices; the
    accepted pair is then halved once more for margin.
    """
    upper, second = idx.upper, idx.second
    if not (idx.upper_finite and upper < nl.p_threshold(N)):
        raise Infeasible("no admissible region: upper index not below (N+3)/(N-1)")
    if not idx.second_finite:
        raise HypothesisViolation("second-order index must be finite")
    beta = _subcritical_beta(N, upper)
    target = _subcritical_target(N, upper)
    U_const = (2.0 / N) * (1.0 + 1.0 / beta) ** 2 - 2.0
    w_base = (2.0 / N) * beta**2
    l_cap = 0.5 * min(U_const, w_base)
    d_cap = 0.25

    def feasible(t: float) -> bool:
        l = t * l_cap
        d = t * d_cap
        if l <= 0 or d <= 0:
            return False
        if U_const - l <= 0:
            return False
        if w_base + d * (1.0 - upper) - l <= 0:
            return False
        try:
            h = H_value(beta, d, l, N, upper, second)
        except NegativeRadicand:
            return False
        return h >= target and l * d <= target

    lo, hi = 0.0, 1.0
    if not feasible(1e-9):
        raise Infeasible("no admissible (l, d) pair near the origin")
    if feasible(1.0):
        lo = 1.0
    else:
        lo = 1e-9
        while hi - lo > BISECT_REL * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
    t_star = 0.5 * lo
    l = t_star * l_cap
    d = t_star * d_cap
    h_min = H_value(beta, d, l, N, upper, second)
    L = l / 2.0
    C, breakdown = assemble_constant(L, beta, 0.0, d)
    floors = {"U0": l, "V0": _floor_pair(min(h_min, target)), "W0": l}
    return Certificate(
        theorem=theorem, recipe="subcritical-amgm", kind="first", N=N,
        beta=beta, gamma=0.0, d=d, floors=floors,
        cross_mode="amgm", cross_weight="y", retain_x2=l, retain_y2=l,
        L=L, chi_L=None, C=C, C_breakdown=breakdown, l=l,
        indices=idx.as_dict(),
        notes={"cross_target": target, "H_at_choice": h_min},
    )


# --- recipe: gradient-only estimate with a comparison exponent --------------


def weak_recipe(N: float, alpha: float) -> dict:
    """Raw parameter recipe for the gradient-only estimate.

    Case 1 (alpha <= 1 + 4/N):   beta = min(1/N, N(alpha-1)/2), l = 4, L = 2.
    Case 2 (alpha in (1+4/N, p)): l solves 4l/(Nl-2) = alpha - 1,
                                  beta = 4/(Nl-2), L = l - 2.
    L is positive exactly when alpha < (N+3)/(N-1).
    """
    if alpha <= 1.0:
        raise HypothesisViolation("comparison exponent must exceed 1")
    if alpha <= 1.0 + 4.0 / N:
        beta = min(1.0 / N, 0.5 * N * (alpha - 1.0))
        return {"case": 1, "beta": beta, "l": 4.0, "L": 2.0}
    l = 2.0 * (alpha - 1.0) / (N * (alpha - 1.0) - 4.0)
    beta = 4.0 / (N * l - 2.0)
    return {"case": 2, "beta": beta, "l": l, "L": l - 2.0}


def _synth_weak(N: float, idx: nl.IndexReport, alpha: Optional[float],
                spec: nl.NonlinearitySpec) -> Certificate:
    p = nl.p_threshold(N)
    if alpha is None:
        if not idx.upper_finite or idx.upper >= p:
            raise HypothesisViolation(
                "no admissible comparison exponent; supply alpha explicitly")
        base = max(idx.upper, 1.0 + 1e-6)
        alpha = base + 0.25 * (p - base) if math.isfinite(p) else base + 0.5
    if not 1.0 < alpha < p:
        raise Infeasible(f"alpha = {alpha} outside (1, p(N) = {p})")
    rec = weak_recipe(N, alpha)
    beta, L, l = rec["beta"], rec["L"], rec["l"]
    if L <= 0:
        raise Infeasible("quadratic gain is nonpositive")
    W_const = 2.0 * beta**2 / N
    C, breakdown = assemble_constant(L, beta, 0.0, 0.0)
    floors = {"U0": L, "V0": 0.0, "W0": _floor_pair(W_const)}
    cert = Certificate(
        theorem="1.5", recipe=f"weak-case{rec['case']}", kind="first", N=N,
        beta=beta, gamma=0.0, d=0.0, floors=floors,
        cross_mode="amgm", cross_weight="abs_y", retain_x2=L, retain_y2=0.0,
        L=L, chi_L=None, C=C, C_breakdown=breakdown, l=l, alpha=alpha,
        indices=idx.as_dict(),
    )
    # cross floor: half the worst exchanged coefficient per unit |y| on the
    # default u-range
    u = np.geomspace(DEFAULT_U_RANGE[0], DEFAULT_U_RANGE[1], 257)
    _, _, cross, _, mask = amgm_slots(cert, spec, u)
    floor0 = float(np.min(np.where(mask, cross, np.inf)))
    if floor0 <= 0:
        raise Infeasible("cross coefficient has no positive floor")
    return replace(cert, floors={**floors, "V0": _floor_pair(floor0)})


# --- recipe: eps-regularized window estimates -------------------------------


def _window_interval_first(N: float, upper: float) -> tuple[float, float]:
    lo = 2.0 * ((N - 1.0) / (N + 2.0) * upper - 1.0)
    hi = 2.0 / (N - 2.0)
    return max(lo, 0.0), hi


def _window_interval_second(N: float, upper: float) -> tuple[float, float, int]:
    """(lo, hi, case) for the second-kind route below dimension four."""
    if N <= 2:
        lo = (upper - 1.0 - 2.0 / N) / (0.5 + 2.0 / N)
        return max(lo, 0.0), math.inf, 1
    edge = (N + 1.0) / (N - 2.0)
    if N < 3 and upper < edge:
        lo = (upper - 1.0 - 2.0 / N) / (0.5 + 2.0 / N)
        return max(lo, 0.0), 2.0 / (N - 2.0), 2
    lo = 2.0 * ((N - 1.0) / (N + 2.0) * upper - 1.0)
    hi = 2.0 / (N - 2.0)
    if upper < edge:  # N in [3, 4): the parabola axis needs the extra cap
        hi = min(hi, upper - (N - 1.0) / (N - 2.0))
    return max(lo, 0.0), hi, 3


def _choose_d_on_parabola(N: float, beta: float, upper: float) -> tuple[float, float]:
    """d below the axis cap with Q(upper) at half its cap value."""
    d0 = 2.0 * beta**2 / (N * (upper - 1.0 - beta))
    q_at_cap = Q_value(upper, beta, d0, N)
    if q_at_cap <= 0:
        raise Infeasible("parabola value nonpositive at the cap")
    slope = (upper - beta) * (upper - 1.0 - beta) / beta**2
    q0 = Q_value(upper, beta, 0.0, N)
    d = (0.5 * q_at_cap - q0) / slope if slope > 0 else 0.5 * d0
    # d = d0 - q_at_cap / (2 slope) < d0 already, with Q(upper) = q_at_cap / 2;
    # capping d lower would lower Q(upper), below 0 near p_S(N)
    d = max(d, 0.01 * d0)
    return d, d0


def _chi_constant_first(beta, d, V0, W0) -> float:
    return max(1.0, beta / V0, beta - V0, d * beta / W0, d * beta - W0)


def _synth_window_first(N: float, idx: nl.IndexReport, theorem: str,
                        beta: Optional[float] = None) -> Certificate:
    upper = idx.upper
    lo, hi = _window_interval_first(N, upper)
    if not lo < hi:
        raise Infeasible("empty admissible window for beta")
    b = beta if beta is not None else 0.5 * (lo + hi)
    if not lo < b < hi:
        raise Infeasible(f"beta = {b} outside ({lo}, {hi})")
    d, d0 = _choose_d_on_parabola(N, b, upper)
    U0_full = ((2.0 / N) * (1.0 + 1.0 / b) - 1.0) * (1.0 + 1.0 / b)
    V_full = Q_value(upper, b, d, N)
    W_full = 2.0 * b**2 / N + d * (b + 1.0 - upper)
    if min(U0_full, V_full, W_full) <= 0:
        raise Infeasible("a coefficient floor is nonpositive at the chosen pair")
    floors = {"U0": _floor_pair(U0_full), "V0": _floor_pair(V_full),
              "W0": _floor_pair(W_full)}
    chi_L = _chi_constant_first(b, d, floors["V0"], floors["W0"])
    L = min(floors["U0"], floors["V0"] / (2.0 * d), floors["W0"] / d**2)
    C, breakdown = assemble_constant(L, b, 1.0, d)
    return Certificate(
        theorem=theorem, recipe="window-first", kind="first", N=N,
        beta=b, gamma=1.0, d=d, floors=floors,
        cross_mode="raw", cross_weight="one", retain_x2=0.0, retain_y2=0.0,
        L=L, chi_L=chi_L, C=C, C_breakdown=breakdown,
        indices=idx.as_dict(),
        notes={"beta_window": (lo, hi), "d_cap": d0},
    )


def _synth_window_second(N: float, idx: nl.IndexReport, theorem: str,
                         beta: Optional[float] = None) -> Certificate:
    upper, lower = idx.upper, idx.lower
    if not lower > 2:
        raise HypothesisViolation("second-kind route needs lower index > 2")
    lo, hi, case = _window_interval_second(N, upper)
    if not lo < hi:
        raise Infeasible("empty admissible window for beta")
    if beta is not None:
        b = beta
    elif math.isinf(hi):
        b = lo + 1.0
    else:
        b = 0.5 * (lo + hi)
    if not (lo < b and b < hi):
        raise Infeasible(f"beta = {b} outside ({lo}, {hi})")

    X_const = ((2.0 / N) * (1.0 + 1.0 / b) - 1.0) * (1.0 + 1.0 / b)
    if X_const <= 0:
        raise Infeasible("x^2 coefficient nonpositive")
    if case == 3:
        d, d_cap = _choose_d_on_parabola(N, b, upper)
        Y_full = Q_value(upper, b, d, N)
    else:
        ylin = (4.0 / N) * (1.0 + b) + b + 2.0 * (1.0 - upper)
        if ylin <= 0:
            raise Infeasible("linear cross floor nonpositive")
        # quadratic d-correction bounded by half the linear floor; worst is the
        # least value of (b + 1 - x)(b - x)/b^2 on [lower, upper]
        x = min(max(b + 0.5, idx.lower), upper)  # the vertex, clipped
        worst = (1.0 + (1.0 - x) / b) * (1.0 - x / b)
        d_cap = math.inf
        if upper > 1.0 + b:
            d_cap = 2.0 * b**2 / (N * (upper - 1.0 - b))
        d = 0.5 * ylin / (abs(worst) + 1.0)
        if math.isfinite(d_cap):
            d = min(d, 0.5 * d_cap)
        Y_full = ylin + d * worst
    Z_full = 2.0 * b**2 / N + d * min(0.0, b + 1.0 - upper)
    if min(Y_full, Z_full) <= 0:
        raise Infeasible("a coefficient floor is nonpositive at the chosen pair")
    floors = {"X0": _floor_pair(X_const), "Y0": _floor_pair(Y_full),
              "Z0": _floor_pair(Z_full)}
    c1 = b + 2.0 + (4.0 / N) * (1.0 + b)
    dip_Y = c1 + upper**2 * d / ((lower - 1.0) * (lower - 2.0))
    dip_Z = d * b + 2.0 * b**2 / N
    chi_L = max(1.0,
                (c1 + 2.0 * upper * d / b) / floors["Y0"],
                dip_Y - floors["Y0"],
                (d * b + 4.0 * b**2 / N) / floors["Z0"],
                dip_Z - floors["Z0"])
    L = min(floors["X0"], floors["Y0"] / (2.0 * d), floors["Z0"] / d**2)
    C, breakdown = assemble_constant(L, b, 1.0, d)
    return Certificate(
        theorem=theorem, recipe=f"window-second-case{case}", kind="second",
        N=N, beta=b, gamma=1.0, d=d, floors=floors,
        cross_mode="raw", cross_weight="one", retain_x2=0.0, retain_y2=0.0,
        L=L, chi_L=chi_L, C=C, C_breakdown=breakdown,
        indices=idx.as_dict(),
        notes={"beta_window": (lo, hi)},
    )


def _synth_window(N, idx, theorem) -> Certificate:
    upper = idx.upper
    if not idx.upper_finite:
        raise HypothesisViolation("upper index must be finite")
    if not nl.p_threshold(N) <= upper < nl.p_sobolev(N):
        raise HypothesisViolation("upper index outside [p(N), p_S(N))")
    if N >= 4:
        if idx.lower < 1:
            raise HypothesisViolation("lower index must be >= 1")
        return _synth_window_first(N, idx, theorem)
    return _synth_window_second(N, idx, theorem)


def _synth_dereg(N: float, idx: nl.IndexReport) -> Certificate:
    """Window recipe at the regularization-removal exponent beta0.

    The superlinearity witness sits halfway between rho(N, upper) and
    lower - 1, so it exceeds rho whenever one exists.
    """
    upper = idx.upper
    r = nl.rho(N, upper)
    if not idx.lower_finite or idx.lower - 1.0 <= r:
        raise HypothesisViolation(
            "no superlinearity witness: lower index - 1 must exceed rho(N, upper)")
    beta_witness = 0.5 * (r + (idx.lower - 1.0))
    if N >= 4:
        lo, hi = _window_interval_first(N, upper)
        beta0 = 0.5 * (r + min(beta_witness, hi))
        cert = _synth_window_first(N, idx, "1.8", beta0)
    else:
        lo, hi, _case = _window_interval_second(N, upper)
        cap = beta_witness if math.isinf(hi) else min(beta_witness, hi)
        beta0 = 0.5 * (r + cap)
        cert = _synth_window_second(N, idx, "1.8", beta0)
    return replace(cert, beta0=beta0,
                   notes={**cert.notes, "rho": r, "beta_witness": beta_witness})


# --- recipe: Lichnerowicz reaction ------------------------------------------


def _delta_cap(N: float) -> float:
    if N == 1:
        return math.inf
    return 4.0 / (math.sqrt(N) * (math.sqrt(N) - 1.0))


def _sigma_split(N: float) -> float:
    if N == 1:
        return math.inf
    return 1.0 + 2.0 / (math.sqrt(N) * (math.sqrt(N) - 1.0))


def liouville_threshold(n: float, a: float, sigma: float) -> float:
    """Largest curvature constant at which global positive solutions freeze."""
    if a == 0:
        return 0.0
    split = _sigma_split(n)
    if sigma < split:
        return (sigma - 1.0) * a
    return 2.0 / (math.sqrt(n) * (math.sqrt(n) - 1.0))


def lichnerowicz_constants(N: float, a: float, sigma: float, tau: float,
                           delta: Optional[float] = None):
    """(L_abc, liouville threshold, beta, M) for the Lichnerowicz reaction.

    beta follows the three-case selection; M is the quadratic-gain floor that
    comes with it.
    """
    if sigma <= 1 or tau >= 1 or a < 0:
        raise HypothesisViolation("need sigma > 1 > tau and a >= 0")
    cap = _delta_cap(N)
    if delta is None:
        delta = min(1.0, 0.5 * cap)
    if not 0.0 < delta < cap:
        raise InvalidDelta(f"delta = {delta} outside (0, {cap})")
    split = _sigma_split(N)
    L_abc = 2.0 * (sigma - 1.0) * a if sigma < split else delta

    if sigma <= 1.0 + 2.0 / N:
        # solve (4/N)[(1+b) - sqrt((1+b)^2 - 2N b^2)] = 2(sigma - 1)
        cap_b = 1.0 / (math.sqrt(2.0 * N) - 1.0)

        def g(b):
            rad = (1.0 + b) ** 2 - 2.0 * N * b * b
            return (4.0 / N) * ((1.0 + b) - math.sqrt(max(rad, 0.0)))

        target = 2.0 * (sigma - 1.0)
        lo, hi = 0.0, cap_b
        while hi - lo > BISECT_REL * cap_b:
            mid = 0.5 * (lo + hi)
            if g(mid) < target:
                lo = mid
            else:
                hi = mid
        beta = 0.5 * (lo + hi)
        M = 2.0
        case = 1
    elif sigma < split:
        beta = 0.5 * N * (sigma - 1.0) - 1.0
        M = (2.0 / N) * (1.0 + 1.0 / beta) ** 2 - 2.0
        case = 2
    else:
        b_lo = max(1.0 / N, N * delta / 4.0 - 1.0)
        b_hi = 1.0 / (math.sqrt(N) - 1.0) if N > 1 else b_lo + 1.0
        if not b_lo < b_hi:
            raise InvalidDelta("delta leaves no admissible beta")
        beta = 0.5 * (b_lo + b_hi)
        M = (2.0 / N) * (1.0 + 1.0 / beta) ** 2 - 2.0
        case = 3
    return L_abc, liouville_threshold(N, a, sigma), beta, M, case, delta


def _synth_lichnerowicz(N: float, spec: nl.NonlinearitySpec,
                        delta: Optional[float]) -> Certificate:
    fam = spec.family
    if not isinstance(fam, nl.Lichnerowicz):
        raise HypothesisViolation("this recipe needs a Lichnerowicz reaction")
    L_abc, liou, beta, M, case, delta = lichnerowicz_constants(
        N, fam.a, fam.sigma, fam.tau, delta)
    W_const = 2.0 * beta**2 / N
    floors = {"U0": _floor_pair(M), "V0": _floor_pair(L_abc),
              "W0": _floor_pair(W_const)}
    L = floors["U0"]
    C, breakdown = assemble_constant(L, beta, 0.0, 0.0)
    return Certificate(
        theorem="8", recipe=f"lichnerowicz-case{case}", kind="first", N=N,
        beta=beta, gamma=0.0, d=0.0, floors=floors,
        cross_mode="amgm", cross_weight="one",
        retain_x2=floors["U0"], retain_y2=0.0,
        L=L, chi_L=None, C=C, C_breakdown=breakdown,
        delta=delta, M=M, L_abc=L_abc, liouville=liou,
        notes={"a": fam.a, "b": fam.b, "sigma": fam.sigma,
               "c": fam.c, "tau": fam.tau},
    )


# ---------------------------------------------------------------------------
# synthesis front door


def synthesize(N: float, indices: nl.IndexReport, theorem: str, *,
               spec: Optional[nl.NonlinearitySpec] = None,
               alpha: Optional[float] = None,
               delta: Optional[float] = None) -> Certificate:
    """Build a certified parameter tuple for the named estimate."""
    t = nl.normalize_theorem(theorem)
    if t == "1.3":
        return _synth_subcritical(N, indices, "1.3")
    if t == "1.5":
        if spec is None:
            raise HypothesisViolation("the gradient-only recipe needs the reaction spec")
        return _synth_weak(N, indices, alpha, spec)
    if t == "1.7":
        return _synth_window(N, indices, "1.7")
    if t == "1.8":
        return _synth_dereg(N, indices)
    if t == "1.9":
        a = alpha if alpha is not None else indices.upper
        if not math.isfinite(a):
            raise HypothesisViolation("power exponent required")
        p, ps = nl.p_threshold(N), nl.p_sobolev(N)
        idx = nl.compute_indices(nl.power(a))
        if a < p:
            cert = _synth_subcritical(N, idx, "1.9")
        elif a < ps:
            cert = replace(_synth_dereg(N, idx), theorem="1.9")
        else:
            raise Infeasible(f"exponent {a} is not below p_S(N) = {ps}")
        return replace(cert, alpha=a)
    if t == "8":
        if spec is None:
            raise HypothesisViolation("the Lichnerowicz recipe needs the reaction spec")
        return _synth_lichnerowicz(N, spec, delta)
    raise UnsupportedTheorem(theorem)


# ---------------------------------------------------------------------------
# grid certification


@np.errstate(over="ignore", invalid="ignore")  # a non-finite slot is refused
def amgm_slots(cert: Certificate, spec: nl.NonlinearitySpec, u: np.ndarray):
    """(U, W, cross, y, mask) of an "amgm" certificate on a u-grid.

    These recipes have gamma = 0, so no slot depends on eps (taken as 0).
    cross is the exchanged quantity
    V.y + 2 sqrt((U - retain_x2)^+ (W - retain_y2)^+) |y| per unit weight:
    divided by |y| where `mask` marks the ratios reliable, unless the weight
    is "one"; at a root of f it stays absolute, so the claim there is
    cross >= 0.  At eps = 0, V is affine in (r1, r2) and free of u, so
    V.y = c0 y + c1 f' + c2 u f'' is ratio-free, with the c's read off
    `coeffs_first_kind` at (r1, r2) = (0, 0), (1, 0) and (0, 1).
    """
    f, df, d2f = nl.evaluate_many(spec, u)
    mask = nl.ratio_mask(spec, u, f)
    if cert.d > 0 and not np.all(mask):
        raise HypothesisViolation("recipes with d > 0 need f > 0 on the whole grid")
    f_safe = np.where(mask, f, 1.0)
    r1 = np.where(mask, u * df / f_safe, 0.0)
    r2 = np.where(mask, u * u * d2f / f_safe, 0.0)
    U, _, W = coeffs_first_kind(cert.N, cert.beta, cert.gamma, cert.d,
                                u, 0.0, r1, r2)

    def V(r1, r2):
        return coeffs_first_kind(cert.N, cert.beta, cert.gamma, cert.d,
                                 1.0, 0.0, r1, r2)[1]

    c0 = V(0.0, 0.0)
    y = f / u
    Vy = c0 * y + (V(1.0, 0.0) - c0) * df + (V(0.0, 1.0) - c0) * u * d2f
    budget = np.sqrt(np.maximum(U - cert.retain_x2, 0.0)
                     * np.maximum(W - cert.retain_y2, 0.0))
    cross = Vy + 2.0 * budget * np.abs(y)
    if cert.cross_weight != "one":
        denom = np.maximum(np.where(mask, np.abs(y), 1.0), 1e-300)
        cross = np.where(mask, cross / denom, cross)
    bad = np.flatnonzero(~(np.isfinite(U) & np.isfinite(W) & np.isfinite(cross)))
    if bad.size:
        raise HypothesisViolation(f"AM-GM slots not finite at u = {u[bad[0]]:.6g}")
    return U, W, cross, y, mask


def certify(cert: Certificate, spec: nl.NonlinearitySpec, N: float) -> Certificate:
    """Re-check every floor of the certificate on the (u, eps) grid.

    Returns a copy with `verification` filled in; status flips to
    "infeasible" if any margin drops to the tolerance or below.
    """
    if N != cert.N:
        raise ValueError("certificate was synthesized for a different N")
    u = np.geomspace(DEFAULT_U_RANGE[0], DEFAULT_U_RANGE[1], U_POINTS)
    margins: dict[str, float] = {}
    worst_at: dict = {}

    def record(name: str, margin_arr: np.ndarray, where):
        i = int(np.argmin(margin_arr))
        margins[name] = float(margin_arr[i])
        worst_at[name] = where(i)

    if cert.cross_mode == "amgm":
        U, W, cross, y, mask = amgm_slots(cert, spec, u)
        fl = cert.floors
        record("U0", U - fl["U0"], lambda i: {"u": float(u[i])})
        record("W0", W - fl["W0"], lambda i: {"u": float(u[i])})
        rel = cross - fl["V0"]
        if cert.cross_weight != "one":
            rel = np.where(mask, rel, cross)   # a root of f claims cross >= 0
        record("V0", rel, lambda i: {"u": float(u[i]), "y": float(y[i])})
    else:
        eps = np.geomspace(DEFAULT_EPS_RANGE[0], DEFAULT_EPS_RANGE[1], EPS_POINTS)
        uu, ee = np.meshgrid(u, eps, indexing="ij")
        with np.errstate(over="ignore", invalid="ignore"):
            f, df, d2f = nl.evaluate_many(spec, u)
            if np.any(f <= 0):
                raise HypothesisViolation("window recipes need f > 0 on the grid")
            r1, r2 = u * df / f, u * u * d2f / f
        bad = np.flatnonzero(~(np.isfinite(r1) & np.isfinite(r2)))
        if bad.size:
            raise HypothesisViolation(
                f"u f'/f or u^2 f''/f is not finite at u = {u[bad[0]]:.6g}")
        coeff = coeffs_first_kind if cert.kind == "first" else coeffs_second_kind
        A, B, Cc = coeff(N, cert.beta, cert.gamma, cert.d, uu, ee,
                         r1[:, None], r2[:, None])
        A = A * np.ones_like(uu)
        names = ("U0", "V0", "W0") if cert.kind == "first" else ("X0", "Y0", "Z0")
        fl = cert.floors
        small = uu < cert.chi_L * ee if cert.chi_L is not None else np.zeros_like(uu, bool)
        corr = cert.chi_L if cert.chi_L is not None else 0.0

        def where2(flat_i):
            i, j = np.unravel_index(flat_i, uu.shape)
            return {"u": float(uu[i, j]), "eps": float(ee[i, j])}

        record(names[0], (A - fl[names[0]]).ravel(), where2)
        record(names[1], (B - fl[names[1]] + np.where(small, corr, 0.0)).ravel(), where2)
        record(names[2], (Cc - fl[names[2]] + np.where(small, corr, 0.0)).ravel(), where2)

    worst_name = min(margins, key=margins.get)
    worst = margins[worst_name]
    ok = worst > MARGIN_TOL
    verification = {
        "u_range": list(DEFAULT_U_RANGE), "eps_range": list(DEFAULT_EPS_RANGE),
        "u_points": U_POINTS, "eps_points": EPS_POINTS,
        "margins": margins, "worst_margin": worst,
        "worst_floor": worst_name, "worst_at": worst_at[worst_name],
    }
    return replace(cert, status="certified" if ok else "infeasible",
                   verification=verification)
