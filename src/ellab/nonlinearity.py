"""Nonlinear reaction terms and their structural indices.

A term f acts in the equation  laplacian(u) + f(u) = 0.  The theorems the lab
checks are gated on three dimensionless indices of f,

    lower  = inf_{t>0} t f'(t) / f(t)
    upper  = sup_{t>0} t f'(t) / f(t)
    second = inf_{t>0} t^2 f''(t) / f(t)

and on two critical exponents of the synthetic dimension N,

    p_sobolev(N) = (N+2)/(N-2)   for N > 2, infinite on [1,2]
    p(N)         = (N+3)/(N-1)   for N > 1, infinite at N = 1.

Everything here is pure and immutable; specs are safe to share across sweep
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    Divergence,
    EvaluationFailure,
    NonPositiveArgument,
    RhoUndefined,
    SignChange,
    UnsupportedTheorem,
)

# Default sampling grid for indices of black-box terms: log-spaced on
# [1e-8, 1e8].  inf/sup over (0, inf) are otherwise uncomputable.
GRID_LO = 1e-8
GRID_HI = 1e8
GRID_POINTS = 4096

RATIO_CUTOFF = 1e-12  # |f| below this times the local scale: ratio undefined


# ---------------------------------------------------------------------------
# families
# Every analytic family is a finite sum of signed monomials k t^a, exposed as
# `terms`; evaluation, indices and hypothesis checks read only that sum.


@dataclass(frozen=True)
class PowerLaw:
    alpha: float

    @property
    def terms(self) -> tuple[tuple[float, float], ...]:
        return ((1.0, self.alpha),)


@dataclass(frozen=True)
class PowerSum:
    """Sum of monomials k_i * t^a_i with k_i > 0."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("PowerSum needs at least one term")
        for k, _a in self.terms:
            if k <= 0:
                raise ValueError("PowerSum coefficients must be positive")


@dataclass(frozen=True)
class Lichnerowicz:
    """f(t) = a t - b t^sigma + c t^tau with sigma > 1 > tau, a,b,c >= 0."""

    a: float
    b: float
    sigma: float
    c: float
    tau: float

    def __post_init__(self):
        if self.sigma <= 1:
            raise ValueError("sigma must be > 1")
        if self.tau >= 1:
            raise ValueError("tau must be < 1")
        if min(self.a, self.b, self.c) < 0:
            raise ValueError("a, b, c must be >= 0")

    @property
    def terms(self) -> tuple[tuple[float, float], ...]:
        mono = ((self.a, 1.0), (-self.b, self.sigma), (self.c, self.tau))
        return tuple((k, e) for k, e in mono if k != 0)


@dataclass(frozen=True)
class Custom:
    """Black-box term given by value/derivative handles on (0, inf)."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]


Family = PowerLaw | PowerSum | Lichnerowicz | Custom


@dataclass(frozen=True)
class NonlinearitySpec:
    family: Family
    positive: bool  # whether f(t) > 0 on all of (0, inf)


def power(alpha: float) -> NonlinearitySpec:
    return NonlinearitySpec(PowerLaw(alpha), positive=True)


def power_sum(terms: Sequence[Sequence[float]]) -> NonlinearitySpec:
    tt = tuple((float(k), float(a)) for k, a in terms)
    return NonlinearitySpec(PowerSum(tt), positive=True)


def lichnerowicz(a: float, b: float, sigma: float, c: float, tau: float) -> NonlinearitySpec:
    fam = Lichnerowicz(a, b, sigma, c, tau)
    # with b = 0 every term is nonnegative and at least one is positive
    positive = b == 0 and (a > 0 or c > 0)
    return NonlinearitySpec(fam, positive=positive)


def custom(f, df, d2f, positive: bool) -> NonlinearitySpec:
    return NonlinearitySpec(Custom(f, df, d2f), positive=positive)


def zero() -> NonlinearitySpec:
    """f identically zero (linear test problems)."""
    return custom(lambda t: 0.0, lambda t: 0.0, lambda t: 0.0, positive=False)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_many(spec: NonlinearitySpec, t: np.ndarray):
    """Vectorized (f, f', f'') on an array of positive arguments."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise NonPositiveArgument("nonlinearity sampled at t <= 0")
    fam = spec.family
    if not isinstance(fam, Custom):
        terms = fam.terms
        if not terms:
            return np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
        # accumulate in place and skip the multiply by k = 1 of a pure power:
        # the solver makes thousands of small-grid calls, where each pass counts
        (k, a), *rest = terms
        f = t**a if k == 1.0 else k * t**a
        df, d2f = k * a * t ** (a - 1), k * a * (a - 1) * t ** (a - 2)
        for k, a in rest:
            f += k * t**a
            df += k * a * t ** (a - 1)
            d2f += k * a * (a - 1) * t ** (a - 2)
        return f, df, d2f
    # Custom: scalar handles, looped
    try:
        f = np.array([float(fam.f(x)) for x in np.atleast_1d(t)])
        df = np.array([float(fam.df(x)) for x in np.atleast_1d(t)])
        d2f = np.array([float(fam.d2f(x)) for x in np.atleast_1d(t)])
    except Exception as exc:  # noqa: BLE001 - user handle can raise anything
        raise EvaluationFailure(f"custom handle failed: {exc}") from exc
    if t.ndim == 0:
        return f[0], df[0], d2f[0]
    return f, df, d2f


def ratio_mask(spec: NonlinearitySpec, t: np.ndarray, f: np.ndarray,
               df: Optional[np.ndarray] = None) -> np.ndarray:
    """Nodes where the ratios t f'/f and t^2 f''/f are numerically reliable.

    f may vanish at isolated points (sign-changing families); ratios are only
    formed where |f| exceeds 1e-12 of the local term scale, sum |k| t^a for a
    monomial sum.
    """
    fam = spec.family
    if isinstance(fam, Custom):
        scale = np.abs(f) if df is None else np.abs(f) + np.abs(t * df)
    else:
        scale = sum(abs(k) * t**a for k, a in fam.terms)
    return np.abs(f) > RATIO_CUTOFF * np.maximum(scale, 1e-300)


def log_grid(lo: float = GRID_LO, hi: float = GRID_HI, n: int = GRID_POINTS) -> np.ndarray:
    return np.geomspace(lo, hi, n)


# ---------------------------------------------------------------------------
# indices


@dataclass(frozen=True)
class IndexReport:
    """Structural indices of a term, with per-index finiteness flags.

    `method` is "analytic" when the values are exact closed forms and
    "sampled" when they are grid infima/suprema; certificates built on
    sampled indices inherit the tag.
    """

    lower: float
    upper: float
    second: float
    lower_finite: bool
    upper_finite: bool
    second_finite: bool
    method: str

    def as_dict(self) -> dict:
        return {
            "lower_index": self.lower,
            "upper_index": self.upper,
            "second_order_index": self.second,
            "lower_finite": self.lower_finite,
            "upper_finite": self.upper_finite,
            "second_finite": self.second_finite,
            "method": self.method,
        }


def _refine_extremum(fn, t0: float, factor: float, rounds: int, minimize: bool) -> float:
    """Local log-scale refinement of a sampled extremum (bisection-style)."""
    lo, hi = t0 / factor, t0 * factor
    best_t, best_v = t0, fn(t0)
    for _ in range(rounds):
        ts = np.geomspace(lo, hi, 33)
        vs = fn(ts)
        i = int(np.argmin(vs) if minimize else np.argmax(vs))
        if (vs[i] < best_v) == minimize and vs[i] != best_v:
            best_t, best_v = float(ts[i]), float(vs[i])
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    return best_v


def _sampled_indices(spec: NonlinearitySpec, grid: Optional[np.ndarray],
                     require_finite: bool) -> IndexReport:
    if grid is None:
        grid = log_grid()
    f, df, d2f = evaluate_many(spec, grid)
    if spec.positive and np.any(f <= 0):
        raise SignChange("f vanishes or changes sign although declared positive")
    ok = ratio_mask(spec, grid, f, df)
    if not np.any(ok):
        raise Divergence("no grid node admits a well-defined ratio")
    t, fv, dfv, d2fv = grid[ok], f[ok], df[ok], d2f[ok]
    r1 = t * dfv / fv
    r2 = t * t * d2fv / fv

    def ratio1(ts):
        ff, dd, _ = evaluate_many(spec, np.atleast_1d(ts))
        return np.atleast_1d(ts) * dd / ff

    def ratio2(ts):
        ff, _, d2 = evaluate_many(spec, np.atleast_1d(ts))
        return np.atleast_1d(ts) ** 2 * d2 / ff

    lo_i, hi_i, se_i = int(np.argmin(r1)), int(np.argmax(r1)), int(np.argmin(r2))
    lower = _refine_extremum(ratio1, float(t[lo_i]), 4.0, 6, minimize=True)
    upper = _refine_extremum(ratio1, float(t[hi_i]), 4.0, 6, minimize=False)
    second = _refine_extremum(ratio2, float(t[se_i]), 4.0, 6, minimize=True)

    # endpoint growth heuristic: if the outermost decade's envelope runs away
    # from the adjacent decade's, the extremum is treated as unbounded
    def _diverges(ts, vals, minimize):
        decades = np.floor(np.log10(ts)).astype(int)
        edges = [decades == d for d in np.unique(decades)]
        ext = np.array([(np.min if minimize else np.max)(vals[e]) for e in edges])
        if len(ext) < 4:
            return False
        if not minimize:
            ext = -ext
        # the outer two decades share the same envelope scale on a log grid,
        # so each edge is compared against the pool two decades in
        for end, pool in ((min(ext[-1], ext[-2]), ext[:-2]),
                          (min(ext[0], ext[1]), ext[2:])):
            if end < min(-1.0, 3.0 * np.min(pool)):
                return True
        return False

    lower_fin = not _diverges(t, r1, True)
    upper_fin = not _diverges(t, r1, False)
    second_fin = not _diverges(t, r2, True)
    if require_finite and not second_fin:
        raise Divergence("second-order ratio unbounded below on the sampling grid")
    return IndexReport(lower, upper, second,
                       lower_fin, upper_fin, second_fin, method="sampled")


def compute_indices(spec: NonlinearitySpec, grid: Optional[np.ndarray] = None,
                    require_finite: bool = False) -> IndexReport:
    """Structural indices (lower, upper, second) of the term.

    Closed forms for a monomial sum of one sign and one exponent or of mixed
    signs; grid infima/suprema with local refinement otherwise.
    """
    fam = spec.family
    if isinstance(fam, Custom):
        return _sampled_indices(spec, grid, require_finite)
    signs = {k > 0 for k, _a in fam.terms}
    if not signs:
        raise SignChange("identically zero term")
    if len(signs) == 2:
        # mixed signs arise only as a t - b t^sigma + c t^tau with
        # sigma > 1 > tau: the sign flips between t -> 0 and t -> inf, so f
        # has a positive root and all three ratios are unbounded near it
        if spec.positive:
            raise SignChange("f has a positive root although declared positive")
        return IndexReport(-math.inf, math.inf, -math.inf,
                           False, False, False, "analytic")
    exponents = [a for _k, a in fam.terms]
    lo, hi = min(exponents), max(exponents)
    if lo == hi:
        return IndexReport(lo, hi, lo * (lo - 1), True, True, True, "analytic")
    # t f'/f is a weighted mean of the exponents, monotone from min to max;
    # the second ratio is a weighted mean of a_i(a_i - 1) whose infimum is
    # located by sampling between the endpoint limits.
    rep = _sampled_indices(spec, grid, require_finite)
    second = min(rep.second, lo * (lo - 1), hi * (hi - 1))
    return IndexReport(lo, hi, second, True, True, True, "sampled")


# ---------------------------------------------------------------------------
# critical exponents


def p_sobolev(N: float) -> float:
    if N < 1:
        raise ValueError("N must be >= 1")
    if N <= 2:
        return math.inf
    return (N + 2) / (N - 2)


def p_threshold(N: float) -> float:
    """The exponent (N+3)/(N-1) below which no lower-index condition is needed."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return math.inf
    return (N + 3) / (N - 1)


def rho_branches(N: float, upper: float) -> tuple[float, float]:
    """Both branch values of rho(N, upper); they need not agree at the split."""
    b1 = 2 * N / (N + 4) * (upper - 1 - 2 / N)
    b2 = 2 * (N - 1) / (N + 2) * upper - 2
    return b1, b2


def rho(N: float, upper: float) -> float:
    """Admissibility threshold for the regularization-removal exponent."""
    if N == 1:
        raise RhoUndefined("rho is undefined at N = 1")
    b1, b2 = rho_branches(N, upper)
    if N <= 2 or (N < 3 and upper < (N + 1) / (N - 2)):
        return b1
    return b2


@dataclass(frozen=True)
class ExponentSet:
    p: float
    p_sobolev: float
    rho: Optional[float] = None

    def as_dict(self) -> dict:
        d = {"p": self.p, "p_S": self.p_sobolev}
        if self.rho is not None:
            d["rho"] = self.rho
        return d


def critical_exponents(N: float, upper: Optional[float] = None) -> ExponentSet:
    """p(N), p_S(N) and, when an upper index is supplied, rho(N, upper)."""
    r = None
    if upper is not None and math.isfinite(upper):
        r = rho(N, upper)
    return ExponentSet(p_threshold(N), p_sobolev(N), r)


# ---------------------------------------------------------------------------
# hypothesis checks


@dataclass(frozen=True)
class ConditionReport:
    theorem: str
    satisfied: bool
    checks: dict
    method: str
    h_witness: Optional[Callable[[float], float]] = field(default=None, compare=False)

    def as_dict(self) -> dict:
        return {"theorem": self.theorem, "satisfied": self.satisfied,
                "method": self.method, "checks": dict(self.checks)}


THEOREMS = ("1.3", "1.5", "1.7", "1.8", "1.9", "8")


def normalize_theorem(name: str) -> str:
    t = str(name).lower().replace("thm", "").replace("theorem", "").strip()
    if t in ("8.3", "8.4", "lichnerowicz"):
        t = "8"
    if t not in THEOREMS:
        raise UnsupportedTheorem(f"unknown theorem id {name!r}")
    return t


def power_ratio_nonincreasing(spec: NonlinearitySpec, alpha: float,
                              grid: Optional[np.ndarray] = None) -> bool:
    """Whether t^-alpha f(t) is non-increasing, i.e. t f'(t) <= alpha f(t)."""
    fam = spec.family
    if not isinstance(fam, Custom):
        # termwise: t f' - alpha f = sum k (a - alpha) t^a
        return all(k * (a - alpha) <= 0 for k, a in fam.terms)
    g = grid if grid is not None else log_grid()
    f, df, _ = evaluate_many(spec, g)
    slack = g * df - alpha * f
    return bool(np.all(slack <= 1e-12 * (np.abs(f) + np.abs(g * df) + 1e-300)))


def ratio_nondecreasing(spec: NonlinearitySpec, grid: Optional[np.ndarray] = None) -> bool:
    """Whether t f'/f is non-decreasing, tested as r2 >= r1(r1 - 1) on the grid."""
    g = grid if grid is not None else log_grid()
    f, df, d2f = evaluate_many(spec, g)
    ok = ratio_mask(spec, g, f)
    if not np.any(ok):
        return False
    t, fv = g[ok], f[ok]
    r1 = t * df[ok] / fv
    r2 = t * t * d2f[ok] / fv
    gap = r2 - r1 * (r1 - 1.0)
    return bool(np.all(gap >= -1e-9 * (1.0 + np.abs(r1) ** 2)))


def vanishing_slope_at_zero(spec: NonlinearitySpec) -> bool:
    """V1: f(t)/t -> 0 as t -> 0+."""
    fam = spec.family
    if not isinstance(fam, Custom):
        return all(a > 1 for _k, a in fam.terms)  # the smallest exponent
    ts = np.geomspace(1e-14, 1e-6, 9)
    f, _, _ = evaluate_many(spec, ts)
    vals = np.abs(f / ts)
    return vals[0] < 1e-6 and vals[0] <= vals[-1]


def inverse_bounded(spec: NonlinearitySpec, beta: float,
                    grid: Optional[np.ndarray] = None):
    """Whether g(t) = t^(-1-beta) f(t) is increasing with a quantified inverse.

    Returns (ok, h) where h maps a ratio bound C to the factor in t <= h(C) eps.
    Exact for monomial sums with positive coefficients; grid-verified
    (range-limited) for Custom.
    """
    fam = spec.family
    if not isinstance(fam, Custom):
        if not fam.terms or any(k < 0 for k, _a in fam.terms):
            return False, None
        p0 = min(a for _k, a in fam.terms) - 1 - beta
        if p0 <= 0:
            return False, None
        return True, (lambda C, p0=p0: max(1.0, C ** (1.0 / p0)))
    g = grid if grid is not None else log_grid(1e-6, 1e6, 2048)
    f, _, _ = evaluate_many(spec, g)
    vals = g ** (-1.0 - beta) * f
    if np.any(vals <= 0) or np.any(np.diff(vals) <= 0):
        return False, None

    def h_emp(C: float, t=g, v=vals) -> float:
        # empirical inverse modulus on the sampled range: worst t/eps with
        # v(t) <= C v(eps)
        worst = 1.0
        for j in range(0, len(t), 64):
            hi = np.searchsorted(v, C * v[j], side="right") - 1
            if hi > j:
                worst = max(worst, t[hi] / t[j])
        return worst

    return True, h_emp


def check_hypotheses(spec: NonlinearitySpec, N: float, theorem: str,
                     alpha: Optional[float] = None,
                     beta: Optional[float] = None,
                     indices: Optional[IndexReport] = None) -> ConditionReport:
    """Evaluate every hypothesis of the named theorem for this term."""
    t = normalize_theorem(theorem)
    idx = indices if indices is not None else compute_indices(spec)
    p = p_threshold(N)
    ps = p_sobolev(N)
    checks: dict = {}
    h_witness = None

    if t == "8":
        ok = isinstance(spec.family, Lichnerowicz)
        checks["lichnerowicz_family"] = ok
        return ConditionReport(t, ok, checks, idx.method)

    if t in ("1.3", "1.9"):
        checks["f_positive"] = spec.positive
        checks["upper_below_p"] = idx.upper_finite and idx.upper < p
        checks["second_finite"] = idx.second_finite
        sat = all(checks.values())
        return ConditionReport(t, sat, checks, idx.method)

    if t == "1.5":
        if alpha is None:
            raise UnsupportedTheorem("theorem 1.5 check needs the comparison exponent alpha")
        checks["alpha_in_range"] = 1 < alpha < p
        checks["power_ratio_nonincreasing"] = power_ratio_nonincreasing(spec, alpha)
        sat = all(checks.values())
        return ConditionReport(t, sat, checks, idx.method)

    # 1.7 / 1.8 share the core condition block
    checks["f_positive"] = spec.positive
    checks["upper_in_window"] = idx.upper_finite and p <= idx.upper < ps
    checks["ratio_nondecreasing"] = ratio_nondecreasing(spec)
    if N >= 4:
        checks["lower_index_ok"] = idx.lower >= 1
    else:
        checks["lower_index_ok"] = idx.lower > 2
    if t == "1.7":
        sat = all(checks.values())
        return ConditionReport(t, sat, checks, idx.method)

    checks["vanishing_slope_at_zero"] = vanishing_slope_at_zero(spec)
    if beta is None:
        beta = idx.lower - 1 - 1e-9 if idx.lower_finite else None
    if beta is None or N == 1:
        checks["inverse_bounded"] = False
    else:
        r = rho(N, idx.upper) if idx.upper_finite else math.inf
        ok, h_witness = inverse_bounded(spec, beta)
        checks["inverse_bounded"] = ok and beta > r
    sat = all(checks.values())
    return ConditionReport(t, sat, checks, idx.method, h_witness)


# ---------------------------------------------------------------------------
# JSON interface


def from_json(obj: dict) -> NonlinearitySpec:
    fam = obj.get("family")
    if fam == "power":
        return power(float(obj["alpha"]))
    if fam == "powersum":
        return power_sum(obj["terms"])
    if fam == "lichnerowicz":
        return lichnerowicz(float(obj["a"]), float(obj["b"]), float(obj["sigma"]),
                            float(obj["c"]), float(obj["tau"]))
    raise ValueError(f"unknown nonlinearity family {fam!r}")


def to_json(spec: NonlinearitySpec) -> dict:
    fam = spec.family
    if isinstance(fam, PowerLaw):
        return {"family": "power", "alpha": fam.alpha}
    if isinstance(fam, PowerSum):
        return {"family": "powersum", "terms": [[k, a] for k, a in fam.terms]}
    if isinstance(fam, Lichnerowicz):
        return {"family": "lichnerowicz", "a": fam.a, "b": fam.b,
                "sigma": fam.sigma, "c": fam.c, "tau": fam.tau}
    raise ValueError("custom nonlinearities have no JSON form")
