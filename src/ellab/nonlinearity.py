"""Nonlinear reaction terms and their structural indices.

A term f acts in the equation  laplacian(u) + f(u) = 0.  The theorems the lab
checks are gated on three dimensionless indices of f,

    lower  = inf_{t>0} t f'(t) / f(t)
    upper  = sup_{t>0} t f'(t) / f(t)
    second = inf_{t>0} t^2 f''(t) / f(t)

and on two critical exponents of the synthetic dimension N,

    p_sobolev(N) = (N+2)/(N-2)   for N > 2, infinite on [1,2]
    p(N)         = (N+3)/(N-1)   for N > 1, infinite at N = 1.

Every index is exact, computed in `math` from the monomial sum: a closed
form or, for some second indices of power sums, one bisection.  Only the
functions that take arrays, `evaluate_many` and `ratio_mask`, import numpy.

Everything here is pure and immutable; specs are safe to share across sweep
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NonPositiveArgument, RhoUndefined, SignChange, UnsupportedTheorem

RATIO_CUTOFF = 1e-12  # |f| below this times the local scale: ratio undefined


# ---------------------------------------------------------------------------
# families
# Every family is a finite sum of signed monomials k t^a, exposed as `terms`;
# evaluation, indices and hypothesis checks read only that sum.


@dataclass(frozen=True)
class PowerLaw:
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")

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
        for k, a in self.terms:
            if not (math.isfinite(k) and math.isfinite(a)):
                raise ValueError(f"PowerSum terms must be finite, got {(k, a)!r}")
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
        params = (self.a, self.b, self.sigma, self.c, self.tau)
        if not all(map(math.isfinite, params)):
            raise ValueError(f"a, b, sigma, c, tau must be finite, got {params!r}")
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


Family = PowerLaw | PowerSum | Lichnerowicz


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


# ---------------------------------------------------------------------------
# evaluation


def evaluate_many(spec: NonlinearitySpec, t: np.ndarray, order: int = 2):
    """Vectorized (f, f', f'')[:order + 1] on an array of positive arguments.

    A lower `order` skips the higher derivatives; the arrays it returns are
    bit for bit the leading ones of the full call.
    """
    import numpy as np
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise NonPositiveArgument("nonlinearity sampled at t <= 0")
    terms = spec.family.terms
    if not terms:
        return tuple(np.zeros_like(t) for _ in range(order + 1))
    # accumulate in place and skip the multiply by k = 1 of a pure power:
    # the solver makes thousands of small-grid calls, where each pass counts
    (k, a), *rest = terms
    out = [t**a if k == 1.0 else k * t**a]
    if order >= 1:
        out.append(k * a * t ** (a - 1))
    if order >= 2:
        out.append(k * a * (a - 1) * t ** (a - 2))
    for k, a in rest:
        out[0] += k * t**a
        if order >= 1:
            out[1] += k * a * t ** (a - 1)
        if order >= 2:
            out[2] += k * a * (a - 1) * t ** (a - 2)
    return tuple(out)


def ratio_mask(spec: NonlinearitySpec, t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Nodes where the ratios t f'/f and t^2 f''/f are numerically reliable.

    f may vanish at isolated points (sign-changing families), and a monomial
    may under- or overflow; ratios are only formed where |f| exceeds 1e-12 of
    the local term scale sum |k| t^a.
    """
    import numpy as np
    scale = sum(abs(k) * t**a for k, a in spec.family.terms)
    return np.abs(f) > RATIO_CUTOFF * np.maximum(scale, 1e-300)


# ---------------------------------------------------------------------------
# indices


@dataclass(frozen=True)
class IndexReport:
    """Structural indices of a term, each exact, with per-index finiteness flags."""

    lower: float
    upper: float
    second: float
    lower_finite: bool
    upper_finite: bool
    second_finite: bool

    def as_dict(self) -> dict:
        return {
            "lower_index": self.lower,
            "upper_index": self.upper,
            "second_order_index": self.second,
            "lower_finite": self.lower_finite,
            "upper_finite": self.upper_finite,
            "second_finite": self.second_finite,
        }


def _second_index(terms, lo: float, hi: float) -> float:
    """inf of t^2 f''/f for a sum of one sign with exponents from lo to hi.

    t^2 f''/f is the mean of a(a - 1) under the weights k t^a.  In x = ln t
    its slope has the sign of sum_{i<j} k_i k_j (a_i - a_j)^2 (a_i + a_j - 1)
    e^{(a_i + a_j) x}, whose coefficients change sign at most once, where the
    pair sum passes 1.  By Laguerre's extension of Descartes' rule of signs
    to exponential sums the mean falls, then rises: its infimum is lo(lo - 1)
    with no negative coefficient, hi(hi - 1) with no positive one, and
    otherwise the mean at the zero of the slope, found by bisection in x.
    """
    logs = [(math.log(abs(k)), a) for k, a in terms]
    pairs, signs = [], []  # (log |coefficient|, pair sum) and sign per pair
    for i, (lk, a) in enumerate(logs):
        for lk2, b in logs[i + 1:]:
            c = math.fsum((a, b, -1.0))  # exact in sign
            if a != b and c != 0:
                pairs.append((lk + lk2 + 2 * math.log(abs(a - b)) + math.log(abs(c)), a + b))
                signs.append(math.copysign(1.0, c))
    if -1.0 not in signs:
        return lo * (lo - 1)
    if 1.0 not in signs:
        return hi * (hi - 1)

    def scaled(x, items):  # e^(l + s x) per (l, s) over the largest, no overflow
        es = [l + s * x for l, s in items]
        top = max(es)
        return [math.exp(e - top) for e in es]

    def slope(x):
        return sum(sg * w for sg, w in zip(signs, scaled(x, pairs)))

    def mean(x):
        ws = scaled(x, logs)
        return sum(w * a * (a - 1) for w, (_lk, a) in zip(ws, logs)) / sum(ws)

    left, right = -1.0, 1.0  # the slope is < 0 as x -> -inf and > 0 as x -> inf
    while slope(left) >= 0:
        left *= 2
    while slope(right) <= 0:
        right *= 2
    while left < (mid := 0.5 * (left + right)) < right:
        s = slope(mid)
        if s == 0:
            return mean(mid)
        left, right = (left, mid) if s > 0 else (mid, right)
    return mean(left)


def compute_indices(spec: NonlinearitySpec) -> IndexReport:
    """Structural indices (lower, upper, second) of the term.

    Closed forms for a monomial sum of one sign and one exponent or of mixed
    signs.  For one sign and several exponents, lower and upper are the
    extreme exponents and the second index comes from `_second_index`.
    """
    signs = {k > 0 for k, _a in spec.family.terms}
    if not signs:
        raise SignChange("identically zero term")
    if len(signs) == 2:
        # mixed signs arise only as a t - b t^sigma + c t^tau with
        # sigma > 1 > tau: the sign flips between t -> 0 and t -> inf, so f
        # has a positive root and all three ratios are unbounded near it
        if spec.positive:
            raise SignChange("f has a positive root although declared positive")
        return IndexReport(-math.inf, math.inf, -math.inf, False, False, False)
    exponents = [a for _k, a in spec.family.terms]
    lo, hi = min(exponents), max(exponents)
    if lo == hi:
        return IndexReport(lo, hi, lo * (lo - 1), True, True, True)
    # t f'/f is a weighted mean of the exponents, monotone from min to max
    return IndexReport(lo, hi, _second_index(spec.family.terms, lo, hi),
                       True, True, True)


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

    def as_dict(self) -> dict:
        return {"theorem": self.theorem, "satisfied": self.satisfied,
                "checks": dict(self.checks)}


THEOREMS = ("1.3", "1.5", "1.7", "1.8", "1.9", "8")


def normalize_theorem(name: str) -> str:
    t = str(name).lower().replace("thm", "").replace("theorem", "").strip()
    if t in ("8.3", "8.4", "lichnerowicz"):
        t = "8"
    if t not in THEOREMS:
        raise UnsupportedTheorem(f"unknown theorem id {name!r}")
    return t


def power_ratio_nonincreasing(spec: NonlinearitySpec, alpha: float) -> bool:
    """Whether t^-alpha f(t) is non-increasing, i.e. t f'(t) <= alpha f(t)."""
    # termwise: t f' - alpha f = sum k (a - alpha) t^a
    return all(k * (a - alpha) <= 0 for k, a in spec.family.terms)


def ratio_nondecreasing(spec: NonlinearitySpec) -> bool:
    """Whether t f'/f is non-decreasing on (0, inf).

    True iff the sum has terms and all share a sign: then t f'/f is the mean
    of the exponents under the positive weights k t^a / f, and its derivative
    in log t is their variance, which is >= 0.  With mixed signs f has a
    positive root, around which t f'/f is unbounded both ways.
    """
    return len({k > 0 for k, _a in spec.family.terms}) == 1


def vanishing_slope_at_zero(spec: NonlinearitySpec) -> bool:
    """V1: f(t)/t -> 0 as t -> 0+."""
    return all(a > 1 for _k, a in spec.family.terms)  # the smallest exponent


def inverse_bounded(spec: NonlinearitySpec, beta: float) -> bool:
    """Whether g(t) = t^(-1-beta) f(t) is increasing with a quantified inverse:
    no coefficient negative and every exponent above 1 + beta."""
    terms = spec.family.terms
    return (bool(terms) and all(k >= 0 for k, _a in terms)
            and min(a for _k, a in terms) - 1 - beta > 0)


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

    if t == "8":
        ok = isinstance(spec.family, Lichnerowicz)
        checks["lichnerowicz_family"] = ok
        return ConditionReport(t, ok, checks)

    if t in ("1.3", "1.9"):
        checks["f_positive"] = spec.positive
        checks["upper_below_p"] = idx.upper_finite and idx.upper < p
        checks["second_finite"] = idx.second_finite
        sat = all(checks.values())
        return ConditionReport(t, sat, checks)

    if t == "1.5":
        if alpha is None:
            raise UnsupportedTheorem("theorem 1.5 check needs the comparison exponent alpha")
        checks["alpha_in_range"] = 1 < alpha < p
        checks["power_ratio_nonincreasing"] = power_ratio_nonincreasing(spec, alpha)
        sat = all(checks.values())
        return ConditionReport(t, sat, checks)

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
        return ConditionReport(t, sat, checks)

    checks["vanishing_slope_at_zero"] = vanishing_slope_at_zero(spec)
    if beta is None:
        beta = idx.lower - 1 - 1e-9 if idx.lower_finite else None
    if beta is None or N == 1:
        checks["inverse_bounded"] = False
    else:
        r = rho(N, idx.upper) if idx.upper_finite else math.inf
        checks["inverse_bounded"] = inverse_bounded(spec, beta) and beta > r
    sat = all(checks.values())
    return ConditionReport(t, sat, checks)


# ---------------------------------------------------------------------------
# JSON interface


# the keys of each family's JSON object besides "family"
JSON_KEYS = {"power": ("alpha",), "powersum": ("terms",),
             "lichnerowicz": ("a", "b", "sigma", "c", "tau")}


def from_json(obj: dict) -> NonlinearitySpec:
    fam = obj.get("family")
    unknown = sorted(set(obj) - {"family", *JSON_KEYS.get(fam, ())})
    if fam in JSON_KEYS and unknown:
        raise ValueError(f"unknown key {unknown[0]!r} for family {fam!r}")
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
    raise ValueError(f"unknown nonlinearity family {fam!r}")
