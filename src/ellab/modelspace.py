"""Smooth weighted model spaces (R^n, euclidean metric, e^-phi dx).

Only radial weights are supported: every curvature and Laplacian computation
then reduces to one radial variable, which keeps the PDE side of the lab
one-dimensional.  The curvature object is

    Hess(phi) - (1/(N-n)) dphi (x) dphi        (ambient Ricci is zero)

whose eigenvalues split into a radial curve phi'' - phi'^2/(N-n) and a
tangential curve phi'(r)/r of multiplicity n-1.  The effective lower bound
-K is the minimum of the two curves over the working domain, read off a
finite set of candidate radii that holds every critical point.

The module also carries the lab's exact laboratory family: for N > 3 and a
subcritical exponent the logarithmic weight

    phi(r) = gamma * ln(mu^2 + r^2),   gamma = (n - 2 - 4/(alpha-1)) / 2

admits the closed-form positive solution of  lap_w(u) + u^alpha = 0

    u(r) = ( mu * sqrt(4n/(alpha-1)) / (mu^2 + r^2) )^(2/(alpha-1))

with zero residual, used throughout as the exactness and sharpness oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidAlpha

CURVATURE_CACHE = 32      # (space, r_max) pairs whose bound is kept


@dataclass(frozen=True)
class WeightedSpace:
    """(R^n, e^-phi dx) with synthetic dimension N >= n and radial weight phi."""

    n: int
    N: float
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    d2phi: Callable[[np.ndarray], np.ndarray]
    weight_kind: str  # "zero", "appendix" or "table": what curvature_bound reads
    weight_params: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.N):
            raise ValueError(f"synthetic dimension must be finite, got {self.N!r}")
        if self.weight_params and not np.isfinite(
                np.concatenate([np.ravel(p) for p in self.weight_params])).all():
            raise ValueError(f"weight parameters must be finite, got "
                             f"{self.weight_params!r}")
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")
        if self.N < self.n:
            raise ValueError("synthetic dimension must satisfy N >= n")
        if self.N == self.n and self.weight_kind != "zero":
            for r in (0.3, 1.0, 7.0):
                if abs(float(self.dphi(np.float64(r)))) > 1e-14:
                    raise ValueError("N == n requires an identically zero weight")
        if abs(float(self.dphi(np.float64(0.0)))) > 1e-8:
            raise ValueError("phi'(0) must vanish for smoothness at the origin")


def flat(n: int, N: Optional[float] = None) -> WeightedSpace:
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return WeightedSpace(n, float(N if N is not None else n), zero, zero, zero,
                         weight_kind="zero")


def log_weight_space(n: int, N: float, gamma: float, mu: float) -> WeightedSpace:
    """Weight gamma * ln(mu^2 + r^2)."""
    mu2 = mu * mu

    def phi(r):
        return gamma * np.log(mu2 + np.asarray(r, dtype=float) ** 2)

    def dphi(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * gamma * r / (mu2 + r**2)

    def d2phi(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * gamma * (mu2 - r**2) / (mu2 + r**2) ** 2

    return WeightedSpace(n, N, phi, dphi, d2phi,
                         weight_kind="appendix", weight_params=(gamma, mu))


def table_weight_space(n: int, N: float, r_nodes, phi_values) -> WeightedSpace:
    """Tabulated radial weight, interpolated by a cubic spline with slope 0 at
    the first node and a not-a-knot end."""
    # pdelab imports this module, so its spline is imported here
    from .pdelab import CubicSpline

    r_nodes = np.asarray(r_nodes, dtype=float)
    vals = np.asarray(phi_values, dtype=float)
    sp = CubicSpline.fit(r_nodes, vals)
    d1, d2 = sp.derivative(1), sp.derivative(2)
    return WeightedSpace(n, N, sp, d1, d2, weight_kind="table",
                         weight_params=(tuple(r_nodes), tuple(vals)))


# ---------------------------------------------------------------------------
# curvature


def radial_eigenvalue(space: WeightedSpace, r) -> np.ndarray:
    """Eigenvalue along the radial direction: phi'' - phi'^2/(N-n)."""
    r = np.asarray(r, dtype=float)
    out = np.asarray(space.d2phi(r), dtype=float).copy()
    if space.N > space.n:
        out = out - np.asarray(space.dphi(r), dtype=float) ** 2 / (space.N - space.n)
    return out


def tangential_eigenvalue(space: WeightedSpace, r) -> np.ndarray:
    """Eigenvalue on the sphere directions: phi'(r)/r, extended by phi''(0)."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r, dtype=float)
    small = np.abs(r) < 1e-12
    if np.any(~small):
        rr = r[~small]
        out[~small] = np.asarray(space.dphi(rr), dtype=float) / rr
    if np.any(small):
        out[small] = np.asarray(space.d2phi(r[small]), dtype=float)
    return out


def ricci_tensor(space: WeightedSpace, x) -> np.ndarray:
    """Curvature matrix Hess(phi) - dphi(x)dphi/(N-n) at a point of R^n."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, ambient n = {space.n}")
    r = float(np.linalg.norm(x))
    eye = np.eye(space.n)
    if r < 1e-12:
        return float(space.d2phi(np.float64(0.0))) * eye
    e = x / r
    proj_rad = np.outer(e, e)
    proj_tan = eye - proj_rad
    lam_rad = float(radial_eigenvalue(space, r))
    lam_tan = float(tangential_eigenvalue(space, r))
    return lam_rad * proj_rad + lam_tan * proj_tan


def eigenvalue_deviation(space: WeightedSpace, rng: np.random.Generator,
                         count: int) -> float:
    """Worst gap between the dense spectrum of `ricci_tensor` and the radial/
    tangential eigenvalue curves at `count` random points with |x| in [0.01, 10]."""
    worst = 0.0
    for _ in range(count):
        x = rng.normal(size=space.n)
        x *= rng.uniform(0.01, 10.0) / np.linalg.norm(x)
        eig = np.linalg.eigvalsh(ricci_tensor(space, x))
        r = float(np.linalg.norm(x))
        expected = np.sort(np.array(
            [float(radial_eigenvalue(space, r))]
            + [float(tangential_eigenvalue(space, r))] * (space.n - 1)))
        worst = max(worst, float(np.max(np.abs(eig - expected))))
    return worst


@dataclass(frozen=True)
class CurvatureReport:
    minimum: float
    argmin_r: float
    which: str  # "radial" or "tangential"
    K: float    # effective lower-bound constant, max(0, -minimum)
    r_max: float

    def as_dict(self) -> dict:
        return {"minimum": self.minimum, "argmin_r": self.argmin_r,
                "which": self.which, "K": self.K, "r_max": self.r_max}


def _may_vanish(poly: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Columns of `poly` (coefficients, highest power first) that may vanish
    on [s0, s1]: by the mean value theorem a root there needs |p(s0)| at
    most (s1 - s0) times a bound on |p'| over the interval."""
    value = np.zeros_like(s0)
    for row in poly:
        value = value * s0 + row
    top = np.maximum(np.abs(s0), np.abs(s1))
    slope = np.zeros_like(s0)
    deg = len(poly) - 1
    for k, row in enumerate(poly[:-1]):
        slope = slope * top + (deg - k) * np.abs(row)
    bound = (s1 - s0) * slope
    return (np.abs(value) <= bound) & (bound > 0)


def _table_candidates(dphi, m: float, r_max: float) -> np.ndarray:
    """Piece ends of the spline phi' on [0, r_max] and, inside each piece,
    the real parts of the roots of both curves' derivative numerators."""
    x = dphi.x
    ends = np.concatenate(([0.0], x[(x > 0) & (x < r_max)], [r_max]))
    i = np.clip(np.searchsorted(x, ends[:-1], "right") - 1, 0, len(x) - 2)
    xi = x[i]
    s0, s1 = ends[:-1] - xi, ends[1:] - xi
    # phi' = A s^2 + B s + C with s = r - x_i: the radial curve's derivative
    # is -2/m times the cubic, and the tangential curve's is the quadratic
    # over r^2
    A, B, C = dphi.c[:, i]
    cubic = np.stack((2 * A * A, 3 * A * B, B * B + 2 * A * C, B * C - m * A))
    quad = np.stack((A, 2 * A * xi, B * xi - C))
    found = [ends]
    for poly in (cubic, quad):
        for j in np.flatnonzero(_may_vanish(poly, s0, s1)):
            z = np.roots(poly[:, j]).real
            found.append(xi[j] + z[(z > s0[j]) & (z < s1[j])])
    return np.concatenate(found)


def _candidate_radii(space: WeightedSpace, r_max: float) -> np.ndarray:
    """Radii in [0, r_max] among which both eigenvalue curves take their
    minima on that interval."""
    if space.weight_kind == "appendix":
        # with t = r^2/mu^2 the tangential curve 2 gamma/(mu^2 + r^2) is
        # monotone and the radial curve has its one critical point at t*
        gamma, mu = space.weight_params
        m = space.N - space.n
        radii = [0.0, r_max]
        if m + 2.0 * gamma != 0:
            t_star = (3.0 * m + 2.0 * gamma) / (m + 2.0 * gamma)
            if t_star > 0 and abs(mu) * math.sqrt(t_star) < r_max:
                radii.append(abs(mu) * math.sqrt(t_star))
        return np.array(radii)
    if space.weight_kind == "table":
        return _table_candidates(space.dphi, space.N - space.n, r_max)
    raise ValueError(f"no curvature candidates for weight kind "
                     f"{space.weight_kind!r}")


@functools.lru_cache(maxsize=CURVATURE_CACHE)
def curvature_bound(space: WeightedSpace, r_max: float) -> CurvatureReport:
    """Minimum of both eigenvalue curves over [0, r_max] and the implied K.

    The curves are evaluated at a finite set of candidate radii that holds
    their minima: the ends of the interval and each critical point, in
    closed form for the logarithmic weight and as roots of a cubic and a
    quadratic on each piece of a tabulated weight's spline.  The bound
    depends on the space and r_max alone, so the last CURVATURE_CACHE
    reports are kept.  A space's weight functions compare by identity, so
    a space built twice is two keys; `cli.parse_space` returns one object
    per text.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    if space.weight_kind == "zero":
        # phi' and phi'' vanish identically, so both curves are zero
        return CurvatureReport(0.0, 0.0, "radial", 0.0, r_max)
    # sorted, so a tie goes to the smallest radius
    r = np.sort(_candidate_radii(space, r_max))
    rad, tan = radial_eigenvalue(space, r), tangential_eigenvalue(space, r)
    i, j = int(np.argmin(rad)), int(np.argmin(tan))
    if rad[i] <= tan[j]:
        minimum, argmin, which = float(rad[i]), float(r[i]), "radial"
    else:
        minimum, argmin, which = float(tan[j]), float(r[j]), "tangential"
    return CurvatureReport(minimum, argmin, which, max(0.0, -minimum), r_max)


# ---------------------------------------------------------------------------
# exact laboratory family


def ambient_dimension(N: float) -> int:
    """Largest integer strictly below N."""
    n = math.ceil(N) - 1
    return n


def decay_coefficient(n: int, alpha: float) -> float:
    """(n - 2 - 4/(alpha-1)) / 2, the log-weight strength."""
    return 0.5 * (n - 2.0 - 4.0 / (alpha - 1.0))


@dataclass(frozen=True)
class AppendixSpace:
    """Log-weighted space calibrated so the curvature minimum equals -K."""

    N: float
    alpha: float
    n: int
    gamma: float
    mu: float
    K: float
    space: WeightedSpace

    def as_dict(self) -> dict:
        return {"N": self.N, "alpha": self.alpha, "n": self.n,
                "gamma": self.gamma, "mu": self.mu, "K": self.K}


def curvature_case_value(n: int, N: float, gamma: float) -> tuple[float, float, float]:
    """(c0, r_star_sq_over_mu_sq, branch) with min eigenvalue = -c0 / mu^2.

    Branch 0: minimum at the origin, c0 = -2 gamma.
    Branch 1: interior radial minimum when N - n < -(2/3) gamma.
    """
    m = N - n
    if m >= -(2.0 / 3.0) * gamma:
        return -2.0 * gamma, 0.0, 0
    c0 = gamma * (m + 2.0 * gamma) ** 2 / (4.0 * m * (m + gamma))
    t_star = (3.0 * m + 2.0 * gamma) / (m + 2.0 * gamma)
    return c0, t_star, 1


def appendix_space(N: float, alpha: float, K: float) -> AppendixSpace:
    """Solve for mu so the model's curvature minimum is exactly -K."""
    if not all(map(math.isfinite, (N, alpha, K))):
        raise ValueError(f"N, alpha and K must be finite, got {(N, alpha, K)!r}")
    if N <= 3:
        raise ValueError("the exact family needs N > 3")
    if K <= 0:
        raise ValueError("K must be positive")
    if not 1.0 < alpha < (N + 2.0) / (N - 2.0):
        raise InvalidAlpha(f"alpha = {alpha} outside (1, {(N + 2) / (N - 2)})")
    n = ambient_dimension(N)
    gamma = decay_coefficient(n, alpha)
    c0, _, _ = curvature_case_value(n, N, gamma)
    mu = math.sqrt(c0 / K)
    space = log_weight_space(n, N, gamma, mu)
    return AppendixSpace(N, alpha, n, gamma, mu, K, space)


def appendix_space_from_mu(N: float, alpha: float, mu: float) -> AppendixSpace:
    """Exact-family space at a given scale mu.

    More permissive than the K-inversion: the closed-form solution has zero
    residual for any alpha > 1, even at or past the subcritical edge.
    """
    if N <= 3:
        raise ValueError("the exact family needs N > 3")
    if alpha <= 1.0:
        raise InvalidAlpha("the closed form needs alpha > 1")
    n = ambient_dimension(N)
    gamma = decay_coefficient(n, alpha)
    space = log_weight_space(n, N, gamma, mu)
    if gamma < 0:
        c0, _, _ = curvature_case_value(n, N, gamma)
        K = c0 / (mu * mu)
    else:
        K = curvature_bound(space, 100.0 * mu).K
    return AppendixSpace(N, alpha, n, gamma, mu, K, space)


def appendix_solution(aspace: AppendixSpace, r):
    """Closed-form solution and its weighted-Laplacian residual at radius r.

    Returns (u, u', lap_w u, lap_w u + u^alpha).  The residual vanishes
    identically; it is returned so callers can assert that numerically.
    """
    r = np.asarray(r, dtype=float)
    alpha, n, mu = aspace.alpha, aspace.n, aspace.mu
    s = mu * mu + r * r
    c = mu * math.sqrt(4.0 * n / (alpha - 1.0))
    u = (c / s) ** (2.0 / (alpha - 1.0))
    v = -4.0 * r / ((alpha - 1.0) * s)          # (ln u)'
    dv = -4.0 * (mu * mu - r * r) / ((alpha - 1.0) * s**2)
    du = u * v
    d2u = u * (v * v + dv)
    lap = weighted_laplacian_values(aspace.space, u, du, d2u, r)
    return u, du, lap, lap + u**alpha


def appendix_relative_residual(aspace: AppendixSpace) -> float:
    """max |lap_w u + u^alpha| / max u^alpha of the closed form on [0, 100]."""
    r = np.linspace(0.0, 100.0, 20001)
    u, _, _, res = appendix_solution(aspace, r)
    return float(np.max(np.abs(res)) / np.max(u**aspace.alpha))


def weighted_laplacian_values(space: WeightedSpace, u, du, d2u, r) -> np.ndarray:
    """u'' + ((n-1)/r) u' - phi'(r) u' from precomputed radial derivatives."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    d2u = np.asarray(d2u, dtype=float)
    out = np.empty_like(r)
    small = np.abs(r) < 1e-14
    reg = ~small
    if np.any(reg):
        rr = r[reg]
        out[reg] = (d2u[reg] + (space.n - 1) / rr * du[reg]
                    - np.asarray(space.dphi(rr), dtype=float) * du[reg])
    if np.any(small):
        # even extension at the origin: u'(0) = 0, phi'(0) = 0
        out[small] = space.n * d2u[small]
    return out


def sharpness_quantity(aspace: AppendixSpace):
    """sup over r of |grad u|^2/u^2 + u^(alpha-1), its ratio to K, and the
    radius where it is attained.

    With t = r^2 the diagnostic is (c1 t + c0)/(mu^2 + t)^2 for positive c1
    and c0; its one critical point t* = mu^2 (1 - n(alpha-1)/2) is the
    maximum when positive, and otherwise it decreases from r = 0.
    """
    alpha, n, mu = aspace.alpha, aspace.n, aspace.mu
    t_star = mu * mu * (1.0 - n * (alpha - 1.0) / 2.0)
    r = math.sqrt(t_star) if t_star > 0 else 0.0
    s = mu * mu + r * r
    grad_log_sq = 16.0 * r * r / ((alpha - 1.0) ** 2 * s**2)
    upow = 4.0 * n * mu * mu / ((alpha - 1.0) * s**2)
    sup = grad_log_sq + upow
    return sup, sup / aspace.K, r


# ---------------------------------------------------------------------------
# JSON interface


# the keys of each weight kind's JSON object besides "kind"
WEIGHT_KEYS = {"zero": (), "appendix": ("alpha", "mu"),
               "custom-radial": ("r", "values")}


def from_json(obj: dict) -> WeightedSpace:
    unknown = sorted(set(obj) - {"n", "N", "weight"})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} for a space")
    n = int(obj["n"])
    N = float(obj.get("N", n))
    w = obj.get("weight", {"kind": "zero"})
    kind = w.get("kind", "zero")
    unknown = sorted(set(w) - {"kind", *WEIGHT_KEYS.get(kind, ())})
    if kind in WEIGHT_KEYS and unknown:
        raise ValueError(f"unknown key {unknown[0]!r} for weight kind {kind!r}")
    if kind == "zero":
        return flat(n, N)
    if kind == "appendix":
        alpha = float(w["alpha"])
        mu = float(w["mu"])
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
        gamma = decay_coefficient(n, alpha)
        return log_weight_space(n, N, gamma, mu)
    if kind == "custom-radial":
        return table_weight_space(n, N, w["r"], w["values"])
    raise ValueError(f"unknown weight kind {kind!r}")

