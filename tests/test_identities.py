"""Symbolic identity checks of the two quadratic-form coefficient systems.

For a radial solution on flat R^n (synthetic dimension equal to n) the
auxiliary-field computation is an identity up to the curvature-dimension
slack, which for radial functions is ((n-1)/n)(w'' - w'/r)^2.  Verifying

    lap(A) - drift - quadratic form == slack term

with fully symbolic (beta, gamma, d, eps, n) and a generic reaction f pins
every coefficient of both systems exactly; any transcription slip would leave
a nonzero residual.
"""

import pytest

sp = pytest.importorskip("sympy")


def _check(kind: str) -> None:
    r, n, beta, gamma, d, eps = sp.symbols("r n beta gamma d epsilon",
                                           positive=True)
    u = sp.Function("u", positive=True)(r)
    f = sp.Function("f", positive=True)

    def lap(e):
        return sp.diff(e, r, 2) + (n - 1) / r * sp.diff(e, r)

    pde = {sp.diff(u, r, 2): -(n - 1) / r * sp.diff(u, r) - f(u)}

    def substitute(e):
        e = e.doit()
        for _ in range(4):
            e = e.subs(sp.diff(u, r, 3),
                       sp.diff(pde[sp.diff(u, r, 2)], r)).subs(pde)
        return sp.cancel(sp.together(e))

    r1 = u * sp.diff(f(u), u) / f(u)
    r2 = u**2 * sp.diff(f(u), u, 2) / f(u)
    s = u / (u + eps)
    y = f(u) / u

    if kind == "first":
        w = u**(-beta)
        weight = (u + eps) ** (-beta * gamma)
        A1 = sp.Rational(2) / n * (1 + 1 / beta) ** 2 \
            + (gamma / beta - gamma**2) * s**2 \
            + 2 * (1 - 1 / beta) * gamma * s - 2
        A2 = sp.Rational(4) / n * (1 + beta) + 2 * (1 - r1) \
            + d * (r2 / beta**2 - 2 / beta * (r1 - 1)) \
            + gamma * s * (beta + d * ((1 / beta - gamma) * s + 2 - 2 / beta))
        A3 = 2 * beta**2 / n + d * (beta * gamma * s + 1 - r1)
        drift_coeff = 2 * (1 / beta - 1 + gamma * u / (u + eps))
    else:
        w = (u + eps) ** (-beta)
        weight = w**gamma
        t = (u + eps) / u
        A1 = sp.Rational(2) / n * (1 + 1 / beta) ** 2 + 2 * gamma \
            - gamma**2 - gamma / beta - 2
        A2 = (sp.Rational(4) / n * (1 + beta) + 2 + gamma * beta) * s - 2 * r1 \
            + 2 * d * (gamma - 1 + 1 / beta) * ((t / beta) * (r1 - 1) - gamma) \
            + d * ((t**2 / beta**2) * (r2 + 2 - 2 * r1)
                   + gamma * (gamma + 1 / beta)
                   - (2 * gamma / beta) * t * (r1 - 1))
        A3 = 2 * beta**2 / n * s**2 + d * (beta * gamma * s + 1 - r1)
        drift_coeff = 2 * (1 / beta - 1 + gamma)

    x = sp.diff(w, r) ** 2 / w**2
    field = weight * (x + d * y)
    drift = drift_coeff * sp.diff(field, r) * sp.diff(sp.log(w), r)
    quad = weight * (A1 * x**2 + A2 * x * y + A3 * y**2)
    wpp = substitute(sp.diff(w, r, 2))
    slack = 2 * weight / w**2 * (n - 1) / n * (wpp - sp.diff(w, r) / r) ** 2
    residual = substitute(lap(field) - drift - quad) - substitute(slack)
    assert sp.cancel(sp.together(sp.expand(residual))) == 0


def test_first_kind_coefficients_are_exact():
    _check("first")


def test_second_kind_coefficients_are_exact():
    _check("second")
