"""Symbolic identity checks of the two quadratic-form coefficient systems.

For a radial solution on flat R^n (synthetic dimension equal to n) the
auxiliary-field computation is an identity up to the curvature-dimension
slack, which for radial functions is ((n-1)/n)(w'' - w'/r)^2.  Verifying

    lap(A) - drift - quadratic form == slack term

with fully symbolic (beta, gamma, d, eps, n) and a generic reaction f pins
every coefficient of both systems exactly.  The coefficients come from
`constants.coeffs_first_kind` / `coeffs_second_kind` themselves, fed sympy
symbols, so a slip in the production formulas leaves a nonzero residual.
"""

import pytest

from ellab import constants as ct

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
    y = f(u) / u

    if kind == "first":
        w = u**(-beta)
        weight = (u + eps) ** (-beta * gamma)
        coeffs = ct.coeffs_first_kind
        drift_coeff = 2 * (1 / beta - 1 + gamma * u / (u + eps))
    else:
        w = (u + eps) ** (-beta)
        weight = w**gamma
        coeffs = ct.coeffs_second_kind
        drift_coeff = 2 * (1 / beta - 1 + gamma)
    # every float literal in the formulas is 1, 2 or 4, so this is exact
    A1, A2, A3 = (sp.nsimplify(c, rational=True)
                  for c in coeffs(n, beta, gamma, d, u, eps, r1, r2))

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
