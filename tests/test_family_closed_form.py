"""The sphere profile's exact form A = P + C F, F = 2F1(a, b; 1; x) with
a + b = -2 and ab = chi**2/(2 xi), against mpmath.hyp2f1 at 40 digits,
on cells across the range where solve_sphere checks its panels against
it (1e-300 <= ab <= 20, ab != 1): the low end, both sides of ab = 1 and the
top.  C is fixed in both by the same rim row (kernels._rim_row, in
doubles), so what is checked is the evaluator: its Taylor and
connection series, their constants and the particular part P.

A is the one the panels are checked against (values only, as
solve_dual_bvp reads it), A_s the s-derivative of the full evaluator,
and A'' the profile's own, closed_form_profile(...).eval(R)[2], read off
the equation (kernels._ode_terms) from the evaluator P + C F.  A and A_s
are held, radius by radius, to the magnitudes of their two parts,
|P| + |C F| (and |P_s| + |C F_s|), and A'' = f - 2 m A_s - q A to
|f| + 2 |m A_s| + |q A|, so a cancellation inherent in a sum costs
nothing and one in the evaluator shows.  The radii run from
the axis through the Taylor/connection switch to the rim, R_e itself
included.

Each bound is stated beside the worst agreement measured on these points
(numpy 2.4, scipy 1.17, mpmath 1.3).

Last, the solver's Psi on both traces is checked against the exact
profile's at 30 digits, its moments by a fixed Gauss-Legendre rule in
u = ln(s + 2) whose own error is measured and stated with the bounds."""

import math

import mpmath
import numpy as np
import pytest

from layerlab.kernels import _rim_constant, _rim_row, closed_form_profile
from layerlab.sphere import (_HYP_SWITCH, SphereGeometry, _cell, solve_sphere,
                             sphere_force)

# (xi, ab): the low end, ab = 1 -/+ 1e-6 and -/+ 1e-3, Theta's 3/2 and
# the top of the range, on xi from 1e-8 to 0.1
CELLS = [(1e-2, 1e-6), (1e-5, 1e-3), (1e-3, 0.5), (1e-4, 1.0 - 1e-6),
         (1e-2, 1.0 + 1e-6), (1e-8, 0.999), (1e-8, 1.001), (0.1, 1.5),
         (1e-3, 5.0), (1e-5, 20.0), (0.04, 20.0)]


def _radii(r_e):
    """The axis, R = 1, the switch x = _HYP_SWITCH and x = 0.6 just past
    it, the middle of the layer and 1e-3 of R_e short of the rim, and the
    rim."""
    r_x = [math.sqrt(2.0 * x / (1.0 - x)) for x in (_HYP_SWITCH, 0.6)]
    return np.array([0.0, 1.0, *r_x, 0.5 * r_e, (1.0 - 1e-3) * r_e, r_e])


def _mp_family(ab):
    """a, b, p0, p1 and kappa of the family at ab, in the working
    precision: P = p0 + p1 x + kappa F with p1 = 1/(4 - 2 k),
    p0 = (2 p1 + 1/2)/k, kappa = -2/(k (2 - k) F(1)) and k = 2 ab."""
    r = mpmath.sqrt(1 - mpmath.mpc(ab))
    a, b = -1 + r, -1 - r
    k = 2 * ab
    p1 = 1 / (4 - 2 * k)
    p0 = (2 * p1 + mpmath.mpf(1) / 2) / k
    q0 = mpmath.re(2 * mpmath.rgamma(a + 3) * mpmath.rgamma(b + 3))
    return a, b, p0, p1, -2 / (k * (2 - k) * q0)


def _mp_parts(ab, s, dps=40):
    """(P, P_s, F, F_s) at s = R**2 in dps digits (_mp_family), F_x by
    d/dx 2F1(a, b; c; x) = (a b / c) 2F1(a + 1, b + 1; c + 1; x), at
    x = s/(s + 2)."""
    with mpmath.workdps(dps):
        ab, s = mpmath.mpf(ab), mpmath.mpf(s)
        a, b, p0, p1, kappa = _mp_family(ab)
        x, x_s = s / (s + 2), 2 / (s + 2) ** 2
        f = mpmath.re(mpmath.hyp2f1(a, b, 1, x))
        f_x = mpmath.re(ab * mpmath.hyp2f1(a + 1, b + 1, 2, x))
        return (p0 + p1 * x + kappa * f, (p1 + kappa * f_x) * x_s, f,
                f_x * x_s)


@pytest.fixture(scope="module", params=CELLS,
                ids=lambda c: f"{c[0]:g}-{c[1]:.7g}")
def cell(request):
    """The library's A, A_s and A'' and the 40-digit ones, with the
    scales |P| + |C F|, |P_s| + |C F_s| and |f| + 2 |m A_s| + |q A|, on
    the cell's radii."""
    xi, ab = request.param
    geo = SphereGeometry.of(xi)
    equation, right, _, exact = _cell(geo, math.sqrt(2.0 * xi * ab))
    assert exact is not None
    r = _radii(geo.r_edge)
    s = r ** 2
    s[-1] = geo.r_edge * geo.r_edge       # the rim row's own s
    c = _rim_constant(equation, right, geo.r_edge, exact)
    p, f = exact(s, False)
    (_, p_s, _), (_, f_s, _) = exact(s)
    a2 = closed_form_profile(equation, right, geo.r_edge, exact).eval(r)[2]
    got = (p + c * f, p_s + c * f_s, a2)
    parts = np.array([_mp_parts(ab, v) for v in s]).T
    # the equation's coefficients, in doubles, as both sides read them
    mqf = np.broadcast_arrays(s, *equation[0](s))[1:]
    c_a, c_s, rhs = _rim_row(equation, right, geo.r_edge)
    with mpmath.workdps(40):
        P, P_s, F, F_s = parts[:, -1]
        C = (rhs - c_a * P - c_s * P_s) / (c_a * F + c_s * F_s)
        a, a_s = (parts[i] + C * parts[i + 2] for i in (0, 1))
        m, q, f = (np.array([mpmath.mpf(float(v)) for v in row])
                   for row in mqf)
        want = [a, a_s, f - 2 * m * a_s - q * a]
        scale = [abs(parts[0]) + abs(C * parts[2]),
                 abs(parts[1]) + abs(C * parts[3]),
                 abs(f) + 2 * abs(m * a_s) + abs(q * a)]
        want, scale = (np.array([[float(v) for v in row] for row in rows])
                       for rows in (want, scale))
    return ab, got, want, scale


def _worst(cell, k):
    _, got, want, scale = cell
    return float(np.max(np.abs(got[k] - want[k]) / scale[k]))


# bounds in units of 2**-53, the power of two at or above twice the
# worst measured: below ab = 10 that was 11.1 units for A (at
# (1e-5, 1e-3)), 5.6 for A_s (at (1e-3, 5)) and 2.8 for A'' (at
# (1e-2, 1 + 1e-6)); at ab = 20 the connection series cancels just past
# the switch (ROADMAP item 12), and A, A_s and A'' read 296, 1004 and
# 259 units (3.3e-14, 1.1e-13 and 2.9e-14, at xi = 0.04)
BOUNDS = {"A": (0, 32, 1024), "A_s": (1, 16, 2048), "A''": (2, 8, 1024)}


@pytest.mark.parametrize("name", BOUNDS)
def test_exact_profile_matches_mpmath(cell, name):
    k, units, units_top = BOUNDS[name]
    bound = (units_top if cell[0] > 10.0 else units) * 2.0 ** -53
    assert _worst(cell, k) <= bound


# ---------------------------------------------------------------------------
# The solver's Psi against the exact profile
# ---------------------------------------------------------------------------

PSI_DPS = 30
# 8-point Gauss-Legendre on equal pieces of width <= 2 in u = ln(s + 2):
# 16 to 40 nodes a cell here
PSI_RULE = (8, 2.0)


def _mp_psi(xi, chi):
    """Psi on both traces, (midplane, surface), at PSI_DPS digits, by the
    rim identities sphere_force evaluates (sphere's module docstring),
    for A = P + C F: C from the rim row (its coefficients in doubles, as
    the solver's), the rim values from _mp_parts, and the moments
    M0 = int A ds and M1 = int s A ds by PSI_RULE, with ds = e**u du.  ab
    is chi**2/(2 xi) from the solver's own chi**2, a double."""
    geo = SphereGeometry.of(xi)
    equation, right, _, _ = _cell(geo, chi)
    c_a, c_s, rhs = _rim_row(equation, right, geo.r_edge)
    se = geo.r_edge * geo.r_edge
    npts, width = PSI_RULE
    t, w = np.polynomial.legendre.leggauss(npts)
    with mpmath.workdps(PSI_DPS):
        xi, c2 = mpmath.mpf(geo.xi), mpmath.mpf(chi * chi)
        ab = c2 / (2 * xi)
        ae, ae_s, fe, fe_s = _mp_parts(ab, se, PSI_DPS)
        c = (rhs - c_a * ae - c_s * ae_s) / (c_a * fe + c_s * fe_s)
        ae, ae_s = ae + c * fe, ae_s + c * fe_s
        a, b, p0, p1, kappa = _mp_family(ab)
        u0, u1 = mpmath.log(2), mpmath.log(se + 2)
        pieces = math.ceil(float(u1 - u0) / width)
        h = (u1 - u0) / pieces
        m0 = m1 = 0
        for j in range(pieces):
            for tk, wk in zip(t, w):
                u = u0 + h * (j + (1 + mpmath.mpf(tk)) / 2)
                s = mpmath.exp(u) - 2
                f = mpmath.re(mpmath.hyp2f1(a, b, 1, s / (s + 2)))
                dm = (p0 + p1 * s / (s + 2) + (kappa + c) * f) \
                    * mpmath.exp(u) * mpmath.mpf(wk) * h / 2
                m0, m1 = m0 + dm, m1 + s * dm
        ge, c9 = 1 + se / 2, 9 - 2 * c2
        return (m0 / xi - c9 / 3 * 2 * se * ge * ge * ae_s,
                m0 / xi - c9 / 3 * 2 * (se * ge * ae - m0 - m1))


# (xi, ab) and the bound on |Psi - Psi_mp| / |Psi_mp| on both traces, in
# units of 2**-53: twice the rule's own error plus the solver's, rounded
# up to a power of two.  Against 16-point Gauss-Legendre on pieces of
# width <= 0.5 at 40 digits, the rule is off by 84, 7.6, 21 and 2.1
# units at these cells, in that order (9.4e-15 to 2.3e-16, the worse
# trace; at ab = 19.9 and 5 the profile turns within a piece), and the
# solver by 1.9, 0, 1.3 and 1.1 units.  Against PSI_RULE itself the
# solver read 82, 7.0, 22.5 and 1.1 units (numpy 2.4, scipy 1.17,
# mpmath 1.3)
PSI_CELLS = {(1e-2, 19.9): 256, (1e-4, 19.9): 16, (1e-2, 5.0): 64,
             (1e-3, 0.3): 8}


@pytest.mark.parametrize("xi, ab", PSI_CELLS,
                         ids=lambda v: f"{v:g}")
def test_solver_psi_matches_mpmath(xi, ab):
    # both traces of a cold solve (checked against the exact profile)
    # against the exact profile's Psi at 30 digits
    chi = math.sqrt(2.0 * xi * ab)
    sol = solve_sphere(xi, chi)
    assert sol.A.meta["reference"] == "exact"
    bound = PSI_CELLS[xi, ab] * 2.0 ** -53
    for trace, want in zip(("midplane", "surface"), _mp_psi(xi, chi)):
        got = sphere_force(sol, trace).psi
        assert abs(got - float(want)) <= bound * abs(float(want)), trace
