"""The sphere profile's exact form A = P + C F, F = 2F1(a, b; 1; x) with
a + b = -2 and ab = chi**2/(2 xi), against mpmath.hyp2f1 at 40 digits,
on cells across the range where solve_sphere checks its panels against
it (1e-300 <= ab <= 20, ab != 1): the low end, both sides of ab = 1 and the
top.  C is fixed in both by the same rim row (kernels._rim_row, in
doubles), so what is checked is the evaluator: its Taylor and
connection series, their constants and the particular part P.

A is the one the panels are checked against (values only, as
solve_dual_bvp reads it), A_s the s-derivative of the full evaluator.
Each is held, radius by radius, to the magnitudes of its two parts,
|P| + |C F| (and |P_s| + |C F_s|), so a cancellation inherent in the
sum costs nothing and one in the evaluator shows.  The radii run from
the axis through the Taylor/connection switch to the rim, R_e itself
included.

Each bound is stated beside the worst agreement measured on these points
(numpy 2.4, scipy 1.17, mpmath 1.3)."""

import math

import mpmath
import numpy as np
import pytest

from layerlab.kernels import _rim_constant, _rim_row
from layerlab.sphere import _HYP_SWITCH, SphereGeometry, _cell

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


def _mp_parts(ab, s):
    """(P, P_s, F, F_s) at s = R**2 in 40 digits: F and F_x by
    d/dx 2F1(a, b; c; x) = (a b / c) 2F1(a + 1, b + 1; c + 1; x),
    P = p0 + p1 x + kappa F with p1 = 1/(4 - 2 k), p0 = (2 p1 + 1/2)/k,
    kappa = -2/(k (2 - k) F(1)), k = 2 ab, and x = s/(s + 2)."""
    with mpmath.workdps(40):
        ab, s = mpmath.mpf(ab), mpmath.mpf(s)
        r = mpmath.sqrt(1 - mpmath.mpc(ab))
        a, b = -1 + r, -1 - r
        k = 2 * ab
        p1 = 1 / (4 - 2 * k)
        p0 = (2 * p1 + mpmath.mpf(1) / 2) / k
        q0 = mpmath.re(2 * mpmath.rgamma(a + 3) * mpmath.rgamma(b + 3))
        kappa = -2 / (k * (2 - k) * q0)
        x, x_s = s / (s + 2), 2 / (s + 2) ** 2
        f = mpmath.re(mpmath.hyp2f1(a, b, 1, x))
        f_x = mpmath.re(ab * mpmath.hyp2f1(a + 1, b + 1, 2, x))
        return (p0 + p1 * x + kappa * f, (p1 + kappa * f_x) * x_s, f,
                f_x * x_s)


@pytest.fixture(scope="module", params=CELLS,
                ids=lambda c: f"{c[0]:g}-{c[1]:.7g}")
def cell(request):
    """The library's A, A_s and the 40-digit ones, with the scales
    |P| + |C F| and |P_s| + |C F_s|, on the cell's radii."""
    xi, ab = request.param
    geo = SphereGeometry.of(xi)
    equation, right, _, exact = _cell(geo, math.sqrt(2.0 * xi * ab))
    assert exact is not None
    s = _radii(geo.r_edge) ** 2
    s[-1] = geo.r_edge * geo.r_edge       # the rim row's own s
    c = _rim_constant(equation, right, geo.r_edge, exact)
    p, f = exact(s, False)
    (_, p_s, _), (_, f_s, _) = exact(s)
    got = (p + c * f, p_s + c * f_s)
    parts = np.array([_mp_parts(ab, v) for v in s]).T
    c_a, c_s, rhs = _rim_row(equation, right, geo.r_edge)
    with mpmath.workdps(40):
        P, P_s, F, F_s = parts[:, -1]
        C = (rhs - c_a * P - c_s * P_s) / (c_a * F + c_s * F_s)
        want = [[float(u + C * v) for u, v in zip(parts[i], parts[i + 2])]
                for i in (0, 1)]
        scale = [[float(abs(u) + abs(C * v)) for u, v in
                  zip(parts[i], parts[i + 2])] for i in (0, 1)]
    return ab, got, np.array(want), np.array(scale)


def _worst(cell, k):
    _, got, want, scale = cell
    return float(np.max(np.abs(got[k] - want[k]) / scale[k]))


# bounds in units of 2**-53, the power of two at or above twice the
# worst measured: below ab = 10 that was 11.1 units for A (at
# (1e-5, 1e-3)) and 5.6 for A_s (at (1e-3, 5)); at ab = 20 the connection
# series cancels just past the switch (ROADMAP item 12), and A and A_s
# read 296 and 1004 units (3.3e-14 and 1.1e-13, at xi = 0.04)
BOUNDS = {"A": (0, 32, 1024), "A_s": (1, 16, 2048)}


@pytest.mark.parametrize("name", BOUNDS)
def test_exact_profile_matches_mpmath(cell, name):
    k, units, units_top = BOUNDS[name]
    bound = (units_top if cell[0] > 10.0 else units) * 2.0 ** -53
    assert _worst(cell, k) <= bound
