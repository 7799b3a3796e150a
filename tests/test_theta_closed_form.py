"""Theta's closed form against two independent references: the series
that sum F = 2F1(-1 + i/sqrt(2), -1 - i/sqrt(2); 1; x), its particular
solution P = -1/6 - x/2 + kappa F and their x-derivatives, against
mpmath.hyp2f1 at 40 digits; and Theta itself against the collocation
solver's profile of the same equation at chi**2 = 3 xi.

Each bound is stated beside the worst agreement measured on these points
(numpy 2.4, scipy 1.17, mpmath 1.3)."""

import math

import mpmath
import numpy as np
import pytest

from layerlab.series import solve_theta
from layerlab.sphere import (_HYP_SWITCH, SphereGeometry, _family_basis,
                             _family_rows, solve_sphere)


# x from the axis to 2e-8 short of x = 1 (the rim at xi = 1e-8 sits at
# 1 - 2e-8), with points packed on both sides of the Taylor/connection
# switch
_OFFSETS = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2])
X = np.unique(np.concatenate((
    np.linspace(0.0, 0.8, 9), [0.3, 0.5, 0.7, 0.95, 0.999, 1.0 - 2e-8],
    [_HYP_SWITCH], _HYP_SWITCH - _OFFSETS, _HYP_SWITCH + _OFFSETS)))


def _reference(x: float) -> list:
    """P, P_x, P_xx, F, F_x and F_xx at x, at 40 digits, by
    d/dx 2F1(a, b; c; x) = (a b / c) 2F1(a + 1, b + 1; c + 1; x) and
    kappa = 2/(3 F(1)), F(1) = Gamma(3)/(Gamma(a + 3) Gamma(b + 3))."""
    with mpmath.workdps(40):
        a = mpmath.mpc(-1, 1 / mpmath.sqrt(2))
        b = mpmath.conj(a)
        kappa = 2 / (3 * mpmath.re(2 / (mpmath.gamma(a + 3)
                                        * mpmath.gamma(b + 3))))
        x = mpmath.mpf(x)
        f = [mpmath.re(v) for v in (
            mpmath.hyp2f1(a, b, 1, x),
            a * b * mpmath.hyp2f1(a + 1, b + 1, 2, x),
            a * (a + 1) * b * (b + 1) / 2 * mpmath.hyp2f1(a + 2, b + 2, 3, x))]
        p = [-mpmath.mpf(1) / 6 - x / 2 + kappa * f[0],
             -mpmath.mpf(1) / 2 + kappa * f[1], kappa * f[2]]
        return [float(v) for v in p + f]


@pytest.fixture(scope="module")
def basis():
    """The closed form's (P, P_x, P_xx, F, F_x, F_xx) on X, and the
    40-digit reference."""
    # 1 - x is exact for x >= 1/2, where the connection rows read it
    return (_family_basis(_family_rows(1.5), X, 1.0 - X),
            np.array([_reference(x) for x in X]).T)


# (row of _family_basis, bound in units of 2**-53): the power of two at or
# above twice the worst measured, which was 2.1, 2.0, 9.5, 18.5, 3.6 and
# 9.7 units, in this order
BASIS_BOUNDS = {"F": (3, 8), "F_x": (4, 8), "F_xx": (5, 32), "P": (0, 64),
                "P_x": (1, 8), "P_xx": (2, 32)}


@pytest.mark.parametrize("name", BASIS_BOUNDS)
def test_basis_matches_mpmath(basis, name):
    # each of the six keeps one sign on [0, 1), so each is held to its
    # own value point by point: P too, as it falls as (1 - x)**2/8 toward
    # x = 1, where its series drops the terms that cancel.  P's worst is
    # just below the switch, where its Taylor terms cancel to a third
    k, units = BASIS_BOUNDS[name]
    got, want = basis
    rel = np.abs(got[k] - want[k]) / np.abs(want[k])
    assert float(np.max(rel)) <= units * 2.0 ** -53, X[np.argmax(rel)]


@pytest.mark.parametrize("xi", [0.1, 1e-2, 1e-3, 1e-5, 1e-8])
def test_theta_matches_the_collocation_profile(xi):
    # Theta, Theta' and Theta'' against 6 A from the collocation solve at
    # chi**2 = 3 xi and tol 1e-12, sup-relative over radii packed toward
    # the axis (where the profile varies) and spread out to the rim.
    # Measured worst: 9.6e-16, 4.3e-14 and 4.8e-14 (xi = 0.1); the last
    # two are the solver's own panel error in the slopes near R = 1.5,
    # where the closed form meets a 40-digit mpmath Theta to 8e-16
    r_e = SphereGeometry.of(xi).r_edge
    rr = np.unique(np.concatenate((np.linspace(0.0, min(5.0, r_e), 101),
                                   np.geomspace(min(5.0, r_e), r_e, 60))))
    theta = solve_theta(xi).Theta.eval(rr)
    solved = solve_sphere(xi, math.sqrt(3.0 * xi), tol=1e-12).A.eval(rr)
    for k, bound in enumerate((1e-14, 1e-13, 1e-13)):
        want = 6.0 * solved[k]
        err = float(np.max(np.abs(theta[k] - want)))
        assert err <= bound * float(np.max(np.abs(want))), (k, err)
