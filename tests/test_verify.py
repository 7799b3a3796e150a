"""The verification battery: plate force-from-fields on its fixed rule,
and the suite's properties, AC4 and Psi monotonicity swept over the whole
documented domain 0 < xi <= 0.1, 0 <= chi <= 3/2."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlab import verify
from layerlab.kernels import integrate
from layerlab.plate import field, solve_plate
from layerlab.series import solve_theta
from layerlab.sphere import solve_sphere, sphere_force

# derandomized, so every run draws the same cells and Tier-1 stays
# deterministic; no deadline, since a cold sphere solve takes a few ms
_SWEEP = settings(derandomize=True, deadline=None, database=None)

XI = st.floats(-7.0, -1.0).map(lambda e: min(10.0 ** e, 0.1))
CHI = st.one_of(st.just(0.0), st.floats(-6.0, math.log10(1.5)).map(
    lambda e: min(10.0 ** e, 1.5)))


@pytest.fixture(scope="module")
def tolerances():
    return {name: tol for name, _, tol in verify.suite()}


@pytest.mark.parametrize("xi, chi", [(0.1, 0.0), (1e-7, 0.0), (1e-7, 1.5)])
def test_force_from_fields_at_the_domain_corners(xi, chi):
    # chi = 0 has no rim layer (one panel); at (1e-7, 1.5) the layer is
    # xi/chi ~ 7e-8 wide
    assert verify.cell_properties(xi, chi)["plate force-from-fields"] < 1e-13


def test_force_rule_matches_adaptive_quadrature():
    # the adaptive reference needs a split at the rim layer, or it can
    # step over the layer unsampled
    xi, chi = 1e-7, 1.5
    sol = solve_plate(xi, chi=chi)

    def integrand(r):
        return float(field(sol, r, 1.0).s_zz) * r

    split = 1.0 - 50.0 * xi / chi
    tol = 1e-12 * abs(integrand(1.0))
    want = 2.0 * math.pi * (integrate(integrand, 0.0, split, tol=tol).value
                            + integrate(integrand, split, 1.0, tol=tol).value)
    assert abs(verify._plate_force_from_fields(sol) / want - 1.0) < 1e-14


def test_suite_reports_every_property_in_order():
    report = verify.suite()
    assert [name for name, _, _ in report] == [
        "edge-resultant plate", "edge-resultant sphere", "dirichlet",
        "sphere dual oracle", "plate force-from-fields",
        "sphere force-from-fields"]
    assert all(0.0 <= worst <= tol for _, worst, tol in report)


@settings(_SWEEP, max_examples=200)
@given(xi=XI, chi=CHI)
def test_properties_hold_over_the_domain(tolerances, xi, chi):
    for name, value in verify.cell_properties(xi, chi).items():
        assert value <= tolerances[name], (name, xi, chi, value)


@settings(_SWEEP, max_examples=25)
@given(xi=XI)
def test_theta_identity_over_the_domain(xi):
    # AC4: Theta = 6 A at chi^2 = 3 xi.  Theta's closed form is exact to
    # rounding and the solve meets tol 1e-10, so they agree far inside
    # AC4's 1e-6
    sol = solve_sphere(xi, math.sqrt(3.0 * xi))
    rr = np.linspace(0.0, 1.0 / math.sqrt(xi), 301)
    a6 = 6.0 * sol.A.eval(rr)[0]
    diff = np.abs(solve_theta(xi).Theta.eval(rr)[0] - a6)
    assert float(np.max(diff)) <= 1e-10 * float(np.max(np.abs(a6))), xi


@settings(_SWEEP, max_examples=60)
@given(xi=XI, chis=st.tuples(CHI, CHI))
def test_psi_does_not_increase_with_chi(xi, chis):
    # two chi a few ulp apart may give Psi a few ulp apart either way
    lo, hi = sorted(chis)
    psi_lo = sphere_force(solve_sphere(xi, lo)).psi
    psi_hi = sphere_force(solve_sphere(xi, hi)).psi
    assert psi_hi <= psi_lo * (1.0 + 1e-13), (xi, lo, hi, psi_lo, psi_hi)
