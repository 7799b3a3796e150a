"""Displacement series in the three near-limit regimes, and the scaled
Navier residual checker that validates their truncation orders."""

import math
import re

import numpy as np
import pytest
from scipy import special

from layerlab.series import (
    ResidualNorms,
    compressible_series_fields,
    navier_residual,
    nearly_compressible_series_fields,
    series_regime,
    solve_theta,
)
from layerlab import kernels, sphere
from layerlab.sphere import solve_sphere, sphere_field


def _gap(R):
    return 1.0 + 0.5 * np.asarray(R, dtype=float) ** 2


def _uniform_strain(R, Z):
    """A uniform strain: every retained term of the scaled system
    vanishes."""
    return 0.3 * np.asarray(R, float), 0.7 * np.asarray(Z, float)


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

def test_series_regime_classification():
    assert series_regime(1e-4, 1.0).regime == "compressible"
    assert series_regime(1e-4, 0.1).regime == "compressible"     # = 10 sqrt(xi)
    assert series_regime(1e-4, 1e-2).regime == "nearly_compressible"
    assert series_regime(1e-4, 1e-4).regime == "nearly_incompressible"
    rep = series_regime(1e-4, 1.0)
    assert rep.xi == 1e-4 and rep.mu_over_lambda == 1.0


def test_series_regime_rejects_gaps():
    # a stiffness ratio between the covered scalings has no series
    with pytest.raises(ValueError):
        series_regime(1e-4, 1e-3)
    with pytest.raises(ValueError):
        series_regime(1e-4, 0.05)
    with pytest.raises(ValueError, match="mu_over_lambda must be positive"):
        series_regime(1e-4, -1.0)


@pytest.mark.parametrize("call", [
    lambda: solve_theta(0.5),
    lambda: compressible_series_fields(0.5, 1.0, 1.0, 0.5, 0.1),
    lambda: nearly_compressible_series_fields(0.5, 0.5, 0.1),
    lambda: series_regime(0.5, 1.0),
    lambda: navier_residual(_uniform_strain, 0.5, 1.0),
], ids=["solve_theta", "compressible", "nearly_compressible", "regime",
        "residual"])
def test_series_take_the_sphere_layer_domain(call):
    # the series belong to the sphere layer: xi = 0.5 is a valid plate
    # thickness ratio but lies past the parabolic gap's xi <= 0.1
    msg = "xi must be positive and <= 0.1 for a sphere layer, got 0.5"
    with pytest.raises(ValueError, match=re.escape(msg)):
        call()


def test_series_regime_transition_tie():
    xi = 1e-4
    assert series_regime(xi, math.sqrt(xi) * (1.0 + 1e-13)).regime \
        == "nearly_compressible"
    assert series_regime(xi, xi * (1.0 - 1e-13)).regime \
        == "nearly_incompressible"


# ---------------------------------------------------------------------------
# Compressible series
# ---------------------------------------------------------------------------

def test_compressible_fields_wall_conditions():
    xi = 1e-4
    rr = np.linspace(0.0, 2.0, 41)
    gg = _gap(rr)
    ur_top, uz_top = compressible_series_fields(xi, 1.0, 1.0, rr, gg)
    # u_r carries the factor 4Z^2/s^2 - 1 = (4/s^2)(Z^2 - g^2): wall-exact
    assert np.all(ur_top == 0.0)
    # u_z hits the wall value at leading order; the O(xi) term shifts it
    dev = np.max(np.abs(uz_top - 1.0))
    assert float(dev) < 10.0 * xi


def test_compressible_fields_scalar_and_u_scaling():
    out = compressible_series_fields(1e-4, 1.0, 1.0, 1.0, 0.5, U=2.0)
    ur, uz = out
    assert np.ndim(ur) == 0 and np.ndim(uz) == 0
    ur1, uz1 = compressible_series_fields(1e-4, 1.0, 1.0, 1.0, 0.5, U=1.0)
    assert abs(float(ur) - 2.0 * float(ur1)) < 1e-15
    assert abs(float(uz) - 2.0 * float(uz1)) < 1e-15


def test_compressible_fields_validation():
    xi = 1e-4
    with pytest.raises(ValueError):
        compressible_series_fields(xi, 1.0, 1.0, 1.01 / math.sqrt(xi), 0.0)
    with pytest.raises(ValueError):
        compressible_series_fields(xi, 1.0, 1.0, 1.0, 2.0 * float(_gap(1.0)))
    for lam, mu, msg in ((0.0, 1.0, "lam must be positive and finite, got 0.0"),
                         (-1.0, 1.0, "lam must be positive and finite, got -1.0"),
                         (1.0, 0.0, "mu must be positive and finite, got 0.0")):
        with pytest.raises(ValueError, match=re.escape(msg)):
            compressible_series_fields(xi, lam, mu, 1.0, 0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["lam", "mu"])
def test_compressible_series_rejects_nonfinite_scales(name, value):
    # lam and mu lie in (0, inf); NaN fails each check (U's check is
    # test_materials.py's "compressible series U" case)
    scales = {"lam": 1.0, "mu": 1.0, name: value}
    msg = f"{name} must be positive and finite, got {value}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        compressible_series_fields(1e-3, scales["lam"], scales["mu"], 1.0,
                                   0.5)


def test_series_keep_zero_and_negative_approach():
    for U in (0.0, -2.0):
        for fields in (compressible_series_fields(1e-3, 2.0, 1.0, 1.0, 0.5, U=U),
                       nearly_compressible_series_fields(1e-3, 1.0, 0.5, U=U)):
            assert all(math.isfinite(v) for v in fields)


def test_radial_sweep_amplitude():
    # max |u_r| over the near-axis region of the nearly-compressible
    # branch is order U (the compressible branch at lam = mu carries an
    # extra sqrt(xi) and stays small)
    xi = 1e-4
    rr = np.linspace(0.0, 2.0, 201)
    best = 0.0
    for r in rr:
        zz = np.linspace(-_gap(r), _gap(r), 41)
        ur, _ = nearly_compressible_series_fields(xi, np.full_like(zz, r), zz)
        best = max(best, float(np.max(np.abs(ur))))
    assert 0.1 < best < 1.5, best


def test_compressible_series_matches_sphere_solution_near_axis():
    # against the full radial-BVP solution at (xi, chi) = (1e-4, 1):
    # u_r agrees to 2% for R <= 0.3/sqrt(xi) and to 0.1% for
    # R <= 0.2/sqrt(xi).  (Further out the series' algebraic rim tail
    # takes over and the agreement degrades; see README.)
    xi = 1e-4
    sol = solve_sphere(xi, 1.0)

    def sup_rel(cap):
        num = den = 0.0
        for r in np.linspace(0.05, cap, 181):
            g = float(_gap(r))
            zz = np.linspace(-0.9 * g, 0.9 * g, 21)
            fs = sphere_field(sol, np.full_like(zz, r), zz)
            ur_s, _ = compressible_series_fields(
                xi, 1.0, 1.0, np.full_like(zz, r), zz)
            num = max(num, float(np.max(np.abs(fs.u_r - ur_s))))
            den = max(den, float(np.max(np.abs(fs.u_r))))
        return num / den

    assert sup_rel(0.2 / math.sqrt(xi)) < 2e-3
    assert sup_rel(0.3 / math.sqrt(xi)) < 2.5e-2


# ---------------------------------------------------------------------------
# Nearly compressible series
# ---------------------------------------------------------------------------

def test_nearly_compressible_wall_conditions():
    xi = 1e-4
    rr = np.linspace(0.0, 2.0, 41)
    gg = _gap(rr)
    ur_top, uz_top = nearly_compressible_series_fields(xi, rr, gg)
    assert np.all(ur_top == 0.0)
    assert float(np.max(np.abs(uz_top - 1.0))) < 10.0 * xi


def test_nearly_compressible_u_r_larger_than_compressible():
    # at the same xi the nearly-compressible branch carries the
    # (1 + sqrt(xi)) amplitude against the compressible (lam+mu)/(2 mu)
    # factor with lam/mu = 1/sqrt(xi) >> 1 ... the two branches differ
    xi = 1e-4
    r, z = 1.0, 0.3
    ur_nc, _ = nearly_compressible_series_fields(xi, r, z)
    ur_c, _ = compressible_series_fields(xi, 1.0, 1.0, r, z)
    assert abs(float(ur_nc)) > abs(float(ur_c))


# ---------------------------------------------------------------------------
# Nearly incompressible (Theta) problem
# ---------------------------------------------------------------------------

def test_theta_matches_scaled_sphere_profile():
    # Theta(R) = 6 A(R) U where A solves the sphere BVP at chi^2 = 3 xi:
    # the closed form against the collocation solver
    for xi in (1e-2, 1e-3):
        th = solve_theta(xi)
        sol = solve_sphere(xi, math.sqrt(3.0 * xi))
        rr = np.linspace(1e-6, 1.0 / math.sqrt(xi), 301)
        theta = th.Theta.eval(rr)[0]
        a6 = 6.0 * sol.A.eval(rr)[0]
        sup = float(np.max(np.abs(a6)))
        rel = float(np.max(np.abs(theta - a6))) / sup
        assert rel <= 1e-6, (xi, rel)


def test_theta_is_a_closed_form_with_no_solve(monkeypatch):
    # solve_theta builds Theta in closed form: every collocation entry
    # point fails if reached, and the profile reports the series it sums
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_theta reached a collocation solve")

    for module, name in ((kernels, "solve_linear_bvp"),
                         (kernels, "solve_dual_bvp"),
                         (sphere, "solve_dual_bvp"), (sphere, "_radial_bvp")):
        monkeypatch.setattr(module, name, no_solve)
    th = solve_theta(1e-2)
    meta = th.Theta.meta
    assert meta["method"] == "closed form" and th.Theta.s_form is None
    assert (meta["switch"], meta["taylor_terms"],
            meta["connection_terms"]) == (0.55, 55, 55)
    assert math.isfinite(meta["C"])
    # a repeat builds the same profile, to the last bit
    rr = np.linspace(0.0, 10.0, 41)
    again = solve_theta(1e-2).Theta
    for a, b in zip(th.Theta.eval(rr), again.eval(rr)):
        assert np.array_equal(a, b)


def test_theta_field_wall_conditions():
    th = solve_theta(1e-3)
    assert th.xi == 1e-3
    rr = np.linspace(0.0, 1.0 / math.sqrt(1e-3), 101)
    gg = _gap(rr)
    uz = th.u_z0(rr, gg)
    assert float(np.max(np.abs(uz - 1.0))) < 1e-8
    ur = th.u_r0(rr, gg)
    assert np.all(ur == 0.0)


def test_theta_u_linearity():
    th1 = solve_theta(1e-3, U=1.0)
    th2 = solve_theta(1e-3, U=2.5)
    rr = np.linspace(0.1, 5.0, 11)
    a = th1.Theta.eval(rr)[0]
    b = th2.Theta.eval(rr)[0]
    assert float(np.max(np.abs(b - 2.5 * a))) < 1e-12 * float(np.max(np.abs(b)))


def test_theta_zero_approach_is_identically_zero():
    # U = 0 gives Theta = 0 exactly; the rim coefficient C is the unit
    # load's, not 0/0, since U only scales the closed form
    th = solve_theta(1e-3, U=0.0)
    rr = np.linspace(0.0, 1.0 / math.sqrt(1e-3), 101)
    for values in th.Theta.eval(rr):
        assert np.all(values == 0.0)
    assert th.Theta.meta["C"] == solve_theta(1e-3).Theta.meta["C"]


def test_theta_validation():
    with pytest.raises(ValueError):
        solve_theta(0.2)
    # the closed form has no tolerance to set
    with pytest.raises(TypeError, match="tol"):
        solve_theta(1e-3, tol=1e-10)
    # a non-finite approach is a usage error, not a singular system
    for U in (math.nan, math.inf):
        with pytest.raises(ValueError, match="U must be finite"):
            solve_theta(1e-3, U=U)


# ---------------------------------------------------------------------------
# Navier residual checker
# ---------------------------------------------------------------------------

def test_residual_returns_norms():
    xi = 1e-2
    res = navier_residual(
        lambda R, Z: compressible_series_fields(xi, 1.0, 1.0, R, Z),
        xi, 1.0)
    assert isinstance(res, ResidualNorms)
    assert res.sup_r > 0 and res.sup_z > 0 and res.normalization > 0


def test_compressible_residual_order():
    # the truncation error of the printed two-term series is O(sqrt(xi)):
    # quartering xi should halve the residual (within a factor 1.5)
    def res_at(xi):
        r = navier_residual(
            lambda R, Z: compressible_series_fields(xi, 1.0, 1.0, R, Z),
            xi, 1.0)
        return max(r.sup_r, r.sup_z)

    ratio = res_at(1e-2) / res_at(2.5e-3)
    assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5, ratio


def test_compressible_residual_small():
    res = navier_residual(
        lambda R, Z: compressible_series_fields(2.5e-3, 1.0, 1.0, R, Z),
        2.5e-3, 1.0)
    assert res.sup_r < 0.05 and res.sup_z < 0.05


def test_nearly_compressible_residual_fingerprint():
    # the printed truncation balances the radial equation at both orders
    # but leaves an O(1) z-equation remainder (its balancing first-order
    # axial correction is not part of the printed pair) - so sup_r is
    # small while sup_z is order one (xi small enough that the radial
    # equation's own O(sqrt(xi)) truncation does not blur the contrast)
    xi = 1e-4
    res = navier_residual(
        lambda R, Z: nearly_compressible_series_fields(xi, R, Z),
        xi, math.sqrt(xi))
    assert res.sup_r < 0.05, res.sup_r
    assert 0.5 < res.sup_z < 1.5, res.sup_z


def test_residual_grows_toward_regime_transition():
    # moving m = mu/lambda down from the compressible scaling toward the
    # transition degrades the compressible series monotonically
    xi = 1e-4
    vals = []
    for m in (1.0, 0.1, 0.01):
        lam = 1.0 / m
        r = navier_residual(
            lambda R, Z: compressible_series_fields(xi, lam, 1.0, R, Z),
            xi, m)
        vals.append(max(r.sup_r, r.sup_z))
    assert vals[0] < vals[1] < vals[2], vals


def test_theta_fields_satisfy_dominant_balance():
    # the Theta displacement pair kills the dominant operator rows to
    # rounding; the checker reports a tiny normalized residual
    for xi in (1e-3, 1e-2):
        th = solve_theta(xi)
        res = navier_residual(
            lambda R, Z: (th.u_r0(R, Z), th.u_z0(R, Z)), xi, xi,
            mode="dominant")
        assert max(res.sup_r, res.sup_z) <= 1e-2, (xi, res)


def test_residual_noise_guard():
    # a uniform-strain field makes every retained term vanish; the
    # checker reports exact zeros instead of amplified rounding noise
    res = navier_residual(_uniform_strain, 1e-2, 1.0)
    assert res.sup_r == 0.0 and res.sup_z == 0.0
    assert res.l2_r == 0.0 and res.l2_z == 0.0
    # a rigid translation, returned as two constants, is broadcast to the
    # grid (it raised numpy's AxisError in the differencing)
    res = navier_residual(lambda R, Z: (0.0, 1.0), 1e-3, 1.0)
    assert tuple(res) == (0.0,) * 5, res


@pytest.mark.parametrize("m", [-0.5, -1.0, -40.0])
def test_residual_noise_guard_at_negative_ratios(m):
    # mu/lambda <= -1/2 (every auxetic layer has mu/lambda < -3/2) makes
    # (1 + 2m)/xi**2 zero or negative; the floor reads the largest weight
    # magnitude, so the uniform strain still reports exact zeros
    res = navier_residual(_uniform_strain, 1e-2, m)
    assert res[:4] == (0.0, 0.0, 0.0, 0.0), res


def _harmonic_gradient(xi, k_root_xi):
    """The gradient of the harmonic potential e^{k z} J0(k r), with
    r = R sqrt(xi), z = Z xi and k sqrt(xi) = k_root_xi: an exact
    solution of the Navier system for every mu/lambda, which oscillates
    on the scale 1/k_root_xi in R."""
    k = k_root_xi / math.sqrt(xi)

    def fields(R, Z):
        e = np.exp(k * xi * Z)
        return (-k * e * special.j1(k_root_xi * R),
                k * e * special.j0(k_root_xi * R))
    return fields


def test_residual_refuses_a_grid_too_coarse_for_the_field():
    # an exact solution that the halved grid does not resolve: at
    # k sqrt(xi) = 40 the normalized sups of the two grids (9.5e-4 and
    # 1.3e-2) lie far apart, so the meter raises rather than report
    # either; at 5 both grids resolve it, and the residual is the
    # differencing noise of an exact solution (about 1e-7)
    with pytest.raises(kernels.NumericsError,
                       match="residual grid too coarse: normalized sup "
                             r"9\.503e-04 vs 1\.298e-02"):
        navier_residual(_harmonic_gradient(1e-2, 40.0), 1e-2, 1.0)
    res = navier_residual(_harmonic_gradient(1e-2, 5.0), 1e-2, 1.0)
    assert 0.0 < max(res.sup_r, res.sup_z) < 1e-6, res


@pytest.mark.parametrize("mode", ["full", "dominant"])
def test_residual_evaluates_the_pair_once_on_its_grid(mode):
    # one call of the pair on the 201 x 201 meshgrid over R in [0.25, 2.5]
    # and |Z| <= 0.9 g(0.25); the halved grid reuses its even-index slices
    xi, calls = 1e-2, []

    def fields(R, Z):
        calls.append((R, Z))
        return compressible_series_fields(xi, 1.0, 1.0, R, Z)

    res = navier_residual(fields, xi, 1.0, mode=mode)
    assert res.normalization > 0.0
    assert len(calls) == 1
    R, Z = calls[0]
    z_max = 0.9 * float(_gap(0.25))
    want_R, want_Z = np.meshgrid(np.linspace(0.25, 2.5, 201),
                                 np.linspace(-z_max, z_max, 201),
                                 indexing="ij")
    assert np.array_equal(R, want_R) and np.array_equal(Z, want_Z)


def test_residual_validation():
    with pytest.raises(ValueError, match="mode must be 'full' or 'dominant'"):
        navier_residual(_uniform_strain, 1e-2, 1.0, mode="exact")
