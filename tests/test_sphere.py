"""Bonded layer between rigid spheres: radial BVP, fields, force factors.

Two tests in this file compare computed force factors against published
two-significant-digit reference cells that the implementation reproduces
only to 2.6-3.7% (tolerance asked: 2%).  They are kept as stated and fail;
README documents the deviation.  The same cells pass the 5% two-digit
comparison, exercised in the acceptance suite.
"""

import dataclasses
import math
import re

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebvander
import pytest

from layerlab import materials, plate, regimes, series
from layerlab.kernels import (_MAX_REFINE, NumericsError, PanelPoly,
                              ToleranceNotMet,
                              _split_panels, integrate, solve_dual_bvp)
from layerlab.materials import nu_from_chi
from layerlab.sphere import (
    _EXACT_AB,
    XI_MAX_SPHERE,
    XI_MIN_SPHERE,
    PsiExtremes,
    SphereGeometry,
    _edge_closure,
    _ode_coefficients,
    _sphere_edges,
    psi_extremes,
    solve_sphere,
    sphere_field,
    sphere_force,
    sphere_potential,
)


def _gap(R):
    return 1.0 + 0.5 * R * R


# ---------------------------------------------------------------------------
# Geometry and solver basics
# ---------------------------------------------------------------------------

def test_geometry_scalings():
    sol = solve_sphere(1e-2, 0.5)
    assert abs(sol.geo.r_edge - 10.0) < 1e-12
    assert abs(sol.geo.gap(2.0) - 3.0) < 1e-15
    assert sol.geo == SphereGeometry.of(1e-2)


def test_potential_sample_matches_field_sample():
    # floats for scalar input; otherwise R and Z are read-only broadcast
    # views of the inputs, as sphere_field returns them
    sol = solve_sphere(1e-2, 0.5)
    R = np.linspace(0.0, sol.geo.r_edge, 7)[:, None]
    Z = np.linspace(-1.0, 1.0, 5)
    pot, fs = sphere_potential(sol, R, Z), sphere_field(sol, R, Z)
    for got, given, twin in ((pot.R, R, fs.R), (pot.Z, Z, fs.Z)):
        assert got.shape == (7, 5) and not got.flags.writeable
        assert np.shares_memory(got, given)
        assert np.array_equal(got, twin)
    scalar = sphere_potential(sol, 1.0, 0.5)
    assert all(type(v) is float for v in dataclasses.astuple(scalar))


def test_solver_accepts_nu_or_chi():
    s1 = solve_sphere(1e-3, 1.0)
    s2 = solve_sphere(1e-3, nu=0.25)
    assert abs(sphere_force(s1).psi - sphere_force(s2).psi) < 1e-12


def test_xi_range_guard():
    assert XI_MAX_SPHERE == 0.1
    with pytest.raises(ValueError):
        solve_sphere(0.2, 1.0)
    with pytest.raises(ValueError):
        solve_sphere(0.0, 1.0)
    # SphereGeometry.of is the one check behind every sphere-layer function
    for xi in (0.0, 0.1000001, math.nan):
        with pytest.raises(ValueError, match="<= 0.1 for a sphere layer"):
            SphereGeometry.of(xi)
    geo = SphereGeometry.of(XI_MAX_SPHERE)
    assert geo.xi == 0.1 and geo.r_edge == 1.0 / math.sqrt(0.1)


def test_dual_integrator_oracle_recorded():
    # every solve cross-checks an independent discretization; the
    # recorded sup-relative disagreement stays at rounding level
    for xi, chi in [(1e-5, 1e-3), (1e-3, 0.1), (1e-2, 1.0), (1e-1, 1.4)]:
        sol = solve_sphere(xi, chi)
        assert sol.A.meta["dual_sup_rel"] <= 1e-8, (xi, chi)


def test_oscillatory_branch_flagged():
    # beta = sqrt(1 - chi^2/(2 xi)) is stored as (re, im) and turns
    # imaginary once chi^2 > 2 xi; A itself never oscillates (q < 0)
    osc = solve_sphere(1e-3, 1.0)
    re, im = osc.beta
    assert re == 0.0 and abs(im - math.sqrt(1.0 / (2e-3) - 1.0)) < 1e-10
    damped = solve_sphere(1e-1, 0.1)
    re2, im2 = damped.beta
    assert im2 == 0.0 and abs(re2 - math.sqrt(1.0 - 0.01 / 0.2)) < 1e-12


# ---------------------------------------------------------------------------
# Incompressible closed-form oracle
# ---------------------------------------------------------------------------

def test_incompressible_profile_closed_form():
    # chi = 0 drops the undifferentiated term and the BVP integrates in
    # closed form: A(R) = 1/(2 s^2) - xi^2/(2 (1+2 xi)^2) with s = 2+R^2
    for xi in (1e-3, 1e-2):
        sol = solve_sphere(xi, 0.0)
        rr = np.linspace(1e-6, sol.geo.r_edge, 201)
        s = 2.0 + rr * rr
        want = 1.0 / (2.0 * s * s) - xi**2 / (2.0 * (1.0 + 2.0 * xi) ** 2)
        got = sol.A.eval(rr)[0]
        sup = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) < 1e-9 * sup


@pytest.mark.parametrize("xi", [1e-2, 1e-3, 1e-5, 1e-7])
def test_incompressible_third_derivative_closed_form(xi):
    # A''' = 36 R/sigma^4 - 96 R^3/sigma^5 (sigma = R^2 + 2) feeds the
    # shear stress through L'.  It is read off the s-form equation, so it
    # carries no eps |A_s| / R noise near the axis
    sol = solve_sphere(xi, 0.0)
    rr = np.concatenate([[0.0, 1e-9, 1e-6, 1e-3],
                         np.linspace(0.0, sol.geo.r_edge, 4000)])
    sg = rr * rr + 2.0
    want = 36.0 * rr / sg**4 - 96.0 * rr**3 / sg**5
    got = sol.A.eval(rr)[3]
    sup = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-10 * sup
    assert sol.A.eval(0.0)[3] == 0.0


@pytest.mark.parametrize("xi, chi", [(1e-2, 1.0), (1e-3, 0.5), (0.1, 1.4)])
def test_third_derivative_matches_the_panels(xi, chi):
    # at chi > 0 every coefficient derivative enters A'''; the s-panels
    # differentiated directly, A''' = 2R (6 A_ss + 4 s A_sss), are an
    # independent route to it
    sol = solve_sphere(xi, chi)
    poly = sol.A.s_form
    rr = np.concatenate([[0.0, 1e-9, 1e-6, 1e-3],
                         np.linspace(0.0, sol.geo.r_edge, 2001)])
    k, t = poly.locate(rr * rr)
    d3 = chebder(poly.coefs, 3, axis=1) / poly.half[:, None] ** 3
    a_sss = np.einsum("ij,ij->i", chebvander(t, d3.shape[1] - 1), d3[k])
    want = 2.0 * rr * (6.0 * poly(rr * rr)[2] + 4.0 * rr * rr * a_sss)
    got = sol.A.eval(rr)[3]
    sup = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-8 * sup


def test_incompressible_force_closed_forms():
    # the same closed form integrates to exact midplane/surface factors
    for xi in (1e-3, 1e-2):
        sol = solve_sphere(xi, 0.0)
        se = (1.0 + 2.0 * xi) / xi
        t = 0.25 - xi / (2.0 * (1.0 + 2.0 * xi))
        base = t / xi - 1.0 / (2.0 * (1.0 + 2.0 * xi) ** 2)
        want_mid = 6.0 * t + base
        want_surf = 3.0 * (math.log(se / 2.0) + 2.0 / se - 1.0) + base
        assert abs(sphere_force(sol).psi - want_mid) < 1e-9 * want_mid
        got_surf = sphere_force(sol, trace="surface").psi
        assert abs(got_surf - want_surf) < 1e-9 * want_surf


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

def test_dirichlet_data_on_spheres():
    for xi, chi in [(1e-3, 1e-3), (1e-2, 0.5), (1e-1, 1.4)]:
        sol = solve_sphere(xi, chi, U=0.3)
        rr = np.linspace(0.0, sol.geo.r_edge, 33)
        gg = _gap(rr)
        top = sphere_field(sol, rr, gg)
        bot = sphere_field(sol, rr, -gg)
        assert float(np.max(np.abs(top.u_z - 0.3))) < 1e-8 * 0.3
        assert float(np.max(np.abs(bot.u_z + 0.3))) < 1e-8 * 0.3
        # u_r carries the factor (Z^2 - g^2): exactly zero on the walls
        assert np.all(top.u_r == 0.0)
        assert np.all(bot.u_r == 0.0)


def test_field_symmetry_in_z():
    sol = solve_sphere(1e-2, 0.8)
    rr = np.full(9, 3.0)
    zz = np.linspace(-_gap(3.0), _gap(3.0), 9)
    up = sphere_field(sol, rr, zz)
    dn = sphere_field(sol, rr, -zz)
    assert np.allclose(up.u_r, dn.u_r, rtol=0, atol=1e-14)
    assert np.allclose(up.u_z, -dn.u_z, rtol=0, atol=1e-14)
    assert np.allclose(up.s_zz, dn.s_zz, rtol=1e-12, atol=1e-10)
    assert np.allclose(up.s_rz, -dn.s_rz, rtol=1e-12, atol=1e-10)


def test_field_domain_validation():
    # the field and the potential take one layer check
    sol = solve_sphere(1e-2, 0.5)
    for R, Z in [(sol.geo.r_edge * 1.01, 0.0), (1.0, _gap(1.0) * 1.01),
                 (1.0, -_gap(1.0) * 1.01), (0.0, 5.0)]:
        for fn in (sphere_field, sphere_potential):
            with pytest.raises(ValueError, match="outside"):
                fn(sol, R, Z)


def _theta():
    return series.solve_theta(1e-2)


@pytest.mark.parametrize("coord", ["R", "Z"])
@pytest.mark.parametrize("fn", [
    pytest.param(lambda R, Z: plate.field(plate.solve_plate(1e-2, chi=0.5), R, Z),
                 id="plate.field"),
    pytest.param(lambda R, Z: plate.stefan_fluid_fields(R, Z, 1.0, 1.0, 1.0, 1.0),
                 id="plate.stefan_fluid_fields"),
    pytest.param(lambda R, Z: sphere_field(solve_sphere(1e-2, 0.5), R, Z),
                 id="sphere.sphere_field"),
    pytest.param(lambda R, Z: sphere_potential(solve_sphere(1e-2, 0.5), R, Z),
                 id="sphere.sphere_potential"),
    pytest.param(lambda R, Z: series.compressible_series_fields(1e-2, 1.0, 1.0,
                                                                R, Z),
                 id="series.compressible_series_fields"),
    pytest.param(lambda R, Z: series.nearly_compressible_series_fields(1e-2, R, Z),
                 id="series.nearly_compressible_series_fields"),
    pytest.param(lambda R, Z: _theta().u_r0(R, Z), id="series.ThetaSolution.u_r0"),
    pytest.param(lambda R, Z: _theta().u_z0(R, Z), id="series.ThetaSolution.u_z0"),
])
def test_nan_coordinates_rejected(fn, coord):
    # every public function taking layer coordinates: a NaN R or Z is
    # outside every layer and must not come back as a NaN field.
    # Scalars and arrays take the same check
    fn(0.5, 0.5)
    for nan in (math.nan, np.array([0.5, math.nan])):
        R, Z = (nan, 0.5) if coord == "R" else (0.5, nan)
        with pytest.raises(ValueError):
            fn(R, Z)


def test_potential_derivative_consistency():
    # the potential's mixed derivatives commute with its gradients on a
    # finite-difference probe
    sol = solve_sphere(1e-2, 0.7)
    r0, z0, h = 2.0, 0.4, 1e-5
    p0 = sphere_potential(sol, r0, z0)
    pr = sphere_potential(sol, r0 + h, z0)
    mr = sphere_potential(sol, r0 - h, z0)
    fd_r = (float(pr.phi) - float(mr.phi)) / (2.0 * h)
    assert abs(fd_r - float(p0.phi_r)) < 1e-6 * max(1.0, abs(float(p0.phi_r)))
    pz = sphere_potential(sol, r0, z0 + h)
    mz = sphere_potential(sol, r0, z0 - h)
    fd_z = (float(pz.phi) - float(mz.phi)) / (2.0 * h)
    assert abs(fd_z - float(p0.phi_z)) < 1e-6 * max(1.0, abs(float(p0.phi_z)))


def test_edge_resultant_vanishes():
    # rim closure kills the net radial traction through the edge
    for xi, chi in [(1e-3, 0.5), (1e-2, 1.0)]:
        sol = solve_sphere(xi, chi)
        r_e = sol.geo.r_edge
        ge = _gap(r_e)
        zz = np.linspace(-ge, ge, 33)
        fs = sphere_field(sol, np.full_like(zz, r_e), zz)
        sup = max(float(np.max(np.abs(fs.s_rr))),
                  float(np.max(np.abs(fs.s_rz))))
        q = integrate(lambda z: float(sphere_field(sol, r_e, z).s_rr),
                      -ge, ge, tol=1e-10 * sup * ge)
        assert abs(q.value) / (2.0 * ge * sup) < 1e-8, (xi, chi)


# ---------------------------------------------------------------------------
# Force factors
# ---------------------------------------------------------------------------

def test_force_scaling_and_trace():
    base = sphere_force(solve_sphere(1e-2, 1.0))
    scaled = sphere_force(solve_sphere(1e-2, 1.0, mu=3.0, a=2.0, U=0.25))
    # psi is dimensionless, F = 6 pi a mu U psi
    assert abs(scaled.psi - base.psi) < 1e-13
    assert abs(scaled.F / (base.F * 3.0 * 2.0 * 0.25) - 1.0) < 1e-13
    want = 6.0 * math.pi * 1.0 * 1.0 * 1.0 * base.psi
    assert abs(base.F - want) < 1e-12 * want
    with pytest.raises(ValueError):
        sphere_force(solve_sphere(1e-2, 1.0), trace="equator")


def test_force_regression_values():
    # full-precision pins of the midplane force factor (solver defaults)
    assert abs(sphere_force(solve_sphere(1e-2, 1.0)).psi
               - 3.369833210963936) < 1e-9
    got = sphere_force(solve_sphere(1e-5, 1e-3)).psi
    assert abs(got / 2.469e4 - 1.0) < 1e-3


@pytest.mark.parametrize("xi, chi, psi, panels, residual_sup", [
    pytest.param(1e-3, 1e-3, 250.4687523693668, 53, 1.7807005869840964e-12,
                 id="0.001-0.001"),
    pytest.param(1e-2, 1.0, 3.369833210963936, 39, 1.071365218763276e-14,
                 id="0.01-1.0"),
    pytest.param(1e-5, 1.0, 10.188935818678516, 80, 7.771561172376096e-16,
                 id="1e-05-1.0"),
    pytest.param(1e-2, 0.0, 25.499807766243727, 39, 1.7822132658551482e-12,
                 id="0.01-0.0"),
])
def test_solver_answers_pinned(xi, chi, psi, panels, residual_sup):
    # full-precision pins of the force factor, the accepted mesh and its
    # residual.  psi is the answer: a speedup must leave it where it is.
    # panels and residual_sup describe the discretization and move only
    # with it; residual_sup is a rounding-level diagnostic, so it also
    # moves with the arithmetic that evaluates the panels (the ids name
    # the cell, so a re-pin keeps the test's name)
    sol = solve_sphere(xi, chi)
    assert abs(sphere_force(sol).psi / psi - 1.0) <= 1e-12
    assert sol.A.meta["panels"] == panels
    assert abs(sol.A.meta["residual_sup"] / residual_sup - 1.0) <= 1e-12


def test_cached_profile_is_read_only():
    # a repeat solve hands every caller the one cached profile, so no
    # caller may change it: each write raises (each writes the values
    # already there, so a build that let it through keeps its answers)
    sol = solve_sphere(1e-2, 1.0)
    poly, meta = sol.A.s_form, sol.A.meta
    for arr in (poly.edges, poly.coefs, poly.half, poly.mid, poly._series,
                meta["edges"]):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = arr
    with pytest.raises(TypeError):
        meta["dual_sup_rel"] = meta["dual_sup_rel"]
    again = solve_sphere(1e-2, 1.0)
    assert again.A is sol.A
    assert sphere_force(again).psi == 3.36983321096392
    assert again.A.meta["panels"] == meta["panels"]


@pytest.mark.parametrize("xi, chi, midplane, surface", [
    (1e-2, 1.0, 3.36983321096392, 4.313802484514438),       # alt reference
    (1e-4, 1e-3, 2497.379807583656, 2518.4254126293267),   # exact reference
])
def test_force_and_potential_read_the_record_the_solve_formed(
        monkeypatch, xi, chi, midplane, surface):
    # the solve's dual check forms the panels' Gauss record (nodes,
    # weights, A and A_s) once; afterwards the force on both traces and
    # the potential read only that record, the rim values and the rule
    # below each radius, so with PanelPoly.grid broken they still return
    # the doubles they gave before the record existed.  The record is
    # shared through the profile cache, so every array of it is read-only
    sol = solve_sphere(xi, chi)

    def grid(*args):
        raise AssertionError("a panel series was evaluated after the solve")

    monkeypatch.setattr(PanelPoly, "grid", grid)
    assert sphere_force(sol).psi == midplane
    assert sphere_force(sol, trace="surface").psi == surface
    if xi == 1e-2:
        pot = sphere_potential(sol, np.array([0.0, 0.5, 3.0, 10.0]), 0.5)
        assert pot.phi.tolist() == [
            6.1224490612734655e-06, 1.4980137518397147e-05,
            0.0003421943281517335, 0.0026621263554548083]
        assert pot.phi_z.tolist() == [
            3.673469436764079e-05, 5.1615610713276716e-05,
            0.0006880655974837834, 0.005324419091867999]
    record = sol.A.s_form.gauss
    assert len(record) == 4 and record is sol.A.s_form.gauss
    for arr in record:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = arr


@pytest.mark.parametrize("chi", [0.05, 0.3, 1.0, 1.4])
def test_fields_meet_the_navier_equations(chi):
    # sphere_field's (u_r, u_z) through the scaled 3-D Navier equations
    # (series.navier_residual), at mu/lambda = (1 - 2 nu)/(2 nu), nu(chi).
    # The r-equation holds to the 4th-order differencing floor: at most
    # 2.1e-8 of the largest term over these cells, against 1e-7 here (a
    # 0.1% error in u_r's chi**2 coefficient lifts it to 3e-4 at
    # (1e-2, 1)).  The z-equation's defect is the reduced theory's own
    # order: at chi = 1 it is 0.66, 0.10 and 0.010 at xi = 1e-2, 1e-4 and
    # 1e-6, so it falls by at least 5 per factor 100 in xi, and by the
    # sqrt(xi) ratio 10, within 20%, once xi <= 1e-4
    nu = nu_from_chi(chi)
    sup_z = []
    for xi in (1e-2, 1e-4, 1e-6):
        sol = solve_sphere(xi, chi)

        def fields(R, Z, sol=sol):
            f = sphere_field(sol, R, Z)
            return f.u_r, f.u_z

        res = series.navier_residual(fields, xi, (1.0 - 2.0 * nu) / (2.0 * nu))
        assert res.sup_r <= 1e-7, (xi, res.sup_r)
        sup_z.append(res.sup_z)
    if chi == 1.0:
        assert sup_z[0] / sup_z[1] >= 5.0, sup_z
        assert 10.0 / 1.2 <= sup_z[1] / sup_z[2] <= 10.0 * 1.2, sup_z


TABLE_CELLS = [(xi, chi) for xi in (1e-5, 1e-4, 1e-3, 1e-2)
               for chi in (1e-3, 1e-2, 0.1, 1.0)]


def _force_integrand(sol, trace):
    """(R/3) sigma_zz along the chosen trace, written out apart from the
    library; scalar or array R > 0 (quadrature nodes are interior)."""
    c9 = 9.0 - 2.0 * sol.chi ** 2

    def fn(r):
        a0, a1, a2, *_ = sol.A.eval(r)
        g = 1.0 + 0.5 * r * r
        if trace == "midplane":
            core = -c9 * ((a2 + a1 / r) * g * g + 2.0 * g * r * a1)
        else:
            core = -2.0 * c9 * g * r * a1
        return (r / 3.0) * (core + 6.0 * a0 / sol.xi)

    return fn


def _panel_gauss(fn, edges, n):
    """n-point Gauss-Legendre on every panel between consecutive edges."""
    t, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * t
    return float(np.sum(half * w * fn(nodes.ravel()).reshape(nodes.shape)))


def test_force_matches_adaptive_quadrature():
    # the fixed panel rule against adaptive Gauss-Kronrod of the same
    # integrand over the whole radius, on every table cell and both traces
    for xi, chi in TABLE_CELLS:
        sol = solve_sphere(xi, chi)
        for trace in ("midplane", "surface"):
            psi = sphere_force(sol, trace=trace).psi
            ref = integrate(_force_integrand(sol, trace), 0.0,
                            sol.geo.r_edge, tol=1e-12 * abs(psi)).value
            assert abs(psi / ref - 1.0) <= 1e-12, (xi, chi, trace)


@pytest.mark.parametrize("xi, chi", [
    (1e-2, 1.0), (1e-4, 1.0), (1e-8, 1.5), (0.1, 0.5), (1e-76, 1.0),
    (1e-3, 0.1), (1e-2, 1e-2), (1e-3, 1e-3)])
def test_moment_identity(xi, chi):
    # with w = R (R^2 + 2)^3 and M_j = int_0^{R_e^2} s^j A ds, the profile
    # equation integrates to 2 M0 + M1 = (xi / (2 chi^2)) (w_e A'(R_e) +
    # 2 R_e^2), and w_e A'(R_e) = 2 s_e (s_e + 2)^3 A_s(s_e) in s = R^2.
    # M_j by the force's 6-point rule on every panel, the rim values by
    # PanelPoly.end.  The rim sum cancels as chi -> 0 (w_e A'(R_e) ~
    # -2 R_e^2), which amplifies its rounding by kappa, the sum of the
    # terms' magnitudes over the magnitude of their sum: about 1/chi^2,
    # far more than xi/chi^2 (7e5 at (1e-3, 1e-3)).  Measured errors are
    # at most 2 eps kappa, at (1e-8, 1.5)
    sol = solve_sphere(xi, chi)
    s, w, a, _ = sol.A.s_form.gauss
    se, _, ae_s, _ = sol.A.s_form.end()
    moments = 2.0 * float(np.sum(w * a)) + float(np.sum(w * s * a))
    rim = 2.0 * se * (se + 2.0) ** 3 * ae_s
    kappa = (abs(rim) + 2.0 * se) / abs(rim + 2.0 * se)
    want = xi / (2.0 * chi * chi) * (rim + 2.0 * se)
    assert abs(moments / want - 1.0) <= 10.0 * np.finfo(float).eps * kappa


def _served(xi, chi):
    """Whether solve_sphere checks the cell against the exact profile:
    1e-300 <= ab <= 20 and ab != 1, ab = chi**2/(2 xi)."""
    ab = chi * chi / (2.0 * xi)
    return _EXACT_AB[0] <= ab <= _EXACT_AB[1] and ab != 1.0


def _alt_checked(xi, chi, tol=1e-10):
    """The cell's profile solved again through solve_dual_bvp on the
    default mesh with the alt discretization as its reference, whatever
    reference solve_sphere takes there."""
    geo = SphereGeometry.of(xi)
    return solve_dual_bvp(_ode_coefficients(xi, chi), _edge_closure(geo, chi),
                          tol, f"at ({xi:g}, {chi:g})",
                          mesh=_sphere_edges(geo))


def _assert_reference(meta, xi, chi):
    """solve_sphere's meta names the reference the cell gets, and a cell
    checked against the exact profile meets it to 1e-12."""
    if _served(xi, chi):
        assert meta["reference"] == "exact" and "alt_panels" not in meta
        assert meta["dual_sup_rel"] <= 1e-12, (xi, chi)
    else:
        assert meta["reference"] == "alt", (xi, chi)


@pytest.mark.parametrize("xi, chi, reference", [
    (0.03125, 1.118, "exact"),      # ab = 19.9988
    (0.03125, 1.1181, "alt"),       # ab = 20.002, past the range
    (0.03125, 0.25, "alt"),         # ab = 1 exactly, the pole of p1
    (1e-2, 0.0, "alt"),             # chi = 0
    (0.1, 1e-150, "exact"),         # ab = 5e-300
    (0.1, 1e-160, "alt"),           # chi**2 is subnormal
])
def test_reference_follows_ab(xi, chi, reference):
    # ab = chi**2/(2 xi) alone picks the reference, at both ends of the
    # range and at its one excluded point; each cell solves and checks
    # (no warning: a warning fails this suite)
    meta = solve_sphere(xi, chi).A.meta
    assert meta["reference"] == reference
    assert meta["dual_sup_rel"] <= (1e-12 if reference == "exact" else 1e-8)


def test_table_cells_solve_at_tight_tolerance():
    # every table cell meets tol = 1e-12, where the R-form solver stalled
    # on its rounding floor, and keeps its default-tolerance answer; only
    # the panels over tolerance are split, so no cell takes the 238
    # panels of a doubled 119-panel mesh, and the two discretizations
    # agree within the gate min(1e-8, 100 tol) = 1e-10 (the alt one
    # solved explicitly, since solve_sphere checks the cells with
    # 1e-300 <= ab <= 20 against the exact profile instead)
    for xi, chi in TABLE_CELLS:
        sol = solve_sphere(xi, chi, tol=1e-12)
        meta = sol.A.meta
        assert meta["residual_sup"] <= 1e-12 * meta["residual_scale"]
        assert meta["panels"] < 238
        assert meta["dual_gate"] == 1e-10
        assert meta["dual_sup_rel"] <= 1e-10, (xi, chi)
        _assert_reference(meta, xi, chi)
        alt = _alt_checked(xi, chi, 1e-12).meta
        assert alt["reference"] == "alt" and alt["alt_panels"] < 2 * 238
        assert alt["dual_gate"] == 1e-10
        assert alt["dual_sup_rel"] <= 1e-10, (xi, chi)
        psi = sphere_force(sol).psi
        assert abs(psi / sphere_force(solve_sphere(xi, chi)).psi - 1.0) <= 1e-12


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("xi, chi, psi", [
    (1e-8, 1.5, 7.688642453981314),
    (1e-7, 1.5, 6.665271893823383),
    (1e-6, 1.0, 12.491322534840009),
])
def test_domain_corner_solves_on_bounded_mesh(xi, chi, psi, tol):
    # the corner of the domain where chi/sqrt(xi) is largest: the mesh must
    # not grow with it (at most one doubling of the 119-panel default) and
    # psi holds to 1e-12
    sol = solve_sphere(xi, chi, tol=tol)
    meta = sol.A.meta
    assert meta["panels"] <= 238
    assert meta["dual_sup_rel"] <= 1e-8
    assert abs(sphere_force(sol).psi / psi - 1.0) <= 1e-12


# the cells of verify-suite's 5x5 grid and the chi = 0 anchors
SUITE_CELLS = [(float(xi), float(chi)) for xi in np.geomspace(1e-4, 1e-1, 5)
               for chi in np.geomspace(1e-3, 1.4, 5)]
ANCHOR_CELLS = [(1e-3, 0.0), (1e-2, 0.0)]


def test_default_mesh_needs_no_refinement():
    # the graded default mesh meets the default tolerance as it stands,
    # in both discretizations (the alt one solved explicitly), and never
    # takes more panels than the 119 of the fixed 96-panel tail it
    # replaced
    for xi, chi in TABLE_CELLS + SUITE_CELLS + ANCHOR_CELLS:
        meta = solve_sphere(xi, chi).A.meta
        assert meta["passes"] == 0, (xi, chi)
        assert _alt_checked(xi, chi).meta["alt_passes"] == 0, (xi, chi)
        assert meta["panels"] <= 119, (xi, chi)
        assert meta["dual_gate"] == 1e-8
        _assert_reference(meta, xi, chi)


def _solve_on(xi, chi, mesh):
    """solve_sphere(xi, chi) with its profile solved again, by the
    sphere's own equation and rim row at the default tolerance, on the
    R panel edges mesh."""
    sol = solve_sphere(xi, chi)
    radial = solve_dual_bvp(_ode_coefficients(sol.xi, sol.chi),
                            _edge_closure(sol.geo, sol.chi), 1e-10,
                            f"on a test mesh at ({xi:g}, {chi:g})", mesh=mesh)
    return dataclasses.replace(sol, A=radial)


def _coarse_mesh(xi):
    """A coarse 33-panel mesh: the axis panel, 8 uniform panels out to
    R = 4 and 24 log-spaced panels from there to the rim."""
    return np.concatenate(([0.0], np.linspace(0.0625, 4.0, 9),
                           np.geomspace(4.0, 1.0 / math.sqrt(xi), 25)[1:]))


def test_coarse_user_mesh_recovers_by_refinement():
    # the coarse mesh at (1e-5, 1e-3) once ran out of refinement passes;
    # it now meets the default tolerance and the default-mesh answer,
    # splitting only the panels over tolerance (fewer than the 66 of a
    # doubling)
    sol = _solve_on(1e-5, 1e-3, _coarse_mesh(1e-5))
    meta = sol.A.meta
    assert meta["residual_sup"] <= 1e-10 * meta["residual_scale"]
    assert meta["passes"] == 1 and 33 < meta["panels"] < 66
    psi = sphere_force(sol).psi
    assert abs(psi / sphere_force(solve_sphere(1e-5, 1e-3)).psi - 1.0) <= 1e-12


def test_unreachable_tolerance_names_floor_and_panels():
    # 1e-15 is below the s-form residual's rounding floor: refinement
    # stops when a pass no longer lowers the residual, inside the pass
    # limit, and the error names the floor and where the excess sits
    with pytest.raises(ToleranceNotMet, match=r"stopped falling\) at a floor "
                       r"of .* of scale, with panels over tolerance at R in "
                       r"\[") as exc:
        solve_sphere(1e-3, 1e-3, tol=1e-15)
    err = exc.value
    assert err.passes < _MAX_REFINE
    assert 1e-15 < err.floor == err.residual / err.scale < 1e-12
    assert err.intervals and all(0.0 <= lo < hi <= 1.0 / math.sqrt(1e-3)
                                 for lo, hi in err.intervals)


# the panels of the default mesh at each cell with every panel split twice
FINE_PANELS = {(1e-8, 1.5): 476, (1e-5, 1.0): 320, (1e-4, 0.3): 268,
               (1e-2, 0.7): 156, (1e-2, 1.0): 156, (1e-3, 1e-3): 212}


@pytest.mark.parametrize("xi, chi", FINE_PANELS)
def test_fields_match_fine_mesh(xi, chi):
    # every field on the graded default mesh against a solve on the same
    # mesh with every panel split twice, on a 2001 x 21 grid, to 1e-10 of
    # the field's sup
    sol = solve_sphere(xi, chi)
    ref = _solve_on(xi, chi, _split_panels(_split_panels(
        _sphere_edges(sol.geo))))
    assert ref.A.meta["panels"] == FINE_PANELS[xi, chi]
    R = np.linspace(0.0, sol.geo.r_edge, 2001)[:, None]
    Z = _gap(R) * np.linspace(-1.0, 1.0, 21)
    got, want = sphere_field(sol, R, Z), sphere_field(ref, R, Z)
    for name in ("u_r", "u_z", "s_rr", "s_tt", "s_zz", "s_rz"):
        g, w = getattr(got, name), getattr(want, name)
        assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w)), name


def test_force_converged_on_coarse_mesh():
    # on a coarse mesh (33 panels here) the 6-point rule in s already
    # equals 24 points per panel in R: the rule sets no part of the answer
    sol = _solve_on(1e-5, 1.0, _coarse_mesh(1e-5))
    edges = np.concatenate(([0.0], sol.A.meta["edges"]))
    for trace in ("midplane", "surface"):
        fine = _panel_gauss(_force_integrand(sol, trace), edges, 24)
        assert abs(sphere_force(sol, trace=trace).psi / fine - 1.0) <= 1e-14, trace


def test_potential_matches_adaptive_quadrature():
    # integral of A1 = -3 g^2 A' from 0, against adaptive quadrature panel
    # by panel, at the axis, the rim, radii exactly on panel edges and
    # radii inside panels
    rng = np.random.default_rng(11)
    for xi, chi in [(1e-2, 1.0), (1e-1, 1.4)]:
        sol = solve_sphere(xi, chi)
        edges = np.concatenate(([0.0], sol.A.meta["edges"]))

        def a1(r):
            g = 1.0 + 0.5 * r * r
            return -3.0 * g * g * sol.A.eval(r)[1]

        cum = np.cumsum([0.0] + [integrate(a1, lo, hi, tol=1e-15).value
                                 for lo, hi in zip(edges[:-1], edges[1:])])
        on = [0, 1, 2, 7, len(edges) // 2, len(edges) - 2, len(edges) - 1]
        inside = rng.uniform(0.0, sol.geo.r_edge, 8)
        k = np.searchsorted(edges, inside, side="right") - 1
        want = np.concatenate((cum[on], [
            cum[j] + integrate(a1, edges[j], r, tol=1e-15).value
            for j, r in zip(k, inside)]))
        radii = np.concatenate((edges[on], inside))
        assert radii[0] == 0.0 and radii[len(on) - 1] == sol.geo.r_edge
        got = sphere_potential(sol, radii, 0.0).phi_z / xi
        sup = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 1e-13 * sup, (xi, chi)


def test_field_column_r_matches_full_grid():
    # a column R against a Z grid gives the same doubles as the fully
    # broadcast R grid
    for xi, chi in [(1e-2, 1.0), (1e-3, 0.0), (1e-1, 1.4)]:
        sol = solve_sphere(xi, chi)
        rr = np.linspace(0.0, sol.geo.r_edge, 57)
        zz = _gap(rr)[:, None] * np.linspace(-1.0, 1.0, 9)
        col = sphere_field(sol, rr[:, None], zz)
        full = sphere_field(sol, np.broadcast_to(rr[:, None], zz.shape), zz)
        for name in ("R", "Z", "u_r", "u_z", "s_rr", "s_tt", "s_zz", "s_rz"):
            got, want = getattr(col, name), getattr(full, name)
            assert got.shape == zz.shape and np.array_equal(got, want), name


@pytest.mark.parametrize("xi, chi", [(1e-2, 1.0), (1e-3, 1e-3), (1e-1, 1.4)])
def test_field_matches_docstring_formulas(xi, chi):
    # the fields written out term by term from the module docstring, on
    # the profile's own A..A''' away from the axis (R >= 0.5, so the
    # plain 1/R and 1/R**2 quotients are harmless), with no coefficient
    # form and no sharing with sphere.py's assembly
    sol = solve_sphere(xi, chi, mu=1.3, a=0.7, U=1.9)
    mu, a, U, c2 = 1.3, 0.7, 1.9, chi * chi
    R = np.linspace(0.5, sol.geo.r_edge, 73)[:, None]
    g = _gap(R)
    Z = g * np.linspace(-1.0, 1.0, 11)
    A, A1, A2, A3, *_ = sol.A.eval(R)
    zm = Z ** 2 - g ** 2
    L = A2 + A1 / R
    V = -3.0 * g ** 2 * L - 6.0 * g * R * A1
    Lp = A3 + A2 / R - A1 / R ** 2
    Vp = (-6.0 * ((R ** 2 + g) * A1 + g * R * A2)
          - 3.0 * (2.0 * g * R * L + g ** 2 * Lp))
    s_scale = mu * U / (a * xi)
    want = {
        "u_r": -(3.0 - c2) * (U / math.sqrt(xi)) * A1 * zm,
        "u_z": U * ((V + 2.0 * c2 * A / xi) * Z + L * Z ** 3),
        "s_zz": s_scale * ((9.0 - 2.0 * c2) * (L * zm - 2.0 * g * R * A1)
                           + 6.0 * A / xi),
        "s_rr": s_scale * ((3.0 - 2.0 * c2) * (L * zm - 2.0 * g * R * A1
                                               + 2.0 * A / xi)
                           - 2.0 * (3.0 - c2) * (A2 * zm - 2.0 * g * R * A1)),
        "s_tt": s_scale * ((3.0 - 2.0 * c2) * (L * zm - 2.0 * g * R * A1
                                               + 2.0 * A / xi)
                           - 2.0 * (3.0 - c2) * (A1 / R) * zm),
        "s_rz": (mu * U / (a * xi ** 1.5)) * (
            (4.0 * c2 - 6.0) * A1 * Z + xi * (Vp * Z + Lp * Z ** 3)),
    }
    fs = sphere_field(sol, R, Z)
    for name, w in want.items():
        got = getattr(fs, name)
        assert got.shape == Z.shape
        assert np.max(np.abs(got - w)) <= 1e-11 * np.max(np.abs(w)), name


def test_surface_trace_exceeds_midplane_at_order_one_chi():
    sol = solve_sphere(1e-2, 1.0)
    psi_mid = sphere_force(sol).psi
    psi_surf = sphere_force(sol, trace="surface").psi
    assert abs(psi_surf - 4.313802484514407) < 1e-9
    assert psi_surf > psi_mid


def test_psi_extremes_closed_forms():
    xi, chi = 1e-3, 0.3
    ex = psi_extremes(xi, chi)
    assert isinstance(ex, PsiExtremes)
    assert abs(ex.psi_i - 1.0 / (4.0 * xi)) < 1e-12 / xi
    want_c = math.log(1.0 / (2.0 * xi)) / chi**2
    assert abs(ex.psi_c - want_c) < 1e-12 * want_c
    with pytest.raises(ValueError, match="xi must be positive"):
        psi_extremes(0.0, 1.0)
    # the domain is solve_sphere's: 0 < xi <= XI_MAX_SPHERE, 0 <= chi <= 3/2
    with pytest.raises(ValueError, match="xi must be positive"):
        psi_extremes(0.6, 1.0)
    for chi in (-1.0, 7.0):
        with pytest.raises(ValueError, match="chi must lie in"):
            psi_extremes(1e-3, chi)
    assert psi_extremes(XI_MAX_SPHERE, 1.5).psi_c > 0.0
    assert psi_extremes(1e-3, 0.0).psi_c == math.inf
    # ln(1/(2 xi))/chi**2 has no cancellation: it is finite below the
    # plate's chi = 1e-10 family, and inf only where chi**2 is 0
    assert psi_extremes(1e-2, 5e-11).psi_c == 1.5648092021712583e+21
    assert psi_extremes(1e-3, 1e-170).psi_c == math.inf    # chi**2 underflows


def test_printed_reference_cells_two_digit():
    # cells the implementation reproduces within the published table's
    # two-significant-digit resolution
    cases = [
        (1e-5, 1e-3, 25000.0),
        (1e-4, 1e-3, 2500.0),
        (1e-2, 1e-3, 26.0),
        (1e-2, 1.0, 3.4),
        (1e-5, 1.0, 10.3),
    ]
    for xi, chi, ref in cases:
        psi = sphere_force(solve_sphere(xi, chi)).psi
        assert abs(psi / ref - 1.0) < 5e-2, (xi, chi, psi, ref)


def test_printed_reference_cell_thin_nearly_incompressible_tight():
    # published cell (xi, chi) = (1e-3, 1e-3): 260; computed 250.47.
    # The 3.7% gap exceeds the 2% asked here; kept as stated (see README)
    psi = sphere_force(solve_sphere(1e-3, 1e-3)).psi
    assert abs(psi / 260.0 - 1.0) <= 2e-2, f"computed {psi:.6g} vs 260"


def test_printed_reference_cell_moderate_chi_tight():
    # published cell (xi, chi) = (1e-4, 1): 8.1; computed 7.888.  The
    # 2.6% gap exceeds the 2% asked here; kept as stated (see README)
    psi = sphere_force(solve_sphere(1e-4, 1.0)).psi
    assert abs(psi / 8.1 - 1.0) <= 2e-2, f"computed {psi:.6g} vs 8.1"


def test_psi_monotone_decreasing_in_chi():
    xi = 1e-3
    vals = [sphere_force(solve_sphere(xi, c)).psi
            for c in (1e-3, 1e-2, 0.1, 0.5, 1.0, 1.4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_psi_approaches_incompressible_plateau():
    # chi -> 0 at fixed xi: psi approaches 1/(4 xi) from above as the
    # layer thins (exact at xi -> 0; ~2% high at xi = 1e-2)
    for xi, tol in [(1e-4, 5e-3), (1e-3, 7e-3), (1e-2, 2.1e-2)]:
        psi = sphere_force(solve_sphere(xi, 1e-6)).psi
        plateau = 1.0 / (4.0 * xi)
        assert 1.0 - 1e-9 < psi / plateau < 1.0 + tol, (xi, psi / plateau)


# ---------------------------------------------------------------------------
# The small-xi end of the domain
# ---------------------------------------------------------------------------

def test_small_xi_force_keeps_its_plateau():
    # Psi - Psi_c settles by xi = 1e-20 and holds on both traces down to
    # the floor XI_MIN_SPHERE (drift measured at most 2.7e-12; at chi = 1
    # the plateau is -0.631068 midplane, +0.472786 surface), and at
    # chi = 0, Psi = Psi_i = 1/(4 xi) on both.  A midplane trace that
    # reads A_ss on the Gauss nodes goes wrong from xi ~ 1e-81, where
    # A_ss underflows there
    for chi in (0.1, 1.0, 1.5):
        plateau = None
        for xi in (1e-20, 1e-50, XI_MIN_SPHERE):
            sol = solve_sphere(xi, chi)
            psi_c = psi_extremes(xi, chi).psi_c
            got = np.array([sphere_force(sol, trace).psi - psi_c
                            for trace in ("midplane", "surface")])
            plateau = got if plateau is None else plateau
            assert np.all(np.abs(got - plateau) <= 1e-9), (xi, chi, got)
        if chi == 1.0:
            assert np.all(np.abs(plateau - (-0.631068, 0.472786)) < 1e-6)
    for xi in (1e-50, XI_MIN_SPHERE):
        sol = solve_sphere(xi, 0.0)
        for trace in ("midplane", "surface"):
            assert abs(4.0 * xi * sphere_force(sol, trace).psi - 1.0) <= 1e-14


def test_fields_at_the_xi_floor_raise_no_warning():
    # the suite turns every numpy warning into a failure: at the floor the
    # fields, the potential and the Theta fields stay in double range out
    # to the rim (ode_s's 12 / sigma**4 overflows from xi ~ 7e-78)
    sol = solve_sphere(XI_MIN_SPHERE, 1.0)
    R = np.linspace(0.0, sol.geo.r_edge, 201)[:, None]
    Z = np.linspace(-1.0, 1.0, 5) * sol.geo.gap(R)
    for sample in (sphere_field(sol, R, Z), sphere_potential(sol, R, Z)):
        for value in dataclasses.astuple(sample):
            assert np.all(np.isfinite(value))
    theta = series.solve_theta(XI_MIN_SPHERE)
    for value in (theta.u_r0(R, Z), theta.u_z0(R, Z)):
        assert np.all(np.isfinite(value))


@pytest.mark.parametrize("xi", [9.9e-77, 1e-81, 1e-103, 5e-324])
def test_xi_below_the_floor_refused(xi):
    # below XI_MIN_SPHERE every sphere-layer function refuses, with the
    # floor in its message, where it used to answer wrong (the profile
    # from xi ~ 1e-103) or fail late ("singular system" at 1e-160)
    assert XI_MIN_SPHERE == 1e-76
    for call in (lambda: solve_sphere(xi, 1.0),
                 lambda: psi_extremes(xi, 1.0),
                 lambda: regimes.classify("sphere", xi, 1.0),
                 lambda: series.solve_theta(xi)):
        with pytest.raises(ValueError, match=r"xi must be >= 1e-76 for a "
                                             r"sphere layer .*, got "):
            call()
    assert XI_MIN_SPHERE is materials.XI_MIN


# chi for the domain sweep: 0, subnormal-squared and tiny values, and
# ordinary ones up to the top of the range
SWEEP_CHIS = (0.0, 1e-300, 1e-160, 1e-3, 0.3, 1.0, 1.2, 1.5)


def test_psi_over_the_domain():
    # xi at both ends of [1e-76, 0.1] and one log-uniform draw (seeded)
    # between, across SWEEP_CHIS (24 solves).  Psi is finite and positive
    # on both traces, and at each xi the midplane Psi never rises with chi
    # and never exceeds Psi(xi, 0), to 1e-12 (over 12 xi x 8 chi, 96
    # solves, both held).  Below the floor both layers refuse
    rng = np.random.default_rng(43)
    for xi in (XI_MIN_SPHERE, XI_MAX_SPHERE, 10.0 ** rng.uniform(-76.0, -1.0)):
        mids = []
        for chi in SWEEP_CHIS:
            sol = solve_sphere(xi, chi)
            psi = [sphere_force(sol, trace).psi
                   for trace in ("midplane", "surface")]
            assert all(0.0 < p < math.inf for p in psi), (xi, chi, psi)
            mids.append(psi[0])
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(mids, mids[1:])), (
            xi, mids)
        assert max(mids) <= mids[0] * (1.0 + 1e-12), (xi, mids)
    for call in (solve_sphere, plate.solve_plate):
        with pytest.raises(ValueError, match="xi must be >= 1e-76"):
            call(9.9e-77, 1.0)


@pytest.mark.parametrize("chi", [0.3, 1.0, 1.4])
def test_stresses_meet_hookes_law(chi):
    # s_rr, s_tt, s_zz and s_rz against lambda tr(eps) + 2 mu eps_ii and
    # 2 mu eps_rz, with the strains differenced from sphere_field's own
    # (u_r, u_z) by navier_residual's 4th-order stencils on its window
    # (r = a sqrt(xi) R, z = a xi Z; lambda/mu = (3 - 2 chi**2)/chi**2).
    # Each defect, over its component's scale (mu U/(a xi) for the normal
    # stresses, mu U/(a xi**1.5) for the shear), is differencing error
    # alone: it falls 15-16 times when the step halves, and in proportion
    # to xi, since u_r and u_z are polynomials in Z (differenced exactly)
    # and the R-derivatives enter the stresses at relative order xi.
    # Measured at xi = 1e-2 .. 1e-6: normal stresses at most 1.6e-5 xi
    # (chi = 0.3; 6.5e-8 xi at chi = 1), the shear 8.6e-9 xi.  So all four
    # meet Hooke's law at every order in xi.  In a scratch copy, a 0.1%
    # error in the chi**2 coefficient of s_zz's k9 = 9 - 2 chi**2 lifted
    # its defect to 2.1e-5 at xi = 1e-2 (bound 1e-6), one in s_rr's
    # k6 = 2 (3 - chi**2) to 1.1e-5, and one in s_rz's 4 chi**2 - 6 to
    # 8.4e-6 (bound 1e-9)
    lam = (3.0 - 2.0 * chi * chi) / (chi * chi)
    core = (slice(2, -2), slice(2, -2))
    for xi in (1e-2, 1e-4):
        sol = solve_sphere(xi, chi)
        z_max = 0.9 * sol.geo.gap(series._R_WINDOW[0])
        rr = np.linspace(*series._R_WINDOW, series._GRID_N)
        zz = np.linspace(-z_max, z_max, series._GRID_N)
        f = sphere_field(sol, *np.meshgrid(rr, zz, indexing="ij"))
        hr, hz, sq = rr[1] - rr[0], zz[1] - zz[0], math.sqrt(xi)
        e_rr = series._d1(f.u_r, hr, 0) / sq
        e_tt = f.u_r / (sq * rr[:, None])
        e_zz = series._d1(f.u_z, hz, 1) / xi
        e_rz = 0.5 * (series._d1(f.u_r, hz, 1) / xi
                      + series._d1(f.u_z, hr, 0) / sq)
        tr = e_rr + e_tt + e_zz
        for got, want, scale, bound in (
                (f.s_rr, lam * tr + 2.0 * e_rr, 1.0 / xi, 1e-4),
                (f.s_tt, lam * tr + 2.0 * e_tt, 1.0 / xi, 1e-4),
                (f.s_zz, lam * tr + 2.0 * e_zz, 1.0 / xi, 1e-4),
                (f.s_rz, 2.0 * e_rz, xi ** -1.5, 1e-7)):
            defect = float(np.max(np.abs(got - want)[core])) / scale
            assert defect <= bound * xi, (xi, chi, defect / xi)


def test_dimensional_results_past_double_range_name_the_cell():
    # the scales alone take a sphere result past double range above the
    # floor: each raises NumericsError naming it and the cell, as the
    # plate's force and field do, where the force read inf (null in
    # JSON), the field nan with numpy warnings, and the potential raised
    # Python's bare OverflowError (from a**2)
    cell = "(xi = 0.001, chi = 1.0)"
    big_mu = solve_sphere(1e-3, 1.0, mu=1e307)
    with pytest.raises(NumericsError, match=re.escape(
            f"sphere force inf is past double range {cell}")):
        sphere_force(big_mu)
    with pytest.raises(NumericsError, match=re.escape(
            f"sphere field is past double range {cell}")):
        sphere_field(big_mu, np.array([1.0, 3.0]), 0.5)
    for a, U in ((1e200, 1e200), (1e160, 1.0)):
        with pytest.raises(NumericsError, match=re.escape(
                f"sphere potential is past double range {cell}")):
            sphere_potential(solve_sphere(1e-3, 1.0, a=a, U=U),
                             [0.0, 3.0], 0.5)
