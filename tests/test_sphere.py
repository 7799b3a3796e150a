"""Bonded layer between rigid spheres: radial BVP, fields, force factors.

Two tests in this file compare computed force factors against published
two-significant-digit reference cells that the implementation reproduces
only to 2.6-3.7% (tolerance asked: 2%).  They are kept as stated and fail;
README documents the deviation.  The same cells pass the 5% two-digit
comparison, exercised in the acceptance suite.
"""

import dataclasses
import math

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebvander
import pytest

from layerlab import plate, series
from layerlab.kernels import (_MAX_REFINE, ToleranceNotMet, _split_panels,
                              integrate, solve_dual_bvp)
from layerlab.sphere import (
    XI_MAX_SPHERE,
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
    assert sol.cfg.kind == "sphere"
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
    assert sphere_force(again).psi == 3.3698332109639195
    assert again.A.meta["panels"] == meta["panels"]


TABLE_CELLS = [(xi, chi) for xi in (1e-5, 1e-4, 1e-3, 1e-2)
               for chi in (1e-3, 1e-2, 0.1, 1.0)]


def _force_integrand(sol, trace):
    """(R/3) sigma_zz along the chosen trace, written out apart from the
    library; scalar or array R > 0 (quadrature nodes are interior)."""
    c9 = 9.0 - 2.0 * sol.chi ** 2

    def fn(r):
        a0, a1, a2, _ = sol.A.eval(r)
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


def test_table_cells_solve_at_tight_tolerance():
    # every table cell meets tol = 1e-12, where the R-form solver stalled
    # on its rounding floor, and keeps its default-tolerance answer; only
    # the panels over tolerance are split, so no cell takes the 238
    # panels of a doubled 119-panel mesh, and the two discretizations
    # agree within the gate min(1e-8, 100 tol) = 1e-10
    for xi, chi in TABLE_CELLS:
        sol = solve_sphere(xi, chi, tol=1e-12)
        meta = sol.A.meta
        assert meta["residual_sup"] <= 1e-12 * meta["residual_scale"]
        assert meta["panels"] < 238 and meta["alt_panels"] < 2 * 238
        assert meta["dual_gate"] == 1e-10
        assert meta["dual_sup_rel"] <= 1e-10, (xi, chi)
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
    # in both discretizations, and never takes more panels than the
    # 119 of the fixed 96-panel tail it replaced
    for xi, chi in TABLE_CELLS + SUITE_CELLS + ANCHOR_CELLS:
        meta = solve_sphere(xi, chi).A.meta
        assert meta["passes"] == 0 and meta["alt_passes"] == 0, (xi, chi)
        assert meta["panels"] <= 119, (xi, chi)
        assert meta["dual_gate"] == 1e-8


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
    A, A1, A2, A3 = sol.A.eval(R)
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
