"""Bonded layer between rigid plates: fields, force, apparent moduli."""

import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from layerlab import plate, regimes, series
from layerlab.kernels import NumericsError, integrate
from layerlab.materials import XI_MIN, zeta_family
from layerlab.plate import (
    apparent_modulus,
    compressible_superposition,
    field,
    force,
    force_factor,
    radial_profile,
    solve_plate,
    stefan_fluid_fields,
)
from layerlab.series import solve_theta
from layerlab.sphere import SphereGeometry, solve_sphere

XI_GRID = [1e-4, 1e-3, 1e-2, 1e-1]
CHI_GRID = [1e-3, 0.3, 0.7, 1.0, 1.4]


# ---------------------------------------------------------------------------
# Radial profile A(R)
# ---------------------------------------------------------------------------

def _broken_i0e(monkeypatch, value):
    """scipy.special.i0e with every array value set to value, a fault no
    input reaches; the scalar edge record (kernels.bessel_ratio) keeps
    the real one."""
    i0e = plate._sp_special.i0e
    monkeypatch.setattr(plate._sp_special, "i0e", lambda x: (
        np.full_like(x, value) if np.ndim(x) else i0e(x)))


def test_radial_profile_self_check_fails_on_nan(monkeypatch):
    # a NaN Bessel value makes the residual at the self-check spots NaN;
    # the check fails on it instead of letting s_rr = nan through, and
    # warns nothing first (a warning is an error in this suite)
    _broken_i0e(monkeypatch, math.nan)
    sol = solve_plate(0.1, 0.1)
    with pytest.raises(NumericsError, match="radial profile residual nan"):
        field(sol, 0.5, 0.5)


def test_radial_profile_self_check_fails_on_infinite_scale(monkeypatch):
    # an infinite I_0(kappa R) makes A'' -inf at the spots (kappa = 1 takes
    # A itself from its power series), and so the residual and its scale;
    # an infinite scale fails the check as NaN does
    _broken_i0e(monkeypatch, math.inf)
    with pytest.raises(NumericsError, match=re.escape(
            "radial profile residual -inf exceeds 1e-12*inf")):
        radial_profile(0.1, 0.1)


@pytest.mark.parametrize("xi, chi, branch", [
    (0.1, 0.0, "incompressible"), (0.1, 0.1, "bessel"), (1e-3, 0.7, "bessel"),
])
def test_closed_form_profiles_name_one_method(xi, chi, branch):
    # the plate's closed forms (x = chi/xi below and above 2, and below
    # chi = 1e-10) and Theta's spell their method alike
    meta = radial_profile(xi, chi).meta
    assert (meta["method"], meta["branch"]) == ("closed form", branch)
    assert solve_theta(1e-3).Theta.meta["method"] == "closed form"


def test_profile_incompressible_closed_form():
    # chi = 0: A(R) = (1 - R^2)/(8 xi^2) exactly
    for xi in (1e-3, 1e-2):
        prof = radial_profile(xi, 0.0)
        rr = np.linspace(0.0, 1.0, 101)
        want = (1.0 - rr * rr) / (8.0 * xi * xi)
        got = prof.eval(rr)[0]
        sup = np.max(np.abs(want))
        assert float(np.max(np.abs(got - want))) < 1e-12 * sup
    # a scalar R gives four floats, the array evaluation's doubles, and
    # the plate's None in the slots of A''' and the second quotient
    point = radial_profile(1e-2, 0.0).eval(0.5)
    line = radial_profile(1e-2, 0.0).eval(np.array([0.5]))
    assert point[3] is None and point[5] is None
    for k in (0, 1, 2, 4):
        assert type(point[k]) is float and point[k] == line[k][0], k


def test_profile_against_mpmath_bessel():
    # A(R) = (1/(2 chi^2)) [1 - c_b I0(kappa R)/I0(kappa)] with
    # kappa = chi/xi and c_b = 3(3-2chi^2)/((3-chi^2)(3 - 2 xi chi t)),
    # t = I1(kappa)/I0(kappa); checked against 30-digit Bessel values
    mpmath.mp.dps = 30
    xi, chi = 1e-2, 0.7
    kappa = chi / xi
    t = mpmath.besseli(1, kappa) / mpmath.besseli(0, kappa)
    c_b = 3 * (3 - 2 * chi**2) / ((3 - chi**2) * (3 - 2 * xi * chi * t))
    prof = radial_profile(xi, chi)
    for r in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]:
        ratio = mpmath.besseli(0, kappa * r) / mpmath.besseli(0, kappa)
        want = float((1 - c_b * ratio) / (2 * chi**2))
        got = float(prof.eval(r)[0])
        assert abs(got - want) < 1e-12 * abs(want or 1.0), r


def test_profile_continuity_at_small_chi():
    # the chi -> 0 branch and the Bessel branch agree through the switch.
    # Near it the Bessel branch differs from the incompressible family
    # only by the genuine O(kappa^2) material dependence (A is assembled
    # without subtracting terms of size 1/chi^2), so these bounds hold
    # with a wide margin; the force path is checked separately below
    xi = 1e-3
    rr = np.linspace(0.0, 1.0, 41)
    a0 = radial_profile(xi, 0.0).eval(rr)[0]
    a1 = radial_profile(xi, 1e-9).eval(rr)[0]
    sup = float(np.max(np.abs(a0)))
    assert float(np.max(np.abs(a0 - a1))) < 5e-3 * sup
    # further from the switch ...
    a2 = radial_profile(xi, 1e-7).eval(rr)[0]
    assert float(np.max(np.abs(a0 - a2))) < 1e-6 * sup
    # ... until the genuine O(kappa^2) material dependence takes over
    a3 = radial_profile(xi, 1e-5).eval(rr)[0]
    assert float(np.max(np.abs(a0 - a3))) < 0.5 * (1e-5 / xi) ** 2 * sup
    # force-side continuity across the branch switch is tight
    assert abs(force_factor(xi, 1e-9) - force_factor(xi, 0.0)) < 1e-10


def test_profile_meets_the_edge_condition_to_rounding():
    # A(1) - (2 xi^2/3) A'(1) = 1/(2 (3 - chi^2)) on verify.suite's 5 x 5
    # grid, at R = 1 alone and as the end of a line.  Each ratio against
    # I_0(kappa) is exactly 1 (or t) at R = 1; formed as
    # (e^{x - kappa}/i0e(kappa)) i0e(x) it read 1 - 1.1e-16 there, which
    # the 1/(2 chi^2) of A's second bracket lifted to a miss of 53452 ulps
    # at (1e-4, 0.0061)
    for xi in np.geomspace(1e-4, 1e-1, 5):
        for chi in np.geomspace(1e-3, 1.4, 5):
            xi, chi = float(xi), float(chi)
            prof = radial_profile(xi, chi)
            rhs = 1.0 / (2.0 * (3.0 - chi * chi))
            alone = prof.eval(1.0)
            line = prof.eval(np.linspace(0.0, 1.0, 41))
            for a, a1 in ((alone[0], alone[1]), (line[0][-1], line[1][-1])):
                miss = abs(a - (2.0 * xi * xi / 3.0) * a1 - rhs)
                assert miss <= 16.0 * math.ulp(rhs), (
                    xi, chi, miss / math.ulp(rhs))


def _profile_mp(xi, chi, rr):
    """(A, A', A'') of the Bessel closed form at the radii rr from
    50-digit mpmath, as a (3, len(rr)) float array."""
    mpmath.mp.dps = 50
    xi, chi = mpmath.mpf(xi), mpmath.mpf(chi)
    kappa = chi / xi
    i0k = mpmath.besseli(0, kappa)
    t = mpmath.besseli(1, kappa) / i0k
    c_b = 3 * (3 - 2 * chi**2) / ((3 - chi**2) * (3 - 2 * xi * chi * t))
    ck = -c_b / (2 * chi**2 * i0k)
    out = []
    for r in rr:
        x = kappa * mpmath.mpf(r)
        i0, i1 = mpmath.besseli(0, x), mpmath.besseli(1, x)
        i1x = i1 / x if x else mpmath.mpf(0.5)
        out.append([(1 - c_b * i0 / i0k) / (2 * chi**2), ck * kappa * i1,
                    ck * kappa**2 * (i0 - i1x)])
    return np.array(out, dtype=float).T


def test_family_switch_needs_small_chi_over_xi():
    # below chi = 1e-10 a layer with chi/xi >= 1e-6 keeps its Bessel
    # form: at xi = 1e-12, kappa = chi/xi runs 50-100 across the switch,
    # G ~ 8 xi^2/chi^2 there, and the family's G = 1 would be far off
    xi = 1e-12
    for below, above in ((force_factor(xi, 9.99e-11), force_factor(xi, 1e-10)),
                         (apparent_modulus(xi, 9.99e-11).e_hat,
                          apparent_modulus(xi, 1e-10).e_hat)):
        assert abs(below / above - 1.0) < 0.01
    rr = np.concatenate((np.linspace(0.0, 1.0, 41), [0.98, 0.99, 0.995]))
    want = _profile_mp(xi, 5e-11, rr)
    got = radial_profile(xi, 5e-11).eval(rr)
    for k in range(3):
        sup = float(np.max(np.abs(want[k])))
        assert float(np.max(np.abs(got[k] - want[k]))) < 1e-12 * sup, k


@pytest.mark.parametrize("xi", [1e-12, 1e-6, 1e-3])
def test_closed_forms_choose_one_branch(xi):
    # the profile, the force and the moduli switch to the incompressible
    # family together: where chi < 1e-10 and chi/xi < 1e-6
    for chi in (0.0, 5e-11, 1e-10, 1e-9):
        family = chi < 1e-10 and chi / xi < 1e-6
        branch = radial_profile(xi, chi).meta["branch"]
        assert branch == ("incompressible" if family else "bessel"), chi
        assert (force_factor(xi, chi) == 1.0) == family, chi
        assert (apparent_modulus(xi, chi).e_hat_c == math.inf) == family, chi


def test_profile_small_chi_over_xi_against_mpmath():
    # as chi/xi -> 0 the bracket 1 - c_b I0(kappa R)/I0(kappa) shrinks
    # like kappa^2; A must still hold full accuracy there
    rr = np.linspace(0.0, 1.0, 41)
    for xi, chi in [(0.1, 1e-9), (0.1, 1e-7), (1e-3, 1e-5)]:
        want = _profile_mp(xi, chi, rr)[0]
        got = radial_profile(xi, chi).eval(rr)[0]
        sup = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) < 1e-13 * sup, (xi, chi)


def test_profile_derivatives_against_mpmath():
    # (A, A', A'') across kappa R = 0.02 and 1, the kappa = 2 switch of
    # the A series, and in a thin compressible edge layer
    for xi, chi in [(0.1, 0.19), (0.1, 0.21), (1e-2, 0.7), (1e-3, 1.4)]:
        kappa = chi / xi
        rr = np.concatenate((np.linspace(0.0, 1.0, 21),
                             [0.0199 / kappa, 0.0201 / kappa, 0.5 / kappa,
                              0.999 / kappa, 1.001 / kappa,
                              1.0 - 1.0 / kappa]))
        want = _profile_mp(xi, chi, rr)
        got = radial_profile(xi, chi).eval(rr)
        for k in range(3):
            sup = float(np.max(np.abs(want[k])))
            err = float(np.max(np.abs(got[k] - want[k])))
            assert err < 1e-12 * sup, (xi, chi, k, err / sup)


# (profile, rim, radii of note) of every kind of RadialSolution: the
# plate's Bessel branch at kappa = chi/xi below 2 (its power series) and
# above it (where x = kappa R crosses 0.02 and 1), the plate's
# chi < 1e-10 family, a sphere
# profile and Theta's closed form (whose series switch from x to 1 - x at
# x = R**2/(R**2 + 2) = 0.55)
PROFILE_KINDS = {
    "plate-kappa-0.01": lambda: (radial_profile(1e-3, 1e-5), 1.0, ()),
    "plate-kappa-1": lambda: (radial_profile(0.05, 0.05), 1.0, (0.02, 1.0)),
    "plate-kappa-70": lambda: (radial_profile(1e-2, 0.7), 1.0,
                               (0.02 / 70, 1 / 70)),
    "plate-kappa-14000": lambda: (radial_profile(1e-4, 1.4), 1.0,
                                  (0.02 / 14000, 1 / 14000)),
    "plate-chi-0": lambda: (radial_profile(1e-2, 0.0), 1.0, ()),
    "sphere": lambda: (solve_sphere(1e-3, 0.5).A,
                       SphereGeometry.of(1e-3).r_edge, (1.0, 4.0)),
    "theta": lambda: (solve_theta(1e-2).Theta,
                      SphereGeometry.of(1e-2).r_edge,
                      (1.0, math.sqrt(1.1 / 0.45))),
}


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_profile_array_eval_matches_scalar_calls(kind):
    # every profile honours RadialSolution's one contract: eval gives the
    # six slots of terms, each of its input's shape and the doubles of
    # point-by-point calls, which give floats (a 0-d array counts as a
    # scalar), and None where terms does: the plate's A''' and second
    # quotient, two slots that a profile in s always fills
    prof, rim, noted = PROFILE_KINDS[kind]()
    rng = np.random.default_rng(5)
    rr = np.concatenate(([0.0, rim], noted,
                         rng.uniform(0.0, rim, 198 - len(noted))))
    rr = rr.reshape(20, 10)
    got = prof.eval(rr)
    want = prof.terms(rr.ravel())
    assert len(got) == 6
    assert (want[3] is None) == (want[5] is None) == kind.startswith("plate")
    scalar = [prof.eval(float(r)) for r in rr.ravel()]
    assert prof.eval(np.array(rr[3, 3])) == scalar[33]
    for k in range(6):
        if want[k] is None:
            assert got[k] is None and all(v[k] is None for v in scalar), k
            continue
        assert got[k].shape == rr.shape
        assert all(type(v[k]) is float for v in scalar), k
        assert np.array_equal(got[k].ravel(), [v[k] for v in scalar]), k
        assert np.array_equal(got[k], want[k].reshape(rr.shape)), k


# the Bessel branch on its power series (kappa = 1), the incompressible
# family, and the Bessel branch at kappa = 1000
QUOTIENT_CELLS = pytest.mark.parametrize("xi, chi", [
    (0.1, 0.1), (0.1, 0.0), (1e-3, 1.0),
], ids=["kappa-1", "incompressible", "kappa-1000"])


@QUOTIENT_CELLS
def test_plate_quotient_is_a1_over_r_at_ordinary_radii(xi, chi):
    # above R = 1e-150 the profile's own A'/R is a1 / R, the doubles the
    # field formed when it divided by R itself
    prof = radial_profile(xi, chi)
    r = np.concatenate((np.geomspace(1.01e-150, 1.0, 61),
                        np.linspace(0.0125, 1.0, 80)))
    _, a1, _, _, a1r, _ = prof.eval(r)
    assert np.array_equal(a1r, a1 / r)


@QUOTIENT_CELLS
def test_plate_field_at_tiny_radii_is_the_axis_field(xi, chi):
    # at and below R = 1e-150 A'/R is A'' (kappa R <= 1.5e-74 above the
    # floor), so a subnormal R no longer divides a rounded A': at
    # (0.1, 0.1) and R = 5e-324, s_tt read 613.5203735403263 against
    # 627.0924729823012 on the axis.  Every field that reads A, A'' or
    # A'/R (not A' itself) is the axis field's, bit for bit
    sol = solve_plate(xi, chi=chi)
    z = np.linspace(-1.0, 1.0, 9)
    axis = field(sol, 0.0, z)
    for r in (5e-324, 1e-310, 1e-200):
        for got in (field(sol, r, z),
                    field(sol, np.array([[0.0], [r]]), z[None, :])):
            for name in ("u_z", "s_rr", "s_tt", "s_zz"):
                assert np.array_equal(np.atleast_2d(getattr(got, name))[-1],
                                      getattr(axis, name)), (r, name)
    if (xi, chi) == (0.1, 0.1):
        assert field(sol, 5e-324, 0.5).s_tt == 627.0924729823012


# ---------------------------------------------------------------------------
# Displacement and stress fields
# ---------------------------------------------------------------------------

def test_dirichlet_data_on_plates():
    # bonded conditions: u_z = +/-U and u_r = 0 on Z = +/-1, exactly, as
    # FieldSample promises (Z**2 - 1 is 0 there and u_z's constant term is
    # U itself), on a line of radii and in the CLI's column R against a
    # row Z, on the incompressible family and both Bessel branches
    rr = np.linspace(0.0, 1.0, 41)
    z_row = np.linspace(-1.0, 1.0, 9)[None, :]
    for xi in (1e-3, 1e-1):
        for chi in (0.0, 1e-3, 0.7, 1.4):
            for U in (0.7, -1e-3, 3.0):
                sol = solve_plate(xi, chi=chi, U=U)
                grid = field(sol, rr[:, None], z_row)
                for sign, col in ((1.0, -1), (-1.0, 0)):
                    line = field(sol, rr, np.full_like(rr, sign))
                    for u_z, u_r in ((line.u_z, line.u_r),
                                     (grid.u_z[:, col], grid.u_r[:, col])):
                        assert np.all(u_z == sign * U), (xi, chi, U)
                        assert np.all(u_r == 0.0), (xi, chi, U)


@pytest.mark.parametrize("xi, chi", [
    (1e-2, 0.3), (0.1, 1.0), (0.1, 0.3), (0.3, 0.7), (1e-3, 1e-3)])
def test_stresses_meet_hookes_law(xi, chi):
    # s_rr, s_tt, s_zz and s_rz against lambda tr(eps) + 2 mu eps_ii and
    # 2 mu eps_rz, lambda/mu = (3 - 2 chi**2)/chi**2, with the strains
    # differenced from plate.field's own (u_r, u_z) by the 4th-order
    # stencil series._d1 on R in [0.05, 0.9], |Z| <= 0.9 (201**2 points,
    # away from the axis and the bonded corner): e_rr = du_r/dR,
    # e_tt = u_r/R, e_zz = du_z/dZ/xi, e_rz = (du_r/dZ/xi + du_z/dR)/2
    # (r = a R, z = a xi Z; unit a, mu and U).  u_r and u_z are polynomials
    # in Z, differenced exactly, so each defect, over its stress's sup on
    # the window, is the R-stencil's error in the rim layer exp(kappa R),
    # kappa = chi/xi: measured at most 4.9e-7 for the normal stresses (at
    # kappa = 30) and 5.5e-8 for the shear.  In a scratch copy a 0.1%
    # error in s_zz's 9 - 2 chi**2 lifted s_zz's defect to 4.8e-6 at
    # (1e-2, 0.3) and 2.2e-4 at (0.1, 1); one in s_rz's -6, in u_r's
    # 3 - chi**2 or in u_z's B each lifted a defect to 2.6e-5 or more
    # on every cell but the near-incompressible (1e-3, 1e-3)
    lam = (3.0 - 2.0 * chi * chi) / (chi * chi)
    rr = np.linspace(0.05, 0.9, 201)
    zz = np.linspace(-0.9, 0.9, 201)
    f = field(solve_plate(xi, chi=chi), *np.meshgrid(rr, zz, indexing="ij"))
    hr, hz = rr[1] - rr[0], zz[1] - zz[0]
    e_rr = series._d1(f.u_r, hr, 0)
    e_tt = f.u_r / rr[:, None]
    e_zz = series._d1(f.u_z, hz, 1) / xi
    e_rz = 0.5 * (series._d1(f.u_r, hz, 1) / xi + series._d1(f.u_z, hr, 0))
    tr = e_rr + e_tt + e_zz
    core = (slice(2, -2), slice(2, -2))
    for name, want, bound in (("s_rr", lam * tr + 2.0 * e_rr, 2e-6),
                              ("s_tt", lam * tr + 2.0 * e_tt, 2e-6),
                              ("s_zz", lam * tr + 2.0 * e_zz, 2e-6),
                              ("s_rz", 2.0 * e_rz, 2e-7)):
        got = getattr(f, name)[core]
        defect = float(np.max(np.abs(got - want[core])) / np.max(np.abs(got)))
        assert defect <= bound, (name, defect)


def test_field_symmetry_in_z():
    sol = solve_plate(1e-2, chi=0.9)
    rr = np.full(9, 0.6)
    zz = np.linspace(-1.0, 1.0, 9)
    up = field(sol, rr, zz)
    dn = field(sol, rr, -zz)
    # u_r even, u_z odd, direct stresses even, shear odd
    assert np.allclose(up.u_r, dn.u_r, rtol=0, atol=1e-15)
    assert np.allclose(up.u_z, -dn.u_z, rtol=0, atol=1e-15)
    assert np.allclose(up.s_zz, dn.s_zz, rtol=0, atol=1e-9)
    assert np.allclose(up.s_rz, -dn.s_rz, rtol=0, atol=1e-9)


def test_field_column_r_matches_full_grid():
    # R-only factors on R's shape and Z-only ones on Z's give the same
    # doubles as the fully broadcast grid
    rr = np.linspace(0.0, 1.0, 37)
    zz = np.linspace(-1.0, 1.0, 9)
    r_grid, z_grid = np.meshgrid(rr, zz, indexing="ij")
    for xi, chi in [(1e-3, 1e-5), (0.05, 0.05), (1e-2, 0.7), (0.1, 0.0)]:
        sol = solve_plate(xi, chi=chi)
        full = field(sol, r_grid, z_grid)
        for r_arg, z_arg in [(rr[:, None], z_grid), (rr[:, None], zz[None, :])]:
            got = field(sol, r_arg, z_arg)
            for name in ("R", "Z", "u_r", "u_z", "s_rr", "s_tt", "s_zz", "s_rz"):
                a, b = getattr(got, name), getattr(full, name)
                assert a.shape == r_grid.shape and np.array_equal(a, b), (xi, chi, name)


def test_field_validation():
    sol = solve_plate(1e-2, chi=0.5)
    with pytest.raises(ValueError):
        field(sol, 1.5, 0.0)
    with pytest.raises(ValueError):
        field(sol, 0.5, 1.5)


def test_edge_resultants_vanish():
    # the side-wall tractions carry no net load: integrals of s_rr and
    # s_rz across the edge are at rounding level relative to the
    # through-thickness maximum of the edge tractions
    worst = 0.0
    for xi in XI_GRID:
        for chi in CHI_GRID:
            sol = solve_plate(xi, chi=chi)
            zg = np.linspace(-1.0, 1.0, 33)
            fe = field(sol, np.ones_like(zg), zg)
            sup = max(float(np.max(np.abs(fe.s_rr))),
                      float(np.max(np.abs(fe.s_rz))))
            q_rr = integrate(lambda z: float(field(sol, 1.0, z).s_rr),
                             -1.0, 1.0, tol=1e-11 * sup)
            q_rz = integrate(lambda z: float(field(sol, 1.0, z).s_rz),
                             -1.0, 1.0, tol=1e-11 * sup)
            rel = max(abs(q_rr.value), abs(q_rz.value)) / (2.0 * sup)
            worst = max(worst, rel)
    assert worst < 1e-8, worst


# ---------------------------------------------------------------------------
# Force
# ---------------------------------------------------------------------------

def test_force_from_fields_identity():
    # 2 pi a^2 int s_zz(R, 1) R dR reproduces the closed-form force
    sol = solve_plate(1e-3, chi=0.7, mu=2.0, a=1.5, U=0.7)
    q = integrate(lambda r: float(field(sol, r, 1.0).s_zz) * r,
                  0.0, 1.0, tol=1e-12)
    f_fields = 2.0 * math.pi * sol.cfg.a**2 * q.value
    f_formula = force(sol)
    assert abs(f_fields / f_formula - 1.0) < 1e-8


def test_force_factor_incompressible_limit():
    # kappa -> 0 collapses the Bessel expression to the squeeze-film
    # value G = 1 (F = 3 pi mu a U / (8 xi^3))
    for xi in (1e-3, 1e-2):
        assert abs(force_factor(xi, 1e-9) - 1.0) < 1e-6
        assert abs(force_factor(xi, 0.0) - 1.0) < 1e-15


def test_force_scaling_in_mu_a_u():
    base = force(solve_plate(1e-2, chi=0.5))
    scaled = force(solve_plate(1e-2, chi=0.5, mu=3.0, a=2.0, U=0.25))
    assert abs(scaled / (base * 3.0 * 2.0 * 0.25) - 1.0) < 1e-14


def test_force_monotone_in_chi():
    # more compressible material (larger chi) relieves the squeeze
    # pressure: G decreases in chi at fixed xi
    xi = 1e-2
    gs = [force_factor(xi, c) for c in np.linspace(0.0, 1.4, 30)]
    assert all(a > b for a, b in zip(gs, gs[1:]))


def test_stefan_reference_flow():
    # the viscous analogue on the same geometry: parabolic radial
    # profile, no-slip at the walls, and the classical total load
    # 3 pi mu V a / (8 xi^3) ... checked via the velocity field shape
    a, h, mu, V = 2.0, 0.02, 3.0, 0.5
    r = np.full(5, 1.0)
    z = np.linspace(-h, h, 5)
    v_r, v_z, p = stefan_fluid_fields(r, z, a, h, mu, V)
    assert abs(float(v_r[0])) < 1e-14 and abs(float(v_r[-1])) < 1e-14
    assert float(v_z[-1]) == pytest.approx(-V, abs=1e-14)
    assert float(v_z[0]) == pytest.approx(V, abs=1e-14)
    # pressure is largest at the center
    p_c = stefan_fluid_fields(np.zeros(1), np.zeros(1), a, h, mu, V)[2]
    assert float(p_c[0]) > float(p[2])
    with pytest.raises(ValueError, match=re.escape(
            "a must be positive and finite, got 0.0")):
        stefan_fluid_fields(0.0, 0.0, 0.0, h, mu, V)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a", "h", "mu", "V"])
def test_stefan_rejects_nonfinite_scales(name, value):
    # a and h lie in (0, inf), mu and V are finite; NaN fails each check
    scales = {"a": 2.0, "h": 0.02, "mu": 3.0, "V": 0.5, name: value}
    rule = ("must be positive and finite" if name in ("a", "h")
            else "must be finite")
    with pytest.raises(ValueError, match=re.escape(f"{name} {rule}, got {value}")):
        stefan_fluid_fields(0.5, 0.01, *scales.values())


# ---------------------------------------------------------------------------
# Apparent moduli
# ---------------------------------------------------------------------------

def test_apparent_modulus_plateaus():
    # compressible plateau: E_hat -> E_hat_c as zeta -> 0 at fixed chi
    am = apparent_modulus(1e-5, 1.0)
    assert abs(am.e_hat / am.e_hat_c - 1.0) < 1e-3
    # incompressible plateau: E_hat -> E_hat_i as chi -> 0 at fixed xi
    am2 = apparent_modulus(1e-2, 1e-8)
    assert abs(am2.e_hat / am2.e_hat_i - 1.0) < 1e-6
    # chi = 0 sits on the incompressible plateau itself; e_hat_l is left
    # unpinned, since its chi < 1e-10 branch differs by 1 from the chi -> 0
    # limit of the Bessel branch (ROADMAP item 5)
    am0 = apparent_modulus(1e-2, 0.0)
    assert am0.e_hat == am0.e_hat_i == 1250.0
    assert am0.e_hat_c == math.inf


def test_apparent_modulus_closed_forms():
    xi, chi = 1e-3, 0.8
    am = apparent_modulus(xi, chi)
    assert abs(am.e_hat_i - 1.0 / (8.0 * xi * xi)) < 1e-12 / (8 * xi * xi)
    want_c = 3.0 * (3.0 - chi**2) / (chi**2 * (9.0 - 4.0 * chi**2))
    assert abs(am.e_hat_c - want_c) < 1e-14 * want_c


def test_apparent_modulus_force_consistency():
    # E_hat is the force expression renormalized: check the exact link
    # E_hat = 3 (3 - chi^2) G / (8 xi^2 (9 - 4 chi^2))
    for xi, chi in [(1e-3, 0.5), (1e-2, 1.0), (1e-1, 1.4)]:
        am = apparent_modulus(xi, chi)
        g = force_factor(xi, chi)
        want = 3.0 * (3.0 - chi**2) * g / (8.0 * xi**2 * (9.0 - 4.0 * chi**2))
        assert abs(am.e_hat - want) < 1e-13 * want


def test_apparent_modulus_rejects_singular_material():
    with pytest.raises(ValueError):
        apparent_modulus(1e-3, 1.5)


def test_bonded_vs_lubricated_comparison_values():
    # the exact bonded-plate modulus and the classical thin-layer
    # approximation agree to O(xi): pinned regression values at
    # (xi, chi) = (1e-3, 1)
    am = apparent_modulus(1e-3, 1.0)
    diff_rel = (am.e_hat_l - am.e_hat) / am.e_hat
    assert abs(diff_rel - 0.0007786859524224131) < 1e-12
    # leading-order closed-form estimate of the same gap, sign included:
    # it agrees with the measured gap to ~0.1% here
    est = 2.0 * 1.0 * (4.0 - 24.0 + 27.0) * 1e-3 / (9.0 * 2.0)
    assert abs(diff_rel / est - 1.0) < 2e-3


def test_compressible_superposition_state():
    # thin compressible layer: uniaxial strain state plus an edge load;
    # the interior stress ratio s_rr/s_zz is lam/(lam + 2 mu)
    st = compressible_superposition(1e-3, 1.0, mu=2.0)
    lam = 2.0 * (3.0 - 2.0) / 1.0  # mu (3 - 2 chi^2)/chi^2 at chi = 1
    assert abs(st.s_rr / st.s_zz - lam / (lam + 2 * 2.0)) < 1e-12
    # the uniaxial state needs a compressible material
    with pytest.raises(ValueError, match="chi must be positive"):
        compressible_superposition(1e-3, 0.0)


def test_compressible_superposition_takes_zero_and_negative_U():
    # U is finite, and U = 0 and U < 0 stay legal
    for U in (0.0, -1.0):
        st = compressible_superposition(0.1, 1.0, U=U)
        assert all(map(math.isfinite, (st.s_rr, st.s_zz, st.edge_load)))


def test_compressible_superposition_past_double_range_names_the_cell():
    # chi**2 underflows to 0 from chi about 1e-162 (Python's bare
    # ZeroDivisionError before), and at chi = 1e-160 the state was inf;
    # mu = 1e306 takes it there by the scale alone
    for chi, mu in ((1e-170, 1.0), (1e-160, 1.0), (1.0, 1e306)):
        with pytest.raises(NumericsError, match=re.escape(
                f"compressible superposition is past double range "
                f"(xi = 0.001, chi = {chi})")):
            compressible_superposition(1e-3, chi, mu=mu)


# ---------------------------------------------------------------------------
# The domain: 1e-76 <= xi < 1
# ---------------------------------------------------------------------------

# every plate-layer entry point, each of which checks xi (check_xi)
PLATE_CALLS = {
    "solve_plate": lambda xi: solve_plate(xi, 1.0),
    "radial_profile": lambda xi: radial_profile(xi, 1.0),
    "force_factor": lambda xi: force_factor(xi, 1.0),
    "apparent_modulus": lambda xi: apparent_modulus(xi, 1.0),
    "compressible_superposition":
        lambda xi: compressible_superposition(xi, 1.0),
    "zeta_family": lambda xi: zeta_family(xi, 1.0),
    "classify": lambda xi: regimes.classify("plate", xi, 1.0),
    "nu_intermediate_window": lambda xi: regimes.nu_intermediate_window(xi),
}


@pytest.mark.parametrize("xi", [9.9e-77, 1e-88, 1e-103, 1e-160, 5e-324])
def test_xi_below_the_floor_refused(xi):
    # below XI_MIN every plate-layer function refuses xi at the door with
    # the floor in its message, where its closed forms would leave double
    # range (the force factor's (chi/xi)**3 at chi = 3/2 from about
    # 2.6e-103, 1/(8 xi**2) near 1e-154)
    assert XI_MIN == 1e-76
    for name, call in PLATE_CALLS.items():
        with pytest.raises(ValueError, match=re.escape(
                f"xi must be >= 1e-76, the package's floor, got {xi}")):
            call(xi)


@pytest.mark.parametrize("xi", [0.0, -1e-3, 1.0, 2.0, math.nan, -math.inf])
def test_xi_outside_the_unit_interval_keeps_its_message(xi):
    for name, call in PLATE_CALLS.items():
        with pytest.raises(ValueError, match=re.escape(
                f"xi must lie in (0, 1), got {xi}")):
            call(xi)


# chi: 0, subnormal and tiny values, both sides of CHI_INCOMPRESSIBLE =
# 1e-10, ordinary ones and the top of the range
DOMAIN_CHIS = (0.0, 5e-324, 1e-300, 1e-160, 5e-11,
               np.nextafter(1e-10, 0.0), 1e-10, np.nextafter(1e-10, 1.0),
               1e-3, 0.7, 1.4, 1.5)
# the axis, tiny and subnormal radii, inside and at the rim
DOMAIN_RADII = np.array([0.0, 5e-324, 1e-300, 1e-200, 0.5, 1.0])


def test_closed_forms_finite_down_to_the_floor():
    # at and above the floor every plate closed form is a finite double
    # at unit scales, with no numpy warning: xi log-uniform in
    # [1e-76, 1) (seeded), the floor itself and 1 - 1e-6, across
    # DOMAIN_CHIS.  The force factor and the modulus e_hat are positive,
    # and A'' and the profile's A'/R are the same on the axis and at a
    # subnormal radius
    rng = np.random.default_rng(20261020)
    xis = [XI_MIN, 1.0 - 1e-6, *10.0 ** rng.uniform(-76.0, 0.0, 30)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in xis:
            lo, hi = regimes.nu_intermediate_window(xi)
            assert -1.0 <= lo <= hi <= 0.5
            for chi in map(float, DOMAIN_CHIS):
                g = force_factor(xi, chi)
                assert 0.0 < g < math.inf, (xi, chi, g)
                if chi < 1.5:
                    mod = apparent_modulus(xi, chi)
                    assert all(map(math.isfinite, mod[:2] + mod[3:]))
                    assert mod.e_hat > 0.0
                sol = solve_plate(xi, chi)
                assert math.isfinite(force(sol)), (xi, chi)
                fs = field(sol, np.linspace(0.0, 1.0, 4)[:, None],
                           np.linspace(-1.0, 1.0, 3))
                for value in dataclasses.astuple(fs):
                    assert np.all(np.isfinite(value)), (xi, chi)
                *derivs, a3, a1r, quotient2 = sol.radial.eval(DOMAIN_RADII)
                assert a3 is None and quotient2 is None
                assert all(np.all(np.isfinite(d)) for d in (*derivs, a1r))
                assert derivs[2][1] == derivs[2][0], (xi, chi)
                assert a1r[1] == a1r[0] == derivs[2][0], (xi, chi)
                regimes.classify("plate", xi, chi)
