"""Compressibility-regime classification and transition constants."""

import dataclasses
import math

import mpmath
import pytest

from layerlab.materials import ZetaFamily, nu_from_chi, zeta_family
from layerlab.regimes import (
    SPHERE_ZETA_BAR_INCOMPRESSIBLE,
    SPHERE_ZETA_TILDE_COMPRESSIBLE,
    RegimeReport,
    classify,
    nu_intermediate_window,
    plate_ratio_compressible,
    plate_ratio_incompressible,
    plate_transitions,
)
from layerlab.sphere import SphereGeometry


# ---------------------------------------------------------------------------
# Ratio curves
# ---------------------------------------------------------------------------

def test_ratio_compressible_reference_point():
    # ratio_c(zeta) = I0(1/zeta) / (I0(1/zeta) - 2 zeta I1(1/zeta));
    # at zeta = 1 the independent Bessel oracle gives 9.32656...
    mpmath.mp.dps = 30
    i0, i1 = mpmath.besseli(0, 1), mpmath.besseli(1, 1)
    want = float(i0 / (i0 - 2 * i1))
    got = plate_ratio_compressible(1.0)
    assert abs(got - want) < 1e-10 * want
    assert abs(got - 9.3266) < 1e-3


def test_one_minus_2t_over_y_against_mpmath():
    # 1 - 2 t(y)/y ~ y^2/8 on both sides of y = 0.01, where a truncated
    # series once met the direct difference
    # (read as 1/ratio_c at zeta = 1/y, on the y that 1/zeta rounds to)
    mpmath.mp.dps = 40
    for y in (0.005, 0.00999, 0.01, 0.02, 0.05):
        zeta = 1.0 / y
        ym = mpmath.mpf(1.0 / zeta)
        want = 1 - 2 * mpmath.besseli(1, ym) / (mpmath.besseli(0, ym) * ym)
        got = 1.0 / plate_ratio_compressible(zeta)
        assert abs(got - want) < 1e-14 * want, y


def test_ratio_limits_are_one():
    # each single-parameter formula becomes exact deep in its own regime
    assert abs(plate_ratio_compressible(1e-6) - 1.0) < 1e-5
    assert abs(plate_ratio_incompressible(1e6) - 1.0) < 1e-5


def test_ratio_monotonicity():
    zs = [10.0 ** e for e in (-3, -2, -1, 0, 1)]
    rc = [plate_ratio_compressible(z) for z in zs]
    ri = [plate_ratio_incompressible(z) for z in zs]
    assert all(a < b for a, b in zip(rc, rc[1:]))
    assert all(a > b for a, b in zip(ri, ri[1:]))


# ---------------------------------------------------------------------------
# Transition constants
# ---------------------------------------------------------------------------

def test_plate_transitions_reference_values():
    tr = plate_transitions(0.10)
    assert abs(tr.zeta_compressible - 0.046551301419179576) < 1e-12
    assert abs(tr.zeta_incompressible - 1.2890092470557954) < 1e-12
    # the published rounded bands
    assert abs(tr.zeta_compressible - 0.046) < 1e-3
    assert abs(tr.zeta_incompressible - 1.3) < 5e-2


def test_transitions_solve_their_defining_equations():
    tr = plate_transitions(0.10)
    assert abs(plate_ratio_compressible(tr.zeta_compressible) - 1.1) < 1e-10
    assert abs(plate_ratio_incompressible(tr.zeta_incompressible) - 1.1) < 1e-10


def test_transitions_widen_with_tolerance():
    lo = plate_transitions(0.05)
    hi = plate_transitions(0.20)
    # looser tolerance admits more of parameter space to the extremes:
    # the compressible boundary moves up, the incompressible one down
    assert hi.zeta_compressible > lo.zeta_compressible
    assert hi.zeta_incompressible < lo.zeta_incompressible


def test_transitions_validate_tolerance():
    with pytest.raises(ValueError):
        plate_transitions(0.0)
    with pytest.raises(ValueError):
        plate_transitions(1e3)
    with pytest.raises(ValueError, match="zeta must be positive"):
        plate_ratio_compressible(0.0)


def test_nu_window_printed_rounding():
    lo2, hi2 = nu_intermediate_window(1e-2)
    assert round(lo2, 2) == 0.49
    assert round(hi2, 5) == 0.49999
    lo3, hi3 = nu_intermediate_window(1e-3)
    assert round(lo3, 4) == 0.4999
    assert round(hi3, 7) == 0.4999999
    # pinned values
    assert abs(lo2 - 0.492188807144) < 1e-9
    assert abs(hi2 - 0.499989968973) < 1e-9


def test_nu_window_empty_where_every_chi_is_incompressible():
    # at xi = 0.99 and tolerance 1, xi/zeta_i = 2.46 > 3/2: every
    # admissible chi gives zeta > zeta_i, so no nu is intermediate; the
    # window closes at chi = 3/2 (nu = -1) rather than raising
    assert plate_transitions(1.0).zeta_incompressible < 0.99 / 1.5
    assert nu_intermediate_window(0.99, tolerance=1.0) == (-1.0, -1.0)
    # only chi_hi clamps at xi = 0.5: the window is still open
    lo, hi = nu_intermediate_window(0.5, tolerance=1.0)
    assert lo == -1.0 < hi < 0.0


@pytest.mark.parametrize("xi", [1e-4, 1e-2, 0.5, 0.99])
def test_nu_window_empty_where_the_bands_overlap(xi):
    # above a tolerance of about 1.5, zeta_c > zeta_i: every layer is
    # within tolerance of an extreme, so no nu is intermediate (the
    # unclamped map gave nu_lo > nu_hi, or raised at thick layers)
    zc, zi = plate_transitions(10.0)
    assert zc > zi
    lo, hi = nu_intermediate_window(xi, tolerance=10.0)
    assert lo == hi == nu_from_chi(min(xi / zc, 1.5))


def test_nu_window_shrinks_toward_half_with_thinness():
    lo2, hi2 = nu_intermediate_window(1e-2)
    lo3, hi3 = nu_intermediate_window(1e-3)
    assert lo3 > lo2 and hi3 > hi2
    assert lo2 < hi2 < 0.5 and lo3 < hi3 < 0.5


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_plate_bands():
    # zeta = xi/chi against (0.0466, 1.289)
    rep = classify("plate", 1e-3, chi=1.0)        # zeta = 1e-3
    assert rep.label == "compressible"
    rep = classify("plate", 1e-2, chi=0.05)       # zeta = 0.2
    assert rep.label == "intermediate"
    rep = classify("plate", 1e-1, chi=0.05)       # zeta = 2
    assert rep.label == "incompressible"
    assert rep.tolerance == 0.10
    assert rep.zeta_c is not None and rep.zeta_i is not None


def test_classify_plate_chi_zero():
    rep = classify("plate", 1e-3, chi=0.0)
    assert rep.label == "incompressible"
    assert rep.zeta == math.inf


def test_classify_sphere_bands():
    assert SPHERE_ZETA_BAR_INCOMPRESSIBLE == 1.0
    assert abs(SPHERE_ZETA_TILDE_COMPRESSIBLE - 1.0 / math.sqrt(10.0)) < 1e-15
    # zeta_bar = sqrt(xi)/chi >= 1: incompressible
    rep = classify("sphere", 1e-2, chi=0.05)      # zeta_bar = 2
    assert rep.label == "incompressible"
    assert rep.tolerance is None
    # sqrt(10) zeta_tilde <= 1: compressible
    rep = classify("sphere", 1e-4, chi=1.0)       # zeta_tilde = 0.1
    assert rep.label == "compressible"
    # in between
    rep = classify("sphere", 1e-2, chi=0.9)
    assert rep.label == "intermediate"


def test_classify_sphere_boundary_tie():
    # the compressible boundary itself counts as compressible, with a
    # 1e-12 tie guard against rounding: xi^(1/4)/chi = 1/sqrt(10)
    xi = 1e-4
    chi = (xi ** 0.25) * math.sqrt(10.0)
    rep = classify("sphere", xi, chi=chi)
    assert rep.label == "compressible"
    # the guard counts a zeta_tilde up to 1e-12 past the boundary, no more
    assert classify("sphere", xi, chi=chi * (1.0 - 1e-13)).label == "compressible"
    assert classify("sphere", xi, chi=chi * (1.0 - 1e-10)).label == "intermediate"
    # the incompressible boundary zeta_bar = sqrt(xi)/chi = 1 itself counts
    # as incompressible, and a hair above it does not
    rep = classify("sphere", xi, chi=math.sqrt(xi))
    assert rep.zeta_bar == SPHERE_ZETA_BAR_INCOMPRESSIBLE
    assert rep.label == "incompressible"
    assert classify("sphere", xi, chi=1.01 * math.sqrt(xi)).label == "intermediate"
    # chi = 0 makes every zeta infinite: incompressible in both geometries
    for geometry in ("plate", "sphere"):
        rep = classify(geometry, xi, chi=0.0)
        assert rep.zeta == rep.zeta_bar == rep.zeta_tilde == math.inf
        assert rep.label == "incompressible"


def test_classify_report_plumbing():
    rep = classify("sphere", 1e-2, nu=0.25)
    assert abs(rep.chi - 1.0) < 1e-12
    assert abs(rep.xi - 1e-2) < 1e-18
    assert abs(rep.zeta - 1e-2) < 1e-14
    assert abs(rep.zeta_bar - 0.1) < 1e-14
    assert abs(rep.zeta_tilde - 1e-2 ** 0.25) < 1e-12
    assert rep.label == "compressible"


def test_classify_validation():
    with pytest.raises(ValueError):
        classify("shell", 1e-2, chi=0.5)
    with pytest.raises(ValueError):
        classify("plate", 1.5, chi=0.5)
    with pytest.raises(ValueError):
        classify("plate", 1e-2)
    # a sphere layer takes xi through SphereGeometry.of: 0 < xi <= 0.1,
    # where the plate's domain runs to 1
    assert classify("plate", 0.5, chi=0.3).label == "incompressible"
    with pytest.raises(ValueError, match="<= 0.1 for a sphere layer"):
        classify("sphere", 0.5, chi=0.3)
    assert classify("sphere", 0.1, chi=0.3).label == "incompressible"


@pytest.mark.parametrize("xi", [math.nan, -1.0, 0.0, 0.2, 2.0])
def test_classify_sphere_checks_xi_through_sphere_geometry(xi):
    # a sphere layer's xi has one domain and one message, whichever
    # function is handed it
    with pytest.raises(ValueError) as want:
        SphereGeometry.of(xi)
    with pytest.raises(ValueError) as got:
        classify("sphere", xi, chi=0.5)
    assert str(got.value) == str(want.value)


def test_regime_report_holds_each_value_once():
    names = lambda cls: [f.name for f in dataclasses.fields(cls)]
    assert names(RegimeReport) == ["geometry", "xi", "chi", "zeta", "zeta_bar",
                                   "zeta_tilde", "zeta_c", "zeta_i",
                                   "tolerance", "label"]
    assert not [k for k, v in vars(RegimeReport).items()
                if isinstance(v, property)]
    assert ZetaFamily._fields == ("xi", "chi", "zeta", "zeta_bar",
                                  "zeta_tilde")
    # the report carries the zeta family's values as they are
    rep = classify("plate", 1e-2, chi=0.5)
    assert (rep.xi, rep.chi, rep.zeta, rep.zeta_bar, rep.zeta_tilde) \
        == tuple(zeta_family(1e-2, 0.5))
