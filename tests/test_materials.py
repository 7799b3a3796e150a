"""Material-parameter algebra: chi <-> nu maps, zeta groupings, configs."""

import dataclasses
import math
import re

import numpy as np
import pytest

from layerlab import plate, regimes, series, sphere
from layerlab.materials import (
    CHI_MAX,
    LayerConfig,
    MaterialParams,
    chi_from_nu,
    nu_from_chi,
    resolve_chi,
    zeta_family,
)


def test_chi_from_nu_reference_value():
    # chi(0.499905) pinned to full double precision; the leading digits
    # 0.0238724 are the published 6-digit value
    chi = chi_from_nu(0.499905)
    assert abs(chi - 0.023872405001866936) < 1e-15
    assert abs(chi - 0.0238724) < 5e-8


def test_chi_nu_round_trip():
    for nu in np.linspace(-0.999, 0.5, 401):
        chi = chi_from_nu(float(nu))
        back = nu_from_chi(chi)
        assert abs(back - nu) < 5e-13, (nu, back)


def test_chi_endpoints():
    assert chi_from_nu(0.5) == 0.0
    # nu = -1 itself is outside the open physical range; approaching it
    # drives chi toward 3/2
    assert abs(chi_from_nu(-1.0 + 1e-12) - 1.5) < 1e-12
    with pytest.raises(ValueError):
        chi_from_nu(-1.0)
    assert nu_from_chi(0.0) == 0.5
    assert abs(nu_from_chi(1.5) - (-1.0)) < 1e-15
    assert CHI_MAX == 1.5


def test_chi_monotone_decreasing_in_nu():
    nus = np.linspace(-0.9999, 0.5, 200)
    chis = [chi_from_nu(float(n)) for n in nus]
    assert all(a > b for a, b in zip(chis, chis[1:]))


def test_chi_from_nu_rejects_out_of_range():
    with pytest.raises(ValueError):
        chi_from_nu(0.51)
    with pytest.raises(ValueError):
        chi_from_nu(-1.01)
    with pytest.raises(ValueError):
        nu_from_chi(1.6)
    with pytest.raises(ValueError):
        nu_from_chi(-0.1)


def test_resolve_chi_accepts_either_parameter():
    assert resolve_chi(chi=0.7) == 0.7
    assert abs(resolve_chi(nu=0.25) - chi_from_nu(0.25)) < 1e-15


def test_resolve_chi_consistency_gate():
    nu = 0.3
    chi = chi_from_nu(nu)
    # consistent pair passes
    assert resolve_chi(chi=chi, nu=nu) == chi
    # inconsistent pair is refused
    with pytest.raises(ValueError):
        resolve_chi(chi=chi * (1.0 + 1e-6), nu=nu)
    # neither given is refused
    with pytest.raises(ValueError):
        resolve_chi()


def test_zeta_family_values():
    fam = zeta_family(1e-2, 0.5)
    assert abs(fam.zeta - 0.02) < 1e-17
    assert abs(fam.zeta_bar - 0.2) < 1e-16
    assert abs(fam.zeta_tilde - (1e-2) ** 0.25 / 0.5) < 1e-16
    assert max(fam.zeta, fam.zeta_bar, fam.zeta_tilde) < math.inf

    fam2 = zeta_family(1e-5, 1e-2)
    assert abs(fam2.zeta_bar - 1.0 / math.sqrt(10.0)) < 1e-15

    fam3 = zeta_family(1e-4, 1.0)
    assert abs(fam3.zeta_tilde - 0.1) < 1e-16


def test_zeta_family_incompressible_flag():
    fam = zeta_family(1e-3, 0.0)
    assert fam.zeta == fam.zeta_bar == fam.zeta_tilde == math.inf
    assert fam.zeta == math.inf
    assert fam.zeta_bar == math.inf
    assert fam.zeta_tilde == math.inf


def test_material_params_consistency():
    mp = MaterialParams.from_nu(0.3, mu=2.0)
    assert abs(mp.lam - 2.0 * 2.0 * 0.3 / 0.4) < 1e-14
    assert abs(mp.youngs - 2.0 * 2.0 * 1.3) < 1e-14
    # the chi-route gives the same constants
    mp2 = MaterialParams.from_chi(mp.chi, mu=2.0)
    assert abs(mp2.lam - mp.lam) < 1e-12 * abs(mp.lam)
    assert abs(mp2.youngs - mp.youngs) < 1e-12 * abs(mp.youngs)


def test_material_params_limits():
    # the incompressible limit by either route: nu = 1/2 is chi = 0
    for mp in (MaterialParams.from_nu(0.5, 2.0),
               MaterialParams.from_chi(0.0, 2.0)):
        assert (mp.nu, mp.chi, mp.lam, mp.youngs) == (0.5, 0.0, math.inf,
                                                      6.0)
        assert mp.incompressible
    near = MaterialParams.from_chi(1.5)
    assert near.youngs_singular
    assert abs(near.youngs) < 1e-14


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_material_params_reject_nonpositive_mu(mu):
    for make, value in ((MaterialParams.from_chi, 1.0),
                        (MaterialParams.from_nu, 0.3)):
        with pytest.raises(ValueError, match="mu must be positive"):
            make(value, mu=mu)


def test_layer_config_construction_and_validation():
    cfg = LayerConfig(1e-3, a=2.0, U=0.5, mu=3.0)
    assert cfg.h == 2e-3 and cfg.xi == 1e-3
    # each value is held once: h = xi a is derived, not stored
    assert [f.name for f in dataclasses.fields(LayerConfig)] == [
        "xi", "a", "U", "mu"]
    assert LayerConfig(1e-2) == LayerConfig(xi=1e-2, a=1.0, U=1.0, mu=1.0)
    with pytest.raises(ValueError):
        LayerConfig(0.0)
    with pytest.raises(TypeError):
        LayerConfig(0.4, h=0.5)


@pytest.mark.parametrize("name", ["a", "mu", "U"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_layer_config_rejects_nonfinite_scales(name, value):
    # a and mu lie in (0, inf) and U is finite; NaN fails each check,
    # and the message names the argument and its value
    scales = {"a": 2.0, "mu": 3.0, "U": 0.5, name: value}
    rule = "must be finite" if name == "U" else "must be positive and finite"
    msg = f"{name} {rule}, got {value}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        LayerConfig(1e-3, **scales)


def test_layer_config_keeps_zero_and_negative_approach():
    for U in (0.0, -2.0):
        assert LayerConfig(1e-3, U=U).U == U
    with pytest.raises(ValueError, match=re.escape(
            "a must be positive and finite, got -1.0")):
        LayerConfig(1e-3, a=-1.0)


# every consumer of check_positive and check_finite, with the scale it
# checks and whether that scale must be positive; each call is valid but
# for that one scale
_SCALE_CHECKS = {
    "MaterialParams.from_nu": (
        lambda v: MaterialParams.from_nu(0.3, mu=v), "mu", True),
    "MaterialParams.from_chi": (
        lambda v: MaterialParams.from_chi(1.0, mu=v), "mu", True),
    "LayerConfig a": (lambda v: LayerConfig(1e-3, a=v), "a", True),
    "LayerConfig mu": (lambda v: LayerConfig(1e-3, mu=v), "mu", True),
    "LayerConfig U": (lambda v: LayerConfig(1e-3, U=v), "U", False),
    "solve_plate a": (lambda v: plate.solve_plate(0.1, 1.0, a=v), "a", True),
    "solve_sphere mu": (lambda v: sphere.solve_sphere(1e-2, 1.0, mu=v), "mu",
                        True),
    "stefan a": (lambda v: plate.stefan_fluid_fields(0.5, 0.01, v, 0.02,
                                                     3.0, 0.5), "a", True),
    "stefan h": (lambda v: plate.stefan_fluid_fields(0.5, 0.01, 2.0, v,
                                                     3.0, 0.5), "h", True),
    "stefan mu": (lambda v: plate.stefan_fluid_fields(0.5, 0.01, 2.0, 0.02,
                                                      v, 0.5), "mu", False),
    "stefan V": (lambda v: plate.stefan_fluid_fields(0.5, 0.01, 2.0, 0.02,
                                                     3.0, v), "V", False),
    "superposition mu": (
        lambda v: plate.compressible_superposition(0.1, 1.0, mu=v), "mu",
        True),
    "superposition a": (
        lambda v: plate.compressible_superposition(0.1, 1.0, a=v), "a", True),
    "superposition U": (
        lambda v: plate.compressible_superposition(0.1, 1.0, U=v), "U",
        False),
    "compressible series lam": (
        lambda v: series.compressible_series_fields(1e-3, v, 1.0, 1.0, 0.5),
        "lam", True),
    "compressible series mu": (
        lambda v: series.compressible_series_fields(1e-3, 1.0, v, 1.0, 0.5),
        "mu", True),
    "compressible series U": (
        lambda v: series.compressible_series_fields(1e-3, 1.0, 1.0, 1.0, 0.5,
                                                    U=v), "U", False),
    "nearly compressible series U": (
        lambda v: series.nearly_compressible_series_fields(1e-3, 1.0, 0.5,
                                                           U=v), "U", False),
    "solve_theta U": (lambda v: series.solve_theta(1e-3, U=v), "U", False),
    "series_regime": (lambda v: series.series_regime(1e-3, v),
                      "mu_over_lambda", True),
    # a uniform strain, which navier_residual takes at any finite ratio
    "navier_residual": (
        lambda v: series.navier_residual(lambda R, Z: (0.3 * R, 0.7 * Z),
                                         1e-2, v), "mu_over_lambda", False),
    "plate_ratio_compressible": (
        lambda v: regimes.plate_ratio_compressible(v), "zeta", True),
    "plate_ratio_incompressible": (
        lambda v: regimes.plate_ratio_incompressible(v), "zeta", True),
}


@pytest.mark.parametrize("value",
                         [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("consumer", list(_SCALE_CHECKS))
def test_scale_checks_name_the_argument_and_value(consumer, value):
    # one message shape per rule, naming the argument and its value:
    # NaN fails both rules, 0 and -1 only the positive one
    call, name, positive = _SCALE_CHECKS[consumer]
    if not positive and math.isfinite(value):
        call(value)             # a zero or negative approach or ratio is legal
        return
    rule = "must be positive and finite" if positive else "must be finite"
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"{name} {rule}, got {value}"
