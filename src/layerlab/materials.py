"""Material-parameter algebra for thin bonded elastic layers.

Everything here is exact closed-form arithmetic on the compressibility
parameter

    chi = sqrt(3*(1 - 2*nu) / (2*(1 - nu))),   0 <= chi <= 3/2,

which maps Poisson's ratio nu in (-1, 1/2] onto [0, 3/2): chi = 0 is the
incompressible endpoint (nu = 1/2) and chi -> 3/2 as nu -> -1.  The inverse
map and the Lame constants follow from the same relation:

    nu          = (3 - 2*chi**2) / (6 - 2*chi**2)
    lambda/mu   = (3 - 2*chi**2) / chi**2          (infinite at chi = 0)
    E/mu        = (9 - 4*chi**2) / (3 - chi**2)    (zero at chi = 3/2)

The relative-thickness groupings used by the regime analysis are

    zeta       = xi / chi        (plate)
    zeta_bar   = sqrt(xi) / chi  (sphere, incompressible side)
    zeta_tilde = xi**0.25 / chi  (sphere, compressible side)

all +inf at chi = 0.  No iteration anywhere; every function is
pure and every record immutable: ZetaFamily, built on every plate sweep
point, is a NamedTuple (a tuple's cost, with the same named fields), the
parameter records frozen dataclasses.

The domain checks live here and every module shares them: check_xi and
check_chi for the two parameters that fix a solution, and check_positive
and check_finite for the scales that only scale it (a, h, mu, U, ...).
Each returns its value as a float, and its ValueError names the argument
and the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "check_xi",
    "check_chi",
    "check_positive",
    "check_finite",
    "chi_from_nu",
    "nu_from_chi",
    "resolve_chi",
    "zeta_family",
    "MaterialParams",
    "LayerConfig",
    "ZetaFamily",
]

CHI_MAX = 1.5


def check_xi(xi) -> float:
    """xi as a float, after checking the thickness ratio's domain
    0 < xi < 1 (NaN fails it)."""
    if not (0.0 < xi < 1.0):
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    return float(xi)


def check_chi(chi) -> float:
    """chi as a float, after checking the compressibility parameter's
    domain 0 <= chi <= 3/2 (NaN fails it)."""
    if not (0.0 <= chi <= CHI_MAX):
        raise ValueError(f"chi must lie in [0, 3/2], got {chi}")
    return float(chi)


def check_positive(name: str, value) -> float:
    """value as a float, after checking that the scale called name lies in
    (0, inf) (NaN fails it)."""
    value = float(value)
    if not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_finite(name: str, value) -> float:
    """value as a float, after checking that the scale called name is
    finite (NaN fails it); zero and negative values pass."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def chi_from_nu(nu: float) -> float:
    """Compressibility parameter chi from Poisson's ratio.

    chi = sqrt(3*(1-2*nu)/(2*(1-nu))).  Requires -1 < nu <= 1/2; the value
    runs from 0 (nu = 1/2, incompressible) toward 3/2 (nu -> -1).
    """
    if not (-1.0 < nu <= 0.5):
        raise ValueError(f"nu must lie in (-1, 1/2], got {nu}")
    if nu == 0.5:
        return 0.0
    return math.sqrt(3.0 * (1.0 - 2.0 * nu) / (2.0 * (1.0 - nu)))


def nu_from_chi(chi: float) -> float:
    """Poisson's ratio from chi: nu = (3 - 2*chi^2)/(6 - 2*chi^2).

    Requires 0 <= chi <= 3/2.  Exact inverse of chi_from_nu (round trips to
    1e-14); chi = 1 gives nu = 1/4.  chi = 3/2 maps to nu = -1, the open
    endpoint of the physical range, so downstream code treats chi = 3/2 as
    singular (E = 0 there).
    """
    check_chi(chi)
    c2 = chi * chi
    return (3.0 - 2.0 * c2) / (6.0 - 2.0 * c2)


def resolve_chi(chi: float | None = None, nu: float | None = None) -> float:
    """Resolve the compressibility parameter from chi, nu, or both.

    At least one of (chi, nu) must be given.  If both are given they must
    agree through chi_from_nu to 1e-10 absolute — this is the guard solvers
    and the command line share against inconsistent double specification.
    The returned value is the explicit chi when one was supplied.
    """
    if chi is None and nu is None:
        raise ValueError("specify chi or nu (or both, consistently)")
    if nu is not None:
        chi_nu = chi_from_nu(nu)
        if chi is None:
            return chi_nu
        if abs(float(chi) - chi_nu) > 1e-10:
            raise ValueError(
                f"chi = {chi} and nu = {nu} disagree: chi(nu) = {chi_nu:.12g}"
            )
    return check_chi(float(chi))


class ZetaFamily(NamedTuple):
    """The three thickness/compressibility groupings.

    zeta = xi/chi (plate), zeta_bar = sqrt(xi)/chi (sphere, incompressible
    side), zeta_tilde = xi**(1/4)/chi (sphere, compressible side).  All are
    +inf when chi == 0.
    """

    xi: float
    chi: float
    zeta: float
    zeta_bar: float
    zeta_tilde: float


def zeta_family(xi: float, chi: float) -> ZetaFamily:
    """Compute (zeta, zeta_bar, zeta_tilde) for a parameter pair.

    Examples: (xi, chi) = (1e-2, 0.5) -> zeta = 0.02;
    (1e-5, 1e-2) -> zeta_bar = 1/sqrt(10); (1e-4, 1.0) -> zeta_tilde = 0.1.
    """
    check_xi(xi)
    check_chi(chi)
    if chi == 0.0:
        inf = math.inf
        return ZetaFamily(xi, chi, inf, inf, inf)
    return ZetaFamily(
        xi,
        chi,
        xi / chi,
        math.sqrt(xi) / chi,
        xi**0.25 / chi,
    )


@dataclass(frozen=True)
class MaterialParams:
    """Linear-elastic constants of the layer material.

    Fields: nu (Poisson), chi (compressibility parameter), mu (shear
    modulus), lam (first Lame constant; +inf at nu = 1/2), youngs
    (Young's modulus; 0 at chi = 3/2, flagged by `youngs_singular`).

    The public converter from (nu or chi, mu) to the constants the
    series take: lam for ``compressible_series_fields``, and mu / lam for
    ``series_regime`` and ``navier_residual``.
    """

    nu: float
    chi: float
    mu: float
    lam: float
    youngs: float

    @staticmethod
    def from_nu(nu: float, mu: float = 1.0) -> "MaterialParams":
        check_positive("mu", mu)
        chi = chi_from_nu(nu)
        if nu == 0.5:
            lam = math.inf
        else:
            lam = 2.0 * mu * nu / (1.0 - 2.0 * nu)
        youngs = 2.0 * mu * (1.0 + nu)
        return MaterialParams(nu=nu, chi=chi, mu=mu, lam=lam, youngs=youngs)

    @staticmethod
    def from_chi(chi: float, mu: float = 1.0) -> "MaterialParams":
        check_positive("mu", mu)
        nu = nu_from_chi(chi)
        if chi == 0.0:
            lam = math.inf
        else:
            # lam/mu = (3 - 2 chi^2)/chi^2, exact in chi (avoids the
            # 1/(1-2 nu) cancellation near chi = 0)
            lam = mu * (3.0 - 2.0 * chi * chi) / (chi * chi)
        # E/mu = (9 - 4 chi^2)/(3 - chi^2): equals 2(1+nu) identically
        youngs = mu * (9.0 - 4.0 * chi * chi) / (3.0 - chi * chi)
        return MaterialParams(nu=nu, chi=chi, mu=mu, lam=lam, youngs=youngs)

    @property
    def incompressible(self) -> bool:
        return self.chi == 0.0

    @property
    def youngs_singular(self) -> bool:
        """True at chi = 3/2 (nu -> -1), where E vanishes and the
        E-normalized apparent moduli are undefined."""
        return self.chi >= CHI_MAX


@dataclass(frozen=True)
class LayerConfig:
    """Geometry and loading of one bonded-layer problem.

    a is the radius of the rigid plates or spheres and h the layer's
    half-thickness (its minimum half-gap between spheres); xi = h/a lies
    in (0, 1), and h = xi a is derived, not stored.  The geometry is the
    solution's type (PlateSolution or SphereSolution), not a field.  U is
    the prescribed half-approach of the rigid bodies and mu the layer
    shear modulus; both only scale dimensional output.  a and mu must lie
    in (0, inf) and U must be finite (U = 0 and U < 0 are allowed); NaN
    fails every check.
    """

    xi: float
    a: float = 1.0
    U: float = 1.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        check_positive("a", self.a)
        check_positive("mu", self.mu)
        check_finite("U", self.U)
        check_xi(self.xi)

    @property
    def h(self) -> float:
        return self.xi * self.a
