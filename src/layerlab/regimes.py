"""Compressibility-regime classification for thin bonded layers.

A bonded layer that is both geometrically thin (xi = h/a small) and made
of a nearly incompressible material (chi small) sits between two
competing limits, and which one wins depends only on how xi and chi
compare -- not on either alone.

For plate layers the apparent-modulus estimates from the two limits are
the incompressible plateau ``E_i = 1/(8 xi**2)`` and the compressible
plateau ``E_c = 3 (3 - chi**2) / (chi**2 (9 - 4 chi**2))``.  In the
joint limit ``xi, chi -> 0`` with ``zeta = xi/chi`` fixed, each
estimate's inflation over the true modulus collapses onto a universal
curve in zeta alone:

    ratio_c(zeta) = E_c / E = 1 / (1 - 2 t(y) / y),      y = 1/zeta,
    ratio_i(zeta) = E_i / E = ratio_c(zeta) / (8 zeta**2),

with ``t = I1/I0`` the modified-Bessel ratio.  ``ratio_c -> 1`` as
``zeta -> 0`` (compressible side) and ``ratio_i -> 1`` as
``zeta -> infinity`` (incompressible side), each inflating without
bound outside its own regime.  A tolerance ``tau`` therefore defines
two transition points,

    ratio_c(zeta_c) = 1 + tau        (compressible for zeta <= zeta_c),
    ratio_i(zeta_i) = 1 + tau        (incompressible for zeta >= zeta_i),

with an intermediate window between them; at ``tau = 0.10`` these sit
at ``zeta_c = 0.0465`` and ``zeta_i = 1.29``.

For sphere-sphere layers the gap grows quadratically, so the governing
groups are ``zeta_bar = sqrt(xi)/chi`` (incompressible for
``zeta_bar >= 1``) and ``zeta_tilde = xi**0.25 / chi`` (compressible
for ``sqrt(10) zeta_tilde <= 1``).  The window between them closes only
logarithmically in xi, so the sphere thresholds are fixed constants and
the tolerance argument does not apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .kernels import bessel_ratio, find_root, x_minus_2t
from .materials import (check_positive, check_xi, nu_from_chi, resolve_chi,
                        zeta_family)
from .sphere import SphereGeometry

__all__ = [
    "PlateTransitions",
    "RegimeReport",
    "plate_ratio_compressible",
    "plate_ratio_incompressible",
    "plate_transitions",
    "nu_intermediate_window",
    "classify",
]

SPHERE_ZETA_BAR_INCOMPRESSIBLE = 1.0
SPHERE_ZETA_TILDE_COMPRESSIBLE = 1.0 / math.sqrt(10.0)
_TIE_EPS = 1e-12


def plate_ratio_compressible(zeta: float) -> float:
    """Inflation E_c / E of the compressible plateau estimate over the
    true plate modulus, in the joint thin/incompressible limit: with
    y = 1/zeta, 1 / (1 - 2 t(y)/y), the difference formed without
    cancellation as (y - 2t)/y."""
    y = 1.0 / check_positive("zeta", zeta)
    return 1.0 / (x_minus_2t(bessel_ratio(y)) / y)


def plate_ratio_incompressible(zeta: float) -> float:
    """Inflation E_i / E of the incompressible plateau estimate over the
    true plate modulus, in the joint thin/incompressible limit."""
    zeta = float(zeta)
    return plate_ratio_compressible(zeta) / (8.0 * zeta * zeta)


class PlateTransitions(NamedTuple):
    """Regime boundaries in zeta = xi/chi at a given inflation tolerance."""

    zeta_compressible: float
    zeta_incompressible: float


@lru_cache(maxsize=32)
def plate_transitions(tolerance: float = 0.10) -> PlateTransitions:
    """Solve ratio_c(zeta_c) = ratio_i(zeta_i) = 1 + tolerance.

    ratio_c is increasing and ratio_i decreasing in zeta, so each root
    is unique; at the default tolerance 0.10 the boundaries are
    (0.0465, 1.290).
    """
    tolerance = float(tolerance)
    if not (1e-9 < tolerance < 100.0):
        raise ValueError(f"tolerance out of range (1e-9, 100): {tolerance}")
    target = 1.0 + tolerance
    zc = find_root(lambda z: plate_ratio_compressible(z) - target,
                   (1e-9, 1e3), tol=1e-13)
    zi = find_root(lambda z: plate_ratio_incompressible(z) - target,
                   (1e-6, 1e6), tol=1e-13)
    return PlateTransitions(zeta_compressible=zc, zeta_incompressible=zi)


def nu_intermediate_window(xi: float, tolerance: float = 0.10) -> tuple[float, float]:
    """Poisson-ratio window (nu_lo, nu_hi) where a plate layer of
    thickness ratio xi is in neither extreme regime.

    The window maps the zeta interval (zeta_c, zeta_i) through
    chi = xi/zeta, clamped to the admissible chi <= 3/2 (nu >= -1); for
    thin layers it pins nu against 1/2 (e.g. at xi = 1e-2 it is roughly
    (0.492, 0.49999)).  Where no admissible chi is intermediate the
    window is empty, nu_lo == nu_hi: at nu = -1 where even chi = 3/2
    leaves the layer incompressible (xi/zeta_i >= 3/2, thick layers at a
    wide tolerance), and at nu(xi/zeta_c) where the two bands overlap
    (zeta_c >= zeta_i, tolerances above about 1.5).
    """
    xi = check_xi(float(xi))
    zc, zi = plate_transitions(tolerance)
    chi_hi = min(xi / zc, 1.5)
    chi_lo = min(xi / zi, chi_hi)
    return nu_from_chi(chi_hi), nu_from_chi(chi_lo)


@dataclass(frozen=True)
class RegimeReport:
    """Classification of a layer's compressibility regime.

    xi and chi are the layer's parameters and zeta, zeta_bar, zeta_tilde
    their groupings (all +inf at chi = 0; see ``zeta_family``).
    ``label`` is one of "incompressible", "compressible",
    "intermediate".  For plates, ``zeta_c``/``zeta_i`` are the
    tolerance-dependent boundaries the decision used; for spheres they
    are None (the fixed zeta_bar / zeta_tilde thresholds apply instead)
    and ``tolerance`` is None because it does not enter the decision.
    """

    geometry: str
    xi: float
    chi: float
    zeta: float
    zeta_bar: float
    zeta_tilde: float
    zeta_c: Optional[float]
    zeta_i: Optional[float]
    tolerance: Optional[float]
    label: str


def classify(geometry: str, xi: float, chi: Optional[float] = None,
             nu: Optional[float] = None,
             tolerance: float = 0.10) -> RegimeReport:
    """Classify a layer as compressible / incompressible / intermediate.

    geometry is "plate" or "sphere"; chi or nu, or both if they agree
    (``resolve_chi``).  chi = 0 is always incompressible, since every
    zeta is +inf there.  For spheres xi is checked first against the
    sphere layer's domain (``SphereGeometry.of``: 0 < xi <= 0.1), the
    boundaries are the fixed constants
    zeta_bar >= SPHERE_ZETA_BAR_INCOMPRESSIBLE = 1 (incompressible) and
    zeta_tilde <= SPHERE_ZETA_TILDE_COMPRESSIBLE = 1/sqrt(10)
    (compressible, with the boundary itself counted as compressible),
    and ``tolerance`` is ignored.
    """
    if geometry not in ("plate", "sphere"):
        raise ValueError(f"geometry must be 'plate' or 'sphere', got {geometry!r}")
    chi = resolve_chi(chi, nu)
    if geometry == "sphere":
        xi = SphereGeometry.of(xi).xi   # the sphere layer's domain, xi <= 0.1
    fam = zeta_family(float(xi), chi)

    if geometry == "plate":
        zc, zi = plate_transitions(tolerance)
        tolerance = float(tolerance)
        if fam.zeta >= zi:
            label = "incompressible"
        elif fam.zeta <= zc:
            label = "compressible"
        else:
            label = "intermediate"
    else:
        zc = zi = tolerance = None
        if fam.zeta_bar >= SPHERE_ZETA_BAR_INCOMPRESSIBLE:
            label = "incompressible"
        elif fam.zeta_tilde <= SPHERE_ZETA_TILDE_COMPRESSIBLE * (1.0 + _TIE_EPS):
            label = "compressible"
        else:
            label = "intermediate"
    return RegimeReport(geometry, fam.xi, fam.chi, fam.zeta, fam.zeta_bar,
                        fam.zeta_tilde, zc, zi, tolerance, label)
