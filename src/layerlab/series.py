"""Direct asymptotic-series fields for the sphere-sphere layer.

In the gap scalings ``R = r/sqrt(a h)``, ``Z = z/h`` the axisymmetric
Navier equations, divided through by lambda, become (with m = mu/lambda)

    r:  m xi**-2 u_r,ZZ + (1+m) xi**-1.5 u_z,ZR
          + (1+2m) xi**-1 (u_r,RR + u_r,R/R - u_r/R**2) = 0,
    z:  (1+2m) xi**-2 u_z,ZZ + (1+m) xi**-1.5 (u_r,ZR + u_r,Z/R)
          + m xi**-1 (u_z,RR + u_z,R/R) = 0,

so the asymptotic structure is controlled by how m compares with powers
of xi.  Three regimes admit direct series solutions:

* compressible, m = O(1) (meaning m >= 10 sqrt(xi)):

      u_r = sqrt(xi) ((lam+mu)/(2 mu)) R [4Z**2/(2+R**2)**2 - 1] U
      u_z = { 2Z/(2+R**2) - (xi/3)(lam/mu) ((2-R**2)/(2+R**2))
              [2Z**2/(2+R**2) - 1] Z } U

* nearly compressible, m = sqrt(xi):

      u_r = (1/2) R [4Z**2/(2+R**2)**2 - 1] (1 + sqrt(xi)) U
      u_z = { 2Z/(2+R**2) - (xi/3) ((2-R**2)/(2+R**2))
              [2Z**2/(2+R**2) - 1] Z } U

  (here u_r and u_z are the same order, unlike the compressible regime
  where u_r is smaller by sqrt(xi))

* nearly incompressible, m = xi: the leading fields follow from the
  scaled dilatation Theta(R) (independent of Z), which satisfies

      Theta'' + (7R**2+2)/(R**3+2R) Theta' - 12/(R**2+2)**2 Theta
          = -24 U / (R**2+2)**3

  with regularity on the axis and the same zero normal-stress-resultant
  rim closure as the full radial profile, specialized to chi**2 = 3 xi.
  Then, with g = 1 + R**2/2 and L = Theta'' + Theta'/R,

      u_r0 = -(Theta'/2) (Z**2 - g**2)
      u_z0 = [Theta - Theta' g R - (L/2) g**2] Z + (L/6) Z**3,

  u_z0 integrating dilatation = Theta in Z from the midplane (odd), so
  u_z0(R, +/-g) = +/-U holds through the Theta equation itself.
  Theta = 6 A U, with A the full profile at chi**2 = 3 xi: solve_theta
  builds it in closed form, and the collocation solver's A at that chi
  is the independent cross-check the tests lean on.

``navier_residual`` closes the loop: it pushes any (u_r, u_z) pair
through the scaled system above with 4th-order finite differences and
reports residual norms normalized by the largest retained term, so the
asymptotic defect of each series is measured rather than assumed.

The series belong to the sphere layer: every public function takes
0 < xi <= 0.1, and every field its points, through
``sphere.SphereGeometry``, the layer's one owner of that domain, the rim
and the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .kernels import NumericsError, RadialSolution
from .materials import check_finite, check_positive
from .sphere import SphereGeometry, _theta_profile

__all__ = [
    "SeriesRegime",
    "ThetaSolution",
    "ResidualNorms",
    "series_regime",
    "compressible_series_fields",
    "nearly_compressible_series_fields",
    "solve_theta",
    "navier_residual",
]

_TRANSITION_EPS = 1e-12


@dataclass(frozen=True)
class SeriesRegime:
    """Which direct-series regime a (xi, mu/lambda) pair belongs to.

    regime is "compressible" (mu/lambda >= 10 sqrt(xi)),
    "nearly_compressible" (mu/lambda = sqrt(xi)), or
    "nearly_incompressible" (mu/lambda = xi); the two transition values
    are matched to 1e-12.  Ratios that fall between regimes have no
    printed series and are rejected by ``series_regime``.
    """

    regime: str
    mu_over_lambda: float
    xi: float


def series_regime(xi: float, mu_over_lambda: float) -> SeriesRegime:
    """Classify mu/lambda against the series-regime boundaries;
    mu_over_lambda must be positive and finite."""
    xi = SphereGeometry.of(xi).xi
    m = check_positive("mu_over_lambda", mu_over_lambda)
    root = math.sqrt(xi)
    if m >= 10.0 * root:
        tag = "compressible"
    elif abs(m - root) <= _TRANSITION_EPS:
        tag = "nearly_compressible"
    elif abs(m - xi) <= _TRANSITION_EPS:
        tag = "nearly_incompressible"
    else:
        raise ValueError(
            f"mu/lambda = {m:g} sits between series regimes at xi = {xi:g} "
            f"(compressible needs >= {10.0 * root:g}, the transitions are "
            f"sqrt(xi) = {root:g} and xi = {xi:g})")
    return SeriesRegime(regime=tag, mu_over_lambda=m, xi=xi)


def compressible_series_fields(xi: float, lam: float, mu: float, R, Z,
                               U: float = 1.0):
    """Series displacement field for mu/lambda = O(1).

    Returns (u_r, u_z) broadcast over R, Z.  u_r is smaller than u_z by
    sqrt(xi); both vanish/match the plate motion on the bonded surfaces
    at their retained orders.  lam and mu must be positive and finite,
    and U finite.
    """
    geo = SphereGeometry.of(xi)
    lam, mu = check_positive("lam", lam), check_positive("mu", mu)
    return _series_fields(geo, (math.sqrt(geo.xi) * (lam + mu) / (2.0 * mu),
                                1.0), lam / mu, R, Z, U)


def nearly_compressible_series_fields(xi: float, R, Z, U: float = 1.0):
    """Series displacement field at the mu/lambda = sqrt(xi) transition.

    Returns (u_r, u_z); here u_r and u_z are the same order in xi.  U
    must be finite.
    """
    geo = SphereGeometry.of(xi)
    return _series_fields(geo, (0.5, 1.0 + math.sqrt(geo.xi)), 1.0, R, Z, U)


def _series_fields(geo: SphereGeometry, k_r: tuple, k_z: float, R, Z,
                   U: float):
    """The two direct series, which differ only in their prefactors
    ``k_r = (k0, k1)`` and ``k_z``:

        u_r = k0 R [4Z**2/(2+R**2)**2 - 1] k1 U
        u_z = { 2Z/(2+R**2) - (xi/3) k_z ((2-R**2)/(2+R**2))
                [2Z**2/(2+R**2) - 1] Z } U

    k0 and k1 sit where the printed series put them, so each field is
    the product it was written as.  U must be finite."""
    U = check_finite("U", U)
    Rb, Zb = geo.check(R, Z)
    s = 2.0 + Rb * Rb
    bracket = 4.0 * Zb * Zb / (s * s) - 1.0
    u_r = k_r[0] * Rb * bracket * k_r[1] * U
    u_z = (2.0 * Zb / s
           - (geo.xi / 3.0) * k_z * ((2.0 - Rb * Rb) / s)
           * (2.0 * Zb * Zb / s - 1.0) * Zb) * U
    if not u_r.shape:
        return float(u_r), float(u_z)
    return u_r, u_z


@dataclass(frozen=True)
class ThetaSolution:
    """Scaled dilatation profile Theta(R) and its leading fields.

    Theta is independent of Z by construction; u_r0/u_z0 evaluate the
    leading nearly-incompressible displacement pair on the layer geo.
    The profile is solve_theta's closed form: its meta holds method
    "closed form", the rim coefficient C, and the switch point and term
    counts of its series.
    """

    geo: SphereGeometry
    U: float
    Theta: RadialSolution

    @property
    def xi(self) -> float:
        return self.geo.xi

    def _terms(self, R, Z):
        """R, Z and g(R) after the layer check, then Theta, Theta' and
        L = Theta'' + Theta'/R, formed on the radii of SphereGeometry.points
        (Theta'/R finite on the axis) and taken to R's shape."""
        Rb, Zb, radii, take = self.geo.points(R, Z)
        t0, t1, t2, _, t1_over_r, _ = self.Theta.eval_quotients(radii)
        return Rb, Zb, self.geo.gap(Rb), *map(take, (t0, t1, t2 + t1_over_r))

    def u_r0(self, R, Z):
        _, Zb, g, _, t1, _ = self._terms(R, Z)
        out = -0.5 * t1 * (Zb * Zb - g * g)
        return float(out) if not out.shape else out

    def u_z0(self, R, Z):
        Rb, Zb, g, t0, t1, L = self._terms(R, Z)
        out = (t0 - t1 * g * Rb - 0.5 * L * g * g) * Zb + (L / 6.0) * Zb ** 3
        return float(out) if not out.shape else out


def solve_theta(xi: float, U: float = 1.0) -> ThetaSolution:
    """The Theta profile on [0, 1/sqrt(xi)], in closed form.

    Theta is 6 U times the sphere profile at chi**2 = 3 xi (where
    beta = i/sqrt(2)): regular on the axis, zero normal-stress resultant
    at the rim.  At that chi the profile equation in x = R**2/(R**2 + 2)
    is Gauss's hypergeometric equation with a, b = -1 +/- i/sqrt(2) and
    c = 1 for every xi, so, with F = 2F1(a, b; 1; x),

        Theta = 6 U (P + C F),     P = -1/6 - x/2 + kappa F,

    P the profile of the untruncated layer and C, in Theta.meta, fixed by
    the rim row (see sphere's module docstring).  No collocation solve
    runs: the build evaluates the series once, at the rim, and Theta is
    evaluated from the same series at any R, to rounding.
    """
    geo = SphereGeometry.of(xi)
    U = check_finite("U", U)
    return ThetaSolution(geo, U, _theta_profile(geo, 6.0 * U))


class ResidualNorms(NamedTuple):
    """Scaled-equation residuals, normalized by the largest retained term."""

    sup_r: float
    sup_z: float
    l2_r: float
    l2_z: float
    normalization: float


def _d1(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order centered first derivative; valid away from 2-point rims."""
    F = np.moveaxis(F, axis, 0)
    out = np.full_like(F, np.nan)
    out[2:-2] = (F[:-4] - 8.0 * F[1:-3] + 8.0 * F[3:-1] - F[4:]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def _d2(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order centered second derivative; valid away from 2-point rims."""
    F = np.moveaxis(F, axis, 0)
    out = np.full_like(F, np.nan)
    out[2:-2] = (-F[:-4] + 16.0 * F[1:-3] - 30.0 * F[2:-2]
                 + 16.0 * F[3:-1] - F[4:]) / (12.0 * h * h)
    return np.moveaxis(out, 0, axis)


def _residual_terms(u_r_fn, u_z_fn, xi, m, rr, zz, mode):
    """Raw term arrays of both scaled equations on the grid core."""
    R2, Z2 = np.meshgrid(rr, zz, indexing="ij")
    ur = np.asarray(u_r_fn(R2, Z2), dtype=float)
    uz = np.asarray(u_z_fn(R2, Z2), dtype=float)
    hr = rr[1] - rr[0]
    hz = zz[1] - zz[0]
    Rcol = rr[:, None]

    ur_zz = _d2(ur, hz, 1)
    uz_zz = _d2(uz, hz, 1)
    ur_r = _d1(ur, hr, 0)
    uz_rr = _d2(uz, hr, 0)
    ur_rr = _d2(ur, hr, 0)
    ur_z = _d1(ur, hz, 1)
    uz_r = _d1(uz, hr, 0)
    uz_zr = _d1(_d1(uz, hr, 0), hz, 1)
    ur_zr = _d1(_d1(ur, hr, 0), hz, 1)

    bessel_ur = ur_rr + ur_r / Rcol - ur / (Rcol * Rcol)
    if mode == "dominant":
        terms_r = [ur_zz, uz_zr, bessel_ur]
        terms_z = [uz_zz, ur_zr + ur_z / Rcol]
    else:
        terms_r = [m / xi ** 2 * ur_zz,
                   (1.0 + m) / xi ** 1.5 * uz_zr,
                   (1.0 + 2.0 * m) / xi * bessel_ur]
        terms_z = [(1.0 + 2.0 * m) / xi ** 2 * uz_zz,
                   (1.0 + m) / xi ** 1.5 * (ur_zr + ur_z / Rcol),
                   m / xi * (uz_rr + uz_r / Rcol)]
    core = (slice(2, -2), slice(2, -2))
    terms_r = [t[core] for t in terms_r]
    terms_z = [t[core] for t in terms_z]
    return terms_r, terms_z, float(np.max(np.abs(uz)))


def _norms_from_terms(terms_r, terms_z):
    N = max(float(np.max(np.abs(t))) for t in terms_r + terms_z)
    res_r = sum(terms_r)
    res_z = sum(terms_z)
    sup_r = float(np.max(np.abs(res_r)))
    sup_z = float(np.max(np.abs(res_z)))
    l2_r = float(np.sqrt(np.mean(res_r ** 2)))
    l2_z = float(np.sqrt(np.mean(res_z ** 2)))
    return N, sup_r, sup_z, l2_r, l2_z


def navier_residual(fields, xi: float, mu_over_lambda: float, *,
                    r_window: Optional[tuple] = None, n: int = 201,
                    mode: str = "full") -> ResidualNorms:
    """Measure how well a displacement pair satisfies the scaled system.

    ``fields`` is (u_r, u_z), each callable on broadcast (R, Z) arrays,
    and mu_over_lambda must be finite.
    The residual of both scaled equations is formed with 4th-order
    centered differences on an n-by-n rectangle
    [r_lo, r_hi] x [-0.9 g(r_lo), 0.9 g(r_lo)] (inside the layer since
    the gap grows with R) and normalized by the largest retained term.
    ``r_window`` = (r_lo, r_hi) defaults to (0.25, 2.5), inside the rim
    1/sqrt(xi) >= 3.16 of every sphere layer.
    mode="dominant" drops the xi / mu-over-lambda weights and tests only
    the dominant-balance pair, which the Theta fields satisfy
    identically.

    If every retained term is at rounding level (an exact uniform-strain
    field, say), the residual is reported as zero rather than dividing
    noise by noise.  A step-halving disagreement above 10% raises
    NumericsError (grid too coarse for the field passed in); the halving
    comparison is waived when both grids put the normalized residual
    under 1e-4, where the value is differencing noise on a field that
    satisfies the equations far beyond series accuracy and the
    comparison would only compare noise with noise.
    """
    u_r_fn, u_z_fn = fields
    geo = SphereGeometry.of(xi)
    xi = geo.xi
    m = check_finite("mu_over_lambda", mu_over_lambda)
    if mode not in ("full", "dominant"):
        raise ValueError(f"mode must be 'full' or 'dominant', got {mode!r}")
    if r_window is None:
        r_window = (0.25, 2.5)
    r_lo, r_hi = map(float, r_window)
    if not (0.0 < r_lo < r_hi <= geo.r_edge):
        raise ValueError(f"r_window {r_window} outside (0, 1/sqrt(xi)]")
    n = int(n)
    if n < 13 or n % 2 == 0:
        raise ValueError("n must be an odd integer >= 13")
    z_max = 0.9 * geo.gap(r_lo)
    rr = np.linspace(r_lo, r_hi, n)
    zz = np.linspace(-z_max, z_max, n)

    terms_r, terms_z, uz_sup = _residual_terms(u_r_fn, u_z_fn, xi, m, rr, zz, mode)
    N, sup_r, sup_z, l2_r, l2_z = _norms_from_terms(terms_r, terms_z)

    weight = (1.0 + 2.0 * m) / xi ** 2 if mode == "full" else 1.0
    noise_floor = 1e-10 * weight * max(uz_sup, 1e-300)
    if N < noise_floor:
        return ResidualNorms(0.0, 0.0, 0.0, 0.0, normalization=N)

    # step-halving consistency: the even-index subgrid doubles h
    terms_r2, terms_z2, _ = _residual_terms(u_r_fn, u_z_fn, xi, m,
                                            rr[::2], zz[::2], mode)
    N2, sup_r2, sup_z2, _, _ = _norms_from_terms(terms_r2, terms_z2)
    fine = max(sup_r, sup_z) / N
    coarse = max(sup_r2, sup_z2) / N2
    if (max(fine, coarse) >= 1e-4
            and abs(fine - coarse) > 0.10 * max(fine, 1e-300)):
        raise NumericsError(
            f"residual grid too coarse: normalized sup {fine:.3e} vs "
            f"{coarse:.3e} on the halved grid (> 10% apart)")
    return ResidualNorms(sup_r=sup_r / N, sup_z=sup_z / N,
                         l2_r=l2_r / N, l2_z=l2_z / N, normalization=N)
