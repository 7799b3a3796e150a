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
1e-76 <= xi <= 0.1, and every field its points, through
``sphere.SphereGeometry``, the layer's one owner of that domain, the rim
and the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    counts of its series.  The fields read Theta, Theta', Theta'' and
    Theta'/R through its eval (RadialSolution), with no division by R;
    the eval also forms Theta''' and the second quotient, which they
    leave unread.
    """

    geo: SphereGeometry
    U: float
    Theta: RadialSolution

    @property
    def xi(self) -> float:
        return self.geo.xi

    def _terms(self, R, Z):
        """R, Z and g(R) after the layer check, then Theta, Theta' and
        L = Theta'' + Theta'/R on R's shape, read by RadialSolution.eval
        (Theta'/R the profile's own 2 Theta_s, finite on the axis)."""
        Rb, Zb = self.geo.check(R, Z)
        t0, t1, t2, _, t1_over_r, _ = self.Theta.eval(Rb)
        return Rb, Zb, self.geo.gap(Rb), t0, t1, t2 + t1_over_r

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


# the meter's one grid: _GRID_N points a side, R over _R_WINDOW (inside
# the rim 1/sqrt(xi) >= 3.16 of every sphere layer)
_GRID_N = 201
_R_WINDOW = (0.25, 2.5)


def _weights(xi, m, mode):
    """The six equation weights, (r-equation, z-equation), in the term
    order of _residual_terms: u_r,ZZ, u_z,ZR, the Bessel operator on u_r;
    u_z,ZZ, u_r,ZR + u_r,Z/R, the Laplacian on u_z."""
    if mode == "dominant":
        return (1.0, 1.0, 1.0), (1.0, 1.0, 0.0)
    return ((m / xi ** 2, (1.0 + m) / xi ** 1.5, (1.0 + 2.0 * m) / xi),
            ((1.0 + 2.0 * m) / xi ** 2, (1.0 + m) / xi ** 1.5, m / xi))


def _residual_terms(ur, uz, rr, zz, weights):
    """Weighted term arrays of both scaled equations on the grid core,
    from the fields ur, uz sampled on the meshgrid of rr and zz."""
    hr = rr[1] - rr[0]
    hz = zz[1] - zz[0]
    Rcol = rr[:, None]
    ur_r = _d1(ur, hr, 0)
    uz_r = _d1(uz, hr, 0)
    raw_r = (_d2(ur, hz, 1), _d1(uz_r, hz, 1),
             _d2(ur, hr, 0) + ur_r / Rcol - ur / (Rcol * Rcol))
    raw_z = (_d2(uz, hz, 1), _d1(ur_r, hz, 1) + _d1(ur, hz, 1) / Rcol,
             _d2(uz, hr, 0) + uz_r / Rcol)
    core = (slice(2, -2), slice(2, -2))
    return ([w * t[core] for w, t in zip(weights[0], raw_r)],
            [w * t[core] for w, t in zip(weights[1], raw_z)])


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
                    mode: str = "full") -> ResidualNorms:
    """Measure how well a displacement pair satisfies the scaled system.

    ``fields(R, Z)`` returns the pair (u_r, u_z) on broadcast (R, Z)
    arrays, as the two direct series do, or anything that broadcasts to
    them (a constant, a rigid translation, is an exact solution);
    mu_over_lambda must be finite.
    ``fields`` is called once, on the meshgrid of a fixed 201-by-201
    rectangle [0.25, 2.5] x [-0.9 g(0.25), 0.9 g(0.25)], inside the layer
    (the gap grows with R) and inside the rim 1/sqrt(xi) >= 3.16 of every
    sphere layer.  The residual of both scaled equations is formed there
    with 4th-order centered differences and normalized by the largest
    retained term.  mode="dominant" drops the xi / mu-over-lambda weights
    and tests only the dominant-balance pair, which the Theta fields
    satisfy identically.

    If every retained term is at rounding level (an exact uniform-strain
    field, say), the residual is reported as zero rather than dividing
    noise by noise: the floor is 1e-10 times the largest weight magnitude
    times sup |u_z|, so it holds for any sign of the weights.  A
    step-halving check reruns the differences on the even-index slices
    of the same evaluation, the grid of twice the step; a disagreement
    above 10% raises NumericsError (grid too coarse for the field passed
    in).  The check is waived when both grids put the normalized residual
    under 1e-4, where the value is differencing noise on a field that
    satisfies the equations far beyond series accuracy and the comparison
    would only compare noise with noise.
    """
    geo = SphereGeometry.of(xi)
    m = check_finite("mu_over_lambda", mu_over_lambda)
    if mode not in ("full", "dominant"):
        raise ValueError(f"mode must be 'full' or 'dominant', got {mode!r}")
    weights = _weights(geo.xi, m, mode)
    z_max = 0.9 * geo.gap(_R_WINDOW[0])
    rr = np.linspace(*_R_WINDOW, _GRID_N)
    zz = np.linspace(-z_max, z_max, _GRID_N)
    ur, uz = (np.broadcast_to(np.asarray(u, dtype=float), (_GRID_N,) * 2)
              for u in fields(*np.meshgrid(rr, zz, indexing="ij")))
    N, sup_r, sup_z, l2_r, l2_z = _norms_from_terms(
        *_residual_terms(ur, uz, rr, zz, weights))
    w_max = max(map(abs, weights[0] + weights[1]))
    if N < 1e-10 * w_max * max(float(np.max(np.abs(uz))), 1e-300):
        return ResidualNorms(0.0, 0.0, 0.0, 0.0, normalization=N)

    # step-halving consistency: the even-index subgrid doubles h
    even = (slice(None, None, 2),) * 2
    N2, sup_r2, sup_z2, _, _ = _norms_from_terms(*_residual_terms(
        ur[even], uz[even], rr[::2], zz[::2], weights))
    fine = max(sup_r, sup_z) / N
    coarse = max(sup_r2, sup_z2) / N2
    if (max(fine, coarse) >= 1e-4
            and abs(fine - coarse) > 0.10 * max(fine, 1e-300)):
        raise NumericsError(
            f"residual grid too coarse: normalized sup {fine:.3e} vs "
            f"{coarse:.3e} on the halved grid (> 10% apart)")
    return ResidualNorms(sup_r=sup_r / N, sup_z=sup_z / N,
                         l2_r=l2_r / N, l2_z=l2_z / N, normalization=N)
