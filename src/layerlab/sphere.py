"""Thin elastic layer squeezed between two rigid spheres.

Two equal rigid spheres of radius ``a`` approach each other along their
line of centres at relative speed ``2U``; the layer between them has
minimum thickness ``2h`` and is bonded to both surfaces.  Near the
contact axis the gap is parabolic, so with the stretched coordinates

    R = r / sqrt(a h),      Z = z / h,      g(R) = 1 + R**2 / 2,

the layer occupies ``|Z| <= g(R)``, truncated radially at the cylinder
``R = 1/sqrt(xi)`` (``xi = h/a``, so the truncation sits at physical
radius ``sqrt(a h) / sqrt(xi) = a``).

All fields derive from a single radial profile ``A(R)`` solving

    A'' + p(R) A' + q(R) A = f(R),          0 < R < 1/sqrt(xi),

    p = (7 R**2 + 2) / (R**3 + 2 R),
    q = -4 chi**2 / (xi (R**2 + 2)**2),
    f = -4 / (R**2 + 2)**3,

with ``A`` regular on the axis and, at the rim ``R_e = 1/sqrt(xi)``,
the zero normal-stress resultant closure

    3 g_e**2 A'' + (9 g_e R_e - (3 - 2 chi**2) g_e**2 / R_e) A'
                 + 3 (3 - 2 chi**2) A / xi = 0,     g_e = g(R_e),

which is exactly ``integral of sigma_rr over the layer thickness = 0``.
The shear resultant vanishes identically (the shear stress is odd in Z),
so it is checked, never imposed.

The solver takes the equation in ``s = R**2``, where it reads
``4 s A_ss + 2 (1 + m) A_s + q A = f`` with ``m = R p``; with
``sigma = s + 2`` its coefficients and their s-derivatives are

    m = (7 s + 2) / sigma,       m_s = 12 / sigma**2,
    q = -4 chi**2 / (xi sigma**2),   q_s = 8 chi**2 / (xi sigma**3),
    f = -4 / sigma**3,           f_s = 12 / sigma**4,

all smooth through the axis, so ``A''`` and ``A'''`` are read off the
equation with no ``1/R``.

Writing ``L = A'' + A'/R`` and ``V = -3 g**2 L - 6 g R A'``, the fields
are assembled as

    u_r  = -(3 - chi**2) (U / sqrt(xi)) A' (Z**2 - g**2)
    u_z  = U [ (V + 2 chi**2 A / xi) Z + L Z**3 ]
    s_zz = (mu U / (a xi)) [ (9 - 2 chi**2) (L (Z**2 - g**2) - 2 g R A')
                             + 6 A / xi ]
    s_rr = (mu U / (a xi)) [ (3 - 2 chi**2) (L (Z**2 - g**2) - 2 g R A'
                             + 2 A / xi)
                             - 2 (3 - chi**2) (A'' (Z**2 - g**2)
                             - 2 g R A') ]
    s_tt =  ... same with the last bracket ``(A'/R) (Z**2 - g**2)``
    s_rz = (mu U / (a xi**1.5)) [ (4 chi**2 - 6) A' Z
                                  + xi (V' Z + L' Z**3) ]

with ``V' = -6 ((R**2 + g) A' + g R A'') - 3 (2 g R L + g**2 L')`` and
``L' = A''' + A''/R - A'/R**2``.  The kinematic condition
``u_z(R, +/-g) = +/- U`` is equivalent to the radial equation itself
(``-2 g**3 L - 6 g**2 R A' + 2 chi**2 g A / xi = 1``), so it holds to
solver accuracy, not by construction.

The pressure-like potential is odd in Z:

    Phi = xi a**2 U [ (integral of A1 from 0 to R) Z + A Z**3 ],
    A1  = -3 g**2 A',

and the squeezing force on either sphere is ``F = 6 pi a mu U Psi`` with

    Psi = integral of (R/3) [ -(9 - 2 chi**2) (L g**2 + 2 g R A')
                              + 6 A / xi ] dR          (midplane trace)
    Psi = integral of (R/3) [ -2 (9 - 2 chi**2) g R A'
                              + 6 A / xi ] dR          (surface trace)

over ``0 <= R <= 1/sqrt(xi)``.  The two traces differ by the momentum
the asymptotic stress field does not conserve at this order (a few
percent at moderate chi); the midplane trace is the headline number and
the surface trace stays available through ``trace="surface"``.

Neither trace needs L.  With ``M_j = integral of s**j A ds`` over
``0 <= s <= R_e**2`` (``ds = 2 R dR``, so the 6 A / xi term gives
``M0 / xi``) and ``c9 = 9 - 2 chi**2``: ``(R g**2 A')' = R (g**2 L +
2 g R A')``, so the midplane bracket integrates to its rim value, and by
parts in s, ``integral of g s A_s ds = g_e R_e**2 A(R_e) - M0 - M1``:

    Psi = M0 / xi - (c9 / 3) R_e g_e**2 A'(R_e)                 (midplane)
    Psi = M0 / xi - (2 c9 / 3) (g_e R_e**2 A(R_e) - M0 - M1)    (surface)

So the force reads A and A_s at the rim and A's moments, and any profile
whose rim values and moments are known has a force.  The moments, and
the potential's ``A1 dR = -3 g**2 A_s ds``, use the one Gauss-Legendre
rule of the solver's own panels (kernels.PanelPoly.gauss), which live in
s from the axis out: A is a polynomial of degree <= 10 in s on each
panel, so 6 points per panel integrate ``A``, ``s A`` and ``g**2 A_s``
exactly.  The panels form that record (nodes, weights, A and A_s) once,
when the solve's dual check samples them, and the force and the
potential read it; the potential's partial panel up to each radius
takes the same rule (integral_below).

Closed-form anchors used by the tests: for ``chi = 0`` the profile is
``A = 1/(2 sigma**2) - xi**2 / (2 (1 + 2 xi)**2)`` with
``sigma = R**2 + 2`` (so ``A' = -2 R / sigma**3`` and ``A(R_e) = 0``),
and the extreme-regime force factors are ``Psi_i = 1/(4 xi)``
(incompressible plateau) and ``Psi_c = ln(1/(2 xi)) / chi**2``
(compressible logarithm).

For every chi > 0 the profile has a closed form too.  In
``x = s / (s + 2) = R**2 / (R**2 + 2)``, which maps the layer onto
``[0, 1/(1 + 2 xi)]``, the s-form equation becomes

    x (1 - x) A_xx + (1 + x) A_x - (k/2) A = (x - 1)/4,   k = chi**2/xi,

Gauss's hypergeometric equation with ``c = 1``, ``a + b = -2`` and
``ab = k/2``: ``a, b = -1 +/- sqrt(1 - ab)``, the complex conjugates
``-1 +/- i beta``, ``beta**2 = ab - 1``, once ab > 1.  Both indicial
roots at ``x = 0`` are 0, so ``F = 2F1(a, b; 1; x)`` is the one
homogeneous solution regular on the axis, ``p0 + p1 x`` with
``p1 = 1/(4 - 2 k)`` and ``p0 = (2 p1 + 1/2)/k`` solves the forced
equation (k not 0 or 2), and

    A = P + C F,    P = p0 + p1 x + kappa F,    kappa = -2/(k (2 - k) q0),

with ``q0 = F(1)``.  kappa makes P vanish as ``(1 - x)**2 / 8`` at
``x -> 1``: P is the profile of the untruncated layer, and C, fixed by
the rim row, is the rim's correction to it (of order xi**2).  Up to
``x = 0.55`` F is summed from its Taylor series,
``t_{n+1} = t_n (n**2 - 2 n + ab) / (n + 1)**2``; above it, in
``y = 1 - x = 2 / (s + 2)``, from the connection formula for
``c - a - b = 3`` (Abramowitz and Stegun 15.3.11):

    F = Q(y) + y**3 sum_n d_n y**n (ln y + e_n),
    Q = q0 (1 - (ab/2) y + (a (a + 1) b (b + 1) / 4) y**2),
    q0 = Gamma(3) / (Gamma(a + 3) Gamma(b + 3)),
    d_n = (a + 3)_n (b + 3)_n / (Gamma(a) Gamma(b) n! (n + 3)!),
    e_n = psi(a + n + 3) + psi(b + n + 3) - psi(n + 1) - psi(n + 4).

The Gamma products are exact through
``|Gamma(1 + i beta)|**2 = pi beta / sinh(pi beta)`` (A&S 6.1.31):
``q0 = 2 sinh(pi beta) / (pi beta ab)`` and
``1 / (Gamma(a) Gamma(b)) = beta ab sinh(pi beta) / pi``, with
``beta = i r`` below ab = 1.  With ``Re psi(1 + i beta) = -gamma
+ beta**2 sum_k 1/(k (k**2 + beta**2))`` (A&S 6.3.17),
``e_0 = 1/6 + 2 beta**2 sum_{k >= 2} 1/(k (k**2 + beta**2))``, its tail
past k = 9 summed by the Hurwitz zeta, ``sum_j (-beta**2)**j
zeta(2j + 3, 10)``, for every ab, Theta's included (against 40-digit
mpmath its largest error over ab in [0.5, 1.5] is 5.9e-17), and d_n and
e_n follow by their recurrences.  P's terms ``p0 + p1 x`` cancel
kappa Q's first two exactly, so its connection series leaves them out
and P keeps its relative accuracy out to the rim.
In x, P's constant and linear terms ``p0 + kappa`` and
``p1 + kappa ab`` cancel as 1/ab toward ab = 0 and as 1/(ab - 1) toward
ab = 1; below ab = 3/2 they are read instead off P's connection series
at the switch, less the higher Taylor terms there, so that nothing
cancels and the two series meet at the switch.  Every series is summed
from its smallest term up; A'' and A''' are read off the equation, as on
the panels.

Two profiles use it.  At ``chi**2 = 3 xi`` (``ab = 3/2``) it is the
Theta problem of ``series``, built with no collocation solve
(_theta_profile): F, P and their first two x-derivatives agree with
mpmath at 40 digits to 20 units of roundoff or better, over x from 0 to
1 - 2e-8.  And wherever ``1e-300 <= ab <= 20`` and ab is not 1 (_cell), a
cold solve checks its panels against it in place of the alt
discretization: A and A_s agree with mpmath to 32 units of roundoff of
``|P| + |C F|`` below ab = 10, and to 2048 at ab = 20, where the
connection series cancels just past the switch.  Past ab = 20 (ROADMAP
item 13), at ab = 1 and below ab = 1e-300, chi = 0 included, the alt
discretization stays the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np
from scipy import special

from .kernels import RadialSolution, closed_form_profile, solve_dual_bvp
from .materials import XI_MIN, LayerConfig, resolve_chi
from .plate import FieldSample, _in_range, _range_error, _z_polynomials

__all__ = [
    "SphereGeometry",
    "SphereSolution",
    "SphereForce",
    "PotentialSample",
    "PsiExtremes",
    "solve_sphere",
    "sphere_field",
    "sphere_potential",
    "sphere_force",
    "psi_extremes",
]

XI_MAX_SPHERE = 0.1
# the package's floor: from xi ~ 7e-78 down, ode_s's 12 / sigma**4 (the
# fields' A''') overflows at the rim; the plate layer refuses below it too
XI_MIN_SPHERE = XI_MIN


@dataclass(frozen=True)
class SphereGeometry:
    """Scaled geometry of the sphere-sphere gap, and the one owner of the
    sphere layer's domain: every sphere-layer function (the profile, its
    fields and potential, the Theta problem and the direct series) takes
    xi through ``of`` and its points through ``check``.

    ``gap(R) = 1 + R**2/2`` is the half-thickness in units of h; the
    domain is truncated at ``r_edge = 1/sqrt(xi)``.
    """

    xi: float
    r_edge: float

    @classmethod
    def of(cls, xi) -> "SphereGeometry":
        """The geometry at xi, after checking 0 < xi <= XI_MAX_SPHERE,
        where the parabolic gap holds (NaN fails it), and then
        xi >= XI_MIN_SPHERE, below which the fields' coefficients leave
        double range, each with its own message."""
        xi = float(xi)
        if not (0.0 < xi <= XI_MAX_SPHERE):
            raise ValueError(f"xi must be positive and <= {XI_MAX_SPHERE} "
                             f"for a sphere layer, got {xi}")
        if xi < XI_MIN_SPHERE:
            raise ValueError(f"xi must be >= {XI_MIN_SPHERE} for a sphere "
                             f"layer (below it the fields overflow), got {xi}")
        return cls(xi=xi, r_edge=1.0 / math.sqrt(xi))

    def gap(self, R):
        R = np.asarray(R, dtype=float)
        g = 1.0 + 0.5 * R * R
        return float(g) if g.ndim == 0 else g

    def check(self, R, Z):
        """R and Z as float arrays, after checking them against the layer:
        ``0 <= R <= r_edge`` and ``|Z| <= gap(R)``."""
        # written so that NaN fails each check; one |Z| array, one boolean grid
        Rr = np.asarray(R, dtype=float)
        if not (np.all(Rr >= 0.0) and np.all(Rr <= self.r_edge * (1.0 + 1e-12))):
            raise ValueError("R outside [0, 1/sqrt(xi)]")
        Zb = np.asarray(Z, dtype=float)
        if not np.all(np.abs(Zb) <= self.gap(Rr) * (1.0 + 1e-12) + 1e-9):
            raise ValueError("Z outside the layer |Z| <= gap(R)")
        return Rr, Zb

class SphereForce(NamedTuple):
    """Squeezing force ``F = 6 pi a mu U psi`` and its scale factor."""

    F: float
    psi: float


class PsiExtremes(NamedTuple):
    """Limiting force factors: incompressible plateau, compressible log."""

    psi_i: float
    psi_c: float


@dataclass(frozen=True)
class PotentialSample:
    """Potential ``Phi`` and its scaled-coordinate derivatives at (R, Z).

    Floats for scalar input, arrays of the broadcast shape otherwise, with
    R and Z read-only broadcast views of the inputs and the six values
    views into one recycled (6, *shape) block, as in FieldSample.
    """

    R: object
    Z: object
    phi: object
    phi_r: object
    phi_z: object
    phi_rr: object
    phi_rz: object
    phi_zz: object


def _ode_coefficients(xi: float, chi: float):
    """The s-form equation of A as the pair (ode, ode_s), functions of
    s = R**2: ode(s) gives (m, q, f) and ode_s(s) their s-derivatives
    (m_s, q_s, f_s), each forming sigma = s + 2 once."""
    c2 = chi * chi

    def ode(s):
        sg = s + 2.0
        return ((7.0 * s + 2.0) / sg, -4.0 * c2 / (xi * sg * sg),
                -4.0 / (sg * sg * sg))

    def ode_s(s):
        sg = s + 2.0
        return (12.0 / (sg * sg), 8.0 * c2 / (xi * sg * sg * sg),
                12.0 / (sg * sg * sg * sg))

    return ode, ode_s


def _edge_closure(geo: SphereGeometry, chi: float):
    """Rim row (alpha, beta, gamma, delta): zero sigma_rr resultant."""
    re = geo.r_edge
    ge = geo.gap(re)
    k = 3.0 - 2.0 * chi * chi
    alpha = 3.0 * k / geo.xi
    beta = 9.0 * ge * re - k * ge * ge / re
    gamma = 3.0 * ge * ge
    return alpha, beta, gamma, 0.0


# x = R**2/(R**2 + 2) up to which the family's series are summed in x
# (Taylor), and past which in y = 1 - x (the connection formula), and the
# terms of each: at x = 0.55 the tail of either side, for F, F_x and
# F_xx, is below 2**-56 of the value it sums to at ab = 3/2, with the
# fewest terms
_HYP_SWITCH = 0.55
_HYP_TERMS = 55

# the ab = chi**2/(2 xi) on which the exact profile, not the alt
# discretization, checks the panels (_cell): below the least, p0 and
# kappa, which go as 1/ab, leave double range (from ab about 1e-309); past
# the largest the connection series cancels (ROADMAP items 12 and 13).
# The profile agrees with the panels to 7.2e-14 at ab = 20 and to
# 2.7e-15 below ab = 5
_EXACT_AB = (1e-300, 20.0)


def _family_constants(ab):
    """q0 = F(1) = Gamma(3)/(Gamma(a + 3) Gamma(b + 3)), d_0 =
    1/(6 Gamma(a) Gamma(b)) and e_0 of the connection formula at a, b =
    -1 +/- sqrt(1 - ab) (module docstring), each in closed form for every
    ab > 0: q0 and d_0 through |Gamma(1 + i beta)|**2 = pi beta /
    sinh(pi beta), in its sin form (beta = i r) below ab = 1, where
    sin(pi r) is taken as sin(pi min(r, 1 - r)); e_0 through A&S 6.3.17,
    e_0 = 1/6 + 2 b2 sum_{k >= 2} 1/(k (k**2 + b2)), b2 = ab - 1, its
    tail past k = 9 summed as sum_j (-b2)**j zeta(2 j + 3, 10) (the
    Hurwitz zeta), for every ab in _EXACT_AB, Theta's ab = 3/2 among
    them."""
    b2 = ab - 1.0
    # rho = |beta| and w = sinh(pi beta), or below ab = 1 (beta = i r) r
    # and sin(pi r), with 1 - r = ab/(1 + r) formed without cancellation
    rho = math.sqrt(abs(b2))
    w = (math.sinh(math.pi * rho) if b2 > 0.0
         else math.sin(math.pi * min(rho, ab / (1.0 + rho))))
    q0, d0 = (2.0 * w / (math.pi * rho * ab),
              math.copysign(rho, b2) * ab * w / (6.0 * math.pi))
    k, j = np.arange(2.0, 10.0), np.arange(30.0)
    return q0, d0, 1.0 / 6.0 + 2.0 * b2 * (
        float(np.sum(1.0 / (k * (k * k + b2))))
        + float(np.sum((-b2) ** j * special.zeta(2.0 * j + 3.0, 10.0))))


def _family_rows(ab):
    """The coefficient rows, highest power first (see _power_sums), that
    sum F = 2F1(a, b; 1; x) with a + b = -2 and ab given, the particular
    solution P = p0 + p1 x + kappa F, and the first two x-derivatives of
    each (module docstring): the Taylor rows in x of P, P_x, P_xx, F, F_x
    and F_xx, as a (6, _HYP_TERMS) array, and the connection rows in
    y = 1 - x, a pair (plain, log) for each of the six, which is the
    plain series plus ln(y) times the log series, as a (12, _HYP_TERMS + 3)
    array."""
    b2, n = ab - 1.0, np.arange(float(_HYP_TERMS))
    m = np.arange(_HYP_TERMS + 1.0)
    # t_{n+1} = t_n (n + a)(n + b)/(n + 1)**2, (n + a)(n + b) = n**2 - 2 n + ab
    t = np.cumprod(np.concatenate(([1.0], (m * m - 2.0 * m + ab)
                                   / ((m + 1.0) * (m + 1.0)))))
    taylor = np.empty((6, _HYP_TERMS))
    taylor[3], taylor[4] = t[:-2], (n + 1.0) * t[1:-1]
    taylor[5] = (n + 1.0) * (n + 2.0) * t[2:]
    # the connection formula's terms q of Q, and d_n and e_n by their
    # recurrences from d_0 and e_0; (n + a + 3)(n + b + 3) = (n + 2)**2 + b2
    q0, d0, e0 = _family_constants(ab)
    q1, q2 = -0.5 * ab * q0, 0.25 * ab * b2 * q0
    j = n[:-1]
    d = np.cumprod(np.concatenate(([d0], ((j + 2.0) ** 2 + b2)
                                   / ((j + 1.0) * (j + 4.0)))))
    e = e0 + np.concatenate(([0.0], np.cumsum(
        2.0 * (j + 2.0) / ((j + 2.0) ** 2 + b2)
        - 1.0 / (j + 1.0) - 1.0 / (j + 4.0))))
    # F = Q(y) + y**3 sum d_n y**n (ln y + e_n), differentiated termwise
    # (d/dx = -d/dy): (plain, log) for F, F_x and F_xx, in rows 6 to 11
    de, d3 = d * e, (n + 3.0) * d
    conn = np.zeros((12, _HYP_TERMS + 3))
    conn[6, :3], conn[6, 3:], conn[7, 3:] = (q0, q1, q2), de, d
    conn[8, :2], conn[8, 2:-1] = (-q1, -2.0 * q2), -(d + (n + 3.0) * de)
    conn[9, 2:-1] = -d3
    conn[10, 0] = 2.0 * q2
    conn[10, 1:-2] = (2.0 * n + 5.0) * d + (n + 2.0) * (n + 3.0) * de
    conn[11, 1:-2] = (n + 2.0) * d3
    # P = p0 + p1 x + kappa F in x, and kappa (F - Q's first two terms)
    # in y: F's connection rows without the terms that cancel
    k = 2.0 * ab
    p1 = 1.0 / (4.0 - 2.0 * k)
    kappa = -2.0 / (k * (2.0 - k) * q0)
    np.multiply(kappa, taylor[3:], out=taylor[:3])
    taylor[0, :2] += ((2.0 * p1 + 0.5) / k, p1)
    taylor[1, 0] += p1
    np.multiply(kappa, conn[6:], out=conn[:6])
    conn[0, :2] = conn[2, 0] = 0.0
    if ab < 1.5:
        # p0 + kappa and p1 + kappa ab cancel as 1/ab toward ab = 0 and
        # as 1/(ab - 1) toward ab = 1, where P's connection rows do not:
        # they are P and P_x of those rows at the switch, less the Taylor
        # rows' other terms there
        x, y = _HYP_SWITCH, 1.0 - _HYP_SWITCH
        p, p_log, p_x, p_x_log = conn[:4] @ y ** np.arange(_HYP_TERMS + 3.0)
        xn = x ** np.arange(_HYP_TERMS - 1.0)
        c1 = p_x + math.log(y) * p_x_log - x * (taylor[1, 1:] @ xn)
        taylor[0, 1] = taylor[1, 0] = c1
        taylor[0, 0] = (p + math.log(y) * p_log
                        - x * (c1 + x * (taylor[0, 2:] @ xn[:-1])))
    return taylor[:, ::-1].copy(), conn[:, ::-1].copy()


def _power_sums(rows, v):
    """The polynomials whose coefficients, highest power first, are the
    rows, at every element of the 1-D float array v, as
    (len(rows), len(v)): the powers by a running product, then one sum
    of products per row and element, from the highest power (the
    smallest term) down, so that every value is its element's own,
    whatever else v holds."""
    p = np.empty((v.size, rows.shape[1]))
    p[:, -1] = 1.0
    p[:, :-1] = v[:, None]
    rising = p[:, ::-1]
    np.cumprod(rising, axis=1, out=rising)
    return np.einsum("nk,rk->rn", p, rows)


def _family_basis(rows, x, y, d=3):
    """P and F (_family_rows) with their first d - 1 x-derivatives on the
    float arrays x and y = 1 - x, given apart so that neither is formed
    by cancellation, as one (2 d, *x.shape) array, P's d rows first: from
    the Taylor rows at x <= _HYP_SWITCH and the connection rows above
    it, where P keeps its relative accuracy as it falls toward x = 1."""
    taylor, conn = (r.reshape(2, 3, -1)[:, :d].reshape(-1, r.shape[1])
                    for r in rows)
    out = np.empty((2 * d,) + x.shape)
    below = x <= _HYP_SWITCH
    if below.any():
        out[:, below] = _power_sums(taylor, x[below])
    if not below.all():
        y = y[~below]
        sums = _power_sums(conn, y)
        out[:, ~below] = sums[0::2] + np.log(y) * sums[1::2]
    return out


def _family_solutions(rows, s, derivatives=True):
    """The particular solution P and the regular homogeneous solution F
    of the family rows (_family_rows) on the float array s, at
    x = s/(s + 2), y = 2/(s + 2): each with its first two s-derivatives,
    as closed_form_profile takes them, or the pair (P, F) alone when not
    derivatives."""
    sg = s + 2.0
    if not derivatives:
        return tuple(_family_basis(rows, s / sg, 2.0 / sg, 1))
    v = _family_basis(rows, s / sg, 2.0 / sg)
    # x_s = 2/sg**2, x_ss = -4/sg**3
    x_s = 2.0 / (sg * sg)
    v_s = v[1::3] * x_s
    v_ss = v[2::3] * x_s * x_s - 2.0 * v_s / sg
    return (v[0], v_s[0], v_ss[0]), (v[3], v_s[1], v_ss[1])


def _theta_profile(geo: SphereGeometry, load: float) -> RadialSolution:
    """load times the sphere profile at chi**2 = 3 xi, from its closed
    form A = P + C F at ab = 3/2 (module docstring), with C fixed by
    _edge_closure's rim row."""
    chi = math.sqrt(3.0 * geo.xi)
    return closed_form_profile(
        _ode_coefficients(geo.xi, chi), _edge_closure(geo, chi), geo.r_edge,
        partial(_family_solutions, _family_rows(1.5)), scale=load,
        meta={"switch": _HYP_SWITCH, "taylor_terms": _HYP_TERMS,
              "connection_terms": _HYP_TERMS})


# the width ratio of neighbouring panels on the default tail: the
# largest with which the rim at xi = 1e-8 still takes 96 tail panels
_TAIL_RATIO = 1.093


def _sphere_edges(geo: SphereGeometry) -> np.ndarray:
    """The sphere profile's R panel edges, from the axis: one axis panel
    out to R = 0.0625, a uniform section through the O(1) feature region
    out to R = 4, then panels growing toward the rim R_e = 1/sqrt(xi)
    along the algebraic R**-6 tail.  The solver squares them into
    s = R**2.

    The uniform section has spacing h = 0.18 and the tail continues it
    with one grading ratio: its n panels have widths proportional to
    h * _TAIL_RATIO**k, k = 1..n, the fewest that reach R_e, scaled down
    to end on it.  So n grows with ln(R_e), and no neighbouring panels,
    the first tail panel included, differ by more than _TAIL_RATIO: the
    tail takes 16 panels at xi = 1e-2 and 96 at xi = 1e-8.

    The mesh depends on xi alone.  q < 0 on the whole interval, so a
    homogeneous solution has at most one zero and nothing oscillates,
    whatever chi is.  The profile follows the local balance A ~ f/q, and
    its rim layer, about 1/(2 chi sqrt(xi)) wide in R, is resolved by the
    graded tail (by the uniform section when the rim is at R <= 4)."""
    re = geo.r_edge
    start, h, rho = 0.0625, 0.18, _TAIL_RATIO
    r_mid = min(4.0, re)
    n_inner = max(int(math.ceil((r_mid - start) / h)), 8)
    inner = np.linspace(start, r_mid, n_inner + 1)
    if r_mid >= re:
        return np.concatenate([[0.0], inner])
    n_tail = math.ceil(math.log1p((re - r_mid) * (rho - 1.0) / (h * rho))
                       / math.log(rho))
    reach = np.cumsum(rho ** np.arange(1.0, n_tail + 1.0))
    tail = r_mid + (re - r_mid) * reach / reach[-1]
    tail[-1] = re
    return np.concatenate([[0.0], inner, tail])


def _cell(geo: SphereGeometry, chi: float):
    """The sphere profile's problem at (xi, chi): the equation
    (ode, ode_s), the rim row, the R mesh (_sphere_edges) and the exact
    reference, the family's solutions at ab = chi**2/(2 xi) where ab lies
    in _EXACT_AB and is not 1, else None (at ab = 1, p1 and kappa have
    their pole; at ab = 0, chi = 0, p0 and kappa)."""
    ab = chi * chi / (2.0 * geo.xi)
    exact = (partial(_family_solutions, _family_rows(ab))
             if _EXACT_AB[0] <= ab <= _EXACT_AB[1] and ab != 1.0 else None)
    return (_ode_coefficients(geo.xi, chi), _edge_closure(geo, chi),
            _sphere_edges(geo), exact)


@lru_cache(maxsize=64)
def _radial_bvp(geo: SphereGeometry, chi: float, tol: float) -> RadialSolution:
    """Solve the radial profile on _sphere_edges' mesh and cross-check it
    (solve_dual_bvp): against the exact profile where _cell has one, else
    against the alt discretization; the message names the cell if they
    disagree.  Returns the primary solution, with the sup-norm relative
    disagreement in meta["dual_sup_rel"] and the reference in
    meta["reference"].  The one cache of a solved profile: a repeat
    returns the profile solved first, whose meta and panel arrays are
    read-only (solve_dual_bvp)."""
    equation, right, mesh, exact = _cell(geo, chi)
    return solve_dual_bvp(equation, right, tol,
                          f"at (xi, chi) = ({geo.xi:g}, {chi:g})",
                          mesh=mesh, exact=exact)


@dataclass(frozen=True)
class SphereSolution:
    """Solved radial profile A for the sphere-sphere layer, with the
    problem record (cfg: xi and the scales a, U, mu), the layer geometry
    (geo) and the compressibility parameter chi."""

    cfg: LayerConfig
    geo: SphereGeometry
    chi: float
    A: RadialSolution

    @property
    def xi(self) -> float:
        return self.cfg.xi

    @property
    def beta(self) -> tuple[float, float]:
        """``sqrt(1 - chi**2/(2 xi))`` as (real, imag), imaginary once
        chi**2 > 2 xi.  It is reported only: the solver never reads it,
        and the profile does not oscillate on either side (q < 0 for all
        chi)."""
        val = 1.0 - self.chi * self.chi / (2.0 * self.xi)
        return (math.sqrt(val), 0.0) if val >= 0.0 else (0.0, math.sqrt(-val))


def solve_sphere(xi: float, chi: Optional[float] = None,
                 tol: float = 1e-10, *, nu: Optional[float] = None,
                 mu: float = 1.0, a: float = 1.0,
                 U: float = 1.0) -> SphereSolution:
    """Solve for the radial profile A(R) of the sphere-sphere layer.

    Requires ``1e-76 <= xi <= 0.1`` (the parabolic-gap approximation
    above; below the floor XI_MIN_SPHERE the fields leave double range)
    and ``0 <= chi <= 3/2``.  Every cold solve checks its panels against
    a reference and requires them to agree in sup norm, relative to
    sup|A|, to ``min(1e-8, 100 tol)``: the exact profile (module
    docstring) where ``ab = chi**2/(2 xi)`` has ``1e-300 <= ab <= 20``
    and ``ab != 1``, else an independent second discretization.
    ``A.meta["reference"]`` names it (``"exact"`` or ``"alt"``) and
    ``A.meta["dual_sup_rel"]`` holds the disagreement; the alt solve's
    ``"alt_panels"`` and ``"alt_passes"`` are there only where it is the
    reference.  The exact check cannot see a fault in the equation or
    the rim row, which it shares with the panels (solve_dual_bvp).
    Repeated calls with identical parameters reuse a cached profile.
    The radial mesh depends on xi alone and grades its tail toward the
    rim by one ratio (19-119 panels; see _sphere_edges); it is refined
    only where the residual asks for it.
    """
    chi = resolve_chi(chi, nu)
    geo = SphereGeometry.of(xi)
    cfg = LayerConfig(geo.xi, a=a, U=U, mu=mu)
    return SphereSolution(cfg, geo, chi, _radial_bvp(geo, chi, float(tol)))


def sphere_field(sol: SphereSolution, R, Z) -> FieldSample:
    """Displacements and stresses at scaled coordinates (R, Z).

    R and Z broadcast together; requires ``0 <= R <= 1/sqrt(xi)`` and
    ``|Z| <= gap(R)``.  Stresses scale with ``mu U / (a xi)`` except the
    shear, which carries ``mu U / (a xi**1.5)``.

    Each field is a polynomial in Z with coefficients in R alone, written
    as ``c0 + c1 (Z**2 - g**2)``, times Z where the field is odd: the odd
    ones' ``Z (c0 + c1 Z**2)`` of the module docstring take
    ``c0 + c1 g**2`` as their c0.  The profile is read by
    RadialSolution.eval on R's shape: once per R of a line of radii (a
    column, a row, 1-D or a scalar), on R itself, or once per distinct R
    of a full R grid.  g**2 and each field's two coefficients are formed
    from it on R's shape, elementwise, one field at a time, so every
    double is that of its own radius.  plate._z_polynomials, the one
    writer of every field sample, then writes each field in place into
    one preallocated (6, *shape) block: a product, a sum and, per odd
    field, one more product by Z, with Z**2 - g**2 formed in the last
    field's slot, so no other grid-sized array is made.  R and Z come
    back as read-only broadcast views of the inputs; a column R against
    a shorter row Z gives F-ordered fields (see FieldSample).
    u_r is ``c1 (Z**2 - g**2)``, which is exactly 0 on the walls
    ``Z = +/- g``.  The profile's terms give every R-only input,
    ``A'/R = 2 A_s`` and ``(A'' - A'/R)/R = 4 R A_ss`` among them, from
    the s = R**2 panels (RadialSolution): the field divides by no R, both
    quotients are finite on the axis, and the second keeps the 1/R**2
    blow-up of rounding noise out of L'.  Where the
    scales a, mu, U take a field past double range it raises
    NumericsError naming the cell, as plate.field does, rather than
    return inf or nan.
    """
    cfg, c2 = sol.cfg, sol.chi * sol.chi
    # U as a numpy scalar, so that a scale past double range raises in the
    # errstate below, as a field does
    xi, U = cfg.xi, np.float64(cfg.U)
    Rr, Zb = sol.geo.check(R, Z)

    a0, a1, a2, a3, a1_over_r, lp_core = sol.A.eval(Rr, True)
    g = sol.geo.gap(Rr)
    gg = g * g

    def coefs():
        # the module docstring's fields in FieldSample order, the even
        # ones as they stand in zm = Z**2 - g**2, the odd ones'
        # Z (c0 + c1 Z**2) as Z ((c0 + c1 g**2) + c1 zm)
        s_scale = cfg.mu * U / (cfg.a * xi)
        sh_scale = cfg.mu * U / (cfg.a * xi ** 1.5)
        L = a2 + a1_over_r
        edge_term = 2.0 * g * Rr * a1
        yield None, -(3.0 - c2) * (U / math.sqrt(xi)) * a1, False
        V = -3.0 * g * g * L - 6.0 * g * Rr * a1
        uz1 = U * L
        yield U * (V + 2.0 * c2 * a0 / xi) + uz1 * gg, uz1, True
        k3, k6, k9 = 3.0 - 2.0 * c2, 2.0 * (3.0 - c2), 9.0 - 2.0 * c2
        bracket0 = k3 * (2.0 * a0 / xi - edge_term)
        yield (s_scale * (bracket0 + k6 * edge_term),
               s_scale * (k3 * L - k6 * a2), False)
        yield s_scale * bracket0, s_scale * (k3 * L - k6 * a1_over_r), False
        yield (s_scale * (6.0 * a0 / xi - k9 * edge_term), s_scale * k9 * L,
               False)
        Lp = a3 + lp_core
        Vp = (-6.0 * ((Rr * Rr + g) * a1 + g * Rr * a2)
              - 3.0 * (2.0 * g * Rr * L + g * g * Lp))
        rz1 = sh_scale * xi * Lp
        yield (sh_scale * ((4.0 * c2 - 6.0) * a1 + xi * Vp) + rz1 * gg, rz1,
               True)

    with _in_range("sphere field", xi, sol.chi):
        return _z_polynomials(Rr, Zb, gg, coefs())


def _a1_weighted(s, w, a, a_s):
    """w times -3 g**2 A_s at s: A1 = -3 g**2 A' integrated over R is
    -3 g**2 A_s integrated over s = R**2 (PanelPoly.integral_below)."""
    g = 1.0 + 0.5 * s
    return -3.0 * w * g * g * a_s


def sphere_potential(sol: SphereSolution, R, Z) -> PotentialSample:
    """Odd-in-Z potential ``Phi = xi a**2 U [(int_0^R A1) Z + A Z**3]``
    and its first and second derivatives in the scaled coordinates.  R and
    Z broadcast together; like sphere_field it requires
    ``0 <= R <= 1/sqrt(xi)`` and ``|Z| <= gap(R)``, and it gives floats
    for scalar input, else R and Z as read-only broadcast views of the
    inputs.  The integral of A1 is exact on the solver's polynomial panels
    in s = R**2, by their Gauss-Legendre rule (PanelPoly.integral_below).
    Each value is c0 + c1 Z**2, times Z where it is odd in Z, written by
    the fields' one writer (plate._z_polynomials) with Z**2 - 0 for
    Z**2 - g**2: for array input the six are views into one (6, *shape)
    block, recycled as the fields' are (see FieldSample)."""
    cfg = sol.cfg
    Rr, Zb = sol.geo.check(R, Z)
    # the radii level, for integral_below's partial panels (a lone R as
    # the pair (R, R), see RadialSolution.radii)
    radii, take = RadialSolution.radii(Rr)

    a0u, a1u, a2u, *_ = sol.A.eval(radii, False)
    gu = sol.geo.gap(radii)
    A1u = -3.0 * gu * gu * a1u
    A1pu = -3.0 * gu * gu * a2u - 6.0 * gu * radii * a1u
    Iau = sol.A.s_form.integral_below(radii * radii, _a1_weighted)

    a0, a1, a2, A1, A1p, Ia = map(take, (a0u, a1u, a2u, A1u, A1pu, Iau))

    def coefs():
        # (c0, c1, odd) in zm = Z**2, in PotentialSample order; s0 is a
        # numpy scale, so that its leaving double range raises too
        s0 = cfg.xi * np.float64(cfg.a) ** 2 * cfg.U
        yield s0 * Ia, s0 * a0, True
        yield s0 * A1, s0 * a1, True
        yield s0 * Ia, 3.0 * s0 * a0, False
        yield s0 * A1p, s0 * a2, True
        yield s0 * A1, 3.0 * s0 * a1, False
        yield s0 * 6.0 * a0, -0.0, True

    with _in_range("sphere potential", cfg.xi, sol.chi):
        return _z_polynomials(Rr, Zb, 0.0, coefs(), PotentialSample)


def sphere_force(sol: SphereSolution, trace: str = "midplane") -> SphereForce:
    """Squeezing force on either sphere, ``F = 6 pi a mu U psi``.

    ``trace="midplane"`` integrates the normal stress along Z = 0 (the
    headline value); ``trace="surface"`` integrates it along the bonded
    surface Z = gap(R).  The two agree in the extreme regimes and differ
    by a few percent in between.  Each trace is its rim identity (module
    docstring): A and A_s at the rim, read as the last panel's series at
    its end, and the moments M0 (and M1, for the surface) on the panels'
    Gauss record, which the solve formed (PanelPoly.gauss): a repeat
    call evaluates no panel series.  No A_ss is read, so the force holds
    down to XI_MIN_SPHERE, where A_ss underflows on the tail's nodes.
    """
    if trace not in ("midplane", "surface"):
        raise ValueError(f"trace must be 'midplane' or 'surface', got {trace!r}")
    s, w, a0, _ = sol.A.s_form.gauss
    se, ae, ae_s, _ = sol.A.s_form.end()
    ge, m0 = 1.0 + 0.5 * se, float(np.sum(w * a0))
    # R_e g_e**2 A'(R_e), or g_e R_e**2 A(R_e) - M0 - M1, with A' = 2 R A_s
    rim = (2.0 * se * ge * ge * ae_s if trace == "midplane"
           else 2.0 * (se * ge * ae - m0 - float(np.sum(w * s * a0))))
    psi = m0 / sol.xi - (9.0 - 2.0 * sol.chi * sol.chi) * rim / 3.0
    cfg = sol.cfg
    F = 6.0 * math.pi * cfg.a * cfg.mu * cfg.U * psi
    if not math.isfinite(F):
        raise _range_error(f"sphere force {F}", sol.xi, sol.chi)
    return SphereForce(F=F, psi=psi)


def psi_extremes(xi: float, chi: float) -> PsiExtremes:
    """Limiting force factors (incompressible plateau, compressible log).

    ``psi_i = 1/(4 xi)`` is chi-independent; ``psi_c = ln(1/(2 xi))/chi**2``
    diverges as chi -> 0.  It is finite for every chi whose square is
    nonzero (at xi = 1e-2, chi = 5e-11 gives 1.56e21), and reported as
    inf at chi = 0 and wherever chi**2 underflows to 0.  Requires
    ``1e-76 <= xi <= 0.1`` and ``0 <= chi <= 3/2``, as solve_sphere does.
    """
    chi = resolve_chi(chi)
    xi = SphereGeometry.of(xi).xi
    psi_i = 0.25 / xi
    if chi * chi == 0.0:
        return PsiExtremes(psi_i=psi_i, psi_c=math.inf)
    return PsiExtremes(psi_i=psi_i, psi_c=math.log(0.5 / xi) / (chi * chi))
