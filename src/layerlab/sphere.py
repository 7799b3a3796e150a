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

Both integrals use one fixed Gauss-Legendre rule on the solver's own
panels, which live in ``s = R**2`` from the axis out (``ds = 2 R dR``).
A is a polynomial of degree <= 10 in s on each panel, and

    (R/3) F dR = F ds / 6,      A1 dR = -3 g**2 A_s ds,

with ``L = 4 s A_ss + 4 A_s`` and ``R A' = 2 s A_s`` inside the force
integrand F, so both integrands are polynomials of degree <= 11 in s and
6 points per panel integrate them exactly, read straight off the panel
polynomials.

Closed-form anchors used by the tests: for ``chi = 0`` the profile is
``A = 1/(2 sigma**2) - xi**2 / (2 (1 + 2 xi)**2)`` with
``sigma = R**2 + 2`` (so ``A' = -2 R / sigma**3`` and ``A(R_e) = 0``),
and the extreme-regime force factors are ``Psi_i = 1/(4 xi)``
(incompressible plateau) and ``Psi_c = ln(1/(2 xi)) / chi**2``
(compressible logarithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .kernels import RadialSolution, solve_dual_bvp
from .materials import LayerConfig, MaterialParams, resolve_chi
from .plate import (CHI_INCOMPRESSIBLE, FieldSample, _field_block,
                    _field_sample)

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

# exact for the degree <= 11 force and potential integrands in s
_GL_S = np.polynomial.legendre.leggauss(6)


@dataclass(frozen=True)
class SphereGeometry:
    """Scaled geometry of the sphere-sphere gap.

    ``gap(R) = 1 + R**2/2`` is the half-thickness in units of h; the
    domain is truncated at ``r_edge = 1/sqrt(xi)``.
    """

    xi: float
    r_edge: float

    def gap(self, R):
        R = np.asarray(R, dtype=float)
        g = 1.0 + 0.5 * R * R
        return float(g) if g.ndim == 0 else g


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
    """Potential ``Phi`` and its scaled-coordinate derivatives at (R, Z)."""

    R: object
    Z: object
    phi: object
    phi_r: object
    phi_z: object
    phi_rr: object
    phi_rz: object
    phi_zz: object


def _ode_coefficients(xi: float, chi: float, load: float):
    """The s-form coefficient callables (m, q, f, m_s, q_s, f_s) of A,
    functions of s = R**2, with the forcing scaled by ``load``."""
    c2 = chi * chi

    def m(s):
        return (7.0 * s + 2.0) / (s + 2.0)

    def q(s):
        sg = s + 2.0
        return -4.0 * c2 / (xi * sg * sg)

    def f(s):
        sg = s + 2.0
        return -4.0 * load / (sg * sg * sg)

    def m_s(s):
        sg = s + 2.0
        return 12.0 / (sg * sg)

    def q_s(s):
        sg = s + 2.0
        return 8.0 * c2 / (xi * sg * sg * sg)

    def f_s(s):
        sg = s + 2.0
        return 12.0 * load / (sg * sg * sg * sg)

    return m, q, f, m_s, q_s, f_s


def _edge_closure(xi: float, chi: float):
    """Rim row (alpha, beta, gamma, delta): zero sigma_rr resultant."""
    re = 1.0 / math.sqrt(xi)
    ge = 1.0 + 0.5 * re * re
    k = 3.0 - 2.0 * chi * chi
    alpha = 3.0 * k / xi
    beta = 9.0 * ge * re - k * ge * ge / re
    gamma = 3.0 * ge * ge
    return alpha, beta, gamma, 0.0


# the width ratio of neighbouring panels on the default tail: the
# largest with which the rim at xi = 1e-8 still takes 96 tail panels
_TAIL_RATIO = 1.093


def _sphere_edges(xi: float, n_main: Optional[int] = None) -> np.ndarray:
    """R panel edges tuned to the sphere profile, from the axis: one axis
    panel out to R = 0.0625, a uniform section through the O(1) feature
    region out to R = 4, then panels growing toward the rim
    R_e = 1/sqrt(xi) along the algebraic R**-6 tail.  The solver squares
    them into s = R**2.

    By default (n_main None) the uniform section has spacing h = 0.18
    and the tail continues it with one grading ratio: its n panels have
    widths proportional to h * _TAIL_RATIO**k, k = 1..n, the fewest that
    reach R_e, scaled down to end on it.  So n grows with ln(R_e), and
    no neighbouring panels, the first tail panel included, differ by
    more than _TAIL_RATIO: the tail takes 16 panels at xi = 1e-2 and 96
    at xi = 1e-8.  An integer n_main puts n_main log-spaced panels on
    the tail (at least 8) and spacing 0.18 * 96/n_main on the uniform
    section.

    The mesh depends on xi alone.  q < 0 on the whole interval, so a
    homogeneous solution has at most one zero and nothing oscillates,
    whatever chi is.  The profile follows the local balance A ~ f/q, and
    its rim layer, about 1/(2 chi sqrt(xi)) wide in R, is resolved by the
    graded tail (by the uniform section when the rim is at R <= 4)."""
    re = 1.0 / math.sqrt(xi)
    start = 0.0625
    h_inner = 0.18 if n_main is None else 0.18 / max(n_main / 96.0, 1e-2)
    r_mid = min(4.0, re)
    n_inner = max(int(math.ceil((r_mid - start) / h_inner)), 8)
    inner = np.linspace(start, r_mid, n_inner + 1)
    if r_mid >= re:
        return np.concatenate([[0.0], inner])
    if n_main is None:
        rho = _TAIL_RATIO
        n_tail = math.ceil(math.log1p((re - r_mid) * (rho - 1.0)
                                      / (h_inner * rho)) / math.log(rho))
        reach = np.cumsum(rho ** np.arange(1.0, n_tail + 1.0))
        tail = r_mid + (re - r_mid) * reach / reach[-1]
        tail[-1] = re
    else:
        tail = np.geomspace(r_mid, re, max(int(n_main), 8) + 1)[1:]
    return np.concatenate([[0.0], inner, tail])


def _radial_bvp(xi: float, chi: float, tol: float, mesh: Optional[int],
                load: float, where: str) -> RadialSolution:
    """Solve the radial profile with its forcing scaled by ``load`` under
    both independent discretizations and cross-check them (``where`` names
    the problem if they disagree); returns the primary solution, with the
    sup-norm relative disagreement in meta["dual_sup_rel"].  ``mesh`` is
    _sphere_edges' n_main (None: the default graded tail)."""
    return solve_dual_bvp(_ode_coefficients(xi, chi, load),
                          _edge_closure(xi, chi), tol, where,
                          mesh=_sphere_edges(xi, mesh))


@lru_cache(maxsize=64)
def _solve_radial(xi: float, chi: float, tol: float,
                  mesh: Optional[int]) -> RadialSolution:
    """The sphere profile A(R): _radial_bvp at load 1, cached."""
    return _radial_bvp(xi, chi, tol, mesh, 1.0,
                       f"at (xi, chi) = ({xi:g}, {chi:g})")


@dataclass(frozen=True)
class SphereSolution:
    """Solved radial profile for the sphere-sphere layer.

    ``beta = sqrt(1 - chi**2/(2 xi))`` stored as (real, imag), imaginary
    once chi**2 > 2 xi.  It is reported only: the solver never reads it,
    and the profile does not oscillate on either side (q < 0 for all chi).
    """

    cfg: LayerConfig
    geo: SphereGeometry
    mat: MaterialParams
    A: RadialSolution
    beta: tuple[float, float]

    @property
    def xi(self) -> float:
        return self.cfg.xi

    @property
    def chi(self) -> float:
        return self.mat.chi


def solve_sphere(xi: float, chi: Optional[float] = None,
                 tol: float = 1e-10, *, nu: Optional[float] = None,
                 mu: float = 1.0, a: float = 1.0, U: float = 1.0,
                 mesh: Optional[int] = None) -> SphereSolution:
    """Solve for the radial profile A(R) of the sphere-sphere layer.

    Requires ``0 < xi <= 0.1`` (the parabolic-gap approximation) and
    ``0 <= chi <= 3/2``.  Every solve runs two independent
    discretizations and requires them to agree in sup norm to
    ``min(1e-8, 100 tol)``; repeated calls with identical parameters
    reuse a cached profile.  By default the radial mesh grades its tail
    toward the rim by one ratio (19-119 panels); an integer ``mesh``
    puts ``mesh`` log-spaced panels on the tail from R = 4 and spacing
    ``0.18 * 96/mesh`` inside it (see _sphere_edges; used by the
    mesh-convergence tests).  Either start is refined only where the
    residual asks for it.
    """
    chi = resolve_chi(chi, nu)
    xi = float(xi)
    if not (0.0 < xi <= XI_MAX_SPHERE):
        raise ValueError(f"sphere layers need 0 < xi <= {XI_MAX_SPHERE}, got {xi}")
    cfg = LayerConfig.make("sphere", xi, a=a, U=U, mu=mu)
    mat = MaterialParams.from_chi(chi, mu=mu)
    radial = _solve_radial(xi, chi, float(tol), mesh)
    val = 1.0 - chi * chi / (2.0 * xi)
    beta = (math.sqrt(val), 0.0) if val >= 0.0 else (0.0, math.sqrt(-val))
    geo = SphereGeometry(xi=xi, r_edge=1.0 / math.sqrt(xi))
    return SphereSolution(cfg=cfg, geo=geo, mat=mat, A=radial, beta=beta)


def _check_layer(r_edge: float, R, Z):
    """R and Z as float arrays checked against the layer truncated at
    ``r_edge = 1/sqrt(xi)``: 0 <= R <= r_edge and |Z| <= gap(R)."""
    Rr = np.asarray(R, dtype=float)
    if np.any(Rr < 0.0) or np.any(Rr > r_edge * (1.0 + 1e-12)):
        raise ValueError("R outside [0, 1/sqrt(xi)]")
    Zb = np.asarray(Z, dtype=float)
    if np.any(np.abs(Zb) > (1.0 + 0.5 * Rr * Rr) * (1.0 + 1e-12) + 1e-9):
        raise ValueError("Z outside the layer |Z| <= gap(R)")
    return Rr, Zb


def _layer_points(r_edge: float, R, Z):
    """_check_layer's R and Z, the distinct values of R, and a map taking
    arrays over those (along their last axis) back to R's own shape."""
    Rr, Zb = _check_layer(r_edge, R, Z)
    runiq, inv = np.unique(Rr.ravel(), return_inverse=True)
    return (Rr, Zb, runiq,
            lambda arr: arr[..., inv].reshape(arr.shape[:-1] + Rr.shape))


def sphere_field(sol: SphereSolution, R, Z) -> FieldSample:
    """Displacements and stresses at scaled coordinates (R, Z).

    R and Z broadcast together; requires ``0 <= R <= 1/sqrt(xi)`` and
    ``|Z| <= gap(R)``.  Stresses scale with ``mu U / (a xi)`` except the
    shear, which carries ``mu U / (a xi**1.5)``.

    Each field is a polynomial in Z with coefficients in R alone: the even
    ones are ``c0 + c1 (Z**2 - g**2)``, the odd ones ``Z (c0 + c1 Z**2)``.
    The 11 coefficients are formed once per distinct R and taken to R's
    shape together.  Each field is then written in place into one
    preallocated (6, *shape) block: a product, a sum and, per odd field,
    one more product by Z.  Z**2 and Z**2 - g**2 are formed in the slots
    of u_z and s_zz, so no other grid-sized array is made.  R and Z come
    back as read-only broadcast views of the inputs; a column R against
    a shorter row Z gives F-ordered fields (see FieldSample).
    u_r stays ``c1 (Z**2 - g**2)``, which is exactly 0 on the walls
    ``Z = +/- g``.  ``A'/R = 2 A_s`` and ``(A'' - A'/R)/R = 4 R A_ss``
    come from the s = R**2 panels: finite on the axis, and the second
    keeps the 1/R**2 blow-up of rounding noise out of L'.
    """
    cfg, c2 = sol.cfg, sol.chi * sol.chi
    xi, U = cfg.xi, cfg.U
    Rr, Zb, rr, take = _layer_points(sol.geo.r_edge, R, Z)

    a0, a1, a2, a3, a1_over_r, lp_core = sol.A.eval_quotients(rr)
    g = 1.0 + 0.5 * rr * rr
    L = a2 + a1_over_r
    V = -3.0 * g * g * L - 6.0 * g * rr * a1
    Lp = a3 + lp_core
    Vp = (-6.0 * ((rr * rr + g) * a1 + g * rr * a2)
          - 3.0 * (2.0 * g * rr * L + g * g * Lp))

    s_scale = cfg.mu * U / (cfg.a * xi)
    sh_scale = cfg.mu * U / (cfg.a * xi ** 1.5)
    edge_term = 2.0 * g * rr * a1
    k3, k6, k9 = 3.0 - 2.0 * c2, 2.0 * (3.0 - c2), 9.0 - 2.0 * c2
    bracket0 = k3 * (2.0 * a0 / xi - edge_term)
    gg, ur1, uz0, uz1, rr0, rr1, tt0, tt1, zz0, zz1, rz0, rz1 = take(np.stack([
        g * g,
        -(3.0 - c2) * (U / math.sqrt(xi)) * a1,
        U * (V + 2.0 * c2 * a0 / xi), U * L,
        s_scale * (bracket0 + k6 * edge_term), s_scale * (k3 * L - k6 * a2),
        s_scale * bracket0, s_scale * (k3 * L - k6 * a1_over_r),
        s_scale * (6.0 * a0 / xi - k9 * edge_term), s_scale * k9 * L,
        sh_scale * ((4.0 * c2 - 6.0) * a1 + xi * Vp), sh_scale * xi * Lp]))

    # in place, as ur1 zm, c0 + c1 zm and Zb (c0 + c1 z2) with the operands
    # of + and * swapped at most, so every double is that expression's;
    # z2 = Zb**2 is held in u_z's slot and zm = z2 - g**2 in s_zz's until
    # each is the last field formed from it
    fields = _field_block(Rr, Zb)
    u_r, u_z, s_rr, s_tt, s_zz, s_rz = fields
    z2, zm = u_z, s_zz
    np.multiply(Zb, Zb, out=z2)
    np.subtract(z2, gg, out=zm)
    for out, c0, c1 in ((s_rz, rz0, rz1), (u_z, uz0, uz1)):
        np.multiply(c1, z2, out=out)
        out += c0
        out *= Zb
    np.multiply(ur1, zm, out=u_r)
    for out, c0, c1 in ((s_rr, rr0, rr1), (s_tt, tt0, tt1), (s_zz, zz0, zz1)):
        np.multiply(c1, zm, out=out)
        out += c0
    return _field_sample(Rr, Zb, fields)


def _a1_antiderivative(sol: SphereSolution, radii: np.ndarray) -> np.ndarray:
    """integral of A1 = -3 g**2 A' from 0 to each radius, taken as the
    integral of -3 g**2 A_s over s from 0 to R**2: the cumulative sum of
    the whole s-panels below it plus the partial panel up to it, each by
    the exact 6-point rule."""
    poly = sol.A.s_form
    t, w = _GL_S
    s, ws, (_, a_s, _) = poly.gauss(_GL_S)
    g = 1.0 + 0.5 * s
    cum = np.concatenate(([0.0], np.cumsum(np.sum(-3.0 * ws * g * g * a_s,
                                                  axis=1))))
    k, t_r = poly.locate(radii * radii)
    # the partial panel runs over [-1, t_r] in its panel variable
    frac = 0.5 * (t_r + 1.0)
    tn = frac[:, None] * (t + 1.0) - 1.0
    _, a_s, _ = poly.at(k[:, None], tn)
    g = 1.0 + 0.5 * (poly.mid[k][:, None] + poly.half[k][:, None] * tn)
    return cum[k] + poly.half[k] * frac * ((-3.0 * g * g * a_s) @ w)


def sphere_potential(sol: SphereSolution, R, Z) -> PotentialSample:
    """Odd-in-Z potential ``Phi = xi a**2 U [(int_0^R A1) Z + A Z**3]``
    and its first and second derivatives in the scaled coordinates.  R and
    Z broadcast together; like sphere_field it requires
    ``0 <= R <= 1/sqrt(xi)`` and ``|Z| <= gap(R)``.  The integral of A1
    is exact on the solver's polynomial panels in s = R**2 (6-point
    Gauss-Legendre per panel)."""
    cfg = sol.cfg
    xi = cfg.xi
    Rr, Zb, runiq, take = _layer_points(sol.geo.r_edge, R, Z)

    a0u, a1u, a2u, _ = sol.A.eval(runiq)
    gu = 1.0 + 0.5 * runiq * runiq
    A1u = -3.0 * gu * gu * a1u
    A1pu = -3.0 * gu * gu * a2u - 6.0 * gu * runiq * a1u
    Iau = _a1_antiderivative(sol, runiq)

    a0, a1 = take(a0u), take(a1u)
    A1, A1p, Ia = take(A1u), take(A1pu), take(Iau)

    s0 = xi * cfg.a ** 2 * cfg.U
    z2 = Zb * Zb
    phi = s0 * (Ia * Zb + a0 * Zb * z2)
    phi_r = s0 * (A1 * Zb + a1 * Zb * z2)
    phi_z = s0 * (Ia + 3.0 * a0 * z2)
    phi_rr = s0 * (A1p * Zb + take(a2u) * Zb * z2)
    phi_rz = s0 * (A1 + 3.0 * a1 * z2)
    phi_zz = s0 * 6.0 * a0 * Zb

    vals = (phi, phi_r, phi_z, phi_rr, phi_rz, phi_zz)
    if not phi.shape:
        return PotentialSample(float(Rr), float(Zb), *map(float, vals))
    return PotentialSample(np.broadcast_to(Rr, phi.shape).copy(),
                           np.broadcast_to(Zb, phi.shape).copy(), *vals)


def sphere_force(sol: SphereSolution, trace: str = "midplane") -> SphereForce:
    """Squeezing force on either sphere, ``F = 6 pi a mu U psi``.

    ``trace="midplane"`` integrates the normal stress along Z = 0 (the
    headline value); ``trace="surface"`` integrates it along the bonded
    surface Z = gap(R).  The two agree in the extreme regimes and differ
    by a few percent in between.  The integral is the exact 6-point
    Gauss-Legendre rule on every solver panel in s = R**2, read straight
    off the panel polynomials.
    """
    if trace not in ("midplane", "surface"):
        raise ValueError(f"trace must be 'midplane' or 'surface', got {trace!r}")
    xi = sol.xi
    c9 = 9.0 - 2.0 * sol.chi * sol.chi
    s, w, (a0, a_s, a_ss) = sol.A.s_form.gauss(_GL_S)
    g = 1.0 + 0.5 * s
    r_a1 = 2.0 * s * a_s                    # R A'
    if trace == "midplane":
        L = 4.0 * (s * a_ss + a_s)          # A'' + A'/R
        core = -c9 * (L * g * g + 2.0 * g * r_a1)
    else:
        core = -2.0 * c9 * g * r_a1
    # (R/3) F dR = F ds / 6
    psi = float(np.sum(w * (core + 6.0 * a0 / xi))) / 6.0
    cfg = sol.cfg
    return SphereForce(F=6.0 * math.pi * cfg.a * cfg.mu * cfg.U * psi,
                       psi=psi)


def psi_extremes(xi: float, chi: float) -> PsiExtremes:
    """Limiting force factors (incompressible plateau, compressible log).

    ``psi_i = 1/(4 xi)`` is chi-independent; ``psi_c = ln(1/(2 xi))/chi**2``
    diverges as chi -> 0 and is reported as inf there.  Requires
    ``0 < xi <= 0.1`` and ``0 <= chi <= 3/2``, as solve_sphere does.
    """
    xi, chi = float(xi), resolve_chi(chi)
    if not (0.0 < xi <= XI_MAX_SPHERE):
        raise ValueError(
            f"xi must be positive and <= {XI_MAX_SPHERE}, got {xi}")
    psi_i = 0.25 / xi
    if chi < CHI_INCOMPRESSIBLE:
        return PsiExtremes(psi_i=psi_i, psi_c=math.inf)
    return PsiExtremes(psi_i=psi_i, psi_c=math.log(0.5 / xi) / (chi * chi))
