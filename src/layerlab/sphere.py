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

Closed-form anchors used by the tests: for ``chi = 0`` the profile is
``A = 1/(2 s**2) - xi**2 / (2 (1 + 2 xi)**2)`` with ``s = R**2 + 2``
(so ``A' = -2 R / s**3`` and ``A(R_e) = 0``), and the extreme-regime
force factors are ``Psi_i = 1/(4 xi)`` (incompressible plateau) and
``Psi_c = ln(1/(2 xi)) / chi**2`` (compressible logarithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .kernels import (_FROBENIUS_EPS, RadialSolution, ToleranceNotMet,
                      integrate, solve_linear_bvp)
from .materials import LayerConfig, MaterialParams, resolve_chi
from .plate import CHI_INCOMPRESSIBLE, FieldSample

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


def _ode_coefficients(xi: float, chi: float):
    """Coefficient callables (p, q, f) and their derivatives for A(R)."""
    c2 = chi * chi

    def p(r):
        return (7.0 * r * r + 2.0) / (r * r * r + 2.0 * r)

    def q(r):
        s = r * r + 2.0
        return -4.0 * c2 / (xi * s * s)

    def f(r):
        s = r * r + 2.0
        return -4.0 / (s * s * s)

    def dp(r):
        r2 = r * r
        s = r2 + 2.0
        return (-7.0 * r2 * r2 + 8.0 * r2 - 4.0) / (r2 * s * s)

    def dq(r):
        s = r * r + 2.0
        return 16.0 * c2 * r / (xi * s * s * s)

    def df(r):
        s = r * r + 2.0
        return 24.0 * r / (s * s * s * s)

    return p, q, f, dp, dq, df


def _edge_closure(xi: float, chi: float):
    """Rim row (alpha, beta, gamma, delta): zero sigma_rr resultant."""
    re = 1.0 / math.sqrt(xi)
    ge = 1.0 + 0.5 * re * re
    k = 3.0 - 2.0 * chi * chi
    alpha = 3.0 * k / xi
    beta = 9.0 * ge * re - k * ge * ge / re
    gamma = 3.0 * ge * ge
    return alpha, beta, gamma, 0.0


def _sphere_edges(xi: float, chi: float, n_main: int) -> np.ndarray:
    """Panel edges tuned to the sphere profile: geometric grading off the
    axis, a uniform section through the O(1) feature region (dense enough
    for the oscillatory homogeneous solutions when chi**2 > 2 xi, whose
    peak local wavenumber is chi/sqrt(xi)), then log-uniform panels along
    the algebraic R**-6 tail out to the rim."""
    re = 1.0 / math.sqrt(xi)
    scale_f = n_main / 96.0
    graded = [_FROBENIUS_EPS]
    while graded[-1] * 4.0 < 0.0625:
        graded.append(graded[-1] * 4.0)
    start = graded[-1]
    k_osc = chi / math.sqrt(xi)
    h_inner = min(0.12, 1.5 / max(k_osc, 1.0)) / max(scale_f, 1e-2)
    r_mid = min(4.0, re)
    n_inner = max(int(math.ceil((r_mid - start) / h_inner)), 8)
    inner = np.linspace(start, r_mid, n_inner + 1)
    head = np.asarray(graded[:-1])
    if r_mid >= re:
        return np.concatenate([head, inner])
    tail = np.geomspace(r_mid, re, max(int(n_main), 8) + 1)
    return np.concatenate([head, inner[:-1], tail])


@lru_cache(maxsize=64)
def _solve_radial(xi: float, chi: float, tol: float,
                  mesh: Optional[int]) -> tuple[RadialSolution, float]:
    """Solve the radial profile twice (independent discretizations) and
    cross-check; returns the primary solution plus the sup-norm relative
    disagreement between the two."""
    p, q, f, dp, dq, df = _ode_coefficients(xi, chi)
    re = 1.0 / math.sqrt(xi)
    right = _edge_closure(xi, chi)
    edges = _sphere_edges(xi, chi, 96 if mesh is None else int(mesh))
    kw = dict(coeff_derivs=(dp, dq, df), mesh=edges)
    primary = solve_linear_bvp(p, q, f, (0.0, re), ("regular",), right,
                               tol=tol, method="primary", **kw)
    alt = solve_linear_bvp(p, q, f, (0.0, re), ("regular",), right,
                           tol=tol, method="alt", **kw)
    grid = np.linspace(0.0, re, 1501)
    a_p = primary.eval(grid)[0]
    a_a = alt.eval(grid)[0]
    scale = float(np.max(np.abs(a_p)))
    dual_rel = float(np.max(np.abs(a_p - a_a))) / scale
    if dual_rel > 1e-8:
        raise ToleranceNotMet(
            f"independent discretizations disagree: sup rel {dual_rel:.3e} "
            f"> 1e-08 at (xi, chi) = ({xi:g}, {chi:g})",
            best=dual_rel, residual=dual_rel * scale, scale=scale)
    primary.meta["dual_sup_rel"] = dual_rel
    return primary, dual_rel


@dataclass(frozen=True)
class SphereSolution:
    """Solved radial profile for the sphere-sphere layer.

    ``beta = sqrt(1 - chi**2/(2 xi))`` stored as (real, imag); it tracks
    which side of the oscillatory threshold the parameters sit on without
    ever branching on it.
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
    discretizations and requires them to agree to 1e-8 in sup norm;
    repeated calls with identical parameters reuse a cached profile.
    ``mesh`` overrides the panel count of the radial solver (used by the
    mesh-convergence tests).
    """
    chi = resolve_chi(chi, nu)
    xi = float(xi)
    if not (0.0 < xi <= XI_MAX_SPHERE):
        raise ValueError(f"sphere layers need 0 < xi <= {XI_MAX_SPHERE}, got {xi}")
    cfg = LayerConfig.make("sphere", xi, a=a, U=U, mu=mu)
    mat = MaterialParams.from_chi(chi, mu=mu)
    radial, _ = _solve_radial(xi, chi, float(tol), mesh)
    val = 1.0 - chi * chi / (2.0 * xi)
    beta = (math.sqrt(val), 0.0) if val >= 0.0 else (0.0, math.sqrt(-val))
    geo = SphereGeometry(xi=xi, r_edge=1.0 / math.sqrt(xi))
    return SphereSolution(cfg=cfg, geo=geo, mat=mat, A=radial, beta=beta)


def _profile_terms(sol: SphereSolution, r: np.ndarray):
    """Evaluate A..A''' on the unique radii and form the derived bundles
    (g, L, V, L', V') used by both the field and force assemblies.

    ``A'/R`` and ``(A'' - A'/R)/R`` are evaluated with their finite axis
    limits (A''(0) and A'''(0)); away from the axis the second form
    avoids the 1/R**2 blow-up of rounding noise in L'.
    """
    a0, a1, a2, a3 = sol.A.eval(r)
    a0, a1, a2, a3 = (np.atleast_1d(np.asarray(v, dtype=float))
                      for v in (a0, a1, a2, a3))
    rr = np.atleast_1d(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        a1_over_r = np.where(rr > 0.0, a1 / np.where(rr > 0.0, rr, 1.0), a2)
        lp_core = np.where(rr > 0.0,
                           (a2 - a1_over_r) / np.where(rr > 0.0, rr, 1.0),
                           0.0)
    g = 1.0 + 0.5 * rr * rr
    L = a2 + a1_over_r
    V = -3.0 * g * g * L - 6.0 * g * rr * a1
    Lp = a3 + lp_core
    Vp = (-6.0 * ((rr * rr + g) * a1 + g * rr * a2)
          - 3.0 * (2.0 * g * rr * L + g * g * Lp))
    return a0, a1, a2, a3, a1_over_r, g, L, V, Lp, Vp


def sphere_field(sol: SphereSolution, R, Z) -> FieldSample:
    """Displacements and stresses at scaled coordinates (R, Z).

    R and Z broadcast together; requires ``0 <= R <= 1/sqrt(xi)`` and
    ``|Z| <= gap(R)``.  Stresses scale with ``mu U / (a xi)`` except the
    shear, which carries ``mu U / (a xi**1.5)``.
    """
    cfg, c2 = sol.cfg, sol.chi * sol.chi
    xi = cfg.xi
    Rb, Zb = np.broadcast_arrays(np.asarray(R, dtype=float),
                                 np.asarray(Z, dtype=float))
    scalar = Rb.ndim == 0
    Rb = np.atleast_1d(Rb).astype(float)
    Zb = np.atleast_1d(Zb).astype(float)
    if np.any(Rb < 0.0) or np.any(Rb > sol.geo.r_edge * (1.0 + 1e-12)):
        raise ValueError("R outside [0, 1/sqrt(xi)]")
    gb = 1.0 + 0.5 * Rb * Rb
    if np.any(np.abs(Zb) > gb * (1.0 + 1e-12) + 1e-9):
        raise ValueError("Z outside the layer |Z| <= gap(R)")

    runiq, inv = np.unique(Rb, return_inverse=True)
    (a0u, a1u, a2u, _a3u, a1ru, gu, Lu, Vu, Lpu, Vpu) = \
        _profile_terms(sol, runiq)
    take = lambda arr: arr[inv].reshape(Rb.shape)
    a0, a1, a2 = take(a0u), take(a1u), take(a2u)
    a1r, g, L, V = take(a1ru), take(gu), take(Lu), take(Vu)
    Lp, Vp = take(Lpu), take(Vpu)

    U, mu, a = cfg.U, cfg.mu, cfg.a
    zm = Zb * Zb - g * g
    edge_term = 2.0 * g * Rb * a1

    u_r = -(3.0 - c2) * (U / math.sqrt(xi)) * a1 * zm
    u_z = U * ((V + 2.0 * c2 * a0 / xi) * Zb + L * Zb ** 3)

    s_scale = mu * U / (a * xi)
    base = L * zm - edge_term
    s_zz = s_scale * ((9.0 - 2.0 * c2) * base + 6.0 * a0 / xi)
    bracket1 = (3.0 - 2.0 * c2) * (base + 2.0 * a0 / xi)
    s_rr = s_scale * (bracket1 - 2.0 * (3.0 - c2) * (a2 * zm - edge_term))
    s_tt = s_scale * (bracket1 - 2.0 * (3.0 - c2) * a1r * zm)
    s_rz = (mu * U / (a * xi ** 1.5)) * (
        (4.0 * c2 - 6.0) * a1 * Zb + xi * (Vp * Zb + Lp * Zb ** 3))

    if scalar:
        return FieldSample(R=float(Rb[0]), Z=float(Zb[0]),
                           u_r=float(u_r[0]), u_z=float(u_z[0]),
                           s_rr=float(s_rr[0]), s_tt=float(s_tt[0]),
                           s_zz=float(s_zz[0]), s_rz=float(s_rz[0]))
    return FieldSample(R=Rb, Z=Zb, u_r=u_r, u_z=u_z,
                       s_rr=s_rr, s_tt=s_tt, s_zz=s_zz, s_rz=s_rz)


def _a1_antiderivative(sol: SphereSolution, radii: np.ndarray,
                       tol: float) -> np.ndarray:
    """integral of A1 = -3 g**2 A' from 0 to each radius, accumulated
    panel by panel on the solver mesh so no segment is integrated twice."""

    def a1_fn(r):
        gr = 1.0 + 0.5 * r * r
        return -3.0 * gr * gr * sol.A.eval(r)[1]

    edges = sol.A.meta.get("edges")
    if edges is None:
        edges = np.linspace(sol.A.r_lo, sol.A.r_hi, 97)
    edges = np.concatenate(([0.0], edges[edges > 0.0]))
    out = np.empty_like(radii, dtype=float)
    order = np.argsort(radii)
    cum = 0.0
    idx = 0  # next mesh edge to fold into cum
    pos = 0.0
    for j in order:
        r = radii[j]
        while idx + 1 < len(edges) and edges[idx + 1] <= r:
            cum += integrate(a1_fn, edges[idx], edges[idx + 1], tol=tol).value
            pos = edges[idx + 1]
            idx += 1
        out[j] = cum + (integrate(a1_fn, pos, r, tol=tol).value
                        if r > pos else 0.0)
        # keep cum anchored at a mesh edge; the tail [pos, r] is re-done
        # per radius (radii rarely share a panel, and segments are short)
    return out


def sphere_potential(sol: SphereSolution, R, Z) -> PotentialSample:
    """Odd-in-Z potential ``Phi = xi a**2 U [(int_0^R A1) Z + A Z**3]``
    and its first and second derivatives in the scaled coordinates."""
    cfg = sol.cfg
    xi = cfg.xi
    Rb, Zb = np.broadcast_arrays(np.asarray(R, dtype=float),
                                 np.asarray(Z, dtype=float))
    scalar = Rb.ndim == 0
    Rb = np.atleast_1d(Rb).astype(float)
    Zb = np.atleast_1d(Zb).astype(float)
    if np.any(Rb < 0.0) or np.any(Rb > sol.geo.r_edge * (1.0 + 1e-12)):
        raise ValueError("R outside [0, 1/sqrt(xi)]")

    runiq, inv = np.unique(Rb, return_inverse=True)
    a0u, a1u, a2u, _ = (np.atleast_1d(np.asarray(v, dtype=float))
                        for v in sol.A.eval(runiq))
    gu = 1.0 + 0.5 * runiq * runiq
    A1u = -3.0 * gu * gu * a1u
    A1pu = -3.0 * gu * gu * a2u - 6.0 * gu * runiq * a1u
    qtol = min(1e-12, sol.A.meta.get("tol", 1e-10))
    Iau = _a1_antiderivative(sol, np.atleast_1d(runiq), qtol)

    take = lambda arr: arr[inv].reshape(Rb.shape)
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

    if scalar:
        vals = [float(v[0]) for v in
                (phi, phi_r, phi_z, phi_rr, phi_rz, phi_zz)]
        return PotentialSample(float(Rb[0]), float(Zb[0]), *vals)
    return PotentialSample(Rb, Zb, phi, phi_r, phi_z, phi_rr, phi_rz, phi_zz)


def sphere_force(sol: SphereSolution, trace: str = "midplane") -> SphereForce:
    """Squeezing force on either sphere, ``F = 6 pi a mu U psi``.

    ``trace="midplane"`` integrates the normal stress along Z = 0 (the
    headline value); ``trace="surface"`` integrates it along the bonded
    surface Z = gap(R).  The two agree in the extreme regimes and differ
    by a few percent in between.
    """
    if trace not in ("midplane", "surface"):
        raise ValueError(f"trace must be 'midplane' or 'surface', got {trace!r}")
    xi = sol.xi
    c9 = 9.0 - 2.0 * sol.chi * sol.chi

    def integrand(r):
        # scalar r for the adaptive quadrature, an array for the probe
        a0, a1, a2, _ = sol.A.eval(r)
        g = 1.0 + 0.5 * r * r
        if np.ndim(r) == 0:
            L = a2 + (a1 / r if r > 0.0 else a2)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                L = a2 + np.where(r > 0.0, a1 / r, a2)
        if trace == "midplane":
            core = -c9 * (L * g * g + 2.0 * g * r * a1)
        else:
            core = -2.0 * c9 * g * r * a1
        return (r / 3.0) * (core + 6.0 * a0 / xi)

    # scale-aware tolerance: psi itself is O(1/xi), so a relative target
    # needs an absolute floor proportional to a cheap magnitude estimate
    probe = np.linspace(0.0, sol.geo.r_edge, 257)
    rough = float(np.trapezoid(integrand(probe), probe))
    tol = 1e-11 * max(1.0, abs(rough))
    psi = integrate(integrand, 0.0, sol.geo.r_edge, tol=tol).value
    cfg = sol.cfg
    return SphereForce(F=6.0 * math.pi * cfg.a * cfg.mu * cfg.U * psi,
                       psi=psi)


def psi_extremes(xi: float, chi: float) -> PsiExtremes:
    """Limiting force factors (incompressible plateau, compressible log).

    ``psi_i = 1/(4 xi)`` is chi-independent; ``psi_c = ln(1/(2 xi))/chi**2``
    diverges as chi -> 0 and is reported as inf there.
    """
    xi = float(xi)
    if xi <= 0.0:
        raise ValueError(f"xi must be positive, got {xi}")
    chi = float(chi)
    psi_i = 0.25 / xi
    if chi < CHI_INCOMPRESSIBLE:
        return PsiExtremes(psi_i=psi_i, psi_c=math.inf)
    return PsiExtremes(psi_i=psi_i, psi_c=math.log(0.5 / xi) / (chi * chi))
