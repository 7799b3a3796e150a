"""Independent references for the benchmark's output checks.

Every check compares an op's output either with a computation made here,
apart from the program (closed forms, scipy Bessel functions, this
module's own Gauss-Legendre quadratures), or with a property the method
must have (Dirichlet data, zero edge resultant, monotonicity).  None
compares with a stored copy of the program's earlier output.

A check returns ``None`` when the output passes and a one-line reason
when it does not.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from layerlab import plate, sphere

# Finite-element row of the published sphere-force table, by chi then xi.
TABLE_XI = (1e-5, 1e-4, 1e-3, 1e-2)
TABLE_CHI = (1e-3, 1e-2, 0.1, 1.0)
TABLE_FE = {
    1e-3: (25000.0, 2500.0, 250.0, 26.0),
    1e-2: (12000.0, 2200.0, 250.0, 26.0),
    0.1: (540.0, 320.0, 120.0, 23.0),
    1.0: (10.2, 8.0, 5.7, 3.4),
}
TABLE_BAND = 0.05

GL_NODES = 12


def relerr(a, b, scale=None) -> float:
    """Sup-norm distance of a from b, relative to scale (default sup|b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = float(np.max(np.abs(b))) if scale is None else float(scale)
    return float(np.max(np.abs(a - b))) / (s if s > 0.0 else 1.0)


def gauss_panels(edges, n: int = GL_NODES):
    """Nodes and weights of n-point Gauss-Legendre on every panel."""
    t, w = np.polynomial.legendre.leggauss(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    wx = (half[:, None] * w[None, :]).ravel()
    return x, wx


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

def psi_chi0(xi: float, trace: str = "midplane") -> float:
    """Force factor of the incompressible (chi = 0) sphere layer."""
    t = 0.25 - xi / (2.0 * (1.0 + 2.0 * xi))
    tail = t / xi - 1.0 / (2.0 * (1.0 + 2.0 * xi) ** 2)
    if trace == "midplane":
        return 6.0 * t + tail
    s_e = (1.0 + 2.0 * xi) / xi
    return 3.0 * (math.log(s_e / 2.0) + 2.0 / s_e - 1.0) + tail


def sphere_panels(sol) -> np.ndarray:
    """Breakpoints of the solution's piecewise representation, from 0."""
    edges = np.asarray(sol.A.meta["edges"], dtype=float)
    return np.concatenate(([0.0], edges[edges > 0.0]))


def psi_from_fields(sol, trace: str = "midplane") -> float:
    """Psi = integral of (R/3) sigma_zz(R, Z) a xi/(mu U) dR along the
    midplane (Z = 0) or the bonded surface (Z = gap(R)), by Gauss-Legendre
    on the solution's panels, with sigma_zz from ``sphere_field``."""
    r, w = gauss_panels(sphere_panels(sol))
    z = np.zeros_like(r) if trace == "midplane" else 1.0 + 0.5 * r * r
    cfg = sol.cfg
    s_zz = sphere.sphere_field(sol, r, z).s_zz * cfg.a * cfg.xi / (cfg.mu * cfg.U)
    return float(np.sum(w * r * s_zz) / 3.0)


def a1_integral(sol, radii) -> np.ndarray:
    """integral_0^R of -3 g**2 A' for each radius, by Gauss-Legendre on the
    solution's panels plus one partial panel per radius."""
    edges = sphere_panels(sol)
    t, w = np.polynomial.legendre.leggauss(GL_NODES)

    def a1(r):
        g = 1.0 + 0.5 * r * r
        return -3.0 * g * g * sol.A.eval(r)[1]

    x, wx = gauss_panels(edges)
    per_panel = (wx * a1(x)).reshape(len(edges) - 1, GL_NODES).sum(axis=1)
    cum = np.concatenate(([0.0], np.cumsum(per_panel)))
    radii = np.asarray(radii, dtype=float)
    k = np.clip(np.searchsorted(edges, radii, side="right") - 1, 0, len(edges) - 2)
    lo = edges[k]
    half = 0.5 * (radii - lo)
    nodes = (lo + half)[:, None] + half[:, None] * t[None, :]
    part = half * (a1(nodes.ravel()).reshape(nodes.shape) @ w)
    return cum[k] + part


def check_dirichlet(fs, walls, U: float = 1.0):
    """u_z = +-U and u_r = 0 on the wall samples (boolean mask `walls`,
    with Z = +-gap(R) there)."""
    zsign = np.sign(np.asarray(fs.Z)[walls])
    err = float(np.max(np.abs(np.asarray(fs.u_z)[walls] - zsign * U)))
    if err > 1e-8 * abs(U):
        return f"u_z misses the wall data by {err:.3e}"
    if np.any(np.asarray(fs.u_r)[walls] != 0.0):
        return "u_r is not zero on the wall"
    return None


def check_sphere_solve(sol, psi: float, fe=None):
    """Every property a cold sphere solve must have (sphere_solve op)."""
    xi, chi = sol.xi, sol.chi
    re = sol.geo.r_edge
    r = np.linspace(0.0, re, 201)
    g = 1.0 + 0.5 * r * r
    fs = sphere.sphere_field(sol, np.concatenate([r, r]), np.concatenate([g, -g]))
    bad = check_dirichlet(fs, np.ones(2 * r.size, dtype=bool), sol.cfg.U)
    if bad:
        return bad
    ref = psi_from_fields(sol)
    if abs(psi - ref) > 1e-8 * abs(ref):
        return f"psi {psi!r} differs from force-from-fields {ref!r}"
    psi0 = psi_chi0(xi)
    if chi == 0.0 and abs(psi / psi0 - 1.0) > 1e-9:
        return f"psi {psi!r} misses the chi = 0 closed form {psi0!r}"
    if psi > psi0 * (1.0 + 1e-9):
        return f"psi {psi!r} exceeds the chi = 0 value {psi0!r}"
    if fe is not None and abs(psi / fe - 1.0) > TABLE_BAND:
        return f"psi {psi!r} is more than 5% from the printed {fe}"
    return None


def check_theta(theta, sol) -> str | None:
    """Theta = 6 A at chi**2 = 3 xi (two independent solves)."""
    rr = np.linspace(0.0, sol.geo.r_edge, 1501)
    err = relerr(theta.Theta.eval(rr)[0], 6.0 * theta.U * sol.A.eval(rr)[0])
    if err > 1e-8:
        return f"Theta differs from 6 A by {err:.3e} (sup-rel)"
    return None


def check_potential(sol, pot, radii) -> str | None:
    """phi_z(R, 0)/(xi a**2 U) against the integral of -3 g**2 A'; at
    chi = 0 against (3/4) ln((R**2 + 2)/2)."""
    cfg = sol.cfg
    got = np.asarray(pot.phi_z) / (cfg.xi * cfg.a ** 2 * cfg.U)
    if sol.chi == 0.0:
        ref = 0.75 * np.log((radii * radii + 2.0) / 2.0)
    else:
        ref = a1_integral(sol, radii)
    err = relerr(got, ref)
    if err > 1e-8:
        return f"phi_z differs from its quadrature by {err:.3e} (sup-rel)"
    return None


# ---------------------------------------------------------------------------
# plate
# ---------------------------------------------------------------------------

CHI_SWITCH = 1e-10


def plate_a(xi: float, chi: float, R) -> np.ndarray:
    """Radial potential A(R) of the plate layer from scipy's i0e/i1e."""
    R = np.asarray(R, dtype=float)
    if chi < CHI_SWITCH:
        return (1.0 - R * R) / (8.0 * xi * xi)
    k = chi / xi
    c2 = chi * chi
    t = sp.i1e(k) / sp.i0e(k)
    cb = 3.0 * (3.0 - 2.0 * c2) / ((3.0 - c2) * (3.0 - 2.0 * xi * chi * t))
    rho = np.exp(k * (R - 1.0)) * sp.i0e(k * R) / sp.i0e(k)
    return (1.0 - cb * rho) / (2.0 * c2)


def _p_over_i0(x: np.ndarray) -> np.ndarray:
    """(x I0(x) - 2 I1(x))/I0(x); a positive series below x = 0.5, where
    the difference would cancel."""
    x = np.asarray(x, dtype=float)
    direct = x - 2.0 * sp.i1e(x) / sp.i0e(x)
    small = x < 0.5
    if np.any(small):
        xs = x[small]
        term = xs ** 3 / 8.0
        p = term.copy()
        for m in range(1, 30):
            term = term * xs * xs / (4.0 * m * (m + 2.0))
            p = p + term
        direct[small] = p / sp.i0(xs)
    return direct


def plate_moduli(xi, chi: float):
    """(G, e_hat, e_hat_l) of the plate layer for an array of xi."""
    xi = np.asarray(xi, dtype=float)
    if chi < CHI_SWITCH:
        e_i = 1.0 / (8.0 * xi * xi)
        return np.ones_like(xi), e_i, e_i
    c2 = chi * chi
    three = 3.0 - c2
    nine4 = 9.0 - 4.0 * c2
    x = chi / xi
    t = sp.i1e(x) / sp.i0e(x)
    p = _p_over_i0(x)
    den = x ** 3 * (3.0 - 2.0 * xi * chi * t)
    g = 8.0 * (3.0 * three * p + 2.0 * c2 * c2 * t) / (three * den)
    e_hat = 3.0 * three * g / (8.0 * xi * xi * nine4)
    e_l = three * (9.0 * p + 2.0 * c2 * nine4 * t) / (xi * xi * nine4 * den)
    return g, e_hat, e_l


def plate_force_quadrature(sol) -> float:
    """2 pi a**2 integral_0^1 sigma_zz(R, 1) R dR, by Gauss-Legendre on
    panels graded toward R = 1 over the edge-layer width xi/chi."""
    xi, chi = sol.xi, sol.chi
    width = xi / chi if chi > 0.0 else math.inf
    reach = min(0.5, 40.0 * width)
    grade = [1.0 - reach]
    while reach > width / 8.0 and reach > 1e-12:
        reach *= 0.5
        grade.append(1.0 - reach)
    edges = np.concatenate((np.linspace(0.0, grade[0], 9), grade[1:], [1.0]))
    r, w = gauss_panels(np.unique(edges), 16)
    s_zz = np.asarray(plate.field(sol, r, np.ones_like(r)).s_zz)
    return float(2.0 * math.pi * sol.cfg.a ** 2 * np.sum(w * s_zz * r))


def check_plate_field(sol, fs, force: float, r_grid, z_levels) -> str | None:
    """Dense plate field op: wall data, A(R), force, edge resultant.

    fs is sampled on the outer product r_grid x z_levels; z_levels holds
    -1, +1 and the nodes of Gauss-Legendre in Z.
    """
    cfg = sol.cfg
    U = cfg.U
    z_levels = np.asarray(z_levels)
    top = np.flatnonzero(z_levels == 1.0)[0]
    bottom = np.flatnonzero(z_levels == -1.0)[0]
    for col, sgn in ((top, 1.0), (bottom, -1.0)):
        if np.any(fs.u_z[:, col] != sgn * U) or np.any(fs.u_r[:, col] != 0.0):
            return "wall data u_z = +-U, u_r = 0 not met exactly"
    a_fields = fs.s_zz[:, top] * cfg.a * cfg.xi / (6.0 * cfg.mu * U)
    err = relerr(a_fields, plate_a(cfg.xi, sol.chi, r_grid))
    if err > 1e-12:
        return f"A(R) differs from the scipy closed form by {err:.3e}"
    ref = plate_force_quadrature(sol)
    if abs(force - ref) > 1e-8 * abs(ref):
        return f"force {force!r} differs from its quadrature {ref!r}"
    edge = np.flatnonzero(np.asarray(r_grid) == 1.0)[0]
    inner = (z_levels != 1.0) & (z_levels != -1.0)
    _, w = np.polynomial.legendre.leggauss(int(inner.sum()))
    s_rr = fs.s_rr[edge, inner]
    scale = max(float(np.max(np.abs(fs.s_rr[edge]))),
                float(np.max(np.abs(fs.s_rz[edge]))))
    resultant = abs(float(np.sum(w * s_rr))) / (2.0 * scale)
    if resultant > 1e-8:
        return f"edge resultant of s_rr is {resultant:.3e} of the tractions"
    return None


def ratio_c(zeta: float) -> float:
    """E_c/E in the joint thin/incompressible limit, from scipy."""
    y = 1.0 / zeta
    return 1.0 / (1.0 - 2.0 * (sp.i1e(y) / sp.i0e(y)) / y)


def ratio_i(zeta: float) -> float:
    return ratio_c(zeta) / (8.0 * zeta * zeta)


def nu_of_chi(chi: float) -> float:
    c2 = chi * chi
    return (3.0 - 2.0 * c2) / (2.0 * (3.0 - c2))


def check_transitions(tau: float, xi: float, zc: float, zi: float,
                      nu_lo: float, nu_hi: float) -> str | None:
    target = 1.0 + tau
    for name, got in (("ratio_c(zeta_c)", ratio_c(zc)), ("ratio_i(zeta_i)", ratio_i(zi))):
        if abs(got / target - 1.0) > 1e-10:
            return f"{name} = {got!r}, not 1 + tau = {target!r}"
    lo, hi = nu_of_chi(min(xi / zc, 1.5)), nu_of_chi(xi / zi)
    if abs(nu_lo - lo) > 1e-12 or abs(nu_hi - hi) > 1e-12:
        return f"nu window ({nu_lo!r}, {nu_hi!r}) is not ({lo!r}, {hi!r})"
    return None


def regime_label(xi: float, chi: float, zc: float, zi: float) -> str:
    if chi == 0.0:
        return "incompressible"
    zeta = xi / chi
    if zeta >= zi:
        return "incompressible"
    return "compressible" if zeta <= zc else "intermediate"


def check_sweep(xis, chi: float, rows, zc: float, zi: float) -> str | None:
    """Scalar sweep: G, the moduli and the regime labels."""
    g, e_hat, e_l = plate_moduli(xis, chi)
    got_g = np.array([r[0] for r in rows])
    mods = [r[1] for r in rows]
    for name, got, ref in (("force_factor", got_g, g),
                           ("e_hat", np.array([m.e_hat for m in mods]), e_hat),
                           ("e_hat_l", np.array([m.e_hat_l for m in mods]), e_l)):
        err = float(np.max(np.abs(got / ref - 1.0)))
        if err > 1e-11:
            return f"{name} differs from the scipy closed form by {err:.3e}"
    for xi, (_, mod, rep) in zip(xis, rows):
        if mod.e_hat_i != 1.0 / (8.0 * xi * xi):
            return f"e_hat_i {mod.e_hat_i!r} is not 1/(8 xi^2) at xi = {xi!r}"
        if rep.zeta_c != zc or rep.zeta_i != zi:
            return "classify used other transition values than plate_transitions"
        want = regime_label(xi, chi, zc, zi)
        if rep.label != want:
            return f"classify says {rep.label} at (xi, chi) = ({xi!r}, {chi!r}); zeta says {want}"
    return None
