"""Verification batteries behind ``layerlab verify-table4`` and
``layerlab verify-suite``, returned as plain data for the CLI to render.

table4() recomputes the published sphere-force table against the golden
data embedded in the package.  suite() checks independent properties of
both geometries on a fixed 5x5 (xi, chi) grid; cell_properties() gives
them at one cell.  None of the checks reuses the formula it checks.
"""

from __future__ import annotations

import importlib.resources
import json
import math

import numpy as np

from .kernels import solve_linear_bvp
from .plate import field, force, solve_plate
from .sphere import (_cell, psi_extremes, solve_sphere, sphere_field,
                     sphere_force)

__all__ = ["table4", "cell_properties", "suite"]

# property name -> tolerance on its worst value, in the printed order
_TOLERANCES = {"edge-resultant plate": 1e-6, "edge-resultant sphere": 1e-6,
               "dirichlet": 1e-8, "sphere dual oracle": 1e-8,
               "plate force-from-fields": 1e-8,
               "sphere force-from-fields": 1e-8}

# the edge stresses are polynomials of degree <= 3 in Z, so 4-point
# Gauss-Legendre is exact; 41 even points set the scale of each edge
_TQ, _WQ = np.polynomial.legendre.leggauss(4)
_Z_EDGE = np.concatenate((np.linspace(-1.0, 1.0, 41), _TQ))
_R_WALL = np.linspace(0.0, 1.0, 41)
_GL12 = np.polynomial.legendre.leggauss(12)


def table4():
    """Recompute the published sphere-force table (Psi, Psi_i, Psi_c).

    Returns ``(checks, rows)``.  ``checks`` lists, in printed order, one
    dict per comparison with keys quantity, xi, chi, computed, golden,
    rel and tol; a check passes when rel <= tol.  ``rows`` is the
    deterministic artifact: one dict per line keyed by the CSV columns
    xi, chi, quantity, value, source, citation, xi descending and chi
    ascending, with the chi-independent Psi_i rows at chi = 0.
    """
    res = importlib.resources.files("layerlab").joinpath(
        "data/reference_tables.json")
    data = json.loads(res.read_text())["table4"]
    xis, chis, cite = data["xi"], data["chi"], data["citation"]
    psi = [[sphere_force(solve_sphere(xi, chi), trace="midplane").psi
            for xi in xis] for chi in chis]
    psi_i = [psi_extremes(xi, 1.0).psi_i for xi in xis]
    psi_c = [[psi_extremes(xi, chi).psi_c for xi in xis] for chi in chis]

    checks = []

    def check(quantity, xi, chi, computed, golden, tol):
        checks.append({"quantity": quantity, "xi": xi, "chi": chi,
                       "computed": computed, "golden": golden,
                       "rel": abs(computed / golden - 1.0), "tol": tol})

    for i, xi in enumerate(xis):
        check("psi_i", xi, 0.0, psi_i[i], data["psi_i"][i], 5e-2)
    for j, chi in enumerate(chis):
        for i, xi in enumerate(xis):
            check("psi-vs-fe", xi, chi, psi[j][i], data["fe"][j][i], 5e-2)
            check("psi-vs-printed", xi, chi, psi[j][i], data["psi"][j][i],
                  2e-2)
            check("psi_c", xi, chi, psi_c[j][i], data["psi_c"][j][i], 5e-2)

    rows = []

    def row(xi, chi, quantity, value, golden=False):
        source = "paper-printed golden" if golden else "computed"
        rows.append({"xi": xi, "chi": chi, "quantity": quantity,
                     "value": value, "source": source,
                     "citation": cite if golden else ""})

    for xi in sorted(xis, reverse=True):
        i = xis.index(xi)
        row(xi, 0.0, "psi_i", psi_i[i])
        row(xi, 0.0, "psi_i", data["psi_i"][i], golden=True)
        for j, chi in enumerate(chis):
            row(xi, chi, "psi", psi[j][i])
            row(xi, chi, "psi", data["psi"][j][i], golden=True)
            row(xi, chi, "fe", data["fe"][j][i], golden=True)
            row(xi, chi, "psi_c", psi_c[j][i])
            row(xi, chi, "psi_c", data["psi_c"][j][i], golden=True)
    return checks, rows


def _plate_force_from_fields(sol) -> float:
    """Axial load 2 pi a^2 int_0^1 sigma_zz(R, 1) R dR from the plate
    field itself, by composite 12-point Gauss-Legendre on panels
    [1 - d_k, 1 - d_(k+1)] with d halving from 1 to about xi/(20 chi):
    each panel is as wide as its distance from the rim, and the last is
    a twentieth of the rim layer's width ~xi/chi (one panel when
    chi <= xi, where there is no layer)."""
    x = sol.chi / sol.xi
    halvings = math.ceil(math.log2(20.0 * x)) if x > 1.0 else 0
    edges = np.append(1.0 - 2.0 ** -np.arange(halvings + 1.0), 1.0)
    half = 0.5 * np.diff(edges)[:, None]
    r = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL12[0]).ravel()
    weights = (half * _GL12[1]).ravel()
    # stresses from ``field`` are dimensional, so the load needs only a^2
    return 2.0 * math.pi * sol.cfg.a ** 2 * math.fsum(
        weights * (field(sol, r, 1.0).s_zz * r))


def _sphere_dual_oracle(ssol) -> float:
    """The disagreement solve_sphere's check reports (its primary
    discretization against its reference), and on a cell it checks
    against the exact profile also the alt discretization's disagreement
    with that profile, with the C the check used (meta["C"]), on the
    nodes of the primary's Gauss record in s relative to the profile's
    sup there: the larger of the two."""
    meta = ssol.A.meta
    if meta["reference"] == "alt":
        return meta["dual_sup_rel"]
    equation, right, mesh, exact = _cell(ssol.geo, ssol.chi)
    s = ssol.A.s_form.gauss[0]
    p, f = exact(s, False)
    a = p + meta["C"] * f
    alt = solve_linear_bvp(equation, right, mesh=mesh, method="alt")
    return max(meta["dual_sup_rel"], float(np.max(np.abs(
        alt.s_form(s)[0] - a))) / float(np.max(np.abs(a))))


def cell_properties(xi: float, chi: float) -> dict:
    """The six verify-suite properties at one (xi, chi) cell, by name:

    - edge-resultant plate/sphere: the net rim tractions over the edge
      (both components for the plate, s_rr for the sphere), relative to
      twice the larger through-thickness max of the edge tractions;
    - dirichlet: worst |u_z -+ 1| on both walls of both geometries;
    - sphere dual oracle: the sup disagreement of the radial profile
      with its reference, relative to sup|A|: of the two independent
      discretizations with each other, or, on a cell solve_sphere checks
      against the exact profile, the larger of each one's disagreement
      with it (_sphere_dual_oracle);
    - plate force-from-fields: |F from the field's s_zz / plate.force - 1|;
    - sphere force-from-fields: |Psi from the field's midplane s_zz /
      sphere_force's psi - 1|, the field's s_zz summed by the exact
      Gauss-Legendre rule of the panels in s, their Gauss record
      (Psi = sum w s_zz / 6, s_zz in units of mu U/(a xi)).  It checks
      sphere_force's midplane rim identity against the field's own A''
      on the nodes; both read the same profile, so it does not check the
      rim row.
    """
    sol = solve_plate(xi, chi=chi)
    ssol = solve_sphere(xi, chi)

    fe = field(sol, 1.0, _Z_EDGE)
    scale = max(float(np.max(np.abs(fe.s_rr[:41]))),
                float(np.max(np.abs(fe.s_rz[:41])))) or 1.0
    q_rr = float(_WQ @ fe.s_rr[41:])
    q_rz = float(_WQ @ fe.s_rz[41:])
    r_e = ssol.geo.r_edge
    ge = ssol.geo.gap(r_e)
    fs = sphere_field(ssol, r_e, np.concatenate(
        (np.linspace(-ge, ge, 41), ge * _TQ)))
    scale_s = max(float(np.max(np.abs(fs.s_rr[:41]))),
                  float(np.max(np.abs(fs.s_rz[:41])))) or 1.0
    q_s = ge * float(_WQ @ fs.s_rr[41:])

    rs = np.linspace(0.0, r_e, 41)
    walls = [(field(sol, _R_WALL, np.full_like(_R_WALL, sgn)).u_z, sgn)
             for sgn in (1.0, -1.0)]
    walls += [(sphere_field(ssol, rs, sgn * ssol.geo.gap(rs)).u_z, sgn)
              for sgn in (1.0, -1.0)]
    worst_d = max(float(np.max(np.abs(uz - sgn))) for uz, sgn in walls)
    s, w, *_ = ssol.A.s_form.gauss
    s_zz = sphere_field(ssol, np.sqrt(s.ravel()), 0.0).s_zz
    psi_f = xi * float(w.ravel() @ s_zz) / 6.0    # s_zz in mu U / (a xi)

    return {"edge-resultant plate": max(abs(q_rr), abs(q_rz)) / (2.0 * scale),
            "edge-resultant sphere": abs(q_s) / (2.0 * ge * scale_s),
            "dirichlet": worst_d,
            "sphere dual oracle": _sphere_dual_oracle(ssol),
            "plate force-from-fields":
                abs(_plate_force_from_fields(sol) / force(sol) - 1.0),
            "sphere force-from-fields":
                abs(psi_f / sphere_force(ssol).psi - 1.0)}


def suite():
    """Worst of each cell_properties value over the 5x5 grid xi in
    geomspace(1e-4, 0.1), chi in geomspace(1e-3, 1.4): a list of
    ``(name, worst, tol)`` in printed order; a property passes when
    worst <= tol."""
    cells = [cell_properties(float(xi), float(chi))
             for xi in np.geomspace(1e-4, 1e-1, 5)
             for chi in np.geomspace(1e-3, 1.4, 5)]
    return [(name, max(0.0, *(c[name] for c in cells)), tol)
            for name, tol in _TOLERANCES.items()]
