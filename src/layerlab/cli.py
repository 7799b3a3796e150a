"""Command-line harness for the bonded-layer library.

Commands
    plate-force         transmitted force between bonded plates
    plate-modulus       apparent compression modulus and its limits
    plate-field         field samples on an (R, Z) grid as CSV
    sphere-force        squeezing force between bonded spheres
    sphere-field        sphere field samples as CSV
    regime-classify     compressibility regime of a parameter point
    regime-transitions  transition constants (plus nu window with --xi)
    compare-plate       exact modulus vs the classical thin-layer formula
    verify-table4       recompute the published sphere-force table
    verify-suite        run the built-in property battery

Conventions shared by every command: numeric flags accept scientific
notation; the material is specified as --chi or --nu (both together are
accepted if they agree to 1e-10); --format human|csv|json selects the
output shape (--json/--csv are shorthands) and --output PATH redirects it
(default stdout).  CSV and JSON output is deterministic byte-for-byte
for identical inputs: no timestamps ever appear in them, and the human
report gains one only with --timestamp.  A --config FILE of `key = value`
lines (# comments allowed) supplies defaults that explicit flags
override.  Exit status: 0 success, 2 usage or validation error or a
verification mismatch, 3 numerical failure.

Field CSV artifacts use the fixed header R,Z,u_r,u_z,s_rr,s_tt,s_zz,s_rz
with rows Z-fastest and values printed to 17 significant digits, so
re-reading a file reproduces the in-memory doubles bit for bit.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.resources
import json
import math
import sys

import numpy as np

from .kernels import NumericsError, integrate
from .materials import nu_from_chi, resolve_chi, zeta_family
from .plate import apparent_modulus, field, force, force_factor, solve_plate
from .regimes import (SPHERE_ZETA_BAR_INCOMPRESSIBLE,
                      SPHERE_ZETA_TILDE_COMPRESSIBLE, classify,
                      nu_intermediate_window, plate_transitions)
from .sphere import psi_extremes, solve_sphere, sphere_field, sphere_force

__all__ = ["main"]

_FIELD_HEADER = "R,Z,u_r,u_z,s_rr,s_tt,s_zz,s_rz"


# ---------------------------------------------------------------------------
# formatting and output plumbing
# ---------------------------------------------------------------------------

def _g17(x) -> str:
    return "%.17g" % float(x)


def _human_value(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _write_out(text: str, path) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(pairs, args, extra_human_lines=()) -> str:
    """Render an ordered list of (key, value) pairs in the chosen format."""
    fmt = args.format
    if fmt == "json":
        obj = {k: _jsonable(v) for k, v in pairs}
        return json.dumps(obj, sort_keys=True) + "\n"
    if fmt == "csv":
        head = ",".join(k for k, _ in pairs)
        row = ",".join(
            _g17(v) if isinstance(v, float) else ("" if v is None else str(v))
            for _, v in pairs)
        return head + "\n" + row + "\n"
    lines = []
    if args.timestamp:
        lines.append("generated: "
                     + datetime.datetime.now(datetime.timezone.utc).isoformat())
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        lines.append(f"{k:>{width}}: {_human_value(v)}")
    lines.extend(extra_human_lines)
    return "\n".join(lines) + "\n"


def _render_rows(keys, rows, args) -> str:
    """Render a sweep (list of dicts sharing `keys`) in the chosen format."""
    fmt = args.format
    if fmt == "json":
        out = [{k: _jsonable(r[k]) for k in keys} for r in rows]
        return json.dumps(out, sort_keys=True) + "\n"
    # csv for sweeps regardless of human/csv: one line per row
    head = ",".join(keys)
    body = "\n".join(
        ",".join(_g17(r[k]) if isinstance(r[k], float)
                 else ("" if r[k] is None else str(r[k])) for k in keys)
        for r in rows)
    return head + "\n" + body + "\n"


def _reference_tables() -> dict:
    res = importlib.resources.files("layerlab").joinpath(
        "data/reference_tables.json")
    return json.loads(res.read_text())


# ---------------------------------------------------------------------------
# argument plumbing: None-defaults + config file + hard defaults
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "format": "human",
    "tolerance": 0.10,
    "tol": 1e-10,
    "mu": 1.0,
    "a": 1.0,
    "U": 1.0,
    "nr": 41,
    "nz": 21,
    "geometry": "plate",
}

_CONFIG_TYPES = {
    "xi": float, "chi": float, "nu": float, "tolerance": float, "tol": float,
    "mu": float, "a": float, "U": float, "nr": int, "nz": int,
    "format": str, "output": str, "geometry": str,
}


def _read_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = _CONFIG_TYPES[key](val.strip())
    return cfg


def _finalize(args) -> None:
    """Merge config-file values under explicit flags, then hard defaults."""
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    for dest, val in cfg.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, val)
    for dest, val in _DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, val)
    if getattr(args, "json", False):
        args.format = "json"
    if getattr(args, "csv", False):
        args.format = "csv"
    if getattr(args, "format", None) not in (None, "human", "csv", "json"):
        raise ValueError(f"unknown format {args.format!r}")
    sweep = getattr(args, "sweep_xi", None)
    if sweep is not None:
        lo, hi, n = sweep
        if not (0.0 < lo < hi):
            raise ValueError("sweep range must satisfy 0 < lo < hi")
        if int(n) != n or n < 2:
            raise ValueError("sweep point count must be an integer >= 2")


def _xi_list(args):
    """Single --xi or a log-spaced sweep, ascending."""
    sweep = getattr(args, "sweep_xi", None)
    if sweep is not None:
        lo, hi, n = sweep
        return [float(v) for v in np.geomspace(lo, hi, int(n))]
    if args.xi is None:
        raise ValueError("--xi is required (or --sweep-xi LO HI N)")
    return [float(args.xi)]


def _material(args) -> float:
    return resolve_chi(chi=args.chi, nu=args.nu)


# ---------------------------------------------------------------------------
# scalar commands
# ---------------------------------------------------------------------------

def _cmd_plate_force(args) -> int:
    chi = _material(args)
    rows = []
    for xi in _xi_list(args):
        g = force_factor(xi, chi)
        sol_force = (3.0 * math.pi * args.mu * args.a * args.U
                     / (8.0 * xi ** 3) * g)
        fam = zeta_family(xi, chi)
        rows.append({"xi": xi, "chi": chi, "nu": nu_from_chi(chi),
                     "zeta": fam.zeta, "force_factor": g,
                     "force": sol_force})
    keys = ["xi", "chi", "nu", "zeta", "force_factor", "force"]
    if len(rows) == 1:
        _write_out(_render([(k, rows[0][k]) for k in keys], args), args.output)
    else:
        _write_out(_render_rows(keys, rows, args), args.output)
    return 0


def _cmd_plate_modulus(args) -> int:
    chi = _material(args)
    rows = []
    for xi in _xi_list(args):
        mod = apparent_modulus(xi, chi)
        fam = zeta_family(xi, chi)
        rows.append({"xi": xi, "chi": chi, "nu": nu_from_chi(chi),
                     "zeta": fam.zeta, "e_hat": mod.e_hat,
                     "e_hat_i": mod.e_hat_i, "e_hat_c": mod.e_hat_c,
                     "e_hat_l": mod.e_hat_l})
    keys = ["xi", "chi", "nu", "zeta", "e_hat", "e_hat_i", "e_hat_c",
            "e_hat_l"]
    if len(rows) == 1:
        _write_out(_render([(k, rows[0][k]) for k in keys], args), args.output)
    else:
        _write_out(_render_rows(keys, rows, args), args.output)
    return 0


def _cmd_compare_plate(args) -> int:
    chi = _material(args)
    rows = []
    for xi in _xi_list(args):
        mod = apparent_modulus(xi, chi)
        diff_rel = (mod.e_hat_l - mod.e_hat) / mod.e_hat
        c2 = chi * chi
        estimate = (2.0 * chi * (4.0 * c2 * c2 - 24.0 * c2 + 27.0) * xi
                    / (9.0 * (3.0 - c2)))
        ratio = abs(diff_rel) / abs(estimate) if estimate != 0.0 else math.inf
        rows.append({"xi": xi, "chi": chi, "nu": nu_from_chi(chi),
                     "e_hat": mod.e_hat, "e_hat_l": mod.e_hat_l,
                     "diff_rel": diff_rel,
                     "small_chi_estimate": estimate,
                     "magnitude_ratio": ratio})
    keys = ["xi", "chi", "nu", "e_hat", "e_hat_l", "diff_rel",
            "small_chi_estimate", "magnitude_ratio"]
    if len(rows) == 1:
        _write_out(_render([(k, rows[0][k]) for k in keys], args), args.output)
    else:
        _write_out(_render_rows(keys, rows, args), args.output)
    return 0


def _cmd_sphere_force(args) -> int:
    chi = _material(args)

    def one(xi):
        sol = solve_sphere(xi, chi, tol=args.tol, mu=args.mu, a=args.a,
                           U=args.U)
        mid = sphere_force(sol, trace="midplane")
        surf = sphere_force(sol, trace="surface")
        ext = psi_extremes(xi, chi)
        fam = zeta_family(xi, chi)
        return {"xi": xi, "chi": chi, "nu": nu_from_chi(chi),
                "zeta_bar": fam.zeta_bar, "zeta_tilde": fam.zeta_tilde,
                "psi": mid.psi, "psi_surface": surf.psi,
                "psi_i": ext.psi_i, "psi_c": ext.psi_c, "force": mid.F}

    rows = [one(xi) for xi in _xi_list(args)]
    keys = ["xi", "chi", "nu", "zeta_bar", "zeta_tilde", "psi",
            "psi_surface", "psi_i", "psi_c", "force"]
    if len(rows) == 1:
        _write_out(_render([(k, rows[0][k]) for k in keys], args), args.output)
    else:
        _write_out(_render_rows(keys, rows, args), args.output)
    return 0


def _cmd_regime_classify(args) -> int:
    if args.xi is None:
        raise ValueError("--xi is required")
    rep = classify(args.geometry, args.xi, chi=args.chi, nu=args.nu,
                   tolerance=args.tolerance)
    pairs = [("geometry", rep.geometry), ("xi", rep.xi), ("chi", rep.chi),
             ("nu", nu_from_chi(rep.chi)), ("regime", rep.label),
             ("zeta", rep.zeta), ("zeta_bar", rep.zeta_bar),
             ("zeta_tilde", rep.zeta_tilde), ("zeta_c", rep.zeta_c),
             ("zeta_i", rep.zeta_i), ("tolerance", rep.tolerance)]
    _write_out(_render(pairs, args), args.output)
    return 0


def _cmd_regime_transitions(args) -> int:
    if args.geometry == "plate":
        tr = plate_transitions(args.tolerance)
        pairs = [("geometry", "plate"), ("tolerance", args.tolerance),
                 ("zeta_c", tr.zeta_compressible),
                 ("zeta_i", tr.zeta_incompressible)]
        if args.xi is not None:
            lo, hi = nu_intermediate_window(args.xi, args.tolerance)
            pairs += [("xi", args.xi), ("nu_lo", lo), ("nu_hi", hi)]
    else:
        pairs = [("geometry", "sphere"),
                 ("zeta_bar_incompressible", SPHERE_ZETA_BAR_INCOMPRESSIBLE),
                 ("zeta_tilde_compressible", SPHERE_ZETA_TILDE_COMPRESSIBLE)]
    _write_out(_render(pairs, args), args.output)
    return 0


# ---------------------------------------------------------------------------
# field emission
# ---------------------------------------------------------------------------

def _field_csv(blocks) -> str:
    """blocks: iterable of (R value, Z array, FieldSample with array data)."""
    lines = [_FIELD_HEADER]
    for r_val, z_arr, fs in blocks:
        ur, uz = np.atleast_1d(fs.u_r), np.atleast_1d(fs.u_z)
        srr, stt = np.atleast_1d(fs.s_rr), np.atleast_1d(fs.s_tt)
        szz, srz = np.atleast_1d(fs.s_zz), np.atleast_1d(fs.s_rz)
        for j, z_val in enumerate(np.atleast_1d(z_arr)):
            lines.append(",".join(_g17(v) for v in
                                  (r_val, z_val, ur[j], uz[j], srr[j],
                                   stt[j], szz[j], srz[j])))
    return "\n".join(lines) + "\n"


def _cmd_plate_field(args) -> int:
    chi = _material(args)
    if args.xi is None:
        raise ValueError("--xi is required")
    if args.nr < 2 or args.nz < 2:
        raise ValueError("--nr and --nz must be >= 2")
    sol = solve_plate(args.xi, chi=chi, mu=args.mu, a=args.a, U=args.U)
    r_grid = np.linspace(0.0, 1.0, args.nr)
    z_grid = np.linspace(-1.0, 1.0, args.nz)
    blocks = []
    for r_val in r_grid:
        fs = field(sol, np.full_like(z_grid, r_val), z_grid)
        blocks.append((r_val, z_grid, fs))
    _write_out(_field_csv(blocks), args.output)
    return 0


def _cmd_sphere_field(args) -> int:
    chi = _material(args)
    if args.xi is None:
        raise ValueError("--xi is required")
    if args.nr < 2 or args.nz < 2:
        raise ValueError("--nr and --nz must be >= 2")
    sol = solve_sphere(args.xi, chi, tol=args.tol, mu=args.mu, a=args.a,
                       U=args.U)
    r_grid = np.linspace(0.0, sol.geo.r_edge, args.nr)
    blocks = []
    for r_val in r_grid:
        g = 1.0 + 0.5 * r_val * r_val
        z_grid = np.linspace(-g, g, args.nz)
        fs = sphere_field(sol, np.full_like(z_grid, r_val), z_grid)
        blocks.append((r_val, z_grid, fs))
    _write_out(_field_csv(blocks), args.output)
    return 0


# ---------------------------------------------------------------------------
# verification commands
# ---------------------------------------------------------------------------

def _table4_artifact_rows(data, computed):
    """Deterministic artifact rows: xi outer descending, chi ascending,
    with the chi-independent incompressible-limit rows at chi = 0."""
    citation = data["citation"]
    xi_desc = sorted(data["xi"], reverse=True)
    chis = data["chi"]
    rows = []
    for xi in xi_desc:
        i = data["xi"].index(xi)
        rows.append((xi, 0.0, "psi_i", computed["psi_i"][i], "computed", ""))
        rows.append((xi, 0.0, "psi_i", data["psi_i"][i],
                     "paper-printed golden", citation))
        for j, chi in enumerate(chis):
            rows.append((xi, chi, "psi", computed["psi"][j][i], "computed", ""))
            rows.append((xi, chi, "psi", data["psi"][j][i],
                         "paper-printed golden", citation))
            rows.append((xi, chi, "fe", data["fe"][j][i],
                         "paper-printed golden", citation))
            rows.append((xi, chi, "psi_c", computed["psi_c"][j][i],
                         "computed", ""))
            rows.append((xi, chi, "psi_c", data["psi_c"][j][i],
                         "paper-printed golden", citation))
    return rows


def _table4_csv(rows) -> str:
    lines = ["xi,chi,quantity,value,source,citation"]
    for xi, chi, quantity, value, source, citation in rows:
        lines.append(",".join((_g17(xi), _g17(chi), quantity, _g17(value),
                               source, citation)))
    return "\n".join(lines) + "\n"


def _cmd_verify_table4(args) -> int:
    data = _reference_tables()["table4"]
    xis, chis = data["xi"], data["chi"]

    psi_comp = [[sphere_force(solve_sphere(xi, chi), trace="midplane").psi
                 for xi in xis] for chi in chis]
    computed = {
        "psi": psi_comp,
        "psi_i": [psi_extremes(xi, 1.0).psi_i for xi in xis],
        "psi_c": [[psi_extremes(xi, chi).psi_c for xi in xis]
                  for chi in chis],
    }

    failures = []
    checks = []  # (label, xi, chi, computed, golden, rel, tol, ok)

    def check(label, xi, chi, comp, golden, tol):
        rel = abs(comp / golden - 1.0)
        ok = rel <= tol
        checks.append((label, xi, chi, comp, golden, rel, tol, ok))
        if not ok:
            failures.append({"quantity": label, "xi": xi, "chi": chi,
                             "computed": comp, "golden": golden,
                             "rel": rel, "tol": tol})

    for i, xi in enumerate(xis):
        check("psi_i", xi, 0.0, computed["psi_i"][i], data["psi_i"][i], 5e-2)
    for j, chi in enumerate(chis):
        for i, xi in enumerate(xis):
            check("psi-vs-fe", xi, chi, psi_comp[j][i], data["fe"][j][i],
                  5e-2)
            check("psi-vs-printed", xi, chi, psi_comp[j][i],
                  data["psi"][j][i], 2e-2)
            check("psi_c", xi, chi, computed["psi_c"][j][i],
                  data["psi_c"][j][i], 5e-2)

    rows = _table4_artifact_rows(data, computed)
    artifact = _table4_csv(rows)
    ok_all = not failures

    if args.format == "json":
        report = json.dumps({
            "pass": ok_all,
            "failures": failures,
            "rows": [{"xi": r[0], "chi": r[1], "quantity": r[2],
                      "value": r[3], "source": r[4], "citation": r[5]}
                     for r in rows],
        }, sort_keys=True) + "\n"
        _write_out(report, args.output)
    elif args.format == "csv":
        _write_out(artifact, args.output)
    else:
        lines = []
        if args.timestamp:
            lines.append("generated: " + datetime.datetime.now(
                datetime.timezone.utc).isoformat())
        for label, xi, chi, comp, golden, rel, tol, ok in checks:
            tag = "PASS" if ok else "FAIL"
            lines.append(f"{tag} {label:<14} xi={xi:<6g} chi={chi:<6g} "
                         f"computed {comp:.6g} golden {golden:.6g} "
                         f"rel {rel:.2e} tol {tol:.0e}")
        n_fail = len(failures)
        lines.append(f"cells checked: {len(checks)}; mismatches: {n_fail}")
        lines.append("result: " + ("PASS" if ok_all else "FAIL"))
        _write_out("\n".join(lines) + "\n", None)
        if args.output:
            _write_out(artifact, args.output)
    return 0 if ok_all else 2


def _cmd_verify_suite(args) -> int:
    xis = [float(v) for v in np.geomspace(1e-4, 1e-1, 5)]
    chis = [float(v) for v in np.geomspace(1e-3, 1.4, 5)]
    lines = []
    n_fail = 0

    def report(name, ok, detail):
        nonlocal n_fail
        if not ok:
            n_fail += 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    # (a) edge resultants, both geometries: both rim traction components,
    # normalized by the through-thickness max of the edge tractions
    # (exact quadrature: the edge stresses are polynomial in Z)
    worst_plate = worst_sphere = 0.0
    for xi in xis:
        for chi in chis:
            sol = solve_plate(xi, chi=chi)
            zg = np.linspace(-1.0, 1.0, 41)
            fe = field(sol, np.ones_like(zg), zg)
            scale = max(float(np.max(np.abs(fe.s_rr))),
                        float(np.max(np.abs(fe.s_rz)))) or 1.0
            q_rr = integrate(lambda z: float(field(sol, 1.0, z).s_rr),
                             -1.0, 1.0, tol=1e-10 * scale)
            q_rz = integrate(lambda z: float(field(sol, 1.0, z).s_rz),
                             -1.0, 1.0, tol=1e-10 * scale)
            worst_plate = max(worst_plate,
                              max(abs(q_rr.value), abs(q_rz.value))
                              / (2.0 * scale))

            ssol = solve_sphere(xi, chi)
            r_e = ssol.geo.r_edge
            ge = 1.0 + 0.5 * r_e * r_e
            zs = np.linspace(-ge, ge, 41)
            fs = sphere_field(ssol, np.full_like(zs, r_e), zs)
            scale_s = max(float(np.max(np.abs(fs.s_rr))),
                          float(np.max(np.abs(fs.s_rz)))) or 1.0
            q_s = integrate(
                lambda z: float(sphere_field(ssol, r_e, z).s_rr),
                -ge, ge, tol=1e-10 * scale_s * ge)
            worst_sphere = max(worst_sphere,
                               abs(q_s.value) / (2.0 * ge * scale_s))
    report("edge-resultant plate", worst_plate <= 1e-6,
           f"worst {worst_plate:.3e} (tol 1e-06)")
    report("edge-resultant sphere", worst_sphere <= 1e-6,
           f"worst {worst_sphere:.3e} (tol 1e-06)")

    # (b) Dirichlet data
    worst_d = 0.0
    for xi in xis:
        for chi in chis:
            sol = solve_plate(xi, chi=chi)
            rg = np.linspace(0.0, 1.0, 41)
            for sgn in (1.0, -1.0):
                uz = field(sol, rg, np.full_like(rg, sgn)).u_z
                worst_d = max(worst_d, float(np.max(np.abs(uz - sgn))))
            ssol = solve_sphere(xi, chi)
            rs = np.linspace(0.0, ssol.geo.r_edge, 41)
            gs = 1.0 + 0.5 * rs * rs
            for sgn in (1.0, -1.0):
                uzs = sphere_field(ssol, rs, sgn * gs).u_z
                worst_d = max(worst_d, float(np.max(np.abs(uzs - sgn))))
    report("dirichlet", worst_d <= 1e-8, f"worst {worst_d:.3e} (tol 1e-08)")

    # (c) dual-discretization oracle on every sphere solve
    worst_dual = 0.0
    for xi in xis:
        for chi in chis:
            ssol = solve_sphere(xi, chi)
            worst_dual = max(worst_dual, ssol.A.meta["dual_sup_rel"])
    report("sphere dual oracle", worst_dual <= 1e-8,
           f"worst {worst_dual:.3e} (tol 1e-08)")

    # (d) plate force from fields equals the closed form
    worst_f = 0.0
    for xi in xis:
        for chi in chis:
            sol = solve_plate(xi, chi=chi)

            def integrand(r):
                return float(field(sol, r, 1.0).s_zz) * r

            # split at the edge boundary layer (width ~ xi/chi) so the
            # adaptive quadrature cannot step over it unsampled
            kappa = chi / xi
            scale = abs(integrand(0.5)) + abs(integrand(1.0))
            tol_q = 1e-12 * max(scale, 1.0)
            if kappa > 50.0:
                r_split = 1.0 - min(0.3, 50.0 / kappa)
                val = (integrate(integrand, 0.0, r_split, tol=tol_q).value
                       + integrate(integrand, r_split, 1.0, tol=tol_q).value)
            else:
                val = integrate(integrand, 0.0, 1.0, tol=tol_q).value
            # stresses from ``field`` are dimensional, so the axial load is
            # just 2*pi*a^2 * int sigma_zz(R, 1) R dR
            f_fields = 2.0 * math.pi * sol.cfg.a ** 2 * val
            f_formula = force(sol)
            worst_f = max(worst_f, abs(f_fields / f_formula - 1.0))
    report("plate force-from-fields", worst_f <= 1e-8,
           f"worst {worst_f:.3e} (tol 1e-08)")

    lines.append(f"properties checked: 5x5 grid; failures: {n_fail}")
    lines.append("result: " + ("PASS" if n_fail == 0 else "FAIL"))
    _write_out("\n".join(lines) + "\n", args.output)
    return 0 if n_fail == 0 else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, material=True, geometry_scale=False, sweep=False,
                needs_xi=True):
    if needs_xi:
        p.add_argument("--xi", type=float, default=None,
                       help="thickness ratio h/a")
    if material:
        p.add_argument("--chi", type=float, default=None,
                       help="compressibility parameter in [0, 3/2]")
        p.add_argument("--nu", type=float, default=None,
                       help="Poisson's ratio (alternative to --chi)")
    if geometry_scale:
        p.add_argument("--mu", type=float, default=None,
                       help="shear modulus (default 1)")
        p.add_argument("--a", type=float, default=None,
                       help="radius scale (default 1)")
        p.add_argument("--U", type=float, default=None,
                       help="prescribed half-approach (default 1)")
    if sweep:
        p.add_argument("--sweep-xi", nargs=3, type=float, default=None,
                       metavar=("LO", "HI", "N"),
                       help="log-spaced xi sweep (emits one row per xi)")
    p.add_argument("--format", choices=("human", "csv", "json"), default=None,
                   help="output format (default human)")
    p.add_argument("--json", action="store_true",
                   help="shorthand for --format json")
    p.add_argument("--csv", action="store_true",
                   help="shorthand for --format csv")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write output to PATH instead of stdout")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key = value defaults, overridden by explicit flags")
    p.add_argument("--timestamp", action="store_true",
                   help="add a generation timestamp to human output")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="layerlab",
        description="Thin bonded elastic layers: forces, moduli, fields, "
                    "and compressibility regimes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plate-force", help="force between bonded plates")
    _add_common(p, geometry_scale=True, sweep=True)
    p.set_defaults(func=_cmd_plate_force)

    p = sub.add_parser("plate-modulus",
                       help="apparent compression modulus and limits")
    _add_common(p, sweep=True)
    p.set_defaults(func=_cmd_plate_modulus)

    p = sub.add_parser("plate-field", help="plate field samples as CSV")
    _add_common(p, geometry_scale=True)
    p.add_argument("--nr", type=int, default=None, help="R samples (>= 2)")
    p.add_argument("--nz", type=int, default=None, help="Z samples (>= 2)")
    p.set_defaults(func=_cmd_plate_field)

    p = sub.add_parser("sphere-force",
                       help="squeezing force between bonded spheres")
    _add_common(p, geometry_scale=True, sweep=True)
    p.add_argument("--tol", type=float, default=None,
                   help="radial-solver tolerance (default 1e-10)")
    p.set_defaults(func=_cmd_sphere_force)

    p = sub.add_parser("sphere-field", help="sphere field samples as CSV")
    _add_common(p, geometry_scale=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--nr", type=int, default=None, help="R samples (>= 2)")
    p.add_argument("--nz", type=int, default=None,
                   help="Z samples per R, scaled to the local gap (>= 2)")
    p.set_defaults(func=_cmd_sphere_field)

    p = sub.add_parser("regime-classify",
                       help="compressibility regime of a parameter point")
    _add_common(p)
    p.add_argument("--geometry", choices=("plate", "sphere"), default=None)
    p.add_argument("--tolerance", type=float, default=None,
                   help="limit-formula accuracy defining the window "
                        "(plates; default 0.1)")
    p.set_defaults(func=_cmd_regime_classify)

    p = sub.add_parser("regime-transitions",
                       help="transition constants; with --xi also the "
                            "Poisson-ratio window (plates)")
    _add_common(p, material=False, needs_xi=True)
    p.add_argument("--geometry", choices=("plate", "sphere"), default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(func=_cmd_regime_transitions)

    p = sub.add_parser("compare-plate",
                       help="exact modulus vs classical thin-layer formula")
    _add_common(p, sweep=True)
    p.set_defaults(func=_cmd_compare_plate)

    p = sub.add_parser("verify-table4",
                       help="recompute the published sphere-force table "
                            "against embedded golden data")
    _add_common(p, material=False, needs_xi=False)
    p.set_defaults(func=_cmd_verify_table4)

    p = sub.add_parser("verify-suite",
                       help="run the built-in property battery (edge "
                            "resultants, Dirichlet data, dual oracle, "
                            "force-from-fields)")
    _add_common(p, material=False, needs_xi=False)
    p.set_defaults(func=_cmd_verify_suite)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        _finalize(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
