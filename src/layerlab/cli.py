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
re-reading a file reproduces the in-memory doubles bit for bit.  The two
verify commands only render what layerlab.verify returns.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

import numpy as np

from . import verify
from .kernels import NumericsError
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

def _cell(v) -> str:
    """One CSV cell: floats to 17 significant digits, None empty."""
    if isinstance(v, float):
        return "%.17g" % v
    return "" if v is None else str(v)


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


def _stamp(args) -> list:
    """The --timestamp line of a human report, if asked for."""
    if not args.timestamp:
        return []
    return ["generated: "
            + datetime.datetime.now(datetime.timezone.utc).isoformat()]


def _render(row: dict, args) -> str:
    """Render one row (a dict in column order) in the chosen format."""
    fmt = args.format
    if fmt == "json":
        obj = {k: _jsonable(v) for k, v in row.items()}
        return json.dumps(obj, sort_keys=True) + "\n"
    if fmt == "csv":
        return ",".join(row) + "\n" + ",".join(map(_cell, row.values())) + "\n"
    width = max(map(len, row))
    lines = _stamp(args) + [f"{k:>{width}}: {_human_value(v)}"
                            for k, v in row.items()]
    return "\n".join(lines) + "\n"


def _render_rows(rows, args) -> str:
    """Render a sweep (dicts sharing the first one's keys) in the chosen
    format: JSON, or else CSV with one line per row."""
    keys = list(rows[0])
    if args.format == "json":
        out = [{k: _jsonable(r[k]) for k in keys} for r in rows]
        return json.dumps(out, sort_keys=True) + "\n"
    head = ",".join(keys)
    body = "\n".join(",".join(_cell(r[k]) for k in keys) for r in rows)
    return head + "\n" + body + "\n"


def _emit(rows, args) -> None:
    """Write one row as a report, several as a sweep."""
    text = (_render(rows[0], args) if len(rows) == 1
            else _render_rows(rows, args))
    _write_out(text, args.output)


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
        sol = solve_plate(xi, chi=chi, mu=args.mu, a=args.a, U=args.U)
        fam = zeta_family(xi, chi)
        rows.append({"xi": xi, "chi": chi, "nu": nu_from_chi(chi),
                     "zeta": fam.zeta, "force_factor": g,
                     "force": force(sol)})
    _emit(rows, args)
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
    _emit(rows, args)
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
    _emit(rows, args)
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

    _emit([one(xi) for xi in _xi_list(args)], args)
    return 0


def _cmd_regime_classify(args) -> int:
    if args.xi is None:
        raise ValueError("--xi is required")
    rep = classify(args.geometry, args.xi, chi=args.chi, nu=args.nu,
                   tolerance=args.tolerance)
    _emit([{"geometry": rep.geometry, "xi": rep.xi, "chi": rep.chi,
            "nu": nu_from_chi(rep.chi), "regime": rep.label,
            "zeta": rep.zeta, "zeta_bar": rep.zeta_bar,
            "zeta_tilde": rep.zeta_tilde, "zeta_c": rep.zeta_c,
            "zeta_i": rep.zeta_i, "tolerance": rep.tolerance}], args)
    return 0


def _cmd_regime_transitions(args) -> int:
    if args.geometry == "plate":
        tr = plate_transitions(args.tolerance)
        row = {"geometry": "plate", "tolerance": args.tolerance,
               "zeta_c": tr.zeta_compressible,
               "zeta_i": tr.zeta_incompressible}
        if args.xi is not None:
            lo, hi = nu_intermediate_window(args.xi, args.tolerance)
            row.update(xi=args.xi, nu_lo=lo, nu_hi=hi)
    else:
        row = {"geometry": "sphere",
               "zeta_bar_incompressible": SPHERE_ZETA_BAR_INCOMPRESSIBLE,
               "zeta_tilde_compressible": SPHERE_ZETA_TILDE_COMPRESSIBLE}
    _emit([row], args)
    return 0


# ---------------------------------------------------------------------------
# field emission
# ---------------------------------------------------------------------------

def _field_csv(fs) -> str:
    """fs: FieldSample on an (nr, nz) grid, emitted row-major (Z fastest),
    one R line at a time."""
    names = _FIELD_HEADER.split(",")
    table = np.stack([getattr(fs, name) for name in names], axis=-1)
    fmt = ",".join(["%.17g"] * len(names))
    lines = [_FIELD_HEADER]
    for r_line in table:
        lines.extend(fmt % tuple(row) for row in r_line.tolist())
    return "\n".join(lines) + "\n"


def _check_grid(args) -> None:
    if args.xi is None:
        raise ValueError("--xi is required")
    if args.nr < 2 or args.nz < 2:
        raise ValueError("--nr and --nz must be >= 2")


def _cmd_plate_field(args) -> int:
    chi = _material(args)
    _check_grid(args)
    sol = solve_plate(args.xi, chi=chi, mu=args.mu, a=args.a, U=args.U)
    r_col = np.linspace(0.0, 1.0, args.nr)[:, None]
    z_row = np.linspace(-1.0, 1.0, args.nz)[None, :]
    _write_out(_field_csv(field(sol, r_col, z_row)), args.output)
    return 0


def _cmd_sphere_field(args) -> int:
    chi = _material(args)
    _check_grid(args)
    sol = solve_sphere(args.xi, chi, tol=args.tol, mu=args.mu, a=args.a,
                       U=args.U)
    r_vals = np.linspace(0.0, sol.geo.r_edge, args.nr)
    # Z spans the local gap g(R) = 1 + R^2/2 on every R line
    g = 1.0 + 0.5 * r_vals * r_vals
    z_grid = np.linspace(-g, g, args.nz, axis=1)
    _write_out(_field_csv(sphere_field(sol, r_vals[:, None], z_grid)),
               args.output)
    return 0


# ---------------------------------------------------------------------------
# verification commands
# ---------------------------------------------------------------------------

def _cmd_verify_table4(args) -> int:
    checks, rows = verify.table4()
    failures = [c for c in checks if not c["rel"] <= c["tol"]]
    if args.format == "json":
        _write_out(json.dumps({"pass": not failures, "failures": failures,
                               "rows": rows}, sort_keys=True) + "\n",
                   args.output)
    elif args.format == "csv":
        _write_out(_render_rows(rows, args), args.output)
    else:
        lines = _stamp(args)
        for c in checks:
            tag = "PASS" if c["rel"] <= c["tol"] else "FAIL"
            lines.append(f"{tag} {c['quantity']:<14} xi={c['xi']:<6g} "
                         f"chi={c['chi']:<6g} computed {c['computed']:.6g} "
                         f"golden {c['golden']:.6g} rel {c['rel']:.2e} "
                         f"tol {c['tol']:.0e}")
        lines.append(f"cells checked: {len(checks)}; "
                     f"mismatches: {len(failures)}")
        lines.append("result: " + ("FAIL" if failures else "PASS"))
        _write_out("\n".join(lines) + "\n", None)
        if args.output:
            _write_out(_render_rows(rows, args), args.output)
    return 2 if failures else 0


def _cmd_verify_suite(args) -> int:
    lines = []
    n_fail = 0
    for name, worst, tol in verify.suite():
        ok = worst <= tol
        n_fail += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: worst {worst:.3e} "
                     f"(tol {tol:.0e})")
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
