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
notation, negative values included (--U -1e-3 reads as --U=-1e-3); the
material is specified as --chi or --nu (both together are
accepted if they agree to 1e-10); --format human|csv|json selects the
output shape (--json/--csv are shorthands) and --output PATH redirects it
(default stdout).  CSV and JSON output is deterministic byte-for-byte
for identical inputs: no timestamps ever appear in them, and the human
report gains one only with --timestamp.  A --config FILE of `key = value`
lines (# comments allowed) supplies defaults that explicit flags
override.  Exit status: 0 success, 2 usage or validation error or a
verification mismatch, 3 numerical failure, an i/o failure (an --output
or --config path that cannot be opened, say) or a memory failure (a
grid too large to allocate), each reported on stderr as one line,
"error: ...", "numerical failure: ...", "i/o failure: ..." or
"memory failure: ...".

Each option is declared once, in one of the option groups built by
_build_parser; _COMMANDS names the groups every command takes.  A config
file's values are converted and checked by the same declarations.

Field CSV artifacts use the fixed header R,Z,u_r,u_z,s_rr,s_tt,s_zz,s_rz
with rows Z-fastest and every value exactly as "%.17g" prints it, so
re-reading a file reproduces the in-memory doubles bit for bit.  The
table is rendered by a vectorized numpy kernel (layerlab.csv17) that is
byte-identical to "%.17g" and hands the values it cannot prove it rounds
correctly (those within 1e-6 of a rounding tie) and the non-finite ones
to "%.17g" itself.  The two verify commands only render what
layerlab.verify returns.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys

import numpy as np

from . import verify
from .csv17 import csv17
from .kernels import NumericsError
from .materials import nu_from_chi, resolve_chi, zeta_family
from .plate import apparent_modulus, field, force, force_factor, solve_plate
from .regimes import (SPHERE_ZETA_BAR_INCOMPRESSIBLE,
                      SPHERE_ZETA_TILDE_COMPRESSIBLE, classify,
                      nu_intermediate_window, plate_transitions)
from .sphere import (SphereGeometry, psi_extremes, solve_sphere,
                     sphere_field, sphere_force)

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


def _emit(rows, args) -> None:
    """Write rows (dicts sharing the first one's keys, in column order) in
    the chosen format: JSON, one object or a list for a sweep; CSV, one
    line per row; or, for a single row, a human `key: value` report.  A
    human sweep is written as CSV."""
    keys = list(rows[0])
    if args.format == "json":
        objs = [{k: _jsonable(r[k]) for k in keys} for r in rows]
        text = json.dumps(objs if len(rows) > 1 else objs[0],
                          sort_keys=True) + "\n"
    elif args.format == "csv" or len(rows) > 1:
        text = "\n".join([",".join(keys)] + [",".join(_cell(r[k]) for k in keys)
                                             for r in rows]) + "\n"
    else:
        width = max(map(len, keys))
        text = "\n".join(_stamp(args) + [f"{k:>{width}}: {_human_value(v)}"
                                         for k, v in rows[0].items()]) + "\n"
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

def _read_config(path: str) -> dict:
    """The `key = value` lines of the file at path, each value converted
    and checked by the option's own action (see _build_parser): its type,
    then its choices."""
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
            action = _build_parser().config_actions.get(key)
            if action is None:
                raise ValueError(f"unknown config key {key!r}")
            val = (action.type or str)(val.strip())
            if action.choices is not None and val not in action.choices:
                raise ValueError(f"unknown {key} {val!r}")
            cfg[key] = val
    return cfg


def _finalize(args) -> None:
    """Merge config-file values under explicit flags, then hard defaults.

    Every option the user can leave out parses to None, so this merge is
    the only place a default is applied; the --json/--csv shorthands are
    applied after it, so either one overrides --format."""
    cfg = _read_config(args.config) if args.config else {}
    for dest, val in cfg.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, val)
    for dest, val in _DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, val)
    if args.json:
        args.format = "json"
    if args.csv:
        args.format = "csv"
    sweep = getattr(args, "sweep_xi", None)
    if sweep is not None:
        lo, hi, n = sweep
        if not (0.0 < lo < hi):
            raise ValueError("sweep range must satisfy 0 < lo < hi")
        if not (n.is_integer() and n >= 2):
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


# ---------------------------------------------------------------------------
# sweep commands: one row per xi
# ---------------------------------------------------------------------------

def _sweep(row):
    """The command emitting xi, chi, nu and then row(xi, chi, args) for
    each xi of --xi or --sweep-xi, with the material resolved first."""
    def command(args) -> int:
        chi = resolve_chi(chi=args.chi, nu=args.nu)
        nu = nu_from_chi(chi)
        _emit([{"xi": xi, "chi": chi, "nu": nu, **row(xi, chi, args)}
               for xi in _xi_list(args)], args)
        return 0
    return command


def _plate_force_row(xi, chi, args) -> dict:
    g = force_factor(xi, chi)
    sol = solve_plate(xi, chi=chi, mu=args.mu, a=args.a, U=args.U)
    return {"zeta": zeta_family(xi, chi).zeta, "force_factor": g,
            "force": force(sol)}


def _plate_modulus_row(xi, chi, args) -> dict:
    mod = apparent_modulus(xi, chi)
    return {"zeta": zeta_family(xi, chi).zeta, "e_hat": mod.e_hat,
            "e_hat_i": mod.e_hat_i, "e_hat_c": mod.e_hat_c,
            "e_hat_l": mod.e_hat_l}


def _compare_plate_row(xi, chi, args) -> dict:
    mod = apparent_modulus(xi, chi)
    diff_rel = (mod.e_hat_l - mod.e_hat) / mod.e_hat
    c2 = chi * chi
    estimate = (2.0 * chi * (4.0 * c2 * c2 - 24.0 * c2 + 27.0) * xi
                / (9.0 * (3.0 - c2)))
    ratio = abs(diff_rel) / abs(estimate) if estimate != 0.0 else math.inf
    return {"e_hat": mod.e_hat, "e_hat_l": mod.e_hat_l, "diff_rel": diff_rel,
            "small_chi_estimate": estimate, "magnitude_ratio": ratio}


def _sphere_force_row(xi, chi, args) -> dict:
    sol = solve_sphere(xi, chi, tol=args.tol, mu=args.mu, a=args.a, U=args.U)
    mid = sphere_force(sol, trace="midplane")
    surf = sphere_force(sol, trace="surface")
    ext = psi_extremes(xi, chi)
    fam = zeta_family(xi, chi)
    return {"zeta_bar": fam.zeta_bar, "zeta_tilde": fam.zeta_tilde,
            "psi": mid.psi, "psi_surface": surf.psi,
            "psi_i": ext.psi_i, "psi_c": ext.psi_c, "force": mid.F}


# ---------------------------------------------------------------------------
# regime commands
# ---------------------------------------------------------------------------

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
        if args.xi is not None:
            SphereGeometry.of(args.xi)  # the sphere layer's domain
        row = {"geometry": "sphere",
               "zeta_bar_incompressible": SPHERE_ZETA_BAR_INCOMPRESSIBLE,
               "zeta_tilde_compressible": SPHERE_ZETA_TILDE_COMPRESSIBLE}
    _emit([row], args)
    return 0


# ---------------------------------------------------------------------------
# field emission
# ---------------------------------------------------------------------------

def _field_csv(fs) -> str:
    """fs: FieldSample on an (nr, nz) grid, emitted row-major (Z fastest)
    under the header, every value as "%.17g" prints it."""
    names = _FIELD_HEADER.split(",")
    table = np.stack([getattr(fs, name) for name in names], axis=-1)
    return _FIELD_HEADER + "\n" + csv17(table.reshape(-1, len(names)))


def _grid(sample):
    """The command writing the field CSV of sample(args, chi), the fields
    on the --nr by --nz grid, with the material resolved and --xi, then
    --nr and --nz, checked first."""
    def command(args) -> int:
        chi = resolve_chi(chi=args.chi, nu=args.nu)
        if args.xi is None:
            raise ValueError("--xi is required")
        if args.nr < 2 or args.nz < 2:
            raise ValueError("--nr and --nz must be >= 2")
        _write_out(_field_csv(sample(args, chi)), args.output)
        return 0
    return command


def _plate_grid(args, chi):
    sol = solve_plate(args.xi, chi=chi, mu=args.mu, a=args.a, U=args.U)
    return field(sol, np.linspace(0.0, 1.0, args.nr)[:, None],
                 np.linspace(-1.0, 1.0, args.nz)[None, :])


def _sphere_grid(args, chi):
    sol = solve_sphere(args.xi, chi, tol=args.tol, mu=args.mu, a=args.a,
                       U=args.U)
    r_vals = np.linspace(0.0, sol.geo.r_edge, args.nr)
    # Z spans the local gap g(R) on every R line
    g = sol.geo.gap(r_vals)
    return sphere_field(sol, r_vals[:, None],
                        np.linspace(-g, g, args.nz, axis=1))


# ---------------------------------------------------------------------------
# verification commands
# ---------------------------------------------------------------------------

def _verdict(args, path, checks, tally) -> None:
    """The human verdict, to path (stdout if None): the --timestamp stamp,
    a PASS/FAIL line per check (passed, text), the tally and the
    result: line, FAIL if any check failed."""
    lines = [f"{'PASS' if ok else 'FAIL'} {text}" for ok, text in checks]
    result = "PASS" if all(ok for ok, _ in checks) else "FAIL"
    _write_out("\n".join(_stamp(args) + lines + [tally, "result: " + result])
               + "\n", path)


def _cmd_verify_table4(args) -> int:
    """Human: the checks as a report on stdout (the rows as CSV only to
    --output).  JSON: verdict, failures and rows.  CSV: the rows."""
    checks, rows = verify.table4()
    failures = [c for c in checks if not c["rel"] <= c["tol"]]
    if args.format == "human":
        _verdict(args, None, [
            (c["rel"] <= c["tol"],
             f"{c['quantity']:<14} xi={c['xi']:<6g} chi={c['chi']:<6g} "
             f"computed {c['computed']:.6g} golden {c['golden']:.6g} "
             f"rel {c['rel']:.2e} tol {c['tol']:.0e}") for c in checks],
            f"cells checked: {len(checks)}; mismatches: {len(failures)}")
    if args.format == "json":
        _emit([{"pass": not failures, "failures": failures, "rows": rows}],
              args)
    elif args.format == "csv" or args.output:
        _emit(rows, args)
    return 2 if failures else 0


def _cmd_verify_suite(args) -> int:
    """Human: one PASS/FAIL line per property, the tally and the verdict.
    JSON: the verdict and the checks.  CSV: the checks."""
    checks = [{"name": name, "worst": float(worst), "tol": tol,
               "pass": bool(worst <= tol)}
              for name, worst, tol in verify.suite()]
    n_fail = sum(not c["pass"] for c in checks)
    if args.format == "json":
        _emit([{"pass": n_fail == 0, "checks": checks}], args)
    elif args.format == "csv":
        _emit(checks, args)
    else:
        _verdict(args, args.output, [
            (c["pass"], f"{c['name']}: worst {c['worst']:.3e} "
                        f"(tol {c['tol']:.0e})") for c in checks],
            f"properties checked: 5x5 grid; failures: {n_fail}")
    return 0 if n_fail == 0 else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# (command, handler, option groups, help); the groups are declared in
# _build_parser, and their options are listed in this order
_COMMANDS = (
    ("plate-force", _sweep(_plate_force_row),
     "xi material scale sweep output", "force between bonded plates"),
    ("plate-modulus", _sweep(_plate_modulus_row),
     "xi material sweep output", "apparent compression modulus and limits"),
    ("plate-field", _grid(_plate_grid),
     "xi material scale output grid", "plate field samples as CSV"),
    ("sphere-force", _sweep(_sphere_force_row),
     "xi material scale sweep output tol",
     "squeezing force between bonded spheres"),
    ("sphere-field", _grid(_sphere_grid),
     "xi material scale output tol gap_grid", "sphere field samples as CSV"),
    ("regime-classify", _cmd_regime_classify,
     "xi material output regime",
     "compressibility regime of a parameter point"),
    ("regime-transitions", _cmd_regime_transitions,
     "xi output regime",
     "transition constants; with --xi also the Poisson-ratio window "
     "(plates)"),
    ("compare-plate", _sweep(_compare_plate_row),
     "xi material sweep output",
     "exact modulus vs classical thin-layer formula"),
    ("verify-table4", _cmd_verify_table4, "output",
     "recompute the published sphere-force table against embedded golden "
     "data"),
    ("verify-suite", _cmd_verify_suite, "output",
     "run the built-in property battery (edge resultants, Dirichlet data, "
     "dual oracle, force-from-fields)"),
)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, reading an argument that parses as a float
    (-1e-3, -inf, -nan) as a value.  argparse itself takes only the -1
    and -0.5 spellings of a negative number for values, and any other
    word led by '-' for an option."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every main call.

    Each option group is a parent parser whose options default to None
    (flags to False), and _finalize alone applies defaults, on the
    namespace of its own parse; so parses stay independent, and nothing
    one call sets, a config value or a failed parse included, reaches the
    next.  Its config_actions maps what a config file may set, every
    option that takes one value but --config, to the option's action,
    whose type and choices convert and check the file's values."""
    groups = {}

    def group(name):
        groups[name] = argparse.ArgumentParser(add_help=False)
        return groups[name].add_argument

    add = group("xi")
    add("--xi", type=float, help="thickness ratio h/a")
    add = group("material")
    add("--chi", type=float, help="compressibility parameter in [0, 3/2]")
    add("--nu", type=float, help="Poisson's ratio (alternative to --chi)")
    add = group("scale")
    add("--mu", type=float, help="shear modulus (default 1)")
    add("--a", type=float, help="radius scale (default 1)")
    add("--U", type=float, help="prescribed half-approach (default 1)")
    add = group("sweep")
    add("--sweep-xi", nargs=3, type=float, metavar=("LO", "HI", "N"),
        help="log-spaced xi sweep (emits one row per xi)")
    add = group("output")
    add("--format", choices=("human", "csv", "json"),
        help="output format (default human)")
    add("--json", action="store_true", help="shorthand for --format json")
    add("--csv", action="store_true", help="shorthand for --format csv")
    add("--output", metavar="PATH",
        help="write output to PATH instead of stdout")
    add("--config", metavar="FILE",
        help="key = value defaults, overridden by explicit flags")
    add("--timestamp", action="store_true",
        help="add a generation timestamp to human output")
    add = group("tol")
    add("--tol", type=float, help="radial-solver tolerance (default 1e-10)")
    # plate Z samples span the fixed gap, sphere ones the local gap g(R)
    for name, nz_span in (("grid", ""),
                          ("gap_grid", " per R, scaled to the local gap")):
        add = group(name)
        add("--nr", type=int, help="R samples (>= 2)")
        add("--nz", type=int, help=f"Z samples{nz_span} (>= 2)")
    add = group("regime")
    add("--geometry", choices=("plate", "sphere"),
        help="layer geometry (default plate)")
    add("--tolerance", type=float,
        help="limit-formula accuracy defining the window (plates; "
             "default 0.1)")

    ap = _Parser(
        prog="layerlab",
        description="Thin bonded elastic layers: forces, moduli, fields, "
                    "and compressibility regimes.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, handler, names, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text,
                           parents=[groups[g] for g in names.split()])
        p.set_defaults(func=handler)
    ap.config_actions = {a.dest: a for g in groups.values() for a in g._actions
                         if a.nargs is None and a.dest != "config"}
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _finalize(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"memory failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
