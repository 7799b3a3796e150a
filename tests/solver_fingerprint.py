"""The solvers' fingerprint: their answers and counters, as exact bits,
on a fixed set of problems.

Covered:

- the sphere solver on the 16 printed table cells, the verify-suite 5x5
  grid and the chi = 0 anchors, each at tol 1e-10 and 1e-12, and the
  closed-form Theta profile at xi in {1e-4, 1e-3, 1e-2} with its meta;
- the plate closed forms: force_factor and apparent_modulus on both
  Bessel branches (x = chi/xi below and above 2) and below
  chi = 1e-10, with zeta_family and classify("plate", ...) on the same
  cells, plate_transitions at three tolerances, nu_intermediate_window
  at two (xi, tolerance), and the radial profile with all four
  derivatives on a few radii;
- the Bessel record bessel_ratio (t, e^{-x} I_0 and x - 2t) on both
  sides of its series switch at x = 2;
- the sha256 of every field array from plate.field, sphere_field,
  sphere_potential and the Theta fields u_r0, u_z0, on grids in each
  input form: column x row, column x full, full x full, 1-D, scalar
  and an unsorted column with repeated radii;
- the direct series: series_regime in each of its three regimes, the
  sha256 of both series' fields on the same grid forms at two xi, and
  the navier_residual norms of both series and of the Theta fields, in
  both modes.

Floats are stored as ``float.hex``, so a change in the last bit shows.

Beside it, the argv corpus (``tests/data/argv_corpus.json``): the exit
status and the sha256 of stdout and of stderr of ``layerlab.cli.main``,
run in process with COLUMNS pinned to 80 (argparse wraps help and usage
to the terminal width), for every argv list of ARGV_CORPUS: each command
bare and in each format, sweeps, --nu, the scales, field grids up to
101 x 41, the error paths and every --help.

``tests/test_solver_fingerprint.py`` recomputes every entry of both and
names each one that differs (_diffs).  A change that moves an answer on
purpose rewrites both files with

    PYTHONPATH=src python tests/solver_fingerprint.py

which prints, for each file, every entry that differs from the one it
replaces, old -> new, before writing it; the change states each of
those entries and why it moved.  Both files record
the versions they were written with and the git commit, and whether the
tree held changes against it (null for both outside a git checkout).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import scipy

from layerlab import cli, plate
from layerlab.kernels import bessel_ratio
from layerlab.materials import zeta_family
from layerlab.regimes import (classify, nu_intermediate_window,
                              plate_transitions)
from layerlab.series import (compressible_series_fields, navier_residual,
                             nearly_compressible_series_fields,
                             series_regime, solve_theta)
from layerlab.sphere import (SphereGeometry, solve_sphere, sphere_field,
                             sphere_force, sphere_potential)

PATH = pathlib.Path(__file__).parent / "data" / "solver_fingerprint.json"
ARGV_PATH = PATH.with_name("argv_corpus.json")

TOLS = (1e-10, 1e-12)
THETA_XIS = (1e-4, 1e-3, 1e-2)

# (xi, chi): the chi < 1e-10 family, the Bessel branch with x = kappa R
# below 1 near the axis (the series form of A''' there), the power
# series below kappa = 2, and kappa = 140
PLATE_CASES = ((0.01, 1e-12), (0.01, 0.7), (0.05, 0.05), (0.01, 1.4))
# (xi, chi): chi = 0 and chi < 1e-10, then x = chi/xi at 1 and 2 (the
# branch point of x - 2t), 10 and 1000, and chi at the top of the range
MODULUS_CASES = ((0.1, 0.0), (0.1, 5e-11), (0.05, 0.05), (0.05, 0.1),
                 (0.01, 0.1), (1e-3, 1.0), (0.5, 1.4))
TRANSITION_TOLERANCES = (0.05, 0.10, 0.2)
# (xi, tolerance): a thin layer at the default, a thick one at a wide
# tolerance, where the window's top is clamped at chi = 3/2
WINDOW_CASES = ((1e-2, 0.10), (0.5, 0.2))
# x for bessel_ratio: 0, the x^3/8 end of the series, the series up to
# just below its switch at 2, the switch, and the plain difference out
# to 700, near where e^x leaves double range
BESSEL_XS = (0.0, 1e-8, 1e-3, 0.5, 1.0, 1.999, 2.0, 20.0, 700.0)
BESSEL_FIELDS = ("x", "t", "scaled_i0", "x_minus_2t")
ZETA_FIELDS = ("xi", "chi", "zeta", "zeta_bar", "zeta_tilde")
REPORT_FIELDS = ("geometry", "xi", "chi", "zeta", "zeta_bar", "zeta_tilde",
                 "zeta_c", "zeta_i", "tolerance", "label")
SPHERE_FIELD_CASES = ((1e-2, 0.0), (1e-3, 1.0))
SERIES_XIS = (1e-3, 1e-2)
FIELDS = ("u_r", "u_z", "s_rr", "s_tt", "s_zz", "s_rz")
POTENTIALS = ("phi", "phi_r", "phi_z", "phi_rr", "phi_rz", "phi_zz")


def sphere_cells() -> list[tuple[float, float]]:
    """(xi, chi): the table cells, the verify-suite grid (one cell is a
    table cell too) and the chi = 0 anchors, without repeats."""
    cells = [(xi, chi) for xi in (1e-5, 1e-4, 1e-3, 1e-2)
             for chi in (1e-3, 1e-2, 0.1, 1.0)]
    cells += [(float(xi), float(chi)) for xi in np.geomspace(1e-4, 1e-1, 5)
              for chi in np.geomspace(1e-3, 1.4, 5)]
    cells += [(1e-3, 0.0), (1e-2, 0.0)]
    return list(dict.fromkeys(cells))


def _solver_entry(meta) -> dict:
    """The counters and rounding-level diagnostics of one checked solve:
    its reference, and the alt solve's counters where the alt
    discretization is the reference."""
    entry = {"reference": meta["reference"], "panels": meta["panels"],
             "passes": meta["passes"],
             "residual_sup": meta["residual_sup"].hex(),
             "dual_sup_rel": meta["dual_sup_rel"].hex()}
    if meta["reference"] == "alt":
        entry.update(alt_panels=meta["alt_panels"],
                     alt_passes=meta["alt_passes"])
    return entry


def _hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _fields(record, names) -> dict:
    """The named fields of a record, floats as float.hex and the rest
    (labels, None) as they are."""
    values = {name: getattr(record, name) for name in names}
    return {name: v.hex() if isinstance(v, float) else v
            for name, v in values.items()}


def sphere_entries() -> dict:
    """Psi on both traces and the solver counters of every sphere cell,
    and Theta with its closed form's meta: the rim coefficient C, the
    switch point and the term counts."""
    out = {}
    for tol in TOLS:
        for xi, chi in sphere_cells():
            sol = solve_sphere(xi, chi, tol=tol)
            entry = {f"psi_{trace}": sphere_force(sol, trace).psi.hex()
                     for trace in ("midplane", "surface")}
            entry.update(_solver_entry(sol.A.meta))
            out[f"sphere xi={xi!r} chi={chi!r} tol={tol!r}"] = entry
    for xi in THETA_XIS:
        theta = solve_theta(xi).Theta
        r = np.array([0.0, 1.0, SphereGeometry.of(xi).r_edge])
        t0, t1, _, _ = theta.eval(r)
        meta = theta.meta
        out[f"theta xi={xi!r}"] = {
            "theta": _hexes(t0), "theta_r": _hexes(t1),
            "method": meta["method"], "C": meta["C"].hex(),
            "switch": meta["switch"].hex(),
            "taylor_terms": meta["taylor_terms"],
            "connection_terms": meta["connection_terms"]}
    return out


def plate_entries() -> dict:
    """The plate's scalar closed forms and its radial profile."""
    out = {}
    for xi, chi in MODULUS_CASES:
        out[f"plate moduli xi={xi!r} chi={chi!r}"] = {
            "force_factor": plate.force_factor(xi, chi).hex(),
            "apparent_modulus": _hexes(plate.apparent_modulus(xi, chi))}
        out[f"zeta_family xi={xi!r} chi={chi!r}"] = _fields(
            zeta_family(xi, chi), ZETA_FIELDS)
        out[f"classify plate xi={xi!r} chi={chi!r}"] = _fields(
            classify("plate", xi, chi), REPORT_FIELDS)
    for tau in TRANSITION_TOLERANCES:
        out[f"plate_transitions tolerance={tau!r}"] = {
            "zetas": _hexes(plate_transitions(tau))}
    for xi, tau in WINDOW_CASES:
        out[f"nu_intermediate_window xi={xi!r} tolerance={tau!r}"] = {
            "nu": _hexes(nu_intermediate_window(xi, tau))}
    for x in BESSEL_XS:
        out[f"bessel_ratio x={x!r}"] = _fields(bessel_ratio(x),
                                               BESSEL_FIELDS)
    r = np.array([0.0, 1e-3, 0.01, 0.1, 0.5, 1.0])
    for xi, chi in PLATE_CASES:
        values = plate.radial_profile(xi, chi).eval(r)
        out[f"plate radial_profile xi={xi!r} chi={chi!r}"] = {
            f"A{k}": _hexes(v) for k, v in enumerate(values)}
    return out


def _grids(r_edge: float, gap) -> dict:
    """(R, Z) in each input form, on [0, r_edge] with |Z| <= gap(R)."""
    r = np.linspace(0.0, r_edge, 41)
    zf = np.linspace(-1.0, 1.0, 11)
    z_full = gap(r)[:, None] * zf
    r_full = np.broadcast_to(r[:, None], z_full.shape).copy()
    mixed = np.random.default_rng(3).permutation(np.concatenate((r, r[::4])))
    return {"column x row": (r[:, None], zf[None, :]),
            "column x full": (r[:, None], z_full),
            "full x full": (r_full, z_full),
            "1-D": (r, 0.3 * gap(r)),
            "scalar": (0.4 * r_edge, -0.2),
            "unsorted column": (mixed[:, None], 0.9 * zf[None, :])}


def _digests(arrays: dict) -> dict:
    """sha256 of each array's doubles in C order, with the shape."""
    out = {"shape": list(np.shape(next(iter(arrays.values()))))}
    for name, values in arrays.items():
        data = np.ascontiguousarray(values, dtype=float)
        out[name] = hashlib.sha256(data.tobytes()).hexdigest()
    return out


def _sample(sample, names) -> dict:
    return _digests({name: getattr(sample, name) for name in names})


def field_entries() -> dict:
    """Hashes of the field arrays on every grid form."""
    out = {}
    for xi, chi in PLATE_CASES:
        sol = plate.solve_plate(xi, chi=chi)
        for form, (R, Z) in _grids(1.0, np.ones_like).items():
            out[f"plate field xi={xi!r} chi={chi!r} {form}"] = _sample(
                plate.field(sol, R, Z), FIELDS)
    for xi, chi in SPHERE_FIELD_CASES:
        sol = solve_sphere(xi, chi)
        for form, (R, Z) in _grids(sol.geo.r_edge, sol.geo.gap).items():
            key = f"xi={xi!r} chi={chi!r} {form}"
            out[f"sphere field {key}"] = _sample(sphere_field(sol, R, Z),
                                                 FIELDS)
            out[f"sphere potential {key}"] = _sample(
                sphere_potential(sol, R, Z), POTENTIALS)
    xi = SPHERE_FIELD_CASES[-1][0]
    theta, geo = solve_theta(xi), SphereGeometry.of(xi)
    for form, (R, Z) in _grids(geo.r_edge, geo.gap).items():
        out[f"theta fields xi={xi!r} {form}"] = _digests(
            {"u_r0": theta.u_r0(R, Z), "u_z0": theta.u_z0(R, Z)})
    return out


def series_entries() -> dict:
    """The series regimes, hashes of both direct series on every grid
    form, and the Navier residual norms of both series and of the Theta
    fields in both modes."""
    out = {}
    xi = SERIES_XIS[0]
    for m in (1.0, math.sqrt(xi), xi):
        rep = series_regime(xi, m)
        out[f"series_regime xi={xi!r} mu_over_lambda={m!r}"] = {
            "regime": rep.regime, "mu_over_lambda": rep.mu_over_lambda.hex(),
            "xi": rep.xi.hex()}
    for xi in SERIES_XIS:
        geo, theta = SphereGeometry.of(xi), solve_theta(xi)
        series = {
            "compressible": (lambda R, Z: compressible_series_fields(
                xi, 2.0, 1.0, R, Z, U=0.5), 0.5),
            "nearly_compressible": (lambda R, Z:
                                    nearly_compressible_series_fields(
                                        xi, R, Z), math.sqrt(xi))}
        for name, (fn, _) in series.items():
            for form, (R, Z) in _grids(geo.r_edge, geo.gap).items():
                out[f"{name} series xi={xi!r} {form}"] = _digests(
                    dict(zip(("u_r", "u_z"), fn(R, Z))))
        series["theta"] = (lambda R, Z: (theta.u_r0(R, Z),
                                         theta.u_z0(R, Z)), xi)
        for name, (fields, m) in series.items():
            for mode in ("full", "dominant"):
                out[f"navier_residual {name} xi={xi!r} {mode}"] = {
                    "norms": _hexes(navier_residual(fields, xi, m,
                                                    mode=mode))}
    return out


def compute() -> dict:
    """Every fingerprint entry, by name."""
    return {**sphere_entries(), **plate_entries(), **field_entries(),
            **series_entries()}


# ---------------------------------------------------------------------------
# argv corpus
# ---------------------------------------------------------------------------

# an argv element "CONFIG:<text>" stands for the path of a file holding
# <text>, written afresh for the run
CONFIG = "CONFIG:"

_FORMATS = ((), ("--json",), ("--csv",))
# one passing argv per command
_BASES = (
    ("plate-force", "--xi", "1e-3", "--chi", "0.7"),
    ("plate-modulus", "--xi", "1e-3", "--nu", "0.499905"),
    ("plate-field", "--xi", "0.01", "--chi", "0.7", "--nr", "6",
     "--nz", "3"),
    ("sphere-force", "--xi", "1e-2", "--chi", "1"),
    ("sphere-field", "--xi", "1e-2", "--chi", "1", "--nr", "6", "--nz", "3"),
    ("regime-classify", "--xi", "1e-2", "--chi", "0.3"),
    ("regime-transitions",),
    ("compare-plate", "--xi", "1e-3", "--chi", "0.1"),
    ("verify-table4",),
    ("verify-suite",),
)
_COMMANDS = tuple(base[0] for base in _BASES)
_SWEEPS = (
    ("plate-force", "--chi", "0.7", "--sweep-xi", "1e-4", "1e-1", "5"),
    ("plate-modulus", "--nu", "0.49", "--sweep-xi", "1e-3", "0.5", "4"),
    ("sphere-force", "--chi", "1", "--sweep-xi", "1e-4", "1e-2", "3"),
    ("compare-plate", "--chi", "0.05", "--sweep-xi", "1e-4", "1e-2", "3"),
)
_MORE = (
    # the material as --nu, alone and with a chi that agrees
    ("plate-force", "--xi", "1e-2", "--nu", "0.3"),
    ("plate-modulus", "--xi", "1e-2", "--nu", "0.5", "--json"),
    ("sphere-force", "--xi", "1e-3", "--nu", "0.45", "--json"),
    ("sphere-force", "--xi", "1e-2", "--chi", "1", "--nu", "0.25"),
    ("regime-classify", "--xi", "1e-3", "--nu", "0.49", "--json"),
    ("compare-plate", "--xi", "1e-2", "--nu", "0.4999", "--csv"),
    # scales
    ("plate-force", "--xi", "1e-2", "--chi", "0.7", "--mu", "2.5", "--a",
     "3", "--U", "0.5", "--json"),
    ("plate-force", "--xi", "1e-2", "--chi", "0", "--U", "-1"),
    ("plate-force", "--xi", "1e-2", "--chi", "0.7", "--U", "0", "--csv"),
    ("sphere-force", "--xi", "1e-3", "--chi", "0.5", "--mu", "2", "--a",
     "0.5", "--U", "-2", "--json"),
    ("plate-field", "--xi", "0.05", "--chi", "0.3", "--mu", "2", "--a",
     "3", "--U", "-0.5", "--nr", "5", "--nz", "4"),
    ("sphere-field", "--xi", "1e-3", "--chi", "0.5", "--mu", "3", "--U",
     "0.25", "--nr", "5", "--nz", "4"),
    # field grids
    ("plate-field", "--xi", "0.01", "--chi", "0.7", "--nr", "101",
     "--nz", "41"),
    ("plate-field", "--xi", "0.05", "--chi", "0", "--nr", "101", "--nz",
     "41"),
    ("plate-field", "--xi", "1e-3", "--chi", "1.4", "--nr", "51", "--nz",
     "21"),
    ("plate-field", "--xi", "0.01", "--nu", "0.49"),
    ("sphere-field", "--xi", "1e-2", "--chi", "1", "--nr", "101", "--nz",
     "41"),
    ("sphere-field", "--xi", "1e-3", "--chi", "0", "--nr", "101", "--nz",
     "41"),
    ("sphere-field", "--xi", "1e-4", "--chi", "1e-3", "--tol", "1e-12"),
    # tolerances and regimes
    ("sphere-force", "--xi", "1e-5", "--chi", "1e-3", "--tol", "1e-12",
     "--json"),
    ("sphere-force", "--xi", "1e-2", "--chi", "0", "--json"),
    ("sphere-force", "--xi", "1e-2", "--chi", "5e-11", "--json"),
    ("sphere-force", "--xi", "1e-76", "--chi", "1", "--json"),  # the floor
    ("regime-classify", "--geometry", "sphere", "--xi", "1e-3", "--chi",
     "0.5", "--json"),
    ("regime-classify", "--geometry", "sphere", "--xi", "1e-4", "--nu",
     "0.5"),
    ("regime-classify", "--xi", "1e-3", "--chi", "0.7", "--tolerance",
     "0.05", "--csv"),
    ("regime-classify", "--xi", "1e-2", "--chi", "0"),
    ("regime-transitions", "--xi", "1e-2"),
    ("regime-transitions", "--xi", "1e-2", "--tolerance", "0.2", "--json"),
    ("regime-transitions", "--geometry", "sphere", "--csv"),
    ("regime-transitions", "--geometry", "sphere", "--xi", "1e-2", "--json"),
    ("regime-transitions", "--geometry", "plate", "--format", "json",
     "--csv"),
    ("regime-transitions", "--csv", "--json"),
    # config files
    ("sphere-force", "--xi", "1e-2", "--config",
     CONFIG + "# rig\nchi = 1.0\nformat = csv\n"),
    ("sphere-force", "--xi", "1e-2", "--json", "--config",
     CONFIG + "chi = 1.0\nformat = csv\n"),
    ("regime-transitions", "--config",
     CONFIG + "tolerance = 0.2\nformat = json\n"),
    ("plate-field", "--config",
     CONFIG + "xi = 0.02\nnu = 0.45\nnr = 4\nnz = 3\nU = -1\n"),
    # errors: the domain
    ("plate-force", "--xi", "0", "--chi", "1"),
    ("plate-force", "--xi", "1", "--chi", "1"),
    ("plate-force", "--xi", "nan", "--chi", "1"),
    ("plate-force", "--xi", "1e-2", "--chi", "1.6"),
    ("plate-force", "--xi", "1e-2", "--chi", "-0.1"),
    ("plate-force", "--xi", "1e-2", "--chi", "nan"),
    ("plate-force", "--xi", "1e-2", "--nu", "0.6"),
    ("plate-force", "--xi", "1e-3", "--chi", "1.0", "--nu", "0.3"),
    ("plate-modulus", "--xi", "1e-2", "--chi", "1.5"),
    ("sphere-force", "--xi", "0.5", "--chi", "1"),
    ("sphere-field", "--xi", "0.2", "--chi", "1"),
    ("regime-classify", "--geometry", "sphere", "--xi", "0.5", "--chi",
     "0.3"),
    ("regime-transitions", "--tolerance", "0"),
    ("regime-transitions", "--geometry", "sphere", "--xi", "nan"),
    ("regime-transitions", "--geometry", "sphere", "--xi", "-1"),
    ("regime-transitions", "--geometry", "sphere", "--xi", "0.2"),
    ("regime-classify", "--geometry", "sphere", "--chi", "0.5", "--xi",
     "nan"),
    ("regime-classify", "--geometry", "sphere", "--chi", "0.5", "--xi", "-1"),
    ("regime-classify", "--geometry", "sphere", "--chi", "0.5", "--xi", "2"),
    # errors: below the package's floor xi = 1e-76, either layer (the plate
    # entries exited 3 past double range before the plate took the floor)
    ("sphere-force", "--xi", "9.9e-77", "--chi", "1"),
    ("regime-classify", "--geometry", "sphere", "--xi", "1e-81", "--chi",
     "1"),
    ("plate-force", "--xi", "9.9e-77", "--chi", "1"),
    ("plate-force", "--xi", "1e-76", "--chi", "1", "--json"),  # the floor
    ("plate-force", "--xi", "1e-200", "--chi", "1"),
    ("plate-modulus", "--xi", "1e-170", "--chi", "1"),
    ("plate-modulus", "--xi", "1e-165", "--chi", "0"),
    ("compare-plate", "--xi", "1e-170", "--chi", "1"),
    ("plate-force", "--xi", "5e-324", "--chi", "1"),
    ("plate-force", "--xi", "1e-110", "--chi", "0"),
    ("plate-field", "--xi", "1e-160", "--chi", "0", "--nr", "2", "--nz", "2",
     "--csv"),
    ("plate-force", "--xi", "1e-103", "--chi", "0", "--json"),
    ("plate-force", "--xi", "1e-103", "--chi", "0.1"),
    ("plate-force", "--chi", "0.1", "--sweep-xi", "1e-104", "1e-2", "3"),
    ("plate-modulus", "--xi", "1e-104", "--chi", "1"),
    ("plate-field", "--xi", "1e-103", "--chi", "0", "--nr", "2", "--nz", "2",
     "--csv"),
    # errors: past double range by the scales alone, above the floor
    # (NumericsError naming the result and the cell, both layers)
    ("plate-field", "--xi", "1e-3", "--chi", "1", "--mu", "1e306", "--nr",
     "2", "--nz", "2", "--csv"),
    ("plate-force", "--xi", "1e-3", "--chi", "1", "--mu", "1e200", "--a",
     "1e200"),
    ("sphere-force", "--xi", "1e-3", "--chi", "1", "--mu", "1e307"),
    ("sphere-force", "--xi", "1e-3", "--chi", "1", "--mu", "1e307",
     "--json"),
    ("sphere-field", "--xi", "1e-3", "--chi", "1", "--mu", "1e307", "--nr",
     "2", "--nz", "2", "--csv"),
    # errors: the scales, nan and inf included
    ("plate-force", "--xi", "1e-2", "--chi", "0.5", "--mu", "-1"),
    ("plate-force", "--xi", "1e-2", "--chi", "0.5", "--a", "0"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--a", "nan", "--json"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--a", "inf", "--json"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--mu", "nan", "--json"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--mu", "inf", "--json"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--U", "nan", "--json"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--U", "inf", "--json"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--U=-inf"),
    ("sphere-force", "--xi", "1e-2", "--chi", "1", "--mu", "nan"),
    ("sphere-force", "--xi", "1e-2", "--chi", "1", "--a", "inf"),
    ("sphere-force", "--xi", "1e-2", "--chi", "1", "--U", "nan", "--json"),
    ("plate-field", "--xi", "0.1", "--chi", "1", "--U", "nan", "--nr", "3",
     "--nz", "2"),
    ("sphere-field", "--xi", "1e-2", "--chi", "1", "--mu", "inf", "--nr",
     "3", "--nz", "2"),
    # negative numbers in scientific notation and -inf/-nan as values
    ("plate-force", "--xi", "0.1", "--chi", "1", "--U", "-1e-3"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--U=-1e-3"),
    ("plate-force", "--xi", "0.1", "--nu", "-3e-1", "--json"),
    ("sphere-force", "--xi", "1e-2", "--chi", "1", "--U", "-2.5E-1",
     "--csv"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--U", "-inf"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--U", "-nan", "--json"),
    ("plate-force", "--xi", "0.1", "--chi", "1", "--U", "-x"),
    ("plate-force", "--xi", "-1e-3", "--chi", "1"),
    ("plate-force", "--chi", "1", "--sweep-xi", "-1e-3", "1e-2", "3"),
    # errors: tolerances and grids
    ("sphere-force", "--xi", "1e-3", "--chi", "1e-3", "--tol", "0"),
    ("sphere-force", "--xi", "1e-3", "--chi", "1e-3", "--tol", "nan"),
    ("sphere-force", "--xi", "1e-3", "--chi", "1e-3", "--tol", "inf"),
    ("sphere-force", "--xi", "1e-3", "--chi", "1e-3", "--tol", "1e-16",
     "--json"),
    ("plate-field", "--xi", "1e-3", "--chi", "0.7", "--nr", "1"),
    ("sphere-field", "--xi", "1e-3", "--chi", "0.7", "--nz", "0"),
    ("plate-field", "--chi", "0.7"),
    ("sphere-field", "--chi", "0.7"),
    ("regime-classify", "--chi", "1"),
    ("plate-force", "--chi", "1"),
    # errors: sweeps
    ("sphere-force", "--chi", "1", "--sweep-xi", "1e-2", "1e-4", "3"),
    ("plate-force", "--chi", "1", "--sweep-xi", "0", "1e-2", "3"),
    ("plate-force", "--chi", "1", "--sweep-xi", "1e-3", "1e-2", "1"),
    ("plate-force", "--chi", "1", "--sweep-xi", "1e-3", "1e-2", "2.5"),
    ("plate-force", "--chi", "1", "--sweep-xi", "1e-3", "1e-2", "inf"),
    ("plate-force", "--chi", "1", "--sweep-xi", "1e-3", "1e-2", "nan"),
    ("plate-force", "--chi", "1", "--sweep-xi", "1e-3", "1e-2"),
    # errors: argparse
    (),
    ("plate-torque",),
    ("plate-force", "--xi", "x", "--chi", "1"),
    ("plate-force", "--xi", "1e-3", "--chi", "1", "--format", "yaml"),
    ("plate-force", "--xi", "1e-3", "--chi", "1", "--bogus"),
    ("regime-transitions", "--geometry", "spheres"),
    ("plate-field", "--xi", "1e-2", "--chi", "1", "--nr", "2.5"),
    # errors: config files
    ("regime-transitions", "--config", CONFIG + "geometry = spheres\n"),
    ("regime-classify", "--xi", "1e-3", "--chi", "0.5", "--config",
     CONFIG + "geometry = spheres\n"),
    ("regime-transitions", "--config", CONFIG + "format = yaml\n"),
    ("regime-transitions", "--json", "--config", CONFIG + "format = yaml\n"),
    ("sphere-force", "--xi", "1e-2", "--chi", "1", "--config",
     CONFIG + "bogus = 3\n"),
    ("sphere-force", "--xi", "1e-2", "--config", CONFIG + "chi 1\n"),
    ("sphere-force", "--xi", "1e-2", "--config", CONFIG + "chi = x\n"),
    ("plate-field", "--xi", "1e-2", "--chi", "1", "--config",
     CONFIG + "nr = 1.5\n"),
    ("regime-transitions", "--config", CONFIG + "json = 1\n"),
)

ARGV_CORPUS = tuple(dict.fromkeys(
    [(command,) for command in _COMMANDS]
    + [base + fmt for base in _BASES for fmt in _FORMATS]
    + [sweep + fmt for sweep in _SWEEPS for fmt in _FORMATS]
    + list(_MORE)
    + [("--help",)] + [(command, "--help") for command in _COMMANDS]))


def run_cli(argv) -> tuple:
    """(exit status, stdout, stderr) of cli.main(argv), in process.  An
    exception that escapes main is recorded as a process would end on
    it: status 1, and the traceback's last line on stderr.  Python's
    warnings are left out: they name source paths, and show once per
    process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:       # argparse's usage errors and --help
            status = int(exc.code or 0)
        except Exception as exc:
            status = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return status, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute_argv() -> dict:
    """The status and output digests of every argv of ARGV_CORPUS, keyed
    by the argv's elements, quoted and joined with spaces (a config file
    by its text)."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in ARGV_CORPUS:
            real = list(argv)
            for i, arg in enumerate(argv):
                if arg.startswith(CONFIG):
                    real[i] = os.path.join(tmp, f"{len(out)}.cfg")
                    with open(real[i], "w") as fh:
                        fh.write(arg[len(CONFIG):])
            status, stdout, stderr = run_cli(real)
            out[" ".join(map(repr, argv))] = {
                "status": status, "stdout": _sha(stdout),
                "stderr": _sha(stderr)}
    return out


def _git(*args):
    """git's stdout for args, run in this file's checkout, or None
    outside a git checkout (or without git)."""
    try:
        return subprocess.run(("git", *args), cwd=PATH.parent, text=True,
                              capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def versions() -> dict:
    """The versions this runs with, the git commit of the checkout and
    whether its tree held changes against that commit."""
    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "commit": head and head.strip(),
            "clean": None if status is None else not status}


def _diffs(path, got) -> list:
    """One line per key of an entry of got that differs from the file
    at path, old -> new, headed by their count and the versions the file
    was written with beside those of the run; [] when none differs."""
    want = json.loads(path.read_text())
    diffs = []
    for name in sorted(want["entries"].keys() | got.keys()):
        old, new = want["entries"].get(name, {}), got.get(name, {})
        diffs += [f"{name} {key}: {old.get(key)} -> {new.get(key)}"
                  for key in sorted(old.keys() | new.keys())
                  if old.get(key) != new.get(key)]
    return [f"{len(diffs)} entries differ (written with {want['versions']}, "
            f"run with {versions()}):"] + diffs if diffs else []


def _write(path, entries) -> None:
    """Print every entry that differs from the file at path (if there is
    one), then write the entries there with the versions."""
    if path.exists():
        print("\n".join(_diffs(path, entries)
                        or [f"no entry of {path.name} differs"]))
    data = {"versions": versions(), "entries": entries}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {path}")


def main() -> int:
    PATH.parent.mkdir(exist_ok=True)
    _write(PATH, compute())
    _write(ARGV_PATH, compute_argv())
    return 0


if __name__ == "__main__":
    sys.exit(main())
