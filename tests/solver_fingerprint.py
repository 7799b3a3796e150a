"""The solvers' fingerprint: their answers and counters, as exact bits,
on a fixed set of problems.

Covered:

- the sphere solver on the 16 printed table cells, the verify-suite 5x5
  grid, the chi = 0 anchors and the Theta problem at xi in
  {1e-4, 1e-3, 1e-2}, each at tol 1e-10 and 1e-12;
- the plate closed forms: force_factor and apparent_modulus on both
  Bessel branches (x = chi/xi below and above 2) and below
  chi = 1e-10, plate_transitions at three tolerances, and the radial
  profile with all four derivatives on a few radii;
- the sha256 of every field array from plate.field, sphere_field,
  sphere_potential and the Theta fields u_r0, u_z0, on grids in each
  input form: column x row, column x full, full x full, 1-D, scalar
  and an unsorted column with repeated radii.

Floats are stored as ``float.hex``, so a change in the last bit shows.
``tests/test_solver_fingerprint.py`` recomputes every entry and names
each one that differs.

A change that moves an answer on purpose rewrites the file with

    PYTHONPATH=src python tests/solver_fingerprint.py

and states every changed entry, old -> new and why.
"""

import hashlib
import json
import pathlib
import platform
import sys

import numpy as np
import scipy

from layerlab import plate
from layerlab.regimes import plate_transitions
from layerlab.series import solve_theta
from layerlab.sphere import (SphereGeometry, solve_sphere, sphere_field,
                             sphere_force, sphere_potential)

PATH = pathlib.Path(__file__).parent / "data" / "solver_fingerprint.json"

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
SPHERE_FIELD_CASES = ((1e-2, 0.0), (1e-3, 1.0))
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
    """The counters and rounding-level diagnostics of one dual solve."""
    return {"panels": meta["panels"], "alt_panels": meta["alt_panels"],
            "passes": meta["passes"], "alt_passes": meta["alt_passes"],
            "residual_sup": meta["residual_sup"].hex(),
            "dual_sup_rel": meta["dual_sup_rel"].hex()}


def _hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def sphere_entries() -> dict:
    """Psi on both traces and the solver counters of every sphere cell,
    and Theta with its counters."""
    out = {}
    for tol in TOLS:
        for xi, chi in sphere_cells():
            sol = solve_sphere(xi, chi, tol=tol)
            entry = {f"psi_{trace}": sphere_force(sol, trace).psi.hex()
                     for trace in ("midplane", "surface")}
            entry.update(_solver_entry(sol.A.meta))
            out[f"sphere xi={xi!r} chi={chi!r} tol={tol!r}"] = entry
        for xi in THETA_XIS:
            theta = solve_theta(xi, tol=tol).Theta
            r = np.array([0.0, 1.0, SphereGeometry.of(xi).r_edge])
            t0, t1, _, _ = theta.eval(r)
            entry = {"theta": _hexes(t0), "theta_r": _hexes(t1)}
            entry.update(_solver_entry(theta.meta))
            out[f"theta xi={xi!r} tol={tol!r}"] = entry
    return out


def plate_entries() -> dict:
    """The plate's scalar closed forms and its radial profile."""
    out = {}
    for xi, chi in MODULUS_CASES:
        out[f"plate moduli xi={xi!r} chi={chi!r}"] = {
            "force_factor": plate.force_factor(xi, chi).hex(),
            "apparent_modulus": _hexes(plate.apparent_modulus(xi, chi))}
    for tau in TRANSITION_TOLERANCES:
        out[f"plate_transitions tolerance={tau!r}"] = {
            "zetas": _hexes(plate_transitions(tau))}
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


def compute() -> dict:
    """Every fingerprint entry, by name."""
    return {**sphere_entries(), **plate_entries(), **field_entries()}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    PATH.parent.mkdir(exist_ok=True)
    data = {"versions": versions(), "entries": compute()}
    PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data['entries'])} entries to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
