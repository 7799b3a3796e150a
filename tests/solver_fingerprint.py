"""The sphere solver's fingerprint: its answers and counters, as exact
bits, on a fixed set of problems.

Covered: the 16 printed table cells, the verify-suite 5x5 grid, the
chi = 0 anchors and the Theta problem at xi in {1e-4, 1e-3, 1e-2}, each
at tol 1e-10 and 1e-12.  Floats are stored as ``float.hex``, so a change
in the last bit shows.  ``tests/test_solver_fingerprint.py`` recomputes
every entry and names each one that differs.

A change that moves an answer on purpose rewrites the file with

    PYTHONPATH=src python tests/solver_fingerprint.py

and states every changed entry, old -> new and why.
"""

import json
import pathlib
import platform
import sys

import numpy as np
import scipy

from layerlab.series import solve_theta
from layerlab.sphere import SphereGeometry, solve_sphere, sphere_force

PATH = pathlib.Path(__file__).parent / "data" / "solver_fingerprint.json"

TOLS = (1e-10, 1e-12)
THETA_XIS = (1e-4, 1e-3, 1e-2)


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


def compute() -> dict:
    """Every fingerprint entry, by name."""
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
            entry = {"theta": [float(v).hex() for v in t0],
                     "theta_r": [float(v).hex() for v in t1]}
            entry.update(_solver_entry(theta.meta))
            out[f"theta xi={xi!r} tol={tol!r}"] = entry
    return out


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
