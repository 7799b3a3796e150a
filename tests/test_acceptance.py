"""Acceptance battery: one test per shipping criterion, each printing a
single PASS/FAIL line with the measured numbers.

Two criteria are implemented exactly as stated and fail honestly:

* criterion 6: the sphere force factor at chi = 1e-6, xi = 1e-2 sits 2.0%
  above its incompressible plateau, outside the asked half-percent band
  (the thinner grids pass).  The chi = 0 closed form itself gives
  4 xi Psi = 1 + 2 xi + O(xi^2), so the band cannot be met at xi = 1e-2;
* criterion 8: the compressible displacement series is an inner expansion;
  over the full stated radial window the rim tail degrades u_r agreement
  to 86%, far beyond the asked 5% (agreement is 1.9% on the inner third).

README discusses each.  The remaining seven criteria pass.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from layerlab.cli import main as cli_main
from layerlab.materials import chi_from_nu
from layerlab.plate import apparent_modulus
from layerlab.regimes import nu_intermediate_window, plate_transitions
from layerlab.series import compressible_series_fields, navier_residual, solve_theta
from layerlab.sphere import psi_extremes, solve_sphere, sphere_field, sphere_force

XI_TABLE = [1e-5, 1e-4, 1e-3, 1e-2]
CHI_TABLE = [1e-3, 1e-2, 0.1, 1.0]


def _golden():
    path = resources.files("layerlab") / "data" / "reference_tables.json"
    return json.loads(path.read_text())["table4"]


def _report(line, ok):
    print(line)
    assert ok, line


def test_criterion_1_reference_table_reproduction():
    tab = _golden()
    t0 = time.monotonic()
    worst = 0.0
    for i, xi in enumerate(XI_TABLE):
        for j, chi in enumerate(CHI_TABLE):
            psi = sphere_force(solve_sphere(xi, chi)).psi
            rel = abs(psi / tab["psi"][j][i] - 1.0)
            worst = max(worst, rel)
    dt = time.monotonic() - t0
    # limiting rows against independently coded closed forms
    worst_ext = 0.0
    for xi in XI_TABLE:
        for chi in CHI_TABLE:
            ex = psi_extremes(xi, chi)
            worst_ext = max(
                worst_ext,
                abs(ex.psi_i / (1.0 / (4.0 * xi)) - 1.0),
                abs(ex.psi_c / (math.log(1.0 / (2.0 * xi)) / chi**2) - 1.0),
            )
    ok = worst <= 5e-2 and worst_ext <= 1e-12 and dt < 60.0
    _report(
        f"AC1: {'PASS' if ok else 'FAIL'} - 16/16 printed force-factor "
        f"cells within 5% (worst {worst:.2%}); limit rows at closed forms "
        f"(worst {worst_ext:.1e}); grid in {dt:.1f}s",
        ok,
    )


def test_criterion_2_transition_constants():
    tr = plate_transitions(0.10)
    ok_c = abs(tr.zeta_compressible - 0.046) <= 1e-3
    ok_i = abs(tr.zeta_incompressible - 1.3) <= 5e-2
    lo2, hi2 = nu_intermediate_window(1e-2)
    lo3, hi3 = nu_intermediate_window(1e-3)
    ok_w = (round(lo2, 2), round(hi2, 5)) == (0.49, 0.49999) and \
           (round(lo3, 4), round(hi3, 7)) == (0.4999, 0.4999999)
    ok = ok_c and ok_i and ok_w
    _report(
        f"AC2: {'PASS' if ok else 'FAIL'} - boundaries "
        f"({tr.zeta_compressible:.6f}, {tr.zeta_incompressible:.6f}) in the "
        f"printed bands; nu-windows round to (0.49, 0.49999) and "
        f"(0.4999, 0.4999999)",
        ok,
    )


def test_criterion_3_material_map_digits():
    chi = chi_from_nu(0.499905)
    ok = abs(chi - 0.0238724) <= 5e-8
    _report(
        f"AC3: {'PASS' if ok else 'FAIL'} - chi(0.499905) = {chi:.10f} "
        f"matches 0.0238724 to 6 printed digits",
        ok,
    )


def test_criterion_4_theta_identity():
    # Theta's closed form against 6 times the profile the collocation
    # solver finds at chi**2 = 3 xi: two independent methods
    worst = 0.0
    for xi in (1e-2, 1e-3):
        th = solve_theta(xi)
        sol = solve_sphere(xi, math.sqrt(3.0 * xi))
        rr = np.linspace(1e-6, 1.0 / math.sqrt(xi), 301)
        a6 = 6.0 * sol.A.eval(rr)[0]
        rel = float(np.max(np.abs(th.Theta.eval(rr)[0] - a6))
                    / np.max(np.abs(a6)))
        worst = max(worst, rel)
    ok = worst <= 1e-6
    _report(
        f"AC4: {'PASS' if ok else 'FAIL'} - closed-form Theta vs 6x solved "
        f"profile sup-rel {worst:.2e} (tol 1e-06) at xi = 1e-2, 1e-3",
        ok,
    )


def test_criterion_5_modulus_gap_estimate():
    worst = 0.0
    for xi in (1e-3, 1e-4):
        for chi in (0.5, 1.0):
            am = apparent_modulus(xi, chi)
            measured = (am.e_hat_l - am.e_hat) / am.e_hat
            est = 2.0 * chi * (4 * chi**4 - 24 * chi**2 + 27) * xi \
                / (9.0 * (3.0 - chi**2))
            worst = max(worst, abs(measured - est) / abs(est))
    ok = worst <= 0.10
    _report(
        f"AC5: {'PASS' if ok else 'FAIL'} - worst |measured-estimate| = "
        f"{worst:.3f} of the estimate's magnitude (tol 0.10) for the "
        f"relative gap (e_hat_l - e_hat)/e_hat between the classical "
        f"thin-layer modulus and the exact one (xi = 1e-3, 1e-4; "
        f"chi = 0.5, 1)",
        ok,
    )


def test_criterion_6_limit_recovery():
    worst_plate = 0.0
    sphere_ratios = []
    for xi in (1e-4, 1e-3, 1e-2):
        am = apparent_modulus(xi, 1e-8)
        worst_plate = max(worst_plate, abs(am.e_hat / am.e_hat_i - 1.0))
        psi = sphere_force(solve_sphere(xi, 1e-6)).psi
        sphere_ratios.append(psi / psi_extremes(xi, 1e-6).psi_i)
    ok_plate = worst_plate <= 1e-4
    ok_sphere = all(0.995 <= r <= 1.005 for r in sphere_ratios)
    ok = ok_plate and ok_sphere
    _report(
        f"AC6: {'PASS' if ok else 'FAIL'} - plate plateau recovered to "
        f"{worst_plate:.1e} (tol 1e-04); sphere plateau ratios "
        f"{', '.join(f'{r:.4f}' for r in sphere_ratios)} vs [0.995, 1.005] "
        f"(xi = 1e-4, 1e-3, 1e-2)",
        ok,
    )


def test_criterion_7_property_suites(capsys):
    rc = cli_main(["verify-suite"])
    out, _ = capsys.readouterr()
    worsts = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    ok = rc == 0
    _report(
        f"AC7: {'PASS' if ok else 'FAIL'} - " + "; ".join(worsts),
        ok,
    )


def test_criterion_8_series_cross_check():
    xi = 1e-4
    sol = solve_sphere(xi, 1.0)
    num = den = 0.0
    for r in np.linspace(0.05, 0.9 / math.sqrt(xi), 181):
        g = 1.0 + 0.5 * r * r
        zz = np.linspace(-0.9 * g, 0.9 * g, 21)
        fs = sphere_field(sol, np.full_like(zz, r), zz)
        ur_s, _ = compressible_series_fields(xi, 1.0, 1.0,
                                             np.full_like(zz, r), zz)
        num = max(num, float(np.max(np.abs(fs.u_r - ur_s))))
        den = max(den, float(np.max(np.abs(fs.u_r))))
    sup_rel = num / den

    def res_at(x):
        r = navier_residual(
            lambda R, Z: compressible_series_fields(x, 1.0, 1.0, R, Z),
            x, 1.0)
        return max(r.sup_r, r.sup_z)

    ratio = res_at(1e-2) / res_at(2.5e-3)
    ok_ratio = 2.0 / 1.5 <= ratio <= 2.0 * 1.5
    ok_field = sup_rel <= 5e-2
    ok = ok_field and ok_ratio
    _report(
        f"AC8: {'PASS' if ok else 'FAIL'} - u_r sup-rel {sup_rel:.4f} over "
        f"the full stated window R <= 0.9/sqrt(xi) (tol 0.05; the series' "
        f"validity region R <= 0.3/sqrt(xi) gives 0.019); residual ratio "
        f"at xi vs xi/4 = {ratio:.4f} (predicted 2, factor-1.5 band: pass)",
        ok,
    )


def test_criterion_9_artifact_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = cli_main(["verify-table4", "--output", str(p1)])
    rc2 = cli_main(["verify-table4", "--output", str(p2)])
    capsys.readouterr()
    same = p1.read_bytes() == p2.read_bytes()
    ok = same and rc1 == rc2
    _report(
        f"AC9: {'PASS' if ok else 'FAIL'} - repeated table verification "
        f"writes byte-identical CSV artifacts ({p1.stat().st_size} bytes, "
        f"status {rc1} both runs)",
        ok,
    )
