"""Command-line harness: output formats, golden-table verification,
determinism, config merging, and error statuses.

The verify-table4 command intentionally exits 2: six cells of the
published force-factor row sit between the asked 2% and the table's own
two-significant-digit resolution (see README).  The tests assert that
honest outcome.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import layerlab
from layerlab import cli, plate
from layerlab.cli import _build_parser, _finalize, main
from layerlab.plate import field as plate_field_eval
from layerlab.plate import force, solve_plate


def run(capsys, *argv):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:          # argparse-level rejections
        rc = int(exc.code or 0)
    out, err = capsys.readouterr()
    return rc, out, err


# ---------------------------------------------------------------------------
# Scalar commands
# ---------------------------------------------------------------------------

def test_plate_force_human(capsys):
    rc, out, err = run(capsys, "plate-force", "--xi", "1e-3", "--chi", "0.7")
    assert rc == 0 and err == ""
    assert "force" in out and "zeta" in out
    # the printed force is plate.force's, scales included
    rc, out, _ = run(capsys, "plate-force", "--xi", "1e-2", "--chi", "0.7",
                     "--mu", "2.5", "--a", "3", "--U", "0.5", "--json")
    want = force(solve_plate(1e-2, chi=0.7, mu=2.5, a=3.0, U=0.5))
    assert rc == 0 and json.loads(out)["force"] == want


def test_plate_profile_built_only_for_fields(capsys, monkeypatch):
    # plate-force needs the force alone, so a sweep builds no radial
    # profile; field builds it once per solution and keeps it
    calls = []
    build = plate.radial_profile
    monkeypatch.setattr(plate, "radial_profile",
                        lambda *args: calls.append(args) or build(*args))
    rc, out, _ = run(capsys, "plate-force", "--sweep-xi", "1e-4", "1e-1",
                     "20", "--chi", "0.7", "--csv")
    assert rc == 0 and len(out.splitlines()) == 21
    assert calls == []
    sol = solve_plate(1e-2, chi=0.7)
    assert calls == []
    plate_field_eval(sol, 0.5, 0.0)
    plate_field_eval(sol, np.linspace(0.0, 1.0, 5), 0.3)
    assert calls == [(1e-2, 0.7)]


def test_plate_modulus_values(capsys):
    rc, out, _ = run(capsys, "plate-modulus", "--xi", "1e-3",
                     "--nu", "0.499905", "--json")
    assert rc == 0
    d = json.loads(out)
    assert abs(d["chi"] - 0.023872405001866936) < 1e-12
    assert abs(d["zeta"] - 0.041889369752) < 1e-9
    assert abs(d["e_hat"] - 1610.95098543) < 1e-5
    assert d["e_hat_i"] == 125000.0
    assert abs(d["e_hat_c"] - 1754.83043751) < 1e-5
    assert abs(d["e_hat_l"] - 1611.03297076) < 1e-5
    # this zeta sits just inside the compressible band: the compressible
    # plateau is the near one (9% off, inside the 10% window that draws
    # the boundary), and the classical thin-layer approximation is 5e-5
    # away
    assert abs(d["e_hat_c"] / d["e_hat"] - 1.0) < 0.10
    assert abs(d["e_hat_l"] / d["e_hat"] - 1.0) < 1e-4
    # at chi = 0 the compressible plateau is infinite, and JSON carries it
    # as null
    rc, out, _ = run(capsys, "plate-modulus", "--xi", "1e-2", "--chi", "0",
                     "--json")
    d = json.loads(out)
    assert rc == 0 and d["e_hat_c"] is None
    assert d["e_hat"] == d["e_hat_i"] == 1250.0


def test_sphere_force_json_contract(capsys):
    rc, out, _ = run(capsys, "sphere-force", "--xi", "1e-2", "--chi", "1",
                     "--json")
    assert rc == 0
    d = json.loads(out)
    want = {
        "chi": 1.0,
        "force": 63.519859556323226,
        "nu": 0.25,
        "psi": 3.369833210963936,
        "psi_c": 3.912023005428146,
        "psi_i": 25.0,
        "psi_surface": 4.313802484514407,
        "xi": 0.01,
        "zeta_bar": 0.1,
        "zeta_tilde": 0.31622776601683794,
    }
    assert set(d) == set(want)
    for k, v in want.items():
        assert abs(d[k] - v) < 1e-9 * max(1.0, abs(v)), k
    # json output is key-sorted
    keys = [line.split('"')[1] for line in out.strip()[1:-1].split(",")]
    assert keys == sorted(keys)


def test_sphere_force_printed_band(capsys):
    rc, out, _ = run(capsys, "sphere-force", "--xi", "1e-2", "--chi", "1",
                     "--json")
    d = json.loads(out)
    assert abs(d["psi"] / 3.4 - 1.0) < 2e-2


def test_sphere_force_tight_tolerance(capsys):
    rc, out, err = run(capsys, "sphere-force", "--xi", "1e-5", "--chi",
                       "1e-3", "--tol", "1e-12", "--json")
    assert rc == 0 and err == ""
    assert abs(json.loads(out)["psi"] / 24692.7390782 - 1.0) < 1e-10


def test_sphere_force_unreachable_tolerance_exits_3(capsys):
    # a numerical failure is reported on stderr, with no partial data
    rc, out, err = run(capsys, "sphere-force", "--xi", "1e-3", "--chi",
                       "1e-3", "--tol", "1e-16", "--json")
    assert rc == 3 and out == ""
    assert err.startswith("numerical failure: tolerance not met")


def test_sphere_force_residual_floor_exits_3(capsys):
    # below the residual's rounding floor the solver stops refining and
    # the message names the floor and the R-intervals over tolerance
    rc, out, err = run(capsys, "sphere-force", "--xi", "1e-3", "--chi",
                       "1e-3", "--tol", "1e-15")
    assert rc == 3 and out == ""
    assert re.fullmatch(r"numerical failure: tolerance not met: .*"
                        r"\(the residual stopped falling\) at a floor of "
                        r"\S+ of scale, with panels over tolerance at R in "
                        r"\[[0-9.e+-]+, [0-9.e+-]+\].*\n", err)


# every plate command below the package's floor xi = 1e-76, where the
# closed forms used to leave double range (from about 1e-88) and fail late
BELOW_THE_FLOOR = [
    ("plate-force", "--xi", "9.9e-77", "--chi", "1"),
    ("plate-force", "--xi", "1e-88", "--chi", "1.4"),
    ("plate-modulus", "--xi", "1e-88", "--chi", "1.4"),
    ("plate-field", "--xi", "1e-88", "--chi", "1.4", "--nr", "2", "--nz",
     "2"),
    ("plate-force", "--xi", "1e-200", "--chi", "1"),
    ("plate-force", "--xi", "1e-103", "--chi", "0", "--json"),
    ("plate-force", "--xi", "1e-103", "--chi", "0.1"),
    ("plate-field", "--xi", "1e-103", "--chi", "0", "--nr", "2", "--nz",
     "2", "--csv"),
    ("plate-force", "--chi", "0.1", "--sweep-xi", "1e-104", "1e-2", "3"),
    ("plate-modulus", "--xi", "1e-104", "--chi", "1"),
    ("plate-force", "--xi", "5e-324", "--chi", "1"),
    ("plate-force", "--xi", "1e-110", "--chi", "0"),
    ("plate-modulus", "--xi", "1e-170", "--chi", "1"),
    ("plate-modulus", "--xi", "1e-165", "--chi", "0"),
    ("compare-plate", "--xi", "1e-170", "--chi", "1"),
    ("plate-field", "--xi", "5e-324", "--chi", "1", "--nr", "2", "--nz",
     "2"),
    ("plate-field", "--xi", "1e-160", "--chi", "0", "--nr", "2", "--nz",
     "2", "--csv"),
    ("regime-classify", "--xi", "9.9e-77", "--chi", "1"),
    ("regime-transitions", "--xi", "9.9e-77"),
]


@pytest.mark.parametrize("argv", BELOW_THE_FLOOR, ids=" ".join)
def test_plate_xi_below_the_floor_exits_2(capsys, argv):
    # below the floor a plate command refuses xi at the door: one error
    # line naming the floor and the value, and no data
    rc, out, err = run(capsys, *argv)
    xi = argv[argv.index("--sweep-xi" if "--sweep-xi" in argv else "--xi")
              + 1]
    assert (rc, out) == (2, "")
    assert err == (f"error: xi must be >= 1e-76, the package's floor, got "
                   f"{float(xi)}\n")


@pytest.mark.parametrize("argv, message", [
    (("plate-field", "--xi", "1e-3", "--chi", "1", "--mu", "1e306", "--nr",
      "2", "--nz", "2", "--csv"),
     "plate field is past double range (xi = 0.001, chi = 1.0)"),
    (("plate-force", "--xi", "1e-3", "--chi", "0", "--mu", "1e200", "--a",
      "1e200"),
     "plate force inf is past double range (xi = 0.001, chi = 0.0)"),
    (("plate-force", "--xi", "1e-3", "--chi", "1", "--mu", "1e200", "--a",
      "1e200"),
     "plate force inf is past double range (xi = 0.001, chi = 1.0)"),
    (("plate-field", "--xi", "1e-3", "--chi", "1.4", "--mu", "1e306", "--nr",
      "2", "--nz", "2"),
     "plate field is past double range (xi = 0.001, chi = 1.4)"),
    (("plate-field", "--xi", "1e-3", "--chi", "0", "--U", "1e306", "--nr",
      "2", "--nz", "2", "--csv"),
     "plate field is past double range (xi = 0.001, chi = 0.0)"),
    (("sphere-force", "--xi", "1e-3", "--chi", "1", "--mu", "1e307"),
     "sphere force inf is past double range (xi = 0.001, chi = 1.0)"),
    (("sphere-force", "--xi", "1e-3", "--chi", "1", "--mu", "1e307",
      "--json"),
     "sphere force inf is past double range (xi = 0.001, chi = 1.0)"),
    (("sphere-field", "--xi", "1e-3", "--chi", "1", "--mu", "1e307", "--nr",
      "2", "--nz", "2", "--csv"),
     "sphere field is past double range (xi = 0.001, chi = 1.0)"),
], ids=["field", "force-prefactor-chi0", "force-prefactor", "field-chi-xi",
        "field-xi2-chi0", "sphere-force", "sphere-force-json",
        "sphere-field"])
def test_overflow_names_function_and_cell(capsys, argv, message):
    # above the floor only the scales take a result past double range:
    # the force and the fields of both layers name it and the cell, with
    # exit 3 and no data, not an inf, null or nan result with exit 0 (nor
    # a numpy warning first, under -W error as in this suite)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == ""
    assert err == f"numerical failure: {message}\n"


def test_profile_self_check_failure_is_one_line(capsys, monkeypatch):
    # the self-check's non-finite path, which only a fault reaches now (a
    # Bessel value made nan here; the scalar edge record keeps the real
    # one), warns nothing: the failure is its one line, with no data
    i0e = plate._sp_special.i0e
    monkeypatch.setattr(plate._sp_special, "i0e", lambda x: (
        np.full_like(x, np.nan) if np.ndim(x) else i0e(x)))
    rc, out, err = run(capsys, "plate-field", "--xi", "0.1", "--chi", "0.1",
                       "--nr", "3", "--nz", "2", "--csv")
    assert rc == 3 and out == ""
    assert err == ("numerical failure: radial profile residual nan exceeds "
                   "1e-12*nan at R = 0.5 (xi = 0.1, chi = 0.1)\n")


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_sphere_force_invalid_tolerance_exits_2(capsys, tol):
    # a tolerance no residual can meet is a usage error, raised before
    # any solve, not a numerical failure (exit 3)
    rc, out, err = run(capsys, "sphere-force", "--xi", "1e-3", "--chi",
                       "1e-3", "--tol", tol, "--json")
    assert rc == 2 and out == ""
    assert "tol must be positive and finite" in err


def test_sphere_force_incompressible_psi_c_is_null(capsys):
    # psi_c diverges as chi -> 0; JSON carries the infinity as null
    rc, out, _ = run(capsys, "sphere-force", "--xi", "1e-2", "--chi", "0",
                     "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["psi_c"] is None and d["psi_i"] == 25.0


def test_regime_transitions_values(capsys):
    rc, out, _ = run(capsys, "regime-transitions", "--geometry", "plate",
                     "--tolerance", "0.1", "--json")
    assert rc == 0
    d = json.loads(out)
    assert abs(d["zeta_c"] - 0.046551301419179576) < 1e-12
    assert abs(d["zeta_i"] - 1.2890092470557954) < 1e-12
    assert abs(d["zeta_c"] - 0.046) < 1e-3
    assert abs(d["zeta_i"] - 1.3) < 5e-2


def test_regime_transitions_nu_window(capsys):
    rc, out, _ = run(capsys, "regime-transitions", "--geometry", "plate",
                     "--tolerance", "0.1", "--xi", "1e-2", "--json")
    d = json.loads(out)
    assert round(d["nu_lo"], 2) == 0.49
    assert round(d["nu_hi"], 5) == 0.49999


@pytest.mark.parametrize("xi", ["nan", "-1", "0.2"])
def test_sphere_regime_transitions_check_xi(capsys, xi):
    # a given --xi goes through the sphere layer's domain check
    msg = (f"error: xi must be positive and <= 0.1 for a sphere layer, "
           f"got {float(xi)}\n")
    assert run(capsys, "regime-transitions", "--geometry", "sphere",
               "--xi", xi) == (2, "", msg)


def test_sphere_regime_transitions_xi_as_classify(capsys):
    # the message regime-classify gives, and an in-domain --xi leaves the
    # constants unchanged
    assert run(capsys, "regime-transitions", "--geometry", "sphere",
               "--xi", "0.2") == run(capsys, "regime-classify", "--geometry",
                                     "sphere", "--xi", "0.2", "--chi", "0.3")
    assert run(capsys, "regime-transitions", "--geometry", "sphere",
               "--xi", "1e-2") == run(capsys, "regime-transitions",
                                      "--geometry", "sphere")


def test_regime_classify(capsys):
    rc, out, _ = run(capsys, "regime-classify", "--geometry", "sphere",
                     "--xi", "1e-4", "--nu", "0.5", "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["regime"] == "incompressible"
    # the sphere thresholds are fixed constants, with no tolerance window:
    # the human report prints n/a where JSON has null
    rc, out, _ = run(capsys, "regime-classify", "--geometry", "sphere",
                     "--xi", "1e-4", "--nu", "0.5")
    report = dict(map(str.strip, line.split(":", 1))
                  for line in out.splitlines())
    assert rc == 0
    assert report["zeta_c"] == report["zeta_i"] == report["tolerance"] == "n/a"


def test_compare_plate_values(capsys):
    rc, out, _ = run(capsys, "compare-plate", "--xi", "1e-3", "--chi", "1",
                     "--json")
    assert rc == 0
    d = json.loads(out)
    assert abs(d["diff_rel"] - 0.0007786859524224131) < 1e-15
    # 2 chi (4 chi^4 - 24 chi^2 + 27) xi / (9 (3 - chi^2)) = 2*7*1e-3/18
    assert abs(d["small_chi_estimate"] - 0.0007777777777777778) < 1e-15
    assert abs(d["magnitude_ratio"] - 1.001167653114531) < 1e-12


# ---------------------------------------------------------------------------
# Golden-table verification
# ---------------------------------------------------------------------------

def test_verify_table4_honest_failures(capsys):
    rc, out, _ = run(capsys, "verify-table4")
    assert rc == 2
    fail_lines = [l for l in out.splitlines()
                  if l.startswith("FAIL psi-vs-printed")]
    assert len(fail_lines) == 6
    # the other comparisons all pass
    assert not any(l.startswith("FAIL psi-vs-fe") for l in out.splitlines())
    assert not any(l.startswith("FAIL psi_i") for l in out.splitlines())
    assert not any(l.startswith("FAIL psi_c") for l in out.splitlines())
    assert "mismatches: 6" in out


def test_verify_table4_json(capsys):
    rc, out, _ = run(capsys, "verify-table4", "--json")
    assert rc == 2
    d = json.loads(out)
    assert d["pass"] is False
    assert len(d["failures"]) == 6
    assert len(d["rows"]) == 88


def test_verify_table4_artifact_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, _, _ = run(capsys, "verify-table4", "--output", str(p1))
    rc2, _, _ = run(capsys, "verify-table4", "--output", str(p2))
    assert rc1 == rc2 == 2
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "xi,chi,quantity,value,source,citation"
    assert len(lines) == 89
    # xi blocks descend; each block leads with the chi = 0 plateau row
    assert lines[1].startswith("0.01,0,psi_i,25,computed")
    assert float(lines[-1].split(",")[0]) == 1e-5
    # every golden row carries the citation text
    golden = [l for l in lines[1:] if ",paper-printed golden," in l]
    assert golden and all("reference table" in l for l in golden)


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

def test_verify_suite_passes(capsys):
    # one line per check, in a fixed order, then the tally and the verdict
    rc, out, _ = run(capsys, "verify-suite")
    assert rc == 0, out
    lines = out.splitlines()
    checks = [("edge-resultant plate", "1e-06"),
              ("edge-resultant sphere", "1e-06"),
              ("dirichlet", "1e-08"),
              ("sphere dual oracle", "1e-08"),
              ("plate force-from-fields", "1e-08"),
              ("sphere force-from-fields", "1e-08")]
    assert len(lines) == len(checks) + 2
    for line, (name, tol) in zip(lines, checks):
        assert re.fullmatch(rf"PASS {name}: worst \d\.\d{{3}}e[+-]\d\d "
                            rf"\(tol {tol}\)", line), line
    assert lines[-2:] == ["properties checked: 5x5 grid; failures: 0",
                          "result: PASS"]


_SUITE = [("dirichlet", 2.5e-15, 1e-08), ("sphere dual oracle", 3e-08, 1e-08)]


@pytest.mark.parametrize("flags", [(), ("--timestamp",), ("--json",),
                                   ("--csv",), ("--format", "json")])
def test_verify_suite_formats(capsys, monkeypatch, flags):
    # the checks as data in JSON and CSV, the report otherwise; a failing
    # property exits 2 whatever the format
    monkeypatch.setattr(cli.verify, "suite", lambda: list(_SUITE))
    rc, out, _ = run(capsys, "verify-suite", *flags)
    assert rc == 2
    checks = [{"name": n, "worst": w, "tol": t, "pass": w <= t}
              for n, w, t in _SUITE]
    if "json" in flags or "--json" in flags:
        assert json.loads(out) == {"pass": False, "checks": checks}
    elif "--csv" in flags:
        assert out.splitlines() == ["name,worst,tol,pass"] + [
            "%s,%.17g,%.17g,%s" % (n, w, t, w <= t) for n, w, t in _SUITE]
    else:
        report = ["PASS dirichlet: worst 2.500e-15 (tol 1e-08)",
                  "FAIL sphere dual oracle: worst 3.000e-08 (tol 1e-08)",
                  "properties checked: 5x5 grid; failures: 1",
                  "result: FAIL"]
        lines = out.splitlines()
        if flags:
            assert lines.pop(0).startswith("generated: ")
        assert lines == report


# ---------------------------------------------------------------------------
# Field emission
# ---------------------------------------------------------------------------

def test_plate_field_csv_round_trip(capsys):
    args = ("plate-field", "--xi", "1e-3", "--nu", "0.3", "--csv",
            "--nr", "7", "--nz", "5")
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "R,Z,u_r,u_z,s_rr,s_tt,s_zz,s_rz"
    assert len(lines) == 1 + 7 * 5
    assert out.endswith("\n")
    # Z varies fastest
    r0 = lines[1].split(",")
    r1 = lines[2].split(",")
    assert r0[0] == r1[0] and r0[1] != r1[1]
    # determinism
    rc2, out2, _ = run(capsys, *args)
    assert out2 == out
    # 17-digit round trip: every column of the parsed file equals the
    # library's field on the same grid bit for bit
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    sol = solve_plate(1e-3, nu=0.3)
    rr, zz = np.meshgrid(np.linspace(0.0, 1.0, 7), np.linspace(-1.0, 1.0, 5),
                         indexing="ij")
    fs = plate_field_eval(sol, rr, zz)
    for j, name in enumerate(lines[0].split(",")):
        assert np.array_equal(data[:, j], np.ravel(getattr(fs, name))), name
    # walls carry the prescribed displacement
    top = data[np.isclose(data[:, 1], 1.0)]
    assert np.all(top[:, 3] == 1.0)


def _per_row_field_csv(fs):
    """The former field emitter, one "%.17g" join per row: the oracle."""
    names = cli._FIELD_HEADER.split(",")
    table = np.stack([getattr(fs, name) for name in names], axis=-1)
    fmt = ",".join(["%.17g"] * len(names))
    lines = [cli._FIELD_HEADER]
    for r_line in table:
        lines.extend(fmt % tuple(row) for row in r_line.tolist())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, xi, chi", [
    ("plate-field", "1e-3", "0"), ("plate-field", "1e-3", "1e-9"),
    ("plate-field", "1e-3", "0.7"), ("sphere-field", "0.1", "0"),
    ("sphere-field", "1e-3", "1e-3"), ("sphere-field", "4.6e-4", "1.2")])
def test_field_csv_matches_per_row_printf(capsys, monkeypatch, command, xi,
                                          chi):
    # AC9: the vectorized emitter prints the bytes of the per-row one
    samples = []
    emit = cli._field_csv
    monkeypatch.setattr(cli, "_field_csv",
                        lambda fs: samples.append(fs) or emit(fs))
    rc, out, _ = run(capsys, command, "--xi", xi, "--chi", chi,
                     "--nr", "401", "--nz", "41", "--csv")
    assert rc == 0 and len(samples) == 1
    assert out == _per_row_field_csv(samples[0])


def test_sphere_field_grid_follows_gap(capsys):
    rc, out, _ = run(capsys, "sphere-field", "--xi", "1e-2", "--chi", "1",
                     "--csv", "--nr", "3", "--nz", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "R,Z,u_r,u_z,s_rr,s_tt,s_zz,s_rz"
    assert len(lines) == 1 + 3 * 3
    last = lines[-1].split(",")
    r_last, z_last = float(last[0]), float(last[1])
    assert abs(r_last - 10.0) < 1e-12
    assert abs(z_last - (1.0 + 0.5 * r_last**2)) < 1e-12
    # the grid is exactly the per-line np.linspace over each gap
    rc, out, _ = run(capsys, "sphere-field", "--xi", "1e-3", "--chi", "1",
                     "--csv", "--nr", "7", "--nz", "5")
    assert rc == 0
    rz = np.array([[float(v) for v in line.split(",")[:2]]
                   for line in out.splitlines()[1:]]).reshape(7, 5, 2)
    r_vals = np.linspace(0.0, 1.0 / math.sqrt(1e-3), 7)
    per_line = np.array([np.linspace(-g, g, 5)
                         for g in 1.0 + 0.5 * r_vals * r_vals])
    assert np.array_equal(rz[:, :, 0], np.repeat(r_vals[:, None], 5, axis=1))
    assert np.array_equal(rz[:, :, 1], per_line)


def test_field_output_to_file(capsys, tmp_path):
    dest = tmp_path / "f.csv"
    rc, out, _ = run(capsys, "plate-field", "--xi", "1e-2", "--chi", "0.5",
                     "--csv", "--nr", "3", "--nz", "3",
                     "--output", str(dest))
    assert rc == 0 and out == ""
    assert dest.read_text().splitlines()[0] == "R,Z,u_r,u_z,s_rr,s_tt,s_zz,s_rz"


def test_output_into_missing_directory_exits_3(capsys, tmp_path):
    dest = tmp_path / "missing" / "out.json"
    rc, out, err = run(capsys, "plate-force", "--xi", "1e-3", "--chi", "0.7",
                       "--json", "--output", str(dest))
    assert rc == 3 and out == ""
    assert err.startswith("i/o failure: ") and not dest.parent.exists()


# ---------------------------------------------------------------------------
# Config files, sweeps, environment
# ---------------------------------------------------------------------------

def test_config_file_fills_missing_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for this rig\nchi = 1.0\nformat = csv\n")
    rc, out, _ = run(capsys, "sphere-force", "--xi", "1e-2",
                     "--config", str(cfg))
    assert rc == 0
    assert out.splitlines()[0].startswith("xi,")
    # explicit flags beat the config
    rc2, out2, _ = run(capsys, "sphere-force", "--xi", "1e-2",
                       "--config", str(cfg), "--json")
    d = json.loads(out2)
    assert d["chi"] == 1.0


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    rc, _, err = run(capsys, "sphere-force", "--xi", "1e-2", "--chi", "1",
                     "--config", str(cfg))
    assert rc == 2 and "error" in err.lower()
    cfg.write_text("chi 1\n")
    rc, _, err = run(capsys, "sphere-force", "--xi", "1e-2",
                     "--config", str(cfg))
    assert rc == 2 and err == "error: config line without '=': 'chi 1'\n"


def test_sweep_is_log_spaced(capsys):
    rc, out, _ = run(capsys, "sphere-force", "--chi", "1",
                     "--sweep-xi", "1e-4", "1e-2", "3", "--csv")
    assert rc == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4
    xs = [float(r.split(",")[0]) for r in rows[1:]]
    assert xs[0] == pytest.approx(1e-4, rel=1e-12)
    assert xs[1] == pytest.approx(1e-3, rel=1e-12)
    assert xs[2] == pytest.approx(1e-2, rel=1e-12)


def test_sweep_validation(capsys):
    rc, _, err = run(capsys, "sphere-force", "--chi", "1",
                     "--sweep-xi", "1e-2", "1e-4", "3")
    assert rc == 2 and "error" in err.lower()


def test_threads_env_is_ignored(capsys, monkeypatch):
    # sweeps run serially; the former LAYERLAB_THREADS knob changes nothing
    argv = ("sphere-force", "--chi", "1", "--sweep-xi", "1e-4", "1e-2", "4",
            "--json")
    monkeypatch.delenv("LAYERLAB_THREADS", raising=False)
    rc, plain, _ = run(capsys, *argv)
    monkeypatch.setenv("LAYERLAB_THREADS", "2")
    rc2, threaded, _ = run(capsys, *argv)
    assert rc == 0 and rc2 == 0
    assert threaded == plain
    d = json.loads(plain)
    assert isinstance(d, list) and len(d) == 4


# ---------------------------------------------------------------------------
# Error statuses and formats
# ---------------------------------------------------------------------------

def test_material_input_errors(capsys):
    rc, _, err = run(capsys, "plate-force", "--xi", "1e-3",
                     "--chi", "1.0", "--nu", "0.3")
    assert rc == 2 and "error" in err.lower()
    rc2, _, err2 = run(capsys, "plate-force", "--xi", "1e-3")
    assert rc2 == 2


@pytest.mark.parametrize("argv, message", [
    (("plate-force", "--chi", "1"), "--xi is required (or --sweep-xi LO HI N)"),
    (("regime-classify", "--chi", "1"), "--xi is required"),
    (("plate-field", "--xi", "1e-3", "--chi", "0.7", "--nr", "1"),
     "--nr and --nz must be >= 2"),
    (("plate-force", "--chi", "1", "--sweep-xi", "1e-3", "1e-2", "2.5"),
     "sweep point count must be an integer >= 2"),
    (("regime-classify", "--geometry", "sphere", "--xi", "0.5", "--chi", "0.3"),
     "xi must be positive and <= 0.1 for a sphere layer, got 0.5"),
    (("plate-field", "--chi", "0.7"), "--xi is required"),
    (("sphere-field", "--nu", "0.3"), "--xi is required"),
    (("plate-force", "--chi", "1", "--sweep-xi", "1e-3", "1e-2", "inf"),
     "sweep point count must be an integer >= 2"),
    (("plate-force", "--chi", "1", "--sweep-xi", "1e-3", "1e-2", "nan"),
     "sweep point count must be an integer >= 2"),
], ids=["force-no-xi", "classify-no-xi", "field-nr", "sweep-count",
        "classify-sphere-xi", "plate-field-no-xi", "sphere-field-no-xi",
        "sweep-count-inf", "sweep-count-nan"])
def test_usage_errors_exit_2(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_domain_errors(capsys):
    rc, _, err = run(capsys, "sphere-force", "--xi", "0.5", "--chi", "1")
    assert rc == 2
    # plate-force takes its force from a PlateSolution, so it shares the
    # field commands' check on the scales
    rc, _, err = run(capsys, "plate-force", "--xi", "1e-2", "--chi", "0.5",
                     "--mu", "-1")
    assert rc == 2 and err == "error: mu must be positive and finite, got -1.0\n"


@pytest.mark.parametrize("argv", [
    ("plate-force", "--a", "nan"), ("plate-force", "--a", "inf"),
    ("plate-force", "--mu", "nan"), ("plate-force", "--mu", "inf"),
    ("plate-force", "--U", "nan"), ("plate-force", "--U", "inf"),
    ("plate-force", "--U=-inf"), ("sphere-force", "--mu", "nan"),
    ("sphere-force", "--U", "inf"), ("plate-field", "--U", "nan"),
    ("sphere-field", "--a", "inf"),
], ids=lambda argv: " ".join(argv))
def test_nonfinite_scales_exit_2(capsys, argv):
    # NaN and infinite scales are usage errors, not a null force or rows
    # of NaN (U = 0 and U < 0 stay legal: see the argv corpus)
    rc, out, err = run(capsys, argv[0], "--xi", "0.1", "--chi", "1",
                       *argv[1:], "--json")
    flag, value = argv[1].split("=") if len(argv) == 2 else argv[1:]
    assert (rc, out) == (2, "")
    # the message names the scale and its value; a and mu must also be
    # positive
    rule = "must be finite" if flag == "--U" else "must be positive and finite"
    assert err == f"error: {flag[2:]} {rule}, got {float(value)}\n"


@pytest.mark.parametrize("base, flag, value", [
    (("plate-force", "--xi", "0.1", "--chi", "1"), "--U", "-1e-3"),
    (("plate-force", "--xi", "0.1"), "--nu", "-3e-1"),
    (("plate-force", "--xi", "0.1", "--chi", "1", "--json"), "--U", "-2.5E+0"),
    (("sphere-force", "--xi", "1e-2", "--chi", "1", "--csv"), "--U", "-1e-3"),
    (("plate-force", "--chi", "1"), "--xi", "-1e-3"),
    (("plate-force", "--xi", "0.1"), "--chi", "-nan"),
    (("plate-force", "--xi", "0.1", "--chi", "1"), "--mu", "-inf"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_negative_numbers_in_any_float_spelling_are_values(capsys, base,
                                                           flag, value):
    # a value led by '-' that parses as a float is the flag's value, as
    # argparse already reads -1 and -0.5: the bytes of the flag=value form
    spaced = run(capsys, *base, flag, value)
    assert "expected one argument" not in spaced[2]
    assert spaced == run(capsys, *base, f"{flag}={value}")


def test_negative_infinite_scale_exits_2_and_a_word_stays_an_option(capsys):
    rc, out, err = run(capsys, "plate-force", "--xi", "0.1", "--chi", "1",
                       "--U", "-inf")
    assert (rc, out, err) == (2, "", "error: U must be finite, got -inf\n")
    rc, out, err = run(capsys, "plate-force", "--xi", "0.1", "--chi", "1",
                       "--U", "-x")
    assert (rc, out) == (2, "")
    assert err.endswith("error: argument --U: expected one argument\n")
    rc, out, err = run(capsys, "plate-force", "--chi", "1", "--sweep-xi",
                       "-1e-3", "1e-2", "3")
    assert (rc, out, err) == (2, "", "error: sweep range must satisfy "
                                     "0 < lo < hi\n")


def test_consistent_nu_chi_pair_accepted(capsys):
    chi = math.sqrt(3.0 * 0.5 / (2.0 * 0.75))  # chi(nu = 0.25) = 1
    rc, out, _ = run(capsys, "sphere-force", "--xi", "1e-2",
                     "--chi", repr(chi), "--nu", "0.25", "--json")
    assert rc == 0


def test_format_validation(capsys):
    rc, _, err = run(capsys, "plate-force", "--xi", "1e-3", "--chi", "1",
                     "--format", "yaml")
    assert rc == 2


@pytest.mark.parametrize("flags, fmt", [
    (["--json", "--format", "csv"], "json"),
    (["--csv", "--json"], "csv"),
    (["--format", "json", "--csv"], "csv"),
    (["--format", "csv", "--json"], "json"),
])
def test_format_shorthands_override_format(capsys, flags, fmt):
    # --json and --csv win over --format wherever they stand, and --csv
    # over --json
    rc, out, _ = run(capsys, "regime-transitions", "--geometry", "sphere",
                     *flags)
    assert rc == 0
    if fmt == "json":
        assert json.loads(out)["geometry"] == "sphere"
    else:
        assert out.splitlines()[0].startswith("geometry,zeta_bar")


def test_config_format_is_validated(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = yaml\n")
    rc, out, err = run(capsys, "regime-transitions", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert "unknown format 'yaml'" in err


@pytest.mark.parametrize("command", [
    ("regime-transitions",),
    ("regime-classify", "--xi", "1e-3", "--chi", "0.5"),
], ids=lambda command: command[0])
def test_config_values_are_checked_by_their_options(capsys, tmp_path,
                                                    command):
    # a config value meets its option's own type and choices, as on the
    # command line: geometry = spheres is rejected, not run as a sphere
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = spheres\n")
    argv = [*command, "--config", str(cfg)]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: unknown geometry 'spheres'\n")
    rc, _, err = run(capsys, *command, "--geometry", "spheres")
    assert rc == 2 and "invalid choice: 'spheres'" in err
    # and a bad value fails even where a flag overrides it
    cfg.write_text("format = yaml\n")
    rc, out, err = run(capsys, *argv, "--json")
    assert (rc, out, err) == (2, "", "error: unknown format 'yaml'\n")
    cfg.write_text("nr = 1.5\n")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "") and "invalid literal for int()" in err


def test_config_values_stay_in_their_call(capsys, tmp_path):
    # a value a config file fills in is not a default of the next call
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 0.2\nformat = json\n")
    rc, out, _ = run(capsys, "regime-transitions", "--config", str(cfg))
    assert rc == 0 and json.loads(out)["tolerance"] == 0.2
    rc, out, _ = run(capsys, "regime-transitions", "--json")
    assert rc == 0 and json.loads(out)["tolerance"] == 0.1


def test_parser_is_reused_and_calls_stay_apart(capsys, tmp_path):
    # one parser serves every call; what a call sets (format, output
    # path, config values) and a usage error leave the next call as if
    # it ran first
    assert _build_parser() is _build_parser()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 0.2\nformat = json\n")
    path = tmp_path / "out.csv"
    fresh = run(capsys, "regime-transitions", "--xi", "1e-2")
    assert fresh[0] == 0 and "tolerance: 0.1" in fresh[1]
    rc, out, _ = run(capsys, "regime-transitions", "--config", str(cfg))
    assert rc == 0 and json.loads(out)["tolerance"] == 0.2
    rc, out, _ = run(capsys, "regime-transitions", "--xi", "1e-2", "--csv",
                     "--output", str(path))
    assert (rc, out) == (0, "") and path.read_text().startswith("geometry,")
    rc, out, err = run(capsys, "regime-transitions", "--tolerance", "x")
    assert rc == 2 and out == "" and "invalid float value" in err
    assert run(capsys, "regime-transitions", "--xi", "1e-2") == fresh
    rc, out, _ = run(capsys, "regime-transitions", "--json")
    assert rc == 0 and json.loads(out)["tolerance"] == 0.1
    assert run(capsys, "regime-transitions", "--xi", "1e-2") == fresh


# Each command's long options and the value each resolves to when it is
# not given (after the config merge)
_XI = {"--xi": None}
_MATERIAL = {"--chi": None, "--nu": None}
_SCALE = {"--mu": 1.0, "--a": 1.0, "--U": 1.0}
_SWEEP = {"--sweep-xi": None}
_OUTPUT = {"--format": "human", "--json": False, "--csv": False,
           "--output": None, "--config": None, "--timestamp": False}
_TOL = {"--tol": 1e-10}
_GRID = {"--nr": 41, "--nz": 21}
_REGIME = {"--geometry": "plate", "--tolerance": 0.1}
_COMMAND_OPTIONS = {
    "plate-force": {**_XI, **_MATERIAL, **_SCALE, **_SWEEP, **_OUTPUT},
    "plate-modulus": {**_XI, **_MATERIAL, **_SWEEP, **_OUTPUT},
    "plate-field": {**_XI, **_MATERIAL, **_SCALE, **_OUTPUT, **_GRID},
    "sphere-force": {**_XI, **_MATERIAL, **_SCALE, **_SWEEP, **_OUTPUT,
                     **_TOL},
    "sphere-field": {**_XI, **_MATERIAL, **_SCALE, **_OUTPUT, **_TOL,
                     **_GRID},
    "regime-classify": {**_XI, **_MATERIAL, **_OUTPUT, **_REGIME},
    "regime-transitions": {**_XI, **_OUTPUT, **_REGIME},
    "compare-plate": {**_XI, **_MATERIAL, **_SWEEP, **_OUTPUT},
    "verify-table4": _OUTPUT,
    "verify-suite": _OUTPUT,
}


@pytest.mark.parametrize("command", sorted(_COMMAND_OPTIONS))
def test_command_options_and_defaults(command):
    ap = _build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_COMMAND_OPTIONS)
    want = _COMMAND_OPTIONS[command]
    flags = {s for a in sub.choices[command]._actions
             for s in a.option_strings if s.startswith("--")}
    assert flags - {"--help"} == set(want)
    args = ap.parse_args([command])
    _finalize(args)
    got = {f: getattr(args, f[2:].replace("-", "_")) for f in want}
    assert got == want
    assert set(vars(args)) == {f[2:].replace("-", "_") for f in want} \
        | {"command", "func"}


def test_timestamp_only_in_human_reports(capsys):
    rc, out, _ = run(capsys, "sphere-force", "--xi", "1e-2", "--chi", "1",
                     "--timestamp")
    assert rc == 0 and "generated" in out
    # data formats never carry a clock, flag or not
    rc1, out1, _ = run(capsys, "sphere-force", "--xi", "1e-2", "--chi", "1",
                       "--json", "--timestamp")
    rc2, out2, _ = run(capsys, "sphere-force", "--xi", "1e-2", "--chi", "1",
                       "--json")
    assert out1 == out2


def test_python_m_layerlab_matches_in_process(capsys):
    # the package runs as a module: the same bytes on stdout and stderr,
    # and the same exit status, as cli.main in process
    argv = ["regime-classify", "--geometry", "sphere", "--xi", "1e-3",
            "--chi", "0.5", "--json"]
    rc, out, err = run(capsys, *argv)
    src = os.path.dirname(os.path.dirname(layerlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "layerlab", *argv],
                          capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (rc, out.encode(), err.encode())
    assert rc == 0 and out


_LAZY_SCIPY_CHECK = """
import sys
from layerlab import cli, kernels
assert cli.main(["regime-transitions"]) == 0
assert cli.main(["regime-classify", "--geometry", "plate", "--xi", "1e-2",
                 "--chi", "0.3"]) == 0
loaded = [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]
assert not loaded, loaded
assert "scipy.special" in sys.modules and "scipy.linalg" in sys.modules
q = kernels.integrate(lambda x: x * x, 0.0, 1.0)
assert abs(q.value - 1.0 / 3.0) < 1e-15, q
assert "scipy.integrate" in sys.modules
"""


def test_fresh_process_leaves_optimize_and_integrate_unloaded():
    # in a fresh interpreter, the CLI and a plate classify (root finding
    # included) load neither scipy.optimize nor scipy.integrate; quadrature
    # still works, and loads scipy.integrate on call
    src = os.path.dirname(os.path.dirname(layerlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY_CHECK],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
