"""Command-line harness: output formats, golden-table verification,
determinism, config merging, and error statuses.

The verify-table4 command intentionally exits 2: six cells of the
published force-factor row sit between the asked 2% and the table's own
two-significant-digit resolution (see README).  The tests assert that
honest outcome.
"""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import layerlab
from layerlab import plate
from layerlab.cli import main
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


def test_regime_classify(capsys):
    rc, out, _ = run(capsys, "regime-classify", "--geometry", "sphere",
                     "--xi", "1e-4", "--nu", "0.5", "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["regime"] == "incompressible"


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
              ("plate force-from-fields", "1e-08")]
    assert len(lines) == len(checks) + 2
    for line, (name, tol) in zip(lines, checks):
        assert re.fullmatch(rf"PASS {name}: worst \d\.\d{{3}}e[+-]\d\d "
                            rf"\(tol {tol}\)", line), line
    assert lines[-2:] == ["properties checked: 5x5 grid; failures: 0",
                          "result: PASS"]


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


def test_domain_errors(capsys):
    rc, _, err = run(capsys, "sphere-force", "--xi", "0.5", "--chi", "1")
    assert rc == 2
    # plate-force takes its force from a PlateSolution, so it shares the
    # field commands' check on the scales
    rc, _, err = run(capsys, "plate-force", "--xi", "1e-2", "--chi", "0.5",
                     "--mu", "-1")
    assert rc == 2 and "must all be positive" in err


def test_consistent_nu_chi_pair_accepted(capsys):
    chi = math.sqrt(3.0 * 0.5 / (2.0 * 0.75))  # chi(nu = 0.25) = 1
    rc, out, _ = run(capsys, "sphere-force", "--xi", "1e-2",
                     "--chi", repr(chi), "--nu", "0.25", "--json")
    assert rc == 0


def test_format_validation(capsys):
    rc, _, err = run(capsys, "plate-force", "--xi", "1e-3", "--chi", "1",
                     "--format", "yaml")
    assert rc == 2


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
