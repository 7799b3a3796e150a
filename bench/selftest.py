"""Tests of the benchmark itself (not collected by the package's suite):

    python3 -m pytest -q bench/selftest.py

Every check must fire on a perturbed output, the benchmark's own
quadratures must reproduce the chi = 0 closed forms, and a short run of
every workload must end with no failed op.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from layerlab import plate, regimes, series, sphere  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def anchor():
    return sphere.solve_sphere(1e-2, 0.0)


@pytest.fixture(scope="module")
def cheap():
    return sphere.solve_sphere(0.1, 1.4)


def bump(x, rel=1e-6):
    return x * (1.0 + rel)


# -- the benchmark's own quadratures ----------------------------------------

def test_quadrature_reproduces_chi0_forces(anchor):
    for trace in ("midplane", "surface"):
        got = checks.psi_from_fields(anchor, trace)
        assert abs(got / checks.psi_chi0(1e-2, trace) - 1.0) < 1e-11


def test_quadrature_reproduces_chi0_potential(anchor):
    r = np.linspace(0.0, anchor.geo.r_edge, 37)
    got = checks.a1_integral(anchor, r)
    assert checks.relerr(got, 0.75 * np.log((r * r + 2.0) / 2.0)) < 1e-11


# -- every check fires on a perturbed output --------------------------------

def test_sphere_solve_checks_fire(cheap, anchor):
    psi = sphere.sphere_force(cheap).psi
    assert checks.check_sphere_solve(cheap, psi) is None
    assert checks.check_sphere_solve(cheap, bump(psi)) is not None
    psi0 = sphere.sphere_force(anchor).psi
    assert checks.check_sphere_solve(anchor, psi0) is None
    # closed form and Psi <= Psi(chi = 0), each on its own
    assert "closed form" in checks.check_sphere_solve(anchor, bump(psi0, 2e-9))
    table = sphere.solve_sphere(1e-2, 1.0)
    psi_t = sphere.sphere_force(table).psi
    assert checks.check_sphere_solve(table, psi_t, fe=3.4) is None
    assert checks.check_sphere_solve(table, psi_t, fe=3.4 * 1.06) is not None


def test_ceiling_check_fires(monkeypatch, cheap):
    psi = sphere.sphere_force(cheap).psi
    # a ceiling below the computed Psi must fail the Psi <= Psi(chi = 0) check
    monkeypatch.setattr(checks, "psi_chi0", lambda xi, trace="midplane": psi / (1 + 1e-6))
    assert "exceeds" in checks.check_sphere_solve(cheap, psi)


def test_dirichlet_check_fires(cheap):
    r = np.linspace(0.0, cheap.geo.r_edge, 11)
    g = 1.0 + 0.5 * r * r
    fs = sphere.sphere_field(cheap, np.concatenate([r, r]), np.concatenate([g, -g]))
    walls = np.ones(22, dtype=bool)
    assert checks.check_dirichlet(fs, walls) is None
    uz = fs.u_z.copy()
    uz[3] += 1e-7
    assert checks.check_dirichlet(dataclasses.replace(fs, u_z=uz), walls) is not None
    ur = fs.u_r.copy()
    ur[5] = 1e-300
    assert checks.check_dirichlet(dataclasses.replace(fs, u_r=ur), walls) is not None


def test_theta_check_fires():
    xi = 0.1
    theta = series.solve_theta(xi)
    sol = sphere.solve_sphere(xi, math.sqrt(3.0 * xi))
    assert checks.check_theta(theta, sol) is None
    radial = dataclasses.replace(theta.Theta, eval=lambda r: tuple(
        bump(v) for v in theta.Theta.eval(r)))
    assert checks.check_theta(dataclasses.replace(theta, Theta=radial), sol) is not None


def test_potential_check_fires(cheap, anchor):
    for sol in (cheap, anchor):
        r = np.linspace(0.0, sol.geo.r_edge, 9)
        pot = sphere.sphere_potential(sol, r, 0.0)
        assert checks.check_potential(sol, pot, r) is None
        bad = dataclasses.replace(pot, phi_z=bump(pot.phi_z))
        assert checks.check_potential(sol, bad, r) is not None


def _plate_op(xi, chi):
    r = np.concatenate(([0.0, 1.0], np.linspace(0.01, 0.99, 50)))
    sol = plate.solve_plate(xi, chi=chi)
    return sol, plate.field(sol, r[:, None], workloads.PLATE_Z[None, :]), plate.force(sol), r


@pytest.mark.parametrize("xi, chi", [(1e-3, 0.5), (0.02, 0.03), (0.05, 0.0), (1e-3, 1e-12)])
def test_plate_field_checks_fire(xi, chi):
    sol, fs, force, r = _plate_op(xi, chi)
    z = workloads.PLATE_Z
    assert checks.check_plate_field(sol, fs, force, r, z) is None
    assert checks.check_plate_field(sol, fs, bump(force), r, z) is not None
    uz = fs.u_z.copy()
    uz[4, -1] = np.nextafter(uz[4, -1], 2.0)
    assert checks.check_plate_field(sol, dataclasses.replace(fs, u_z=uz), force, r, z)
    szz = fs.s_zz.copy()
    szz[7, -1] *= 1.0 + 1e-10
    assert checks.check_plate_field(sol, dataclasses.replace(fs, s_zz=szz), force, r, z)
    srr = fs.s_rr.copy()
    srr[1, 3] += 1e-6 * np.max(np.abs(fs.s_rz[1]) + np.abs(fs.s_rr[1]))
    assert checks.check_plate_field(sol, dataclasses.replace(fs, s_rr=srr), force, r, z)


def test_transition_checks_fire():
    tau, xi = 0.17, 3e-3
    zc, zi = regimes.plate_transitions(tau)
    lo, hi = regimes.nu_intermediate_window(xi, tau)
    assert checks.check_transitions(tau, xi, zc, zi, lo, hi) is None
    assert checks.check_transitions(tau, xi, bump(zc, 1e-8), zi, lo, hi) is not None
    assert checks.check_transitions(tau, xi, zc, bump(zi, 1e-8), lo, hi) is not None
    assert checks.check_transitions(tau, xi, zc, zi, lo + 1e-10, hi) is not None


@pytest.mark.parametrize("chi", [0.8, 0.02, 0.0])
def test_sweep_checks_fire(chi):
    xis = 0.01 * np.geomspace(1.0 / 3.0, 3.0, 6)
    rows = [(plate.force_factor(float(x), chi), plate.apparent_modulus(float(x), chi),
             regimes.classify("plate", float(x), chi=chi)) for x in xis]
    zc, zi = regimes.plate_transitions(0.10)
    assert checks.check_sweep(xis, chi, rows, zc, zi) is None
    g, mod, rep = rows[2]
    for broken in ((bump(g, 1e-9), mod, rep),
                   (g, mod._replace(e_hat=bump(mod.e_hat, 1e-9)), rep),
                   (g, mod._replace(e_hat_l=bump(mod.e_hat_l, 1e-9)), rep),
                   (g, mod, dataclasses.replace(rep, label="compressible"
                                                if rep.label != "compressible" else "intermediate"))):
        assert checks.check_sweep(xis, chi, rows[:2] + [broken] + rows[3:], zc, zi) is not None


def test_cli_checks_fire():
    wl = workloads.WORKLOADS["cli_artifacts"]
    ops = wl.plan(np.random.default_rng(5), 1)
    ctx = wl.setup(ops)
    for op in ops:
        out = wl.run(op, ctx)
        assert wl.check(op, out, ctx) is None, op.args
        text = out[1]
        # one changed byte: a digit inside the first number printed
        i = next(i for i in range(1, len(text)) if text[i].isdigit() and text[i - 1].isdigit())
        changed = text[:i] + ("7" if text[i] != "7" else "3") + text[i + 1:]
        assert workloads.check_cli_output(list(op.args), changed) is not None, op.args
        # a different output for an argv seen before, and a failed exit
        assert wl.check(op, (0, changed), ctx) is not None
        assert wl.check(op, (2, text), ctx) is not None


# -- short runs through the command ------------------------------------------

def _run(workload, seconds, trace=0):
    root = BENCH.parent
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sphere_solve", "sphere_post", "plate_eval", "cli_artifacts"])
def test_short_run_has_no_failed_op(workload):
    out = _run(workload, 1)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = _run("plate_eval", 1, trace=1)
    assert out["correct"] and out["failed"] == 0
    names = set(tracing.metric_names()) | {"trace.overhead_pct"}
    assert set(out["metrics"]) == names
    for name in ("kernels.bessel_ratio.calls", "plate.radial_eval.points", "plate.field.calls",
                 "kernels.find_root.calls", "regimes.classify.calls"):
        assert out["metrics"][name]["value"] > 0
    assert (BENCH / "out" / "spans_plate_eval_seed3.npz").is_file()


def test_percentiles_agree_with_order_statistics_on_large_runs():
    rng = np.random.default_rng(0)
    lat = list(rng.lognormal(0.0, 0.5, 2000))
    for p in (0.5, 0.9):
        assert abs(run.hd_quantile(lat, p) / np.quantile(lat, p) - 1.0) < 0.01
    assert run.hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names() + ["trace.overhead_pct"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text((BENCH / "run.py").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "plate_eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
