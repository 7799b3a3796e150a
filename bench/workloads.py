"""The benchmark's four workloads.

Each workload turns the seed into a fixed list of ops (``plan``), fills
whatever the ops share (``setup``), runs one op (``run``) and checks its
output (``check``).  A run is a whole number of rounds; every round holds
the same kinds of op in the same numbers, so the work of a run hardly
depends on the seed.  Library functions are always called through their
modules (``sphere.solve_sphere``), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from typing import NamedTuple

import numpy as np

from layerlab import cli, materials, plate, regimes, series, sphere

import checks


class Op(NamedTuple):
    kind: str
    args: tuple


class Workload:
    """``round_s`` is the nominal op time of one round on the reference
    host; a run of ``seconds`` holds ``rounds(seconds)`` rounds."""

    round_s: float
    min_rounds = 1

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.round_s))

    def setup(self, ops):
        return {}


def _logu(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _shuffled(rng, items) -> list:
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# sphere_solve: cold solves, each ending in a force
# ---------------------------------------------------------------------------

def solve_is_heavy(xi: float, chi: float) -> bool:
    """Cost class of a cold sphere solve, used only to stratify the op
    sample: small chi/sqrt(xi) (and the extreme chi/sqrt(xi) > 250)
    refine to ~1100 panels, the rest to 140-740."""
    k = chi / math.sqrt(xi)
    return xi < 0.05 and (k < 4.0 or k > 250.0)


def sphere_population() -> list[tuple[float, float, float | None]]:
    """Fixed cells (xi, chi, printed finite-element value or None): the
    table cells, the verify-suite 5x5 grid without the table's cells, and
    the chi = 0 anchors."""
    cells = [(xi, chi, checks.TABLE_FE[chi][i])
             for chi in checks.TABLE_CHI for i, xi in enumerate(checks.TABLE_XI)]
    table = {(xi, chi) for xi, chi, _ in cells}
    for xi in np.geomspace(1e-4, 1e-1, 5):
        for chi in np.geomspace(1e-3, 1.4, 5):
            if (float(xi), float(chi)) not in table:
                cells.append((float(xi), float(chi), None))
    cells += [(1e-3, 0.0, None), (1e-2, 0.0, None)]
    return cells


class SphereSolve(Workload):
    """Per round: one Theta op, three heavy and one light fixed cell, one
    heavy and one light seeded draw (xi in [1e-5, 1e-1], chi in
    [1e-3, 1.5], both log-uniform)."""

    name = "sphere_solve"
    round_s = 6.5
    # From three rounds on, the 90th percentile is a Theta op, not a value
    # interpolated between the heavy solves and the Theta ops.
    min_rounds = 3

    per_round = {True: 3, False: 1}  # fixed cells per round, by cost class

    def plan(self, rng, rounds: int) -> list[Op]:
        fixed = {True: [], False: []}
        for c in _shuffled(rng, sphere_population()):
            fixed[solve_is_heavy(c[0], c[1])].append(c)
        # one draw per class per round, plus spares for when a class runs
        # out of fixed cells (runs longer than about a minute)
        draws = {True: [], False: []}
        while any(len(draws[h]) < rounds * (1 + self.per_round[h]) for h in draws):
            xi, chi = _logu(rng, 1e-5, 1e-1), _logu(rng, 1e-3, 1.5)
            draws[solve_is_heavy(xi, chi)].append((xi, chi, None))
        seq = {h: fixed[h] + draws[h][rounds:] for h in draws}
        theta_xis = _shuffled(rng, [1e-3, 1e-2])
        theta_xis += [_logu(rng, 1e-4, 1e-2) for _ in range(rounds - 2)]
        ops = []
        for r in range(rounds):
            round_ops = [Op("theta", (theta_xis[r],))]
            for h, n in self.per_round.items():
                round_ops.append(Op("solve", draws[h][r]))
                round_ops += [Op("solve", seq[h][r * n + j]) for j in range(n)]
            ops += _shuffled(rng, round_ops)
        return ops

    def run(self, op: Op, ctx):
        if op.kind == "theta":
            xi = op.args[0]
            theta = series.solve_theta(xi)
            sol = sphere.solve_sphere(xi, math.sqrt(3.0 * xi))
            return sol, sphere.sphere_force(sol).psi, theta
        xi, chi, _ = op.args
        sol = sphere.solve_sphere(xi, chi)
        return sol, sphere.sphere_force(sol).psi, None

    def check(self, op: Op, out, ctx):
        sol, psi, theta = out
        fe = op.args[2] if op.kind == "solve" else None
        bad = checks.check_sphere_solve(sol, psi, fe)
        if bad is None and theta is not None:
            bad = checks.check_theta(theta, sol)
        return bad


# ---------------------------------------------------------------------------
# sphere_post: force, field and potential on cached solutions
# ---------------------------------------------------------------------------

POST_SOLUTIONS = ((1e-2, 0.0), (1e-3, 1.0), (1e-2, 1.0), (1e-4, 0.3))


class SpherePost(Workload):
    """Per round, on each of the four cached solutions: one potential on
    51 radii, 18 force calls with each trace, 196 fields on 1001 x 41
    grids.  The three functions take comparable shares of the time, and
    the 90th percentile falls in the middle of one solution's force
    calls rather than between two."""

    name = "sphere_post"
    round_s = 19.0
    force_repeats = 18
    field_calls = 196
    field_nr, field_nz = 1001, 41
    potential_radii = 51

    def plan(self, rng, rounds: int) -> list[Op]:
        ops = []
        for _ in range(rounds):
            round_ops = []
            for i, (xi, _) in enumerate(POST_SOLUTIONS):
                re = 1.0 / math.sqrt(xi)
                radii = np.sort(np.concatenate(
                    ([0.0, re], rng.uniform(0.0, re, self.potential_radii - 2))))
                round_ops.append(Op("potential", (i, radii)))
                for trace in ("midplane", "surface"):
                    round_ops += [Op("force", (i, trace))] * self.force_repeats
                for _ in range(self.field_calls):
                    r = np.sort(np.concatenate(
                        ([0.0, re], rng.uniform(0.0, re, self.field_nr - 2))))
                    zf = np.sort(np.concatenate(
                        ([-1.0, 1.0], rng.uniform(-1.0, 1.0, self.field_nz - 2))))
                    round_ops.append(Op("field", (i, r, zf)))
            ops += _shuffled(rng, round_ops)
        return ops

    def setup(self, ops):
        return {"sols": [sphere.solve_sphere(xi, chi) for xi, chi in POST_SOLUTIONS],
                "psi": {}}

    def run(self, op: Op, ctx):
        sol = ctx["sols"][op.args[0]]
        if op.kind == "force":
            return sphere.sphere_force(sol, trace=op.args[1]).psi
        if op.kind == "field":
            _, r, zf = op.args
            g = 1.0 + 0.5 * r * r
            return sphere.sphere_field(sol, r[:, None], g[:, None] * zf[None, :])
        return sphere.sphere_potential(sol, op.args[1], 0.0)

    def check(self, op: Op, out, ctx):
        i = op.args[0]
        sol = ctx["sols"][i]
        if op.kind == "force":
            trace = op.args[1]
            if (i, trace) not in ctx["psi"]:
                ctx["psi"][i, trace] = checks.psi_from_fields(sol, trace)
            ref = ctx["psi"][i, trace]
            if abs(out - ref) > 1e-8 * abs(ref):
                return f"{trace} psi {out!r} differs from force-from-fields {ref!r}"
            if sol.chi == 0.0:
                closed = checks.psi_chi0(sol.xi, trace)
                if abs(out / closed - 1.0) > 1e-9:
                    return f"{trace} psi {out!r} misses the chi = 0 closed form {closed!r}"
            return None
        if op.kind == "field":
            walls = np.broadcast_to(np.abs(op.args[2]) == 1.0, out.u_z.shape)
            return checks.check_dirichlet(out, walls, sol.cfg.U)
        return checks.check_potential(sol, out, op.args[1])


# ---------------------------------------------------------------------------
# plate_eval: the plate closed forms through the library
# ---------------------------------------------------------------------------

# (name, zeta range) with zeta = xi/chi and x = chi/xi = 1/zeta.  The
# incompressible range stops at zeta = 4, where the radial potential still
# holds 1e-12 (it loses digits as chi/xi -> 0; see CHANGES.md).
PLATE_STRATA = (
    ("compressible", 2e-3, 0.04),
    ("intermediate, x >= 2", 0.05, 0.5),
    ("intermediate, x < 2", 0.5, 1.25),
    ("incompressible", 1.35, 4.0),
    ("chi below 1e-10", None, None),
)


def plate_point(rng, stratum) -> tuple[float, float]:
    _, lo, hi = stratum
    if lo is None:
        xi = _logu(rng, 1e-4, 0.1)
        return xi, (0.0 if rng.random() < 0.5 else _logu(rng, 1e-14, 1e-11))
    zeta = _logu(rng, lo, hi)
    xi = _logu(rng, 1e-4, min(0.1, 1.4 * zeta))
    return xi, xi / zeta


PLATE_Z = np.concatenate(([-1.0], np.polynomial.legendre.leggauss(8)[0], [1.0]))


class PlateEval(Workload):
    """Per round: a dense field and a scalar sweep in each of the five
    strata, and two transition solves at fresh tolerances."""

    name = "plate_eval"
    round_s = 0.14
    field_nr = 3000
    sweep_n = 24

    def plan(self, rng, rounds: int) -> list[Op]:
        ops = []
        for _ in range(rounds):
            round_ops = []
            for stratum in PLATE_STRATA:
                xi, chi = plate_point(rng, stratum)
                r = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, self.field_nr - 2))))
                round_ops.append(Op("field", (xi, chi, r)))
                xi, chi = plate_point(rng, stratum)
                xis = xi * np.geomspace(1.0 / 3.0, 3.0, self.sweep_n)
                round_ops.append(Op("sweep", (xis, chi)))
            for _ in range(2):
                round_ops.append(Op("transitions", (_logu(rng, 0.02, 0.5), _logu(rng, 1e-4, 0.1))))
            ops += _shuffled(rng, round_ops)
        return ops

    def run(self, op: Op, ctx):
        if op.kind == "field":
            xi, chi, r = op.args
            sol = plate.solve_plate(xi, chi=chi)
            fs = plate.field(sol, r[:, None], PLATE_Z[None, :])
            return sol, fs, plate.force(sol)
        if op.kind == "sweep":
            xis, chi = op.args
            return [(plate.force_factor(float(x), chi), plate.apparent_modulus(float(x), chi),
                     regimes.classify("plate", float(x), chi=chi)) for x in xis]
        tau, xi = op.args
        zc, zi = regimes.plate_transitions(tau)
        return (zc, zi) + tuple(regimes.nu_intermediate_window(xi, tau))

    def _default_transitions(self, ctx):
        if "tr" not in ctx:
            zc, zi = regimes.plate_transitions(0.10)
            lo, hi = regimes.nu_intermediate_window(0.01, 0.10)
            ctx["tr"] = (zc, zi, checks.check_transitions(0.10, 0.01, zc, zi, lo, hi))
        return ctx["tr"]

    def check(self, op: Op, out, ctx):
        if op.kind == "field":
            sol, fs, force = out
            return checks.check_plate_field(sol, fs, force, op.args[2], PLATE_Z)
        if op.kind == "sweep":
            zc, zi, bad = self._default_transitions(ctx)
            return bad or checks.check_sweep(op.args[0], op.args[1], out, zc, zi)
        tau, xi = op.args
        return checks.check_transitions(tau, xi, *out)


# ---------------------------------------------------------------------------
# cli_artifacts: the user-facing commands, in process
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``layerlab <argv>`` in this process with stdout kept in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


FIELD_COLUMNS = ("R", "Z", "u_r", "u_z", "s_rr", "s_tt", "s_zz", "s_rz")


def _field_table(text: str) -> np.ndarray:
    lines = text.splitlines()
    if lines[0] != ",".join(FIELD_COLUMNS):
        raise ValueError(f"unexpected field header {lines[0]!r}")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _flag(argv: list[str], name: str, k: int = 1) -> float:
    return float(argv[argv.index(name) + k])


def _check_field_csv(argv: list[str], text: str) -> str | None:
    """Field CSV against the library's field on the same grid, bit for
    bit, and its wall rows against the Dirichlet data."""
    table = _field_table(text)
    xi, chi = _flag(argv, "--xi"), _flag(argv, "--chi")
    nr, nz = int(_flag(argv, "--nr")), int(_flag(argv, "--nz"))
    if argv[0] == "plate-field":
        sol = plate.solve_plate(xi, chi=chi)
        r = np.linspace(0.0, 1.0, nr)
        z = np.tile(np.linspace(-1.0, 1.0, nz), (nr, 1))
        fs = plate.field(sol, r[:, None] + 0.0 * z, z)
    else:
        sol = sphere.solve_sphere(xi, chi)
        r = np.linspace(0.0, sol.geo.r_edge, nr)
        z = np.array([np.linspace(-(1.0 + 0.5 * rv * rv), 1.0 + 0.5 * rv * rv, nz) for rv in r])
        fs = sphere.sphere_field(sol, r[:, None] + 0.0 * z, z)
    for j, name in enumerate(FIELD_COLUMNS):
        if not np.array_equal(table[:, j], np.asarray(getattr(fs, name)).ravel()):
            return f"{argv[0]} column {name} differs from the library's values"
    walls = np.zeros(z.shape, dtype=bool)
    walls[:, [0, -1]] = True
    return checks.check_dirichlet(fs, walls, sol.cfg.U)


def _expected_rows(argv: list[str]) -> list[dict]:
    """The rows a scalar command must print, from the library."""
    cmd = argv[0]
    if cmd == "regime-classify":
        rep = regimes.classify(argv[argv.index("--geometry") + 1], _flag(argv, "--xi"),
                               chi=_flag(argv, "--chi"))
        return [{"geometry": rep.geometry, "xi": rep.xi, "chi": rep.chi,
                 "nu": materials.nu_from_chi(rep.chi), "regime": rep.label, "zeta": rep.zeta,
                 "zeta_bar": rep.zeta_bar, "zeta_tilde": rep.zeta_tilde, "zeta_c": rep.zeta_c,
                 "zeta_i": rep.zeta_i, "tolerance": rep.tolerance}]
    if cmd == "regime-transitions":
        xi, tau = _flag(argv, "--xi"), _flag(argv, "--tolerance")
        tr = regimes.plate_transitions(tau)
        lo, hi = regimes.nu_intermediate_window(xi, tau)
        return [{"geometry": "plate", "tolerance": tau, "zeta_c": tr.zeta_compressible,
                 "zeta_i": tr.zeta_incompressible, "xi": xi, "nu_lo": lo, "nu_hi": hi}]
    chi = _flag(argv, "--chi")
    if "--sweep-xi" in argv:
        xis = [float(v) for v in np.geomspace(_flag(argv, "--sweep-xi"), _flag(argv, "--sweep-xi", 2),
                                              int(_flag(argv, "--sweep-xi", 3)))]
    else:
        xis = [_flag(argv, "--xi")]
    rows = []
    for xi in xis:
        row = {"xi": xi, "chi": chi, "nu": materials.nu_from_chi(chi)}
        fam = materials.zeta_family(xi, chi)
        if cmd == "sphere-force":
            sol = sphere.solve_sphere(xi, chi)
            mid, surf = sphere.sphere_force(sol), sphere.sphere_force(sol, trace="surface")
            ext = sphere.psi_extremes(xi, chi)
            row.update(zeta_bar=fam.zeta_bar, zeta_tilde=fam.zeta_tilde, psi=mid.psi,
                       psi_surface=surf.psi, psi_i=ext.psi_i, psi_c=ext.psi_c, force=mid.F)
        elif cmd == "plate-modulus":
            mod = plate.apparent_modulus(xi, chi)
            row.update(zeta=fam.zeta, e_hat=mod.e_hat, e_hat_i=mod.e_hat_i,
                       e_hat_c=mod.e_hat_c, e_hat_l=mod.e_hat_l)
        else:  # compare-plate; the estimate is the documented leading-order gap
            mod = plate.apparent_modulus(xi, chi)
            diff = (mod.e_hat_l - mod.e_hat) / mod.e_hat
            c2 = chi * chi
            est = 2.0 * chi * (4.0 * c2 * c2 - 24.0 * c2 + 27.0) * xi / (9.0 * (3.0 - c2))
            row.update(e_hat=mod.e_hat, e_hat_l=mod.e_hat_l, diff_rel=diff,
                       small_chi_estimate=est, magnitude_ratio=abs(diff) / abs(est))
        rows.append(row)
    return rows


def check_cli_output(argv: list[str], text: str) -> str | None:
    """Values read back from one command's CSV/JSON against the library's
    return values, bit for bit (the %.17g and JSON round trips are exact);
    wall rows of field CSVs against the Dirichlet data."""
    if argv[0] in ("plate-field", "sphere-field"):
        return _check_field_csv(argv, text)
    want = _expected_rows(argv)
    if "--json" in argv:
        got = json.loads(text)
        got = got if isinstance(got, list) else [got]
        want = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in row.items()} for row in want]
    else:
        got = [{k: float(v) for k, v in row.items()}
               for row in csv.DictReader(io.StringIO(text))]
    if len(got) != len(want):
        return f"{argv[0]} printed {len(got)} rows, not {len(want)}"
    for g_row, w_row in zip(got, want):
        if g_row.keys() != w_row.keys():
            return f"{argv[0]} printed the fields {sorted(g_row)}, not {sorted(w_row)}"
        for k, v in w_row.items():
            if g_row[k] != v:
                return f"{argv[0]} {k} read back as {g_row[k]!r}; the library gives {v!r}"
    return None


class CliArtifacts(Workload):
    """Per round: the eleven commands of the run once each, in a seeded
    order.  Their arguments are drawn once per run, so every command
    repeats with the same argv and its output must repeat byte for byte."""

    name = "cli_artifacts"
    round_s = 1.06

    def plan(self, rng, rounds: int) -> list[Op]:
        g = repr
        xp, cp = plate_point(rng, PLATE_STRATA[int(rng.integers(4))])
        xq, cq = plate_point(rng, PLATE_STRATA[int(rng.integers(4))])
        xs, cs = _logu(rng, 1e-3, 1e-2), float(rng.uniform(0.5, 1.2))
        lo = _logu(rng, 1e-3, 3e-3)
        lo_p, cm = _logu(rng, 1e-4, 1e-3), float(rng.uniform(0.3, 1.2))
        # Per round: five commands of a few ms, one of ~55 ms, two of
        # 65-100 ms and three of 200-300 ms, so the median falls in the
        # middle of the plate-field --nr 101 latencies and the 90th
        # percentile among the slowest three, never between two clusters.
        argvs = [
            ["plate-modulus", "--sweep-xi", g(lo_p), g(100.0 * lo_p), "25", "--chi", g(cm), "--json"],
            ["compare-plate", "--sweep-xi", g(lo_p), g(100.0 * lo_p), "25", "--chi", g(cm), "--csv"],
            ["regime-classify", "--geometry", "plate", "--xi", g(_logu(rng, 1e-4, 0.1)),
             "--chi", g(_logu(rng, 1e-4, 1.4)), "--json"],
            ["regime-classify", "--geometry", "sphere", "--xi", g(_logu(rng, 1e-4, 0.1)),
             "--chi", g(_logu(rng, 1e-4, 1.4)), "--json"],
            ["regime-transitions", "--xi", g(_logu(rng, 1e-4, 0.1)),
             "--tolerance", g(_logu(rng, 0.02, 0.5)), "--json"],
            ["sphere-force", "--xi", g(xs), "--chi", g(cs), "--json"],
            ["sphere-force", "--xi", g(xs), "--chi", g(cs), "--csv"],
            ["plate-field", "--xi", g(xq), "--chi", g(cq), "--nr", "101", "--nz", "41", "--csv"],
            ["plate-field", "--xi", g(xp), "--chi", g(cp), "--nr", "401", "--nz", "41", "--csv"],
            ["sphere-field", "--xi", g(xs), "--chi", g(cs), "--nr", "401", "--nz", "41", "--csv"],
            ["sphere-force", "--sweep-xi", g(lo), g(4.0 * lo), "3", "--chi", g(cs), "--csv"],
        ]
        ops = []
        for _ in range(rounds):
            ops += [Op("cli", tuple(a)) for a in _shuffled(rng, argvs)]
        return ops

    def setup(self, ops):
        """Run each sphere command once, which fills the solution cache."""
        seen = {}
        for op in ops:
            if op.args[0].startswith("sphere-") and op.args not in seen:
                seen[op.args] = run_cli(list(op.args))
        return {"seen": seen, "checked": set()}

    def run(self, op: Op, ctx):
        return run_cli(list(op.args))

    def check(self, op: Op, out, ctx):
        code, text = out
        if code != 0:
            return f"layerlab {' '.join(op.args)} exited {code}"
        first = ctx["seen"].setdefault(op.args, out)
        if first != out:
            return f"layerlab {' '.join(op.args)} gave different output for the same argv"
        if op.args not in ctx["checked"]:
            ctx["checked"].add(op.args)
            try:
                return check_cli_output(list(op.args), text)
            except (ValueError, KeyError) as exc:
                return f"unreadable output of {op.args[0]}: {exc!r}"
        return None


WORKLOADS = {w.name: w for w in (SphereSolve(), SpherePost(), PlateEval(), CliArtifacts())}
