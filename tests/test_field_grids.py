"""Field grids assembled in place: bit for bit against the full-temporary
expressions, a line of radii bit for bit against the same points as a
full grid, a grid R (a meshgrid or a np.hypot grid) bit for bit against
its points read as a line, no grid-sized temporaries beyond the block,
and blocks recycled only once no array views them."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from layerlab import plate, sphere
from layerlab.plate import FieldSample, field, solve_plate
from layerlab.series import (compressible_series_fields,
                             nearly_compressible_series_fields, solve_theta)
from layerlab.sphere import (PotentialSample, solve_sphere, sphere_field,
                             sphere_potential)

NAMES = ("R", "Z", "u_r", "u_z", "s_rr", "s_tt", "s_zz", "s_rz")


# ---------------------------------------------------------------------------
# Reference: each field as one plain numpy expression with full temporaries
# ---------------------------------------------------------------------------

def _z_sample(Rr, Zb, gg, coefs, kind=FieldSample):
    """The step every reference shares: each field c0 + c1 zm (c1 zm
    where c0 is None), times Z where odd, with zm = Z**2 - gg, from full
    temporaries."""
    zm = Zb * Zb - gg
    vals = []
    for c0, c1, odd in coefs:
        v = c1 * zm if c0 is None else c0 + c1 * zm
        vals.append(v * Zb if odd else v)
    shape = vals[0].shape
    if not shape:
        return kind(float(Rr), float(Zb), *map(float, vals))
    return kind(np.broadcast_to(Rr, shape).copy(),
                np.broadcast_to(Zb, shape).copy(), *vals)


def _plate_reference(sol, R, Z):
    Rr = np.asarray(R, dtype=float)
    Zb = np.asarray(Z, dtype=float)
    r_unique, inverse = np.unique(Rr.ravel(), return_inverse=True)
    av, a1, a2, *_ = sol.radial.eval(r_unique)
    safe_r = np.where(r_unique > 0.0, r_unique, 1.0)
    a1r = np.where(r_unique > 0.0, a1 / safe_r, a2)
    A, A1, A2, A1R = (v[inverse].reshape(Rr.shape) for v in (av, a1, a2, a1r))
    cfg = sol.cfg
    c2 = sol.chi * sol.chi
    xi, U, mu, a = cfg.xi, cfg.U, cfg.mu, cfg.a
    B = c2 * A - 0.5
    s_scale = mu * U / (a * xi)
    k3, k_sh = 3.0 - 2.0 * c2, 2.0 * (3.0 - c2) * xi * xi
    rz = mu * U / a * A1
    return _z_sample(Rr, Zb, 1.0, [
        (None, -(3.0 - c2) * xi * U * A1, False),
        (U, U * B, True),
        (s_scale * (k3 * (2.0 * A)), s_scale * (k3 * B - k_sh * A2), False),
        (s_scale * (k3 * (2.0 * A)), s_scale * (k3 * B - k_sh * A1R), False),
        (s_scale * (6.0 * A), s_scale * ((9.0 - 2.0 * c2) * B), False),
        (rz * (2.0 * c2 - 6.0), rz * c2, True)])


def _sphere_radii(sol, R, Z):
    """R and Z checked against the layer, the distinct radii (a lone one
    as the pair (R, R), as inside a line) and the map back to R's shape."""
    Rr, Zb = sol.geo.check(R, Z)
    rr, inverse = np.unique(Rr.ravel(), return_inverse=True)
    if rr.size == 1:
        rr = np.repeat(rr, 2)
    return Rr, Zb, rr, lambda arr: arr[:, inverse].reshape(
        arr.shape[:-1] + Rr.shape)


def _sphere_reference(sol, R, Z):
    cfg, c2 = sol.cfg, sol.chi * sol.chi
    xi, U = cfg.xi, cfg.U
    Rr, Zb, rr, take = _sphere_radii(sol, R, Z)
    a0, a1, a2, a1_over_r = sol.A.terms(rr)
    g = 1.0 + 0.5 * rr * rr
    L = a2 + a1_over_r
    V = -3.0 * g * g * L - 6.0 * g * rr * a1
    gi, k = 1.0 / g, c2 / xi
    Lp = gi * (rr * (gi * gi * (1.5 * gi - 2.0 * k * a0) - 3.0 * a2)
               + gi * (k + 3.0 * (g - 2.0)) * a1)
    Vp = (-6.0 * ((rr * rr + g) * a1 + g * rr * a2)
          - 3.0 * (2.0 * g * rr * L + g * g * Lp))
    s_scale = cfg.mu * U / (cfg.a * xi)
    sh_scale = cfg.mu * U / (cfg.a * xi ** 1.5)
    edge_term = 2.0 * g * rr * a1
    k3, k6, k9 = 3.0 - 2.0 * c2, 2.0 * (3.0 - c2), 9.0 - 2.0 * c2
    bracket0 = k3 * (2.0 * a0 / xi - edge_term)
    gg, ur1, uz0, uz1, rr0, rr1, tt0, tt1, zz0, zz1, rz0, rz1 = take(np.stack([
        g * g,
        -(3.0 - c2) * (U / math.sqrt(xi)) * a1,
        U * (V + 2.0 * c2 * a0 / xi), U * L,
        s_scale * (bracket0 + k6 * edge_term), s_scale * (k3 * L - k6 * a2),
        s_scale * bracket0, s_scale * (k3 * L - k6 * a1_over_r),
        s_scale * (6.0 * a0 / xi - k9 * edge_term), s_scale * k9 * L,
        sh_scale * ((4.0 * c2 - 6.0) * a1 + xi * Vp), sh_scale * xi * Lp]))
    # the odd fields Z (c0 + c1 Z**2) as Z ((c0 + c1 g**2) + c1 zm)
    return _z_sample(Rr, Zb, gg, [
        (None, ur1, False), (uz0 + uz1 * gg, uz1, True), (rr0, rr1, False),
        (tt0, tt1, False), (zz0, zz1, False), (rz0 + rz1 * gg, rz1, True)])


def _potential_reference(sol, R, Z):
    cfg = sol.cfg
    Rr, Zb, rr, take = _sphere_radii(sol, R, Z)
    a0, a1, a2, _ = sol.A.terms(rr)
    g = 1.0 + 0.5 * rr * rr
    A1 = -3.0 * g * g * a1
    A1p = -3.0 * g * g * a2 - 6.0 * g * rr * a1
    Ia = sol.A.s_form.integral_below(rr * rr, sphere._a1_weighted)
    s0 = cfg.xi * cfg.a ** 2 * cfg.U
    a0, a1, a2, A1, A1p, Ia = take(np.stack([a0, a1, a2, A1, A1p, Ia]))
    return _z_sample(Rr, Zb, 0.0, [
        (s0 * Ia, s0 * a0, True), (s0 * A1, s0 * a1, True),
        (s0 * Ia, 3.0 * s0 * a0, False), (s0 * A1p, s0 * a2, True),
        (s0 * A1, 3.0 * s0 * a1, False), (s0 * 6.0 * a0, -0.0, True)],
        PotentialSample)


def _assert_same_bits(got, want):
    """Every one of the eight arrays equal bit for bit (signed zeros
    included), with the same shape; floats stay floats."""
    for name in vars(want):
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(w, float):
            assert isinstance(g, float), name
            assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w), name
            continue
        assert g.shape == w.shape, name
        assert np.array_equal(g, w), name
        assert g.tobytes() == w.tobytes(), name


# ---------------------------------------------------------------------------
# Plate
# ---------------------------------------------------------------------------

# chi = 0 and chi < 1e-10 take the incompressible family; (0.01, 1.4) the
# Bessel branch at kappa = 140, (0.05, 0.05) and (0.9, 1.4) the series
# below kappa = 2
PLATE_CASES = [(0.01, 0.0), (0.01, 1e-12), (0.01, 1.4), (0.05, 0.05),
               (0.9, 1.4)]


def _plate_inputs():
    r_long = np.linspace(0.0, 1.0, 37)
    z_short = np.linspace(-1.0, 1.0, 5)
    r_short = np.array([0.0, 0.3, 0.7, 1.0])
    z_long = np.linspace(-1.0, 1.0, 23)
    rg, zg = np.meshgrid(r_long, z_short, indexing="ij")
    return {
        "column R, row Z, n > m": (r_long[:, None], z_short[None, :]),
        "column R, row Z, n < m": (r_short[:, None], z_long[None, :]),
        "column R, 1-D Z, n > m": (r_long[:, None], z_short),
        "full grids": (rg, zg),
        "1-D": (r_long, np.linspace(-1.0, 1.0, r_long.size)),
        "1-D R, scalar Z": (r_long, 1.0),
        "scalars": (0.4, -0.6),
        "scalars at the axis and wall": (0.0, 1.0),
    }


@pytest.mark.parametrize("xi, chi", PLATE_CASES)
def test_plate_field_bit_for_bit(xi, chi):
    sol = solve_plate(xi, chi=chi)
    for label, (R, Z) in _plate_inputs().items():
        try:
            _assert_same_bits(field(sol, R, Z), _plate_reference(sol, R, Z))
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from None


def test_plate_field_memory_order_follows_the_long_axis():
    sol = solve_plate(0.01, chi=0.5)
    r, z = np.linspace(0.0, 1.0, 30), np.linspace(-1.0, 1.0, 7)
    tall = field(sol, r[:, None], z[None, :])
    assert tall.u_r.flags.f_contiguous and not tall.u_r.flags.c_contiguous
    wide = field(sol, z[:, None] ** 2, r[None, :] - 0.5)
    assert wide.u_r.flags.c_contiguous
    rg, zg = np.meshgrid(r, z, indexing="ij")
    assert field(sol, rg, zg).s_rz.flags.c_contiguous
    # R and Z are read-only views of the inputs
    for fs in (tall, wide):
        assert not fs.R.flags.writeable and not fs.Z.flags.writeable
    assert np.shares_memory(tall.R, r)


# ---------------------------------------------------------------------------
# Sphere
# ---------------------------------------------------------------------------

SPHERE_CASES = [(1e-2, 0.0), (1e-2, 1e-12), (1e-3, 1.4)]


def _sphere_inputs(r_edge):
    r = np.linspace(0.0, r_edge, 29)
    g = 1.0 + 0.5 * r * r
    zf = np.linspace(-1.0, 1.0, 9)
    z_grid = g[:, None] * zf[None, :]
    return {
        "column R, full Z grid": (r[:, None], z_grid),
        "column R, row Z, n > m": (r[:, None], zf[None, :]),
        "column R, row Z, n < m": (r[:4, None], np.linspace(-1.0, 1.0, 31)[None, :]),
        "full grids": (np.broadcast_to(r[:, None], z_grid.shape).copy(), z_grid),
        "1-D": (r, 0.7 * g),
        "1-D R, scalar Z": (r, -1.0),
        "scalars": (0.5 * r_edge, 0.3),
        "scalars at the axis and wall": (0.0, 1.0),
    }


def _sphere_bit_for_bit(fn, reference, xi, chi):
    sol = solve_sphere(xi, chi)
    for label, (R, Z) in _sphere_inputs(sol.geo.r_edge).items():
        try:
            _assert_same_bits(fn(sol, R, Z), reference(sol, R, Z))
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from None


@pytest.mark.parametrize("xi, chi", SPHERE_CASES)
def test_sphere_field_bit_for_bit(xi, chi):
    _sphere_bit_for_bit(sphere_field, _sphere_reference, xi, chi)


@pytest.mark.parametrize("xi, chi", SPHERE_CASES)
def test_sphere_potential_bit_for_bit(xi, chi):
    _sphere_bit_for_bit(sphere_potential, _potential_reference, xi, chi)


def test_sphere_field_holds_few_grid_sized_arrays():
    # the six fields in one block, with Z**2 - g**2 formed in the last of
    # its slots, and the layer check's |Z| peak at 6.7 grids; separate
    # Z**2 and Z**2 - g**2 arrays read 8.9, full temporaries 10.7
    sol = solve_sphere(1e-3, 1.0)
    r = np.linspace(0.0, sol.geo.r_edge, 1001)
    z = (1.0 + 0.5 * r * r)[:, None] * np.linspace(-1.0, 1.0, 41)[None, :]
    # held, so the traced call cannot reuse its block
    held = sphere_field(sol, r[:, None], z)
    tracemalloc.start()
    try:
        fs = sphere_field(sol, r[:, None], z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fs.u_r.shape == held.u_r.shape == z.shape
    assert peak <= 7.5 * z.nbytes, peak / z.nbytes


def test_plate_field_holds_few_r_sized_arrays(monkeypatch):
    # a column R against a row Z: the block plus the radial evaluation's
    # R-length temporaries, 9.2 R arrays at kappa = 70; np.unique's sort,
    # inverse and the four gathers back to R's shape read 16.2
    sol = solve_plate(0.01, chi=0.7)
    r = np.linspace(0.0, 1.0, 3000)[:, None]
    z = np.linspace(-1.0, 1.0, 10)[None, :]
    # held, so no recycled block of this size is free for the traced call
    held = [field(sol, r, z) for _ in range(plate._RECYCLE_COUNT)]

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called on a line of radii")

    monkeypatch.setattr(np, "unique", no_unique)
    tracemalloc.start()
    try:
        fs = field(sol, r, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = fs.u_r.base.nbytes
    assert block == 6 * r.nbytes * z.size
    assert all(fs.u_r.base is not f.u_r.base for f in held)
    assert block <= peak <= block + 12 * r.nbytes, (peak - block) / r.nbytes


# ---------------------------------------------------------------------------
# Lines of radii: evaluated in place, the same doubles as a full grid
# ---------------------------------------------------------------------------

def _plate_line(xi, chi):
    sol = solve_plate(xi, chi=chi)
    return 1.0, lambda R, Z: vars(field(sol, R, Z))


def _sphere_line(fn, xi, chi):
    sol = solve_sphere(xi, chi)
    return sol.geo.r_edge, lambda R, Z: vars(fn(sol, R, Z))


def _theta_line(xi):
    theta = solve_theta(xi)
    return theta.geo.r_edge, lambda R, Z: {"u_r0": theta.u_r0(R, Z),
                                           "u_z0": theta.u_z0(R, Z)}


# name -> () -> (the layer's rim radius, (R, Z) -> {name: array})
LINE_CASES = {
    "plate.field chi=0": lambda: _plate_line(0.01, 0.0),
    "plate.field kappa=70": lambda: _plate_line(0.01, 0.7),
    "plate.field kappa=1": lambda: _plate_line(0.05, 0.05),
    "sphere_field chi=0": lambda: _sphere_line(sphere_field, 1e-2, 0.0),
    "sphere_field chi=1.4": lambda: _sphere_line(sphere_field, 1e-3, 1.4),
    "sphere_potential chi=0": lambda: _sphere_line(sphere_potential, 1e-2, 0.0),
    "sphere_potential chi=1.4": lambda: _sphere_line(sphere_potential, 1e-3, 1.4),
    "ThetaSolution.u_r0/u_z0": lambda: _theta_line(1e-2),
}


def _line_inputs(r_edge):
    """(R, Z) with R a line of radii; |Z| <= 1 lies in either layer."""
    rng = np.random.default_rng(11)
    r = np.linspace(0.0, r_edge, 25)
    zf = np.linspace(-1.0, 1.0, 7)
    return {
        "unsorted column": (rng.permutation(r)[:, None], zf[None, :]),
        "descending column": (r[::-1, None], 0.5 * zf[None, :]),
        "column with repeated radii": (np.repeat(r[::3], 3)[::-1, None],
                                       zf[None, :]),
        "row R": (rng.permutation(r)[None, :], zf[:, None]),
        "1-D R": (rng.permutation(r), 0.9 * np.cos(np.arange(r.size))),
    }


def _as_full_grid(R, Z):
    """The same points with R a full grid, two axes longer than 1, which
    is evaluated once per distinct R; and where the line's points sit in
    it (a 1-D line is stacked twice)."""
    R, Z = (a.copy() for a in np.broadcast_arrays(R, Z))
    if R.ndim == 1:
        return np.stack([R, R]), np.stack([Z, Z]), 0
    return R, Z, ...


@pytest.mark.parametrize("case", LINE_CASES)
def test_line_of_radii_matches_full_grid_bit_for_bit(case):
    r_edge, fn = LINE_CASES[case]()
    for label, (R, Z) in _line_inputs(r_edge).items():
        got = fn(R, Z)
        R_full, Z_full, at = _as_full_grid(R, Z)
        want = fn(R_full, Z_full)
        assert got.keys() == want.keys()
        for name, w in want.items():
            g, w = np.asarray(got[name]), np.asarray(w)[at]
            assert g.shape == w.shape, (label, name)
            assert g.tobytes() == w.tobytes(), (label, name)


@pytest.mark.parametrize("xi, chi", [(1e-3, 0.5), (1e-2, 1.4)])
def test_lone_radius_matches_its_line_bit_for_bit(xi, chi):
    # every value at a scalar (R, Z), and at one radius of shape (1, 1)
    # against a Z row, is the doubles of the same point inside a line of
    # 50 seeded points: the fields, the potential and Theta's fields
    sol, theta = solve_sphere(xi, chi), solve_theta(xi)
    quantities = {
        "sphere_field": lambda R, Z: vars(sphere_field(sol, R, Z)),
        "sphere_potential": lambda R, Z: vars(sphere_potential(sol, R, Z)),
        "theta": lambda R, Z: {"u_r0": theta.u_r0(R, Z),
                               "u_z0": theta.u_z0(R, Z)},
    }
    rng = np.random.default_rng(24)
    R = rng.uniform(0.0, sol.geo.r_edge, 50)
    Z = sol.geo.gap(R) * rng.uniform(-1.0, 1.0, 50)
    for quantity, fn in quantities.items():
        line = fn(R, Z)
        for i, (r, z) in enumerate(zip(R, Z)):
            for form, point in (("scalar", (r, z)),
                                ("one radius", ([[r]], [[z, -z]]))):
                got = fn(*point)
                for name, want in line.items():
                    g = float(np.ravel(got[name])[0])
                    assert g.hex() == float(want[i]).hex(), (
                        quantity, form, i, name)


# ---------------------------------------------------------------------------
# Grid R: read on its line, the same doubles as its points in a line
# ---------------------------------------------------------------------------

def _series_line(fields, xi):
    r_edge = sphere.SphereGeometry.of(xi).r_edge
    return r_edge, lambda R, Z: dict(zip(("u_r", "u_z"), fields(xi, R, Z)))


# every reader of LINE_CASES, and both direct series
READ_CASES = {
    **LINE_CASES,
    "compressible series": lambda: _series_line(
        lambda xi, R, Z: compressible_series_fields(xi, 2.0, 1.0, R, Z),
        1e-2),
    "nearly compressible series": lambda: _series_line(
        nearly_compressible_series_fields, 1e-2),
}


def _grid_inputs(r_edge):
    """(R, Z) with R a grid, not a line: a meshgrid R (constant along its
    second axis) against a scalar, a row and a full Z, and a np.hypot R
    (constant along no axis); |Z| <= 1 lies in either layer."""
    rng = np.random.default_rng(55)
    zf = np.linspace(-1.0, 1.0, 6)
    mesh = np.meshgrid(np.linspace(0.0, r_edge, 13), zf, indexing="ij")[0]
    x = np.linspace(0.0, 0.7 * r_edge, 9)
    hypot = np.hypot(*np.meshgrid(x, x, indexing="ij"))
    return {
        "meshgrid R, scalar Z": (mesh, 0.4),
        "meshgrid R, row Z": (mesh, zf),
        "meshgrid R, full Z": (mesh, rng.uniform(-1.0, 1.0, mesh.shape)),
        "hypot R, scalar Z": (hypot, -0.3),
        "hypot R, full Z": (hypot, rng.uniform(-1.0, 1.0, hypot.shape)),
    }


@pytest.mark.parametrize("case", READ_CASES)
def test_grid_reads_as_its_points_in_a_line(case):
    # the broadcast shape of (R, Z) comes back, with the doubles of the
    # same points read as one 1-D line: a meshgrid R is read on its
    # column, and a Z that would not fill the shape is broadcast to it
    r_edge, fn = READ_CASES[case]()
    for label, (R, Z) in _grid_inputs(r_edge).items():
        shape = np.broadcast_shapes(R.shape, np.shape(Z))
        got = fn(R, Z)
        want = fn(*(np.broadcast_to(a, shape).ravel() for a in (R, Z)))
        assert got.keys() == want.keys()
        for name, w in want.items():
            g = np.asarray(got[name])
            assert g.shape == shape, (label, name)
            assert g.tobytes() == w.reshape(shape).tobytes(), (label, name)


@pytest.mark.parametrize("profile", [
    "sphere (1e-2, 1)", "Theta 1e-2", "plate (0.01, 0)", "plate (0.01, 0.7)",
    "plate (0.05, 0.05)"])
def test_eval_on_a_grid_reads_as_its_line(profile):
    radial = {
        "sphere (1e-2, 1)": lambda: solve_sphere(1e-2, 1.0).A,
        "Theta 1e-2": lambda: solve_theta(1e-2).Theta,
        "plate (0.01, 0)": lambda: solve_plate(0.01, chi=0.0).radial,
        "plate (0.01, 0.7)": lambda: solve_plate(0.01, chi=0.7).radial,
        "plate (0.05, 0.05)": lambda: solve_plate(0.05, chi=0.05).radial,
    }[profile]()
    r_edge = 1.0 if profile.startswith("plate") else 10.0
    grids = {label.split(",")[0]: R
             for label, (R, _) in _grid_inputs(r_edge).items()}
    for label, R in grids.items():
        line = radial.eval(R.ravel())
        for slot, (g, w) in enumerate(zip(radial.eval(R), line)):
            assert g.shape == R.shape, (label, slot)
            assert g.tobytes() == w.reshape(R.shape).tobytes(), (label, slot)
            # a meshgrid R is read on its column and broadcast back, a
            # read-only view; a hypot R is its own line
            assert g.flags.writeable == (label == "hypot R"), (label, slot)


@pytest.mark.parametrize("case", LINE_CASES)
def test_empty_column_of_radii(case):
    # an empty column, and an empty grid, which has an axis longer than 1
    # for the cut to test
    r_edge, fn = LINE_CASES[case]()
    for R in (np.empty((0, 1)), np.empty((0, 5))):
        out = fn(R, np.linspace(-1.0, 1.0, 5)[None, :])
        for name, v in out.items():
            assert v.shape == (0, 5) and v.dtype == float, (R.shape, name)


def _counted(profile, calls):
    """A copy of profile whose instance eval records the shape of each
    R it is given, then reads as the method does; the cached profile is
    left as it is."""
    def eval(r):
        calls.append(np.shape(r))
        return profile.eval(r)
    return dataclasses.replace(profile, eval=eval)


def test_every_reader_reads_through_the_instance_eval(monkeypatch):
    # each field, potential and Theta field reads its profile once,
    # through the instance's eval, at R's line (a meshgrid R as its
    # column): the route a wrapper put on eval (bench/tracing.py's
    # counters) relies on to see every read.  The plate's profile is
    # built on first use, so it is wrapped where it is built
    calls = []
    built = plate.radial_profile
    monkeypatch.setattr(plate, "radial_profile",
                        lambda xi, chi: _counted(built(xi, chi), calls))
    plate_sol = solve_plate(1e-2, chi=0.5)
    sphere_sol = solve_sphere(1e-2, 1.0)
    sphere_sol = dataclasses.replace(sphere_sol,
                                     A=_counted(sphere_sol.A, calls))
    theta = solve_theta(1e-2)
    theta = dataclasses.replace(theta, Theta=_counted(theta.Theta, calls))
    r, z = np.linspace(0.0, 1.0, 7), np.linspace(-1.0, 1.0, 5)
    grid = np.meshgrid(r, z, indexing="ij")
    reads = [
        (lambda: field(plate_sol, r[:, None], z[None, :]), (7, 1)),
        (lambda: sphere_field(sphere_sol, r[:, None], z[None, :]), (7, 1)),
        (lambda: sphere_field(sphere_sol, *grid), (7, 1)),
        (lambda: sphere_field(sphere_sol, 0.5, 0.25), ()),
        (lambda: sphere_potential(sphere_sol, r, 0.0), (7,)),
        (lambda: sphere_potential(sphere_sol, 0.5, 0.25), ()),
        (lambda: theta.u_r0(r[:, None], z[None, :]), (7, 1)),
        (lambda: theta.u_z0(*grid), (7, 1)),
    ]
    for read, shape in reads:
        calls.clear()
        read()
        assert calls == [shape]
    # the cached profiles are left as they were
    for profile in (solve_sphere(1e-2, 1.0).A, solve_theta(1e-2).Theta):
        assert "eval" not in vars(profile)


# ---------------------------------------------------------------------------
# Recycled field blocks
# ---------------------------------------------------------------------------

def test_field_blocks_are_reused_only_when_no_array_views_them():
    sol = solve_plate(0.01, chi=0.5)
    r = np.linspace(0.0, 1.0, 3000)[:, None]
    z = np.linspace(-1.0, 1.0, 10)[None, :]
    first = field(sol, r, z)
    assert first.u_r.base.nbytes == 6 * 8 * 3000 * 10
    buf = id(first.u_r.base)   # a reference would keep the block busy
    assert id(field(sol, r, z).u_r.base) != buf   # first is held
    values = [getattr(first, name).copy() for name in NAMES]
    column = first.s_rz[:, 3]
    del first
    # a slice of it is held: other fields of this size never overwrite it
    other = solve_plate(0.05, chi=1.2)
    for _ in range(2 * plate._RECYCLE_COUNT):
        assert id(field(other, r, z).u_r.base) != buf
    assert np.array_equal(column, values[NAMES.index("s_rz")][:, 3])
    del column
    kept = {id(b) for b in plate._recycled}
    again = field(sol, r, z)
    assert id(again.u_r.base) in kept             # no fresh block
    for name, v in zip(NAMES, values):
        assert np.array_equal(getattr(again, name), v), name


def test_only_mid_sized_blocks_are_kept_and_few_of_them():
    sol = solve_plate(0.01, chi=0.5)
    small = field(sol, np.linspace(0.0, 1.0, 30)[:, None], 0.5)
    assert all(small.u_r.base is not b for b in plate._recycled)
    large = field(sol, np.linspace(0.0, 1.0, 90_000)[:, None], 0.5)
    assert all(large.u_r.base is not b for b in plate._recycled)
    held = [field(sol, np.linspace(0.0, 1.0, n)[:, None], -0.5)
            for n in range(3000, 3000 + 2 * plate._RECYCLE_COUNT)]
    assert len(plate._recycled) == plate._RECYCLE_COUNT
    assert len(held) == 2 * plate._RECYCLE_COUNT
