"""Field grids assembled in place: bit for bit against the full-temporary
expressions, no grid-sized temporaries beyond the block, and blocks
recycled only once no array views them."""

import math
import tracemalloc

import numpy as np
import pytest

from layerlab import plate
from layerlab.plate import FieldSample, field, solve_plate
from layerlab.sphere import _layer_points, solve_sphere, sphere_field

NAMES = ("R", "Z", "u_r", "u_z", "s_rr", "s_tt", "s_zz", "s_rz")


# ---------------------------------------------------------------------------
# Reference: each field as one plain numpy expression with full temporaries
# ---------------------------------------------------------------------------

def _plate_reference(sol, R, Z):
    Rr = np.asarray(R, dtype=float)
    Zb = np.asarray(Z, dtype=float)
    r_unique, inverse = np.unique(Rr.ravel(), return_inverse=True)
    av, a1, a2, _ = sol.radial.eval(r_unique)
    safe_r = np.where(r_unique > 0.0, r_unique, 1.0)
    a1r = np.where(r_unique > 0.0, a1 / safe_r, a2)
    A = av[inverse].reshape(Rr.shape)
    A1 = a1[inverse].reshape(Rr.shape)
    A2 = a2[inverse].reshape(Rr.shape)
    A1R = a1r[inverse].reshape(Rr.shape)
    cfg = sol.cfg
    c2 = sol.chi * sol.chi
    xi, U, mu, a = cfg.xi, cfg.U, cfg.mu, cfg.a
    B = c2 * A - 0.5
    zm = Zb * Zb - 1.0
    u_r = (3.0 - c2) * xi * U * A1 * (-zm)
    u_z = U * (Zb + B * Zb * zm)
    s_scale = mu * U / (a * xi)
    s_zz = s_scale * ((9.0 - 2.0 * c2) * B * zm + 6.0 * A)
    s_rr = s_scale * ((3.0 - 2.0 * c2) * (B * zm + 2.0 * A)
                      - 2.0 * (3.0 - c2) * xi * xi * A2 * zm)
    s_tt = s_scale * ((3.0 - 2.0 * c2) * (B * zm + 2.0 * A)
                      - 2.0 * (3.0 - c2) * xi * xi * A1R * zm)
    s_rz = (mu * U / a) * A1 * (c2 * Zb * Zb + c2 - 6.0) * Zb
    vals = (u_r, u_z, s_rr, s_tt, s_zz, s_rz)
    if np.ndim(u_r) == 0:
        return FieldSample(float(Rr), float(Zb), *map(float, vals))
    return FieldSample(*np.broadcast_arrays(Rr, Zb), *vals)


def _sphere_reference(sol, R, Z):
    cfg, c2 = sol.cfg, sol.chi * sol.chi
    xi, U = cfg.xi, cfg.U
    Rr, Zb, rr, take = _layer_points(sol.geo.r_edge, R, Z)
    a0, a1, a2, a3, a1_over_r, lp_core = sol.A.eval_quotients(rr)
    g = 1.0 + 0.5 * rr * rr
    L = a2 + a1_over_r
    V = -3.0 * g * g * L - 6.0 * g * rr * a1
    Lp = a3 + lp_core
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
    z2 = Zb * Zb
    zm = z2 - gg
    vals = (ur1 * zm, Zb * (uz0 + uz1 * z2), rr0 + rr1 * zm, tt0 + tt1 * zm,
            zz0 + zz1 * zm, Zb * (rz0 + rz1 * z2))
    shape = vals[0].shape
    if not shape:
        return FieldSample(float(Rr), float(Zb), *map(float, vals))
    return FieldSample(np.broadcast_to(Rr, shape).copy(),
                       np.broadcast_to(Zb, shape).copy(), *vals)


def _assert_same_bits(got, want):
    """Every one of the eight arrays equal bit for bit (signed zeros
    included), with the same shape; floats stay floats."""
    for name in NAMES:
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


@pytest.mark.parametrize("xi, chi", SPHERE_CASES)
def test_sphere_field_bit_for_bit(xi, chi):
    sol = solve_sphere(xi, chi)
    for label, (R, Z) in _sphere_inputs(sol.geo.r_edge).items():
        try:
            _assert_same_bits(sphere_field(sol, R, Z),
                              _sphere_reference(sol, R, Z))
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from None


def test_sphere_field_holds_few_grid_sized_arrays():
    # the six fields in one block, with Z**2 and Z**2 - g**2 formed in two
    # of its slots, and the layer check's |Z| peak at 6.9 grids; separate
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
