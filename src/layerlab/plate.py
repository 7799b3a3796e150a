"""Closed-form solution for a thin elastic layer bonded between two rigid
circular plates that are displaced apart along their common axis.

Geometry and scalings: layer radius a, half-thickness h = xi*a with
xi = h/a << 1, dimensionless coordinates R = r/a in [0, 1], Z = z/h in
[-1, 1].  The plates move to +-U along the axis (U > 0 pulls them apart;
U < 0 squeezes).  Compressibility enters through
chi = sqrt(3(1-2nu)/(2(1-nu))) in [0, 3/2].

Every leading-order field derives from one radial potential A(R) solving

    A'' + A'/R - (chi/xi)^2 A = -1/(2 xi^2),
    A'(0) = 0,
    A(1) - (2 xi^2 / 3) A'(1) = 1/(2 (3 - chi^2)),

where the edge condition states that the radial-stress resultant
integral_{-1}^{1} sigma_rr(1, Z) dZ vanishes.  The solution is

    A(R)  = 1/(2 chi^2) * [1 - c_b * I_0(kappa R)/I_0(kappa)],
    kappa = chi/xi,
    c_b   = 3 (3 - 2 chi^2) / ((3 - chi^2) (3 - 2 xi chi t)),  t = I_1/I_0 (kappa),

kept entirely in scaled-Bessel form so nothing overflows for any kappa.
Where chi < 1e-10 and kappa < 1e-6 the incompressible-limit family
A = (1 - R^2)/(8 xi^2) takes over (the 1/chi^2 factors above are
indeterminate at chi = 0 although the combined fields stay finite, and
at kappa < 1e-6 the family's G = 1 is within kappa^2/6 < 2e-13 of the
Bessel form's).  _edge makes that choice once for the profile, the force
and the moduli.

Fields, with B(R) = chi^2 A - 1/2:

    u_r = (3 - chi^2) xi U A'(R) (1 - Z^2)
    u_z = U [Z + B(R) Z (Z^2 - 1)]
    sigma_zz * (a xi / mu U) = (9 - 2 chi^2) B (Z^2 - 1) + 6 A
    sigma_rr * (a xi / mu U) = (3 - 2 chi^2)[B (Z^2 - 1) + 2 A]
                               - 2 (3 - chi^2) xi^2 A'' (Z^2 - 1)
    sigma_tt                 : same with A'/R in place of A''
    sigma_rz * (a / mu U)    = A' (chi^2 Z^2 + chi^2 - 6) Z

so u_z(R, +-1) = +-U and u_r(R, +-1) = 0 hold exactly, including in
floating point.  The resultant force on either plate and the apparent
moduli are closed forms in the edge Bessel values; see force and
apparent_modulus.  The solution omits the O(xi) boundary-layer corrector
at the bonded edge corner (R, Z) = (1, +-1) and is not valid there.

The layer's domain is 1e-76 <= xi < 1 (materials.check_xi; XI_MIN is
the package's one floor, the sphere layer's too).  Down to it every
closed form is a double at unit scales, so no guard inside them is
needed; only the user's scales a, mu, U can take the dimensional force
and fields out of it, and there they raise NumericsError naming the
result and the cell (_range_error and _in_range, which the sphere layer
shares).
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy import special as _sp_special

from .kernels import (BesselRatioEval, NumericsError, RadialSolution,
                      bessel_ratio)
from .materials import (CHI_MAX, LayerConfig, check_chi, check_finite,
                        check_positive, check_xi, resolve_chi)

__all__ = [
    "CHI_INCOMPRESSIBLE",
    "FieldSample",
    "PlateSolution",
    "ApparentModuli",
    "UniaxialState",
    "stefan_fluid_fields",
    "radial_profile",
    "solve_plate",
    "field",
    "force",
    "force_factor",
    "apparent_modulus",
    "compressible_superposition",
]

# The incompressible closed-form family takes over below this chi, where
# also chi/xi < _KAPPA_INCOMPRESSIBLE (see _edge).  The general
# expressions have finite chi -> 0 limits, but their 1/chi^2 factors make
# direct evaluation indeterminate at chi = 0.
CHI_INCOMPRESSIBLE = 1e-10
_KAPPA_INCOMPRESSIBLE = 1e-6


@dataclass(frozen=True)
class FieldSample:
    """Displacements and stresses at scaled sample points (R, Z).

    R, Z are dimensionless (plate: 0 <= R <= 1, |Z| <= 1; the sphere
    solver reuses this container with |Z| up to the local gap half-width).
    u_r, u_z carry length units through U; the stresses carry the dominant
    normal-stress scale mu*U/(a*xi).  Fields are floats for scalar input,
    arrays (of the broadcast shape) for array input.  For array input R
    and Z are read-only broadcast views of the inputs, not copies, and
    the six fields are views into one (6, *shape) block, as the sphere's
    PotentialSample values are; each field is F-ordered when a column R
    meets a shorter row Z (see _field_block).  The values are the same in
    either memory order.  A block of 128 KiB to 4 MiB is reused by a
    later call once no array views it.
    """

    R: object
    Z: object
    u_r: object
    u_z: object
    s_rr: object
    s_tt: object
    s_zz: object
    s_rz: object


# Field blocks of _RECYCLE_BYTES are kept, at most _RECYCLE_COUNT of them,
# and handed out again once no array views them (see _block_buffer).
_RECYCLE_BYTES = (1 << 17, 1 << 22)
_RECYCLE_COUNT = 4
_recycled: list = []
_recycle_lock = threading.Lock()


def _ref_counts(bufs) -> list:
    return [sys.getrefcount(b) for b in bufs]


# what _ref_counts reads for a buffer that only its list holds
_IDLE_REFS = _ref_counts([np.empty(0)])[0]


def _block_buffer(size: int) -> np.ndarray:
    """A flat float buffer of `size` elements that no live array views.

    Whether a fresh block of a few MB costs a page fault per 4 KiB
    depends on what the rest of the process freed before: glibc trims
    the top of its heap past a threshold and maps the pages again on the
    next growth.  A 1001 x 41 sphere field took 1.5 or 2.5 ms by that
    alone, and which one changed from run to run.  So blocks in
    _RECYCLE_BYTES are recycled.  Every view of a buffer holds a
    reference to it, so a kept buffer that only the list holds is free;
    when the list is full, a fresh block replaces its first free one."""
    if not _RECYCLE_BYTES[0] <= 8 * size <= _RECYCLE_BYTES[1]:
        return np.empty(size)
    with _recycle_lock:
        idle = [b for b, n in zip(_recycled, _ref_counts(_recycled))
                if n == _IDLE_REFS]
        for buf in idle:
            if buf.size == size:
                return buf
        buf = np.empty(size)
        if len(_recycled) == _RECYCLE_COUNT and idle:
            _recycled[:] = [b for b in _recycled if b is not idle[0]]
        if len(_recycled) < _RECYCLE_COUNT:
            _recycled.append(buf)
        return buf


def _field_block(Rr: np.ndarray, Zb: np.ndarray) -> list:
    """Uninitialised storage for the six fields over the broadcast shape
    of R and Z: views into one (6, *shape) block, in FieldSample order.

    The long axis is made contiguous.  When neither R nor Z is a full
    grid (a column R against a row Z) and the first axis is the longer,
    each field is F-ordered, so the inner loop of every product runs
    over that axis; full grids, 1-D and scalar input stay C-ordered."""
    shape = np.broadcast_shapes(Rr.shape, Zb.shape)
    size = math.prod(shape)
    buf = _block_buffer(6 * size)
    if (len(shape) == 2 and shape[0] > shape[1]
            and Rr.size < size and Zb.size < size):
        block = buf.reshape(6, shape[1], shape[0]).transpose(0, 2, 1)
    else:
        block = buf.reshape(6, *shape)
    return [block[i, ...] for i in range(6)]


def _z_polynomials(Rr: np.ndarray, Zb: np.ndarray, gg, coefs,
                   kind=FieldSample):
    """The sample (a FieldSample, or `kind`) of six fields that are each a
    polynomial in Z with coefficients in R alone: c0 + c1 (Z**2 - gg),
    times Z where the field is odd.  coefs is an iterator of (c0, c1, odd)
    for each field in order, so that one field's pair is formed only as
    that field is written, and let go before the next is formed.  A c0
    of None is no constant term, and spares the sum; a c1 of -0.0 is no
    Z**2 term, since -0.0 * Z**2 + c0 is c0 exactly, signed zeros
    included.

    The fields are written in place into the block of _field_block.
    gg is a scalar or an array of R's shape, and zm = Z**2 - gg is formed
    once, on the broadcast shape of Z and gg: in the last field's slot
    when that is the block's shape, so no other grid-sized array is
    made, else on its own (Z's shape).  Floats for scalar input, else R
    and Z as read-only broadcast views of the inputs."""
    fields = _field_block(Rr, Zb)
    slot = (fields[-1] if np.ndim(gg) or Zb.shape == fields[-1].shape
            else None)
    zm = np.subtract(np.multiply(Zb, Zb, out=slot), gg, out=slot)
    for out in fields:
        c0, c1, odd = next(coefs)
        np.multiply(c1, zm, out=out)
        if c0 is not None:
            out += c0
        if odd:
            out *= Zb
        del c0, c1
    shape = fields[0].shape
    if not shape:
        return kind(float(Rr), float(Zb), *map(float, fields))
    return kind(np.broadcast_to(Rr, shape), np.broadcast_to(Zb, shape),
                *fields)


# ---------------------------------------------------------------------------
# Classical squeeze-film reference fields
# ---------------------------------------------------------------------------

def stefan_fluid_fields(r, z, a, h, mu, V):
    """Viscous squeeze-film fields between rigid disks of radius a at
    z = +-h approaching at speed V (V > 0 closes the gap):

        v_r = 3 r V (h^2 - z^2) / (4 h^3)
        v_z = V z (z^2 - 3 h^2) / (2 h^3)
        p   = mu V (3 a^2 + 2 h^2 - 3 r^2 + 6 z^2) / (4 h^3)

    so v_z(+-h) = -+V and the pressure peaks at the center:
    p(0, 0) = mu V (3 a^2 + 2 h^2)/(4 h^3).  The incompressible-limit
    elastic displacements coincide with (v_r, v_z) under V -> -U.
    Accepts scalars or arrays; requires 0 <= r <= a and |z| <= h, a and h
    positive and finite, and mu and V finite.
    """
    a, h = check_positive("a", a), check_positive("h", h)
    mu, V = check_finite("mu", mu), check_finite("V", V)
    r = np.asarray(r, dtype=float) + 0.0
    z = np.asarray(z, dtype=float) + 0.0
    # written so that NaN fails each check
    if not (np.all(r >= 0.0) and np.all(r <= a)):
        raise ValueError("r out of range [0, a]")
    if not np.all(np.abs(z) <= h):
        raise ValueError("|z| out of range [0, h]")
    h3 = h * h * h
    v_r = 3.0 * r * V * (h * h - z * z) / (4.0 * h3)
    v_z = V * z * (z * z - 3.0 * h * h) / (2.0 * h3)
    p = mu * V * (3.0 * a * a + 2.0 * h * h - 3.0 * r * r + 6.0 * z * z) / (4.0 * h3)
    if np.ndim(v_r) == 0:
        return float(v_r), float(v_z), float(p)
    return v_r, v_z, p


# ---------------------------------------------------------------------------
# Radial potential
# ---------------------------------------------------------------------------

def _edge(xi: float, chi: float) -> Optional[BesselRatioEval]:
    """The Bessel record at the edge x = chi/xi, after checking xi (down
    to the floor XI_MIN = 1e-76, so x <= 1.5e76) and chi, or None where
    the incompressible family takes over: chi < 1e-10 and chi/xi < 1e-6.
    There 1 - G ~ (chi/xi)^2/6 is below 2e-13; at chi/xi >= 1e-6 the
    Bessel form is kept however small chi is."""
    check_xi(xi)
    check_chi(chi)
    if chi < CHI_INCOMPRESSIBLE and chi / xi < _KAPPA_INCOMPRESSIBLE:
        return None
    return bessel_ratio(chi / xi)


def _range_error(what: str, xi: float, chi: float) -> NumericsError:
    """The NumericsError of a result, named by what, that leaves double
    range at the cell (xi, chi): above the floor only the scales a, mu,
    U take a force or field there, and a chi whose square underflows
    the uniaxial state (compressible_superposition)."""
    return NumericsError(f"{what} is past double range "
                         f"(xi = {xi}, chi = {chi})")


def _in_range(what: str, xi: float, chi: float) -> np.errstate:
    """An errstate in which a numpy overflow, invalid or divide result
    (numpy scalars' included) raises _range_error(what, xi, chi), with
    no warning first."""
    def fail(err, flag):
        raise _range_error(what, xi, chi)
    return np.errstate(over="call", invalid="call", divide="call", call=fail)


# At and below this R, A'/R is taken as A'': there kappa R <= 1.5e-74
# for every cell above the floor (kappa <= 1.5e76), so the two agree to
# double precision, and no subnormal R divides a rounded A'
_R_QUOTIENT = 1e-150


def _over_r(r, a1, a2):
    """A'/R on the radii r, from A' and A'' there: a1 / r above
    _R_QUOTIENT, A'' at and below it."""
    return np.divide(a1, r, out=a2.copy(), where=r > _R_QUOTIENT)


def radial_profile(xi: float, chi: float) -> RadialSolution:
    """Closed-form radial potential A(R) on [0, 1].

    Its derivative function (RadialSolution.terms) gives A, A', A'' and
    A'/R, all that the plate's fields read, in one array pass from scaled
    Bessel values (scipy.special.i0e/i1e) and ratios against
    I_0(chi/xi), so arbitrarily large chi/xi cannot overflow.  A is
    assembled as

        2 chi^2 A = (1 - c_b) + c_b (1 - I_0(kappa R)/I_0(kappa)),

    each bracket divided by 2 chi^2 in closed form: the first through the
    cancellation-free x - 2t at kappa, the second through its power series
    in kappa below kappa = 2.  Neither subtracts terms of size 1/chi^2, so
    A keeps full accuracy as chi/xi -> 0, down to chi = 1e-10 and
    kappa = 1e-6, below both of which the incompressible family
    A = (1 - R^2)/(8 xi^2) takes over (_edge).  The factor (3 - chi^2) in
    c_b vanishes only at chi = sqrt(3) ~ 1.732, outside the admissible
    [0, 3/2] (the range check rejects it), so it is not special-cased.
    Down to the floor xi = 1e-76 every term is a double at every R in
    [0, 1], tiny and subnormal R included.  A cheap residual self-check
    at R = 0.5 and R = 1 guards the assembled profile; a non-finite
    residual or scale there, which only a fault can give, fails it with
    NumericsError alone, with no numpy warning first.  A'/R is A' / R
    above R = 1e-150 and A'' at and below it (_over_r), on both
    branches.  eval(R) gives the four slots at scalar or array R (see
    RadialSolution).
    """
    edge = _edge(xi, chi)
    if edge is None:
        inv = 1.0 / (8.0 * xi * xi)

        def terms(r):
            av = (1.0 - r * r) * inv
            a1 = -2.0 * inv * r
            a2 = np.full_like(r, -2.0 * inv)
            return av, a1, a2, _over_r(r, a1, a2)

        meta = {"method": "closed form", "branch": "incompressible",
                "xi": xi, "chi": chi}
        return RadialSolution(terms=terms, meta=meta)

    kappa = edge.x
    c2 = chi * chi
    dt = 3.0 - 2.0 * xi * chi * edge.t          # (3 I_0 - 2 xi chi I_1)/I_0
    c_b = 3.0 * (3.0 - 2.0 * c2) / ((3.0 - c2) * dt)
    ck = -0.5 * c_b / c2                        # C I_0(kappa) in A = 1/(2chi^2) + C I_0(kappa R)
    # A(1) = (1 - c_b)/(2 chi^2), divided through in closed form
    a_edge = ((3.0 * edge.x_minus_2t + 2.0 * c2 * edge.t)
              / (2.0 * kappa * (3.0 - c2) * dt))
    # below kappa = 2, (1 - I_0(kappa R)/I_0(kappa))/(2 chi^2) =
    # sum_{m>=1} (kappa^2/4)^(m-1) (1 - R^2m)/(m!)^2 / (8 xi^2 I_0(kappa));
    # the coefficients stop once they fall below 1e-17 (<= 12 of them)
    if kappa < 2.0:
        coefs = [1.0]
        while coefs[-1] >= 1e-17:
            coefs.append(coefs[-1] * 0.25 * kappa * kappa / (len(coefs) + 1) ** 2)
        series_den = 8.0 * xi * xi * math.exp(kappa) * edge.scaled_i0

    def terms(rr):
        x = kappa * rr
        si0 = _sp_special.i0e(x)
        si1 = _sp_special.i1e(x)
        # e^{-x} I_1(x)/x, which is 1/2 to double precision below x = 1e-16
        # and which i1e's subnormal values would lose below x = 4e-308
        si1x = np.where(x > 1e-300, si1 / np.where(x > 1e-300, x, 1.0), 0.5)
        # each ratio against I_0(kappa) as e^{x - kappa} times a ratio of
        # scaled values, so that R = 1 gives exactly 1 and t
        grow = np.exp(x - kappa)
        ratio0 = grow * (si0 / edge.scaled_i0)  # I_0(kappa R)/I_0(kappa)
        ratio1 = grow * (si1 / edge.scaled_i0)
        ratio1x = grow * (si1x / edge.scaled_i0)  # I_1(kappa R)/(kappa R I_0(kappa))
        if kappa < 2.0:
            r2, r2m, s = rr * rr, 1.0, 0.0
            for c in coefs:
                r2m = r2m * r2
                s = s + c * (1.0 - r2m)
            one_minus = s / series_den
        else:
            one_minus = (1.0 - ratio0) / (2.0 * c2)
        av = a_edge + c_b * one_minus
        a1 = ck * kappa * ratio1
        a2 = ck * kappa * kappa * (ratio0 - ratio1x)
        return av, a1, a2, _over_r(rr, a1, a2)

    meta = {"method": "closed form", "branch": "bessel", "xi": xi,
            "chi": chi, "kappa": kappa, "t_edge": edge.t, "c_b": c_b}
    sol = RadialSolution(terms=terms, meta=meta)

    # residual self-check at an interior and the edge spot, in one call;
    # a non-finite residual or scale fails it, and is not warned about
    forcing = 1.0 / (2.0 * xi * xi)
    spots = np.array([0.5, 1.0])
    with np.errstate(invalid="ignore", over="ignore"):
        a0, _, a2s, a1r = sol.eval(spots)
        residuals = a2s + a1r - kappa * kappa * a0 + forcing
        scales = np.maximum(np.maximum(forcing, kappa * kappa * np.abs(a0)),
                            np.abs(a2s))
    for r_spot, res, scale in zip(spots, residuals, scales):
        if not abs(res) <= 1e-12 * scale < math.inf:
            raise NumericsError(
                f"radial profile residual {res:.3e} exceeds 1e-12*{scale:.3e} "
                f"at R = {r_spot} (xi = {xi}, chi = {chi})"
            )
    return sol


# ---------------------------------------------------------------------------
# Solution bundle and field evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlateSolution:
    """Everything needed to evaluate the plate solution: the problem
    record (cfg: xi and the scales a, U, mu), the compressibility
    parameter chi and the radial potential.  Immutable; field evaluation
    is reentrant.

    The radial potential is built on first use and kept, so a solution
    used only for its force never builds it; its residual self-check
    therefore raises at the first field evaluation, not in solve_plate."""

    cfg: LayerConfig
    chi: float

    @property
    def xi(self) -> float:
        return self.cfg.xi

    @cached_property
    def radial(self) -> RadialSolution:
        return radial_profile(self.xi, self.chi)


def solve_plate(xi: float, chi: Optional[float] = None, *,
                nu: Optional[float] = None, mu: float = 1.0, a: float = 1.0,
                U: float = 1.0) -> PlateSolution:
    """Build a PlateSolution for thickness ratio xi and material given by
    chi, nu, or both (cross-checked to 1e-10 if both; see resolve_chi)."""
    chi = resolve_chi(chi=chi, nu=nu)
    return PlateSolution(LayerConfig(xi, a=a, U=U, mu=mu), chi)


def field(sol: PlateSolution, R, Z) -> FieldSample:
    """Sample displacements and stresses at scaled (R, Z); R and Z
    broadcast against each other.  The radial potential (A, A', A'' and
    the profile's own A'/R, all its closed forms give) is read by
    RadialSolution.eval, once per R of a line of radii (a column, a row,
    1-D or a scalar), on R itself, and once per distinct R of a full R
    grid, so dense (R, Z) product grids cost only their R lines, and a
    lone R gives the doubles of a line.  No field divides by R.

    Each field is the module docstring's polynomial in Z written as
    c0 + c1 (Z**2 - 1), times Z where it is odd, in place into one
    preallocated (6, *shape) block by _z_polynomials, the one writer of
    every field sample of either layer, with no other grid-sized array; a
    column R against a shorter row Z gives F-ordered fields (see
    FieldSample).  Z**2 - 1 is exactly 0 on Z = +-1, and u_z's c0 is U
    itself, so the wall data u_z = +-U, u_r = 0 hold exactly.  R and Z
    come back as read-only broadcast views of the inputs.

    Not valid within O(xi) of the bonded-edge corner (R, Z) = (1, +-1),
    where the underlying expansion omits a boundary-layer corrector.
    Above the floor xi = 1e-76 every field is a double at unit scales;
    where the scales a, mu, U take one past double range it raises
    NumericsError, rather than return inf or nan.
    """
    Rr = np.asarray(R, dtype=float)
    Zb = np.asarray(Z, dtype=float)
    # written so that NaN fails each check
    if not (np.all(Rr >= 0.0) and np.all(Rr <= 1.0)):
        raise ValueError("R out of range [0, 1]")
    if not np.all(np.abs(Zb) <= 1.0):
        raise ValueError("|Z| out of range [0, 1]")

    A, A1, A2, A1R = sol.radial.eval(Rr)
    cfg = sol.cfg
    c2 = sol.chi * sol.chi
    # U as a numpy scalar, so that a scale past double range raises in the
    # errstate below, as a field does
    xi, U, mu, a = cfg.xi, np.float64(cfg.U), cfg.mu, cfg.a

    def coefs():
        # the module docstring's fields in zm = Z**2 - 1, in FieldSample
        # order.  On the walls Z = +-1 zm is 0, so each field is c0 (times
        # Z where odd), grouped as the docstring's expression reduces
        # there: u_z = +-U exactly, and each wall value has that
        # expression's double, up to the sign of a zero
        B = c2 * A - 0.5
        s_scale = mu * U / (a * xi)
        k3, k_sh = 3.0 - 2.0 * c2, 2.0 * (3.0 - c2) * xi * xi
        yield None, -(3.0 - c2) * xi * U * A1, False
        yield U, U * B, True
        for ar in (A2, A1R):                    # s_rr, then s_tt
            yield (s_scale * (k3 * (2.0 * A)), s_scale * (k3 * B - k_sh * ar),
                   False)
        yield s_scale * (6.0 * A), s_scale * ((9.0 - 2.0 * c2) * B), False
        rz = mu * U / a * A1
        yield rz * (2.0 * c2 - 6.0), rz * c2, True

    # a field past double range (above the floor, by the scales alone)
    # raises here, as the force does
    with _in_range("plate field", xi, sol.chi):
        return _z_polynomials(Rr, Zb, 1.0, coefs())


# ---------------------------------------------------------------------------
# Force and apparent moduli
# ---------------------------------------------------------------------------

def _g(xi: float, chi: float, ev: BesselRatioEval) -> float:
    """G from the edge evaluation ev at x = chi/xi."""
    c2 = chi * chi
    three = 3.0 - c2
    t = ev.t
    num = 3.0 * three * ev.x_minus_2t + 2.0 * c2 * c2 * t
    den = ev.x ** 3 * three * (3.0 - 2.0 * xi * chi * t)
    return 8.0 * num / den


def force_factor(xi: float, chi: float) -> float:
    """Dimensionless factor G(chi, xi) in F = (3 pi mu a U / 8 xi^3) G.

    G -> 1 as chi -> 0 (incompressible) and G -> 8 xi^2/chi^2 as
    chi/xi -> infinity (uniaxial straining).  With x = chi/xi and
    t = I_1/I_0 (x):

        G = 8 [3 (3 - chi^2) (x - 2t) + 2 chi^4 t] /
            [x^3 (3 - chi^2) (3 - 2 xi chi t)],

    the closed form in I_0, I_1 divided through by I_0, which is exact
    algebra for every x.  x - 2t comes from the edge record
    (kernels.bessel_ratio), free of its ~x^2/8 relative cancellation at
    small x; every other term is positive, so G is cancellation-free over
    the whole parameter range.  Where chi < 1e-10 and x < 1e-6 the
    incompressible family's G = 1 is returned (_edge).
    """
    edge = _edge(xi, chi)
    return 1.0 if edge is None else _g(xi, chi, edge)


def force(sol: PlateSolution) -> float:
    """Resultant normal force on either plate,

        F = (3 pi mu a U / 8 xi^3) G(chi, xi),

    positive for U > 0 (plates pulled apart).  Identical to the surface
    integral 2 pi a^2 integral_0^1 sigma_zz(R, 1) R dR of the field
    stresses (the two are the same closed form rearranged).  Above the
    floor xi = 1e-76 it is a double at unit scales; where the scales a,
    mu, U take it past double range it raises NumericsError, rather than
    return inf or nan."""
    cfg = sol.cfg
    pref = 3.0 * math.pi * cfg.mu * cfg.a * cfg.U / (8.0 * cfg.xi ** 3)
    f = pref * force_factor(cfg.xi, sol.chi)
    if not math.isfinite(f):
        raise _range_error(f"plate force {f}", cfg.xi, sol.chi)
    return f


class ApparentModuli(NamedTuple):
    """Apparent-modulus bundle: the exact normalized modulus e_hat, the
    incompressible extreme e_hat_i = 1/(8 xi^2), the compressible extreme
    e_hat_c = 3(3-chi^2)/(chi^2 (9-4chi^2)), and the classical thin-layer
    approximation e_hat_l that shares e_hat's denominator."""

    e_hat: float
    e_hat_i: float
    e_hat_c: float
    e_hat_l: float


def apparent_modulus(xi: float, chi: float) -> ApparentModuli:
    """Apparent compression modulus of the bonded layer, normalized by the
    unconstrained-column stiffness pi a^2 E U / h, together with its two
    extremes and the classical thin-layer approximation:

        e_hat   = 3 (3 - chi^2) G(chi, xi) / (8 xi^2 (9 - 4 chi^2))
        e_hat_i = 1/(8 xi^2)                        (chi -> 0)
        e_hat_c = 3 (3 - chi^2)/(chi^2 (9 - 4 chi^2))  (chi/xi -> inf;
                  equals (lambda + 2 mu)/E)
        e_hat_l = (3-chi^2) [9 (x - 2t) + 2 chi^2 (9-4chi^2) t] /
                  [xi^2 x^3 (9-4chi^2) (3 - 2 xi chi t)]

    (x = chi/xi, t = I_1/I_0 (x), as in force_factor).  chi = 0 returns the
    incompressible limit with e_hat_c = +inf; chi = 3/2 is rejected
    because E = 0 there makes every E-normalized modulus singular.  Down
    to the floor xi = 1e-76 every modulus is a double (e_hat_i < 1.3e151).
    """
    check_xi(xi)
    if not (0.0 <= chi < CHI_MAX):
        raise ValueError(
            f"chi must lie in [0, 3/2); the modulus normalization is "
            f"singular at chi = 3/2 (E = 0), got {chi}"
        )
    e_i = 1.0 / (8.0 * xi * xi)
    ev = _edge(xi, chi)
    if ev is None:
        return ApparentModuli(e_i, e_i, math.inf, e_i)
    c2 = chi * chi
    three = 3.0 - c2
    nine4 = 9.0 - 4.0 * c2
    e_c = 3.0 * three / (c2 * nine4)
    e_hat = 3.0 * three * _g(xi, chi, ev) / (8.0 * xi * xi * nine4)
    num = 9.0 * ev.x_minus_2t + 2.0 * c2 * nine4 * ev.t
    den = ev.x ** 3 * nine4 * (3.0 - 2.0 * xi * chi * ev.t)
    e_l = three * num / (xi * xi * den)
    return ApparentModuli(e_hat, e_i, e_c, e_l)


# ---------------------------------------------------------------------------
# Thin compressible limit: uniaxial state + edge load
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniaxialState:
    """Uniform stress state of the thin compressible limit (uniaxial
    straining u_z = U z/h, u_r = 0) plus the edge load -s_rr carried by
    the edge-zone corrector problem."""

    s_rr: float
    s_tt: float
    s_zz: float
    s_rz: float
    edge_load: float


def compressible_superposition(xi: float, chi: float, mu: float = 1.0,
                               a: float = 1.0, U: float = 1.0) -> UniaxialState:
    """Stress state of the thin compressible limit and its edge corrector
    load.  Uniaxial straining u_z = U z/h, u_r = 0 gives the constant state

        s_zz = (lambda + 2 mu) U/h = 3 mu U/(a xi chi^2),
        s_rr = s_tt = lambda U/h = (3 - 2 chi^2) mu U/(a xi chi^2),
        s_rz = 0,

    (s_zz/s_rr = 3 at chi = 1; s_rr vanishes at chi = sqrt(3/2), where the
    state is pure uniaxial stress).  The interface shear vanishes
    identically, so the exact solution differs from this state only by an
    edge-zone corrector driven by the load -s_rr on the free edge R = 1,
    returned here for external consumption.  Requires chi > 0, mu and a
    positive and finite, and U finite (U = 0 and U < 0 are allowed).
    Where the state leaves double range, as it does once chi**2
    underflows (chi below about 1e-162) or by the scales, it raises
    NumericsError, rather than return inf.
    """
    check_xi(xi)
    if not (0.0 < chi <= CHI_MAX):
        raise ValueError(f"chi must be positive (and <= 3/2), got {chi}")
    mu, a = check_positive("mu", mu), check_positive("a", a)
    U = check_finite("U", U)
    with _in_range("compressible superposition", xi, chi):
        base = mu * np.float64(U) / (a * xi * chi * chi)
        s_rr = float((3.0 - 2.0 * chi * chi) * base)
        s_zz = float(3.0 * base)
    return UniaxialState(s_rr=s_rr, s_tt=s_rr, s_zz=s_zz, s_rz=0.0,
                         edge_load=-s_rr)
