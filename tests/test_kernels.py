"""Numeric kernels: Bessel ratio, quadrature, root finding, radial BVP."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebder, chebval, chebvander
from scipy.linalg import solve_banded
from scipy.special import i0e

from layerlab.kernels import (
    _MAX_REFINE,
    BesselRatioEval,
    NoSignChange,
    NumericsError,
    PanelPoly,
    QuadratureLimit,
    RadialSolution,
    SingularSystem,
    ToleranceNotMet,
    _assemble_and_solve,
    _chebder_rows,
    _design_matrices,
    _p_cancel_free,
    _residual_check,
    bessel_ratio,
    closed_form_profile,
    find_root,
    integrate,
    solve_dual_bvp,
    solve_linear_bvp,
)
from layerlab.materials import ZetaFamily, zeta_family
from layerlab.plate import radial_profile
from layerlab.regimes import plate_ratio_compressible, plate_ratio_incompressible
from layerlab.sphere import (SphereGeometry, _edge_closure, _ode_coefficients,
                             _sphere_edges)


# ---------------------------------------------------------------------------
# Bessel ratio t(x) = I1(x)/I0(x)
# ---------------------------------------------------------------------------

def test_bessel_ratio_reference_point():
    # independent oracle (mpmath): I1(1)/I0(1) = 0.44638996590...
    assert abs(bessel_ratio(1.0).t - 0.4463899659) < 1e-9


def test_bessel_ratio_against_mpmath_sweep():
    mpmath.mp.dps = 30
    for x in [1e-8, 1e-4, 0.1, 0.5, 1.0, 3.0, 10.0, 50.0, 700.0, 1e4]:
        want = float(mpmath.besseli(1, x) / mpmath.besseli(0, x))
        got = bessel_ratio(x).t
        assert abs(got - want) < 2e-14 * max(1.0, abs(want)), x


def test_bessel_ratio_scaled_values():
    mpmath.mp.dps = 30
    for x in [0.3, 2.0, 20.0, 800.0]:
        ev = bessel_ratio(x)
        want0 = float(mpmath.exp(-x) * mpmath.besseli(0, x))
        assert abs(ev.scaled_i0 - want0) < 1e-13 * want0


def test_bessel_ratio_limits():
    assert bessel_ratio(0.0).t == 0.0
    # t -> 1 from below for large x
    t_big = bessel_ratio(1e8).t
    assert 0.999999 < t_big < 1.0
    with pytest.raises(ValueError, match="requires x >= 0"):
        bessel_ratio(-1.0)


def test_x_minus_2t_against_mpmath():
    # x - 2 I1(x)/I0(x) ~ x^3/8 at small x, as bessel_ratio's record
    # holds it: the series branch below x = 2 and the direct difference
    # at and above it, both to full precision
    mpmath.mp.dps = 40
    for x in [1e-8, 1e-5, 1e-3, 0.05, 0.3, 1.0, 1.5, 1.999, 2.0, 2.001,
              3.0, 15.0, 100.0, 1e4]:
        xm = mpmath.mpf(x)
        want = xm - 2 * mpmath.besseli(1, xm) / mpmath.besseli(0, xm)
        got = bessel_ratio(x).x_minus_2t
        assert abs(got - want) < 1e-14 * abs(want), x
    assert bessel_ratio(0.0).x_minus_2t == 0.0


def _p_loop(x: float) -> float:
    """P(x) = x I_0(x) - 2 I_1(x) by its series, forming each ratio's
    denominator 4m(m + 2) in the loop: the reference _p_cancel_free's
    tabulated denominators must reproduce bit for bit."""
    term = x ** 3 / 8.0
    s = term
    x2 = x * x
    for m in range(1, 60):
        term *= x2 / (4.0 * m * (m + 2.0))
        s += term
        if term < 1e-17 * s:
            break
    return s


def test_p_cancel_free_equals_its_loop_form_bit_for_bit():
    xs = (np.random.default_rng(20).uniform(0.0, 2.0, 20000).tolist()
          + np.geomspace(1e-8, 1.999, 400).tolist()
          + [0.0, 1.999, math.nextafter(2.0, 0.0)])
    assert [_p_cancel_free(x).hex() for x in xs] \
        == [_p_loop(x).hex() for x in xs]


@pytest.mark.parametrize("record, cls, names", [
    (lambda: bessel_ratio(0.5), BesselRatioEval,
     ("x", "t", "scaled_i0", "x_minus_2t")),
    (lambda: zeta_family(1e-2, 0.5), ZetaFamily,
     ("xi", "chi", "zeta", "zeta_bar", "zeta_tilde")),
], ids=["bessel_ratio", "zeta_family"])
def test_scalar_records_are_named_tuples(record, cls, names):
    # the plate's per-point records cost what a tuple costs: fields in
    # their documented order, read by name or position, and immutable
    rec = record()
    assert type(rec) is cls and isinstance(rec, tuple)
    assert cls._fields == names
    assert tuple(rec) == tuple(getattr(rec, name) for name in names)
    with pytest.raises(AttributeError):
        setattr(rec, names[-1], 1.0)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def test_integrate_polynomial_exact():
    q = integrate(lambda x: 3.0 * x * x, 0.0, 1.0, tol=1e-12)
    assert abs(q.value - 1.0) < 1e-13
    assert q.abs_err_est < 1e-10
    assert q.evals > 0


def test_integrate_profile_tail():
    # int_0^{1/sqrt(xi)} R/(1+R^2/2)^3 dR with xi = 1e-2: the
    # antiderivative is -1/(2(1+R^2/2)^2), so the value is
    # (1/2)(1 - 1/51^2) = 0.49980776624...
    xi = 1e-2
    want = 0.5 * (1.0 - 1.0 / 51.0**2)
    q = integrate(lambda r: r / (1.0 + 0.5 * r * r) ** 3, 0.0,
                  1.0 / math.sqrt(xi), tol=1e-12)
    assert abs(q.value - want) < 1e-12


def test_integrate_raises_on_unresolvable():
    # a genuinely divergent integrand must not return silently
    with pytest.raises(QuadratureLimit):
        integrate(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-10)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def test_find_root_simple():
    r = find_root(lambda x: x * x - 2.0, (0.0, 2.0), tol=1e-14)
    assert abs(r - math.sqrt(2.0)) < 1e-13


def test_find_root_endpoint_exact():
    assert find_root(lambda x: x - 1.0, (1.0, 2.0)) == 1.0
    assert find_root(lambda x: x - 2.0, (1.0, 2.0)) == 2.0


def test_find_root_requires_sign_change():
    with pytest.raises(NoSignChange):
        find_root(lambda x: 1.0 + x * x, (0.0, 1.0))
    with pytest.raises(ValueError):
        find_root(lambda x: x, (2.0, 1.0))


def test_find_root_rejects_nonpositive_tol():
    # brentq's own check on xtol, made once the bracket holds a sign change
    for tol in (0.0, -1e-12):
        with pytest.raises(ValueError, match="xtol too small"):
            find_root(lambda x: x - 0.5, (0.0, 1.0), tol=tol)


def _brentq_root(g, bracket, tol):
    # the reference: scipy's brentq with find_root's xtol and rtol
    from scipy.optimize import brentq

    return brentq(g, *bracket, xtol=tol,
                  rtol=max(tol, 4.0 * np.finfo(float).eps))


@pytest.mark.parametrize("tol", [1e-13, 1e-8])
def test_find_root_matches_brentq_on_plate_transitions(tol):
    # plate_transitions' two ratio functions on its two brackets, over a
    # sweep of tolerances: every root is brentq's, bit for bit
    for tau in np.geomspace(1e-8, 99.0, 50):
        target = 1.0 + float(tau)
        for ratio, bracket in ((plate_ratio_compressible, (1e-9, 1e3)),
                               (plate_ratio_incompressible, (1e-6, 1e6))):
            def g(z):
                return ratio(z) - target
            got = find_root(g, bracket, tol=tol)
            assert type(got) is float
            assert got == _brentq_root(g, bracket, tol), (tau, ratio)


def test_find_root_matches_brentq_on_generic_brackets():
    # (x - c)^p (1 + 0.1 sin 5x), odd p, on seeded brackets and tolerances:
    # a root where brentq finds one, bit for bit, and a failure where
    # brentq fails to converge (flat high-order roots at tight tolerance)
    rng = np.random.default_rng(20)
    converged = failed = 0
    for _ in range(600):
        c = rng.uniform(-1.0, 1.0)
        p = int(rng.choice([1, 3, 5, 7, 9, 11]))
        bracket = (c - rng.uniform(1e-3, 3.0), c + rng.uniform(1e-3, 3.0))
        tol = float(10.0 ** rng.uniform(-15.0, -2.0))

        def g(x):
            return (x - c) ** p * (1.0 + 0.1 * math.sin(5.0 * x))
        try:
            want = _brentq_root(g, bracket, tol)
        except RuntimeError:
            with pytest.raises(NumericsError, match="failed to converge"):
                find_root(g, bracket, tol=tol)
            failed += 1
            continue
        assert find_root(g, bracket, tol=tol) == want, (c, p, bracket, tol)
        converged += 1
    assert converged > 300 and failed > 50


def test_find_root_nan_value_raises():
    # a NaN value of g stops the search, as in brentq
    with pytest.raises(ValueError, match="NaN"):
        find_root(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5,
                  (0.0, 1.0))
    # a NaN at either end raises brentq's ValueError and message before
    # the zero and sign tests, against a negative, a positive or a zero
    # other end alike
    for g in (lambda x: math.nan if x == 0.0 else -1.0,
              lambda x: math.nan if x == 1.0 else -1.0,
              lambda x: math.nan if x == 0.0 else 1.0,
              lambda x: 0.0 if x == 0.0 else math.nan):
        with pytest.raises(ValueError) as want:
            _brentq_root(g, (0.0, 1.0), 1e-12)
        with pytest.raises(ValueError, match="NaN") as got:
            find_root(g, (0.0, 1.0))
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Radial BVP solver
# ---------------------------------------------------------------------------


def _const(*values):
    """A function of s giving the constants values, each as an array of
    the shape of s: one side of an (ode, ode_s) pair."""
    return lambda s: tuple(np.full_like(np.asarray(s, dtype=float), c)
                           for c in values)


def _bessel(q=-1.0, f=-1.0):
    """The s-form pair (ode, ode_s) of A'' + A'/R + q A = f with constant
    q and f: m = R p = 1 and every s-derivative 0."""
    return _const(1.0, q, f), _const(0.0, 0.0, 0.0)


_MESH = np.linspace(0.0, 5.0, 25)
_ZERO_RIM = (1.0, 0.0, 0.0, 0.0)


def test_bvp_degenerate_constant_solution():
    # A'' + A'/R - A = -1, regular at 0, A(5) = 1 has the constant
    # solution A = 1 (the particular solution already meets the right
    # boundary value, so the homogeneous amplitude vanishes)
    sol = solve_linear_bvp(_bessel(), (1.0, 0.0, 0.0, 1.0), tol=1e-10,
                           mesh=_MESH)
    rr = np.linspace(1e-6, 5.0, 101)
    a, da, *_ = sol.eval(rr)
    assert float(np.max(np.abs(a - 1.0))) < 1e-10
    assert float(np.max(np.abs(da))) < 1e-9


def test_bvp_modified_bessel_solution():
    # A'' + A'/R - A = -1, regular at 0, A(5) = 0 has
    # A(R) = 1 - I0(R)/I0(5); checked against mpmath at interior points
    mpmath.mp.dps = 30
    sol = solve_linear_bvp(_bessel(), _ZERO_RIM, tol=1e-11, mesh=_MESH)
    i05 = mpmath.besseli(0, 5)
    for r in [1e-6, 0.5, 1.0, 2.5, 4.0, 5.0]:
        want = float(1.0 - mpmath.besseli(0, r) / i05)
        got = float(sol.eval(r)[0])
        assert abs(got - want) < 1e-9, (r, got, want)
    # value at the regularity end: 1 - 1/I0(5) = 0.963289107729...
    assert abs(float(sol.eval(1e-6)[0]) - 0.963289107729) < 1e-8


def test_bvp_regular_axis_values():
    # the regular solution is solved in s = R^2, so the axis is an
    # ordinary point of the representation: A'(0) = A'''(0) = 0 exactly
    # and A''(0) is finite, here -I0''(0)/I0(5) = -1/(2 I0(5)) for
    # A = 1 - I0(R)/I0(5)
    mpmath.mp.dps = 30
    sol = solve_linear_bvp(_bessel(), _ZERO_RIM, tol=1e-11, mesh=_MESH)
    i05 = mpmath.besseli(0, 5)
    a, da, d2a, d3a, *_ = sol.eval(0.0)
    assert abs(a - float(1 - 1 / i05)) < 1e-10
    assert da == 0.0 and d3a == 0.0
    assert abs(d2a - float(-1 / (2 * i05))) < 1e-10


def test_bvp_plain_float_coefficients():
    # coefficients that return a constant instead of an array of the
    # argument's shape give the same solution as the vectorized ones
    ref = solve_linear_bvp(_bessel(), _ZERO_RIM, tol=1e-11, mesh=_MESH)
    plain = (lambda s: (1.0, -1.0, -1.0), lambda s: (0.0, 0.0, 0.0))
    sol = solve_linear_bvp(plain, _ZERO_RIM, tol=1e-11, mesh=_MESH)
    assert sol.meta["panels"] == ref.meta["panels"]
    rr = np.linspace(0.0, 5.0, 101)
    for got, want in zip(sol.eval(rr), ref.eval(rr)):
        assert float(np.max(np.abs(got - want))) <= 1e-15


def test_eval_given_to_the_constructor_overrides_one_instance():
    # an eval given to the constructor (dataclasses.replace passes it on)
    # stands in for the method on that instance alone; the method itself,
    # bound to this or another instance or not bound, is no override; an
    # eval assigned to an instance stands in as well
    def terms(r):
        return r, 2.0 * r, r * r, None, r, None

    def read(r):
        return "read", np.shape(r)

    p = RadialSolution(terms)
    want = (0.5, 1.0, 0.25, None, 0.5, None)
    q = dataclasses.replace(p, eval=read)
    assert q.eval is read and q.eval(0.5) == ("read", ())
    assert p.eval(0.5) == want and "eval" not in vars(p)
    assert dataclasses.replace(q, meta={"m": 1}).eval is read
    other = RadialSolution(lambda r: (r,) * 6)
    for method in (p.eval, other.eval, RadialSolution.eval):
        plain = RadialSolution(terms, eval=method)
        assert "eval" not in vars(plain) and plain.eval(0.5) == want
        assert dataclasses.replace(plain, meta={}).eval(0.5) == want
    plain.eval = read
    assert plain.eval(0.5) == ("read", ()) and p.eval(0.5) == want


def test_bvp_robin_right_condition():
    # A'' + A'/R = 4 on [0, 2], regular at 0, A + A' = 0 at 2 -> the
    # regular solutions are R^2 + b, and A(2) + A'(2) = 8 + b = 0 gives
    # A = R^2 - 8
    sol = solve_linear_bvp(_bessel(q=0.0, f=4.0), (1.0, 1.0, 0.0, 0.0),
                           tol=1e-10, mesh=np.linspace(0.0, 2.0, 25))
    rr = np.linspace(0.0, 2.0, 17)
    a, da, *_ = sol.eval(rr)
    assert float(np.max(np.abs(a - (rr**2 - 8.0)))) < 1e-10
    assert float(np.max(np.abs(da - 2.0 * rr))) < 1e-10


def test_bvp_derivatives_from_ode():
    # A'' and A''' are read off the equation and its derivative: A'' meets
    # the R-form equation wherever A and A' do, and A''' matches
    # -I0'''(R)/I0(5) from mpmath, on the axis too
    mpmath.mp.dps = 30
    sol = solve_linear_bvp(_bessel(), _ZERO_RIM, tol=1e-11, mesh=_MESH)
    rr = np.linspace(0.5, 4.5, 41)
    a, da, d2a, *_ = sol.eval(rr)
    res = d2a + da / rr - a + 1.0
    assert float(np.max(np.abs(res))) < 1e-12
    i05 = mpmath.besseli(0, 5)
    radii = [0.0, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 2.5, 4.0, 5.0]
    want = np.array([float(-mpmath.diff(lambda x: mpmath.besseli(0, x), r, 3)
                           / i05) for r in radii])
    got = sol.eval(np.array(radii))[3]
    sup = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) < 1e-12 * sup


def test_bvp_dual_method_agreement():
    # the alternate integrator is an independent oracle for the primary
    s1 = solve_linear_bvp(_bessel(), _ZERO_RIM, tol=1e-11, mesh=_MESH,
                          method="primary")
    s2 = solve_linear_bvp(_bessel(), _ZERO_RIM, tol=1e-11, mesh=_MESH,
                          method="alt")
    rr = np.linspace(1e-6, 5.0, 201)
    a1 = s1.eval(rr)[0]
    a2 = s2.eval(rr)[0]
    sup = float(np.max(np.abs(a1)))
    assert float(np.max(np.abs(a1 - a2))) < 1e-9 * sup


def test_solve_dual_bvp_returns_cross_checked_primary():
    sol = solve_dual_bvp(_bessel(), _ZERO_RIM, 1e-11, "on the test problem",
                         mesh=_MESH)
    ref = solve_linear_bvp(_bessel(), _ZERO_RIM, tol=1e-11, mesh=_MESH,
                           method="primary")
    alt = solve_linear_bvp(_bessel(), _ZERO_RIM, tol=1e-11, mesh=_MESH,
                           method="alt")
    assert sol.meta["method"] == "primary" and sol.meta["reference"] == "alt"
    rr = np.linspace(0.0, 5.0, 1501)
    assert np.array_equal(sol.eval(rr)[0], ref.eval(rr)[0])
    # the disagreement it reports is the one between the two methods, on
    # the primary's 6-point Gauss-Legendre nodes in s
    s, _, a_ref, _ = ref.s_form.gauss
    dual_rel = (float(np.max(np.abs(a_ref - alt.s_form(s)[0])))
                / float(np.max(np.abs(a_ref))))
    assert sol.meta["dual_sup_rel"] == dual_rel < 1e-9
    assert sol.meta["alt_panels"] == alt.meta["panels"]
    assert sol.meta["alt_passes"] == alt.meta["passes"]


def _chi0_solutions(s, derivatives=True):
    """The sphere profile's closed form at chi = 0 as solve_dual_bvp's
    exact reference takes it: P = 1/(2 sigma**2), sigma = s + 2, and
    H = 1, each with its first two s-derivatives, or (P, H) alone."""
    sg = s + 2.0
    p, h = 0.5 / (sg * sg), np.ones_like(s)
    if not derivatives:
        return p, h
    zero = np.zeros_like(s)
    return (p, -1.0 / sg ** 3, 3.0 / sg ** 4), (h, zero, zero)


def test_solve_dual_bvp_checks_against_an_exact_reference():
    # given a closed form, the primary is checked against it on the same
    # Gauss-Legendre nodes, with C from the rim row, and no alt solve runs
    equation, right, mesh = _sphere_problem(1e-3, 0.0)
    sol = solve_dual_bvp(equation, right, 1e-10, "on the chi = 0 cell",
                         mesh=mesh, exact=_chi0_solutions)
    meta = sol.meta
    assert meta["reference"] == "exact" and "alt_panels" not in meta
    assert "alt_passes" not in meta and meta["dual_gate"] == 1e-8
    # the C the check used, as the closed form derives it from the rim row
    assert meta["C"] == closed_form_profile(
        equation, right, float(mesh[-1]), _chi0_solutions).meta["C"]
    s, _, a_p, _ = sol.s_form.gauss
    # A = 1/(2 sigma**2) - xi**2/(2 (1 + 2 xi)**2) (sphere module docstring)
    want = 0.5 / (s + 2.0) ** 2 - 1e-6 / (2.0 * 1.002 ** 2)
    assert meta["dual_sup_rel"] == pytest.approx(
        float(np.max(np.abs(a_p - want))) / float(np.max(np.abs(a_p))),
        rel=1e-3, abs=1e-15)
    assert meta["dual_sup_rel"] <= 1e-12


def test_exact_reference_gate_raises():
    # a reference off by 1e-6 of P fails the gate min(1e-8, 100 tol), in
    # the one ToleranceNotMet both references raise
    def off(s, derivatives=True):
        p, h = _chi0_solutions(s, False)
        return 1.000001 * p, h

    equation, right, mesh = _sphere_problem(1e-3, 0.0)
    with pytest.raises(ToleranceNotMet, match="the panels and the exact "
                       "profile disagree on the chi = 0 cell") as exc:
        solve_dual_bvp(equation, right, 1e-10, "on the chi = 0 cell",
                       mesh=mesh, exact=lambda s, d=True: (
                           _chi0_solutions(s) if d else off(s)))
    assert 1e-8 < exc.value.best < 1e-5


@pytest.mark.parametrize("tol, gate", [(1e-6, 1e-8), (1e-10, 1e-8),
                                       (1e-11, 1e-9), (1e-12, 1e-10)])
def test_dual_gate_scales_with_tolerance(tol, gate):
    # the agreement asked of the two discretizations is min(1e-8,
    # 100 tol): today's 1e-8 at the default 1e-10, and never looser
    sol = solve_dual_bvp(_bessel(), _ZERO_RIM, tol, "on the test problem",
                         mesh=_MESH)
    assert sol.meta["dual_gate"] == pytest.approx(gate, rel=1e-15)
    assert sol.meta["dual_sup_rel"] <= gate


def test_solve_dual_bvp_zero_solution():
    # f = 0 with a homogeneous rim row: both discretizations give A = 0
    # exactly, so the relative disagreement is 0 rather than 0/0
    sol = solve_dual_bvp(_bessel(f=0.0), _ZERO_RIM, 1e-10,
                         "on the zero problem", mesh=_MESH)
    assert np.all(sol.eval(np.linspace(0.0, 5.0, 101))[0] == 0.0)
    assert sol.meta["dual_sup_rel"] == 0.0


def test_bvp_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        solve_linear_bvp(_bessel(), _ZERO_RIM, mesh=_MESH, method="beta")


@pytest.mark.parametrize("mesh", [
    pytest.param([0.0, 0.0], id="0.0"),
    pytest.param([0.0, -1.0], id="-1.0"),
    pytest.param([0.0, math.nan], id="nan"),
    pytest.param([5.0], id="one-edge"),
    pytest.param(np.linspace(0.1, 5.0, 9), id="off-axis"),
    pytest.param([0.0, 1.0, 1.0, 3.0], id="repeated-edge"),
    pytest.param([0.0, math.nan, 3.0], id="nan-inside"),
    pytest.param([0.0, 1.0, math.inf], id="inf-rim"),
    pytest.param([0.0, 2.0, 1.0, 3.0], id="backward-panel"),
    pytest.param([0.0, 3.0, 2.0, 1.0, 3.5], id="unsorted"),
])
def test_bvp_rejects_empty_interval(mesh):
    # a mesh runs from the axis R = 0 out to a finite positive rim, its
    # edges strictly increasing: an empty, backward or non-finite panel
    # is refused before any solve, with no numpy warning first
    with pytest.raises(ValueError, match="from 0 to a positive rim"):
        solve_linear_bvp(_bessel(), _ZERO_RIM, mesh=mesh)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_bvp_rejects_invalid_tolerance(tol):
    # a tolerance that no residual can meet (or every residual meets) is
    # a caller error, raised before any solve
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_linear_bvp(_bessel(), _ZERO_RIM, tol=tol, mesh=_MESH)


def test_bvp_rejects_vanishing_rim_functional():
    with pytest.raises(SingularSystem, match="vanishes"):
        solve_linear_bvp(_bessel(), (0.0, 0.0, 0.0, 0.0), mesh=_MESH)


def test_tolerance_not_met_carries_diagnostics():
    err = ToleranceNotMet("bad", best=1.0, residual=2.0, scale=3.0)
    assert err.best == 1.0 and err.residual == 2.0 and err.scale == 3.0


def test_bvp_unreachable_tolerance_raises_with_residual():
    # 1e-17 is below the residual's rounding floor: refinement stops when
    # a pass no longer lowers the residual, and the best residual comes
    # back with its scale (sup|f| = 1) and the panels over tolerance
    with pytest.raises(ToleranceNotMet, match="tolerance not met") as exc:
        solve_linear_bvp(_bessel(), _ZERO_RIM, tol=1e-17, mesh=_MESH)
    err = exc.value
    assert err.scale == 1.0
    assert 1e-17 < err.residual < 1e-11
    assert err.floor == err.residual and err.passes <= _MAX_REFINE
    assert err.intervals and all(0.0 <= lo < hi <= 5.0
                                 for lo, hi in err.intervals)


def test_bvp_refines_only_panels_over_tolerance():
    # A'' + A'/R - 400 A = -1 has a layer of width 1/20 at the rim:
    # A = (1 - I0(20 R)/I0(100))/400.  Only the rim panels are split, so
    # the interior keeps its edges and the mesh grows from 24 to 29
    # panels in two passes (uniform doubling would give 96)
    sol = solve_linear_bvp(_bessel(q=-400.0), _ZERO_RIM, tol=1e-10,
                           mesh=_MESH)
    edges = np.concatenate(([0.0], sol.meta["edges"]))
    assert sol.meta["passes"] == 2 and sol.meta["panels"] == 29
    assert np.array_equal(edges[edges < 4.4], _MESH[_MESH < 4.4])
    rr = np.linspace(0.0, 5.0, 2001)
    want = (1.0 - i0e(20.0 * rr) / i0e(100.0) * np.exp(20.0 * rr - 100.0)) / 400.0
    assert np.max(np.abs(sol.eval(rr)[0] - want)) <= 1e-11 * np.max(want)


def test_bvp_pass_limit_names_the_panels():
    # with a layer of width 1/50 at the rim, three passes of splitting
    # leave the rim panel just over tol: the error says the pass limit
    # stopped it and where
    with pytest.raises(ToleranceNotMet,
                       match=r"after 3 passes \(the pass limit\).* at R in "
                             r"\[4\.") as exc:
        solve_linear_bvp(_bessel(q=-2500.0), _ZERO_RIM, tol=1e-10, mesh=_MESH)
    assert exc.value.passes == _MAX_REFINE
    assert all(4.5 < lo < hi == 5.0 for lo, hi in exc.value.intervals)


def test_dual_bvp_raises_when_discretizations_disagree():
    # q = -2500 puts a layer of width 1/50 at the rim: each
    # discretization meets the loose tol 1e-2 on 24 uniform panels, but
    # they differ there by ~6e-5 of sup|A|
    with pytest.raises(ToleranceNotMet,
                       match="independent discretizations disagree on the "
                             "test problem") as exc:
        solve_dual_bvp(_bessel(q=-2500.0), _ZERO_RIM, 1e-2,
                       "on the test problem", mesh=_MESH)
    assert exc.value.best > 1e-8


def test_bvp_singular_system_raises():
    # A'' + A'/R = 0 with A'(5) = 0: every constant solves it.  The band
    # LU finds the zero pivot; the error names the discretization and
    # keeps LAPACK's error as its cause
    with pytest.raises(SingularSystem,
                       match=r"singular system in BVP collocation solve "
                             r"\(singular matrix\): method 'primary', "
                             r"degree 10, 24 panels") as exc:
        solve_linear_bvp(_bessel(q=0.0, f=0.0), (0.0, 1.0, 0.0, 0.0),
                         mesh=_MESH)
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def _nan_inside(s):
    # _bessel()'s (m, q, f), but q = -1 except on 4 < s < 9, where it is NaN
    s = np.asarray(s, dtype=float)
    return (np.ones_like(s), np.where((s > 4.0) & (s < 9.0), np.nan, -1.0),
            np.full_like(s, -1.0))


@pytest.mark.parametrize("method", ["primary", "alt"])
@pytest.mark.parametrize("equation", [
    _bessel(q=np.nan), _bessel(f=np.nan), (_nan_inside, _bessel()[1]),
], ids=["q", "f", "q-inside"])
def test_bvp_nan_coefficient_raises_singular_system(equation, method):
    # a NaN coefficient poisons the band or the right-hand side: LAPACK
    # either meets a NaN pivot or returns NaN, and both surface as
    # SingularSystem with the LinAlgError as its cause
    with pytest.raises(SingularSystem, match=f"method '{method}'") as exc:
        solve_linear_bvp(equation, _ZERO_RIM, mesh=_MESH, method=method)
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("deg", [5, 6, 8, 10])
def test_chebder_rows_is_chebder_bit_for_bit(deg):
    # PanelPoly's derivative series against numpy's chebder along the
    # rows, on coefficients spread over 40 decades, applied twice (the
    # second derivative differentiates the first)
    rng = np.random.default_rng(deg)
    c = rng.standard_normal((64, deg + 1)) * 10.0 ** rng.uniform(
        -30.0, 10.0, (64, deg + 1))
    d1 = _chebder_rows(c)
    assert np.array_equal(d1, chebder(c, axis=1))
    assert np.array_equal(_chebder_rows(d1), chebder(d1, axis=1))


def _sphere_problem(xi, chi):
    """The sphere profile's (equation, right, mesh) at (xi, chi)."""
    geo = SphereGeometry.of(xi)
    return (_ode_coefficients(xi, chi), _edge_closure(geo, chi),
            _sphere_edges(geo))


@pytest.mark.parametrize("xi, chi", [
    (1e-4, 1e-3), (1e-3, 1.0), (1e-2, 1.5), (1e-3, math.sqrt(3e-3)),
], ids=["1e-4-1e-3", "1e-3-1", "1e-2-1.5", "theta-1e-3"])
def test_sphere_dual_disagreement_is_the_evaluators(xi, chi):
    # the sphere-cell form of test_solve_dual_bvp_returns_cross_checked_
    # primary: the reported dual_sup_rel is the one recomputed from the
    # primary's values on its 6-point Gauss-Legendre nodes and the alt
    # solve's full panel evaluator there ("theta-1e-3" is the operator of
    # Theta's closed form, chi**2 = 3 xi, at load 1)
    equation, right, mesh = _sphere_problem(xi, chi)
    sol = solve_dual_bvp(equation, right, 1e-10, "on a sphere cell",
                         mesh=mesh)
    ref, alt = (solve_linear_bvp(equation, right, tol=1e-10, mesh=mesh,
                                 method=method) for method in ("primary", "alt"))
    s, _, a_ref, _ = ref.s_form.gauss
    dual_rel = (float(np.max(np.abs(a_ref - alt.s_form(s)[0])))
                / float(np.max(np.abs(a_ref))))
    assert sol.meta["dual_sup_rel"] == dual_rel <= 1e-8
    assert sol.meta["alt_panels"] == alt.meta["panels"]


def _rim_graded_mesh(xi, chi):
    """R edges from the axis to the rim R_e = 1/sqrt(xi), each panel
    taking half the distance left to the rim, down to a last panel of at
    most a quarter of the rim layer's decay length sqrt(xi)/chi."""
    r_e, width = 1.0 / math.sqrt(xi), math.sqrt(xi) / (4.0 * chi)
    edges, left = [0.0], r_e
    while left > width:
        left /= 2.0
        edges.append(r_e - left)
    return edges + [r_e]


@pytest.mark.parametrize("xi, chi", [
    (0.1, 0.5), (1e-3, 1e-3), (1e-2, 0.1), (1e-2, 1.0), (1e-3, 1.0),
    (1e-4, 1.0), (1e-6, 1.5)])
def test_unit_gap_problem_meets_the_plate_closed_form(xi, chi):
    # the sphere's radial problem at gap g = 1 (m = R p = 1,
    # q = -chi**2/xi, f = -1/2, and the rim row
    # 3 A'' - (k/R_e) A' + (3 k/xi) A = 0 with k = 3 - 2 chi**2) is the
    # plate's in R_s = R/sqrt(xi): A(R_s) = xi A_plate(R_s sqrt(xi)), so
    # A_s = dA/ds = (xi**2/2) (A'/R)_plate with s = R_s**2.  It is the one
    # exact reference the panels, their refinement and the dual check have
    # in a thin rim layer, at kappa = chi/xi up to 1.5e6 here, and it
    # shares no code with them.  On 4-34 panels, sampled at 41 points a
    # panel, A and A_s met it to 4.7e-16 .. 7.5e-14 and 8.7e-16 .. 2.8e-13
    # of their sups up to kappa = 1e4, and to 3.4e-11 and 5.2e-11 at
    # kappa = 1.5e6, where the rounding of R alone moves exp(kappa R) by
    # about kappa ulps: bound 3e-13 + 1e-16 kappa.  A 0.1% error in the
    # rim row's 3 k/xi or in m, which the dual check cannot see, lifted
    # every cell's larger error past its bound: to 1.7e-10 or more, and
    # 1.7e-9 or more.  At (1e-8, 1) the dual check refuses (1.2e-9 against
    # 1e-10)
    k, r_e = 3.0 - 2.0 * chi * chi, 1.0 / math.sqrt(xi)
    equation = (lambda s: (1.0, -chi * chi / xi, -0.5),
                lambda s: (0.0, 0.0, 0.0))
    sol = solve_dual_bvp(equation, (3.0 * k / xi, -k / r_e, 3.0, 0.0), 1e-12,
                         "on the unit gap", mesh=_rim_graded_mesh(xi, chi))
    edges = np.concatenate(([0.0], sol.meta["edges"]))
    r = np.concatenate([np.linspace(lo, hi, 41)
                        for lo, hi in zip(edges[:-1], edges[1:])])
    a, a_s = sol.s_form(r * r)[:2]
    plate = radial_profile(xi, chi).eval(r * math.sqrt(xi))
    bound = 3e-13 + 1e-16 * chi / xi
    for got, want in ((a, xi * plate[0]), (a_s, 0.5 * xi * xi * plate[4])):
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert err <= bound, (xi, chi, err)


# ---------------------------------------------------------------------------
# Batched collocation kernel against its per-panel loop form
# ---------------------------------------------------------------------------

def _loop_solve(equation, edges, deg, kind, left_row, right_row):
    """Per-panel assembly of 4 s v'' + 2 (1 + m) v' + q v = f, the
    equation (ode, ode_s), and band
    solve, emitting the rows one by one in the kernel's order (left row;
    each panel's collocation rows, then its continuity pair with the next
    panel; right row) and writing each entry on its own into band
    storage."""
    tpts, v0, v1, v2, ((el, er), (dl, dr)) = _design_matrices(deg, kind)
    npan, nc = len(edges) - 1, deg + 1
    n, bw = npan * nc, nc
    halves = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ab = np.zeros((2 * bw + 1, n))
    rhs = []

    def add(span, row, b):
        for col, v in zip(span, row):
            ab[bw + len(rhs) - col, col] = v
        rhs.append(b)

    def boundary(row_spec, ev, ed, h, base):
        ca, cb, b = row_spec
        row = ca * ev + cb * ed / h
        sc = max(np.max(np.abs(row)), 1e-300)
        add(range(base, base + nc), row / sc, b / sc)

    boundary(left_row, el, dl, halves[0], 0)
    for i in range(npan):
        h = halves[i]
        ss = mids[i] + h * tpts
        m, q, f = equation[0](ss)
        block = (4.0 * ss[:, None] * v2 / (h * h)
                 + 2.0 * (1.0 + m)[:, None] * v1 / h
                 + q[:, None] * v0)
        scale = np.max(np.abs(block), axis=1)
        scale[scale == 0.0] = 1.0
        block /= scale[:, None]
        for k in range(len(tpts)):
            add(range(i * nc, (i + 1) * nc), block[k], f[k] / scale[k])
        if i < npan - 1:
            span = range(i * nc, (i + 2) * nc)
            add(span, list(er) + list(-el), 0.0)
            add(span, list(dr / halves[i]) + list(-dl / halves[i + 1]), 0.0)
    boundary(right_row, er, dr, halves[-1], (npan - 1) * nc)
    assert len(rhs) == n
    return solve_banded((bw, bw), ab, np.asarray(rhs),
                        check_finite=False).reshape(npan, nc)


def _loop_residual(equation, edges, coefs, deg):
    """Residual sup, scale and per-panel sups, each panel through its own
    one-panel PanelPoly."""
    tt = np.linspace(-1.0, 1.0, 10 * (deg - 1) + 2)[1:-1]
    panel_sups, scale = [], 0.0
    for i in range(len(edges) - 1):
        ss, (av, a1, a2) = PanelPoly(edges[i:i + 2], coefs[i:i + 1]).grid(
            tt, chebvander(tt, deg))
        m, q, f = equation[0](ss)
        res = 4.0 * ss * a2 + 2.0 * (1.0 + m) * a1 + q * av - f
        panel_sups.append(float(np.max(np.abs(res))))
        scale = max(scale, float(np.max(np.abs(f))),
                    float(np.max(np.abs(q * av))))
    return max(panel_sups), scale, panel_sups


def _clenshaw_residual(equation, edges, coefs, deg):
    """Residual sup, scale and per-panel sups, one Clenshaw call per
    panel: an evaluation independent of PanelPoly's Vandermonde rule."""
    tt = np.linspace(-1.0, 1.0, 10 * (deg - 1) + 2)[1:-1]
    dco = chebder(coefs.T, 1, axis=0)
    d2co = chebder(coefs.T, 2, axis=0)
    panel_sups, scale = [], 0.0
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        h = 0.5 * (b - a)
        ss = 0.5 * (a + b) + h * tt
        av = chebval(tt, coefs[i])
        a1 = chebval(tt, dco[:, i]) / h
        a2 = chebval(tt, d2co[:, i]) / (h * h)
        m, q, f = equation[0](ss)
        res = 4.0 * ss * a2 + 2.0 * (1.0 + m) * a1 + q * av - f
        panel_sups.append(float(np.max(np.abs(res))))
        scale = max(scale, float(np.max(np.abs(f))),
                    float(np.max(np.abs(q * av))))
    return max(panel_sups), scale, panel_sups


@pytest.mark.parametrize("method", [(6, "gauss"), (5, "chebyshev")])
@pytest.mark.parametrize("problem", ["bessel", "one-panel", "sphere"])
def test_batched_kernel_matches_loop_form_bit_for_bit(problem, method):
    # each form gets the squared R edges of a radial mesh, as the solver
    # passes them
    deg, kind = method
    if problem in ("bessel", "one-panel"):
        equation = _bessel()
        # one panel: no continuity rows between the two boundary rows
        edges = np.linspace(0.0, 5.0, 13 if problem == "bessel" else 2) ** 2
    else:
        equation = _ode_coefficients(1e-2, 1.0)
        edges = _sphere_edges(SphereGeometry.of(1e-2)) ** 2
    rows = ((0.0, 1.0, 0.0), (1.0, 0.5, 0.25))
    want = _loop_solve(equation, edges, deg, kind, *rows)
    got = _assemble_and_solve(equation, edges, deg, kind, *rows)
    assert np.array_equal(got, want)
    res_sup, scale, panel_sups = _residual_check(
        equation, PanelPoly(edges, got), deg)
    loop_sup, loop_scale, loop_panels = _loop_residual(equation, edges,
                                                        want, deg)
    assert (res_sup, scale) == (loop_sup, loop_scale)
    assert panel_sups.tolist() == loop_panels
    ref_sup, ref_scale, ref_panels = _clenshaw_residual(equation, edges,
                                                        want, deg)
    assert abs(res_sup - ref_sup) <= 1e-15 * ref_scale
    assert abs(scale - ref_scale) <= 1e-15 * ref_scale
    assert np.max(np.abs(panel_sups - ref_panels)) <= 1e-15 * ref_scale
