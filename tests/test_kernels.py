"""Numeric kernels: Bessel ratio, quadrature, root finding, radial BVP."""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebder, chebval
from scipy.linalg import solve_banded

from layerlab.kernels import (
    NoSignChange,
    PanelPoly,
    QuadratureLimit,
    SingularSystem,
    ToleranceNotMet,
    _assemble_and_solve,
    _design_matrices,
    _residual_check,
    bessel_ratio,
    find_root,
    integrate,
    solve_dual_bvp,
    solve_linear_bvp,
    x_minus_2t,
)
from layerlab.sphere import _ode_coefficients, _sphere_edges


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
        want1 = float(mpmath.exp(-x) * mpmath.besseli(1, x))
        assert abs(ev.scaled_i0 - want0) < 1e-13 * want0
        assert abs(ev.scaled_i1 - want1) < 1e-13 * max(want1, 1e-300)


def test_bessel_ratio_limits():
    assert bessel_ratio(0.0).t == 0.0
    # t -> 1 from below for large x
    t_big = bessel_ratio(1e8).t
    assert 0.999999 < t_big < 1.0


def test_x_minus_2t_against_mpmath():
    # x - 2 I1(x)/I0(x) ~ x^3/8 at small x: the series branch below x = 2
    # and the direct difference at and above it, both to full precision
    mpmath.mp.dps = 40
    for x in [1e-8, 1e-5, 1e-3, 0.05, 0.3, 1.0, 1.5, 1.999, 2.0, 2.001,
              3.0, 15.0, 100.0, 1e4]:
        xm = mpmath.mpf(x)
        want = xm - 2 * mpmath.besseli(1, xm) / mpmath.besseli(0, xm)
        got = x_minus_2t(bessel_ratio(x))
        assert abs(got - want) < 1e-14 * abs(want), x
    assert x_minus_2t(bessel_ratio(0.0)) == 0.0


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


# ---------------------------------------------------------------------------
# Radial BVP solver
# ---------------------------------------------------------------------------


def _const(c):
    """Vectorized constant coefficient for the BVP solver."""
    return lambda r: np.full_like(np.asarray(r, dtype=float), c)


def test_bvp_degenerate_constant_solution():
    # A'' + A'/R - A = -1, regular at 0, A(5) = 1 has the constant
    # solution A = 1 (the particular solution already meets the right
    # boundary value, so the homogeneous amplitude vanishes)
    sol = solve_linear_bvp(lambda r: 1.0 / r, _const(-1.0),
                           _const(-1.0), 5.0, (1.0, 0.0, 0.0, 1.0),
                           tol=1e-10)
    rr = np.linspace(1e-6, 5.0, 101)
    a, da, *_ = sol.eval(rr)
    assert float(np.max(np.abs(a - 1.0))) < 1e-10
    assert float(np.max(np.abs(da))) < 1e-9


def test_bvp_modified_bessel_solution():
    # A'' + A'/R - A = -1, regular at 0, A(5) = 0 has
    # A(R) = 1 - I0(R)/I0(5); checked against mpmath at interior points
    mpmath.mp.dps = 30
    sol = solve_linear_bvp(lambda r: 1.0 / r, _const(-1.0),
                           _const(-1.0), 5.0, (1.0, 0.0, 0.0, 0.0),
                           tol=1e-11)
    i05 = mpmath.besseli(0, 5)
    for r in [1e-6, 0.5, 1.0, 2.5, 4.0, 5.0]:
        want = float(1.0 - mpmath.besseli(0, r) / i05)
        got = float(sol.eval(r)[0])
        assert abs(got - want) < 1e-9, (r, got, want)
    # value at the regularity end: 1 - 1/I0(5) = 0.963289107729...
    assert abs(float(sol.eval(1e-6)[0]) - 0.963289107729) < 1e-8


def test_bvp_regular_axis_values():
    # the regular solution is solved in s = R^2, so the axis is an
    # ordinary point of the representation: A'(0) = 0 exactly and A''(0)
    # is finite, here -I0''(0)/I0(5) = -1/(2 I0(5)) for A = 1 - I0(R)/I0(5)
    mpmath.mp.dps = 30
    sol = solve_linear_bvp(lambda r: 1.0 / r, _const(-1.0),
                           _const(-1.0), 5.0, (1.0, 0.0, 0.0, 0.0),
                           tol=1e-11)
    i05 = mpmath.besseli(0, 5)
    a, da, d2a, _ = sol.eval(0.0)
    assert abs(a - float(1 - 1 / i05)) < 1e-10
    assert da == 0.0
    assert abs(d2a - float(-1 / (2 * i05))) < 1e-10


def test_bvp_regular_axis_rejects_odd_r_times_p():
    # R p = R + 1 is not even in R, so the operator is not smooth in
    # s = R^2 and the solver refuses it
    with pytest.raises(ValueError, match="even"):
        solve_linear_bvp(lambda r: 1.0 / r + 1.0, _const(-1.0),
                         _const(-1.0), 5.0, (1.0, 0.0, 0.0, 0.0))


def test_bvp_plain_float_coefficients():
    # coefficients that return a constant instead of an array of the
    # argument's shape give the same solution as the vectorized ones
    args = (5.0, (1.0, 0.0, 0.0, 0.0))
    ref = solve_linear_bvp(lambda r: 1.0 / r, _const(-1.0), _const(-1.0),
                           *args, tol=1e-11)
    sol = solve_linear_bvp(lambda r: 1.0 / r, lambda r: -1.0,
                           lambda r: -1.0, *args, tol=1e-11)
    assert sol.meta["panels"] == ref.meta["panels"]
    rr = np.linspace(1e-6, 5.0, 101)
    for got, want in zip(sol.eval(rr)[:3], ref.eval(rr)[:3]):
        assert float(np.max(np.abs(got - want))) <= 1e-15


def test_bvp_robin_right_condition():
    # A'' + A'/R = 4 on [0, 2], regular at 0, A + A' = 0 at 2 -> the
    # regular solutions are R^2 + b, and A(2) + A'(2) = 8 + b = 0 gives
    # A = R^2 - 8
    sol = solve_linear_bvp(lambda r: 1.0 / r, _const(0.0), _const(4.0),
                           2.0, (1.0, 1.0, 0.0, 0.0), tol=1e-10)
    rr = np.linspace(0.0, 2.0, 17)
    a, da, *_ = sol.eval(rr)
    assert float(np.max(np.abs(a - (rr**2 - 8.0)))) < 1e-10
    assert float(np.max(np.abs(da - 2.0 * rr))) < 1e-10


def test_bvp_derivatives_from_ode():
    # second derivative comes from the ODE itself, so it satisfies it
    # exactly wherever A and A' do
    sol = solve_linear_bvp(lambda r: 1.0 / r, _const(-1.0),
                           _const(-1.0), 5.0, (1.0, 0.0, 0.0, 0.0),
                           tol=1e-11, coeff_derivs=(lambda r: -1.0 / r**2,
                                         _const(0.0), _const(0.0)))
    rr = np.linspace(0.5, 4.5, 41)
    a, da, d2a, d3a = sol.eval(rr)
    res = d2a + da / rr - a + 1.0
    assert float(np.max(np.abs(res))) < 1e-12
    assert np.all(np.isfinite(d3a))


def test_bvp_dual_method_agreement():
    # the alternate integrator is an independent oracle for the primary
    args = (lambda r: 1.0 / r, _const(-1.0), _const(-1.0),
            5.0, (1.0, 0.0, 0.0, 0.0))
    s1 = solve_linear_bvp(*args, tol=1e-11, method="primary")
    s2 = solve_linear_bvp(*args, tol=1e-11, method="alt")
    rr = np.linspace(1e-6, 5.0, 201)
    a1 = s1.eval(rr)[0]
    a2 = s2.eval(rr)[0]
    sup = float(np.max(np.abs(a1)))
    assert float(np.max(np.abs(a1 - a2))) < 1e-9 * sup


def test_solve_dual_bvp_returns_cross_checked_primary():
    args = (lambda r: 1.0 / r, _const(-1.0), _const(-1.0),
            5.0, (1.0, 0.0, 0.0, 0.0))
    sol = solve_dual_bvp(*args, 1e-11, "on the test problem")
    ref = solve_linear_bvp(*args, tol=1e-11, method="primary")
    alt = solve_linear_bvp(*args, tol=1e-11, method="alt")
    assert sol.meta["method"] == "primary"
    rr = np.linspace(0.0, 5.0, 1501)
    a_ref = ref.eval(rr)[0]
    assert np.array_equal(sol.eval(rr)[0], a_ref)
    # the disagreement it reports is the one between the two methods
    dual_rel = float(np.max(np.abs(a_ref - alt.eval(rr)[0]))) / float(np.max(np.abs(a_ref)))
    assert sol.meta["dual_sup_rel"] == dual_rel < 1e-9


_BESSEL = (lambda r: 1.0 / r, _const(-1.0), _const(-1.0))


def test_bvp_rejects_mesh_not_spanning_the_interval():
    for mesh in (np.linspace(0.1, 5.0, 9), np.linspace(0.0, 4.0, 9)):
        with pytest.raises(ValueError, match="span"):
            solve_linear_bvp(*_BESSEL, 5.0, (1.0, 0.0, 0.0, 0.0), mesh=mesh)


def test_bvp_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        solve_linear_bvp(*_BESSEL, 5.0, (1.0, 0.0, 0.0, 0.0), method="beta")


@pytest.mark.parametrize("r_edge", [0.0, -1.0, math.nan])
def test_bvp_rejects_empty_interval(r_edge):
    with pytest.raises(ValueError, match="empty"):
        solve_linear_bvp(*_BESSEL, r_edge, (1.0, 0.0, 0.0, 0.0))


def test_bvp_rejects_vanishing_rim_functional():
    with pytest.raises(SingularSystem, match="vanishes"):
        solve_linear_bvp(*_BESSEL, 5.0, (0.0, 0.0, 0.0, 0.0))


def test_tolerance_not_met_carries_diagnostics():
    err = ToleranceNotMet("bad", best=1.0, residual=2.0, scale=3.0)
    assert err.best == 1.0 and err.residual == 2.0 and err.scale == 3.0


def test_bvp_unreachable_tolerance_raises_with_residual():
    # 1e-17 is below the residual's rounding floor: every refinement pass
    # fails and the last residual comes back with its scale (sup|f| = 1)
    with pytest.raises(ToleranceNotMet, match="tolerance not met") as exc:
        solve_linear_bvp(*_BESSEL, 5.0, (1.0, 0.0, 0.0, 0.0), tol=1e-17)
    assert exc.value.scale == 1.0
    assert 1e-17 < exc.value.residual < 1e-11


def test_dual_bvp_raises_when_discretizations_disagree():
    # q = -2500 puts a layer of width 1/50 at the rim: each
    # discretization meets the loose tol 1e-2 on the default mesh, but
    # they differ there by ~6e-5 of sup|A|
    p, _, f = _BESSEL
    with pytest.raises(ToleranceNotMet,
                       match="independent discretizations disagree on the "
                             "test problem") as exc:
        solve_dual_bvp(p, _const(-2500.0), f, 5.0, (1.0, 0.0, 0.0, 0.0),
                       1e-2, "on the test problem")
    assert exc.value.best > 1e-8


def test_bvp_singular_system_raises():
    # A'' + A'/R = 0 with A'(5) = 0: every constant solves it.  The band
    # LU finds the zero pivot; the error names the discretization and
    # keeps LAPACK's error as its cause
    with pytest.raises(SingularSystem,
                       match=r"singular system in BVP collocation solve "
                             r"\(singular matrix\): method 'primary', "
                             r"degree 10, 24 panels") as exc:
        solve_linear_bvp(_BESSEL[0], _const(0.0), _const(0.0), 5.0,
                         (0.0, 1.0, 0.0, 0.0))
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# Batched collocation kernel against its per-panel loop form
# ---------------------------------------------------------------------------

def _loop_solve(p, q, f, edges, deg, kind, left_row, right_row):
    """Per-panel assembly and band solve, emitting the rows one by one in
    the kernel's order (left row; each panel's collocation rows, then its
    continuity pair with the next panel; right row) and writing each
    entry on its own into band storage."""
    tpts, v0, v1, v2, (el, er, dl, dr) = _design_matrices(deg, kind)
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
        rr = mids[i] + h * tpts
        block = v2 / (h * h) + p(rr)[:, None] * v1 / h + q(rr)[:, None] * v0
        scale = np.max(np.abs(block), axis=1)
        scale[scale == 0.0] = 1.0
        block /= scale[:, None]
        for k in range(len(tpts)):
            add(range(i * nc, (i + 1) * nc), block[k], f(rr)[k] / scale[k])
        if i < npan - 1:
            span = range(i * nc, (i + 2) * nc)
            add(span, list(er) + list(-el), 0.0)
            add(span, list(dr / halves[i]) + list(-dl / halves[i + 1]), 0.0)
    boundary(right_row, er, dr, halves[-1], (npan - 1) * nc)
    assert len(rhs) == n
    return solve_banded((bw, bw), ab, np.asarray(rhs),
                        check_finite=False).reshape(npan, nc)


def _loop_residual(p, q, f, edges, coefs, deg):
    """Per-panel residual sup and scale, each panel through its own
    one-panel PanelPoly."""
    tt = np.linspace(-1.0, 1.0, 10 * (deg - 1) + 2)[1:-1]
    res_sup = scale = 0.0
    for i in range(len(edges) - 1):
        rr, (av, a1, a2) = PanelPoly(edges[i:i + 2], coefs[i:i + 1]).grid(tt)
        res = a2 + p(rr) * a1 + q(rr) * av - f(rr)
        res_sup = max(res_sup, float(np.max(np.abs(res))))
        scale = max(scale, float(np.max(np.abs(f(rr)))),
                    float(np.max(np.abs(q(rr) * av))))
    return res_sup, scale


def _clenshaw_residual(p, q, f, edges, coefs, deg):
    """Per-panel residual sup and scale, one Clenshaw call per panel: an
    evaluation independent of PanelPoly's Vandermonde rule."""
    tt = np.linspace(-1.0, 1.0, 10 * (deg - 1) + 2)[1:-1]
    dco = chebder(coefs.T, 1, axis=0)
    d2co = chebder(coefs.T, 2, axis=0)
    res_sup = scale = 0.0
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        h = 0.5 * (b - a)
        rr = 0.5 * (a + b) + h * tt
        av = chebval(tt, coefs[i])
        a1 = chebval(tt, dco[:, i]) / h
        a2 = chebval(tt, d2co[:, i]) / (h * h)
        res = a2 + p(rr) * a1 + q(rr) * av - f(rr)
        res_sup = max(res_sup, float(np.max(np.abs(res))))
        scale = max(scale, float(np.max(np.abs(f(rr)))),
                    float(np.max(np.abs(q(rr) * av))))
    return res_sup, scale


@pytest.mark.parametrize("method", [(6, "gauss"), (5, "chebyshev")])
@pytest.mark.parametrize("problem", ["bessel", "one-panel", "sphere"])
def test_batched_kernel_matches_loop_form_bit_for_bit(problem, method):
    deg, kind = method
    if problem in ("bessel", "one-panel"):
        p, q, f = lambda r: 1.0 / r, _const(-1.0), _const(-1.0)
        # one panel: no continuity rows between the two boundary rows
        edges = np.linspace(1e-6, 5.0, 13 if problem == "bessel" else 2)
    else:
        p, q, f = _ode_coefficients(1e-2, 1.0)[:3]
        edges = _sphere_edges(1e-2, 24)
    rows = ((0.0, 1.0, 0.0), (1.0, 0.5, 0.25))
    want = _loop_solve(p, q, f, edges, deg, kind, *rows)
    got = _assemble_and_solve(p, q, f, edges, deg, kind, *rows)
    assert np.array_equal(got, want)
    res_sup, scale = _residual_check(p, q, f, _const(1.0),
                                     PanelPoly(edges, got), deg)
    assert (res_sup, scale) == _loop_residual(p, q, f, edges, want, deg)
    ref_sup, ref_scale = _clenshaw_residual(p, q, f, edges, want, deg)
    assert abs(res_sup - ref_sup) <= 1e-15 * ref_scale
    assert abs(scale - ref_scale) <= 1e-15 * ref_scale
