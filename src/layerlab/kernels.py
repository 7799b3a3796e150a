"""Shared numerical kernels: Bessel evaluations, a linear two-point BVP
collocation solver for radial ODEs with a regular singular point at the
origin, adaptive quadrature, and bracketed root finding.

Overflow policy: modified Bessel functions are only ever exposed in scaled
form (e^{-x} I_0, e^{-x} I_1, from scipy.special.i0e/i1e) or as the ratio
t = I_1/I_0 of the two, so no quantity here overflows for any argument
the solvers produce.  The one difference that cancels, x - 2t ~ x^3/8 as
x -> 0, has its own series form (x_minus_2t).

The BVP solver ships two independent discretizations ("primary": degree-6
Chebyshev panels collocated at Gauss points; "alt": degree-5 panels at
Chebyshev points on a doubled mesh).  Callers that must guard against
discretization bugs solve with both and compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy import integrate as _sp_integrate
from scipy import optimize as _sp_optimize
from scipy import special as _sp_special
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve

__all__ = [
    "NumericsError",
    "ToleranceNotMet",
    "SingularSystem",
    "NoSignChange",
    "QuadratureLimit",
    "BesselRatioEval",
    "bessel_ratio",
    "x_minus_2t",
    "QuadratureResult",
    "integrate",
    "find_root",
    "RadialSolution",
    "solve_linear_bvp",
    "solve_dual_bvp",
]


class NumericsError(RuntimeError):
    """Base class for numerical failures in this package."""


class ToleranceNotMet(NumericsError):
    """A solver converged to something, but not to the requested tolerance.

    Attributes: best (the best available result), residual, scale.
    """

    def __init__(self, msg, best=None, residual=None, scale=None):
        super().__init__(msg)
        self.best = best
        self.residual = residual
        self.scale = scale


class SingularSystem(NumericsError):
    """The discretized linear system is singular or produced non-finite
    values (e.g. incompatible boundary functional)."""


class NoSignChange(NumericsError):
    """find_root was given a bracket on which the function does not change
    sign."""


class QuadratureLimit(NumericsError):
    """Adaptive quadrature hit its subdivision limit (or detected roundoff
    trouble).  Carries the best estimate so far.

    Attributes: best_estimate, abs_err_est, evals.
    """

    def __init__(self, msg, best_estimate, abs_err_est, evals):
        super().__init__(msg)
        self.best_estimate = best_estimate
        self.abs_err_est = abs_err_est
        self.evals = evals


# ---------------------------------------------------------------------------
# Bessel evaluations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesselRatioEval:
    """t = I_1(x)/I_0(x) together with the scaled values e^{-x}I_0(x) and
    e^{-x}I_1(x).  All finite for every x >= 0."""

    x: float
    t: float
    scaled_i0: float
    scaled_i1: float


def bessel_ratio(x: float) -> BesselRatioEval:
    """Evaluate t = I_1/I_0 and the scaled pair e^{-x}(I_0, I_1) with
    scipy.special.i0e/i1e.

    Requires x >= 0.  t(0) = 0; t increases strictly toward 1.
    """
    if x < 0.0:
        raise ValueError(f"bessel_ratio requires x >= 0, got {x}")
    i0e = float(_sp_special.i0e(x))
    i1e = float(_sp_special.i1e(x))
    return BesselRatioEval(x, i1e / i0e, i0e, i1e)


def _p_cancel_free(x: float) -> float:
    """P(x) = x I_0(x) - 2 I_1(x) by its power series

        P = sum_{m>=1} m x^{2m+1} / (4^m (m!)^2 (m+1)) = x^3/8 + x^5/96 + ...

    Every coefficient is positive, so the ~x^2/8 relative cancellation of
    the defining difference at small x never appears."""
    term = x ** 3 / 8.0
    s = term
    x2 = x * x
    for m in range(1, 60):
        term *= x2 / (4.0 * m * (m + 2.0))
        s += term
        if term < 1e-17 * s:
            break
    return s


def x_minus_2t(ev: BesselRatioEval) -> float:
    """x - 2 I_1(x)/I_0(x) for the evaluation ev at x, without
    cancellation: P(x)/I_0(x) from the positive series P below x = 2
    (where x - 2t ~ x^3/8 would cancel), x - 2t at and above 2 (where the
    difference is at least 0.6 and benign)."""
    x = ev.x
    if x < 2.0:
        return _p_cancel_free(x) / (math.exp(x) * ev.scaled_i0)
    return x - 2.0 * ev.t


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_err_est: float
    evals: int


def integrate(f: Callable[[float], float], lo: float, hi: float,
              tol: float = 1e-10) -> QuadratureResult:
    """Adaptive Gauss-Kronrod quadrature of f on [lo, hi].

    tol is applied both absolutely and relatively.  On subdivision/roundoff
    limit the best estimate is raised inside QuadratureLimit rather than
    returned, so callers cannot silently use a bad value.
    """
    out = _sp_integrate.quad(f, lo, hi, epsabs=tol, epsrel=tol,
                             limit=200, full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    evals = int(info.get("neval", 0))
    if len(out) > 3:
        raise QuadratureLimit(
            f"quadrature limit on [{lo}, {hi}]: {out[3]}",
            best_estimate=value, abs_err_est=abserr, evals=evals,
        )
    return QuadratureResult(value=value, abs_err_est=abserr, evals=evals)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def find_root(g: Callable[[float], float], bracket: tuple[float, float],
              tol: float = 1e-12) -> float:
    """Brent-style bracketed root of g on [lo, hi].

    An exact root at either endpoint is returned as that endpoint; a
    bracket without a sign change raises NoSignChange.
    """
    lo, hi = bracket
    if not (lo < hi):
        raise ValueError(f"invalid bracket {bracket}")
    glo = g(lo)
    if glo == 0.0:
        return lo
    ghi = g(hi)
    if ghi == 0.0:
        return hi
    if (glo > 0.0) == (ghi > 0.0):
        raise NoSignChange(
            f"no sign change on [{lo}, {hi}]: g(lo) = {glo}, g(hi) = {ghi}"
        )
    return _sp_optimize.brentq(g, lo, hi, xtol=tol,
                               rtol=max(tol, 4.0 * np.finfo(float).eps))


# ---------------------------------------------------------------------------
# Linear radial two-point BVP by piecewise-Chebyshev collocation
# ---------------------------------------------------------------------------

_FROBENIUS_EPS = 1e-6


@dataclass
class RadialSolution:
    """A radial profile A(R) with derivatives, on [r_lo, r_hi].

    eval(R) -> (A, A', A'', A''') for scalar or array R.  A and A' come
    from the stored piecewise-polynomial representation; A'' and A''' are
    recovered from the ODE and its R-derivative (never from numerical
    differencing).  A''' is NaN if the coefficient derivatives were not
    supplied to the solver.  meta records method, mesh and the measured
    residual.
    """

    r_lo: float
    r_hi: float
    eval: Callable
    meta: dict = field(default_factory=dict)


@lru_cache(maxsize=32)
def _design_matrices(deg: int, kind: str):
    """Value/derivative Chebyshev-Vandermonde blocks at the collocation
    points for one panel degree.  kind selects the node family so the two
    methods discretize independently."""
    m = deg - 1
    if kind == "gauss":
        tpts = np.polynomial.legendre.leggauss(m)[0]
    elif kind == "chebyshev":
        i = np.arange(m)
        tpts = np.cos(math.pi * (2 * i + 1) / (2 * m))[::-1]
    else:  # pragma: no cover
        raise ValueError(kind)
    v0 = _cheb.chebvander(tpts, deg)
    v1 = np.zeros_like(v0)
    v2 = np.zeros_like(v0)
    for j in range(1, deg + 1):
        cj = np.zeros(j + 1)
        cj[j] = 1.0
        v1[:, j] = _cheb.chebval(tpts, _cheb.chebder(cj, 1))
        if j >= 2:
            v2[:, j] = _cheb.chebval(tpts, _cheb.chebder(cj, 2))
    # endpoint rows for continuity/BCs: T_j(+-1), T_j'(+-1)
    j = np.arange(deg + 1)
    e_val_r = np.ones(deg + 1)
    e_val_l = (-1.0) ** j
    e_der_r = j.astype(float) ** 2
    e_der_l = ((-1.0) ** (j + 1)) * j.astype(float) ** 2
    return tpts, v0, v1, v2, (e_val_l, e_val_r, e_der_l, e_der_r)


def _default_edges(lo: float, hi: float, n_main: int) -> np.ndarray:
    """Geometric grading from lo up to ~min(1, span/10), then uniform.

    The grading keeps the c/R coefficient region well sampled when lo is
    the Frobenius truncation point 1e-6."""
    r_break = min(max(lo * 4.0, min(1.0, (hi - lo) * 0.1)), hi * 0.5)
    graded = [lo]
    r = lo
    while r * 4.0 < r_break:
        r *= 4.0
        graded.append(r)
    main = np.linspace(graded[-1], hi, max(n_main, 8) + 1)
    return np.concatenate([np.asarray(graded[:-1]), main])


def _coef_on(fn, rr):
    """fn evaluated elementwise on the node array rr, as float of rr's
    shape (a callable returning a constant is broadcast)."""
    return np.broadcast_to(np.asarray(fn(rr), dtype=float), rr.shape)


def _assemble_and_solve(p, q, f, edges, deg, kind,
                        left_row, right_row):
    """Build and solve the sparse collocation system.

    left_row/right_row: (coef_on_A, coef_on_Aprime, rhs) at the first/last
    mesh point, already reduced to first-order form.

    Rows are ordered: collocation rows panel by panel, then the C0/C1
    continuity pair at each interior edge, then the left and right
    boundary rows.  All panels are assembled in one batched pass.
    """
    npan = len(edges) - 1
    ncoef = deg + 1
    ndof = npan * ncoef
    tpts, v0, v1, v2, ends = _design_matrices(deg, kind)
    e_val_l, e_val_r, e_der_l, e_der_r = ends
    mcol = len(tpts)

    halves = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])

    # collocation blocks, (npan, mcol, ncoef), each row scaled by its max
    h = halves[:, None, None]
    rr = mids[:, None] + halves[:, None] * tpts
    pv = _coef_on(p, rr)[:, :, None]
    qv = _coef_on(q, rr)[:, :, None]
    fv = _coef_on(f, rr)
    block = v2 / (h * h) + pv * v1 / h + qv * v0
    scale = np.max(np.abs(block), axis=2)
    scale[scale == 0.0] = 1.0
    block /= scale[:, :, None]
    ncol_rows = npan * mcol
    col_rows = np.repeat(np.arange(ncol_rows), ncoef)
    col_cols = np.broadcast_to(
        (np.arange(npan) * ncoef)[:, None, None] + np.arange(ncoef),
        block.shape).ravel()

    # C0/C1 continuity between panels i and i+1: one row pair per interior
    # edge, each spanning the 2*ncoef coefficients of both panels
    ncont = npan - 1
    cont_rows = np.repeat(ncol_rows + np.arange(2 * ncont), 2 * ncoef)
    cont_cols = np.broadcast_to(
        (np.arange(ncont) * ncoef)[:, None, None] + np.arange(2 * ncoef),
        (ncont, 2, 2 * ncoef)).ravel()
    cont_vals = np.empty((ncont, 2, 2 * ncoef))
    cont_vals[:, 0, :ncoef] = e_val_r
    cont_vals[:, 0, ncoef:] = -e_val_l
    cont_vals[:, 1, :ncoef] = e_der_r / halves[:-1, None]
    cont_vals[:, 1, ncoef:] = -e_der_l / halves[1:, None]

    # boundary rows
    ca, cb, rhsv = left_row
    row_l = ca * e_val_l + cb * e_der_l / halves[0]
    sc_l = max(np.max(np.abs(row_l)), 1e-300)
    ca, cb, rhsv_r = right_row
    row_r = ca * e_val_r + cb * e_der_r / halves[-1]
    sc_r = max(np.max(np.abs(row_r)), 1e-300)
    nb = ndof - 2
    bnd_rows = np.repeat([nb, nb + 1], ncoef)
    bnd_cols = np.concatenate([np.arange(ncoef),
                               (npan - 1) * ncoef + np.arange(ncoef)])

    rows = np.concatenate([col_rows, cont_rows, bnd_rows])
    cols = np.concatenate([col_cols, cont_cols, bnd_cols])
    vals = np.concatenate([block.ravel(), cont_vals.ravel(),
                           row_l / sc_l, row_r / sc_r])
    rhs = np.concatenate([(fv / scale).ravel(), np.zeros(2 * ncont),
                          [rhsv / sc_l, rhsv_r / sc_r]])

    mat = csc_matrix((vals, (rows, cols)), shape=(ndof, ndof))
    sol = spsolve(mat, rhs)
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("singular system in BVP collocation solve")
    return sol.reshape(npan, ncoef)


def solve_linear_bvp(p, q, f, domain, left, right, tol: float = 1e-10, *,
                     coeff_derivs=None, mesh=None, method: str = "primary",
                     max_refine: int = 3) -> RadialSolution:
    """Solve A'' + p(R) A' + q(R) A = f(R) on `domain` = (r_lo, r_hi).

    p, q, f (and coeff_derivs): callables evaluated elementwise on float
    arrays of any shape (the solver passes 2-D node arrays, one row per
    panel) and on scalars at the interval ends.  A callable may return a
    plain constant; it is broadcast to the shape of its argument.

    left:
        ("regular",)    regular singular point at R = 0 (p ~ c/R there;
                        c is measured from p at the truncation point).
                        The domain is truncated at eps = 1e-6 and the
                        two-term even Frobenius form A = A0 + A2 R^2,
                        A'(0) = 0 supplies the boundary row
                        A'(eps) + eps*q0/(1+c)*A(eps) = eps*f0/(1+c).
        ("value", v)    Dirichlet A(r_lo) = v.
    right:
        (alpha, beta, gamma, delta) meaning
        alpha*A + beta*A' + gamma*A'' = delta at r_hi; A'' is eliminated
        through the ODE, so the stored condition is
        (alpha - gamma*q)*A + (beta - gamma*p)*A' = delta - gamma*f.

    coeff_derivs: optional (dp, dq, df) callables; required for the
    reported third derivative A''' = f' - p'A' - pA'' - q'A - qA'.

    mesh: None (auto), int (main-section panel count), or an explicit
    array of panel edges covering the solve interval.

    The solution is accepted when the ODE residual, sampled about ten
    times finer than the collocation spacing, satisfies
    sup|res| <= tol * max(sup|f|, sup|q*A|); otherwise panels are
    midpoint-refined up to max_refine times before ToleranceNotMet.
    """
    r_lo, r_hi = domain
    regular = left[0] == "regular"
    if regular:
        if r_lo != 0.0:
            raise ValueError("regularity condition requires r_lo = 0")
        lo = _FROBENIUS_EPS
    else:
        lo = r_lo
    if not (lo < r_hi):
        raise ValueError(f"empty solve interval [{lo}, {r_hi}]")

    if mesh is None:
        edges = _default_edges(lo, r_hi, 96)
    elif isinstance(mesh, (int, np.integer)):
        edges = _default_edges(lo, r_hi, int(mesh))
    else:
        edges = np.asarray(mesh, dtype=float)
        if abs(edges[0] - lo) > 1e-12 * max(1.0, lo) or abs(edges[-1] - r_hi) > 1e-12 * max(1.0, r_hi):
            raise ValueError("explicit mesh must span the solve interval")
        edges = edges.copy()
        edges[0], edges[-1] = lo, r_hi

    if method == "primary":
        deg, kind = 6, "gauss"
    elif method == "alt":
        # lower order, different node family, doubled mesh: an independent
        # discretization of the same BVP for oracle comparisons
        deg, kind = 5, "chebyshev"
        edges = _refine_midpoints(edges)
    else:
        raise ValueError(f"unknown method {method!r}")

    # boundary rows in first-order (A, A') form
    if regular:
        c_sing = lo * float(p(lo))
        q0 = float(q(lo))
        f0 = float(f(lo))
        left_row = (lo * q0 / (1.0 + c_sing), 1.0, lo * f0 / (1.0 + c_sing))
    else:
        left_row = (1.0, 0.0, float(left[1]))

    alpha, beta, gamma, delta = right
    pe = float(p(r_hi))
    qe = float(q(r_hi))
    fe = float(f(r_hi))
    a_eff = alpha - gamma * qe
    b_eff = beta - gamma * pe
    d_eff = delta - gamma * fe
    if max(abs(a_eff), abs(b_eff)) == 0.0:
        raise SingularSystem("right boundary functional vanishes identically")
    right_row = (a_eff, b_eff, d_eff)

    last_res = last_scale = None
    for attempt in range(max_refine + 1):
        coefs = _assemble_and_solve(p, q, f, edges, deg, kind,
                                    left_row, right_row)
        res_sup, scale = _residual_check(p, q, f, edges, coefs, deg)
        last_res, last_scale = res_sup, scale
        if res_sup <= tol * scale:
            break
        if attempt < max_refine:
            edges = _refine_midpoints(edges)
    else:
        raise ToleranceNotMet(
            f"tolerance not met: residual {last_res:.3e} vs "
            f"{tol:.1e} * scale {last_scale:.3e}",
            residual=last_res, scale=last_scale,
        )

    meta = {
        "method": method,
        "degree": deg,
        "panels": len(edges) - 1,
        "edges": edges.copy(),
        "residual_sup": res_sup,
        "residual_scale": scale,
        "tol": tol,
        "eps": lo if regular else None,
    }
    evaluator = _make_evaluator(p, q, f, coeff_derivs, edges, coefs, deg,
                                regular, lo)
    return RadialSolution(r_lo=0.0 if regular else r_lo, r_hi=r_hi,
                          eval=evaluator, meta=meta)


def solve_dual_bvp(p, q, f, domain, left, right, tol, where, *,
                   coeff_derivs=None, mesh=None) -> tuple[RadialSolution, float]:
    """Solve one BVP with both discretizations and cross-check them.

    Returns the primary solution, with meta["dual_sup_rel"] set, and the
    sup-norm disagreement of A between the two on 1501 even points,
    relative to sup|A|.  A disagreement above 1e-8 raises ToleranceNotMet;
    `where` names the problem in that message.
    """
    kw = dict(coeff_derivs=coeff_derivs, mesh=mesh)
    primary = solve_linear_bvp(p, q, f, domain, left, right, tol=tol,
                               method="primary", **kw)
    alt = solve_linear_bvp(p, q, f, domain, left, right, tol=tol,
                           method="alt", **kw)
    grid = np.linspace(domain[0], domain[1], 1501)
    a_p = primary.eval(grid)[0]
    a_a = alt.eval(grid)[0]
    scale = float(np.max(np.abs(a_p)))
    dual_rel = float(np.max(np.abs(a_p - a_a))) / scale
    if dual_rel > 1e-8:
        raise ToleranceNotMet(
            f"independent discretizations disagree {where}: sup rel "
            f"{dual_rel:.3e} > 1e-08",
            best=dual_rel, residual=dual_rel * scale, scale=scale)
    primary.meta["dual_sup_rel"] = dual_rel
    return primary, dual_rel


def _refine_midpoints(edges: np.ndarray) -> np.ndarray:
    """Halve every panel (doubling the mesh), preserving the grading."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.sort(np.concatenate([edges, mids]))


def _residual_check(p, q, f, edges, coefs, deg):
    """Sup ODE residual on a grid ~10x finer than the collocation spacing,
    plus the residual scale max(sup|f|, sup|q*A|).  All panels are
    evaluated at once on an (npan, nt) grid by Clenshaw recurrence."""
    tt = np.linspace(-1.0, 1.0, 10 * (deg - 1) + 2)[1:-1]
    h = 0.5 * np.diff(edges)[:, None]
    rr = 0.5 * (edges[:-1] + edges[1:])[:, None] + h * tt
    av = _cheb.chebval(tt, coefs.T)
    a1 = _cheb.chebval(tt, _cheb.chebder(coefs.T, 1, axis=0)) / h
    a2 = _cheb.chebval(tt, _cheb.chebder(coefs.T, 2, axis=0)) / (h * h)
    pv = _coef_on(p, rr)
    qv = _coef_on(q, rr)
    fv = _coef_on(f, rr)
    res = a2 + pv * a1 + qv * av - fv
    res_sup = float(np.max(np.abs(res)))
    scale = max(float(np.max(np.abs(fv))), float(np.max(np.abs(qv * av))))
    if scale == 0.0:
        scale = 1.0
    return res_sup, scale


def _make_evaluator(p, q, f, coeff_derivs, edges, coefs, deg, regular, lo):
    dco = _cheb.chebder(coefs.T, 1, axis=0)
    have_derivs = coeff_derivs is not None
    if have_derivs:
        dp, dq, df = coeff_derivs
    halves = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    nlast = len(edges) - 2

    # Frobenius continuation below the truncation point: A = A0 + A2 R^2
    if regular:
        t_at_lo = -1.0
        a_lo = float(_cheb.chebval(t_at_lo, coefs[0]))
        a1_lo = float(_cheb.chebval(t_at_lo, dco[:, 0])) / halves[0]
        a2_frob = a1_lo / (2.0 * lo)
        a0_frob = a_lo - a2_frob * lo * lo

    def evaluator(r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        idx = np.clip(np.searchsorted(edges, r_arr, side="right") - 1,
                      0, nlast)
        t = (r_arr - mids[idx]) / halves[idx]
        av = _cheb.chebval(t, coefs[idx].T, tensor=False)
        a1 = _cheb.chebval(t, dco[:, idx], tensor=False) / halves[idx]
        # second/third derivatives through the ODE, never by differencing
        rs = np.where(r_arr < lo, lo, r_arr) if regular else r_arr
        pv = np.asarray(p(rs), dtype=float)
        qv = np.asarray(q(rs), dtype=float)
        fv = np.asarray(f(rs), dtype=float)
        a2 = fv - pv * a1 - qv * av
        if have_derivs:
            dpv = np.asarray(dp(rs), dtype=float)
            dqv = np.asarray(dq(rs), dtype=float)
            dfv = np.asarray(df(rs), dtype=float)
            a3 = dfv - dpv * a1 - pv * a2 - dqv * av - qv * a1
        else:
            a3 = np.full_like(av, np.nan)
        if regular:
            below = r_arr < lo
            if np.any(below):
                # exact quadratic continuation: the clamped-R ODE recovery
                # above misscales p*A' there
                av = np.where(below, a0_frob + a2_frob * r_arr * r_arr, av)
                a1 = np.where(below, 2.0 * a2_frob * r_arr, a1)
                a2 = np.where(below, 2.0 * a2_frob, a2)
                if have_derivs:
                    a3 = np.where(below, 0.0, a3)
        if np.isscalar(r) or np.ndim(r) == 0:
            return float(av[0]), float(a1[0]), float(a2[0]), float(a3[0])
        return av, a1, a2, a3

    return evaluator
