"""Shared numerical kernels: Bessel evaluations, a collocation solver for
linear radial ODEs on [0, R_e] whose solution is regular on the axis and
meets a Robin-type closure at the rim, adaptive quadrature, and
bracketed root finding.

Overflow policy: modified Bessel functions are only ever exposed in scaled
form (e^{-x} I_0, e^{-x} I_1, from scipy.special.i0e/i1e) or as the ratio
t = I_1/I_0 of the two, so no quantity here overflows for any argument
the solvers produce.  The one difference that cancels, x - 2t ~ x^3/8 as
x -> 0, has its own series form (x_minus_2t).

The BVP solver ships two independent discretizations ("primary": degree-10
Chebyshev panels collocated at their 9 Gauss points; "alt": degree-8
panels at their 7 Chebyshev points, on the midpoint-doubled mesh).
solve_dual_bvp runs both and compares them, to guard against
discretization bugs.  The problem (R p even in R) is solved in s = R**2,
where the operator

    4 s A_ss + (2 + 2 R p) A_s + q A = f

has smooth coefficients and the axis row is the equation itself at
s = 0, (2 + 2c) A_s + q(0) A = f(0) with c = lim R p: a polynomial meets
it only on the regular solution, so there is no truncation of the axis
and no grading toward it.  The rows are ordered panel by panel (left
row, each panel's collocation rows and C0/C1 pair with the next, right
row), so the system is banded with half-bandwidth deg + 1; it is solved
by LAPACK's band LU (scipy.linalg.solve_banded).

Chebyshev panels are evaluated one way, PanelPoly's: derivative series by
chebder, then a Vandermonde product (the collocation blocks, the residual
check, the dual comparison and the solved profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy import integrate as _sp_integrate
from scipy import optimize as _sp_optimize
from scipy import special as _sp_special
from scipy.linalg import LinAlgError, solve_banded

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
# Linear radial BVP, regular on the axis, by piecewise-Chebyshev collocation
# ---------------------------------------------------------------------------

# midpoint refinements of the R panels before ToleranceNotMet
_MAX_REFINE = 3


class PanelPoly:
    """A piecewise polynomial in x: row i of coefs holds the Chebyshev
    coefficients on [edges[i], edges[i+1]] in the panel variable
    t = (x - mid_i) / half_i, which runs over [-1, 1].  Every evaluation
    returns the value and the first two x-derivatives."""

    def __init__(self, edges: np.ndarray, coefs: np.ndarray):
        self.edges = edges
        self.coefs = coefs
        self.half = 0.5 * np.diff(edges)
        self.mid = 0.5 * (edges[:-1] + edges[1:])
        # the value, x-derivative and second x-derivative series of every
        # panel, stacked (npan, 3, deg + 1) so that one product
        # evaluates all three
        d1 = _cheb.chebder(coefs, 1, axis=1) / self.half[:, None]
        d2 = _cheb.chebder(d1, 1, axis=1) / self.half[:, None]
        self._series = np.zeros((len(coefs), 3, coefs.shape[1]))
        self._series[:, 0] = coefs
        self._series[:, 1, :-1] = d1
        self._series[:, 2, :-2] = d2

    def locate(self, x):
        """Panel index and panel variable t of every x."""
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                      0, len(self.edges) - 2)
        return idx, (x - self.mid[idx]) / self.half[idx]

    def at(self, idx, t):
        """(v, v_x, v_xx) at the panel variables t of the panels idx
        (idx and t broadcast together)."""
        vander = _cheb.chebvander(t, self.coefs.shape[1] - 1)
        return tuple(np.einsum("...k,...jk->j...", vander, self._series[idx]))

    def __call__(self, x):
        return self.at(*self.locate(x))

    def grid(self, t):
        """The fixed panel variables t on every panel: nodes x and
        (v, v_x, v_xx), each (npan, len(t))."""
        vander = _cheb.chebvander(t, self.coefs.shape[1] - 1)
        vals = np.einsum("mk,pjk->jpm", vander, self._series)
        return self.mid[:, None] + self.half[:, None] * t, tuple(vals)

    def gauss(self, rule):
        """The Gauss-Legendre rule (t, w) on [-1, 1] mapped onto every
        panel: nodes x, weights and (v, v_x, v_xx), each (npan, len(t))."""
        t, w = rule
        x, vals = self.grid(t)
        return x, self.half[:, None] * w, vals


@dataclass
class RadialSolution:
    """A radial profile A(R) with derivatives.

    eval(R) -> (A, A', A'', A''') for scalar or array R.  A and A' come
    from the stored piecewise-polynomial representation; A'' and A''' are
    recovered from the ODE and its R-derivative (never from numerical
    differencing).  A''' is NaN if the coefficient derivatives were not
    supplied to the solver.  meta records method, mesh and the measured
    residual.

    Set by solve_linear_bvp (None on a profile given in closed form):

    s_form: the solved A as a PanelPoly in s = R**2, the panels on which
        integrals of A and its derivatives are exact Gauss-Legendre sums.
    eval_quotients(R) -> (A, A', A'', A''', A'/R, (A'' - A'/R)/R) for
        an array R, in one evaluation; the two quotients are read off the
        s-panels as 2 A_s and 4 R A_ss, finite on the axis with no 0/0.
    """

    eval: Callable
    meta: dict = field(default_factory=dict)
    s_form: Optional[PanelPoly] = None
    eval_quotients: Optional[Callable] = None


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
    # T_j, T_j' and T_j'' at the nodes, then at t = -1, +1 for the
    # continuity and boundary rows (integer arithmetic there, so exact):
    # derivative series by chebder, then a Vandermonde product
    t = np.append(tpts, [-1.0, 1.0])
    eye = np.eye(deg + 1)
    v0, v1, v2 = (_cheb.chebvander(t, deg - m) @ _cheb.chebder(eye, m)
                  for m in range(3))
    return tpts, v0[:-2], v1[:-2], v2[:-2], (v0[-2], v0[-1], v1[-2], v1[-1])


def _coef_on(fn, rr):
    """fn evaluated elementwise on the node array rr, as float of rr's
    shape (a callable returning a constant is broadcast)."""
    return np.broadcast_to(np.asarray(fn(rr), dtype=float), rr.shape)


def _axis_coefficient(p, r_edge: float) -> float:
    """c = lim R p(R) at the axis, after checking that R p(R) is even in
    R, which makes the s = R**2 form of the operator smooth there."""
    rr = np.array([1e-8, 0.01 * r_edge, 0.3 * r_edge, r_edge])
    with np.errstate(all="ignore"):
        plus = rr * _coef_on(p, rr)
        minus = -rr * _coef_on(p, -rr)
    if not np.all(np.abs(plus - minus) <= 1e-12 * np.maximum(1.0, np.abs(plus))):
        raise ValueError("a regular axis needs R p(R) even in R: "
                         f"R p = {plus.tolist()} at R = {rr.tolist()}, "
                         f"{minus.tolist()} at -R")
    return float(plus[0])


def _assemble_and_solve(p, q, f, edges, deg, kind,
                        left_row, right_row):
    """Build and solve the banded collocation system: the (npan, deg + 1)
    panel coefficients, or LinAlgError on a singular or non-finite solve.

    left_row/right_row: (coef_on_A, coef_on_Aprime, rhs) at the first/last
    mesh point, already reduced to first-order form.

    Rows run panel by panel: the left boundary row; each panel's deg - 1
    collocation rows, then its C0/C1 pair with the next panel; the right
    boundary row last.  Panel i owns the ncoef = deg + 1 rows from
    1 + i*ncoef on, so the half-bandwidth is bw = deg + 1.  All panels are
    written in one batched pass into LAPACK band storage
    ab[bw + row - col, col], which scipy.linalg.solve_banded solves.
    """
    npan = len(edges) - 1
    ncoef = bw = deg + 1
    tpts, v0, v1, v2, (e_val_l, e_val_r, e_der_l, e_der_r) = \
        _design_matrices(deg, kind)
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

    # band[d, i, j] is ab[d, i*ncoef + j]: row k of panel i meets the
    # panel's own coefficient j at d = own[j] + k and the next panel's at
    # d = own[j] + k - ncoef.  Rows k = deg - 1, deg are the C0/C1 pair;
    # the last panel has none, and its k = deg - 1 is the right row.
    ab = np.zeros((2 * bw + 1, npan * ncoef))
    band = ab.reshape(2 * bw + 1, npan, ncoef)
    j = np.arange(ncoef)
    own = bw + 1 - j
    band[own + np.arange(mcol)[:, None], :, j] = block.transpose(1, 2, 0)
    band[own + deg - 1, :-1, j] = e_val_r[:, None]
    band[own + deg, :-1, j] = e_der_r[:, None] / halves[:-1]
    band[own - 2, 1:, j] = -e_val_l[:, None]
    band[own - 1, 1:, j] = -e_der_l[:, None] / halves[1:]
    # the right-hand side in the same slots, one row down (the left row
    # is row 0); the last panel's unused k = deg slot falls off the end
    rhs = np.zeros(npan * ncoef + 1)
    rhs[1:].reshape(npan, ncoef)[:, :mcol] = fv / scale

    # boundary rows: row 0 (panel 0's k = -1) and the last row
    ca, cb, b = left_row
    row = ca * e_val_l + cb * e_der_l / halves[0]
    sc = max(np.max(np.abs(row)), 1e-300)
    band[own - 1, 0, j] = row / sc
    rhs[0] = b / sc
    ca, cb, b = right_row
    row = ca * e_val_r + cb * e_der_r / halves[-1]
    sc = max(np.max(np.abs(row)), 1e-300)
    band[own + deg - 1, -1, j] = row / sc
    rhs[-2] = b / sc

    sol = solve_banded((bw, bw), ab, rhs[:-1], check_finite=False)
    if not np.all(np.isfinite(sol)):
        raise LinAlgError("non-finite solution")
    return sol.reshape(npan, ncoef)


def solve_linear_bvp(p, q, f, r_edge: float, right, tol: float = 1e-10, *,
                     coeff_derivs=None, mesh=None,
                     method: str = "primary") -> RadialSolution:
    """Solve A'' + p(R) A' + q(R) A = f(R) on [0, r_edge] for the A that
    is regular on the axis R = 0.

    p, q, f (and coeff_derivs): callables evaluated elementwise on float
    arrays of any shape (the solver passes 2-D node arrays, one row per
    panel) and on scalars at the interval ends.  A callable may return a
    plain constant; it is broadcast to the shape of its argument.  R p
    must be even in R (p ~ c/R, with c = lim R p), or ValueError.

    The problem is solved in s = R**2, where it reads
    4 s A_ss + (2 + 2 R p) A_s + q A = f on [0, r_edge**2], with smooth
    coefficients; the axis row is that equation at s = 0,
    (2 + 2c) A_s + q(0) A = f(0), which a polynomial meets only on the
    regular solution.

    right:
        (alpha, beta, gamma, delta) meaning
        alpha*A + beta*A' + gamma*A'' = delta at r_edge; A'' is eliminated
        through the ODE, so the stored condition is
        (alpha - gamma*q)*A + (beta - gamma*p)*A' = delta - gamma*f,
        with A' = 2 r_edge A_s.

    coeff_derivs: optional (dp, dq, df) callables; required for the
    reported third derivative A''' = f' - p'A' - pA'' - q'A - qA'.

    mesh: None (24 uniform panels in R) or an explicit array of R panel
    edges spanning [0, r_edge]; the edges are squared into s.

    method: "primary" (degree-10 Chebyshev panels collocated at the 9
    Gauss points) or "alt" (degree 8 at the 7 Chebyshev points, on the
    midpoint-doubled mesh): two independent discretizations of the same
    problem.  Every collocation node is interior to its panel.

    The solution is accepted when the ODE residual (the s form equals
    the R form pointwise), sampled about ten times finer than the
    collocation spacing, satisfies
    sup|res| <= tol * max(sup|f|, sup|q*A|); otherwise the R panels are
    midpoint-refined up to _MAX_REFINE times before ToleranceNotMet.
    meta["edges"] holds the R breakpoints above the axis (the axis is
    implied).
    """
    if not (r_edge > 0.0):
        raise ValueError(f"empty solve interval [0, {r_edge}]")

    if mesh is None:
        edges = np.linspace(0.0, r_edge, 25)
    else:
        edges = np.asarray(mesh, dtype=float)
        if abs(edges[0]) > 1e-12 or abs(edges[-1] - r_edge) > 1e-12 * max(1.0, r_edge):
            raise ValueError("explicit mesh must span the solve interval")
        edges = edges.copy()
        edges[0], edges[-1] = 0.0, r_edge

    if method == "primary":
        deg, kind = 10, "gauss"
    elif method == "alt":
        # lower order, different node family, doubled mesh: an independent
        # discretization of the same BVP for oracle comparisons
        deg, kind = 8, "chebyshev"
        edges = _refine_midpoints(edges)
    else:
        raise ValueError(f"unknown method {method!r}")

    # rim row in first-order (A, A') form
    alpha, beta, gamma, delta = right
    a_eff = alpha - gamma * float(q(r_edge))
    b_eff = beta - gamma * float(p(r_edge))
    d_eff = delta - gamma * float(f(r_edge))
    if max(abs(a_eff), abs(b_eff)) == 0.0:
        raise SingularSystem("right boundary functional vanishes identically")

    c_axis = _axis_coefficient(p, r_edge)

    def in_s(fn):
        # fn(R) as a function of s = R**2; every node is interior, s > 0
        return lambda s: _coef_on(fn, np.sqrt(s))

    def lead(s):
        return 4.0 * s

    r_p = in_s(lambda r: r * p(r))
    resid = (lambda s: 2.0 + 2.0 * r_p(s), in_s(q), in_s(f))
    # the collocation rows take the equation divided by its leading 4 s
    ode = tuple(lambda s, fn=fn: fn(s) / lead(s) for fn in resid)
    left_row = (float(q(0.0)), 2.0 + 2.0 * c_axis, float(f(0.0)))
    right_row = (a_eff, 2.0 * r_edge * b_eff, d_eff)

    for attempt in range(_MAX_REFINE + 1):
        # the panels are refined in R and solved on their squares
        s_edges = edges * edges
        try:
            coefs = _assemble_and_solve(*ode, s_edges, deg, kind,
                                        left_row, right_row)
        except LinAlgError as err:
            raise SingularSystem(
                f"singular system in BVP collocation solve ({err}): method "
                f"{method!r}, degree {deg}, {len(edges) - 1} panels") from err
        poly = PanelPoly(s_edges, coefs)
        res_sup, scale = _residual_check(*resid, lead, poly, deg)
        if res_sup <= tol * scale:
            break
        if attempt < _MAX_REFINE:
            edges = _refine_midpoints(edges)
    else:
        raise ToleranceNotMet(
            f"tolerance not met: residual {res_sup:.3e} vs "
            f"{tol:.1e} * scale {scale:.3e}",
            residual=res_sup, scale=scale,
        )

    meta = {
        "method": method,
        "degree": deg,
        "panels": len(s_edges) - 1,
        "edges": edges[1:].copy(),
        "residual_sup": res_sup,
        "residual_scale": scale,
        "tol": tol,
    }
    evaluator, with_quotients = _make_evaluator(p, q, f, coeff_derivs, poly,
                                                c_axis)
    return RadialSolution(eval=evaluator, meta=meta, s_form=poly,
                          eval_quotients=with_quotients)


def solve_dual_bvp(p, q, f, r_edge: float, right, tol, where, *,
                   coeff_derivs=None, mesh=None) -> RadialSolution:
    """Solve one regular-axis BVP (see solve_linear_bvp) with both
    discretizations and cross-check them.

    Returns the primary solution, with meta["dual_sup_rel"] set to the
    sup-norm disagreement of A between the two on 1501 even points,
    relative to sup|A|.  A disagreement above 1e-8 raises ToleranceNotMet;
    `where` names the problem in that message.
    """
    kw = dict(coeff_derivs=coeff_derivs, mesh=mesh)
    primary = solve_linear_bvp(p, q, f, r_edge, right, tol=tol,
                               method="primary", **kw)
    alt = solve_linear_bvp(p, q, f, r_edge, right, tol=tol,
                           method="alt", **kw)
    s = np.linspace(0.0, r_edge, 1501) ** 2
    a_p = primary.s_form(s)[0]
    a_a = alt.s_form(s)[0]
    scale = float(np.max(np.abs(a_p)))
    dual_rel = float(np.max(np.abs(a_p - a_a))) / scale
    if dual_rel > 1e-8:
        raise ToleranceNotMet(
            f"independent discretizations disagree {where}: sup rel "
            f"{dual_rel:.3e} > 1e-08",
            best=dual_rel, residual=dual_rel * scale, scale=scale)
    primary.meta["dual_sup_rel"] = dual_rel
    return primary


def _refine_midpoints(edges: np.ndarray) -> np.ndarray:
    """Halve every panel (doubling the mesh), preserving the grading."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.sort(np.concatenate([edges, mids]))


def _residual_check(p, q, f, lead, poly: PanelPoly, deg):
    """Sup residual of lead*v'' + p*v' + q*v - f for the solved panels
    poly, on a grid ~10x finer than the collocation spacing, plus the
    residual scale max(sup|f|, sup|q*v|).  All panels are evaluated at
    once through poly.grid."""
    tt = np.linspace(-1.0, 1.0, 10 * (deg - 1) + 2)[1:-1]
    xx, (av, a1, a2) = poly.grid(tt)
    qv = _coef_on(q, xx)
    fv = _coef_on(f, xx)
    res = lead(xx) * a2 + _coef_on(p, xx) * a1 + qv * av - fv
    res_sup = float(np.max(np.abs(res)))
    scale = max(float(np.max(np.abs(fv))), float(np.max(np.abs(qv * av))))
    if scale == 0.0:
        scale = 1.0
    return res_sup, scale


def _make_evaluator(p, q, f, coeff_derivs, poly: PanelPoly, c_axis):
    """eval and eval_quotients of the panels solved in s = R**2; c_axis is
    the axis limit of R p(R)."""

    def terms(r):
        """A, A', A'', A''', A_s and A_ss on the float array r."""
        av, a_s, a_ss = poly(r * r)
        a1 = 2.0 * r * a_s
        on_axis = r == 0.0
        off = np.where(on_axis, 1.0, r)
        pv = p(off)
        p_a1 = 2.0 * np.where(on_axis, c_axis, off * pv) * a_s
        # second/third derivatives through the ODE, never by differencing
        qv = q(r)
        a2 = f(r) - p_a1 - qv * av
        if coeff_derivs is None:
            a3 = np.full_like(av, np.nan)
        else:
            dp, dq, df = coeff_derivs
            a3 = df(r) - dp(off) * a1 - pv * a2 - dq(r) * av - qv * a1
            # A''' of a profile even in R vanishes on the axis
            a3 = np.where(on_axis, 0.0, a3)
        return av, a1, a2, a3, a_s, a_ss

    def evaluator(r):
        av, a1, a2, a3, _, _ = terms(np.atleast_1d(np.asarray(r, dtype=float)))
        if np.isscalar(r) or np.ndim(r) == 0:
            return float(av[0]), float(a1[0]), float(a2[0]), float(a3[0])
        return av, a1, a2, a3

    def with_quotients(r):
        av, a1, a2, a3, a_s, a_ss = terms(r)
        return av, a1, a2, a3, 2.0 * a_s, 4.0 * r * a_ss

    return evaluator, with_quotients
