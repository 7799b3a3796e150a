"""Shared numerical kernels: Bessel evaluations, a collocation solver for
linear radial ODEs on [0, R_e] whose solution is regular on the axis and
meets a Robin-type closure at the rim, adaptive quadrature (scipy's
QUADPACK, imported on call), and a bracketed root finder: Brent's method
(Brent 1973, ch. 4), run as scipy.optimize.brentq's iteration from the
two ends find_root has already evaluated, so its roots equal brentq's
bit for bit and scipy.optimize stays off the import path.

Overflow policy: modified Bessel functions are only ever exposed in scaled
form (e^{-x} I_0, e^{-x} I_1, from scipy.special.i0e/i1e) or as the ratio
t = I_1/I_0 of the two, so no quantity here overflows for any argument
the solvers produce.  The one difference that cancels, x - 2t ~ x^3/8 as
x -> 0, has its own series form (x_minus_2t).

The BVP solver ships two independent discretizations ("primary": degree-10
Chebyshev panels collocated at their 9 Gauss points; "alt": degree-8
panels at their 7 Chebyshev points, on the midpoint-doubled mesh).
solve_dual_bvp runs both and compares them, to guard against
discretization bugs.  Its interface is the s-form operator, in
s = R**2,

    4 s A_ss + 2 (1 + m) A_s + q A = f,        m = R p,

with the caller's m, q, f and their s-derivatives given as functions of
s.  The axis row is the equation itself at s = 0,
(2 + 2 m(0)) A_s + q(0) A = f(0): a polynomial meets it only on the
regular solution, so there is no truncation of the axis and no grading
toward it.  A'' and A''' are read off the same equation, with no 1/R
and so no axis special case.  The rows are ordered panel by panel (left
row, each panel's collocation rows and C0/C1 pair with the next, right
row), so the system is banded with half-bandwidth deg + 1; it is solved
by LAPACK's band LU (dgbsv, called directly on storage built in its
layout).

Chebyshev panels are evaluated one way, PanelPoly's: derivative series by
chebder's recurrence, then a Vandermonde product (the collocation blocks,
the residual check, the dual comparison and the solved profile).  The
Vandermondes on fixed nodes (the residual check's, the Gauss rules') are
built once per degree.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy import special as _sp_special
from scipy.linalg import LinAlgError, get_lapack_funcs

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
    "closed_form_profile",
]


class NumericsError(RuntimeError):
    """Base class for numerical failures in this package."""


class ToleranceNotMet(NumericsError):
    """A solver converged to something, but not to the requested tolerance.

    Attributes: best, residual, scale; for the BVP solver's refinement
    also floor (the lowest residual/scale it reached), intervals (the
    (lo, hi) R-intervals of the panels still over tolerance there) and
    passes (the refinement passes it took).  What best holds depends on
    the raiser: refinement leaves it None, and solve_dual_bvp stores the
    sup-relative disagreement of the two discretizations (with residual
    and scale the absolute disagreement and sup|A|).
    """

    def __init__(self, msg, best=None, residual=None, scale=None,
                 floor=None, intervals=(), passes=None):
        super().__init__(msg)
        self.best = best
        self.residual = residual
        self.scale = scale
        self.floor = floor
        self.intervals = intervals
        self.passes = passes


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
    """Adaptive Gauss-Kronrod quadrature of f on [lo, hi] (scipy's quad,
    with scipy.integrate imported on call: no library path needs it, so
    it is kept off the import path).

    tol is applied both absolutely and relatively.  On subdivision/roundoff
    limit the best estimate is raised inside QuadratureLimit rather than
    returned, so callers cannot silently use a bad value.
    """
    from scipy import integrate as _sp_integrate

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

# brentq's floor on rtol and its default iteration limit
_RTOL_MIN = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def find_root(g: Callable[[float], float], bracket: tuple[float, float],
              tol: float = 1e-12) -> float:
    """Root of g on the bracket [lo, hi] by Brent's method, run as
    scipy.optimize.brentq's iteration (xtol = tol, rtol = max(tol, 4 eps),
    100 iterations) from g(lo) and g(hi) as evaluated here: the root is
    brentq's bit for bit, and the ends are not evaluated twice.

    An exact root at either endpoint is returned as that endpoint; a
    bracket without a sign change raises NoSignChange.  As in brentq, a
    NaN value of g raises ValueError and a search that does not converge
    raises NumericsError.
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
    if tol <= 0.0:
        raise ValueError(f"xtol too small ({tol:g} <= 0)")
    return _brent(g, lo, hi, glo, ghi, tol, max(tol, _RTOL_MIN))


def _checked(x, fx) -> float:
    """g's value fx at x as a float; NaN raises ValueError, as brentq's
    wrapper does."""
    fx = float(fx)
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def _div(a: float, b: float) -> float:
    """a / b as C divides doubles: where Python raises at b = 0, IEEE 754
    gives NaN for 0/0 and NaN/0, and otherwise an infinity signed by both
    operands (a zero divisor keeps its sign)."""
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _brent(g, xa, xb, fa, fb, xtol, rtol) -> float:
    """scipy's brentq.c, step for step, from the end values fa = g(xa)
    and fb = g(xb), nonzero and of opposite sign.

    The iteration keeps the current iterate xcur, the previous one xpre
    and the contrapoint xblk (g changes sign between xcur and xblk), and
    takes an inverse-quadratic (or secant) step where that is safely
    short, a bisection step otherwise.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = _checked(xpre, fa), _checked(xcur, fb)
    xtol, rtol = float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry      # good short step
            else:
                spre = scur = sbis           # bisect
        else:
            spre = scur = sbis               # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(xcur, g(xcur))
    raise NumericsError(
        f"root finding failed to converge after {_BRENT_MAXITER} iterations "
        f"on [{xa}, {xb}], value is {xcur}"
    )


# ---------------------------------------------------------------------------
# Linear radial BVP, regular on the axis, by piecewise-Chebyshev collocation
# ---------------------------------------------------------------------------

# refinement passes (each splits the R panels over tolerance at their
# midpoints) before ToleranceNotMet
_MAX_REFINE = 3


class PanelPoly:
    """A piecewise polynomial in x: row i of coefs holds the Chebyshev
    coefficients on [edges[i], edges[i+1]] in the panel variable
    t = (x - mid_i) / half_i, which runs over [-1, 1].  Every evaluation
    but value returns the value and the first two x-derivatives."""

    def __init__(self, edges: np.ndarray, coefs: np.ndarray):
        self.edges = edges
        self.coefs = coefs
        self.half = 0.5 * np.diff(edges)
        self.mid = 0.5 * (edges[:-1] + edges[1:])
        # the value, x-derivative and second x-derivative series of every
        # panel, stacked (npan, 3, deg + 1) so that one product
        # evaluates all three
        d1 = _chebder_rows(coefs) / self.half[:, None]
        d2 = _chebder_rows(d1) / self.half[:, None]
        self._series = np.zeros((len(coefs), 3, coefs.shape[1]))
        self._series[:, 0] = coefs
        self._series[:, 1, :-1] = d1
        self._series[:, 2, :-2] = d2

    @property
    def deg(self) -> int:
        return self.coefs.shape[1] - 1

    def locate(self, x):
        """Panel index and panel variable t of every x."""
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                      0, len(self.edges) - 2)
        return idx, (x - self.mid[idx]) / self.half[idx]

    def at(self, idx, t):
        """(v, v_x, v_xx) at the panel variables t of the panels idx
        (idx and t broadcast together)."""
        vander = _cheb.chebvander(t, self.deg)
        return tuple(np.einsum("...k,...jk->j...", vander, self._series[idx]))

    def __call__(self, x):
        return self.at(*self.locate(x))

    def value(self, x):
        """v alone at x: the same product as the first of __call__'s
        three, on the same (strided) Vandermonde, so the same doubles at a
        third of the work; a contiguous copy of it would round
        differently."""
        idx, t = self.locate(x)
        return np.einsum("...k,...k->...", _cheb.chebvander(t, self.deg),
                         self.coefs[idx])

    def grid(self, t, vander):
        """The fixed panel variables t on every panel, given with their
        Chebyshev-Vandermonde vander = chebvander(t, deg): nodes x and
        (v, v_x, v_xx), each (npan, len(t))."""
        vals = np.einsum("mk,pjk->jpm", vander, self._series)
        return self.mid[:, None] + self.half[:, None] * t, tuple(vals)

    def gauss(self, n: int):
        """The n-point Gauss-Legendre rule on [-1, 1] mapped onto every
        panel: nodes x, weights and (v, v_x, v_xx), each (npan, n)."""
        t, w, vander = _gauss_nodes(self.deg, n)
        x, vals = self.grid(t, vander)
        return x, self.half[:, None] * w, vals


def _chebder_rows(c: np.ndarray) -> np.ndarray:
    """The derivative series of the Chebyshev coefficient rows c,
    (npan, n) -> (npan, n - 1), n >= 3: chebder(c, axis=1) by chebder's
    own recurrence and operation order, so every double equals chebder's,
    without its generic argument handling."""
    c = c.T.copy()
    n = len(c) - 1
    der = np.empty((n, c.shape[1]))
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    der[1] = 4 * c[2]
    der[0] = c[1]
    return der.T


def _frozen(*arrays):
    """arrays, made read-only: a cached result is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=8)
def _gauss_nodes(deg: int, n: int):
    """The n-point Gauss-Legendre nodes t and weights w on [-1, 1], and
    the degree-deg Chebyshev-Vandermonde at t."""
    t, w = np.polynomial.legendre.leggauss(n)
    return _frozen(t, w, _cheb.chebvander(t, deg))


@lru_cache(maxsize=8)
def _check_nodes(deg: int):
    """The residual check's panel variables for degree deg, about ten
    to a collocation spacing, and their Chebyshev-Vandermonde."""
    tt = np.linspace(-1.0, 1.0, 10 * (deg - 1) + 2)[1:-1]
    return _frozen(tt, _cheb.chebvander(tt, deg))


@dataclass
class RadialSolution:
    """A radial profile A(R), evaluated from its one derivative function.

    terms(r, third) gives (A, A', A'', A''') on a float array r of one
    dimension or more, elementwise, with None for A''' unless third; a
    profile solved by solve_linear_bvp appends A_s and A_ss, the
    s = R**2 derivatives of its panels.  The plate's terms are its
    closed forms; a solved profile's read its panels through the ODE
    (see _panel_terms).  eval, eval2 and eval_quotients are the only
    readers of terms.

    meta records method, mesh, refinement passes and the measured
    residual (a read-only mapping on a solve_dual_bvp profile).  s_form
    (None on a profile given in closed form) is the solved A as a
    PanelPoly in s = R**2, the panels on which integrals of A and its
    derivatives are exact Gauss-Legendre sums.

    eval may also be given to the constructor (dataclasses.replace
    passes it on): it then stands in for the method on that instance, as
    an eval assigned to the instance does (bench/tracing.py's wrapper).
    """

    terms: Callable
    meta: Mapping = field(default_factory=dict)
    s_form: Optional[PanelPoly] = None
    # declared bare, so that its default is the method defined below
    eval: InitVar[Callable]

    def __post_init__(self, eval):
        # the method, bound to this or any other instance, is no override
        if getattr(eval, "__func__", eval) is not RadialSolution.eval:
            self.eval = eval

    @staticmethod
    def radii(r: np.ndarray):
        """The radii to evaluate an R-only quantity of the float array r
        on, as a 1-D array, and a map taking arrays over them (along their
        last axis) back to r's own shape.

        A line of radii, an r with at most one axis longer than 1 (a
        column, a row, 1-D or a scalar), is evaluated in place: its own
        elements, in its own order, and the map is a reshape.  A full grid
        is evaluated once per distinct R: the sorted distinct values, and
        the map gathers them back.  A lone radius (a scalar, a one-element
        line or a grid of one R) is evaluated as the pair (R, R): einsum
        sums the panel series of a one-point batch, and matmul forms a
        one-row product, in another order, so R alone would round
        differently from the same R inside a line.  Every R-only quantity
        here is elementwise in its radius, so each form gives the doubles
        of a line."""
        if sum(n > 1 for n in r.shape) <= 1:
            radii, index = r.ravel(), slice(r.size)
        else:
            radii, index = np.unique(r.ravel(), return_inverse=True)
        if radii.size == 1:
            radii = np.repeat(radii, 2)
        # arr.T[index] is numpy's fast gather along a first axis (a view for
        # the slice); arr[..., index] gives the same array in the same
        # memory layout but takes 2.5 times as long on a 1-D arr
        return radii, (lambda arr: arr.T[index].T
                       .reshape(arr.shape[:-1] + r.shape))

    def eval(self, r, _a3=True):
        """(A, A', A'', A''') at R: floats for a scalar R (0-d included),
        else arrays of R's shape, each formed on the radii of R (see
        radii), so a lone R gives the doubles it has inside a line.  The
        private _a3=False leaves A''' out (see eval2)."""
        rr = np.asarray(r, dtype=float)
        radii, take = self.radii(rr)
        values = tuple(map(take, self.terms(radii, _a3)[:4 if _a3 else 3]))
        if rr.ndim == 0:
            return tuple(map(float, values))
        return values

    def eval2(self, r):
        """(A, A', A'') at R: eval's first three, bit for bit, without
        forming A''', for callers that discard it.  It calls the
        instance's eval with the private flag _a3, so a wrapper put on
        eval (bench/tracing.py's) sees these calls."""
        return self.eval(r, _a3=False)

    def eval_quotients(self, r):
        """(A, A', A'', A''', A'/R, (A'' - A'/R)/R) on the float array r,
        for a profile whose terms give A_s and A_ss (one solved on
        s-panels, or a closed form in s): the two quotients are read off
        them as 2 A_s and 4 R A_ss, finite on the axis with no 0/0."""
        av, a1, a2, a3, a_s, a_ss = self.terms(r, True)
        return av, a1, a2, a3, 2.0 * a_s, 4.0 * r * a_ss


# LAPACK's band LU solve, called directly: solve_banded's wrapper would
# copy the band into this layout on every solve
_gbsv, = get_lapack_funcs(("gbsv",), dtype=np.float64)


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


def _coef_on(fn, ss):
    """fn evaluated elementwise on the node array ss, as float of ss's
    shape (a callable returning a constant is broadcast)."""
    return np.broadcast_to(np.asarray(fn(ss), dtype=float), ss.shape)


def _assemble_and_solve(m, q, f, edges, deg, kind, left_row, right_row):
    """Build and solve the banded collocation system of
    4 s v'' + 2 (1 + m) v' + q v = f on the s panels edges: the
    (npan, deg + 1) panel coefficients, or LinAlgError on a singular or
    non-finite solve.

    left_row/right_row: (coef_on_v, coef_on_v', rhs) at the first/last
    mesh point.

    Rows run panel by panel: the left boundary row; each panel's deg - 1
    collocation rows, then its C0/C1 pair with the next panel; the right
    boundary row last.  Panel i owns the ncoef = deg + 1 rows from
    1 + i*ncoef on, so the half-bandwidth is bw = deg + 1.  All panels are
    written in one batched pass into LAPACK band storage
    ab[2 bw + row - col, col], which LAPACK's dgbsv factors and solves in
    place; a zero pivot raises LinAlgError("singular matrix"), as
    scipy.linalg.solve_banded does.
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
    ss = mids[:, None] + halves[:, None] * tpts
    block = (4.0 * ss[:, :, None] * v2 / (h * h)
             + 2.0 * (1.0 + _coef_on(m, ss))[:, :, None] * v1 / h
             + _coef_on(q, ss)[:, :, None] * v0)
    scale = np.max(np.abs(block), axis=2)
    scale[scale == 0.0] = 1.0
    block /= scale[:, :, None]

    # LAPACK's band storage for dgbsv: Fortran order, with bw rows of
    # fill-in above the 2 bw + 1 diagonals, so LAPACK works on it in
    # place.  band[d, i, j] is ab[bw + d, i*ncoef + j]: row k of panel i
    # meets the panel's own coefficient j at d = own[j] + k and the next
    # panel's at d = own[j] + k - ncoef.  Rows k = deg - 1, deg are the
    # C0/C1 pair; the last panel has none, and its k = deg - 1 is the
    # right row.
    ab = np.zeros((3 * bw + 1, npan * ncoef), order="F")
    band = ab[bw:].reshape(2 * bw + 1, npan, ncoef)
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
    rhs[1:].reshape(npan, ncoef)[:, :mcol] = _coef_on(f, ss) / scale

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

    *_, sol, info = _gbsv(bw, bw, ab, rhs[:-1], overwrite_ab=True,
                          overwrite_b=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if not np.all(np.isfinite(sol)):
        raise LinAlgError("non-finite solution")
    return sol.reshape(npan, ncoef)


def solve_linear_bvp(coeffs, right, tol: float = 1e-10, *, mesh,
                     method: str = "primary") -> RadialSolution:
    """Solve 4 s A_ss + 2 (1 + m) A_s + q A = f in s = R**2 on
    [0, mesh[-1]**2] for the A that is regular on the axis.  In R it
    reads A'' + p A' + q A = f, with m = R p.

    coeffs: (m, q, f, m_s, q_s, f_s), callables of s evaluated
    elementwise on float arrays of any shape (the solver passes 2-D node
    arrays, one row per panel) and on scalars at the interval ends; the
    last three are the s-derivatives of the first three.  A callable may
    return a plain constant; it is broadcast to the shape of its argument.

    The axis row is the equation itself at s = 0,
    (2 + 2 m(0)) A_s + q(0) A = f(0), which a polynomial meets only on
    the regular solution.

    right:
        (alpha, beta, gamma, delta) meaning
        alpha*A + beta*A' + gamma*A'' = delta at the rim R_e.  With
        A' = 2 R_e A_s and A'' = f - 2 m A_s - q A the stored condition is
        (alpha - gamma*q)*A + 2 (R_e beta - gamma*m)*A_s = delta - gamma*f.

    mesh: the R panel edges, from 0 out to the rim mesh[-1] > 0, or
    ValueError; the solver squares them into s.

    method: "primary" (degree-10 Chebyshev panels collocated at the 9
    Gauss points) or "alt" (degree 8 at the 7 Chebyshev points, on the
    midpoint-doubled mesh): two independent discretizations of the same
    problem.  Every collocation node is interior to its panel.

    The solution is accepted when the residual of the equation, sampled
    about ten times finer than the collocation spacing, satisfies
    sup|res| <= tol * max(sup|f|, sup|q*A|), with 0 < tol < inf (else
    ValueError).  Otherwise each refinement pass halves, at its R
    midpoint, only the panels whose own sampled sup residual is over
    tol * scale, and solves again.  Refinement stops with
    ToleranceNotMet after _MAX_REFINE passes, or as soon as a pass does
    not lower the sup residual (its rounding floor); the error names that
    floor and the R-intervals of the panels still over tolerance.
    meta["passes"] counts the passes taken, and meta["edges"] holds the
    R breakpoints above the axis (the axis is implied).  meta["edges"]
    and the arrays of the returned s_form are read-only.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    edges = np.asarray(mesh, dtype=float)
    if len(edges) < 2 or edges[0] != 0.0 or not (edges[-1] > 0.0):
        raise ValueError("a mesh must run from 0 to a positive rim, got "
                         + np.array2string(edges, threshold=6))
    r_e = float(edges[-1])

    if method == "primary":
        deg, kind = 10, "gauss"
    elif method == "alt":
        # lower order, different node family, doubled mesh: an independent
        # discretization of the same BVP for oracle comparisons
        deg, kind = 8, "chebyshev"
        edges = _split_panels(edges)
    else:
        raise ValueError(f"unknown method {method!r}")

    m, q, f = coeffs[:3]
    left_row = (float(q(0.0)), 2.0 + 2.0 * float(m(0.0)), float(f(0.0)))
    right_row = _rim_row(coeffs, right, r_e)
    if max(abs(right_row[0]), abs(right_row[1])) == 0.0:
        raise SingularSystem("right boundary functional vanishes identically")

    passes = 0
    best = None
    while True:
        # the panels are refined in R and solved on their squares
        s_edges = edges * edges
        try:
            coefs = _assemble_and_solve(m, q, f, s_edges, deg, kind,
                                        left_row, right_row)
        except LinAlgError as err:
            raise SingularSystem(
                f"singular system in BVP collocation solve ({err}): method "
                f"{method!r}, degree {deg}, {len(edges) - 1} panels") from err
        poly = PanelPoly(s_edges, coefs)
        res_sup, scale, panel_sups = _residual_check(m, q, f, poly, deg)
        over = panel_sups > tol * scale
        if not over.any():
            break
        stalled = best is not None and res_sup >= best[0]
        if not stalled:
            best = (res_sup, scale, edges, over)
        if stalled or passes == _MAX_REFINE:
            raise _tolerance_not_met(tol, passes, stalled, *best)
        edges = _split_panels(edges, over)
        passes += 1

    meta = {
        "method": method,
        "degree": deg,
        "panels": len(s_edges) - 1,
        "passes": passes,
        "edges": edges[1:].copy(),
        "residual_sup": res_sup,
        "residual_scale": scale,
        "tol": tol,
    }
    _frozen(poly.edges, poly.coefs, poly.half, poly.mid, poly._series,
            meta["edges"])
    return RadialSolution(terms=partial(_panel_terms, coeffs, poly),
                          meta=meta, s_form=poly)


def solve_dual_bvp(coeffs, right, tol, where, *, mesh) -> RadialSolution:
    """Solve one regular-axis BVP (see solve_linear_bvp) with both
    discretizations and cross-check them.

    Each discretization refines on its own residual.  Returns the
    primary solution, with meta["dual_sup_rel"] set to the sup-norm
    disagreement of A between the two on 1501 even points, relative to
    sup|A| (0 when both are identically zero), and meta["alt_panels"],
    meta["alt_passes"] those of the alt solve.  A disagreement above
    meta["dual_gate"] = min(1e-8, 100 tol) raises ToleranceNotMet;
    `where` names the problem in that message.  The returned meta is a
    read-only mapping, and the panel arrays are read-only (see
    solve_linear_bvp), since a cached solution is shared by every caller.
    """
    primary = solve_linear_bvp(coeffs, right, tol=tol, mesh=mesh,
                               method="primary")
    alt = solve_linear_bvp(coeffs, right, tol=tol, mesh=mesh, method="alt")
    s = np.linspace(0.0, float(mesh[-1]), 1501) ** 2
    a_p = primary.s_form.value(s)
    a_a = alt.s_form.value(s)
    diff = float(np.max(np.abs(a_p - a_a)))
    scale = float(np.max(np.abs(a_p)))
    dual_rel = diff / scale if scale > 0.0 else (math.inf if diff else 0.0)
    # as tight as the tolerance allows, never looser than 1e-8
    gate = min(1e-8, 100.0 * tol)
    if dual_rel > gate:
        raise ToleranceNotMet(
            f"independent discretizations disagree {where}: sup rel "
            f"{dual_rel:.3e} > {gate:.0e}",
            best=dual_rel, residual=diff, scale=scale)
    primary.meta.update(dual_sup_rel=dual_rel, dual_gate=gate,
                        alt_panels=alt.meta["panels"],
                        alt_passes=alt.meta["passes"])
    primary.meta = MappingProxyType(primary.meta)
    return primary


def _split_panels(edges: np.ndarray, over=None) -> np.ndarray:
    """Halve the panels marked by the boolean mask over at their
    midpoints (every panel when over is None: the mesh doubled, with its
    grading)."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    if over is not None:
        mids = mids[over]
    return np.sort(np.concatenate([edges, mids]))


def _tolerance_not_met(tol, passes, stalled, res_sup, scale, edges, over):
    """ToleranceNotMet for the best pass of a refinement (residual res_sup
    of scale on the R panels edges, over marking the panels over
    tolerance), naming the floor reached and where the excess sits."""
    floor = res_sup / scale
    # runs of adjacent panels over tolerance, as R-intervals
    idx = np.flatnonzero(over)
    gaps = np.diff(idx) > 1
    intervals = [(float(edges[lo]), float(edges[hi + 1])) for lo, hi in
                 zip(idx[np.r_[True, gaps]], idx[np.r_[gaps, True]])]
    why = "the residual stopped falling" if stalled else "the pass limit"
    where = ", ".join(f"[{lo:.4g}, {hi:.4g}]" for lo, hi in intervals)
    return ToleranceNotMet(
        f"tolerance not met: residual {res_sup:.3e} vs {tol:.1e} * scale "
        f"{scale:.3e}; refinement stopped after {passes} passes "
        f"({why}) at a floor of {floor:.1e} of scale, with panels over "
        f"tolerance at R in {where}",
        residual=res_sup, scale=scale, floor=floor, intervals=intervals,
        passes=passes)


def _residual_check(m, q, f, poly: PanelPoly, deg):
    """Sup residual of 4 s v'' + 2 (1 + m) v' + q v - f for the solved
    panels poly, on a grid ~10x finer than the collocation spacing, the
    residual scale max(sup|f|, sup|q*v|), and the sup residual of every
    panel on the same grid.  All panels are evaluated at once, on the
    degree's cached nodes and Vandermonde."""
    ss, (av, a1, a2) = poly.grid(*_check_nodes(deg))
    qv = _coef_on(q, ss)
    fv = _coef_on(f, ss)
    res = 4.0 * ss * a2 + 2.0 * (1.0 + _coef_on(m, ss)) * a1 + qv * av - fv
    panel_sups = np.max(np.abs(res), axis=1)
    scale = max(float(np.max(np.abs(fv))), float(np.max(np.abs(qv * av))))
    if scale == 0.0:
        scale = 1.0
    return float(np.max(panel_sups)), scale, panel_sups


def _rim_row(coeffs, right, r_e: float):
    """The rim condition right = (alpha, beta, gamma, delta), meaning
    alpha A + beta A' + gamma A'' = delta at R = r_e, as the row
    (on A, on A_s, rhs) in the s-form unknowns: with A' = 2 r_e A_s and
    A'' = f - 2 m A_s - q A it reads

        (alpha - gamma q) A + 2 (r_e beta - gamma m) A_s = delta - gamma f,

    with the coefficients of coeffs taken at s = r_e**2."""
    m, q, f = coeffs[:3]
    alpha, beta, gamma, delta = right
    s_e = r_e * r_e
    return (alpha - gamma * float(q(s_e)),
            2.0 * (r_e * beta - gamma * float(m(s_e))),
            delta - gamma * float(f(s_e)))


def _ode_terms(coeffs, r, av, a_s, a_ss, third):
    """RadialSolution.terms of a profile of the equation of coeffs, from
    its A, A_s and A_ss on the float array r: A, A', A'', A''' (None
    unless third), A_s and A_ss.  A' comes from A_s; A'' and A''' are
    read off the equation and its s-derivative:

        A'   = 2 R A_s,
        A''  = f - 2 m A_s - q A,
        A''' = 2 R (f_s - 2 m_s A_s - 2 m A_ss - q_s A - q A_s),

    none of which divides by R, so the axis is an ordinary point."""
    s = r * r
    m, q, f = (fn(s) for fn in coeffs[:3])
    a2 = f - 2.0 * m * a_s - q * av
    a3 = None
    if third:
        m_s, q_s, f_s = (fn(s) for fn in coeffs[3:])
        a3 = 2.0 * r * (f_s - 2.0 * (m_s * a_s + m * a_ss) - q_s * av
                        - q * a_s)
    return av, 2.0 * r * a_s, a2, a3, a_s, a_ss


def _panel_terms(coeffs, poly: PanelPoly, r, third):
    """RadialSolution.terms of the panels poly, solved in s = R**2 for
    the equation of coeffs (see _ode_terms)."""
    return _ode_terms(coeffs, r, *poly(r * r), third)


def closed_form_profile(coeffs, right, r_e: float, solutions, *,
                        scale: float = 1.0,
                        meta: Optional[dict] = None) -> RadialSolution:
    """scale times the profile A of the equation coeffs, regular on the
    axis and meeting the rim condition right at r_e (both as
    solve_linear_bvp takes them), from its closed form A = P + C H.
    solutions(s) gives ((P, P_s, P_ss), (H, H_s, H_ss)) on the float
    array s = R**2, elementwise: a particular solution and the
    homogeneous solution regular on the axis.  C is fixed by the rim row
    (_rim_row), and terms reads A'' and A''' off the equation as a solved
    profile's do (_ode_terms), then multiplies all six arrays by scale.

    meta holds method "closed form" and C (that of A, before scale),
    updated with the caller's meta; s_form is None: there are no panels."""
    c_a, c_s, rhs = _rim_row(coeffs, right, r_e)
    (p0, p_s, _), (h0, h_s, _) = solutions(np.array([r_e * r_e]))
    c = float((rhs - c_a * p0[0] - c_s * p_s[0])
              / (c_a * h0[0] + c_s * h_s[0]))

    def terms(r, third):
        (p0, p_s, p_ss), (h0, h_s, h_ss) = solutions(r * r)
        out = _ode_terms(coeffs, r, p0 + c * h0, p_s + c * h_s,
                         p_ss + c * h_ss, third)
        return tuple(None if v is None else scale * v for v in out)

    return RadialSolution(terms=terms, meta={"method": "closed form",
                                             "C": c, **(meta or {})})
