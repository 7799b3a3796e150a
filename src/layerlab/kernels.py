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
x -> 0, is formed from its own series and kept on the same record
(BesselRatioEval.x_minus_2t).  That record is a NamedTuple, a tuple's
cost to build, since the plate's scalar closed forms build one per
point.

The BVP solver ships two independent discretizations ("primary": degree-10
Chebyshev panels collocated at their 9 Gauss points; "alt": degree-8
panels at their 7 Chebyshev points, on the midpoint-doubled mesh).
solve_dual_bvp runs the primary and compares it with a reference, to
guard against discretization bugs: the alt discretization, or a closed
form of the profile where the caller has one.  Its interface is the
s-form operator, in s = R**2,

    4 s A_ss + 2 (1 + m) A_s + q A = f,        m = R p,

given by the caller as one pair (ode, ode_s) of functions of s: ode(s)
returns (m, q, f) and ode_s(s) their s-derivatives, each evaluated once
per node array.  The axis row is the equation itself at s = 0,
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
Vandermondes on fixed nodes (the residual check's, the Gauss rule's) are
built once per degree, and a solved profile's Gauss record once per
profile (PanelPoly.gauss).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

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
    sup-relative disagreement of the primary with its reference (with
    residual and scale the absolute disagreement and sup|A|).
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

class BesselRatioEval(NamedTuple):
    """t = I_1(x)/I_0(x) together with the scaled value e^{-x}I_0(x) and
    the difference x - 2t, formed without cancellation.  All finite for
    every x >= 0."""

    x: float
    t: float
    scaled_i0: float
    x_minus_2t: float


def bessel_ratio(x: float) -> BesselRatioEval:
    """Evaluate t = I_1/I_0 and e^{-x}I_0 with scipy.special.i0e/i1e, and
    x - 2t: P(x)/I_0(x) from the positive series P below x = 2 (where
    x - 2t ~ x^3/8 would cancel), the plain difference at and above 2
    (where it is at least 0.6 and benign).

    Requires x >= 0.  t(0) = 0; t increases strictly toward 1.
    """
    if x < 0.0:
        raise ValueError(f"bessel_ratio requires x >= 0, got {x}")
    i0e = float(_sp_special.i0e(x))
    t = float(_sp_special.i1e(x)) / i0e
    d = _p_cancel_free(x) / (math.exp(x) * i0e) if x < 2.0 else x - 2.0 * t
    return BesselRatioEval(x, t, i0e, d)


_P_DENOMS = tuple(4.0 * m * (m + 2.0) for m in range(1, 60))


def _p_cancel_free(x: float) -> float:
    """P(x) = x I_0(x) - 2 I_1(x) by its power series

        P = sum_{m>=1} m x^{2m+1} / (4^m (m!)^2 (m+1)) = x^3/8 + x^5/96 + ...

    Every coefficient is positive, so the ~x^2/8 relative cancellation of
    the defining difference at small x never appears.  Term m + 1 is term
    m times x^2/(4m(m + 2)), dividing by _P_DENOMS."""
    term = x ** 3 / 8.0
    s = term
    x2 = x * x
    for den in _P_DENOMS:
        term *= x2 / den
        s += term
        if term < 1e-17 * s:
            break
    return s


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

        stry = math.inf                      # bisect, unless a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # a divisor is zero here only by underflow: brentq.c's step is
            # then inf or NaN, which the test below rejects as it does inf
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry          # good short step
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
    returns the value and the first two x-derivatives: a solved
    profile's panels are its s-evaluator (see _ode_terms), and the dual
    comparison reads the first of the three.  Its arrays are read-only,
    since a solved profile is shared by every caller of a cache.

    Integrals read three things, and nothing else of the panels: the rim
    values (end), the 6-point Gauss-Legendre record of every panel
    (gauss, formed once) and the running integral up to a given x by
    the same rule (integral_below)."""

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
        _frozen(self.edges, self.coefs, self.half, self.mid, self._series)

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

    def end(self):
        """The last edge x and (v, v_x, v_xx) there: the last panel's
        series summed at t = 1, where every T_k is 1."""
        return (float(self.edges[-1]), *self._series[-1].sum(axis=1).tolist())

    def grid(self, t, vander):
        """The fixed panel variables t on every panel, given with their
        Chebyshev-Vandermonde vander = chebvander(t, deg): nodes x and
        (v, v_x, v_xx), each (npan, len(t))."""
        vals = np.einsum("mk,pjk->jpm", vander, self._series)
        return self.mid[:, None] + self.half[:, None] * t, tuple(vals)

    @cached_property
    def gauss(self):
        """The Gauss-Legendre rule (_GAUSS_T, _GAUSS_W) mapped onto every
        panel, formed on first use and kept read-only: nodes x, weights,
        v and v_x, each (npan, 6)."""
        x, (v, v_x, _) = self.grid(_GAUSS_T, _gauss_vander(self.deg))
        return _frozen(x, self.half[:, None] * _GAUSS_W, v, v_x)

    def integral_below(self, x, f):
        """The integral of a function from the first edge to each x of
        the 1-D array x, by the record's rule: the whole panels below x,
        summed in order, plus the part [edges[k], x] of the panel k
        holding x.  f(x, w, v, v_x) gives the function's values at nodes
        x times weights w, from v and v_x there: f(*gauss) on the whole
        panels; on a part, f(nodes, 1.0, v, v_x) @ _GAUSS_W times the
        part's half-length."""
        whole = np.concatenate(([0.0], np.cumsum(f(*self.gauss).sum(1))))
        k, t_x = self.locate(x)
        frac = 0.5 * (t_x + 1.0)
        tn = frac[:, None] * (_GAUSS_T + 1.0) - 1.0
        nodes = self.mid[k][:, None] + self.half[k][:, None] * tn
        part = f(nodes, 1.0, *self.at(k[:, None], tn)[:2]) @ _GAUSS_W
        return whole[k] + self.half[k] * frac * part


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


# the one Gauss-Legendre rule of the panels, nodes and weights on
# [-1, 1] (PanelPoly.gauss): 6 points integrate A, s A and g**2 A_s
# exactly on a degree-10 panel in s, where the sphere reads A's moments
# and its potential, and solve_dual_bvp compares the primary with its
# reference on its nodes
_GAUSS_T, _GAUSS_W = _frozen(*np.polynomial.legendre.leggauss(6))


@lru_cache(maxsize=8)
def _gauss_vander(deg: int):
    """The degree-deg Chebyshev-Vandermonde at _GAUSS_T."""
    return _frozen(_cheb.chebvander(_GAUSS_T, deg))[0]


@lru_cache(maxsize=8)
def _check_nodes(deg: int):
    """The residual check's panel variables for degree deg, about ten
    to a collocation spacing, and their Chebyshev-Vandermonde."""
    tt = np.linspace(-1.0, 1.0, 10 * (deg - 1) + 2)[1:-1]
    return _frozen(tt, _cheb.chebvander(tt, deg))


@dataclass
class RadialSolution:
    """A radial profile A(R), evaluated from its one derivative function.

    terms(r, third) gives the six-slot tuple

        (A, A', A'', A''' or None, A'/R, (A'' - A'/R)/R or None)

    on a float array r of one dimension or more, elementwise, with None
    for A''' unless third.  Every reader takes what it needs from it, so
    none divides by R: each profile forms its own A'/R, finite on the
    axis, where it is A''.  A profile in s = R**2 (one solved by
    solve_linear_bvp, or closed_form_profile's) reads A and its
    s-derivatives through the ODE (see _ode_terms) and gives the second
    quotient where third.  The plate's terms are its closed forms and
    leave the second quotient None: no plate field reads it.

    meta records method, mesh, refinement passes and the measured
    residual (a read-only mapping on a solve_dual_bvp profile).  s_form
    (None on a profile given in closed form) is the solved A as a
    PanelPoly in s = R**2, the panels on which integrals of A and its
    derivatives are exact Gauss-Legendre sums: integrals read its rim
    values (end), its Gauss record (gauss, formed once, by the solve's
    dual check) and the running integral up to a given s by the same
    rule (integral_below).

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
        private _a3=False gives A'/R in the place of A''' (see eval2)."""
        rr = np.asarray(r, dtype=float)
        radii, take = self.radii(rr)
        av, a1, a2, a3, a1r, _ = self.terms(radii, _a3)
        values = tuple(map(take, (av, a1, a2, a3 if _a3 else a1r)))
        if rr.ndim == 0:
            return tuple(map(float, values))
        return values

    def eval2(self, r):
        """(A, A', A'', A'/R) at R: eval's first three, bit for bit, and
        the profile's own A'/R, without forming A''', for callers that
        need no A'''.  It calls the instance's eval with the private flag
        _a3, so a wrapper put on eval (bench/tracing.py's) sees these
        calls."""
        return self.eval(r, _a3=False)


# LAPACK's band LU solve, called directly: solve_banded's wrapper would
# copy the band into this layout on every solve
_gbsv, = get_lapack_funcs(("gbsv",), dtype=np.float64)


@lru_cache(maxsize=32)
def _design_matrices(deg: int, kind: str):
    """Value/derivative Chebyshev-Vandermonde blocks at the collocation
    points for one panel degree, and the value and derivative rows at the
    panel ends t = -1, +1 (each (2, deg + 1), row 0 the left end).  kind,
    "gauss" or "chebyshev", selects the node family so the two methods
    discretize independently."""
    m = deg - 1
    if kind == "gauss":
        tpts = np.polynomial.legendre.leggauss(m)[0]
    else:  # "chebyshev"
        i = np.arange(m)
        tpts = np.cos(math.pi * (2 * i + 1) / (2 * m))[::-1]
    # T_j, T_j' and T_j'' at the nodes, then at t = -1, +1 for the
    # continuity and boundary rows (integer arithmetic there, so exact):
    # derivative series by chebder, then a Vandermonde product
    t = np.append(tpts, [-1.0, 1.0])
    eye = np.eye(deg + 1)
    v0, v1, v2 = (_cheb.chebvander(t, deg - m) @ _cheb.chebder(eye, m)
                  for m in range(3))
    return tpts, v0[:-2], v1[:-2], v2[:-2], (v0[-2:], v1[-2:])


def _assemble_and_solve(equation, edges, deg, kind, left_row, right_row):
    """Build and solve the banded collocation system of
    4 s v'' + 2 (1 + m) v' + q v = f, the equation (ode, ode_s), on the s
    panels edges: the (npan, deg + 1) panel coefficients, or LinAlgError
    on a singular or non-finite solve.

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
    tpts, v0, v1, v2, (e_val, e_der) = _design_matrices(deg, kind)
    mcol = len(tpts)
    halves = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])

    # collocation blocks, (npan, mcol, ncoef), each row scaled by its max
    h = halves[:, None, None]
    ss = mids[:, None] + halves[:, None] * tpts
    # a coefficient given as a constant is broadcast to the nodes
    m, q, f = np.broadcast_arrays(ss, *equation[0](ss))[1:]
    block = (4.0 * ss[:, :, None] * v2 / (h * h)
             + 2.0 * (1.0 + m)[:, :, None] * v1 / h
             + q[:, :, None] * v0)
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
    band[own + deg - 1, :-1, j] = e_val[-1][:, None]
    band[own + deg, :-1, j] = e_der[-1][:, None] / halves[:-1]
    band[own - 2, 1:, j] = -e_val[0][:, None]
    band[own - 1, 1:, j] = -e_der[0][:, None] / halves[1:]
    # the right-hand side in the same slots, one row down (the left row
    # is row 0); the last panel's unused k = deg slot falls off the end
    rhs = np.zeros(npan * ncoef + 1)
    rhs[1:].reshape(npan, ncoef)[:, :mcol] = f / scale

    # the boundary rows, each scaled by its max, at the end p of the
    # mesh, which is panel p's own end p: row 0 (panel 0's k = -1, rhs
    # slot 0) and the last row (the last panel's k = deg - 1, rhs slot -2)
    for (ca, cb, b), p, k, i in ((left_row, 0, -1, 0),
                                 (right_row, -1, deg - 1, -2)):
        row = ca * e_val[p] + cb * e_der[p] / halves[p]
        sc = max(np.max(np.abs(row)), 1e-300)
        band[own + k, p, j], rhs[i] = row / sc, b / sc

    *_, sol, info = _gbsv(bw, bw, ab, rhs[:-1], overwrite_ab=True,
                          overwrite_b=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if not np.all(np.isfinite(sol)):
        raise LinAlgError("non-finite solution")
    return sol.reshape(npan, ncoef)


def solve_linear_bvp(equation, right, tol: float = 1e-10, *, mesh,
                     method: str = "primary") -> RadialSolution:
    """Solve 4 s A_ss + 2 (1 + m) A_s + q A = f in s = R**2 on
    [0, mesh[-1]**2] for the A that is regular on the axis.  In R it
    reads A'' + p A' + q A = f, with m = R p.

    equation: the pair (ode, ode_s) of functions of s, evaluated
    elementwise on float arrays of any shape (the solver passes 2-D node
    arrays, one row per panel) and on scalars at the interval ends:
    ode(s) returns (m, q, f), and ode_s(s) their s-derivatives
    (m_s, q_s, f_s).  Any of them may be a plain constant; it is
    broadcast to the shape of the argument.

    The axis row is the equation itself at s = 0,
    (2 + 2 m(0)) A_s + q(0) A = f(0), which a polynomial meets only on
    the regular solution.

    right:
        (alpha, beta, gamma, delta) meaning
        alpha*A + beta*A' + gamma*A'' = delta at the rim R_e.  With
        A' = 2 R_e A_s and A'' = f - 2 m A_s - q A the stored condition is
        (alpha - gamma*q)*A + 2 (R_e beta - gamma*m)*A_s = delta - gamma*f.

    mesh: the R panel edges, increasing strictly from 0 out to a finite
    rim mesh[-1] > 0, or ValueError; the solver squares them into s.

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
    # comparisons alone, so that NaN fails it and nothing warns
    if not (len(edges) > 1 and edges[0] == 0.0 < edges[-1] < math.inf
            and np.all(edges[:-1] < edges[1:])):
        raise ValueError("a mesh must increase strictly from 0 to a positive "
                         "rim, got " + np.array2string(edges, threshold=6))

    if method == "primary":
        deg, kind = 10, "gauss"
    elif method == "alt":
        # lower order, different node family, doubled mesh: an independent
        # discretization of the same BVP for oracle comparisons
        deg, kind = 8, "chebyshev"
        edges = _split_panels(edges)
    else:
        raise ValueError(f"unknown method {method!r}")

    m0, q0, f0 = map(float, equation[0](0.0))
    left_row = (q0, 2.0 + 2.0 * m0, f0)
    right_row = _rim_row(equation, right, float(edges[-1]))
    if max(abs(right_row[0]), abs(right_row[1])) == 0.0:
        raise SingularSystem("right boundary functional vanishes identically")

    passes = 0
    best = None
    while True:
        # the panels are refined in R and solved on their squares
        s_edges = edges * edges
        try:
            coefs = _assemble_and_solve(equation, s_edges, deg, kind,
                                        left_row, right_row)
        except LinAlgError as err:
            raise SingularSystem(
                f"singular system in BVP collocation solve ({err}): method "
                f"{method!r}, degree {deg}, {len(edges) - 1} panels") from err
        poly = PanelPoly(s_edges, coefs)
        res_sup, scale, panel_sups = _residual_check(equation, poly, deg)
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
    _frozen(meta["edges"])
    return RadialSolution(terms=partial(_ode_terms, equation, poly),
                          meta=meta, s_form=poly)


def solve_dual_bvp(equation, right, tol, where, *, mesh,
                   exact=None) -> RadialSolution:
    """Solve one regular-axis BVP (see solve_linear_bvp) with the primary
    discretization and cross-check it against a reference: the exact
    profile where exact is given, else the alt discretization.

    exact: None, or the closed form's solutions as closed_form_profile
    takes them, with exact(s, False) giving the pair (P, H) alone; the
    reference is then P + C H, with C fixed by the rim row.  The alt
    discretization refines on its own residual, and its A is read as the
    first of its panels' three values (PanelPoly's one evaluation).
    Either reference is sampled where the primary is, on the nodes of
    its Gauss record (PanelPoly.gauss, the rule that integrates A's
    moments exactly), which this forms once for every later reader of
    the profile.

    Returns the primary solution, with meta["dual_sup_rel"] set to the
    sup-norm disagreement of A with the reference on those nodes,
    relative to the primary's sup|A| there (0 when both are identically
    zero), meta["reference"] to "exact" or "alt", for the exact
    reference meta["C"] to the C it used (as closed_form_profile's meta
    holds it), and for the alt reference meta["alt_panels"],
    meta["alt_passes"] those of the alt solve.  A disagreement above
    meta["dual_gate"] = min(1e-8, 100 tol)
    raises ToleranceNotMet; `where` names the problem in that message.
    The returned meta is a read-only mapping, and the panel arrays are
    read-only (see solve_linear_bvp), since a cached solution is shared
    by every caller.

    What the check cannot see is a fault the primary shares with its
    reference: one in the equation or the rim row they are both given,
    or in the float range of the coefficients both discretizations
    evaluate (an overflow or underflow hits both alike).  An exact
    reference is derived from the same equation and rim row, so it
    cannot see the first either.  The closed-form profiles, written
    apart from the code, are the oracles for those.
    """
    primary = solve_linear_bvp(equation, right, tol=tol, mesh=mesh)
    s, _, a_p, _ = primary.s_form.gauss
    if exact is None:
        alt = solve_linear_bvp(equation, right, tol=tol, mesh=mesh,
                               method="alt")
        a_ref = alt.s_form(s)[0]
        ref = {"reference": "alt", "alt_panels": alt.meta["panels"],
               "alt_passes": alt.meta["passes"]}
        name = "independent discretizations"
    else:
        c = _rim_constant(equation, right, float(mesh[-1]), exact)
        p, h = exact(s, False)
        a_ref, ref = p + c * h, {"reference": "exact", "C": c}
        name = "the panels and the exact profile"
    diff = float(np.max(np.abs(a_p - a_ref)))
    scale = float(np.max(np.abs(a_p)))
    dual_rel = diff / scale if scale > 0.0 else (math.inf if diff else 0.0)
    # as tight as the tolerance allows, never looser than 1e-8
    gate = min(1e-8, 100.0 * tol)
    if dual_rel > gate:
        raise ToleranceNotMet(
            f"{name} disagree {where}: sup rel {dual_rel:.3e} > {gate:.0e}",
            best=dual_rel, residual=diff, scale=scale)
    primary.meta.update(dual_sup_rel=dual_rel, dual_gate=gate, **ref)
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


def _residual_check(equation, poly: PanelPoly, deg):
    """Sup residual of 4 s v'' + 2 (1 + m) v' + q v - f, the equation
    (ode, ode_s), for the solved panels poly, on a grid ~10x finer than
    the collocation spacing, the residual scale max(sup|f|, sup|q*v|),
    and the sup residual of every panel on the same grid.  All panels are
    evaluated at once, on the degree's cached nodes and Vandermonde."""
    ss, (av, a1, a2) = poly.grid(*_check_nodes(deg))
    m, qv, fv = np.broadcast_arrays(ss, *equation[0](ss))[1:]
    res = 4.0 * ss * a2 + 2.0 * (1.0 + m) * a1 + qv * av - fv
    panel_sups = np.max(np.abs(res), axis=1)
    scale = max(float(np.max(np.abs(fv))), float(np.max(np.abs(qv * av))))
    if scale == 0.0:
        scale = 1.0
    return float(np.max(panel_sups)), scale, panel_sups


def _rim_row(equation, right, r_e: float):
    """The rim condition right = (alpha, beta, gamma, delta), meaning
    alpha A + beta A' + gamma A'' = delta at R = r_e, as the row
    (on A, on A_s, rhs) in the s-form unknowns: with A' = 2 r_e A_s and
    A'' = f - 2 m A_s - q A it reads

        (alpha - gamma q) A + 2 (r_e beta - gamma m) A_s = delta - gamma f,

    with m, q and f of the equation (ode, ode_s) taken at s = r_e**2."""
    alpha, beta, gamma, delta = right
    m, q, f = map(float, equation[0](r_e * r_e))
    return (alpha - gamma * q, 2.0 * (r_e * beta - gamma * m),
            delta - gamma * f)


def _ode_terms(equation, s_form, r, third):
    """RadialSolution.terms of a profile of the equation (ode, ode_s) on
    the float array r, from its s-evaluator: s_form(s) gives A, A_s and
    A_ss at s = R**2 (a solved profile's PanelPoly, or a closed form's
    P + C H).  A' and the two quotients come from A_s and A_ss; A'' and
    A''' are read off the equation and its s-derivative:

        A'   = 2 R A_s,                    A'/R           = 2 A_s,
        A''  = f - 2 m A_s - q A,          (A'' - A'/R)/R = 4 R A_ss,
        A''' = 2 R (f_s - 2 m_s A_s - 2 m A_ss - q_s A - q A_s),

    none of which divides by R, so the axis is an ordinary point.  A'''
    and the second quotient are None unless third."""
    ode, ode_s = equation
    s = r * r
    av, a_s, a_ss = s_form(s)
    m, q, f = ode(s)
    a2 = f - 2.0 * m * a_s - q * av
    if not third:
        return av, 2.0 * r * a_s, a2, None, 2.0 * a_s, None
    m_s, q_s, f_s = ode_s(s)
    a3 = 2.0 * r * (f_s - 2.0 * (m_s * a_s + m * a_ss) - q_s * av - q * a_s)
    return av, 2.0 * r * a_s, a2, a3, 2.0 * a_s, 4.0 * r * a_ss


def _rim_constant(equation, right, r_e: float, solutions) -> float:
    """The C of A = P + C H that meets the rim condition right at r_e
    (_rim_row), from the closed form's solutions at s = r_e**2 (see
    closed_form_profile)."""
    c_a, c_s, rhs = _rim_row(equation, right, r_e)
    (p0, p_s, _), (h0, h_s, _) = solutions(np.array([r_e * r_e]))
    return float((rhs - c_a * p0[0] - c_s * p_s[0])
                 / (c_a * h0[0] + c_s * h_s[0]))


def closed_form_profile(equation, right, r_e: float, solutions, *,
                        scale: float = 1.0,
                        meta: Optional[dict] = None) -> RadialSolution:
    """scale times the profile A of the equation (ode, ode_s), regular on
    the axis and meeting the rim condition right at r_e (both as
    solve_linear_bvp takes them), from its closed form A = P + C H.
    solutions(s) gives ((P, P_s, P_ss), (H, H_s, H_ss)) on the float
    array s = R**2, elementwise: a particular solution and the
    homogeneous solution regular on the axis.  C is fixed by the rim row
    (_rim_row).  terms reads the profile through its s-evaluator P + C H,
    as a solved profile's reads its panels (_ode_terms), then multiplies
    all six outputs by scale.

    meta holds method "closed form" and C (that of A, before scale),
    updated with the caller's meta; s_form is None: there are no panels."""
    c = _rim_constant(equation, right, r_e, solutions)

    def s_form(s):
        return tuple(p + c * h for p, h in zip(*solutions(s)))

    def terms(r, third):
        out = _ode_terms(equation, s_form, r, third)
        return tuple(None if v is None else scale * v for v in out)

    return RadialSolution(terms=terms, meta={"method": "closed form",
                                             "C": c, **(meta or {})})
