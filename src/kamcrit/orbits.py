"""Periodic invariant sets of the standard map.

An (m, n) orbit is a lifted angle sequence q_0 ... q_{n-1} solving the
periodic discrete Euler-Lagrange equations

    E_i = q_{i+1} - 2 q_i + q_{i-1} - K sin q_i = 0,    q_{i+n} = q_i + 2 pi m,

with phase points (q_i, q_i - q_{i-1}).  The Jacobian of E is tridiagonal
(diagonal -2 - K cos q_i, off-diagonals 1, cyclic corners), so one Newton
step costs O(n) (MacKay & Meiss 1983, Phys. Lett. A 98, 92).

Orbits sit on the reversor symmetry lines {q = 0} u {q = pi} and
{q = p/2} u {q = p/2 + pi}.  A branch is carried across stochasticity values
by natural-parameter continuation from the integrable K = 0 circle
p = 2 pi m/n, each step one Newton solve on the symmetric half of the orbit:
the mirror image of the unknowns fixes the other half and pins the point on
the line, which removes the near-null translation mode of the cyclic
Jacobian (its determinant is -4R, tiny for deep orders).  The residual is
evaluated on the unknowns alone and the n angles are built once, at
convergence.  Newton starts from the tangent predictor x + dK dx/dK, and a
guard refuses (and halves) any step whose corrector moves further than its
predictor did, so a large step cannot carry the branch onto a neighbouring
orbit; Newton gives such a step up at its first iterate beyond that reach
whose residual does not fall, not at its iteration cap.  This is the only
way an orbit is located: :func:`find_periodic_orbit` and
:class:`OrbitBranch` both start from that circle.  The threshold search of
:mod:`kamcrit.stability` walks the accepted steps one at a time
(:meth:`OrbitBranch.climb`) and solves its bracket with :func:`brentq`, a
Brent-Dekker solver defined here because numpy is the package's only
dependency.

Each family's line is fixed by a parity rule of m/n.  The rational family
takes q=0 for even n and q=pi otherwise, which carries the elliptic orbit.
The alternate family takes q=p/2 when m or n is even and q=p/2+pi
otherwise, which carries the hyperbolic partner.  The rule is pinned by
tests at every Fibonacci order up to 610.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import _kernels
from .errors import ContinuationError, DomainError, RefinementError
from .mapcore import (
    TWO_PI,
    PhasePoint,
    as_phase_point,
    check_stochasticity,
    wrap_angle,
    wrap_momentum,
)

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

LINE_Q0 = "q=0"
LINE_QPI = "q=pi"
LINE_DIAG = "q=p/2"
LINE_DIAG_PI = "q=p/2+pi"
LINE_NONE = "none"

RATIONAL_LINES = (LINE_Q0, LINE_QPI)
ALTERNATE_LINES = (LINE_DIAG, LINE_DIAG_PI)
ALL_LINES = RATIONAL_LINES + ALTERNATE_LINES

FAMILY_RATIONAL = "rational"
FAMILY_ALTERNATE = "alternate(1)"

_EPS = float(np.finfo(float).eps)
_BRENTQ_RTOL = 4.0 * _EPS
_DK_MAX = 0.25  # largest continuation step in K
_GUARD_RATIO = 1.0  # largest accepted corrector move over predictor move


def line_seed(line: str, p: float) -> Tuple[float, float]:
    """Lifted (q, p) point of the symmetry line at parameter p."""
    if line == LINE_Q0:
        return 0.0, p
    if line == LINE_QPI:
        return math.pi, p
    if line == LINE_DIAG:
        return 0.5 * p, p
    if line == LINE_DIAG_PI:
        return 0.5 * p + math.pi, p
    raise DomainError(f"unknown symmetry line {line!r}")


@dataclass(frozen=True)
class Convergent:
    """A winding fraction m/n in lowest terms; (0, 1) denotes the fixed points."""

    m: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"order must be >= 1, got {self.n}")
        if not (0 <= self.m < self.n or (self.m, self.n) == (0, 1)):
            raise DomainError(f"winding numerator out of range: {self.m}/{self.n}")
        if math.gcd(self.m, self.n) != 1:
            raise DomainError(f"m/n not in lowest terms: {self.m}/{self.n}")
        if self.m == 0 and self.n != 1:
            raise DomainError(f"zero winding only valid for fixed points, got {self.m}/{self.n}")

    @property
    def winding(self) -> float:
        return self.m / self.n

    def __str__(self) -> str:
        return f"{self.m}/{self.n}"


def fibonacci_convergents(depth: int) -> List[Convergent]:
    """Golden-mean continued-fraction truncations 1/2, 2/3, 3/5, 5/8, ...

    Entry i pairs consecutive Fibonacci numbers; depth 8 reaches 34/55 and
    depth 9 reaches 55/89.  Every entry satisfies |m/n - golden| <= 1/n^2.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    out = []
    m, n = 1, 2
    for _ in range(depth):
        out.append(Convergent(m, n))
        m, n = n, m + n
    return out


@dataclass(frozen=True)
class KamCurveTarget:
    """Target irrational winding number of a KAM curve (default golden mean)."""

    alpha: float = GOLDEN_MEAN

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"target winding must lie in (0, 1), got {self.alpha}")


@dataclass
class PeriodicOrbit:
    """An n-point periodic invariant set with winding m/n at stochasticity K.

    ``points`` holds the n consecutive lifted images, row 0 being the
    symmetry-line representative.  ``closure_error`` is the measured defect
    chain in max norm: every step defect T(x_i) - x_{i+1} plus the wrapping
    defect T(x_{n-1}) - x_0 - (2*pi*m, 0).  For points that are literal
    iterates of row 0 this is the lifted closure |T^n(x_0) - x_0 - (2*pi*m, 0)|;
    for orbits solved as angle sequences it stays at the rounding level of
    the lift even where the n-fold composition amplifies double-precision
    noise far past it.
    """

    points: np.ndarray
    convergent: Convergent
    K: float
    family: str
    line: str
    closure_error: float

    @property
    def m(self) -> int:
        return self.convergent.m

    @property
    def n(self) -> int:
        return self.convergent.n

    @property
    def winding(self) -> float:
        return self.convergent.winding

    def seed(self) -> PhasePoint:
        return PhasePoint(float(self.points[0, 0]), float(self.points[0, 1]))

    def torus_points(self) -> np.ndarray:
        out = np.empty_like(self.points)
        out[:, 0] = wrap_angle(self.points[:, 0])
        out[:, 1] = wrap_momentum(self.points[:, 1])
        return out

    def phase_points(self) -> List[PhasePoint]:
        return [PhasePoint(float(q), float(p)) for q, p in self.points]

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "K": self.K,
            "family": self.family,
            "line": self.line,
            "points": [[float(q), float(p)] for q, p in self.points],
            "closure_error": self.closure_error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())

    def to_csv_rows(self) -> List[str]:
        """CSV lines (one point per row), 17 significant digits."""
        rows = ["m,n,K,family,line,index,q,p,closure_error"]
        for i, (q, p) in enumerate(self.points):
            rows.append(
                f"{self.m},{self.n},{self.K:.17g},{self.family},{self.line},"
                f"{i},{q:.17g},{p:.17g},{self.closure_error:.17g}"
            )
        return rows


@dataclass
class OrbitFailure:
    """Per-convergent error marker used in partial family results."""

    convergent: Convergent
    message: str
    family: str = FAMILY_RATIONAL


# --------------------------------------------------------------------------
# closure helpers
# --------------------------------------------------------------------------

def closure_residual(q0: float, p0: float, m: int, n: int, k: float) -> Tuple[float, float]:
    """(q, p) components of T^n(x0) - x0 - (2*pi*m, 0) on the lift."""
    qn, pn = _kernels.final_state(q0, p0, k, n)
    return qn - q0 - TWO_PI * m, pn - p0


def _orbit_from_seed(q0: float, p0: float, c: Convergent, k: float, family: str, line: str) -> PeriodicOrbit:
    traj = _kernels.trajectory(q0, p0, k, c.n)
    rq = traj[-1, 0] - q0 - TWO_PI * c.m
    rp = traj[-1, 1] - p0
    return PeriodicOrbit(
        points=np.array(traj[:-1]),
        convergent=c,
        K=k,
        family=family,
        line=line,
        closure_error=max(abs(rq), abs(rp)),
    )


# --------------------------------------------------------------------------
# Euler-Lagrange Newton
# --------------------------------------------------------------------------

def _step_defect(points: np.ndarray, m: int, k: float) -> float:
    """Max-norm defect of T(x_i) - x_{i+1}, the last step wrapping to x_0 + (2*pi*m, 0)."""
    q, p = points[:, 0], points[:, 1]
    p1 = p + k * np.sin(q)
    nxt = np.empty(points.shape)
    nxt[:-1], nxt[-1] = points[1:], (q[0] + TWO_PI * m, p[0])
    return float(max(np.abs(nxt[:, 0] - (q + p1)).max(), np.abs(nxt[:, 1] - p1).max()))


def _el_residual(b: np.ndarray, x: np.ndarray, k: float) -> np.ndarray:
    """E_i = q_{i+1} - 2 q_i + q_{i-1} - K sin q_i on x = b[1:-1], between b[0] and b[-1]."""
    return b[2:] - 2.0 * x + b[:-2] - k * np.sin(x)


def _thomas(diag: List[float], rhs: List[float]) -> List[float]:
    """Solve a tridiagonal system with unit off-diagonals (Thomas algorithm,
    no pivoting: an exactly zero pivot raises ZeroDivisionError)."""
    n = len(diag)
    cp = [1.0 / diag[0]] + [0.0] * (n - 1)
    x = [rhs[0] * cp[0]] + [0.0] * (n - 1)
    for i in range(1, n):
        cp[i] = 1.0 / (diag[i] - cp[i - 1])
        x[i] = (rhs[i] - x[i - 1]) * cp[i]
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


def _cyclic_thomas(diag: List[float], rhs: List[float]) -> List[float]:
    """Solve the cyclic tridiagonal system with unit off-diagonals and corners:
    Thomas with the corners folded into the diagonal, plus a Sherman-Morrison
    correction.  For n <= 2 the neighbours coincide and the system is solved
    directly."""
    n = len(diag)
    if n == 1:
        return [rhs[0] / (diag[0] + 2.0)]
    if n == 2:
        det = diag[0] * diag[1] - 4.0
        return [(diag[1] * rhs[0] - 2.0 * rhs[1]) / det, (diag[0] * rhs[1] - 2.0 * rhs[0]) / det]
    gamma = -diag[0]
    folded = [diag[0] - gamma] + diag[1:-1] + [diag[-1] - 1.0 / gamma]
    y = _thomas(folded, rhs)
    z = _thomas(folded, [gamma] + [0.0] * (n - 2) + [1.0])
    f = (y[0] + y[-1] / gamma) / (1.0 + z[0] + z[-1] / gamma)
    return [yi - f * zi for yi, zi in zip(y, z)]


def _sup(v: np.ndarray) -> float:
    """Max norm, 0 for an empty vector."""
    return float(np.abs(v).max()) if v.size else 0.0


def _newton(x: np.ndarray, assemble, solve, tol: float, max_iter: int, what: str,
            reach: float = math.inf) -> np.ndarray:
    """Newton on the Euler-Lagrange residual of the unknowns ``x``; returns them converged.

    ``assemble(x)`` gives (residual on the unknowns, Jacobian diagonal, max|q|
    over all n angles of the orbit they define).  Converged means
    max|E| <= max(tol, 16*eps*max|q|): deep orders lift q to ~1e4, where one
    ulp of q already exceeds 1e-12.  Raises :class:`RefinementError` on a
    singular Jacobian, after ``max_iter`` iterations, and at the first
    iterate whose residual is not below the previous one while it lies
    further than ``reach`` from the start in max norm.  A continuation step
    passes its guard's reach, so a corrector leaving the branch is refused
    at once instead of at the iteration cap.
    """
    start, history = x, []
    for _ in range(max_iter):
        e, diag, qmax = assemble(x)
        err = _sup(e)
        history.append(err)
        if err <= max(tol, 16.0 * _EPS * qmax):
            return x
        if len(history) > 1 and err >= history[-2] and _sup(x - start) > reach:
            raise RefinementError(f"Euler-Lagrange Newton diverging for {what}", history=history)
        try:
            x = x - np.array(solve(diag.tolist(), e.tolist()))
        except ZeroDivisionError as exc:
            raise RefinementError(f"singular Euler-Lagrange Jacobian for {what}", history=history) from exc
    raise RefinementError(f"Euler-Lagrange Newton did not converge for {what}", history=history)


def _orbit_from_angles(q: np.ndarray, like: PeriodicOrbit, k: float) -> PeriodicOrbit:
    """Orbit with points (q_i, q_i - q_{i-1}) and its measured closure."""
    points = np.empty((len(q), 2))
    points[:, 0] = q
    points[0, 1] = q[0] - (q[-1] - TWO_PI * like.m)
    points[1:, 1] = q[1:] - q[:-1]
    return replace(like, points=points, K=k, closure_error=_step_defect(points, like.m, k))


def refine_multishoot(orbit: PeriodicOrbit, tol: float = 1e-12, max_iter: int = 40) -> PeriodicOrbit:
    """Newton on the full periodic Euler-Lagrange system in the angles alone.

    All n angles of ``orbit.points`` are unknowns and the momenta are rebuilt
    as q_i - q_{i-1}.  Each step solves the cyclic tridiagonal Jacobian in
    O(n) (Thomas plus Sherman-Morrison).  The defects are local, so the
    accuracy stays at machine precision however strongly the n-fold
    composition expands; but with no symmetry imposed the Jacobian nears
    singularity with the residue (det = -4R), so symmetric orbits are solved
    on their half instead.  An orbit already within ``tol`` comes back with
    its measured defect as ``closure_error``.
    """
    m, k = orbit.m, orbit.K
    err = _step_defect(orbit.points, m, k)
    if err <= tol:
        return replace(orbit, closure_error=err)

    def assemble(q):
        b = np.concatenate(([q[-1] - TWO_PI * m], q, [q[0] + TWO_PI * m]))
        return _el_residual(b, q, k), -2.0 - k * np.cos(q), float(np.abs(q).max())

    q0 = np.array(orbit.points[:, 0], dtype=float)
    q = _newton(q0, assemble, _cyclic_thomas, tol, max_iter, f"{orbit.convergent} at K={k:g}")
    return _orbit_from_angles(q, orbit, k)


def _half_layout(orbit: PeriodicOrbit) -> Tuple[float, int, int, bool, np.ndarray]:
    """(c, first, h, pinned, fold) of the symmetric half of ``orbit`` on its line.

    On q=c (c = 0 or pi), q_0 = c and q_{n-i} = 2c + 2*pi*m - q_i: the
    unknowns are q_1 ... q_{(n-1)//2}; an even n pins q_{n/2} = c + pi*m, an
    odd n mirrors the last unknown's right neighbour (diagonal -1).  On
    q=p/2+c, q_{n-1-i} = 2c + 2*pi*m - q_i: the unknowns are
    q_0 ... q_{n//2-1}, q_{-1} = 2c - q_0 mirrors into the first diagonal, an
    odd n pins q_{(n-1)/2} = c + pi*m, and an even n mirrors the last one.
    ``fold`` holds those mirror terms of the Jacobian diagonal.
    """
    line, n = orbit.line, orbit.n
    c = 0.0 if line in (LINE_Q0, LINE_DIAG) else math.pi
    on_q = line in RATIONAL_LINES
    first = 1 if on_q else 0
    h = (n - 1) // 2 if on_q else n // 2
    pinned = (n % 2 == 0) == on_q
    fold = np.zeros(h)
    if h and not on_q:
        fold[0] -= 1.0
    if h and not pinned:
        fold[-1] -= 1.0
    return c, first, h, pinned, fold


def _solve_symmetric(guess: PeriodicOrbit, k: float, tol: float = 1e-12, max_iter: int = 12,
                     x0: Optional[np.ndarray] = None, layout: Optional[tuple] = None,
                     reach: float = math.inf) -> PeriodicOrbit:
    """Newton on the symmetric half of ``guess``'s orbit at stochasticity ``k``,
    started from the unknowns ``x0`` (by default ``guess``'s own angles);
    ``layout`` is ``guess``'s :func:`_half_layout` when the caller has it,
    and ``reach`` is :func:`_newton`'s bound on a diverging iterate.
    The residual is taken on the h unknowns alone, between neighbours that
    are c, the pin c + pi*m or a mirror a - x (a = 2c + 2*pi*m); the n
    angles are built once, at convergence."""
    line, m = guess.line, guess.m
    c, first, h, pinned, fold = layout or _half_layout(guess)
    a, pin = 2.0 * c + TWO_PI * m, c + math.pi * m
    # max|q| of the angles the line fixes; max|a - x| is at min x or max x, as rounding is monotone
    qfix = max(abs(c) if first else 0.0, abs(pin) if pinned else 0.0)
    b = np.empty(h + 2)

    def assemble(x):
        b[0] = c if first else (a - x[0]) - TWO_PI * m
        b[1:-1] = x
        b[-1] = pin if pinned else a - x[-1]
        lo, hi = x.min(), x.max()
        qmax = max(qfix, abs(lo), abs(hi), abs(a - lo), abs(a - hi))
        return _el_residual(b, x, k), -2.0 - k * np.cos(x) + fold, qmax

    x = np.array(guess.points[first:first + h, 0], dtype=float) if x0 is None else x0
    if h:  # otherwise (n = 1, or n = 2 on q=0 or q=pi) the line fixes the orbit
        x = _newton(x, assemble, _thomas, tol, max_iter, f"{guess.convergent} on {line} at K={k:g}", reach)
    q = np.concatenate(([c] * first, x, [pin] * pinned, (a - x)[::-1]))
    return _orbit_from_angles(q, guess, k)


def _continuation_step(prev: PeriodicOrbit, k: float) -> Optional[PeriodicOrbit]:
    """``prev``'s orbit re-solved at ``k``, or None when the step is refused.

    On a symmetry line Newton starts from the tangent predictor
    x_pred = x + (k - K) t on the symmetric half, where J t = sin x is one
    Thomas pass with the Jacobian J at ``prev.K``.  The corrected x_new is
    kept only when |x_new - x_pred| <= _GUARD_RATIO |x_pred - x| in max
    norm: a corrector that moves further than the predictor has left the
    branch (Allgower & Georg, Numerical Continuation Methods).  Newton
    stops as soon as its residual fails to fall outside that reach.  A
    ``LINE_NONE`` orbit starts Newton on the full cyclic system from its own
    angles, unguarded.  A Newton failure is a refusal too.
    """
    try:
        if prev.line == LINE_NONE:
            return refine_multishoot(replace(prev, K=k), 1e-12, 12)
        _, first, h, _, fold = layout = _half_layout(prev)
        x = prev.points[first:first + h, 0]  # empty (h = 0) for n = 2 on q=0 or q=pi
        t = np.array(_thomas((-2.0 - prev.K * np.cos(x) + fold).tolist(), np.sin(x).tolist())) if h else x
        x_pred = x + (k - prev.K) * t
        reach = _GUARD_RATIO * _sup(x_pred - x)
        nxt = _solve_symmetric(prev, k, x0=x_pred, layout=layout, reach=reach)
    except (RefinementError, ZeroDivisionError):
        return None
    x_new = nxt.points[first:first + h, 0]
    return nxt if _sup(x_new - x_pred) <= reach else None


def refine_newton(orbit: PeriodicOrbit, tol: float = 1e-11, max_iter: int = 30) -> PeriodicOrbit:
    """Polish an orbit by Newton on the Euler-Lagrange equations.

    Returns the orbit unchanged when its closure already meets ``tol``.
    Orbits on a symmetry line are solved on their symmetric half, others
    (``LINE_NONE``) on the full cyclic system of :func:`refine_multishoot`.
    Raises :class:`RefinementError` on a singular Jacobian or when Newton
    does not converge within ``max_iter`` iterations.
    """
    if _step_defect(orbit.points, orbit.m, orbit.K) <= tol:
        return orbit
    if orbit.line == LINE_NONE:
        return refine_multishoot(orbit, tol, max_iter)
    return _solve_symmetric(orbit, orbit.K, tol, max_iter)


# --------------------------------------------------------------------------
# root finding
# --------------------------------------------------------------------------

def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _BRENTQ_RTOL,
           maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket [a, b] by Brent-Dekker.

    Each step is an inverse-quadratic (or secant) step when it stays well
    inside the bracket and a bisection otherwise; the search stops once the
    bracket is narrower than about ``xtol + rtol*|x|``.  Raises
    :class:`ValueError` when f(a) and f(b) have the same sign and
    :class:`RuntimeError` after ``maxiter`` steps.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre > 0.0) == (fcur > 0.0):
        raise ValueError(f"f(a) and f(b) must have different signs on [{a!r}, {b!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre > 0.0) != (fcur > 0.0):  # the root is between xpre and xcur
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the smaller residual in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic through the three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise RuntimeError(f"brentq did not converge in {maxiter} steps")


# --------------------------------------------------------------------------
# orbits from the K = 0 circle
# --------------------------------------------------------------------------

def _check_family(family: str) -> str:
    if family not in (FAMILY_RATIONAL, FAMILY_ALTERNATE):
        raise DomainError(f"unknown family {family!r}")
    return family


def find_periodic_orbit(c: Convergent, k: float, line: str, family: Optional[str] = None) -> PeriodicOrbit:
    """The (m, n) orbit of ``family`` whose representative sits on ``line``.

    The seed is the closed-form K = 0 orbit, the circle p = 2*pi*m/n through
    the line's point (for n = 1 the fixed point (0, 0) or (pi, 0)), and
    :func:`continue_in_K` carries it up to ``k``.  The result therefore
    equals ``OrbitBranch(c, family, line).orbit_at(k)`` bit for bit.  Raises
    :class:`DomainError` for an unknown line or family and
    :class:`ContinuationError` when the continuation stalls.
    """
    family = _check_family(family or FAMILY_RATIONAL)
    p0 = TWO_PI * c.m / c.n
    q0, _ = line_seed(line, p0)
    return continue_in_K(_orbit_from_seed(q0, p0, c, 0.0, family, line), k)


# --------------------------------------------------------------------------
# continuation
# --------------------------------------------------------------------------

def _steps(orbit: PeriodicOrbit, k_target: float):
    """The accepted steps of :func:`continue_in_K` from ``orbit`` to ``k_target``, in order."""
    current = orbit
    dk = min(_DK_MAX, abs(k_target - orbit.K))
    while current.K != k_target:
        direction = 1.0 if k_target > current.K else -1.0
        k_next = current.K + direction * dk
        if (direction > 0 and k_next > k_target) or (direction < 0 and k_next < k_target):
            k_next = k_target
        nxt = _continuation_step(current, k_next)
        if nxt is None:
            dk *= 0.5
            if dk < 1e-6:
                raise ContinuationError(
                    f"continuation of {orbit.convergent} ({orbit.family}) stalled at K={current.K:g} "
                    f"targeting {k_target:g} (orbit collision/bifurcation or precision exhaustion)",
                    last_good_k=current.K,
                )
            continue
        current = nxt
        dk = min(dk * 1.6, _DK_MAX)
        yield current


def continue_in_K(orbit: PeriodicOrbit, k_target: float) -> PeriodicOrbit:
    """Natural-parameter continuation of an orbit to ``k_target``.

    Each step is one Newton solve of the Euler-Lagrange equations at the
    next K.  On the four symmetry lines it runs on the orbit's symmetric
    half and starts from the tangent predictor x + dK t (J t = sin x at the
    current K); the step is refused when the corrector lands further from
    the predictor than the predictor is from x, which is how a switch to a
    neighbouring orbit shows, and at the first Newton iterate beyond that
    reach whose residual does not fall (:func:`_continuation_step`).
    ``LINE_NONE`` orbits take an unguarded step on the full cyclic system
    from the current angles.  The step adapts: it grows by 1.6 after each
    accepted step up to ``_DK_MAX``, halves whenever Newton fails or the
    guard refuses, and stops with :class:`ContinuationError` (reporting the
    last good K) at the floor 1e-6, which signals an orbit collision or
    bifurcation.  :meth:`OrbitBranch.climb` yields the same steps one at a
    time.  The fixed points (n = 1) and the 1/2 orbit (c, c + pi) on q=c do
    not move with K and are returned in closed form.  Family and line tags
    are preserved.
    """
    k_target = check_stochasticity(k_target)
    if k_target == orbit.K:
        return orbit
    if orbit.n == 1 or (orbit.n == 2 and orbit.line in RATIONAL_LINES):
        return _solve_symmetric(orbit, k_target)  # no unknowns: the line fixes every angle
    current = orbit
    for current in _steps(orbit, k_target):
        pass
    return current


# --------------------------------------------------------------------------
# family branches (rational / alternate) with caching
# --------------------------------------------------------------------------

def _rule_line(c: Convergent, family: str) -> str:
    """Symmetry line that carries ``family``'s orbit of winding m/n."""
    if family == FAMILY_RATIONAL:
        return LINE_Q0 if c.n % 2 == 0 else LINE_QPI
    return LINE_DIAG if c.m % 2 == 0 or c.n % 2 == 0 else LINE_DIAG_PI


class OrbitBranch:
    """Continuation cache for one (convergent, family) orbit branch.

    The symmetry line follows a parity rule unless ``line`` overrides it.
    The rational family takes q=0 for even n and q=pi otherwise (n = 1
    included), which is where its elliptic orbit sits.  The alternate
    family takes q=p/2 when m or n is even and q=p/2+pi otherwise, which
    carries the hyperbolic partner of that elliptic orbit.  Orbits at
    arbitrary K are served by guarded predictor-corrector continuation
    (:func:`continue_in_K`) upward from the nearest cached stochasticity at
    or below K, starting from the K = 0 circle.  Past K*(n) several orbits
    can sit close together on the line; the guard keeps a climb on the one
    reached by small steps, whichever cached K it starts from.
    """

    def __init__(self, convergent: Convergent, family: str = FAMILY_RATIONAL,
                 line: Optional[str] = None):
        self.convergent = convergent
        self.family = _check_family(family)
        self.line = line if line is not None else _rule_line(convergent, family)
        self._cache: Dict[float, PeriodicOrbit] = {}

    def orbit_at(self, k: float) -> PeriodicOrbit:
        """Orbit of this branch at stochasticity ``k`` (cached continuation)."""
        k = check_stochasticity(k)
        if not self._cache:
            self._cache[0.0] = find_periodic_orbit(self.convergent, 0.0, self.line, family=self.family)
        if k not in self._cache:
            # only upward: from an orbit past its threshold, downward can switch branch
            below = max(kk for kk in self._cache if kk <= k)
            self._cache[k] = continue_in_K(self._cache[below], k)
        return self._cache[k]

    def climb(self, k_max: float):
        """The accepted steps of :func:`continue_in_K` from this branch's
        K = 0 circle up to ``k_max``, in order, each cached for
        :meth:`orbit_at`; the closed-form orbits step too.  A caller stops
        the climb by leaving the loop.  Meant for a fresh branch: a step
        replaces whatever the cache held at its K.
        """
        k_max = check_stochasticity(k_max)
        for orbit in _steps(self.orbit_at(0.0), k_max):
            self._cache[orbit.K] = orbit
            yield orbit


def rational_orbit(c: Convergent, k: float) -> PeriodicOrbit:
    """The elliptic-family orbit of winding m/n at stochasticity K."""
    return OrbitBranch(c, FAMILY_RATIONAL).orbit_at(k)


def alternate_orbit(c: Convergent, k: float) -> PeriodicOrbit:
    """The second-family orbit of winding m/n at stochasticity K."""
    return OrbitBranch(c, FAMILY_ALTERNATE).orbit_at(k)


def _iterates(k: float, depth: int, family: str) -> List[Union[PeriodicOrbit, OrbitFailure]]:
    k = check_stochasticity(k)
    out: List[Union[PeriodicOrbit, OrbitFailure]] = []
    for c in fibonacci_convergents(depth):
        try:
            out.append(OrbitBranch(c, family).orbit_at(k))
        except (RefinementError, ContinuationError) as err:
            out.append(OrbitFailure(c, str(err), family))
    return out


def rational_iterates(k: float, depth: int) -> List[Union[PeriodicOrbit, OrbitFailure]]:
    """Rational-family orbits for the Fibonacci convergents up to ``depth``.

    Failures are returned in place as :class:`OrbitFailure` markers so that
    partial sweeps stay usable.
    """
    return _iterates(k, depth, FAMILY_RATIONAL)


def alternate_iterates(k: float, depth: int) -> List[Union[PeriodicOrbit, OrbitFailure]]:
    """Alternate-family orbits (second symmetry-line family)."""
    return _iterates(k, depth, FAMILY_ALTERNATE)


# --------------------------------------------------------------------------
# winding numbers
# --------------------------------------------------------------------------

def winding_number(x0, k: float, iters: Optional[int] = None) -> float:
    """Rotation number (q_iters - q_0) / (2*pi*iters) on the lift.

    With ``iters=None`` the budget is 1e5 iterations in blocks of 1e4 with
    early exit once two successive block estimates agree to 1e-10.
    """
    pt = as_phase_point(x0)
    k = check_stochasticity(k)
    if iters is not None:
        iters = int(iters)
        if iters < 1:
            raise DomainError("iters must be >= 1")
    total = iters if iters is not None else 100_000
    # the lift is carried as whole turns plus an angle reduced every 1000
    # steps, so a step rounds at ulp(q) of a few thousand, not of the lift
    turns, q, p = 0, pt.q, pt.p
    done = 0
    prev = None
    while done < total:
        chunk = min(1000, total - done)
        q, p = _kernels.final_state(q, p, k, chunk)
        whole = math.floor(q / TWO_PI)
        turns += whole
        q -= whole * TWO_PI
        done += chunk
        est = (turns + (q - pt.q) / TWO_PI) / done
        if iters is None and done % 10_000 == 0:
            if prev is not None and abs(est - prev) < 1e-10:
                return est
            prev = est
    return est
