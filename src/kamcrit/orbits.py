"""Periodic invariant sets of the standard map.

An (m, n) orbit is a lifted angle sequence q_0 ... q_{n-1} solving the
periodic discrete Euler-Lagrange equations

    E_i = q_{i+1} - 2 q_i + q_{i-1} - K sin q_i = 0,    q_{i+n} = q_i + 2 pi m,

with phase points (q_i, q_i - q_{i-1}).  The Jacobian of E is tridiagonal
(diagonal -2 - K cos q_i, off-diagonals 1, cyclic corners), so one Newton
step costs O(n) (MacKay & Meiss 1983, Phys. Lett. A 98, 92).

The solver never touches the lift.  It carries the deviations
u_i = q_i - 2 pi m i/n from the K = 0 circle, which are periodic
(u_{i+n} = u_i) and O(1) at every order, and it evaluates sin and cos at the
reduced angles u_i + 2 pi ((m i) mod n)/n, with the mod taken in integers.
So E, the Jacobian, the step defect and the monodromy all round at ulp(pi)
whatever n is, and one absolute tolerance serves every order.  The lifted
points are built from the deviations for output only.

Orbits sit on the reversor symmetry lines {q = 0} u {q = pi} and
{q = p/2} u {q = p/2 + pi}.  A branch is carried across stochasticity values
by natural-parameter continuation from the integrable K = 0 circle
p = 2 pi m/n, each step one Newton solve on the symmetric half of the orbit:
the mirror image of the unknowns fixes the other half and pins the point on
the line, which removes the near-null translation mode of the cyclic
Jacobian (its determinant is -4R, tiny for deep orders).  The residual is
evaluated on the unknowns alone and the n deviations are built once, at
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

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _kernels
from .errors import ContinuationError, DomainError, RefinementError
from .mapcore import (
    TWO_PI,
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

RATIONAL_LINES = (LINE_Q0, LINE_QPI)
ALTERNATE_LINES = (LINE_DIAG, LINE_DIAG_PI)
ALL_LINES = RATIONAL_LINES + ALTERNATE_LINES

FAMILY_RATIONAL = "rational"
FAMILY_ALTERNATE = "alternate(1)"

_EPS = float(np.finfo(float).eps)
_BRENTQ_RTOL = 4.0 * _EPS
_DK_MAX = 0.25  # largest continuation step in K
_GUARD_RATIO = 1.0  # largest accepted corrector move over predictor move
_LINE_OFFSET = {LINE_Q0: 0.0, LINE_QPI: math.pi, LINE_DIAG: 0.0, LINE_DIAG_PI: math.pi}  # c of q=c, q=p/2+c


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


@dataclass
class PeriodicOrbit:
    """An n-point periodic invariant set with winding m/n at stochasticity K.

    The orbit is held in the frame of the K = 0 circle: row i of
    ``deviations`` is (u_i, v_i) = (q_i - 2*pi*m*i/n, p_i - 2*pi*m/n), and
    row n would be row 0 again.  :attr:`angles` are the reduced angles
    u_i + 2*pi*((m*i) mod n)/n that sin and cos are taken at.  ``points``
    are the n consecutive lifted images (q_i, p_i), row 0 being the
    symmetry-line representative; they are built from the deviations on
    first use, for output.  ``closure_error`` is the measured defect chain
    in max norm: every step defect T(x_i) - x_{i+1}, where x_n is x_0 plus
    (2*pi*m, 0).  It is taken in the frame, so it stays at the rounding
    level of O(1) numbers at any n, even where the n-fold composition
    amplifies double-precision noise far past it.
    """

    deviations: np.ndarray
    convergent: Convergent
    K: float
    family: str
    line: str
    closure_error: float
    _tangent = None  # dx/dK on the symmetric half, set by the first continuation step from here

    @functools.cached_property
    def points(self) -> np.ndarray:
        return self.deviations + _circle(self.m, self.n)

    @property
    def angles(self) -> np.ndarray:
        return self.deviations[:, 0] + _phase(self.m, self.n)

    @property
    def m(self) -> int:
        return self.convergent.m

    @property
    def n(self) -> int:
        return self.convergent.n

    @property
    def winding(self) -> float:
        return self.convergent.winding

    def torus_points(self) -> np.ndarray:
        out = np.empty_like(self.points)
        out[:, 0] = wrap_angle(self.points[:, 0])
        out[:, 1] = wrap_momentum(self.points[:, 1])
        return out

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

    def to_csv_rows(self) -> List[str]:
        """CSV lines (one point per row), 17 significant digits."""
        rows = ["m,n,K,family,line,index,q,p,closure_error"]
        for i, (q, p) in enumerate(self.points):
            rows.append(
                f"{self.m},{self.n},{self.K:.17g},{self.family},{self.line},"
                f"{i},{q:.17g},{p:.17g},{self.closure_error:.17g}"
            )
        return rows


# --------------------------------------------------------------------------
# the frame of the K = 0 circle
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _phase(m: int, n: int) -> np.ndarray:
    """2*pi*((m*i) mod n)/n for i < n: the circle's angles reduced by whole
    turns, the mod taken in integers (read-only, shared by every orbit of m/n)."""
    phase = TWO_PI * (np.arange(n, dtype=np.int64) * m % n) / n
    phase.flags.writeable = False
    return phase


@functools.lru_cache(maxsize=16)
def _circle(m: int, n: int) -> np.ndarray:
    """Rows (2*pi*m*i/n, 2*pi*m/n), i < n: the lifted K = 0 circle (read-only)."""
    circle = np.column_stack((TWO_PI * m * np.arange(n) / n, np.full(n, TWO_PI * m / n)))
    circle.flags.writeable = False
    return circle


def closure_residual(q0: float, p0: float, m: int, n: int, k: float) -> Tuple[float, float]:
    """(q, p) components of T^n(x0) - x0 - (2*pi*m, 0) on the lift."""
    qn, pn = _kernels.final_state(q0, p0, k, n)
    return qn - q0 - TWO_PI * m, pn - p0


# --------------------------------------------------------------------------
# Euler-Lagrange Newton
# --------------------------------------------------------------------------

def _step_defect(d: np.ndarray, phase: np.ndarray, k: float) -> float:
    """Max-norm defect of T(x_i) - x_{i+1} in the frame, x_n = x_0.

    Rows of ``d`` are (u_i, v_i); one map step takes them to
    (u_i + v_i', v_i') with v_i' = v_i + K sin(u_i + phase_i)."""
    u, v = d[:, 0], d[:, 1]
    v1 = v + k * np.sin(u + phase)
    nxt = np.concatenate((d[1:], d[:1]))
    return float(max(np.maximum.reduce(np.abs(nxt[:, 0] - (u + v1))),
                     np.maximum.reduce(np.abs(nxt[:, 1] - v1))))


def _el_residual(b: np.ndarray, x: np.ndarray, k: float, phase: np.ndarray) -> np.ndarray:
    """E_i = u_{i+1} - 2 u_i + u_{i-1} - K sin(u_i + phase_i) on x = b[1:-1], between b[0] and b[-1]."""
    return b[2:] - 2.0 * x + b[:-2] - k * np.sin(x + phase)


def _thomas(diag: List[float], rhs: List[float]) -> List[float]:
    """Solve a tridiagonal system with unit off-diagonals (Thomas algorithm,
    no pivoting: an exactly zero pivot raises ZeroDivisionError).  The
    forward sweep starts from pivot 0, so row 0 is 1/(d_0 - 0) = 1/d_0."""
    cp, x = [], []
    c = y = 0.0
    for d, r in zip(diag, rhs):
        c = 1.0 / (d - c)
        y = (r - y) * c
        cp.append(c)
        x.append(y)
    for i in range(len(x) - 2, -1, -1):
        y = x[i] = x[i] - cp[i] * y
    return x


def _sup(v: np.ndarray) -> float:
    """Max norm, 0 for an empty vector."""
    return float(np.maximum.reduce(np.abs(v))) if v.size else 0.0


def _jacobian_diagonal(x: np.ndarray, phase: np.ndarray, k: float, fold) -> np.ndarray:
    """Diagonal -2 - K cos(x + phase) (+ the mirror terms ``fold``) of the Euler-Lagrange Jacobian."""
    return -2.0 - k * np.cos(x + phase) + fold


def _orbit(u: np.ndarray, c: Convergent, k: float, family: str, line: str) -> PeriodicOrbit:
    """Orbit of the deviations u_i, with v_i = u_i - u_{i-1} and its measured closure."""
    d = np.empty((len(u), 2))
    d[:, 0] = u
    d[0, 1] = u[0] - u[-1]
    d[1:, 1] = u[1:] - u[:-1]
    return PeriodicOrbit(d, c, k, family, line, _step_defect(d, _phase(c.m, c.n), k))


@functools.lru_cache(maxsize=16)
def _half_layout(line: str, m: int, n: int) -> Tuple[float, int, int, bool, np.ndarray, np.ndarray]:
    """(a, first, h, pinned, fold, phase) of the symmetric half of an (m, n) orbit on ``line``.

    In the frame the reversor mirrors u_{n-i} = a - u_i on q=c (c = 0 or
    pi, a = 2c) and u_{n-1-i} = a - u_i on q=p/2+c (a = 2c + 2*pi*m/n), and
    the points it fixes have u = a/2.  On q=c the unknowns are
    u_1 ... u_{(n-1)//2} next to u_0 = a/2; an even n pins u_{n/2} = a/2, an
    odd n mirrors the last unknown's right neighbour (diagonal -1).  On
    q=p/2+c the unknowns are u_0 ... u_{n//2-1}, u_{-1} = a - u_0 mirrors
    into the first diagonal, an odd n pins u_{(n-1)/2} = a/2, and an even n
    mirrors the last one.  ``fold`` holds those mirror terms of the Jacobian
    diagonal and ``phase`` the unknowns' reduced circle angles (both
    read-only, shared by every orbit of m/n on ``line``).
    """
    if line not in _LINE_OFFSET:
        raise DomainError(f"unknown symmetry line {line!r}")
    c, on_q = _LINE_OFFSET[line], line in RATIONAL_LINES
    a = 2.0 * c if on_q else 2.0 * c + TWO_PI * m / n
    first = 1 if on_q else 0
    h = (n - 1) // 2 if on_q else n // 2
    pinned = (n % 2 == 0) == on_q
    fold = np.zeros(h)
    if h and not on_q:
        fold[0] -= 1.0
    if h and not pinned:
        fold[-1] -= 1.0
    fold.flags.writeable = False
    return a, first, h, pinned, fold, _phase(m, n)[first:first + h]


def _solve_symmetric(guess: PeriodicOrbit, k: float, tol: float = 1e-12, max_iter: int = 12,
                     x0: Optional[np.ndarray] = None, reach: float = math.inf) -> PeriodicOrbit:
    """Newton on the symmetric half of ``guess``'s orbit at stochasticity ``k``,
    started from the unknowns ``x0`` (by default ``guess``'s own deviations).

    The residual is taken on the h unknowns alone, between neighbours that
    are the line's a/2 or a mirror a - x, and each step is one Thomas pass
    on the tridiagonal Jacobian; the n deviations are built once, at
    convergence.  Converged means max|E| <= ``tol``: the unknowns are O(1)
    at every order, so one absolute tolerance serves them all.  Raises
    :class:`RefinementError` on a singular Jacobian, after ``max_iter``
    iterations, and at the first iterate whose residual is not below the
    previous one while it lies further than ``reach`` from the start in max
    norm.  A continuation step passes its guard's reach, so a corrector
    leaving the branch is refused at once instead of at the iteration cap.
    An orbit on no symmetry line raises :class:`DomainError`.
    """
    a, first, h, pinned, fold, phase = _half_layout(guess.line, guess.m, guess.n)
    x = np.array(guess.deviations[first:first + h, 0]) if x0 is None else x0
    if h:  # otherwise (n = 1, or n = 2 on q=0 or q=pi) the line fixes the orbit
        start, history, b = x, [], np.empty(h + 2)
        what = lambda: f"{guess.convergent} on {guess.line} at K={k:g}"
        for _ in range(max_iter):
            b[0] = 0.5 * a if first else a - x[0]
            b[1:-1] = x
            b[-1] = 0.5 * a if pinned else a - x[-1]
            e = _el_residual(b, x, k, phase)
            err = _sup(e)
            history.append(err)
            if err <= tol:
                break
            if len(history) > 1 and err >= history[-2] and _sup(x - start) > reach:
                raise RefinementError(f"Euler-Lagrange Newton diverging for {what()}", history=history)
            try:
                x = x - np.array(_thomas(_jacobian_diagonal(x, phase, k, fold).tolist(), e.tolist()))
            except ZeroDivisionError as exc:
                raise RefinementError(f"singular Euler-Lagrange Jacobian for {what()}", history=history) from exc
        else:
            raise RefinementError(f"Euler-Lagrange Newton did not converge for {what()}", history=history)
    u = np.concatenate(([0.5 * a] * first, x, [0.5 * a] * pinned, (a - x)[::-1]))
    return _orbit(u, guess.convergent, k, guess.family, guess.line)


def _continuation_step(prev: PeriodicOrbit, k: float) -> Optional[PeriodicOrbit]:
    """``prev``'s orbit re-solved at ``k``, or None when the step is refused.

    On a symmetry line Newton starts from the tangent predictor
    x_pred = x + (k - K) t on the symmetric half, where J t = sin x is one
    Thomas pass with the Jacobian J at ``prev.K``; t depends on ``prev``
    alone, so it is solved once per orbit and kept on it for a retried step
    or a second probe from the same orbit.  The corrected x_new is
    kept only when |x_new - x_pred| <= _GUARD_RATIO |x_pred - x| in max
    norm: a corrector that moves further than the predictor has left the
    branch (Allgower & Georg, Numerical Continuation Methods).  Newton
    stops as soon as its residual fails to fall outside that reach.  A
    Newton failure is a refusal too; an orbit on no symmetry line raises
    :class:`DomainError`.
    """
    try:
        _, first, h, _, fold, phase = _half_layout(prev.line, prev.m, prev.n)
        x = prev.deviations[first:first + h, 0]  # empty (h = 0) for n = 2 on q=0 or q=pi
        t = prev._tangent
        if t is None:
            t = prev._tangent = np.array(_thomas(_jacobian_diagonal(x, phase, prev.K, fold).tolist(),
                                                 np.sin(x + phase).tolist())) if h else x
        x_pred = x + (k - prev.K) * t
        reach = _GUARD_RATIO * _sup(x_pred - x)
        nxt = _solve_symmetric(prev, k, x0=x_pred, reach=reach)
    except (RefinementError, ZeroDivisionError):
        return None
    x_new = nxt.deviations[first:first + h, 0]
    return nxt if _sup(x_new - x_pred) <= reach else None


def refine_newton(orbit: PeriodicOrbit, tol: float = 1e-11, max_iter: int = 30) -> PeriodicOrbit:
    """Polish an orbit on its symmetry line by Newton on its symmetric half.

    Returns the orbit unchanged when its closure already meets ``tol``;
    otherwise :func:`_solve_symmetric` solves it to ``tol`` with no reach
    bound, so only a singular Jacobian or ``max_iter`` iterations without
    convergence raise :class:`RefinementError`.  An orbit on no symmetry
    line raises :class:`DomainError`.
    """
    if _step_defect(orbit.deviations, _phase(orbit.m, orbit.n), orbit.K) <= tol:
        return orbit
    return _solve_symmetric(orbit, orbit.K, tol, max_iter)


def refine_multishoot(orbit: PeriodicOrbit, **kw) -> PeriodicOrbit:
    """Old name of :func:`refine_newton`; the benchmark's tracer still lists it."""
    return refine_newton(orbit, **kw)


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


def find_periodic_orbit(c: Convergent, k: float, line: str, family: str = FAMILY_RATIONAL) -> PeriodicOrbit:
    """The (m, n) orbit of ``family`` whose representative sits on ``line``.

    The seed is the closed-form K = 0 orbit, the circle p = 2*pi*m/n through
    the line's point, which is u_i = a/2 in the frame of :func:`_half_layout`
    (for n = 1 the fixed point (0, 0) or (pi, 0)), and
    :func:`continue_in_K` carries it up to ``k``.  The result therefore
    equals ``OrbitBranch(c, family, line).orbit_at(k)`` bit for bit.  Raises
    :class:`DomainError` for an unknown line or family and
    :class:`ContinuationError` when the continuation stalls.
    """
    family = _check_family(family)
    a = _half_layout(line, c.m, c.n)[0]
    return continue_in_K(_orbit(np.full(c.n, 0.5 * a), c, 0.0, family, line), k)


# --------------------------------------------------------------------------
# continuation
# --------------------------------------------------------------------------

def _steps(orbit: PeriodicOrbit, k_target: float):
    """The accepted steps of :func:`continue_in_K` from ``orbit`` up to
    ``k_target >= orbit.K``, in order; continuation only climbs in K."""
    current = orbit
    dk = min(_DK_MAX, k_target - orbit.K)
    while current.K != k_target:
        k_next = min(current.K + dk, k_target)
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
    """Natural-parameter continuation of an orbit up to ``k_target``.

    Continuation runs upward only: a ``k_target`` below ``orbit.K`` raises
    :class:`DomainError`, since past K*(n) a step down can land on another
    orbit of the line (:class:`OrbitBranch` climbs from K = 0).  Each step
    is one Newton solve of the Euler-Lagrange equations at the next K.  On
    the four symmetry lines it runs on the orbit's symmetric half and starts
    from the tangent predictor x + dK t (J t = sin x at the current K); the
    step is refused when the corrector lands further from the predictor than
    the predictor is from x, which is how a switch to a neighbouring orbit
    shows, and at the first Newton iterate beyond that reach whose residual
    does not fall (:func:`_continuation_step`).  An orbit on no symmetry
    line raises :class:`DomainError`.  The step adapts: it grows by 1.6
    after each accepted step up to ``_DK_MAX``, halves whenever Newton fails
    or the guard refuses, and stops with :class:`ContinuationError`
    (reporting the last good K) at the floor 1e-6, which signals an orbit
    collision or bifurcation.  :meth:`OrbitBranch.climb` yields the same
    steps one at a time.  The fixed points (n = 1) and the 1/2 orbit
    (c, c + pi) on q=c do not move with K and are returned in closed form.
    The 1/2 orbit on q=p/2+c has one unknown x = u_0 = q_0, the root of
    f(x) = 2a - 4x - K sin x with a = 2c + pi; it starts at x0 = a/2 at K = 0
    and stays between x0 and x0 - (pi/2) sin x0, where f' = -4 - K cos x < 0,
    so it is solved there by :func:`brentq` at any K, and the orbit has the
    deviations (x, a - x) at that root, with no Newton polish: the second
    reduced angle nears 2 pi, where the Euler-Lagrange residual cannot fall
    below K ulp(2 pi), which exceeds Newton's tolerance above K of about
    1100.  Family and line tags are preserved.
    """
    k_target = check_stochasticity(k_target)
    if k_target < orbit.K:
        raise DomainError(f"continuation runs upward only: target K={k_target:g} "
                          f"is below the orbit's K={orbit.K:g}")
    if k_target == orbit.K:
        return orbit
    if orbit.n == 1 or (orbit.n == 2 and orbit.line in RATIONAL_LINES):
        return _solve_symmetric(orbit, k_target)  # no unknowns: the line fixes every angle
    if orbit.n == 2 and orbit.line in ALTERNATE_LINES:
        a = _half_layout(orbit.line, orbit.m, orbit.n)[0]
        x0 = 0.5 * a
        root = brentq(lambda x: 2.0 * a - 4.0 * x - k_target * math.sin(x),
                      x0, x0 - 0.5 * math.pi * math.sin(x0), xtol=0.0)
        return _orbit(np.array([root, a - root]), orbit.convergent, k_target, orbit.family, orbit.line)
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


# --------------------------------------------------------------------------
# winding numbers
# --------------------------------------------------------------------------

def winding_number(x0, k: float, iters: int) -> float:
    """Rotation number (q_iters - q_0) / (2*pi*iters) on the lift."""
    pt = as_phase_point(x0)
    k = check_stochasticity(k)
    iters = int(iters)
    if iters < 1:
        raise DomainError("iters must be >= 1")
    # the lift is carried as whole turns plus an angle reduced every 1000
    # steps, so a step rounds at ulp(q) of a few thousand, not of the lift
    turns, q, p = 0, pt.q, pt.p
    for done in range(0, iters, 1000):
        q, p = _kernels.final_state(q, p, k, min(1000, iters - done))
        whole = math.floor(q / TWO_PI)
        turns += whole
        q -= whole * TWO_PI
    return (turns + (q - pt.q) / TWO_PI) / iters
