"""Periodic invariant sets of the standard map.

Orbits are located on the reversor symmetry lines: the map factors into two
involutions whose fixed sets are {q = 0} u {q = pi} (first family) and
{q = p/2} u {q = p/2 + pi} (second family).  A periodic point on a line is
found by a 1D root search in the line parameter on the lifted closure
residual q_n - q_0 - 2*pi*m, polished by a 2D Newton on the full closure
map, and carried across stochasticity values by natural-parameter
continuation seeded from the integrable K = 0 circles p = 2*pi*m/n.

Each family's line is fixed by a parity rule of m/n.  The rational family
takes q=0 for even n and q=pi otherwise, which carries the elliptic orbit.
The alternate family takes q=p/2 when m or n is even and q=p/2+pi
otherwise, which carries the hyperbolic partner.  The rule is pinned by
tests at every Fibonacci order up to 610.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy.optimize import brentq

from . import _kernels
from .errors import (
    ContinuationError,
    DomainError,
    OrbitNotFoundError,
    RefinementError,
    UnsupportedParameterError,
)
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

_BRENTQ_RTOL = 4.0 * np.finfo(float).eps
_SCAN_SAMPLES = 2048


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
    symmetry-line representative.  ``closure_error`` bounds the orbit's
    defect chain in max norm: every step defect T(x_i) - x_{i+1} plus the
    wrapping defect T(x_{n-1}) - x_0 - (2*pi*m, 0).  For orbits whose points
    are literal iterates of the seed (the usual case) this equals the lifted
    closure |T^n(x_0) - x_0 - (2*pi*m, 0)| exactly; strongly unstable orbits
    polished by multiple shooting satisfy the same per-step bound even where
    the n-fold composition amplifies double-precision noise past it.
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


def _line_residual(line: str, p: float, m: int, n: int, k: float) -> float:
    q0, p0 = line_seed(line, p)
    qn, _ = _kernels.final_state(q0, p0, k, n)
    return qn - q0 - TWO_PI * m


def _line_residual_batch(line: str, ps: np.ndarray, m: int, n: int, k: float) -> np.ndarray:
    if line == LINE_Q0:
        qs = np.zeros_like(ps)
    elif line == LINE_QPI:
        qs = np.full_like(ps, math.pi)
    elif line == LINE_DIAG:
        qs = 0.5 * ps
    elif line == LINE_DIAG_PI:
        qs = 0.5 * ps + math.pi
    else:
        raise DomainError(f"unknown symmetry line {line!r}")
    qn, _ = _kernels.batch_final_state(qs, np.array(ps, dtype=float), k, n)
    return qn - qs - TWO_PI * m


# --------------------------------------------------------------------------
# Newton polish
# --------------------------------------------------------------------------

def refine_newton(orbit: PeriodicOrbit, tol: float = 1e-11, max_iter: int = 30) -> PeriodicOrbit:
    """2D Newton on the lifted closure map, using the monodromy Jacobian.

    Returns the orbit unchanged when its closure already meets ``tol``
    (zero Newton steps).  Raises :class:`RefinementError` on a singular
    Jacobian (near-parabolic orbit) or when damping cannot reduce the
    residual within ``max_iter`` iterations.
    """
    m, n, k = orbit.m, orbit.n, orbit.K
    q0, p0 = float(orbit.points[0, 0]), float(orbit.points[0, 1])
    rq, rp = closure_residual(q0, p0, m, n, k)
    norm = max(abs(rq), abs(rp))
    if norm <= tol:
        return orbit

    history = [((q0, p0), norm)]
    for _ in range(max_iter):
        traj = _kernels.trajectory(q0, p0, k, n)
        m11, m12, m21, m22, _ = _kernels.monodromy_product(np.ascontiguousarray(traj[:-1, 0]), k)
        j11, j12, j21, j22 = m11 - 1.0, m12, m21, m22 - 1.0
        det = j11 * j22 - j12 * j21
        scale = max(abs(j11), abs(j12), abs(j21), abs(j22), 1.0)
        if abs(det) < 1e-14 * scale * scale:
            raise RefinementError(
                f"singular closure Jacobian for {orbit.convergent} at K={k:g} (near-parabolic orbit)",
                history=history,
            )
        dq = (-j22 * rq + j12 * rp) / det
        dp = (j21 * rq - j11 * rp) / det
        lam = 1.0
        accepted = False
        for _ in range(12):
            q_try = q0 + lam * dq
            p_try = p0 + lam * dp
            rq_t, rp_t = closure_residual(q_try, p_try, m, n, k)
            norm_t = max(abs(rq_t), abs(rp_t))
            if norm_t < norm:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise RefinementError(
                f"Newton polish stalled for {orbit.convergent} at K={k:g}",
                history=history,
            )
        q0, p0, rq, rp, norm = q_try, p_try, rq_t, rp_t, norm_t
        history.append(((q0, p0), norm))
        if norm <= tol:
            return _orbit_from_seed(q0, p0, orbit.convergent, k, orbit.family, orbit.line)

    raise RefinementError(
        f"Newton polish did not converge in {max_iter} iterations for {orbit.convergent} at K={k:g}",
        history=history,
    )


def refine_multishoot(orbit: PeriodicOrbit, tol: float = 1e-12, max_iter: int = 40) -> PeriodicOrbit:
    """Newton on the full n-point defect chain (multiple shooting).

    Solves T(x_i) = x_{i+1} for all i (the last step wrapping to
    x_0 + (2*pi*m, 0)) as one 2n-dimensional system.  The per-step defects
    are evaluated locally, so the attainable accuracy stays at machine
    precision even when the n-fold composition is strongly expanding and
    single shooting is noise-limited.  The dense cyclic block Jacobian is
    small (2n x 2n for n <= a few hundred) and solved with pivoting.  An
    orbit already within ``tol`` comes back with its measured defect as
    ``closure_error``.
    """
    m, n, k = orbit.m, orbit.n, orbit.K
    x = np.array(orbit.points, dtype=float)
    wrap = np.array([TWO_PI * m, 0.0])

    def defects(pts):
        q, p = pts[:, 0], pts[:, 1]
        p1 = p + k * np.sin(q)
        q1 = q + p1
        target = np.vstack([pts[1:], pts[0] + wrap])
        return np.column_stack([q1, p1]) - target

    d = defects(x)
    err = float(np.abs(d).max())
    if err <= tol:
        return replace(orbit, closure_error=err)
    history = [err]
    for _ in range(max_iter):
        c = k * np.cos(x[:, 0])
        jac = np.zeros((2 * n, 2 * n))
        for i in range(n):
            r = 2 * i
            jac[r, r] = 1.0 + c[i]
            jac[r, r + 1] = 1.0
            jac[r + 1, r] = c[i]
            jac[r + 1, r + 1] = 1.0
            col = 2 * ((i + 1) % n)
            jac[r, col] -= 1.0
            jac[r + 1, col + 1] -= 1.0
        try:
            delta = np.linalg.solve(jac, -d.reshape(-1)).reshape(n, 2)
        except np.linalg.LinAlgError as exc:
            raise RefinementError(
                f"singular multiple-shooting Jacobian for {orbit.convergent} at K={k:g}",
                history=history,
            ) from exc
        lam = 1.0
        accepted = False
        for _ in range(10):
            x_try = x + lam * delta
            d_try = defects(x_try)
            err_try = float(np.abs(d_try).max())
            if err_try < err:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise RefinementError(
                f"multiple shooting stalled for {orbit.convergent} at K={k:g}",
                history=history,
            )
        x, d, err = x_try, d_try, err_try
        history.append(err)
        if err <= tol:
            return PeriodicOrbit(
                points=x,
                convergent=orbit.convergent,
                K=k,
                family=orbit.family,
                line=orbit.line,
                closure_error=err,
            )
    raise RefinementError(
        f"multiple shooting did not converge in {max_iter} iterations for "
        f"{orbit.convergent} at K={k:g}",
        history=history,
    )


def _polish_candidate(orbit: PeriodicOrbit, tol: float = 1e-11) -> Optional[PeriodicOrbit]:
    """Refine a search candidate, tolerating a singular Jacobian when the
    line root already closes well (near-parabolic small-K orbits)."""
    try:
        return refine_newton(orbit, tol=tol)
    except RefinementError:
        if orbit.closure_error <= 1e-9:
            return orbit
        try:
            return refine_multishoot(orbit)
        except RefinementError:
            return None


# --------------------------------------------------------------------------
# symmetry-line search
# --------------------------------------------------------------------------

def _fixed_point_orbit(c: Convergent, k: float, family: str, line: str) -> PeriodicOrbit:
    q0 = 0.0 if line in (LINE_Q0, LINE_DIAG) else math.pi
    return _orbit_from_seed(q0, 0.0, c, k, family, line)


def _brackets_from_samples(ps: np.ndarray, gs: np.ndarray) -> List[Tuple[float, float]]:
    sign = np.sign(gs)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    out = [(float(ps[i]), float(ps[i + 1])) for i in flips]
    for i in np.nonzero(gs == 0.0)[0]:
        lo = float(ps[max(i - 1, 0)])
        hi = float(ps[min(i + 1, len(ps) - 1)])
        if lo < hi:
            out.append((lo, hi))
    return out


def _on_line_error(line: str, q0: float, p0: float) -> float:
    q_line, _ = line_seed(line, p0)
    return abs(float(wrap_angle(q0 - q_line)))


def find_periodic_orbit(
    c: Convergent,
    k: float,
    line: str,
    p_center: Optional[float] = None,
    p_halfwidth: Optional[float] = None,
    family: Optional[str] = None,
    scan_samples: int = _SCAN_SAMPLES,
) -> PeriodicOrbit:
    """Locate the (m, n) periodic orbit whose representative sits on ``line``.

    A 1D bracketed root search in the line parameter p drives the lifted
    q-closure to zero; the 2D Newton polish then certifies the full closure.
    Without ``p_center``/``p_halfwidth`` the whole fundamental interval
    [0, 2*pi) is scanned at ``scan_samples`` resolution; continuation passes
    a window around the previous root instead.
    """
    k = check_stochasticity(k)
    if line not in ALL_LINES:
        raise DomainError(f"unknown symmetry line {line!r}")
    family = family or FAMILY_RATIONAL
    m, n = c.m, c.n

    if n == 1:
        return _fixed_point_orbit(c, k, family, line)
    if k == 0.0:
        p0 = TWO_PI * m / n
        q0, _ = line_seed(line, p0)
        return _orbit_from_seed(q0, p0, c, k, family, line)

    target = TWO_PI * m / n if p_center is None else p_center

    if p_halfwidth is None:
        ps = np.linspace(0.0, TWO_PI, scan_samples, endpoint=False)
        gs = _line_residual_batch(line, ps, m, n, k)
        brackets = _brackets_from_samples(ps, gs)
        trace = {"line": line, "samples": scan_samples, "g_min": float(gs.min()), "g_max": float(gs.max())}
    else:
        brackets = []
        w = max(p_halfwidth, 1e-9)
        cap = max(4.0 * p_halfwidth, min(0.4, math.pi / n + 0.05))
        trace = {"line": line, "window_center": target, "window_cap": cap}
        while w <= cap:
            ps = np.linspace(target - w, target + w, 33)
            gs = _line_residual_batch(line, ps, m, n, k)
            brackets = _brackets_from_samples(ps, gs)
            if brackets:
                break
            w *= 2.0
        trace["window_final"] = w

    if not brackets:
        raise OrbitNotFoundError(
            f"no closure sign change for {c} on {line} at K={k:g}",
            scan_trace=[trace],
        )

    candidates: List[PeriodicOrbit] = []
    for a, b in brackets:
        try:
            root = brentq(
                lambda p: _line_residual(line, p, m, n, k),
                a,
                b,
                xtol=1e-14,
                rtol=_BRENTQ_RTOL,
                maxiter=200,
            )
        except ValueError:
            continue
        q0, p0 = line_seed(line, float(root))
        cand = _orbit_from_seed(q0, p0, c, k, family, line)
        if cand.closure_error > 1e-6:
            continue  # q-closure-only root; not a periodic point
        polished = _polish_candidate(cand)
        if polished is None:
            continue
        if _on_line_error(line, polished.points[0, 0], polished.points[0, 1]) > 1e-6:
            continue
        if any(abs(polished.points[0, 1] - prev.points[0, 1]) < 1e-9 for prev in candidates):
            continue
        candidates.append(polished)

    if not candidates:
        raise OrbitNotFoundError(
            f"no periodic root for {c} on {line} at K={k:g} "
            f"({len(brackets)} brackets rejected)",
            scan_trace=[trace],
        )
    candidates.sort(key=lambda o: abs(o.points[0, 1] - target))
    return candidates[0]


# --------------------------------------------------------------------------
# continuation
# --------------------------------------------------------------------------

def _multishoot_from(prev: PeriodicOrbit, k_next: float) -> PeriodicOrbit:
    shell = PeriodicOrbit(
        points=np.array(prev.points, dtype=float),
        convergent=prev.convergent,
        K=k_next,
        family=prev.family,
        line=prev.line,
        closure_error=math.inf,
    )
    return refine_multishoot(shell)


def _trace_magnitude(orbit: PeriodicOrbit) -> float:
    m11, _, _, m22, _ = _kernels.monodromy_product(np.ascontiguousarray(orbit.points[:, 0]), orbit.K)
    return abs(m11 + m22)


# past this trace magnitude the n-fold composition amplifies rounding noise
# beyond the line search's closure certificate; switch to multiple shooting
_STRONG_TRACE = 200.0


def _solve_near(prev: PeriodicOrbit, k_next: float) -> PeriodicOrbit:
    """Re-solve ``prev``'s orbit at a nearby K, anchored at the previous root."""
    if prev.line == LINE_NONE:
        moved = _orbit_from_seed(prev.points[0, 0], prev.points[0, 1], prev.convergent, k_next, prev.family, prev.line)
        try:
            return refine_newton(moved)
        except RefinementError:
            return _multishoot_from(prev, k_next)
    if prev.n > 1 and _trace_magnitude(prev) > _STRONG_TRACE:
        return _multishoot_from(prev, k_next)
    p_prev = float(prev.points[0, 1])
    dk = abs(k_next - prev.K)
    try:
        return find_periodic_orbit(
            prev.convergent,
            k_next,
            prev.line,
            p_center=p_prev,
            p_halfwidth=max(1e-5, 0.25 * dk),
            family=prev.family,
        )
    except OrbitNotFoundError:
        return _multishoot_from(prev, k_next)


def continue_in_K(orbit: PeriodicOrbit, k_target: float, dk_max: float = 0.05) -> PeriodicOrbit:
    """Natural-parameter continuation of an orbit to ``k_target``.

    The step adapts: it halves whenever the local re-solve fails and stops
    with :class:`ContinuationError` (reporting the last good K) at the floor
    1e-6, which signals an orbit collision or bifurcation.  Family and line
    tags are preserved.
    """
    k_target = check_stochasticity(k_target)
    if dk_max <= 0.0:
        raise DomainError("dk_max must be > 0")
    if k_target == orbit.K:
        return orbit
    if orbit.n == 1:
        return _fixed_point_orbit(orbit.convergent, k_target, orbit.family, orbit.line)

    current = orbit
    dk = min(dk_max, abs(k_target - orbit.K))
    while current.K != k_target:
        direction = 1.0 if k_target > current.K else -1.0
        k_next = current.K + direction * dk
        if (direction > 0 and k_next > k_target) or (direction < 0 and k_next < k_target):
            k_next = k_target
        try:
            nxt = _solve_near(current, k_next)
        except (OrbitNotFoundError, RefinementError):
            dk *= 0.5
            if dk < 1e-6:
                raise ContinuationError(
                    f"continuation of {orbit.convergent} ({orbit.family}) stalled at K={current.K:g} "
                    f"targeting {k_target:g} (orbit collision/bifurcation or precision exhaustion)",
                    last_good_k=current.K,
                )
            continue
        current = nxt
        dk = min(dk * 1.6, dk_max)
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
    arbitrary K are served by continuation from the nearest cached
    stochasticity, starting from the K = 0 circle.
    """

    def __init__(self, convergent: Convergent, family: str = FAMILY_RATIONAL,
                 dk_max: float = 0.05, line: Optional[str] = None):
        if family not in (FAMILY_RATIONAL, FAMILY_ALTERNATE):
            raise DomainError(f"unknown family {family!r}")
        self.convergent = convergent
        self.family = family
        self.dk_max = dk_max
        self.line = line if line is not None else _rule_line(convergent, family)
        self._ks: List[float] = []
        self._orbits: List[PeriodicOrbit] = []

    def _cache_put(self, orbit: PeriodicOrbit) -> None:
        i = bisect.bisect_left(self._ks, orbit.K)
        if i < len(self._ks) and self._ks[i] == orbit.K:
            return
        self._ks.insert(i, orbit.K)
        self._orbits.insert(i, orbit)

    def _cache_nearest(self, k: float) -> PeriodicOrbit:
        i = bisect.bisect_left(self._ks, k)
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(self._ks):
                if best is None or abs(self._ks[j] - k) < abs(best.K - k):
                    best = self._orbits[j]
        return best

    def orbit_at(self, k: float) -> PeriodicOrbit:
        """Orbit of this branch at stochasticity ``k`` (cached continuation)."""
        k = check_stochasticity(k)
        if self.convergent.n == 1:
            return _fixed_point_orbit(self.convergent, k, self.family, self.line)
        if not self._ks:
            self._cache_put(find_periodic_orbit(self.convergent, 0.0, self.line, family=self.family))
        i = bisect.bisect_left(self._ks, k)
        if i < len(self._ks) and self._ks[i] == k:
            return self._orbits[i]
        start = self._cache_nearest(k)
        orbit = continue_in_K(start, k, self.dk_max)
        self._cache_put(orbit)
        return orbit


def rational_orbit(c: Convergent, k: float) -> PeriodicOrbit:
    """The elliptic-family orbit of winding m/n at stochasticity K."""
    return OrbitBranch(c, FAMILY_RATIONAL).orbit_at(k)


def alternate_orbit(c: Convergent, k: float, j: int = 1) -> PeriodicOrbit:
    """The second-family orbit of winding m/n at stochasticity K (j = 1 only)."""
    if j != 1:
        raise UnsupportedParameterError(f"only the j=1 alternate family is implemented, got j={j}")
    return OrbitBranch(c, FAMILY_ALTERNATE).orbit_at(k)


def rational_iterates(k: float, depth: int) -> List[Union[PeriodicOrbit, OrbitFailure]]:
    """Rational-family orbits for the Fibonacci convergents up to ``depth``.

    Failures are returned in place as :class:`OrbitFailure` markers so that
    partial sweeps stay usable.
    """
    k = check_stochasticity(k)
    out: List[Union[PeriodicOrbit, OrbitFailure]] = []
    for c in fibonacci_convergents(depth):
        try:
            out.append(rational_orbit(c, k))
        except (OrbitNotFoundError, RefinementError, ContinuationError) as err:
            out.append(OrbitFailure(c, str(err), FAMILY_RATIONAL))
    return out


def alternate_iterates(k: float, depth: int, j: int = 1) -> List[Union[PeriodicOrbit, OrbitFailure]]:
    """Alternate-family orbits (second symmetry-line family), j = 1 only."""
    if j != 1:
        raise UnsupportedParameterError(f"only the j=1 alternate family is implemented, got j={j}")
    k = check_stochasticity(k)
    out: List[Union[PeriodicOrbit, OrbitFailure]] = []
    for c in fibonacci_convergents(depth):
        try:
            out.append(alternate_orbit(c, k))
        except (OrbitNotFoundError, RefinementError, ContinuationError) as err:
            out.append(OrbitFailure(c, str(err), FAMILY_ALTERNATE))
    return out


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
