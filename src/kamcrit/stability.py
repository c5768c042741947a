"""Monodromy matrices, Greene residues, linear classification, thresholds.

The destabilization threshold K*(m, n) is the stochasticity at which the
elliptic orbit's residue R = (2 - tr M)/4 crosses 1, i.e. the trace crosses
-2 (the period-doubling boundary).  The closed forms R = K/4 for the (pi, 0)
fixed point and R = K^2/4 for the 1/2 orbit anchor that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .errors import BracketingError, DomainError
from .orbits import (
    FAMILY_RATIONAL,
    Convergent,
    OrbitBranch,
    PeriodicOrbit,
    brentq,
)

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
INVERSE_HYPERBOLIC = "inverse-hyperbolic"
PARABOLIC = "parabolic"

_PARABOLIC_TOL = 1e-10


@dataclass(frozen=True)
class Monodromy:
    """Ordered product DT(x_{n-1}) ... DT(x_0) of tangent maps along an orbit.

    ``det_drift`` is |product of per-factor determinants - 1|; the factorwise
    product is the numerically faithful symplecticity check, since the
    determinant of the accumulated matrix cancels catastrophically once the
    orbit is strongly unstable.
    """

    matrix: np.ndarray
    n: int
    det_drift: float

    @property
    def trace(self) -> float:
        return float(self.matrix[0, 0] + self.matrix[1, 1])

    @property
    def det(self) -> float:
        m = self.matrix
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


@dataclass(frozen=True)
class StabilityReport:
    trace: float
    residue: float
    classification: str
    lyapunov: float

    def to_record(self, orbit: Optional[PeriodicOrbit] = None) -> dict:
        rec = {
            "trace": self.trace,
            "residue": self.residue,
            "class": self.classification,
            "lyapunov": self.lyapunov,
        }
        if orbit is not None:
            rec = {"m": orbit.m, "n": orbit.n, "K": orbit.K, **rec}
        return rec


def monodromy(orbit: PeriodicOrbit) -> Monodromy:
    """Monodromy of a periodic orbit (closure must hold to 1e-9)."""
    if not math.isfinite(orbit.closure_error) or orbit.closure_error > 1e-9:
        raise DomainError(
            f"orbit closure {orbit.closure_error:g} exceeds 1e-9; refine before taking the monodromy"
        )
    m11, m12, m21, m22, det_prod = _kernels.monodromy_product(orbit.points[:, 0], orbit.K)
    return Monodromy(
        matrix=np.array([[m11, m12], [m21, m22]]),
        n=orbit.n,
        det_drift=abs(det_prod - 1.0),
    )


def residue(m) -> float:
    """Greene residue R = (2 - trace)/4 of a monodromy (or 2x2 matrix)."""
    tr = m.trace if isinstance(m, Monodromy) else float(np.trace(np.asarray(m)))
    return (2.0 - tr) / 4.0


def classify(m, n: Optional[int] = None) -> StabilityReport:
    """Linear classification from the monodromy trace.

    elliptic for |tr| < 2 (0 < R < 1), hyperbolic for tr > 2 (R < 0),
    inverse-hyperbolic for tr < -2 (R > 1), parabolic for |tr| = 2 within
    1e-10.  The Lyapunov exponent is ln(spectral radius)/n, exactly zero in
    the elliptic and parabolic cases.
    """
    if isinstance(m, Monodromy):
        tr = m.trace
        n = m.n if n is None else n
    else:
        tr = float(np.trace(np.asarray(m)))
        if n is None:
            n = 1
    r = (2.0 - tr) / 4.0
    if abs(abs(tr) - 2.0) <= _PARABOLIC_TOL:
        cls, lam = PARABOLIC, 0.0
    elif abs(tr) < 2.0:
        cls, lam = ELLIPTIC, 0.0
    else:
        cls = HYPERBOLIC if tr > 2.0 else INVERSE_HYPERBOLIC
        rad = 0.5 * (abs(tr) + math.sqrt(tr * tr - 4.0))
        lam = math.log(rad) / n
    return StabilityReport(trace=tr, residue=r, classification=cls, lyapunov=lam)


def orbit_report(orbit: PeriodicOrbit) -> StabilityReport:
    return classify(monodromy(orbit))


# --------------------------------------------------------------------------
# destabilization threshold
# --------------------------------------------------------------------------

_K_MAX = 4.5  # the top of the upward walk that brackets R = 1


def check_tol_k(tol_k: float) -> float:
    """Validate a threshold tolerance in K: positive and finite."""
    tol_k = float(tol_k)
    if not (math.isfinite(tol_k) and tol_k > 0.0):
        raise DomainError(f"tol_k must be positive and finite, got {tol_k!r}")
    return tol_k


def destabilization_K(
    c: Convergent,
    line: Optional[str] = None,
    family: str = FAMILY_RATIONAL,
    tol_k: float = 1e-6,
) -> float:
    """Stochasticity at which the orbit's residue crosses 1 (trace -> -2);
    the K* of :func:`find_destabilization`."""
    return find_destabilization(c, family, line, tol_k)[0]


def find_destabilization(
    c: Convergent,
    family: str = FAMILY_RATIONAL,
    line: Optional[str] = None,
    tol_k: float = 1e-6,
) -> Tuple[float, dict]:
    """Walk K upward until the residue crosses 1, then solve for the crossing.

    The walk is the branch's own continuation from the K = 0 circle up to
    ``_K_MAX`` (:meth:`kamcrit.orbits.OrbitBranch.climb`): it takes R at
    each accepted step and stops at the first with R >= 1, so the bracket
    is the last two accepted K (the circle, R = 0, before the first step).
    The steps are multiples of 0.25 until the guard of
    :func:`kamcrit.orbits.continue_in_K` first halves one, which it does
    near K*(n) from n = 144 on.  The bracket is solved by :func:`brentq` on
    log R (on R - 1 where rounding
    gives R <= 0, which keeps the sign), each probe continued from the
    nearest cached step below it, so K* lies within ``tol_k``/2 of the
    crossing (:class:`DomainError` unless ``tol_k`` is positive and finite)
    and depends on nothing but the arguments.  Returns (K*, info): the
    bracket, every residue evaluation as (K, R) in call order, and the line.
    Raises :class:`BracketingError` when the walk brackets no crossing, and
    at the first residue that is not finite (an overflowed monodromy is
    neither below 1 nor a crossing).
    """
    tol_k = check_tol_k(tol_k)
    branch = OrbitBranch(c, family, line)
    residues = {}  # K -> R in evaluation order; Brent re-reads the walk's ends

    def log_residue(k: float) -> float:
        if k not in residues:
            r = residues[k] = residue(monodromy(branch.orbit_at(k)))
            if not math.isfinite(r):
                raise BracketingError(f"non-finite residue {r} for {c} (n={c.n}) at K={k!r}")
        r = residues[k]
        return math.log(r) if r > 0.0 else r - 1.0

    k_lo = 0.0  # the K = 0 circle: its monodromy is a shear, R = 0
    for orbit in branch.climb(_K_MAX):
        if log_residue(orbit.K) >= 0.0:
            break
        k_lo = orbit.K
    else:
        raise BracketingError(
            f"no residue crossing below K_max={_K_MAX:g} for {c} (last residue {residues[orbit.K]:.4g})"
        )
    bracket = (k_lo, orbit.K)
    k_star = brentq(log_residue, *bracket, xtol=0.5 * tol_k)
    return k_star, {"bracket": bracket, "samples": list(residues.items()), "line": branch.line}
