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
    qs = np.ascontiguousarray(orbit.points[:, 0])
    m11, m12, m21, m22, det_prod = _kernels.monodromy_product(qs, orbit.K)
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

def _residue_at(branch: OrbitBranch, k: float) -> float:
    return residue(monodromy(branch.orbit_at(k)))


_K_START, _K_STEP, _K_MAX = 0.25, 0.25, 4.5  # the upward walk that brackets R = 1


def check_tol_k(tol_k: float) -> float:
    """Validate a bisection width in K: positive and finite."""
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
    """Walk K upward until the residue crosses 1, then bisect the crossing.

    The walk steps from ``_K_START`` by ``_K_STEP`` up to ``_K_MAX`` (0.25,
    0.5, ..., 4.5), continuing the orbit to every probe, and the crossing is
    bisected to width ``tol_k`` (:class:`DomainError` unless positive and
    finite).  Returns (K*, info) where info records the bracket, the sampled
    residues and the line.  Raises :class:`BracketingError` when no crossing
    is found below ``_K_MAX``.
    """
    tol_k = check_tol_k(tol_k)
    branch = OrbitBranch(c, family, line)
    k = _K_START
    r = _residue_at(branch, k)
    samples = [(k, r)]
    if r >= 1.0:
        raise BracketingError(f"orbit {c} already non-elliptic at K_start={_K_START:g}")
    while True:
        k_prev, r_prev = k, r
        k = k + _K_STEP
        if k > _K_MAX:
            raise BracketingError(
                f"no residue crossing below K_max={_K_MAX:g} for {c} (last residue {r_prev:.4g})"
            )
        r = _residue_at(branch, k)
        samples.append((k, r))
        if r >= 1.0:
            break
    lo, hi = k_prev, k
    while hi - lo > tol_k:
        mid = 0.5 * (lo + hi)
        if _residue_at(branch, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), {"bracket": (k_prev, k), "samples": samples, "line": branch.line}
