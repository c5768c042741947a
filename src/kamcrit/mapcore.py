"""The standard map p' = p + K sin q, q' = q + p' and its discrete action.

The primary representation is the lifted (unwrapped) plane: winding numbers
and the periodicity condition T^n(x) = x + (2*pi*m, 0) only make sense
there.  Reduction to the torus [-pi, pi) x [0, 2*pi) is a view, with the
boundary convention q = pi -> -pi and p = 2*pi -> 0.  Coordinate ordering is
(q, p) everywhere, including the tangent map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import _kernels
from .errors import DomainError

TWO_PI = 2.0 * math.pi

PointLike = Union["PhasePoint", Sequence[float], np.ndarray]


def wrap_angle(x):
    """Wrap values into [-pi, pi); works on scalars and arrays."""
    out = np.mod(np.asarray(x, dtype=float) + math.pi, TWO_PI)
    # np.mod of a tiny negative rounds up to the modulus itself
    out = np.where(out >= TWO_PI, 0.0, out)
    return out - math.pi


def wrap_momentum(x):
    """Wrap values into [0, 2*pi); works on scalars and arrays."""
    out = np.mod(np.asarray(x, dtype=float), TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


def check_stochasticity(k: float) -> float:
    """Validate the stochasticity parameter: finite and non-negative."""
    k = float(k)
    if not math.isfinite(k):
        raise DomainError(f"stochasticity parameter must be finite, got {k!r}")
    if k < 0.0:
        raise DomainError(f"stochasticity parameter must be >= 0, got {k!r}")
    return k


@dataclass(frozen=True)
class PhasePoint:
    """A lifted phase-space point (q, p); both coordinates must be finite."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise DomainError(f"phase point must be finite, got ({self.q!r}, {self.p!r})")

    def to_torus(self) -> "PhasePoint":
        return PhasePoint(float(wrap_angle(self.q)), float(wrap_momentum(self.p)))

    def __iter__(self):
        yield self.q
        yield self.p


def as_phase_point(x: PointLike) -> PhasePoint:
    if isinstance(x, PhasePoint):
        return x
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size != 2:
        raise DomainError(f"expected a (q, p) pair, got shape {np.shape(x)}")
    return PhasePoint(float(arr[0]), float(arr[1]))


def step_standard(x: PointLike, k: float) -> PhasePoint:
    """One lifted step of the standard map: p' = p + K sin q, q' = q + p'."""
    pt = as_phase_point(x)
    k = check_stochasticity(k)
    p1 = pt.p + k * math.sin(pt.q)
    return PhasePoint(pt.q + p1, p1)


def symplecticity_check(x: PointLike, k: float) -> float:
    """|det DT(x) - 1| for the tangent map DT = [[1 + c, 1], [c, 1]], c = K cos q,
    in the rounding of that 2x2 determinant."""
    pt = as_phase_point(x)
    c = check_stochasticity(k) * math.cos(pt.q)
    return abs((1.0 + c) - c - 1.0)


def as_points_array(traj) -> np.ndarray:
    """Coerce a trajectory (list of points or (N, 2) array) to an (N, 2) array."""
    if isinstance(traj, np.ndarray):
        arr = np.asarray(traj, dtype=float)
    else:
        arr = np.array([[pt.q, pt.p] if isinstance(pt, PhasePoint) else tuple(pt) for pt in traj], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError(f"expected an (N, 2) trajectory, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("trajectory contains non-finite points")
    return arr


def euler_lagrange_residual(traj, k: float) -> np.ndarray:
    """Stationarity residuals of the discrete action at each interior point.

    Entry j (for interior index i = j + 1) is the max-norm of the two
    first-variation brackets at point i, with dH/dq = -K sin q and
    dH/dp' = p':

        |(p_i - p_{i+1}) + K sin q_i|   (variation in q_i)
        |(q_i - q_{i-1}) - p_i|         (variation in p_i)

    Both vanish exactly on true map trajectories.
    """
    pts = as_points_array(traj)
    n = pts.shape[0]
    if n < 3:
        raise DomainError("euler_lagrange_residual needs at least 3 points")
    k = check_stochasticity(k)
    q, p = pts[:, 0], pts[:, 1]
    out = np.empty(n - 2)
    for i in range(1, n - 1):
        rq = (p[i] - p[i + 1]) + k * math.sin(q[i])
        rp = (q[i] - q[i - 1]) - p[i]
        out[i - 1] = max(abs(rq), abs(rp))
    return out


def trajectory_standard(x: PointLike, k: float, nsteps: int) -> np.ndarray:
    """Lifted trajectory array of shape (nsteps + 1, 2), start included."""
    pt = as_phase_point(x)
    k = check_stochasticity(k)
    if nsteps < 0:
        raise DomainError("nsteps must be >= 0")
    return _kernels.trajectory(pt.q, pt.p, k, int(nsteps))
