"""Hot inner loops of the standard map.

Scalar kernels are plain python loops on python floats, with ``math``
bound locally where a step needs it; arrays are read with ``tolist()`` and
built once, as numpy indexing per step costs more than the step.  The
monodromy product takes its cosines from numpy in one pass, which is
bit-identical to ``math.cos`` per factor wherever numpy's float64 cos
equals libm's.  The batched kernels vectorise over the batch with numpy
and loop over the steps.  :func:`backend` names the build: always
``"numpy"``.

The map kernels work on lifted (unwrapped) coordinates and never reduce to
the torus; callers wrap for display only.  The monodromy product depends on
cos q alone, so it is handed an orbit's reduced angles.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

__all__ = [
    "backend",
    "final_state",
    "trajectory",
    "batch_final_state",
    "batch_trajectory",
    "monodromy_product",
    "p_span",
    "max_p_deviation",
]


def final_state(q, p, k, nsteps):
    """Iterate the lifted standard map ``nsteps`` times from (q, p)."""
    for _ in range(nsteps):
        p = p + k * math.sin(q)
        q = q + p
    return q, p


def trajectory(q, p, k, nsteps):
    """Lifted trajectory including the start point: shape (nsteps + 1, 2)."""
    sin = math.sin
    out = [q, p]
    for _ in range(nsteps):
        p = p + k * sin(q)
        q = q + p
        out += (q, p)
    return np.array(out, dtype=float).reshape(nsteps + 1, 2)


def monodromy_product(qs, k):
    """Ordered tangent-map product DT(x_{n-1}) ... DT(x_0) along orbit angles.

    Returns (m11, m12, m21, m22, det_prod) where det_prod multiplies the
    per-factor determinants.  The factor determinant (1 + c) - c is exact to
    rounding, so det_prod tracks symplecticity without the catastrophic
    cancellation the accumulated matrix suffers for strongly unstable orbits.
    """
    m11 = 1.0
    m12 = 0.0
    m21 = 0.0
    m22 = 1.0
    det = 1.0
    for c in (k * np.cos(qs)).tolist():
        a = 1.0 + c
        n11 = a * m11 + m21
        n12 = a * m12 + m22
        n21 = c * m11 + m21
        n22 = c * m12 + m22
        m11 = n11
        m12 = n12
        m21 = n21
        m22 = n22
        det *= a - c
    return m11, m12, m21, m22, det


def p_span(q, p, k, nsteps):
    """(min p, max p) over the lifted trajectory, start point included."""
    pmin = p
    pmax = p
    for _ in range(nsteps):
        p = p + k * math.sin(q)
        q = q + p
        if p < pmin:
            pmin = p
        if p > pmax:
            pmax = p
    return pmin, pmax


_BLOCK = 256  # steps between two escape verdicts of max_p_deviation


def max_p_deviation(q, p, k, nsteps, p_ref, cap):
    """Max |p - p_ref| along the trajectory, stopping early past ``cap``.

    Returns (deviation, steps_done, escaped).  ``cap <= 0`` disables the
    escape check.  Rounded subtraction is monotone, so |p - p_ref| peaks at
    an end of the range [lo, hi] of p: only a step that widens it (or the
    first step) can change the deviation or the verdict.  The steps run in
    blocks of ``_BLOCK`` with the verdict taken once per block; a block
    whose range reaches the cap is replayed step by step from its start, so
    the escape step is the same as with a verdict at every step.
    """
    sin = math.sin
    lo = hi = p
    for start in range(0, nsteps, _BLOCK):
        stop = min(start + _BLOCK, nsteps)
        saved = q, p, lo, hi
        for _ in repeat(None, stop - start):
            p = p + k * sin(q)
            q = q + p
            if p > hi:
                hi = p
            elif p < lo:
                lo = p
        if cap > 0.0 and max(abs(hi - p_ref), abs(lo - p_ref)) >= cap:
            # replay the block with the verdict at each step that can change it
            q, p, lo, hi = saved
            for i in range(start, stop):
                p = p + k * sin(q)
                q = q + p
                if p > hi:
                    hi = p
                elif p < lo:
                    lo = p
                elif i:
                    continue
                best = max(abs(hi - p_ref), abs(lo - p_ref))
                if best >= cap:
                    return best, i + 1, True
    return max(abs(hi - p_ref), abs(lo - p_ref)), nsteps, False


def batch_final_state(qs, ps, k, nsteps):
    """Batched iteration: numpy over the batch, python over the steps."""
    q = np.array(qs, dtype=float)
    p = np.array(ps, dtype=float)
    for _ in range(nsteps):
        p += k * np.sin(q)
        q += p
    return q, p


def batch_trajectory(qs, ps, k, nsteps):
    q = np.array(qs, dtype=float)
    p = np.array(ps, dtype=float)
    out = np.empty((q.shape[0], nsteps + 1, 2))
    out[:, 0, 0] = q
    out[:, 0, 1] = p
    for i in range(nsteps):
        p += k * np.sin(q)
        q += p
        out[:, i + 1, 0] = q
        out[:, i + 1, 1] = p
    return out


def backend() -> str:
    """Name of the kernel build in use: always ``"numpy"``."""
    return "numpy"
