"""The three transition criteria for the golden-mean KAM curve.

* Greene: destabilization thresholds K*(n) along the Fibonacci convergents,
  accelerated with Aitken's delta-squared on the last three values.
* Elliptic-point distance: the minimum matched torus distance d(K) between
  the rational and alternate orbit of the same (m, n); its minimizer over K
  is located per order and extrapolated the same way.
* Chirikov overlap: measured island semi-amplitudes of the two integer
  resonances bounding the golden-mean region, compared against the pendulum
  half-width 2*sqrt(K); overlap is declared where the widths fill the
  2*pi spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .errors import (
    BracketingError,
    ContinuationError,
    DomainError,
    NoInteriorMinimumError,
    RefinementError,
    WidthMeasurementError,
)
from .mapcore import TWO_PI, check_stochasticity, wrap_angle
from .orbits import (
    FAMILY_ALTERNATE,
    FAMILY_RATIONAL,
    Convergent,
    OrbitBranch,
    PeriodicOrbit,
    fibonacci_convergents,
)
from .stability import check_tol_k, find_destabilization

__all__ = [
    "CriterionResult",
    "DistanceCurve",
    "aitken_extrapolate",
    "greene_kcrit",
    "match_elliptic_points",
    "torus_distance",
    "nch_distance",
    "nch_distance_curve",
    "nch_kcrit",
    "island_half_width",
    "pendulum_half_width",
    "chirikov_overlap",
    "chirikov_kcrit",
]


@dataclass
class CriterionResult:
    """Outcome of one transition criterion.

    ``per_n`` lists (order, statistic) pairs (thresholds for Greene,
    distance minimizers for the distance criterion); ``diagnostics`` is a
    free-form record of everything the estimate rests on.
    """

    method: str
    k_crit: float
    per_n: List[Tuple[int, float]]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.per_n:
            raise DomainError("per_n must be non-empty")
        if not (self.k_crit > 0.0 and math.isfinite(self.k_crit)):
            raise DomainError(f"K_crit must be positive and finite, got {self.k_crit!r}")
        for n, stat in self.per_n:
            if not math.isfinite(stat):
                raise DomainError(f"non-finite per-order statistic at n={n}")

    def to_record(self) -> dict:
        return {
            "method": self.method,
            "K_crit": self.k_crit,
            "per_n": [[n, v] for n, v in self.per_n],
            "diagnostics": self.diagnostics,
        }

    _STAT_LABEL = {"greene": "K_star", "nch": "K_min", "chirikov": "width_coeff"}

    def per_n_csv(self) -> str:
        """Per-order table as CSV with the (method, n, K_or_stat, value) header."""
        label = self._STAT_LABEL.get(self.method, "stat")
        lines = ["method,n,K_or_stat,value"]
        for n, value in self.per_n:
            lines.append(f"{self.method},{n},{label},{value:.17g}")
        return "\n".join(lines) + "\n"


@dataclass
class DistanceCurve:
    """Matched elliptic-point distance d as a function of K, one order n."""

    n: int
    samples: List[Tuple[float, float]]

    def __post_init__(self):
        if len(self.samples) < 3:
            raise DomainError("a distance curve needs at least 3 samples")
        ks = [k for k, _ in self.samples]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise DomainError("distance-curve K values must be strictly increasing")
        if any(d < 0.0 for _, d in self.samples):
            raise DomainError("distances must be non-negative")

    def to_record(self) -> dict:
        return {"n": self.n, "samples": [[k, d] for k, d in self.samples]}

    def interior_minimum(self) -> Optional[Tuple[float, float]]:
        """(K, d) of the parabolic-interpolated interior minimum, or None."""
        ks = np.array([k for k, _ in self.samples])
        ds = np.array([d for _, d in self.samples])
        i = int(np.argmin(ds))
        if i == 0 or i == len(ds) - 1:
            return None
        k0, k1, k2 = ks[i - 1], ks[i], ks[i + 1]
        d0, d1, d2 = ds[i - 1], ds[i], ds[i + 1]
        num = (k1 - k0) ** 2 * (d1 - d2) - (k1 - k2) ** 2 * (d1 - d0)
        den = (k1 - k0) * (d1 - d2) - (k1 - k2) * (d1 - d0)
        if den == 0.0:
            return float(k1), float(d1)
        k_min = k1 - 0.5 * num / den
        if not (k0 < k_min < k2):
            k_min = float(k1)
        return float(k_min), float(d1)


def aitken_extrapolate(values: Sequence[float]) -> Tuple[float, bool]:
    """Aitken delta-squared on the last three values; (estimate, accelerated).

    Falls back to the last value (accelerated=False) for short or
    denominator-degenerate sequences, and when the estimate is not positive
    and finite, as it can be when a refused order leaves a gap in the tail.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError("cannot extrapolate an empty sequence")
    if len(vals) < 3:
        return vals[-1], False
    x0, x1, x2 = vals[-3:]
    den = x2 - 2.0 * x1 + x0
    if abs(den) < 1e3 * np.finfo(float).eps * max(1.0, abs(x2)):
        return vals[-1], False
    estimate = x2 - (x2 - x1) ** 2 / den
    if not (estimate > 0.0 and math.isfinite(estimate)):
        return vals[-1], False
    return estimate, True


def _extrapolation_label(accelerated: bool) -> str:
    if accelerated:
        return "aitken-delta2(last 3)"
    return "last value (degenerate sequence or non-positive Aitken estimate)"


# --------------------------------------------------------------------------
# Greene criterion
# --------------------------------------------------------------------------

def greene_kcrit(
    depth: int = 8,
    convergents: Optional[Sequence[Convergent]] = None,
    tol_k: float = 1e-6,
) -> CriterionResult:
    """Destabilization thresholds K*(n) over the convergent family, extrapolated.

    ``convergents`` overrides the default Fibonacci list (e.g. a single
    ``Convergent(0, 1)`` reproduces the fixed-point threshold 4).  ``tol_k``
    is checked up front (:class:`DomainError`); after that, an
    order that fails numerically (no bracket, a stalled continuation, an
    orbit whose closure the monodromy refuses) is recorded in
    ``diagnostics["failures"]`` and the extrapolation uses the available tail;
    ``diagnostics["residue_evals"]`` counts each order's residue evaluations.
    """
    cs = list(convergents) if convergents is not None else fibonacci_convergents(depth)
    check_tol_k(tol_k)
    per_n: List[Tuple[int, float]] = []
    failures = []
    brackets, residue_evals = {}, {}
    for c in cs:
        try:
            k_star, info = find_destabilization(c, tol_k=tol_k)
        except (BracketingError, RefinementError, ContinuationError, DomainError) as err:
            failures.append({"n": c.n, "error": str(err)})
            continue
        per_n.append((c.n, k_star))
        brackets[c.n] = info["bracket"]
        residue_evals[c.n] = len(info["samples"])
    if not per_n:
        raise BracketingError("no destabilization threshold could be computed")
    values = [v for _, v in per_n]
    k_crit, accelerated = aitken_extrapolate(values)
    diagnostics = {
        "extrapolation": _extrapolation_label(accelerated),
        "raw_thresholds": values,
        "brackets": brackets,
        "residue_evals": residue_evals,
        "failures": failures,
        "tol_k": tol_k,
    }
    return CriterionResult("greene", k_crit, per_n, diagnostics)


# --------------------------------------------------------------------------
# elliptic-point matching and the distance criterion
# --------------------------------------------------------------------------

def torus_distance(a, b) -> float:
    """Euclidean norm of the componentwise shortest angular differences."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dq = float(wrap_angle(a[0] - b[0]))
    dp = float(wrap_angle(a[1] - b[1]))
    return math.hypot(dq, dp)


def _assignment(a: PeriodicOrbit, b: PeriodicOrbit) -> Tuple[np.ndarray, np.ndarray]:
    """(columns, costs) of the minimum-weight matching of ``a``'s points, in
    index order, to ``b``'s on the torus metric.  Both are Birkhoff orbits of
    winding m/n, so their points share one cyclic order in q (Aubry & Le
    Daeron 1983; Mather 1982) and the matching is one of n cyclic shifts of
    the q-sorted points; the shift of least total distance wins, the
    smallest one on a tie."""
    if a.n != b.n:
        raise DomainError(f"period mismatch: {a.n} vs {b.n}")
    n, pa, pb = a.n, a.torus_points(), b.torus_points()
    ia, ib = np.argsort(pa[:, 0]), np.argsort(pb[:, 0])
    jb = ib[(np.arange(n)[:, None] + np.arange(n)) % n]  # row s: partners of a[ia] under shift s
    dist = np.hypot(wrap_angle(pa[ia, 0] - pb[jb, 0]), wrap_angle(pa[ia, 1] - pb[jb, 1]))
    # totals summed in q order (in a's index order two shifts of 21/34 tie exactly near K = 0.4)
    s, back = int(np.argmin(dist.sum(axis=1))), np.argsort(ia)
    return jb[s, back], dist[s, back]


def match_elliptic_points(a: PeriodicOrbit, b: PeriodicOrbit) -> List[Tuple[int, int, float]]:
    """Minimum-weight matching of two orbits' points on the torus metric.

    Solved exactly by the cyclic-shift search, so it coincides with the
    exhaustive permutation optimum at every order (a globally-smallest-first
    greedy pass strands wrap-around leftovers already at order 8).  Each
    point is matched exactly once; pairs come back sorted by the first
    orbit's index.
    """
    cols, costs = _assignment(a, b)
    return [(i, int(j), float(d)) for i, (j, d) in enumerate(zip(cols, costs))]


def _pair_branches(c: Convergent) -> Tuple[OrbitBranch, OrbitBranch]:
    return OrbitBranch(c, FAMILY_RATIONAL), OrbitBranch(c, FAMILY_ALTERNATE)


def nch_distance(n: int, k: float) -> float:
    """Minimum matched distance between the two families' orbits at (n, K)."""
    rational, alternate = _pair_branches(_convergent_for_order(n))
    return float(_assignment(rational.orbit_at(k), alternate.orbit_at(k))[1].min())


def _convergent_for_order(n: int) -> Convergent:
    if n == 1:
        return Convergent(0, 1)
    m, nn = 1, 2
    while nn < n:
        m, nn = nn, m + nn
    if nn != n:
        raise DomainError(f"order {n} is not a Fibonacci convergent order")
    return Convergent(m, nn)


def nch_distance_curve(
    c: Convergent,
    k_grid: Sequence[float],
    branches: Optional[Tuple[OrbitBranch, OrbitBranch]] = None,
) -> DistanceCurve:
    """Distance curve d(K) for one order over an ascending K grid."""
    rational, alternate = branches if branches is not None else _pair_branches(c)
    samples = []
    for k in k_grid:
        a = rational.orbit_at(float(k))
        b = alternate.orbit_at(float(k))
        samples.append((float(k), float(_assignment(a, b)[1].min())))
    return DistanceCurve(n=c.n, samples=samples)


def nch_kcrit(
    depth: int,
    k_grid: Sequence[float],
    greene_value: Optional[float] = None,
) -> CriterionResult:
    """Distance-minimum criterion over the Fibonacci orders up to ``depth``.

    For each order the distance curve over ``k_grid`` must attain an
    interior minimum (parabolic-interpolated); orders whose minimum sits on
    the grid boundary are flagged and excluded.  The per-order minimizers
    are extrapolated like the Greene thresholds.
    """
    grid = [float(k) for k in k_grid]
    if len(grid) < 5:
        raise DomainError("K grid needs at least 5 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("K grid must be strictly increasing")
    per_n: List[Tuple[int, float]] = []
    flagged = []
    failures = []
    curves = {}
    for c in fibonacci_convergents(depth):
        try:
            curve = nch_distance_curve(c, grid)
        except (RefinementError, ContinuationError) as err:
            failures.append({"n": c.n, "error": str(err)})
            continue
        curves[c.n] = curve.samples
        found = curve.interior_minimum()
        if found is None:
            flagged.append(c.n)
            continue
        per_n.append((c.n, found[0]))
    diagnostics = {
        "grid": grid,
        "curves": curves,
        "no_interior_minimum": flagged,
        "failures": failures,
        "matching": "min-weight assignment, torus metric, minimum matched pair",
    }
    if not per_n:
        raise NoInteriorMinimumError(
            f"no order up to depth {depth} has an interior distance minimum on the grid"
        )
    values = [v for _, v in per_n]
    k_crit, accelerated = aitken_extrapolate(values)
    diagnostics["extrapolation"] = _extrapolation_label(accelerated)
    if greene_value is not None:
        diagnostics["greene_k_crit"] = greene_value
        diagnostics["greene_delta"] = k_crit - greene_value
    return CriterionResult("nch", k_crit, per_n, diagnostics)


# --------------------------------------------------------------------------
# Chirikov overlap
# --------------------------------------------------------------------------

_RESONANCE_SPACING = TWO_PI  # integer resonances at p = 0 and p = 2*pi
_WIDTH_OFFSET = 1e-4  # launch distance along q from the hyperbolic point
_WIDTH_ITERATIONS = 10_000
_ESCAPE_CAP = TWO_PI  # a deviation this large has left the resonance
_FIT_SAMPLES = tuple(np.geomspace(0.01, 0.1, 8))  # small K, where the separatrix layer is thin
_CROSSING_SCAN = (0.5, 3.0, 11)  # (first K, last K, count) of the measured rho(K) scan


def pendulum_half_width(k: float) -> float:
    """Pendulum-approximation island semi-amplitude 2*sqrt(K)."""
    return 2.0 * math.sqrt(check_stochasticity(k))


def island_half_width(k: float, p_res: float) -> float:
    """Measured island semi-amplitude of the integer resonance at ``p_res``.

    Launches just inside the separatrix, ``_WIDTH_OFFSET`` (1e-4) along q
    from the hyperbolic point (0, p_res), and records max |p - p_res| over
    ``_WIDTH_ITERATIONS`` (10 000) lifted steps.  A deviation reaching
    ``_ESCAPE_CAP`` (2*pi) means the orbit left the resonance (overlap
    regime) and raises :class:`WidthMeasurementError` with the trajectory
    diagnostics.
    """
    k = check_stochasticity(k)
    if k == 0.0:
        raise DomainError("island width needs K > 0")
    dev, steps, escaped = _kernels.max_p_deviation(
        _WIDTH_OFFSET, p_res, k, _WIDTH_ITERATIONS, p_res, _ESCAPE_CAP
    )
    if escaped:
        raise WidthMeasurementError(
            f"separatrix orbit escaped the p={p_res:g} resonance at K={k:g} "
            f"after {steps} iterations (deviation {dev:.4g})",
            diagnostics={"K": k, "p_res": p_res, "steps": steps, "deviation": dev,
                         "offset": _WIDTH_OFFSET, "escape_cap": _ESCAPE_CAP},
        )
    return float(dev)


def chirikov_overlap(k: float) -> float:
    """Measured overlap ratio rho(K) = (w0 + w1) / (2*pi); rho = 1 marks overlap."""
    k = check_stochasticity(k)
    if k <= 0.0:
        raise DomainError("overlap ratio needs K > 0")
    w0 = island_half_width(k, 0.0)
    w1 = island_half_width(k, TWO_PI)
    return (w0 + w1) / _RESONANCE_SPACING


def chirikov_kcrit() -> CriterionResult:
    """Overlap threshold from measured widths via the pendulum scaling law.

    Fits w(K) = c*sqrt(K) to the measured semi-amplitudes at the
    ``_FIT_SAMPLES`` (8 geometric K from 0.01 to 0.1, where the separatrix
    layer is negligible) and solves 2*c*sqrt(K) = 2*pi for the overlap
    threshold; c = 2 recovers the pendulum value (pi/2)^2 ~ 2.47.  The raw
    measured rho(K) = 1 crossing, which saturates early once transport
    through broken curves sets in, is scanned separately on
    ``_CROSSING_SCAN`` (11 K from 0.5 to 3.0) and reported in the
    diagnostics for comparison.
    """
    ks = [float(k) for k in _FIT_SAMPLES]
    widths = []
    ratios = []
    for k in ks:
        w = island_half_width(k, 0.0)
        widths.append(w)
        ratios.append(w / pendulum_half_width(k))
    c_fit = float(np.mean([w / math.sqrt(k) for w, k in zip(widths, ks)]))
    k_crit = (math.pi / c_fit) ** 2

    scan_ks = np.linspace(*_CROSSING_SCAN)
    scan_rho = []
    for k in scan_ks:
        try:
            rho = chirikov_overlap(float(k))
        except WidthMeasurementError:
            rho = math.inf
        scan_rho.append(rho)
    measured_crossing = None
    for i in range(1, len(scan_ks)):
        if scan_rho[i] >= 1.0 and scan_rho[i - 1] < 1.0:
            if math.isfinite(scan_rho[i]):
                frac = (1.0 - scan_rho[i - 1]) / (scan_rho[i] - scan_rho[i - 1])
                measured_crossing = float(scan_ks[i - 1] + frac * (scan_ks[i] - scan_ks[i - 1]))
            else:
                measured_crossing = float(scan_ks[i])
            break

    diagnostics = {
        "k_samples": ks,
        "measured_widths": widths,
        "pendulum_widths": [pendulum_half_width(k) for k in ks],
        "width_ratio_to_pendulum": ratios,
        "fitted_coefficient": c_fit,
        "pendulum_crossing": (math.pi / 2.0) ** 2,
        "measured_rho_scan": {"K": [float(k) for k in scan_ks], "rho": scan_rho},
        "measured_crossing": measured_crossing,
    }
    return CriterionResult("chirikov", k_crit, [(0, c_fit)], diagnostics)
