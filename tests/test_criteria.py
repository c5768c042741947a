import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import kamcrit as kc
from kamcrit.errors import (
    DomainError,
    NoInteriorMinimumError,
    WidthMeasurementError,
)

TWO_PI = 2 * math.pi


# --- torus metric and matching -----------------------------------------------

def test_torus_metric_wraps_q_seam():
    eps = 1e-3
    d = kc.torus_distance((math.pi - eps, 1.0), (-math.pi + eps, 1.0))
    assert abs(d - 2 * eps) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    qa=st.floats(-10, 10), pa=st.floats(-10, 10),
    qb=st.floats(-10, 10), pb=st.floats(-10, 10),
)
def test_torus_metric_properties(qa, pa, qb, pb):
    a, b = (qa, pa), (qb, pb)
    d = kc.torus_distance(a, b)
    assert 0.0 <= d <= math.hypot(math.pi, math.pi) + 1e-12
    assert abs(d - kc.torus_distance(b, a)) < 1e-12
    assert kc.torus_distance(a, a) == 0.0
    shifted = (qa + TWO_PI, pa - TWO_PI)
    assert abs(kc.torus_distance(shifted, b) - d) < 1e-9


def test_self_match_is_zero():
    orb = kc.rational_orbit(kc.Convergent(3, 5), 0.6)
    pairs = kc.match_elliptic_points(orb, orb)
    assert [i for i, _, _ in pairs] == list(range(5))
    assert all(d == 0.0 for _, _, d in pairs)


def test_match_period_mismatch_rejected():
    a = kc.rational_orbit(kc.Convergent(1, 2), 0.5)
    b = kc.rational_orbit(kc.Convergent(2, 3), 0.5)
    with pytest.raises(DomainError):
        kc.match_elliptic_points(a, b)


def _exhaustive_min_matching(a, b):
    pa, pb = a.torus_points(), b.torus_points()
    n = a.n
    best = None
    for perm in itertools.permutations(range(n)):
        total = sum(kc.torus_distance(pa[i], pb[perm[i]]) for i in range(n))
        if best is None or total < best[0]:
            best = (total, perm)
    return best


def test_greedy_equals_exhaustive_small_orders():
    for c, k in [(kc.Convergent(1, 2), 0.5), (kc.Convergent(2, 3), 0.3),
                 (kc.Convergent(3, 5), 0.6), (kc.Convergent(5, 8), 0.5)]:
        a = kc.rational_orbit(c, k)
        b = kc.alternate_orbit(c, k)
        pairs = kc.match_elliptic_points(a, b)
        greedy_total = sum(d for _, _, d in pairs)
        best_total, _ = _exhaustive_min_matching(a, b)
        assert abs(greedy_total - best_total) < 1e-9


def test_cyclic_shift_matching_equals_assignment_oracle():
    # scipy's general assignment solver is the oracle for the cyclic-shift search
    from scipy.optimize import linear_sum_assignment

    pairs = []
    for c in kc.fibonacci_convergents(9):  # n = 2 ... 89
        rational, alternate = kc.OrbitBranch(c, kc.FAMILY_RATIONAL), kc.OrbitBranch(c, kc.FAMILY_ALTERNATE)
        for k in (round(0.30 + 0.02 * i, 10) for i in range(51)):
            pairs.append((rational.orbit_at(k), alternate.orbit_at(k)))
    # two cyclic shifts tie here to rounding level (2e-13 in the total)
    c89 = kc.Convergent(55, 89)
    pairs.append(tuple(kc.OrbitBranch(c89, f).orbit_at(0.757615385)
                       for f in (kc.FAMILY_RATIONAL, kc.FAMILY_ALTERNATE)))
    assert len(pairs) == 460
    for a, b in pairs:
        pa, pb = a.torus_points(), b.torus_points()
        dist = np.hypot(kc.mapcore.wrap_angle(pa[:, 0][:, None] - pb[:, 0]),
                        kc.mapcore.wrap_angle(pa[:, 1][:, None] - pb[:, 1]))
        rows, oracle = linear_sum_assignment(dist)
        cols, costs = kc.criteria._assignment(a, b)
        assert cols.tolist() == oracle.tolist(), (a.n, a.K)
        assert costs.min() == dist[rows, oracle].min()
    assert costs.min() == 0.02928456449237047


def _one_block_assignment(a, b):
    """The matching as first specified: all n x n shift-by-point pairs at once."""
    n, pa, pb = a.n, a.torus_points(), b.torus_points()
    ia, ib = np.argsort(pa[:, 0]), np.argsort(pb[:, 0])
    jb = ib[(np.arange(n)[:, None] + np.arange(n)) % n]
    dist = np.hypot(kc.mapcore.wrap_angle(pa[ia, 0] - pb[jb, 0]),
                    kc.mapcore.wrap_angle(pa[ia, 1] - pb[jb, 1]))
    s, back = int(np.argmin(dist.sum(axis=1))), np.argsort(ia)
    return jb[s, back], dist[s, back]


def _orbit_pair(m, n, k):
    c = kc.Convergent(m, n)
    return tuple(kc.OrbitBranch(c, f).orbit_at(k) for f in (kc.FAMILY_RATIONAL, kc.FAMILY_ALTERNATE))


@pytest.mark.parametrize("m, n, k", [(233, 377, 0.4), (233, 377, 0.95), (377, 610, 0.8),
                                     (377, 610, 0.95), (55, 89, 0.757615385)])
def test_blocked_matching_equals_one_block(m, n, k):
    # 377 and 610 take several blocks of shifts; at 89 two shifts nearly tie
    a, b = _orbit_pair(m, n, k)
    cols, costs = kc.criteria._assignment(a, b)
    want_cols, want_costs = _one_block_assignment(a, b)
    assert cols.tolist() == want_cols.tolist()
    assert costs.tobytes() == want_costs.tobytes()


def test_matching_memory_is_linear_in_order():
    # blocks of 2**16 pairs keep this near 3.3 MB; all 610 x 610 pairs at
    # once would take about 15 MB
    a, b = _orbit_pair(377, 610, 0.8)
    tracemalloc.start()
    try:
        kc.criteria._assignment(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_period2_pair_distances_closed_form():
    k = 0.5
    q0 = brentq(lambda q: TWO_PI - 4 * q - k * math.sin(q), 0.1, math.pi - 0.1, xtol=1e-14)
    y_pts = [(q0, 2 * q0), (TWO_PI - q0, TWO_PI - 2 * q0)]
    i_pts = [(0.0, math.pi), (math.pi, math.pi)]
    expected = sorted(
        min(kc.torus_distance(ip, yp) for yp in y_pts) for ip in i_pts
    )
    a = kc.rational_orbit(kc.Convergent(1, 2), k)
    b = kc.alternate_orbit(kc.Convergent(1, 2), k)
    pairs = kc.match_elliptic_points(a, b)
    assert len(pairs) == 2
    got = sorted(d for _, _, d in pairs)
    np.testing.assert_allclose(got, expected, atol=1e-9)
    assert abs(min(got) - expected[0]) < 1e-9


# --- distance curves -----------------------------------------------------------

def test_nch_distance_integrable_limit():
    # at K -> 0 the families sit on p = 2*pi*m/n, offset only in q
    k = 1e-3
    got = kc.nch_distance_curve(kc.Convergent(2, 3), [k, 2 * k, 3 * k]).samples[0][1]
    i_line = kc.rational_orbit(kc.Convergent(2, 3), k).line
    y_line = kc.alternate_orbit(kc.Convergent(2, 3), k).line
    q_i = 0.0 if i_line == kc.LINE_Q0 else math.pi
    p0 = TWO_PI * 2 / 3
    q_y = p0 / 2 if y_line == kc.LINE_DIAG else p0 / 2 + math.pi
    comb = [abs(float(kc.mapcore.wrap_angle(q_i - q_y + TWO_PI * j / 3))) for j in range(3)]
    assert abs(got - min(comb)) < 5e-3


def test_distance_curve_validation():
    with pytest.raises(DomainError):
        kc.DistanceCurve(2, [(0.1, 1.0), (0.2, 0.9)])
    with pytest.raises(DomainError):
        kc.DistanceCurve(2, [(0.1, 1.0), (0.1, 0.9), (0.2, 0.8)])
    with pytest.raises(DomainError):
        kc.DistanceCurve(2, [(0.1, 1.0), (0.2, -0.9), (0.3, 0.8)])


def test_nch_interior_minimum_mechanism_period2():
    # the period-2 distance curve genuinely turns around near K ~ 1.3
    grid = [round(1.0 + 0.05 * i, 10) for i in range(13)]  # 1.0 .. 1.6
    res = kc.nch_kcrit(1, grid)
    assert res.method == "nch"
    (n, k_min), = res.per_n
    assert n == 2
    assert 1.2 < k_min < 1.45
    assert res.diagnostics["no_interior_minimum"] == []


def test_nch_degenerate_grid_errors():
    grid = [0.02, 0.04, 0.06, 0.08, 0.10]
    with pytest.raises(NoInteriorMinimumError):
        kc.nch_kcrit(1, grid)


def test_nch_grid_validation():
    with pytest.raises(DomainError):
        kc.nch_kcrit(1, [0.8, 0.9, 1.0])
    with pytest.raises(DomainError):
        kc.nch_kcrit(1, [0.8, 0.7, 0.9, 1.0, 1.1])


# --- Aitken ---------------------------------------------------------------------

def test_aitken_exact_on_geometric_sequence():
    seq = [1.0 + 0.5**j for j in range(1, 6)]
    value, accelerated = kc.aitken_extrapolate(seq)
    assert accelerated
    assert abs(value - 1.0) < 1e-12


def test_aitken_fallback_short():
    value, accelerated = kc.aitken_extrapolate([2.0])
    assert value == 2.0 and not accelerated


def test_aitken_fallback_degenerate_denominator():
    value, accelerated = kc.aitken_extrapolate([1.0, 1.0, 1.0])
    assert value == 1.0 and not accelerated


# --- Greene criterion ------------------------------------------------------------

def test_greene_single_order_degenerate():
    res = kc.greene_kcrit(depth=1)
    assert abs(res.k_crit - 2.0) <= 1e-5
    assert res.per_n == [(2, pytest.approx(2.0, abs=1e-5))]
    assert "degenerate" in res.diagnostics["extrapolation"]


def test_greene_partial_failures_recorded(monkeypatch):
    # the 1/2 orbit destabilizes at 2, beyond this walk's ceiling; the 2/3
    # orbit (threshold 1.5175) still succeeds and carries the estimate
    monkeypatch.setattr(kc.stability, "_K_MAX", 1.75)
    res = kc.greene_kcrit(depth=2)
    assert [n for n, _ in res.per_n] == [3]
    assert abs(res.k_crit - 1.5175) <= 1e-4
    assert [f["n"] for f in res.diagnostics["failures"]] == [2]


def test_greene_records_closure_refusal(monkeypatch):
    # an orbit the monodromy refuses (closure 1e-6 > 1e-9) fails its order,
    # not the whole estimate
    real = kc.OrbitBranch.orbit_at

    def loose(self, k):
        orbit = real(self, k)
        return replace(orbit, closure_error=1e-6) if self.convergent.n == 3 else orbit

    monkeypatch.setattr(kc.OrbitBranch, "orbit_at", loose)
    res = kc.greene_kcrit(depth=5)
    assert [n for n, _ in res.per_n] == [2, 5, 8, 13]
    [failure] = res.diagnostics["failures"]
    assert failure["n"] == 3 and "closure" in failure["error"]


def test_greene_result_serializes():
    res = kc.greene_kcrit(depth=2)
    rec = res.to_record()
    assert rec["method"] == "greene"
    assert len(rec["per_n"]) == 2
    csv_text = res.per_n_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "method,n,K_or_stat,value"
    assert lines[1].startswith("greene,2,K_star,")


def test_distance_curve_serializes():
    curve = kc.DistanceCurve(2, [(0.1, 1.0), (0.2, 0.9), (0.3, 0.95)])
    rec = curve.to_record()
    assert rec["n"] == 2 and len(rec["samples"]) == 3


# --- Chirikov ----------------------------------------------------------------------

def test_island_width_small_k_pendulum():
    for k in (0.01, 0.04, 0.1):
        w = kc.island_half_width(k, 0.0)
        assert abs(w - kc.pendulum_half_width(k)) <= 0.15 * kc.pendulum_half_width(k)


def test_overlap_ratio_example():
    rho = kc.chirikov_overlap(0.04)
    assert abs(rho - 4 * math.sqrt(0.04) / TWO_PI) <= 0.15 * 0.127


def test_overlap_vanishes_small_k():
    assert kc.chirikov_overlap(1e-4) < 0.02


def test_overlap_requires_positive_k():
    with pytest.raises(DomainError):
        kc.chirikov_overlap(0.0)


def test_width_escape_error():
    with pytest.raises(WidthMeasurementError) as err:
        kc.island_half_width(5.0, 0.0)
    assert err.value.diagnostics["K"] == 5.0


def test_resonance_translates_have_equal_width():
    # equal in exact arithmetic; fp argument reduction separates the chaotic
    # trajectories after a few thousand steps, so compare to 0.1%
    w0 = kc.island_half_width(0.3, 0.0)
    w1 = kc.island_half_width(0.3, TWO_PI)
    assert abs(w0 - w1) < 1e-3 * w0


def test_chirikov_kcrit_band():
    res = kc.chirikov_kcrit()
    assert abs(res.k_crit - (math.pi / 2) ** 2) <= 0.25
    assert res.diagnostics["measured_crossing"] is not None
    assert 0.9 < res.diagnostics["measured_crossing"] < (math.pi / 2) ** 2


def test_criterion_result_validation():
    with pytest.raises(DomainError):
        kc.CriterionResult("greene", 1.0, [])
    with pytest.raises(DomainError):
        kc.CriterionResult("greene", -1.0, [(2, 2.0)])
    with pytest.raises(DomainError):
        kc.CriterionResult("greene", 1.0, [(2, math.nan)])


def test_greene_counts_residue_evaluations():
    res = kc.greene_kcrit(depth=3)
    evals = res.diagnostics["residue_evals"]
    assert sorted(evals) == [n for n, _ in res.per_n] == [2, 3, 5]
    for c in kc.fibonacci_convergents(3):
        assert evals[c.n] == len(kc.find_destabilization(c)[1]["samples"])


def test_greene_matches_benchmark_reference():
    # the benchmark's output check, run here so that drift from its recorded
    # reference (read only) shows before a benchmark run fails on it
    ref = json.loads((Path(__file__).resolve().parents[1] / "kcbench" / "reference.json").read_text())
    res = kc.greene_kcrit(depth=11)
    assert [n for n, _ in res.per_n] == [c.n for c in kc.fibonacci_convergents(11)]
    for n, k_star in res.per_n:
        assert abs(k_star - ref["greene"]["per_n"][str(n)]) <= 2e-6, n
    want = ref["greene"]["k_crit"]["11"]
    assert abs(res.k_crit - want) <= 2e-5 * abs(want)


# K*(n) and K_crit of greene_kcrit(depth=13), recorded as float.hex with the
# orbits solved as deviations from the K = 0 circle
_GREENE13_PER_N = [
    (2, "0x1.0000000000000p+1"), (3, "0x1.847e093f0156fp+0"), (5, "0x1.491c0d6010b63p+0"),
    (8, "0x1.25fde911adf73p+0"), (13, "0x1.1438fe9943282p+0"), (21, "0x1.09050329cea62p+0"),
    (34, "0x1.02b66632282b8p+0"), (55, "0x1.fd8f21a74ea60p-1"), (89, "0x1.f8e48268a8ccbp-1"),
    (144, "0x1.f6020b2419f76p-1"), (233, "0x1.f4427163656b7p-1"), (377, "0x1.f32ed2e7cdb5ap-1"),
    (610, "0x1.f2865e5a48940p-1"),
]
_GREENE13_K_CRIT = "0x1.f17d910c1e430p-1"


def test_greene_depth13_bits_are_pinned():
    res = kc.greene_kcrit(depth=13)
    assert [(n, k.hex()) for n, k in res.per_n] == _GREENE13_PER_N
    assert res.k_crit.hex() == _GREENE13_K_CRIT


def test_k_grid_rule():
    assert kc.criteria.check_k_grid([0.8, 0.9, 1, 1.1, 1.2]) == [0.8, 0.9, 1.0, 1.1, 1.2]
    for grid, message in [([], "at least 5 points"), ([0.8, 0.9], "at least 5 points"),
                          ([0.8, 0.9, 0.9, 1.0, 1.1], "strictly increasing"),
                          ([0.8, 1.0, 0.9, 1.1, 1.2], "strictly increasing")]:
        with pytest.raises(DomainError, match=message):
            kc.criteria.check_k_grid(grid)
        with pytest.raises(DomainError, match=message):
            kc.nch_kcrit(1, grid)
