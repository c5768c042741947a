import functools
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

import kamcrit as kc
from kamcrit.errors import ContinuationError, DomainError, RefinementError
from kamcrit.orbits import closure_residual

TWO_PI = 2 * math.pi


# --- convergents --------------------------------------------------------------

def test_fibonacci_sequence_start():
    cs = kc.fibonacci_convergents(3)
    assert [(c.m, c.n) for c in cs] == [(1, 2), (2, 3), (3, 5)]


def test_fibonacci_depth_anchors():
    assert kc.fibonacci_convergents(8)[-1].n == 55
    assert kc.fibonacci_convergents(9)[-1].n == 89
    assert kc.fibonacci_convergents(10)[-1].n == 144


def test_convergent_identities():
    cs = kc.fibonacci_convergents(12)
    for a, b in zip(cs, cs[1:]):
        assert abs(b.m * a.n - a.m * b.n) == 1
    for c in cs:
        assert abs(c.winding - kc.GOLDEN_MEAN) <= 1.0 / c.n**2
        assert math.gcd(c.m, c.n) == 1


def test_convergent_validation():
    with pytest.raises(DomainError):
        kc.Convergent(2, 4)
    with pytest.raises(DomainError):
        kc.Convergent(3, 2)
    with pytest.raises(DomainError):
        kc.Convergent(0, 3)
    assert kc.Convergent(0, 1).winding == 0.0


# --- winding numbers ----------------------------------------------------------

def test_winding_integrable_rational():
    w = kc.winding_number((0.0, TWO_PI * 3 / 5), 0.0, 1000)
    assert abs(w - 0.6) < 1e-12


def test_winding_integrable_golden():
    w = kc.winding_number((0.0, TWO_PI * kc.GOLDEN_MEAN), 0.0, 100_000)
    assert abs(w - kc.GOLDEN_MEAN) < 1e-5


def test_winding_on_period2_orbit():
    orb = kc.rational_orbit(kc.Convergent(1, 2), 0.5)
    w = kc.winding_number(tuple(orb.points[0]), 0.5, 2_000_000)
    assert abs(w - 0.5) < 1e-9


# --- find_periodic_orbit -------------------------------------------------------

def test_period2_closed_form_on_q0():
    orb = kc.find_periodic_orbit(kc.Convergent(1, 2), 0.5, kc.LINE_Q0)
    np.testing.assert_allclose(orb.points, [[0, math.pi], [math.pi, math.pi]], atol=1e-12)
    assert orb.closure_error <= 1e-11


def test_fixed_points_returned_verbatim():
    c = kc.Convergent(0, 1)
    for k in (0.0, 0.7, 3.0):
        o0 = kc.find_periodic_orbit(c, k, kc.LINE_Q0)
        opi = kc.find_periodic_orbit(c, k, kc.LINE_QPI)
        assert tuple(o0.points[0]) == (0.0, 0.0)
        assert tuple(opi.points[0]) == (math.pi, 0.0)


def test_period2_diagonal_branch_closed_form():
    # on q = p/2 the period-2 seed solves 2*pi - 4*q0 = K*sin(q0), p0 = 2*q0
    k = 0.5
    q0 = brentq(lambda q: TWO_PI - 4 * q - k * math.sin(q), 0.1, math.pi - 0.1, xtol=1e-14)
    orb = kc.find_periodic_orbit(kc.Convergent(1, 2), k, kc.LINE_DIAG)
    assert abs(orb.points[0, 0] - q0) < 1e-10
    assert abs(orb.points[0, 1] - 2 * q0) < 1e-10


def test_orbit_invariants_points_are_iterates():
    orb = kc.find_periodic_orbit(kc.Convergent(2, 3), 0.8, kc.LINE_Q0)
    for i in range(orb.n - 1):
        nxt = kc.step_standard(tuple(orb.points[i]), 0.8)
        assert abs(nxt.q - orb.points[i + 1, 0]) < 1e-10
        assert abs(nxt.p - orb.points[i + 1, 1]) < 1e-10
    last = kc.step_standard(tuple(orb.points[-1]), 0.8)
    assert abs(last.q - orb.points[0, 0] - TWO_PI * orb.m) < 1e-9
    assert abs(last.p - orb.points[0, 1]) < 1e-9


def test_find_periodic_orbit_is_the_branch_orbit():
    # one way to an orbit: the K = 0 circle carried upward.  8/13 on q=0 at
    # K = 6 has R ~ -1.4e10: one shot of 13 steps from its first point
    # misses by 2.7e-5, while every single-step defect stays at rounding
    cases = [(kc.Convergent(8, 13), 6.0, kc.LINE_Q0), (kc.Convergent(0, 1), 0.7, kc.LINE_DIAG_PI)]
    cases += [(c, k, line) for c in kc.fibonacci_convergents(4) for k in (0.0, 0.9)
              for line in kc.orbits.ALL_LINES]
    for c, k, line in cases:
        got = kc.find_periodic_orbit(c, k, line)
        want = kc.OrbitBranch(c, line=line).orbit_at(k)
        assert got.points.tobytes() == want.points.tobytes()
        assert (got.K, got.family, got.line, got.closure_error) == (k, want.family, line, want.closure_error)
    deep = kc.find_periodic_orbit(kc.Convergent(8, 13), 6.0, kc.LINE_Q0)
    assert deep.closure_error <= 1e-12
    assert kc.residue(kc.monodromy(deep)) < -1e9


def test_find_periodic_orbit_rejects_unknown_family_and_line():
    with pytest.raises(DomainError):
        kc.find_periodic_orbit(kc.Convergent(2, 3), 0.5, kc.LINE_QPI, family="bogus")
    with pytest.raises(DomainError):
        kc.find_periodic_orbit(kc.Convergent(2, 3), 0.5, "none")
    alt = kc.find_periodic_orbit(kc.Convergent(2, 3), 0.5, kc.LINE_DIAG, family=kc.FAMILY_ALTERNATE)
    assert alt.family == kc.FAMILY_ALTERNATE


# --- in-module Brent root finder ---------------------------------------------------

def _agrees_with_scipy(f, a, b, xtol, rtol):
    ours = kc.orbits.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=200)
    ref = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=200)
    return abs(ours - ref) <= xtol + rtol * abs(ref)


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (2, 5), (3, 5), (3, 8), (8, 13), (21, 34), (55, 89)])
def test_brentq_matches_scipy_on_line_residual(m, n):
    # log R of the orbit on the rational family's line, on the bracket the
    # threshold walk hands to Brent; a fresh branch per K keeps f a pure
    # function of K, so both solvers see the same values
    c = kc.Convergent(m, n)
    _, info = kc.find_destabilization(c)

    def log_residue(k):
        return math.log(kc.residue(kc.monodromy(kc.OrbitBranch(c).orbit_at(k))))

    assert _agrees_with_scipy(log_residue, *info["bracket"], 1e-12, kc.orbits._BRENTQ_RTOL)


def test_brentq_matches_scipy_on_textbook_functions():
    rtol = kc.orbits._BRENTQ_RTOL
    assert _agrees_with_scipy(lambda x: x**3 - 2 * x - 5, 2.0, 3.0, 2e-12, rtol)
    assert _agrees_with_scipy(lambda x: math.cos(x) - x, 0.0, 1.0, 1e-14, rtol)
    assert abs(kc.orbits.brentq(lambda x: x**3 - 2 * x - 5, 2.0, 3.0) - 2.0945514815423265) < 1e-12


def test_brentq_rejects_same_sign_interval():
    with pytest.raises(ValueError):
        kc.orbits.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


# --- refine_newton -------------------------------------------------------------

def test_refine_exact_orbit_is_identity():
    orb = kc.find_periodic_orbit(kc.Convergent(1, 2), 0.5, kc.LINE_Q0)
    assert kc.refine_newton(orb) is orb


def test_refine_recovers_perturbed_orbit():
    orb = kc.find_periodic_orbit(kc.Convergent(1, 2), 0.5, kc.LINE_Q0)
    shift = np.array([[1e-4, 1e-4], [0.0, 0.0]])  # moves row 0 alike in the frame and on the lift
    pts = orb.points + shift
    rough = replace(orb, deviations=orb.deviations + shift,
                    closure_error=max(abs(r) for r in closure_residual(pts[0, 0], pts[0, 1], 1, 2, 0.5)))
    fixed = kc.refine_newton(rough, tol=1e-13)
    np.testing.assert_allclose(fixed.points, [[0, math.pi], [math.pi, math.pi]], atol=1e-11)
    assert fixed.closure_error <= 1e-13


def test_refine_k0_seed_is_exact():
    orb = kc.find_periodic_orbit(kc.Convergent(3, 5), 0.0, kc.LINE_Q0)
    assert orb.closure_error <= 1e-12
    assert kc.refine_newton(orb) is orb


# --- symmetric-half Newton --------------------------------------------------------

def _mirror_defect(o):
    """Largest deviation from the reversor mirror of the orbit's line:
    q_{n-i} = 2c + 2*pi*m - q_i on q=c, q_{n-1-i} = 2c + 2*pi*m - q_i on q=p/2+c."""
    q, n = o.points[:, 0], o.n
    c = 0.0 if o.line in (kc.LINE_Q0, kc.LINE_DIAG) else math.pi
    j = n - np.arange(n) - (0 if o.line in kc.RATIONAL_LINES else 1)
    mirrored = q[j % n] + TWO_PI * o.m * (j // n)
    return float(np.abs(mirrored - (2 * c + TWO_PI * o.m - q)).max())


def _line_search_orbit(m, n, k, line):
    """Independent oracle: a symmetry-line search written directly against
    the map equations (no kamcrit internals).  Each sign change of the lifted
    q-closure over p in [0, 2*pi) is solved by scipy's brentq; of the roots
    that also close in p to 1e-6, the one whose p lies closest to 2*pi*m/n
    gives the orbit, as n iterates of its line point."""
    c = 0.0 if line in (kc.LINE_Q0, kc.LINE_DIAG) else math.pi
    slope = 0.5 if line in kc.ALTERNATE_LINES else 0.0

    def iterates(p):
        q = c + slope * p
        out = [(q, p)]
        for _ in range(n):
            p = p + k * np.sin(q)
            q = q + p
            out.append((q, p))
        return out

    def q_closure(p):
        pts = iterates(p)
        return pts[-1][0] - pts[0][0] - TWO_PI * m

    ps = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    g = q_closure(ps)
    flips = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
    orbits = []
    for i in flips:
        pts = np.array(iterates(brentq(q_closure, ps[i], ps[i + 1], xtol=1e-14, maxiter=200)))
        if abs(pts[-1, 0] - pts[0, 0] - TWO_PI * m) <= 1e-6 and abs(pts[-1, 1] - pts[0, 1]) <= 1e-6:
            orbits.append(pts[:-1])
    return min(orbits, key=lambda pts: abs(pts[0, 1] - TWO_PI * m / n))


_LINE_ORDERS = [(line, n) for line in kc.orbits.ALL_LINES for n in (3, 5, 8, 13, 21, 34)]


@pytest.mark.parametrize("line, n", _LINE_ORDERS, ids=[f"{ln}-{n}" for ln, n in _LINE_ORDERS])
def test_branch_newton_matches_line_search(line, n):
    c = next(c for c in kc.fibonacci_convergents(8) if c.n == n)
    branch = kc.OrbitBranch(c, line=line)
    for k in (0.3, 0.9):
        o = branch.orbit_at(k)
        np.testing.assert_allclose(o.points, _line_search_orbit(c.m, c.n, k, line),
                                   rtol=0, atol=1e-10)
        assert _mirror_defect(o) <= 1e-12 * np.abs(o.points[:, 0]).max()
        assert o.closure_error <= 1e-12


def test_branch_residue_closed_forms():
    fixed = kc.OrbitBranch(kc.Convergent(0, 1), line=kc.LINE_QPI)
    half = kc.OrbitBranch(kc.Convergent(1, 2))
    for k in (0.3, 1.1, 1.9):
        assert abs(kc.residue(kc.monodromy(fixed.orbit_at(k))) - k / 4) <= 1e-12
        assert abs(kc.residue(kc.monodromy(half.orbit_at(k))) - k * k / 4) <= 1e-10


# --- bit identity with the full-orbit assembly -----------------------------------
#
# Reference copy of the earlier Newton assembly, in the frame of the K = 0
# circle: every iteration rebuilds all n deviations with np.append, takes the
# periodic residual over all of them and slices out the half; the orbit is
# rebuilt with np.diff and column_stack.  The solver works on the half's own
# unknowns and must give the same bits.

def _ref_phase(m, n):
    return TWO_PI * (np.arange(n) * m % n) / n


def _ref_step_defect(d, m, k):
    u, v = d[:, 0], d[:, 1]
    v1 = v + k * np.sin(u + _ref_phase(m, len(u)))
    du = np.append(u[1:], u[0]) - (u + v1)
    dv = np.append(v[1:], v[0]) - v1
    return float(max(np.abs(du).max(), np.abs(dv).max()))


def _ref_el_residual(u, m, k):
    return np.append(u[1:], u[0]) - 2.0 * u + np.append(u[-1], u[:-1]) - k * np.sin(u + _ref_phase(m, len(u)))


def _ref_newton(x, assemble, solve, tol, max_iter):
    for _ in range(max_iter):
        u, e, diag = assemble(x)
        if kc.orbits._sup(e) <= tol:
            return u.copy()
        try:
            x = x - np.array(solve(diag.tolist(), e.tolist()))
        except ZeroDivisionError as exc:
            raise RefinementError("singular") from exc
    raise RefinementError("no convergence")


def _ref_orbit_from_deviations(u, like, k):
    d = np.column_stack([u, np.diff(u, prepend=u[-1])])
    return replace(like, deviations=d, K=k, closure_error=_ref_step_defect(d, like.m, k))


def _ref_solve_symmetric(guess, k, tol=1e-12, max_iter=12, x0=None):
    m, n = guess.m, guess.n
    a, first, h, pinned, fold, _ = kc.orbits._half_layout(guess.line, m, n)
    phase = _ref_phase(m, n)[first:first + h]
    u = np.empty(n)
    u[0] = 0.5 * a
    if pinned:
        u[first + h] = 0.5 * a

    def assemble(x):
        u[first:first + h] = x
        u[n - h:] = (a - x)[::-1]
        return u, _ref_el_residual(u, m, k)[first:first + h], -2.0 - k * np.cos(x + phase) + fold

    if x0 is None:
        x0 = np.array(guess.deviations[first:first + h, 0], dtype=float)
    u = _ref_newton(x0, assemble, kc.orbits._thomas, tol, max_iter)
    return _ref_orbit_from_deviations(u, guess, k)


def _ref_continuation_step(prev, k):
    _, first, h, _, fold, _ = kc.orbits._half_layout(prev.line, prev.m, prev.n)
    x = prev.deviations[first:first + h, 0]
    phase = _ref_phase(prev.m, prev.n)[first:first + h]
    t = np.array(kc.orbits._thomas((-2.0 - prev.K * np.cos(x + phase) + fold).tolist(),
                                   np.sin(x + phase).tolist())) if h else x
    x_pred = x + (k - prev.K) * t
    try:
        nxt = _ref_solve_symmetric(prev, k, x0=x_pred)
    except RefinementError:
        return None
    x_new = nxt.deviations[first:first + h, 0]
    sup = kc.orbits._sup
    return nxt if sup(x_new - x_pred) <= kc.orbits._GUARD_RATIO * sup(x_pred - x) else None


def _ref_refine_newton(orbit, tol=1e-11, max_iter=30):
    if _ref_step_defect(orbit.deviations, orbit.m, orbit.K) <= tol:
        return orbit
    return _ref_solve_symmetric(orbit, orbit.K, tol, max_iter)


def _outcome(solve, orbit):
    """(deviations bytes, closure_error, ...) of ``solve(orbit)``, or None when it is refused."""
    try:
        got = solve(orbit)
    except RefinementError:
        return None
    return None if got is None else (got.deviations.tobytes(), got.closure_error, got.K, got.line, got.family)


_BIT_ORDERS = [c for c in kc.fibonacci_convergents(12) if c.n in (2, 3, 5, 8, 13, 55, 233)]
_BIT_STEPS = ((0.3, 0.5), (0.9, 0.95), (1.0, 1.05))
# at n = 1597 the lift reaches q = 6300, where one ulp of q exceeds 1e-12;
# its deviations stay O(1), so the half Newton meets the same absolute
# tolerance there as at every shallower order
_BIT_CASES = [(c, _BIT_STEPS) for c in _BIT_ORDERS] + [(kc.Convergent(987, 1597), _BIT_STEPS[:1])]


@pytest.mark.parametrize("line", kc.orbits.ALL_LINES)
def test_half_newton_is_bit_identical_to_full_orbit_assembly(line):
    accepted = 0
    for c, steps in _BIT_CASES:
        for family in (kc.FAMILY_RATIONAL, kc.FAMILY_ALTERNATE):
            branch = kc.OrbitBranch(c, family, line=line)
            for k0, k1 in steps:
                prev = branch.orbit_at(k0)
                got = _outcome(lambda o: kc.orbits._continuation_step(o, k1), prev)
                assert got == _outcome(lambda o: _ref_continuation_step(o, k1), prev), (c, family, k0)
                accepted += got is not None
                # Newton from the old angles at the new K
                rough = replace(prev, K=k1)
                assert _outcome(kc.refine_newton, rough) == _outcome(_ref_refine_newton, rough)
    assert accepted >= 0.9 * 2 * sum(len(steps) for _, steps in _BIT_CASES)


def test_refinement_of_fixed_points_and_free_orbits_is_bit_identical():
    # n = 1: the unified defect and the one-angle Newton on every line
    for line in kc.orbits.ALL_LINES:
        orb = kc.find_periodic_orbit(kc.Convergent(0, 1), 0.7, line)
        rough = replace(orb, deviations=orb.deviations + 1e-3)
        assert _outcome(kc.refine_newton, rough) == _outcome(_ref_refine_newton, rough)


def test_half_layout_is_decided_once_and_read_only():
    # every orbit of m/n on a line shares one layout, so no solve may write to its arrays
    layout = kc.orbits._half_layout(kc.LINE_DIAG, 5, 8)
    assert kc.orbits._half_layout(kc.LINE_DIAG, 5, 8) is layout
    fold, phase = layout[4], layout[5]
    assert not fold.flags.writeable and not phase.flags.writeable
    np.testing.assert_array_equal(fold, [-1.0, 0.0, 0.0, -1.0])


def _thomas_two_pass(diag, rhs):
    """The Thomas solve as it was written before the one-pass sweep."""
    n = len(diag)
    cp = [1.0 / diag[0]] + [0.0] * (n - 1)
    x = [rhs[0] * cp[0]] + [0.0] * (n - 1)
    for i in range(1, n):
        cp[i] = 1.0 / (diag[i] - cp[i - 1])
        x[i] = (rhs[i] - x[i - 1]) * cp[i]
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


def _solve_or_zero_pivot(solve, diag, rhs):
    try:
        return solve(diag, rhs)
    except ZeroDivisionError:
        return "zero pivot"


def test_one_pass_thomas_is_bit_identical_to_two_pass():
    rng = np.random.default_rng(11)
    cases = []
    for n in (1, 2, 3, 6, 50, 305, 1000):
        for scale in (1.0, 1e-8):
            diag = (-2.0 - scale * rng.uniform(-1.0, 1.0, n)).tolist()
            cases.append((diag, rng.standard_normal(n).tolist()))
    # exact zero pivots: on the first row, and on a later row (2 - 1/2 - 3/2 = 0)
    cases += [([0.0, -2.0, -2.0], [1.0, 2.0, 3.0]), ([-0.0], [1.0]),
              ([2.0, 0.5, -3.0], [1.0, -1.0, 0.5]), ([-2.0, -0.5, -2.0], [0.0, -0.0, 1.0])]
    outcomes = []
    for diag, rhs in cases:
        got = _solve_or_zero_pivot(kc.orbits._thomas, diag, rhs)
        assert got == _solve_or_zero_pivot(_thomas_two_pass, diag, rhs), (len(diag), diag[:3])
        outcomes.append(got)
    assert outcomes.count("zero pivot") == 4


def test_tangent_is_solved_once_per_orbit(monkeypatch):
    tangents = []
    real = kc.orbits._thomas

    def counting(diag, rhs):
        # Newton solves come from _solve_symmetric; the tangent predictor solves in the step itself
        if sys._getframe(1).f_code.co_name == "_continuation_step":
            tangents.append(len(diag))
        return real(diag, rhs)

    start = kc.OrbitBranch(kc.Convergent(233, 377)).orbit_at(0.875)
    monkeypatch.setattr(kc.orbits, "_thomas", counting)
    assert kc.orbits._continuation_step(start, 1.0) is None  # refused by the guard
    retried = kc.orbits._continuation_step(start, 0.9375)  # the halved retry
    assert retried is not None and kc.orbits._continuation_step(start, 0.9) is not None  # a second probe
    assert tangents == [188]
    # a copy made with replace carries no tangent: it solves its own, with equal bits
    copy = replace(start)
    again = kc.orbits._continuation_step(copy, 0.9375)
    assert tangents == [188, 188]
    assert copy._tangent.tobytes() == start._tangent.tobytes()
    assert again.points.tobytes() == retried.points.tobytes()
    assert again.closure_error == retried.closure_error
    # an orbit that steps on solves its own tangent at its own K
    kc.orbits._continuation_step(retried, 0.95)
    assert tangents == [188, 188, 188]


# --- families -----------------------------------------------------------------

def test_rational_iterates_small_depth():
    orbits = [kc.rational_orbit(c, 0.5) for c in kc.fibonacci_convergents(3)]
    assert all(isinstance(o, kc.PeriodicOrbit) for o in orbits)
    assert [(o.m, o.n) for o in orbits] == [(1, 2), (2, 3), (3, 5)]
    for o in orbits:
        assert o.closure_error <= 1e-9
        assert o.family == kc.FAMILY_RATIONAL
        assert o.line in kc.RATIONAL_LINES


def test_rational_iterates_integrable_limit():
    for o in (kc.rational_orbit(c, 0.0) for c in kc.fibonacci_convergents(5)):
        np.testing.assert_allclose(o.points[:, 1], TWO_PI * o.m / o.n, atol=1e-12)


def test_rational_iterates_exist_past_transition():
    for o in (kc.rational_orbit(c, 0.9716) for c in kc.fibonacci_convergents(7)):
        assert isinstance(o, kc.PeriodicOrbit)
        assert o.closure_error <= 1e-9


def test_alternate_distinct_from_rational():
    orbits = [kc.alternate_orbit(c, 0.5) for c in kc.fibonacci_convergents(1)]
    assert len(orbits) == 1
    y = orbits[0]
    assert y.n == 2
    assert y.line in kc.ALTERNATE_LINES
    assert y.family == kc.FAMILY_ALTERNATE
    i = kc.rational_orbit(kc.Convergent(1, 2), 0.5)
    sep = min(
        kc.torus_distance(a, b)
        for a in i.torus_points()
        for b in y.torus_points()
    )
    assert sep > 1e-3


def test_alternate_period2_solved_from_its_scalar_equation():
    # one unknown on q=p/2+c: a bracketed root at any K, not a walk up from K = 0
    c = kc.Convergent(1, 2)
    start = time.perf_counter()
    far = kc.OrbitBranch(c, kc.FAMILY_ALTERNATE).orbit_at(1e6)
    assert time.perf_counter() - start < 1.0
    assert far.closure_error <= 1e-9
    for line in kc.ALTERNATE_LINES:
        seed = kc.find_periodic_orbit(c, 0.0, line, family=kc.FAMILY_ALTERNATE)
        for k in (3000.0, 1e6):  # near 2 pi no Newton reaches 1e-12 there: the root is the orbit
            assert kc.continue_in_K(seed, k).closure_error <= 1e-9, (line, k)
    for line in kc.ALTERNATE_LINES:
        seed = kc.find_periodic_orbit(c, 0.0, line, family=kc.FAMILY_ALTERNATE)
        for k in (0.5, 3.0, 50.0):
            walked = list(kc.orbits._steps(seed, k))[-1]
            got = kc.continue_in_K(seed, k)
            assert np.abs(got.points[:, 0] - walked.points[:, 0]).max() <= 1e-12, (line, k)


def test_alternate_integrable_limit_degenerate_in_p():
    k = 1e-4
    for o in (kc.alternate_orbit(c, k) for c in kc.fibonacci_convergents(2)):
        np.testing.assert_allclose(o.points[:, 1], TWO_PI * o.m / o.n, atol=5e-4)


def test_alternate_windings_match_convergents():
    # one exact period: the winding defect is the closure error / (2*pi*n);
    # longer runs amplify it through the partner orbit's positive Lyapunov
    orbits = [kc.alternate_orbit(c, 0.4) for c in kc.fibonacci_convergents(3)]
    assert [(o.m, o.n) for o in orbits] == [(1, 2), (2, 3), (3, 5)]
    for o in orbits:
        w = kc.winding_number(tuple(o.points[0]), 0.4, o.n)
        assert abs(w - o.m / o.n) < 1e-12


def test_families_distinct_torus_positions():
    for depth_c in kc.fibonacci_convergents(3):
        i = kc.rational_orbit(depth_c, 0.5)
        y = kc.alternate_orbit(depth_c, 0.5)
        sep = min(
            kc.torus_distance(a, b)
            for a in i.torus_points()
            for b in y.torus_points()
        )
        assert sep >= 1e-6


# --- symmetry-line rule ---------------------------------------------------------

# (m, n, rational line, alternate line) at every Fibonacci order up to 610:
# rational q=0 for even n, else q=pi; alternate q=p/2 when m or n is even,
# else q=p/2+pi.  Every row matches the residue-sign line selection this
# rule replaced.
_LINE_RULE = [
    (0, 1, kc.LINE_QPI, kc.LINE_DIAG),
    (1, 2, kc.LINE_Q0, kc.LINE_DIAG),
    (2, 3, kc.LINE_QPI, kc.LINE_DIAG),
    (3, 5, kc.LINE_QPI, kc.LINE_DIAG_PI),
    (5, 8, kc.LINE_Q0, kc.LINE_DIAG),
    (8, 13, kc.LINE_QPI, kc.LINE_DIAG),
    (13, 21, kc.LINE_QPI, kc.LINE_DIAG_PI),
    (21, 34, kc.LINE_Q0, kc.LINE_DIAG),
    (34, 55, kc.LINE_QPI, kc.LINE_DIAG),
    (55, 89, kc.LINE_QPI, kc.LINE_DIAG_PI),
    (89, 144, kc.LINE_Q0, kc.LINE_DIAG),
    (144, 233, kc.LINE_QPI, kc.LINE_DIAG),
    (233, 377, kc.LINE_QPI, kc.LINE_DIAG_PI),
    (377, 610, kc.LINE_Q0, kc.LINE_DIAG),
]


@pytest.mark.parametrize("m, n, rational_line, alternate_line", _LINE_RULE,
                         ids=[f"{m}/{n}" for m, n, _, _ in _LINE_RULE])
def test_symmetry_line_rule(m, n, rational_line, alternate_line):
    c = kc.Convergent(m, n)
    k = 0.97  # below every K*(n) up to n = 987
    rational = kc.OrbitBranch(c, kc.FAMILY_RATIONAL)
    alternate = kc.OrbitBranch(c, kc.FAMILY_ALTERNATE)
    assert (rational.line, alternate.line) == (rational_line, alternate_line)

    i = rational.orbit_at(k)
    assert 0.0 < kc.residue(kc.monodromy(i)) < 1.0
    if n % 2:
        # odd orders put the hyperbolic partner on the other first-family line
        other = next(ln for ln in kc.RATIONAL_LINES if ln != rational_line)
        h = kc.OrbitBranch(c, kc.FAMILY_RATIONAL, line=other).orbit_at(k)
        assert kc.residue(kc.monodromy(h)) < 0.0
    y = alternate.orbit_at(k)
    assert min(d for _, _, d in kc.match_elliptic_points(i, y)) > 0.0


# --- continuation ---------------------------------------------------------------

def test_continue_period2_k_independent():
    orb = kc.rational_orbit(kc.Convergent(1, 2), 0.1)
    moved = kc.continue_in_K(orb, 1.9)
    np.testing.assert_allclose(moved.points, [[0, math.pi], [math.pi, math.pi]], atol=1e-9)
    assert moved.K == 1.9
    assert moved.family == orb.family and moved.line == orb.line


def test_period2_on_q_lines_is_closed_form_at_any_k(monkeypatch):
    # its half has no unknowns: q = (c, c + pi) at every K, so the orbit is
    # returned directly, with the bits that 12 steps of 0.25 reach at K = 3
    c = kc.Convergent(1, 2)
    walked = {}
    for line in kc.RATIONAL_LINES:
        orbit = kc.find_periodic_orbit(c, 0.0, line)
        for i in range(1, 13):
            orbit = kc.orbits._continuation_step(orbit, 0.25 * i)
        walked[line] = orbit

    def no_step(prev, k):
        raise AssertionError(f"continuation step to K={k}")

    monkeypatch.setattr(kc.orbits, "_continuation_step", no_step)
    for line, want in walked.items():
        got = kc.find_periodic_orbit(c, 3.0, line)
        assert got.points.tobytes() == want.points.tobytes()
        assert (got.K, got.closure_error) == (3.0, want.closure_error)
        assert kc.find_periodic_orbit(c, 1e6, line).closure_error <= 1e-9


def test_continue_zero_distance_identity():
    orb = kc.rational_orbit(kc.Convergent(2, 3), 0.4)
    assert kc.continue_in_K(orb, 0.4) is orb


def test_continue_refuses_a_lower_target():
    # continuation only climbs: below an orbit past K*(n) the branch can switch
    orb = kc.rational_orbit(kc.Convergent(2, 3), 0.4)
    with pytest.raises(DomainError, match="upward only"):
        kc.continue_in_K(orb, orb.K - 0.1)


def test_continue_order5_to_transition():
    orb = kc.rational_orbit(kc.Convergent(3, 5), 0.0)
    moved = kc.continue_in_K(orb, 0.97)
    assert moved.closure_error <= 1e-9
    rq, rp = closure_residual(moved.points[0, 0], moved.points[0, 1], 3, 5, 0.97)
    assert max(abs(rq), abs(rp)) <= 1e-9


def test_continuation_stall_reports_last_good_k(monkeypatch):
    # every step past K = 0.3 is refused, so the step halves towards 0.3
    # until it falls below the 1e-6 floor
    real = kc.orbits._continuation_step
    monkeypatch.setattr(kc.orbits, "_continuation_step",
                        lambda prev, k: None if k > 0.3 else real(prev, k))
    with pytest.raises(ContinuationError, match="stalled") as err:
        kc.continue_in_K(kc.rational_orbit(kc.Convergent(3, 5), 0.0), 0.5)
    assert 0.3 - 1e-5 < err.value.last_good_k <= 0.3


def test_continuation_refuses_an_orbit_on_no_line():
    orb = replace(kc.rational_orbit(kc.Convergent(3, 5), 0.5), line="none")
    with pytest.raises(DomainError, match="unknown symmetry line"):
        kc.continue_in_K(orb, 0.6)
    # nor is such an orbit polished: there is no full cyclic Newton
    with pytest.raises(DomainError, match="unknown symmetry line"):
        kc.refine_newton(replace(orb, K=0.6))


def test_branch_cache_tie_continues_from_lower_k():
    # 0.625 is equidistant from the cached 0.5 and 0.75; branches only
    # continue upward, from the nearest cached K at or below
    branch = kc.OrbitBranch(kc.Convergent(5, 8))
    lower = branch.orbit_at(0.5)
    branch.orbit_at(0.75)
    got = branch.orbit_at(0.625)
    want = kc.continue_in_K(lower, 0.625)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.closure_error == want.closure_error


def test_branch_cache_never_continues_downward():
    # 1.0 is past K*(377) = 0.97497; continuing down from it to 0.9926 used
    # to switch branch (R = 55.8 instead of 1864) and 0.9925 stalled
    branch = kc.OrbitBranch(kc.Convergent(233, 377))
    for k in (0.25, 0.5, 0.75, 1.0):
        branch.orbit_at(k)
    got = branch.orbit_at(0.9926)
    branch.orbit_at(0.9925)
    want = kc.continue_in_K(branch.orbit_at(0.75), 0.9926)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.closure_error == want.closure_error


@functools.lru_cache(maxsize=None)
def _fine_climb(m, n, family, k):
    """The branch at K = 0.80 carried to ``k`` in steps of 0.005."""
    orbit = kc.OrbitBranch(kc.Convergent(m, n), family).orbit_at(0.80)
    for kk in np.linspace(0.80, k, round((k - 0.80) / 0.005) + 1)[1:]:
        orbit = kc.continue_in_K(orbit, float(kk))
    return orbit


@pytest.mark.parametrize("k0", [0.0, 0.75, 0.875, 0.9375, 0.95])
def test_upward_continuation_stays_on_branch(k0):
    # 233/377 on q=pi has at least three orbits at K = 1.0 (R = 21980, 40040
    # and 44695); only the last continues back down the branch (R = 1864 at
    # 0.9926).  Unguarded steps from 0, 0.75 and 0.95 landed on R = 21980
    want = _fine_climb(233, 377, kc.FAMILY_RATIONAL, 1.0)
    got = kc.continue_in_K(kc.OrbitBranch(kc.Convergent(233, 377)).orbit_at(k0), 1.0)
    assert np.abs(got.points - want.points).max() <= 1e-8
    assert kc.residue(kc.monodromy(got)) == pytest.approx(44695.2, rel=1e-5)


@pytest.mark.parametrize("m, n, family, k", [
    (55, 89, kc.FAMILY_RATIONAL, 1.1),
    (377, 610, kc.FAMILY_RATIONAL, 1.0),
    (144, 233, kc.FAMILY_ALTERNATE, 1.0),
    (610, 987, kc.FAMILY_ALTERNATE, 1.0),
])
def test_fresh_branch_matches_fine_climb(m, n, family, k):
    # past K*(n) a fresh branch climbed in unguarded steps ended 0.16-0.89 rad
    # away from the same branch climbed in steps of 0.005; alternate 610/987
    # passed the guard onto an orbit 0.167 rad off (R = -2.16e13, not
    # -3.63e13) until Newton stopped at its first diverging iterate
    got = kc.OrbitBranch(kc.Convergent(m, n), family).orbit_at(k)
    want = _fine_climb(m, n, family, k)
    assert np.abs(got.points - want.points).max() <= 1e-8


def test_guard_refuses_a_step_onto_another_branch(monkeypatch):
    # the predicted step of 233/377 from 0.875 to 1.0 corrects onto the
    # R = 21980 orbit, 1.69 times further from the predictor than the
    # predictor moved; continue_in_K halves it instead
    start = kc.OrbitBranch(kc.Convergent(233, 377)).orbit_at(0.875)
    assert kc.orbits._continuation_step(start, 1.0) is None
    monkeypatch.setattr(kc.orbits, "_GUARD_RATIO", math.inf)
    unguarded = kc.orbits._continuation_step(start, 1.0)
    assert kc.residue(kc.monodromy(unguarded)) == pytest.approx(21980.0, rel=1e-4)


def test_diverging_corrector_is_refused_at_once(monkeypatch):
    # the step of 233/377 from 0.75 to 1.0 crosses K*(377) = 0.97497; its
    # corrector's residual stops falling outside the guard's reach, and the
    # step is refused there instead of at Newton's 12-iteration cap
    start = kc.OrbitBranch(kc.Convergent(233, 377)).orbit_at(0.75)
    evals = []
    real = kc.orbits._el_residual
    monkeypatch.setattr(kc.orbits, "_el_residual", lambda *args: evals.append(1) or real(*args))
    assert kc.orbits._continuation_step(start, 1.0) is None
    assert 2 <= len(evals) <= 3


# --- closure and winding exactness ---------------------------------------------

def test_closure_invariant_sample():
    for c in kc.fibonacci_convergents(5):
        for k in (0.2, 0.8):
            o = kc.rational_orbit(c, k)
            rq, rp = closure_residual(o.points[0, 0], o.points[0, 1], c.m, c.n, k)
            assert max(abs(rq), abs(rp)) <= 1e-9


def test_deep_order_closes_at_rounding_level():
    # on the lift q reaches 2*pi*m = 4.7e5 here, where one ulp of q is 5.8e-11;
    # the deviations from the K = 0 circle stay O(1) and close at rounding level
    o = kc.rational_orbit(kc.Convergent(75025, 121393), 0.875)
    assert o.closure_error <= 1e-12
    assert kc.monodromy(o).n == 121393


def test_winding_exactness_multiple_periods():
    o = kc.rational_orbit(kc.Convergent(3, 5), 0.7)
    for loops in (1, 3):
        w = kc.winding_number(tuple(o.points[0]), 0.7, o.n * loops)
        assert abs(w - 0.6) <= 1e-12


def test_winding_long_run_on_deep_elliptic_orbit():
    # the lift grows to ~3.5e5 turns' worth of angle here; carried whole,
    # every step would round at ulp(q) ~ 6e-11
    o = kc.rational_orbit(kc.Convergent(55, 89), 0.8)
    w = kc.winding_number(tuple(o.points[0]), 0.8, 89_000)
    assert abs(w - 55 / 89) <= 1e-11


# --- serialization ---------------------------------------------------------------

def test_orbit_json_record():
    o = kc.rational_orbit(kc.Convergent(1, 2), 0.5)
    rec = json.loads(json.dumps(o.to_record()))
    assert rec["m"] == 1 and rec["n"] == 2 and rec["K"] == 0.5
    assert rec["family"] == kc.FAMILY_RATIONAL
    assert rec["line"] in kc.RATIONAL_LINES
    assert len(rec["points"]) == 2
    assert rec["closure_error"] <= 1e-9


def test_orbit_csv_rows():
    o = kc.rational_orbit(kc.Convergent(2, 3), 0.4)
    rows = o.to_csv_rows()
    assert rows[0].startswith("m,n,K,")
    assert len(rows) == 1 + 3
    # 17 significant digits requested
    assert f"{o.points[0, 1]:.17g}" in rows[1]
