import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kamcrit as kc
from kamcrit.errors import DomainError, UnsupportedParameterError
from kamcrit.mapcore import STANDARD_MAP, as_points_array

TWO_PI = 2 * math.pi


# --- step_standard -----------------------------------------------------------

def test_fixed_points():
    assert tuple(kc.step_standard((0.0, 0.0), 1.0)) == (0.0, 0.0)
    q1, p1 = kc.step_standard((math.pi, 0.0), 2.0)
    assert abs(p1) < 1e-15 and abs(q1 - math.pi) < 1e-15


def test_step_direct_substitution():
    q1, p1 = kc.step_standard((math.pi / 2, 0.0), 1.0)
    assert p1 == 1.0
    assert q1 == math.pi / 2 + 1.0


def test_step_rejects_nonfinite():
    with pytest.raises(DomainError):
        kc.step_standard((math.nan, 0.0), 1.0)
    with pytest.raises(DomainError):
        kc.step_standard((0.0, 0.0), -0.5)
    with pytest.raises(DomainError):
        kc.step_standard((0.0, 0.0), math.inf)


# --- tangent map / symplecticity --------------------------------------------

def test_tangent_closed_forms():
    np.testing.assert_allclose(kc.tangent_step((math.pi, 0.0), 1.0), [[0, 1], [-1, 1]], atol=1e-15)
    np.testing.assert_allclose(kc.tangent_step((0.0, 0.0), 2.0), [[3, 1], [2, 1]], atol=0)
    np.testing.assert_allclose(kc.tangent_step((1.7, 0.3), 0.0), [[1, 1], [0, 1]], atol=0)


def test_tangent_trace():
    m = kc.tangent_step((math.pi, 0.0), 1.0)
    assert abs(np.trace(m) - 1.0) < 1e-15


@settings(max_examples=200, deadline=None)
@given(
    q=st.floats(-50, 50),
    p=st.floats(-50, 50),
    k=st.floats(0, 5),
)
def test_symplecticity_everywhere(q, p, k):
    assert kc.symplecticity_check((q, p), k) <= 1e-12


def test_symplecticity_examples():
    assert kc.symplecticity_check((0.3, 1.1), 0.9716) <= 1e-12
    assert kc.symplecticity_check((math.pi / 3, 0.0), 4.0) <= 1e-12


# --- torus reduction ---------------------------------------------------------

def test_reduce_examples():
    pt = kc.reduce_to_torus((3 * math.pi, -math.pi / 2))
    assert pt.q == -math.pi
    assert abs(pt.p - 3 * math.pi / 2) < 1e-15
    assert tuple(kc.reduce_to_torus((0.0, 0.0))) == (0.0, 0.0)
    pt = kc.reduce_to_torus((-math.pi - 1e-9, TWO_PI))
    assert abs(pt.q - (math.pi - 1e-9)) < 1e-12
    assert pt.p == 0.0


def test_boundary_convention():
    assert kc.reduce_to_torus((math.pi, TWO_PI)).q == -math.pi
    assert kc.reduce_to_torus((math.pi, TWO_PI)).p == 0.0


@settings(max_examples=200, deadline=None)
@given(q=st.floats(-1e3, 1e3), p=st.floats(-1e3, 1e3))
def test_reduce_idempotent_and_in_range(q, p):
    once = kc.reduce_to_torus((q, p))
    assert -math.pi <= once.q < math.pi
    assert 0.0 <= once.p < TWO_PI
    twice = kc.reduce_to_torus(once)
    assert twice.q == once.q and twice.p == once.p


def test_lift_consistency():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = (rng.uniform(-20, 20), rng.uniform(-20, 20))
        k = rng.uniform(0, 2)
        a = kc.reduce_to_torus(kc.step_standard(x, k))
        b = kc.step_standard(kc.reduce_to_torus(x), k).to_torus()
        assert abs(a.q - b.q) < 1e-10
        assert abs(a.p - b.p) < 1e-10


# --- action ------------------------------------------------------------------

def test_action_integrable_closed_form():
    # constant-p orbit over one period: S = n * (2*pi*m/n)^2 / 2
    m, n = 2, 5
    p = TWO_PI * m / n
    traj = [(i * p, p) for i in range(n + 1)]
    s = kc.action(traj, STANDARD_MAP, 0.0)
    assert abs(s - n * p * p / 2) < 1e-12


def test_action_single_segment():
    s = kc.action([(0.0, 0.0), (0.0, 0.0)], STANDARD_MAP, 1.0)
    assert s == -1.0


def test_action_against_resummation_oracle():
    k = 0.5
    traj = kc.trajectory_standard((0.4, 1.3), k, 10)
    s = kc.action(traj, STANDARD_MAP, k)
    q, p = traj[:, 0], traj[:, 1]
    terms = [
        (q[i + 1] - q[i]) * p[i + 1] - (0.5 * p[i + 1] ** 2 + k * math.cos(q[i]))
        for i in range(10)
    ]
    assert abs(s - math.fsum(terms)) < 1e-12


def test_action_needs_two_points():
    with pytest.raises(DomainError):
        kc.action([(0.0, 0.0)], STANDARD_MAP, 1.0)


def test_action_and_residual_reject_other_maps():
    traj = kc.trajectory_standard((0.4, 1.3), 0.5, 4)
    with pytest.raises(UnsupportedParameterError):
        kc.action(traj, "henon", 0.5)
    with pytest.raises(UnsupportedParameterError):
        kc.euler_lagrange_residual(traj, "henon", 0.5)


# --- Euler-Lagrange residual -------------------------------------------------

def test_el_residual_vanishes_on_trajectories():
    traj = kc.trajectory_standard((0.37, 2.11), 1.0, 50)
    res = kc.euler_lagrange_residual(traj, STANDARD_MAP, 1.0)
    assert res.shape == (49,)
    assert res.max() <= 1e-10


def test_el_residual_detects_perturbation():
    k = 1.0
    traj = kc.trajectory_standard((0.37, 2.11), k, 50)
    traj = np.array(traj)
    traj[25, 0] += 1e-3
    res = kc.euler_lagrange_residual(traj, STANDARD_MAP, k)
    # residual indices 23..25 correspond to points 24..26
    assert res[23:26].max() >= 1e-4


def test_el_residual_fixed_point():
    traj = [(math.pi, 0.0)] * 10
    res = kc.euler_lagrange_residual(traj, STANDARD_MAP, 3.7)
    assert res.max() <= 1e-12


def test_k0_momentum_conserved_exactly():
    traj = kc.trajectory_standard((1.234, 2.345), 0.0, 500)
    assert np.all(traj[:, 1] == traj[0, 1])


def test_as_points_array_validation():
    with pytest.raises(DomainError):
        as_points_array(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        as_points_array([(0.0, math.inf)])
