import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kamcrit as kc
from kamcrit import _kernels
from kamcrit.errors import DomainError
from kamcrit.mapcore import as_points_array

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

def _tangent(q, k):
    """The tangent map at angle q: the one-factor monodromy product."""
    return np.reshape(_kernels.monodromy_product(np.array([q]), k)[:4], (2, 2))


def test_tangent_closed_forms():
    np.testing.assert_allclose(_tangent(math.pi, 1.0), [[0, 1], [-1, 1]], atol=1e-15)
    np.testing.assert_allclose(_tangent(0.0, 2.0), [[3, 1], [2, 1]], atol=0)
    np.testing.assert_allclose(_tangent(1.7, 0.0), [[1, 1], [0, 1]], atol=0)


def test_tangent_trace():
    m = _tangent(math.pi, 1.0)
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
    pt = kc.PhasePoint(3 * math.pi, -math.pi / 2).to_torus()
    assert pt.q == -math.pi
    assert abs(pt.p - 3 * math.pi / 2) < 1e-15
    assert tuple(kc.PhasePoint(0.0, 0.0).to_torus()) == (0.0, 0.0)
    pt = kc.PhasePoint(-math.pi - 1e-9, TWO_PI).to_torus()
    assert abs(pt.q - (math.pi - 1e-9)) < 1e-12
    assert pt.p == 0.0


def test_boundary_convention():
    assert kc.PhasePoint(math.pi, TWO_PI).to_torus().q == -math.pi
    assert kc.PhasePoint(math.pi, TWO_PI).to_torus().p == 0.0


@settings(max_examples=200, deadline=None)
@given(q=st.floats(-1e3, 1e3), p=st.floats(-1e3, 1e3))
def test_reduce_idempotent_and_in_range(q, p):
    once = kc.PhasePoint(q, p).to_torus()
    assert -math.pi <= once.q < math.pi
    assert 0.0 <= once.p < TWO_PI
    twice = once.to_torus()
    assert twice.q == once.q and twice.p == once.p


def test_lift_consistency():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = (rng.uniform(-20, 20), rng.uniform(-20, 20))
        k = rng.uniform(0, 2)
        a = kc.step_standard(x, k).to_torus()
        b = kc.step_standard(kc.PhasePoint(*x).to_torus(), k).to_torus()
        assert abs(a.q - b.q) < 1e-10
        assert abs(a.p - b.p) < 1e-10


# --- Euler-Lagrange residual -------------------------------------------------

def test_el_residual_vanishes_on_trajectories():
    traj = kc.trajectory_standard((0.37, 2.11), 1.0, 50)
    res = kc.euler_lagrange_residual(traj, 1.0)
    assert res.shape == (49,)
    assert res.max() <= 1e-10


def test_el_residual_detects_perturbation():
    k = 1.0
    traj = kc.trajectory_standard((0.37, 2.11), k, 50)
    traj = np.array(traj)
    traj[25, 0] += 1e-3
    res = kc.euler_lagrange_residual(traj, k)
    # residual indices 23..25 correspond to points 24..26
    assert res[23:26].max() >= 1e-4


def test_el_residual_fixed_point():
    traj = [(math.pi, 0.0)] * 10
    res = kc.euler_lagrange_residual(traj, 3.7)
    assert res.max() <= 1e-12


def test_k0_momentum_conserved_exactly():
    traj = kc.trajectory_standard((1.234, 2.345), 0.0, 500)
    assert np.all(traj[:, 1] == traj[0, 1])


def test_as_points_array_validation():
    with pytest.raises(DomainError):
        as_points_array(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        as_points_array([(0.0, math.inf)])
