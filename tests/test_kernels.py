import math

import numpy as np

from kamcrit import _kernels


def test_backend_reported():
    assert _kernels.backend() in ("numba", "numpy")


def test_trajectory_matches_final_state():
    traj = _kernels.trajectory(0.3, 1.1, 0.8, 20)
    assert traj.shape == (21, 2)
    for i in range(21):
        assert tuple(traj[i]) == _kernels.final_state(0.3, 1.1, 0.8, i)
    assert _kernels.trajectory(0.3, 1.1, 0.8, 0).tolist() == [[0.3, 1.1]]


def test_batch_agrees_with_scalar():
    qs = np.array([0.1, 2.0, -1.3])
    ps = np.array([0.4, 3.1, 5.9])
    bq, bp = _kernels.batch_final_state(qs, ps, 0.7, 15)
    for j in range(3):
        q, p = _kernels.final_state(qs[j], ps[j], 0.7, 15)
        assert abs(bq[j] - q) < 1e-12
        assert abs(bp[j] - p) < 1e-12


def test_batch_trajectory_shape_and_endpoints():
    qs = np.array([0.0, 1.0])
    ps = np.array([1.0, 2.0])
    out = _kernels.batch_trajectory(qs, ps, 0.3, 10)
    assert out.shape == (2, 11, 2)
    fq, fp = _kernels.batch_final_state(qs, ps, 0.3, 10)
    np.testing.assert_allclose(out[:, -1, 0], fq, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out[:, -1, 1], fp, rtol=0, atol=1e-12)


def test_monodromy_product_shear():
    qs = np.zeros(5)
    m11, m12, m21, m22, det = _kernels.monodromy_product(qs, 0.0)
    assert (m11, m12, m21, m22) == (1.0, 5.0, 0.0, 1.0)
    assert det == 1.0


def test_p_span_integrable():
    pmin, pmax = _kernels.p_span(0.3, 2.0, 0.0, 100)
    assert pmin == pmax == 2.0


def test_max_p_deviation_escape_flag():
    dev, steps, escaped = _kernels.max_p_deviation(1e-4, 0.0, 5.0, 10_000, 0.0, 2 * math.pi)
    assert escaped
    assert steps < 10_000
    dev, steps, escaped = _kernels.max_p_deviation(1e-4, 0.0, 0.04, 10_000, 0.0, 2 * math.pi)
    assert not escaped
    assert steps == 10_000


def _max_p_deviation_loop(q, p, k, nsteps, p_ref, cap):
    """Reference: |p - p_ref| taken and compared at every step."""
    best = abs(p - p_ref)
    for i in range(nsteps):
        p = p + k * math.sin(q)
        q = q + p
        dev = abs(p - p_ref)
        if dev > best:
            best = dev
        if cap > 0.0 and best >= cap:
            return best, i + 1, True
    return best, nsteps, False


def test_max_p_deviation_equals_per_step_loop():
    # the island-width launches of K = 0.01 ... 3.99 on both resonances
    escapes = 0
    for i in range(1, 400):
        for p_ref in (0.0, 2 * math.pi):
            args = (1e-4, p_ref, 0.01 * i, 10_000, p_ref, 2 * math.pi)
            got = _kernels.max_p_deviation(*args)
            assert got == _max_p_deviation_loop(*args), args
            escapes += got[2]
    assert 100 < escapes < 700  # 558 here: both outcomes are covered
    # no escape check, and launches that start beyond the cap (the last two
    # keep p fixed on the first step, which must still count as an escape)
    for args in [(1e-4, 0.0, 2.0, 3000, 0.0, 0.0), (1e-4, 0.0, 2.0, 3000, 0.0, -1.0),
                 (0.5, 0.3, 0.9, 0, 0.0, 2 * math.pi), (0.5, 7.0, 0.9, 100, 0.0, 2 * math.pi),
                 (0.5, -7.0, 0.01, 100, 0.0, 2 * math.pi), (0.0, 7.0, 0.5, 100, 0.0, 2 * math.pi),
                 (0.3, -7.0, 0.0, 100, 0.0, 2 * math.pi)]:
        assert _kernels.max_p_deviation(*args) == _max_p_deviation_loop(*args), args
