import math

import numpy as np

import kamcrit as kc
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


def _monodromy_product_math_cos(qs, k):
    """The product as it was written with ``math.cos`` per factor."""
    m11, m12, m21, m22, det = 1.0, 0.0, 0.0, 1.0, 1.0
    for q in qs.tolist():
        c = k * math.cos(q)
        a = 1.0 + c
        m11, m12, m21, m22 = a * m11 + m21, a * m12 + m22, c * m11 + m21, c * m12 + m22
        det *= a - c
    return m11, m12, m21, m22, det


def test_monodromy_product_numpy_cosines_are_bit_identical():
    # bit identity holds where numpy's float64 cos equals libm's cos
    checked = 0
    for c in kc.fibonacci_convergents(16):  # n = 2 ... 1597
        for family in (kc.FAMILY_RATIONAL, kc.FAMILY_ALTERNATE):
            branch = kc.OrbitBranch(c, family)
            for k in (0.3, 0.97, 1.5):
                qs = branch.orbit_at(k).angles
                got, want = _kernels.monodromy_product(qs, k), _monodromy_product_math_cos(qs, k)
                # compared as bytes: at n = 1597, K = 1.5 the product overflows to nan
                assert np.array(got).tobytes() == np.array(want).tobytes(), (c, family, k)
                checked += 1
    assert checked == 16 * 2 * 3


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
