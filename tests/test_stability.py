import math
import warnings

import numpy as np
import pytest

import kamcrit as kc
from kamcrit.errors import BracketingError, DomainError, RefinementError
from kamcrit.stability import (
    ELLIPTIC,
    HYPERBOLIC,
    INVERSE_HYPERBOLIC,
    PARABOLIC,
    _XTOL,
    Monodromy,
    find_destabilization,
)

TWO_PI = 2 * math.pi


def _orbit(m, n, k, family=kc.FAMILY_RATIONAL):
    branch = kc.OrbitBranch(kc.Convergent(m, n), family)
    return branch.orbit_at(k)


# --- monodromy ------------------------------------------------------------------

def test_fixed_point_monodromy_closed_form():
    for k in (0.3, 1.0, 2.5):
        orb = _orbit(0, 1, k)
        mono = kc.monodromy(orb)
        np.testing.assert_allclose(mono.matrix, [[1 - k, 1], [-k, 1]], atol=1e-12)
        assert abs(mono.trace - (2 - k)) < 1e-12


def test_period2_trace_closed_form():
    for k in np.linspace(0.1, 3.9, 12):
        orb = _orbit(1, 2, float(k))
        assert abs(kc.monodromy(orb).trace - (2 - k * k)) < 1e-10


def test_integrable_monodromy_is_shear_power():
    for n, m in ((2, 1), (5, 3)):
        orb = _orbit(m, n, 0.0)
        mono = kc.monodromy(orb)
        np.testing.assert_allclose(mono.matrix, [[1, n], [0, 1]], atol=1e-9)


def test_monodromy_requires_tight_closure():
    orb = _orbit(1, 2, 0.5)
    loose = kc.PeriodicOrbit(deviations=orb.deviations, convergent=orb.convergent, K=orb.K,
                             family=orb.family, line=orb.line, closure_error=1e-6)
    with pytest.raises(RefinementError):
        kc.monodromy(loose)


def test_trace_invariant_under_cyclic_start():
    orb = _orbit(3, 5, 0.8)
    base = kc.monodromy(orb).trace
    for shift in range(1, 5):
        # started at point s, the deviations are q_{i+s} - 2 pi m i/n = u_{i+s} + 2 pi m s/n
        rolled = kc.PeriodicOrbit(
            deviations=np.roll(orb.deviations, -shift, axis=0) + [TWO_PI * orb.m * shift / orb.n, 0.0],
            convergent=orb.convergent, K=orb.K, family=orb.family,
            line="none", closure_error=orb.closure_error,
        )
        assert abs(kc.monodromy(rolled).trace - base) < 1e-10


def test_det_drift_small_for_deep_orbits():
    for c in kc.fibonacci_convergents(6):
        orb = _orbit(c.m, c.n, 1.0)
        assert kc.monodromy(orb).det_drift <= 1e-9


# --- residue / classification -----------------------------------------------------

def test_residue_closed_forms():
    assert abs(kc.residue(kc.monodromy(_orbit(0, 1, 1.2))) - 1.2 / 4) < 1e-12
    assert abs(kc.residue(kc.monodromy(_orbit(1, 2, 1.2))) - 1.2**2 / 4) < 1e-10
    assert abs(kc.residue(kc.monodromy(_orbit(2, 3, 0.0)))) < 1e-12


def test_residue_accepts_plain_matrix():
    assert kc.residue(np.array([[0.0, 1.0], [-1.0, 1.0]])) == 0.25


def test_classify_elliptic():
    rep = kc.classify(np.array([[0.75, 1.0], [-0.3, 0.75]]), n=1)
    assert rep.classification == ELLIPTIC
    assert rep.lyapunov == 0.0
    assert 0 < rep.residue < 1


def test_classify_inverse_hyperbolic_lyapunov():
    m = np.array([[-2.0, 1.0], [1.0 - (-2.0) * (-0.5), -0.5]])  # trace -2.5, det 1
    rep = kc.classify(m, n=2)
    assert abs(np.linalg.det(m) - 1) < 1e-12
    assert rep.classification == INVERSE_HYPERBOLIC
    expected = 0.5 * math.log((2.5 + math.sqrt(2.5**2 - 4)) / 2)
    assert abs(rep.lyapunov - expected) < 1e-12


def test_classify_parabolic_shear():
    rep = kc.classify(kc.monodromy(_orbit(1, 2, 0.0)))
    assert rep.classification == PARABOLIC
    assert rep.lyapunov == 0.0


def test_classify_hyperbolic_partner():
    orb = kc.alternate_orbit(kc.Convergent(1, 2), 0.5)
    rep = kc.classify(kc.monodromy(orb))
    assert rep.classification == HYPERBOLIC
    assert rep.residue < 0
    assert rep.lyapunov > 0


def _mono(m11, m22, n):
    return Monodromy(matrix=np.array([[m11, 0.0], [0.0, m22]]), n=n, det_drift=0.0)


@pytest.mark.parametrize("m11,m22", [(math.nan, 1.0), (math.inf, -math.inf), (-math.inf, 0.5),
                                     (math.inf, 1.0)])
def test_classify_refuses_a_trace_that_is_not_finite(m11, m22):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the trace of an overflowed product warns of nothing
        with pytest.raises(RefinementError, match="not finite"):
            kc.classify(_mono(m11, m22, 377))
        with pytest.raises(RefinementError, match="not finite"):  # nor does a raw matrix's
            kc.classify(np.array([[m11, 0.0], [0.0, m22]]))


def test_classify_spectral_radius_where_the_trace_squared_overflows():
    # tr*tr overflows from |tr| of about 1.3e154 on, where sqrt(tr^2 - 4) rounds to |tr|
    rep = kc.classify(_mono(-1.0077769866e282, 0.0, 377))
    assert rep.classification == INVERSE_HYPERBOLIC
    assert rep.lyapunov == math.log(1.0077769866e282) / 377
    assert rep.lyapunov == pytest.approx(1.7224, abs=1e-4)
    rep = kc.classify(_mono(3e200, 0.0, 10))
    assert rep.classification == HYPERBOLIC and rep.lyapunov == math.log(3e200) / 10
    # up to the overflow the closed form is taken as before, and agrees with |tr|
    for tr in (-2.5, 1e5, -1e154):
        rep = kc.classify(_mono(tr, 0.0, 3))
        assert rep.lyapunov == math.log(0.5 * (abs(tr) + math.sqrt(tr * tr - 4.0))) / 3
    assert kc.classify(_mono(-1e154, 0.0, 3)).lyapunov == math.log(1e154) / 3


def test_report_record_fields():
    orb = _orbit(1, 2, 0.5)
    rec = kc.classify(kc.monodromy(orb)).to_record(orb)
    assert set(rec) == {"m", "n", "K", "trace", "residue", "class", "lyapunov"}


# --- destabilization ----------------------------------------------------------------

def test_destabilization_closed_forms():
    k_fp = kc.destabilization_K(kc.Convergent(0, 1), line=kc.LINE_QPI)
    assert abs(k_fp - 4.0) <= _XTOL
    k_12 = kc.destabilization_K(kc.Convergent(1, 2))
    assert abs(k_12 - 2.0) <= _XTOL


@pytest.mark.parametrize("m, n", [(3, 5), (8, 13), (55, 89), (233, 377), (377, 610)])
def test_destabilization_within_half_tolerance(m, n):
    # K* lies within Brent's xtol of the R = 1 crossing; each side is taken
    # on a fresh branch, so no cached orbit of the search is reused.  From
    # n = 144 on the bracket ends at the walk's first step past the
    # crossing, not at a multiple of 0.25
    c = kc.Convergent(m, n)
    k_star = kc.destabilization_K(c)
    margin = _XTOL + 1e-12

    def r(k):
        return kc.residue(kc.monodromy(kc.OrbitBranch(c).orbit_at(k)))

    assert r(k_star - margin) < 1.0 <= r(k_star + margin)


def test_destabilization_samples_every_residue_evaluation():
    k_star, info = find_destabilization(kc.Convergent(3, 5))
    ks = [k for k, _ in info["samples"]]
    # no step of 3/5 is refused, so its walk is the continuation's 0.25 grid
    step = kc.orbits._DK_MAX
    walk = [i * step for i in range(1, round(info["bracket"][1] / step) + 1)]
    assert ks[:len(walk)] == walk
    assert len(ks) > len(walk) and len(set(ks)) == len(ks)
    assert all(info["bracket"][0] < k < info["bracket"][1] for k in ks[len(walk):])
    assert k_star in ks


def test_destabilization_bracket_validation():
    # the alternate 1/2 orbit is hyperbolic (R < 0), so the walk finds no
    # crossing; both entry points take (c, family, line) in that order
    with pytest.raises(BracketingError):
        kc.destabilization_K(kc.Convergent(1, 2), family=kc.FAMILY_ALTERNATE)
    with pytest.raises(BracketingError):
        kc.destabilization_K(kc.Convergent(1, 2), kc.FAMILY_ALTERNATE)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_destabilization_non_finite_residue_is_a_failure(monkeypatch, bad):
    # an overflowed monodromy gives a non-finite residue, here every residue
    # of 3/5 past K = 0.6; it is neither "below 1" (nan, -inf) nor a
    # crossing (+inf), so the walk stops at the first one
    probes = []
    real_monodromy, real_residue = kc.stability.monodromy, kc.stability.residue

    def overflowing(tagged):
        orbit, mono = tagged
        if orbit.n != 5:
            return real_residue(mono)
        probes.append(orbit.K)
        return bad if orbit.K > 0.6 else real_residue(mono)

    monkeypatch.setattr(kc.stability, "monodromy", lambda orbit: (orbit, real_monodromy(orbit)))
    monkeypatch.setattr(kc.stability, "residue", overflowing)
    with pytest.raises(BracketingError, match="non-finite residue") as err:
        find_destabilization(kc.Convergent(3, 5))
    assert probes[-1] > 0.6 and max(probes[:-1]) <= 0.6
    assert f"{bad} for 3/5 (n=5) at K={probes[-1]!r}" in str(err.value)

    res = kc.greene_kcrit(depth=4)
    assert [n for n, _ in res.per_n] == [2, 3, 8]
    [failure] = res.diagnostics["failures"]
    assert failure["n"] == 5 and "non-finite residue" in failure["error"]


def test_find_destabilization_walk():
    k_star, info = find_destabilization(kc.Convergent(2, 3))
    assert info["bracket"][0] < k_star < info["bracket"][1]
    assert 0.9716 < k_star < 2.0


def test_find_destabilization_unknown_family():
    with pytest.raises(DomainError):
        find_destabilization(kc.Convergent(1, 2), family="bogus")


def test_destabilization_monotone_small_orders():
    ks = [find_destabilization(c)[0] for c in kc.fibonacci_convergents(4)]
    assert all(b <= a + 1e-9 for a, b in zip(ks, ks[1:]))


def test_destabilization_order_987():
    # residues at this order stay below 1e-8 on most of the K range, so the
    # line must come from the parity rule, not from residue signs
    k_star, info = kc.find_destabilization(kc.Convergent(610, 987))
    assert 0.9725 <= k_star <= 0.9735
    assert info["line"] == kc.LINE_QPI


@pytest.mark.parametrize("m, n, line, lo, hi", [
    (987, 1597, kc.LINE_QPI, 0.9722, 0.9726),
    (1597, 2584, kc.LINE_Q0, 0.9719, 0.9723),
    (2584, 4181, kc.LINE_QPI, 0.9719254, 0.9719274),
])
def test_destabilization_deep_orders(m, n, line, lo, hi):
    # the symmetric-half Newton reaches past 987, where dense multiple
    # shooting stalled (n = 1597 stopped near K = 0.950); at n = 4181 the
    # walk's top probe K = 1.0 holds R ~ 1.7e59, still finite
    k_star, info = kc.find_destabilization(kc.Convergent(m, n))
    assert lo <= k_star <= hi
    assert info["line"] == line
    assert all(math.isfinite(r) for _, r in info["samples"])
