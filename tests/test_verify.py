"""Verification-suite tests."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from scipy.interpolate import CubicSpline

from singwave.data import bump_data, sine_data, zero_data
from singwave.verify import (gupta_bound_check, hardy_check,
                             lemma_condition_identity, random_witness,
                             resolvent_bound_check, run_all)


def _mp_spline_integrals(spline):
    """(int psi^2/x^2, 4 int psi'^2) at 30 digits, one mpmath.quad per
    spline piece on the exact float coefficients."""
    lhs = rhs = mpmath.mpf(0)
    with mpmath.workdps(30):
        for k in range(len(spline.x) - 1):
            a, b = (mpmath.mpf(float(t)) for t in spline.x[k:k + 2])
            c = [mpmath.mpf(float(t)) for t in spline.c[:, k]]
            dc = [c[0] * 3, c[1] * 2, c[2]]
            lhs += mpmath.quad(lambda x: (mpmath.polyval(c, x - a) / x) ** 2,
                               [a, b])
            rhs += 4 * mpmath.quad(lambda x: mpmath.polyval(dc, x - a) ** 2,
                                   [a, b])
    return float(lhs), float(rhs)


def _scalar_quad_hardy(psi, dpsi):
    """The adaptive scalar-quad form of hardy_check, as a reference."""
    def quad(f):
        return scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-12,
                                    epsrel=1e-12, limit=200)[0]
    lhs = quad(lambda x: (psi(x) / x) ** 2 if x > 0
               else float(dpsi(0.0)) ** 2)
    rhs = 4.0 * quad(lambda x: float(dpsi(x)) ** 2)
    return lhs, rhs


class TestHardy:
    def test_closed_form(self):
        lhs, rhs = hardy_check(lambda x: x * (1 - x), lambda x: 1 - 2 * x)
        assert lhs == pytest.approx(1.0 / 3.0, rel=0, abs=1e-15)
        assert rhs == pytest.approx(4.0 / 3.0, rel=0, abs=1e-15)

    def test_sine(self):
        # scalar-only math callables go through the plain-callable rule
        lhs, rhs = hardy_check(lambda x: math.sin(math.pi * x),
                               lambda x: math.pi * math.cos(math.pi * x))
        with mpmath.workdps(30):
            ref = mpmath.quad(lambda x: (mpmath.sin(mpmath.pi * x) / x) ** 2,
                              [0, 1])
        assert lhs == pytest.approx(float(ref), rel=1e-13)
        assert rhs == pytest.approx(2.0 * math.pi ** 2, rel=1e-13)
        assert lhs < rhs

    def test_random_splines(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            su, _ = random_witness(rng)
            lhs, rhs = hardy_check(su, su.derivative())
            assert lhs <= rhs * (1 + 1e-6)

    def test_grid_input(self):
        x = np.linspace(0, 1, 102)[1:-1]
        lhs, rhs = hardy_check(np.sin(np.pi * x))
        assert lhs <= rhs

    def test_matches_mpmath_per_piece(self):
        rng = np.random.default_rng(5)
        splines = [random_witness(rng)[0] for _ in range(5)]
        vals = np.sin(np.pi * np.linspace(0, 1, 102)[1:-1])
        grid_spline = CubicSpline(np.linspace(0, 1, 102),
                                  np.concatenate([[0.0], vals, [0.0]]))
        cases = [(s, (s, s.derivative())) for s in splines]
        cases.append((grid_spline, (vals,)))
        for spline, args in cases:
            got = hardy_check(*args)
            ref = _mp_spline_integrals(spline)
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-14 * abs(r)

    def test_matches_scalar_quad(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            su, _ = random_witness(rng)
            got = hardy_check(su, su.derivative())
            ref = _scalar_quad_hardy(su, su.derivative())
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-10 * abs(r)

    def test_callable_without_derivative(self):
        lhs, rhs = hardy_check(lambda x: np.sin(np.pi * x))
        assert rhs == pytest.approx(2.0 * math.pi ** 2, rel=1e-10)
        assert lhs < rhs


class TestResolventBound:
    def test_reference_point(self):
        worst, probes = resolvent_bound_check(2.0, 0.0, 5.0, trials=200,
                                              N=1000, seed=0)
        assert worst >= 0.95
        assert len(probes) == 200

    def test_large_eta_limit(self):
        # bound tends to alpha - sigma; ratios must stay >= 1 - O(h)
        worst, _ = resolvent_bound_check(2.0, 0.5, 200.0, trials=50,
                                         N=500, seed=1)
        assert worst >= 0.9

    def test_near_sigma_alpha(self):
        # bound tends to 0: trivially satisfied with huge ratios
        worst, _ = resolvent_bound_check(2.0, 1.99, 5.0, trials=20,
                                         N=200, seed=2)
        assert worst > 10.0

    def test_determinism(self):
        a, _ = resolvent_bound_check(2.0, 0.0, 5.0, trials=20, N=200, seed=3)
        b, _ = resolvent_bound_check(2.0, 0.0, 5.0, trials=20, N=200, seed=3)
        assert a == b

    def test_bad_args(self):
        with pytest.raises(ValueError):
            resolvent_bound_check(2.0, 3.0, 1.0)
        with pytest.raises(ValueError):
            resolvent_bound_check(2.0, 0.0, 0.0)


class TestGupta:
    def test_table(self):
        rows = gupta_bound_check(20)
        assert len(rows) == 20
        n1 = rows[0]
        assert n1[1] == pytest.approx(1.0, abs=1e-12)  # equality at n=1
        assert n1[2] == pytest.approx(1.0)
        for n, mag, bound in rows:
            assert mag <= bound * (1 + 1e-10)

    def test_n2_closed_form(self):
        rows = gupta_bound_check(2)
        assert rows[1][1] == pytest.approx(abs((-3 + math.sqrt(3)) / 2),
                                           abs=1e-12)


class TestPairingIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_presets(self, n):
        for data in (sine_data(1), bump_data(), sine_data(2)):
            assert lemma_condition_identity(data, n) < 1e-8

    def test_zero_data(self):
        assert lemma_condition_identity(zero_data(), 1) == 0.0


def test_run_all():
    results = run_all(seed=0, trials=50, n_max=5)
    assert list(results) == ["hardy", "resolvent", "gupta", "pairing"]
    assert all(r["passed"] for r in results.values())
    assert 0.0 < results["hardy"]["worst_ratio"] <= 1.0
    assert [row["n"] for row in results["gupta"]["table"]] == [1, 2, 3, 4, 5]
    only = run_all(seed=0, trials=50, n_max=5, check="resolvent")
    assert only == {"resolvent": results["resolvent"]}
    with pytest.raises(ValueError, match="unknown check"):
        run_all(check="bogus")
