"""Laplace-domain tests: partial fractions, Green's kernels, the assembled
transform, the explicit n=0 formula and the post-extinction tail."""

import cmath
import math

import numpy as np
import pytest

from polynomial_oracle import (laguerre_coeffs, p_poly_coeffs,
                               p_poly_fractions)
from singwave.data import bump_data, mode_data, sine_data, zero_data
from singwave.evolution import project_out, projection_condition
from singwave.laplace import (_RESIDUE_SUM_RTOL, LaplaceRHS,
                              PoleProximityError, _bracket_factor, green_g1,
                              green_g2, laplace_U_alpha1, p_poly,
                              partial_fractions, solve_laplace_U, tail_u2)
from singwave.specfun import laguerre
from singwave.spectrum import standing_mode


class TestPartialFractions:
    def test_n1_against_fit(self):
        # oracle: least-squares fit of 1 + a/(tau + 1) to the rational
        # function at 50 sample points
        pf = partial_fractions(1)
        assert pf.poles == (-1.0,)
        pn, ln = p_poly_coeffs(1), laguerre_coeffs(1, 1)
        taus = np.linspace(0.5, 5.0, 50)
        vals = np.array([pn(-2 * t) / ln(-2 * t) for t in taus])
        basis = 1.0 / (taus + 1.0)
        a_fit = float(np.linalg.lstsq(basis[:, None], vals - 1.0,
                                      rcond=None)[0][0])
        assert pf.coeffs[0] == pytest.approx(a_fit, abs=1e-10)

    def test_reconstruction(self):
        pf = partial_fractions(3)
        tau = 0.3 + 0.7j
        pn, ln = p_poly_coeffs(3), laguerre_coeffs(3, 1)
        assert abs(pn(-2 * tau) / ln(-2 * tau) - pf.rational(tau)) < 1e-10

    def test_nonzero_coeffs(self):
        for n in range(1, 11):
            pf = partial_fractions(n)
            assert all(abs(a) > 1e-12 for a in pf.coeffs)

    @pytest.mark.parametrize("n, bound", [(8, 1e-6), (10, 1e-3)])
    def test_residues_against_mpmath(self, n, bound):
        # oracle: the residues at the 50-digit roots of L_n^(1); the
        # smallest are ~1e-9 (n = 8) and ~3e-12 (n = 10) of the terms of
        # P_n, so a float Horner loses 4e-5 and 7e-2 of them (measured
        # 3.1e-7 and 2.3e-4 with P_n by its recurrence at the double poles)
        import mpmath

        def lag(m, beta, x):
            p0, p1 = mpmath.mpf(1), 1 + beta - x
            if m == 0:
                return p0
            for k in range(1, m):
                p0, p1 = p1, ((2 * k + 1 + beta - x) * p1
                              - (k + beta) * p0) / (k + 1)
            return p1

        pf = partial_fractions(n)
        coeffs = p_poly_fractions(n)
        with mpmath.workdps(50):
            for mu, a in zip(pf.poles, pf.coeffs):
                x = mpmath.findroot(lambda t: lag(n, 1, t), -2 * mu)
                pn = sum(mpmath.mpf(c.numerator) / c.denominator * x ** i
                         for i, c in enumerate(coeffs))
                ref = pn / (2 * lag(n - 1, 2, x))
                assert abs((a - ref) / ref) <= bound, (mu, a, ref)

    def test_residues_sum_to_minus_half(self):
        # P_n/L_n^(1) = 1 - 1/(2 tau) + O(tau^-2): from n = 12 on some a_k
        # are below their pole's rounding and still pass. Over the rest of
        # the CLI's integer alphas, up to n = 169, measured at most 3.6e-13
        # of sum |a_k|
        for n in range(1, 170):
            pf = partial_fractions(n)
            bound = 1e-13 if n <= 25 \
                else _RESIDUE_SUM_RTOL * math.fsum(map(abs, pf.coeffs))
            assert abs(math.fsum(pf.coeffs) + 0.5) <= bound, n

    def test_residues_match_the_loop_over_poles(self):
        # one array call per polynomial, the same arithmetic as a call per
        # pole: equal to the bit
        for n in (1, 2, 7, 30):
            pf = partial_fractions(n)
            want = tuple(p_poly(n, -2.0 * mu)
                         / (2.0 * laguerre(n - 1, 2, -2.0 * mu))
                         for mu in pf.poles)
            assert pf.coeffs == want, n

    def test_wrong_pole_raises(self, monkeypatch):
        from singwave import laplace

        poles = list(laplace.laguerre_poles(5))
        poles[-1] *= 1.0 + 1e-9
        monkeypatch.setattr(laplace, "laguerre_poles", lambda n: tuple(poles))
        with pytest.raises(laplace.LaplaceError, match="not -1/2"):
            partial_fractions(5)

    def test_poles_are_laguerre_roots(self):
        pf = partial_fractions(2)
        want = sorted([(-3 - math.sqrt(3)) / 2, (-3 + math.sqrt(3)) / 2])
        assert np.allclose(sorted(pf.poles), want, atol=1e-12)


class TestGreenKernels:
    def test_g1_continuous_across_diagonal(self):
        n, tau = 1, 1.0 + 0.5j
        x = 0.4
        left = green_g1(n, x, x - 1e-9, tau)
        right = green_g1(n, x + 1e-9, x, tau)
        assert abs(left - right) < 1e-6

    def test_g1_domain(self):
        # G1 is entire in tau: no edge at Re tau = 0, where the bracket's
        # E1 arguments cross the imaginary axis
        n, x, y = 2, 0.7, 0.3
        for eta in (0.0, 1.5, -4.0):
            left = green_g1(n, x, y, complex(-1e-9, eta))
            right = green_g1(n, x, y, complex(1e-9, eta))
            assert abs(left - right) < 1e-7 * abs(right)
            assert green_g1(n, x, y, complex(0.0, eta)) == pytest.approx(
                right, rel=1e-7)

    def test_g1_no_overflow_large_tau(self):
        v = green_g1(1, 0.9, 0.1, 100.0)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_g2_symmetric_and_vanishing(self):
        n, tau = 2, 0.7 + 0.2j
        a, b = green_g2(n, 0.3, 0.8, tau), green_g2(n, 0.8, 0.3, tau)
        assert abs(a - b) < 1e-14 * abs(a)
        assert green_g2(n, 0.0, 0.5, tau) == 0.0

    def test_g2_at_eigenvalue(self):
        n = 1
        mu = -1.0
        x = 0.6
        f = x * math.exp(mu * x) * np.real(laguerre(n, 1, -2 * mu * x))
        want = -(f ** 2) * math.exp(-2 * mu) / (n + 1)
        assert green_g2(n, x, x, mu) == pytest.approx(want, rel=1e-12)


def _mp_log_integral(x, tau):
    """int_x^1 e^(-2 tau s)/s ds in 30-digit mpmath."""
    import mpmath

    if x >= 1.0:
        return 0.0
    with mpmath.workdps(30):
        if tau == 0:
            return complex(-mpmath.log(x))
        w = 2 * mpmath.mpc(tau.real, tau.imag)
        return complex(mpmath.e1(w * x) - mpmath.e1(w))


class TestBracketFactor:
    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("tau", [2.5 + 0.2j, 0.3 - 4.0j, 7.0, -0.4 + 1.5j,
                                     -1.0 - 0.5j, -1.0 + 1e-3j, 0.0])
    def test_matches_node_loop(self, n, tau):
        # oracle: the bracket written node by node, with the integral in
        # 30-digit mpmath; at tau = -1 + 1e-3 i the E1 arguments run next
        # to the cut, at tau = 0 the integral is -ln x
        tau = complex(tau)
        x = np.concatenate([[0.0], np.linspace(1e-6, 1.0, 41), [1.0]])
        pn = p_poly_coeffs(n)
        want = np.empty(x.shape, dtype=complex)
        for i, xi in enumerate(x):
            first = cmath.exp(-tau * xi) * pn(-2.0 * tau * xi)
            if xi == 0.0:
                want[i] = first
                continue
            inner = 2.0 * tau * _mp_log_integral(xi, tau) \
                + cmath.exp(-2.0 * tau)
            want[i] = first - xi * cmath.exp(tau * xi) \
                * laguerre(n, 1, -2.0 * tau * xi) * inner
        got = _bracket_factor(n, x, tau)
        assert got[0] == 1.0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert _bracket_factor(n, x[7], tau) == pytest.approx(got[7],
                                                              rel=1e-14)


class TestSolveLaplace:
    @pytest.mark.parametrize("n,tau", [(1, 1.0), (1, 1 + 3j), (2, 5.0)])
    def test_resolvent_residual(self, n, tau):
        data = sine_data(1)
        N = 2000
        h = 1.0 / (N + 1)
        x = h * np.arange(1, N + 1)
        U = solve_laplace_U(data, n, tau, x)
        r = LaplaceRHS(data, n)(x, tau)
        Ufull = np.concatenate([[0], U, [0]])
        Upp = (Ufull[:-2] - 2 * Ufull[1:-1] + Ufull[2:]) / h ** 2
        resid = -Upp + complex(tau) ** 2 * U \
            + (2 * (n + 1) * complex(tau) / x) * U - r
        assert np.linalg.norm(resid) / np.linalg.norm(r) < 1e-4

    def test_boundary_values(self):
        U = solve_laplace_U(sine_data(1), 1, 1.3,
                            np.array([0.0, 0.5, 1.0]))
        assert abs(U[0]) < 1e-10
        assert abs(U[-1]) < 1e-8

    def test_standing_wave_transform(self):
        data = mode_data(1, 1)
        mu = -1.0
        x = np.linspace(0.05, 0.95, 10)
        f = x * np.exp(mu * x) * (2 + 2 * mu * x)
        for tau in (0.5, 2 + 1j, -0.3 + 2j):
            U = solve_laplace_U(data, 1, tau, x)
            assert np.max(np.abs(U - f / (tau - mu))) < 1e-10

    def test_pole_proximity(self):
        with pytest.raises(PoleProximityError):
            solve_laplace_U(sine_data(1), 1, -1.0 + 1e-10j,
                            np.array([0.5]))

    def test_pole_structure(self):
        # (tau - mu) U(x, tau) tends to the residue for generic data and
        # to 0 for data satisfying the orthogonality condition
        x = np.array([0.5])
        mu = -1.0
        for eps in (1e-3, 1e-4):
            gen = solve_laplace_U(sine_data(1), 1, mu + eps, x)[0]
            proj = solve_laplace_U(project_out(sine_data(1), 1), 1,
                                   mu + eps, x)[0]
            assert abs(eps * proj) < 1e-3 * abs(eps * gen)

    def test_zero_data(self):
        U = solve_laplace_U(zero_data(), 1, 1.0, np.linspace(0, 1, 9))
        assert np.max(np.abs(U)) < 1e-14


class TestAlpha1Formula:
    def test_agrees_with_assembled_solver(self):
        rng = np.random.default_rng(5)
        data = sine_data(1)
        for _ in range(5):
            x = rng.uniform(0.1, 0.9)
            tau = complex(rng.uniform(0.2, 2.0), rng.uniform(-2, 2))
            a = laplace_U_alpha1(data, x, tau)
            b = solve_laplace_U(data, 0, tau, np.array([x]))[0]
            assert abs(a - b) < 1e-8

    def test_growth_bound_probe(self):
        # |U| stays bounded by C e^(2|Re tau|) along vertical lines
        data = sine_data(1)
        base = abs(laplace_U_alpha1(data, 0.5, 0.5))
        for m in (1, 5, 20):
            v = abs(laplace_U_alpha1(data, 0.5, 0.5 + 2j * math.pi * m))
            assert v <= 10.0 * base * math.exp(2 * 0.5)

    def test_linearity_zero(self):
        assert laplace_U_alpha1(zero_data(), 0.4, 1 + 1j) == 0


class TestU1GrowthBound:
    def test_exponent_probe(self):
        # |U1| <= C (1+|tau|)^(2(n+1)) e^(2|Re tau|): check the measured
        # growth exponent along a real ray stays below the bound
        data = sine_data(1)
        n = 1
        x = np.array([0.5])

        def u1_mag(tau):
            pfless = solve_laplace_U(data, n, tau, x)[0]
            # subtract the rank-one part to isolate U1
            from singwave.laplace import partial_fractions as pf_fn
            from singwave.laplace import LaplaceRHS as RHS
            pf = pf_fn(n)
            nodes = np.linspace(0, 1, 2001)
            sr = np.exp(tau * nodes) * laguerre(n, 1, -2 * tau * nodes) \
                * RHS(data, n).times_x(nodes, tau)
            J = np.trapezoid(sr, nodes)
            w = sum(a / (tau - m) for a, m in zip(pf.coeffs, pf.poles))
            u2 = -(w * J / (n + 1)) * x[0] * np.exp(tau * (x[0] - 2)) \
                * laguerre(n, 1, -2 * tau * x[0])
            return abs(pfless - u2)

        t1, t2 = 4.0, 8.0
        g1, g2 = u1_mag(t1), u1_mag(t2)
        slope = (math.log(g2) - math.log(g1)) / (t2 - t1)
        # e^(2|Re tau|) dominates polynomially-corrected growth; exponent
        # must not exceed 2 by more than the polynomial correction
        assert slope <= 2.0 + 2 * (n + 1) * math.log(t2 / t1) / (t2 - t1)


class TestTail:
    def test_orthogonal_data_zero_tail(self):
        data = project_out(sine_data(1), 1)
        tail = tail_u2(data, 1, 3.0, np.linspace(0, 1, 21))
        assert np.max(np.abs(tail)) < 1e-10

    def test_mode_data_single_exponential(self):
        data = mode_data(1, 1)
        x = np.linspace(0, 1, 21)
        mu = -1.0
        f = x * np.exp(mu * x) * (2 + 2 * mu * x)
        for t in (2.5, 3.0, 4.0):
            tail = tail_u2(data, 1, t, x)
            assert np.max(np.abs(tail - math.exp(mu * t) * f)) < 1e-10

    def test_decay_rate(self):
        data = sine_data(1)
        x = np.linspace(0, 1, 31)
        n = 2
        t1, t2 = 4.0, 8.0
        n1 = np.max(np.abs(tail_u2(data, n, t1, x)))
        n2 = np.max(np.abs(tail_u2(data, n, t2, x)))
        rate = math.log(n2 / n1) / (t2 - t1)
        assert rate == pytest.approx((-3 + math.sqrt(3)) / 2, rel=1e-3)

    def test_requires_late_time(self):
        with pytest.raises(ValueError):
            tail_u2(sine_data(1), 1, 1.5, np.array([0.5]))
        with pytest.raises(ValueError):
            tail_u2(sine_data(1), 1, [3.0, 2.0], np.array([0.5]))

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_array_of_times(self, n):
        # one row per time, each the call at that time and the sum of the
        # tail formula's terms, mode by mode, within rounding: a few ulps
        # of the largest term
        data = sine_data(2)
        x = np.linspace(0, 1, 21)
        ts = np.array([2.1, 2.5, 3.0, 4.0])
        rows = tail_u2(data, n, ts, x)
        assert rows.shape == (len(ts), len(x))
        pf = partial_fractions(n)
        c = -projection_condition(data, n) / np.array(pf.poles)
        for t, row in zip(ts, rows):
            terms = [-(a / (n + 1)) * math.exp(mu * (t - 2.0)) * c_k
                     * standing_mode(n, k).f(x) for k, (mu, a, c_k)
                     in enumerate(zip(pf.poles, pf.coeffs, c), start=1)]
            tol = 4 * n * np.finfo(float).eps * np.max(np.abs(terms))
            one = tail_u2(data, n, t, x)
            assert one.shape == x.shape
            assert np.max(np.abs(row - one)) <= tol
            assert np.max(np.abs(row - np.sum(terms, axis=0))) <= tol
