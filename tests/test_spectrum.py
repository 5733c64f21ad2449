"""Spectrum tests: characteristic function, winding counts, eigenvalue
search paths, eigenfunctions, sweeps."""

import math

import numpy as np
import pytest

from singwave.spectrum import (Eigenvalue, Rect, SpectralProblem,
                               alpha_sweep, asymptotic_eigenvalue, char_fn,
                               count_zeros, eigenfunction, find_eigenvalues,
                               integer_n, laguerre_poles, spectral_abscissa,
                               standing_mode)


class TestSpectralProblem:
    def test_integer_detection(self):
        assert SpectralProblem(2.0).integer_n == 1
        assert SpectralProblem(2.0 + 1e-13).integer_n is None
        assert SpectralProblem(1.0).integer_n == 0
        assert SpectralProblem(1.5).integer_n is None
        assert [integer_n(a) for a in (0.4, 1.0, 2.5, 3.0 - 1e-15, 3.0,
                                       3.0 + 1e-13)] == [None, 0, None, 2, 2,
                                                         None]

    def test_force_generic(self):
        assert SpectralProblem(2.0, force_generic=True).integer_n is None

    def test_positive_alpha(self):
        with pytest.raises(ValueError):
            SpectralProblem(-1.0)


class TestCharFn:
    def test_alpha1_identically_one(self):
        p = SpectralProblem(1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = complex(rng.uniform(-50, 1), rng.uniform(-50, 50))
            assert abs(char_fn(p, lam) - 1.0) < 1e-12

    def test_alpha2_zero_at_minus_one(self):
        assert abs(char_fn(SpectralProblem(2.0), -1.0)) < 1e-12

    def test_generic_against_oracle(self):
        import mpmath
        p = SpectralProblem(1.5)
        rng = np.random.default_rng(1)
        for _ in range(15):
            lam = complex(rng.uniform(-5, 0), rng.uniform(-5, 5))
            with mpmath.workdps(30):
                ref = complex(mpmath.hyp1f1(-0.5, 2, mpmath.mpc(-2 * lam)))
            assert abs(char_fn(p, lam) - ref) < 1e-10 * max(1, abs(ref))


class TestCountZeros:
    def test_alpha2_unit_rect(self):
        rect = Rect(-2.0, -0.5, -1.0, 1.0)
        assert count_zeros(SpectralProblem(2.0), rect) == 1

    def test_alpha25_real_segment(self):
        rect = Rect(-10.0, -1e-3, -0.5, 0.5)
        assert count_zeros(SpectralProblem(2.5), rect) == 2

    def test_matches_found_pairs(self):
        p = SpectralProblem(1.5)
        evs = find_eigenvalues(p, 3)
        uppers = [e.value for e in evs if e.branch == "upper"]
        top = max(v.imag for v in uppers)
        rect = Rect(min(v.real for v in uppers) - 2.0, -1e-3,
                    0.5, top + 1.0)
        inside = sum(1 for v in uppers if rect.contains(v))
        assert count_zeros(p, rect) == inside


class TestFindEigenvalues:
    def test_alpha2_exact(self):
        evs = find_eigenvalues(SpectralProblem(2.0), 1)
        assert len(evs) == 1
        assert abs(evs[0].value - (-1.0)) < 1e-10

    def test_alpha3_closed_form(self):
        evs = find_eigenvalues(SpectralProblem(3.0), 1)
        got = sorted(e.value.real for e in evs)
        want = sorted([(-3 - math.sqrt(3)) / 2, (-3 + math.sqrt(3)) / 2])
        assert np.allclose(got, want, atol=1e-10)

    def test_alpha1_empty(self):
        assert find_eigenvalues(SpectralProblem(1.0), 1) == []

    def test_conjugate_symmetry_and_negativity(self):
        evs = find_eigenvalues(SpectralProblem(1.5), 4)
        vals = {e.value for e in evs}
        for e in evs:
            assert e.value.real < 0
            assert e.residual < 1e-9
            if e.branch != "real":
                assert e.value.conjugate() in vals

    def test_integer_fast_path_matches_generic(self):
        fast = find_eigenvalues(SpectralProblem(3.0), 1)
        generic = find_eigenvalues(SpectralProblem(3.0, force_generic=True),
                                   1, audit=False)
        fast_reals = sorted(e.value.real for e in fast)
        gen_reals = sorted(e.value.real for e in generic
                           if e.branch == "real")
        assert np.allclose(fast_reals, gen_reals, atol=1e-10)


class TestAsymptoticSeeds:
    def test_leading_imag(self):
        p = SpectralProblem(1.5)
        for k in (30, 60):
            lam = asymptotic_eigenvalue(p, k, "upper")
            assert lam.imag == pytest.approx((2 * k + 1 - 1.5) * math.pi / 2,
                                             rel=1e-2)
            lam_l = asymptotic_eigenvalue(p, k, "lower")
            assert lam_l == lam.conjugate()

    def test_log_growth_of_real_part(self):
        p = SpectralProblem(1.5)
        r10 = abs(asymptotic_eigenvalue(p, 10, "upper").real)
        r100 = abs(asymptotic_eigenvalue(p, 100, "upper").real)
        # Re grows like alpha*log(2 k pi): slow growth, roughly log-linear
        assert r100 > r10
        assert r100 - r10 == pytest.approx(1.5 * math.log(10), rel=0.25)

    def test_rejects_integer_alpha(self):
        with pytest.raises(Exception):
            asymptotic_eigenvalue(SpectralProblem(2.0), 3, "upper")


def _mp_mode(n, mu):
    """The closed form x e^(mu x) L_n^(1)(-2 mu x) in mpmath, with L_n^(1)
    from its explicit coefficients (mpmath's own laguerre fails to reach
    relative accuracy at its zeros)."""
    import mpmath as mp
    mu = mp.mpf(mu)
    coeffs = [mp.mpf((-1) ** m * math.comb(n + 1, n - m)) / math.factorial(m)
              for m in range(n + 1)]
    return lambda x: (x * mp.exp(mu * x)
                      * mp.polyval(coeffs[::-1], -2 * mu * x))


class TestStandingMode:
    XS = np.linspace(0.0, 1.0, 41)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form(self, n):
        import mpmath as mp
        for k in range(1, n + 1):
            mu, f, df, f_over_x = standing_mode(n, k)
            assert mu == laguerre_poles(n)[k - 1]
            fx = f(self.XS)
            scale = np.max(np.abs(fx))
            assert f(0.0) == 0.0
            assert abs(f(1.0)) <= 1e-12 * scale
            assert np.max(np.abs(self.XS * f_over_x(self.XS) - fx)) \
                <= 1e-15 * scale
            g = _mp_mode(n, mu)
            with mp.workdps(30):
                for x in self.XS:
                    d1 = float(mp.diff(g, mp.mpf(x)))
                    assert abs(float(df(x)) - d1) <= 1e-12 * max(1.0, abs(d1))
                    if x == 0.0:
                        continue
                    d2 = float(mp.diff(g, mp.mpf(x), 2))
                    resid = (d2 - mu * mu * float(f(x))
                             - 2.0 * (n + 1) * mu * float(f_over_x(x)))
                    assert abs(resid) <= 1e-10 * scale

    def test_validation(self):
        for n, k in ((0, 1), (2, 0), (2, 3)):
            with pytest.raises(ValueError):
                standing_mode(n, k)

    def test_built_once(self):
        assert standing_mode(3, 2) is standing_mode(3, 2)

    def test_is_the_integer_eigenfunction(self):
        p = SpectralProblem(4.0)
        for ev in find_eigenvalues(p, 1):
            assert eigenfunction(p, ev) is standing_mode(3, ev.index).f
            assert ev.value == laguerre_poles(3)[ev.index - 1]


class TestEigenfunction:
    def test_dirichlet(self):
        p = SpectralProblem(2.0)
        ev = find_eigenvalues(p, 1)[0]
        mode = eigenfunction(p, ev)
        assert mode(0.0) == 0.0
        assert abs(mode(1.0)) < 1e-8

    def test_alpha2_closed_form(self):
        p = SpectralProblem(2.0)
        ev = find_eigenvalues(p, 1)[0]
        mode = eigenfunction(p, ev)
        x = 0.37
        assert mode(x) == pytest.approx(
            x * math.exp(-x) * (2 - 2 * x), rel=1e-12)

    def test_ode_residual_complex_pair(self):
        p = SpectralProblem(1.5)
        evs = find_eigenvalues(p, 1)
        ev = next(e for e in evs if e.branch == "upper")
        mode = eigenfunction(p, ev)
        lam = ev.value
        xs = np.linspace(0.05, 0.95, 200)
        h = 1e-4
        worst = 0.0
        for x in xs:
            f = [mode(x + k * h) for k in (-1, 0, 1)]
            d2 = (f[0] - 2 * f[1] + f[2]) / h ** 2
            resid = -d2 + (2 * lam * 1.5 / x) * f[1] + lam * lam * f[1]
            scale = max(abs(f[1]), 1.0)
            worst = max(worst, abs(resid) / (scale / h ** 0))
        assert worst < 1e-5 * max(abs(lam) ** 2, 1.0) * 10


class TestSpectralAbscissa:
    def test_values(self):
        assert spectral_abscissa(find_eigenvalues(SpectralProblem(2.0), 1)) \
            == pytest.approx(-1.0, abs=1e-10)
        assert spectral_abscissa(find_eigenvalues(SpectralProblem(3.0), 1)) \
            == pytest.approx((-3 + math.sqrt(3)) / 2, abs=1e-10)
        assert spectral_abscissa([]) is None

    def test_root_magnitude_bound(self):
        for n in (1, 3, 5):
            s = spectral_abscissa(
                find_eigenvalues(SpectralProblem(float(n + 1)), 1))
            assert abs(s) <= 3.0 / (2 + n) + 1e-12


class TestAlphaSweep:
    def test_real_count_step_function(self):
        alphas = [1.2, 1.6, 2.2, 2.6]
        pts = alpha_sweep(alphas, 1)
        for a in alphas:
            n_real = {p.n_real for p in pts if p.alpha == a}
            assert n_real == {math.ceil(a - 1)}

    def test_trajectory_continuity(self):
        alphas = [1.4, 1.45, 1.5]
        pts = alpha_sweep(alphas, 2)
        by_tid = {}
        for p in pts:
            by_tid.setdefault(p.trajectory_id, []).append(p)
        # at least one trajectory spans all three alphas with small steps
        spans = [t for t in by_tid.values() if len(t) == 3]
        assert spans
        for t in spans:
            vals = [p.value for p in sorted(t, key=lambda p: p.alpha)]
            assert all(abs(b - a) < 1.5 for a, b in zip(vals, vals[1:]))
