"""Spectrum tests: characteristic function, winding counts, eigenvalue
search paths, eigenfunctions, sweeps."""

import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singwave import specfun, spectrum
from singwave.specfun import (_CANCEL_RTOL, _PHASE_RTOL, ConvergenceError,
                              kummer_m)
from singwave.spectrum import (Eigenvalue, Rect, SpectralProblem,
                               _real_eigenvalues_generic, alpha_sweep,
                               asymptotic_eigenvalue, char_fn, count_zeros,
                               eigenfunction, find_eigenvalues, integer_n,
                               laguerre_poles, spectral_abscissa,
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


    @pytest.mark.parametrize("m, diving", [(2, -22.10), (3, -25.31),
                                           (4, -28.32)])
    def test_just_above_integer(self, m, diving):
        # ceil(alpha - 1) = m real roots: the m - 1 near the Laguerre poles
        # of alpha = m plus one diving towards -infinity
        evs = find_eigenvalues(SpectralProblem(m + 1e-13), 5)
        reals = sorted(e.value.real for e in evs if e.branch == "real")
        assert len(reals) == m
        assert reals[0] == pytest.approx(diving, abs=0.01)
        assert np.allclose(reals[1:], laguerre_poles(m - 1), atol=1e-9)


    @pytest.mark.parametrize("u", [1, 4, 7, 10, 13])
    def test_near_one(self, u):
        # alpha = 1 +/- 10^-u, audited: ceil(alpha - 1) real roots, one
        # above 1 and none below, and the three pairs asked for
        for alpha in (1.0 + 10.0 ** -u, 1.0 - 10.0 ** -u):
            evs = find_eigenvalues(SpectralProblem(alpha), 3)
            n_real = sum(1 for e in evs if e.branch == "real")
            assert n_real == math.ceil(alpha - 1.0)
            assert len(evs) == n_real + 6


class TestRealAxisScan:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_near_integer_count(self, m):
        # alpha = m +/- 10^-u, u in [10, 13] in steps of 0.25
        for sign in (1.0, -1.0):
            for i in range(13):
                alpha = m + sign * 10.0 ** -(10.0 + 0.25 * i)
                mus = _real_eigenvalues_generic(SpectralProblem(alpha))
                assert len(mus) == math.ceil(alpha - 1.0)


# the scan's alpha list: below, across and near integers, and up to 6.2
_SCAN_ALPHAS = (1.45, 1.972, 2.00001, 2.022, 2.3, 2.7, 3.0000009938, 3.7,
                4.5, 5.3, 6.2)


def _scan_brackets(alpha):
    """The sign-change brackets of _real_eigenvalues_generic's scan."""
    dist = max(min(alpha - math.floor(alpha), math.ceil(alpha) - alpha),
               1e-16)
    z_hi = 4.0 * alpha + 16.0 + 3.0 * max(0.0, -math.log(dist))
    zs = np.linspace(1e-6, z_hi, 4000)
    vals = spectrum.kummer_m_array(1.0 - alpha, 2.0, zs).real
    return [(zs[i], zs[i + 1]) for i in range(len(zs) - 1)
            if vals[i] * vals[i + 1] < 0]


def _mp_laguerre(n, a, x):
    # three-term recurrence in mpmath's working precision
    p0, p1 = 1, 1 + a - x
    if n == 0:
        return p0
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1 + a - x) * p1 - (k + a) * p0) / (k + 1)
    return p1


class TestScipyOracles:
    """The pure-Python Brent iteration and the Golub-Welsch poles against
    the scipy routines they replace, bit for bit."""

    def test_brent_root_matches_brentq(self):
        from scipy.optimize import brentq

        n_brackets = 0
        for alpha in _SCAN_ALPHAS:
            calls = [0, 0]

            def g(z, j):
                calls[j] += 1
                return kummer_m(1.0 - alpha, 2.0, complex(z)).real

            for lo, hi in _scan_brackets(alpha):
                ref = brentq(g, lo, hi, args=(0,), xtol=1e-15,
                             rtol=8.9e-16)
                got = spectrum._brent_root(lambda z: g(z, 1), float(lo),
                                           float(hi))
                assert type(got) is float
                assert got == ref, (alpha, lo)
                n_brackets += 1
            assert calls[0] == calls[1], alpha
        assert n_brackets == 31

    def test_brent_root_errors(self):
        with pytest.raises(spectrum.SpectrumError, match="no sign change"):
            spectrum._brent_root(lambda z: z * z + 1.0, -1.0, 1.0)
        with pytest.raises(spectrum.SpectrumError, match="100 iterations"):
            spectrum._brent_root(lambda z: math.copysign(1.0, z), -1e300,
                                 2e300)

    def test_laguerre_poles_match_roots_genlaguerre(self):
        from scipy.special import roots_genlaguerre

        from singwave.specfun import laguerre

        for n in range(1, 61):
            x = roots_genlaguerre(n, 1.0)[0]
            for _ in range(3):
                x = x + laguerre(n, 1, x) / laguerre(n - 1, 2, x)
            ref = tuple(float(mu) for mu in np.sort(-x / 2.0))
            assert laguerre_poles(n) == ref, n

    def test_laguerre_poles_match_eigvals_banded(self):
        # the Golub-Welsch nodes come from LAPACK's dsbevd, called as
        # scipy.linalg.eigvals_banded calls it: the poles are unchanged
        from scipy.linalg import eigvals_banded

        from singwave.specfun import laguerre

        for n in range(1, 61):
            k = np.arange(n, dtype=float)
            band = np.zeros((2, n))
            band[0, 1:] = -np.sqrt(k[1:] * (k[1:] + 1.0))
            band[1] = 2 * k + 1.0 + 1
            x = eigvals_banded(band)
            if n > 1:
                y = spectrum._laguerre1_forward(n, x)
                x -= y / ((n * y - (n + 1.0)
                           * spectrum._laguerre1_forward(n - 1, x)) / x)
            for _ in range(3):
                x = x + laguerre(n, 1, x) / laguerre(n - 1, 2, x)
            assert laguerre_poles(n) == tuple(
                float(mu) for mu in np.sort(-x / 2.0)), n

    def test_laguerre_poles_match_mpmath(self):
        # relative error <= 4e-14 (n = 1..60 all measured <= 2.8e-14,
        # the worst at the smallest |mu| of n = 58)
        import mpmath as mp

        with mp.workdps(30):
            for n in [*range(1, 13), 20, 40, 58, 60]:
                for mu in laguerre_poles(n):
                    x = mp.mpf(-2.0 * mu)
                    for _ in range(3):
                        x += _mp_laguerre(n, 1, x) / _mp_laguerre(n - 1, 2,
                                                                  x)
                    ref = -x / 2
                    assert abs((mu - ref) / ref) <= 4e-14, (n, mu)


class TestCharValues:
    def test_each_lambda_evaluated_once(self, monkeypatch):
        # below alpha = 1 there is no real-axis scan, so every evaluation
        # of F in the solve goes through the problem's two caches, and
        # each lambda is evaluated at most once per grade
        p = SpectralProblem(0.7)
        a = 1.0 - p.alpha
        seen = []

        def scalar(aa, b, z, rtol=_CANCEL_RTOL):
            if (aa, b) == (a, 2.0):
                seen.append((complex(z), rtol))
            return kummer_m(aa, b, z, rtol=rtol)

        def array(aa, b, z, rtol=_CANCEL_RTOL):
            if (aa, b) == (a, 2.0):
                seen.extend((zi, rtol) for zi in np.ravel(z).tolist())
            return kummer_m_array(aa, b, z, rtol=rtol)

        kummer_m, kummer_m_array = spectrum.kummer_m, spectrum.kummer_m_array
        monkeypatch.setattr(spectrum, "kummer_m", scalar)
        monkeypatch.setattr(spectrum, "kummer_m_array", array)
        evs = find_eigenvalues(p, 4)
        assert len(evs) == 8
        assert len(seen) == len(set(seen))
        for rtol, cache in ((_CANCEL_RTOL, p.char_values),
                            (_PHASE_RTOL, p.phase_values)):
            assert cache
            assert {z for z, r in seen if r == rtol} == {
                -2.0 * lam for lam in cache}
        assert {r for _, r in seen} == {_CANCEL_RTOL, _PHASE_RTOL}

    def test_cache_per_problem(self):
        p = SpectralProblem(1.5)
        find_eigenvalues(p, 2)
        assert p.char_values
        q = SpectralProblem(1.6)
        assert q.char_values == {}
        assert SpectralProblem(1.5) == p
        assert hash(SpectralProblem(1.5)) == hash(p)
        assert "char_values" not in repr(p)
        assert p.phase_values and q.phase_values == {}
        assert "phase_values" not in repr(p)

    def test_audit_error_before_later_convergence_error(self, monkeypatch):
        # the first audit rectangle holds no zero of F, and a boundary
        # sample of the second raises: the first one's AuditError is raised
        p = SpectralProblem(0.7)
        far = 40.0 + 40.0j

        def raising(f):
            def g(aa, b, z, **kwargs):
                if np.any(np.abs(np.ravel(z) + 2.0 * far) < 4.0):
                    raise ConvergenceError("forced", -2.0 * far, None)
                return f(aa, b, z, **kwargs)
            return g

        for name in ("kummer_m", "kummer_m_array"):
            monkeypatch.setattr(spectrum, name,
                                raising(getattr(spectrum, name)))
        evs = [Eigenvalue(-1.0 + 0.5j, 1, "upper", 0.0),
               Eigenvalue(far, 2, "upper", 0.0)]
        with pytest.raises(spectrum.AuditError):
            spectrum._audit(p, evs)
        with pytest.raises(ConvergenceError):
            spectrum._audit(p, evs[1:])


def _bits(evs):
    """Values, residuals and labels of eigenvalues, floats as bit patterns."""
    return [(ev.value.real.hex(), ev.value.imag.hex(), ev.residual.hex(),
             ev.index, ev.branch, ev.seed_source) for ev in evs]


@st.composite
def _rect_near_zero(draw):
    """A non-integer alpha in (0.2, 4.5) and a rectangle: either anywhere in
    the left half plane's neighbourhood, or with one edge within 1e-3 of a
    zero of F, on either side of it."""
    alpha = draw(st.floats(0.2, 4.5).filter(
        lambda a: abs(a - round(a)) > 1e-6))
    w, h = draw(st.floats(0.05, 4.0)), draw(st.floats(0.05, 4.0))
    if not draw(st.booleans()):
        x, y = draw(st.floats(-8.0, 0.5)), draw(st.floats(-10.0, 10.0))
        return alpha, Rect(x, x + w, y, y + h), False
    p = SpectralProblem(alpha)
    seed = asymptotic_eigenvalue(p, draw(st.integers(1, 3)), "upper")
    # Newton's capped step keeps it near the seeds' zeros even next to
    # alpha = 1, where F is almost flat
    lam, _ = spectrum._newton(p, seed)
    d = draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.floats(-6, -3))
    # the zero sits at fraction t along the edge that passes it at d
    t = draw(st.floats(0.1, 0.9))
    edge = draw(st.sampled_from(("left", "right", "bottom", "top")))
    if edge in ("left", "right"):
        x = lam.real + d if edge == "left" else lam.real - d - w
        y = lam.imag - t * h
    else:
        y = lam.imag + d if edge == "bottom" else lam.imag - d - h
        x = lam.real - t * w
    return alpha, Rect(x, x + w, y, y + h), True


class TestPhaseGrade:
    """Walk samples at the phase grade leave every result unchanged."""

    def test_count_zeros_same_at_both_grades(self):
        kinds, differ = set(), []

        def outcome(alpha, rect):
            p = SpectralProblem(alpha)
            try:
                return count_zeros(p, rect), p.phase_values
            except spectrum.SpectrumError as exc:
                return type(exc), p.phase_values

        @settings(derandomize=True, database=None, deadline=None,
                  max_examples=40)
        @given(case=_rect_near_zero())
        def check(case):
            alpha, rect, near = case
            phase, sampled = outcome(alpha, rect)
            # the walk at the value grade, as it was before the phase grade
            with mock.patch.object(spectrum, "_PHASE_RTOL", _CANCEL_RTOL):
                value, ref = outcome(alpha, rect)
            assert phase == value
            kinds.add(near)
            differ.extend(lam for lam, f in sampled.items()
                          if lam in ref and f != ref[lam])

        check()
        assert kinds == {True, False}
        assert differ  # some samples really were taken at the phase grade

    def test_char_fn_reads_no_phase_value(self):
        p = SpectralProblem(0.7)
        count_zeros(p, Rect(-2.0, -1.0, 1.0, 3.0))
        lam = next(iter(p.phase_values))
        p.phase_values[lam] *= 2.0
        assert char_fn(p, lam) == kummer_m(1.0 - p.alpha, 2.0, -2.0 * lam)
        assert spectrum._phase_fn(p, lam) == char_fn(p, lam)

    @pytest.mark.parametrize("alpha", [0.7, 2.3])
    @pytest.mark.parametrize("factor", [1 + 1e-9, 1 + 1e-9j])
    def test_perturbed_phase_values_change_nothing(self, monkeypatch, alpha,
                                                   factor):
        ref = find_eigenvalues(SpectralProblem(alpha), 5)

        def perturbed(f):
            def g(aa, b, z, rtol=_CANCEL_RTOL):
                out = f(aa, b, z, rtol=rtol)
                return out * factor if rtol == _PHASE_RTOL else out
            return g

        for name in ("kummer_m", "kummer_m_array"):
            monkeypatch.setattr(spectrum, name,
                                perturbed(getattr(spectrum, name)))
        p = SpectralProblem(alpha)
        evs = find_eigenvalues(p, 5)
        assert p.phase_values
        assert _bits(evs) == _bits(ref)


    @pytest.mark.parametrize("alpha, k_max", [(0.694473, 20),
                                              (1.440102, 5)])
    def test_walk_never_reaches_mpmath(self, monkeypatch, alpha, k_max):
        # each phase-grade walk sample finds a double-precision regime: the
        # expansion alone in the large-|z| band, else after the series.
        # Newton's phase-grade F may reach mpmath next to a zero, so each
        # fallback is recorded with its grade and whether Newton asked
        grades, fallbacks, newton = [], [], []

        def graded(f):
            def g(aa, b, z, rtol=_CANCEL_RTOL):
                grades.append(rtol)
                try:
                    return f(aa, b, z, rtol=rtol)
                finally:
                    grades.pop()
            return g

        def high(f):
            def g(aa, b, z):
                fallbacks.append((grades[-1] if grades else None,
                                  bool(newton)))
                return f(aa, b, z)
            return g

        def in_newton(f):
            def g(*args):
                newton.append(True)
                try:
                    return f(*args)
                finally:
                    newton.pop()
            return g

        for name in ("kummer_m", "kummer_m_array"):
            monkeypatch.setattr(spectrum, name,
                                graded(getattr(spectrum, name)))
        monkeypatch.setattr(specfun, "_kummer_series_highprec",
                            high(specfun._kummer_series_highprec))
        monkeypatch.setattr(spectrum, "_newton", in_newton(spectrum._newton))
        p = SpectralProblem(alpha)
        find_eigenvalues(p, k_max)
        assert p.phase_values
        assert (_CANCEL_RTOL, True) in fallbacks  # the spy sees Newton's
        assert (_PHASE_RTOL, False) not in fallbacks


class TestNewtonGrades:
    """Newton takes F' and its long steps at the phase grade, its last
    steps at the value grade."""

    # value-grade F calls that reach _kummer_series_highprec in one Newton
    # solve (kept mpmath values included); 6, 8 and 10 before the grades
    VALUE_FALLBACKS_PER_SOLVE = 3

    @pytest.mark.parametrize("alpha, k_max", [(0.694473, 20),
                                              (1.440102, 5),
                                              (3 + 9.9e-7, 5)])
    def test_grades_by_step(self, monkeypatch, alpha, k_max):
        import mpmath

        # solves: one record per Newton solve; active while one runs
        where, solves, active, evaluated = [], [], [], []

        def tagged(name, tag):
            f = getattr(spectrum, name)

            def g(problem, lam):
                if active and tag != "dlam":
                    solves[-1]["f"].append((tag, complex(lam)))
                where.append(tag)
                try:
                    return f(problem, lam)
                finally:
                    where.pop()
            monkeypatch.setattr(spectrum, name, g)

        def high(f):
            def g(aa, b, z):
                if active:
                    solves[-1]["fallbacks"].append(where[-1] if where
                                                   else None)
                return f(aa, b, z)
            return g

        def hyp1f1(f):
            def g(aa, b, z, **kwargs):
                evaluated.append((aa, b, complex(z)))
                return f(aa, b, z, **kwargs)
            return g

        def newton(f):
            def g(problem, seed):
                solves.append({"f": [], "fallbacks": []})
                active.append(True)
                try:
                    lam, res = f(problem, seed)
                finally:
                    active.pop()
                solves[-1]["out"] = (lam, res, problem)
                return lam, res
            return g

        tagged("char_fn", "value")
        tagged("_phase_fn", "phase")
        tagged("char_fn_dlam", "dlam")
        monkeypatch.setattr(specfun, "_kummer_series_highprec",
                            high(specfun._kummer_series_highprec))
        monkeypatch.setattr(mpmath, "hyp1f1", hyp1f1(mpmath.hyp1f1))
        monkeypatch.setattr(spectrum, "_newton", newton(spectrum._newton))
        specfun._hyp1f1.cache_clear()
        find_eigenvalues(SpectralProblem(alpha), k_max)

        assert solves
        for s in solves:
            assert "dlam" not in s["fallbacks"]
            assert (s["fallbacks"].count("value")
                    <= self.VALUE_FALLBACKS_PER_SOLVE)
            grades = [tag for tag, _ in s["f"]]
            first = grades.index("value")
            # phase-grade F until the switch, then value-grade F only, the
            # first at the lambda last taken at the phase grade
            assert first >= 1 and set(grades[:first]) == {"phase"}
            assert set(grades[first:]) == {"value"}
            assert s["f"][first][1] == s["f"][first - 1][1]
            # the last step starts from a value-grade F, and the residual
            # is the value-grade |F| at the root
            assert len(grades) - first >= 2
            lam, res, problem = s["out"]
            assert s["f"][-1] == ("value", lam)
            assert res == abs(problem.char_values[lam])
        # no lambda reaches mpmath twice, at either grade
        assert len(evaluated) == len(set(evaluated))


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
        # every trajectory at the first alpha spans all three
        first = {p.trajectory_id for p in pts if p.alpha == 1.4}
        assert first
        for tid in first:
            assert sorted(p.alpha for p in by_tid[tid]) == alphas
        # with small steps
        spans = [t for t in by_tid.values() if len(t) == 3]
        for t in spans:
            vals = [p.value for p in sorted(t, key=lambda p: p.alpha)]
            assert all(abs(b - a) < 1.5 for a, b in zip(vals, vals[1:]))

    def test_labels_across_integers(self):
        pts = alpha_sweep([2 - 1e-5, 2 + 1e-5, 3 - 1e-5, 3 + 1e-5], 1)
        label = {(p.alpha, p.trajectory_id): p.value for p in pts}
        # the real root at -1 carries on across alpha = 2 under one name
        for a in (2 - 1e-5, 2 + 1e-5):
            assert label[a, "real:1"] == pytest.approx(-1.0, abs=1e-3)
        # and a new one arrives from -infinity at the highest rank
        assert label[2 + 1e-5, "real:2"].real < -10.0
        # at alpha = 3 both carry on, equal to the Laguerre roots
        for a in (3 - 1e-5, 3 + 1e-5):
            assert label[a, "real:1"] == pytest.approx(-0.6340, abs=1e-3)
            assert label[a, "real:2"] == pytest.approx(-2.3660, abs=1e-3)
        # pairs are named by floor(alpha): each dives to -infinity at 2
        pairs = {(p.alpha, p.trajectory_id) for p in pts
                 if p.branch != "real" and p.alpha < 2.5}
        assert pairs == {(2 - 1e-5, "upper:1:1"), (2 - 1e-5, "lower:1:1"),
                         (2 + 1e-5, "upper:2:1"), (2 + 1e-5, "lower:2:1")}

    def test_dropped_point_recorded(self, monkeypatch):
        find = spectrum.find_eigenvalues

        def failing(problem, *args, **kwargs):
            if problem.alpha == 1.3:
                raise spectrum.NewtonError(0.5j)
            return find(problem, *args, **kwargs)

        monkeypatch.setattr(spectrum, "find_eigenvalues", failing)
        pts = alpha_sweep([1.2, 1.3, 1.4], 1)
        assert pts.dropped == [
            (1.3, "NewtonError: Newton iteration stagnated (seed 0.5j)")]
        assert {p.alpha for p in pts} == {1.2, 1.4}
        # the points at 1.4 do not depend on the alphas before it
        assert [p for p in pts if p.alpha == 1.4] == alpha_sweep([1.4], 1)
        # pool workers return the record with the points
        assert pickle.loads(pickle.dumps(pts)).dropped == pts.dropped
        assert alpha_sweep([1.2, 1.4], 1).dropped == []
