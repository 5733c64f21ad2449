"""Spectrum tests: characteristic function, winding counts, eigenvalue
search paths, eigenfunctions, sweeps."""

import cmath
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
                               alpha_sweep, asymptotic_eigenvalue, char_fn,
                               collocation_eigenvalues, collocation_order,
                               count_zeros, eigenfunction, find_eigenvalues,
                               integer_n, laguerre_poles, spectral_abscissa,
                               standing_mode)

_EPS = np.finfo(float).eps


class TestSpectralProblem:
    def test_integer_detection(self):
        assert SpectralProblem(2.0).integer_n == 1
        assert SpectralProblem(2.0 + 1e-13).integer_n is None
        assert SpectralProblem(1.0).integer_n == 0
        assert SpectralProblem(1.5).integer_n is None
        assert [integer_n(a) for a in (0.4, 1.0, 2.5, 3.0 - 1e-15, 3.0,
                                       3.0 + 1e-13)] == [None, 0, None, 2, 2,
                                                         None]

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
        # the generic real roots, Newton on F from the collocation's real
        # values, against the Laguerre poles: measured within 1 ulp
        for alpha in (3.0, 5.0):
            p = SpectralProblem(alpha)
            generic = spectrum._real_roots(
                p, spectrum._collocation_seeds(p, 0)[0])
            fast = laguerre_poles(p.integer_n)
            assert len(generic) == len(fast) == alpha - 1
            for (lam, _), mu in zip(generic, fast):
                assert lam.imag == 0.0
                assert abs(lam.real - mu) <= 4 * _EPS * abs(mu), alpha


    def test_short_spectrum_raises(self, monkeypatch):
        # Newton fails from every seed above pair 1, the gap seed past it
        # too, and the covering rectangle reaches only to pair 1: one pair
        # of three is an error, not a shorter list
        newton = spectrum._newton

        def failing(problem, seed, **kwargs):
            if problem.alpha == 1.5 and seed.imag > 5.0:
                raise spectrum.NewtonError(seed)
            return newton(problem, seed, **kwargs)

        monkeypatch.setattr(spectrum, "_newton", failing)
        with pytest.raises(spectrum.SpectrumError,
                           match=r"^found 1 of 3 conjugate pairs"):
            find_eigenvalues(SpectralProblem(1.5), 3)
        # a sweep drops that alpha and keeps the others
        pts = alpha_sweep([1.5, 1.6], 3)
        assert pts.dropped == [(1.5, "SpectrumError: found 1 of 3 conjugate "
                                     "pairs (alpha=1.5)")]
        assert {p.alpha for p in pts} == {1.6}

    def test_nan_step_skips_the_seed(self, monkeypatch):
        # F is NaN at the first upper collocation seed: the NaN step would
        # pass the step cap and the disc test, which compare, so Newton
        # raises NewtonError, the solve skips that seed and the pair it
        # would have reached comes from elsewhere
        ref = find_eigenvalues(SpectralProblem(1.5), 3)
        seed = spectrum._collocation_seeds(SpectralProblem(1.5), 3)[1][0]
        newton_fn = spectrum._newton_fn

        def nan_at_seed(problem, lam, *args):
            if lam == seed:
                return complex(math.nan, math.nan)
            return newton_fn(problem, lam, *args)

        monkeypatch.setattr(spectrum, "_newton_fn", nan_at_seed)
        with pytest.raises(spectrum.NewtonError, match="non-finite step"):
            spectrum._newton(SpectralProblem(1.5), seed)
        evs = find_eigenvalues(SpectralProblem(1.5), 3)
        assert [(ev.index, ev.branch) for ev in evs] == [
            (ev.index, ev.branch) for ev in ref]
        for ev, r in zip(evs, ref):
            assert abs(ev.value - r.value) <= EIG_RTOL * abs(r.value)

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


def _real_roots_at(alpha):
    """The real roots of find_eigenvalues' path: Newton from the real
    collocation values nearest 0."""
    p = SpectralProblem(alpha)
    return spectrum._real_roots(p, spectrum._collocation_seeds(p, 1)[0])


# below, across and near integers, and up to 6.2
_REAL_ROOT_ALPHAS = (1.45, 1.972, 2.00001, 2.022, 2.3, 2.7, 3.0000009938,
                     3.7, 4.5, 5.3, 6.2)


class TestRealAxisScan:
    """The count of real roots next to integers, where the lowest dives
    towards -infinity; the name is that of the real-axis scan that the
    collocation seeds replaced."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_near_integer_count(self, m):
        # alpha = m +/- 10^-u, u in [10, 13] in steps of 0.25
        for sign in (1.0, -1.0):
            for i in range(13):
                alpha = m + sign * 10.0 ** -(10.0 + 0.25 * i)
                assert len(_real_roots_at(alpha)) == math.ceil(alpha - 1.0)


class TestRealRoots:
    """The real roots: Newton from the collocation's real values, and the
    check that no two seeds reach one root."""

    def test_match_mpmath(self):
        # each root to within 1e-15 relative of 50-digit findroot
        import mpmath as mp

        n_roots = 0
        with mp.workdps(50):
            for alpha in _REAL_ROOT_ALPHAS:
                a = mp.mpf(alpha)
                for lam, _ in _real_roots_at(alpha):
                    assert lam.imag == 0.0
                    z = mp.findroot(lambda z: mp.hyp1f1(1 - a, 2, z),
                                    -2.0 * lam.real)
                    assert abs((-2.0 * lam.real - z) / z) <= 1e-15, (alpha,
                                                                     lam)
                    n_roots += 1
        assert n_roots == 31

    def test_two_seeds_one_root_raises(self, monkeypatch):
        # the real value nearest 0 given twice: both seeds reach one root,
        # so a real root is missing. The solve raises, and a sweep drops
        # that alpha
        seeds = spectrum._collocation_seeds

        def doubled(problem, n_pairs):
            real, upper = seeds(problem, n_pairs)
            nearest = min(real, key=abs)
            return [nearest, nearest], upper

        monkeypatch.setattr(spectrum, "_collocation_seeds", doubled)
        with pytest.raises(spectrum.SpectrumError,
                           match="two real seeds reached the root"):
            find_eigenvalues(SpectralProblem(2.3), 3, audit=False)
        pts = alpha_sweep([2.3], 1)
        assert pts == []
        assert [a for a, _ in pts.dropped] == [2.3]
        assert "two real seeds reached the root" in pts.dropped[0][1]
        # and fewer real seeds than ceil(alpha - 1) is an error too
        with pytest.raises(spectrum.SpectrumError,
                           match="collocation gave 1 real eigenvalues, "
                                 "expected 2"):
            spectrum._real_roots(SpectralProblem(2.3), [-1.0])


def _mp_laguerre_newton(n, x):
    """x minus one Newton step on L_n^(1) at x, in mpmath's working
    precision: L_n^(1) and L_(n-1)^(1) by the three-term recurrence, and
    x d/dx L_n^(1) = n L_n^(1) - (n + 1) L_(n-1)^(1)."""
    p0, p1 = 1, 2 - x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 2 - x) * p1 - (k + 1) * p0) / (k + 1)
    return x - x * p1 / (n * p1 - (n + 1) * p0)


class TestScipyOracles:
    """The Golub-Welsch poles against the scipy routines they replace, and
    against 40-digit mpmath roots."""

    def test_laguerre_poles_match_roots_genlaguerre(self):
        # relative 4e-14; n = 1..60 measured at most 1.8e-14
        from scipy.special import roots_genlaguerre

        for n in range(1, 61):
            ref = np.sort(-roots_genlaguerre(n, 1.0)[0] / 2.0)
            got = np.array(laguerre_poles(n))
            assert np.all(np.abs(got - ref) <= 4e-14 * np.abs(ref)), n

    def test_laguerre_poles_match_eigvals_banded(self):
        # the Golub-Welsch nodes are the eigenvalues of the Jacobi matrix
        # of the L^(1) recurrence: the polished roots lie within 16 eps of
        # its largest eigenvalue from the nodes scipy.linalg.eigvals_banded
        # gives (n = 2..60 measured at most 8.4 eps). At n = 1 dsbevd's
        # quick return reads the band's first row, and eigvals_banded
        # gives 0
        from scipy.linalg import eigvals_banded

        for n in range(2, 61):
            k = np.arange(n, dtype=float)
            band = np.zeros((2, n))
            band[0, 1:] = -np.sqrt(k[1:] * (k[1:] + 1.0))
            band[1] = 2 * k + 1.0 + 1
            x = np.sort(eigvals_banded(band))[::-1]
            got = -2.0 * np.array(laguerre_poles(n))
            assert np.all(np.abs(got - x) <= 16 * _EPS * x[0]), n

    def test_laguerre_poles_match_mpmath(self):
        # relative error <= 4e-14 for n <= 60 (all measured <= 1.8e-14),
        # and over the CLI's integer alphas up to 170 <= 1e-13 at n = 86
        # and 130 (3.1e-14 and 4.1e-14) and <= 3e-13 at n = 169 (1.6e-13),
        # each against a 40-digit root
        import mpmath as mp

        with mp.workdps(40):
            for n in [*range(1, 13), 20, 40, 58, 60, 86, 130, 169]:
                bound = 4e-14 if n <= 60 else 1e-13 if n <= 130 else 3e-13
                for mu in laguerre_poles(n):
                    x = mp.mpf(-2.0 * mu)
                    for _ in range(2):  # from 1e-13, past 40 digits
                        x = _mp_laguerre_newton(n, x)
                    ref = -x / 2
                    assert abs((mu - ref) / ref) <= bound, (n, mu)


class TestCharValues:
    def test_each_lambda_evaluated_once(self, monkeypatch):
        # every evaluation of F in the solve goes through the problem's
        # two caches, both at the phase grade, and each cache evaluates a
        # lambda at most once. Only Newton's calls carry an absolute bound,
        # and their values stay in newton_values, which nothing but Newton
        # reads
        p = SpectralProblem(0.7)
        a = 1.0 - p.alpha
        seen = []  # (z, rtol, atol)

        def scalar(aa, b, z, rtol=_CANCEL_RTOL, atol=0.0):
            if (aa, b) == (a, 2.0):
                seen.append((complex(z), rtol, atol))
            return kummer_m(aa, b, z, rtol=rtol, atol=atol)

        def array(aa, b, z, rtol=_CANCEL_RTOL, **kwargs):
            assert not kwargs
            if (aa, b) == (a, 2.0):
                seen.extend((zi, rtol, 0.0) for zi in np.ravel(z).tolist())
            return kummer_m_array(aa, b, z, rtol=rtol)

        kummer_m, kummer_m_array = spectrum.kummer_m, spectrum.kummer_m_array
        monkeypatch.setattr(spectrum, "kummer_m", scalar)
        monkeypatch.setattr(spectrum, "kummer_m_array", array)
        evs = find_eigenvalues(p, 4)
        assert len(evs) == 8
        assert p.phase_values and p.newton_values
        assert len(seen) == len(p.phase_values) + len(p.newton_values)
        assert {z for z, _, atol in seen if atol} == {
            -2.0 * lam for lam in p.newton_values}
        assert {z for z, _, atol in seen if not atol} == {
            -2.0 * lam for lam in p.phase_values}
        assert {r for _, r, _ in seen} == {_PHASE_RTOL}

    def test_cache_per_problem(self):
        p = SpectralProblem(1.5)
        find_eigenvalues(p, 2)
        assert p.newton_values
        q = SpectralProblem(1.6)
        assert q.newton_values == {}
        assert SpectralProblem(1.5) == p
        assert hash(SpectralProblem(1.5)) == hash(p)
        for cache in ("phase_values", "newton_values"):
            assert cache not in repr(p)
        assert p.phase_values and q.phase_values == {}

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
        evs = [Eigenvalue(-1.0 + 0.5j, 1, "upper", 0.0, "collocation"),
               Eigenvalue(far, 2, "upper", 0.0, "collocation")]
        with pytest.raises(spectrum.AuditError):
            spectrum._audit(p, evs)
        with pytest.raises(ConvergenceError):
            spectrum._audit(p, evs[1:])


# Newton's last steps accept F within an absolute bound that places the
# root to about one ulp, so an eigenvalue is reproducible to this, not to
# the bit: a change of path (other early iterates) moves it by an ulp
EIG_RTOL = 4 * 2.0 ** -52


def _assert_close(evs, ref):
    """evs and ref hold the same eigenvalues, labels alike and each value
    within EIG_RTOL |lambda|."""
    assert [(ev.index, ev.branch, ev.seed_source) for ev in evs] == [
        (ev.index, ev.branch, ev.seed_source) for ev in ref]
    for ev, r in zip(evs, ref):
        assert abs(ev.value - r.value) <= EIG_RTOL * abs(r.value), (ev, r)


def _mp_root(alpha, lam):
    """The zero of M(1 - alpha, 2, -2 lambda) next to lam, by
    mpmath.findroot at 50 digits, as a complex."""
    import mpmath

    with mpmath.workdps(50):
        a = 1 - mpmath.mpf(alpha)
        return complex(mpmath.findroot(
            lambda l: mpmath.hyp1f1(a, 2, -2 * l), mpmath.mpc(lam),
            df=lambda l: -a * mpmath.hyp1f1(a + 1, 3, -2 * l),
            solver="newton"))


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
        # and the walk reads its own cache alone
        assert spectrum._phase_fn(p, lam) == p.phase_values[lam]

    @pytest.mark.parametrize("alpha", [0.7, 2.3])
    @pytest.mark.parametrize("factor", [1 + 1e-9, 1 + 1e-9j])
    def test_perturbed_phase_values_change_nothing(self, monkeypatch, alpha,
                                                   factor):
        ref = find_eigenvalues(SpectralProblem(alpha), 5)

        def perturbed(f):
            def g(aa, b, z, rtol=_CANCEL_RTOL, **kwargs):
                out = f(aa, b, z, rtol=rtol, **kwargs)
                return out * factor if rtol == _PHASE_RTOL else out
            return g

        for name in ("kummer_m", "kummer_m_array"):
            monkeypatch.setattr(spectrum, name,
                                perturbed(getattr(spectrum, name)))
        p = SpectralProblem(alpha)
        evs = find_eigenvalues(p, 5)
        assert p.phase_values
        _assert_close(evs, ref)


    @pytest.mark.parametrize("alpha, k_max", [(0.694473, 20),
                                              (1.440102, 5)])
    def test_walk_never_reaches_mpmath(self, monkeypatch, alpha, k_max):
        # each phase-grade walk sample finds a double-precision regime: the
        # expansion alone in the large-|z| band, else after the series.
        # Newton's F, at the same grade, may reach the high-precision
        # fallback next to a zero, so each fallback is recorded with its
        # grade and whether Newton asked
        grades, fallbacks, newton = [], [], []

        def graded(f):
            def g(aa, b, z, rtol=_CANCEL_RTOL, **kwargs):
                grades.append(rtol)
                try:
                    return f(aa, b, z, rtol=rtol, **kwargs)
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
            def g(*args, **kwargs):
                newton.append(True)
                try:
                    return f(*args, **kwargs)
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
        assert (_PHASE_RTOL, True) in fallbacks  # the spy sees Newton's
        assert (_PHASE_RTOL, False) not in fallbacks


class TestNewtonGrades:
    """Newton takes F' and F at the phase grade, and every F, the seed's
    too, within its absolute bound."""

    # Newton's F calls that reach _kummer_series_highprec: at most
    # VALUE_FALLBACKS_PER_SOLVE in one Newton solve (6, 8 and 10 when
    # every F was taken at the value grade), which the cancellation
    # window below |z| = 34 still needs, and at most VALUE_FALLBACKS_MEAN
    # per solve over an alpha's solves (2.4 at each alpha before the
    # absolute bound)
    VALUE_FALLBACKS_PER_SOLVE = 3
    VALUE_FALLBACKS_MEAN = 2.0
    # no Newton F at |z| >= 34 reaches the fallback at these alphas. At
    # 1.440102 pair 5 sits at |z| = 35.6, where the expansion's own error
    # estimate, 1.4e-11, is a thousand times the bound, and near alpha = 3
    # the expansion's estimate is 1e-9 and more: their fallbacks stay
    BAND_FREE = (0.694473,)

    @pytest.mark.parametrize("alpha, k_max", [(0.694473, 20),
                                              (1.440102, 5),
                                              (3 + 9.9e-7, 5)])
    def test_grades_by_step(self, monkeypatch, alpha, k_max):
        # solves: one record per Newton solve; active while one runs;
        # evaluated: the sums of the exact series; last_resort: mpmath
        where, solves, active, evaluated, last_resort = [], [], [], [], []

        def tagged(f):
            def g(problem, lam, atol):
                if active:
                    solves[-1]["f"].append(("f", complex(lam), atol))
                where.append(("f", complex(lam), atol))
                try:
                    return f(problem, lam, atol)
                finally:
                    where.pop()
            return g

        def dlam(f):
            def g(problem, lam):
                where.append(("dlam", complex(lam), 0.0))
                try:
                    return f(problem, lam)
                finally:
                    where.pop()
            return g

        def high(f):
            def g(aa, b, z):
                if active:
                    solves[-1]["fallbacks"].append(
                        (*(where[-1] if where else (None, None, 0.0)),
                         aa, b, z))
                return f(aa, b, z)
            return g

        def exact(f):
            def g(aa, b, z):
                evaluated.append((aa, b, complex(z)))
                return f(aa, b, z)
            return g

        def newton(f):
            def g(problem, seed, **kwargs):
                solves.append({"f": [], "fallbacks": []})
                active.append(True)
                try:
                    lam, res = f(problem, seed, **kwargs)
                finally:
                    active.pop()
                solves[-1]["out"] = (lam, res, problem)
                return lam, res
            return g

        monkeypatch.setattr(spectrum, "_newton_fn",
                            tagged(spectrum._newton_fn))
        monkeypatch.setattr(spectrum, "char_fn_dlam",
                            dlam(spectrum.char_fn_dlam))
        monkeypatch.setattr(specfun, "_kummer_series_highprec",
                            high(specfun._kummer_series_highprec))
        monkeypatch.setattr(specfun, "_kummer_series_exact",
                            exact(specfun._kummer_series_exact))
        monkeypatch.setattr(specfun, "_hyp1f1",
                            lambda *args: last_resort.append(args))
        monkeypatch.setattr(spectrum, "_newton", newton(spectrum._newton))
        find_eigenvalues(SpectralProblem(alpha), k_max)

        assert solves
        value_fallbacks = 0
        for s in solves:
            tags = [fb[0] for fb in s["fallbacks"]]
            assert "dlam" not in tags
            assert tags.count("f") <= self.VALUE_FALLBACKS_PER_SOLVE
            value_fallbacks += tags.count("f")
            for tag, lam, atol, aa, b, z in s["fallbacks"]:
                if abs(z) < 34.0:
                    continue
                assert alpha not in self.BAND_FREE, (tag, z)
                # the full-sum expansion cannot place the root within the
                # bound (atol / |e^z| under the Kummer transformation)
                if (-2.0 * lam).real < -1.0:
                    atol /= abs(cmath.exp(-2.0 * lam))
                _, err = specfun._kummer_asymptotic(aa, b, z, _CANCEL_RTOL)
                assert err > atol, (tag, z, err, atol)
            # every F, the seed's too, within Newton's absolute bound
            assert all(0.0 < atol <= 1e-2 * spectrum._RESIDUAL_TOL
                       for _, _, atol in s["f"])
            if "out" not in s:
                # a collocation value that the grid does not resolve, whose
                # Newton failed; find_eigenvalues skips that seed
                continue
            # the residual is |F| at the root, Newton's last F
            lam, res, problem = s["out"]
            assert s["f"][-1][1] == lam
            assert res == abs(problem.newton_values[lam])
        assert value_fallbacks <= self.VALUE_FALLBACKS_MEAN * len(solves)
        # no lambda is summed twice, and none reaches mpmath: every |z| is
        # below _EXACT_MAX_ABS
        assert evaluated
        assert len(evaluated) == len(set(evaluated))
        assert last_resort == []


class TestFallbackSeeds:
    """Within about 1e-12 of an integer at kmax 20 some collocation seeds
    miss their pairs, which then come from the gap seeds of the pairs
    found (_gap_round): at 4 + 1e-13 the collocation gives 9 of the 20."""

    @pytest.mark.parametrize("alpha", [3 + 1e-13, 3 - 1e-12,
                                       4 + 1e-13, 4 - 1e-13])
    def test_pairs_from_every_source(self, alpha):
        evs = find_eigenvalues(SpectralProblem(alpha), 20)
        upper = [ev for ev in evs if ev.branch == "upper"]
        assert len(upper) == 20
        assert {ev.seed_source for ev in upper} == {"collocation", "gap"}
        for ev in upper:
            root = _mp_root(alpha, ev.value)
            assert abs(ev.value - root) <= EIG_RTOL * abs(root), (ev, root)


def _collocation_roots(alpha, k_max):
    """The roots that Newton reaches from find_eigenvalues' collocation
    seeds: every real root, and pairs from the first k_max + 2 upper
    seeds."""
    p = SpectralProblem(alpha)
    real, upper = spectrum._collocation_seeds(p, k_max)
    roots = [lam for lam, _ in spectrum._real_roots(p, real)]
    for seed in upper[:k_max + 2]:
        try:
            roots.append(spectrum._newton(p, seed)[0])
        except (spectrum.NewtonError, ConvergenceError):
            pass
    return roots


class TestEigenvalueOracle:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=8)
    @given(alpha=st.floats(0.2, 4.5).filter(
               lambda a: abs(a - round(a)) > 1e-6),
           k_max=st.integers(1, 20))
    def test_within_four_ulps_of_mpmath(self, alpha, k_max):
        # every root Newton returns from find_eigenvalues' collocation
        # seeds, whichever Kummer regime or bound accepted its last steps,
        # is within EIG_RTOL |lambda| of the 50-digit root. Newton's roots
        # rather than find_eigenvalues': from alpha ~ 4 with k_max ~ 15 its
        # absolute residual check refuses roots that are right to the last
        # bit, since |F'| there makes |F| at the nearest double exceed
        # _RESIDUAL_TOL
        roots = _collocation_roots(alpha, k_max)
        assert len(roots) >= k_max // 2
        for lam in roots:
            root = _mp_root(alpha, lam)
            assert abs(lam - root) <= EIG_RTOL * abs(root), (lam, root)


class TestCollocation:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=24)
    @given(alpha=st.floats(0.05, 8.0).filter(
               lambda a: abs(a - round(a)) > 1e-6),
           k_max=st.sampled_from((3, 5)))
    def test_n_and_one_and_a_half_n_agree(self, alpha, k_max):
        # seeded from a grid about 1.5 times finer, find_eigenvalues returns
        # the same eigenvalues to 1e-8 relative, or fails alike
        def solve():
            try:
                return find_eigenvalues(SpectralProblem(alpha), k_max,
                                        audit=False)
            except spectrum.SpectrumError as exc:
                return type(exc)

        ref = solve()
        with mock.patch.object(spectrum, "collocation_order",
                               lambda a, n: 3 * collocation_order(a, n) // 2):
            finer = solve()
        if isinstance(ref, type):
            assert finer is ref
            return
        assert [(ev.index, ev.branch) for ev in finer] == [
            (ev.index, ev.branch) for ev in ref]
        for ev, r in zip(finer, ref):
            assert abs(ev.value - r.value) <= 1e-8 * abs(r.value), (ev, r)

    def test_spurious_seed_given_up_at_the_disc(self, monkeypatch):
        # at alpha = 3 + 9.9e-7 the grid gives an upper value near
        # -47.6 + 9.5i that is no root. Newton drifts from it by 0.52 a
        # step and ran all _NEWTON_MAX_ITER iterations; it now stops at
        # the first iterate outside the disc of radius pi/2: three steps
        # stay 0.005 inside it, so F' is taken 4 times, all in the disc
        p = SpectralProblem(3 + 9.9e-7)
        _, upper = spectrum._collocation_seeds(p, 5)
        seed = min(upper[:7], key=lambda lam: lam.real)
        assert abs(seed - (-47.6 + 9.5j)) < 0.1
        taken = []
        dlam = spectrum.char_fn_dlam
        monkeypatch.setattr(spectrum, "char_fn_dlam",
                            lambda problem, lam: taken.append(lam)
                            or dlam(problem, lam))
        radius = spectrum._COLLOCATION_SEED_RADIUS
        with pytest.raises(spectrum.NewtonError, match="left the seed's"):
            spectrum._newton(p, seed, radius=radius)
        assert len(taken) <= 4
        assert all(abs(lam - seed) <= radius for lam in taken)


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

    def test_finite_at_large_alpha(self):
        # taken in log space, the seeds stay finite where Gamma(1 - alpha)
        # underflows (169.5) and the power or Gamma(1 + alpha) overflows
        for alpha in (100.5, 169.5, 171.5):
            p = SpectralProblem(alpha)
            for k in range(1, 21):
                for branch in ("upper", "lower"):
                    assert cmath.isfinite(
                        asymptotic_eigenvalue(p, k, branch)), (alpha, k)

    def test_matches_the_direct_formula(self):
        # -log(ratio power) / 2 evaluated as it reads, where it is finite:
        # the same seed, on the same branch of the log
        def direct(a, k, sign):
            ratio = -math.gamma(1.0 - a) / math.gamma(1.0 + a)
            power = cmath.exp(2.0 * a * cmath.log(-sign * 2j * k * math.pi))
            return (sign * (2 * k + 1 - a) * math.pi * 0.5j
                    - 0.5 * cmath.log(ratio * power))

        for alpha in (0.5, 1.5, 2.5, 5.5, 20.5):
            p = SpectralProblem(alpha)
            for k in range(1, 21):
                for branch, sign in (("upper", 1.0), ("lower", -1.0)):
                    ref = direct(alpha, k, sign)
                    got = asymptotic_eigenvalue(p, k, branch)
                    assert abs(got - ref) <= 1e-13 * abs(ref), (alpha, k)


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

    def test_residual_above_tolerance(self):
        # a computation error (exit 1), not a config error; the bound is
        # find_eigenvalues' own
        p = SpectralProblem(2.5)
        tol = spectrum._RESIDUAL_TOL
        with pytest.raises(spectrum.SpectrumError, match="residual"):
            eigenfunction(p, Eigenvalue(-1.0 + 0j, 1, "real", 2 * tol,
                                        "collocation"))
        assert eigenfunction(p, Eigenvalue(-1.0 + 0j, 1, "real", tol,
                                           "collocation"))(0.5)


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
