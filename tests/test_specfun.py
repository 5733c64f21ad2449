"""Special-function tests; oracles are mpmath series and adaptive quadrature."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polynomial_oracle import (PolynomialCoeffs, laguerre_coeffs,
                               p_poly_coeffs, p_poly_fractions)
from singwave import specfun
from singwave.laplace import p_poly
from singwave.specfun import (_CANCEL_RTOL, _PHASE_RTOL, ConvergenceError,
                              exp_integral_e1_array, kummer_m,
                              kummer_m_array, kummer_m_dz, laguerre)


def mp_kummer(a, b, z):
    with mpmath.workdps(40):
        # zeroprec: an exact zero (terminating series at its root) is 0
        return complex(mpmath.hyp1f1(a, b, mpmath.mpc(z), zeroprec=400))


# deterministic example streams, no example database on disk
kummer_settings = settings(derandomize=True, database=None, deadline=None,
                           max_examples=150)
# parameters on a 2^-10 grid, so that a - 1, a + 1 and b - a are exact and
# the identities are not blurred by rounding the parameters
real_a = st.integers(-4096, 4096).map(lambda k: k / 1024)
real_b = st.integers(512, 4096).map(lambda k: k / 1024)


@st.composite
def polar_z(draw, r_min, r_max):
    r = draw(st.floats(r_min, r_max))
    theta = draw(st.floats(-math.pi, math.pi))
    return cmath.rect(r, theta)


class TestKummerM:
    def test_at_zero(self):
        assert kummer_m(0.5, 2.0, 0.0) == 1.0

    def test_terminating(self):
        z = 3 + 4j
        assert abs(kummer_m(-1.0, 2.0, z) - (1 - z / 2)) < 1e-14
        # exact zero of the terminating series
        assert abs(kummer_m(-1.0, 2.0, 2.0)) < 1e-14

    def test_bad_b(self):
        with pytest.raises(ValueError):
            kummer_m(0.5, -1.0, 1.0)

    @kummer_settings
    @given(a=real_a, b=real_b, z=polar_z(2.0, 130.0))
    def test_against_mpmath_40_digits(self, a, b, z):
        ref = mp_kummer(a, b, z)
        assert abs(kummer_m(a, b, z) - ref) <= 1e-12 * abs(ref)

    def test_terminating_root_does_not_raise(self):
        # M(-1, 2, z) = 1 - z/2 vanishes exactly at z = 2; the cancellation
        # test sends it to the high-precision fallback
        assert kummer_m(-1.0, 2.0, 2 + 0j) == 0

    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(60):
            a = rng.uniform(-4.0, 4.0)
            z = complex(rng.uniform(-200, 200), rng.uniform(-200, 200))
            if abs(z) > 200:
                z *= 200 / abs(z)
            ref = mp_kummer(a, 2.0, z)
            val = kummer_m(a, 2.0, z)
            worst = max(worst, abs(val - ref) / max(abs(ref), 1e-300))
        assert worst < 1e-12

    def test_transform_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = rng.uniform(-3.0, 3.0)
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            m = kummer_m(a, 2.0, z)
            t = cmath.exp(z) * kummer_m(2.0 - a, 2.0, -z)
            assert abs(m - t) < 1e-10 * max(1.0, abs(m))

    def test_eigenvalue_zero_oracle(self):
        # high-precision oracle: mpmath series + mpmath.findroot locates a
        # characteristic zero for alpha=1.5 independently of the solver
        with mpmath.workdps(40):
            f = lambda lam: mpmath.hyp1f1(-0.5, 2, -2 * lam)
            lam_star = complex(mpmath.findroot(f, mpmath.mpc(-1.2, 2.3)))
        assert abs(kummer_m(-0.5, 2.0, -2 * lam_star)) < 1e-9

    def test_expansion_error_counts_rounding(self):
        # with a large and negative the expansion's sums cancel from terms
        # many orders larger, so their rounding, not the smallest term,
        # bounds the error: counted, such values go on to mpmath. Seeded
        # draws at both grades, the example first, scalar and lockstep
        # (the expansion in lockstep however few the elements)
        rng = np.random.default_rng(0)
        draws = [(-39.5, 80.0 + 0j)] + [
            (rng.uniform(-40.0, 0.0),
             cmath.rect(rng.uniform(34.0, 200.0), rng.uniform(-math.pi,
                                                              math.pi)))
            for _ in range(100)]
        for a, z in draws:
            ref = mp_kummer(a, 2.0, z)
            for rtol in (_CANCEL_RTOL, _PHASE_RTOL):
                got = kummer_m(a, 2.0, z, rtol=rtol)
                with mock.patch.object(specfun, "_ASYM_LOCKSTEP_MIN", 1):
                    got_array = kummer_m_array(a, 2.0, np.array([z]),
                                               rtol=rtol)
                assert abs(got - ref) <= 1e3 * rtol * abs(ref), (a, z, rtol)
                assert abs(got_array[0] - ref) <= 1e3 * rtol * abs(ref), (
                    a, z, rtol)

    def test_derivative(self):
        a, b, z = 1.3, 2.0, 0.7 + 0.2j
        h = 1e-6
        fd = (kummer_m(a, b, z + h) - kummer_m(a, b, z - h)) / (2 * h)
        assert abs(kummer_m_dz(a, b, z) - fd) < 1e-8


class TestAbsoluteBound:
    """kummer_m's atol: next to a zero of M, where double precision meets
    no relative bound, the large-argument expansion is accepted by its
    absolute error estimate, at both grades and under the Kummer
    transformation; at atol = 0 the same call reaches mpmath."""

    # a zero of M(A, 2, z) at |z| = 63 (z = -2 lambda, lambda pair 10 of
    # the spectrum at alpha = 0.694473), rounded to a double; the full-sum
    # expansion estimates its error there at 1.5e-16
    A = 1 - 0.694473
    Z = -2 * complex(-3.4643341935911955, 31.347131294393243)

    @pytest.mark.parametrize("rtol", [_CANCEL_RTOL, _PHASE_RTOL])
    @pytest.mark.parametrize("transformed", [False, True])
    def test_expansion_accepted_next_to_a_zero(self, monkeypatch, rtol,
                                               transformed):
        # M(2 - A, 2, -Z) = e^-Z M(A, 2, Z): the transformed call's inner
        # bound is atol / |e^-Z|
        a, z = (2.0 - self.A, -self.Z) if transformed else (self.A, self.Z)
        atol = 2e-16 * abs(cmath.exp(z) if transformed else 1.0)
        calls = []
        high = specfun._kummer_series_highprec
        monkeypatch.setattr(specfun, "_kummer_series_highprec",
                            lambda *args: calls.append(args) or high(*args))
        ref = mp_kummer(a, 2.0, z)
        kummer_m(a, 2.0, z, rtol=rtol)
        assert len(calls) == 1
        value = kummer_m(a, 2.0, z, rtol=rtol, atol=atol)
        assert len(calls) == 1
        assert abs(value - ref) <= atol


def _laguerre_roots(n, b):
    """The zeros of the polynomial M(-n, b, .), rounded to doubles: next to
    each, |M| is a rounding error of its terms."""
    coeffs, c = [], 1.0
    for k in range(n + 1):
        coeffs.append(c)
        c *= (k - n) / ((b + k) * (k + 1))
    return np.roots(coeffs[::-1]).tolist()


@st.composite
def _window_case(draw):
    """(a, b, z) where the fallback sums the exact series: Re z >= -1 and
    |z| up to _EXACT_MAX_ABS, with a anywhere, a terminating series, z next
    to one of its zeros, or z at the exact zero M(-1, b, b) = 0."""
    b = draw(real_b)
    kind = draw(st.sampled_from(("any", "terminating", "near zero",
                                 "zero")))
    if kind == "zero":
        return -1.0, b, complex(b)
    if kind == "near zero":
        n = draw(st.integers(1, 12))
        return -float(n), b, draw(st.sampled_from(_laguerre_roots(n, b)))
    a = -float(draw(st.integers(1, 12))) if kind == "terminating" else (
        draw(real_a))
    z = draw(polar_z(0.5, specfun._EXACT_MAX_ABS).filter(
        lambda z: z.real >= -1.0))
    return a, b, z


class TestExactSeries:
    """_kummer_series_exact, the fallback's series, against 50-digit mpmath:
    within eps |M| (one to two units in the last place of |M|), or 0 where
    |M| is below 2^-zeroprec, as at an exact zero."""

    @kummer_settings
    @given(case=_window_case())
    # Newton's values next to zeros: at the integer alpha = 4's audit, at
    # alpha ~ 1.35 and at alpha = 3 + 9.9e-7, where |z| passes 34
    @example(case=(-3.0, 2.0, 0.9358222275240878 - 0j))
    @example(case=(-0.35029, 2.0, 10.804429715281746 - 33.82332799110632j))
    @example(case=(-2.0000009938368044, 2.0,
                   34.61011788611581 - 36.579211398746224j))
    @example(case=(-1.0, 2.0, 2.0 + 0j))
    def test_within_one_ulp_of_mpmath(self, case):
        a, b, z = case
        with mpmath.workdps(50):
            ref = mpmath.hyp1f1(a, b, mpmath.mpc(z), zeroprec=1000)
            got = specfun._kummer_series_exact(a, b, z)
            if got == 0:
                # certified below 2^-zeroprec, as mpmath's zeroprec
                assert abs(ref) < 2.0 ** -(int(1.5 * abs(z)) + 93)
            else:
                assert abs(mpmath.mpc(got) - ref) <= 2.0 ** -52 * abs(ref)

    def test_mpmath_only_as_last_resort(self, monkeypatch):
        # above _EXACT_MAX_ABS, and past the float range (1/b = 1e300
        # makes the terms overflow)
        calls = []
        monkeypatch.setattr(specfun, "_hyp1f1",
                            lambda *args: calls.append(args) or 0j)
        cases = [(0.3, 2.0, 3.0 + 140.0j), (0.3, 2.0, 3.0 + 151.0j),
                 (1.0, 1e-300, 100.0 + 0j)]
        values = [specfun._kummer_series_highprec(*case) for case in cases]
        assert calls == cases[1:]
        assert values[0] == specfun._kummer_series_exact(*cases[0])


class TestKummerProperties:
    """Identities of M checked on kummer_m alone, without an mpmath oracle,
    across the series, asymptotic and high-precision regimes."""

    @kummer_settings
    @given(a=real_a, b=real_b, x=st.floats(-1.0, 1.0),
           y=st.floats(-130.0, 130.0))
    def test_kummer_transformation(self, a, b, x, y):
        # for -1 <= Re z <= 1 neither side applies the transformation
        # internally, so each side is an independent evaluation, and at
        # large |Im z| the two sides land in different regimes
        z = complex(x, y)
        m = kummer_m(a, b, z)
        t = cmath.exp(z) * kummer_m(b - a, b, -z)
        assert abs(m - t) <= 1e-11 * max(abs(m), abs(t))

    @kummer_settings
    @given(a=real_a, b=real_b, z=polar_z(0.0, 130.0))
    def test_contiguous_relation(self, a, b, z):
        # (b-a) M(a-1,b,z) + (2a-b+z) M(a,b,z) - a M(a+1,b,z) = 0
        terms = ((b - a) * kummer_m(a - 1.0, b, z),
                 (2.0 * a - b + z) * kummer_m(a, b, z),
                 -a * kummer_m(a + 1.0, b, z))
        assert abs(sum(terms)) <= 1e-11 * sum(abs(t) for t in terms)


def _scan_grid(alpha):
    """4,000 points of the real z-axis, from 1e-6 out past the real zeros
    of M(1 - alpha, 2, .): a kummer_m_array input through sign changes and
    cancellation."""
    dist = max(min(alpha - math.floor(alpha), math.ceil(alpha) - alpha),
               1e-16)
    z_hi = 4.0 * alpha + 16.0 + 3.0 * max(0.0, -math.log(dist))
    return np.linspace(1e-6, z_hi, 4000)


def _bits(values):
    """The bit patterns of a complex array, signed zeros included."""
    return np.ascontiguousarray(values, dtype=complex).view(np.int64).tolist()


def _assert_close(values, ref, rtol):
    """kummer_m_array's contract against kummer_m at the same rtol: the two
    pass the same error test and differ by rounding alone, so each value is
    within 10 rtol of the scalar's modulus (3.3 rtol measured at most)."""
    values = np.asarray(values, dtype=complex).ravel()
    ref = np.asarray(ref, dtype=complex).ravel()
    assert values.shape == ref.shape
    err = np.abs(values - ref)
    assert np.all(err <= 10 * rtol * np.abs(ref)), (
        ref[np.argmax(err / np.abs(ref))], float(np.max(err / np.abs(ref))))


# -2 lambda at the first pair of eigenvalues at alpha = 1.5: a zero of
# M(-0.5, 2, .)
_ZERO = -2.0 * (-3.9181422013514475 + 3.6781508490378143j)


def _logged(name, log):
    """A patch of specfun's function name that appends name to log at each
    call."""
    f = getattr(specfun, name)

    def g(*args, **kwargs):
        log.append(name)
        return f(*args, **kwargs)
    return mock.patch.object(specfun, name, g)


class TestKummerMArray:
    """kummer_m_array against kummer_m, to the scalar's accuracy: within
    10 rtol |M| of it (_assert_close). The tests named bit_identical keep
    the names they had under the older, bitwise contract."""

    @pytest.mark.parametrize("alpha", [0.7, 1.44, 1.97, 2.6, 3 + 1e-6,
                                       2 + 1e-11])
    def test_real_grid_bit_identical(self, alpha):
        zs = _scan_grid(alpha)
        vals = kummer_m_array(1.0 - alpha, 2.0, zs)
        ref = np.array([kummer_m(1.0 - alpha, 2.0, z) for z in zs])
        _assert_close(vals, ref, _CANCEL_RTOL)

    def test_mixed_complex_array(self):
        # Re z < -1 (transformation), |z| >= 34 (asymptotic band), points
        # next to a zero of M(-0.5, 2, .) (cancellation) and plain series
        # points, at both grades
        z = np.array([[-40.0 + 3.0j, -1.5 + 0.0j, 0.3 - 0.2j, 5.0 + 1.0j],
                      [10.0 + 60.0j, 1.0 - 45.0j, 0.5 + 34.0j, 20.0 + 0.0j],
                      [_ZERO, _ZERO + 1e-9, 2.0 + 0j, 0.0 + 0.0j]])
        for a in (-0.5, 1.3, -3.0):
            for rtol in (_CANCEL_RTOL, _PHASE_RTOL):
                vals = kummer_m_array(a, 2.0, z, rtol=rtol)
                assert vals.shape == z.shape
                ref = np.array([kummer_m(a, 2.0, zi, rtol=rtol)
                                for zi in z.ravel()])
                _assert_close(vals, ref, rtol)

    def test_bit_identical_in_every_regime(self):
        # derandomised complex z from five boxes at both accuracy grades,
        # plus z next to a zero of M, where even the phase grade needs
        # mpmath; each element's regime is read off the order in which the
        # scalar call tried them. At the phase grade the large box takes
        # the expansion first, and the band below |z| = 34 the expansion
        # after the series; the value grade sends both cancellation boxes
        # to mpmath.
        boxes = {"series": ((-1.0, 3.0), (-3.0, 3.0)),
                 "transform": ((-40.0, -1.01), (-40.0, 40.0)),
                 "large": ((0.0, 20.0), (40.0, 80.0)),
                 "cancel": ((0.0, 8.0), (12.0, 28.0)),
                 "below 34": ((0.0, 4.0), (26.0, 33.0))}

        @st.composite
        def boxed_z(draw):
            (x0, x1), (y0, y1) = boxes[draw(st.sampled_from(sorted(boxes)))]
            y = draw(st.floats(y0, y1)) * draw(st.sampled_from((1.0, -1.0)))
            return complex(draw(st.floats(x0, x1)), y)

        def regime(zi, log):
            if "_kummer_series_highprec" in log:
                return "mpmath"
            if log[-1:] == ["_kummer_asymptotic"]:
                return "asymptotic" if len(log) > 1 else "asymptotic first"
            return "transform" if zi.real < -1.0 else "series"

        seen = set()

        # one pinned example per (regime, grade) pair that the final
        # assertion requires: the derandomised draws depend on which test
        # files are collected, since hypothesis also draws the numeric
        # literals of the loaded modules
        @settings(derandomize=True, database=None, deadline=None,
                  max_examples=60)
        @given(a=real_a, b=real_b, zs=st.lists(boxed_z(), min_size=1,
                                               max_size=6),
               rtol=st.sampled_from((_CANCEL_RTOL, _PHASE_RTOL)))
        @example(a=-0.5, b=2.0, zs=[1.0 + 1.0j], rtol=_CANCEL_RTOL)
        @example(a=-0.5, b=2.0, zs=[1.0 + 1.0j], rtol=_PHASE_RTOL)
        @example(a=-0.5, b=2.0, zs=[-5.0 + 3.0j], rtol=_CANCEL_RTOL)
        @example(a=-0.5, b=2.0, zs=[-5.0 + 3.0j], rtol=_PHASE_RTOL)
        @example(a=-0.5, b=2.0, zs=[10.0 + 60.0j], rtol=_CANCEL_RTOL)
        @example(a=-0.5, b=2.0, zs=[2.0 + 32.0j], rtol=_PHASE_RTOL)
        @example(a=-0.5, b=2.0, zs=[10.0 + 60.0j], rtol=_PHASE_RTOL)
        @example(a=-0.5, b=2.0, zs=[2.0 + 32.0j], rtol=_CANCEL_RTOL)
        @example(a=-0.5, b=2.0, zs=[_ZERO, _ZERO + 1e-9], rtol=_PHASE_RTOL)
        def check(a, b, zs, rtol):
            z = np.array(zs)
            scalar_calls = []
            # the expansion in lockstep however few the elements
            with _logged("_kummer_series_double", scalar_calls), \
                    _logged("_kummer_asymptotic", scalar_calls), \
                    mock.patch.object(specfun, "_ASYM_LOCKSTEP_MIN", 1):
                vals = kummer_m_array(a, b, z, rtol=rtol)
            # every regime but mpmath runs in lockstep, each at most once
            # per element
            assert scalar_calls == []
            ref = []
            for zi in zs:
                log = []
                with _logged("_kummer_series_double", log), \
                        _logged("_kummer_asymptotic", log), \
                        _logged("_kummer_series_highprec", log):
                    ref.append(kummer_m(a, b, zi, rtol=rtol))
                seen.add((regime(zi, log), rtol))
            _assert_close(vals, ref, rtol)

        check()
        value_grade = {"series", "transform", "asymptotic", "mpmath"}
        phase_grade = value_grade | {"asymptotic first"}
        assert seen == ({(r, _CANCEL_RTOL) for r in value_grade}
                        | {(r, _PHASE_RTOL) for r in phase_grade})

    def test_large_arrays_across_chunks(self):
        # enough elements in the expansion for its lockstep sums and for
        # several chunks of them, near and beyond |z| = 34, with a next to
        # zero and to an integer
        rng = np.random.default_rng(11)
        r = rng.uniform(20.0, 140.0, 700)
        z = r * np.exp(1j * rng.uniform(-np.pi, np.pi, r.size))
        for a in (-0.44, 0.305527, -2.0000009938368044):
            for rtol in (_CANCEL_RTOL, _PHASE_RTOL):
                ref = [kummer_m(a, 2.0, zi, rtol=rtol) for zi in z]
                vals = kummer_m_array(a, 2.0, z, rtol=rtol)
                _assert_close(vals, ref, rtol)

    def test_phase_grade_band(self):
        # the phase grade takes the expansion alone at |z| >= 34 away from
        # the positive real axis, and the series first next to it or at
        # |z| < 34
        a, b = -0.5, 2.0
        for z, regimes in ((10.0 + 40.0j, ["_kummer_asymptotic"]),
                           (35.75 - 0.9j, ["_kummer_series_double"]),
                           (2.0 + 32.0j, ["_kummer_series_double",
                                          "_kummer_asymptotic"])):
            log = []
            with _logged("_kummer_series_double", log), \
                    _logged("_kummer_asymptotic", log):
                kummer_m(a, b, z, rtol=_PHASE_RTOL)
            assert log == regimes

    def test_term_budget_like_scalar(self):
        z = np.array([3.0 + 1e5j])
        with pytest.raises(ConvergenceError):
            kummer_m(-1e-7, 2.0, z[0])
        with pytest.raises(ConvergenceError):
            kummer_m_array(-1e-7, 2.0, z)

    def test_modulus_overflow_like_array(self):
        # Newton's first step at alpha = 0.99999: the partial sums' parts
        # stay finite while their modulus passes the float range, where
        # abs() raises and np.abs gives inf: both exhaust the term budget
        a, b, z = 1.99999, 2.0, 312.6592383586838 + 808.0974907694454j
        outcomes = []
        for evaluate in (lambda: kummer_m(a, b, z),
                         lambda: kummer_m_array(a, b, np.array([z]))):
            with pytest.raises(ConvergenceError) as exc:
                evaluate()
            outcomes.append(str(exc.value))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("rtol", [_CANCEL_RTOL, 1e-8])
    @pytest.mark.parametrize("n", [3, 64])
    def test_overflowing_prefactor_goes_to_mpmath(self, rtol, n):
        # at alpha = 171.5, z^-a passes the float range, and 1/Gamma(b - a)
        # would: the expansion gives no estimate, and the value is
        # mpmath's, alike in the scalar, the one-by-one and the lockstep
        # expansion
        a, b, z = 1 - 171.5, 2.0, 400 + 300j
        value = kummer_m(a, b, z, rtol=rtol)
        assert value == pytest.approx(mp_kummer(a, b, z), rel=1e-12)
        got = kummer_m_array(a, b, np.full(n, z), rtol=rtol)
        assert _bits(got) == _bits([value] * n)

    def test_underflowing_gamma_gives_no_estimate(self):
        # Gamma(-189.5) underflows to zero: 1/Gamma raises
        # ZeroDivisionError, which is no estimate either
        value, err = specfun._asym_value(-189.5, -185.5, 40.0 + 0j,
                                         1.0, 0.0, 1.0, 0.0)
        assert math.isnan(value) and err == math.inf

    def test_a_zero_and_bad_b(self):
        z = np.array([0.5, 3.0 + 2.0j, -5.0])
        ref = [kummer_m(0.0, 2.0, zi) for zi in z]
        assert kummer_m_array(0.0, 2.0, z).tolist() == ref
        with pytest.raises(ValueError):
            kummer_m_array(0.5, -1.0, z)


class TestLaguerre:
    def test_trivial(self):
        assert laguerre(0, 1, 7j) == 1.0
        x = 0.31 + 0.4j
        assert abs(laguerre(1, 1, x) - (2 - x)) < 1e-15

    def test_matches_terminating_kummer(self):
        # L_n^(1)(x) = (n+1) M(-n, 2, x)
        for n in (2, 5, 9):
            for x in (1.3, -4.0, 2 + 3j):
                lhs = laguerre(n, 1, x)
                rhs = (n + 1) * kummer_m(-float(n), 2.0, x)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_recurrence_matches_coeffs(self):
        rng = np.random.default_rng(3)
        for n in (3, 7):
            poly = laguerre_coeffs(n, 1)
            for _ in range(20):
                x = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
                if abs(x) > 100:
                    x *= 100 / abs(x)
                a, b = laguerre(n, 1, x), poly(x)
                assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_leading_coefficient(self):
        for n in (1, 4, 6):
            lead = laguerre_coeffs(n, 1).coeffs[-1]
            assert lead == pytest.approx((-1) ** n / math.factorial(n))

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 2.5])
        out = laguerre(2, 1, x)
        assert out.shape == x.shape


class TestPPoly:
    def test_n0(self):
        x = np.array([0.0, 2.5, -1.0 + 3.0j])
        assert np.all(p_poly(0, x) == 1.0)
        assert p_poly(0, x).shape == x.shape

    def test_constant_term_one(self):
        for n in range(8):
            assert p_poly(n, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_leading_matches_laguerre(self):
        # P_n/L_n^(1) = 1 + 1/x + O(x^-2): equal leading coefficients, and
        # next ones that differ by L_n^(1)'s leading one
        x = 1e6
        for n in range(1, 8):
            ratio = p_poly(n, x) / laguerre(n, 1, x)
            assert (ratio - 1.0) * x == pytest.approx(1.0, rel=1e-4)

    def test_recurrence_is_double_sum(self):
        # (k+1) P_(k+1) = (2k+2-x) P_k - (k+1) P_(k-1) from P_0 = 1 and
        # P_1 = 1 - x, on exact coefficients: L_n^(1)'s recurrence
        prev, cur = [Fraction(1)], [Fraction(1), Fraction(-1)]
        assert tuple(prev) == p_poly_fractions(0)
        for k in range(1, 41):
            assert tuple(cur) == p_poly_fractions(k), k
            nxt = [Fraction(0)] * (k + 2)
            for m, c in enumerate(cur):
                nxt[m] += (2 * k + 2) * c
                nxt[m + 1] -= c
            for m, c in enumerate(prev):
                nxt[m] -= (k + 1) * c
            prev, cur = cur, [c / (k + 1) for c in nxt]

    def test_matches_coefficient_oracle(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 5, 9, 14):
            poly = p_poly_coeffs(n)
            x = rng.uniform(-20, 20, 30) + 1j * rng.uniform(-20, 20, 30)
            got, want = p_poly(n, x), poly(x)
            scale = sum(abs(c) * np.abs(x) ** m
                        for m, c in enumerate(poly.coeffs))
            assert np.all(np.abs(got - want) <= 1e-13 * scale), n


def _e1(z):
    """E1 at one z."""
    return complex(exp_integral_e1_array(np.array([z]))[0])


def _mp_e1(z):
    with mpmath.workdps(30):
        return complex(mpmath.e1(mpmath.mpc(z.real, z.imag)))


class TestExpIntegral:
    def test_against_quadrature(self):
        # int_1^inf e^(-t z)/t dt, which converges for Re z > 0
        for z in (1.0, 50.0, 2.0 + 1.5j):
            re = scipy.integrate.quad(
                lambda t: math.exp(-t * np.real(z)) / t
                * math.cos(t * np.imag(z)), 1, np.inf, epsabs=1e-13)[0]
            im = scipy.integrate.quad(
                lambda t: -math.exp(-t * np.real(z)) / t
                * math.sin(t * np.imag(z)), 1, np.inf, epsabs=1e-13)[0]
            ref = re + 1j * im
            assert abs(_e1(z) - ref) < 1e-12 * max(1, abs(ref))

    def test_derivative_identity(self):
        # E1'(z) = -e^(-z)/z, by the series (2, -3 + 0.5i) and the
        # continued fraction (-8 + 6i, 0.5 + 9i)
        h = 1e-5
        for z in (2.0, -3.0 + 0.5j, -8.0 + 6.0j, 0.5 + 9.0j):
            fd = (_e1(z + h) - _e1(z - h)) / (2 * h)
            want = -cmath.exp(-z) / z
            assert abs(fd - want) < 1e-8 * abs(want)

    def test_domain(self):
        # the cut is the negative real axis, whose sides the sign of a
        # zero imaginary part picks: E1 jumps there by -2 pi i
        for x in (0.5, 3.0, 30.0):
            above, below = exp_integral_e1_array(
                np.array([complex(-x, 0.0), complex(-x, -0.0)]))
            assert abs(above - below + 2j * math.pi) < 1e-13 * abs(above)


class TestExpIntegralArray:
    def test_against_mpmath(self):
        # the whole cut plane: both sides of the series' switch at |z| = 2
        # and of its cancellation bound left of the imaginary axis, and the
        # negative axis itself at +0 imaginary part, out to |z| = 700,
        # where the series takes most of its term budget
        r = np.concatenate([np.geomspace(1e-8, 60.0, 40), [2.0]])
        theta = np.linspace(-math.pi, math.pi, 25)[1:-1]
        z = np.concatenate([(r[:, None] * np.exp(1j * theta)).ravel(),
                            r + 0j, -r + 0j, [-320.0 + 1.0j, -700.0 + 0j]])
        got = exp_integral_e1_array(z)
        want = np.array([_mp_e1(w) for w in z])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_shape_kept(self):
        z = np.array([[0.5, 3.0], [1.0 + 1j, 40.0 - 2j]])
        got = exp_integral_e1_array(z)
        assert got.shape == z.shape
        assert got[1, 0] == pytest.approx(_mp_e1(1.0 + 1j), rel=1e-14)

    @pytest.mark.parametrize("z", [0.0, -1.0, 1j, -0.5 + 3j])
    def test_domain(self, z):
        # z = 0 is the one point outside the domain
        if z == 0:
            with pytest.raises(ValueError):
                exp_integral_e1_array(np.array([1.0, z]))
        else:
            got = exp_integral_e1_array(np.array([1.0, z]))[1]
            assert abs(got - _mp_e1(complex(z))) <= 1e-13 * abs(got)

    def test_nan_raises(self):
        with pytest.raises(ConvergenceError), np.errstate(invalid="ignore"):
            exp_integral_e1_array(np.array([1.0, complex(np.nan, 1.0)]))


def _second_solution(n, xi):
    """v(xi) = P_n(xi) e^xi / xi + L_n^(1)(xi) E1(-xi) for Re(-xi) > 0:
    the second solution of the Laguerre equation of order n, which holds
    only with p_poly's polynomial."""
    return (p_poly(n, xi) * cmath.exp(xi) / xi
            + laguerre(n, 1, xi) * _e1(-xi))


class TestSecondSolution:
    def test_ode_residual(self):
        # xi v'' + (2 - xi) v' + n v = 0
        n, xi = 2, -1.0 - 1.0j
        h = 1e-4
        v = [_second_solution(n, xi + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (-v[4] + 8 * v[3] - 8 * v[1] + v[0]) / (12 * h)
        d2 = (-v[4] + 16 * v[3] - 30 * v[2] + 16 * v[1] - v[0]) / (12 * h * h)
        resid = xi * d2 + (2 - xi) * d1 + n * v[2]
        assert abs(resid) < 1e-6

    def test_wronskian_shape(self):
        # W[L, v](xi) solves W' = ((xi - 2)/xi) W, so xi^2 e^(-xi) W is
        # constant; compare the constant at two points
        n = 3
        h = 1e-5

        def wronskian(xi):
            dv = (_second_solution(n, xi + h)
                  - _second_solution(n, xi - h)) / (2 * h)
            dl = (laguerre(n, 1, xi + h) - laguerre(n, 1, xi - h)) / (2 * h)
            return laguerre(n, 1, xi) * dv - _second_solution(n, xi) * dl

        c1 = wronskian(-1.0) * 1.0 * cmath.exp(1.0)
        c2 = wronskian(-2.5) * 6.25 * cmath.exp(2.5)
        assert abs(c1 - c2) < 1e-6 * max(abs(c1), 1.0)


class TestPolynomialCoeffs:
    def test_horner_and_derivative(self):
        p = PolynomialCoeffs((1.0, -2.0, 3.0))
        assert p(2.0) == pytest.approx(1 - 4 + 12)
