"""The package's cubic spline against scipy.interpolate, which it replaces
at run time: values, derivative and antiderivative on [x[0], x[-1]] agree
within a few eps of the largest reference value, on real and complex data,
at the knots and between them. The LAPACK routines the package calls are
scipy's own."""

import sys

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from singwave import lapack
from singwave.data import InitialData, Spline, _union


def _cases():
    rng = np.random.default_rng(3)
    knots = np.linspace(0.0, 1.0, 12)
    real = rng.standard_normal(12)
    real[0] = real[-1] = 0.0
    fine = np.linspace(0.0, 1.0, 4097)
    integrand = np.exp((1.3 - 2.1j) * fine) * np.sin(3.0 * fine) + 0.2j
    uneven = np.sort(rng.uniform(0.0, 1.0, 9))
    yield knots, real
    yield fine, integrand
    yield uneven, rng.standard_normal(9) + 1j * rng.standard_normal(9)
    for n in (2, 3, 4):  # the line, the parabola, the smallest system
        yield uneven[:n], rng.standard_normal(n)
    rng = np.random.default_rng(4)
    for n in (3, 4):
        yield pytest.param(uneven[:n], rng.standard_normal(n)
                           + 1j * rng.standard_normal(n), id=f"{n}-complex")
    # unit spacing, where scipy solves the parabola's system by Cholesky
    unit = np.array([0.0, 1.0, 2.0])
    yield pytest.param(unit, rng.standard_normal(3), id="3-unit")
    yield pytest.param(unit, rng.standard_normal(3)
                       + 1j * rng.standard_normal(3), id="3-unit-complex")


_EPS = np.finfo(float).eps
# bounds in units of eps max|ref| on [x[0], x[-1]]. Measured over 12,000
# random draws (2..4097 knots, uneven and uniform, real and complex): worst
# 22 for values, 5.4 for derivatives and 61 for antiderivatives, whose
# constants are running sums over the pieces
_VALUE_ULPS, _DERIV_ULPS, _ANTI_ULPS = 40, 8, 80


def _samples(x):
    mids = 0.5 * (x[1:] + x[:-1])
    return np.concatenate([x, mids])


def _assert_close(got, ref, ulps, t):
    want = ref(t)
    assert np.abs(got(t) - want).max() <= ulps * _EPS * np.abs(want).max()


def _assert_matches_scipy(x, y, t):
    ref = CubicSpline(x, y)
    got = Spline.interpolate(x, y)
    assert np.array_equal(got.x, ref.x)
    assert got.c.dtype == ref.c.dtype
    assert got.c.shape == ref.c.shape
    _assert_close(got, ref, _VALUE_ULPS, t)
    _assert_close(got.derivative(), ref.derivative(), _DERIV_ULPS, t)
    _assert_close(got.antiderivative(), ref.antiderivative(), _ANTI_ULPS, t)


class TestSpline:
    @pytest.mark.parametrize("x, y", list(_cases()),
                             ids=lambda v: f"{len(v)}")
    def test_matches_scipy_bit_for_bit(self, x, y):
        # the name predates the accuracy contract and is kept so that the
        # suite's test ids stay put; the bounds are _assert_matches_scipy's
        _assert_matches_scipy(x, y, _samples(x))

    def test_small_splines_match_scipy(self):
        # the line and the parabola in closed form, the larger ones through
        # the banded system, on real and complex data
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = 2 + trial % 6
            x = np.sort(rng.uniform(0.0, 1.0, n))
            y = rng.standard_normal(n)
            if trial % 2:
                y = y + 1j * rng.standard_normal(n)
            t = np.concatenate([_samples(x), rng.uniform(x[0], x[-1], 20)])
            _assert_matches_scipy(x, y, t)

    def test_line_and_parabola_are_exact(self):
        # through 2 or 3 points the cubic term is exactly 0, and through 2
        # the quadratic one too; a parabola is reproduced at the knots
        x = np.array([0.0, 0.3, 1.0])
        y = 2.0 - x + 5.0 * x * x
        s = Spline.interpolate(x, y)
        assert not s.c[0].any()
        assert np.allclose(s(x), y, rtol=0, atol=4 * _EPS * 6.0)
        assert np.allclose(s(0.5), 2.0 - 0.5 + 1.25, rtol=0,
                           atol=8 * _EPS * 6.0)
        line = Spline.interpolate(x[:2], (1.0 + 2.0j) * x[:2])
        assert not line.c[:2].any()
        assert line.c[2, 0] == 1.0 + 2.0j

    def test_union_is_union1d(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 65)
        for _ in range(200):
            a = np.round(rng.uniform(0.0, 1.0, rng.integers(1, 30)), 2)
            b = rng.choice(grid, rng.integers(1, 10))
            assert np.array_equal(_union(a, b), np.union1d(a, b))
            assert np.array_equal(_union(a, b, a), np.union1d(a, b))

    def test_shapes_follow_the_argument(self):
        s = Spline.interpolate(np.linspace(0, 1, 5), np.arange(5.0) ** 2)
        assert np.shape(s(0.5)) == ()
        assert s(np.zeros((2, 3))).shape == (2, 3)
        assert float(s(0.5)) == pytest.approx(4.0)

    def test_rejects_bad_knots(self):
        with pytest.raises(ValueError):
            Spline.interpolate([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            Spline.interpolate([0.0, 1.0], [0.0, np.nan])
        with pytest.raises(ValueError):
            Spline.interpolate([0.0], [1.0])

    def test_from_grid_data_are_splines(self):
        x = np.linspace(0.1, 0.9, 9)
        d = InitialData.from_grid(x, np.sin(np.pi * x), x)
        full = np.concatenate([[0.0], x, [1.0]])
        ref = CubicSpline(full, np.concatenate([[0.0], np.sin(np.pi * x),
                                                [0.0]]))
        t = _samples(full)
        _assert_close(d.u0, ref, _VALUE_ULPS, t)
        _assert_close(d.du0, ref.derivative(), _DERIV_ULPS, t)


def test_lapack_routines_are_scipys():
    # the routines the package calls: the time stepper's pttrf and pttrs,
    # the Laguerre poles' sbevd, the spline's gtsv and the collocation's
    # geev
    from scipy.linalg import lapack as scipy_lapack

    for name in ("pttrf", "pttrs", "sbevd", "gtsv", "geev"):
        for prefix in ("d", "z"):
            routine = getattr(lapack.flapack, prefix + name, None)
            assert routine is getattr(scipy_lapack, prefix + name, None)


def test_lapack_loads_the_file_else_scipy_linalg(monkeypatch):
    from scipy.linalg import lapack as scipy_lapack

    monkeypatch.delitem(sys.modules, lapack._NAME)
    assert lapack._load().dpttrf is scipy_lapack.dpttrf
    assert lapack._NAME not in sys.modules
    # no file found: the import through scipy.linalg
    monkeypatch.setattr(lapack.importlib.util, "find_spec", lambda name: None)
    assert lapack._load().dpttrf is scipy_lapack.dpttrf
