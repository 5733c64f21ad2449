"""The package's cubic spline against scipy.interpolate, which it replaces
at run time: coefficients, values, derivative and antiderivative agree bit
for bit, on real and complex data, at the knots, between them and past the
ends. The LAPACK routines the package calls are scipy's own."""

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
    # unit spacing: the parabola's system is then symmetric
    unit = np.array([0.0, 1.0, 2.0])
    yield pytest.param(unit, rng.standard_normal(3), id="3-unit")
    yield pytest.param(unit, rng.standard_normal(3)
                       + 1j * rng.standard_normal(3), id="3-unit-complex")


def _samples(x):
    mids = 0.5 * (x[1:] + x[:-1])
    return np.concatenate([x, mids, [x[0] - 0.1, x[-1] + 0.1]])


class TestSpline:
    @pytest.mark.parametrize("x, y", list(_cases()),
                             ids=lambda v: f"{len(v)}")
    def test_matches_scipy_bit_for_bit(self, x, y):
        ref = CubicSpline(x, y)
        got = Spline.interpolate(x, y)
        t = _samples(x)
        assert np.array_equal(got.x, ref.x)
        assert got.c.dtype == ref.c.dtype
        assert np.array_equal(got.c, ref.c)
        assert np.array_equal(got(t), ref(t))
        assert np.array_equal(got.derivative()(t), ref.derivative()(t))
        assert np.array_equal(got.antiderivative().c,
                              ref.antiderivative().c)
        assert np.array_equal(got.antiderivative()(t),
                              ref.antiderivative()(t))

    def test_small_splines_match_scipy(self):
        # the 3-knot system goes through scipy.linalg.solve's routines and
        # the larger ones through solve_banded's, on real and complex data
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = 3 + trial % 5
            x = np.sort(rng.uniform(0.0, 1.0, n))
            y = rng.standard_normal(n)
            if trial % 2:
                y = y + 1j * rng.standard_normal(n)
            ref = CubicSpline(x, y)
            got = Spline.interpolate(x, y)
            assert got.c.dtype == ref.c.dtype
            assert np.array_equal(got.c, ref.c), (x, y)

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
        assert np.array_equal(d.u0.c, ref.c)
        assert np.array_equal(d.du0.c, ref.derivative().c)


def test_lapack_routines_are_scipys():
    from scipy.linalg import lapack as scipy_lapack

    for name in ("pttrf", "pttrs", "sbevd", "gtsv", "getrf", "getrs",
                 "potrf", "potrs"):
        for prefix in ("d", "z"):
            routine = getattr(lapack.flapack, prefix + name, None)
            assert routine is getattr(scipy_lapack, prefix + name, None)
    like = np.zeros(1, dtype=complex)
    assert lapack.routine("gtsv", like) is scipy_lapack.zgtsv
    assert lapack.routine("gtsv", like.real) is scipy_lapack.dgtsv


def test_lapack_loads_the_file_else_scipy_linalg(monkeypatch):
    from scipy.linalg import lapack as scipy_lapack

    monkeypatch.delitem(sys.modules, lapack._NAME)
    assert lapack._load().dpttrf is scipy_lapack.dpttrf
    assert lapack._NAME not in sys.modules
    # no file found: the import through scipy.linalg
    monkeypatch.setattr(lapack.importlib.util, "find_spec", lambda name: None)
    assert lapack._load().dpttrf is scipy_lapack.dpttrf
