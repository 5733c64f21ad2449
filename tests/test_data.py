"""The package's cubic spline against scipy.interpolate, which it replaces
at run time: coefficients, values, derivative and antiderivative agree bit
for bit, on real and complex data, at the knots, between them and past the
ends."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from singwave.data import InitialData, Spline


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
