"""Initial data (u0, u1) for the damped wave equation.

Data live in the energy space: u0 with one weak derivative vanishing at the
endpoints, u1 square integrable. Evaluators are vectorized over numpy
arrays; u0_over_x supplies u0(x)/x with its finite limit at x = 0, which the
Hardy inequality keeps square integrable. Sampled data are interpolated by
Spline, the package's one piecewise polynomial.
"""

from __future__ import annotations

import numpy as np

from . import lapack


def _union(*arrays):
    """The sorted distinct values of the arrays, as np.union1d gives them,
    without np.unique (which imports numpy.ma)."""
    out = np.sort(np.concatenate(arrays))
    keep = np.empty(len(out), dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


class Spline:
    """Piecewise polynomial in scipy's PPoly layout: on [x[i], x[i+1]] the
    value is sum_k c[k, i] (t - x[i])**(K - k), K = len(c) - 1, extended
    by the end pieces outside [x[0], x[-1]]. Real or complex coefficients.

    Evaluation, derivative() and antiderivative() repeat the arithmetic of
    scipy.interpolate.PPoly (powers of s summed from the constant term up),
    so they agree with it bit for bit."""

    def __init__(self, c, x):
        self.c = c
        self.x = x

    @classmethod
    def interpolate(cls, x, y):
        """The not-a-knot cubic spline through (x, y), assembled and solved
        as scipy.interpolate.CubicSpline does; x strictly increasing."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        y = y.astype(complex if np.iscomplexobj(y) else float)
        n = len(x)
        dx = np.diff(x)
        if n < 2 or len(y) != n or np.any(dx <= 0):
            raise ValueError("need at least 2 strictly increasing knots, "
                             "one value each")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("spline knots and values must be finite")
        slope = np.diff(y) / dx
        if n == 2:  # the line through both points
            s, info = np.array([slope[0], slope[0]]), 0
        elif n == 3:  # both conditions coincide: the parabola
            A = np.array([[1.0, 1.0, 0.0],
                          [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                          [0.0, 1.0, 1.0]])
            b = np.array([2 * slope[0],
                          3 * (dx[0] * slope[1] + dx[1] * slope[0]),
                          2 * slope[1]])
            # scipy.linalg.solve's routines on A cast to b's dtype: Cholesky
            # where A is symmetric (dx = 1, 1; then A is positive
            # definite), otherwise the LU factorisation
            factor, solve = ("potrf", "potrs") if dx[0] == dx[1] == 1.0 \
                else ("getrf", "getrs")
            *fac, info = lapack.routine(factor, b)(A.astype(b.dtype))
            if info == 0:
                s, info = lapack.routine(solve, b)(*fac, b)
        else:
            # slopes s_i from the tridiagonal system, in banded storage
            A = np.zeros((3, n))
            b = np.empty(n, dtype=y.dtype)
            A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
            A[0, 2:] = dx[:-1]
            A[-1, :-2] = dx[1:]
            b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            A[1, 0] = dx[1]
            A[0, 1] = d = x[2] - x[0]
            b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0]
                    + dx[0] ** 2 * slope[1]) / d
            A[1, -1] = dx[-2]
            A[-1, -2] = d = x[-1] - x[-3]
            b[-1] = (dx[-1] ** 2 * slope[-2]
                     + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
            # the ?gtsv call of scipy.linalg.solve_banded((1, 1), A, b)
            s, info = lapack.routine("gtsv", b)(
                A[2, :-1], A[1], A[0, 1:], b, overwrite_b=1)[3:]
        if info != 0:
            raise np.linalg.LinAlgError("singular spline system")
        # Hermite form on each piece
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        return cls(c, x)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        i = np.clip(np.searchsorted(self.x, flat, side="right") - 1,
                    0, len(self.x) - 2)
        s = flat - self.x[i]
        out = 0.0 + self.c[-1, i]  # scipy's sum starts at 0: -0.0 reads 0.0
        z = s
        for k in range(len(self.c) - 2, -1, -1):
            out = out + self.c[k, i] * z
            if k:
                z = z * s
        return out.reshape(t.shape)

    def derivative(self):
        k = len(self.c) - 1
        return Spline(self.c[:-1] * np.arange(k, 0, -1.0)[:, None], self.x)

    def antiderivative(self):
        """The antiderivative that vanishes at x[0]."""
        k = len(self.c)
        c = np.zeros((k + 1, self.c.shape[1]), dtype=self.c.dtype)
        c[:-1] = self.c / np.arange(k, 0, -1.0)[:, None]
        # each piece's constant is the last piece's value at its right end,
        # summed from the constant up: one sequential running sum over the
        # terms c[j, i] h_i**(k - j), piece by piece
        h = np.diff(self.x)[:-1]
        terms = np.empty((len(h), k), dtype=c.dtype)
        z = h
        for j in range(k):
            terms[:, j] = c[k - 1 - j, :-1] * z
            z = z * h
        run = np.add.accumulate(np.concatenate([[c[-1, 0]], terms.ravel()]))
        c[-1, 1:] = run[k::k]
        return Spline(c, self.x)


class InitialData:
    def __init__(self, u0, u1, du0, u0_over_x=None, label="custom"):
        self.u0 = u0
        self.u1 = u1
        self.du0 = du0
        self.label = label
        if u0_over_x is None:
            def u0_over_x(x):
                x = np.asarray(x, dtype=float)
                small = np.abs(x) < 1e-12
                safe = np.where(small, 1.0, x)
                return np.where(small, du0(x), u0(safe) / safe)
        self.u0_over_x = u0_over_x

    @classmethod
    def from_grid(cls, x, u0, u1, label="grid"):
        """Cubic-spline interpolation of sampled data; Dirichlet endpoints
        are implied if x omits 0 or 1."""
        x = np.asarray(x, dtype=float)
        u0 = np.asarray(u0, dtype=float)
        u1 = np.asarray(u1, dtype=float)
        if np.any(np.diff(x) <= 0):
            raise ValueError("x must be strictly increasing")
        if x[0] < 0 or x[-1] > 1:
            raise ValueError("x must lie in [0, 1]")
        if x[0] > 0:
            x = np.concatenate([[0.0], x])
            u0 = np.concatenate([[0.0], u0])
            u1 = np.concatenate([[0.0], u1])
        if x[-1] < 1:
            x = np.concatenate([x, [1.0]])
            u0 = np.concatenate([u0, [0.0]])
            u1 = np.concatenate([u1, [0.0]])
        s0 = Spline.interpolate(x, u0)
        s1 = Spline.interpolate(x, u1)
        return cls(s0, s1, s0.derivative(), label=label)

    def __repr__(self):
        return f"InitialData({self.label})"


def sine_data(m=1):
    """u0 = sin(m pi x), u1 = 0."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    return InitialData(
        u0=lambda x: np.sin(m * np.pi * np.asarray(x, dtype=float)),
        u1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        du0=lambda x: m * np.pi * np.cos(m * np.pi * np.asarray(x, dtype=float)),
        u0_over_x=lambda x: m * np.pi * np.sinc(m * np.asarray(x, dtype=float)),
        label=f"sine:{m}",
    )


def bump_data():
    """Smooth compactly supported bump, peak value 1 at x = 1/2, u1 = 0."""

    def u0(x):
        x = np.asarray(x, dtype=float)
        phi = x * (1.0 - x)
        inside = phi > 1e-12
        out = np.zeros_like(x)
        out[inside] = np.exp(4.0 - 1.0 / phi[inside])
        return out

    def du0(x):
        x = np.asarray(x, dtype=float)
        phi = x * (1.0 - x)
        inside = phi > 1e-12
        out = np.zeros_like(x)
        out[inside] = (np.exp(4.0 - 1.0 / phi[inside])
                       * (1.0 - 2.0 * x[inside]) / phi[inside] ** 2)
        return out

    return InitialData(
        u0=u0,
        u1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        du0=du0,
        label="bump",
    )


def mode_data(n, k):
    """Standing-wave data for integer damping alpha = n + 1: (f_k, mu_k f_k)
    with f_k = spectrum.standing_mode(n, k).f, yielding the exact solution
    e^(mu_k t) f_k(x)."""
    from .spectrum import standing_mode

    mu, f, df, f_over_x = standing_mode(n, k)
    return InitialData(u0=f, u1=lambda x: mu * f(x), du0=df,
                       u0_over_x=f_over_x, label=f"mode:{k}")


def zero_data():
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return InitialData(u0=z, u1=z, du0=z, u0_over_x=z, label="zero")


def combine(data_list, weights):
    """Linear combination sum_j w_j * data_j. An evaluator of the sum
    whose parts include piecewise ones (those exposing breakpoints .x)
    carries the union of their breakpoints as its own .x, so quadratures
    still split at the knots of spline data."""
    ws = [float(w) for w in weights]

    def mk(attr):
        parts = [getattr(d, attr) for d in data_list]

        def f(x):
            acc = np.zeros_like(np.asarray(x, dtype=float))
            for w, part in zip(ws, parts):
                acc = acc + w * part(x)
            return acc
        knots = [part.x for part in parts if hasattr(part, "x")]
        if knots:
            f.x = _union(*knots)
        return f

    return InitialData(u0=mk("u0"), u1=mk("u1"), du0=mk("du0"),
                       u0_over_x=mk("u0_over_x"), label="combo")
