"""Initial data (u0, u1) for the damped wave equation.

Data live in the energy space: u0 with one weak derivative vanishing at the
endpoints, u1 square integrable. Evaluators are vectorized over numpy
arrays; u0_over_x supplies u0(x)/x with its finite limit at x = 0, which the
Hardy inequality keeps square integrable.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline


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
    def from_callables(cls, u0, u1, du0, label="custom"):
        return cls(u0, u1, du0, label=label)

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
        s0 = CubicSpline(x, u0)
        s1 = CubicSpline(x, u1)
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
    with f_k(x) = x e^(mu_k x) L_n^(1)(-2 mu_k x), yielding the exact
    solution e^(mu_k t) f_k(x)."""
    from .spectrum import laguerre_poles
    from .specfun import laguerre

    if n < 1:
        raise ValueError("mode data requires n >= 1 (alpha >= 2)")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    mu = laguerre_poles(n)[k - 1]

    def f(x):
        x = np.asarray(x, dtype=float)
        return x * np.exp(mu * x) * np.real(laguerre(n, 1, -2.0 * mu * x))

    def df(x):
        x = np.asarray(x, dtype=float)
        l1 = np.real(laguerre(n, 1, -2.0 * mu * x))
        l2 = np.real(laguerre(n - 1, 2, -2.0 * mu * x))
        return np.exp(mu * x) * ((1.0 + mu * x) * l1 + 2.0 * mu * x * l2)

    return InitialData(
        u0=f,
        u1=lambda x: mu * f(x),
        du0=df,
        u0_over_x=lambda x: np.exp(mu * np.asarray(x, dtype=float))
        * np.real(laguerre(n, 1, -2.0 * mu * np.asarray(x, dtype=float))),
        label=f"mode:{k}",
    )


def zero_data():
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return InitialData(u0=z, u1=z, du0=z, u0_over_x=z, label="zero")


def combine(data_list, weights):
    """Linear combination sum_j w_j * data_j."""
    ws = [float(w) for w in weights]

    def mk(attr):
        def f(x):
            acc = np.zeros_like(np.asarray(x, dtype=float))
            for w, d in zip(ws, data_list):
                acc = acc + w * getattr(d, attr)(x)
            return acc
        return f

    return InitialData(u0=mk("u0"), u1=mk("u1"), du0=mk("du0"),
                       u0_over_x=mk("u0_over_x"), label="combo")
