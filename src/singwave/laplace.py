"""Laplace-domain solution of the damped wave equation at integer damping.

For alpha = n + 1 the Laplace transform U(x, tau) of the solution satisfies a
Sturm-Liouville problem whose Green's function splits into an entire part
(kernel G1) and a rank-one part (kernel G2) weighted by the residues of
P_n(-2 tau) / L_n^(1)(-2 tau) at the eigenvalues mu_k. The rank-one part
carries the whole large-time tail; the entire part vanishes identically for
t > 2.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .data import Spline
from .specfun import exp_integral_e1_array, laguerre
from .spectrum import laguerre_poles, standing_mode

_POLE_TOL = 1e-8
# bound on |sum a_k + 1/2| / sum |a_k|; measured at most 2.4e-14 for n <= 30
_RESIDUE_SUM_RTOL = 1e-12
_QUAD_GRID = 4097  # nodes of the cumulative-integral spline


class LaplaceError(Exception):
    pass


class PoleProximityError(LaplaceError):
    def __init__(self, tau, mu):
        super().__init__(f"tau={tau} lies within {_POLE_TOL} of the pole "
                         f"mu={mu}")
        self.tau = tau
        self.mu = mu


class PolynomialCoeffs:
    """Real polynomial stored by ascending-degree coefficients."""

    def __init__(self, coeffs):
        if len(coeffs) == 0:
            raise ValueError("empty coefficient list")
        if len(coeffs) > 1 and coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        self.coeffs = coeffs

    def __call__(self, x):
        # Horner, works for real or complex x
        acc = 0.0 * x + 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@functools.lru_cache(maxsize=None)
def _p_poly_fractions(n):
    """p_poly(n)'s coefficients as exact fractions, ascending degree: the
    direct double sum."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        binom = (-1) ** k * math.comb(n + 1, k + 1)
        for m in range(k + 1):
            coeffs[m] += Fraction(binom * math.factorial(k - m),
                                  math.factorial(k))
    return tuple(coeffs)


@functools.lru_cache(maxsize=None)
def p_poly(n):
    """The auxiliary polynomial family of degree n from the Green's-function
    construction: constant term 1, leading coefficient equal to that of
    L_n^(1). Coefficients by the direct double sum, computed exactly."""
    return PolynomialCoeffs(tuple(float(c) for c in _p_poly_fractions(n)))


def p_poly_exact(n, x):
    """P_n(x) at a float x in exact rational arithmetic, rounded once.

    Near a zero of L_n^(1) the float Horner of p_poly cancels: at n = 10
    the smallest value is about 1e-12 of the terms' size."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(_p_poly_fractions(n)):
        acc = acc * x + c
    return float(acc)


class PartialFractions(NamedTuple):
    """Residue data of P_n(-2 tau)/L_n^(1)(-2 tau) = 1 + sum a_k/(tau - mu_k)."""

    n: int
    poles: tuple
    coeffs: tuple

    def rational(self, tau):
        acc = 1.0 + 0.0j
        for mu, a in zip(self.poles, self.coeffs):
            acc += a / (tau - mu)
        return acc


class LaplaceRHS(NamedTuple):
    """r(x, tau) = tau u0 + u1 + 2(n+1) u0/x for data in the energy space."""

    data: object
    n: int

    def __call__(self, x, tau):
        d = self.data
        x = np.asarray(x, dtype=float)
        return (tau * d.u0(x) + d.u1(x)
                + 2.0 * (self.n + 1) * d.u0_over_x(x))

    def times_x(self, x, tau):
        """x * r(x, tau), finite down to x = 0."""
        d = self.data
        x = np.asarray(x, dtype=float)
        return x * (tau * d.u0(x) + d.u1(x)) + 2.0 * (self.n + 1) * d.u0(x)


def partial_fractions(n):
    """Residues a_k = P_n(-2 mu_k) / (-2 (L_n^(1))'(-2 mu_k))
    = P_n(-2 mu_k) / (2 L_{n-1}^(2)(-2 mu_k)), by d/dx L_n^(1) = -L_{n-1}^(2);
    the poles are simple because Laguerre roots are. P_n is evaluated at
    the pole exactly (p_poly_exact): float Horner cancels there.

    What is left is the double pole's own rounding. From n = 12 some
    |P_n(-2 mu_k)| are below the ulp of -2 mu_k times |P_n'| there, so no
    test of one a_k can tell it from zero; for n <= 30 those a_k are at
    most 3.4e-14 of the largest, and their tail terms are damped by
    e^(mu_k (t - 2)) with mu_k < -18. The check is instead the
    1/tau term of P_n/L_n^(1): P_n's two leading coefficients are those of
    L_n^(1) plus (0, l_n), so sum a_k = -1/2 for every n. A wrong pole or a
    wrong P_n breaks it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    poles = laguerre_poles(n)
    coeffs = tuple(float(p_poly_exact(n, -2.0 * mu)
                         / (2.0 * laguerre(n - 1, 2, -2.0 * mu)))
                   for mu in poles)
    total = math.fsum(coeffs)
    if abs(total + 0.5) > _RESIDUE_SUM_RTOL * math.fsum(map(abs, coeffs)):
        raise LaplaceError(f"residues sum to {total}, not -1/2 "
                           f"(n={n}); root finder or polynomial defect")
    return PartialFractions(n, poles, coeffs)


def _sink_factor(n, x, tau):
    """y e^(tau y) L_n^(1)(-2 tau y) evaluated at x (the solution branch
    vanishing at 0)."""
    x = np.asarray(x, dtype=float)
    return x * np.exp(tau * x) * laguerre(n, 1, -2.0 * tau * x)


def _bracket_factor(n, x, tau):
    """The bracketed factor of the G1 kernel; value 1 at x = 0. Its
    int_x^1 e^(-2 tau s)/s ds is E1(2 tau x) - E1(2 tau) inside (0, 1), all
    from one exp_integral_e1_array call: both arguments lie on one ray from
    0, so on one side of E1's cut. The integral is zero from x = 1 on, and
    at tau = 0 its factor 2 tau is."""
    pn = p_poly(n)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    log_int = np.zeros(x_arr.shape, dtype=complex)
    if tau != 0:
        inside = (x_arr != 0.0) & (x_arr < 1.0)
        e1 = exp_integral_e1_array(2.0 * tau
                                   * np.append(x_arr[inside], 1.0))
        log_int[inside] = e1[:-1] - e1[-1]
    w = -2.0 * tau * x_arr
    inner = 2.0 * tau * log_int + cmath.exp(-2.0 * tau)
    out = np.exp(-tau * x_arr) * pn(w) - x_arr * np.exp(tau * x_arr) \
        * laguerre(n, 1, w) * inner
    return out if np.ndim(x) else out[0]


def green_g1(n, x, y, tau):
    """Entire-part kernel: used as G1(x, y) for y < x and G1(y, x) for
    y > x in the solution formula; entire in tau."""
    tau = complex(tau)
    return _sink_factor(n, y, tau) * _bracket_factor(n, x, tau) / (n + 1)


def green_g2(n, x, y, tau):
    """Rank-one kernel -(1/(n+1)) x y e^(tau(x+y-2)) L(-2 tau x) L(-2 tau y);
    symmetric and entire in tau."""
    tau = complex(tau)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -(x * y * np.exp(tau * (x + y - 2.0))
             * laguerre(n, 1, -2.0 * tau * x)
             * laguerre(n, 1, -2.0 * tau * y)) / (n + 1)


def _cumulative(nodes, values):
    return Spline.interpolate(nodes, values).antiderivative()


def solve_laplace_U(data, n, tau, x_grid):
    """U(x, tau) = U1 + U2 on x_grid.

    The kernels factor into functions of x times functions of y, so both
    integrals reduce to cumulative antiderivatives of smooth integrands on a
    fine grid — no per-x quadrature.
    """
    tau = complex(tau)
    rhs = LaplaceRHS(data, n)
    if n >= 1:
        pf = partial_fractions(n)
        for mu in pf.poles:
            if abs(tau - mu) < _POLE_TOL:
                raise PoleProximityError(tau, mu)
    else:
        pf = PartialFractions(0, (), ())  # U is entire for n = 0
    x_grid = np.asarray(x_grid, dtype=float)

    nodes = np.linspace(0.0, 1.0, _QUAD_GRID)
    # S(y) r(y) = e^(tau y) L(-2 tau y) * [y r(y)], finite at y = 0
    lag_nodes = laguerre(n, 1, -2.0 * tau * nodes)
    s_r = np.exp(tau * nodes) * lag_nodes * rhs.times_x(nodes, tau)
    bracket_nodes = _bracket_factor(n, nodes, tau)
    b_r = bracket_nodes * rhs(nodes, tau)

    cum_sr = _cumulative(nodes, s_r)
    cum_br = _cumulative(nodes, b_r)
    J = cum_sr(1.0)

    sink_x = _sink_factor(n, x_grid, tau)
    bracket_x = _bracket_factor(n, x_grid, tau)
    u1 = (bracket_x * cum_sr(x_grid)
          + sink_x * (cum_br(1.0) - cum_br(x_grid))) / (n + 1)

    weight = sum(a / (tau - mu) for a, mu in zip(pf.coeffs, pf.poles))
    u2 = -(weight * J / (n + 1)) * x_grid \
        * np.exp(tau * (x_grid - 2.0)) * laguerre(n, 1, -2.0 * tau * x_grid)
    return u1 + u2


def laplace_U_alpha1(data, x, tau):
    """Explicit transform for alpha = 1 (n = 0):
    U = x int_x^1 u0(r)/r e^(tau(x-r)) dr
      + x int_x^1 r^-2 int_0^r (u0 - s u0' + s u1) e^(tau(x-2r+s)) ds dr.
    Entire in tau."""
    tau = complex(tau)
    x = float(x)
    if x == 0.0 or x == 1.0:
        return 0.0 + 0.0j

    nodes = np.linspace(0.0, 1.0, _QUAD_GRID)
    q = (np.asarray(data.u0(nodes), dtype=float)
         - nodes * np.asarray(data.du0(nodes), dtype=float)
         + nodes * np.asarray(data.u1(nodes), dtype=float))
    cum_q = _cumulative(nodes, q * np.exp(tau * nodes))

    first_ig = (np.asarray(data.u0_over_x(nodes), dtype=float)
                * np.exp(-tau * nodes))
    cum_first = _cumulative(nodes, first_ig)
    first = x * cmath.exp(tau * x) * (cum_first(1.0) - cum_first(x))

    outer_ig = cum_q(nodes) * np.exp(-2.0 * tau * nodes) \
        / np.where(nodes > 0, nodes, 1.0) ** 2
    outer_ig[0] = 0.0  # inner integral is O(r^2) at r = 0
    cum_outer = _cumulative(nodes, outer_ig)
    second = x * cmath.exp(tau * x) * (cum_outer(1.0) - cum_outer(x))
    return first + second


def tail_u2(data, n, t, x_grid):
    """Post-extinction tail for t > 2:
    u2(x, t) = -sum_k (a_k/(n+1)) e^(mu_k (t-2)) f_k(x) <r(., mu_k), f_k>_L2;
    identically zero exactly when the data are orthogonal to every adjoint
    eigenfunction, since <r(., mu_k), f_k> = -(1/mu_k) <data, adjoint mode>_H
    and mu_k < 0."""
    from .evolution import projection_condition

    if t <= 2.0:
        raise ValueError("the tail formula holds for t > 2")
    pf = partial_fractions(n)
    c = projection_condition(data, n)
    c = -c / np.array(pf.poles)  # energy pairing -> L2 pairing with r
    x_grid = np.asarray(x_grid, dtype=float)
    out = np.zeros_like(x_grid)
    for k, (mu, a, c_k) in enumerate(zip(pf.poles, pf.coeffs, c), start=1):
        f_k = standing_mode(n, k).f(x_grid)
        out -= (a / (n + 1)) * math.exp(mu * (t - 2.0)) * c_k * f_k
    return out
