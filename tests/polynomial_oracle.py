"""Explicit-coefficient oracle of the tests: the package evaluates the
associated Laguerre polynomials and the auxiliary polynomial P_n of the
Green's function by their three-term recurrence (specfun.laguerre), these
from their closed-form coefficients."""

import math
from fractions import Fraction


class PolynomialCoeffs:
    """Real polynomial stored by ascending-degree coefficients."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __call__(self, x):
        # Horner, works for real or complex x
        acc = 0.0 * x + 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def laguerre_coeffs(n, beta):
    """Coefficients of L_n^(beta), ascending degree (exact, then floats)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = []
    for m in range(n + 1):
        c = Fraction((-1) ** m * math.comb(n + beta, n - m), math.factorial(m))
        coeffs.append(float(c))
    return PolynomialCoeffs(tuple(coeffs))


def p_poly_fractions(n):
    """P_n's coefficients as exact fractions, ascending degree: the direct
    double sum."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        binom = (-1) ** k * math.comb(n + 1, k + 1)
        for m in range(k + 1):
            coeffs[m] += Fraction(binom * math.factorial(k - m),
                                  math.factorial(k))
    return tuple(coeffs)


def p_poly_coeffs(n):
    """P_n by its double-sum coefficients rounded to floats, for Horner."""
    return PolynomialCoeffs(tuple(float(c) for c in p_poly_fractions(n)))
