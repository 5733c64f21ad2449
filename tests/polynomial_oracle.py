"""Explicit-coefficient oracle of the tests: the package evaluates the
associated Laguerre polynomials by their three-term recurrence
(specfun.laguerre), these from their closed-form coefficients."""

import math
from fractions import Fraction

from singwave.laplace import PolynomialCoeffs


def laguerre_coeffs(n, beta):
    """Coefficients of L_n^(beta), ascending degree (exact, then floats)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = []
    for m in range(n + 1):
        c = Fraction((-1) ** m * math.comb(n + beta, n - m), math.factorial(m))
        coeffs.append(float(c))
    return PolynomialCoeffs(tuple(coeffs))
