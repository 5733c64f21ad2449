"""Numerical certification of the inequalities the solver relies on.

Four checks: the one-dimensional Hardy inequality, the resolvent-norm lower
bound for the damped-wave generator, the uniform bound on the largest
Laguerre-root magnitude, and the inner-product identity tying the energy
pairing with adjoint eigenfunctions to an L2 pairing against the
Laplace-domain right-hand side. The last one binds the spectrum, laplace and
evolution modules together, so it doubles as a cross-module oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# default_rng; imported with this module so that no check pays for it
import numpy.random

from .data import Spline, sine_data
from .evolution import _gauss_legendre, projection_condition
from .laplace import LaplaceRHS
from .spectrum import laguerre_poles, standing_mode


@dataclass(frozen=True)
class ResolventProbe:
    """One probe point tau = -sigma + i eta with a normalized witness."""

    sigma: float
    eta: float
    ratio: float


def hardy_check(psi, dpsi=None):
    """(lhs, rhs) of int |psi|^2/x^2 <= 4 int |psi'|^2 for psi(0)=psi(1)=0.

    psi may be a piecewise polynomial (anything exposing breakpoints .x and
    derivative(): a data.Spline, a scipy PPoly), a callable with optional
    derivative, or a grid vector on a uniform interior grid. Grid vectors,
    and callables given without a derivative, are replaced by their cubic
    spline.

    Both integrals use the composite 16-point Gauss-Legendre rule of
    evolution._gauss_legendre. For a spline the panels are its own pieces
    split at the rule's 64 uniform panels, so no panel crosses a knot:
    4 int |psi'|^2 is exact (degree 4 per panel), and so is
    int |psi|^2/x^2 on the first piece, where psi(0) = 0 makes psi/x a
    polynomial. With uniform knots, 1/x^2 is analytic at least three
    half-widths away from every panel beyond the first piece, where the
    rule's relative error is below 1e-20. No node sits at x = 0. A plain
    callable, evaluated one scalar at a time, uses the 64 uniform panels.
    """
    piecewise = lambda f: hasattr(f, "x") and hasattr(f, "derivative")
    if not callable(psi):
        vals = np.asarray(psi, dtype=float)
        x = np.linspace(0.0, 1.0, len(vals) + 2)
        psi = Spline.interpolate(x, np.concatenate([[0.0], vals, [0.0]]))
    elif dpsi is None and not piecewise(psi):
        spline_x = np.linspace(0.0, 1.0, 2001)
        psi = Spline.interpolate(spline_x, psi(spline_x))
    if piecewise(psi):
        if dpsi is None:
            dpsi = psi.derivative()
    else:
        psi = np.vectorize(psi, otypes=[float])
        dpsi = np.vectorize(dpsi, otypes=[float])
    x, w = _gauss_legendre(psi)
    lhs = float(w @ (psi(x) / x) ** 2)
    rhs = 4.0 * float(w @ dpsi(x) ** 2)
    return lhs, rhs


def random_witness(rng, n_knots=12):
    """Random spline pair (u, v) with Dirichlet zeros on u, for use as a
    discrete element of the generator domain."""
    knots = np.linspace(0.0, 1.0, n_knots)
    cu = rng.standard_normal(n_knots)
    cu[0] = cu[-1] = 0.0
    cv = rng.standard_normal(n_knots)
    return Spline.interpolate(knots, cu), Spline.interpolate(knots, cv)


def resolvent_bound_check(alpha, sigma, eta, trials=200, N=1000, seed=0):
    """Worst ratio ||(G - tau) w||_H / [(alpha - sigma)/(1 + 3 alpha/|eta|)]
    over random normalized discrete witnesses, tau = -sigma + i eta.

    The denominator uses |eta|: the bound must be even in eta since the
    spectrum is conjugation-symmetric.
    """
    if not 0 <= sigma < alpha:
        raise ValueError("need 0 <= sigma < alpha")
    if eta == 0:
        raise ValueError("eta must be nonzero")
    rng = np.random.default_rng(seed)
    h = 1.0 / (N + 1)
    x = h * np.arange(1, N + 2)  # include x=1 for the gradient stencil
    xi = x[:-1]
    tau = complex(-sigma, eta)
    bound = (alpha - sigma) / (1.0 + 3.0 * alpha / abs(eta))

    def hnorm2(u_ext, v):
        du = np.diff(u_ext) / h
        return h * float((du @ du.conj()).real) + h * float((v @ v.conj()).real)

    worst = math.inf
    probes = []
    for _ in range(trials):
        su, sv = random_witness(rng)
        u = su(xi).astype(complex)
        v = sv(xi).astype(complex)
        u_ext = np.concatenate([[0.0], u, [0.0]])
        norm = math.sqrt(hnorm2(u_ext, v))
        u, u_ext, v = u / norm, u_ext / norm, v / norm
        # (G - tau)(u, v) = (v - tau u, u'' - (2 alpha / x) v - tau v)
        r1 = v - tau * u
        lap = (u_ext[:-2] - 2.0 * u_ext[1:-1] + u_ext[2:]) / h ** 2
        r2 = lap - (2.0 * alpha / xi) * v - tau * v
        r1_ext = np.concatenate([[0.0], r1, [0.0]])
        ratio = math.sqrt(hnorm2(r1_ext, r2)) / bound
        probes.append(ResolventProbe(sigma, eta, ratio))
        if ratio < worst:
            worst = ratio
    return worst, probes


def gupta_bound_check(n_max):
    """Largest Laguerre-root magnitude |mu_max| vs 3/(2+n) for n = 1..n_max.

    Returns a list of (n, |mu_max|, 3/(2+n)); raises if the bound fails.
    """
    rows = []
    for n in range(1, n_max + 1):
        mu_max = max(laguerre_poles(n))  # least-negative eigenvalue
        bound = 3.0 / (2.0 + n)
        if abs(mu_max) > bound * (1.0 + 1e-10):
            raise AssertionError(
                f"root-magnitude bound violated at n={n}: "
                f"|mu|={abs(mu_max)} > {bound}")
        rows.append((n, abs(mu_max), bound))
    return rows


def lemma_condition_identity(data, n):
    """Max over k of
    |<(u0,u1), (f_k, -mu_k f_k)>_H - (-mu_k) <r(., mu_k), f_k>_L2|.

    Integration by parts against the eigen-ODE of f_k gives the energy
    pairing as -mu_k times the L2 pairing with r (both sides share the same
    zero set since mu_k < 0, so either reading characterizes extinction; the
    -mu_k factor is fixed by matching simulated tails). Both sides use the
    same quadrature nodes, so agreement certifies the integration-by-parts
    identity, and with it consistent conventions across spectrum, laplace
    and evolution, not the quadrature.
    """
    energy_side = projection_condition(data, n)
    rhs = LaplaceRHS(data, n)
    x, w = _gauss_legendre(data.u0, data.u1, data.du0)
    worst = 0.0
    for k, lhs in enumerate(energy_side, start=1):
        mu, f, _, _ = standing_mode(n, k)
        l2_side = w @ (np.real(rhs(x, mu)) * f(x))
        worst = max(worst, abs(lhs - (-mu) * l2_side))
    return worst


CHECKS = ("hardy", "resolvent", "gupta", "pairing")


def run_all(seed=0, trials=200, n_max=20, check="all"):
    """The verification suite, or the one check named by check.

    Returns {name: {"passed": bool, ...margin fields}} in CHECKS order:
    hardy over trials random spline witnesses, the resolvent bound at
    alpha = 2, tau = 5i over trials witnesses, the root-magnitude bound for
    n = 1..n_max, and the pairing identity for sine data at n = 1, 2, 3.
    """
    if check != "all" and check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    results = {}
    if check in ("all", "hardy"):
        rng = np.random.default_rng(seed)
        ok = True
        worst = 0.0
        for _ in range(trials):
            su, _sv = random_witness(rng)
            lhs, rhs = hardy_check(su, su.derivative())
            if rhs > 0:
                worst = max(worst, lhs / rhs)
            ok = ok and lhs <= rhs * (1.0 + 1e-6)
        results["hardy"] = {"passed": ok, "worst_ratio": worst}
    if check in ("all", "resolvent"):
        ratio, _ = resolvent_bound_check(2.0, 0.0, 5.0, trials=trials,
                                         seed=seed)
        results["resolvent"] = {"passed": ratio >= 0.95,
                                "worst_ratio": ratio}
    if check in ("all", "gupta"):
        try:
            rows = gupta_bound_check(n_max)
            results["gupta"] = {
                "passed": True,
                "table": [{"n": n, "mu_max_abs": m, "bound": b}
                          for n, m, b in rows]}
        except AssertionError as exc:
            results["gupta"] = {"passed": False, "error": str(exc)}
    if check in ("all", "pairing"):
        worst = max(lemma_condition_identity(sine_data(1), n)
                    for n in (1, 2, 3))
        results["pairing"] = {"passed": worst < 1e-8,
                              "max_discrepancy": worst}
    return results
