"""Time-domain simulation of the first-order damped-wave system.

The grid excludes x = 0, so the damping coefficient 2*alpha/x stays finite
(but stiff: 2*alpha/h at the first node); time stepping is therefore
implicit. For this linear autonomous system the implicit midpoint rule and
Crank-Nicolson coincide (trapezoidal rule).

With c = dt/2, D = diag(2 alpha / x_i) and L = tridiag(1, -2, 1)/h^2, one
step of the rule on (u, v) reads

    u' = u + c (v + v'),    v' = v + c L (u + u') - c D (v + v').

Eliminating u' leaves A v' = B v + 2c L u, the Schur complement of the 2N
block system, with A = I + c D - c^2 L and B = I - c D + c^2 L = 2I - A. So
the midpoint velocity q = (v + v')/2 solves one system per step:

    A q = v + c L u,    v' = 2q - v,    u' = u + dt q.

A is tridiagonal and, for alpha >= 0, symmetric positive definite; it is
factored once by LAPACK's dpttrf and every step is one dpttrs solve in
place, both called on scipy's compiled wrappers (singwave.lapack, which
leaves scipy.linalg unimported). L u = diff(u_x)/h reuses the u_x of the
last step's energy audit.

The solve is handed the factor (d/2, e) of A/2, so it returns p = 2q
itself: v' = p - v rounds once and c p is dt q. This p is, bit for bit, the
doubled 2q of a solve with (d, e). The factor of A/2 has the same e and half
the d, each halving exact; dpttrs's forward sweep reads e alone, and in its
back substitution b_i/d_i - b_{i+1} e_i every term doubles, and doubling
commutes with rounding. It does so only in the normal range: where a
quotient or product is subnormal, the bits can differ (sine data of amplitude
1e-305 step to other bits than the doubled solve, 1e-300 to the same).
Such data have E(0) = 0, the squares underflowing, and a zero E(0) is
never audited.

The step's scalars c/h, c and h reach their ufuncs as 0-d arrays, and the
outputs are passed positionally: numpy converts a Python float operand,
and parses an out= keyword, on every call, which costs more than the
arithmetic itself at a few hundred nodes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .data import _union, combine, mode_data
from .lapack import flapack
from .spectrum import standing_mode

_ENERGY_INCREASE_TOL = 1e-10
_GRAM_COND_MAX = 1e12
_PANELS = 64  # uniform panels of the composite Gauss-Legendre rule
# its 16-point rule on [-1, 1], exact for degree <= 31, by its positive
# nodes ascending and their weights: numpy's leggauss(16) to the bit,
# written out since importing numpy.polynomial costs more than a projection
_GL_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
             0.6178762444026438, 0.755404408355003, 0.8656312023878318,
             0.9445750230732326, 0.9894009349916499)
_GL_WEIGHTS = (0.18945061045506864, 0.18260341504492364,
               0.16915651939500265, 0.1495959888165767, 0.12462897125553407,
               0.0951585116824926, 0.062253523938647456, 0.027152459411754176)
_LEGENDRE_RULE = (np.array([-x for x in _GL_NODES[::-1]] + list(_GL_NODES)),
                  np.array(_GL_WEIGHTS[::-1] + _GL_WEIGHTS))


class EvolutionError(Exception):
    pass


class EnergyIncreaseError(EvolutionError):
    def __init__(self, step, ratio):
        super().__init__(
            f"energy increased by {ratio:.3e}*E(0) at step {step}; "
            f"scheme unstable or tolerance too tight")
        self.step = step
        self.ratio = ratio


class Grid:
    """N interior nodes x_i = i*h, h = 1/(N+1); Dirichlet values at 0 and 1
    are implicit in all stencils."""

    def __init__(self, N):
        if N < 2:
            raise ValueError("need at least 2 interior points")
        self.N = N

    @property
    def h(self):
        return 1.0 / (self.N + 1)

    @property
    def nodes(self):
        return self.h * np.arange(1, self.N + 1)


class State(NamedTuple):
    u: np.ndarray
    v: np.ndarray


class EnergyTrace(NamedTuple):
    times: np.ndarray
    energies: np.ndarray


class SimulationRun:
    """A simulation's grid, snapshots (States at snapshot_times) and
    EnergyTrace."""

    def __init__(self, alpha, grid, dt, snapshot_times, snapshots, trace,
                 max_energy_increase_ratio):
        self.alpha, self.grid, self.dt = alpha, grid, dt
        self.snapshot_times, self.snapshots = snapshot_times, snapshots
        self.trace = trace
        self.max_energy_increase_ratio = max_energy_increase_ratio


def energy(grid, state):
    """Discrete energy ||u_x||^2 + ||v||^2 with forward differences and the
    implicit Dirichlet boundary values."""
    h = grid.h
    du = np.diff(np.concatenate([[0.0], state.u, [0.0]])) / h
    return h * float(du.dot(du)) + h * float(state.v.dot(state.v))


def simulate(alpha, initial, T, dt, N=2000, snapshot_times=None,
             n_snapshots=21):
    """Trapezoidal-rule time stepping up to T with per-step energy audit.

    Snapshots are recorded at the requested times (rounded to step
    boundaries) or uniformly when none are given.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = Grid(N)
    x, h = grid.nodes, grid.h
    # u lives inside a zero-padded buffer so that the Dirichlet closure of
    # the difference stencil is a plain slice
    u_ext = np.zeros(N + 2)
    u = u_ext[1:-1]
    u[:] = initial.u0(x)
    v = np.array(initial.u1(x), dtype=float)
    u_x = np.empty(N + 1)
    rhs = np.empty(N)
    # the loop's slices, bound routines and 0-d scalars, made once
    add, subtract, multiply, divide = (np.add, np.subtract, np.multiply,
                                       np.divide)
    isfinite = math.isfinite
    u_hi, u_lo, ux_hi, ux_lo = u_ext[1:], u_ext[:-1], u_x[1:], u_x[:-1]
    ux_dot, v_dot, dpttrs = u_x.dot, v.dot, flapack.dpttrs
    h_0d = np.array(h)

    def audit_energy():
        # energy() on the buffers, same formula; u_x feeds the next step
        subtract(u_hi, u_lo, u_x)
        divide(u_x, h_0d, u_x)
        return h * float(ux_dot(u_x)) + h * float(v_dot(v))

    n_steps = int(round(T / dt))
    c = 0.5 * dt
    damp = c * (2.0 * alpha / x)
    k = c * c / (h * h)
    d_fac, e_fac, info = flapack.dpttrf(1.0 + damp + 2.0 * k,
                                        np.full(N - 1, -k))
    if info != 0:
        raise EvolutionError(f"step-matrix factorization failed "
                             f"(dpttrf info={info})")
    d_half = d_fac * 0.5  # the factor of A/2: the solve returns 2q

    if snapshot_times is None:
        snapshot_times = list(np.linspace(0.0, n_steps * dt, n_snapshots))
    snap_steps = {min(n_steps, max(0, int(round(t / dt))))
                  for t in snapshot_times}

    e0 = audit_energy()
    # every increase over an infinite E(0) reads NaN, which no audit
    # rejects; a NaN E(0) is a non-finite state, caught at step 1
    if e0 == math.inf:
        raise EvolutionError("initial energy is infinite; the energy audit "
                             "cannot run")
    times = np.arange(n_steps + 1) * dt
    energies = np.empty(n_steps + 1)
    energies[0] = e_prev = e0
    snaps, snap_times = [], []
    if 0 in snap_steps:
        snaps.append(State(u.copy(), v.copy()))
        snap_times.append(0.0)
    max_inc = 0.0
    c_h, c_0d = np.array(c / h), np.array(c)
    for step in range(1, n_steps + 1):
        # (A/2) p = v + c L u with L u = diff(u_x) / h, so p = 2q; then
        # v' = p - v and u' = u + c p
        subtract(ux_hi, ux_lo, rhs)
        multiply(rhs, c_h, rhs)
        add(rhs, v, rhs)
        p, _info = dpttrs(d_half, e_fac, rhs, 1)  # overwrite_b
        subtract(p, v, v)
        multiply(p, c_0d, p)
        add(u, p, u)
        e = audit_energy()
        # NaN and inf reach e through the squares, so a finite e is a
        # finite state; a finite state whose energy overflows goes on to
        # the increase audit
        if not isfinite(e) and not (np.isfinite(u).all()
                                    and np.isfinite(v).all()):
            raise EvolutionError(f"linear solve produced non-finite state "
                                 f"at step {step}")
        inc = (e - e_prev) / e0 if e0 > 0 else 0.0
        if inc > max_inc:
            max_inc = inc
        if inc > _ENERGY_INCREASE_TOL:
            raise EnergyIncreaseError(step, inc)
        energies[step] = e_prev = e
        if step in snap_steps:
            snaps.append(State(u.copy(), v.copy()))
            snap_times.append(step * dt)
    return SimulationRun(alpha, grid, dt, snap_times, snaps,
                         EnergyTrace(times, energies), max(max_inc, 0.0))


def _gauss_legendre(*fns):
    """Nodes and weights of the composite 16-point Gauss-Legendre rule on
    [0, 1]: _PANELS uniform panels, split at the breakpoints .x of every
    piecewise evaluator among fns (a data.Spline, a scipy PPoly, a sum from
    data.combine), so that a spline's kinks fall on panel edges."""
    breaks = np.linspace(0.0, 1.0, _PANELS + 1)
    for f in fns:
        if hasattr(f, "x"):
            breaks = _union(breaks, np.clip(f.x, 0.0, 1.0))
    nodes, weights = _LEGENDRE_RULE
    half = 0.5 * np.diff(breaks)[:, None]
    mid = 0.5 * (breaks[1:] + breaks[:-1])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def _mode_rows(n, x):
    """mu = [mu_k] and the rows F = [f_k(x)], DF = [f_k'(x)], k = 1..n."""
    modes = [standing_mode(n, k) for k in range(1, n + 1)]
    return (np.array([m.mu for m in modes]),
            np.array([m.f(x) for m in modes]),
            np.array([m.df(x) for m in modes]))


def projection_condition(data, n):
    """The n adjoint pairings <(u0,u1), (f_k, -mu_k f_k)>_H
    = <u0', f_k'> - mu_k <u1, f_k>, k = 1..n (poles ascending)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x, w = _gauss_legendre(data.u0, data.u1, data.du0)
    mu, F, DF = _mode_rows(n, x)
    return DF @ (w * data.du0(x)) - mu * (F @ (w * data.u1(x)))


def project_out(data, n):
    """Data minus its component in the span of the standing-wave pairs
    (f_k, mu_k f_k), so that projection_condition of the result vanishes."""
    c = projection_condition(data, n)
    x, w = _gauss_legendre()
    mu, F, DF = _mode_rows(n, x)
    gram = (DF * w) @ DF.T - np.outer(mu, mu) * ((F * w) @ F.T)
    cond = np.linalg.cond(gram)
    if cond > _GRAM_COND_MAX:
        raise EvolutionError(f"singular Gram matrix (cond={cond:.3e}); "
                             f"eigenvalues not simple?")
    beta = np.linalg.solve(gram, c)
    out = combine([data, *(mode_data(n, k) for k in range(1, n + 1))],
                  [1.0, *(-beta)])
    out.label = f"{data.label}|projected"
    return out


def extinction_time(run, threshold_ratio):
    """First recorded time t* with E(t) < threshold_ratio * E(0) for all
    recorded t >= t*; None if the trace never settles below threshold."""
    e = run.trace.energies
    t = run.trace.times
    e0 = e[0]
    if e0 == 0:
        return 0.0
    below = e < threshold_ratio * e0
    if not below[-1]:
        return None
    # last index where the trace is above threshold
    above = np.nonzero(~below)[0]
    if len(above) == 0:
        return float(t[0])
    idx = above[-1] + 1
    return float(t[idx]) if idx < len(t) else None


def decay_rate(trace, window):
    """Least-squares slope of (1/2) log E(t) over the window (the factor
    1/2 converts the quadratic energy to a state-norm rate). Raises
    EvolutionError when the window holds fewer than two samples or a
    non-positive energy."""
    t0, t1 = window
    mask = (trace.times >= t0) & (trace.times <= t1)
    if mask.sum() < 2:
        raise EvolutionError("window too short for a fit")
    e = trace.energies[mask]
    if np.any(e <= 0):
        raise EvolutionError("non-positive energies in the fit window")
    slope = np.polyfit(trace.times[mask], 0.5 * np.log(e), 1)[0]
    return float(slope)
