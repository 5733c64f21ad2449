"""Time-domain simulation of the first-order damped-wave system.

The grid excludes x = 0, so the damping coefficient 2*alpha/x stays finite
(but stiff: 2*alpha/h at the first node); time stepping is therefore
implicit. For this linear autonomous system the implicit midpoint rule and
Crank-Nicolson coincide (trapezoidal rule).

With c = dt/2, D = diag(2 alpha / x_i) and L = tridiag(1, -2, 1)/h^2, one
step of the rule on (u, v) reads

    u' = u + c (v + v'),    v' = v + c L (u + u') - c D (v + v').

Eliminating u' leaves a single system for the new velocity (the Schur
complement of the 2N block system):

    A v' = (I - c D) v + c L (2 u + c v),    A = I + c D - c^2 L.

A is tridiagonal and, for alpha >= 0, symmetric positive definite; it is
factored once by LAPACK's dpttrf and every step is one dpttrs solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
from scipy.linalg import lapack

from .data import InitialData
from .spectrum import standing_mode

_ENERGY_INCREASE_TOL = 1e-10
_GRAM_COND_MAX = 1e12


class EvolutionError(Exception):
    pass


class EnergyIncreaseError(EvolutionError):
    def __init__(self, step, ratio):
        super().__init__(
            f"energy increased by {ratio:.3e}*E(0) at step {step}; "
            f"scheme unstable or tolerance too tight")
        self.step = step
        self.ratio = ratio


@dataclass(frozen=True)
class Grid:
    """N interior nodes x_i = i*h, h = 1/(N+1); Dirichlet values at 0 and 1
    are implicit in all stencils."""

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("need at least 2 interior points")

    @property
    def h(self):
        return 1.0 / (self.N + 1)

    @property
    def nodes(self):
        return self.h * np.arange(1, self.N + 1)


@dataclass
class State:
    u: np.ndarray
    v: np.ndarray

    def copy(self):
        return State(self.u.copy(), self.v.copy())


@dataclass
class EnergyTrace:
    times: np.ndarray
    energies: np.ndarray


@dataclass
class SimulationRun:
    alpha: float
    grid: Grid
    dt: float
    snapshot_times: list
    snapshots: list  # of State
    trace: EnergyTrace
    max_energy_increase_ratio: float = 0.0


def energy(grid, state):
    """Discrete energy ||u_x||^2 + ||v||^2 with forward differences and the
    implicit Dirichlet boundary values."""
    h = grid.h
    du = np.diff(np.concatenate([[0.0], state.u, [0.0]])) / h
    return h * float(du @ du) + h * float(state.v @ state.v)


def apply_generator(alpha, grid, state):
    """Action (u, v) -> (v, u_xx - (2 alpha / x) v) with the second
    difference and Dirichlet closure."""
    h = grid.h
    u, v = state.u, state.v
    lap = np.empty_like(u)
    lap[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h ** 2
    lap[0] = (-2.0 * u[0] + u[1]) / h ** 2
    lap[-1] = (u[-2] - 2.0 * u[-1]) / h ** 2
    return State(v.copy(), lap - (2.0 * alpha / grid.nodes) * v)


def simulate(alpha, initial, T, dt, N=2000, snapshot_times=None,
             n_snapshots=21):
    """Trapezoidal-rule time stepping up to T with per-step energy audit.

    Snapshots are recorded at the requested times (rounded to step
    boundaries) or uniformly when none are given.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = Grid(N)
    x = grid.nodes
    h = grid.h
    # u and v live inside zero-padded buffers so that the Dirichlet closure
    # of every difference stencil is a plain slice
    u_ext = np.zeros(N + 2)
    s_ext = np.zeros(N + 2)
    u, s = u_ext[1:-1], s_ext[1:-1]
    u[:] = initial.u0(x)
    v = np.array(initial.u1(x), dtype=float)
    du = np.empty(N + 1)
    rhs = np.empty(N)

    def audit_energy():
        # energy() on the buffers, same formula
        np.subtract(u_ext[1:], u_ext[:-1], out=du)
        np.divide(du, h, out=du)
        return h * float(du @ du) + h * float(v @ v)

    n_steps = int(round(T / dt))
    c = 0.5 * dt
    damp = c * (2.0 * alpha / x)
    k = c * c / (h * h)
    d_fac, e_fac, info = lapack.dpttrf(1.0 + damp + 2.0 * k,
                                       np.full(N - 1, -k))
    if info != 0:
        raise EvolutionError(f"step-matrix factorization failed "
                             f"(dpttrf info={info})")
    explicit = 1.0 - damp  # diagonal of I - c D

    if snapshot_times is None:
        snapshot_times = list(np.linspace(0.0, n_steps * dt, n_snapshots))
    snap_steps = sorted({min(n_steps, max(0, int(round(t / dt))))
                         for t in snapshot_times})

    e0 = audit_energy()
    # every increase over an infinite E(0) reads NaN, which no audit
    # rejects; a NaN E(0) is a non-finite state, caught at step 1
    if e0 == math.inf:
        raise EvolutionError("initial energy is infinite; the energy audit "
                             "cannot run")
    times = np.arange(n_steps + 1) * dt
    energies = np.empty(n_steps + 1)
    energies[0] = e0
    snaps = []
    snap_times = []
    if 0 in snap_steps:
        snaps.append(State(u.copy(), v.copy()))
        snap_times.append(0.0)
    max_inc = 0.0
    for step in range(1, n_steps + 1):
        # s = 2u + c v, rhs = (I - c D) v + c L s
        np.multiply(v, c, out=s)
        s += u
        s += u
        np.add(s_ext[:-2], s_ext[2:], out=rhs)
        rhs -= 2.0 * s
        rhs *= c / (h * h)
        rhs += explicit * v
        v_new, _info = lapack.dpttrs(d_fac, e_fac, rhs)
        v += v_new
        v *= c
        u += v
        v = v_new
        e = audit_energy()
        # NaN and inf reach e through the squares, so a finite e is a
        # finite state; a finite state whose energy overflows goes on to
        # the increase audit
        if not math.isfinite(e) and not (np.isfinite(u).all()
                                         and np.isfinite(v).all()):
            raise EvolutionError(f"linear solve produced non-finite state "
                                 f"at step {step}")
        inc = (e - energies[step - 1]) / e0 if e0 > 0 else 0.0
        if inc > max_inc:
            max_inc = inc
        if inc > _ENERGY_INCREASE_TOL:
            raise EnergyIncreaseError(step, inc)
        energies[step] = e
        if step in snap_steps:
            snaps.append(State(u.copy(), v.copy()))
            snap_times.append(step * dt)
    return SimulationRun(alpha, grid, dt, snap_times, snaps,
                         EnergyTrace(times, energies), max(max_inc, 0.0))


def _quad(f, tol=1e-11):
    val, _err = scipy.integrate.quad(f, 0.0, 1.0, epsabs=tol, epsrel=tol,
                                     limit=200)
    return val


def projection_condition(data, n):
    """The n adjoint pairings <(u0,u1), (f_k, -mu_k f_k)>_H
    = <u0', f_k'> - mu_k <u1, f_k>, k = 1..n (poles ascending)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty(n)
    for k in range(n):
        mu, f, df, _ = standing_mode(n, k + 1)
        a = _quad(lambda x: float(data.du0(x)) * float(df(x)))
        b = _quad(lambda x: float(data.u1(x)) * float(f(x)))
        out[k] = a - mu * b
    return out


def project_out(data, n):
    """Data minus its component in the span of the standing-wave pairs
    (f_k, mu_k f_k), so that projection_condition of the result vanishes."""
    modes = [standing_mode(n, k) for k in range(1, n + 1)]
    c = projection_condition(data, n)
    gram = np.empty((n, n))
    for k, (mu_k, f_k, df_k, _) in enumerate(modes):
        for j, (mu_j, f_j, df_j, _) in enumerate(modes):
            a = _quad(lambda x: float(df_j(x)) * float(df_k(x)))
            b = _quad(lambda x: float(f_j(x)) * float(f_k(x)))
            gram[k, j] = a - mu_k * mu_j * b
    if np.linalg.cond(gram) > _GRAM_COND_MAX:
        raise EvolutionError(
            f"singular Gram matrix (cond={np.linalg.cond(gram):.3e}); "
            f"eigenvalues not simple?")
    beta = np.linalg.solve(gram, c)

    def u0(x):
        acc = np.asarray(data.u0(x), dtype=float).copy()
        for b_j, m in zip(beta, modes):
            acc -= b_j * m.f(x)
        return acc

    def u1(x):
        acc = np.asarray(data.u1(x), dtype=float).copy()
        for b_j, m in zip(beta, modes):
            acc -= b_j * m.mu * m.f(x)
        return acc

    def du0(x):
        acc = np.asarray(data.du0(x), dtype=float).copy()
        for b_j, m in zip(beta, modes):
            acc -= b_j * m.df(x)
        return acc

    def u0_over_x(x):
        x = np.asarray(x, dtype=float)
        acc = np.asarray(data.u0_over_x(x), dtype=float).copy()
        for b_j, m in zip(beta, modes):
            acc -= b_j * m.f_over_x(x)
        return acc

    return InitialData(u0=u0, u1=u1, du0=du0, u0_over_x=u0_over_x,
                       label=f"{data.label}|projected")


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
    1/2 converts the quadratic energy to a state-norm rate)."""
    t0, t1 = window
    mask = (trace.times >= t0) & (trace.times <= t1)
    if mask.sum() < 2:
        raise ValueError("window too short for a fit")
    e = trace.energies[mask]
    if np.any(e <= 0):
        raise ValueError("non-positive energies in the fit window")
    slope = np.polyfit(trace.times[mask], 0.5 * np.log(e), 1)[0]
    return float(slope)
