"""Time-evolution tests: generator consistency, energy, the trapezoidal
stepper, spectral projections, extinction and decay-rate estimation."""

import math
import sys

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from singwave import evolution
from singwave.data import (InitialData, bump_data, combine, mode_data,
                           sine_data, zero_data)
from singwave.evolution import (EnergyIncreaseError, EnergyTrace,
                                EvolutionError, Grid, State, apply_generator,
                                decay_rate, energy, extinction_time,
                                project_out, projection_condition, simulate)


class TestGrid:
    def test_nodes(self):
        g = Grid(9)
        assert g.h == pytest.approx(0.1)
        assert np.allclose(g.nodes, 0.1 * np.arange(1, 10))

    def test_too_small(self):
        with pytest.raises(ValueError):
            Grid(1)


class TestApplyGenerator:
    def test_zero_velocity_ignores_damping(self):
        g = Grid(200)
        u = np.sin(np.pi * g.nodes)
        out = apply_generator(7.3, g, State(u, np.zeros_like(u)))
        assert np.allclose(out.u, 0.0)
        assert np.max(np.abs(out.v + np.pi ** 2 * u)) < 1e-2

    def test_zero_displacement(self):
        g = Grid(50)
        phi = g.nodes * (1 - g.nodes)
        out = apply_generator(2.0, g, State(np.zeros_like(phi), phi))
        assert np.allclose(out.u, phi)
        assert np.allclose(out.v, -(2 * 2.0 / g.nodes) * phi)

    def test_second_order_consistency(self):
        # Richardson: residual against the analytic action decays as O(h^2)
        alpha = 1.5

        def residual(N):
            g = Grid(N)
            x = g.nodes
            u = np.sin(np.pi * x)
            v = x * (1 - x)
            out = apply_generator(alpha, g, State(u, v))
            exact = -np.pi ** 2 * np.sin(np.pi * x) - (2 * alpha / x) * v
            return np.max(np.abs(out.v - exact))

        r1, r2 = residual(200), residual(400)
        assert r1 / r2 > 3.5  # ~4 for O(h^2)


class TestEnergy:
    def test_sine(self):
        g = Grid(2000)
        u = np.sin(np.pi * g.nodes)
        e = energy(g, State(u, np.zeros_like(u)))
        assert e == pytest.approx(np.pi ** 2 / 2, rel=1e-3)

    def test_quadratic_scaling(self):
        g = Grid(64)
        rng = np.random.default_rng(0)
        s = State(rng.standard_normal(64), rng.standard_normal(64))
        assert energy(g, State(3 * s.u, 3 * s.v)) \
            == pytest.approx(9 * energy(g, s))

    def test_zero(self):
        g = Grid(16)
        z = np.zeros(16)
        assert energy(g, State(z, z)) == 0.0


class TestSimulate:
    def test_standing_wave(self):
        run = simulate(2.0, mode_data(1, 1), 1.0, 1e-3, N=500,
                       snapshot_times=[1.0])
        x = run.grid.nodes
        exact = math.exp(-1.0) * x * np.exp(-x) * (2 - 2 * x)
        assert np.max(np.abs(run.snapshots[-1].u - exact)) < 5e-5

    def test_zero_data(self):
        run = simulate(1.0, zero_data(), 0.5, 1e-2, N=50)
        assert run.trace.energies[-1] == 0.0

    def test_linearity(self):
        d1, d2 = sine_data(1), sine_data(2)
        combo = combine([d1, d2], [2.0, -0.5])
        kw = dict(T=0.5, dt=1e-3, N=200, snapshot_times=[0.5])
        ra = simulate(1.5, d1, **kw)
        rb = simulate(1.5, d2, **kw)
        rc = simulate(1.5, combo, **kw)
        lin = 2.0 * ra.snapshots[-1].u - 0.5 * rb.snapshots[-1].u
        assert np.max(np.abs(rc.snapshots[-1].u - lin)) < 1e-10

    def test_energy_monotone(self):
        run = simulate(1.5, sine_data(1), 1.0, 1e-3, N=300)
        assert run.max_energy_increase_ratio <= 1e-10
        assert np.all(np.diff(run.trace.energies)
                      <= 1e-10 * run.trace.energies[0])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            simulate(1.0, sine_data(1), 1.0, -0.1)


def _block_trapezoid(alpha, data, dt, N, n_steps):
    """Reference stepper: the trapezoidal rule on the 2N block system
    w = (u, v), w' = (I - dt/2 G)^-1 (I + dt/2 G) w, G = [[0, I], [L, -D]],
    by sparse LU."""
    g = Grid(N)
    x = g.nodes
    lap = sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(N, N)) / g.h ** 2
    gen = sparse.bmat([[None, sparse.identity(N)],
                       [lap, -sparse.diags(2.0 * alpha / x)]], format="csc")
    eye = sparse.identity(2 * N, format="csc")
    lu = splu((eye - 0.5 * dt * gen).tocsc())
    forward = (eye + 0.5 * dt * gen).tocsr()
    w = np.concatenate([data.u0(x), data.u1(x)])
    energies = [energy(g, State(w[:N], w[N:]))]
    for _ in range(n_steps):
        w = lu.solve(forward @ w)
        energies.append(energy(g, State(w[:N], w[N:])))
    return w[:N], w[N:], np.array(energies)


def _schur_trapezoid_extended(alpha, data, dt, N, n_steps):
    """Reference stepper in extended precision (np.longdouble): the same
    trapezoidal recursion, v' from (I + cD - c^2 L) v' = (I - cD) v
    + c L (2u + cv) by a Thomas sweep, then u' = u + c (v + v')."""
    ld = np.longdouble
    g = Grid(N)
    x = g.nodes.astype(ld)
    h, c = ld(1) / ld(N + 1), ld(dt) / 2
    u, v = data.u0(g.nodes).astype(ld), data.u1(g.nodes).astype(ld)
    damp = c * 2 * ld(alpha) / x
    off = -c * c / (h * h)
    piv = 1 + damp - 2 * off
    for i in range(1, N):
        piv[i] -= off * off / piv[i - 1]
    for _ in range(n_steps):
        s = np.concatenate([[ld(0)], 2 * u + c * v, [ld(0)]])
        r = (1 - damp) * v + c * (s[:-2] - 2 * s[1:-1] + s[2:]) / (h * h)
        for i in range(1, N):
            r[i] -= off / piv[i - 1] * r[i - 1]
        r[-1] /= piv[-1]
        for i in range(N - 2, -1, -1):
            r[i] = (r[i] - off * r[i + 1]) / piv[i]
        u, v = u + c * (v + r), r
    return u, v


class TestStepperOracle:
    # The block system's own rounding puts its v up to ~2e-12 max|v| away
    # from the exact recursion at N = 300 (measured against the extended
    # precision reference below), so v is held to 5e-12 there and to
    # 1e-12 against the extended-precision reference.
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.7])
    @pytest.mark.parametrize("N", [40, 300])
    @pytest.mark.parametrize("make", [lambda: sine_data(1), bump_data],
                             ids=["sine", "bump"])
    def test_matches_block_system(self, alpha, N, make):
        dt, n_steps = 1e-3, 300
        data = make()
        u, v, energies = _block_trapezoid(alpha, data, dt, N, n_steps)
        run = simulate(alpha, data, n_steps * dt, dt, N=N,
                       snapshot_times=[n_steps * dt])
        got = run.snapshots[-1]
        assert len(run.trace.energies) == n_steps + 1
        assert np.max(np.abs(got.u - u)) <= 1e-12 * np.max(np.abs(u))
        assert np.max(np.abs(got.v - v)) <= 5e-12 * np.max(np.abs(v))
        assert np.max(np.abs(run.trace.energies - energies)) \
            <= 1e-12 * energies[0]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is not extended precision")
    @pytest.mark.parametrize("alpha", [0.5, 3.7])
    @pytest.mark.parametrize("make", [lambda: sine_data(1), bump_data],
                             ids=["sine", "bump"])
    def test_matches_extended_precision(self, alpha, make):
        dt, n_steps, N = 1e-3, 300, 300
        data = make()
        u, v = _schur_trapezoid_extended(alpha, data, dt, N, n_steps)
        got = simulate(alpha, data, n_steps * dt, dt, N=N,
                       snapshot_times=[n_steps * dt]).snapshots[-1]
        assert float(np.max(np.abs(got.u - u))) \
            <= 1e-12 * float(np.max(np.abs(u)))
        assert float(np.max(np.abs(got.v - v))) \
            <= 1e-12 * float(np.max(np.abs(v)))


class TestStepAudit:
    def test_energy_audit_fires_on_first_step(self, monkeypatch):
        monkeypatch.setattr(evolution, "_ENERGY_INCREASE_TOL", -1.0)
        with pytest.raises(EnergyIncreaseError) as info:
            simulate(2.0, sine_data(1), 0.1, 1e-3, N=50)
        assert info.value.step == 1

    def test_non_finite_state(self):
        def u1(x):
            out = np.zeros_like(np.asarray(x, dtype=float))
            out[len(out) // 2] = np.nan
            return out

        base = sine_data(1)
        data = InitialData(base.u0, u1, base.du0, label="nan")
        with pytest.raises(EvolutionError,
                           match="non-finite state at step 1$"):
            simulate(2.0, data, 0.1, 1e-3, N=50)

    def test_energy_overflow_is_increase_not_non_finite(self):
        # finite state, finite E(0) just below the float maximum;
        # anti-damping lifts the sum of squares past it on step 1
        N = 50
        scale = math.sqrt(2.0 * (0.98 * sys.float_info.max / (N + 1)))
        base = zero_data()
        data = InitialData(
            base.u0, lambda x: scale * np.sin(np.pi * np.asarray(x)),
            base.du0, label="near-overflow")
        with np.errstate(over="ignore"), \
                pytest.raises(EnergyIncreaseError) as info:
            simulate(-0.5, data, 0.1, 1e-2, N=N)
        assert info.value.step == 1
        assert info.value.ratio == math.inf

    def test_infinite_initial_energy(self):
        # a finite state whose E(0) overflows: every increase over it reads
        # (inf - inf)/inf = NaN, so the run must stop before stepping
        base = zero_data()
        big = InitialData(lambda x: 1e153 * np.sin(np.pi * np.asarray(x)),
                          base.u1, base.du0, label="huge")
        with np.errstate(over="ignore"), \
                pytest.raises(EvolutionError,
                              match="initial energy is infinite"):
            simulate(1.0, big, 0.1, 1e-3, N=200)

    def test_indefinite_step_matrix(self):
        # strong anti-damping makes I + cD - c^2 L indefinite
        with pytest.raises(EvolutionError, match="factorization failed"):
            simulate(-1000.0, sine_data(1), 0.5, 0.1, N=50)


class TestProjection:
    def test_mode_pairing_magnitude(self):
        # oracle: direct quadrature of the energy pairing for mode data
        import scipy.integrate
        n = 2
        data = mode_data(n, 1)
        c = projection_condition(data, n)
        assert abs(c[0]) > 1e-3  # nonzero self-pairing
        mu = math.nan
        from singwave.spectrum import laguerre_poles
        mus = laguerre_poles(n)
        from singwave.specfun import laguerre
        mu = mus[0]
        f = lambda x: x * np.exp(mu * x) * np.real(
            laguerre(n, 1, -2 * mu * x))
        df = lambda x: np.exp(mu * x) * (
            (1 + mu * x) * np.real(laguerre(n, 1, -2 * mu * x))
            + 2 * mu * x * np.real(laguerre(n - 1, 2, -2 * mu * x)))
        a = scipy.integrate.quad(lambda x: float(data.du0(x)) * float(df(x)),
                                 0, 1, epsabs=1e-12)[0]
        b = scipy.integrate.quad(lambda x: float(data.u1(x)) * float(f(x)),
                                 0, 1, epsabs=1e-12)[0]
        assert c[0] == pytest.approx(a - mu * b, abs=1e-10)

    def test_project_out_annihilates(self):
        for n in (1, 2):
            data = project_out(sine_data(1), n)
            c = projection_condition(data, n)
            assert np.max(np.abs(c)) < 1e-10

    def test_idempotent(self):
        g = Grid(200)
        x = g.nodes
        once = project_out(sine_data(1), 1)
        twice = project_out(once, 1)
        assert np.max(np.abs(once.u0(x) - twice.u0(x))) < 1e-10
        assert np.max(np.abs(once.u1(x) - twice.u1(x))) < 1e-10

    def test_orthogonal_input_unchanged(self):
        base = project_out(sine_data(1), 1)
        again = project_out(base, 1)
        x = np.linspace(0.05, 0.95, 50)
        assert np.max(np.abs(base.u0(x) - again.u0(x))) < 1e-10


class TestExtinctionAndDecay:
    def test_extinction_time_semantics(self):
        times = np.linspace(0, 4, 41)
        energies = np.where(times < 2.0, 1.0, 1e-6)
        run = simulate(1.0, zero_data(), 0.1, 0.05, N=10)
        run.trace = EnergyTrace(times, energies)
        assert extinction_time(run, 1e-2) == pytest.approx(2.0)

    def test_no_extinction(self):
        run = simulate(1.5, sine_data(1), 1.0, 1e-2, N=100)
        assert extinction_time(run, 1e-12) is None

    def test_decay_rate_standing_wave(self):
        run = simulate(2.0, mode_data(1, 1), 3.0, 1e-3, N=500)
        rate = decay_rate(run.trace, (1.0, 3.0))
        assert rate == pytest.approx(-1.0, rel=0.01)

    def test_decay_rate_errors(self):
        tr = EnergyTrace(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            decay_rate(tr, (0.0, 1.0))
        with pytest.raises(ValueError):
            decay_rate(tr, (5.0, 6.0))


class TestInitialData:
    def test_from_grid_endpoints(self):
        x = np.linspace(0.1, 0.9, 9)
        d = InitialData.from_grid(x, np.sin(np.pi * x), np.zeros_like(x))
        assert d.u0(0.0) == pytest.approx(0.0)
        assert d.u0(1.0) == pytest.approx(0.0)
        assert d.u0(0.5) == pytest.approx(1.0, abs=1e-2)

    def test_sine_over_x_limit(self):
        d = sine_data(2)
        assert d.u0_over_x(0.0) == pytest.approx(2 * np.pi)

    def test_bump_support(self):
        d = bump_data()
        assert d.u0(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]
        assert d.u0(0.5) == pytest.approx(1.0)
