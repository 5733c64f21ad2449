"""Time-evolution tests: energy, the trapezoidal stepper, spectral projections, extinction and decay-rate estimation."""

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
                                EvolutionError, Grid, State, decay_rate,
                                energy, extinction_time, project_out,
                                projection_condition, simulate)


class TestGrid:
    def test_nodes(self):
        g = Grid(9)
        assert g.h == pytest.approx(0.1)
        assert np.allclose(g.nodes, 0.1 * np.arange(1, 10))

    def test_too_small(self):
        with pytest.raises(ValueError):
            Grid(1)


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
    # 1e-12 against the extended-precision reference. That 1e-12 holds on
    # the configurations tested here only: at alpha = 0.5, N = 175-200 and
    # 2,000 steps, v is up to 1.45-1.55e-12 max|v| from the extended
    # reference.
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
        dt, data = 1e-3, make()
        # a fine grid, and a coarse one over 2,000 steps, where rounding
        # has long to grow
        for N, n_steps in ((300, 300), (40, 2000)):
            u, v = _schur_trapezoid_extended(alpha, data, dt, N, n_steps)
            got = simulate(alpha, data, n_steps * dt, dt, N=N,
                           snapshot_times=[n_steps * dt]).snapshots[-1]
            assert float(np.max(np.abs(got.u - u))) \
                <= 1e-12 * float(np.max(np.abs(u)))
            assert float(np.max(np.abs(got.v - v))) \
                <= 1e-12 * float(np.max(np.abs(v)))


def _doubled_solve_stepper(alpha, initial, T, dt, N, snapshot_times=None,
                           n_snapshots=21):
    """simulate's step loop with the doubled solve: dpttrs with A's own
    factor (d, e) gives q, which is then doubled. Same LAPACK, same audits
    and errors, so its bits are simulate's on any machine."""
    g = Grid(N)
    x, h = g.nodes, g.h
    u_ext = np.zeros(N + 2)
    u = u_ext[1:-1]
    u[:] = initial.u0(x)
    v = np.array(initial.u1(x), dtype=float)
    u_x, rhs = np.empty(N + 1), np.empty(N)

    def audit_energy():
        np.subtract(u_ext[1:], u_ext[:-1], out=u_x)
        np.divide(u_x, h, out=u_x)
        return h * float(u_x.dot(u_x)) + h * float(v.dot(v))

    n_steps = int(round(T / dt))
    c = 0.5 * dt
    k = c * c / (h * h)
    d_fac, e_fac, info = evolution.flapack.dpttrf(
        1.0 + c * (2.0 * alpha / x) + 2.0 * k, np.full(N - 1, -k))
    assert info == 0
    if snapshot_times is None:
        snapshot_times = list(np.linspace(0.0, n_steps * dt, n_snapshots))
    snap_steps = {min(n_steps, max(0, int(round(t / dt))))
                  for t in snapshot_times}
    e0 = audit_energy()
    energies = [e0]
    snaps = [(u.copy(), v.copy())] if 0 in snap_steps else []
    for step in range(1, n_steps + 1):
        np.subtract(u_x[1:], u_x[:-1], out=rhs)
        rhs *= c / h
        rhs += v
        q, _ = evolution.flapack.dpttrs(d_fac, e_fac, rhs, 1)
        q *= 2.0
        np.subtract(q, v, out=v)
        q *= c
        u += q
        e = audit_energy()
        if not math.isfinite(e) and not (np.isfinite(u).all()
                                         and np.isfinite(v).all()):
            raise EvolutionError(f"linear solve produced non-finite state "
                                 f"at step {step}")
        inc = (e - energies[-1]) / e0 if e0 > 0 else 0.0
        if inc > evolution._ENERGY_INCREASE_TOL:
            raise EnergyIncreaseError(step, inc)
        energies.append(e)
        if step in snap_steps:
            snaps.append((u.copy(), v.copy()))
    return np.array(energies), snaps


def _assert_same_bits(run, energies, snaps):
    assert np.array_equal(run.trace.energies, energies)
    assert len(run.snapshots) == len(snaps)
    for got, (u, v) in zip(run.snapshots, snaps):
        assert np.array_equal(got.u, u)
        assert np.array_equal(got.v, v)


class TestHalvedFactorSolve:
    # simulate solves (A/2) p = b for p = 2q. Halving d is exact and
    # dpttrs's sweeps scale with it, so p is the doubled solve's 2q bit for
    # bit, checked against a transcription of the doubled loop on the same
    # LAPACK (recorded hashes would move with the BLAS's ddot kernel)
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.7])
    @pytest.mark.parametrize("N", [40, 1000])
    @pytest.mark.parametrize("make", [lambda: sine_data(1), bump_data],
                             ids=["sine", "bump"])
    def test_bits_match_doubled_solve(self, alpha, N, make):
        data = make()
        run = simulate(alpha, data, 0.2, 1e-3, N=N)
        _assert_same_bits(run, *_doubled_solve_stepper(alpha, data, 0.2,
                                                       1e-3, N))

    def test_bits_match_on_projected_data(self):
        data = project_out(bump_data(), 2)
        run = simulate(3.0, data, 2.5, 0.01, N=200,
                       snapshot_times=[0.0, 1.0, 2.2, 2.5])
        _assert_same_bits(run, *_doubled_solve_stepper(
            3.0, data, 2.5, 0.01, 200, snapshot_times=[0.0, 1.0, 2.2, 2.5]))

    def test_bits_match_at_tiny_amplitude(self):
        # 1e-300 keeps every quotient normal; the squares underflow, so
        # E(0) = 0 and the audit is off (below the normal range, 1e-305
        # say, halving stops being exact)
        base = zero_data()
        data = InitialData(lambda x: 1e-300 * np.sin(np.pi * np.asarray(x)),
                           base.u1, base.du0, label="tiny")
        run = simulate(2.0, data, 0.5, 1e-3, N=200)
        assert run.trace.energies[0] == 0.0
        assert np.max(np.abs(run.snapshots[-1].u)) > 0.0
        _assert_same_bits(run, *_doubled_solve_stepper(2.0, data, 0.5,
                                                        1e-3, 200))


def _same_failure(exc_type, *args, **kwargs):
    """simulate and the doubled-solve loop fail alike: the same error type
    and message (so the same step); the exception is returned."""
    with pytest.raises(exc_type) as got:
        simulate(*args, **kwargs)
    with pytest.raises(exc_type) as want:
        _doubled_solve_stepper(*args, **kwargs)
    assert str(got.value) == str(want.value)
    return got.value


class TestStepAudit:
    def test_energy_audit_fires_on_first_step(self, monkeypatch):
        monkeypatch.setattr(evolution, "_ENERGY_INCREASE_TOL", -1.0)
        err = _same_failure(EnergyIncreaseError, 2.0, sine_data(1), 0.1,
                            1e-3, N=50)
        assert err.step == 1

    def test_non_finite_state(self):
        def u1(x):
            out = np.zeros_like(np.asarray(x, dtype=float))
            out[len(out) // 2] = np.nan
            return out

        base = sine_data(1)
        data = InitialData(base.u0, u1, base.du0, label="nan")
        err = _same_failure(EvolutionError, 2.0, data, 0.1, 1e-3, N=50)
        assert str(err).endswith("non-finite state at step 1")

    def test_energy_overflow_is_increase_not_non_finite(self):
        # finite state, finite E(0) just below the float maximum;
        # anti-damping lifts the sum of squares past it on step 1
        N = 50
        scale = math.sqrt(2.0 * (0.98 * sys.float_info.max / (N + 1)))
        base = zero_data()
        data = InitialData(
            base.u0, lambda x: scale * np.sin(np.pi * np.asarray(x)),
            base.du0, label="near-overflow")
        with np.errstate(over="ignore"):
            err = _same_failure(EnergyIncreaseError, -0.5, data, 0.1, 1e-2,
                                N=N)
        assert err.step == 1
        assert err.ratio == math.inf

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
        # oracle: scalar quad of the energy pairing <u0', f_k'> - mu_k
        # <u1, f_k>, with f_k written out from the Laguerre poles, for
        # n = 1..8 on sine, bump and mode data. The mode rows are the Gram
        # matrix gram[k, j] = pairing of mode:j with mode k, so project_out,
        # which solves with it, must send each mode to zero.
        import scipy.integrate
        from singwave.specfun import laguerre
        from singwave.spectrum import laguerre_poles

        def quad(f):
            return scipy.integrate.quad(lambda x: float(f(x)), 0, 1,
                                        epsabs=1e-13, epsrel=1e-13,
                                        limit=200)[0]

        assert abs(projection_condition(mode_data(2, 1), 2)[0]) > 1e-3
        x = np.linspace(0.0, 1.0, 101)
        for n in range(1, 9):
            pairs = []
            for mu in laguerre_poles(n):
                f = lambda x, mu=mu: x * np.exp(mu * x) * np.real(
                    laguerre(n, 1, -2 * mu * x))
                df = lambda x, mu=mu: np.exp(mu * x) * (
                    (1 + mu * x) * np.real(laguerre(n, 1, -2 * mu * x))
                    + 2 * mu * x * np.real(laguerre(n - 1, 2, -2 * mu * x)))
                pairs.append((mu, f, df))
            modes = [mode_data(n, k) for k in range(1, n + 1)]
            for data in [sine_data(1), bump_data(), *modes]:
                ref = np.array([
                    quad(lambda x: data.du0(x) * df(x))
                    - mu * quad(lambda x: data.u1(x) * f(x))
                    for mu, f, df in pairs])
                c = projection_condition(data, n)
                assert np.max(np.abs(c - ref)) \
                    <= 1e-13 * np.max(np.abs(ref)), (n, data)
            for data in modes:
                rest = project_out(data, n)
                assert np.max(np.abs(rest.u0(x))) < 1e-13, (n, data)
                assert np.max(np.abs(rest.u1(x))) < 1e-13, (n, data)

    def test_legendre_rule_is_leggauss(self):
        # the written-out 16-point rule: numpy's, and exact for degree 31
        nodes, weights = evolution._LEGENDRE_RULE
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(16)
        assert np.max(np.abs(nodes - ref_nodes)) <= 2.3e-16
        assert np.max(np.abs(weights - ref_weights)) <= 5.6e-17
        for degree in (0, 1, 30, 31):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert weights @ nodes ** degree == pytest.approx(exact,
                                                              abs=1e-15)

    def test_spline_data_matches_fine_rule(self):
        # 50-knot from_grid data, as the file: preset reads them. The
        # rule's panels split at the knots; the reference is a 10-point
        # rule on 4,096 uniform panels, also split at the knots.
        from singwave.spectrum import standing_mode

        knots = np.linspace(0.02, 0.98, 50)
        data = InitialData.from_grid(
            knots, np.sin(np.pi * knots) * (1 + 0.3 * np.cos(5 * knots)),
            knots * (1 - knots) * np.exp(knots))
        nodes, weights = np.polynomial.legendre.leggauss(10)
        breaks = np.union1d(np.linspace(0.0, 1.0, 4097), data.u0.x)
        half = 0.5 * np.diff(breaks)[:, None]
        mid = 0.5 * (breaks[1:] + breaks[:-1])[:, None]
        x, w = (mid + half * nodes).ravel(), (half * weights).ravel()
        for n in (1, 2):
            modes = [standing_mode(n, k) for k in range(1, n + 1)]
            ref = np.array([w @ (data.du0(x) * m.df(x))
                            - m.mu * (w @ (data.u1(x) * m.f(x)))
                            for m in modes])
            c = projection_condition(data, n)
            assert np.max(np.abs(c - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_projected_spline_data_keep_their_knots(self):
        # combine carries the knots of the spline part into the projected
        # data, so the rule still splits there; without them the
        # projections read 2e-10 to 1e-9
        knots = np.linspace(0.02, 0.98, 50)
        data = InitialData.from_grid(
            knots, np.sin(np.pi * knots) * (1 + 0.3 * np.cos(5 * knots)),
            knots * (1 - knots) * np.exp(knots))
        for n in (1, 2, 3):
            projected = project_out(data, n)
            assert np.all(np.isin(data.u0.x, projected.u0.x))
            c = projection_condition(projected, n)
            assert np.max(np.abs(c)) < 1e-14, n

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
        # numerical failures, not config errors: the CLI exits 1 on them
        tr = EnergyTrace(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(EvolutionError, match="non-positive energies"):
            decay_rate(tr, (0.0, 1.0))
        with pytest.raises(EvolutionError, match="window too short"):
            decay_rate(tr, (5.0, 6.0))
        assert not issubclass(EvolutionError, ValueError)


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
