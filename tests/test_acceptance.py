"""Acceptance suite: fifteen end-to-end criteria, one test each.

Each test prints a single PASS/FAIL line with the measured margin so the
suite doubles as a report. Simulations shared between criteria are cached at
session scope.
"""

import math

import numpy as np
import pytest

from polynomial_oracle import laguerre_coeffs, p_poly_coeffs
from singwave.data import bump_data, mode_data, sine_data
from singwave.evolution import (decay_rate, project_out, simulate)
from singwave.laplace import LaplaceRHS, partial_fractions, solve_laplace_U, \
    tail_u2
from singwave.spectrum import (Rect, SpectralProblem, alpha_sweep,
                               asymptotic_eigenvalue, char_fn, count_zeros,
                               find_eigenvalues, _newton)
from singwave.verify import (gupta_bound_check, hardy_check,
                             lemma_condition_identity, random_witness,
                             resolvent_bound_check)


def report(num, name, ok, detail):
    print(f"criterion {num:2d} [{name}]: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ----------------------------------------------------------- shared runs

_LEVELS = [(500, 2e-3), (1000, 1e-3), (2000, 5e-4)]


@pytest.fixture(scope="session")
def alpha1_refinement():
    data = sine_data(1)
    out = []
    for N, dt in _LEVELS:
        run = simulate(1.0, data, 2.2, dt, N=N)
        out.append((run.trace.energies[-1] / run.trace.energies[0], run))
    return out


@pytest.fixture(scope="session")
def alpha2_projected_refinement():
    data = project_out(sine_data(1), 1)
    out = []
    for N, dt in _LEVELS:
        run = simulate(2.0, data, 2.2, dt, N=N)
        out.append((run.trace.energies[-1] / run.trace.energies[0], run))
    return out


@pytest.fixture(scope="session")
def alpha2_generic_run():
    return simulate(2.0, sine_data(1), 3.5, 5e-4, N=2000,
                    snapshot_times=[2.5, 3.0, 3.5])


@pytest.fixture(scope="session")
def standing_wave_benchmark():
    """alpha=2 mode data at the criterion-10 resolution; returns
    (run, max spatial error at t=3.0)."""
    run = simulate(2.0, mode_data(1, 1), 3.0, 5e-4, N=2000,
                   snapshot_times=[3.0])
    x = run.grid.nodes
    exact = math.exp(-3.0) * x * np.exp(-x) * (2 - 2 * x)
    err = float(np.max(np.abs(run.snapshots[-1].u - exact)))
    return run, err


@pytest.fixture(scope="session")
def decay_runs():
    return {alpha: simulate(alpha, sine_data(1), 8.0, 1e-3, N=1000)
            for alpha in (2.0, 3.0)}


@pytest.fixture(scope="session")
def convergence_runs():
    levels = [(250, 4e-3), (500, 2e-3), (1000, 1e-3)]
    errs = []
    runs = []
    for N, dt in levels:
        run = simulate(2.0, mode_data(1, 1), 1.0, dt, N=N,
                       snapshot_times=[1.0])
        x = run.grid.nodes
        exact = math.exp(-1.0) * x * np.exp(-x) * (2 - 2 * x)
        errs.append(float(np.max(np.abs(run.snapshots[-1].u - exact))))
        runs.append(run)
    return errs, runs


# ------------------------------------------------------------- criteria

def test_criterion_01_integer_spectra():
    evs2 = find_eigenvalues(SpectralProblem(2.0), 1)
    evs3 = find_eigenvalues(SpectralProblem(3.0), 1)
    got2 = sorted(e.value.real for e in evs2)
    got3 = sorted(e.value.real for e in evs3)
    want3 = sorted([(-3 - math.sqrt(3)) / 2, (-3 + math.sqrt(3)) / 2])
    err = max(abs(got2[0] + 1.0),
              max(abs(a - b) for a, b in zip(got3, want3)))
    ok = len(evs2) == 1 and len(evs3) == 2 and err < 1e-10
    report(1, "integer spectra", ok, f"max error {err:.2e}")


def test_criterion_02_empty_spectrum_alpha1():
    p = SpectralProblem(1.0)
    n_zeros = count_zeros(p, Rect(-50.0, -0.01, -50.0, 50.0))
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        lam = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        worst = max(worst, abs(char_fn(p, lam) - 1.0))
    ok = n_zeros == 0 and worst < 1e-12
    report(2, "empty spectrum at alpha=1", ok,
           f"zeros={n_zeros}, max |F-1|={worst:.2e}")


def test_criterion_03_real_eigenvalue_count():
    counts = {}
    for alpha in (1.3, 2.5, 3.7):
        evs = find_eigenvalues(SpectralProblem(alpha), 2)
        counts[alpha] = sum(1 for e in evs if e.branch == "real")
    ok = all(counts[a] == math.ceil(a - 1) for a in counts)
    report(3, "real eigenvalue count", ok, f"counts={counts}")


def test_criterion_04_asymptotics():
    slopes = {}
    for alpha in (1.5, 0.7):
        p = SpectralProblem(alpha)
        ks, errs = [], []
        for k in range(10, 61, 5):
            seed = asymptotic_eigenvalue(p, k, "upper")
            lam, _res = _newton(p, seed)
            ks.append(k)
            errs.append(abs(lam - seed))
        scaled = [e * k / math.log(k) for e, k in zip(errs, ks)]
        slope = float(np.polyfit(np.log(ks), np.log(errs), 1)[0])
        slopes[alpha] = (slope, max(scaled))
    ok = all(s[0] <= -0.8 for s in slopes.values())
    report(4, "asymptotic seeds", ok,
           ", ".join(f"alpha={a}: slope={s:.3f}, sup(e*k/log k)={m:.3f}"
                     for a, (s, m) in slopes.items()))


def test_criterion_05_gupta_bound():
    rows = gupta_bound_check(20)
    eq_n1 = abs(rows[0][1] - rows[0][2]) < 1e-12
    holds = all(m <= b * (1 + 1e-10) for _, m, b in rows)
    report(5, "Laguerre root bound", holds and eq_n1,
           f"n=1 equality gap {abs(rows[0][1] - rows[0][2]):.1e}, "
           f"worst slack {min(b - m for _, m, b in rows[1:]):.3f}")


def test_criterion_06_partial_fractions():
    rng = np.random.default_rng(6)
    worst = 0.0
    min_coeff = math.inf
    for n in range(1, 11):
        pf = partial_fractions(n)
        min_coeff = min(min_coeff, min(abs(a) for a in pf.coeffs))
        pn, ln = p_poly_coeffs(n), laguerre_coeffs(n, 1)
        done = 0
        while done < 100:
            tau = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if min(abs(tau - mu) for mu in pf.poles) < 0.05:
                continue
            done += 1
            worst = max(worst,
                        abs(pn(-2 * tau) / ln(-2 * tau) - pf.rational(tau)))
    ok = worst < 1e-10 and min_coeff > 1e-12
    report(6, "partial fractions", ok,
           f"max residual {worst:.2e}, min |a_k| {min_coeff:.2e}")


def test_criterion_07_resolvent_residual():
    data = sine_data(1)
    N = 2000
    h = 1.0 / (N + 1)
    x = h * np.arange(1, N + 1)
    worst = 0.0
    for n in (1, 2):
        for tau in (1.0, 1 + 3j, 5.0):
            U = solve_laplace_U(data, n, tau, x)
            r = LaplaceRHS(data, n)(x, tau)
            Ufull = np.concatenate([[0], U, [0]])
            Upp = (Ufull[:-2] - 2 * Ufull[1:-1] + Ufull[2:]) / h ** 2
            resid = -Upp + complex(tau) ** 2 * U \
                + (2 * (n + 1) * complex(tau) / x) * U - r
            worst = max(worst,
                        np.linalg.norm(resid) / np.linalg.norm(r))
    ok = worst < 1e-4
    report(7, "resolvent-equation residual", ok, f"worst {worst:.2e}")


def test_criterion_08_pairing_identity():
    worst = 0.0
    for n in (1, 2, 3):
        for data in (sine_data(1), bump_data(), sine_data(2)):
            worst = max(worst, lemma_condition_identity(data, n))
    ok = worst < 1e-8
    report(8, "energy/L2 pairing identity", ok, f"max discrepancy {worst:.2e}")


def test_criterion_09_extinction_alpha1(alpha1_refinement):
    ratios = [r for r, _ in alpha1_refinement]
    ok = ratios[0] > ratios[1] > ratios[2] and ratios[2] < 1e-2
    report(9, "extinction at alpha=1", ok,
           "E(2.2)/E(0) = " + ", ".join(f"{r:.2e}" for r in ratios))


def test_criterion_10_conditional_extinction(alpha2_projected_refinement,
                                             alpha2_generic_run,
                                             standing_wave_benchmark):
    ratios = [r for r, _ in alpha2_projected_refinement]
    trend_ok = ratios[0] > ratios[1] > ratios[2] and ratios[2] < 1e-2

    _, bench_err = standing_wave_benchmark
    run = alpha2_generic_run
    data = sine_data(1)
    tail_err = 0.0
    for t, state in zip(run.snapshot_times, run.snapshots):
        tail = tail_u2(data, 1, t, run.grid.nodes)
        tail_err = max(tail_err, float(np.max(np.abs(state.u - tail))))
    tail_ok = tail_err <= 2.0 * bench_err
    report(10, "conditional extinction at alpha=2", trend_ok and tail_ok,
           f"projected E-ratios {', '.join(f'{r:.2e}' for r in ratios)}; "
           f"generic tail error {tail_err:.2e} vs benchmark "
           f"{bench_err:.2e}")


def test_criterion_11_decay_rates(decay_runs):
    targets = {2.0: -1.0, 3.0: (-3 + math.sqrt(3)) / 2}
    rel = {}
    for alpha, run in decay_runs.items():
        rate = decay_rate(run.trace, (4.0, 8.0))
        rel[alpha] = abs(rate - targets[alpha]) / abs(targets[alpha])
    ok = all(r < 0.05 for r in rel.values())
    report(11, "decay rate vs spectral abscissa", ok,
           ", ".join(f"alpha={a}: rel err {r:.3f}" for a, r in rel.items()))


def test_criterion_12_convergence_order(convergence_runs):
    errs, _runs = convergence_runs
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order = float(np.polyfit(np.log([1, 2, 4]), np.log(errs), 1)[0] * -1)
    ok = order >= 1.9
    report(12, "standing-wave convergence", ok,
           f"errors {', '.join(f'{e:.2e}' for e in errs)}; "
           f"fitted order {order:.2f}, stepwise {orders}")


def test_criterion_13_energy_monotonicity(alpha1_refinement,
                                          alpha2_projected_refinement,
                                          alpha2_generic_run,
                                          standing_wave_benchmark,
                                          decay_runs, convergence_runs):
    runs = ([r for _, r in alpha1_refinement]
            + [r for _, r in alpha2_projected_refinement]
            + [alpha2_generic_run, standing_wave_benchmark[0]]
            + list(decay_runs.values()) + convergence_runs[1])
    worst = max(r.max_energy_increase_ratio for r in runs)
    ok = worst <= 1e-10
    report(13, "energy monotonicity", ok,
           f"worst per-step increase {worst:.2e} * E(0) over "
           f"{len(runs)} simulations")


def test_criterion_14_verification_suite():
    rng = np.random.default_rng(14)
    hardy_ok = True
    hardy_worst = 0.0
    for _ in range(100):
        su, _ = random_witness(rng)
        lhs, rhs = hardy_check(su)
        hardy_ok &= lhs <= rhs * (1 + 1e-6)
        hardy_worst = max(hardy_worst, lhs / rhs)
    res_ratio = resolvent_bound_check(2.0, 0.0, 5.0, trials=200, N=1000,
                                      seed=0)
    gupta_rows = gupta_bound_check(20)
    gupta_ok = all(m <= b * (1 + 1e-10) for _, m, b in gupta_rows)
    ok = hardy_ok and res_ratio >= 0.95 and gupta_ok
    report(14, "verification suite", ok,
           f"hardy worst lhs/rhs {hardy_worst:.3f}, "
           f"resolvent worst ratio {res_ratio:.3f}, gupta holds to n=20")


def test_criterion_15_figure_sweep():
    grid = [round(1.1 + 0.05 * i, 10) for i in range(37)]
    grid = [a for a in grid if abs(a - 2.0) > 1e-12]
    for off in (1e-3, 1e-5, 1e-7):
        grid.extend([2.0 - off, 2.0 + off])
    points = alpha_sweep(sorted(grid), 2)
    near = [p for p in points
            if abs(p.alpha - 2.0) <= 0.05 and p.branch == "upper"]
    deepest = min((p.value.real for p in near), default=0.0)
    ok = deepest < -10.0
    report(15, "figure sweep near integer alpha", ok,
           f"{len(points)} sweep points; deepest Re within 0.05 of "
           f"alpha=2: {deepest:.1f}")
