"""CLI tests: argument handling, output formats, config precedence,
exit codes and determinism."""

import csv
import io
import json
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from singwave import cli, evolution, specfun, spectrum, verify
from singwave.cli import main
from singwave.data import bump_data
from singwave.evolution import project_out, simulate
from singwave.spectrum import SpectralProblem


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrum:
    def test_alpha2_csv(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--alpha", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,branch,re,im,residual,seed_source"
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == pytest.approx(-1.0,
                                                              abs=1e-10)

    def test_alpha1_empty_json(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--alpha", "1",
                               "--radius", "50", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == []
        assert doc["metadata"]["empty_spectrum"] is True
        assert doc["metadata"]["version"]

    def test_noninteger_counts(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--alpha", "1.5",
                               "--kmax", "2")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        branches = [r.split(",")[1] for r in rows]
        assert branches.count("real") == 1
        assert branches.count("upper") == 2
        assert branches.count("lower") == 2

    def test_missing_alpha(self, capsys):
        code, _, err = run_cli(capsys, "spectrum")
        assert code == 2
        assert "alpha" in err

    def test_nonpositive_alpha_is_config_error(self, capsys):
        for alpha in ("0", "-0.5", "inf", "nan"):
            code, _, err = run_cli(capsys, "spectrum", "--alpha", alpha)
            assert code == 2
            assert "config error: alpha must be positive" in err
            assert "Traceback" not in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run_cli(capsys, "spectrum", "--alpha", "2",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("index,branch")


    def test_near_one_matches_mpmath(self, capsys):
        # F is almost flat next to alpha = 1: Newton's capped step keeps
        # the roots, which agree with 50-digit mpmath at the double alpha
        for alpha in ("1.0000001", "0.9999999"):
            code, out, _ = run_cli(capsys, "spectrum", "--alpha", alpha,
                                   "--kmax", "3")
            assert code == 0
            rows = list(csv.DictReader(io.StringIO(out)))
            assert len(rows) == 6 + (float(alpha) > 1.0)
            with mpmath.workdps(50):
                a = 1 - mpmath.mpf(float(alpha))
                f = lambda lam: mpmath.hyp1f1(a, 2, -2 * lam)
                for row in rows:
                    lam = complex(float(row["re"]), float(row["im"]))
                    ref = complex(mpmath.findroot(f, mpmath.mpc(lam)))
                    assert abs(lam - ref) <= 1e-15 * abs(ref)

    def test_modulus_overflow_is_classified(self, capsys):
        # an uncapped first Newton step from the asymptotic seed reached
        # |z| ~ 866, where a partial sum's modulus passes the float range
        code, _, err = run_cli(capsys, "spectrum", "--alpha", "0.99999",
                               "--kmax", "3")
        assert code == 0
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["171.5", "1e300"])
    def test_alpha_past_bound_is_config_error(self, capsys, alpha):
        # past alpha = 170 the asymptotic seeds' Gamma(1 + alpha) leaves
        # the float range, and from 2^53 every double is an integer, whose
        # Laguerre matrix would have alpha - 1 rows
        code, out, err = run_cli(capsys, "spectrum", "--alpha", alpha,
                                 "--kmax", "1")
        assert code == 2
        assert out == ""
        assert err == (f"singwave: config error: alpha must be positive and "
                       f"at most 170, got {alpha!r}\n")


# re/im columns of `spectrum --alpha A --kmax K` (K from GOLDEN_KMAX, else
# 5), recorded by earlier versions of the eigenvalue search and of the
# high-precision fallback to mpmath.hyp1f1; 0.694473 was recorded before
# Newton took its long steps at the phase grade; its pairs reach
# |z| ~ 126, the large-|z| band. Those changes left them byte-identical.
# Newton's last steps now accept a value of F by the root error it
# implies, about one ulp, and start from other seeds, so each value is
# held to GOLDEN_RTOL |lambda| of its record, and each one that moved also
# to GOLDEN_RTOL of the 50-digit mpmath root.
GOLDEN_RTOL = 4 * 2.0 ** -52
GOLDEN_KMAX = {"0.694473": 20}
GOLDEN_SPECTRA = {
    "0.694473": """\
1,upper,-1.8929268641432566,2.804370189007495
2,upper,-2.360802812650063,6.062898418534011
3,upper,-2.636477998066594,9.257281333499373
4,upper,-2.83319388595173,12.429693697462882
5,upper,-2.9863388297069373,15.591746684227157
6,upper,-3.1117744056352334,18.74802395977379
7,upper,-3.218011405363807,21.900725371239766
8,upper,-3.3101541171608275,25.051047148619947
9,upper,-3.3915072980503878,28.199699244425986
10,upper,-3.4643341935911955,31.347131294393243
11,upper,-3.5302530100956835,34.49364275330746
12,upper,-3.5904609547627437,37.63944122365973
13,upper,-3.645868707195802,40.78467543028427
14,upper,-3.6971851398939837,43.929454871956544
15,upper,-3.7449728662248774,47.07386205517512
16,upper,-3.7896858991384765,50.21796039479923
17,upper,-3.8316959184988546,53.361799478692866
18,upper,-3.87131104746452,56.50541867211862
19,upper,-3.9087895638530106,59.64884964447466
20,upper,-3.94435010252895,62.7921181778452
1,lower,-1.8929268641432566,-2.804370189007495
2,lower,-2.360802812650063,-6.062898418534011
3,lower,-2.636477998066594,-9.257281333499373
4,lower,-2.83319388595173,-12.429693697462882
5,lower,-2.9863388297069373,-15.591746684227157
6,lower,-3.1117744056352334,-18.74802395977379
7,lower,-3.218011405363807,-21.900725371239766
8,lower,-3.3101541171608275,-25.051047148619947
9,lower,-3.3915072980503878,-28.199699244425986
10,lower,-3.4643341935911955,-31.347131294393243
11,lower,-3.5302530100956835,-34.49364275330746
12,lower,-3.5904609547627437,-37.63944122365973
13,lower,-3.645868707195802,-40.78467543028427
14,lower,-3.6971851398939837,-43.929454871956544
15,lower,-3.7449728662248774,-47.07386205517512
16,lower,-3.7896858991384765,-50.21796039479923
17,lower,-3.8316959184988546,-53.361799478692866
18,lower,-3.87131104746452,-56.50541867211862
19,lower,-3.9087895638530106,-59.64884964447466
20,lower,-3.94435010252895,-62.7921181778452
""",
    "1.440102": """\
1,real,-1.5421665906889575,0.0
1,upper,-3.812518390787235,3.7478262342564634
2,upper,-4.541320147255997,7.155846594086956
3,upper,-5.013253179082881,10.437121146857114
4,upper,-5.366040414978848,13.667135070961843
5,upper,-5.648591704527554,16.870552582000364
1,lower,-3.812518390787235,-3.7478262342564634
2,lower,-4.541320147255997,-7.155846594086956
3,lower,-5.013253179082881,-10.437121146857114
4,lower,-5.366040414978848,-13.667135070961843
5,lower,-5.648591704527554,-16.870552582000364
""",
    "3.0000009938368044": """\
1,real,-15.678490433355702,0.0
2,real,-2.366024330799547,0.0
3,real,-0.6339743704359269,0.0
1,upper,-15.826941698757667,3.9635284231725825
2,upper,-16.166196102852567,7.757266633046623
3,upper,-16.55876975315933,11.378284595350406
4,upper,-16.944456955750674,14.875817579135616
5,upper,-17.305058943057904,18.289605699373112
1,lower,-15.826941698757667,-3.9635284231725825
2,lower,-16.166196102852567,-7.757266633046623
3,lower,-16.55876975315933,-11.378284595350406
4,lower,-16.944456955750674,-14.875817579135616
5,lower,-17.305058943057904,-18.289605699373112
""",
}


@pytest.mark.parametrize("alpha", sorted(GOLDEN_SPECTRA))
def test_golden_spectrum(capsys, alpha):
    code, out, _ = run_cli(capsys, "spectrum", "--alpha", alpha,
                           "--kmax", str(GOLDEN_KMAX.get(alpha, 5)))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,branch,re,im,residual,seed_source"
    want = [l.split(",") for l in GOLDEN_SPECTRA[alpha].splitlines()]
    got = [l.split(",")[:4] for l in lines[1:]]
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for g, w in zip(got, want):
        lam = complex(float(g[2]), float(g[3]))
        ref = complex(float(w[2]), float(w[3]))
        assert abs(lam - ref) <= GOLDEN_RTOL * abs(ref), (g, w)
        if lam != ref:
            with mpmath.workdps(50):
                a = 1 - mpmath.mpf(float(alpha))
                root = complex(mpmath.findroot(
                    lambda l: mpmath.hyp1f1(a, 2, -2 * l), mpmath.mpc(lam),
                    df=lambda l: -a * mpmath.hyp1f1(a + 1, 3, -2 * l),
                    solver="newton"))
            assert abs(lam - root) <= GOLDEN_RTOL * abs(root), (g, root)


class TestSweep:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--alpha-min", "1.3",
                               "--alpha-max", "1.5", "--step", "0.1",
                               "--kmax", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,trajectory_id,re,im,branch,n_real"
        alphas = {round(float(l.split(",")[0]), 10) for l in lines[1:]}
        assert alphas == {1.3, 1.4, 1.5}

    def test_excludes_integers_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--alpha-min", "1.9",
                               "--alpha-max", "2.1", "--step", "0.1",
                               "--kmax", "1")
        assert code == 0
        alphas = {float(l.split(",")[0])
                  for l in out.strip().splitlines()[1:]}
        assert 2.0 not in alphas

    def test_bad_range(self, capsys):
        for argv, message in (
                (("--alpha-min", "3", "--alpha-max", "2"),
                 "need alpha-min < alpha-max"),
                (("--alpha-max", "inf"),
                 "alpha-max must be positive and at most 170, got 'inf'"),
                (("--alpha-max", "171.5"),
                 "alpha-max must be positive and at most 170, got '171.5'"),
                (("--alpha-min", "nan"),
                 "alpha-min must be positive and at most 170, got 'nan'"),
                (("--step", "inf"),
                 "step must be positive and finite, got 'inf'"),
                (("--step", "nan"),
                 "step must be positive and finite, got 'nan'")):
            code, _, err = run_cli(capsys, "sweep", *argv)
            assert code == 2, argv
            assert err == f"singwave: config error: {message}\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_dropped_point_warned(self, capsys, monkeypatch, jobs):
        find = spectrum.find_eigenvalues

        def failing(problem, *args, **kwargs):
            if abs(problem.alpha - 1.5) < 1e-9:
                raise spectrum.AuditError("R", 1, 0)
            return find(problem, *args, **kwargs)

        monkeypatch.setattr(spectrum, "find_eigenvalues", failing)
        argv = ("sweep", "--alpha-min", "1.3", "--alpha-max", "1.8",
                "--step", "0.1", "--kmax", "1", "--jobs", jobs)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["warnings"] == [
            "dropped alpha=1.5: AuditError: zero-count audit failed on "
            "rectangle R: winding count 1, refined zeros 0"]
        alphas = {round(row["alpha"], 10) for row in doc["rows"]}
        assert alphas == {1.3, 1.4, 1.6, 1.7, 1.8}
        # the CSV carries the rows alone
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + len(doc["rows"])


    # six points, which --jobs 2 splits into 1.3-1.5 and 1.6-1.8
    _POOLED = ("sweep", "--alpha-min", "1.3", "--alpha-max", "1.8",
               "--step", "0.1", "--kmax", "1")

    @pytest.mark.parametrize("exc, code", [
        (specfun.ConvergenceError("series stalled", 1.4, 7), 1),
        (ValueError("bad alpha"), 1), (OverflowError("math range error"), 1)])
    def test_worker_error_matches_serial(self, capsys, monkeypatch, exc,
                                         code):
        # both chunks raise; the run reports the first chunk's exception,
        # as the serial run does, with its message and exit code 1: the
        # inputs were accepted, whatever the type (ConvergenceError's
        # constructor does not take its own message)
        sweep = cli.alpha_sweep

        def failing(alphas, kmax):
            for alpha in alphas:
                if abs(alpha - 1.4) < 1e-9:
                    raise exc
                if abs(alpha - 1.7) < 1e-9:
                    raise spectrum.NewtonError(1.7)
            return sweep(alphas, kmax)

        monkeypatch.setattr(cli, "alpha_sweep", failing)
        serial = run_cli(capsys, *self._POOLED, "--jobs", "1")
        pooled = run_cli(capsys, *self._POOLED, "--jobs", "2")
        assert serial[0] == code
        assert serial[2] == f"singwave: computation error: {exc}\n"
        assert pooled == serial

    def test_dead_worker_is_computation_error(self):
        # a worker that ends without writing its result: a classified
        # error, not a hang or a traceback
        code = f"""
import os, sys
from singwave import cli
def die(alphas, kmax):
    os._exit(1)
cli.alpha_sweep = die
sys.exit(cli.main({list(self._POOLED) + ["--jobs", "2"]!r}))
"""
        proc = _run_python(code, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("singwave: computation error: sweep worker 1 "
                               "of 2 ended without a result (exit code 1)\n")

class TestSimulate:
    def test_snapshot_format(self, capsys, tmp_path):
        snap = tmp_path / "run.snap"
        en = tmp_path / "run.energy.csv"
        code, _, _ = run_cli(capsys, "simulate", "--alpha", "2",
                             "--preset", "mode:1", "--T", "0.2",
                             "--dt", "0.01", "--N", "50",
                             "--snapshots", "3", "--out", str(snap),
                             "--energy-out", str(en))
        assert code == 0
        lines = snap.read_text().splitlines()
        assert lines[0].startswith("# singwave v1, alpha=2.0, N=50, dt=0.01")
        blocks = "\n".join(lines[1:]).split("\n\n")
        assert len([b for b in blocks if b.strip()]) == 3
        t, x, u, v = lines[1].split(",")
        assert float(t) == 0.0
        energy_lines = en.read_text().splitlines()
        assert energy_lines[0] == "t,E"
        assert len(energy_lines) == 22  # header + 21 steps incl t=0

    def test_writers_match_per_element_formatting(self, tmp_path):
        run = simulate(2.0, bump_data(), 0.05, 0.01, N=30, n_snapshots=3)
        # the writers' former per-element formatting of numpy scalars,
        # kept here as the reference for their output bytes
        lines = [f"# singwave v1, alpha={run.alpha}, N={run.grid.N}, "
                 f"dt={run.dt}"]
        for t, state in zip(run.snapshot_times, run.snapshots):
            for xi, ui, vi in zip(run.grid.nodes, state.u, state.v):
                lines.append(f"{t:.10g},{xi:.10g},{ui:.16g},{vi:.16g}")
            lines.append("")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "E"])
        for t, e in zip(run.trace.times, run.trace.energies):
            writer.writerow([f"{t:.10g}", f"{e:.16g}"])
        snap, en = tmp_path / "run.snap", tmp_path / "run.energy.csv"
        cli._write_snapshots(run, str(snap))
        cli._write_energy(run, str(en))
        assert snap.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert en.read_bytes() == buf.getvalue().encode()

    def test_file_preset(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        x = np.linspace(0.1, 0.9, 9)
        rows = np.column_stack([x, np.sin(np.pi * x), np.zeros_like(x)])
        np.savetxt(data, rows, delimiter=",")
        code, out, _ = run_cli(capsys, "simulate", "--alpha", "1",
                               "--preset", f"file:{data}", "--T", "0.1",
                               "--dt", "0.01", "--N", "50")
        assert code == 0
        assert out.startswith("# singwave v1")

    def test_project_requires_integer(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alpha", "1.5",
                               "--preset", "sine:1", "--project",
                               "--T", "0.1", "--dt", "0.01", "--N", "50")
        assert code == 2

    def test_infinite_initial_energy_is_computation_error(self, capsys,
                                                          tmp_path):
        data = tmp_path / "huge.csv"
        x = np.linspace(0.1, 0.9, 9)
        rows = np.column_stack([x, 1e153 * np.sin(np.pi * x),
                                np.zeros_like(x)])
        np.savetxt(data, rows, delimiter=",")
        with np.errstate(over="ignore"):
            code, _, err = run_cli(capsys, "simulate", "--alpha", "1",
                                   "--preset", f"file:{data}", "--T", "0.1",
                                   "--dt", "1e-3", "--N", "200")
        assert code == 1
        assert "computation error: initial energy is infinite" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alpha", "1",
                               "--preset", "nope", "--T", "0.1",
                               "--dt", "0.01", "--N", "50")
        assert code == 2

    def test_nonpositive_alpha_is_config_error(self, capsys, tmp_path):
        # anti-damping is outside the model; the library-level energy
        # audit is covered in test_evolution
        for alpha in ("0", "-0.5", "inf", "nan"):
            code, _, err = run_cli(capsys, "simulate", "--alpha", alpha,
                                   "--T", "0.1", "--dt", "1e-3", "--N", "200",
                                   "--out", str(tmp_path / "run.snap"))
            assert code == 2
            assert "config error: alpha must be positive" in err
            assert "Traceback" not in err
        assert not (tmp_path / "run.snap").exists()


class TestExtinction:
    def test_noninteger_rejected(self, capsys):
        code, _, err = run_cli(capsys, "extinction", "--alpha", "1.5")
        assert code == 2
        assert "allow-noninteger" in err

    def test_nonpositive_alpha_is_config_error(self, capsys):
        for extra in ((), ("--allow-noninteger",)):
            for alpha in ("0", "-0.5", "inf", "nan"):
                code, _, err = run_cli(capsys, "extinction", "--alpha", alpha,
                                       "--N", "40", "--dt", "0.02", *extra)
                assert code == 2
                assert "config error: alpha must be positive" in err
                assert "Traceback" not in err

    def test_file_preset_project(self, capsys, tmp_path):
        # 50-knot spline data: the projections integrate over its pieces
        # without a warning (the suite turns warnings into errors)
        path = tmp_path / "data.csv"
        x = np.linspace(0.02, 0.98, 50)
        np.savetxt(path, np.column_stack(
            [x, np.sin(np.pi * x) * (1 + 0.3 * np.cos(5 * x)),
             x * (1 - x) * np.exp(x)]), delimiter=",")
        code, out, err = run_cli(capsys, "extinction", "--alpha", "3",
                                 "--preset", f"file:{path}", "--project",
                                 "--N", "200", "--dt", "0.004")
        assert code == 0, err
        assert err == ""
        report = json.loads(out)["report"]
        assert report["projected"] is True
        assert len(report["projection_condition"]) == 2

    def test_short_fit_window_is_computation_error(self, capsys):
        # dt = 1.8 leaves one sample of the finest run in the decay-rate
        # window [2, T]
        code, _, err = run_cli(capsys, "extinction", "--alpha", "2",
                               "--N", "40", "--dt", "1.8")
        assert code == 1
        assert "computation error: window too short for a fit" in err

    def test_coarse_dt_is_config_error(self, capsys, monkeypatch):
        # the coarsest level (dt x 4 = 10) has one sample, none at t = 2.2;
        # refused before any level runs
        calls = []
        monkeypatch.setattr(evolution, "simulate",
                            lambda *a, **kw: calls.append(a))
        code, _, err = run_cli(capsys, "extinction", "--alpha", "2",
                               "--N", "40", "--dt", "2.5")
        assert code == 2
        assert "config error: refinement level dt=10.0" in err
        assert "no time sample at t >= 2.2" in err
        assert calls == []

    @pytest.mark.parametrize("alpha, preset, project", [
        ("1", "sine:1", False), ("2", "sine:1", True), ("3", "bump", True)])
    def test_coarse_levels_stop_at_their_sample(self, capsys, monkeypatch,
                                                alpha, preset, project):
        # each level's residual ratio is E(2.2)/E(0) of a full T = 4 run,
        # bit for bit, although the coarse levels stop at that sample
        steps = []

        def spy(*args, **kwargs):
            run = simulate(*args, **kwargs)
            steps.append(len(run.trace.times) - 1)
            return run

        monkeypatch.setattr(evolution, "simulate", spy)
        argv = ["extinction", "--alpha", alpha, "--preset", preset,
                "--N", "40", "--dt", "0.01"]
        code, out, err = run_cli(capsys, *argv,
                                 *(["--project"] if project else []))
        assert code == 0, err
        trend = json.loads(out)["report"]["refinement_trend"]
        data = cli.make_initial_data(preset, float(alpha))
        if project:
            data = project_out(data, int(alpha) - 1)
        want_steps = []
        for level, (N, dt) in zip(trend, [(10, 0.04), (20, 0.02),
                                          (40, 0.01)]):
            assert (level["N"], level["dt"]) == (N, dt)
            full = simulate(float(alpha), data, 4.0, dt, N=N).trace
            idx = int(np.searchsorted(full.times, 2.2))
            assert level["residual_ratio"] \
                == full.energies[idx] / full.energies[0]
            want_steps.append(idx)
        want_steps[-1] = 400  # the finest level runs to T = 4
        assert steps == want_steps

    @pytest.mark.parametrize("alpha", ["12", "13"])
    def test_tail_past_tiny_residues(self, capsys, alpha):
        # n = 11, 12: the smallest residues of P_n/L_n^(1) are ~1e-13 and
        # ~1e-15 of the largest, the second below its pole's rounding; the
        # sine data keep a tail, matched to 4.1e-6 at this grid
        code, out, err = run_cli(capsys, "extinction", "--alpha", alpha,
                                 "--N", "200", "--dt", "0.01")
        assert code == 0, err
        report = json.loads(out)["report"]
        assert report["extinct"] is False
        assert report["tail_match_error"] < 1e-5

    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "extinction", "--alpha", "1",
                               "--N", "200", "--dt", "0.004")
        assert code == 0
        doc = json.loads(out)
        rep = doc["report"]
        assert len(rep["refinement_trend"]) == 3
        assert rep["extinct"] is True


# just above INTEGER_ALPHA_TOL from 2, and just inside it
_OFF_INTEGER = repr(2 + 1e-13)
_ON_INTEGER = repr(2 + 1e-15)
_INTEGER_ONLY = [
    ("simulate", "--preset", "sine:1", "--project", "--T", "0.1",
     "--dt", "0.01", "--N", "50"),
    ("simulate", "--preset", "mode:1", "--T", "0.1", "--dt", "0.01",
     "--N", "50"),
    ("extinction", "--N", "40", "--dt", "0.02"),
]


class TestIntegerAlpha:
    """The CLI takes the integer path exactly when the spectrum does."""

    @pytest.mark.parametrize("argv", _INTEGER_ONLY)
    def test_off_integer_rejected(self, capsys, argv):
        assert SpectralProblem(float(_OFF_INTEGER)).integer_n is None
        code, _, err = run_cli(capsys, *argv, "--alpha", _OFF_INTEGER)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("argv", _INTEGER_ONLY)
    def test_on_integer_accepted(self, capsys, argv):
        assert float(_ON_INTEGER) != 2.0
        assert SpectralProblem(float(_ON_INTEGER)).integer_n == 1
        code, _, err = run_cli(capsys, *argv, "--alpha", _ON_INTEGER)
        assert code == 0, err


class TestVerify:
    def test_gupta_only(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "gupta",
                               "--nmax", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["check"] == "gupta"
        assert doc["rows"][0]["passed"] is True

    def test_seeded_reproducible(self, capsys):
        a = run_cli(capsys, "verify", "--check", "hardy", "--trials", "20",
                    "--seed", "7")
        b = run_cli(capsys, "verify", "--check", "hardy", "--trials", "20",
                    "--seed", "7")
        assert a == b
        assert a[0] == 0

    @pytest.mark.parametrize("argv", [("--trials", "0"), ("--nmax", "0"),
                                      ("--trials", "-3", "--check",
                                       "pairing"), ("--nmax", "170")])
    def test_nothing_to_check_is_config_error(self, capsys, argv):
        # zero witnesses or zero n would pass with nothing checked; past
        # n = 169 the Laguerre poles are not held to mpmath, and from 363
        # one is NaN
        code, out, err = run_cli(capsys, "verify", *argv)
        domain = ("an integer from 1 to 169" if argv[0] == "--nmax"
                  else "an integer >= 1")
        assert code == 2
        assert out == ""
        assert err == (f"singwave: config error: {argv[0][2:]} must be "
                       f"{domain}, got {argv[1]!r}\n")

    def test_unknown_check(self, capsys):
        # argparse rejects the choice itself with the config exit code
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --check: invalid choice: 'bogus'" in err
        assert all(name in err for name in verify.CHECKS)

    def test_check_names_are_verify_checks(self):
        # the parser lists them without importing verify
        assert cli._CHECKS == ["all", *verify.CHECKS]


# inputs outside their domain, bad presets and data files, and paths that
# cannot be opened: @TMP is the test's directory, whose text.csv holds words
# and whose config files set radius = nan, check = bogus and broken JSON.
# An infinite radius is test_infinite_radius_exits_at_once's, in a child
_BAD_INPUTS = [
    ("spectrum", "--alpha", "2.5", "--radius", "nan"),
    ("spectrum", "--alpha", "2.5", "--radius", "-1"),
    ("spectrum", "--config", "@TMP/radius.conf"),
    ("spectrum", "--alpha", "2", "--config", "@TMP/broken.json"),
    ("spectrum", "--alpha", "2", "--config", "@TMP"),
    ("spectrum", "--alpha", "2", "--out", "@TMP"),
    ("spectrum", "--alpha", "2", "--out", "/proc/version"),
    ("simulate", "--alpha", "2", "--T", "-1"),
    ("simulate", "--alpha", "2", "--T", "nan"),
    ("simulate", "--alpha", "2", "--snapshots", "-3"),
    ("simulate", "--alpha", "2", "--preset", "sine:x"),
    ("simulate", "--alpha", "2", "--preset", "file:@TMP/text.csv"),
    ("simulate", "--alpha", "2", "--preset", "file:@TMP/missing.csv"),
    ("simulate", "--alpha", "2", "--T", "0.01", "--out", "@TMP"),
    ("simulate", "--alpha", "2", "--T", "0.01", "--energy-out", "@TMP"),
    ("extinction", "--alpha", "2", "--N", "7"),
    ("verify", "--seed", "-1"),
    ("verify", "--config", "@TMP/check.conf"),
    ("sweep", "--jobs", "0"),
    ("sweep", "--jobs", "-5"),
    ("sweep", "--refine-integers", "-1"),
]
# fragments of the messages that numpy and Python gave for such inputs
_FOREIGN_TEXT = ("Traceback", "Error", "Errno", "negative dimensions",
                 "NaN to integer", "Number of samples", "non-negative integer",
                 "invalid literal", "could not convert", "Expecting")


class TestExitCodes:
    @pytest.mark.parametrize("argv", _BAD_INPUTS)
    def test_bad_input_is_config_error(self, capsys, tmp_path, argv):
        (tmp_path / "text.csv").write_text("x,u0,u1\nsome,words,here\n")
        (tmp_path / "radius.conf").write_text("alpha = 2.5\nradius = nan\n")
        (tmp_path / "check.conf").write_text("check = bogus\n")
        (tmp_path / "broken.json").write_text('{"alpha": }')
        argv = [a.replace("@TMP", str(tmp_path)) for a in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("singwave: config error: ")
        assert err.count("\n") == 1
        assert not any(text in err for text in _FOREIGN_TEXT), err

    @pytest.mark.parametrize("argv", [("simulate", "--project"),
                                      ("extinction",)])
    @pytest.mark.parametrize("alpha", ["171.5", "1e300"])
    def test_time_domain_alpha_past_bound(self, capsys, alpha, argv):
        # the same domain as spectrum's: at 1e300 the Laguerre poles of
        # --project and of the extinction study asked numpy for a matrix
        # of 1e300 rows and exited 1
        code, out, err = run_cli(capsys, *argv, "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert err == (f"singwave: config error: alpha must be positive and "
                       f"at most 170, got {alpha!r}\n")

    def test_infinite_radius_exits_at_once(self):
        # an infinite radius once made spectrum count asymptotic pairs
        # without end; run in a child, so that a regression fails the test
        # rather than hang the suite
        argv = ["spectrum", "--alpha", "2.5", "--radius", "inf"]
        proc = _run_python(f"import sys; from singwave import cli; "
                           f"sys.exit(cli.main({argv!r}))", timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == ("singwave: config error: radius must be "
                               "positive and finite, got 'inf'\n")

    @pytest.mark.parametrize("alpha, found", [("3.9999999999", 19),
                                              ("4.0000000001", 19)])
    def test_short_spectrum_is_computation_error(self, capsys, monkeypatch,
                                                 alpha, found):
        # Newton fails from every seed that reaches a pair above Im 65.2,
        # between pair 19 (Im 62.8 and 64.4 at these alpha) and pair 20
        # (66.0 and 67.6): a spectrum short of the pairs asked for is an
        # error, not a short list
        newton = spectrum._newton

        def failing(problem, seed, **kwargs):
            lam, res = newton(problem, seed, **kwargs)
            if abs(lam.imag) > 65.2:
                raise spectrum.NewtonError(seed)
            return lam, res

        monkeypatch.setattr(spectrum, "_newton", failing)
        code, out, err = run_cli(capsys, "spectrum", "--alpha", alpha,
                                 "--kmax", "20")
        assert code == 1
        assert out == ""
        assert err == (f"singwave: computation error: found {found} of 20 "
                       f"conjugate pairs (alpha={alpha})\n")

    def test_value_error_in_computation_is_computation_error(
            self, capsys, monkeypatch):
        # a ValueError raised by the computation, not by an option's type
        def refusing(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(cli, "find_eigenvalues", refusing)
        code, out, err = run_cli(capsys, "spectrum", "--alpha", "2.5")
        assert code == 1
        assert out == ""
        assert err == "singwave: computation error: refused\n"


# each subcommand with cheap arguments, and the module and name of the
# function it computes with
_COMPUTE = {
    "spectrum": (["--alpha", "2.5", "--kmax", "1"], cli,
                 "find_eigenvalues"),
    "sweep": (["--alpha-min", "1.3", "--alpha-max", "1.4", "--step", "0.1",
               "--kmax", "1"], cli, "alpha_sweep"),
    "simulate": (["--alpha", "2", "--T", "0.02", "--dt", "0.01", "--N",
                  "20"], evolution, "simulate"),
    "extinction": (["--alpha", "2", "--N", "40", "--dt", "0.02"], evolution,
                   "simulate"),
    "verify": (["--check", "gupta", "--nmax", "3"], verify, "run_all"),
}


class TestOutputPaths:
    """An output path that cannot be written is refused before the work,
    and an existing file is written only once the work is done."""

    @pytest.mark.parametrize("command, flag", [
        *((command, "--out") for command in _COMPUTE),
        ("simulate", "--energy-out")])
    def test_unusable_path_refused_before_work(self, capsys, monkeypatch,
                                               tmp_path, command, flag):
        argv, module, name = _COMPUTE[command]
        calls = []
        monkeypatch.setattr(module, name,
                            lambda *a, **k: calls.append(a) or 1 / 0)
        for path in (str(tmp_path), "/proc/version",
                     str(tmp_path / "missing" / "out")):
            code, out, err = run_cli(capsys, command, *argv, flag, path)
            assert code == 2, (path, err)
            assert err.startswith(f"singwave: config error: {path}: ")
            assert err.count("\n") == 1
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_existing_file_kept_when_work_fails(self, capsys, monkeypatch,
                                                tmp_path):
        old, new = tmp_path / "old.snap", tmp_path / "new.energy"
        old.write_text("kept\n")

        def failing(*args, **kwargs):
            raise RuntimeError("failed")

        monkeypatch.setattr(evolution, "simulate", failing)
        argv = _COMPUTE["simulate"][0]
        code, _, err = run_cli(capsys, "simulate", *argv, "--out", str(old),
                               "--energy-out", str(new))
        assert code == 1
        assert err == "singwave: computation error: failed\n"
        assert old.read_text() == "kept\n"
        assert not new.exists()


def _flag(name):
    return "--" + name.replace("_", "-")


# per subcommand: cheap flags every run of test_config_and_flag_agree
# passes, and one value per option, which replaces its flag in the runs
# that set that option; @TMP is the test's own directory
_AGREE_BASE = {
    "spectrum": {"alpha": "1.5", "kmax": "1", "format": "json"},
    "sweep": {"alpha_min": "1.3", "alpha_max": "1.4", "step": "0.1",
              "kmax": "1", "format": "json"},
    "simulate": {"alpha": "2", "T": "0.02", "dt": "0.01", "N": "20",
                 "snapshots": "2"},
    "extinction": {"alpha": "2", "N": "40", "dt": "0.02"},
    "verify": {"check": "gupta", "nmax": "3", "format": "json"},
}
_AGREE_CASES = {
    "spectrum": {"alpha": "2", "kmax": "2", "radius": "30"},
    "sweep": {"alpha_min": "1.35", "alpha_max": "1.45", "step": "0.05",
              "kmax": "2", "at_integers": "true", "refine_integers": "1"},
    "simulate": {"alpha": "1", "preset": "bump", "T": "0.03",
                 "dt": "0.005", "N": "30", "project": "true",
                 "snapshots": "3", "energy_out": "@TMP/out.energy"},
    "extinction": {"alpha": "3", "preset": "bump", "project": "true",
                   "threshold": "0.5", "dt": "0.04", "N": "60",
                   "allow_noninteger": "true"},
    "verify": {"check": "hardy", "trials": "3", "seed": "11",
               "nmax": "4"},
}

# every subcommand's options: "<option strings> <type, choices or flag>";
# a table option's type is its declared domain, which reads the flag's text
_P, _N = "positive and finite", "an integer >="
_A = "positive and at most 170"
_OPTION_SET = {
    "spectrum": f"-h/--help flag, --alpha {_A}, --kmax {_N} 1, "
                f"--radius {_P}, --format csv|json, --out str, --config str",
    "sweep": f"-h/--help flag, --alpha-min {_A}, --alpha-max {_A}, "
             f"--step {_P}, --kmax {_N} 1, --at-integers flag, "
             f"--refine-integers {_N} 0, --jobs str, --format csv|json, "
             "--out str, --config str",
    "simulate": f"-h/--help flag, --alpha {_A}, --preset str, --T {_P}, "
                f"--dt {_P}, --N {_N} 2, --project flag, --snapshots {_N} 1, "
                "--energy-out str, --out str, --config str",
    "extinction": f"-h/--help flag, --alpha {_A}, --preset str, "
                  f"--project flag, --threshold {_P}, --dt {_P}, --N {_N} 8, "
                  "--allow-noninteger flag, --out str, --config str",
    "verify": f"-h/--help flag, --check all|hardy|resolvent|gupta|pairing, "
              f"--trials {_N} 1, --seed {_N} 0, "
              "--nmax an integer from 1 to 169, "
              "--format csv|json, --out str, --config str",
}


class TestConfig:
    def test_config_file_and_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("alpha = 2\nkmax = 3\n")
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header + one eigenvalue
        # flag overrides config value
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg),
                               "--alpha", "3")
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2

    def test_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"alpha": 2.0}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 0

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg),
                               "--alpha", "2")
        assert code == 2

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, cases in _AGREE_CASES.items()
        for name in cases])
    def test_config_and_flag_agree(self, capsys, tmp_path, command, name):
        # the option by flag, by a key=value file (the flag's spelling)
        # and by a JSON file (its typed value): the same output bytes,
        # metadata.config included
        base, cases = _AGREE_BASE[command], _AGREE_CASES[command]
        assert set(cases) == set(cli._OPTIONS[command])
        value = cases[name].replace("@TMP", str(tmp_path))
        argv = [command, "--out", str(tmp_path / "out")]
        for other, text in base.items():
            if other != name:
                argv += [_flag(other), text]
        want = cli._OPTIONS[command][name][0]
        key = name.replace("_", "-")
        typed = True if want is bool else want(value)
        lines = tmp_path / "conf"
        lines.write_text(f"# set by the file\n{key} = {value}\n")
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({name: typed}))
        runs = []
        for extra in ([_flag(name)] + ([] if want is bool else [value]),
                      ["--config", str(lines)], ["--config", str(doc)]):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert code == 0, (extra, err)
            files = sorted(tmp_path.glob("out*"))
            runs.append([out, err] + [f.read_bytes() for f in files])
            for f in files:
                f.unlink()
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
        if command != "simulate":  # the one without a metadata block
            config = json.loads(runs[0][2])["metadata"]["config"]
            assert list(config) == list(cli._OPTIONS[command])
            assert config[name] == typed

    def test_option_set_is_pinned(self):
        parser = cli.build_parser()
        assert [a.option_strings for a in parser._actions
                if a.option_strings] == [["-h", "--help"], ["--version"]]
        subs = next(a for a in parser._actions if a.dest == "command")
        assert list(subs.choices) == list(_OPTION_SET)
        for command, expected in _OPTION_SET.items():
            got = []
            options = cli._OPTIONS[command]
            for action in subs.choices[command]._actions:
                if action.choices:
                    kind = "|".join(action.choices)
                elif action.nargs == 0:
                    kind = "flag"
                else:
                    assert action.type is None
                    kind = options.get(action.dest, (str,))[0].__name__
                got.append(f"{'/'.join(action.option_strings)} {kind}")
            assert ", ".join(got) == expected

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "2", "--format", "json"],
        ["extinction", "--alpha", "2", "--format", "json"],
        ["spectrum", "--alpha", "2", "--jobs", "2"],
        ["verify", "--jobs", "2"]])
    def test_options_a_command_ignores_are_refused(self, argv):
        # --format only where a table is written, --jobs only on sweep
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestDeterminism:
    def test_spectrum_bit_identical(self, capsys):
        a = run_cli(capsys, "spectrum", "--alpha", "1.7", "--kmax", "2",
                    "--format", "json")
        b = run_cli(capsys, "spectrum", "--alpha", "1.7", "--kmax", "2",
                    "--format", "json")
        assert a == b

    def test_sweep_jobs_match_serial(self, capsys):
        # a grid across alpha = 2 and 3 that the pool splits in two
        argv = ("sweep", "--alpha-min", "1.9", "--alpha-max", "3.1",
                "--step", "0.1", "--kmax", "1", "--refine-integers", "1")
        for fmt in ("csv", "json"):
            serial = run_cli(capsys, *argv, "--format", fmt, "--jobs", "1")
            pooled = run_cli(capsys, *argv, "--format", fmt, "--jobs", "2")
            assert serial[0] == 0
            assert pooled == serial


# scipy packages the package imports only in tests
_TEST_ONLY_SCIPY = ("scipy.linalg", "scipy.interpolate", "scipy.optimize",
                    "scipy.special", "scipy.integrate")


def _run_python(code, timeout=None):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


# what the spectral commands leave out: the time-domain, Laplace and
# verification layers with the modules they import (the first five), and
# modules that no command imports
_NOT_SPECTRAL = ("singwave.data", "singwave.evolution", "singwave.laplace",
                 "singwave.verify", "numpy.random", "fractions",
                 "numpy.polynomial", "dataclasses")


def test_spectral_commands_load_only_the_spectral_layer(tmp_path):
    out = str(tmp_path / "out")
    spectral = [["spectrum", "--alpha", "2"],
                ["spectrum", "--alpha", "2.5", "--kmax", "1"],
                ["sweep", "--alpha-min", "1.3", "--alpha-max", "1.35",
                 "--step", "0.05", "--kmax", "1"]]
    others = [["simulate", "--alpha", "2", "--T", "0.02", "--dt", "0.01",
               "--N", "20"],
              ["extinction", "--alpha", "2", "--N", "40", "--dt", "0.02"],
              ["verify", "--check", "all", "--trials", "2", "--nmax", "3"]]
    code = f"""
import sys
import singwave.cli
for argv in {spectral!r}:
    assert singwave.cli.main(argv + ["--out", {out!r}]) == 0, argv
print([m for m in {_NOT_SPECTRAL!r} if m in sys.modules])
for argv in {others!r}:
    assert singwave.cli.main(argv + ["--out", {out!r}]) == 0, argv
print([m for m in {_NOT_SPECTRAL!r} if m in sys.modules])
"""
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", repr(list(_NOT_SPECTRAL[:5]))]


def test_parser_reuse_matches_fresh_processes():
    # main() builds its parser once per process: successive commands in
    # one interpreter, a rejected argv among them, exit and print as each
    # does alone
    runs = [["spectrum", "--alpha", "2.5", "--kmax", "1"],
            ["verify", "--check", "bogus"],
            ["sweep", "--alpha-min", "1.3", "--alpha-max", "1.35", "--step",
             "0.05", "--kmax", "1", "--format", "json"],
            ["spectrum", "--alpha", "2", "--kmax", "0"],
            ["verify", "--check", "gupta", "--nmax", "3"],
            ["simulate", "--alpha", "2", "--T", "0.02", "--dt", "0.01",
             "--N", "8", "--snapshots", "2"],
            ["--version"]]
    code = f"""
import contextlib, io, json
from singwave import cli
results = []
for argv in {runs!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    together = json.loads(proc.stdout)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        cli.__file__)))
    for argv, got in zip(runs, together):
        alone = subprocess.run(
            [sys.executable, "-c", "import sys; from singwave.cli import "
             "main; sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True)
        assert got == [alone.returncode, alone.stdout.decode(),
                       alone.stderr.decode()], argv
    assert [code for code, _, _ in together] == [0, 2, 0, 2, 0, 0, 0]


def test_import_leaves_out_scipy():
    # importing the CLI loads numpy and scipy's compiled LAPACK wrappers
    # (singwave.lapack), but no scipy module: scipy.linalg's import would
    # bring numpy.f2py and numpy.testing with it
    code = ("import sys, singwave.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.split('.')[:2] in (['numpy', 'f2py'], "
            "['numpy', 'testing'])])")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_leave_out_test_only_scipy(tmp_path):
    # every command kind of the benchmark's workloads, in one interpreter,
    # and Laplace solves on both sides of Re tau = 0
    out = str(tmp_path / "out")
    runs = [
        ["spectrum", "--alpha", "2.3", "--kmax", "1"],
        ["spectrum", "--alpha", "3"],
        ["sweep", "--alpha-min", "1.3", "--alpha-max", "1.35", "--step",
         "0.05", "--kmax", "1"],
        ["simulate", "--alpha", "2", "--preset", "bump", "--project",
         "--T", "0.01", "--dt", "0.005", "--N", "50"],
        ["extinction", "--alpha", "2", "--preset", "sine:1", "--N", "40",
         "--dt", "0.01"],
        ["verify", "--check", "all", "--trials", "2", "--nmax", "3"],
    ]
    code = f"""
import sys
import numpy as np
from singwave import cli, data, laplace
for argv in {runs!r}:
    assert cli.main(argv + ["--out", {out!r}]) == 0, argv
for tau in (1.0 + 0.5j, -0.3 + 2.0j):
    laplace.solve_laplace_U(data.sine_data(1), 2, tau,
                            np.linspace(0.1, 0.9, 9))
print([m for m in {_TEST_ONLY_SCIPY!r} if m in sys.modules])
"""
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_spectra_leave_out_mpmath(tmp_path):
    # next to zeros of M, where no double-precision regime meets the
    # bound, the exact fixed-point series gives the value: the spectra
    # and sweeps of the benchmark's kinds never import mpmath, though
    # they reach that series
    out = str(tmp_path / "out")
    runs = [["spectrum", "--alpha", "4"],
            ["spectrum", "--alpha", "1.45", "--kmax", "5"],
            ["spectrum", "--alpha", repr(3 + 1e-6), "--kmax", "5"],
            ["spectrum", "--alpha", "0.7", "--kmax", "20"],
            ["sweep", "--alpha-min", "1.3", "--alpha-max", "1.35",
             "--step", "0.05", "--kmax", "3"]]
    code = f"""
import sys
from singwave import cli, specfun
sums = []
exact = specfun._kummer_series_exact
specfun._kummer_series_exact = lambda *args: sums.append(args) or exact(*args)
for argv in {runs!r}:
    assert cli.main(argv + ["--out", {out!r}]) == 0, argv
print(len(sums) > 0, "mpmath" in sys.modules)
"""
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "True False"
