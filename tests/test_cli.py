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

from singwave import cli, specfun, spectrum
from singwave.cli import main
from singwave.data import bump_data
from singwave.evolution import simulate
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


# re/im columns of `spectrum --alpha A --kmax K` (K from GOLDEN_KMAX, else
# 5), recorded before the real-axis scan moved to kummer_m_array + brentq
# and the high-precision fallback to mpmath.hyp1f1; both changes must leave
# them byte-identical. 0.694473 was recorded before Newton took its long
# steps at the phase grade; its pairs reach |z| ~ 126, the large-|z| band.
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
    got = "".join(",".join(l.split(",")[:4]) + "\n" for l in lines[1:])
    assert got == GOLDEN_SPECTRA[alpha]


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
        for argv in (("--alpha-min", "3", "--alpha-max", "2"),
                     ("--alpha-max", "inf"), ("--alpha-min", "nan"),
                     ("--step", "inf"), ("--step", "nan")):
            code, _, err = run_cli(capsys, "sweep", *argv)
            assert code == 2, argv
            assert "config error: need 0 < alpha-min" in err
            assert "Traceback" not in err

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
        (ValueError("bad alpha"), 2)])
    def test_worker_error_matches_serial(self, capsys, monkeypatch, exc,
                                         code):
        # both chunks raise; the run reports the first chunk's exception,
        # as the serial run does, with its type's exit code and its message
        # (ConvergenceError's constructor does not take its own message)
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
        assert str(exc) in serial[2]
        assert pooled == serial

    def test_dead_worker_is_computation_error(self):
        # a worker that ends without writing its result: a classified
        # error, not a hang or a traceback
        code = f"""
import os, sys
from singwave import cli
def die(item):
    os._exit(1)
cli._sweep_chunk = die
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

    def test_coarse_dt_is_config_error(self, capsys):
        # the coarsest level (dt x 4 = 10) has one sample, none at t = 2.2
        code, _, err = run_cli(capsys, "extinction", "--alpha", "2",
                               "--N", "40", "--dt", "2.5")
        assert code == 2
        assert "config error: refinement level dt=10.0" in err

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

    def test_unknown_check(self, capsys):
        # argparse rejects the choice itself with the config exit code
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "bogus"])
        assert exc.value.code == 2


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

    def test_jobs_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGWAVE_JOBS", "not-a-number")
        code, _, err = run_cli(capsys, "sweep", "--alpha-min", "1.3",
                               "--alpha-max", "1.4", "--step", "0.1",
                               "--kmax", "1")
        assert code == 2
        assert "SINGWAVE_JOBS" in err


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


# scipy packages the package imports only in tests (and scipy.integrate only
# for laplace's singular 1/s integral at Re tau <= 0, on first use)
_TEST_ONLY_SCIPY = ("scipy.linalg", "scipy.interpolate", "scipy.optimize",
                    "scipy.special", "scipy.integrate")


def _run_python(code, timeout=None):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


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
    # every command kind of the benchmark's workloads, in one interpreter
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
laplace.solve_laplace_U(data.sine_data(1), 2, 1.0 + 0.5j,
                        np.linspace(0.1, 0.9, 9))
print([m for m in {_TEST_ONLY_SCIPY!r} if m in sys.modules])
"""
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
