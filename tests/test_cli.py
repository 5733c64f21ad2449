"""CLI tests: argument handling, output formats, config precedence,
exit codes and determinism."""

import json
import os

import numpy as np
import pytest

from singwave.cli import main
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

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run_cli(capsys, "spectrum", "--alpha", "2",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("index,branch")


    def test_near_one_is_computation_error(self, capsys):
        # the double series gives up at |z| ~ 1e5: a classified failure
        code, _, err = run_cli(capsys, "spectrum", "--alpha", "1.0000001")
        assert code == 1
        assert "computation error" in err


# re/im columns of `spectrum --alpha A --kmax 5`, recorded before the
# real-axis scan moved to kummer_m_array + brentq and the high-precision
# fallback to mpmath.hyp1f1; both changes must leave them byte-identical
GOLDEN_SPECTRA = {
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
                           "--kmax", "5")
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
        code, _, err = run_cli(capsys, "sweep", "--alpha-min", "3",
                               "--alpha-max", "2")
        assert code == 2


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
        for alpha in ("0", "-0.5"):
            code, _, err = run_cli(capsys, "simulate", "--alpha", alpha,
                                   "--T", "0.1", "--dt", "1e-3", "--N", "200",
                                   "--out", str(tmp_path / "run.snap"))
            assert code == 2
            assert "config error: alpha must be positive" in err
        assert not (tmp_path / "run.snap").exists()


class TestExtinction:
    def test_noninteger_rejected(self, capsys):
        code, _, err = run_cli(capsys, "extinction", "--alpha", "1.5")
        assert code == 2
        assert "allow-noninteger" in err

    def test_nonpositive_alpha_is_config_error(self, capsys):
        for extra in ((), ("--allow-noninteger",)):
            for alpha in ("0", "-0.5"):
                code, _, err = run_cli(capsys, "extinction", "--alpha", alpha,
                                       "--N", "40", "--dt", "0.02", *extra)
                assert code == 2
                assert "config error: alpha must be positive" in err

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
