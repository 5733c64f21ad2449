"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

They run smoke-sized job lists (a few seconds each) through the same
worker, oracles and tracer the benchmark uses.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def _run(tmp_path, jobs, trace=False):
    jobs_path = tmp_path / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    deadline = time.monotonic() + 120
    p = run.run_pass(str(jobs_path), str(tmp_path), 0, deadline, trace)
    return p, run.judge(jobs, [p])


def _write_spectrum(path, values):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "branch", "re", "im", "residual", "seed_source"])
        for i, (branch, lam) in enumerate(values, start=1):
            w.writerow([i, branch, lam.real, lam.imag, 0.0, "test"])


def test_generator_is_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke(tmp_path, name):
    jobs = workloads.generate(name, 3, smoke=True)
    p, failures = _run(tmp_path, jobs)
    assert [r["id"] for r in p["jobs"]] == [j["id"] for j in jobs]
    assert p["wall_s"] > 0 and p["setup_s"] > 0 and p["peak_rss_mb"] > 0
    assert all(f["cause"] for f in failures)
    if name != "known-defects":  # gated workloads: every job succeeds
        assert failures == []


def test_perturbed_eigenvalue_fails_oracle(tmp_path):
    # alpha = 3: mu = -(3 -/+ sqrt(3))/2, the roots of L_2^(1)(-2 mu)
    good = [("real", complex(-(3 - math.sqrt(3)) / 2)),
            ("real", complex(-(3 + math.sqrt(3)) / 2))]
    path = tmp_path / "spec.csv"
    _write_spectrum(path, good)
    assert oracles.check_spectrum(path, {"alpha": 3.0, "kmax": 5}) == []
    bad = [good[0], ("real", good[1][1] + 1e-5)]
    _write_spectrum(path, bad)
    problems = oracles.check_spectrum(path, {"alpha": 3.0, "kmax": 5})
    assert any("Newton step" in p for p in problems)
    _write_spectrum(path, good[:1])
    problems = oracles.check_spectrum(path, {"alpha": 3.0, "kmax": 5})
    assert any("real eigenvalues" in p for p in problems)


def test_raised_exception_is_counted_not_fatal(tmp_path):
    jobs = workloads.generate("integer-dynamics", 3, smoke=True)
    verify = [j for j in jobs if j["cmd"] == "verify"]
    broken = {"id": "jbad", "cmd": "laplace", "argv": ["nonexistent"],
              "call": {"fn": "nonexistent", "m": 1}, "check": {}}
    jobs = [broken] + verify
    p, failures = _run(tmp_path, jobs)
    assert len(p["jobs"]) == 2
    assert [f["job"] for f in failures] == ["jbad"]
    assert failures[0]["cause"].startswith("raised ValueError")


def test_tracer_self_times_sum_to_wall(tmp_path):
    jobs = workloads.generate("integer-dynamics", 3, smoke=True)
    p, _failures = _run(tmp_path, jobs, trace=True)
    spans = p["trace"]["spans"]
    assert all(v["self_ns"] >= 0 for v in spans.values())
    total = sum(v["self_ns"] for v in spans.values()) / 1e9
    # everything but the loop glue between jobs sits inside a job span
    assert 0.97 * p["wall_s"] <= total <= p["wall_s"]
    assert spans["evolution.simulate"]["calls"] >= 3
    assert spans["cli.main"]["calls"] == len(jobs) - 1  # one library job


def test_tracer_nests_recursion_and_pool_workers(tmp_path):
    jobs = [j for j in workloads.generate("known-defects", 3, smoke=True)
            if j["cmd"] == "sweep"]  # serial, then --jobs 2
    p, _failures = _run(tmp_path, jobs, trace=True)
    spans = p["trace"]["spans"]
    # one serial sweep plus one call per pool chunk, merged from the workers
    assert spans["spectrum.alpha_sweep"]["calls"] == 3
    assert spans["spectrum.find_eigenvalues"]["calls"] == 10
    # the parent waiting on the pool is not busy: worker time is not its own
    assert spans["cli.cmd_sweep"]["self_ns"] < 0.1 * sum(
        v["self_ns"] for v in spans.values())


def test_tracer_recursion_is_a_child_span(tmp_path, monkeypatch):
    from singwave import specfun

    t = tracer_mod.Tracer(str(tmp_path))
    monkeypatch.setattr(specfun, "kummer_m",
                        tracer_mod._wrap(t, specfun.kummer_m,
                                         "specfun.kummer_m"))
    # Re z < -1: the Kummer transformation re-enters kummer_m
    specfun.kummer_m(0.5, 2.0, -40.0 + 1j)
    agg = t.aggregate()["specfun.kummer_m"]
    assert agg["spans"] == 2 and agg["calls"] == 1
    assert agg["large_z_calls"] == 1
    assert agg["self_ns"] == agg["total_ns"]
