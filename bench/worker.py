"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --jobs JOBS.json --outdir DIR --result RESULT.json
                            [--trace-dir DIR] [--setup-only]

Times `import singwave.cli` (set-up), then runs each job the way a user
does: `singwave.cli.main(argv)` in this process, or the library call for the
Laplace jobs, which have no subcommand. A job that raises is recorded and
the pass goes on. Writes per-job wall times, exit codes and errors, the
pass wall time and the peak resident set (this process and its pool
children) to RESULT.json. With --trace-dir every layer is traced and the
per-name aggregates are added to the result.

Fixed calibration kernels run around the import (calibrate) and between the
jobs (calibrate_jobs, a mix like the jobs' own work); their times measure
how fast the host runs at that moment, so the driver can express set-up
and job times at a reference host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# calibrations before the first job and after the last one; a pass with few
# long jobs still gets enough of them to average out their own noise
CALIB_EDGE = 3
# between jobs, a calibration once this much job time has passed since the
# last one: short jobs are not each followed by one
CALIB_EVERY_S = 1.0


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def calibrate(reps=4000):
    """Seconds for a fixed pure-Python complex power series, about 50 ms
    on an unloaded host: the host's speed at this moment."""
    t0 = time.perf_counter()
    z = 0.3 + 0.7j
    for _ in range(reps):
        term = acc = 1.0 + 0.0j
        for k in range(60):
            term = term * ((0.5 + k) / ((2.0 + k) * (k + 1.0))) * z
            acc += term
    return time.perf_counter() - t0


def calibrate_jobs(reps=100):
    """Seconds for a fixed mix like the jobs' work, about 35 ms on an
    unloaded host: the complex double series of calibrate(), the same
    recurrence in 300-bit fixed point on Python integers (the arithmetic
    under mpmath's high-precision Kummer series, without importing mpmath,
    which the program imports lazily) and in-place NumPy passes over a 2 MB
    array (the time steppers). A noisy neighbour that thrashes caches slows
    the last two more than the first. Runs after set-up: singwave.cli
    imports NumPy."""
    import numpy as np

    t0 = time.perf_counter()
    calibrate(1000)
    bits = 300
    one = 1 << bits
    zr, zi = -41 * one // 2, 125 * one // 4
    for _ in range(reps):
        tr, ti, ar, ai = one, 0, one, 0
        for k in range(60):
            tr, ti = (tr * zr - ti * zi) >> bits, (tr * zi + ti * zr) >> bits
            num, den = 45 + 100 * k, 100 * (2 + k) * (k + 1)
            tr, ti = tr * num // den, ti * num // den
            ar, ai = ar + tr, ai + ti
    x = np.arange(1 << 18, dtype=float)
    for _ in range(reps):
        np.multiply(x, 1.0000001, out=x)
        np.add(x, 1e-9, out=x)
    return time.perf_counter() - t0


def _library_job(call, outdir, job_id):
    import numpy as np
    from singwave import data, evolution, laplace
    from workloads import LAPLACE_GRID

    fn = call["fn"]
    d = data.sine_data(call["m"])
    grid = np.arange(1, LAPLACE_GRID + 1) / (LAPLACE_GRID + 1)
    out = os.path.join(outdir, f"{job_id}.npz")
    if fn == "solve_laplace_U":
        tau = complex(call["tau_re"], call["tau_im"])
        U = laplace.solve_laplace_U(d, call["n"], tau, grid)
        np.savez(out, x=grid, U=U)
    elif fn == "laplace_U_alpha1":
        tau = complex(call["tau_re"], call["tau_im"])
        xs = np.array(call["xs"])
        direct = np.array([laplace.laplace_U_alpha1(d, x, tau) for x in xs])
        assembled = laplace.solve_laplace_U(d, 0, tau, xs)
        np.savez(out, x=xs, direct=direct, assembled=assembled)
    elif fn == "tail_u2":
        n, t, dt = call["n"], call["t"], 1e-3
        x = grid[::10]
        tails = np.array([laplace.tail_u2(d, n, s, x)
                          for s in (t - dt, t, t + dt)])
        projected = laplace.tail_u2(evolution.project_out(d, n), n, t, x)
        np.savez(out, x=x, t=t, dt=dt, tails=tails, projected=projected)
    else:
        raise ValueError(f"unknown library job {fn!r}")
    return 0


def run_jobs(jobs, outdir, cli, tracer=None):
    """Run every job, with calibrations before the first, between jobs
    about every CALIB_EVERY_S and after the last; returns (summed job
    seconds, calibration seconds, per-job records)."""
    records = []
    calib = [calibrate_jobs() for _ in range(CALIB_EDGE)]
    since_calib = 0.0
    for job in jobs:
        argv = [a.replace("@OUT", outdir) for a in job["argv"]]
        err = io.StringIO()
        code, error = None, None
        span = tracer.span(f"bench.job.{job['cmd']}") if tracer \
            else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stderr(err):
                if job["cmd"] == "laplace":
                    code = _library_job(job["call"], outdir, job["id"])
                else:
                    code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the job failed; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        records.append({"id": job["id"], "cmd": job["cmd"],
                        "seconds": seconds, "code": code, "error": error,
                        "stderr": err.getvalue()[-2000:]})
        since_calib += seconds
        if since_calib >= CALIB_EVERY_S:
            calib.append(calibrate_jobs())
            since_calib = 0.0
    calib += [calibrate_jobs() for _ in range(CALIB_EDGE)]
    return sum(r["seconds"] for r in records), calib, records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs")
    ap.add_argument("--outdir")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-dir")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    calib = [calibrate() for _ in range(2)]
    t0 = time.perf_counter()
    import singwave.cli as cli
    setup_s = time.perf_counter() - t0
    calib += [calibrate() for _ in range(2)]
    result = {"setup_s": setup_s, "setup_calib_s": calib,
              "singwave_file": cli.__file__}
    if not args.setup_only:
        with open(args.jobs) as fh:
            jobs = json.load(fh)
        tracer = None
        if args.trace_dir:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer(args.trace_dir)
            tracer_mod.install(tracer)
        wall_s, calib, records = run_jobs(jobs, args.outdir, cli, tracer)
        result.update(wall_s=wall_s, calib_s=calib, jobs=records)
        if tracer is not None:
            tracer.merge_workers()
            result["trace"] = {"spans": tracer.aggregate(),
                               "counters": tracer.counters}
            tracer.write(os.path.join(args.trace_dir, "spans.pkl"))
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
