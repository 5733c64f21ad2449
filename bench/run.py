"""The singwave benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed generates the workload's job list
(bench/workloads.py); the program sees only the generated argv. The gated
workloads are those in BENCHMARK.json, on which every job succeeds;
`known-defects` runs the jobs on which the program is known to fail. Each
pass runs the whole list in a fresh interpreter (bench/worker.py), because
every CLI invocation pays lazy set-up. Passes repeat until --seconds is
used up (at least one). Every job is checked against an independent oracle
(bench/oracles.py) after the passes, outside the timed region; later passes
must reproduce the first pass's output bytes.

--trace 0 reports the end-to-end metrics: job times as each job's median
over passes, summed over the list; set-up as the median over several
import-only interpreters and the passes' own imports. A shared host's
speed can drift by half for minutes at a time, so setup_s, wall_s and the
per-subcommand times are expressed at a reference host speed, measured by
calibration kernels run next to them (bench/worker.py); setup_raw_s and
wall_raw_s are the raw times. --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of the traced ones
(bench/tracer.py). Both print a
human-readable report, then one JSON line: {"correct", "attempted",
"failed", "metrics"}. The full record (seed, job argv, environment, every
pass and every failure with its cause) goes to
bench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 2
# calibrate() and calibrate_jobs() in bench/worker.py take this long on the
# reference host (the 2-vCPU Intel Xeon, Python 3.11.7 machine the bounds
# were set on, unloaded)
REFERENCE_CALIB_S = 0.05
REFERENCE_JOB_CALIB_S = 0.035
DEADLINE_S = 165  # every run ends within 180 s
SUBCOMMANDS = ("spectrum", "sweep", "simulate", "extinction", "verify",
               "laplace")

# end-to-end metrics gated in BENCHMARK.json: the ones no workload reports
# as zero. The per-subcommand times and failed_ratio are zero on some
# workloads, so they are printed in the report and kept in the record, as
# are the raw times.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


class BenchError(Exception):
    pass


# ------------------------------------------------------------ environment

def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                          recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "src_lines": src_lines}


# ----------------------------------------------------------------- passes

def _worker(args, deadline):
    """Run bench/worker.py in its own process group; kill the whole group
    (pool children included) if it outlives the deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise BenchError("a pass overran the run's deadline")
    except BaseException:  # interrupted or terminated: leave nothing behind
        _kill_group(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}")


def _kill_group(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def setup_sample(scratch, deadline):
    path = os.path.join(scratch, "setup.json")
    _worker(["--setup-only", "--result", path], deadline)
    with open(path) as fh:
        return json.load(fh)


def run_pass(jobs_path, scratch, index, deadline, trace):
    outdir = os.path.join(scratch, f"pass{index}")
    os.makedirs(outdir)
    result_path = os.path.join(scratch, f"pass{index}.json")
    args = ["--jobs", jobs_path, "--outdir", outdir, "--result", result_path]
    if trace:
        trace_dir = os.path.join(scratch, f"trace{index}")
        os.makedirs(trace_dir)
        args += ["--trace-dir", trace_dir]
    _worker(args, deadline)
    with open(result_path) as fh:
        result = json.load(fh)
    result["outdir"] = outdir
    result["traced"] = trace
    return result


def output_paths(jobs, outdir):
    paths = {}
    for job in jobs:
        argv = job["argv"]
        if "--out" in argv:
            paths[job["id"]] = argv[argv.index("--out") + 1].replace(
                "@OUT", outdir)
        else:
            paths[job["id"]] = os.path.join(outdir, f"{job['id']}.npz")
    return paths


def _read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def judge(jobs, passes):
    """Failures per job and pass: raised, non-zero exit, oracle failure on
    the first pass, or output bytes that differ from the first pass."""
    failures = []
    first = output_paths(jobs, passes[0]["outdir"])
    first_problems = {}
    for job, rec in zip(jobs, passes[0]["jobs"]):
        if rec["error"] is None and rec["code"] == 0:
            first_problems[job["id"]] = oracles.check_job(job, first)
    for k, p in enumerate(passes):
        paths = output_paths(jobs, p["outdir"])
        for job, rec in zip(jobs, p["jobs"]):
            cause = None
            if rec["error"] is not None:
                cause = f"raised {rec['error']}"
            elif rec["code"] != 0:
                last = rec["stderr"].strip().splitlines()[-1:] or [""]
                cause = f"exit code {rec['code']}: {last[0]}"
            elif first_problems.get(job["id"]):
                cause = "oracle: " + "; ".join(first_problems[job["id"]][:3])
            elif k > 0 and _read_bytes(paths[job["id"]]) \
                    != _read_bytes(first[job["id"]]):
                cause = "output differs from the first pass"
            if cause is not None:
                failures.append({"pass": k, "job": job["id"],
                                 "argv": job["argv"], "cause": cause})
    return failures


# ---------------------------------------------------------------- metrics

def at_reference_speed(seconds, calib, reference=REFERENCE_CALIB_S):
    """seconds rescaled to the reference host speed, by the calibration
    times measured next to them."""
    return seconds * reference / median(calib)


def list_seconds(passes, key, cmd=None):
    """The job list's time: each job's median over passes, summed (only
    the jobs of one subcommand if cmd is given). key(pass, job record)
    gives one job's time. Interference on a shared host comes in bursts of
    a few seconds that slow one job or one pass and that the calibration
    does not see; a per-job median drops them, where the median of whole
    passes keeps them when passes are few."""
    ids = [r["id"] for r in passes[0]["jobs"]
           if cmd is None or r["cmd"] == cmd]
    by_id = [{r["id"]: key(p, r) for r in p["jobs"]} for p in passes]
    return sum(median(times[i] for times in by_id) for i in ids)


def _ref(p, r):
    return at_reference_speed(r["seconds"], p["calib_s"],
                              REFERENCE_JOB_CALIB_S)


def _raw(_p, r):
    return r["seconds"]


def end_to_end(passes, setup_samples, failures, n_jobs):
    n, n_setup = len(passes), len(setup_samples)
    metrics = {
        "setup_s": (median([at_reference_speed(s["setup_s"],
                                               s["setup_calib_s"])
                            for s in setup_samples]), "s", n_setup),
        "wall_s": (list_seconds(passes, _ref), "s", n),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB", n),
        "failed_ratio": (len(failures) / (n_jobs * n), "ratio", n_jobs * n),
        "setup_raw_s": (median([s["setup_s"] for s in setup_samples]), "s",
                        n_setup),
        "wall_raw_s": (list_seconds(passes, _raw), "s", n),
    }
    for cmd in SUBCOMMANDS:
        metrics[f"{cmd}_s"] = (list_seconds(passes, _ref, cmd), "s", n)
    return metrics


# (span name, fields) read straight off the trace; *_s fields are seconds
_SPAN_FIELDS = (
    ("specfun.kummer_m", ("calls", "self_s", "large_z_calls",
                          "large_z_self_s")),
    ("specfun.kummer_m_dz", ("calls",)),
    ("specfun.laguerre", ("calls", "self_s")),
    ("specfun.exp_integral_e1", ("calls", "self_s")),
    ("spectrum.find_eigenvalues", ("calls", "self_s")),
    ("spectrum.char_fn", ("calls",)),
    ("spectrum.char_fn_dlam", ("calls",)),
    ("spectrum.count_zeros", ("calls", "self_s")),
    ("evolution.simulate", ("calls", "self_s")),
    ("evolution.project_out", ("self_s",)),
    ("evolution.projection_condition", ("self_s",)),
    ("laplace.solve_laplace_U", ("calls", "self_s")),
    ("laplace.partial_fractions", ("calls",)),
    ("laplace.tail_u2", ("self_s",)),
    ("verify.hardy_check", ("calls", "self_s")),
    ("verify.resolvent_bound_check", ("self_s",)),
    ("verify.gupta_bound_check", ("self_s",)),
    ("verify.lemma_condition_identity", ("self_s",)),
)
_COUNTERS = ("spectrum.eigenvalues_returned", "spectrum.sweep_points_dropped",
             "evolution.simulate.steps")


def per_layer(traced, untraced):
    """Per-layer metrics of the traced passes (medians over passes)."""
    samples = [layer_sample(p) for p in traced]
    metrics = {name: (median([s[name][0] for s in samples]), unit,
                      len(samples))
               for name, (_v, unit) in samples[0].items()}
    ratio = list_seconds(traced, _ref) / list_seconds(untraced, _ref)
    metrics["trace.overhead_ratio"] = (ratio, "ratio", len(traced))
    return metrics


def layer_sample(p):
    """{metric: (value, unit)} of one traced pass."""
    spans, counters = p["trace"]["spans"], p["trace"]["counters"]

    def field(name, f):
        agg = spans.get(name)
        if agg is None:
            return 0
        return agg[f[:-2] + "_ns"] / 1e9 if f.endswith("_s") else agg[f]

    def per(a, b):
        return a / b if b else 0.0

    out = {f"{name}.{f}": (field(name, f),
                           "s" if f.endswith("_s") else "count")
           for name, fields in _SPAN_FIELDS for f in fields}
    for key in _COUNTERS:
        out[key] = (counters.get(key, 0), "count")
    out["specfun.kummer_m.us_per_call"] = (
        per(field("specfun.kummer_m", "self_s") * 1e6,
            field("specfun.kummer_m", "calls")), "us")
    out["spectrum.char_fn_calls_per_eigenvalue"] = (
        per(field("spectrum.char_fn", "calls"),
            counters.get("spectrum.eigenvalues_returned", 0)), "ratio")
    out["spectrum.alpha_sweep.s_per_point"] = (
        per(field("spectrum.alpha_sweep", "total_s"),
            counters.get("spectrum.alpha_sweep.points", 0)), "s")
    out["evolution.simulate.ns_per_node_step"] = (
        per(field("evolution.simulate", "self_s") * 1e9,
            counters.get("evolution.simulate.node_steps", 0)), "ns")
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = (sum(
            v["self_ns"] for k, v in spans.items()
            if k.split(".")[0] == layer) / 1e9, "s")
    out["cli.bytes_written"] = (p["bytes_written"], "bytes")
    out["trace.wall_s"] = (p["wall_s"], "s")
    return out


def bytes_written(jobs, outdir):
    total = 0
    for job in jobs:
        for a in job["argv"]:
            if a.startswith("@OUT/"):
                path = a.replace("@OUT", outdir)
                if os.path.exists(path):
                    total += os.path.getsize(path)
    return total


# ------------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "singwave", "cli.py")):
        print("bench: no src/singwave in this checkout; run from the root "
              "of a singwave checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the worker group is killed and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    deadline = started + DEADLINE_S
    jobs = workloads.generate(args.workload, args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        return _measure(args, jobs, scratch, started, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, jobs, scratch, started, deadline):
    jobs_path = os.path.join(scratch, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump(jobs, fh)
    setup_sample(scratch, deadline)  # fills __pycache__; not a sample
    setup = []
    if not args.trace:
        setup = [setup_sample(scratch, deadline)
                 for _ in range(SETUP_SAMPLES)]

    passes = []
    t0 = time.monotonic()
    while True:
        if args.trace:
            passes.append(run_pass(jobs_path, scratch, len(passes), deadline,
                                   False))
            passes.append(run_pass(jobs_path, scratch, len(passes), deadline,
                                   True))
        else:
            passes.append(run_pass(jobs_path, scratch, len(passes), deadline,
                                   False))
        elapsed = time.monotonic() - t0
        step = elapsed / (len(passes) // (2 if args.trace else 1))
        if elapsed + step > args.seconds \
                or time.monotonic() + 2 * step > deadline:
            break

    failures = judge(jobs, passes)
    n_jobs = len(jobs)
    attempted = n_jobs * len(passes)
    failed = len(failures)
    for p in passes:
        p["bytes_written"] = bytes_written(jobs, p["outdir"])

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        metrics = per_layer(traced, untraced)
    else:
        setup += passes
        metrics = end_to_end(passes, setup, failures, n_jobs)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "jobs": jobs,
        "passes": [{k: v for k, v in p.items() if k != "outdir"}
                   for p in passes],
        "setup_samples": [{k: s[k] for k in ("setup_s", "setup_calib_s")}
                          for s in setup],
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "run_seconds": time.monotonic() - started,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    name = f"{stem}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:  # the spans of the first traced pass
        shutil.copy(os.path.join(scratch, "trace1", "spans.pkl"),
                    os.path.join(RESULTS, f"{stem}-spans.pkl"))

    print(f"# singwave benchmark: workload={args.workload} seed={args.seed} "
          f"passes={len(passes)} jobs={n_jobs} record=bench/results/{name}")
    for k, (v, u, n) in metrics.items():
        print(f"{k:44s} {v:14.6g} {u:6s} (n={n})")
    for f in failures:
        print(f"FAILED pass {f['pass']} {f['job']} "
              f"{' '.join(f['argv'])}: {f['cause']}")
    final = {"correct": failed == 0, "attempted": attempted,
             "failed": failed,
             "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                         for k in (metrics if args.trace else GATED)}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
