"""Command-line interface: spectra, parameter sweeps, simulation,
extinction studies and the verification suite.

Each subcommand imports only the layers it runs: spectrum and sweep the
spectral layer, which this module loads; simulate, extinction and verify
import the data, evolution, laplace and verify modules they use when they
run.

Each subcommand's options are declared once, in _OPTIONS: name, type (the
option's domain) and default. The flag is --<name> with "_" written "-"; a
--config key is the name (with "-" or "_"). Flags override config values,
which override the defaults. Every subcommand also accepts --out and
--config; spectrum, sweep and verify also --format csv|json, and sweep alone
--jobs. JSON output carries a metadata block: version and effective config.

A ConfigError (an input outside its domain, a bad preset or data file, a
path that cannot be opened, checked before any work) exits 2, any other
exception 1. Outputs are deterministic for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
# argparse's messages go through gettext, which imports locale on first
# use; imported here so that the first command does not pay for it
import locale  # noqa: F401
import math
import os
import sys

import numpy as np

from . import __version__
from .spectrum import (SpectralProblem, alpha_sweep, find_eigenvalues,
                       integer_n, spectral_abscissa)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """An input outside its domain, or a file that cannot be used: exit 2."""


def _user_file(path, text=None, mode="w"):
    """Read the file path, or write text to it; a ConfigError on failure."""
    try:
        with open(path, "r" if text is None else mode) as fh:
            return fh.read() if text is None else fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None


def _writable(path):
    """A ConfigError before any work unless the output path (None or '-':
    stdout) opens for appending; a file this creates is removed again."""
    if path in (None, "-"):
        return
    existed = os.path.lexists(path)
    _user_file(path, "", "a")
    if not existed:
        os.remove(path)


def _load_config(path):
    """Flat key=value lines or a JSON object, as a dict whose keys have
    each "-" written "_"."""
    try:
        text = _user_file(path).strip()
        if text.startswith("{"):
            pairs = json.loads(text).items()
        else:  # a line without "=" has one side, which fails to unpack
            lines = [line.strip() for line in text.splitlines()]
            pairs = [[side.strip() for side in line.split("=", 1)]
                     for line in lines if line and not line.startswith("#")]
        return {key.replace("-", "_"): value for key, value in pairs}
    except ValueError:
        raise ConfigError(f"{path}: not key=value lines or a JSON "
                          f"object") from None


def _checked(kind, test, domain):
    """An option's type, named domain: kind(text) if test passes it."""
    def convert(text):
        if not test(value := kind(text)):
            raise ValueError(domain)
        return value
    convert.__name__ = domain
    return convert


def _at_least(least):
    return _checked(int, lambda n: n >= least, f"an integer >= {least}")


_POSITIVE = _checked(float, lambda x: 0 < x < math.inf,
                     "positive and finite")
# every command's alpha: an integer alpha's Laguerre poles (simulate
# --project, extinction) come from a matrix of alpha - 1 rows and are
# tested against mpmath up to alpha = 170; from alpha ~ 170.6 on,
# Gamma(1 + alpha) leaves the float range, and with it the Kummer
# function's large-argument expansion
_ALPHA = _checked(float, lambda x: 0 < x <= 170,
                  "positive and at most 170")
# "all" and verify.CHECKS, which a test holds equal; written out here so
# that the parser does not import verify
_CHECKS = ["all", "hardy", "resolvent", "gupta", "pairing"]
_CHECK = _checked(str, _CHECKS.__contains__, "one of " + ", ".join(_CHECKS))

# Each subcommand's options, in the order metadata.config lists them:
# name -> (type, default[, further add_argument keywords]). A bool option
# is a flag; in a config file 1, true or yes (any case) set it, any other
# value clears it. extinction's N // 4, its coarsest level, needs 2 nodes.
_OPTIONS = {
    "spectrum": {"alpha": (_ALPHA, None), "kmax": (_at_least(1), 5),
                 "radius": (_POSITIVE, None)},
    "sweep": {"alpha_min": (_ALPHA, 1.1), "alpha_max": (_ALPHA, 2.9),
              "step": (_POSITIVE, 0.01), "kmax": (_at_least(1), 3),
              "at_integers": (bool, False),
              "refine_integers": (_at_least(0), 0, {
                  "help": "extra grid levels at 1e-3, 1e-5, ... of "
                          "integers"})},
    "simulate": {"alpha": (_ALPHA, None),
                 "preset": (str, "sine:1", {
                     "help": "sine:m | bump | mode:k | file:<path>"}),
                 "T": (_POSITIVE, 4.0), "dt": (_POSITIVE, 5e-4),
                 "N": (_at_least(2), 2000), "project": (bool, False),
                 "snapshots": (_at_least(1), 21), "energy_out": (str, None)},
    "extinction": {"alpha": (_ALPHA, None), "preset": (str, "sine:1"),
                   "project": (bool, False), "threshold": (_POSITIVE, 1e-2),
                   "dt": (_POSITIVE, 5e-4), "N": (_at_least(8), 2000),
                   "allow_noninteger": (bool, False)},
    "verify": {"check": (_CHECK, "all", {"choices": _CHECKS}),
               "trials": (_at_least(1), 200), "seed": (_at_least(0), 0),
               "nmax": (_at_least(1), 20)},
}


def _typed(name, want, text):
    """text read with option name's type want; a ConfigError if refused."""
    if want is bool:
        return text.lower() in ("1", "true", "yes")
    try:
        return want(text)
    except ValueError:
        raise ConfigError(f"{name.replace('_', '-')} must be "
                          f"{want.__name__}, got {text!r}") from None


def _effective(args):
    """The subcommand's options: flags over config-file values over
    defaults, each read from its text with the option's type."""
    loaded = _load_config(args.config) if args.config else {}
    cfg = {}
    for key, (want, default, *_) in _OPTIONS[args.command].items():
        text, flag = loaded.pop(key, None), getattr(args, key)
        text = text if flag is None else flag
        cfg[key] = default if text is None else _typed(key, want, str(text))
    if loaded:  # keys that no option took
        raise ConfigError(f"unknown config key: {', '.join(loaded)}")
    if "alpha" in cfg and cfg["alpha"] is None:
        raise ConfigError("--alpha is required")
    return cfg


def _write(text, out):
    """Write text to stdout (out None or '-') or to the file out."""
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        _user_file(out, text)


def _emit(payload_rows, header, metadata, fmt, out):
    """payload_rows: list of dicts with keys = header."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in payload_rows:
            writer.writerow([row[h] for h in header])
        text = buf.getvalue()
    else:
        text = json.dumps({"metadata": metadata, "rows": payload_rows},
                          indent=2, default=float) + "\n"
    _write(text, out)


def _metadata(config, **extra):
    md = {"version": __version__, "config": config}
    md.update(extra)
    return md


def _mode_count(alpha, what):
    """The number n of standing modes at alpha = n + 1; a ConfigError
    naming what needs them unless alpha is integer (integer_n) and n >= 1."""
    n = integer_n(alpha)
    if n is None or n < 1:
        raise ConfigError(f"{what} integer alpha >= 2")
    return n


def make_initial_data(preset, alpha):
    """The initial data a preset names, or a ConfigError."""
    from .data import InitialData, bump_data, mode_data, sine_data

    kind, _, arg = preset.partition(":")
    try:
        if kind == "sine":
            return sine_data(int(arg))
        if preset == "bump":
            return bump_data()
        if kind == "mode":
            return mode_data(_mode_count(alpha, "mode:k presets need"),
                             int(arg))
        if kind == "file":
            x, u0, u1 = np.loadtxt(_user_file(arg).splitlines(),
                                   delimiter=",", ndmin=2, unpack=True)
            return InitialData.from_grid(x, u0, u1, label=preset)
    except ValueError:
        pass
    raise ConfigError(f"preset must be sine:<m>, bump, mode:<k> or file:<csv "
                      f"of x,u0,u1, x increasing in [0, 1]>, got {preset!r}")


# ---------------------------------------------------------------- spectrum

def cmd_spectrum(args, cfg):
    problem = SpectralProblem(cfg["alpha"])
    evs = find_eigenvalues(problem, cfg["kmax"],
                           search_radius=cfg["radius"])
    branch_order = {"real": 0, "upper": 1, "lower": 2}
    evs = sorted(evs, key=lambda e: (branch_order[e.branch],
                                     abs(e.value.imag), e.value.real))
    rows = [{"index": e.index, "branch": e.branch,
             "re": e.value.real, "im": e.value.imag,
             "residual": e.residual, "seed_source": e.seed_source}
            for e in evs]
    md = _metadata(cfg, empty_spectrum=not evs,
                   spectral_abscissa=spectral_abscissa(evs))
    _emit(rows, ["index", "branch", "re", "im", "residual", "seed_source"],
          md, args.format, args.out)


# ------------------------------------------------------------------- sweep

def _sweep_grid(cfg):
    a0, a1, step = cfg["alpha_min"], cfg["alpha_max"], cfg["step"]
    if not a0 < a1:
        raise ConfigError("need alpha-min < alpha-max")
    count = int(round((a1 - a0) / step))
    grid = [a0 + i * step for i in range(count + 1) if a0 + i * step <= a1 + 1e-12]
    for m in range(math.ceil(a0), math.floor(a1) + 1):
        for level in range(1, cfg["refine_integers"] + 1):
            off = 10.0 ** (-1 - 2 * level)  # 1e-3, 1e-5, ...
            grid.extend(a for a in (m - off, m + off) if a0 <= a <= a1)
    if not cfg["at_integers"]:
        grid = [a for a in grid if abs(a - round(a)) > 1e-12]
    return sorted(set(grid))


def _fork_map(fn, items):
    """[fn(item) for item in items], each call in a child forked from this
    process, which only waits. Each child pickles its result, or the type
    and message of the exception it raised, back through a pipe; they are
    read in item order, so the exception raised here is the one a serial
    run would raise. A child that ends without its result is a
    RuntimeError."""
    import pickle

    children = []  # (pid, read end) of the children not yet reaped
    try:
        for item in items:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    try:
                        out = ("ok", fn(item))
                    except Exception as exc:
                        out = ("raised", type(exc), str(exc))
                    with open(w, "wb") as fh:
                        fh.write(pickle.dumps(out))
                    code = 0  # only once the whole result is written
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, r))
        results = []
        for i in range(len(items)):
            pid, r = children[0]
            with open(r, "rb", closefd=False) as fh:
                payload = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(0)[1])
            if code != 0:
                raise RuntimeError(f"sweep worker {i + 1} of {len(items)} "
                                    f"ended without a result (exit code "
                                    f"{code})")
            out = pickle.loads(payload)
            if out[0] == "raised":
                # not cls(message): some constructors take other arguments
                _, cls, message = out
                raise cls.__new__(cls, message)
            results.append(out[1])
        return results
    finally:
        # after a failed chunk or an interrupt: stop and reap the rest;
        # only that path imports signal
        if children:
            import signal
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_sweep(args, cfg):
    grid = _sweep_grid(cfg)
    jobs = _typed("jobs", _at_least(1), args.jobs)
    kmax = cfg["kmax"]
    if jobs > 1 and len(grid) > 2 * jobs:
        n = len(grid)
        chunks = [grid[i * n // jobs:(i + 1) * n // jobs] for i in range(jobs)]
        parts = _fork_map(lambda chunk: alpha_sweep(chunk, kmax), chunks)
    else:
        parts = [alpha_sweep(grid, kmax)]
    rows = [{"alpha": p.alpha, "trajectory_id": p.trajectory_id,
             "re": p.value.real, "im": p.value.imag, "branch": p.branch,
             "n_real": p.n_real} for part in parts for p in part]
    warnings = [f"dropped alpha={alpha}: {cause}"
                for part in parts for alpha, cause in part.dropped]
    md = _metadata(cfg, warnings=warnings, n_points=len(grid))
    _emit(rows, ["alpha", "trajectory_id", "re", "im", "branch", "n_real"],
          md, args.format, args.out)


# ---------------------------------------------------------------- simulate

def _interleave(*columns):
    """The columns' entries row by row, as one flat tuple."""
    flat = [None] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        flat[i::len(columns)] = column
    return tuple(flat)


def _write_snapshots(run, out):
    # one % per snapshot, whose rows are the only ones held at a time;
    # "%.16g" % x is f"{x:.16g}"
    parts = [f"# singwave v1, alpha={run.alpha}, N={run.grid.N}, "
             f"dt={run.dt}\n"]
    rows = "".join(f"%s,{xi:.10g},%.16g,%.16g\n"
                   for xi in run.grid.nodes.tolist()) + "\n"
    for t, state in zip(run.snapshot_times, run.snapshots):
        u = state.u.tolist()
        parts.append(rows % _interleave([f"{t:.10g}"] * len(u), u,
                                        state.v.tolist()))
    _write("".join(parts), out)


def _write_energy(run, out):
    # the csv module's dialect: no field here needs quoting, rows end in \r\n
    times = run.trace.times.tolist()
    rows = "%.10g,%.16g\r\n" * len(times)
    _write("t,E\r\n" + rows % _interleave(times,
                                          run.trace.energies.tolist()), out)


def cmd_simulate(args, cfg):
    from .evolution import project_out, simulate

    if cfg["project"]:
        n = _mode_count(cfg["alpha"], "--project requires")
    data = make_initial_data(cfg["preset"], cfg["alpha"])
    if cfg["project"]:
        data = project_out(data, n)
    run = simulate(cfg["alpha"], data, cfg["T"], cfg["dt"], N=cfg["N"],
                   n_snapshots=cfg["snapshots"])
    _write_snapshots(run, args.out)
    if cfg["energy_out"]:
        _write_energy(run, cfg["energy_out"])


# -------------------------------------------------------------- extinction

def cmd_extinction(args, cfg):
    from .evolution import (decay_rate, extinction_time, project_out,
                            projection_condition, simulate)
    from .laplace import tail_u2

    alpha = cfg["alpha"]
    n = integer_n(alpha)
    integer = n is not None
    if not integer and not cfg["allow_noninteger"]:
        raise ConfigError("extinction study expects integer alpha; "
                          "pass --allow-noninteger to override")
    if cfg["project"]:
        _mode_count(alpha, "--project requires")
    # refinement trend over three grid levels, each read at its first
    # sample at t >= 2.2 on the grid simulate makes up to T = 4. The coarse
    # levels are read there alone, so they run to that step and no further;
    # the finest runs to T = 4 for the extinction time, tail and decay rate.
    base_N, base_dt = cfg["N"], cfg["dt"]
    levels = []
    for N_l, dt_l in ((base_N // 4, base_dt * 4), (base_N // 2, base_dt * 2),
                      (base_N, base_dt)):
        times = np.arange(round(4.0 / dt_l) + 1) * dt_l
        idx = int(np.searchsorted(times, 2.2))
        if idx == len(times):
            raise ConfigError(f"refinement level dt={dt_l} has no time "
                              f"sample at t >= 2.2; use a smaller --dt")
        levels.append((N_l, dt_l, idx))
    data = make_initial_data(cfg["preset"], alpha)
    report = {"alpha": alpha, "preset": cfg["preset"],
              "projected": cfg["project"]}
    if integer and n >= 1:
        report["projection_condition"] = list(projection_condition(data, n))
    if cfg["project"]:
        data = project_out(data, n)

    trend = []
    for i, (N_l, dt_l, idx) in enumerate(levels):
        finest = i == len(levels) - 1
        run = simulate(alpha, data, 4.0 if finest else idx * dt_l, dt_l,
                       N=N_l)
        energies = run.trace.energies
        trend.append({"N": N_l, "dt": dt_l,
                      "residual_ratio": energies[idx] / energies[0]})
    report["refinement_trend"] = trend
    t_star = extinction_time(run, cfg["threshold"])
    report["extinction_time"] = t_star
    report["extinct"] = t_star is not None

    if integer and n >= 1 and not report["extinct"]:
        # compare the simulated state against the closed-form tail
        snap_idx = [i for i, t in enumerate(run.snapshot_times) if t > 2.5]
        errs = []
        for i in snap_idx:
            t = run.snapshot_times[i]
            tail = tail_u2(data, n, t, run.grid.nodes)
            errs.append(float(np.max(np.abs(run.snapshots[i].u - tail))))
        report["tail_match_error"] = max(errs) if errs else None
    if not report["extinct"]:
        tr = run.trace
        if tr.energies[-1] > 0:
            report["decay_rate"] = decay_rate(tr, (2.0, tr.times[-1]))
    _write(json.dumps({"metadata": _metadata(cfg), "report": report},
                      indent=2, default=float) + "\n", args.out)


# ------------------------------------------------------------------ verify

def cmd_verify(args, cfg):
    from .verify import run_all

    results = run_all(cfg["seed"], cfg["trials"], cfg["nmax"],
                      check=cfg["check"])
    all_ok = all(r["passed"] for r in results.values())
    md = _metadata(cfg, seed=cfg["seed"])
    if args.format == "csv":
        rows = [{"check": k, "passed": v["passed"],
                 "margin": v.get("worst_ratio", v.get("max_discrepancy", ""))}
                for k, v in results.items()]
        _emit(rows, ["check", "passed", "margin"], md, "csv", args.out)
    else:
        _emit([{"check": k, **v} for k, v in results.items()],
              [], md, "json", args.out)
    return EXIT_OK if all_ok else EXIT_COMPUTE


# -------------------------------------------------------------------- main

@functools.cache  # one parser per process, however often main() runs
def build_parser():
    parser = argparse.ArgumentParser(
        prog="singwave",
        description="Spectra and dynamics of the wave equation with "
                    "singular damping 2*alpha/x on (0,1)")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, func, about in (
            ("spectrum", cmd_spectrum, {"help": "eigenvalues for one alpha"}),
            ("sweep", cmd_sweep, {
                "help": "eigenvalue trajectories over alpha",
                "description": "Eigenvalues over an alpha grid. "
                "trajectory_id names each row from its own alpha: "
                "real:<r> is the r-th real root from the right, "
                "upper:<m>:<k> and lower:<m>:<k> pair k with m = "
                "floor(alpha). Output is the same for every --jobs."}),
            ("simulate", cmd_simulate, {"help": "time-domain simulation"}),
            ("extinction", cmd_extinction,
             {"help": "finite-time extinction study"}),
            ("verify", cmd_verify,
             {"help": "inequality verification suite"})):
        sub = subs.add_parser(command, **about)
        # flags are kept as text, for _effective to read with their type
        for name, (want, _, *more) in _OPTIONS[command].items():
            how = ({"action": "store_const", "const": True}
                   if want is bool else {})
            sub.add_argument("--" + name.replace("_", "-"), **how,
                             **dict(*more))
        if command == "sweep":
            sub.add_argument("--jobs", default="1",
                             help="worker processes, at least 1 (default 1)")
        if command in ("spectrum", "sweep", "verify"):
            sub.add_argument("--format", choices=["csv", "json"],
                             default="csv")
        sub.add_argument("--out", help="output path ('-' = stdout)")
        sub.add_argument("--config", help="key=value or JSON config file")
        sub.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective(args)
        # an empty --energy-out writes no energy file
        for path in (args.out, cfg.get("energy_out") or None):
            _writable(path)
        code = args.func(args, cfg)
        return EXIT_OK if code is None else code
    except ConfigError as exc:
        print(f"singwave: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"singwave: computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
