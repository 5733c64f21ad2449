"""Command-line interface: spectra, parameter sweeps, simulation,
extinction studies and the verification suite.

Outputs are deterministic for identical configs and seeds. Every subcommand
accepts --format csv|json and --out; JSON output carries a metadata block
with the package version and the effective config.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
# argparse's messages go through gettext, which imports locale on first
# use; imported here so that the first command does not pay for it
import locale  # noqa: F401
import math
import os
import pickle
import signal
import sys

import numpy as np

from . import __version__
from .data import InitialData, bump_data, mode_data, sine_data
from .evolution import (EvolutionError, decay_rate, extinction_time,
                        project_out, projection_condition, simulate)
from .laplace import LaplaceError, tail_u2
from .specfun import SpecialFunctionError
from .spectrum import (SpectralProblem, SpectrumError, alpha_sweep,
                       find_eigenvalues, integer_n, spectral_abscissa)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _load_config(path):
    """Flat key=value lines or a JSON object."""
    with open(path) as fh:
        text = fh.read()
    text_stripped = text.strip()
    if text_stripped.startswith("{"):
        data = json.loads(text_stripped)
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return {str(k).replace("-", "_"): v for k, v in data.items()}
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _effective(args, defaults):
    """Flags override config-file values override defaults."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        loaded = _load_config(args.config)
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key: {key}")
            want = type(cfg[key]) if cfg[key] is not None else str
            try:
                cfg[key] = want(value) if want is not bool \
                    else str(value).lower() in ("1", "true", "yes")
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for {key}: {value!r}")
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _jobs(args):
    if getattr(args, "jobs", None) is not None:
        return max(1, args.jobs)
    env = os.environ.get("SINGWAVE_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"bad SINGWAVE_JOBS value: {env!r}")
    return 1


def _write(text, out):
    """Write text to stdout (out None or '-') or to the file out."""
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


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


def _positive_alpha(cfg):
    if cfg["alpha"] is None:
        raise ConfigError("--alpha is required")
    alpha = float(cfg["alpha"])
    if not 0 < alpha < math.inf:
        raise ConfigError("alpha must be positive and finite")
    return alpha


def _mode_count(alpha, what):
    """The number n of standing modes at alpha = n + 1; a ConfigError
    naming what needs them unless alpha is integer (integer_n) and n >= 1."""
    n = integer_n(alpha)
    if n is None or n < 1:
        raise ConfigError(f"{what} integer alpha >= 2")
    return n


def make_initial_data(preset, alpha):
    if preset.startswith("sine:"):
        return sine_data(int(preset.split(":", 1)[1]))
    if preset == "bump":
        return bump_data()
    if preset.startswith("mode:"):
        k = int(preset.split(":", 1)[1])
        return mode_data(_mode_count(alpha, "mode:k presets need"), k)
    if preset.startswith("file:"):
        path = preset.split(":", 1)[1]
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        if rows.shape[1] != 3:
            raise ConfigError("data file must have columns x,u0,u1")
        return InitialData.from_grid(rows[:, 0], rows[:, 1], rows[:, 2],
                                     label=f"file:{path}")
    raise ConfigError(f"unknown preset {preset!r}")


# ---------------------------------------------------------------- spectrum

_SPECTRUM_DEFAULTS = {"alpha": None, "kmax": 5, "radius": None}


def cmd_spectrum(args):
    cfg = _effective(args, _SPECTRUM_DEFAULTS)
    problem = SpectralProblem(_positive_alpha(cfg))
    evs = find_eigenvalues(problem, int(cfg["kmax"]),
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

_SWEEP_DEFAULTS = {"alpha_min": 1.1, "alpha_max": 2.9, "step": 0.01,
                   "kmax": 3, "at_integers": False, "refine_integers": 0}


def _sweep_grid(cfg):
    a0, a1, step = cfg["alpha_min"], cfg["alpha_max"], cfg["step"]
    if not (0 < a0 < a1 < math.inf and 0 < step < math.inf):
        raise ConfigError("need 0 < alpha-min < alpha-max < inf and "
                          "0 < step < inf")
    count = int(round((a1 - a0) / step))
    grid = [a0 + i * step for i in range(count + 1) if a0 + i * step <= a1 + 1e-12]
    refine = int(cfg["refine_integers"])
    if refine > 0:
        extra = []
        for m in range(math.ceil(a0), math.floor(a1) + 1):
            for level in range(1, refine + 1):
                off = 10.0 ** (-1 - 2 * level)  # 1e-3, 1e-5, ...
                extra.extend([m - off, m + off])
        grid.extend(a for a in extra if a0 <= a <= a1)
    if not cfg["at_integers"]:
        grid = [a for a in grid if abs(a - round(a)) > 1e-12]
    return sorted(set(grid))


def _sweep_chunk(chunk_kmax):
    chunk, kmax = chunk_kmax
    return alpha_sweep(chunk, kmax)


def _fork_map(fn, items):
    """[fn(item) for item in items], each call in a child forked from this
    process, which only waits. Each child pickles its result, or the type
    and message of the exception it raised, back through a pipe; they are
    read in item order, so the exception raised here is the one a serial
    run would raise. A child that ends without its result is a
    SpectrumError."""
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
                raise SpectrumError(f"sweep worker {i + 1} of {len(items)} "
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
        # after a failed chunk or an interrupt: stop and reap the rest
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_sweep(args):
    cfg = _effective(args, _SWEEP_DEFAULTS)
    grid = _sweep_grid(cfg)
    jobs = _jobs(args)
    kmax = int(cfg["kmax"])
    if jobs > 1 and len(grid) > 2 * jobs:
        n = len(grid)
        chunks = [grid[i * n // jobs:(i + 1) * n // jobs] for i in range(jobs)]
        parts = _fork_map(_sweep_chunk, [(c, kmax) for c in chunks])
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

_SIM_DEFAULTS = {"alpha": None, "preset": "sine:1", "T": 4.0, "dt": 5e-4,
                 "N": 2000, "project": False, "snapshots": 21,
                 "energy_out": None}


def _write_snapshots(run, out):
    # joined per snapshot, so that one snapshot's rows are held at a time
    parts = [f"# singwave v1, alpha={run.alpha}, N={run.grid.N}, "
             f"dt={run.dt}\n"]
    xs = [f"{xi:.10g}" for xi in run.grid.nodes.tolist()]
    for t, state in zip(run.snapshot_times, run.snapshots):
        ts = f"{t:.10g}"
        rows = [f"{ts},{xi},{ui:.16g},{vi:.16g}\n" for xi, ui, vi
                in zip(xs, state.u.tolist(), state.v.tolist())]
        parts.append("".join(rows) + "\n")
    _write("".join(parts), out)


def _write_energy(run, out):
    # the csv module's dialect: no field here needs quoting, rows end in \r\n
    rows = ["t,E\r\n"]
    rows += [f"{t:.10g},{e:.16g}\r\n" for t, e
             in zip(run.trace.times.tolist(), run.trace.energies.tolist())]
    _write("".join(rows), out)


def cmd_simulate(args):
    cfg = _effective(args, _SIM_DEFAULTS)
    alpha = _positive_alpha(cfg)
    if cfg["project"]:
        n = _mode_count(alpha, "--project requires")
    data = make_initial_data(cfg["preset"], alpha)
    if cfg["project"]:
        data = project_out(data, n)
    run = simulate(alpha, data, float(cfg["T"]), float(cfg["dt"]),
                   N=int(cfg["N"]), n_snapshots=int(cfg["snapshots"]))
    _write_snapshots(run, args.out)
    if cfg["energy_out"]:
        _write_energy(run, cfg["energy_out"])


# -------------------------------------------------------------- extinction

_EXT_DEFAULTS = {"alpha": None, "preset": "sine:1", "project": False,
                 "threshold": 1e-2, "dt": 5e-4, "N": 2000,
                 "allow_noninteger": False}


def cmd_extinction(args):
    cfg = _effective(args, _EXT_DEFAULTS)
    alpha = _positive_alpha(cfg)
    n = integer_n(alpha)
    integer = n is not None
    if not integer and not cfg["allow_noninteger"]:
        raise ConfigError("extinction study expects integer alpha; "
                          "pass --allow-noninteger to override")
    if cfg["project"]:
        _mode_count(alpha, "--project requires")
    data = make_initial_data(cfg["preset"], alpha)
    report = {"alpha": alpha, "preset": cfg["preset"],
              "projected": bool(cfg["project"])}
    if integer and n >= 1:
        report["projection_condition"] = list(projection_condition(data, n))
    if cfg["project"]:
        data = project_out(data, n)

    # refinement trend over three grid levels
    base_N, base_dt = int(cfg["N"]), float(cfg["dt"])
    levels = [(base_N // 4, base_dt * 4), (base_N // 2, base_dt * 2),
              (base_N, base_dt)]
    trend = []
    run = None
    for N_l, dt_l in levels:
        run = simulate(alpha, data, 4.0, dt_l, N=N_l)
        tr = run.trace
        idx = int(np.searchsorted(tr.times, 2.2))
        if idx == len(tr.times):
            raise ConfigError(f"refinement level dt={dt_l} has no time "
                              f"sample at t >= 2.2; use a smaller --dt")
        trend.append({"N": N_l, "dt": dt_l,
                      "residual_ratio": tr.energies[idx] / tr.energies[0]})
    report["refinement_trend"] = trend
    t_star = extinction_time(run, float(cfg["threshold"]))
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

_VERIFY_DEFAULTS = {"check": "all", "trials": 200, "seed": 0, "nmax": 20}


def cmd_verify(args):
    cfg = _effective(args, _VERIFY_DEFAULTS)
    results = verify_mod.run_all(int(cfg["seed"]), int(cfg["trials"]),
                                 int(cfg["nmax"]), check=cfg["check"])
    all_ok = all(r["passed"] for r in results.values())
    md = _metadata(cfg, seed=int(cfg["seed"]))
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

def _add_common(sub):
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--out", default=None, help="output path ('-' = stdout)")
    sub.add_argument("--config", default=None,
                     help="key=value or JSON config file")
    sub.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: $SINGWAVE_JOBS or 1)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="singwave",
        description="Spectra and dynamics of the wave equation with "
                    "singular damping 2*alpha/x on (0,1)")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="eigenvalues for one alpha")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--radius", type=float)
    _add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sw = subs.add_parser(
        "sweep", help="eigenvalue trajectories over alpha",
        description="Eigenvalues over an alpha grid. trajectory_id names "
                    "each row from its own alpha: real:<r> is the r-th real "
                    "root from the right, upper:<m>:<k> and lower:<m>:<k> "
                    "pair k with m = floor(alpha). Output is the same for "
                    "every --jobs.")
    sw.add_argument("--alpha-min", dest="alpha_min", type=float)
    sw.add_argument("--alpha-max", dest="alpha_max", type=float)
    sw.add_argument("--step", type=float)
    sw.add_argument("--kmax", type=int)
    sw.add_argument("--at-integers", dest="at_integers", action="store_const",
                    const=True, default=None)
    sw.add_argument("--refine-integers", dest="refine_integers", type=int,
                    help="extra grid levels at 1e-3, 1e-5, ... of integers")
    _add_common(sw)
    sw.set_defaults(func=cmd_sweep)

    sm = subs.add_parser("simulate", help="time-domain simulation")
    sm.add_argument("--alpha", type=float)
    sm.add_argument("--preset", help="sine:m | bump | mode:k | file:<path>")
    sm.add_argument("--T", type=float)
    sm.add_argument("--dt", type=float)
    sm.add_argument("--N", type=int)
    sm.add_argument("--project", action="store_const", const=True,
                    default=None)
    sm.add_argument("--snapshots", type=int)
    sm.add_argument("--energy-out", dest="energy_out")
    _add_common(sm)
    sm.set_defaults(func=cmd_simulate)

    ex = subs.add_parser("extinction", help="finite-time extinction study")
    ex.add_argument("--alpha", type=float)
    ex.add_argument("--preset")
    ex.add_argument("--project", action="store_const", const=True,
                    default=None)
    ex.add_argument("--threshold", type=float)
    ex.add_argument("--dt", type=float)
    ex.add_argument("--N", type=int)
    ex.add_argument("--allow-noninteger", dest="allow_noninteger",
                    action="store_const", const=True, default=None)
    _add_common(ex)
    ex.set_defaults(func=cmd_extinction)

    vf = subs.add_parser("verify", help="inequality verification suite")
    vf.add_argument("--check", choices=["all", *verify_mod.CHECKS])
    vf.add_argument("--trials", type=int)
    vf.add_argument("--seed", type=int)
    vf.add_argument("--nmax", type=int)
    _add_common(vf)
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        return EXIT_OK if code is None else code
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"singwave: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpectrumError, LaplaceError, EvolutionError,
            SpecialFunctionError) as exc:
        print(f"singwave: computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
