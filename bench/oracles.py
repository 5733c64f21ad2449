"""Independent checks of each job's output, run outside the timed region.

Nothing here imports singwave. Eigenvalues are tested with mpmath's
`hyp1f1` at 30 digits, counts against the theory, sweeps against the grid
the subcommand documents, simulations against energy monotonicity,
extinction studies against the theory at integer alpha, the Laplace
transform against its resolvent equation with closed-form sine data, and the
tail against the wave equation itself.

Every check returns a list of problems; an empty list is a pass. A check
that cannot read its output reports that as a problem instead of raising.
"""

from __future__ import annotations

import csv
import json
import math

import mpmath as mp
import numpy as np

NEWTON_RTOL = 1e-8
ENERGY_RTOL = 1e-10  # per-step increase allowed, as a share of E(0)
RESOLVENT_RTOL = 1e-4
ALPHA1_ATOL = 1e-8
TAIL_PDE_RTOL = 1e-3
TAIL_PROJECTED_RTOL = 1e-8  # projected tail, as a share of the plain one


def newton_step(alpha, lam):
    """|F/F'| for F(lambda) = M(1 - alpha, 2, -2 lambda) at 30 digits."""
    with mp.workdps(30):
        a = 1 - mp.mpf(alpha)
        z = -2 * mp.mpc(lam)
        # an exact zero (integer alpha: a terminating series) cannot be
        # had to relative accuracy; zeroprec accepts it as zero
        f = mp.hyp1f1(a, 2, z, zeroprec=400)
        df = -2 * (a / 2) * mp.hyp1f1(a + 1, 3, z, zeroprec=400)
        if df == 0:
            return math.inf
        return float(abs(f / df))


def expected_real_count(alpha):
    """ceil(alpha - 1) real eigenvalues; n at alpha = n + 1; none below 1."""
    if alpha == round(alpha):
        return int(alpha) - 1
    return max(0, math.ceil(alpha - 1.0))


def _eigen_problems(alpha, kmax, values, tag):
    problems = []
    real = [v for b, v in values if b == "real"]
    upper = [v for b, v in values if b == "upper"]
    lower = [v for b, v in values if b == "lower"]
    want_real = expected_real_count(alpha)
    want_pairs = 0 if alpha == round(alpha) else kmax
    if len(real) != want_real:
        problems.append(f"{tag}: {len(real)} real eigenvalues, "
                        f"expected {want_real}")
    if len(upper) != want_pairs or len(lower) != want_pairs:
        problems.append(f"{tag}: {len(upper)}/{len(lower)} upper/lower "
                        f"eigenvalues, expected {want_pairs} pairs")
    for lam in upper:
        if not any(abs(lam.conjugate() - o) <= 1e-12 * (1 + abs(lam))
                   for o in lower):
            problems.append(f"{tag}: {lam} has no conjugate partner")
    lams = [v for _, v in values]
    for i, lam in enumerate(lams):
        if lam.real >= 0:
            problems.append(f"{tag}: Re({lam}) >= 0")
        step = newton_step(alpha, lam)
        if not step < NEWTON_RTOL * (1 + abs(lam)):
            problems.append(f"{tag}: Newton step {step:.3g} at {lam}")
        if any(abs(lam - o) <= 1e-10 * (1 + abs(lam)) for o in lams[:i]):
            problems.append(f"{tag}: duplicate eigenvalue {lam}")
    return problems


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_spectrum(path, check):
    rows = _read_csv(path)
    values = [(r["branch"], complex(float(r["re"]), float(r["im"])))
              for r in rows]
    return _eigen_problems(check["alpha"], check["kmax"], values,
                           f"alpha={check['alpha']!r}")


def check_sweep(path, check, outputs):
    rows = _read_csv(path)
    problems = []
    if check.get("same_as"):
        serial_path = outputs[check["same_as"]]
        with open(path, "rb") as fh:
            mine = fh.read()
        with open(serial_path, "rb") as fh:
            serial = fh.read()
        if mine != serial:
            ids = {r["trajectory_id"] for r in rows}
            ref = {r["trajectory_id"] for r in _read_csv(serial_path)}
            problems.append(f"--jobs output differs from the serial run "
                            f"({len(ids)} trajectory ids against {len(ref)})")
        return problems
    by_alpha = {}
    for r in rows:
        by_alpha.setdefault(float(r["alpha"]), []).append(
            (r["branch"], complex(float(r["re"]), float(r["im"]))))
    for a in check["grid"]:
        hit = [k for k in by_alpha if abs(k - a) <= 1e-12 * max(1.0, a)]
        if not hit:
            problems.append(f"sweep grid point alpha={a!r} missing")
            continue
        problems += _eigen_problems(a, check["kmax"], by_alpha[hit[0]],
                                    f"sweep alpha={a!r}")
    extra = [k for k in by_alpha
             if not any(abs(k - a) <= 1e-12 * max(1.0, a)
                        for a in check["grid"])]
    if extra:
        problems.append(f"sweep rows at alpha values off the grid: {extra}")
    return problems


def check_simulate(snap_path, energy_path):
    problems = []
    with open(energy_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    e = np.array([float(r["E"]) for r in rows])
    if len(e) < 2 or not np.all(np.isfinite(e)):
        return [f"energy trace unreadable or non-finite ({len(e)} rows)"]
    rise = np.max(np.diff(e)) / e[0] if e[0] > 0 else 0.0
    if rise > ENERGY_RTOL:
        problems.append(f"energy increased by {rise:.3g}*E(0)")
    with open(snap_path) as fh:
        text = fh.read()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    header = blocks[0].splitlines()[0] if blocks else ""
    if not header.startswith("# singwave"):
        problems.append("snapshot file has no header")
    values = [v for line in text.splitlines()
              if line and not line.startswith("#")
              for v in line.split(",")]
    if not values or not all(math.isfinite(float(v)) for v in values):
        problems.append("snapshot file has non-finite or no values")
    return problems


def check_extinction(path, check):
    with open(path) as fh:
        report = json.load(fh)["report"]
    problems = []
    if len(report.get("refinement_trend", [])) != 3:
        problems.append("extinction report lacks the three-level trend")
    # theory: extinction for t > 2 once the data are orthogonal to the
    # adjoint modes; at alpha = 1 there are none, so always
    if (check["project"] or check["alpha"] == 1.0) and not report["extinct"]:
        problems.append(f"alpha={check['alpha']} "
                        f"{'projected ' if check['project'] else ''}"
                        f"run reports no extinction")
    return problems


def check_verify(path):
    with open(path) as fh:
        rows = json.load(fh)["rows"]
    failed = [r["check"] for r in rows if not r["passed"]]
    problems = [f"verify check {name} failed" for name in failed]
    if {r["check"] for r in rows} != {"hardy", "resolvent", "gupta",
                                      "pairing"}:
        problems.append("verify did not run all four checks")
    return problems


def _sine(m, x):
    return np.sin(m * np.pi * x)


def check_laplace(path, check):
    out = np.load(path)
    fn, m = check["fn"], check["m"]
    if fn == "solve_laplace_U":
        n, tau = check["n"], complex(check["tau_re"], check["tau_im"])
        x, U = out["x"], out["U"]
        h = x[1] - x[0]
        u0 = _sine(m, x)
        r = tau * u0 + 2.0 * (n + 1) * u0 / x
        Ufull = np.concatenate([[0], U, [0]])
        Upp = (Ufull[:-2] - 2 * Ufull[1:-1] + Ufull[2:]) / h ** 2
        resid = -Upp + tau ** 2 * U + (2 * (n + 1) * tau / x) * U - r
        ratio = np.linalg.norm(resid) / np.linalg.norm(r)
        return [] if ratio < RESOLVENT_RTOL else [
            f"resolvent residual {ratio:.3g} (n={n}, tau={tau})"]
    if fn == "laplace_U_alpha1":
        gap = np.max(np.abs(out["direct"] - out["assembled"])
                     / (1 + np.abs(out["direct"])))
        return [] if gap < ALPHA1_ATOL else [
            f"laplace_U_alpha1 and solve_laplace_U(n=0) differ by {gap:.3g}"]
    # tail_u2: a sum of standing waves, so it must solve
    # u_tt + (2 alpha / x) u_t = u_xx; projected data leave no tail
    n, dt = check["n"], float(out["dt"])
    x, (um, u, up) = out["x"], out["tails"]
    alpha = n + 1
    h = x[1] - x[0]
    u_t = (up - um) / (2 * dt)
    u_tt = (up - 2 * u + um) / dt ** 2
    u_xx = (u[:-2] - 2 * u[1:-1] + u[2:]) / h ** 2
    xi = x[1:-1]
    resid = u_tt[1:-1] + (2 * alpha / xi) * u_t[1:-1] - u_xx
    keep = xi >= 0.05
    scale = np.max(np.abs(u_xx[keep])) + np.max(np.abs(u_tt))
    problems = []
    if not np.max(np.abs(resid[keep])) <= TAIL_PDE_RTOL * scale:
        problems.append(f"tail_u2 misses the wave equation by "
                        f"{np.max(np.abs(resid[keep])) / scale:.3g}")
    if not np.max(np.abs(out["projected"])) \
            <= TAIL_PROJECTED_RTOL * np.max(np.abs(u)):
        problems.append("tail_u2 of projected data is not zero")
    return problems


def check_job(job, paths):
    """Problems with one job's output; paths maps job id -> main output."""
    cmd, check, path = job["cmd"], job["check"], paths[job["id"]]
    try:
        if cmd == "spectrum":
            return check_spectrum(path, check)
        if cmd == "sweep":
            return check_sweep(path, check, paths)
        if cmd == "simulate":
            return check_simulate(path,
                                  path[:-len(".snap")] + ".energy.csv")
        if cmd == "extinction":
            return check_extinction(path, check)
        if cmd == "verify":
            return check_verify(path)
        if cmd == "laplace":
            return check_laplace(path, job["call"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
    return [f"no oracle for {cmd!r}"]
