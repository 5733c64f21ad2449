"""Audited spectra over a fixed grid of alpha at kmax 3, 5 and 20.

The grid holds 203 alphas: 0.05 to 6.95 in steps of 0.05, plus m +- 10^-u
for m = 1..4 and u in {1, 3, 5, 7, 9, 10, 11, 12, 13}, the near-integer
alphas where collocation misses pairs. Each alpha is solved by
find_eigenvalues with the audit at each kmax, 609 solves in all. The
script prints the failures per kmax and the wall time; --json writes every
solve's labels, values (as float.hex) and residuals, or its error, so that
the records of two checkouts can be diffed. --max-failures fails the run
(exit 1) when some kmax has more failures than given.

    python tools/spectrum_grid.py [--json grid.json] [--max-failures 3 19 64]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from singwave.specfun import ConvergenceError  # noqa: E402
from singwave.spectrum import (SpectralProblem, SpectrumError,  # noqa: E402
                               find_eigenvalues)

KMAX = (3, 5, 20)


def grid_alphas():
    """The 203 alphas in ascending order."""
    alphas = {round(0.05 * k, 2) for k in range(1, 140)}
    alphas.update(m + s * 10.0 ** -u for m in range(1, 5) for s in (1, -1)
                  for u in (1, 3, 5, 7, 9, 10, 11, 12, 13))
    return sorted(alphas)


def solve(alpha, kmax):
    """One audited solve as a JSON-ready record."""
    record = {"alpha": alpha.hex(), "kmax": kmax}
    try:
        evs = find_eigenvalues(SpectralProblem(alpha), kmax)
    except (SpectrumError, ConvergenceError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["eigenvalues"] = [
        [ev.index, ev.branch, ev.seed_source, ev.value.real.hex(),
         ev.value.imag.hex(), ev.residual.hex()] for ev in evs]
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="write every solve's record here")
    ap.add_argument("--max-failures", type=int, nargs=len(KMAX),
                    metavar="N", help="the most failures allowed at kmax "
                    + ", ".join(map(str, KMAX)))
    args = ap.parse_args(argv)

    alphas = grid_alphas()
    records, failures = [], []
    t0 = time.perf_counter()
    for kmax in KMAX:
        done = [solve(alpha, kmax) for alpha in alphas]
        records += done
        failures.append(sum("error" in r for r in done))
        print(f"kmax {kmax:2d}: {failures[-1]} failures of {len(alphas)}")
    print(f"wall time {time.perf_counter() - t0:.1f} s")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=0)
    if args.max_failures and any(
            f > m for f, m in zip(failures, args.max_failures)):
        print(f"more failures than {args.max_failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
