"""numpy kernels behind specfun's lockstep Kummer series and large-argument
expansion: blocks of terms of a series for every element at once, in plain
numpy complex arithmetic.

The kernels form the scalar loops' terms, sums and moduli, but numpy's
complex operations need not round as CPython's do. So the results are held
to the scalar evaluators' accuracy contract, not to their bits: they agree
with them to rounding, which the sums' error estimates already count.
"""

from __future__ import annotations

import numpy as np

# terms per block
BLOCK = 16


def block(cs, z, terms, accs, op=np.multiply):
    """Terms 1, 2, ... of a block of a series into terms[1:] and the sums
    into accs[1:], complex arrays whose row 0 holds the term and the sum
    before the block: term j + 1 is term j times cs[j], then op'd with z
    (times z, or with op=np.divide divided by it). cs[j] is a float or a
    float row. Returns the moduli of the terms and of the sums."""
    for j, c in enumerate(cs):
        t = np.multiply(terms[j], c, out=terms[j + 1])
        op(t, z, out=t)
        np.add(accs[j], t, out=accs[j + 1])
    return np.abs(terms[1:]), np.abs(accs)


def asym_sum(p, q, w, tol):
    """specfun._asym_sum(p[i], q[i], w[i], tol) for every i in lockstep:
    the best sums and their error estimates.

    The terms come from block, divided by w. The optimal-truncation rule is
    then read off each block at once: the best |term| so far is a running
    minimum, and the largest |sum| a running maximum, each skipping a NaN as
    the scalar comparison does; the best sum is the one at the term where
    that minimum was last lowered (each lowering is strict).
    """
    m = w.size
    # the scalar's term budget, raising as it does on a non-finite |w|
    budget = np.array([int(x) + 40.0 for x in np.abs(w).tolist()])
    sums, tails = np.empty(m, dtype=complex), np.empty(m)
    idx = np.arange(m)
    term, acc = np.ones(m, dtype=complex), np.ones(m, dtype=complex)
    best_acc, best_mag, max_mag = acc.copy(), np.ones(m), np.ones(m)
    k = 0
    while idx.size:
        n = idx.size
        s = np.arange(k, k + BLOCK, dtype=float)[:, None]
        cs = (p + s) * (q + s) / (s + 1.0)
        terms = np.empty((BLOCK + 1, n), dtype=complex)
        accs = np.empty((BLOCK + 1, n), dtype=complex)
        terms[0], accs[0] = term, acc  # accs[j]: the sum before term j
        mags, acc_mags = block(cs, w, terms, accs, np.divide)
        best = np.fmin.accumulate(np.concatenate([best_mag[None], mags]),
                                  axis=0)  # best[j]: before term j
        better = mags < best[:-1]
        stop = ((better & (mags < tol * acc_mags[1:]))
                | (~better & (1e6 * best[:-1] < mags)) | (budget <= s + 1.0))
        hit = stop.any(axis=0)
        stop[-1] = True  # a column that runs on ends the block at its end
        last = stop.argmax(axis=0)
        best_mag = best[last + 1, np.arange(n)]
        max_mag = np.fmax.accumulate(np.concatenate(
            [max_mag[None], acc_mags[1:]]), axis=0)[last + 1, np.arange(n)]
        lowered = better & (mags == best_mag)
        cols = np.flatnonzero(lowered.any(axis=0))
        best_acc[cols] = accs[lowered[:, cols].argmax(axis=0) + 1, cols]
        fin = np.flatnonzero(hit)
        sums[idx[fin]] = best_acc[fin]
        tails[idx[fin]] = best_mag[fin] + 2.3e-16 * max_mag[fin]
        keep = ~hit
        idx, p, q, w = idx[keep], p[keep], q[keep], w[keep]
        budget, term, acc = budget[keep], terms[-1][keep], accs[-1][keep]
        best_acc, best_mag = best_acc[keep], best_mag[keep]
        max_mag = max_mag[keep]
        k += BLOCK
    return sums, tails
