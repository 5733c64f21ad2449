"""numpy kernels that redo CPython's scalar complex arithmetic over arrays,
bit for bit: the blocks of terms behind specfun's lockstep Kummer series
and large-argument expansion.

Each kernel forms a block of BLOCK terms of a series for every element at
once, with the same operations in the same order as the scalar loop, so
that every partial sum and every modulus has the scalar's bits.
"""

from __future__ import annotations

import numpy as np

# terms per block
BLOCK = 16


def block_real(cs, z, terms, accs):
    """Terms 1, 2, ... of a block of a series on real z into terms[1:] and
    the sums into accs[1:], as complex arrays, term j + 1 being term j
    times cs[j] + 0j times z. With zero imaginary parts the real part of
    each numpy product is the scalar series' one rounding; the imaginary
    parts of the terms differ at most in the sign of a zero, so those of
    the sums stay +0; and numpy's complex abs is |x|, as hypot is. Costs
    half of block_split on the real-axis scan. Returns the real and
    imaginary parts of the sums and the moduli of the terms and of the
    sums."""
    for j, c in enumerate(cs):
        np.multiply(terms[j], c, out=terms[j + 1])
        np.multiply(terms[j + 1], z, out=terms[j + 1])
        np.add(accs[j], terms[j + 1], out=accs[j + 1])
    return accs.real, accs.imag, np.abs(terms[1:]), np.abs(accs)


def block_split(cs, f, g, d, terms, accs):
    """Terms 1, 2, ... of a block into terms[1:] and the sums into
    accs[1:], as float rows (re, im, re) and (re, im), term j + 1 being
    term j times cs[j] + 0j, then times z, given as f = (Re z, Re z) and
    g = (-Im z, Im z), or, with d, divided by w as below. Returns what
    block_real returns.

    Each product is formed as CPython forms it: re = xr zr - xi zi and
    im = xr zi + xi zr. Rows 0:2 and 1:3 of (re, im, re) pair each part
    with the other; x - y is x + (-y) exactly, so the signs go into the
    second factor and each complex product is two products and a sum of
    rows. A quotient is CPython's _Py_c_quot, which divides through by the
    larger part of w: with that part's ratio and the denominator d, x / w
    is ((xr X + xi Y) / d, (xi X - xr Y) / d), where (X, Y) is (1, ratio)
    or (ratio, 1), a factor 1 being exact; so f = (X, X) and g = (Y, -Y).
    Moduli come from np.hypot, the hypot that abs() uses.
    """
    m = terms.shape[-1]
    prod = np.empty((3, m))
    p_lo, p_hi = prod[:2], prod[1:]
    tmp = np.empty((2, m))
    zero2 = np.array([[-0.0], [0.0]])
    for j, c in enumerate(cs):
        t, t_new = terms[j], terms[j + 1]
        # term * (c + 0j)
        np.multiply(t[:2], c, out=p_lo)
        np.multiply(t[1:], zero2, out=tmp)
        np.add(p_lo, tmp, out=p_lo)
        prod[2] = prod[0]
        # ... * z, or / w
        t_lo = t_new[:2]
        np.multiply(p_lo, f, out=t_lo)
        np.multiply(p_hi, g, out=tmp)
        np.add(t_lo, tmp, out=t_lo)
        if d is not None:
            np.divide(t_lo, d, out=t_lo)
        t_new[2] = t_new[0]
        np.add(accs[j], t_lo, out=accs[j + 1])
    ar, ai = accs[:, 0], accs[:, 1]
    return (ar, ai, np.hypot(terms[1:, 0], terms[1:, 1]), np.hypot(ar, ai))


def asym_sum(p, q, w, tol):
    """specfun._asym_sum(p[i], q[i], w[i], tol) for every i in lockstep,
    bit for bit: the best sums and their error estimates.

    The terms come from block_split, divided by w. The optimal-truncation
    rule is then read off each block at once: the best |term| so far is a
    running minimum, and the largest |sum| a running maximum, each skipping
    a NaN as the scalar comparison does; the best sum is the one at the
    term where that minimum was last lowered (each lowering is strict).
    """
    m = w.size
    wr, wi = w.real, w.imag
    # the scalar's term budget, raising as it does on a non-finite |w|
    budget = np.array([int(x) + 40.0 for x in np.hypot(wr, wi).tolist()])
    # _Py_c_quot divides through by the larger part of w
    swap = np.flatnonzero(np.abs(wr) < np.abs(wi))
    big, small = wr.copy(), wi.copy()
    big[swap], small[swap] = wi[swap], wr[swap]
    ratio = small / big
    denom = big + small * ratio
    x_fac, y_fac = np.ones(m), ratio.copy()
    x_fac[swap], y_fac[swap] = ratio[swap], 1.0
    xx, yy = np.stack([x_fac, x_fac]), np.stack([y_fac, -y_fac])
    dd = np.stack([denom, denom])
    sums, tails = np.empty(m, dtype=complex), np.empty(m)
    idx = np.arange(m)
    term = np.zeros((3, m))  # rows re, im, re
    term[0] = term[2] = 1.0
    acc = term[:2].copy()
    best_acc, best_mag, max_mag = acc.copy(), np.ones(m), np.ones(m)
    k = 0
    while idx.size:
        n = idx.size
        s = np.arange(k, k + BLOCK, dtype=float)[:, None]
        cs = (p + s) * (q + s) / (s + 1.0) + 0.0
        terms = np.empty((BLOCK + 1, 3, n))
        accs = np.empty((BLOCK + 1, 2, n))
        terms[0], accs[0] = term, acc  # accs[j]: the sum before term j
        _ar, _ai, mags, acc_mags = block_split(cs, xx, yy, dd, terms, accs)
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
        best_acc[:, cols] = accs[lowered[:, cols].argmax(axis=0) + 1, :,
                                 cols].T
        fin = np.flatnonzero(hit)
        sums.real[idx[fin]], sums.imag[idx[fin]] = best_acc[:, fin]
        tails[idx[fin]] = best_mag[fin] + 2.3e-16 * max_mag[fin]
        keep = ~hit
        idx, p, q, budget = idx[keep], p[keep], q[keep], budget[keep]
        xx, yy, dd = xx[:, keep], yy[:, keep], dd[:, keep]
        term, acc = terms[-1][:, keep], accs[-1][:, keep]
        best_acc, best_mag = best_acc[:, keep], best_mag[keep]
        max_mag = max_mag[keep]
        k += BLOCK
    return sums, tails
