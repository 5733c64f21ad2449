"""Complex special functions used throughout the package.

Provides the regular confluent hypergeometric function M(a, b, z), associated
Laguerre polynomials and the exponential integral E1 on the whole cut
plane.

All functions are pure and reentrant.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import lockstep

EULER_GAMMA = 0.57721566490153286061

# Series truncation: stop when |term| < _SERIES_RTOL * |sum| for
# _SERIES_RUN consecutive terms.
_SERIES_RTOL = 1e-17
_SERIES_RUN = 3
_SERIES_MAX_TERMS = 10_000

# Below this real part the raw Kummer series alternates destructively;
# switch to M(a,b,z) = e^z M(b-a,b,-z).
_KUMMER_TRANSFORM_RE = -1.0

# |z| at and beyond which the large-argument expansion reaches ~1e-13.
_ASYMPTOTIC_MIN_ABS = 34.0
# at the phase grade the expansion's sums stop at a term below this times
# rtol |sum|
_ASYM_PHASE_STOP = 1e-3

# Cancellation budget: accept the double-precision series only if the
# estimated rounding error stays below this relative level. The value grade,
# _CANCEL_RTOL, is the default, for values; the phase grade, _PHASE_RTOL,
# bounds the phase error by about 1e-8 rad, which is all an
# argument-principle walk reads, and Newton takes it with an absolute
# bound that places the root.
_CANCEL_RTOL = 1e-13
_PHASE_RTOL = 1e-8

# kummer_m_array's lockstep regimes: sums per call (a block holds chunk x
# lockstep.BLOCK sums)
_LOCKSTEP_CHUNK = 1024
# below this many elements the scalar expansion one by one costs less than
# the lockstep one, whose blocks have a fixed cost (break-even ~70 at the
# phase grade)
_ASYM_LOCKSTEP_MIN = 64

# _kummer_series_exact: the relative error bound it certifies before it
# rounds to double, and the bits its first pass adds to the error bound's
# and these 54, so that |M| down to about 2^-80 is certified in one pass
_EXACT_RTOL = 2.0 ** -54
_EXACT_GUARD_BITS = 80
# the bound's float arithmetic is rounded up by this factor a step, more
# than its own rounding: under 2^-50 a step, and 10,000 * 2^-53 over a sum
_EXACT_UP = 1.0 + 2.0 ** -32

# above this |z| mpmath's hyp1f1 costs less than the exact series: next to
# zeros of M(1 - alpha, 2, z) the two took the same ~1 ms at |z| ~ 155 (2 ms
# against 1 ms at 250, 4.5 against 0.9 at 500; 2-vCPU Xeon, Python 3.11)
_EXACT_MAX_ABS = 150.0

# E1 by its power series (DLMF 6.6.2) at |z| <= _E1_SWITCH_ABS, and left of
# the imaginary axis also where the series cancels by at most
# e^_E1_SERIES_CANCEL: its terms reach about e^|z| against |E1| ~ e^-Re z.
# The continued fraction (DLMF 6.9.1) everywhere else
_E1_SWITCH_ABS = 2.0
_E1_SERIES_CANCEL = 4.0
# the series on the negative real axis needs about 1.3|z| terms: 1,000
# reach |z| = 709, where e^|z| leaves the float range
_E1_MAX_ITER = 1000


class ConvergenceError(Exception):
    """Series or continued fraction did not converge within the budget."""

    def __init__(self, message, z, terms):
        detail = f"|z|={abs(z):.6g}"
        if terms is not None:
            detail += f", terms={terms}"
        super().__init__(f"{message} ({detail})")
        self.z = z
        self.terms = terms


def _recip_gamma(x):
    """1/Gamma(x) for real x, zero at the poles."""
    if x <= 0 and x == int(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _kummer_series_double(a, b, z):
    """Double-precision power series. Returns (value, max |partial sum|, terms)."""
    term = 1.0 + 0.0j
    acc = term
    max_mag = 1.0
    small_run = 0
    for k in range(_SERIES_MAX_TERMS):
        term = term * ((a + k) / ((b + k) * (k + 1.0))) * z
        if term == 0:  # terminating series (a a non-positive integer)
            return acc, max_mag, k + 1
        acc += term
        try:  # abs() raises past the float range, where np.hypot gives inf
            mag = abs(acc)
        except OverflowError:
            mag = math.inf
        if mag > max_mag:
            max_mag = mag
        try:
            term_mag = abs(term)
        except OverflowError:
            term_mag = math.inf
        if term_mag < _SERIES_RTOL * max(mag, 1e-300):
            small_run += 1
            if small_run >= _SERIES_RUN:
                return acc, max_mag, k + 1
        else:
            small_run = 0
    raise ConvergenceError("Kummer series did not converge", z, _SERIES_MAX_TERMS)


def _kummer_series_highprec(a, b, z):
    """M(a, b, z) where no double-precision regime meets the bound: near
    zeros of M, and in the cancellation window at large |Im z|.

    The power series summed exactly in fixed point (_kummer_series_exact)
    up to |z| = _EXACT_MAX_ABS; mpmath's hyp1f1 (_hyp1f1) beyond it, and
    where the value leaves the float range. Either value meets both grades.
    """
    if abs(z) <= _EXACT_MAX_ABS:
        try:
            return _kummer_series_exact(a, b, z)
        except OverflowError:
            pass
    return _hyp1f1(a, b, z)


def _hyp1f1(a, b, z):
    """mpmath's hyp1f1 at 53 bits, whatever the caller's mpmath precision,
    as a complex. zeroprec (1.5|z| + 93 bits) lets an exact zero, such as a
    terminating series at its root, come back as 0 instead of raising."""
    import mpmath as mp

    try:
        with mp.workprec(53):
            return complex(mp.hyp1f1(a, b, z,
                                     zeroprec=int(1.5 * abs(z)) + 93))
    except (ValueError, mp.NoConvergence) as exc:
        raise ConvergenceError(f"mpmath hyp1f1 did not converge: {exc}",
                               z, None) from exc


def _kummer_series_exact(a, b, z):
    """M(a, b, z) by its power series summed exactly in Gaussian-integer
    fixed point, certified within _EXACT_RTOL |M| and then rounded once:
    within 2^-54 + 2^-53 < eps of |M|.

    In units of 2^-p, each term is the last times exact integers, floored
    once per part (_fixed_point_sum); _fixed_point_bound gives the number
    of terms and a bound on the sum's error. p rises until the bound is
    within _EXACT_RTOL of |sum|. Where the sum is certified below
    2^-zeroprec, zeroprec = 1.5|z| + 93 bits (_hyp1f1's), M is taken as 0,
    as mpmath's zeroprec does: M(-1, 2, 2) = 0. Raises OverflowError past
    the float range.
    """
    zeroprec = int(1.5 * abs(z)) + 93
    terms, err, p = _fixed_point_bound(a, b, z)
    while True:
        re, im = _fixed_point_sum(a, b, z, p, terms)
        # |sum| / 2^shift from its leading bits: a relative 2^-50 and
        # 1.5 for the floored shift
        shift = max(0, max(re.bit_length(), im.bit_length()) - 64)
        mod = math.hypot(re >> shift, im >> shift)
        low = mod * (1.0 - 2.0 ** -50) - 1.5
        high = mod * (1.0 + 2.0 ** -50) + 1.5
        err_s = math.ldexp(err, -shift)
        if low - err_s >= err_s / _EXACT_RTOL:
            one = 1 << p
            return complex(re / one, im / one)
        if high + err_s < math.ldexp(1.0, p - zeroprec - shift):
            return 0j
        if low > err_s:
            # |M| is known: enough bits to certify it, and 16 to spare
            p += math.frexp(err_s / _EXACT_RTOL / (low - err_s))[1] + 16
        else:
            # from zeroprec + 58 bits more than err's, M is either
            # certified or below 2^-zeroprec
            p = max(p + 64, zeroprec + math.frexp(err)[1] + 58)
        terms, err, p = _fixed_point_bound(a, b, z, p)


def _fixed_point_bound(a, b, z, p=None):
    """For _fixed_point_sum at precision p: (terms, err, p), the number of
    terms after the first that leaves a tail below 1/4 unit of 2^-p, and
    err, the bound on the sum's error in those units.

    A term's error is under sqrt(2) units (one floor per part) plus the
    last term's error times their ratio |(a + k) z / ((b + k)(k + 1))|, so
    err depends on p only through the number of terms. The tail past term
    k is below |term k| rho / (1 - rho) once a + k >= 0 < b + k, where
    rho = max(1, (a + k) / (b + k)) |z| / (k + 1) bounds every later ratio;
    the sum stops where that is below 1/4 unit. With p None, p is chosen
    once the terms have fallen 2^60 below their peak: err's bits plus 54
    plus _EXACT_GUARD_BITS. Raises OverflowError where the terms or err
    leave the float range.
    """
    abs_z = abs(z)
    e = err = 0.0  # the last term's error bound, and the sum of them
    # |term| (scaled by 2^scale once it falls below 2^-900) and its peak;
    # limit, the scaled |term| at which the tail is 1/4 unit, once p is set
    mag = peak = 1.0
    scale = 0
    limit = -1.0 if p is None else math.ldexp(0.25, -p)
    for k in range(_SERIES_MAX_TERMS):
        if p is None and mag < 2.0 ** -60 * peak:
            p = math.frexp(err)[1] + 54 + _EXACT_GUARD_BITS
            limit = math.ldexp(0.25, scale - p)
        if (mag <= limit and a + k >= 0 and b + k > 0
                and (max(1.0, (a + k) / (b + k)) * abs_z / (k + 1)
                     * _EXACT_UP <= 0.49)):
            return k, (err + 0.25) * _EXACT_UP, p
        if a + k == 0 or abs_z == 0:
            # the series terminates: every later term is exactly 0
            if p is None:
                p = math.frexp(err)[1] + 54 + _EXACT_GUARD_BITS
            return k, err, p
        ratio = abs(a + k) * abs_z / (abs(b + k) * (k + 1)) * _EXACT_UP
        e = (ratio * e + 1.4143) * _EXACT_UP
        err += e
        mag *= ratio
        if err + mag == math.inf:
            raise OverflowError("fixed-point series past the float range")
        if mag > peak:
            peak = mag
        elif mag < 2.0 ** -900:
            mag *= 2.0 ** 900
            scale += 900
            if p is not None:
                limit = math.ldexp(0.25, scale - p)
    raise ConvergenceError("Kummer series did not converge", z,
                           _SERIES_MAX_TERMS)


def _fixed_point_sum(a, b, z, p, terms):
    """The integer parts (re, im) of sum_{k <= terms} t_k 2^p, t_k the
    terms of M's series: t_{k+1} = t_k (a + k) z / ((b + k)(k + 1)), formed
    exactly on the dyadic numerators of a, b and z and floored once per
    part."""
    pa, qa = a.as_integer_ratio()
    pb, qb = b.as_integer_ratio()
    xr, dr = z.real.as_integer_ratio()
    xi, di = z.imag.as_integer_ratio()
    qz = max(dr, di)
    zr, zi = xr * (qz // dr), xi * (qz // di)
    # (a + k) z / ((b + k)(k + 1)) = num (zr + i zi) / (den 2^shift), with
    # num = na and den = nb (k + 1) up to sign; qa, qb and qz are powers
    # of 2
    shift = (qa * qz).bit_length() - 1
    na, nb, step = pa * qb, pb, qa * qb
    tr, ti = 1 << p, 0
    re, im = tr, ti
    for k in range(terms):
        num, den = na, nb * (k + 1)
        if den < 0:
            num, den = -num, -den
        nzr, nzi = num * zr, num * zi
        tr, ti = (((tr * nzr - ti * nzi) >> shift) // den,
                  ((tr * nzi + ti * nzr) >> shift) // den)
        re += tr
        im += ti
        na += step
        nb += qb
    return re, im


def _asym_sum(p, q, w, tol):
    """Optimally truncated sum_s (p)_s (q)_s / (s! w^s), stopping early at
    a term below tol |sum|, and its error estimate: the smallest term plus
    the rounding of the partial sums, 2.3e-16 times the largest of their
    moduli, as the series' cancellation estimate counts it.

    The truncation point is the globally smallest term: a Pochhammer factor
    passing near zero makes single terms dip and recover, so a local growth
    test would stop too early.
    """
    term = 1.0 + 0.0j
    acc = term
    best_acc = acc
    best_mag = abs(term)
    max_mag = best_mag
    for s in range(int(abs(w)) + 40):
        term = term * ((p + s) * (q + s) / (s + 1.0)) / w
        acc += term
        mag = abs(term)
        acc_mag = abs(acc)
        if acc_mag > max_mag:
            max_mag = acc_mag
        if mag < best_mag:
            best_mag = mag
            best_acc = acc
            if mag < tol * acc_mag:
                break
        elif mag > 1e6 * best_mag:
            break  # safely inside the divergent tail
    return best_acc, best_mag + 2.3e-16 * max_mag


def _asym_sum_tol(rtol):
    """Where the expansion's sums stop: at _SERIES_RTOL for values, at
    _ASYM_PHASE_STOP rtol at the phase grade, whose error estimate needs no
    more."""
    return _ASYM_PHASE_STOP * rtol if rtol >= _PHASE_RTOL else _SERIES_RTOL


def _asym_value(a, b, z, s1, tail1, s2, tail2):
    """M from the sums of the large-|z| expansion, upper sign for
    Im z >= 0: (value, absolute error estimate), the estimate being the
    sums' error estimates (_asym_sum) scaled by their prefactors. A
    prefactor past the float range (a Gamma function or a power overflows,
    or Gamma underflows to zero) gives no estimate: (nan, inf), which no
    grade accepts, so the element goes on to the next regime or the
    high-precision fallback."""
    eps = 1.0 if z.imag >= 0 else -1.0
    try:
        pref_alg = (cmath.exp(1j * math.pi * a * eps) * z ** (-a)
                    * _recip_gamma(b - a))
        pref_exp = cmath.exp(z) * z ** (a - b) * _recip_gamma(a)
        value = math.gamma(b) * (pref_alg * s1 + pref_exp * s2)
        err = math.gamma(b) * (abs(pref_alg) * tail1 + abs(pref_exp) * tail2)
    except ArithmeticError:  # OverflowError, ZeroDivisionError
        return math.nan, math.inf
    return value, err


def _kummer_asymptotic(a, b, z, rtol):
    """Large-|z| expansion of M at the sum tolerance of rtol's grade:
    (value, absolute error estimate)."""
    tol = _asym_sum_tol(rtol)
    s1, tail1 = _asym_sum(a, a - b + 1.0, -z, tol)
    s2, tail2 = _asym_sum(b - a, 1.0 - a, z, tol)
    return _asym_value(a, b, z, s1, tail1, s2, tail2)


def _near(rtol, abs_z, re_z):
    """Whether z lies short of the large-argument band of rtol's grade,
    from |z| and Re z (floats or arrays): |z| < _ASYMPTOTIC_MIN_ABS, or at
    the phase grade also |z| - Re z <= ln(rtol / 2.3e-16). The series'
    largest partial sum is about e^|z| against |M| ~ e^Re z, so it loses
    about |z| - Re z nats to cancellation: beyond the bound it cannot pass
    the phase grade, and next to the positive real axis it passes at less
    cost than an expansion that fails there for large |b - a| (alpha near
    an integer). Written with the comparisons the lockstep series already
    makes: each numpy routine a pass touches adds its code to the peak
    RSS."""
    near = abs_z < _ASYMPTOTIC_MIN_ABS
    if rtol >= _PHASE_RTOL:
        near = near | (abs_z - re_z <= math.log(rtol / 2.3e-16))
    return near


def _regimes(rtol, far):
    """The double-precision regimes kummer_m tries, in order, at rtol's
    grade, far being not _near(rtol, |z|, Re z): for values the series, then
    the large-argument expansion only where far; at the phase grade the
    expansion alone where far, else the series and then the expansion.
    The high-precision fallback comes only after these."""
    if rtol < _PHASE_RTOL:
        return ("series", "asymptotic") if far else ("series",)
    return ("asymptotic",) if far else ("series", "asymptotic")


def kummer_m(a, b, z, *, rtol=_CANCEL_RTOL, atol=0.0):
    """Kummer's confluent hypergeometric function M(a, b, z).

    a and b real, z complex; b must not be a non-positive integer. Relative
    accuracy ~1e-12 for |z| <= 200 at the default rtol. A double-precision
    result is accepted when its estimated error is at most
    max(rtol |M|, atol): rtol is _CANCEL_RTOL for values, _PHASE_RTOL where
    only the phase is read; atol, for Newton next to a zero, bounds the
    error absolutely. Re z < -1 goes through the Kummer transformation (the
    inner bound atol / |e^z|); then the power series and the large-argument
    expansion are tried in the order that _regimes chooses from the grade
    and z before anything is summed, and with atol > 0 at the phase grade
    the expansion's full sums after them. Where none passes (near zeros of
    M, and in the cancellation window at large |Im z|) the fallback,
    _kummer_series_highprec, sums the power series exactly in fixed point
    (mpmath.hyp1f1 only above |z| = _EXACT_MAX_ABS or past the float
    range), a value exact at both grades. kummer_m_array evaluates the
    same function over a numpy array, at atol = 0.
    """
    if b <= 0 and b == int(b):
        raise ValueError(f"b={b} is a non-positive integer")
    z = complex(z)
    if z.real < _KUMMER_TRANSFORM_RE:
        scale = cmath.exp(z)
        # e^z is 0 from Re z < -745
        inner = atol and (atol / abs(scale) if scale else math.inf)
        return scale * kummer_m(b - a, b, -z, rtol=rtol, atol=inner)
    if a == 0.0:
        return 1.0 + 0.0j
    tries = [(regime, rtol)
             for regime in _regimes(rtol, not _near(rtol, abs(z), z.real))]
    if atol > 0 and rtol >= _PHASE_RTOL and abs(z) >= _ASYMPTOTIC_MIN_ABS:
        # the phase grade's truncated sums cannot meet a root-scale atol
        tries.append(("asymptotic", _CANCEL_RTOL))
    for regime, grade in tries:
        if regime == "series":
            value, max_mag, _terms = _kummer_series_double(a, b, z)
            err = 2.3e-16 * max_mag  # the cancellation estimate
        else:
            value, err = _kummer_asymptotic(a, b, z, grade)
        if err <= max(rtol * max(abs(value), 1e-300), atol):
            return value
    return _kummer_series_highprec(a, b, z)


def _kummer_series_lockstep(a, b, z, rtol):
    """_kummer_series_double over a complex array z in lockstep.

    The terms come from lockstep.block in blocks of lockstep.BLOCK, and
    the stopping rule and kummer_m's cancellation test at rtol are read off
    each block at once. Returns the sums and the mask of those that pass
    the cancellation test. Raises ConvergenceError when an element
    exhausts the term budget.
    """
    n = z.size
    value = np.empty(n, dtype=complex)
    ok = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    zz = z
    term, acc = np.ones(n, dtype=complex), np.ones(n, dtype=complex)
    max_mag = np.ones(n)
    # small flags of the last _SERIES_RUN - 1 terms
    recent = np.zeros((_SERIES_RUN - 1, n), dtype=bool)
    k = 0
    while idx.size:
        if k == _SERIES_MAX_TERMS:
            raise ConvergenceError("Kummer series did not converge",
                                   z[idx[0]], _SERIES_MAX_TERMS)
        block = min(lockstep.BLOCK, _SERIES_MAX_TERMS - k)
        terms = np.empty((block + 1, zz.size), dtype=complex)
        accs = np.empty((block + 1, zz.size), dtype=complex)
        terms[0], accs[0] = term, acc  # accs[j]: the sum before term j
        cs = [(a + i) / ((b + i) * (i + 1.0)) for i in range(k, k + block)]
        t_mag, mags = lockstep.block(cs, zz, terms, accs)
        small = np.concatenate(
            [recent, t_mag < _SERIES_RTOL * np.maximum(mags[1:], 1e-300)])
        # a zero term ends a terminating series before it is added
        zero = t_mag == 0
        stop = np.logical_and.reduce(
            [small[i:i + block] for i in range(_SERIES_RUN)]) | zero
        hit = stop.any(axis=0)
        if hit.any():
            cols = np.flatnonzero(hit)
            first = stop[:, cols].argmax(axis=0)
            row = first + 1 - zero[first, cols]
            fin = idx[cols]
            value[fin] = accs[row, cols]
            # running max |sum| up to the stop; fmax skips a NaN as the
            # scalar comparison does
            run_max = mags[:, cols]
            run_max[0] = max_mag[cols]
            np.fmax.accumulate(run_max, axis=0, out=run_max)
            ok[fin] = 2.3e-16 * run_max[row, np.arange(cols.size)] <= (
                rtol * np.maximum(mags[row, cols], 1e-300))
        keep = ~hit
        idx, zz = idx[keep], zz[keep]
        term, acc = terms[-1][keep], accs[-1][keep]
        max_mag = np.fmax(max_mag[keep], np.fmax.reduce(mags[1:, keep],
                                                        axis=0))
        recent = small[block:][:, keep]
        k += block
    return value, ok


def _kummer_asymptotic_lockstep(a, b, w, rtol):
    """_kummer_asymptotic at each element of the complex array w: the two
    sums of every element in one lockstep.asym_sum pass, the prefactors
    one element at a time by _asym_value, or below _ASYM_LOCKSTEP_MIN
    elements the scalar expansion one by one. Returns the values and the
    mask of those whose error estimate is within rtol."""
    n = w.size
    zs = w.tolist()
    if n < _ASYM_LOCKSTEP_MIN:
        pairs = [_kummer_asymptotic(a, b, zi, rtol) for zi in zs]
    else:
        sums, tails = lockstep.asym_sum(
            np.repeat([a, b - a], n), np.repeat([a - b + 1.0, 1.0 - a], n),
            np.concatenate([-w, w]), _asym_sum_tol(rtol))
        sums, tails = sums.tolist(), tails.tolist()
        pairs = [_asym_value(a, b, zi, sums[i], tails[i], sums[n + i],
                             tails[n + i]) for i, zi in enumerate(zs)]
    value = np.empty(n, dtype=complex)
    ok = np.empty(n, dtype=bool)
    for i, (v, err) in enumerate(pairs):
        value[i], ok[i] = v, err <= rtol * max(abs(v), 1e-300)
    return value, ok


def kummer_m_array(a, b, z, *, rtol=_CANCEL_RTOL):
    """kummer_m over a numpy array of z, same shape out, to kummer_m's
    accuracy at the same rtol: each value passes the same error test, so
    it differs from kummer_m's by rounding alone, within a few rtol |M|.

    Elements with Re z < -1 are evaluated at -z with b - a and multiplied
    by e^z. Each element then tries the regimes in the order _regimes gives
    kummer_m, each regime in lockstep over the elements that reach it: the
    double series (_kummer_series_lockstep) and the large-argument
    expansion (_kummer_asymptotic_lockstep), neither summed twice for an
    element. Only the elements that pass neither go to the high-precision
    fallback, one by one.
    """
    if b <= 0 and b == int(b):
        raise ValueError(f"b={b} is a non-positive integer")
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.empty_like(flat)
    transform = flat.real < _KUMMER_TRANSFORM_RE
    # each regime's lockstep function and its elements per call; the
    # expansion sums two series per element, each with more temporaries
    # than the series, so a quarter chunk keeps it within the series'
    # memory
    runs = {"series": (_kummer_series_lockstep, _LOCKSTEP_CHUNK),
            "asymptotic": (_kummer_asymptotic_lockstep,
                           _LOCKSTEP_CHUNK // 4)}
    for idx, aa, sign in ((np.flatnonzero(~transform), a, 1.0),
                          (np.flatnonzero(transform), b - a, -1.0)):
        if idx.size == 0:
            continue
        w = flat[idx] if sign > 0 else -flat[idx]
        vals = np.ones(idx.size, dtype=complex)  # kummer_m's 1 at a = 0
        ok = np.full(idx.size, aa == 0.0)
        # overflow gives inf and NaN, as in the scalar series
        with np.errstate(over="ignore", invalid="ignore"):
            near = _near(rtol, np.hypot(w.real, w.imag), w.real)
            for far, others in ((False, ~near), (True, near)):
                for regime in _regimes(rtol, far):
                    run, chunk = runs[regime]
                    todo = np.flatnonzero(~(others | ok))
                    for s in range(0, todo.size, chunk):
                        part = todo[s:s + chunk]
                        vals[part], ok[part] = run(aa, b, w[part], rtol)
        for i in np.flatnonzero(~ok):
            vals[i] = _kummer_series_highprec(aa, b, complex(w[i]))
        if sign < 0:
            # e^z one element at a time: a vectorised np.exp here raised
            # a spectral-cold pass's peak RSS by about 1 MB
            vals = [cmath.exp(complex(zi)) * complex(v)
                    for zi, v in zip(flat[idx], vals)]
        out[idx] = vals
    return out.reshape(z.shape)


def kummer_m_dz(a, b, z, *, rtol=_CANCEL_RTOL):
    """d/dz M(a, b, z) = (a/b) M(a+1, b+1, z); rtol is kummer_m's, with its
    two grades and its default."""
    return (a / b) * kummer_m(a + 1.0, b + 1.0, z, rtol=rtol)


def laguerre(n, beta, x, start=None):
    """Associated Laguerre polynomial L_n^(beta)(x) by three-term recurrence.

    Works for real or complex x (scalars or numpy arrays). start in place
    of 1 + beta in the degree-1 term gives another solution (laplace.p_poly).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if beta not in (0, 1, 2):
        raise ValueError("beta must be 0, 1 or 2")
    p_prev = 1.0 + 0.0 * x
    if n == 0:
        return p_prev
    p = (1.0 + beta if start is None else start) - x
    for k in range(1, n):
        p, p_prev = ((2 * k + beta + 1 - x) * p - (k + beta) * p_prev) / (k + 1), p
    return p


def exp_integral_e1_array(z):
    """The exponential integral E1(z) = int_z^inf e^(-t)/t dt over a numpy
    array of z != 0, same shape out, on the principal branch: the cut is
    the negative real axis, and a signed zero imaginary part there picks
    its side.

    The power series with its log term and the modified-Lentz continued
    fraction each run in lockstep over their elements, each element
    stopping on its own; the split between them is _E1_SWITCH_ABS and
    _E1_SERIES_CANCEL. Raises ValueError at z = 0 and ConvergenceError
    where an element exhausts _E1_MAX_ITER terms (a NaN does).
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    modulus = np.abs(flat)
    if np.any(modulus == 0):
        raise ValueError("exp_integral_e1_array is singular at z = 0")
    out = np.empty_like(flat)

    series = (modulus <= _E1_SWITCH_ABS) | (
        (flat.real < 0) & (modulus + flat.real <= _E1_SERIES_CANCEL))
    idx = np.flatnonzero(series)
    zz = flat[idx]
    acc = -EULER_GAMMA - np.log(zz)
    term = np.ones_like(zz)
    for k in range(1, _E1_MAX_ITER):
        if idx.size == 0:
            break
        term = term * (-zz) / k
        contrib = -term / k
        acc += contrib
        done = np.abs(contrib) < _SERIES_RTOL * np.abs(acc)
        if done.any():
            out[idx[done]] = acc[done]
            keep = ~done
            idx, zz, term, acc = idx[keep], zz[keep], term[keep], acc[keep]
    if idx.size:
        raise ConvergenceError("E1 series did not converge", flat[idx[0]],
                               _E1_MAX_ITER)

    # E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...)))
    idx = np.flatnonzero(~series)
    zz = flat[idx]
    tiny = 1e-300
    b = zz + 1.0
    c = np.full_like(zz, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for k in range(1, _E1_MAX_ITER):
        if idx.size == 0:
            break
        a = -k * k * 1.0
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[idx[done]] = np.exp(-zz[done]) * h[done]
            keep = ~done
            idx, zz, b, c, d, h = (idx[keep], zz[keep], b[keep], c[keep],
                                   d[keep], h[keep])
    if idx.size:
        raise ConvergenceError("E1 continued fraction did not converge",
                               flat[idx[0]], _E1_MAX_ITER)
    return out.reshape(z.shape)

