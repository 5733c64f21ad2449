"""Eigenvalues and eigenfunctions of the damped-wave generator.

The characteristic function is F(lambda) = M(1 - alpha, 2, -2*lambda): its
zeros in the open left half plane are exactly the eigenvalues. For integer
alpha = n + 1 the spectrum reduces to the n roots of L_n^(1)(-2*mu), all
negative real; for non-integer alpha there are ceil(alpha - 1) negative real
eigenvalues plus infinitely many conjugate pairs with logarithmically
receding real parts.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .lapack import flapack
from .specfun import (_PHASE_RTOL, ConvergenceError, kummer_m,
                      kummer_m_array, kummer_m_dz, laguerre)

INTEGER_ALPHA_TOL = 1e-14

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-12
# the longest Newton step: pi, the asymptotic spacing of the pairs in
# Im lambda. Near alpha = 1, F is almost flat, and an uncapped first step
# from the asymptotic seed reached |2 lambda| ~ 1e5, beyond the series'
# term budget.
_NEWTON_MAX_STEP = math.pi
# Newton takes F at the phase grade while the step it gives is at least this
# times 1 + |lambda|, then at the value grade: a relative error r in F moves
# the next iterate by r |step|, so only the last steps need F's last digits
_NEWTON_VALUE_STEP = 1e-7
_RESIDUAL_TOL = 1e-9
_BOUNDARY_TOL = 1e-9
# count_zeros' perturbed retries after a zero on the boundary, and
# _recover_missed's rounds of subdivision
_BOUNDARY_RETRIES = 5
_RECOVER_ROUNDS = 3
_DEDUP_TOL = 1e-8
# Brent's method on the real-axis brackets: rtol at scipy brentq's floor of
# 4 eps, and brentq's iteration limit
_BRENT_XTOL = 1e-15
_BRENT_RTOL = 8.9e-16
_BRENT_MAX_ITER = 100
# below this many new points per call, kummer_m one by one is faster than
# kummer_m_array, whose lockstep series has a fixed cost per term block
_ARRAY_MIN_POINTS = 24


class SpectrumError(Exception):
    pass


class AuditError(SpectrumError):
    """The argument-principle zero count disagrees with the refined zeros."""

    def __init__(self, rect, counted, found):
        super().__init__(
            f"zero-count audit failed on rectangle {rect}: "
            f"winding count {counted}, refined zeros {found}")
        self.rect = rect
        self.counted = counted
        self.found = found


class BoundaryZeroError(SpectrumError):
    pass


class NewtonError(SpectrumError):
    def __init__(self, seed, message="Newton iteration stagnated"):
        super().__init__(f"{message} (seed {seed})")
        self.seed = seed


def integer_n(alpha):
    """n when alpha is within INTEGER_ALPHA_TOL of the positive integer
    n + 1, else None: the one test for the integer-alpha fast path."""
    nearest = round(alpha)
    if nearest >= 1 and abs(alpha - nearest) <= INTEGER_ALPHA_TOL:
        return int(nearest) - 1
    return None


@dataclass(frozen=True)
class SpectralProblem:
    """Damping strength alpha plus the integer-case flag.

    integer_n is integer_n(alpha); pass force_generic=True to disable the
    integer fast path, e.g. when probing the discontinuity at integer alpha.
    char_values holds F(lambda) by the exact lambda for this problem alone,
    so that each lambda is evaluated once. phase_values holds, in the same
    way, the values taken at the phase grade (_PHASE_RTOL): the winding
    walk's samples and Newton's iterates while its steps are long. They
    steer Newton's early steps but never its last step, an eigenvalue's
    residual or a zero count's result.
    """

    alpha: float
    force_generic: bool = False
    integer_n: int | None = field(init=False, default=None)
    char_values: dict = field(init=False, default_factory=dict,
                              compare=False, repr=False)
    phase_values: dict = field(init=False, default_factory=dict,
                               compare=False, repr=False)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not self.force_generic:
            object.__setattr__(self, "integer_n", integer_n(self.alpha))


@dataclass(frozen=True)
class Eigenvalue:
    value: complex
    index: int
    branch: str  # "real" | "upper" | "lower"
    residual: float
    multiplicity: int = 1
    seed_source: str = "scan"  # "laguerre" | "asymptotic" | "scan"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def corners(self):
        return (complex(self.re_min, self.im_min),
                complex(self.re_max, self.im_min),
                complex(self.re_max, self.im_max),
                complex(self.re_min, self.im_max))

    def contains(self, z, margin=0.0):
        return (self.re_min - margin <= z.real <= self.re_max + margin
                and self.im_min - margin <= z.imag <= self.im_max + margin)

    def diag(self):
        return math.hypot(self.re_max - self.re_min, self.im_max - self.im_min)

    def center(self):
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))

    def bisect(self):
        if self.re_max - self.re_min >= self.im_max - self.im_min:
            mid = 0.5 * (self.re_min + self.re_max)
            return (Rect(self.re_min, mid, self.im_min, self.im_max),
                    Rect(mid, self.re_max, self.im_min, self.im_max))
        mid = 0.5 * (self.im_min + self.im_max)
        return (Rect(self.re_min, self.re_max, self.im_min, mid),
                Rect(self.re_min, self.re_max, mid, self.im_max))


def char_fn(problem, lam):
    """F(lambda) = M(1 - alpha, 2, -2*lambda), through problem.char_values."""
    lam = complex(lam)
    f = problem.char_values.get(lam)
    if f is None:
        f = problem.char_values[lam] = kummer_m(1.0 - problem.alpha, 2.0,
                                                -2.0 * lam)
    return f


def _phase_fn(problem, lam):
    """F(lambda) where its phase, or a long Newton step, is all that is
    read: the value from problem.char_values if there is one, else at the
    phase grade through problem.phase_values."""
    f = problem.char_values.get(lam)
    if f is None:
        f = problem.phase_values.get(lam)
        if f is None:
            f = problem.phase_values[lam] = kummer_m(
                1.0 - problem.alpha, 2.0, -2.0 * lam, rtol=_PHASE_RTOL)
    return f


def _phase_fn_many(problem, lams):
    """_phase_fn at each of lams; the lambdas in neither cache are
    evaluated in one kummer_m_array call, which is bit-identical to
    kummer_m at the same rtol, or one by one when there are fewer than
    _ARRAY_MIN_POINTS."""
    values, phase = problem.char_values, problem.phase_values
    new = [lam for lam in dict.fromkeys(lams)
           if lam not in values and lam not in phase]
    if len(new) >= _ARRAY_MIN_POINTS:
        vals = kummer_m_array(1.0 - problem.alpha, 2.0,
                              np.array([-2.0 * lam for lam in new]),
                              rtol=_PHASE_RTOL)
        phase.update(zip(new, vals.tolist()))
    return [_phase_fn(problem, lam) for lam in lams]


def char_fn_dlam(problem, lam):
    """dF/dlambda at the phase grade: Newton only divides by it, and its
    relative error r moves a step by r |step|."""
    return -2.0 * kummer_m_dz(1.0 - problem.alpha, 2.0, -2.0 * complex(lam),
                              rtol=_PHASE_RTOL)


def _newton(problem, seed):
    """Damped Newton on the characteristic function, each step at most
    _NEWTON_MAX_STEP long.

    F is taken at the phase grade (_phase_fn) while the step it gives is at
    least _NEWTON_VALUE_STEP (1 + |lambda|); below that F is taken again at
    the same lambda at the value grade (char_fn), and so is every later F:
    the halving tests, the stopping test and the returned residual. A step
    from a phase-grade F never ends the iteration.
    """
    lam = complex(seed)
    fn = _phase_fn
    f = fn(problem, lam)
    for _ in range(_NEWTON_MAX_ITER):
        df = char_fn_dlam(problem, lam)
        if df == 0:
            raise NewtonError(seed, "vanishing derivative")
        step = f / df
        if fn is _phase_fn and (abs(step)
                                < _NEWTON_VALUE_STEP * (1.0 + abs(lam))):
            fn = char_fn
            f = fn(problem, lam)
            step = f / df
        if abs(step) > _NEWTON_MAX_STEP:
            step *= _NEWTON_MAX_STEP / abs(step)
        lam_new = lam - step
        f_new = fn(problem, lam_new)
        # halve on overshoot
        halvings = 0
        while abs(f_new) > abs(f) and halvings < 20:
            step *= 0.5
            lam_new = lam - step
            f_new = fn(problem, lam_new)
            halvings += 1
        if fn is char_fn and (abs(lam_new - lam)
                              < _NEWTON_TOL * (1.0 + abs(lam_new))):
            return lam_new, abs(f_new)
        lam, f = lam_new, f_new
    raise NewtonError(seed)


def _segment_winding(problem, z1, z2, f1, f2, diag):
    """Accumulated phase change of F along [z1, z2], adaptive bisection."""
    if abs(f1) < _BOUNDARY_TOL or abs(f2) < _BOUNDARY_TOL:
        raise BoundaryZeroError(f"|F| below boundary tolerance near {z1}")
    dphi = cmath.phase(f2 / f1)
    if abs(dphi) <= 0.5 * math.pi:
        return dphi
    if abs(z2 - z1) < 1e-12 * diag:
        raise BoundaryZeroError(f"phase jump not resolvable near {z1}")
    zm = 0.5 * (z1 + z2)
    fm = _phase_fn(problem, zm)
    return (_segment_winding(problem, z1, zm, f1, fm, diag)
            + _segment_winding(problem, zm, z2, fm, f2, diag))


# initial boundary sample spacing; the phase rate of the characteristic
# function away from zeros is ~|2 dlambda| (e^{-2 lambda} factor), so 0.2
# keeps per-step phase increments well below the pi/2 aliasing threshold
_WALK_STEP = 0.2


def _walk_points(rect):
    """The initial boundary samples of rect, from its first corner round
    to it again."""
    corners = rect.corners()
    pts = []
    for i in range(4):
        z1, z2 = corners[i], corners[(i + 1) % 4]
        m = max(1, math.ceil(abs(z2 - z1) / _WALK_STEP))
        pts.extend(z1 + (z2 - z1) * (j / m) for j in range(m))
    pts.append(corners[0])
    return pts


def _winding_number(problem, rect):
    diag = rect.diag()
    pts = _walk_points(rect)
    vals = _phase_fn_many(problem, pts)
    total = 0.0
    for i in range(len(pts) - 1):
        total += _segment_winding(problem, pts[i], pts[i + 1], vals[i],
                                  vals[i + 1], diag)
    winding = total / (2.0 * math.pi)
    n = round(winding)
    if abs(winding - n) > 0.25:
        raise SpectrumError(f"non-integral winding number {winding} on {rect}")
    return int(n)


def count_zeros(problem, rect):
    """Number of zeros of the characteristic function inside rect, with
    multiplicity, by the argument principle. Zeros on the boundary trigger
    perturb-and-retry, up to _BOUNDARY_RETRIES times."""
    r = rect
    for attempt in range(_BOUNDARY_RETRIES + 1):
        try:
            return _winding_number(problem, r)
        except BoundaryZeroError:
            if attempt == _BOUNDARY_RETRIES:
                raise
            bump = (attempt + 1) * 1e-3 * rect.diag()
            r = Rect(rect.re_min - bump, rect.re_max + bump * 0.618,
                     rect.im_min - bump * 0.382, rect.im_max + bump)


def asymptotic_eigenvalue(problem, k, branch):
    """Large-k seed for the k-th conjugate-pair eigenvalue (non-integer
    alpha), with the principal logarithm branch throughout."""
    a = problem.alpha
    if integer_n(a) is not None:
        raise ValueError("asymptotic seeds undefined at integer alpha "
                         "(Gamma(1-alpha) pole)")
    if k < 1:
        raise ValueError("k must be >= 1")
    if branch == "upper":
        sign = 1.0
    elif branch == "lower":
        sign = -1.0
    else:
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    # Gamma(1+alpha) rather than Gamma(2+alpha): the large-argument
    # expansion of M(1-alpha, 2, .) carries Gamma(1-alpha)/Gamma(1+alpha),
    # and only this constant makes the seed-to-zero error decay.
    ratio = -math.gamma(1.0 - a) / math.gamma(1.0 + a)
    power = cmath.exp(2.0 * a * cmath.log(-sign * 2j * k * math.pi))
    return (sign * (2 * k + 1 - a) * math.pi * 0.5j
            - 0.5 * cmath.log(ratio * power))


def _laguerre1_forward(n, x):
    """L_n^(1)(x), n >= 1, by the forward recurrence of scipy's
    eval_genlaguerre for integer n (the same operations in the same order)."""
    if n == 1:
        return -x + 1.0 + 1
    d = -x / 2.0
    p = d + 1
    for j in range(1, n):
        d = -x / (j + 2.0) * p + (j / (j + 2.0)) * d
        p = d + p
    return (n + 1.0) * p


@functools.lru_cache(maxsize=None)
def laguerre_poles(n):
    """The spectrum at alpha = n + 1 as a tuple of floats, ascending: the
    poles mu_k of the integer-alpha Laplace solution (roots of
    L_n^(1)(-2 mu)). Golub-Welsch nodes polished by Newton on the
    recurrence; cached per n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ()
    # Golub & Welsch (1969): the nodes are the eigenvalues of the Jacobi
    # matrix of the L^(1) recurrence, then one Newton step as scipy's
    # roots_genlaguerre takes it, so the nodes agree with it bit for bit
    k = np.arange(n, dtype=float)
    band = np.zeros((2, n))
    band[0, 1:] = -np.sqrt(k[1:] * (k[1:] + 1.0))
    band[1] = 2 * k + 1.0 + 1
    # scipy.linalg.eigvals_banded's call
    x, _, info = flapack.dsbevd(band, compute_v=0, lower=0, overwrite_ab=1)
    if info != 0:
        raise SpectrumError(f"Jacobi-matrix eigenvalues failed "
                            f"(dsbevd info={info})")
    if n > 1:
        y = _laguerre1_forward(n, x)
        x -= y / ((n * y - (n + 1.0) * _laguerre1_forward(n - 1, x)) / x)
    # d/dx L_n^(1)(x) = -L_{n-1}^(2)(x)
    for _ in range(3):
        x = x + laguerre(n, 1, x) / laguerre(n - 1, 2, x)
    return tuple(float(mu) for mu in np.sort(-x / 2.0))


class StandingMode(NamedTuple):
    """mu_k and vectorised evaluators of f_k, f_k' and f_k / x."""

    mu: float
    f: Callable
    df: Callable
    f_over_x: Callable


@functools.lru_cache(maxsize=None)
def standing_mode(n, k):
    """The k-th standing mode at alpha = n + 1, k = 1..n in ascending mu:
    f_k(x) = x e^(mu_k x) L_n^(1)(-2 mu_k x), so that e^(mu_k t) f_k(x)
    solves the damped wave equation. Cached per (n, k)."""
    if n < 1:
        raise ValueError("standing modes require n >= 1 (alpha >= 2)")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    mu = laguerre_poles(n)[k - 1]

    def f(x):
        x = np.asarray(x, dtype=float)
        return x * np.exp(mu * x) * np.real(laguerre(n, 1, -2.0 * mu * x))

    def df(x):
        # d/dz L_n^(1)(z) = -L_{n-1}^(2)(z)
        x = np.asarray(x, dtype=float)
        l1 = np.real(laguerre(n, 1, -2.0 * mu * x))
        l2 = np.real(laguerre(n - 1, 2, -2.0 * mu * x))
        return np.exp(mu * x) * ((1.0 + mu * x) * l1 + 2.0 * mu * x * l2)

    def f_over_x(x):
        x = np.asarray(x, dtype=float)
        return np.exp(mu * x) * np.real(laguerre(n, 1, -2.0 * mu * x))

    return StandingMode(mu, f, df, f_over_x)


def _brent_root(f, xa, xb):
    """A zero of f on [xa, xb], where f changes sign: Brent's method (Brent
    1973, Algorithms for Minimization without Derivatives, ch. 4) in the
    steps of scipy.optimize.brentq, whose roots it reproduces bit for bit."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SpectrumError(f"no sign change of the characteristic function "
                            f"on [{xa}, {xb}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise SpectrumError(f"real-axis root did not converge after "
                        f"{_BRENT_MAX_ITER} iterations, value is {xcur!r}")


def _real_eigenvalues_generic(problem):
    """Negative real eigenvalues for non-integer alpha by sign-change scan
    of the (real-valued) characteristic function on the negative axis."""
    a = problem.alpha
    expected = max(0, math.ceil(a - 1.0))
    if expected == 0:
        return []
    # zeros escape to -infinity as alpha approaches an integer from above
    dist = max(min(a - math.floor(a), math.ceil(a) - a), 1e-16)
    z_hi = 4.0 * a + 16.0 + 3.0 * max(0.0, -math.log(dist))
    zs = np.linspace(1e-6, z_hi, 4000)
    g = lambda z: kummer_m(1.0 - a, 2.0, complex(z)).real
    vals = kummer_m_array(1.0 - a, 2.0, zs).real
    roots = []
    for i in range(len(zs) - 1):
        if vals[i] == 0.0:
            roots.append(zs[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(_brent_root(g, float(zs[i]), float(zs[i + 1])))
    mus = sorted(-z / 2.0 for z in roots)
    if len(mus) != expected:
        raise SpectrumError(
            f"real-axis scan found {len(mus)} zeros, expected {expected} "
            f"(alpha={a}, scan range z<={z_hi:.3g})")
    return mus


def _audit_rect(lam, spacing):
    half = min(max(0.45 * spacing, 0.05), 1.0)
    return Rect(lam.real - half, lam.real + half,
                lam.imag - half, lam.imag + half)


def _audit(problem, eigenvalues):
    """Per-zero rectangles must each contain exactly one zero."""
    vals = [ev.value for ev in eigenvalues]
    rects = []
    for i, lam in enumerate(vals):
        spacing = min((abs(lam - o) for j, o in enumerate(vals) if j != i),
                      default=1.0)
        rects.append(_audit_rect(lam, spacing))
    # the boundary samples of every rectangle in one array call; on a
    # failure the rectangles are walked in turn, so that an earlier
    # rectangle's AuditError still comes first
    try:
        _phase_fn_many(problem,
                      [z for rect in rects for z in _walk_points(rect)])
    except ConvergenceError:
        pass
    for rect in rects:
        counted = count_zeros(problem, rect)
        inside = sum(1 for o in vals if rect.contains(o))
        if counted != inside:
            raise AuditError(rect, counted, inside)


def _locate_in_rect(problem, rect, known, counted, depth=0):
    """Zeros in rect not present in `known`, by bisection + Newton; counted
    is count_zeros(problem, rect)."""
    k_in = sum(1 for z in known if rect.contains(z, margin=1e-9))
    if counted <= k_in:
        return []
    if (counted == k_in + 1 and rect.diag() < 0.2) or depth > 26:
        lam, res = _newton(problem, rect.center())
        return [(lam, res)]
    out = []
    for half in rect.bisect():
        out.extend(_locate_in_rect(problem, half, known,
                                   count_zeros(problem, half), depth + 1))
    return out


def _absorb(kept, lam, res, src):
    """Add zero lam, reflected into the upper half plane, to kept (tuples
    (lam, res, src) in ascending Im) unless it converged onto the real
    axis or is already there."""
    if lam.imag < 0:
        lam = lam.conjugate()
    if lam.imag > _DEDUP_TOL and not any(
            abs(lam - o[0]) < _DEDUP_TOL * (1 + abs(lam)) for o in kept):
        kept.append((lam, res, src))
        kept.sort(key=lambda t: t[0].imag)


def _recover_missed(problem, kept, n_pairs):
    """Covering-rectangle audit of the upper half plane up to the highest
    pair of interest; missed zeros are located by subdivision and added,
    in up to _RECOVER_ROUNDS rounds."""
    for _ in range(_RECOVER_ROUNDS):
        top_idx = min(n_pairs, len(kept)) - 1
        im_top = kept[top_idx][0].imag + 0.5 * math.pi
        delta = min(0.45 * kept[0][0].imag, 0.45)
        re_min = min(t[0].real for t in kept) - 6.0
        rect = Rect(re_min, -1e-3, delta, im_top)
        counted = count_zeros(problem, rect)
        inside = [t for t in kept if rect.contains(t[0])]
        if counted == len(inside):
            return
        if counted < len(inside):
            raise AuditError(rect, counted, len(inside))
        new = _locate_in_rect(problem, rect, [t[0] for t in kept], counted)
        if not new:
            raise AuditError(rect, counted, len(inside))
        for lam, res in new:
            _absorb(kept, lam, res, "scan")


def find_eigenvalues(problem, k_max, search_radius=None, audit=True):
    """All eigenvalues inside the disc of radius search_radius plus the
    first k_max conjugate pairs (non-integer alpha), or the full finite
    spectrum (integer alpha). Audited against the argument principle."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    evs = []
    if problem.integer_n is not None:
        for i, mu in enumerate(laguerre_poles(problem.integer_n)):
            res = abs(char_fn(problem, mu))
            evs.append(Eigenvalue(complex(mu), i + 1, "real", res,
                                  seed_source="laguerre"))
        if audit and evs:
            _audit(problem, evs)
        return evs

    for i, mu in enumerate(_real_eigenvalues_generic(problem)):
        lam, res = _newton(problem, complex(mu))
        evs.append(Eigenvalue(complex(lam.real), i + 1, "real", res))

    n_pairs = k_max
    if search_radius is not None:
        # extend until the asymptotic seeds leave the disc
        k = k_max
        while abs(asymptotic_eigenvalue(problem, k + 1, "upper")) <= search_radius:
            k += 1
        n_pairs = k

    kept = []  # (lam, res, src), upper half plane, ascending Im

    # seeds may collide on the same zero for small k; keep going until the
    # requested number of distinct pairs is in hand. At (near-)integer alpha
    # under force_generic there are no non-real eigenvalues and no seeds.
    near_integer = integer_n(problem.alpha) is not None
    k = 0
    while not near_integer and len(kept) < n_pairs and k < n_pairs + 10:
        k += 1
        seed = asymptotic_eigenvalue(problem, k, "upper")
        try:
            lam, res = _newton(problem, seed)
        except NewtonError:
            continue
        _absorb(kept, lam, res, "asymptotic")

    if kept:
        _recover_missed(problem, kept, n_pairs)
    kept = kept[:n_pairs]
    for k, (lam, res, src) in enumerate(kept, start=1):
        evs.append(Eigenvalue(lam, k, "upper", res, seed_source=src))
        evs.append(Eigenvalue(lam.conjugate(), k, "lower", res,
                              seed_source=src))

    for ev in evs:
        if ev.value.real >= 0:
            raise SpectrumError(f"eigenvalue with non-negative real part: {ev}")
        if ev.residual > _RESIDUAL_TOL:
            raise SpectrumError(f"residual above tolerance: {ev}")
    if audit and evs:
        _audit(problem, evs)
    return evs


def eigenfunction(problem, ev):
    """The closed-form eigenfunction x e^(lambda x) M(1-alpha, 2,
    -2 lambda x) of an eigenvalue from find_eigenvalues, as a callable; on
    the integer fast path the standing mode of index ev.index."""
    if ev.residual >= _RESIDUAL_TOL:
        raise ValueError(f"eigenvalue residual too large: {ev.residual}")
    if problem.integer_n is not None:
        return standing_mode(problem.integer_n, ev.index).f
    lam = ev.value
    a = problem.alpha

    def evaluator(x):
        if x == 0:
            return 0.0
        return x * cmath.exp(lam * x) * kummer_m(1.0 - a, 2.0, -2.0 * lam * x)

    return evaluator


def spectral_abscissa(evs):
    """sup Re(lambda) over the located spectrum; None when empty (alpha=1)."""
    if not evs:
        return None
    return max(ev.value.real for ev in evs)


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    trajectory_id: str
    value: complex
    branch: str
    n_real: int


class SweepPoints(list):
    """alpha_sweep's points in order; dropped lists (alpha, cause) for each
    alpha whose spectrum raised SpectrumError and so has no points."""

    def __init__(self):
        super().__init__()
        self.dropped = []


def alpha_sweep(alphas, k_max):
    """Eigenvalue trajectories over an ascending list of alpha values, as
    SweepPoints in find_eigenvalues order within each alpha.

    Each alpha is solved on its own (unaudited) and each eigenvalue named
    from that alpha's spectrum alone, so that any split of the list into
    consecutive chunks gives the same points. A real root is "real:<r>",
    r its rank from the right (1 nearest 0): real roots carry on across
    each integer, and a new one arrives from -infinity at the highest
    rank. Pair k is "upper:<m>:<k>" or "lower:<m>:<k>" with m = floor(alpha),
    since every pair dives to -infinity at each integer. An alpha whose
    spectrum raises SpectrumError is recorded in .dropped and has no points.
    """
    alphas = list(alphas)
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly ascending")
    points = SweepPoints()
    for alpha in alphas:
        try:
            evs = find_eigenvalues(SpectralProblem(alpha), k_max, audit=False)
        except SpectrumError as exc:
            points.dropped.append((alpha, f"{type(exc).__name__}: {exc}"))
            continue
        n_real = sum(1 for ev in evs if ev.branch == "real")
        for ev in evs:
            # find_eigenvalues numbers the real roots from the left
            label = (f"real:{n_real + 1 - ev.index}" if ev.branch == "real"
                     else f"{ev.branch}:{math.floor(alpha)}:{ev.index}")
            points.append(SweepPoint(alpha, label, ev.value, ev.branch,
                                     n_real))
    return points
