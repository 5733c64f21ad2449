"""Eigenvalues and eigenfunctions of the damped-wave generator.

The characteristic function is F(lambda) = M(1 - alpha, 2, -2*lambda): its
zeros in the open left half plane are exactly the eigenvalues. For integer
alpha = n + 1 the spectrum reduces to the n roots of L_n^(1)(-2*mu), all
negative real; for non-integer alpha there are ceil(alpha - 1) negative real
eigenvalues plus infinitely many conjugate pairs with logarithmically
receding real parts. Those are found by Newton from the eigenvalues of one
Chebyshev collocation of the generator, and audited by the argument
principle.
"""

from __future__ import annotations

import cmath
import functools
import math
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
# reached |2 lambda| ~ 1e5, beyond the series' term budget.
_NEWTON_MAX_STEP = math.pi
_RESIDUAL_TOL = 1e-9
# Newton's absolute bound on F's error moves the root by at most
# _NEWTON_ROOT_ERR (1 + |lambda|), below one ulp, and |F| by at most
# _NEWTON_RES_ERR _RESIDUAL_TOL
_NEWTON_ROOT_ERR = 1e-16
_NEWTON_RES_ERR = 1e-2
# Newton from an upper collocation seed stops once an iterate leaves the
# disc of this radius around it: half the pairs' asymptotic spacing. From
# a value the grid does not resolve it wandered for all _NEWTON_MAX_ITER
# iterations (10-25 ms). Within ~1e-12 of an integer at kmax 20 some
# seeds lie 1.4-3.3 from their pair, which Newton from the gap seeds
# (_gap_round) then finds, held to the same disc
_COLLOCATION_SEED_RADIUS = 0.5 * math.pi
_BOUNDARY_TOL = 1e-9
# count_zeros' perturbed retries after a zero on the boundary
_BOUNDARY_RETRIES = 5
# _recover_missed's rounds of _gap_round
_GAP_ROUNDS = 3
_DEDUP_TOL = 1e-8
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


class SpectralProblem:
    """Damping strength alpha plus the integer-case flag integer_n, which
    is integer_n(alpha). Problems are equal when their alphas are.

    Two caches hold F(lambda) by the exact lambda for this problem alone:
    phase_values the winding walk's samples, taken at the phase grade
    (_PHASE_RTOL), and newton_values Newton's values, at the same grade but
    also accepted within an absolute bound. Neither reads the other, and
    each evaluates a lambda once.
    """

    def __init__(self, alpha):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self.integer_n = integer_n(alpha)
        self.phase_values = {}
        self.newton_values = {}

    def __eq__(self, other):
        if not isinstance(other, SpectralProblem):
            return NotImplemented
        return self.alpha == other.alpha

    def __hash__(self):
        return hash(self.alpha)

    def __repr__(self):
        return (f"SpectralProblem(alpha={self.alpha!r}, "
                f"integer_n={self.integer_n!r})")


class Eigenvalue(NamedTuple):
    value: complex
    index: int
    branch: str  # "real" | "upper" | "lower"
    residual: float
    # "laguerre" | "collocation" | "gap", the last for a pair that
    # _recover_missed found from its neighbours (_gap_round)
    seed_source: str


class Rect(NamedTuple):
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

    def contains(self, z):
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)

    def diag(self):
        return math.hypot(self.re_max - self.re_min, self.im_max - self.im_min)


def char_fn(problem, lam):
    """F(lambda) = M(1 - alpha, 2, -2*lambda)."""
    return kummer_m(1.0 - problem.alpha, 2.0, -2.0 * complex(lam))


def _phase_fn(problem, lam):
    """F(lambda) where its phase is all that is read: at the phase grade,
    through problem.phase_values."""
    f = problem.phase_values.get(lam)
    if f is None:
        f = problem.phase_values[lam] = kummer_m(
            1.0 - problem.alpha, 2.0, -2.0 * lam, rtol=_PHASE_RTOL)
    return f


def _phase_fn_many(problem, lams):
    """_phase_fn at each of lams; the lambdas not in problem.phase_values
    are evaluated in one kummer_m_array call, which meets kummer_m's phase
    grade, or one by one when there are fewer than _ARRAY_MIN_POINTS."""
    phase = problem.phase_values
    new = [lam for lam in dict.fromkeys(lams) if lam not in phase]
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


def _newton_fn(problem, lam, atol):
    """F at lambda for Newton, at the phase grade within atol, through the
    problem's newton_values, which only Newton reads: two Newton runs that
    reach one root sum its high-precision values once."""
    f = problem.newton_values.get(lam)
    if f is None:
        f = problem.newton_values[lam] = kummer_m(
            1.0 - problem.alpha, 2.0, -2.0 * lam, rtol=_PHASE_RTOL, atol=atol)
    return f


def _newton(problem, seed, radius=math.inf):
    """Damped Newton on the characteristic function, each step at most
    _NEWTON_MAX_STEP long; NewtonError as soon as an iterate is farther
    than radius from the seed, or a step is not finite.

    F and F' are taken at the phase grade: a relative error r in F moves
    the next iterate by r |step|. Every F, the seed's too, is also accepted
    within atol, an error that moves the root by at most _NEWTON_ROOT_ERR
    (1 + |lambda|): next to a zero |F| is tiny against the sums, and no
    relative bound is met in double precision, so from the last long steps
    on atol is the bound that decides. F' comes first at each lambda: atol
    is read off it. The returned residual is |F| at the root.
    """
    lam = complex(seed)
    f = None
    for _ in range(_NEWTON_MAX_ITER):
        df = char_fn_dlam(problem, lam)
        if df == 0:
            raise NewtonError(seed, "vanishing derivative")
        atol = min(_NEWTON_RES_ERR * _RESIDUAL_TOL,
                   _NEWTON_ROOT_ERR * abs(df) * (1.0 + abs(lam)))
        if f is None:
            f = _newton_fn(problem, lam, atol)
        step = f / df
        if not cmath.isfinite(step):
            raise NewtonError(seed, "non-finite step")
        if abs(step) > _NEWTON_MAX_STEP:
            step *= _NEWTON_MAX_STEP / abs(step)
        lam_new = lam - step
        f_new = _newton_fn(problem, lam_new, atol)
        # halve on overshoot
        halvings = 0
        while abs(f_new) > abs(f) and halvings < 20:
            step *= 0.5
            lam_new = lam - step
            f_new = _newton_fn(problem, lam_new, atol)
            halvings += 1
        if abs(lam_new - seed) > radius:
            raise NewtonError(seed, "left the seed's disc")
        if abs(lam_new - lam) < _NEWTON_TOL * (1.0 + abs(lam_new)):
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
    """Large-k estimate of the k-th conjugate-pair eigenvalue (non-integer
    alpha), with the principal logarithm branch throughout; it only sizes
    find_eigenvalues' search_radius (spectrum --radius)."""
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
    # and only this constant makes the seed-to-zero error decay. The seed
    # is -log(ratio power) / 2 with ratio = -Gamma(1-alpha)/Gamma(1+alpha)
    # and power = (-sign 2 pi k i)^(2 alpha), taken in log space, since
    # either factor leaves the float range at large alpha; the phase is
    # reduced to the principal branch of the log. Gamma(1-alpha) < 0
    # exactly where ceil(alpha - 1) is odd.
    negative = a > 1.0 and math.ceil(a - 1.0) % 2 == 1
    modulus = (math.lgamma(1.0 - a) - math.lgamma(1.0 + a)
               + 2.0 * a * math.log(2.0 * k * math.pi))
    phase = math.remainder((0.0 if negative else math.pi) - sign * a * math.pi,
                           2.0 * math.pi)
    return (sign * (2 * k + 1 - a) * math.pi * 0.5j
            - 0.5 * complex(modulus, phase))


@functools.lru_cache(maxsize=None)
def laguerre_poles(n):
    """The spectrum at alpha = n + 1 as a tuple of floats, ascending: the
    poles mu_k of the integer-alpha Laplace solution (roots of
    L_n^(1)(-2 mu)), each within 4e-14 relative of the root for n <= 60
    and 3e-13 up to n = 169. Golub-Welsch nodes polished by Newton on the
    recurrence; cached per n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ()
    # Golub & Welsch (1969): the nodes are the eigenvalues of the Jacobi
    # matrix of the L^(1) recurrence
    k = np.arange(n, dtype=float)
    band = np.zeros((2, n))
    band[0, 1:] = -np.sqrt(k[1:] * (k[1:] + 1.0))
    band[1] = 2 * k + 1.0 + 1
    x, _, info = flapack.dsbevd(band, compute_v=0, lower=0, overwrite_ab=1)
    if info != 0:
        raise SpectrumError(f"Jacobi-matrix eigenvalues failed "
                            f"(dsbevd info={info})")
    # d/dx L_n^(1)(x) = -L_{n-1}^(2)(x). At n = 1 dsbevd's quick return
    # reads band[0, 0] = 0, not the diagonal; L_1^(1) is linear, and the
    # first step from 0 lands on its root
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


def collocation_order(alpha, n_pairs):
    """The N of collocation_eigenvalues that resolves n_pairs pairs
    (Im lambda ~ pi k) and every real eigenvalue: a multiple of 16, at
    least 32. As alpha nears an integer from above, the lowest real root
    dives towards -infinity, to -2 lambda below 4 alpha + 16 +
    3 ln(1 / distance)."""
    dist = max(min(alpha - math.floor(alpha), math.ceil(alpha) - alpha),
               1e-16)
    z_hi = 4.0 * alpha + 16.0 + 3.0 * max(0.0, -math.log(dist))
    reach = max(math.pi * (n_pairs + 1), 0.5 * z_hi)
    return 16 * math.ceil(max(32.0, 0.8 * reach) / 16.0)


def collocation_eigenvalues(alpha, n):
    """The eigenvalues of the generator on the n + 1 Chebyshev points of
    [0, 1], as a complex array in no order.

    With w = lambda u, the eigen equation lambda^2 u + (2 alpha / x)
    lambda u = u'' is lambda (u, w) = (w, u'' - (2 alpha / x) w), with
    u = w = 0 at both ends: u'' is the interior block of D^2, D the
    Chebyshev differentiation matrix (Trefethen, Spectral Methods in
    MATLAB, ch. 6). The eigenfunctions are entire in x, so the values that
    the grid resolves converge spectrally; the others are spurious. D^2
    comes from D's entries (Welfert, SIAM J. Numer. Anal. 34, 1997), each
    diagonal entry minus its row's other entries' sum, as in D: no matrix
    product, whose BLAS pages would add to a run's resident memory."""
    j = np.arange(n + 1)
    x = 0.5 - 0.5 * np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    dx = x[:, None] - x + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    d[j, j] -= d.sum(axis=1)
    d2 = 2.0 * d * (d[j, j][:, None] - 1.0 / dx)
    d2[j, j] = 0.0
    d2[j, j] = -d2.sum(axis=1)
    m = n - 1
    a = np.zeros((2 * m, 2 * m))
    a[:m, m:] = np.eye(m)
    a[m:, :m] = d2[1:-1, 1:-1]
    a[m:, m:] = np.diag(-2.0 * alpha / x[1:-1])
    wr, wi, _, _, info = flapack.dgeev(a, compute_vl=0, compute_vr=0,
                                       overwrite_a=1)
    if info != 0:
        raise SpectrumError(f"collocation eigenvalues failed "
                            f"(dgeev info={info})")
    return wr + 1j * wi


def _collocation_seeds(problem, n_pairs):
    """Newton's seeds for the real roots and for n_pairs pairs, from
    collocation_eigenvalues at collocation_order: the real values (|Im|
    at most 1e-6 (1 + |lambda|)) as floats, and the values in the upper
    half plane in ascending Im."""
    lams = collocation_eigenvalues(
        problem.alpha, collocation_order(problem.alpha, n_pairs))
    real = np.abs(lams.imag) <= 1e-6 * (1.0 + np.abs(lams))
    upper = lams[~real & (lams.imag > 0)]
    return (lams[real].real.tolist(),
            upper[np.argsort(upper.imag, kind="stable")].tolist())


def _real_roots(problem, seeds):
    """The ceil(alpha - 1) negative real eigenvalues of non-integer alpha,
    as (lambda, residual) pairs in ascending lambda: Newton from that many
    real seeds nearest 0. Newton from a real seed stays real, and there are
    exactly that many real roots, so distinct roots are all of them; two
    seeds that reach one root raise SpectrumError."""
    expected = max(0, math.ceil(problem.alpha - 1.0))
    seeds = sorted(seeds, key=abs)[:expected]
    if len(seeds) < expected:
        raise SpectrumError(f"collocation gave {len(seeds)} real "
                            f"eigenvalues, expected {expected} "
                            f"(alpha={problem.alpha})")
    roots = []
    for seed in seeds:
        lam, res = _newton(problem, complex(seed))
        lam = complex(lam.real)
        if any(abs(lam - o) < _DEDUP_TOL * (1 + abs(lam)) for o, _ in roots):
            raise SpectrumError(f"two real seeds reached the root {lam!r} "
                                f"(alpha={problem.alpha})")
        roots.append((lam, res))
    return sorted(roots, key=lambda t: t[0].real)


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


def _add_pair(problem, kept, seed, src):
    """Newton from seed, given up once it leaves the disc of radius
    _COLLOCATION_SEED_RADIUS around the seed, as from a value the grid
    does not resolve. Its root, reflected into the upper half plane, joins
    kept (tuples (lam, res, src) in ascending Im) unless it lies on the
    real axis or in kept already; whether it joined."""
    try:
        lam, res = _newton(problem, seed, radius=_COLLOCATION_SEED_RADIUS)
    except (NewtonError, ConvergenceError):
        return False
    if lam.imag < 0:
        lam = lam.conjugate()
    if lam.imag <= _DEDUP_TOL or any(
            abs(lam - o[0]) < _DEDUP_TOL * (1 + abs(lam)) for o in kept):
        return False
    kept.append((lam, res, src))
    kept.sort(key=lambda t: t[0].imag)
    return True


def _gap_round(problem, kept, n_pairs):
    """Newton from the gap seeds of kept: in each Im gap between
    neighbouring pairs, round(gap / s) - 1 evenly spaced points, s the
    median Im spacing; one point s below the first pair if it lies above
    1.5 s; and, while pairs are missing, one point past the top pair by the
    last gap's complex increment (pi i with one pair): a purely imaginary
    step left the seed's disc, 1.75 from pair 3 at alpha = 12.25. Whether
    kept grew."""
    n_kept = len(kept)
    lams = [t[0] for t in kept]
    steps = [b - a for a, b in zip(lams, lams[1:])]
    s = float(np.median([d.imag for d in steps])) if steps else math.pi
    seeds = [a + d * (j / m) for a, d in zip(lams, steps)
             for m in [round(d.imag / s)] for j in range(1, m)]
    if lams[0].imag > 1.5 * s:
        seeds.append(lams[0] - s * 1j)
    for seed in seeds:
        _add_pair(problem, kept, seed, "gap")
    while len(kept) < n_pairs:
        top = kept[-1][0]
        if not _add_pair(problem, kept,
                         top + (top - kept[-2:][0][0] or math.pi * 1j), "gap"):
            break
    return len(kept) > n_kept


def _recover_missed(problem, kept, n_pairs):
    """Covering-rectangle audit of the upper half plane up to the highest
    pair of interest. While it counts more zeros than kept holds, or kept
    is short of n_pairs, up to _GAP_ROUNDS rounds of _gap_round run; after
    one that adds nothing, a count above kept raises AuditError."""
    for rnd in range(_GAP_ROUNDS + 1):
        top_idx = min(n_pairs, len(kept)) - 1
        im_top = kept[top_idx][0].imag + 0.5 * math.pi
        delta = min(0.45 * kept[0][0].imag, 0.45)
        re_min = min(t[0].real for t in kept) - 6.0
        rect = Rect(re_min, -1e-3, delta, im_top)
        counted = count_zeros(problem, rect)
        inside = sum(1 for t in kept if rect.contains(t[0]))
        if counted < inside:
            raise AuditError(rect, counted, inside)
        if counted == inside and len(kept) >= n_pairs:
            return
        if rnd == _GAP_ROUNDS or not _gap_round(problem, kept, n_pairs):
            if counted > inside:
                raise AuditError(rect, counted, inside)
            return


def find_eigenvalues(problem, k_max, search_radius=None, audit=True):
    """All eigenvalues inside the disc of radius search_radius plus the
    first k_max conjugate pairs (non-integer alpha), or the full finite
    spectrum (integer alpha). Audited against the argument principle. A
    spectrum short of those pairs raises SpectrumError.

    For non-integer alpha, Newton runs from the collocation's real values
    nearest 0 (_real_roots) and from its first n_pairs + 2 values in the
    upper half plane, each given up once it leaves the disc of radius
    _COLLOCATION_SEED_RADIUS around its seed. Next to an integer some of
    those values miss their pairs: _recover_missed's covering count finds
    that, and Newton from the found pairs' gap seeds finds the rest."""
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

    n_pairs = k_max
    if search_radius is not None:
        # extend until the asymptotic eigenvalues leave the disc
        while (abs(asymptotic_eigenvalue(problem, n_pairs + 1, "upper"))
               <= search_radius):
            n_pairs += 1

    real, upper = _collocation_seeds(problem, n_pairs)
    for i, (lam, res) in enumerate(_real_roots(problem, real)):
        evs.append(Eigenvalue(lam, i + 1, "real", res,
                              seed_source="collocation"))

    kept = []  # (lam, res, src), upper half plane, ascending Im
    # two seeds to spare, for values that Newton takes elsewhere
    for seed in upper[:n_pairs + 2]:
        _add_pair(problem, kept, seed, "collocation")

    if kept:
        _recover_missed(problem, kept, n_pairs)
    if len(kept) < n_pairs:
        raise SpectrumError(f"found {len(kept)} of {n_pairs} conjugate pairs "
                            f"(alpha={problem.alpha})")
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
    if ev.residual > _RESIDUAL_TOL:
        raise SpectrumError(f"eigenvalue residual too large: {ev.residual}")
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


class SweepPoint(NamedTuple):
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
