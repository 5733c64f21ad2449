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
import scipy.optimize
import scipy.special

from .specfun import kummer_m, kummer_m_array, kummer_m_dz, laguerre

INTEGER_ALPHA_TOL = 1e-14

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
_BOUNDARY_TOL = 1e-9
_DEDUP_TOL = 1e-8


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
    """

    alpha: float
    force_generic: bool = False
    integer_n: int | None = field(init=False, default=None)

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
    """F(lambda) = M(1 - alpha, 2, -2*lambda)."""
    return kummer_m(1.0 - problem.alpha, 2.0, -2.0 * complex(lam))


def char_fn_dlam(problem, lam):
    """dF/dlambda, from the term-wise differentiated series."""
    return -2.0 * kummer_m_dz(1.0 - problem.alpha, 2.0, -2.0 * complex(lam))


def _newton(problem, seed):
    """Damped Newton on the characteristic function."""
    lam = complex(seed)
    f = char_fn(problem, lam)
    for _ in range(_NEWTON_MAX_ITER):
        df = char_fn_dlam(problem, lam)
        if df == 0:
            raise NewtonError(seed, "vanishing derivative")
        step = f / df
        lam_new = lam - step
        f_new = char_fn(problem, lam_new)
        # halve on overshoot
        halvings = 0
        while abs(f_new) > abs(f) and halvings < 20:
            step *= 0.5
            lam_new = lam - step
            f_new = char_fn(problem, lam_new)
            halvings += 1
        if abs(lam_new - lam) < _NEWTON_TOL * (1.0 + abs(lam_new)):
            return lam_new, abs(f_new)
        lam, f = lam_new, f_new
    raise NewtonError(seed)


def _segment_winding(f, z1, z2, f1, f2, diag):
    """Accumulated phase change of f along [z1, z2], adaptive bisection."""
    if abs(f1) < _BOUNDARY_TOL or abs(f2) < _BOUNDARY_TOL:
        raise BoundaryZeroError(f"|F| below boundary tolerance near {z1}")
    dphi = cmath.phase(f2 / f1)
    if abs(dphi) <= 0.5 * math.pi:
        return dphi
    if abs(z2 - z1) < 1e-12 * diag:
        raise BoundaryZeroError(f"phase jump not resolvable near {z1}")
    zm = 0.5 * (z1 + z2)
    fm = f(zm)
    return (_segment_winding(f, z1, zm, f1, fm, diag)
            + _segment_winding(f, zm, z2, fm, f2, diag))


# initial boundary sample spacing; the phase rate of the characteristic
# function away from zeros is ~|2 dlambda| (e^{-2 lambda} factor), so 0.2
# keeps per-step phase increments well below the pi/2 aliasing threshold
_WALK_STEP = 0.2


def _winding_number(f, rect):
    corners = rect.corners()
    diag = rect.diag()
    pts = []
    for i in range(4):
        z1, z2 = corners[i], corners[(i + 1) % 4]
        m = max(1, math.ceil(abs(z2 - z1) / _WALK_STEP))
        pts.extend(z1 + (z2 - z1) * (j / m) for j in range(m))
    pts.append(corners[0])
    vals = [f(z) for z in pts]
    total = 0.0
    for i in range(len(pts) - 1):
        total += _segment_winding(f, pts[i], pts[i + 1], vals[i],
                                  vals[i + 1], diag)
    winding = total / (2.0 * math.pi)
    n = round(winding)
    if abs(winding - n) > 0.25:
        raise SpectrumError(f"non-integral winding number {winding} on {rect}")
    return int(n)


def count_zeros(problem, rect, max_retries=5):
    """Number of zeros of the characteristic function inside rect, with
    multiplicity, by the argument principle. Zeros on the boundary trigger
    perturb-and-retry."""
    f = lambda z: char_fn(problem, z)
    r = rect
    for attempt in range(max_retries + 1):
        try:
            return _winding_number(f, r)
        except BoundaryZeroError:
            if attempt == max_retries:
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
    x = scipy.special.roots_genlaguerre(n, 1.0)[0]
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


def _real_eigenvalues_generic(problem):
    """Negative real eigenvalues for non-integer alpha by sign-change scan
    of the (real-valued) characteristic function on the negative axis."""
    a = problem.alpha
    expected = max(0, math.ceil(a - 1.0 - 1e-12))
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
            # rtol at brentq's floor of 4 eps
            roots.append(scipy.optimize.brentq(g, zs[i], zs[i + 1],
                                               xtol=1e-15, rtol=8.9e-16))
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
    for i, lam in enumerate(vals):
        spacing = min((abs(lam - o) for j, o in enumerate(vals) if j != i),
                      default=1.0)
        rect = _audit_rect(lam, spacing)
        counted = count_zeros(problem, rect)
        inside = sum(1 for o in vals if rect.contains(o))
        if counted != inside:
            raise AuditError(rect, counted, inside)


def _locate_in_rect(problem, rect, known, depth=0):
    """Zeros in rect not present in `known`, by bisection + Newton."""
    counted = count_zeros(problem, rect)
    k_in = sum(1 for z in known if rect.contains(z, margin=1e-9))
    if counted <= k_in:
        return []
    if (counted == k_in + 1 and rect.diag() < 0.2) or depth > 26:
        lam, res = _newton(problem, rect.center())
        return [(lam, res)]
    out = []
    for half in rect.bisect():
        out.extend(_locate_in_rect(problem, half, known, depth + 1))
    return out


def _recover_missed(problem, kept, n_pairs, max_rounds=3):
    """Covering-rectangle audit of the upper half plane up to the highest
    pair of interest; missed zeros are located by subdivision and added."""
    for _ in range(max_rounds):
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
        new = _locate_in_rect(problem, rect, [t[0] for t in kept])
        if not new:
            raise AuditError(rect, counted, len(inside))
        for lam, res in new:
            if lam.imag < 0:
                lam = lam.conjugate()
            if lam.imag > _DEDUP_TOL and not any(
                    abs(lam - o[0]) < _DEDUP_TOL * (1 + abs(lam))
                    for o in kept):
                kept.append((lam, res, "scan"))
        kept.sort(key=lambda t: t[0].imag)


def find_eigenvalues(problem, k_max, search_radius=None, audit=True,
                     extra_seeds=()):
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

    def _absorb(lam, res, src):
        if lam.imag <= _DEDUP_TOL:  # converged onto the real axis
            return
        if any(abs(lam - o[0]) < _DEDUP_TOL * (1 + abs(lam)) for o in kept):
            return
        kept.append((lam, res, src))
        kept.sort(key=lambda t: t[0].imag)

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
        if lam.imag < 0:
            lam = lam.conjugate()
        _absorb(lam, res, "asymptotic")
    for seed in extra_seeds:
        seed = complex(seed)
        if seed.imag < 0:
            seed = seed.conjugate()
        try:
            lam, res = _newton(problem, seed)
        except NewtonError:
            continue
        if lam.imag < 0:
            lam = lam.conjugate()
        _absorb(lam, res, "scan")

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
    trajectory_id: int
    value: complex
    branch: str
    n_real: int
    ambiguous: bool = False


def alpha_sweep(alphas, k_max, audit=False):
    """Eigenvalue trajectories over an ascending list of alpha values.

    Continuity-based pairing: nearest neighbor in the complex plane against
    the previous alpha, with continuation Newton seeds. Integer alphas use
    the Laguerre fast path (trajectory matching still applies).
    """
    alphas = list(alphas)
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly ascending")
    points = []
    prev = {}  # trajectory_id -> (value, branch)
    next_id = 0
    for alpha in alphas:
        problem = SpectralProblem(alpha)
        seeds = [v for v, b in prev.values() if b == "upper"]
        try:
            evs = find_eigenvalues(problem, k_max, audit=audit,
                                   extra_seeds=seeds)
        except SpectrumError:
            prev = {}
            continue
        n_real = sum(1 for ev in evs if ev.branch == "real")
        cur = {}
        used = set()
        assigned = []
        for ev in evs:
            best_id, best_d = None, math.inf
            for tid, (v, b) in prev.items():
                if tid in used or b != ev.branch:
                    continue
                d = abs(ev.value - v)
                if d < best_d:
                    best_id, best_d = tid, d
            ambiguous = False
            if best_id is not None and best_d < 2.0 + 0.5 * abs(ev.value):
                others = [abs(ev.value - v) for tid, (v, b) in prev.items()
                          if tid not in used and b == ev.branch
                          and tid != best_id]
                ambiguous = any(abs(d - best_d) < 1e-6 for d in others)
                tid = best_id
                used.add(tid)
            else:
                tid = next_id
                next_id += 1
            cur[tid] = (ev.value, ev.branch)
            assigned.append(SweepPoint(alpha, tid, ev.value, ev.branch,
                                       n_real, ambiguous))
        points.extend(sorted(assigned, key=lambda p: p.trajectory_id))
        prev = cur
    return points
