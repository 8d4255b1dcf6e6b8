"""Solving and verifying the period problem.

The residue conditions for complexity m read off three coefficients of the
branch polynomial:

    horizontal:  conj(c A_m) + c A_{m+2} = 0        (complex)
    vertical:    Im(c A_{m+1}) = 0                  (real)
    one-sided:   conj(c)/c + prod a_j/conj(a_j) = 0

For m = 1 the system collapses to three scalar relations in
(r1, r2, theta2, beta); for m = 2 it reduces, after fixing a_1 real
positive, to the pair of functions (horizontal_residual_m2,
vertical_residual_m2) of (r1, r2, r3, theta2, theta3) plus a phase
condition fixing beta.

Both systems are solved by one damped Newton core, _damped_newton: a
least-squares step halved until the norm drops.  The complexity-1 search
refines grid minimizers with it on the closed-form Jacobian _m1_jacobian;
continuation at complexity 2 uses the analytic Jacobian.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    BranchConfiguration,
    cis,
    cis_pi,
    invert_radial_gap,
    radial_gap,
)
from .errors import ConvergenceError, DomainError, StructureError
from .weierstrass import WeierstrassData, one_sided_residual

_SQRT2 = math.sqrt(2.0)

#: largest |residual| for which data solves its period problem
PERIOD_TOL = 1e-10

#: damped Newton steps brute_search_m1 allows each grid minimizer
M1_REFINE_STEPS = 50

#: continue_from's damped Newton target (on _system_norm) and steps per jump
CONTINUE_TOL, CONTINUE_STEPS = 1e-12, 50

log = logging.getLogger(__name__)


def _thread_count() -> int:
    """``HF_THREADS`` if it is an integer (at least 1), else min(8, cpu count).
    Reads the environment on every call.  The search no longer uses it; it
    stays because the benchmark harness reports it in its provenance."""
    env = os.environ.get("HF_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            log.warning("ignoring HF_THREADS=%r: not an integer", env)
    return min(8, os.cpu_count() or 1)


@dataclass(frozen=True)
class PeriodResiduals:
    """The three residuals whose simultaneous vanishing defines a solution
    of the period problem with the data's complexity."""

    horizontal: complex
    vertical: float
    onesided: float

    def __post_init__(self):
        object.__setattr__(self, "horizontal", complex(self.horizontal))
        object.__setattr__(self, "vertical", float(self.vertical))
        object.__setattr__(self, "onesided", float(self.onesided))

    def max_abs(self) -> float:
        return max(abs(self.horizontal), abs(self.vertical), abs(self.onesided))

    def passes(self, tol: float = PERIOD_TOL) -> bool:
        return self.max_abs() < tol


def period_residuals(data: WeierstrassData) -> PeriodResiduals:
    m = data.m
    c = data.c
    a_m = data.coefficient(m)
    a_m1 = data.coefficient(m + 1)
    a_m2 = data.coefficient(m + 2)
    return PeriodResiduals(
        horizontal=np.conj(c * a_m) + c * a_m2,
        vertical=(c * a_m1).imag,
        onesided=one_sided_residual(data),
    )


# ---------------------------------------------------------------------------
# complexity m = 1
# ---------------------------------------------------------------------------


def _m1_terms(r1, r2, theta2, beta):
    """The factors (S, B, C) of m1_residual = S * B + C, with phi = theta2 +
    beta: S = sin^2 phi and C = 4 cos^2 phi depend on the angles only, the
    bracket B on (r1, r2, theta2) only.  Broadcasts like m1_residual."""
    g1 = radial_gap(np.asarray(r1, dtype=float))
    g2 = radial_gap(np.asarray(r2, dtype=float))
    t2 = np.asarray(theta2, dtype=float)
    phi = t2 + np.asarray(beta, dtype=float)
    c2 = np.cos(t2)
    g12 = g1 * g2
    bracket = 4.0 * (g1 * g1 + g2 * g2 + 2.0 * g12 * c2) + (2.0 * c2 - g12) ** 2
    return np.sin(phi) ** 2, bracket, 4.0 * np.cos(phi) ** 2


def m1_residual(r1, r2, theta2, beta):
    """Squared magnitude of the complexity-1 period system.

    Vanishes exactly when the list (e^{i beta}, r1, r2 e^{i theta2}) solves
    the one-sided period problem.  Accepts scalars or broadcasting arrays.

    With phi = beta + theta2 and g = radial_gap(r), the squared norm of
    _m1_vector, |horizontal|^2 + Im(vertical)^2 + |phase|^2, factors as

        sin^2 phi (4 |g1 + g2 e^{i theta2}|^2 + (2 cos theta2 - g1 g2)^2)
            + 4 cos^2 phi,

    evaluated in real arithmetic through |g1 + g2 e^{i theta2}|^2 =
    g1^2 + g2^2 + 2 g1 g2 cos theta2 (see _m1_terms).  Every term is a
    square, so the zeros are r1 = r2 = 1, theta2 in {pi/2, 3 pi/2} and
    beta in {0, pi}.  The bracket depends on
    (r1, r2, theta2) and phi on (theta2, beta), so on a grid only the last
    multiply-add has the full broadcast shape.
    """
    s, bracket, c = _m1_terms(r1, r2, theta2, beta)
    out = s * bracket
    out += c
    return out


def _m1_vector(x):
    """Real residual vector whose squared norm is m1_residual."""
    r1, r2, t2, b = x
    g1, g2 = radial_gap(r1), radial_gap(r2)
    horizontal = -2j * (g1 * cmath.exp(-1j * t2) + g2) * math.sin(b + t2)
    vertical = -(2.0 * math.cos(t2) - g1 * g2) * cmath.exp(1j * (b + t2))
    phase = cmath.exp(2j * (b + t2)) + 1.0
    return np.array(
        [horizontal.real, horizontal.imag, vertical.imag, phase.real, phase.imag]
    )


def _m1_jacobian(x):
    """Exact 5x4 Jacobian of _m1_vector in (r1, r2, theta2, beta).

    With g = r - 1/r, g' = 1 + 1/r^2, phi = theta2 + beta and
    w = g1 g2 - 2 cos theta2, the components are

        Re H = -2 g1 sin theta2 sin phi
        Im H = -2 (g1 cos theta2 + g2) sin phi
        Im V = w sin phi
        Re P = cos 2 phi + 1,    Im P = sin 2 phi.
    """
    r1, r2, t2, b = x
    g1, g2 = radial_gap(r1), radial_gap(r2)
    d1, d2 = 1.0 + 1.0 / (r1 * r1), 1.0 + 1.0 / (r2 * r2)
    phi = t2 + b
    s2, c2 = math.sin(t2), math.cos(t2)
    sp, cp = math.sin(phi), math.cos(phi)
    u = g1 * c2 + g2
    w = g1 * g2 - 2.0 * c2
    s2p, c2p = 2.0 * math.sin(2.0 * phi), 2.0 * math.cos(2.0 * phi)
    return np.array([
        [-2.0 * d1 * s2 * sp, 0.0, -2.0 * g1 * (c2 * sp + s2 * cp),
         -2.0 * g1 * s2 * cp],
        [-2.0 * d1 * c2 * sp, -2.0 * d2 * sp, 2.0 * (g1 * s2 * sp - u * cp),
         -2.0 * u * cp],
        [d1 * g2 * sp, g1 * d2 * sp, 2.0 * s2 * sp + w * cp, w * cp],
        [0.0, 0.0, -s2p, -s2p],
        [0.0, 0.0, c2p, c2p],
    ])


def _damped_newton(vector, jacobian, x0, norm, tol, max_iter, admissible):
    """Damped Newton (Gauss-Newton when overdetermined) on ``vector``.

    Each iteration takes the least-squares step of ``jacobian(x)`` and halves
    it, at most 20 times, until it lands on an ``admissible`` point with a
    smaller ``norm``.  Returns (x, norm, stop), x the last accepted point,
    with stop one of "converged" (norm < tol), "stalled" (no halving
    helped), "max_iter", or "domain": the residual vector or the Jacobian at
    x holds an inf or a NaN, checked before the step is solved for, so an
    overflow ends the solve without a warning.
    """
    x = np.asarray(x0, dtype=float).copy()
    with np.errstate(all="ignore"):
        v = vector(x)
        nv = norm(v)
        for _ in range(max_iter):
            if nv < tol:
                return x, nv, "converged"
            jac = jacobian(x)
            if not (np.isfinite(v).all() and np.isfinite(jac).all()):
                return x, nv, "domain"
            step, *_ = np.linalg.lstsq(jac, -v, rcond=None)
            lam = 1.0
            for _ in range(20):
                xn = x + lam * step
                if admissible(xn):
                    vn = vector(xn)
                    nn = norm(vn)
                    if nn < nv:
                        x, v, nv = xn, vn, nn
                        break
                lam *= 0.5
            else:
                return x, nv, "stalled"
    return x, nv, "converged" if nv < tol else "max_iter"


@dataclass(frozen=True)
class SearchHit:
    """A refined local minimizer of the complexity-1 residual."""

    r1: float
    r2: float
    theta2: float
    beta: float
    residual: float

    @property
    def params(self):
        return (self.r1, self.r2, self.theta2, self.beta)

    def is_henneberg(self, tol: float = 1e-6) -> bool:
        """Within tol of m1_residual's zero set: r1 = r2 = 1, theta2 in
        {pi/2, 3 pi/2} and beta in {0, pi}, angles mod 2 pi."""
        off = [abs(self.r1 - 1), abs(self.r2 - 1)] + [
            min(_angular_dist(x, a), _angular_dist(x, a + math.pi))
            for x, a in ((self.theta2, math.pi / 2), (self.beta, 0.0))]
        return all(d < tol for d in off)


def _wrap_angle(a):
    """a reduced to [0, 2 pi); a plain ``a % (2 pi)`` rounds tiny negative
    angles up to 2 pi itself."""
    a %= 2 * math.pi
    return 0.0 if a == 2 * math.pi else a


def _angular_dist(a, b):
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def _radial_bounds(span):
    """The radial search interval (lo, hi): [1/span, span] for a number, or
    an explicit (lo, hi) pair.  DomainError unless 0 < lo < hi < inf."""
    if isinstance(span, tuple):
        lo, hi = (float(v) for v in span)
        if not 0.0 < lo < hi < math.inf:
            raise DomainError(
                f"radial bounds must satisfy 0 < lo < hi, got ({lo!r}, {hi!r})"
            )
        return lo, hi
    if not 1.0 < span < math.inf:
        raise DomainError(f"span must be a finite number > 1, got {span!r}")
    return 1.0 / span, float(span)


def _m1_search_terms(rs, angles):
    """The factors (S, B, C) of the search grid over the radii ``rs`` and
    the ``angles``: S and C on the angle pairs (k, l), and the bracket B
    packed as _factored_minima reads it, one row per radius pair i <= j of
    np.triu_indices(len(rs)) by k.

    B is symmetric bit for bit under swapping r1 and r2: IEEE + and *
    commute, and both gaps are radial_gap of the same ``rs``.  So the
    triangle holds every value of the full (i, j, k) bracket, and each
    value with the same rounding.
    """
    iu, ju = np.triu_indices(len(rs))
    s, b, c = _m1_terms(
        rs[iu][:, None, None], rs[ju][:, None, None], angles[:, None], angles
    )
    return s, b[..., 0], c


def _factored_minima(s, b, c, threshold):
    """Grid-local minima below ``threshold`` of the 4-D grid
    r[i, j, k, l] = s[k, l] * B[i, j, k] + c[k, l], with s >= 0, as an
    (n, 4) array of indices (i, j, k, l) in lexicographic order.

    The bracket B must be symmetric in (i, j), and ``b`` holds its upper
    triangle packed (see _m1_search_terms): an (n_r (n_r + 1) / 2, n_a)
    array whose row a n_r - a (a - 1) / 2 + (j - a) is B[a, j, :] for
    a <= j.  A point (i, j, k, l) reads row (min(i, j), max(i, j)).

    A point is a minimum when it is <= both neighbours on every axis.  The
    two radial axes (i, j) are clamped, so an edge point is compared with
    itself, which is the same as padding with +inf; the two angular axes
    (k, l) wrap.  The grid is never built: only points that can lie below
    ``threshold`` are evaluated, each with the same two roundings.  Since
    r[i, j, k, l] = r[j, i, k, l] and the neighbours of (j, i, k, l) are
    those of (i, j, k, l) mirrored, the minima with i > j are the mirrors
    of those with i < j, and only the triangle i <= j is tested.
    """
    n_pairs, n_a = b.shape
    n_r = (math.isqrt(8 * n_pairs + 1) - 1) // 2
    s_flat, b_flat, c_flat = s.reshape(-1), b.reshape(-1), c.reshape(-1)

    def value(i, j, k, l):
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        row = lo * n_r - lo * (lo - 1) // 2 + (hi - lo)
        kl = k * n_a + l
        return s_flat[kl] * b_flat[row * n_a + k] + c_flat[kl]

    # For s >= 0 the rounded s * b + c is non-decreasing in b, whatever the
    # sign of b (a bracket that rounds slightly below 0 included), since
    # rounding is monotone.  So a (k, l) pair has a point below threshold
    # exactly when its smallest bracket gives one (fmin skips NaN, which is
    # never below threshold), and every b above a cut whose value reaches
    # threshold stays at or above it.  The cut (threshold - c) / s is
    # widened and then checked with the formula itself; a cut that fails
    # the check (as every cut does where s = 0) becomes +inf, which drops
    # nothing.
    b_min = np.fmin.reduce(b, axis=0)
    k, l = np.nonzero(s * b_min[:, None] + c < threshold)
    sp, cp = s[k, l], c[k, l]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cut = (threshold - cp) / sp
        cut += 1e-9 * np.abs(cut)
        cut[~(sp * cut + cp >= threshold)] = np.inf

    # Join each bracket under the widest cut of its column k with the kept
    # pairs (k, l) of that column, and keep the joined points whose value is
    # below threshold.  The brackets come in flat (row, k) order and the
    # pairs sorted by (k, l), so the points are in lexicographic order.
    widest = np.full(n_a, -np.inf)
    np.maximum.at(widest, k, cut)
    rk = np.flatnonzero(b <= widest)
    per_k = np.bincount(k, minlength=n_a)
    first = np.cumsum(per_k) - per_k
    reps = per_k[rk % n_a]
    # the n-th joined point, copy r of its bracket in column k, takes the
    # pair first[k] + r, where r = n - (copies of the brackets before it)
    shift = first[rk % n_a] - (np.cumsum(reps) - reps)
    rk = np.repeat(rk, reps)
    pair = np.arange(len(rk)) + np.repeat(shift, reps)
    v = sp[pair] * b_flat[rk] + cp[pair]
    below = v < threshold
    v, pair = v[below], pair[below]
    row, kk = np.divmod(rk[below], n_a)
    iu, ju = np.triu_indices(n_r)
    point = [iu[row], ju[row], kk, l[pair]]

    # Test the neighbours one direction at a time, on the survivors only.
    for axis, n in enumerate((n_r, n_r, n_a, n_a)):
        for step in (-1, 1):
            nb = point[axis] + step
            nb = np.clip(nb, 0, n - 1) if axis < 2 else nb % n
            keep = v <= value(*point[:axis], nb, *point[axis + 1:])
            point, v = [x[keep] for x in point], v[keep]

    rows = np.stack(point, axis=1)
    mirrors = rows[point[0] < point[1]][:, [1, 0, 2, 3]]
    rows = np.concatenate([rows, mirrors])
    return rows[np.lexsort(rows.T[::-1])]


def brute_search_m1(
    span: float = 4.0,
    n_radial: int = 33,
    n_angular: int = 48,
):
    """Grid search + damped refinement for complexity-1 period solutions.

    Moduli run log-spaced over [1/span, span] (or an explicit (lo, hi)
    pair); angles over [0, 2 pi).
    Grid-local minimizers below 1 are refined by at most M1_REFINE_STEPS
    damped Newton steps (the residual is locally quadratic around its
    zeros, so at this resolution every zero pulls a grid point well below
    that bound; plateaus of large constant residual are skipped).  Each
    step solves with the closed-form Jacobian _m1_jacobian of _m1_vector;
    no finite difference is taken.  Refinement stays inside the radial
    search box.  Refinements that converge (to Newton's 1e-28 target) are
    merged when closer than 1e-4 in parameter space and returned sorted by
    parameters; the others are dropped.

    The 4-D residual grid is never built.  It factors as
    S[k, l] * B[i, j, k] + C[k, l] (see _m1_terms), so the search builds S
    and C on the (n_angular, n_angular) angle grid and the bracket B on
    the radius pairs i <= j only, and evaluates the residual only at the
    points that can lie below 1 and at their grid neighbours
    (_factored_minima).  The triangle suffices because B is symmetric bit
    for bit under swapping r1 and r2 (see _m1_search_terms), so the
    residual at (i, j, k, l) equals the one at (j, i, k, l).  Time and
    memory grow as n_radial (n_radial + 1) / 2 * n_angular + n_angular^2
    plus the number of those points.  A bracket that overflows is +inf,
    never below 1, and drops out without a warning.
    """
    r_lo, r_hi = _radial_bounds(span)
    if n_radial < 1 or n_angular < 1:
        raise DomainError(
            f"grid sizes must be at least 1, got n_radial={n_radial!r}, "
            f"n_angular={n_angular!r}"
        )
    rs = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), n_radial))
    angles = np.linspace(0.0, 2 * math.pi, n_angular, endpoint=False)

    with np.errstate(all="ignore"):
        minima = _factored_minima(*_m1_search_terms(rs, angles), 1.0)

    lo, hi = 0.9 * r_lo, 1.1 * r_hi
    hits = []
    for i, j, k, l in minima:
        x, value, stop = _damped_newton(
            _m1_vector, _m1_jacobian, np.array([rs[i], rs[j], angles[k], angles[l]]),
            lambda v: float(v @ v), 1e-28, M1_REFINE_STEPS,
            lambda x: lo <= x[0] <= hi and lo <= x[1] <= hi,
        )
        if stop == "converged":
            r1, r2, theta2, beta = map(float, x)
            hits.append(SearchHit(r1, r2, _wrap_angle(theta2), _wrap_angle(beta), float(value)))

    merged: list[SearchHit] = []
    for hit in sorted(hits, key=lambda h: h.residual):
        for kept in merged:
            if (
                abs(hit.r1 - kept.r1) + abs(hit.r2 - kept.r2)
                + _angular_dist(hit.theta2, kept.theta2)
                + _angular_dist(hit.beta, kept.beta)
            ) < 1e-4:
                break
        else:
            merged.append(hit)
    return sorted(merged, key=lambda h: h.params)


# ---------------------------------------------------------------------------
# complexity m = 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuliPoint:
    """Coordinates (r1, r2, r3, theta2, theta3, beta) with a_1 = r1 real
    positive; c = e^{i beta}."""

    r1: float
    r2: float
    r3: float
    theta2: float
    theta3: float
    beta: float

    def __post_init__(self):
        coords = (self.r1, self.r2, self.r3, self.theta2, self.theta3, self.beta)
        if not all(map(math.isfinite, coords)):
            raise DomainError(f"moduli point coordinates must be finite, got {coords}")
        if min(self.r1, self.r2, self.r3) <= 0:
            raise DomainError("moduli must be positive")

    def weierstrass(self) -> WeierstrassData:
        c = cis(self.beta)
        config = BranchConfiguration(
            (self.r1, self.r2, self.r3), (0.0, self.theta2, self.theta3)
        )
        return WeierstrassData(c, config)

    @property
    def triple(self):
        return (self.r3, self.theta2, self.theta3)


def h2_point() -> ModuliPoint:
    """The most symmetric complexity-2 list in moduli coordinates."""
    return ModuliPoint(1.0, 1.0, 1.0, math.pi / 3, 2 * math.pi / 3, math.pi / 2)


def horizontal_residual_m2(p: ModuliPoint) -> complex:
    """Reduced horizontal-period condition for complexity 2 (complex).

    Proportional to conj(c A_2) + c A_4 once the phase condition fixing
    beta holds; vanishing is the horizontal half of the period problem.
    """
    g1, g2, g3 = radial_gap(p.r1), radial_gap(p.r2), radial_gap(p.r3)
    e2, e3 = cmath.exp(1j * p.theta2), cmath.exp(1j * p.theta3)
    return (
        1.0
        + e2 * e2
        + e3 * e3
        - g1 * (g2 * e2 + g3 * e3)
        - g2 * g3 * e2 * e3
    )


def vertical_residual_m2(p: ModuliPoint) -> float:
    """Reduced vertical-period condition for complexity 2 (real).

    Im(c A_3) = 0 holds, given the phase condition, iff this vanishes.
    """
    g1, g2, g3 = radial_gap(p.r1), radial_gap(p.r2), radial_gap(p.r3)
    return (
        g2 * math.cos(p.theta3)
        + g3 * math.cos(p.theta2)
        + g1 * math.cos(p.theta2 - p.theta3)
        - 0.5 * g1 * g2 * g3
    )


def beta_from_angles(theta2: float, theta3: float) -> float:
    """beta solving e^{2i(beta + theta2 + theta3)} = -1, reduced to [0, pi)."""
    return (math.pi / 2 - theta2 - theta3) % math.pi


def _system_vector(r1, r2, x):
    p = ModuliPoint(r1, r2, x[0], x[1], x[2], math.pi / 2)
    fv = horizontal_residual_m2(p)
    return np.array([fv.real, fv.imag, vertical_residual_m2(p)])


def period_jacobian_m2(p: ModuliPoint) -> np.ndarray:
    """Analytic Jacobian of (Re F, Im F, G) with respect to (r3, theta2,
    theta3), where F and G are the reduced horizontal/vertical conditions."""
    g1, g2, g3 = radial_gap(p.r1), radial_gap(p.r2), radial_gap(p.r3)
    gp3 = 1.0 + 1.0 / (p.r3 * p.r3)
    e2, e3 = cmath.exp(1j * p.theta2), cmath.exp(1j * p.theta3)
    df_dr3 = gp3 * (-g1 * e3 - g2 * e2 * e3)
    df_dt2 = 2j * e2 * e2 - 1j * g1 * g2 * e2 - 1j * g2 * g3 * e2 * e3
    df_dt3 = 2j * e3 * e3 - 1j * g1 * g3 * e3 - 1j * g2 * g3 * e2 * e3
    dg_dr3 = gp3 * (math.cos(p.theta2) - 0.5 * g1 * g2)
    dg_dt2 = -g3 * math.sin(p.theta2) - g1 * math.sin(p.theta2 - p.theta3)
    dg_dt3 = -g2 * math.sin(p.theta3) + g1 * math.sin(p.theta2 - p.theta3)
    return np.array(
        [
            [df_dr3.real, df_dt2.real, df_dt3.real],
            [df_dr3.imag, df_dt2.imag, df_dt3.imag],
            [dg_dr3, dg_dt2, dg_dt3],
        ]
    )


def _system_norm(v) -> float:
    """max(|F|, |G|) with F the complex horizontal condition."""
    return max(math.hypot(v[0], v[1]), abs(v[2]))


def continue_from(p0: ModuliPoint, r1: float, r2: float, _depth: int = 0) -> ModuliPoint:
    """Continue the solved point p0 to prescribed (r1, r2).

    Newton iterates on (r3, theta2, theta3) with (r1, r2) held fixed, at
    most CONTINUE_STEPS steps until _system_norm < CONTINUE_TOL; if the
    direct jump fails the path from (p0.r1, p0.r2) is bisected.  beta is
    recovered from the phase condition.  The solution branch is only locally
    guaranteed: paths that run into a fold (vanishing Jacobian determinant)
    or whose system overflows end in ConvergenceError, naming the stop and
    carrying the last residual.
    """
    if not all(math.isfinite(r) and r > 0 for r in (r1, r2)):
        raise DomainError(f"target moduli must be finite and positive, got {r1}, {r2}")
    with np.errstate(all="ignore"):
        det = float(np.linalg.det(period_jacobian_m2(p0)))
    if not abs(det) > 1e-6:  # nan where the Jacobian overflows
        raise StructureError(f"Jacobian at start point is singular (det={det:.3e})")
    x, norm, stop = _damped_newton(
        lambda x: _system_vector(r1, r2, x),
        lambda x: period_jacobian_m2(ModuliPoint(r1, r2, *x, math.pi / 2)),
        p0.triple,
        _system_norm,
        CONTINUE_TOL,
        CONTINUE_STEPS,
        lambda x: x[0] > 0,
    )
    if stop == "converged":
        return ModuliPoint(r1, r2, *x, beta_from_angles(x[1], x[2]))
    if _depth >= 12:
        raise ConvergenceError(f"Newton {stop}; last residual {norm:.3e}", norm)
    half = continue_from(p0, 0.5 * (p0.r1 + r1), 0.5 * (p0.r2 + r2), _depth=_depth + 1)
    return continue_from(half, r1, r2, _depth=_depth + 1)


# ---------------------------------------------------------------------------
# the explicit family and the symmetric examples
# ---------------------------------------------------------------------------


def _clamped_sqrt(x: float, message: str) -> float:
    """sqrt(x), reading x in [-1e-9, 0) as a rounded 0; DomainError with
    ``message`` for x below that."""
    if x < -1e-9:
        raise DomainError(message)
    return math.sqrt(max(x, 0.0))


def family_sqrt_arg(theta2: float) -> float:
    """sqrt(1 - 8 cos(2 t) - 8 cos(4 t)), the square root entering the
    family formulas; defined where the radicand is nonnegative."""
    radicand = 1.0 - 8.0 * math.cos(2 * theta2) - 8.0 * math.cos(4 * theta2)
    return _clamped_sqrt(radicand, f"square root undefined at theta2={theta2!r}")


def _in_family_domain(theta2: float) -> bool:
    eps = 1e-12
    return (math.pi / 4 < theta2 <= math.pi / 3 + eps) or (
        2 * math.pi / 3 - eps <= theta2 < 3 * math.pi / 4
    )


@dataclass(frozen=True)
class FamilyPoint:
    """A point of the explicit one-parameter family of complexity-2
    solutions, parametrized by theta2 with theta3 = -theta2 and beta = pi/2."""

    theta2: float
    r1: float
    r2: float
    sign: int = 1

    def moduli_point(self) -> ModuliPoint:
        return ModuliPoint(
            self.r1, self.r2, self.r2, self.theta2, -self.theta2, math.pi / 2
        )

    def weierstrass(self) -> WeierstrassData:
        return self.moduli_point().weierstrass()


def family_theta2(theta2: float, sign: int = 1) -> FamilyPoint:
    """Solve the complexity-2 family at angle theta2.

    Valid for theta2 in (pi/4, pi/3] U [2 pi/3, 3 pi/4); sign=-1 selects the
    mirror pair, replacing (r1, r2) by (1/r1, 1/r2).  The construction is
    verified against the reduced period conditions before returning.
    """
    theta2 = float(theta2)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if not _in_family_domain(theta2):
        raise DomainError(
            f"theta2={theta2!r} outside (pi/4, pi/3] U [2pi/3, 3pi/4)"
        )
    f = family_sqrt_arg(theta2)
    root = _clamped_sqrt(f - 3.0, f"family undefined at theta2={theta2!r}")
    c2 = math.cos(2 * theta2)
    gap1 = root * (f + 3.0 + 4.0 * c2) / (8.0 * _SQRT2 * math.cos(theta2) * c2)
    gap2 = -root / _SQRT2
    if sign == -1:
        gap1, gap2 = -gap1, -gap2
    point = FamilyPoint(theta2, invert_radial_gap(gap1), invert_radial_gap(gap2), sign)
    mp = point.moduli_point()
    err = abs(horizontal_residual_m2(mp)) + abs(vertical_residual_m2(mp))
    if err >= 1e-9:
        raise StructureError(
            f"family point residual {err:.3e} at theta2={theta2!r}"
        )
    return point


def symmetric_example(m: int) -> WeierstrassData:
    """The most symmetric solution at complexity m: branch values at the
    (2m+2)-roots-of-unity representatives and c = i^{m-1}.

    The configuration carries exact pi-fraction angles, so the period
    residuals vanish exactly (coefficient cancellation, not tolerance).
    The frozen instance for each m is built once and shared by every
    caller, with the algebra derived from it.
    """
    if m < 1 or int(m) != m:
        raise DomainError("complexity must be a positive integer")
    return _symmetric_example(int(m))


@functools.cache
def _symmetric_example(m: int) -> WeierstrassData:
    """symmetric_example for a checked m; cached, so that the report and
    the isometry certificates of one verify share one branch product."""
    c = cis_pi(Fraction(m - 1, 2))
    config = BranchConfiguration.from_pi_fractions(
        [(1.0, Fraction(j, m + 1)) for j in range(m + 1)]
    )
    return WeierstrassData(c, config)
