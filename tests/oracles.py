"""Test oracles: the hand-written closed forms of the named surfaces, the
geometry the tests check them by, and second derivations of what
``henneberg`` computes one way.

``henneberg`` evaluates every named surface through its Weierstrass forms
(``IntegratedForms.evaluate``); these trigonometric formulas are the
independent references those evaluations are checked against.  Each
formula is written once, as ``*_terms(..., lib)`` with the math module a
parameter, so that numpy evaluates it on arrays and mpmath at high
precision.  The other references check one result each by another route:
the one-pair coefficient recursion against the branch product, a sampled
Procrustes fit against the coefficient certificates of the isometries,
central differences against the analytic period Jacobians, the metric
density against the immersion's derivatives, and LaurentPoly arithmetic
against the aligned coefficient block of ``phi_forms``.  Import as
``conftest`` is: ``from oracles import eval_h1``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from henneberg import (
    BranchConfiguration,
    DomainError,
    IntegratedForms,
    IsometryCertificate,
    LaurentPoly,
    ModuliPoint,
    ParameterMap,
    RigidMotion,
    SurfaceMap,
    WeierstrassData,
    eval_hm_even,
    horizontal_residual_m2,
    radial_gap,
    vertical_residual_m2,
)
from henneberg.algebra import cis
from henneberg.geometry import ISOMETRY_REL_TOL
from henneberg.surfaces import _polar


def h1_terms(r, t, lib):
    """The classical surface of complexity 1 (branch images on the x3-axis),
    as three coordinates; ``lib`` supplies cos and sin (numpy, or mpmath
    for a scalar point)."""
    u1, u3 = r - 1 / r, r**3 - 1 / r**3
    return (
        lib.cos(t) / 2 * u1 - lib.cos(3 * t) / 6 * u3,
        -lib.sin(t) / 2 * u1 - lib.sin(3 * t) / 6 * u3,
        lib.cos(2 * t) / 2 * (r**2 + 1 / r**2),
    )


def hm_odd_terms(m: int, r, t, lib):
    """Odd-complexity symmetric surface as three coordinates (lib as in
    h1_terms); reduces to h1_terms at m=1."""
    um = r**m - r ** (-m)
    um2 = r ** (m + 2) - r ** (-(m + 2))
    um1 = r ** (m + 1) + r ** (-(m + 1))
    return (
        lib.cos(m * t) / (2 * m) * um - lib.cos((m + 2) * t) / (2 * (m + 2)) * um2,
        -lib.sin(m * t) / (2 * m) * um - lib.sin((m + 2) * t) / (2 * (m + 2)) * um2,
        lib.cos((m + 1) * t) / (m + 1) * um1,
    )


def limit_m2_terms(r, t, lib):
    """Scaled limit of the complexity-2 family as its branch modulus
    degenerates, as three coordinates (lib as in h1_terms); congruent to
    h1_terms after a quarter-turn gauge rotation."""
    u1, u3 = r - 1 / r, r**3 - 1 / r**3
    return (
        -lib.sin(t) / 2 * u1 + lib.sin(3 * t) / 6 * u3,
        -lib.cos(t) / 2 * u1 - lib.cos(3 * t) / 6 * u3,
        -lib.cos(t) * lib.sin(t) * (r**2 + 1 / r**2),
    )


def eval_h1(r, theta):
    """h1_terms at (r, theta) arrays, stacked on a trailing axis."""
    return np.stack(h1_terms(*_polar(r, theta), np), axis=-1)


def eval_hm_odd(m: int, r, theta):
    """hm_odd_terms at (r, theta) arrays, stacked on a trailing axis."""
    if m < 1 or m % 2 != 1:
        raise DomainError(f"m must be an odd positive integer, got {m}")
    return np.stack(hm_odd_terms(m, *_polar(r, theta), np), axis=-1)


def eval_limit_m2(r, theta):
    """limit_m2_terms at (r, theta) arrays, stacked on a trailing axis."""
    return np.stack(limit_m2_terms(*_polar(r, theta), np), axis=-1)


def closed_form_hm(m: int) -> SurfaceMap:
    """H_m by its closed form (eval_hm_odd, or eval_hm_even for even m), as
    a SurfaceMap: the oracle for tests that check surface_hm(m)'s integrated
    forms by sampling."""
    closed = eval_hm_odd if m % 2 == 1 else eval_hm_even
    return SurfaceMap(f"hm-{m}", lambda r, t: closed(m, r, t))


def one_sided_descent_residual(data: WeierstrassData, phase_angle: float) -> float:
    """Residual of the antipodal compatibility for the rotated form
    e^{i phase} omega; vanishes only for phase 0 or pi (mod 2 pi).

    e^{i p} f(-1/conj z) + e^{-i p} conj(z^4 f(z)) is a Laurent polynomial
    in conj z: f = sum c_k z^k gives the coefficient e^{i p} (-1)^k c_k at
    exponent -k and e^{-i p} conj(c_k) at k + 4.  The residual is its
    largest coefficient over the largest |c_k|.
    """
    f = data.f
    exps = np.arange(f.lowest, f.highest + 1)
    phase = cis(phase_angle)
    lo = min(-f.highest, f.lowest + 4)
    acc = np.zeros(max(-f.lowest, f.highest + 4) - lo + 1, dtype=complex)
    acc[-exps - lo] += phase * np.where(exps % 2, -1.0, 1.0) * f.coeffs
    acc[exps + 4 - lo] += np.conj(phase) * np.conj(f.coeffs)
    return float(np.abs(acc).max() / np.abs(f.coeffs).max())


@dataclass(frozen=True)
class Hypocycloid:
    """Rolling-circle curve: inner radius r rolling inside outer radius R.

    For rational R/r = a/b in lowest terms the curve closes after b turns
    and has exactly a cusps.
    """

    r_inner: float
    R_outer: float

    def __post_init__(self):
        if not (0 < self.r_inner < self.R_outer):
            raise DomainError("need 0 < r_inner < R_outer")

    @property
    def ratio(self) -> Fraction:
        return (
            Fraction(self.R_outer) / Fraction(self.r_inner)
        ).limit_denominator(10**6)

    @property
    def cusp_count(self) -> int:
        return self.ratio.numerator

    @classmethod
    def standard(cls, m) -> "Hypocycloid":
        """The family r = 1/(m+2), R = (2m+2)/(m(m+2)) traced by the
        even-type surfaces' equators (odd m: by the conjugate surfaces)."""
        q = Fraction(m)
        return cls(float(1 / (q + 2)), float((2 * q + 2) / (q * (q + 2))))


def hypocycloid_point(h: Hypocycloid, t):
    """Plane point of the rolling-circle parametrization at angle t."""
    t = np.asarray(t, dtype=float)
    d = h.R_outer - h.r_inner
    k = d / h.r_inner
    return np.stack(
        [
            -d * np.sin(t) + h.r_inner * np.sin(k * t),
            -d * np.cos(t) - h.r_inner * np.cos(k * t),
        ],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# branch configurations and the one-pair recursion
# ---------------------------------------------------------------------------


def antipodes(config: BranchConfiguration) -> np.ndarray:
    """The antipodes -1/conj(a_j) of the branch values, the other roots of
    the branch polynomial."""
    return -1.0 / np.conj(config.branch_values())


def permuted(config: BranchConfiguration, order) -> BranchConfiguration:
    """The configuration with its branch values (and angle tags) in
    ``order``."""
    tags = None
    if config.angles_pi is not None:
        tags = tuple(config.angles_pi[i] for i in order)
    return BranchConfiguration(
        tuple(config.moduli[i] for i in order),
        tuple(config.angles[i] for i in order),
        tags,
    )


def extend_by_pair(p_m: LaurentPoly, a_new: complex) -> LaurentPoly:
    """Extend a branch polynomial by one antipodal pair via the coefficient
    recursion A'_h = A_{h-2} - A_{h-1} R(r) e^{i theta} - A_h e^{2 i theta},
    applied to every exponent h (out-of-range coefficients read as zero)."""
    a_new = complex(a_new)
    if a_new == 0:
        raise DomainError("new branch value must be nonzero")
    if p_m.lowest != 0 or p_m.highest < 4 or p_m.highest % 2 != 0:
        raise DomainError("expected a branch polynomial of even degree >= 4")
    if abs(p_m.coefficient(p_m.highest) - 1.0) > 1e-9:
        raise DomainError("branch polynomial must be monic")
    r = abs(a_new)
    unit = a_new / r
    gap_term = radial_gap(r) * unit
    unit2 = unit * unit
    old = p_m.coeffs
    out = np.zeros(len(old) + 2, dtype=complex)
    out[2:] += old  # A_{h-2}
    out[1:-1] -= old * gap_term  # A_{h-1} R e^{i theta}
    out[:-2] -= old * unit2  # A_h e^{2 i theta}
    return LaurentPoly(0, out)


# ---------------------------------------------------------------------------
# rigid motions and the sampled isometry check
# ---------------------------------------------------------------------------


def rotation_z(angle: float, flip_z: bool = False) -> RigidMotion:
    """Rotation by ``angle`` about the x3-axis, followed by x3 -> -x3 when
    ``flip_z``."""
    c, s = math.cos(angle), math.sin(angle)
    q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, -1.0 if flip_z else 1.0]])
    return RigidMotion(q, np.zeros(3))


def reflection(normal) -> RigidMotion:
    """Mirror in the plane through the origin with the given normal."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return RigidMotion(np.eye(3) - 2.0 * np.outer(n, n), np.zeros(3))


def fit_rigid_motion(source, target) -> RigidMotion:
    """Least-squares orthogonal Procrustes fit target ~ Q source + t of two
    point sets, one point per row: Q = u vt from the SVD of the centred
    cross-covariance, improper motions admitted (Schönemann 1966)."""
    a = np.asarray(source, dtype=float)
    b = np.asarray(target, dtype=float)
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    u, _, vt = np.linalg.svd((b - cb).T @ (a - ca))
    q = u @ vt
    return RigidMotion(q, cb - q @ ca)


def compose(a: ParameterMap, b: ParameterMap) -> ParameterMap:
    """The parameter map a after b."""
    shift = (-b.shift_pi if a.negate else b.shift_pi) + a.shift_pi
    return ParameterMap(a.negate ^ b.negate, shift, a.invert ^ b.invert)


def verify_isometry(surface, pmap: ParameterMap, motion: RigidMotion = None,
                    samples: int = 240, seed: int = 0,
                    rel_tol: float = ISOMETRY_REL_TOL) -> IsometryCertificate:
    """Check on sampled points that the parameter map induces a rigid motion
    on the surface.

    ``surface`` is any (r, theta) -> R^3 evaluator; ``motion=None`` fits the
    best orthogonal motion by Procrustes before computing the residual
    max |X(sigma(p)) - (Q X(p) + t)|, passed against rel_tol times the
    sample diameter.  An orthogonal fit in 3-D needs at least 4 samples.
    """
    if samples < 4:
        raise DomainError(f"an isometry check needs at least 4 samples, got {samples}")
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(-0.8, 0.8, samples))
    theta = rng.uniform(0.0, 2 * math.pi, samples)
    source = surface(r, theta)
    target = surface(*pmap.apply(r, theta))
    if motion is None:
        motion = fit_rigid_motion(source, target)
    residual = float(np.abs(target - motion.apply(source)).max())
    diameter = float(np.linalg.norm(source.max(axis=0) - source.min(axis=0)))
    return IsometryCertificate(pmap, motion, residual, rel_tol * max(diameter, 1e-30))


# ---------------------------------------------------------------------------
# the period conditions by another route
# ---------------------------------------------------------------------------


def horizontal_residual_m2_alt(p: ModuliPoint) -> complex:
    """Algebraically equivalent form of horizontal_residual_m2 (obtained
    through e^{2 i t} = 2 cos t e^{i t} - 1)."""
    g1, g2, g3 = radial_gap(p.r1), radial_gap(p.r2), radial_gap(p.r3)
    e2, e3 = cmath.exp(1j * p.theta2), cmath.exp(1j * p.theta3)
    return (
        e3 * e3
        + (2.0 * math.cos(p.theta2) - g1 * g2) * e2
        - g3 * (g1 + g2 * e2) * e3
    )


def fd_jacobian(vector, x, step):
    """Central-difference Jacobian of ``vector`` at x, or None when a probe
    leaves the domain (``vector`` returns None there)."""
    cols = []
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = step
        vp, vm = vector(x + e), vector(x - e)
        if vp is None or vm is None:
            return None
        cols.append((vp - vm) / (2 * step))
    return np.column_stack(cols)


def period_jacobian_m2_fd(p: ModuliPoint, step: float = 1e-6) -> np.ndarray:
    """Central differences of (Re F, Im F, G), the public
    horizontal_residual_m2 and vertical_residual_m2, in (r3, theta2,
    theta3): the reference for period_jacobian_m2."""
    def vector(x):
        q = ModuliPoint(p.r1, p.r2, x[0], x[1], x[2], p.beta)
        f = horizontal_residual_m2(q)
        return np.array([f.real, f.imag, vertical_residual_m2(q)])

    return fd_jacobian(vector, np.array(p.triple), step)


def metric_density(data: WeierstrassData, z):
    """Conformal factor lambda with ds = lambda |dz|:  (1+|z|^2)|f(z)|/2."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise DomainError("metric density undefined at z=0")
    return (1.0 + np.abs(z) ** 2) * np.abs(data.f.evaluate(z)) / 2.0


def horner_reference(poly: LaurentPoly, z):
    """LaurentPoly.evaluate as the out-of-place loop ``acc = acc * x + c``,
    a new array each step: x = z for exponents 0 and up, then x = 1/z for
    the principal part, which is multiplied by 1/z once more, and both
    parts added to zeros.  Every element rounds as numpy's array loops
    round it; ``evaluate`` promises the same bytes at every size."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    lo, hi = min(poly.lowest, 0), max(poly.highest, 0)
    coeffs = np.zeros(hi - lo + 1, dtype=complex)
    coeffs[poly.lowest - lo : poly.highest - lo + 1] = poly.coeffs
    pos, neg = coeffs[-lo:], coeffs[:-lo][::-1]  # exponents 0, 1, ... and -1, -2, ...
    out = np.zeros_like(z)
    acc = np.full_like(z, pos[-1])
    for c in pos[-2::-1]:
        acc = acc * z + c
    out += acc
    if len(neg):
        w = 1.0 / z
        acc = np.full_like(z, neg[-1])
        for c in neg[-2::-1]:
            acc = acc * w + c
        out += acc * w
    return out[0] if scalar else out


def forms_reference(forms, z):
    """IntegratedForms.evaluate from horner_reference: the real part of
    each polynomial plus its ln|z| term, stacked on a trailing axis."""
    z = np.asarray(z, dtype=complex)
    parts = [np.real(horner_reference(p, z)) for p in forms.polys]
    logs = np.log(np.abs(z))
    return np.stack([parts[j] + forms.log_coeffs[j] * logs for j in range(3)], axis=-1)


def f_by_arithmetic(data: WeierstrassData) -> LaurentPoly:
    """WeierstrassData.f by LaurentPoly arithmetic: P shifted by z^{-m-3},
    then scaled by c."""
    return data.branch_poly.shift(-data.m - 3).scale(data.c)


def phi_forms_by_arithmetic(data: WeierstrassData) -> tuple:
    """phi_forms by LaurentPoly arithmetic on f_by_arithmetic(data), term by
    term as the ``weierstrass`` module docstring writes the three forms."""
    f = f_by_arithmetic(data)
    f2 = f.shift(2)
    return f.scale(0.5) - f2.scale(0.5), f.scale(0.5j) + f2.scale(0.5j), f.shift(1)


def integral_reference(phi: LaurentPoly) -> LaurentPoly:
    """LaurentPoly.integral's polynomial by its own exponent loop:
    z^k -> z^{k+1}/(k+1) on the exponents k != -1."""
    exps = np.arange(phi.lowest, phi.highest + 1)
    keep = exps != -1
    lo = phi.lowest + 1
    arr = np.zeros(phi.highest + 2 - lo, dtype=complex)
    arr[exps[keep] + 1 - lo] = phi.coeffs[keep] / (exps[keep] + 1)
    return LaurentPoly(lo, arr)


def integrated_forms_reference(data: WeierstrassData) -> IntegratedForms:
    """integrate_forms by integral_reference on each form, with the real
    part of its z^{-1} coefficient as the ln|z| coefficient."""
    polys = tuple(integral_reference(phi) for phi in data.phi)
    return IntegratedForms(polys, [phi.coefficient(-1).real for phi in data.phi])


def bjorling_x3_reference(speed: LaurentPoly, denom: int):
    """x3 of a Björling patch as the primitive in w of its analytic speed
    s(E), E = e^{i w / D}: the Laurent part D s_k E^k / (i k) for k != 0,
    rotated by -i, and the ln|E| coefficient -s_0 D of the drift s_0 w.
    Returns (polynomial, log coefficient)."""
    exps = np.arange(speed.lowest, speed.highest + 1)
    safe = np.where(exps == 0, 1, exps)
    coeffs = np.where(exps == 0, 0.0, speed.coeffs * denom / (1j * safe))
    primitive = LaurentPoly(speed.lowest, coeffs).scale(complex(0.0, -1.0))
    return primitive, -speed.coefficient(0).real * denom
