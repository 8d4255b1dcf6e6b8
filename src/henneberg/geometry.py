"""Björling solver, isometry-group verification, flux and curve diagnostics.

The Björling solution through a planar analytic curve gamma with planar unit
normal eta reduces, because eta x gamma' = (0, 0, s) with s the signed
analytic speed, to

    X(u, v) = (Re x(w), Re y(w), sign * Im Int_{w0}^w s(w) dw),  w = u + i v.

A planar curve is given as finite trigonometric sums with rational
frequencies, and is stored, from construction on, as the Laurent polynomials
in E = e^{i w / D} that those sums are; its points, velocities, normals and
cusps are all evaluated from them.  The analytic speed is the exact
polynomial square root of gamma' . gamma' (an error is raised when that is
not a perfect square).  The integral is therefore closed-form, termwise
D s_k E^k / (i k) for k != 0 and s_0 w for k = 0.  The Gauss map of the
patch is the ratio g = -i sign s / (x' - i y') with its common factors
(the cusps, where both vanish) divided out, and the cusps of such a curve
are the unit-circle roots of x' + i y'.  Cusps of a band-limited callable
curve are counted the same way, from the Laurent polynomial that its
discrete Fourier transform gives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import LaurentPoly
from .errors import DomainError, StructureError
from .weierstrass import WeierstrassData, distinct_count, form_residues, unit_normal

# ---------------------------------------------------------------------------
# analytic planar curves: trig-sum input, Laurent polynomials in E = e^{it/D}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigTerm:
    """amplitude * cos(frequency * t + phase), frequency an exact rational."""

    amplitude: float
    frequency: Fraction
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "frequency", Fraction(self.frequency))


def _terms_to_laurent(terms, denom: int) -> LaurentPoly:
    """a cos(f t + p) -> (a/2) e^{ip} E^{fD} + (a/2) e^{-ip} E^{-fD}."""
    acc: dict[int, complex] = {}
    for term in terms:
        k = term.frequency * denom
        assert k.denominator == 1
        k = int(k)
        half = 0.5 * term.amplitude * cmath.exp(1j * term.phase)
        acc[k] = acc.get(k, 0.0) + half
        acc[-k] = acc.get(-k, 0.0) + half.conjugate()
    return LaurentPoly.from_dict(acc)


def _laurent_diff(poly: LaurentPoly, denom: int) -> LaurentPoly:
    exps = np.arange(poly.lowest, poly.highest + 1)
    return LaurentPoly(poly.lowest, poly.coeffs * (1j * exps / denom))


@dataclass(frozen=True)
class AnalyticPlanarCurve:
    """A planar curve whose coordinates are finite trig sums over a domain.

    Construction converts the terms once to Laurent polynomials in
    E = e^{i t / D}, with D (``denom``) the common denominator of the
    rational frequencies: ``x`` and ``y``, their t-derivatives ``dx`` and
    ``dy``, and ``z`` = x + i y, ``dz`` = dx + i dy.  Every evaluation reads
    these; equality and hashing see only the terms and the domain.  Integer
    frequencies (D = 1) give a 2 pi-periodic closed curve.
    """

    x_terms: tuple
    y_terms: tuple
    domain: tuple = (0.0, 2 * math.pi)

    def __post_init__(self):
        object.__setattr__(self, "x_terms", tuple(self.x_terms))
        object.__setattr__(self, "y_terms", tuple(self.y_terms))
        terms = self.x_terms + self.y_terms
        denom = math.lcm(*(term.frequency.denominator for term in terms))
        x = _terms_to_laurent(self.x_terms, denom)
        y = _terms_to_laurent(self.y_terms, denom)
        dx, dy = _laurent_diff(x, denom), _laurent_diff(y, denom)
        polys = dict(denom=denom, x=x, y=y, dx=dx, dy=dy,
                     z=x + y.scale(1j), dz=dx + dy.scale(1j))
        for name, value in polys.items():
            object.__setattr__(self, name, value)

    @property
    def period(self) -> float:
        return self.domain[1] - self.domain[0]

    def _evaluate(self, t, xy, x, y):
        """(x, y) at t: for real t the real and imaginary parts of one
        evaluation of xy = x + i y, for complex t x and y separately (the
        analytic extension)."""
        e = np.exp(1j * np.asarray(t) / self.denom)
        if np.iscomplexobj(t):
            return np.stack([x.evaluate(e), y.evaluate(e)], axis=-1)
        # each complex value's (real, imag) pair, read in place
        return np.asarray(xy.evaluate(e))[..., None].view(np.float64)

    def point(self, t):
        """Curve point; complex t evaluates the analytic extension."""
        return self._evaluate(t, self.z, self.x, self.y)

    def velocity(self, t):
        return self._evaluate(t, self.dz, self.dx, self.dy)

    def speed(self, t):
        return np.linalg.norm(self.velocity(t), axis=-1)

    def normal(self, t):
        """Unit planar normal, the tangent rotated by -90 degrees."""
        v = self.velocity(t)
        n = np.stack([v[..., 1], -v[..., 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)


def equator_curve(m) -> AnalyticPlanarCurve:
    """Unit-circle image of the even-type surface with exponent m: the
    standard hypocycloid in the theta parametrization."""
    q = Fraction(m)
    mf, m2 = float(q), float(q + 2)
    x = (TrigTerm(1 / mf, q, math.pi / 2), TrigTerm(1 / m2, q + 2, -math.pi / 2))
    y = (TrigTerm(1 / mf, q, math.pi), TrigTerm(1 / m2, q + 2, math.pi))
    span = 2 * math.pi * q.denominator
    return AnalyticPlanarCurve(x, y, (0.0, span))


def astroid_curve() -> AnalyticPlanarCurve:
    """The four-cusp hypocycloid bounding the conjugate classical surface."""
    return equator_curve(1)


def circle_curve(radius: float = 1.0) -> AnalyticPlanarCurve:
    return AnalyticPlanarCurve(
        (TrigTerm(radius, Fraction(1), 0.0),),
        (TrigTerm(radius, Fraction(1), -math.pi / 2),),
    )


# ---------------------------------------------------------------------------
# Björling construction
# ---------------------------------------------------------------------------


def _laurent_sqrt(q: LaurentPoly) -> LaurentPoly:
    """Exact square root of a perfect-square Laurent polynomial."""
    lo, coeffs = q.lowest, q.coeffs
    n = len(coeffs)
    if q.is_zero or lo % 2 != 0 or (n - 1) % 2 != 0:
        raise StructureError("speed^2 is not a perfect square Laurent polynomial")
    half = (n - 1) // 2
    s = np.zeros(half + 1, dtype=complex)
    s[0] = np.sqrt(coeffs[0])
    for i in range(1, half + 1):
        conv = np.dot(s[1:i], s[i - 1 : 0 : -1]) if i >= 2 else 0.0
        s[i] = (coeffs[i] - conv) / (2 * s[0])
    root = LaurentPoly(lo // 2, s)
    check = root * root - q
    tol = 1e-10 * float(np.abs(coeffs).max())
    if not check.is_zero and float(np.abs(check.coeffs).max()) > tol:
        raise StructureError(
            "speed^2 is not a perfect square: the unit normal has no "
            "single-valued analytic extension"
        )
    return root


def _laurent_primitive(poly: LaurentPoly, denom: int):
    """Termwise antiderivative in w of poly(E), E = e^{i w / D}: the Laurent
    part D c_k E^k / (i k) for k != 0, and the coefficient c_0 of w."""
    exps = np.arange(poly.lowest, poly.highest + 1)
    safe = np.where(exps == 0, 1, exps)
    coeffs = np.where(exps == 0, 0.0, poly.coeffs * denom / (1j * safe))
    return LaurentPoly(poly.lowest, coeffs), poly.coefficient(0)


def _deflate(poly: LaurentPoly, root: complex) -> LaurentPoly:
    """poly / (E - root), the remainder poly(root) ~ 0 discarded."""
    quotient, _ = np.polydiv(poly.coeffs[::-1], np.array([1.0, -root]))
    return LaurentPoly(poly.lowest, quotient[::-1])


def _cancel_common_roots(num: LaurentPoly, den: LaurentPoly):
    """num / den in lowest terms: every root of den at which num vanishes
    (relative to the size of its terms there) is divided out of both."""
    for root in np.roots(den.coeffs[::-1]):
        exps = np.arange(num.lowest, num.highest + 1)
        size = float(np.abs(num.coeffs) @ np.abs(root) ** exps)
        if abs(num.evaluate(root)) <= 1e-6 * size:
            num, den = _deflate(num, root), _deflate(den, root)
    return num, den


class BjorlingPatch:
    """Minimal surface through a planar curve with its planar unit normal.

    Evaluate with ``at(u, v)`` in curve coordinates w = u + i v, or via the
    (r, theta) interface with r = e^{-v}, theta = u (the conformal chart in
    which the curve sits on the unit circle).
    """

    def __init__(self, curve: AnalyticPlanarCurve, w0: float = None,
                 normal_sign: int = 1):
        if normal_sign not in (1, -1):
            raise DomainError("normal_sign must be +1 or -1")
        self.curve = curve
        self.normal_sign = normal_sign
        self.denom = curve.denom
        dx, dy = curve.dx, curve.dy
        self._speed = _laurent_sqrt(dx * dx + dy * dy)
        ts = np.linspace(curve.domain[0], curve.domain[1], 1025)
        speeds = curve.speed(ts)
        if w0 is None:
            # first parameter with at least half the top speed: a point on
            # the first regular arc, anchoring the normal orientation
            w0 = float(ts[np.argmax(speeds >= 0.5 * speeds.max())])
        self.w0 = float(w0)
        s0 = self._speed.evaluate(self._arg(self.w0))
        ref = float(curve.speed(self.w0))
        if ref <= 1e-8 * speeds.max():
            raise DomainError(f"base parameter {w0!r} is at or near a cusp")
        if abs(s0 - ref) > abs(s0 + ref):
            self._speed = self._speed.scale(-1.0)
        self._primitive, self._drift = _laurent_primitive(self._speed, self.denom)
        self._base = self._integral_from_zero(self.w0)
        # Gauss map g = -i sign s / (x' - i y'); s^2 = (x' + i y')(x' - i y'),
        # so at a cusp both vanish and the common factor is divided out
        num, den = _cancel_common_roots(self._speed, dx - dy.scale(1j))
        self._gauss = (num.scale(-1j * normal_sign), den)

    def _arg(self, w):
        return np.exp(1j * np.asarray(w, dtype=complex) / self.denom)

    def _integral_from_zero(self, w):
        return self._primitive.evaluate(self._arg(w)) + self._drift * w

    def at(self, u, v=0.0):
        """Surface point at w = u + i v; arrays broadcast."""
        w = np.asarray(u, dtype=float) + 1j * np.asarray(v, dtype=float)
        e = self._arg(w)
        integral = self._integral_from_zero(w) - self._base
        curve = self.curve
        return np.stack([curve.x.evaluate(e).real, curve.y.evaluate(e).real,
                         self.normal_sign * integral.imag], axis=-1)

    def surface_map(self):
        from .surfaces import SurfaceMap

        def chart(r, theta):
            r = np.asarray(r, dtype=float)
            if np.any(r <= 0):
                raise DomainError("radius must be positive")
            return np.asarray(theta, dtype=float), -np.log(r)

        def normal(r, theta):
            u, v = chart(r, theta)
            e, (num, den) = self._arg(u + 1j * v), self._gauss
            return unit_normal(num.evaluate(e) / den.evaluate(e))

        return SurfaceMap("bjorling", lambda r, theta: self.at(*chart(r, theta)), normal)


def bjorling_solve(curve: AnalyticPlanarCurve, w0: float = None,
                   normal_sign: int = 1) -> BjorlingPatch:
    """Solve the Björling problem for a planar trig-sum curve with its
    planar unit normal field."""
    return BjorlingPatch(curve, w0, normal_sign)


# ---------------------------------------------------------------------------
# rigid motions and isometries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigidMotion:
    """Orthogonal matrix (det +-1) plus translation."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if np.abs(q.T @ q - np.eye(3)).max() >= 1e-12:
            raise DomainError("matrix is not orthogonal")
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "matrix", q)
        object.__setattr__(self, "translation", t)

    def apply(self, points):
        return np.asarray(points) @ self.matrix.T + self.translation

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def rotation_z(cls, angle: float, flip_z: bool = False):
        c, s = math.cos(angle), math.sin(angle)
        q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, -1.0 if flip_z else 1.0]])
        return cls(q, np.zeros(3))

    @classmethod
    def reflection(cls, normal) -> "RigidMotion":
        n = np.asarray(normal, dtype=float)
        n = n / np.linalg.norm(n)
        return cls(np.eye(3) - 2.0 * np.outer(n, n), np.zeros(3))


def fit_rigid_motion(source, target) -> RigidMotion:
    """Least-squares orthogonal Procrustes fit target ~ Q source + t.

    No determinant constraint: improper motions (reflections) are admitted,
    which the isometry groups here require.
    """
    a = np.asarray(source, dtype=float)
    b = np.asarray(target, dtype=float)
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    h = (b - cb).T @ (a - ca)
    u, _, vt = np.linalg.svd(h)
    q = u @ vt
    return RigidMotion(q, cb - q @ ca)


@dataclass(frozen=True)
class ParameterMap:
    """Conformal move of the punctured plane generated by the primitives
    theta -> theta + alpha, theta -> -theta, r -> 1/r; the shift is kept as
    an exact fraction of pi so group closure is decidable exactly."""

    negate: bool = False
    shift_pi: Fraction = Fraction(0)
    invert: bool = False

    def __post_init__(self):
        object.__setattr__(self, "shift_pi", Fraction(self.shift_pi) % 2)

    def apply(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if self.negate:
            theta = -theta
        theta = theta + math.pi * float(self.shift_pi)
        if self.invert:
            r = 1.0 / r
        return r, theta

    def compose(self, other: "ParameterMap") -> "ParameterMap":
        """self after other."""
        shift = (-other.shift_pi if self.negate else other.shift_pi) + self.shift_pi
        return ParameterMap(
            self.negate ^ other.negate, shift, self.invert ^ other.invert
        )

    def describe(self) -> str:
        t = "-theta" if self.negate else "theta"
        if self.shift_pi:
            t += f" + {self.shift_pi}*pi"
        r = "1/r" if self.invert else "r"
        return f"(r, theta) -> ({r}, {t})"


@dataclass(frozen=True)
class IsometryCertificate:
    """A verified pair (parameter map, rigid motion) with its residual.

    ``pmap`` is None when the map was supplied as an ad-hoc callable."""

    pmap: ParameterMap
    motion: RigidMotion
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def _sample_points(samples: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(-0.8, 0.8, samples))
    theta = rng.uniform(0.0, 2 * math.pi, samples)
    return r, theta


def verify_isometry(surface, pmap, motion: RigidMotion = None,
                    samples: int = 240, seed: int = 0,
                    rel_tol: float = 1e-9) -> IsometryCertificate:
    """Check that the parameter map induces a rigid motion on the surface.

    ``surface`` is any (r, theta) -> R^3 evaluator; ``motion=None`` fits the
    best orthogonal motion by Procrustes before computing the residual
    max |X(sigma(p)) - (Q X(p) + t)|, passed against rel_tol times the
    sample diameter.  An orthogonal fit in 3-D needs at least 4 samples.
    """
    if samples < 4:
        raise DomainError(f"an isometry check needs at least 4 samples, got {samples}")
    evaluator = surface.evaluator if hasattr(surface, "evaluator") else surface
    r, theta = _sample_points(samples, seed)
    source = evaluator(r, theta)
    if isinstance(pmap, ParameterMap):
        r2, t2 = pmap.apply(r, theta)
    else:
        r2, t2 = pmap(r, theta)
    target = evaluator(r2, t2)
    if motion is None:
        motion = fit_rigid_motion(source, target)
    residual = float(np.abs(target - motion.apply(source)).max())
    diameter = float(
        np.linalg.norm(source.max(axis=0) - source.min(axis=0))
    )
    if not isinstance(pmap, ParameterMap):
        pmap = None  # ad-hoc callable map; no exact representation
    return IsometryCertificate(pmap, motion, residual, rel_tol * max(diameter, 1e-30))


def _close_group(generators: Sequence[ParameterMap], cap: int):
    group = {ParameterMap()}
    frontier = list(group)
    while frontier:
        fresh = []
        for g in frontier:
            for h in generators:
                for prod in (h.compose(g), g.compose(h)):
                    if prod not in group:
                        if len(group) >= cap:
                            raise StructureError(
                                f"isometry generators do not close within {cap} elements"
                            )
                        group.add(prod)
                        fresh.append(prod)
        frontier = fresh
    return sorted(group, key=lambda p: (p.invert, p.negate, p.shift_pi))


def isometry_generators(m: int):
    """Generating parameter maps of the symmetric surface's isometry group.

    Odd m: reflection about the imaginary axis and the rotation by
    pi + pi/(m+1) (a roto-reflection downstairs); the group is dihedral of
    order 4m+4.  Even m: the same reflection, the rotation by 2 pi/(m+1) and
    the antipodal rotation by pi (a mirror downstairs); the group is
    D_{m+1} x Z_2, again of order 4m+4.
    """
    if m % 2 == 1:
        return (
            ParameterMap(negate=True, shift_pi=Fraction(1)),
            ParameterMap(shift_pi=1 + Fraction(1, m + 1)),
        )
    return (
        ParameterMap(negate=True, shift_pi=Fraction(1)),
        ParameterMap(shift_pi=Fraction(2, m + 1)),
        ParameterMap(shift_pi=Fraction(1)),
    )


def enumerate_isometries(m: int, samples: int = 240, seed: int = 0):
    """Close the generator set and certify every element on the closed-form
    surface; returns 4m+4 certificates for the symmetric example."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    from .surfaces import surface_hm

    order = 4 * m + 4
    group = _close_group(isometry_generators(m), order)
    if len(group) != order:
        raise StructureError(
            f"expected {order} isometries, generators closed at {len(group)}"
        )
    surf = surface_hm(m)
    return [
        verify_isometry(surf, pmap, motion=None, samples=samples, seed=seed)
        for pmap in group
    ]


# ---------------------------------------------------------------------------
# flux and cusps
# ---------------------------------------------------------------------------


def flux_exactness(data: WeierstrassData):
    """Magnitudes of the three form residues; all below ~1e-12 means the
    Weierstrass form is exact (vanishing flux around the puncture)."""
    return tuple(float(x) for x in np.abs(form_residues(data)))


#: DFT coefficients of a sampled callable at or below this fraction of the
#: largest one are rounding noise; on the hypocycloids of the tests the
#: noise is at most 1.6e-15 of it (equator_curve(16).point)
_DFT_NOISE = 1e-11


def _sampled_laurent(curve, n: int) -> LaurentPoly:
    """x + i y in E = e^{it}, read off the DFT of n scalar samples of the
    callable ``curve`` over [0, 2 pi)."""
    ts = 2 * math.pi * np.arange(n) / n
    pts = np.array([np.asarray(curve(t), dtype=float) for t in ts])
    if pts.shape != (n, 2) or not np.isfinite(pts).all():
        raise DomainError("a callable curve must return finite planar points (x, y)")
    c = np.fft.fft(pts[:, 0] + 1j * pts[:, 1]) / n
    k = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    kept = np.abs(c) > _DFT_NOISE * np.abs(c).max()
    if np.any(4 * np.abs(k[kept]) >= n):
        raise DomainError(
            f"callable curve is not band-limited at {n} samples "
            "(a coefficient at |k| >= n/4 is above the noise)"
        )
    return LaurentPoly.from_dict(dict(zip(k[kept].tolist(), c[kept])))


def cusp_count(curve, n_samples: int = 4096) -> int:
    """Count the cusps of a closed curve as distinct zero-speed image points.

    The curve z = x + i y and its velocity x' + i y' are written as Laurent
    polynomials in E = e^{i t / D}.  On the unit circle the modulus of the
    velocity is the speed, so the cusps are the images of the velocity's
    roots within 1e-6 of the unit circle; parameters whose image points
    coincide count once (closed curves may traverse their image several
    times).

    For an AnalyticPlanarCurve the polynomial is exact and ``n_samples`` does
    not apply.  ``curve`` may also be a callable t -> (x, y) over one 2 pi
    period (D = 1); its polynomial is read off the discrete Fourier transform
    of max(n_samples, 1024) scalar samples, dropping coefficients at or below
    1e-11 of the largest as rounding noise.  The callable must return planar
    points and be band-limited: a coefficient kept at |k| >= n/4 raises
    DomainError, as does a constant curve.  Root finding costs the cube of
    the bandwidth.
    """
    if isinstance(curve, AnalyticPlanarCurve):
        z, velocity = curve.z, curve.dz
    else:
        z = _sampled_laurent(curve, max(n_samples, 1024))
        velocity = _laurent_diff(z, 1)
    if velocity.is_zero:
        raise DomainError("curve is degenerate (zero speed everywhere)")
    # simple roots come out to ~1e-15 of the circle, double ones to ~1e-8
    roots = np.roots(velocity.coeffs[::-1])
    on_circle = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
    image = z.evaluate(on_circle / np.abs(on_circle))
    return distinct_count(np.stack([image.real, image.imag], axis=-1), 1e-6)
