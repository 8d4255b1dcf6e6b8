"""Björling solver, isometry-group certification, flux and curve diagnostics.

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
(the cusps, where both vanish) divided out of both by synthetic division,
one root of x' - i y' at a time, and the cusps of such a curve
are the unit-circle roots of x' + i y'.  Cusps of a band-limited callable
curve are counted the same way, from the Laurent polynomial that its
discrete Fourier transform gives.

The isometry group of the symmetric surface of complexity m, D_{2m+2} for
odd m and D_{m+1} x Z_2 for even m, is in the parameter plane for both
parities the same 4m+4 maps theta -> +-theta + k pi/(m+1), the symmetries of
the roots of z^{2m+2} = 1.  enumerate_isometries lists them in closed form
and certifies each on the coefficients of the immersion,
symmetric_example(m).forms, with nothing sampled.  Each coordinate is
Re P_j(z) + l_j ln|z|, and the parameter maps act on the coefficients in
closed form: theta -> theta + pi q multiplies c_k by e^{i pi q k}, theta ->
-theta conjugates c_k, and r -> 1/r moves conj(c_k) to exponent -k and
negates l_j.  The functions r^k cos k theta, r^k sin k theta (k != 0), ln r
and 1 are linearly independent, so a map induces the motion Q X + t exactly
when the coefficient rows satisfy T = Q S; Q is their orthogonal Procrustes
fit, the same one (_procrustes) that fit_rigid_motion makes of point sets.
verify_isometry keeps the sampled check for arbitrary evaluators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import LaurentPoly, pi_turns
from .errors import DomainError, StructureError
from .period import symmetric_example
from .surfaces import SurfaceMap, _polar, symmetric_phase
from .weierstrass import (
    IntegratedForms,
    WeierstrassData,
    distinct_count,
    form_residues,
    unit_normal,
)

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


def _synthetic_division(coeffs: list, root: complex):
    """coeffs (highest power first) divided by (E - root) by Horner's
    scheme: the quotient's coefficients and the remainder, which is the
    polynomial's value at root."""
    acc, quotient = coeffs[0], []
    for c in coeffs[1:]:
        quotient.append(acc)
        acc = c + acc * root
    return quotient, acc


def _cancel_common_roots(num: LaurentPoly, den: LaurentPoly):
    """num / den in lowest terms: every root of den at which num vanishes
    (relative to the size of its terms there) is divided out of both.

    Each root of the original den is one synthetic division of num's plain
    coefficients: its remainder is the value tested, and on a hit its
    quotient replaces num and den is divided the same way."""
    num_c, den_c = num.coeffs[::-1].tolist(), den.coeffs[::-1].tolist()
    for root in np.roots(den_c).tolist():
        quotient, value = _synthetic_division(num_c, root)
        radius, size = abs(root), 0.0
        for c in num_c:
            size = size * radius + abs(c)
        if abs(value) <= 1e-6 * size:
            num_c, den_c = quotient, _synthetic_division(den_c, root)[0]
    return (LaurentPoly(num.lowest, num_c[::-1]),
            LaurentPoly(den.lowest, den_c[::-1]))


class BjorlingPatch:
    """Minimal surface through a planar curve with its planar unit normal.

    Evaluate with ``at(u, v)`` in curve coordinates w = u + i v, or via the
    (r, theta) interface of ``surface_map``, which also builds the Gauss
    map for the mesh normals.
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
        """The patch over the E-plane, E = e^{i w / D} = r e^{i theta}: the
        chart u = D theta, v = -D ln r puts the whole curve, t in
        [0, 2 pi D], on the unit circle theta in [0, 2 pi]."""
        def chart(r, theta):
            r, theta = _polar(r, theta)
            return self.denom * theta, -self.denom * np.log(r)

        # Gauss map g = -i sign s / (x' - i y'); s^2 = (x' + i y')(x' - i y'),
        # so at a cusp both vanish and the common factor is divided out
        num, den = _cancel_common_roots(self._speed, self.curve.dx - self.curve.dy.scale(1j))
        num = num.scale(-1j * self.normal_sign)

        def normal(r, theta):
            u, v = chart(r, theta)
            e = self._arg(u + 1j * v)
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
    def rotation_z(cls, angle: float, flip_z: bool = False):
        c, s = math.cos(angle), math.sin(angle)
        q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, -1.0 if flip_z else 1.0]])
        return cls(q, np.zeros(3))

    @classmethod
    def reflection(cls, normal) -> "RigidMotion":
        n = np.asarray(normal, dtype=float)
        n = n / np.linalg.norm(n)
        return cls(np.eye(3) - 2.0 * np.outer(n, n), np.zeros(3))


def _procrustes(target, source):
    """The orthogonal Q minimising |target - Q source| over the columns,
    batched over leading axes of ``target``: u vt from the SVD of
    target source^T.  No determinant constraint: improper motions
    (reflections) are admitted, which the isometry groups here require."""
    u, _, vt = np.linalg.svd(target @ source.T)
    return u @ vt


def fit_rigid_motion(source, target) -> RigidMotion:
    """Least-squares orthogonal Procrustes fit target ~ Q source + t of two
    point sets, one point per row."""
    a = np.asarray(source, dtype=float)
    b = np.asarray(target, dtype=float)
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    q = _procrustes((b - cb).T, (a - ca).T)
    return RigidMotion(q, cb - q @ ca)


@dataclass(frozen=True)
class ParameterMap:
    """Conformal move of the punctured plane generated by the primitives
    theta -> theta + alpha, theta -> -theta, r -> 1/r; the shift is kept as
    an exact fraction of pi, reduced mod 2, so equal maps compare equal."""

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
    """A verified pair (parameter map, rigid motion) with its residual,
    which passes below ``tolerance``."""

    pmap: ParameterMap
    motion: RigidMotion
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


#: relative residual below which an isometry certificate passes
ISOMETRY_REL_TOL = 1e-9


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
    evaluator = surface.evaluator if hasattr(surface, "evaluator") else surface
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(-0.8, 0.8, samples))
    theta = rng.uniform(0.0, 2 * math.pi, samples)
    source = evaluator(r, theta)
    target = evaluator(*pmap.apply(r, theta))
    if motion is None:
        motion = fit_rigid_motion(source, target)
    residual = float(np.abs(target - motion.apply(source)).max())
    diameter = float(
        np.linalg.norm(source.max(axis=0) - source.min(axis=0))
    )
    return IsometryCertificate(pmap, motion, residual, rel_tol * max(diameter, 1e-30))


def _coefficient_rows(coeffs: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Real rows over the basis r^k cos k theta, r^k sin k theta, ln r: the
    real and imaginary parts of the coefficients, then the log coefficient
    (the sign of the sine column is the same for every row, so it is left)."""
    return np.concatenate([coeffs.real, coeffs.imag, logs[..., None]], axis=-1)


def _certify_on_coefficients(forms: IntegratedForms, maps, sign: int = 1):
    """Certify each parameter map in ``maps`` on the coefficients of the raw
    immersion ``forms``; the motions are reported in the frame of ``sign``
    times the raw immersion."""
    span = max(max(-p.lowest, p.highest) for p in forms.polys)
    exps = np.arange(-span, span + 1)
    coeffs = np.zeros((3, len(exps)), dtype=complex)
    for j, p in enumerate(forms.polys):
        coeffs[j, p.lowest + span : p.highest + span + 1] = p.coeffs
    constants = coeffs[:, span].real.copy()
    coeffs[:, span] = 0.0
    logs = np.asarray(forms.log_coeffs, dtype=float)

    # X o sigma, as ParameterMap.apply orders its steps: c_k -> c_k e^{i pi q k},
    # conjugated for theta -> -theta; r -> 1/r moves conj(c_k) to -k, ln r to -ln r
    den, turns = pi_turns([g.shift_pi for g in maps])
    units = np.exp(1j * math.pi / den * np.arange(2 * den))
    moved = coeffs * units[np.outer(turns, exps) % (2 * den)][:, None, :]
    negate = np.array([g.negate for g in maps])[:, None, None]
    invert = np.array([g.invert for g in maps])[:, None, None]
    moved = np.where(negate, moved.conj(), moved)
    moved = np.where(invert, moved[..., ::-1].conj(), moved)
    source = _coefficient_rows(coeffs, logs)
    target = _coefficient_rows(moved, np.where(invert[:, :, 0], -logs, logs))

    # orthogonal Procrustes on the rows, target ~ Q source; the constant
    # terms are invariant, so t = c - Q c
    qs = _procrustes(target, source)
    residuals = np.abs(target - qs @ source).max(axis=(1, 2))
    shifts = sign * (constants - qs @ constants)
    tolerance = ISOMETRY_REL_TOL * float(np.abs(source).max())
    return [
        IsometryCertificate(pmap, RigidMotion(q, t), float(res), tolerance)
        for pmap, q, t, res in zip(maps, qs, shifts, residuals)
    ]


def enumerate_isometries(m: int):
    """Certify the 4m+4 parameter maps theta -> +-theta + k pi/(m+1),
    k = 0..2m+1, on the closed form, symmetric_phase(m) times the raw
    immersion of symmetric_example(m); returns one certificate per map,
    +theta first, each sign by increasing k.

    These maps are the symmetries of the 2m+2 branch values and their
    antipodes, the roots of z^{2m+2} = 1, and they realise the surface's
    isometry group: dihedral D_{2m+2} for odd m, D_{m+1} x Z_2 for even m.
    Each map is certified on Laurent coefficients (see the module
    docstring): Q is the orthogonal Procrustes fit of the coefficient rows
    T of X o sigma to the rows S of X, t comes from the constant terms, and
    the residual max |T - Q S| passes below 1e-9 max |S|.  Nothing is
    sampled.
    """
    forms = symmetric_example(m).forms
    maps = [ParameterMap(negate, Fraction(k, m + 1))
            for negate in (False, True) for k in range(2 * m + 2)]
    return _certify_on_coefficients(forms, maps, symmetric_phase(m))


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
