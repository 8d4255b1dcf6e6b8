"""Björling solver, isometry-group certification, flux and curve diagnostics.

The Björling solution through a planar analytic curve gamma with planar unit
normal eta reduces, because eta x gamma' = (0, 0, s) with s the signed
analytic speed, to

    X(u, v) = (Re x(w), Re y(w), Im Int_{w0}^w s(w) dw),  w = u + i v.

A planar curve is given as finite trigonometric sums with rational
frequencies, and is stored, from construction on, as the Laurent polynomials
in E = e^{i w / D} that those sums are, with phases exact at quarter turns;
its points, velocities, normals and cusps are all evaluated from them.  The
analytic speed is the polynomial square root of gamma' . gamma' once float
residue at its ends (at most 1e-10 of its largest term) is trimmed; an error
is raised when that is not a perfect square.  It is integrated as the
Weierstrass forms are: dw = D dE / (i E), so x3 is Re P - s_0 D ln|E|, with
P = -D times the termwise integral of s / E (``LaurentPoly.integral``) and
s_0 the E^{-1} coefficient of s / E (0 for every hypocycloid, the radius for
a circle).  So the patch is an IntegratedForms like every Weierstrass
immersion, with polys (x, y, P) and log coefficients (0, 0, -s_0 D), less
its value at E_0 = e^{i w0 / D} on x3.  Its Gauss map is
g = -i s / (x' - i y') with the common factors (the cusps, where both
vanish) divided out by synthetic division, one root of x' - i y' at a time;
the cusps of such a curve are the unit-circle roots of x' + i y'.  Cusps of
a band-limited callable curve are counted the same way, from the Laurent
polynomial that its discrete Fourier transform gives.

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
fit (_procrustes).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import LaurentPoly, cis, pi_turns
from .errors import DomainError, StructureError
from .period import symmetric_example
from .surfaces import _forms_map, _polar_point, symmetric_phase
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
        half = 0.5 * term.amplitude * cis(term.phase)
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

    @functools.cached_property
    def _bjorling_patch(self) -> BjorlingPatch:
        """The curve's one Björling patch, solved on first use (a failed
        solve is not kept); cached_property writes past the frozen fields."""
        return BjorlingPatch(self)


def equator_curve(m) -> AnalyticPlanarCurve:
    """Unit-circle image of the even-type surface with exponent m: the
    standard hypocycloid in the theta parametrization.

    One curve is shared per exact value of m (2, Fraction(2) and 2.0 give
    the same object), so a process that asks for the same m again gets its
    Björling patch without a second solve.  A curve whose Laurent degree,
    at most (|m| + 2) D, exceeds _SHARED_DEGREE is built afresh on each call
    and freed with its last reference."""
    q = Fraction(m)
    if abs(q.numerator) + 2 * q.denominator > _SHARED_DEGREE:
        return _build_equator_curve(q)
    return _shared_equator_curve(q)


def _build_equator_curve(q: Fraction) -> AnalyticPlanarCurve:
    mf, m2 = float(q), float(q + 2)
    x = (TrigTerm(1 / mf, q, math.pi / 2), TrigTerm(1 / m2, q + 2, -math.pi / 2))
    y = (TrigTerm(1 / mf, q, math.pi), TrigTerm(1 / m2, q + 2, math.pi))
    span = 2 * math.pi * q.denominator
    return AnalyticPlanarCurve(x, y, (0.0, span))


# a shared curve with its patch and Gauss map keeps about 0.3 KB per unit
# of degree, so the 64 most recent of degree <= 128 hold under 4 MB;
# degree 128 covers every cusp count up to 128
_SHARED_DEGREE = 128
_shared_equator_curve = functools.lru_cache(maxsize=64)(_build_equator_curve)


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
    """Exact square root of a perfect-square Laurent polynomial q = speed^2.

    An end term of q that cancels exactly can leave float residue, which
    would decide the root's degree and parity.  So end coefficients at or
    below 1e-10 of q's largest are trimmed first, and the root is accepted
    when its square is within that same 1e-10 of q."""
    mag = np.abs(q.coeffs)
    tol = 1e-10 * float(mag.max())
    keep = np.flatnonzero(mag > tol)
    if not keep.size or (q.lowest + keep[0]) % 2 or (keep[-1] - keep[0]) % 2:
        raise StructureError("speed^2 is not a perfect square Laurent polynomial")
    lo, coeffs = q.lowest + int(keep[0]), q.coeffs[keep[0] : keep[-1] + 1]
    half = (len(coeffs) - 1) // 2
    s = np.zeros(half + 1, dtype=complex)
    s[0] = np.sqrt(coeffs[0])
    for i in range(1, half + 1):
        conv = np.dot(s[1:i], s[i - 1 : 0 : -1]) if i >= 2 else 0.0
        s[i] = (coeffs[i] - conv) / (2 * s[0])
    root = LaurentPoly(lo // 2, s)
    check = root * root - q
    if not check.is_zero and float(np.abs(check.coeffs).max()) > tol:
        raise StructureError(
            "speed^2 is not a perfect square: the unit normal has no "
            "single-valued analytic extension"
        )
    return root


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

    ``forms`` is the patch as an IntegratedForms in E = e^{i w / D} (see the
    module docstring), and ``offset`` its value on x3 at the base parameter
    ``w0``: the first sample of the domain where the speed reaches half its
    maximum, on 1025 samples or, for a speed of more than 128 terms, on 8
    per term, which keeps w0 in the first arch between cusps.  There the
    analytic speed s is oriented to equal the speed.  Evaluate with
    ``at(u, v)`` in curve coordinates w = u + i v, or via the (r, theta)
    interface of ``surface_map``, E = r e^{i theta},
    whose mesh normals read the Gauss map, built on its first call and kept.
    ``bjorling_solve`` shares one patch per curve, so ``offset`` is read-only.
    """

    def __init__(self, curve: AnalyticPlanarCurve):
        self.curve = curve
        self.denom = curve.denom
        self._speed = _laurent_sqrt(curve.dx * curve.dx + curve.dy * curve.dy)
        ts = np.linspace(curve.domain[0], curve.domain[1], 1025)
        speeds = curve.speed(ts)
        half = 0.5 * speeds.max()
        self.w0 = float(ts[np.argmax(speeds >= half)])
        # 8 samples per term of s resolve every arch between cusps; where
        # they outnumber the 1025 (past 128 terms), the first of them to
        # reach half the maximum lies in the first arch.  Only those before
        # w0 are evaluated, a few arches' worth.
        n_fine = 8 * len(self._speed.coeffs)
        if n_fine > 1024:
            fine = np.linspace(curve.domain[0], curve.domain[1], n_fine + 1)
            fine = fine[fine < self.w0]
            above = np.flatnonzero(curve.speed(fine) >= half)
            if above.size:
                self.w0 = float(fine[above[0]])
        # s is real on the curve and |s| is the speed there
        if self._speed.evaluate(self._arg(self.w0)).real < 0:
            self._speed = self._speed.scale(-1.0)
        # s_0 is real, as s is on the curve; offset needs no ln|E_0| = 0 term
        primitive, log = self._speed.scale(-self.denom).shift(-1).integral()
        self.forms = IntegratedForms((curve.x, curve.y, primitive), (0.0, 0.0, log.real))
        self.offset = np.array([0.0, 0.0, self.forms.polys[2].evaluate(self._arg(self.w0)).real])
        self.offset.setflags(write=False)  # the patch is shared by bjorling_solve

    def _arg(self, w):
        return np.exp(1j * np.asarray(w, dtype=complex) / self.denom)

    def at(self, u, v=0.0):
        """Surface point at w = u + i v; arrays broadcast."""
        w = np.asarray(u, dtype=float) + 1j * np.asarray(v, dtype=float)
        return self.forms.evaluate(self._arg(w)) - self.offset

    @functools.cached_property
    def _gauss(self):
        """The Gauss map g = -i s / (x' - i y') as (numerator, denominator);
        s^2 = (x' + i y')(x' - i y'), so at a cusp both vanish and the common
        factor is divided out.  Built on first use and kept: a solve without
        a mesh never needs it."""
        num, den = _cancel_common_roots(self._speed, self.curve.dx - self.curve.dy.scale(1j))
        return num.scale(complex(0.0, -1.0)), den

    def surface_map(self):
        """The patch over the E-plane, E = r e^{i theta}: the whole curve,
        t in [0, 2 pi D], lies on the unit circle."""
        num, den = self._gauss

        def normal(r, theta):
            e = _polar_point(r, theta)  # r > 0, so E != 0
            z = np.atleast_1d(e)  # _horner takes arrays; a scalar keeps its shape
            w = 1.0 / z
            return unit_normal((num._horner(z, w) / den._horner(z, w)).reshape(np.shape(e)))

        return _forms_map("bjorling", self.forms, offset=self.offset, normal=normal)


def bjorling_solve(curve: AnalyticPlanarCurve) -> BjorlingPatch:
    """Solve the Björling problem for a planar trig-sum curve with its
    planar unit normal field.

    The curve's one patch is returned, solved on the first call and kept as
    long as the curve; it is shared, so treat it as read-only.  A curve with
    no single-valued solution raises StructureError on every call."""
    return curve._bjorling_patch


# ---------------------------------------------------------------------------
# rigid motions and isometries
# ---------------------------------------------------------------------------


_EYE3 = np.eye(3)


@dataclass(frozen=True)
class RigidMotion:
    """Orthogonal matrix (det +-1) plus translation.

    Construction raises DomainError unless the matrix is a finite 3 x 3
    array with |Q^T Q - I| < 1e-12 and the translation a finite 3-vector.
    """

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        q = np.array(self.matrix, dtype=float)
        t = np.array(self.translation, dtype=float)
        if q.shape != (3, 3) or t.shape != (3,):
            raise DomainError(
                f"need a 3 x 3 matrix and a 3-vector, got shapes {q.shape} and {t.shape}"
            )
        if not all(map(math.isfinite, t.tolist())):
            raise DomainError(f"translation must be finite, got {t!r}")
        # the entries of an orthogonal matrix sum to at most 3 sqrt(3) in
        # modulus: bounding them first keeps NaN, inf and overflow out of Q^T Q
        bounded = sum(map(abs, q.ravel().tolist())) <= 6.0
        err = np.abs(q.T @ q - _EYE3).max() if bounded else math.inf
        if not err < 1e-12:
            raise DomainError(f"matrix is not orthogonal: |Q^T Q - I| = {err:.3g}")
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "matrix", q)
        object.__setattr__(self, "translation", t)

    def apply(self, points):
        return np.asarray(points) @ self.matrix.T + self.translation


def _procrustes(target, source):
    """The orthogonal Q minimising |target - Q source| over the columns,
    batched over leading axes of ``target``: u vt from the SVD of
    target source^T.  No determinant constraint: improper motions
    (reflections) are admitted, which the isometry groups here require."""
    u, _, vt = np.linalg.svd(target @ source.T)
    return u @ vt


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
    k = 0..2m+1, on H_m (surface_hm(m)), symmetric_phase(m) times the raw
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
    """Magnitudes of the three form residues; all below EXACTNESS_TOL means
    the Weierstrass form is exact (vanishing flux around the puncture)."""
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
