"""The surface recipe: Weierstrass data, one-sidedness, integration.

Data is the pair (g, omega) with the Gauss map fixed to g(z) = z and
omega = f dz,  f(z) = c z^{-m-3} P(z),  P the branch polynomial.  The
immersion is X = Re of the termwise antiderivative of the three forms

    phi_1 = (1 - z^2) f / 2,   phi_2 = i (1 + z^2) f / 2,   phi_3 = z f,

where a z^{-1} coefficient contributes Re(coeff) * ln|z| (it must be real,
otherwise the immersion is not single-valued and construction fails).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import BranchConfiguration, LaurentPoly, expand_product
from .errors import DomainError, PeriodError

#: imaginary parts of form residues below this are projected to real
RESIDUE_IM_TOL = 1e-10

#: form residues all below this in modulus make the form exact (no flux)
EXACTNESS_TOL = 1e-12

#: points IntegratedForms.evaluate runs through Horner at a time
HORNER_BLOCK = 8192


@dataclass(frozen=True)
class WeierstrassData:
    """A surface recipe (c, a_1..a_{m+1}) with |c| = 1 and g(z) = z implicit.

    The input c is normalized to the unit circle; the applied scale |c| is
    kept in ``c_scale`` (it only rescales the surface by a homothety).
    """

    c: complex
    config: BranchConfiguration
    c_scale: float = field(default=1.0, init=False)

    def __post_init__(self):
        c = complex(self.c)
        if c == 0 or not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise DomainError("c must be a finite nonzero complex number")
        scale = abs(c)
        if abs(scale - 1.0) > 1e-12:
            c = c / scale
        else:
            scale = 1.0
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c_scale", float(scale))

    @property
    def m(self) -> int:
        return self.config.m

    @cached_property
    def branch_poly(self) -> LaurentPoly:
        return expand_product(self.config)

    @cached_property
    def f(self) -> LaurentPoly:
        bp = self.branch_poly
        return LaurentPoly(bp.lowest - self.m - 3, bp.coeffs * self.c)

    @cached_property
    def phi(self) -> tuple:
        """The three Weierstrass forms, derived once (phi_forms)."""
        return phi_forms(self)

    @cached_property
    def forms(self) -> "IntegratedForms":
        """Their termwise antiderivatives, derived once (integrate_forms)."""
        return integrate_forms(self)

    def coefficient(self, h: int) -> complex:
        """A_h of the branch polynomial."""
        return self.branch_poly.coefficient(h)

    def with_phase(self, phase: complex) -> "WeierstrassData":
        return WeierstrassData(self.c * phase, self.config)


def phi_forms(data: WeierstrassData):
    """The coefficient polynomials of the three Weierstrass forms.

    phi_1 and phi_2 are written into one zero-padded block spanning the
    exponents of f and z^2 f, by the numpy operations that the LaurentPoly
    expressions f.scale(0.5) - f.shift(2).scale(0.5) and
    f.scale(0.5j) + f.shift(2).scale(0.5j) perform: one complex multiply,
    then adds into the zeros in operand order, the subtracted block
    negated.  So every coefficient keeps its bits, signed zeros included
    (an end the expressions would trim as -0 meets the +0 padding, and
    +0 + -0 = +0).  Do not reorder them: 0.5 * (F[:-2] - F[2:]), say, can
    flip the sign of a zero, which shows in the OBJ text as "-0".
    """
    f = data.f
    n = len(f.coeffs)
    half, ihalf = f.coeffs * 0.5, f.coeffs * 0.5j
    p1, p2 = np.zeros(n + 2, dtype=complex), np.zeros(n + 2, dtype=complex)
    p1[:n] += half
    p1[2:] += -half
    p2[:n] += ihalf
    p2[2:] += ihalf
    return LaurentPoly(f.lowest, p1), LaurentPoly(f.lowest, p2), f.shift(1)


def form_residues(data: WeierstrassData) -> np.ndarray:
    """Residues at the origin of (phi_1, phi_2, phi_3)."""
    return np.array([p.coefficient(-1) for p in data.phi])


def one_sided_residual(data: WeierstrassData) -> float:
    """|conj(c)/c + prod_j a_j/conj(a_j)|; zero means the data is compatible
    with the antipodal involution z -> -1/conj(z)."""
    c = data.c
    return abs(np.conj(c) / c + data.config.unit_product())


@dataclass(frozen=True)
class IntegratedForms:
    """Termwise antiderivatives of the forms plus their logarithmic parts (read-only)."""

    polys: tuple
    log_coeffs: np.ndarray

    def __post_init__(self):
        logs = np.array(self.log_coeffs, dtype=float)
        logs.setflags(write=False)
        object.__setattr__(self, "log_coeffs", logs)

    def evaluate(self, z):
        """Real immersion value at z (raw, integration constant zero)."""
        z = np.asarray(z, dtype=complex)
        if np.any(z == 0):
            raise DomainError("immersion undefined at z=0")
        flat = z.reshape(-1)
        out = np.empty((flat.size, 3))
        # one block's z, 1/z (once for the three polynomials), ln|z| and
        # Horner buffers stay in cache
        for s in range(0, flat.size, HORNER_BLOCK):
            zs = flat[s : s + HORNER_BLOCK]
            ws, logs = 1.0 / zs, np.log(np.abs(zs))
            for j, p in enumerate(self.polys):
                out[s : s + HORNER_BLOCK, j] = p._horner(zs, ws).real + self.log_coeffs[j] * logs
        return out.reshape(z.shape + (3,))


def integrate_forms(data: WeierstrassData) -> IntegratedForms:
    """Antidifferentiate the three forms termwise (``LaurentPoly.integral``).

    The z^{-1} coefficient of each form must be real (up to RESIDUE_IM_TOL)
    and becomes its ln|z| coefficient.  Data whose periods do not close is
    rejected here with the offending residual.
    """
    polys, logs = [], np.zeros(3)
    for j, phi in enumerate(data.phi):
        poly, res = phi.integral()
        if abs(res.imag) >= RESIDUE_IM_TOL:
            raise PeriodError(
                f"form {j + 1} has non-real residue {res:.3e}; "
                "the period problem is not solved"
            )
        polys.append(poly)
        logs[j] = res.real
    return IntegratedForms(tuple(polys), logs)


def default_base(m: int) -> complex:
    """Base point e^{i pi / (2(m+1))} used to pin X(base) = 0."""
    return cmath.exp(1j * math.pi / (2 * (m + 1)))


class Immersion:
    """Evaluatable immersion X(z) - X(default_base(m)); ``data.forms.evaluate``
    is the raw antiderivative (integration constant zero)."""

    def __init__(self, data: WeierstrassData):
        self.data = data
        self.forms = data.forms
        self.offset = self.forms.evaluate(default_base(data.m))

    def __call__(self, z):
        return self.forms.evaluate(z) - self.offset


def unit_normal(z):
    """Unit normal from the Gauss map g(z) = z (stereographic formula)."""
    z = np.asarray(z, dtype=complex)
    size2 = np.abs(z) ** 2
    out = np.empty(z.shape + (3,))  # filled in place, without temporaries
    np.multiply(2, z.real, out=out[..., 0])
    np.multiply(2, z.imag, out=out[..., 1])
    np.subtract(size2, 1.0, out=out[..., 2])
    out /= (1.0 + size2)[..., None]
    return out


def distinct_count(points, rel_tol: float) -> int:
    """Number of distinct points, greedily merging any point within rel_tol
    (max-norm, relative to max(1, largest coordinate)) of one kept earlier."""
    points = np.asarray(points, dtype=float)
    tol = rel_tol * max(1.0, float(np.abs(points).max(initial=0.0)))
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.abs(p - q).max() > tol for q in kept):
            kept.append(p)
    return len(kept)


@dataclass(frozen=True)
class StabilityReport:
    """Structural stability check for g(z) = z data.

    The extended unoriented Gauss map of g(z)=z is the identity on the
    projective plane, hence a diffeomorphism, which makes the one-sided
    quotient stable; the report also records the branch-point images and
    that they form at least two distinct points.
    """

    one_sided_residual: float
    gauss_map_is_diffeomorphism: bool
    stable: bool
    branch_points: tuple
    branch_images: np.ndarray
    distinct_image_count: int

    @property
    def images_ok(self) -> bool:
        return self.distinct_image_count >= 2


def stability_report(data: WeierstrassData) -> StabilityReport:
    """Run the structural stability criteria on period-solved data.

    Branch images are reported in the raw antiderivative frame (integration
    constant zero), the frame the named surfaces of ``surfaces`` use.
    """
    osr = one_sided_residual(data)
    points = tuple(data.config.branch_values())
    images = data.forms.evaluate(np.array(points))  # PeriodError on unsolved data
    ok = osr < 1e-8
    return StabilityReport(
        one_sided_residual=osr,
        gauss_map_is_diffeomorphism=True,
        stable=ok,
        branch_points=points,
        branch_images=images,
        distinct_image_count=distinct_count(images, 1e-8),
    )
