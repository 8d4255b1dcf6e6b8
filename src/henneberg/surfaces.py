"""Closed-form evaluators for the named surfaces and curves.

All evaluators take polar coordinates (r > 0, theta) on the punctured plane,
broadcast over arrays, and return points with a trailing axis of length 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .algebra import BranchConfiguration, cis
from .errors import DomainError, StructureError
from .weierstrass import Immersion, WeierstrassData, form_residues, unit_normal

#: residues larger than this reject the associated-family construction
EXACTNESS_TOL = 1e-12


def _polar(r, theta):
    """(r, theta) as broadcast float arrays; DomainError unless r > 0."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    return np.broadcast_arrays(r, theta)


def _polar_point(r, theta):
    """z = r e^{i theta} on the punctured plane, checked by _polar."""
    r, t = _polar(r, theta)
    return r * np.exp(1j * t)


def eval_h1(r, theta):
    """The classical surface of complexity 1 (branch images on the x3-axis)."""
    r, t = _polar(r, theta)
    u1, u3 = r - 1 / r, r**3 - 1 / r**3
    return np.stack(
        [
            np.cos(t) / 2 * u1 - np.cos(3 * t) / 6 * u3,
            -np.sin(t) / 2 * u1 - np.sin(3 * t) / 6 * u3,
            np.cos(2 * t) / 2 * (r**2 + 1 / r**2),
        ],
        axis=-1,
    )


def eval_hm_odd(m: int, r, theta):
    """Odd-complexity symmetric surface; reduces to eval_h1 at m=1."""
    if m < 1 or m % 2 != 1:
        raise DomainError(f"m must be an odd positive integer, got {m}")
    r, t = _polar(r, theta)
    um = r**m - r ** (-m)
    um2 = r ** (m + 2) - r ** (-(m + 2))
    um1 = r ** (m + 1) + r ** (-(m + 1))
    return np.stack(
        [
            np.cos(m * t) / (2 * m) * um - np.cos((m + 2) * t) / (2 * (m + 2)) * um2,
            -np.sin(m * t) / (2 * m) * um - np.sin((m + 2) * t) / (2 * (m + 2)) * um2,
            np.cos((m + 1) * t) / (m + 1) * um1,
        ],
        axis=-1,
    )


def _even_exponent(m) -> float:
    """Validate the exponent for the even-type formula.

    Accepted: positive even integers (the symmetric surfaces), positive odd
    integers (the same formula evaluates the conjugate surface), and the
    rationals 1/(2k) (surfaces whose equator closes with 4k+2 cusps).
    """
    q = Fraction(m)
    if q <= 0:
        raise DomainError(f"m must be positive, got {m}")
    if q.denominator == 1:
        return float(q)
    if q.numerator == 1 and q.denominator % 2 == 0:
        return float(q)
    raise DomainError(f"rational m must be of the form 1/(2k), got {m}")


def eval_hm_even(m, r, theta):
    """Even-type closed form: the symmetric surface for even m, the
    conjugate surface for odd m, and the 1/(2k) branched surfaces."""
    mf = _even_exponent(m)
    r, t = _polar(r, theta)
    um = r**mf + r ** (-mf)
    um2 = r ** (mf + 2) + r ** (-(mf + 2))
    um1 = r ** (mf + 1) - r ** (-(mf + 1))
    return np.stack(
        [
            -np.sin(mf * t) / (2 * mf) * um
            + np.sin((mf + 2) * t) / (2 * (mf + 2)) * um2,
            -np.cos(mf * t) / (2 * mf) * um
            - np.cos((mf + 2) * t) / (2 * (mf + 2)) * um2,
            np.sin((mf + 1) * t) / (mf + 1) * (-um1),
        ],
        axis=-1,
    )


def eval_limit_m2(r, theta):
    """Scaled limit of the complexity-2 family as its branch modulus
    degenerates; congruent to eval_h1 after a quarter-turn gauge rotation."""
    r, t = _polar(r, theta)
    u1, u3 = r - 1 / r, r**3 - 1 / r**3
    return np.stack(
        [
            -np.sin(t) / 2 * u1 + np.sin(3 * t) / 6 * u3,
            -np.cos(t) / 2 * u1 - np.cos(3 * t) / 6 * u3,
            -np.cos(t) * np.sin(t) * (r**2 + 1 / r**2),
        ],
        axis=-1,
    )


def limit_m2_data() -> WeierstrassData:
    """Weierstrass data generating eval_limit_m2: c = i, branch values
    e^{+-i pi/4} (a complexity-1 solution in a rotated gauge)."""
    config = BranchConfiguration.from_pi_fractions(
        [(1.0, Fraction(1, 4)), (1.0, Fraction(-1, 4))]
    )
    return WeierstrassData(1.0j, config)


def symmetric_phase(m: int) -> int:
    """Sign relating i^{m-1} to the closed-form representative (1 for odd m,
    i for even m); c and -c generate the same surface up to a point
    reflection, so immersion(symmetric data) = symmetric_phase(m) * closed form."""
    return 1 if (m - 1) % 4 in (0, 1) else -1


def eval_associated(data: WeierstrassData, phase_angle: float, z):
    """Immersion of the associated surface with form scaled by e^{i phase}.

    Requires the form of ``data`` to be exact (all three residues vanish);
    the raw antiderivative (integration constant zero) matches the closed
    forms.
    """
    return _associated_data(data, phase_angle).forms.evaluate(z)


def _associated_data(data: WeierstrassData, phase_angle: float) -> WeierstrassData:
    """``data`` with its form scaled by e^{i phase}; StructureError unless the
    form is exact (all three residues below EXACTNESS_TOL)."""
    residues = np.abs(form_residues(data))
    if residues.max() >= EXACTNESS_TOL:
        raise StructureError(
            "associated family undefined: form residues "
            f"{residues} are not all below {EXACTNESS_TOL}"
        )
    return data.with_phase(cis(phase_angle))


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


# ---------------------------------------------------------------------------
# hypocycloids
# ---------------------------------------------------------------------------


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
# uniform evaluatable wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceMap:
    """An evaluatable surface patch (r, theta) -> R^3 with its unit normal.

    ``normal`` is an exact normal field (r, theta) -> R^3; without one,
    (r, theta) is the Weierstrass chart with Gauss map g(z) = z and the
    stereographic normal of z = r e^{i theta} applies.
    """

    name: str
    evaluator: Callable
    normal: Callable = None

    def __call__(self, r, theta):
        return self.evaluator(r, theta)

    def normal_at(self, r, theta):
        if self.normal is not None:
            return self.normal(r, theta)
        return unit_normal(_polar_point(r, theta))


def surface_h1() -> SurfaceMap:
    return SurfaceMap("h1", eval_h1)


def surface_hm(m: int) -> SurfaceMap:
    if m % 2 == 1:
        return SurfaceMap(f"hm-odd-{m}", lambda r, t: eval_hm_odd(m, r, t))
    return SurfaceMap(f"hm-even-{m}", lambda r, t: eval_hm_even(m, r, t))


def surface_conjugate(m: int) -> SurfaceMap:
    if m % 2 != 1:
        raise DomainError("conjugate closed form is provided for odd m")
    return SurfaceMap(f"conjugate-{m}", lambda r, t: eval_hm_even(m, r, t))


def surface_limit_m2() -> SurfaceMap:
    return SurfaceMap("limit-m2", eval_limit_m2)


def surface_integrated(data: WeierstrassData) -> SurfaceMap:
    imm = Immersion(data)
    return SurfaceMap("integrated", lambda r, t: imm(_polar_point(r, t)))


def surface_associated(data: WeierstrassData, phase_angle: float) -> SurfaceMap:
    forms = _associated_data(data, phase_angle).forms
    return SurfaceMap(f"associated-{phase_angle:.6g}",
                      lambda r, t: forms.evaluate(_polar_point(r, t)))
