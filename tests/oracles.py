"""Test oracles: the hand-written closed forms of the named surfaces and
the geometry the tests check them by.

``henneberg`` evaluates every named surface through its Weierstrass forms
(``IntegratedForms.evaluate``); these trigonometric formulas are the
independent references those evaluations are checked against.  Each
formula is written once, as ``*_terms(..., lib)`` with the math module a
parameter, so that numpy evaluates it on arrays and mpmath at high
precision.  Import as ``conftest`` is: ``from oracles import eval_h1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from henneberg import DomainError, SurfaceMap, WeierstrassData, eval_hm_even
from henneberg.algebra import cis
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
