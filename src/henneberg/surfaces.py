"""The named surfaces as evaluatable maps, each integrated from its
Weierstrass data.

Every map evaluates the termwise antiderivative of Laurent forms
(``IntegratedForms.evaluate``): h1 and H_m those of ``symmetric_example(m)``,
the conjugate H_m^* (odd m) those of its +pi/2 associate, limit-m2 those of
``limit_m2_data()``, times ``symmetric_phase(m)`` where it applies, and a
Björling patch (``BjorlingPatch.surface_map``) its own forms in
E = e^{i w / D}.  The one closed form kept, ``eval_hm_even``, is the
reference ``bjorling`` measures its patches against.

All maps take polar coordinates (r > 0, theta) on the punctured plane,
broadcast over arrays, and return points with a trailing axis of length 3.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .algebra import BranchConfiguration, cis
from .errors import DomainError, StructureError
from .period import symmetric_example
from .weierstrass import (
    EXACTNESS_TOL,
    Immersion,
    IntegratedForms,
    WeierstrassData,
    form_residues,
    unit_normal,
)


def _radius(r):
    """r as a float array; DomainError unless r > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    return r


def _polar(r, theta):
    """(r, theta) as broadcast float arrays; DomainError unless r > 0."""
    return np.broadcast_arrays(_radius(r), np.asarray(theta, dtype=float))


def _polar_point(r, theta):
    """z = r e^{i theta}, DomainError unless r > 0; e^{i theta} is taken
    before r and theta broadcast, once per angle of a grid's row."""
    return _radius(r) * np.exp(1j * np.asarray(theta, dtype=float))


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
    conjugate surface for odd m, and the 1/(2k) branched surfaces (whose
    equators close with 4k+2 cusps and have no Weierstrass data here)."""
    return np.stack(_hm_even_terms(_even_exponent(m), *_polar(r, theta), np), axis=-1)


def _hm_even_terms(mf, r, t, lib):
    """eval_hm_even's three coordinates at a checked exponent and point;
    ``lib`` supplies cos and sin (numpy, or mpmath for a scalar point)."""
    um = r**mf + r ** (-mf)
    um2 = r ** (mf + 2) + r ** (-(mf + 2))
    um1 = r ** (mf + 1) - r ** (-(mf + 1))
    return (
        -lib.sin(mf * t) / (2 * mf) * um + lib.sin((mf + 2) * t) / (2 * (mf + 2)) * um2,
        -lib.cos(mf * t) / (2 * mf) * um - lib.cos((mf + 2) * t) / (2 * (mf + 2)) * um2,
        lib.sin((mf + 1) * t) / (mf + 1) * (-um1),
    )


@functools.cache
def limit_m2_data() -> WeierstrassData:
    """The scaled limit of the complexity-2 family as its branch modulus
    degenerates: c = i, branch values e^{+-i pi/4}, a complexity-1 solution
    in a rotated gauge (X(r, theta + pi/4) R^T = -h1(r, theta), R the
    rotation by pi/4 about the x3-axis).  surface_limit_m2 integrates its
    forms.  Built once; the frozen instance is shared."""
    config = BranchConfiguration.from_pi_fractions(
        [(1.0, Fraction(1, 4)), (1.0, Fraction(-1, 4))]
    )
    return WeierstrassData(1.0j, config)


def symmetric_phase(m: int) -> int:
    """The sign s with which symmetric_example(m) gives H_m: surface_hm(m)
    is s times its raw immersion.  Its c = i^{m-1} is s times the
    representative c of H_m (1 for odd m, i for even m), and c and -c
    generate the same surface up to a point reflection."""
    return 1 if (m - 1) % 4 in (0, 1) else -1


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


def _forms_map(name: str, forms: IntegratedForms, sign: int = 1, offset=0.0,
               normal: Callable = None) -> SurfaceMap:
    """The map (r, theta) -> sign * forms.evaluate(r e^{i theta}) - offset,
    with the normal field ``normal`` (None: the stereographic one)."""
    return SurfaceMap(name, lambda r, t: sign * forms.evaluate(_polar_point(r, t)) - offset,
                      normal)


def surface_h1() -> SurfaceMap:
    return _forms_map("h1", symmetric_example(1).forms)


def surface_hm(m: int) -> SurfaceMap:
    forms = symmetric_example(m).forms
    parity = "odd" if m % 2 == 1 else "even"
    return _forms_map(f"hm-{parity}-{m}", forms, symmetric_phase(m))


@functools.cache
def _conjugate_forms(m: int) -> IntegratedForms:
    """The forms of the +pi/2 associate of symmetric_example(m), built once."""
    return symmetric_example(m).with_phase(1j).forms


def surface_conjugate(m: int) -> SurfaceMap:
    """H_m^*, the +pi/2 associate of H_m; odd m only."""
    if m % 2 != 1:
        raise DomainError("the conjugate surface is provided for odd m")
    return _forms_map(f"conjugate-{m}", _conjugate_forms(m), symmetric_phase(m))


def surface_limit_m2() -> SurfaceMap:
    return _forms_map("limit-m2", limit_m2_data().forms)


def surface_integrated(data: WeierstrassData) -> SurfaceMap:
    imm = Immersion(data)
    return _forms_map("integrated", imm.forms, offset=imm.offset)


def surface_associated(data: WeierstrassData, phase_angle: float) -> SurfaceMap:
    forms = _associated_data(data, phase_angle).forms
    return _forms_map(f"associated-{phase_angle:.6g}", forms)
