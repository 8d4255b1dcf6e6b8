"""Complex Laurent-polynomial arithmetic and the branch-point polynomial.

The central object is the monic polynomial

    P(z) = prod_j (z - a_j)(z + 1/conj(a_j)),

built from m+1 branch values a_j in C*.  Its middle coefficients encode the
period conditions of the surface, so they must cancel *exactly* (not merely
to rounding) for the symmetric configurations.  Double precision cannot
deliver that: the product leaves ~1e-15 dirt for m=8, right at the drop
threshold.  ``expand_product`` therefore multiplies the factors in extended
precision (mpmath) and rounds once at the end; configurations may carry
their angles as exact fractions of pi so that the roots of unity enter the
product with no representation error at all.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

#: relative magnitude below which stored coefficients are dropped to zero
DROP_TOL = 1e-15

_MP_DPS = 40
_mp_lock = threading.Lock()

_QUARTER_CIS = {
    Fraction(0): 1.0 + 0.0j,
    Fraction(1, 2): 1.0j,
    Fraction(1): -1.0 + 0.0j,
    Fraction(3, 2): -1.0j,
}


def radial_gap(r):
    """r - 1/r, the signed deviation of a modulus from the unit circle."""
    return r - 1.0 / r


def invert_radial_gap(gap):
    """The unique r > 0 with radial_gap(r) = gap."""
    return 0.5 * (gap + math.sqrt(gap * gap + 4.0))


def cis_pi(q) -> complex:
    """e^{i pi q} for an exact rational q, with exact values at quarter turns.

    The angle is reduced modulo 2 and folded into [0, 1/4] with exact sign
    and swap rules, so conjugate angles produce bit-identical conjugates.
    """
    q = Fraction(q) % 2
    if q in _QUARTER_CIS:
        return _QUARTER_CIS[q]
    if q >= 1:
        return -cis_pi(q - 1)
    if q > Fraction(1, 2):
        return -cis_pi(1 - q).conjugate()
    if q > Fraction(1, 4):
        return 1j * cis_pi(Fraction(1, 2) - q).conjugate()
    angle = math.pi * q.numerator / q.denominator
    return complex(math.cos(angle), math.sin(angle))


def cis(angle: float) -> complex:
    """e^{i angle} for a float angle in radians; within 1e-14 of a quarter
    turn k pi/2 it is the exact value cis_pi(k/2)."""
    k = round(2 * angle / math.pi)
    if abs(angle - k * math.pi / 2) < 1e-14:
        return cis_pi(Fraction(k, 2))
    return complex(math.cos(angle), math.sin(angle))


def _require_finite(values, what):
    arr = np.asarray(values)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite, got {values!r}")


@dataclass(frozen=True)
class LaurentPoly:
    """Finite Laurent polynomial: coeffs[k] multiplies z**(lowest + k).

    Instances are normalized on construction: coefficients whose magnitude is
    at most DROP_TOL times the largest one are set to zero and the exponent
    range is trimmed.  Instances are immutable; all operations return new
    objects and are safe to share across threads.
    """

    lowest: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).copy()
        _require_finite(arr.view(float), "Laurent coefficients")
        top = np.abs(arr).max() if arr.size else 0.0
        lowest = self.lowest
        if top == 0.0:
            arr = np.zeros(1, dtype=complex)
            lowest = 0
        else:
            arr[np.abs(arr) <= DROP_TOL * top] = 0.0
            keep = np.nonzero(arr)[0]
            lowest += keep[0]
            arr = arr[keep[0] : keep[-1] + 1]
        arr.setflags(write=False)
        object.__setattr__(self, "lowest", int(lowest))
        object.__setattr__(self, "coeffs", arr)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, np.zeros(1, dtype=complex))

    @classmethod
    def from_dict(cls, terms: dict) -> "LaurentPoly":
        if not terms:
            return cls.zero()
        lo = min(terms)
        arr = np.zeros(max(terms) - lo + 1, dtype=complex)
        for e, c in terms.items():
            arr[e - lo] = c
        return cls(lo, arr)

    # -- basic queries ----------------------------------------------------
    @property
    def highest(self) -> int:
        return self.lowest + len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> complex:
        k = exponent - self.lowest
        if 0 <= k < len(self.coeffs):
            return complex(self.coeffs[k])
        return 0.0 + 0.0j

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    # -- arithmetic -------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return LaurentPoly(
                self.lowest + other.lowest, np.convolve(self.coeffs, other.coeffs)
            )
        return self.scale(other)

    __rmul__ = __mul__

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        lo = min(self.lowest, other.lowest)
        hi = max(self.highest, other.highest)
        arr = np.zeros(hi - lo + 1, dtype=complex)
        arr[self.lowest - lo : self.lowest - lo + len(self.coeffs)] += self.coeffs
        arr[other.lowest - lo : other.lowest - lo + len(other.coeffs)] += other.coeffs
        return LaurentPoly(lo, arr)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.lowest, -self.coeffs)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def scale(self, factor: complex) -> "LaurentPoly":
        return LaurentPoly(self.lowest, self.coeffs * factor)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z**k."""
        return LaurentPoly(self.lowest + k, self.coeffs)

    def evaluate(self, z):
        """Horner evaluation, split into polynomial and principal parts.

        Accepts scalars or arrays; z = 0 is rejected when negative exponents
        are present.
        """
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if self.lowest < 0 and np.any(z == 0):
            raise DomainError("evaluation at z=0 with negative exponents")
        out = np.zeros_like(z)
        # zero-pad so the coefficients span exponent 0, where the split is
        lo, hi = min(self.lowest, 0), max(self.highest, 0)
        coeffs = np.zeros(hi - lo + 1, dtype=complex)
        coeffs[self.lowest - lo : self.highest - lo + 1] = self.coeffs
        split = -lo
        pos = coeffs[split:]
        if len(pos):
            acc = np.full_like(z, pos[-1])
            for c in pos[-2::-1]:
                acc = acc * z + c
            out += acc
        if split > 0:
            w = 1.0 / z
            neg = coeffs[:split][::-1]  # exponents -1, -2, ...
            acc = np.full_like(z, neg[-1])
            for c in neg[-2::-1]:
                acc = acc * w + c
            out += acc * w
        return out[0] if scalar else out

    def __call__(self, z):
        return self.evaluate(z)

    def __str__(self):
        terms = [
            f"({c:.6g})z^{self.lowest + k}"
            for k, c in enumerate(self.coeffs)
            if c != 0
        ]
        return " + ".join(terms) if terms else "0"


def residue_at_zero(poly: LaurentPoly) -> complex:
    """Coefficient of z**-1."""
    return poly.coefficient(-1)


@dataclass(frozen=True)
class BranchConfiguration:
    """m+1 branch values a_j in C*, stored in polar form (modulus, angle).

    ``angles_pi`` optionally records the angles as exact Fractions of pi;
    expand_product and the one-sided product use those tags to cancel the
    roots-of-unity configurations exactly.
    """

    moduli: tuple
    angles: tuple
    angles_pi: tuple = None

    def __post_init__(self):
        moduli = tuple(float(r) for r in self.moduli)
        angles = tuple(float(t) for t in self.angles)
        if len(moduli) != len(angles) or len(moduli) < 2:
            raise DomainError("need m+1 >= 2 polar pairs of equal length")
        _require_finite(moduli, "branch moduli")
        _require_finite(angles, "branch angles")
        if min(moduli) <= 0:
            raise DomainError("branch moduli must be positive")
        if self.angles_pi is not None:
            tags = tuple(Fraction(q) for q in self.angles_pi)
            if len(tags) != len(moduli):
                raise DomainError("angle tags must match the branch values")
            object.__setattr__(self, "angles_pi", tags)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "angles", angles)

    @classmethod
    def from_polar(cls, pairs: Iterable) -> "BranchConfiguration":
        rs, ts = zip(*pairs)
        return cls(rs, ts)

    @classmethod
    def from_pi_fractions(cls, pairs: Iterable) -> "BranchConfiguration":
        """pairs of (modulus, q) with angle = pi * q, q an exact Fraction."""
        pairs = [(float(r), Fraction(q)) for r, q in pairs]
        rs = [r for r, _ in pairs]
        ts = [math.pi * q.numerator / q.denominator for _, q in pairs]
        return cls(rs, ts, tuple(q for _, q in pairs))

    @property
    def m(self) -> int:
        return len(self.moduli) - 1

    def branch_values(self) -> np.ndarray:
        if self.angles_pi is not None:
            units = np.array([cis_pi(q) for q in self.angles_pi])
        else:
            units = np.exp(1j * np.asarray(self.angles))
        return np.asarray(self.moduli) * units

    def antipodes(self) -> np.ndarray:
        return -1.0 / np.conj(self.branch_values())

    def angle_sum_pi(self):
        """Sum of the angles as an exact Fraction of pi, or None if untagged."""
        if self.angles_pi is None:
            return None
        return sum(self.angles_pi, Fraction(0))

    def unit_product(self) -> complex:
        """prod_j a_j / conj(a_j) = e^{2i sum theta_j}."""
        total = self.angle_sum_pi()
        if total is not None:
            return cis_pi(2 * total)
        return complex(np.prod(np.exp(2j * np.asarray(self.angles))))

    def permuted(self, order: Sequence[int]) -> "BranchConfiguration":
        tags = None
        if self.angles_pi is not None:
            tags = tuple(self.angles_pi[i] for i in order)
        return BranchConfiguration(
            tuple(self.moduli[i] for i in order),
            tuple(self.angles[i] for i in order),
            tags,
        )


def expand_product(config: BranchConfiguration) -> LaurentPoly:
    """The monic degree-(2m+2) polynomial prod (z - a_j)(z + 1/conj(a_j)).

    Each factor equals z^2 - radial_gap(r_j) e^{i theta_j} z - e^{2 i theta_j};
    the convolution runs in mpmath so that configurations tagged with exact
    pi-fraction angles cancel their middle coefficients to below the drop
    tolerance (they come out exactly zero after normalization).
    """
    import mpmath  # deferred: the package loads without it until first use

    tags = config.angles_pi
    with _mp_lock, mpmath.workdps(_MP_DPS):
        acc = [mpmath.mpc(1)]
        for j, (r, theta) in enumerate(zip(config.moduli, config.angles)):
            if tags is not None:
                q = tags[j] % 2
                unit = mpmath.expjpi(mpmath.mpf(q.numerator) / q.denominator)
            else:
                unit = mpmath.expj(mpmath.mpf(theta))
            rr = mpmath.mpf(r)
            gap = rr - 1 / rr
            factor = [-unit * unit, -gap * unit, mpmath.mpc(1)]
            out = [mpmath.mpc(0)] * (len(acc) + 2)
            for a, ca in enumerate(acc):
                for b, cb in enumerate(factor):
                    out[a + b] += ca * cb
            acc = out
        coeffs = np.array([complex(c.real, c.imag) for c in acc])
    # extend the drop rule componentwise: extended-precision dirt in the
    # real or imaginary part of an otherwise clean coefficient is noise
    top = np.abs(coeffs).max()
    re, im = coeffs.real.copy(), coeffs.imag.copy()
    re[np.abs(re) <= DROP_TOL * top] = 0.0
    im[np.abs(im) <= DROP_TOL * top] = 0.0
    return LaurentPoly(0, re + 1j * im)


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
