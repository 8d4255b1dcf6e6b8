"""Complex Laurent-polynomial arithmetic and the branch-point polynomial.

The central object is the monic polynomial

    P(z) = prod_j (z - a_j)(z + 1/conj(a_j)),

built from m+1 branch values a_j in C*.  Its middle coefficients encode the
period conditions of the surface, so for the symmetric configurations they
must cancel *exactly*, not merely to rounding.  Such configurations carry
their angles as exact fractions of pi; ``expand_product`` then multiplies
the factors in the cyclotomic field Q(e^{i pi / N}) with integer or
rational coordinates, where the cancellation is exact by construction, and
rounds each coefficient once at the end.  Untagged configurations are
multiplied in double precision.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import DomainError

#: relative magnitude at or below which expand_product, its only reader,
#: sets the real or imaginary part of a branch coefficient to zero
DROP_TOL = 1e-15

#: largest common tag denominator N multiplied in the cyclotomic field; its
#: arrays grow like N and its reduction like N^2, so tags beyond it are
#: multiplied as plain float angles
MAX_FIELD_ORDER = 1024

#: the cyclotomic basis is tabulated as integers times 2^-_FIXED_BITS, far
#: finer than a double, so each coefficient is rounded once from a value
#: accurate to far below its last bit
_FIXED_BITS = 128
_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510"

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


def pi_turns(qs) -> tuple[int, list[int]]:
    """(N, ks): N the lcm of the denominators of the rationals q and each q
    written as k / N, so that e^{i pi q} = zeta^k with zeta = e^{i pi / N}."""
    n = math.lcm(*(q.denominator for q in qs))
    return n, [q.numerator * (n // q.denominator) for q in qs]


def cis(angle: float) -> complex:
    """e^{i angle} for a finite float angle in radians.

    For |angle| < 64, an angle within 1e-14 of a quarter turn k pi/2 gives
    the exact value cis_pi(k/2).  From 64 on, the spacing of doubles exceeds
    that window, so the nearest double to k pi/2 would match every angle
    near it; there the result is always complex(cos(angle), sin(angle)).
    """
    if not math.isfinite(angle):
        raise DomainError(f"angle must be finite, got {angle!r}")
    if math.ulp(angle) < 1e-14:  # |angle| < 64
        quarter = math.pi / 2
        k = round(angle / quarter)
        if abs(angle - k * quarter) < 1e-14:
            return cis_pi(Fraction(k, 2))
    return complex(math.cos(angle), math.sin(angle))


def _require_finite(values, what):
    arr = np.asarray(values)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite, got {values!r}")


@dataclass(frozen=True)
class LaurentPoly:
    """Finite Laurent polynomial: coeffs[k] multiplies z**(lowest + k).

    Construction keeps every coefficient it is given: it only checks that
    they are finite and trims exact-zero ends from the exponent range.
    ``integral`` is the package's one termwise antiderivative: the
    Weierstrass forms and the Björling speed are both integrated by it.
    Instances are immutable; all operations return new objects and are safe
    to share across threads.
    """

    lowest: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex, ndmin=1)
        _require_finite(arr.view(float), "Laurent coefficients")
        keep = np.flatnonzero(arr)
        if keep.size:
            lowest, arr = self.lowest + keep[0], arr[keep[0] : keep[-1] + 1]
        else:
            lowest, arr = 0, np.zeros(1, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "lowest", int(lowest))
        object.__setattr__(self, "coeffs", arr)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_dict(cls, terms: dict) -> "LaurentPoly":
        """{exponent: coefficient}; an empty dict is the zero polynomial."""
        lo = min(terms, default=0)
        arr = np.zeros(max(terms, default=0) - lo + 1, dtype=complex)
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
    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(
            self.lowest + other.lowest, np.convolve(self.coeffs, other.coeffs)
        )

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

    def integral(self) -> tuple["LaurentPoly", complex]:
        """(P, c): P the termwise antiderivative, c_k z^k -> c_k z^{k+1}/(k+1)
        for k != -1, and c the z^{-1} coefficient, whose antiderivative
        c ln z is left to the caller."""
        exps = np.arange(self.lowest + 1, self.highest + 2)
        coeffs = np.where(exps == 0, 0.0, self.coeffs / np.where(exps == 0, 1, exps))
        return LaurentPoly(self.lowest + 1, coeffs), self.coefficient(-1)

    @functools.cached_property
    def _horner_parts(self) -> tuple:
        """The coefficients of z^hi..z^0 and of z^lo..z^-1, zero-padded."""
        lo, hi = min(self.lowest, 0), max(self.highest, 0)
        coeffs = np.zeros(hi - lo + 1, dtype=complex)
        coeffs[self.lowest - lo : self.highest - lo + 1] = self.coeffs
        return coeffs[-lo:][::-1].tolist(), coeffs[:-lo].tolist()

    def evaluate(self, z):
        """Horner evaluation, split into polynomial and principal parts.

        Accepts scalars or arrays; z = 0 is rejected when negative exponents
        are present.  Each element rounds as the array loop ``acc = acc * x
        + c`` does at any size: steps multiply into a second buffer, as an
        in-place ``acc *= x`` of size 1 takes numpy's scalar loop.
        """
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if self.lowest < 0 and np.any(z == 0):
            raise DomainError("evaluation at z=0 with negative exponents")
        out = self._horner(z, 1.0 / z if self.lowest < 0 else None)
        return out[0] if scalar else out

    def _horner(self, z, w):
        """evaluate at a checked array z (ndim >= 1) and w = 1/z, which
        only a polynomial with negative exponents reads."""
        out, acc, tmp = np.zeros_like(z), np.empty_like(z), np.empty_like(z)
        for x, coeffs in zip((z, w), self._horner_parts):
            if coeffs:
                acc[...] = coeffs[0]
                for c in coeffs[1:]:
                    np.multiply(acc, x, out=tmp)
                    np.add(tmp, c, out=acc)
                out += acc if x is z else np.multiply(acc, x, out=tmp)
        return out


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

    def unit_product(self) -> complex:
        """prod_j a_j / conj(a_j) = e^{2i sum theta_j}, exact for tagged
        angles."""
        if self.angles_pi is not None:
            return cis_pi(2 * sum(self.angles_pi, Fraction(0)))
        return complex(np.prod(np.exp(2j * np.asarray(self.angles))))


def expand_product(config: BranchConfiguration) -> LaurentPoly:
    """The monic degree-(2m+2) polynomial prod (z - a_j)(z + 1/conj(a_j)).

    Each factor equals z^2 - radial_gap(r_j) e^{i theta_j} z - e^{2 i theta_j}.
    Configurations tagged with exact pi-fraction angles are multiplied in
    the cyclotomic field (see ``_cyclotomic_product``), so a coefficient
    that vanishes there comes out as exactly 0.0.  Untagged configurations
    are multiplied in double precision, each radial gap rounded once from
    its exact value, factor by factor in (r, theta) order so that the
    result depends only on the set of branch values; so are tagged ones
    whose common denominator exceeds MAX_FIELD_ORDER.

    Real or imaginary parts at most DROP_TOL times the largest coefficient
    are set to zero; no other constructor of a LaurentPoly drops anything.
    Raises DomainError when the largest coefficient is so large that this
    cut would also drop the unit-modulus end terms.
    """
    n, turns = (None, None) if config.angles_pi is None else pi_turns(config.angles_pi)
    if n is not None and n <= MAX_FIELD_ORDER:
        try:
            coeffs = _cyclotomic_product(config.moduli, turns, n)
        except OverflowError:  # an exact coefficient beyond the float range
            coeffs = np.array([math.inf])
    else:
        coeffs = np.ones(1, dtype=complex)
        for r, theta in sorted(zip(config.moduli, config.angles)):
            unit = complex(math.cos(theta), math.sin(theta))
            coeffs = np.convolve(coeffs, [-unit * unit, -_rounded_gap(r) * unit, 1.0])
    top = np.abs(coeffs).max()
    if DROP_TOL * top >= 1.0:
        raise DomainError(
            f"branch moduli {config.moduli} are too far from the unit circle: "
            f"the largest coefficient {top:.3g} would drop the unit-modulus "
            f"end terms below the relative tolerance {DROP_TOL:g}"
        )
    re, im = coeffs.real.copy(), coeffs.imag.copy()
    re[np.abs(re) <= DROP_TOL * top] = 0.0
    im[np.abs(im) <= DROP_TOL * top] = 0.0
    return LaurentPoly(0, re + 1j * im)


def _rounded_gap(r: float) -> float:
    """radial_gap(r) rounded once from its exact value; the float r - 1/r
    loses up to half an ulp of 1/r to cancellation near r = 1."""
    try:
        return float(Fraction(r) - 1 / Fraction(r))
    except OverflowError:  # 1/r beyond the float range
        return -math.inf


def _cyclotomic_product(moduli, turns, n: int) -> np.ndarray:
    """Coefficients of the branch polynomial computed exactly in Q(zeta),
    zeta = e^{i pi / N}, N = n, then rounded once each; the angle of each
    branch value is turns[j] pi / N.

    A coefficient is held as a row of integer coordinates on the powers
    zeta^0 .. zeta^{2N-1}, over a common denominator when some radial gap
    is nonzero.  Multiplying by zeta^k rolls a row by k.  Folding
    zeta^N = -1 and reducing modulo the cyclotomic polynomial Phi_{2N}
    leaves the unique coordinates on 1, zeta, .., zeta^{phi(2N)-1}, so a
    coefficient that is zero in the field has all coordinates zero and
    comes out as 0.0.
    """
    gaps = [0 if r == 1.0 else Fraction(r) - 1 / Fraction(r) for r in moduli]
    # each factor times `scale` has integer coefficients, so acc holds
    # scale^(m+1) P.  With every gap zero the entries are small integers;
    # int64 arithmetic is exact modulo 2^64, so they come out exact.
    scale = math.lcm(*(gap.denominator for gap in gaps))
    dtype = object if any(gaps) else np.int64
    acc = np.zeros((2 * len(turns) + 1, 2 * n), dtype=dtype)
    acc[0, 0] = 1
    for k, gap in zip(turns, gaps):
        k %= 2 * n
        out = np.roll(acc, 2 * k, axis=1) * -scale
        if gap:
            out[1:] -= np.roll(acc[:-1], k, axis=1) * int(gap * scale)
        out[2:] += acc[:-2] * scale
        acc = out
    rows = acc[:, :n] - acc[:, n:]
    phi, cos, sin = _field(n)
    degree = len(phi) - 1
    for top in range(n - 1, degree - 1, -1):
        rows[:, top - degree : top + 1] -= rows[:, top : top + 1] * phi
    # exact integer dot products with the fixed-point basis, each divided
    # (correctly rounded) once
    denom = scale ** len(turns) << _FIXED_BITS
    return np.array(
        [
            complex(sum(map(operator.mul, row, cos)) / denom,
                    sum(map(operator.mul, row, sin)) / denom)
            for row in rows[:, :degree].tolist()
        ]
    )


@functools.cache
def _field(n: int):
    """Phi_{2N} and the real and imaginary parts of the basis powers
    zeta^i, i < phi(2N), of Q(zeta), zeta = e^{i pi / N}, as integers
    scaled by 2^_FIXED_BITS."""
    phi = _cyclotomic(2 * n)
    pi = round(Fraction(_PI_DIGITS) * 2**_FIXED_BITS)
    cos, sin = zip(*(_fixed_cis(pi * i // n) for i in range(len(phi) - 1)))
    return phi, cos, sin


def _fixed_cis(x: int) -> tuple:
    """(cos, sin) of the angle x / 2^_FIXED_BITS in [0, pi], by Taylor
    series in the same fixed point; the truncations add up to a few dozen
    units of 2^-_FIXED_BITS."""
    one = 1 << _FIXED_BITS
    parts = [0, 0, 0, 0]  # the series terms of cos, sin, -cos, -sin
    term, k = one, 0
    while term:
        parts[k % 4] += term
        k += 1
        term = term * x // (one * k)
    return parts[0] - parts[2], parts[1] - parts[3]


def _cyclotomic(n: int) -> np.ndarray:
    """Integer coefficients, lowest first, of the n-th cyclotomic polynomial
    (n >= 2), from Phi_n = prod_{d | n} (1 - x^d)^{mu(n/d)} as a power
    series truncated above degree phi(n)."""
    primes = _prime_divisors(n)
    size = n * math.prod(p - 1 for p in primes) // math.prod(primes) + 1
    out = np.zeros(size, dtype=np.int64)
    out[0] = 1
    for count in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, count):
            d = n // math.prod(chosen)
            if d >= size:
                continue  # 1 - x^d is 1 to this order
            if count % 2 == 0:  # mu = +1: multiply by 1 - x^d
                out[d:] = out[d:] - out[:-d]
            else:  # mu = -1: divide by 1 - x^d, a cumulative sum in steps of d
                padded = np.zeros(-(-size // d) * d, dtype=np.int64)
                padded[:size] = out
                out = np.cumsum(padded.reshape(-1, d), axis=0).ravel()[:size]
    return out


def _prime_divisors(n: int) -> list:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes
