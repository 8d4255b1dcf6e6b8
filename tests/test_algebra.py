import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import henneberg
from henneberg import (
    BranchConfiguration,
    DomainError,
    LaurentPoly,
    cis_pi,
    expand_product,
    invert_radial_gap,
    radial_gap,
)
from henneberg.algebra import DROP_TOL, MAX_FIELD_ORDER, cis
from conftest import random_configuration
from oracles import antipodes, extend_by_pair, permuted


def poly_close(p, q, rel=1e-12):
    lo = min(p.lowest, q.lowest)
    hi = max(p.highest, q.highest)
    diff = max(
        abs(p.coefficient(e) - q.coefficient(e)) for e in range(lo, hi + 1)
    )
    scale = max(abs(c) for c in np.concatenate([p.coeffs, q.coeffs]))
    return diff <= rel * scale


def exact_poly(lowest, coeffs):
    """(lowest, coeffs) with exact-zero ends trimmed, the zero polynomial as
    (0, [0])."""
    arr = np.asarray(coeffs, dtype=complex)
    keep = np.flatnonzero(arr)
    if not keep.size:
        return 0, np.zeros(1, dtype=complex)
    return lowest + int(keep[0]), arr[keep[0] : keep[-1] + 1]


def assert_poly_is(p, lowest, coeffs):
    lo, want = exact_poly(lowest, coeffs)
    assert p.lowest == lo and p.coeffs.tobytes() == want.tobytes()


#: complex numbers whose moduli are log-uniform over 1e-30..1e30
wide_complex = st.builds(lambda e, t: 10.0**e * cis(t), st.floats(-30.0, 30.0), st.floats(-4.0, 4.0))


@st.composite
def wide_polys(draw):
    """A LaurentPoly with wide_complex coefficients and exact zeros
    anywhere, with the exponent and array it was built from."""
    lowest = draw(st.integers(-5, 5))
    coeffs = draw(st.lists(st.one_of(st.just(0.0), wide_complex), min_size=1, max_size=6))
    return LaurentPoly(lowest, coeffs), lowest, coeffs


class TestLaurentPoly:
    def test_keeps_relatively_small_coefficients(self):
        assert LaurentPoly(0, [1.0, 1e-17, 2.0]).coefficient(1) == 1e-17
        assert_poly_is(LaurentPoly(0, [1e-16, 1.0]), 0, [1e-16, 1.0])
        p = LaurentPoly(0, [1, 0.5]) * LaurentPoly(0, [1e-16, 1e3])
        assert (p.lowest, p.coefficient(0)) == (0, 1e-16)

    def test_exact_cancellation_is_the_zero_polynomial(self):
        p = LaurentPoly(-2, [1e-20, 3.0, 1e20])
        assert_poly_is(p - p, 0, [0.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a=wide_polys(), b=wide_polys(), c=wide_complex, k=st.integers(-4, 4))
    def test_arithmetic_is_exact_over_wide_ranges(self, a, b, c, k):
        # every operation equals its numpy computation on the stored arrays,
        # trimmed only of exact-zero ends
        (p, p_lo, p_coeffs), (q, _, _) = a, b
        assert_poly_is(p, p_lo, p_coeffs)
        assert_poly_is(p * q, p.lowest + q.lowest, np.convolve(p.coeffs, q.coeffs))
        lo, hi = min(p.lowest, q.lowest), max(p.highest, q.highest)
        total = np.zeros(hi - lo + 1, dtype=complex)
        total[p.lowest - lo : p.highest - lo + 1] += p.coeffs
        total[q.lowest - lo : q.highest - lo + 1] += q.coeffs
        assert_poly_is(p + q, lo, total)
        assert_poly_is(p.scale(c), p.lowest, p.coeffs * c)
        assert_poly_is(p.shift(k), p.lowest + k, p.coeffs)

    def test_trims_exponent_range(self):
        p = LaurentPoly(-2, [0.0, 1.0, 0.0])
        assert p.lowest == -1 and p.highest == -1

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            LaurentPoly(0, [float("nan"), 1.0])

    @pytest.mark.parametrize("coeffs", [[1.0, complex(0.0, math.inf)], [complex(-math.inf, 0.0)]])
    def test_rejects_infinite_part(self, coeffs):
        with pytest.raises(DomainError, match="must be finite"):
            LaurentPoly(0, coeffs)

    @pytest.mark.parametrize("coeffs", [[[0, 0], [0, 1]], [[1, 2], [3, 4]], [[]], np.ones((1, 1, 1))])
    def test_rejects_coefficients_not_1d(self, coeffs):
        with pytest.raises(DomainError, match="must be 1-D"):
            LaurentPoly(0, coeffs)

    @pytest.mark.parametrize("lowest", [1.5, 2.0, np.float64(-1.0), "1", None, Fraction(1, 2)])
    def test_rejects_non_integer_lowest(self, lowest):
        # 1.5 used to be truncated, giving z + 2 z^2
        with pytest.raises(DomainError, match="exponent must be an integer"):
            LaurentPoly(lowest, [1.0, 2.0])

    @pytest.mark.parametrize("lowest", [-2, np.int64(-2), np.int32(-2), np.intp(-2)])
    def test_integer_types_give_int_lowest(self, lowest):
        p = LaurentPoly(lowest, [1.0, 2.0])
        assert type(p.lowest) is int and p.lowest == -2 and p.highest == -1

    def test_evaluate_root(self):
        p = LaurentPoly.from_dict({4: 1.0, 0: -1.0})  # z^4 - 1
        assert p.evaluate(1.0) == 0

    def test_evaluate_quartic_at_eighth_root(self):
        p = LaurentPoly.from_dict({4: 1.0, 0: -1.0})
        val = p.evaluate(np.exp(1j * np.pi / 4))
        assert abs(val - (-2.0)) < 1e-14

    def test_evaluate_principal_part(self):
        p = LaurentPoly.from_dict({-1: 1.0})
        assert p.evaluate(2.0) == 0.5

    @given(st.integers(-6, 6), st.integers(1, 4))
    def test_evaluate_any_exponent_range(self, lowest, n):
        # ranges that do not span exponent 0, like z^2 + z^3 or z^-3
        coeffs = np.arange(1, n + 1) * (1 - 0.5j)
        p = LaurentPoly(lowest, coeffs)
        z = 1.3 * np.exp(0.4j)
        want = sum(c * z ** (lowest + k) for k, c in enumerate(coeffs))
        assert abs(p.evaluate(z) - want) < 1e-13 * abs(want)

    def test_evaluate_zero_with_negative_exponent_raises(self):
        p = LaurentPoly.from_dict({-1: 1.0})
        with pytest.raises(DomainError):
            p.evaluate(0.0)

    def test_residue(self):
        assert LaurentPoly.from_dict({-1: 1.0}).coefficient(-1) == 1.0
        assert LaurentPoly.from_dict({3: 2.0}).coefficient(-1) == 0.0


@st.composite
def integrable_polys(draw):
    """A LaurentPoly with lowest exponent in -6..3, up to 10 terms of
    wide_complex coefficients and exact zeros anywhere."""
    lowest = draw(st.integers(-6, 3))
    coeffs = draw(st.lists(st.one_of(st.just(0.0), wide_complex), min_size=1, max_size=10))
    return LaurentPoly(lowest, coeffs)


class TestIntegral:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=integrable_polys())
    def test_termwise_antiderivative_bit_for_bit(self, p):
        # z^k -> z^{k+1}/(k+1) by numpy's complex division for k != -1; the
        # z^{-1} coefficient is returned as it is stored
        poly, residue = p.integral()
        want_residue = p.coefficient(-1)
        assert (residue.real.hex(), residue.imag.hex()) == (want_residue.real.hex(),
                                                            want_residue.imag.hex())
        want = np.zeros(len(p.coeffs), dtype=complex)
        for i, c in enumerate(p.coeffs):
            k = p.lowest + i
            if k != -1:
                want[i] = np.complex128(c) / (k + 1)
        assert_poly_is(poly, p.lowest + 1, want)

    @pytest.mark.parametrize("c", [1.0, -2.5j, 1e-30 - 1e30j])
    def test_reciprocal_integrates_to_zero_with_its_residue(self, c):
        poly, residue = LaurentPoly.from_dict({-1: c}).integral()
        assert poly.is_zero and (poly.lowest, len(poly.coeffs)) == (0, 1)
        assert residue == c

    def test_trims_only_exact_zero_ends(self):
        # the z^{-1} term leaves an exact zero at z^0: an end is trimmed, an
        # inner zero kept, and a tiny end coefficient stays
        first = np.complex128(2.0) / -1
        poly, residue = LaurentPoly(-2, [2.0, 3.0, 1e-300]).integral()
        assert residue == 3.0
        assert_poly_is(poly, -1, [first, 0.0, 1e-300])
        poly, _ = LaurentPoly(-2, [2.0, 3.0]).integral()
        assert_poly_is(poly, -1, [first])
        assert_poly_is(LaurentPoly(0, [0.0]).integral()[0], 0, [0.0])


class TestRadialGap:
    def test_unit_circle(self):
        assert radial_gap(1.0) == 0.0

    def test_inverse(self):
        for gap in (-3.0, -0.5, 0.0, 0.7, 2.5):
            assert abs(radial_gap(invert_radial_gap(gap)) - gap) < 1e-14

    def test_antisymmetry(self):
        assert abs(radial_gap(2.0) + radial_gap(0.5)) < 1e-15


class TestCisPi:
    def test_quarter_turns_exact(self):
        assert cis_pi(0) == 1.0 + 0.0j
        assert cis_pi(1) == -1.0 + 0.0j
        from fractions import Fraction

        assert cis_pi(Fraction(1, 2)) == 1.0j
        assert cis_pi(Fraction(3, 2)) == -1.0j
        assert cis_pi(Fraction(5, 2)) == 1.0j

    def test_conjugate_symmetry_exact(self):
        from fractions import Fraction

        for q in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 9)):
            assert cis_pi(-q) == cis_pi(q).conjugate()

    def test_matches_exp(self):
        from fractions import Fraction

        for q in (Fraction(1, 5), Fraction(3, 7), Fraction(11, 13)):
            want = np.exp(1j * np.pi * float(q))
            assert abs(cis_pi(q) - want) < 5e-16


_QUARTERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _bits(z):
    return (z.real.hex(), z.imag.hex())


class TestCis:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_equals_cos_sin_off_quarter_turns(self, angle):
        k = round(2 * angle / math.pi)
        assume(abs(angle - k * math.pi / 2) >= 1e-14)
        assert _bits(cis(angle)) == _bits(complex(math.cos(angle), math.sin(angle)))

    @pytest.mark.parametrize("k", range(-8, 9))
    def test_exact_at_quarter_turns(self, k):
        assert _bits(cis(k * math.pi / 2)) == _bits(_QUARTERS[k % 4])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(-8, 8), st.floats(min_value=-5e-15, max_value=5e-15))
    def test_exact_near_quarter_turns(self, k, offset):
        assert _bits(cis(k * math.pi / 2 + offset)) == _bits(_QUARTERS[k % 4])

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(DomainError, match="angle must be finite"):
            cis(angle)

    @pytest.mark.parametrize("angle", [1e308, -1.7e308, sys.float_info.max])
    def test_huge_finite_angle_has_unit_modulus(self, angle):
        assert abs(abs(cis(angle)) - 1.0) < 1e-15

    @pytest.mark.parametrize("angle", [1e16, 1e20, -3e17])
    def test_huge_angle_is_not_snapped(self, angle):
        # past |angle| = 64 the double nearest k pi/2 lies within 1e-14 of
        # most angles, which says nothing about a quarter turn
        assert _bits(cis(angle)) == _bits(complex(math.cos(angle), math.sin(angle)))


class TestExpandProduct:
    def test_h1_configuration(self):
        # a = {1, i} -> z^4 - 1
        config = BranchConfiguration.from_polar([(1.0, 0.0), (1.0, math.pi / 2)])
        p = expand_product(config)
        assert p.lowest == 0 and p.highest == 4
        assert p.coefficient(4) == 1.0 and p.coefficient(0) == -1.0
        for h in (1, 2, 3):
            assert p.coefficient(h) == 0

    @pytest.mark.parametrize("m", range(1, 9))
    def test_roots_of_unity_middle_coefficients_exactly_zero(self, m):
        from fractions import Fraction

        config = BranchConfiguration.from_pi_fractions(
            [(1.0, Fraction(j, m + 1)) for j in range(m + 1)]
        )
        p = expand_product(config)
        assert p.coefficient(2 * m + 2) == 1.0
        assert p.coefficient(0) == -1.0
        for h in range(1, 2 * m + 2):
            assert p.coefficient(h) == 0, (m, h)

    def test_derived_expansion(self):
        # a = {2, e^{i pi/2}}: (z-2)(z+1/2)(z-i)(z+i) = z^4 - 3/2 z^3 - 3/2 z - 1
        config = BranchConfiguration.from_polar([(2.0, 0.0), (1.0, math.pi / 2)])
        p = expand_product(config)
        want = LaurentPoly.from_dict({4: 1.0, 3: -1.5, 1: -1.5, 0: -1.0})
        assert poly_close(p, want, rel=1e-14)

    def test_vanishes_at_branch_values_and_antipodes(self, rng):
        for m in (1, 2, 3):
            config = random_configuration(rng, m)
            p = expand_product(config)
            scale = np.abs(p.coeffs).max()
            for a in np.concatenate([config.branch_values(), antipodes(config)]):
                assert abs(p.evaluate(a)) < 1e-10 * scale

    def test_permutation_invariance(self, rng):
        config = random_configuration(rng, 3)
        perm = [2, 0, 3, 1]
        p = expand_product(config)
        q = expand_product(permuted(config, perm))
        for h in range(0, p.highest + 1):
            assert p.coefficient(h) == q.coefficient(h)


class TestExpandProductDomain:
    @pytest.mark.parametrize("config", [
        BranchConfiguration((1e9, 1e-9), (0.3, 1.1)),
        BranchConfiguration((1e8, 1e-8, 2.0), (0.3, 1.1, 2.0)),
        BranchConfiguration.from_pi_fractions([(1e9, 0), (1e-9, Fraction(1, 2))]),
        BranchConfiguration.from_pi_fractions([(1e300, 0), (1e300, Fraction(1, 2))]),
    ])
    def test_far_moduli_raise_instead_of_losing_end_terms(self, config):
        # the real/imaginary cut at DROP_TOL of the largest coefficient would
        # zero the monic and the unit-modulus constant
        with pytest.raises(DomainError, match=r"moduli \(1"):
            expand_product(config)

    def test_largest_moduli_below_the_limit_keep_full_degree(self):
        p = expand_product(BranchConfiguration((1e7, 1e-7), (0.3, 1.1)))
        assert (p.lowest, p.highest, p.coefficient(4)) == (0, 4, 1.0)


def reference_product(config, dps=60):
    """The branch polynomial coefficients in dps-digit mpmath."""
    tags = config.angles_pi
    with mpmath.workdps(dps):
        acc = [mpmath.mpc(1)]
        for j, (r, theta) in enumerate(zip(config.moduli, config.angles)):
            if tags is not None:
                unit = mpmath.expjpi(mpmath.mpf(tags[j].numerator) / tags[j].denominator)
            else:
                unit = mpmath.expj(mpmath.mpf(theta))
            rr = mpmath.mpf(r)
            factor = [-unit * unit, -(rr - 1 / rr) * unit, mpmath.mpc(1)]
            out = [mpmath.mpc(0)] * (len(acc) + 2)
            for a, ca in enumerate(acc):
                for b, cb in enumerate(factor):
                    out[a + b] += ca * cb
            acc = out
        tiny = mpmath.mpf(10) ** (20 - dps)
        return [
            (float(c.real), float(c.imag), abs(c.real) < tiny, abs(c.imag) < tiny)
            for c in acc
        ]


def assert_branch_shape(p, config):
    m = config.m
    assert (p.lowest, p.highest) == (0, 2 * m + 2)
    assert p.coefficient(2 * m + 2) == 1.0


def assert_exact_against_reference(p, config):
    """Field zeros come out as 0.0, everything else within 2 ulp of top."""
    ulp = np.spacing(np.abs(p.coeffs).max())
    for h, (re, im, re_zero, im_zero) in enumerate(reference_product(config)):
        got = p.coefficient(h)
        for value, want, zero in ((got.real, re, re_zero), (got.imag, im, im_zero)):
            if zero:
                assert value == 0.0, (h, value)
            else:
                assert abs(value - want) <= 2 * ulp, (h, value, want)


def assert_permutation_bitwise(p, config, order):
    q = expand_product(permuted(config, order))
    assert q.lowest == p.lowest
    assert q.coeffs.tobytes() == p.coeffs.tobytes()


@st.composite
def tagged_unit_configs(draw):
    m = draw(st.integers(1, 8))
    d = draw(st.integers(1, 12))
    tags = draw(st.lists(st.integers(-2 * d, 2 * d), min_size=m + 1, max_size=m + 1))
    return BranchConfiguration.from_pi_fractions([(1.0, Fraction(j, d)) for j in tags])


@st.composite
def untagged_configs(draw):
    m = draw(st.integers(1, 8))
    pair = st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 2 * math.pi, exclude_max=True))
    pairs = draw(st.lists(pair, min_size=m + 1, max_size=m + 1))
    return BranchConfiguration([math.exp(s) for s, _ in pairs], [t for _, t in pairs])


class TestExpandProductReference:
    """expand_product against a 60-digit mpmath product."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(config=tagged_unit_configs(), data=st.data())
    def test_tagged_units_exact(self, config, data):
        p = expand_product(config)
        assert_branch_shape(p, config)
        assert_exact_against_reference(p, config)
        order = data.draw(st.permutations(range(config.m + 1)))
        assert_permutation_bitwise(p, config, order)

    @pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    def test_tagged_off_unit_circle_exact(self, order):
        # nonzero radial gaps: integer coordinates over a common denominator
        config = permuted(BranchConfiguration.from_pi_fractions(
            [(2.0, Fraction(0)), (0.7, Fraction(1, 3)), (1.3, Fraction(3, 4))]
        ), order)
        p = expand_product(config)
        assert_branch_shape(p, config)
        assert_exact_against_reference(p, config)
        assert_permutation_bitwise(p, config, [2, 1, 0])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(config=untagged_configs(), data=st.data())
    def test_untagged_within_forward_error_bound(self, config, data):
        p = expand_product(config)
        assert_branch_shape(p, config)
        # |fl(P) - P| <= 4 (m+1) eps prod_j (z^2 + |gap_j| z + 1), coefficientwise
        bound = np.ones(1)
        for r in config.moduli:
            bound = np.convolve(bound, [1.0, abs(radial_gap(r)), 1.0])
        bound *= 4 * (config.m + 1) * 2.0**-53
        drop = DROP_TOL * np.abs(p.coeffs).max() * (1 + 1e-12)
        for h, (re, im, _, _) in enumerate(reference_product(config)):
            got = p.coefficient(h)
            for value, want in ((got.real, re), (got.imag, im)):
                assert abs(value - want) <= (drop if value == 0.0 else 0.0) + bound[h]
        order = data.draw(st.permutations(range(config.m + 1)))
        assert_permutation_bitwise(p, config, order)

    def test_tags_beyond_field_limit_multiply_as_floats(self):
        d = 1031  # prime > MAX_FIELD_ORDER
        assert d > MAX_FIELD_ORDER
        config = BranchConfiguration.from_pi_fractions(
            [(1.0, Fraction(j, d)) for j in (0, 344, 687, 1031)]
        )
        p = expand_product(config)
        assert_branch_shape(p, config)
        for h, (re, im, _, _) in enumerate(reference_product(config)):
            assert abs(p.coefficient(h) - complex(re, im)) < 1e-14


class TestExtendByPair:
    def test_single_step_matches_product(self):
        # {1, i} extended by e^{i pi/3}
        p1 = expand_product(
            BranchConfiguration.from_polar([(1.0, 0.0), (1.0, math.pi / 2)])
        )
        a_new = np.exp(1j * math.pi / 3)
        got = extend_by_pair(p1, a_new)
        want = expand_product(
            BranchConfiguration.from_polar(
                [(1.0, 0.0), (1.0, math.pi / 2), (1.0, math.pi / 3)]
            )
        )
        assert poly_close(got, want, rel=1e-13)

    def test_unit_real_extension_is_coefficient_shift(self):
        # a_new = 1: multiply by z^2 - 1, recursion gives A_{h-2} - A_h exactly
        p1 = expand_product(
            BranchConfiguration.from_polar([(2.0, 0.0), (1.0, math.pi / 2)])
        )
        got = extend_by_pair(p1, 1.0)
        for h in range(0, p1.highest + 3):
            assert got.coefficient(h) == p1.coefficient(h - 2) - p1.coefficient(h)

    def test_random_m2_extension(self, rng):
        config = random_configuration(rng, 2)
        p2 = expand_product(config)
        r, t = 1.7, 0.9
        a_new = r * np.exp(1j * t)
        got = extend_by_pair(p2, a_new)
        want = expand_product(
            BranchConfiguration(
                config.moduli + (r,), config.angles + (t,)
            )
        )
        assert poly_close(got, want, rel=1e-12)

    def test_rejects_zero(self):
        p1 = expand_product(
            BranchConfiguration.from_polar([(1.0, 0.0), (1.0, math.pi / 2)])
        )
        with pytest.raises(DomainError):
            extend_by_pair(p1, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    m=st.integers(min_value=1, max_value=5),
)
def test_recursion_equals_product(seed, m):
    rng = np.random.default_rng(seed)
    config = random_configuration(rng, m)
    p = expand_product(
        BranchConfiguration(config.moduli[:2], config.angles[:2])
    )
    for r, t in zip(config.moduli[2:], config.angles[2:]):
        p = extend_by_pair(p, r * np.exp(1j * t))
    assert poly_close(p, expand_product(config), rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_product_root_property(seed):
    rng = np.random.default_rng(seed)
    config = random_configuration(rng, 2)
    p = expand_product(config)
    scale = np.abs(p.coeffs).max()
    roots = np.concatenate([config.branch_values(), antipodes(config)])
    assert max(abs(p.evaluate(a)) for a in roots) < 1e-10 * scale


class TestResidueForms:
    def test_residue_of_weight_shifted_branch_poly(self):
        # z^{-m-3} (z^{2m+2} - 1) at m=1: the z^{-1} coefficient vanishes
        m = 1
        config = BranchConfiguration.from_polar([(1.0, 0.0), (1.0, math.pi / 2)])
        f = expand_product(config).shift(-m - 3)
        assert f.coefficient(-1) == 0

    def test_residue_of_degree_two_weighting(self):
        # z^2 f for the classical data: residue c A_m = A_1 = 0
        m = 1
        config = BranchConfiguration.from_polar([(1.0, 0.0), (1.0, math.pi / 2)])
        f = expand_product(config).shift(-m - 3)
        g2f = f.shift(2)
        assert g2f.coefficient(-1) == 0


def test_cli_runs_without_mpmath(tmp_path):
    # mpmath is only the tests' reference: with every import of it failing,
    # the exact (tagged), float (family) and meshing paths still run
    src = os.path.dirname(os.path.dirname(henneberg.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = """if True:
        import sys
        sys.modules["mpmath"] = None
        from henneberg.cli import main
        codes = [main(argv) for argv in (
            ["verify", "hm", "--m", "8"],
            ["verify", "family", "--theta2", "1.0"],
            ["verify", "h1"],
            ["generate", "associated", "--m", "2", "--phi", "0.7",
             "--nr", "9", "--ntheta", "16", "--out", sys.argv[1]],
        )]
        sys.stderr.write(f"exit codes {codes}")
        sys.exit(any(codes))
    """
    out = tmp_path / "assoc.obj"
    done = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "exit codes [0, 0, 0, 0]"
    assert out.stat().st_size > 0
