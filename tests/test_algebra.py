import math
import os
import subprocess
import sys

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
    extend_by_pair,
    invert_radial_gap,
    radial_gap,
    residue_at_zero,
)
from henneberg.algebra import cis
from conftest import random_configuration


def poly_close(p, q, rel=1e-12):
    lo = min(p.lowest, q.lowest)
    hi = max(p.highest, q.highest)
    diff = max(
        abs(p.coefficient(e) - q.coefficient(e)) for e in range(lo, hi + 1)
    )
    scale = max(abs(c) for c in np.concatenate([p.coeffs, q.coeffs]))
    return diff <= rel * scale


class TestLaurentPoly:
    def test_normalization_drops_relative_dirt(self):
        p = LaurentPoly(0, [1.0, 1e-17, 2.0])
        assert p.coefficient(1) == 0

    def test_trims_exponent_range(self):
        p = LaurentPoly(-2, [0.0, 1.0, 0.0])
        assert p.lowest == -1 and p.highest == -1

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            LaurentPoly(0, [float("nan"), 1.0])

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
        assert residue_at_zero(LaurentPoly.from_dict({-1: 1.0})) == 1.0
        assert residue_at_zero(LaurentPoly.from_dict({3: 2.0})) == 0.0


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
            for a in np.concatenate([config.branch_values(), config.antipodes()]):
                assert abs(p.evaluate(a)) < 1e-10 * scale

    def test_permutation_invariance(self, rng):
        config = random_configuration(rng, 3)
        perm = [2, 0, 3, 1]
        p = expand_product(config)
        q = expand_product(config.permuted(perm))
        for h in range(0, p.highest + 1):
            assert p.coefficient(h) == q.coefficient(h)


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
    roots = np.concatenate([config.branch_values(), config.antipodes()])
    assert max(abs(p.evaluate(a)) for a in roots) < 1e-10 * scale


class TestResidueForms:
    def test_residue_of_weight_shifted_branch_poly(self):
        # z^{-m-3} (z^{2m+2} - 1) at m=1: the z^{-1} coefficient vanishes
        m = 1
        config = BranchConfiguration.from_polar([(1.0, 0.0), (1.0, math.pi / 2)])
        f = expand_product(config).shift(-m - 3)
        assert residue_at_zero(f) == 0

    def test_residue_of_degree_two_weighting(self):
        # z^2 f for the classical data: residue c A_m = A_1 = 0
        m = 1
        config = BranchConfiguration.from_polar([(1.0, 0.0), (1.0, math.pi / 2)])
        f = expand_product(config).shift(-m - 3)
        g2f = f.shift(2)
        assert residue_at_zero(g2f) == 0


def test_cli_import_defers_mpmath():
    # only expand_product needs mpmath; every CLI call pays for the import
    src = os.path.dirname(os.path.dirname(henneberg.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, henneberg.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
