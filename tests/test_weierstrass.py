import math
from fractions import Fraction

import numpy as np
import pytest

from henneberg import (
    BranchConfiguration,
    DomainError,
    Immersion,
    PeriodError,
    SamplingSpec,
    WeierstrassData,
    bjorling_solve,
    default_base,
    equator_curve,
    eval_hm_even,
    family_theta2,
    form_residues,
    integrate_forms,
    one_sided_residual,
    phi_forms,
    stability_report,
    symmetric_example,
    symmetric_phase,
    unit_normal,
)
from henneberg.geometry import _cancel_common_roots
from henneberg.surfaces import _polar_point, limit_m2_data
from conftest import random_annulus, random_configuration
from oracles import (
    eval_hm_odd,
    f_by_arithmetic,
    forms_reference,
    horner_reference,
    integral_reference,
    metric_density,
    phi_forms_by_arithmetic,
)


class TestData:
    def test_c_is_normalized_and_scale_recorded(self):
        config = BranchConfiguration.from_polar([(1.0, 0.0), (1.0, math.pi / 2)])
        d = WeierstrassData(3.0, config)
        assert d.c == 1.0 and d.c_scale == 3.0

    def test_unit_c_kept_exact(self):
        d = symmetric_example(2)
        assert d.c == 1.0j

    def test_f_shift_and_scale(self):
        d = symmetric_example(1)
        # f = z^{-4}(z^4 - 1)
        assert d.f.coefficient(0) == 1.0
        assert d.f.coefficient(-4) == -1.0


class TestPhiForms:
    def test_h1_phi3_residue_exactly_zero(self):
        d = symmetric_example(1)
        _, _, phi3 = phi_forms(d)
        assert phi3.coefficient(-1) == 0

    def test_phi2_vanishes_where_one_plus_z2_does(self):
        d = symmetric_example(3)
        _, phi2, _ = phi_forms(d)
        assert abs(phi2.evaluate(1.0j)) < 1e-12

    def test_h2_residues_all_exactly_zero(self):
        d = symmetric_example(2)
        assert np.all(form_residues(d) == 0)


def _same_poly(p, q):
    return p.lowest == q.lowest and p.coeffs.tobytes() == q.coeffs.tobytes()


def _untagged_data(seed):
    rng = np.random.default_rng(seed)
    config = random_configuration(rng, int(rng.integers(1, 13)))
    return WeierstrassData(np.exp(1j * rng.uniform(0.0, 2 * np.pi)), config)


def _tagged_data(seed):
    """Angles k pi / N with N <= 12 and half of the moduli exactly 1, so
    that coefficients cancel to exact zeros."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 13)), int(rng.integers(1, 13))
    pairs = [(1.0 if rng.random() < 0.5 else float(np.exp(rng.uniform(-1.0, 1.0))),
              Fraction(int(rng.integers(0, 2 * n)), n)) for _ in range(m + 1)]
    c = (1j) ** int(rng.integers(0, 4))
    return WeierstrassData(c, BranchConfiguration.from_pi_fractions(pairs))


NAMED_DATA = {
    **{f"hm-{m}": lambda m=m: symmetric_example(m) for m in range(1, 13)},
    "limit-m2": limit_m2_data,
    **{f"family-{t}-{sign:+d}": lambda t=t, sign=sign: family_theta2(t, sign).weierstrass()
       for t in (0.83, 1.0, 2.2, 2.3) for sign in (1, -1)},
}


class TestFormsBitForBit:
    """f and phi_forms keep every bit, signed zeros included, of the
    LaurentPoly arithmetic they replaced (f_by_arithmetic,
    phi_forms_by_arithmetic), and so do the forms' antiderivatives against
    the exponent loop; a flipped zero sign would show in the OBJ text as
    "-0".  Random data has non-real residues, which integrate_forms
    refuses, so each form is integrated here on its own."""

    @staticmethod
    def check(data):
        assert _same_poly(data.f, f_by_arithmetic(data))
        for got, want in zip(phi_forms(data), phi_forms_by_arithmetic(data), strict=True):
            assert _same_poly(got, want)
            poly, residue = got.integral()
            assert _same_poly(poly, integral_reference(want))
            assert np.complex128(residue).tobytes() == np.complex128(want.coefficient(-1)).tobytes()

    @pytest.mark.parametrize("name", NAMED_DATA)
    def test_named_data(self, name):
        # integrate_forms on these: test_geometry's TestOneAntiderivative
        self.check(NAMED_DATA[name]())

    @pytest.mark.parametrize("seed", range(200))
    def test_untagged_configurations(self, seed):
        self.check(_untagged_data(seed))

    @pytest.mark.parametrize("seed", range(50))
    def test_tagged_configurations(self, seed):
        self.check(_tagged_data(seed))


class TestMetric:
    def test_vanishes_at_branch_point(self):
        d = symmetric_example(1)
        assert metric_density(d, 1.0 + 0j) < 1e-15

    def test_value_at_eighth_root(self):
        d = symmetric_example(1)
        val = metric_density(d, np.exp(1j * math.pi / 4))
        assert abs(val - 2.0) < 1e-14

    def test_vanishes_at_all_branch_values(self, rng):
        for m in (2, 3):
            d = symmetric_example(m)
            for a in d.config.branch_values():
                assert metric_density(d, a) < 1e-12

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            metric_density(symmetric_example(1), 0.0)


class TestOneSided:
    def test_h1_exact(self):
        assert one_sided_residual(symmetric_example(1)) == 0.0

    def test_h2_list_exact(self):
        assert one_sided_residual(symmetric_example(2)) == 0.0

    def test_double_real_value_fails(self):
        config = BranchConfiguration.from_polar([(1.0, 0.0), (1.0, 0.0)])
        d = WeierstrassData(1.0, config)
        assert abs(one_sided_residual(d) - 2.0) < 1e-15


class TestIntegration:
    def test_symmetric_examples_have_no_log_terms(self):
        for m in range(1, 7):
            forms = integrate_forms(symmetric_example(m))
            assert np.all(forms.log_coeffs == 0)

    def test_family_log_coeff_matches_phi1_residue(self):
        fp = family_theta2(0.83)
        data = fp.weierstrass()
        phi1, _, _ = phi_forms(data)
        res = phi1.coefficient(-1)
        forms = integrate_forms(data)
        assert abs(forms.log_coeffs[0] - res.real) < 1e-15
        # at family points c A_2 is purely imaginary, so the log term is zero
        c_a2 = data.c * data.coefficient(2)
        assert abs(forms.log_coeffs[0] + c_a2.real) < 1e-12

    def test_forms_are_read_only(self):
        forms = integrate_forms(symmetric_example(3))
        with pytest.raises(ValueError):
            forms.log_coeffs[0] = 1.0
        with pytest.raises(ValueError):
            forms.polys[0].coeffs[0] = 1.0

    def test_forms_derived_once_and_shared(self):
        data = family_theta2(0.83).weierstrass()
        assert data.phi is data.phi and data.forms is data.forms
        assert Immersion(data).forms is data.forms
        assert all(np.array_equal(p.coeffs, q.coeffs)
                   for p, q in zip(data.forms.polys, integrate_forms(data).polys))

    def test_unsolved_data_rejected_with_residual(self):
        config = BranchConfiguration.from_polar([(2.0, 0.0), (1.0, math.pi / 2)])
        bad = WeierstrassData(1.0, config)
        with pytest.raises(PeriodError):
            integrate_forms(bad)

    def test_immersion_rejects_origin(self):
        with pytest.raises(DomainError):
            Immersion(symmetric_example(1))(0.0)


class TestImmersion:
    def test_h1_unit_circle_is_vertical_segment(self):
        d = symmetric_example(1)
        th = np.linspace(0, 2 * np.pi, 64)
        x = Immersion(d)(np.exp(1j * th))
        assert np.abs(x[:, :2]).max() < 1e-13
        assert np.abs(x[:, 2] - np.cos(2 * th)).max() < 1e-13

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_odd_closed_form(self, m, rng):
        d = symmetric_example(m)
        r, th = random_annulus(rng, 1000)
        x = Immersion(d)(r * np.exp(1j * th))
        want = symmetric_phase(m) * eval_hm_odd(m, r, th)
        assert np.abs(x - want).max() < 1e-10

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_even_closed_form_after_alignment(self, m, rng):
        d = symmetric_example(m)
        r, th = random_annulus(rng, 1000)
        x = Immersion(d)(r * np.exp(1j * th))
        base = default_base(m)
        s = symmetric_phase(m)
        want = s * eval_hm_even(m, r, th) - s * eval_hm_even(
            m, abs(base), np.angle(base)
        )
        assert np.abs(x - want).max() < 1e-10

    def test_antipodal_invariance(self, rng):
        datasets = [symmetric_example(m) for m in (1, 2, 3)]
        datasets.append(family_theta2(0.83).weierstrass())
        datasets.append(family_theta2(1.0).weierstrass())
        for data in datasets:
            imm = Immersion(data)
            r, th = random_annulus(rng, 1000)
            z = r * np.exp(1j * th)
            x = imm(z)
            x_anti = imm(-1.0 / np.conj(z))
            diameter = np.linalg.norm(np.ptp(x, axis=0))
            assert np.abs(x_anti - x).max() < 1e-9 * diameter

    def test_branch_point_pairs_identified(self, rng):
        data = family_theta2(0.9).weierstrass()
        imm = Immersion(data)
        a = data.config.branch_values()
        assert np.abs(imm(a) - imm(-1.0 / np.conj(a))).max() < 1e-10

    def test_conformality_finite_differences(self, rng):
        for data in (symmetric_example(1), symmetric_example(2),
                     family_theta2(0.83).weierstrass()):
            imm = Immersion(data)
            r, th = random_annulus(rng, 60, r_span=(0.5, 2.0))
            z = r * np.exp(1j * th)
            lam = metric_density(data, z)
            keep = lam > 0.1
            z, lam = z[keep], lam[keep]
            h = 1e-6 * np.abs(z)
            xu = (imm(z + h) - imm(z - h)) / (2 * h[:, None])
            xv = (imm(z + 1j * h) - imm(z - 1j * h)) / (2 * h[:, None])
            assert np.abs(np.linalg.norm(xu, axis=1) / lam - 1).max() < 1e-4
            assert np.abs(np.linalg.norm(xv, axis=1) / lam - 1).max() < 1e-4
            dot = np.abs(np.sum(xu * xv, axis=1)) / lam**2
            assert dot.max() < 1e-4

    def test_derivative_recovers_forms(self, rng):
        data = family_theta2(0.83).weierstrass()
        imm = Immersion(data)
        phis = phi_forms(data)
        r, th = random_annulus(rng, 40, r_span=(0.5, 2.0))
        z = r * np.exp(1j * th)
        h = 1e-6 * np.abs(z)
        xu = (imm(z + h) - imm(z - h)) / (2 * h[:, None])
        for j, phi in enumerate(phis):
            want = np.real(phi.evaluate(z))
            scale = np.maximum(1.0, np.abs(want))
            assert (np.abs(xu[:, j] - want) / scale).max() < 1e-6


class TestNormals:
    def test_unit_length(self, rng):
        r, th = random_annulus(rng, 200)
        n = unit_normal(r * np.exp(1j * th))
        assert np.abs(np.linalg.norm(n, axis=-1) - 1).max() < 1e-14

    def test_orthogonal_to_tangents(self, rng):
        d = symmetric_example(2)
        imm = Immersion(d)
        r, th = random_annulus(rng, 50, r_span=(0.5, 2.0))
        z = r * np.exp(1j * th)
        n = unit_normal(z)
        h = 1e-6 * np.abs(z)
        xu = (imm(z + h) - imm(z - h)) / (2 * h[:, None])
        lam = metric_density(d, z)
        keep = lam > 0.1
        cosang = np.abs(np.sum(xu * n, axis=1))[keep] / lam[keep]
        assert cosang.max() < 1e-4


class TestStability:
    def test_h1_branch_images(self):
        rep = stability_report(symmetric_example(1))
        assert rep.stable and rep.gauss_map_is_diffeomorphism
        assert rep.distinct_image_count == 2
        images = sorted(rep.branch_images.tolist(), key=lambda p: p[2])
        assert np.abs(np.array(images[0]) - [0, 0, -1]).max() < 1e-12
        assert np.abs(np.array(images[1]) - [0, 0, 1]).max() < 1e-12

    def test_h2_branch_images_are_cusps(self):
        rep = stability_report(symmetric_example(2))
        assert rep.distinct_image_count == 3
        want = {
            (0.0, -0.75, 0.0),
            (-3 * math.sqrt(3) / 8, 3 / 8, 0.0),
            (3 * math.sqrt(3) / 8, 3 / 8, 0.0),
        }
        for img in rep.branch_images:
            assert min(
                max(abs(img[k] - w[k]) for k in range(3)) for w in want
            ) < 1e-12

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_odd_m_two_images(self, m):
        rep = stability_report(symmetric_example(m))
        assert rep.distinct_image_count == 2
        x3 = sorted(abs(img[2]) for img in rep.branch_images)
        assert abs(x3[-1] - 2 / (m + 1)) < 1e-12

    def test_distinct_count_merges_relative_to_scale(self):
        from henneberg.weierstrass import distinct_count

        pts = np.array([[0.0, 0.0], [5e-9, 0.0], [1.0, 0.0], [1.0, 3e-8]])
        assert distinct_count(pts, 1e-8) == 3
        assert distinct_count(pts, 1e-7) == 2
        # the tolerance is relative to max(1, largest coordinate)
        assert distinct_count([[0.0, 0.0], [5e-7, 0.0]], 1e-8) == 2
        assert distinct_count([[0.0, 0.0], [5e-7, 0.0], [100.0, 0.0]], 1e-8) == 2
        assert distinct_count(np.empty((0, 3)), 1e-8) == 0

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_even_m_image_count(self, m):
        rep = stability_report(symmetric_example(m))
        assert rep.distinct_image_count == m + 1


def _forms_case(data):
    """The Laurent polynomials an immersion of data evaluates (its forms and
    the forms they integrate), the forms, and the base point."""
    return data.forms.polys + data.phi, data.forms, default_base(data.m)


def _bjorling_case(m):
    """The polynomials a Björling patch of the equator of exponent m
    evaluates: its forms' x, y and -i times the primitive of its speed, and
    the Gauss map's numerator and denominator as surface_map builds them;
    the forms, and the base point, E at the patch's base parameter."""
    patch = bjorling_solve(equator_curve(m))
    curve = patch.curve
    num, den = _cancel_common_roots(patch._speed, curve.dx - curve.dy.scale(1j))
    polys = patch.forms.polys + (num.scale(complex(0.0, -1.0)), den)
    return polys, patch.forms, patch._arg(patch.w0)


ROUNDING_CASES = {
    **{f"symmetric-{m}": (lambda m=m: _forms_case(symmetric_example(m))) for m in range(1, 13)},
    "limit-m2": lambda: _forms_case(limit_m2_data()),
    "family": lambda: _forms_case(family_theta2(1.0).weierstrass()),
    **{f"bjorling-{m}": (lambda m=m: _bjorling_case(m))
       for m in (1, 2, 3, Fraction(1, 2), Fraction(1, 4), 6, 10)},
}


def _rounding_inputs(base):
    """The base point and four random points, each as a 0-d scalar and as
    an array of size 1; the base and one point as an array of size 2; a
    random (9, 64) annulus; and the 129 x 256 grid of build_mesh."""
    r, t = random_annulus(np.random.default_rng(11), 4 + 9 * 64)
    points = r * np.exp(1j * t)
    spec = SamplingSpec()
    inputs = [np.asarray(base), np.array([base]), np.array([base, points[0]]),
              points[4:].reshape(9, 64), _polar_point(spec.radii[:, None], spec.thetas[None, :])]
    for z in points[:4]:
        inputs += [np.asarray(z), np.array([z])]
    return inputs


class TestRoundingContract:
    """LaurentPoly.evaluate and IntegratedForms.evaluate round every element
    as the out-of-place Horner loop does, at every size: an evaluator whose
    size-1 products take numpy's scalar loop moves the Immersion offset and
    with it every vertex of a mesh."""

    @pytest.mark.parametrize("case", ROUNDING_CASES)
    def test_evaluate_is_the_out_of_place_horner(self, case):
        polys, forms, base = ROUNDING_CASES[case]()
        for z in _rounding_inputs(base):
            for p in polys:
                got, want = p.evaluate(z), horner_reference(p, z)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (z.shape, p)
            if forms is not None:
                got, want = forms.evaluate(z), forms_reference(forms, z)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), z.shape
