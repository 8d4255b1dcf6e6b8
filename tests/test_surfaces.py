import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from henneberg import (
    DomainError,
    Immersion,
    StructureError,
    WeierstrassData,
    eval_hm_even,
    family_theta2,
    limit_m2_data,
    period_residuals,
    surface_hm,
    symmetric_example,
    symmetric_phase,
)
from henneberg.surfaces import (
    _hm_even_terms,
    surface_associated,
    surface_conjugate,
    surface_integrated,
    surface_limit_m2,
)
from conftest import random_annulus
from oracles import (
    Hypocycloid,
    closed_form_hm,
    eval_h1,
    eval_hm_odd,
    eval_limit_m2,
    hm_odd_terms,
    hypocycloid_point,
    limit_m2_terms,
    metric_density,
    one_sided_descent_residual,
)


class TestH1:
    def test_unit_circle(self):
        th = np.linspace(0, 2 * np.pi, 32)
        x = eval_h1(np.ones_like(th), th)
        assert np.abs(x[:, 0]).max() < 1e-15
        assert np.abs(x[:, 1]).max() < 1e-15
        assert np.abs(x[:, 2] - np.cos(2 * th)).max() < 1e-15

    def test_branch_image(self):
        assert np.abs(eval_h1(1.0, 0.0) - np.array([0, 0, 1])).max() < 1e-15

    def test_diagonal_ray(self):
        # the ray theta = -pi/4 lands in Span(1, 1, 0)
        for r in (0.5, 1.5, 3.0):
            x = eval_h1(r, -math.pi / 4)
            assert abs(x[0] - x[1]) < 1e-13
            assert abs(x[2]) < 1e-13

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            eval_h1(0.0, 0.0)


class TestHmOdd:
    def test_reduces_to_h1(self, rng):
        r, th = random_annulus(rng, 200)
        assert np.abs(eval_hm_odd(1, r, th) - eval_h1(r, th)).max() < 1e-14

    def test_unit_circle_on_axis(self):
        for m in (3, 5):
            th = np.linspace(0, 2 * np.pi, 17)
            x = eval_hm_odd(m, np.ones_like(th), th)
            assert np.abs(x[:, :2]).max() < 1e-13
            want = 2 / (m + 1) * np.cos((m + 1) * th)
            assert np.abs(x[:, 2] - want).max() < 1e-13

    def test_horizontal_lines(self):
        # arguments (pi/2 + k pi)/(m+1) map into horizontal lines
        m = 3
        k = 1
        th = (math.pi / 2 + k * math.pi) / (m + 1)
        rs = np.linspace(0.3, 3.0, 20)
        x = eval_hm_odd(m, rs, np.full_like(rs, th))
        assert np.abs(x[:, 2]).max() < 1e-12
        # direction is constant: all points on a line through the origin
        d = x[:, :2] / np.linalg.norm(x[:, :2], axis=1, keepdims=True)
        cross = d[:, 0] * d[0, 1] - d[:, 1] * d[0, 0]
        assert np.abs(cross).max() < 1e-10

    def test_parity_rejected(self):
        with pytest.raises(DomainError):
            eval_hm_odd(2, 1.0, 0.0)


class TestHmEven:
    def test_h2_cusp(self):
        x = eval_hm_even(2, 1.0, 0.0)
        assert np.abs(x - np.array([0, -0.75, 0])).max() < 1e-15

    def test_unit_circle_is_hypocycloid(self):
        for m in (2, 4, 6, 8):
            th = np.linspace(0, 2 * np.pi, 97)
            x = eval_hm_even(m, np.ones_like(th), th)
            h = Hypocycloid.standard(m)
            want = hypocycloid_point(h, m * th)
            assert np.abs(x[:, :2] - want).max() < 1e-12
            assert np.abs(x[:, 2]).max() < 1e-13

    def test_rational_exponent_cusps(self):
        h = Hypocycloid.standard(Fraction(1, 2))
        assert h.cusp_count == 6  # 4k+2 with k=1

    def test_mirror_symmetry(self, rng):
        for m in (2, 4):
            r, th = random_annulus(rng, 200)
            a = eval_hm_even(m, 1 / r, th)
            b = eval_hm_even(m, r, th)
            assert np.abs(a[:, :2] - b[:, :2]).max() < 1e-11
            assert np.abs(a[:, 2] + b[:, 2]).max() < 1e-11

    def test_rejects_other_rationals(self):
        with pytest.raises(DomainError):
            eval_hm_even(Fraction(2, 3), 1.0, 0.0)


class TestAssociated:
    def test_phase_zero_matches_immersion(self, rng):
        d = symmetric_example(2)
        r, th = random_annulus(rng, 100)
        a = surface_associated(d, 0.0)(r, th)
        b = d.forms.evaluate(r * np.exp(1j * th))
        assert np.abs(a - b).max() < 1e-14

    def test_conjugate_h1_is_astroid_on_circle(self):
        d = symmetric_example(1)
        th = np.linspace(0, 2 * np.pi, 64)
        x = surface_associated(d, math.pi / 2)(1.0, th)
        want = np.stack(
            [
                -np.sin(th) + np.sin(3 * th) / 3,
                -np.cos(th) - np.cos(3 * th) / 3,
                np.zeros_like(th),
            ],
            axis=-1,
        )
        assert np.abs(x - want).max() < 1e-13

    def test_odd_conjugate_matches_even_formula(self, rng):
        m = 3
        d = symmetric_example(m)
        r, th = random_annulus(rng, 300)
        got = surface_associated(d, math.pi / 2)(r, th)
        want = symmetric_phase(m) * eval_hm_even(m, r, th)
        assert np.abs(got - want).max() < 1e-10

    def test_conjugate_circle_cusp_speeds(self):
        # at the (2m+2)-roots of unity the equator speed vanishes
        m = 3
        conjugate = surface_associated(symmetric_example(m), math.pi / 2)
        h = 1e-7
        for k in range(2 * m + 2):
            th = k * math.pi / (m + 1)
            p1 = conjugate(1.0, th + h)
            p2 = conjugate(1.0, th - h)
            speed = np.linalg.norm(p1 - p2) / (2 * h)
            assert speed < 1e-6

    def test_metric_is_phase_independent(self, rng):
        d = symmetric_example(2)
        r, th = random_annulus(rng, 100)
        z = r * np.exp(1j * th)
        lam0 = metric_density(d, z)
        lam1 = metric_density(d.with_phase(np.exp(0.7j)), z)
        assert np.abs(lam1 / lam0 - 1).max() < 1e-14

    def test_nonexact_data_rejected(self):
        # a family-like point fails exactness only if residues are nonzero;
        # construct data violating the period conditions instead
        from henneberg import BranchConfiguration

        bad = WeierstrassData(
            1.0,
            BranchConfiguration.from_polar([(2.0, 0.0), (1.0, math.pi / 2)]),
        )
        with pytest.raises(StructureError):
            surface_associated(bad, 0.3)


class TestDescentResidual:
    def test_zero_at_identity_and_pi(self):
        d = symmetric_example(1)
        assert one_sided_descent_residual(d, 0.0) < 1e-13
        assert one_sided_descent_residual(d, math.pi) < 1e-13

    def test_positive_at_quarter_turn(self):
        d = symmetric_example(1)
        assert one_sided_descent_residual(d, math.pi / 2) > 0.1

    @pytest.mark.parametrize("m", range(1, 9))
    def test_symmetric_examples_descend(self, m):
        d = symmetric_example(m)
        assert one_sided_descent_residual(d, 0.0) < 1e-15
        assert one_sided_descent_residual(d, math.pi) < 1e-15
        assert one_sided_descent_residual(d, math.pi / 2) > 0.1

    def test_profile_over_angles(self):
        d = symmetric_example(4)
        vals = [
            one_sided_descent_residual(d, a)
            for a in np.linspace(0.2, math.pi - 0.2, 9)
        ]
        assert min(vals) > 1e-3


class TestLimitM2:
    def test_rotation_identity(self, rng):
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        r, th = random_annulus(rng, 300)
        lhs = eval_limit_m2(r, th + math.pi / 4) @ rot.T
        assert np.abs(lhs + eval_h1(r, th)).max() < 1e-12

    def test_regression_value(self):
        # frozen via the rotation identity: X^(1, pi/4) = -R^T eval_h1(1, 0)
        x = eval_limit_m2(1.0, math.pi / 4)
        c = math.sqrt(2) / 2
        want = np.array([-c * 0.0 - c * 0.0, 0.0, -1.0])
        rot = np.array([[c, c, 0.0], [-c, c, 0.0], [0.0, 0.0, 1.0]])
        want = -(rot.T @ np.array([0.0, 0.0, 1.0]))
        assert np.abs(x - want).max() < 1e-14

    def test_limit_data_integrates_to_closed_form(self, rng):
        d = limit_m2_data()
        assert period_residuals(d).max_abs() == 0
        r, th = random_annulus(rng, 400)
        z = r * np.exp(1j * th)
        assert np.abs(d.forms.evaluate(z) - eval_limit_m2(r, th)).max() < 1e-12

    def test_scaled_family_data_converges(self):
        d = limit_m2_data()
        z = np.exp(1j * 0.3) * 1.3
        want = d.f.evaluate(z)
        errs = []
        for t in (0.80, 0.79, 0.786):
            fp = family_theta2(t)
            fd = fp.weierstrass()
            errs.append(abs(fp.r1 * fd.f.evaluate(z) - want))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05 * abs(want)


class TestHypocycloid:
    def test_standard_m2_cusp(self):
        h = Hypocycloid.standard(2)
        assert abs(h.r_inner - 0.25) < 1e-15
        assert abs(h.R_outer - 0.75) < 1e-15
        p = hypocycloid_point(h, 0.0)
        assert np.abs(p - np.array([0.0, -0.75])).max() < 1e-15

    def test_cusp_counts(self):
        assert Hypocycloid.standard(2).cusp_count == 3
        assert Hypocycloid.standard(4).cusp_count == 5
        assert Hypocycloid.standard(1).cusp_count == 4  # astroid
        assert Hypocycloid.standard(3).cusp_count == 8
        assert Hypocycloid.standard(Fraction(1, 2)).cusp_count == 6

    def test_conjugate_ratio(self):
        for m in (1, 3, 5, 7):
            h = Hypocycloid.standard(m)
            assert h.ratio == Fraction(2 * m + 2, m)

    def test_invalid_radii(self):
        with pytest.raises(DomainError):
            Hypocycloid(1.0, 0.5)


class TestSurfaceMaps:
    def test_integrated_matches_closed_form(self, rng):
        m = 2
        d = symmetric_example(m)
        closed = closed_form_hm(m)
        r, th = random_annulus(rng, 50)
        base = np.exp(1j * math.pi / 6)
        imm = Immersion(d)
        aligned = closed(r, th) - closed(abs(base), np.angle(base))
        z = r * np.exp(1j * th)
        assert np.abs(imm(z) - aligned).max() < 1e-11

    def test_normals_unit(self, rng):
        smap = surface_hm(3)
        r, th = random_annulus(rng, 64)
        n = smap.normal_at(r, th)
        assert np.abs(np.linalg.norm(n, axis=-1) - 1).max() < 1e-12


class TestCuspSpeeds:
    def test_equator_speed_vanishes_at_roots_of_unity(self):
        from henneberg import equator_curve

        for m in (2, 3, 4, 5):
            curve = equator_curve(m)
            worst = max(
                float(curve.speed(k * math.pi / (m + 1)))
                for k in range(2 * m + 2)
            )
            assert worst < 1e-8


class TestCanonicalPhaseData:
    def test_odd_m_with_unit_c_matches_closed_form_directly(self, rng):
        # the sign story is entirely the choice of c: c = +1 data of any odd
        # complexity integrates to the odd closed form with no phase
        from fractions import Fraction
        from henneberg import BranchConfiguration

        m = 3
        config = BranchConfiguration.from_pi_fractions(
            [(1.0, Fraction(j, m + 1)) for j in range(m + 1)]
        )
        data = WeierstrassData(1.0, config)
        assert period_residuals(data).max_abs() == 0
        r, th = random_annulus(rng, 300)
        x = Immersion(data)(r * np.exp(1j * th))
        assert np.abs(x - eval_hm_odd(m, r, th)).max() < 1e-11


class TestPolarChartRule:
    """The integrated and associated maps share the closed forms' chart:
    r <= 0 is rejected, both when evaluated and in normal_at."""

    @pytest.fixture(params=["integrated", "associated"])
    def smap(self, request):
        if request.param == "integrated":
            return surface_integrated(family_theta2(1.0).weierstrass())
        return surface_associated(symmetric_example(3), 0.7)

    @pytest.mark.parametrize("r", [0.0, -0.5, np.array([1.0, 0.0, 2.0])])
    def test_nonpositive_radius_rejected(self, smap, r):
        with pytest.raises(DomainError, match="radius must be positive"):
            smap(r, 0.3)
        with pytest.raises(DomainError, match="radius must be positive"):
            smap.normal_at(r, 0.3)


#: each closed form as (m, r, t, lib) -> its three coordinates
CLOSED_FORM_TERMS = {
    "odd": hm_odd_terms,
    "even": _hm_even_terms,
    "limit": lambda m, r, t, lib: limit_m2_terms(r, t, lib),
}


def _closed_form_mp(kind, m, r, theta, dps=50):
    """The closed form of kind "odd" (eval_hm_odd), "even" (eval_hm_even)
    or "limit" (eval_limit_m2) at one float point, in dps-digit mpmath."""
    with mpmath.workdps(dps):
        point = CLOSED_FORM_TERMS[kind](m, mpmath.mpf(float(r)), mpmath.mpf(float(theta)), mpmath)
        return [float(x) for x in point]


class TestIntegratedAccuracy:
    """The named surfaces integrate their Laurent forms; against a 50-digit
    evaluation of the hand-written closed forms they are accurate to 1e-14
    relative, and no less accurate than those closed forms.

    A point's error is measured relative to max(r, 1/r)^(m+2), the size of
    its largest term: relative to |X| itself, the error of either path is
    unbounded where the terms cancel, and the largest such ratio over a
    sample falls to one path or the other by the draw.  The comparison of
    the two paths is by the root mean square of that error."""

    # limit-m2 is a complexity-1 surface: its largest term is r^3
    CASES = ([("hm", m) for m in range(1, 13)]
             + [("conjugate", m) for m in (1, 3, 5, 7, 9, 11)] + [("limit-m2", 1)])

    @pytest.mark.parametrize("surface, m", CASES, ids=[f"{s}-{m}" for s, m in CASES])
    def test_within_1e14_of_50_digits(self, surface, m):
        rng = np.random.default_rng(0)
        r = np.exp(rng.uniform(-1.2, 1.2, 150))
        th = rng.uniform(0.0, 2 * np.pi, 150)
        if surface == "hm":
            smap, kind = surface_hm(m), "odd" if m % 2 == 1 else "even"
            oracle = eval_hm_odd if kind == "odd" else eval_hm_even
            closed = oracle(m, r, th)
        elif surface == "conjugate":
            smap, kind, closed = surface_conjugate(m), "even", eval_hm_even(m, r, th)
        else:
            smap, kind, closed = surface_limit_m2(), "limit", eval_limit_m2(r, th)
        want = np.array([_closed_form_mp(kind, m, a, b) for a, b in zip(r, th)])
        scale = np.maximum(r, 1 / r) ** (m + 2)
        err = np.abs(smap(r, th) - want).max(axis=1) / scale
        closed_err = np.abs(closed - want).max(axis=1) / scale
        assert err.max() < 1e-14
        assert np.sqrt(np.mean(err**2)) <= np.sqrt(np.mean(closed_err**2))
