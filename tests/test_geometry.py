import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henneberg import geometry
from henneberg import (
    AnalyticPlanarCurve,
    DomainError,
    ParameterMap,
    RigidMotion,
    SamplingSpec,
    TrigTerm,
    astroid_curve,
    bjorling_solve,
    build_mesh,
    circle_curve,
    cusp_count,
    enumerate_isometries,
    equator_curve,
    eval_associated,
    eval_hm_even,
    family_theta2,
    fit_rigid_motion,
    flux_exactness,
    integrate_forms,
    surface_h1,
    symmetric_example,
    unit_normal,
    verify_isometry,
)


def limacon_curve(eps=0.3):
    """x' + i y' = E (1 + eps E)^2 with E = e^{it}: the speed |1 + eps E|^2
    has no zero, and the Gauss map E (1 + eps E) / (1 + eps / E) is rational,
    not Laurent."""
    amps = (1.0, eps, eps * eps / 3)
    x = tuple(TrigTerm(a, Fraction(j), -math.pi / 2) for j, a in enumerate(amps, 1))
    y = tuple(TrigTerm(a, Fraction(j), math.pi) for j, a in enumerate(amps, 1))
    return AnalyticPlanarCurve(x, y)


def trig_sum(terms, t):
    """Oracle: the sum of a cos(f t + p) over the terms, evaluated directly
    (complex t gives the analytic extension)."""
    t = np.asarray(t)
    out = np.zeros(t.shape, dtype=complex if np.iscomplexobj(t) else float)
    for term in terms:
        out = out + term.amplitude * np.cos(float(term.frequency) * t + term.phase)
    return out


def trig_diff(terms):
    # d/dt a cos(f t + p) = a f cos(f t + p + pi/2)
    return tuple(TrigTerm(term.amplitude * float(term.frequency), term.frequency,
                          term.phase + math.pi / 2) for term in terms)


def leggauss_integral(patch, w, order):
    """Independent reference: Gauss-Legendre rule of the given order for
    the speed integral along the segment from the patch base to w."""
    x, wts = np.polynomial.legendre.leggauss(order)
    a, b = complex(patch.w0), complex(w)
    nodes = (a + b) / 2 + (b - a) / 2 * x
    speed = patch._speed.evaluate(np.exp(1j * nodes / patch.denom))
    return (b - a) / 2 * np.dot(wts, speed)


def fd_normals(smap, r, theta, h=1e-6):
    """Central-difference normals X_r x X_theta of a surface map."""
    xr = (smap(r * (1 + h), theta) - smap(r * (1 - h), theta)) / (2 * h * r[..., None])
    xt = (smap(r, theta + h) - smap(r, theta - h)) / (2 * h)
    n = np.cross(xr, xt)
    return n / np.linalg.norm(n, axis=-1, keepdims=True), np.linalg.norm(n, axis=-1)


class TestCurves:
    def test_astroid_points(self):
        c = astroid_curve()
        p = c.point(0.0)
        assert np.abs(p - np.array([0.0, -4 / 3])).max() < 1e-15

    def test_normal_is_unit_and_orthogonal(self):
        for curve in (equator_curve(2), astroid_curve(), circle_curve()):
            ts = np.linspace(0.05, curve.period - 0.05, 200)
            keep = curve.speed(ts) > 1e-3
            ts = ts[keep]
            n = curve.normal(ts)
            v = curve.velocity(ts)
            assert np.abs(np.linalg.norm(n, axis=-1) - 1).max() < 1e-12
            assert np.abs(np.sum(n * v, axis=-1)).max() < 1e-12 * np.abs(v).max()

    def test_equator_curve_matches_surface(self):
        th = np.linspace(0, 2 * np.pi, 50)
        x = eval_hm_even(2, np.ones_like(th), th)
        p = equator_curve(2).point(th)
        assert np.abs(x[:, :2] - p).max() < 1e-14

    def test_rational_curve_period(self):
        c = equator_curve(Fraction(1, 2))
        assert abs(c.period - 4 * math.pi) < 1e-15
        assert np.abs(c.point(0.0) - c.point(4 * math.pi)).max() < 1e-12


ORACLE_CURVES = {
    "m=2": equator_curve(2), "m=3": equator_curve(3),
    "m=1/2": equator_curve(Fraction(1, 2)), "m=1/4": equator_curve(Fraction(1, 4)),
    "circle": circle_curve(), "limacon": limacon_curve(),
}

#: the default Björling base w0 of equator_curve(q); it fixes the height's
#: additive constant, and with it every mesh that `bjorling --out` writes
DEFAULT_BASES = {
    Fraction(1): "0.2638446955163303", Fraction(2): "0.17794177139473438",
    Fraction(3): "0.1349903093339364", Fraction(4): "0.11044661672776616",
    Fraction(5): "0.09203884727313846", Fraction(6): "0.07976700097005335",
    Fraction(7): "0.0674951546669682", Fraction(8): "0.06135923151542565",
    Fraction(9): "0.05522330836388308", Fraction(10): "0.04908738521234052",
    Fraction(11): "0.04908738521234052", Fraction(12): "0.04295146206079795",
    Fraction(13): "0.04295146206079795", Fraction(14): "0.03681553890925539",
    Fraction(15): "0.03681553890925539", Fraction(16): "0.03681553890925539",
    Fraction(1, 2): "0.35588354278946877", Fraction(1, 4): "0.44178646691106466",
    Fraction(1, 6): "0.47860200582032003", Fraction(1, 8): "0.4908738521234052",
    Fraction(1, 10): "0.4908738521234052", Fraction(1, 12): "0.5154175447295755",
    Fraction(1, 14): "0.5154175447295755", Fraction(1, 16): "0.5890486225480862",
    Fraction(1, 3): "0.4049709280018093", Fraction(2, 3): "0.3313398501832985",
    Fraction(3, 2): "0.22089323345553233", Fraction(5, 2): "0.1595340019401067",
}


class TestLaurentCurves:
    @pytest.mark.parametrize("curve", ORACLE_CURVES.values(), ids=ORACLE_CURVES.keys())
    @pytest.mark.parametrize("shift", [0.0, 0.3j, -0.45j], ids=["real", "upper", "lower"])
    def test_match_trig_sum_oracle(self, curve, shift):
        t = np.linspace(curve.domain[0] - 1.0, curve.domain[1] + 1.0, 211) + shift
        for got, xs, ys in [(curve.point(t), curve.x_terms, curve.y_terms),
                            (curve.velocity(t), trig_diff(curve.x_terms),
                             trig_diff(curve.y_terms))]:
            want = np.stack([trig_sum(xs, t), trig_sum(ys, t)], axis=-1)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.abs(got - want).max() < 1e-13

    def test_real_parameters_give_float_points(self):
        curve = equator_curve(3)
        assert curve.point(0.4).dtype == np.float64 and curve.point(0.4).shape == (2,)
        assert curve.point(np.arange(5.0)).dtype == np.float64
        assert curve.velocity([0.0, 1.0]).dtype == np.float64
        assert curve.point(0.4 + 0.1j).dtype == np.complex128

    def test_equality_sees_terms_and_domain(self):
        a, b = equator_curve(3), equator_curve(Fraction(3))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != equator_curve(2)
        assert a != AnalyticPlanarCurve(a.x_terms, a.y_terms, (0.0, math.pi))
        assert [f.name for f in dataclasses.fields(a)] == ["x_terms", "y_terms", "domain"]

    def test_terms_converted_once(self, monkeypatch):
        curve = equator_curve(Fraction(1, 2))
        monkeypatch.setattr(geometry, "_terms_to_laurent", None)
        bjorling_solve(curve).at(0.3, 0.01)
        assert cusp_count(curve) == 6
        curve.normal(np.linspace(0.1, 1.0, 5))

    @pytest.mark.parametrize("q,want", DEFAULT_BASES.items(), ids=str)
    def test_default_base_pinned(self, q, want):
        for sign in (1, -1):
            assert repr(bjorling_solve(equator_curve(q), normal_sign=sign).w0) == want

    @pytest.mark.parametrize("radius", [1.0, 0.5, 2.7])
    def test_default_base_of_circles(self, radius):
        assert bjorling_solve(circle_curve(radius)).w0 == 0.0


class TestBjorling:
    @pytest.mark.parametrize(
        "cusps,m",
        [(3, 2), (4, 1), (5, 4), (6, Fraction(1, 2))],
    )
    def test_reproduces_closed_forms(self, cusps, m):
        curve = equator_curve(m)
        patch = bjorling_solve(curve)
        us = np.linspace(curve.domain[0], curve.domain[1], 48)
        sup = 0.0
        for v in np.linspace(-0.05, 0.05, 5):
            got = patch.at(us, np.full_like(us, v))
            want = eval_hm_even(m, math.exp(-v) * np.ones_like(us), us)
            sup = max(sup, float(np.abs(got - want).max()))
        assert sup < 1e-6, (cusps, sup)

    def test_astroid_matches_conjugate(self):
        d = symmetric_example(1)
        patch = bjorling_solve(astroid_curve())
        us = np.linspace(0, 2 * np.pi, 40)
        v = 0.03
        got = patch.at(us, np.full_like(us, v))
        z = math.exp(-v) * np.exp(1j * us)
        want = eval_associated(d, math.pi / 2, z)
        assert np.abs(got - want).max() < 1e-6

    def test_circle_patch_is_catenoid(self):
        patch = bjorling_solve(circle_curve(), normal_sign=-1)
        for u, v in [(0.3, 0.2), (1.0, -0.4), (2.0, 0.05)]:
            p = patch.at(u, v)
            assert abs(math.hypot(p[0], p[1]) - math.cosh(p[2])) < 1e-8

    def test_quadrature_orders_agree(self):
        # the closed-form integral against Gauss-Legendre at two orders
        for curve in (circle_curve(), equator_curve(2), equator_curve(Fraction(1, 2))):
            patch = bjorling_solve(curve)
            for w in (0.7 + 0.4j, 2.0 - 0.3j, 3.9 + 0.05j, patch.w0 + 1.1 - 0.45j):
                ref48 = leggauss_integral(patch, w, 48)
                ref96 = leggauss_integral(patch, w, 96)
                assert abs(ref48 - ref96) < 1e-12
                got = patch.at(w.real, w.imag)
                assert abs(got[2] - patch.normal_sign * ref96.imag) < 1e-12
                assert np.abs(got[:2] - curve.point(w).real).max() < 1e-12

    def test_base_at_cusp_rejected(self):
        with pytest.raises(DomainError):
            bjorling_solve(equator_curve(2), w0=0.0)

    def test_surface_map_wrapper(self):
        patch = bjorling_solve(equator_curve(2))
        smap = patch.surface_map()
        p = smap(math.exp(-0.02), 1.0)
        q = patch.at(1.0, 0.02)
        assert np.abs(np.asarray(p) - q).max() < 1e-12

    def test_arrays_broadcast(self):
        patch = bjorling_solve(equator_curve(2))
        us = np.linspace(0.0, 6.0, 7)
        grid = patch.at(us[None, :], np.array([[-0.1], [0.0], [0.2]]))
        assert grid.shape == (3, 7, 3)
        assert np.abs(grid[2, 4] - patch.at(us[4], 0.2)).max() < 1e-15


class TestBjorlingNormals:
    def test_cusp_vertex_normal_is_stereographic(self):
        # the Gauss map of the m = 2 patch is z = r e^{i theta}; at a cusp
        # s and x' - i y' both vanish and the ratio must still be exact
        curve = equator_curve(2)
        spec = SamplingSpec(r_min=math.exp(-0.05), r_max=math.exp(0.05),
                            n_r=9, n_theta=64, wrap=False)
        mesh = build_mesh(bjorling_solve(curve).surface_map(), spec)
        rr, tt = np.meshgrid(spec.radii, spec.thetas, indexing="ij")
        cusp = (rr == 1.0) & (curve.speed(tt) < 1e-12)
        assert cusp.sum() == 4  # theta = 0, 2 pi/3, 4 pi/3, 2 pi
        want = unit_normal(rr * np.exp(1j * tt)).reshape(-1, 3)
        assert np.abs(mesh.normals - want)[cusp.ravel()].max() < 1e-12
        assert np.abs(mesh.normals - want).max() < 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "curve", [circle_curve(), equator_curve(2), equator_curve(Fraction(1, 2)),
                  limacon_curve()],
        ids=["circle", "m=2", "m=1/2", "limacon"],
    )
    def test_match_central_differences(self, curve, sign):
        smap = bjorling_solve(curve, normal_sign=sign).surface_map()
        r, theta = np.meshgrid(np.exp(np.linspace(-0.3, 0.3, 7)),
                               np.linspace(0.01, curve.period - 0.01, 41), indexing="ij")
        ref, size = fd_normals(smap, r, theta)
        regular = size > 1e-3 * size.max()  # away from the cusps
        assert regular.mean() > 0.9
        got = smap.normal_at(r, theta)
        assert np.abs(np.linalg.norm(got, axis=-1) - 1.0).max() < 1e-14
        assert np.sum(got * ref, axis=-1)[regular].min() >= 1 - 1e-9
class TestRigidMotion:
    def test_fit_recovers_improper_motion(self, rng):
        pts = rng.normal(size=(60, 3))
        q = RigidMotion.reflection([0.0, 1.0, 0.0])
        target = q.apply(pts) + np.array([0.1, -0.2, 0.3])
        fit = fit_rigid_motion(pts, target)
        assert np.abs(fit.matrix - q.matrix).max() < 1e-12
        assert np.abs(fit.translation - [0.1, -0.2, 0.3]).max() < 1e-12
        assert np.linalg.det(fit.matrix) < 0

    def test_orthogonality_enforced(self):
        with pytest.raises(DomainError):
            RigidMotion(np.eye(3) * 1.5, np.zeros(3))


class TestIsometries:
    @pytest.mark.parametrize("samples", [-5, 0, 1, 3])
    def test_fit_needs_four_samples(self, samples):
        with pytest.raises(DomainError):
            verify_isometry(surface_h1(), ParameterMap(negate=True), samples=samples)

    def test_h1_conjugation_reflection(self):
        cert = verify_isometry(surface_h1(), ParameterMap(negate=True))
        assert cert.passed
        want = np.diag([1.0, -1.0, 1.0])
        assert np.abs(cert.motion.matrix - want).max() < 1e-9

    def test_h1_deck_transformation_is_identity(self):
        cert = verify_isometry(
            surface_h1(), ParameterMap(shift_pi=Fraction(1), invert=True)
        )
        assert cert.passed
        assert np.abs(cert.motion.matrix - np.eye(3)).max() < 1e-9
        assert np.abs(cert.motion.translation).max() < 1e-9

    def test_h1_quarter_turn_needs_flip(self):
        wrong = RigidMotion.rotation_z(math.pi / 2)
        cert = verify_isometry(
            surface_h1(), ParameterMap(shift_pi=Fraction(1, 2)), motion=wrong
        )
        assert not cert.passed
        assert cert.residual > 1e3 * cert.tolerance
        right = RigidMotion.rotation_z(-math.pi / 2, flip_z=True)
        cert2 = verify_isometry(
            surface_h1(), ParameterMap(shift_pi=Fraction(1, 2)), motion=right
        )
        assert cert2.passed

    @pytest.mark.parametrize("m,count", [(1, 8), (2, 12), (3, 16), (4, 20), (5, 24), (6, 28)])
    def test_group_orders(self, m, count):
        certs = enumerate_isometries(m)
        assert len(certs) == count == 4 * m + 4
        assert all(c.passed for c in certs)

    def test_group_closure(self):
        for m in (1, 2, 3):
            certs = enumerate_isometries(m, samples=60)
            group = {c.pmap for c in certs}
            for a in group:
                for b in group:
                    assert a.compose(b) in group

    def test_composition_algebra(self):
        a = ParameterMap(negate=True, shift_pi=Fraction(1))
        b = ParameterMap(shift_pi=Fraction(1, 3))
        ab = a.compose(b)
        r, t = ab.apply(2.0, 0.5)
        r2, t2 = a.apply(*b.apply(2.0, 0.5))
        assert abs(r - r2) < 1e-15
        assert abs(math.remainder(t - t2, 2 * math.pi)) < 1e-15


class TestFlux:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_symmetric_examples_exact(self, m):
        assert flux_exactness(symmetric_example(m)) == (0.0, 0.0, 0.0)

    def test_family_point_flux(self):
        data = family_theta2(0.83).weierstrass()
        flux = flux_exactness(data)
        logs = integrate_forms(data).log_coeffs
        # flux residues and log coefficients vanish together
        for f, l in zip(flux, np.abs(logs)):
            assert abs(f - l) < 1e-12

    def test_h1_exact(self):
        assert max(flux_exactness(symmetric_example(1))) < 1e-15


class TestCusps:
    def test_h2_equator(self):
        assert cusp_count(equator_curve(2)) == 3

    def test_astroid(self):
        assert cusp_count(astroid_curve()) == 4

    def test_h3_conjugate(self):
        assert cusp_count(equator_curve(3)) == 8

    def test_rational_case(self):
        assert cusp_count(equator_curve(Fraction(1, 2))) == 6

    def test_callable_interface(self):
        def curve(t):
            return eval_hm_even(2, 1.0, t)[:2]

        assert cusp_count(curve) == 3

    def test_smooth_curve_has_none(self):
        assert cusp_count(circle_curve()) == 0
        assert cusp_count(limacon_curve()) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(1, 16).map(Fraction),
                     st.integers(1, 8).map(lambda k: Fraction(1, 2 * k))))
    def test_documented_domain(self, q):
        # m+1 cusps for even m, 2m+2 for odd m, 4k+2 for m = 1/(2k)
        if q.denominator > 1:
            want = 2 * q.denominator + 2
        else:
            want = int(q) + 1 if q % 2 == 0 else 2 * int(q) + 2
        assert cusp_count(equator_curve(q)) == want

    def test_callable_sampling_path(self):
        assert cusp_count(equator_curve(3).point) == 8

    @pytest.mark.parametrize("cusps", [17, 41])
    def test_callable_many_cusp_hypocycloid(self, cusps):
        # (N-1) e^{it} + e^{-(N-1)it}: the velocity vanishes where E^N = 1
        k = cusps - 1

        def curve(t):
            return (k * math.cos(t) + math.cos(k * t),
                    k * math.sin(t) - math.sin(k * t))

        assert cusp_count(curve) == cusps

    def test_callable_reparametrised_astroid(self):
        # analytic, but not a trigonometric polynomial in t
        astroid = astroid_curve()
        assert cusp_count(lambda t: astroid.point(t + 0.3 * math.sin(t))) == 4

    @pytest.mark.parametrize("q", range(1, 9))
    def test_callable_matches_analytic(self, q):
        curve = equator_curve(q)
        assert cusp_count(curve.point, n_samples=1024) == cusp_count(curve)

    @pytest.mark.parametrize(
        "curve",
        [lambda t: (1.0, 2.0),
         lambda t: (math.cos(t), math.sin(t), 0.0),
         # C^2 but not band-limited: coefficients above the noise at n/4
         lambda t: (1 + 0.1 * abs(math.sin(t)) ** 3) * np.array([math.cos(t), math.sin(t)])],
        ids=["constant", "three-coordinates", "sin-cubed-bump"],
    )
    def test_callable_outside_contract_raises(self, curve):
        with pytest.raises(DomainError):
            cusp_count(curve, n_samples=1024)


class TestDiagonalRotations:
    def test_half_turns_about_diagonal_axes(self):
        # z -> -i conj(z) and z -> i conj(z) induce half turns about the
        # horizontal diagonals Span(1,1,0) and Span(1,-1,0)
        for shift, axis in ((Fraction(-1, 2), (1.0, 1.0, 0.0)),
                            (Fraction(1, 2), (1.0, -1.0, 0.0))):
            n = np.asarray(axis) / math.sqrt(2)
            half_turn = RigidMotion(2 * np.outer(n, n) - np.eye(3), np.zeros(3))
            cert = verify_isometry(
                surface_h1_map(),
                ParameterMap(negate=True, shift_pi=shift),
                motion=half_turn,
            )
            assert cert.passed

    def test_diagonal_rays_land_on_diagonals(self):
        from henneberg import eval_h1

        rs = np.linspace(0.3, 3.0, 15)
        on_l1 = eval_h1(rs, np.full_like(rs, -math.pi / 4))
        assert np.abs(on_l1[:, 0] - on_l1[:, 1]).max() < 1e-12
        on_l2 = eval_h1(rs, np.full_like(rs, math.pi / 4))
        assert np.abs(on_l2[:, 0] + on_l2[:, 1]).max() < 1e-12


def surface_h1_map():
    from henneberg import surface_h1

    return surface_h1()
