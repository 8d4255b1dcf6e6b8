import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from henneberg import cli, geometry
from henneberg.algebra import LaurentPoly
from henneberg.surfaces import surface_associated
from henneberg import (
    AnalyticPlanarCurve,
    BjorlingPatch,
    DomainError,
    IntegratedForms,
    ParameterMap,
    RigidMotion,
    SamplingSpec,
    StructureError,
    TrigTerm,
    astroid_curve,
    bjorling_solve,
    build_mesh,
    circle_curve,
    cusp_count,
    enumerate_isometries,
    equator_curve,
    eval_hm_even,
    family_theta2,
    flux_exactness,
    integrate_forms,
    limit_m2_data,
    surface_h1,
    symmetric_example,
    symmetric_phase,
    unit_normal,
)
from oracles import (
    bjorling_x3_reference,
    closed_form_hm,
    compose,
    fit_rigid_motion,
    integrated_forms_reference,
    reflection,
    rotation_z,
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


def moved_curve(curve, t0, alpha):
    """t -> R_alpha gamma(t + t0) over the same domain, as trig terms."""
    def shifted(terms, scale):
        return tuple(TrigTerm(scale * term.amplitude, term.frequency,
                              term.phase + float(term.frequency) * t0) for term in terms)

    c, s = math.cos(alpha), math.sin(alpha)
    return AnalyticPlanarCurve(shifted(curve.x_terms, c) + shifted(curve.y_terms, -s),
                               shifted(curve.x_terms, s) + shifted(curve.y_terms, c),
                               curve.domain)


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
        assert repr(bjorling_solve(equator_curve(q)).w0) == want

    @pytest.mark.parametrize("radius", [1.0, 0.5, 2.7])
    def test_default_base_of_circles(self, radius):
        assert bjorling_solve(circle_curve(radius)).w0 == 0.0


def _zero_signs_cleared(coeffs):
    """coeffs with each -0.0 part made +0.0 (x + 0.0), every other bit kept."""
    return (np.asarray(coeffs) + 0.0).tobytes()


class TestOneAntiderivative:
    """LaurentPoly.integral against the two termwise integrators it
    replaced, kept as oracles: integrate_forms' exponent loop, and the
    Björling primitive in w rotated by -i."""

    @pytest.mark.parametrize("data", [
        *(symmetric_example(m) for m in range(1, 13)), limit_m2_data(),
        *(family_theta2(t).weierstrass() for t in (0.83, 1.0, 2.2)),
    ], ids=[*(f"hm-{m}" for m in range(1, 13)), "limit-m2",
            *(f"family-{t}" for t in (0.83, 1.0, 2.2))])
    def test_weierstrass_forms_bit_for_bit(self, data):
        got, want = data.forms, integrated_forms_reference(data)
        assert got.log_coeffs.tobytes() == want.log_coeffs.tobytes()
        for p, q in zip(got.polys, want.polys):
            assert p.lowest == q.lowest and p.coeffs.tobytes() == q.coeffs.tobytes()

    @pytest.mark.parametrize("curve", [
        *(equator_curve(cli._closed_form_for_cusps(n)) for n in range(3, 25)),
        *(circle_curve(r) for r in (0.5, 1.0, 2.7)),
        moved_curve(equator_curve(Fraction(1, 6)), 0.37, 0.5),
        moved_curve(equator_curve(Fraction(1, 10)), 1.1, 2.0),
    ], ids=[*(f"{n}-cusps" for n in range(3, 25)), "circle-0.5", "circle-1", "circle-2.7",
            "moved-14-cusps", "moved-22-cusps"])
    def test_bjorling_forms_bit_for_bit(self, curve):
        # the coefficients agree in every bit but the sign of a zero part,
        # which the old -i rotation set; the evaluations, offset included,
        # agree in every bit, on and off the curve and at quarter turns.
        # Only on the moved curves, with generic coefficients and D = 6 and
        # 10, would integrating before the scaling by -D round differently
        patch = bjorling_solve(curve)
        x3, log = bjorling_x3_reference(patch._speed, curve.denom)
        got = patch.forms
        assert got.polys[:2] == (curve.x, curve.y)
        assert got.log_coeffs.tobytes() == np.array([0.0, 0.0, log]).tobytes()
        assert got.polys[2].lowest == x3.lowest
        assert _zero_signs_cleared(got.polys[2].coeffs) == _zero_signs_cleared(x3.coeffs)
        offset = x3.evaluate(patch._arg(patch.w0)).real
        assert patch.offset.tobytes() == np.array([0.0, 0.0, offset]).tobytes()
        want = IntegratedForms((curve.x, curve.y, x3), (0.0, 0.0, log))
        e = np.exp(np.linspace(-0.4, 0.4, 9))[:, None] * np.exp(
            1j * np.linspace(0.0, 2 * math.pi, 96, endpoint=False))
        assert got.evaluate(e).tobytes() == want.evaluate(e).tobytes()


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
        want = surface_associated(d, math.pi / 2)(math.exp(-v), us)
        assert np.abs(got - want).max() < 1e-6

    def test_circle_patch_is_catenoid(self):
        # |(x1, x2)| = R cosh(x3 / R), at points and on mesh vertices: x3 is
        # the forms' ln|E| term alone (coefficient -R, where every
        # hypocycloid has 0)
        spec = SamplingSpec(r_min=math.exp(-0.4), r_max=math.exp(0.4), n_r=9, n_theta=64)
        for radius in (1.0, 0.5, 2.7):
            patch = bjorling_solve(circle_curve(radius))
            for u, v in [(0.3, 0.2), (1.0, -0.4), (2.0, 0.05)]:
                p = patch.at(u, v)
                assert abs(math.hypot(p[0], p[1]) - radius * math.cosh(p[2] / radius)) < 1e-8
            x = build_mesh(patch.surface_map(), spec).vertices
            assert np.abs(x[:, 2]).max() > 0.3 * radius
            err = np.abs(np.hypot(x[:, 0], x[:, 1]) - radius * np.cosh(x[:, 2] / radius))
            assert err.max() < 1e-14 * radius, radius

    def test_quadrature_orders_agree(self):
        # the closed-form integral against Gauss-Legendre at two orders
        for curve in (circle_curve(), equator_curve(2), equator_curve(Fraction(1, 2))):
            patch = bjorling_solve(curve)
            for w in (0.7 + 0.4j, 2.0 - 0.3j, 3.9 + 0.05j, patch.w0 + 1.1 - 0.45j):
                ref48 = leggauss_integral(patch, w, 48)
                ref96 = leggauss_integral(patch, w, 96)
                assert abs(ref48 - ref96) < 1e-12
                got = patch.at(w.real, w.imag)
                assert abs(got[2] - ref96.imag) < 1e-12
                assert np.abs(got[:2] - curve.point(w).real).max() < 1e-12

    def test_surface_map_wrapper(self):
        patch = bjorling_solve(equator_curve(2))
        smap = patch.surface_map()
        p = smap(math.exp(-0.02), 1.0)
        q = patch.at(1.0, 0.02)
        assert np.abs(np.asarray(p) - q).max() < 1e-12

    @pytest.mark.parametrize("cusps", range(3, 13))
    def test_mesh_points_are_one_forms_evaluation(self, monkeypatch, cusps):
        patch = bjorling_solve(equator_curve(cli._closed_form_for_cusps(cusps)))
        smap = patch.surface_map()
        calls = []
        evaluate, at = IntegratedForms.evaluate, BjorlingPatch.at
        monkeypatch.setattr(IntegratedForms, "evaluate",
                            lambda forms, z: calls.append(("evaluate", forms)) or evaluate(forms, z))
        monkeypatch.setattr(BjorlingPatch, "at", lambda *a: calls.append(("at",)) or at(*a))
        build_mesh(smap, SamplingSpec(n_r=9, n_theta=64))
        assert calls == [("evaluate", patch.forms)]

    def test_solve_leaves_the_gauss_map_lazy(self, monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "_cancel_common_roots", lambda *a: calls.append(a))
        for cusps in range(3, 13):
            bjorling_solve(equator_curve(cli._closed_form_for_cusps(cusps)))
        assert not calls

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    @pytest.mark.parametrize("t0", [0.1, 0.7, 1.3, 2.9])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, Fraction(1, 2), 8], ids=str)
    def test_moved_hypocycloids(self, m, t0, alpha):
        # gamma(t + t0) rotated by alpha: its speed^2 has float residue at
        # the ends (2e-15 of the top coefficient for m = 8, t0 = 2.9), which
        # the root trims; the sign of x3 follows the arc that w0 lands on
        curve = moved_curve(equator_curve(m), t0, alpha)
        patch = bjorling_solve(curve)
        strip = 0.05 / curve.denom
        spec = SamplingSpec(r_min=math.exp(-strip), r_max=math.exp(strip), n_r=5, n_theta=32)
        normals = build_mesh(patch.surface_map(), spec).normals
        assert np.isfinite(normals).all()
        assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() < 1e-12
        us = np.linspace(curve.domain[0], curve.domain[1], 65)
        vs = np.linspace(-0.2, 0.2, 5)[:, None]
        c, s = math.cos(alpha), math.sin(alpha)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        want = eval_hm_even(m, np.exp(-vs) * np.ones_like(us), us + t0) @ rotation.T
        got = patch.at(us, vs)
        err = max(np.abs(got[..., :2] - want[..., :2]).max(),
                  min(np.abs(got[..., 2] - sign * want[..., 2]).max() for sign in (1, -1)))
        assert err < 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("q", [*range(1, 13), Fraction(1, 2), Fraction(1, 4)], ids=str)
    def test_quarter_turn_phases_give_exact_coefficients(self, q):
        # x has phases +-pi/2, y has phase pi: cis makes them exact
        curve = equator_curve(q)
        assert not curve.x.coeffs.real.any()
        assert not curve.y.coeffs.imag.any()

    def test_arrays_broadcast(self):
        patch = bjorling_solve(equator_curve(2))
        us = np.linspace(0.0, 6.0, 7)
        grid = patch.at(us[None, :], np.array([[-0.1], [0.0], [0.2]]))
        assert grid.shape == (3, 7, 3)
        assert np.abs(grid[2, 4] - patch.at(us[4], 0.2)).max() < 1e-15


def ellipse_curve():
    """x = cos t, y = sin(t) / 2: speed^2 = 5/8 - 3/8 cos 2t is no square."""
    return AnalyticPlanarCurve((TrigTerm(1.0, Fraction(1)),),
                               (TrigTerm(0.5, Fraction(1), -math.pi / 2),))


def _patch_bytes(patch):
    """Every number a patch is made of and gives on a 9 x 64 grid of its
    surface map, as bytes."""
    smap = patch.surface_map()
    r = np.exp(np.linspace(-0.05, 0.05, 9) / patch.denom)[:, None]
    theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    parts = [p.coeffs.tobytes() + str(p.lowest).encode() for p in patch.forms.polys]
    parts += [patch.forms.log_coeffs.tobytes(), patch.offset.tobytes(), repr(patch.w0).encode(),
              smap(r, theta).tobytes(), smap.normal_at(r, theta).tobytes()]
    return parts


class TestSharedPatch:
    """One curve per exact m, one read-only patch per curve."""

    def test_one_patch_per_curve(self):
        for curve in (equator_curve(3), astroid_curve(), circle_curve(2.0)):
            patch = bjorling_solve(curve)
            assert bjorling_solve(curve) is patch and patch.curve is curve

    def test_one_curve_per_exact_m(self):
        assert equator_curve(2) is equator_curve(Fraction(2)) is equator_curve(2.0)
        assert equator_curve(Fraction(1, 2)) is equator_curve(0.5)
        assert equator_curve(1) is astroid_curve()
        assert equator_curve(2) is not equator_curve(3)

    def test_offset_is_read_only(self):
        patch = bjorling_solve(equator_curve(2))
        with pytest.raises(ValueError):
            patch.offset[2] = 1.0

    @pytest.mark.parametrize("argv", [["--cusps", "3"], ["--cusps", "6"], ["--cusps", "8"],
                                      ["--astroid"]], ids=" ".join)
    def test_fresh_patch_matches_shared(self, capsys, tmp_path, argv):
        # the mesh written by the CLI used the shared patch and its Gauss map
        assert cli.main(["bjorling", *argv, "--out", str(tmp_path / "b.ply")]) == 0
        capsys.readouterr()
        cusps = 4 if argv == ["--astroid"] else int(argv[1])
        curve = equator_curve(cli._closed_form_for_cusps(cusps))
        assert _patch_bytes(BjorlingPatch(curve)) == _patch_bytes(bjorling_solve(curve))

    def test_gauss_map_built_once(self, monkeypatch):
        patch = bjorling_solve(moved_curve(equator_curve(4), 0.3, 0.2))
        calls, real = [], geometry._cancel_common_roots
        monkeypatch.setattr(geometry, "_cancel_common_roots",
                            lambda *a: calls.append(a) or real(*a))
        for _ in range(3):
            patch.surface_map().normal_at(1.01, 0.4)
        assert len(calls) == 1

    def test_failed_solve_is_not_kept(self):
        curve = ellipse_curve()
        for _ in range(2):
            with pytest.raises(StructureError, match="perfect square"):
                bjorling_solve(curve)

    def test_refused_strip_builds_no_curve(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "equator_curve", lambda m: built.append(m))
        assert cli.main(["bjorling", "--cusps", "10000000"]) == 2
        assert "--strip" in capsys.readouterr().err
        assert built == []

    def test_large_curve_is_not_kept(self):
        # degree (m + 2) D: 128 is shared, 129 is built on each call
        assert equator_curve(126) is equator_curve(126)
        assert equator_curve(Fraction(1, 63)) is equator_curve(Fraction(1, 63))
        before = geometry._shared_equator_curve.cache_info()
        for m in (127, Fraction(1, 64)):
            assert equator_curve(m) is not equator_curve(m)
            assert equator_curve(m) == equator_curve(m)
        assert geometry._shared_equator_curve.cache_info() == before


class TestDenseCuspBase:
    """Pins a known defect: w0 is the first of 1025 samples where the speed
    reaches half its maximum, and once an arch between cusps spans fewer
    than about 2.4 samples that sample can lie past the first cusp, where
    the analytic speed s has the other sign.  From 427 cusps on the patch
    is then the closed form mirrored in x3, and bjorling still exits 0."""

    @pytest.mark.parametrize("cusps, w0, flipped",
                             [(425, "0.006135923151542565", False),
                              (427, "0.01227184630308513", True)])
    def test_late_base_mirrors_x3(self, capsys, cusps, w0, flipped):
        m = cli._closed_form_for_cusps(cusps)
        curve = equator_curve(m)
        patch = bjorling_solve(curve)
        assert repr(patch.w0) == w0
        us = np.linspace(curve.domain[0], curve.domain[1], 64)
        vs = np.linspace(-0.05, 0.05, 9)[:, None]
        got, want = patch.at(us, vs), eval_hm_even(m, np.exp(-vs), us)
        scale = np.abs(want).max()  # about 4e6
        assert np.abs(got[..., :2] - want[..., :2]).max() < 1e-12 * scale
        mirrored = want[..., 2] * (-1 if flipped else 1)
        assert np.abs(got[..., 2] - mirrored).max() < 1e-12 * scale
        assert cli.main(["bjorling", "--cusps", str(cusps)]) == 0
        sup_error = json.loads(capsys.readouterr().out)["sup_error"]
        assert (sup_error > 1e6) == flipped


def _polydiv_deflate(poly, root):
    """poly / (E - root) by np.polydiv, the remainder discarded."""
    quotient, _ = np.polydiv(poly.coeffs[::-1], np.array([1.0, -root]))
    return LaurentPoly(poly.lowest, quotient[::-1])


def polydiv_cancel_common_roots(num, den):
    """Oracle for geometry._cancel_common_roots: the same roots and test,
    each hit deflated by np.polydiv and rebuilt as LaurentPolys."""
    for root in np.roots(den.coeffs[::-1]):
        exps = np.arange(num.lowest, num.highest + 1)
        size = float(np.abs(num.coeffs) @ np.abs(root) ** exps)
        if abs(num.evaluate(root)) <= 1e-6 * size:
            num, den = _polydiv_deflate(num, root), _polydiv_deflate(den, root)
    return num, den


def _from_roots(lowest, scale, roots):
    return LaurentPoly(lowest, scale * np.poly(roots)[::-1])


class TestCancelCommonRoots:
    def _assert_matches_oracle(self, num, den):
        got, want = geometry._cancel_common_roots(num, den), polydiv_cancel_common_roots(num, den)
        for g, w in zip(got, want):
            assert (g.lowest, len(g.coeffs)) == (w.lowest, len(w.coeffs))
            assert np.abs(g.coeffs - w.coeffs).max() <= 1e-10 * np.abs(w.coeffs).max()
        return got

    @pytest.mark.parametrize("q", [Fraction(n) for n in range(1, 13)]
                             + [Fraction(1, 2), Fraction(1, 4), Fraction(3, 2)], ids=str)
    def test_hypocycloid_gauss_maps_match_oracle(self, q):
        curve = equator_curve(q)
        speed = bjorling_solve(curve)._speed
        self._assert_matches_oracle(speed, curve.dx - curve.dy.scale(1j))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), n_common=st.integers(0, 3),
           n_num=st.integers(0, 3), n_den=st.integers(0, 3),
           lowest=st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    def test_planted_common_roots(self, seed, n_common, n_num, n_den, lowest):
        # num = a (E - d) C A, den = b (E - d)^2 C B: the common roots C and
        # d go, once each, and d stays in den as a simple root
        rng = np.random.default_rng(seed)
        n = n_common + n_num + n_den + 1
        roots = np.exp(rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(0, 2 * np.pi, n))
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(n)
        assume(gaps.min() > 0.2)
        d, common = roots[0], roots[1:n_common + 1]
        extra_num, extra_den = roots[n_common + 1:n_common + 1 + n_num], roots[n - n_den:]
        a, b = np.exp(rng.normal(size=2) + 1j * rng.uniform(0, 2 * np.pi, 2))
        num = _from_roots(lowest[0], a, np.concatenate([[d], common, extra_num]))
        den = _from_roots(lowest[1], b, np.concatenate([[d, d], common, extra_den]))

        red_num, red_den = self._assert_matches_oracle(num, den)
        assert (red_num.lowest, red_den.lowest) == lowest
        assert len(red_num.coeffs) == n_num + 1 and len(red_den.coeffs) == n_den + 2
        left = np.sort_complex(np.roots(red_den.coeffs[::-1]))
        right = np.sort_complex(np.concatenate([[d], extra_den]))
        assert np.abs(left - right).max() < 1e-6
        # the rational function itself is unchanged away from the roots
        e = np.exp(rng.uniform(-0.7, 0.7, 16) + 1j * rng.uniform(0, 2 * np.pi, 16))
        e = e[np.abs(e[:, None] - roots[None, :]).min(axis=1) > 0.1]
        ratio = num.evaluate(e) / den.evaluate(e)
        got = red_num.evaluate(e) / red_den.evaluate(e)
        assert np.abs(got - ratio).max() <= 1e-6 * np.abs(ratio).max(initial=1.0)

    def test_no_common_roots_leaves_both(self):
        num, den = _from_roots(-1, 2.0, [0.5, 1j]), _from_roots(2, 1j, [-0.5, 2.0, -1j])
        for got, want in zip(geometry._cancel_common_roots(num, den), (num, den)):
            assert got.lowest == want.lowest and np.array_equal(got.coeffs, want.coeffs)


class TestBjorlingNormals:
    def test_cusp_vertex_normal_is_stereographic(self):
        # the Gauss map of the m = 2 patch is z = r e^{i theta}; at a cusp
        # s and x' - i y' both vanish and the ratio must still be exact
        curve = equator_curve(2)
        spec = SamplingSpec(r_min=math.exp(-0.05), r_max=math.exp(0.05),
                            n_r=9, n_theta=63)
        mesh = build_mesh(bjorling_solve(curve).surface_map(), spec)
        rr, tt = np.meshgrid(spec.radii, spec.thetas, indexing="ij")
        cusp = (rr == 1.0) & (curve.speed(tt) < 1e-12)
        assert cusp.sum() == 3  # theta = 0, 2 pi/3, 4 pi/3
        want = unit_normal(rr * np.exp(1j * tt)).reshape(-1, 3)
        assert np.abs(mesh.normals - want)[cusp.ravel()].max() < 1e-12
        assert np.abs(mesh.normals - want).max() < 1e-12

    @pytest.mark.parametrize(
        "curve", [circle_curve(), equator_curve(2), equator_curve(Fraction(1, 2)),
                  limacon_curve()],
        ids=["circle", "m=2", "m=1/2", "limacon"],
    )
    def test_match_central_differences(self, curve):
        smap = bjorling_solve(curve).surface_map()
        r, theta = np.meshgrid(np.exp(np.linspace(-0.3, 0.3, 7)),
                               np.linspace(0.01, curve.period - 0.01, 41), indexing="ij")
        ref, size = fd_normals(smap, r, theta)
        regular = size > 1e-3 * size.max()  # away from the cusps
        assert regular.mean() > 0.9
        got = smap.normal_at(r, theta)
        assert np.abs(np.linalg.norm(got, axis=-1) - 1.0).max() < 1e-14
        assert np.sum(got * ref, axis=-1)[regular].min() >= 1 - 1e-9

    @pytest.mark.parametrize("curve", [circle_curve(), equator_curve(2),
                                       equator_curve(Fraction(1, 5))],
                             ids=["circle", "m=2", "m=1/5"])
    def test_scalar_point_matches_grid(self, curve):
        # a scalar (r, theta) gives one normal of shape (3,), bit for bit the
        # grid's at that point, cusps (r = 1, theta = 0) included
        smap = bjorling_solve(curve).surface_map()
        rs, ts = np.array([1.0, 0.8, 1.3]), np.array([0.0, 0.7, 2.5, math.pi])
        grid = smap.normal_at(rs[:, None], ts[None, :])
        for i, r in enumerate(rs):
            for k, t in enumerate(ts):
                got = smap.normal_at(float(r), float(t))
                assert got.shape == (3,)
                assert got.tobytes() == grid[i, k].tobytes()
class TestRigidMotion:
    def test_fit_recovers_improper_motion(self, rng):
        pts = rng.normal(size=(60, 3))
        q = reflection([0.0, 1.0, 0.0])
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
        wrong = rotation_z(math.pi / 2)
        cert = verify_isometry(
            surface_h1(), ParameterMap(shift_pi=Fraction(1, 2)), motion=wrong
        )
        assert not cert.passed
        assert cert.residual > 1e3 * cert.tolerance
        right = rotation_z(-math.pi / 2, flip_z=True)
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
            certs = enumerate_isometries(m)
            group = {c.pmap for c in certs}
            for a in group:
                for b in group:
                    assert compose(a, b) in group

    @pytest.mark.parametrize("m", range(1, 9))
    def test_coefficients_match_sampled_fit(self, m):
        # the sampled Procrustes fit on the closed form is the oracle
        closed = closed_form_hm(m)
        for cert in enumerate_isometries(m):
            oracle = verify_isometry(closed, cert.pmap)
            assert oracle.passed and cert.passed
            assert cert.pmap.describe() == oracle.pmap.describe()
            assert np.abs(cert.motion.matrix - oracle.motion.matrix).max() < 1e-12
            assert np.abs(cert.motion.translation - oracle.motion.translation).max() < 1e-12
            assert cert.residual <= 1e-13 * cert.tolerance / geometry.ISOMETRY_REL_TOL

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("step", ["m+2", "2m+2"])
    def test_non_elements_fail(self, m, negate, step):
        q = Fraction(1, m + 2) if step == "m+2" else Fraction(1, 2 * m + 2)
        forms = integrate_forms(symmetric_example(m))
        [cert] = geometry._certify_on_coefficients(
            forms, [ParameterMap(negate=negate, shift_pi=q)]
        )
        assert not cert.passed
        assert cert.residual > 0.1 * cert.tolerance / geometry.ISOMETRY_REL_TOL

    @pytest.mark.parametrize("m", range(1, 13))
    def test_deck_map_certified_on_coefficients(self, m):
        # z -> -1/conj(z) is (r, theta) -> (1/r, theta + pi): the identity
        # motion; a shift by pi/(2m+2) with the inversion is no isometry
        deck, off = geometry._certify_on_coefficients(
            symmetric_example(m).forms,
            [ParameterMap(shift_pi=1, invert=True),
             ParameterMap(shift_pi=Fraction(1, 2 * m + 2), invert=True)],
            symmetric_phase(m),
        )
        assert deck.passed and deck.residual < 1e-15
        assert np.abs(deck.motion.matrix - np.eye(3)).max() < 1e-15
        assert np.abs(deck.motion.translation).max() < 1e-15
        assert not off.passed
        assert off.residual > 0.1 * off.tolerance / geometry.ISOMETRY_REL_TOL

    def test_nothing_is_sampled(self, monkeypatch):
        # neither the closed form nor the integrated forms are evaluated
        import henneberg.surfaces as surfaces
        from henneberg import IntegratedForms, SurfaceMap

        def poisoned(*args):
            raise AssertionError("surface evaluated")

        monkeypatch.setattr(surfaces, "eval_hm_even", poisoned)
        monkeypatch.setattr(IntegratedForms, "evaluate", poisoned)
        monkeypatch.setattr(SurfaceMap, "__call__", poisoned)
        for m in (1, 2):
            assert all(c.passed for c in enumerate_isometries(m))

    @staticmethod
    def _compose_closure(gens):
        """The group gens generate: words grown by oracles.compose."""
        group, frontier = {ParameterMap()}, [ParameterMap()]
        while frontier:
            fresh = {compose(h, g) for g in frontier for h in gens} - group
            group |= fresh
            frontier = list(fresh)
        return sorted(group, key=lambda p: (p.invert, p.negate, p.shift_pi))

    @staticmethod
    def _paper_generators(m):
        """The paper's generators: the reflection about the imaginary axis
        with, for odd m, the rotation by pi + pi/(m+1), and for even m the
        rotation by 2 pi/(m+1) and the antipodal rotation by pi."""
        reflection = ParameterMap(negate=True, shift_pi=Fraction(1))
        if m % 2 == 1:
            return (reflection, ParameterMap(shift_pi=1 + Fraction(1, m + 1)))
        return (reflection, ParameterMap(shift_pi=Fraction(2, m + 1)),
                ParameterMap(shift_pi=Fraction(1)))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_maps_are_the_generated_group(self, m):
        maps = [c.pmap for c in enumerate_isometries(m)]
        assert maps == self._compose_closure(self._paper_generators(m))

    @staticmethod
    def _order(q):
        power = q
        for n in range(1, 100):
            if np.abs(power - np.eye(3)).max() < 1e-9:
                return n
            power = power @ q
        raise AssertionError("motion of no finite order below 100")

    @pytest.mark.parametrize("m", range(1, 13))
    def test_motions_realise_the_abstract_groups(self, m):
        # D_{2m+2} for odd m, D_{m+1} x Z_2 for even m: 2m+2 rotations of
        # largest order m+1; the horizontal mirror is a motion exactly for
        # even m, and for odd m a roto-reflection has order 2m+2
        qs = [c.motion.matrix for c in enumerate_isometries(m)]
        proper = [q for q in qs if np.linalg.det(q) > 0]
        improper = [q for q in qs if np.linalg.det(q) < 0]
        assert len(proper) == len(improper) == 2 * m + 2
        assert max(self._order(q) for q in proper) == m + 1
        mirror = np.diag([1.0, 1.0, -1.0])
        has_mirror = any(np.abs(q - mirror).max() < 1e-12 for q in qs)
        assert has_mirror == (m % 2 == 0)
        if m % 2 == 1:
            assert max(self._order(q) for q in improper) == 2 * m + 2

    @pytest.mark.parametrize("m", [0, -1, -2, 1.5])
    def test_bad_complexity_is_a_domain_error(self, m):
        with pytest.raises(DomainError):
            enumerate_isometries(m)

    def test_composition_algebra(self):
        a = ParameterMap(negate=True, shift_pi=Fraction(1))
        b = ParameterMap(shift_pi=Fraction(1, 3))
        ab = compose(a, b)
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
        from oracles import eval_h1

        rs = np.linspace(0.3, 3.0, 15)
        on_l1 = eval_h1(rs, np.full_like(rs, -math.pi / 4))
        assert np.abs(on_l1[:, 0] - on_l1[:, 1]).max() < 1e-12
        on_l2 = eval_h1(rs, np.full_like(rs, math.pi / 4))
        assert np.abs(on_l2[:, 0] + on_l2[:, 1]).max() < 1e-12


def surface_h1_map():
    from henneberg import surface_h1

    return surface_h1()
