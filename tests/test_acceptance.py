"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or -rA to see them all).
"""

import math
import time
from fractions import Fraction

import numpy as np
import henneberg as hb
from henneberg.period import ModuliPoint
from oracles import (
    Hypocycloid,
    antipodes,
    compose,
    eval_h1,
    eval_hm_odd,
    eval_limit_m2,
    extend_by_pair,
    horizontal_residual_m2_alt,
    hypocycloid_point,
    metric_density,
    period_jacobian_m2_fd,
    rotation_z,
    verify_isometry,
)

SEED = 0


def report(n, ok, detail):
    print(f"[ACCEPTANCE {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_symmetric_example_periods_exact():
    t0 = time.perf_counter()
    for m in range(1, 9):
        res = hb.period_residuals(hb.symmetric_example(m))
        assert res.horizontal == 0, m
        assert res.vertical == 0.0, m
        assert res.onesided == 0.0, m
    elapsed = time.perf_counter() - t0
    report(
        1,
        elapsed < 1.0,
        f"period residuals exactly (0,0,0) for m=1..8 in {elapsed:.3f}s (< 1s)",
    )


def test_02_closed_form_equivalence():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 7):
        data = hb.symmetric_example(m)
        r = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 1000))
        th = rng.uniform(0, 2 * np.pi, 1000)
        z = r * np.exp(1j * th)
        got = hb.Immersion(data)(z)
        s = hb.symmetric_phase(m)
        base = hb.default_base(m)
        if m % 2 == 1:
            want = s * eval_hm_odd(m, r, th)
            want -= s * eval_hm_odd(m, abs(base), np.angle(base))
        else:
            want = s * hb.eval_hm_even(m, r, th)
            want -= s * hb.eval_hm_even(m, abs(base), np.angle(base))
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 1e-10 and elapsed < 10.0,
        f"integrated vs closed forms m=1..6: max err {worst:.2e} (< 1e-10) "
        f"in {elapsed:.1f}s (< 10s)",
    )


def test_03_m1_uniqueness_search():
    # m1_residual is the squared norm of the generic complexity-1 residuals
    # and equals the sum of squares sin^2 phi B + 4 cos^2 phi, so its zeros
    # are exactly r1 = r2 = 1, theta2 in {pi/2, 3 pi/2}, beta in {0, pi}
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_generic = worst_factored = 0.0
    for _ in range(200):
        r1, r2 = np.exp(rng.uniform(-1.5, 1.5, 2))
        t2, beta = rng.uniform(0.0, 2 * math.pi, 2)
        config = hb.BranchConfiguration.from_polar([(r1, 0.0), (r2, t2)])
        res = hb.period_residuals(hb.WeierstrassData(np.exp(1j * beta), config))
        generic = abs(res.horizontal) ** 2 + res.vertical**2 + res.onesided**2
        g1, g2, phi = hb.radial_gap(r1), hb.radial_gap(r2), t2 + beta
        factored = (math.sin(phi) ** 2 * (4 * abs(g1 + g2 * np.exp(1j * t2)) ** 2
                                          + (2 * math.cos(t2) - g1 * g2) ** 2)
                    + 4 * math.cos(phi) ** 2)
        got = float(hb.m1_residual(r1, r2, t2, beta))
        worst_generic = max(worst_generic, abs(got - generic) / max(1.0, generic))
        worst_factored = max(worst_factored, abs(got - factored) / factored)
    zeros = [(1.0, 1.0, t2, b) for t2 in (math.pi / 2, 3 * math.pi / 2) for b in (0.0, math.pi)]
    at_zeros = max(float(hb.m1_residual(*z)) for z in zeros)
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst_generic < 1e-10 and worst_factored < 1e-14 and at_zeros < 1e-28
        and elapsed < 60.0,
        f"m1_residual vs generic residuals {worst_generic:.1e} (< 1e-10), vs sum of "
        f"squares {worst_factored:.1e} (< 1e-14), {at_zeros:.1e} at the four zeros "
        f"(< 1e-28), in {elapsed:.1f}s (< 60s)",
    )


def test_04_family_residuals():
    worst = 0.0
    for t in np.linspace(math.pi / 4 + 1e-3, math.pi / 3, 50):
        p = hb.family_theta2(float(t)).moduli_point()
        worst = max(
            worst,
            abs(hb.horizontal_residual_m2(p)) + abs(hb.vertical_residual_m2(p)),
        )
    report(4, worst < 1e-9, f"50 family points: max |F|+|G| = {worst:.2e} (< 1e-9)")


def test_05_jacobian_determinant():
    det = float(np.linalg.det(hb.period_jacobian_m2(hb.h2_point())))
    det_err = abs(det - 2 * math.sqrt(3))
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        r1, r2, r3 = np.exp(rng.uniform(-0.7, 0.7, 3))
        t2, t3 = rng.uniform(0, 2 * np.pi, 2)
        p = ModuliPoint(r1, r2, r3, t2, t3, math.pi / 2)
        worst = max(
            worst,
            float(
                np.abs(
                    hb.period_jacobian_m2(p) - period_jacobian_m2_fd(p)
                ).max()
            ),
        )
    report(
        5,
        det_err < 1e-9 and worst < 1e-5,
        f"|det - 2sqrt(3)| = {det_err:.2e} (< 1e-9); analytic vs FD "
        f"max {worst:.2e} (< 1e-5) at 100 points",
    )


def test_06_continuation_matches_family():
    # H2 in the family gauge: same branch-pair multiset as the symmetric list
    point = ModuliPoint(1.0, 1.0, 1.0, math.pi / 3, -math.pi / 3, math.pi / 2)
    worst = 0.0
    for t in np.linspace(math.pi / 3, 0.9, 30)[1:]:
        fp = hb.family_theta2(float(t))
        point = hb.continue_from(point, fp.r1, fp.r2)
        want = fp.moduli_point()
        worst = max(
            worst,
            abs(point.r3 - want.r3),
            abs(point.theta2 - want.theta2),
            abs(point.theta3 - want.theta3),
        )
    report(
        6,
        worst < 1e-8,
        f"continuation along the family for theta2 in [0.9, pi/3]: "
        f"max deviation {worst:.2e} (< 1e-8)",
    )


def test_07_limit_identification():
    d_hat = hb.limit_m2_data()
    rr = np.exp(np.linspace(-np.log(2), np.log(2), 16))
    tt = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    grid_r, grid_t = np.meshgrid(rr, tt, indexing="ij")
    z = grid_r * np.exp(1j * grid_t)
    x_hat = d_hat.forms.evaluate(z)
    sups = []
    for t in (0.79, 0.786, 0.7855):
        fp = hb.family_theta2(t)
        x = fp.weierstrass().forms.evaluate(z)
        sups.append(float(np.abs(fp.r1 * x - x_hat).max()))
    monotone = sups[0] > sups[1] > sups[2]

    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    rng = np.random.default_rng(SEED)
    r = np.exp(rng.uniform(-1, 1, 400))
    th = rng.uniform(0, 2 * np.pi, 400)
    lhs = eval_limit_m2(r, th + math.pi / 4) @ rot.T
    rot_err = float(np.abs(lhs + eval_h1(r, th)).max())
    report(
        7,
        monotone and rot_err < 1e-12,
        f"sup errors {[f'{v:.3f}' for v in sups]} decrease monotonically; "
        f"rotation identity max err {rot_err:.2e} (< 1e-12)",
    )


def test_08_hypocycloid_geometry():
    worst_match = 0.0
    cusp_ok = True
    th = np.linspace(0, 2 * np.pi, 257)
    for m in (2, 4, 6, 8):
        x = hb.eval_hm_even(m, np.ones_like(th), th)
        h = Hypocycloid.standard(m)
        want = hypocycloid_point(h, m * th)
        worst_match = max(worst_match, float(np.abs(x[:, :2] - want).max()))
        worst_match = max(worst_match, float(np.abs(x[:, 2]).max()))
        cusp_ok &= hb.cusp_count(hb.equator_curve(m)) == m + 1
    for m in (1, 3, 5, 7):
        cusp_ok &= hb.cusp_count(hb.equator_curve(m)) == 2 * m + 2

    cusps = hb.eval_hm_even(2, np.ones(3), np.array([0.0, math.pi / 3, 2 * math.pi / 3]))
    c = 3 * math.sqrt(3) / 8
    want = np.array([[0.0, -0.75, 0.0], [-c, 3 / 8, 0.0], [c, 3 / 8, 0.0]])
    cusp_coord_err = float(np.abs(cusps - want).max())
    report(
        8,
        worst_match < 1e-12 and cusp_ok and cusp_coord_err < 1e-12,
        f"equators match rolling-circle form to {worst_match:.2e} (< 1e-12); "
        f"cusp counts m+1 / 2m+2 correct; H2 cusp coords err "
        f"{cusp_coord_err:.2e} (< 1e-12)",
    )


def test_09_isometry_groups():
    counts_ok = True
    for m in range(1, 7):
        certs = hb.enumerate_isometries(m)
        counts_ok &= len(certs) == 4 * m + 4 and all(c.passed for c in certs)
        group = {c.pmap for c in certs}
        counts_ok &= all(compose(a, b) in group for a in group for b in group)
    wrong = rotation_z(math.pi / 2)
    cert = verify_isometry(
        hb.surface_h1(), hb.ParameterMap(shift_pi=Fraction(1, 2)), motion=wrong
    )
    report(
        9,
        counts_ok and not cert.passed,
        "groups of order 4m+4 for m<=6 (8 for m=1), closed, all certified; "
        f"deliberately wrong motion fails (residual {cert.residual:.2e})",
    )


def test_10_bjorling_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for cusps, m in ((3, 2), (4, 1), (5, 4), (6, Fraction(1, 2))):
        curve = hb.equator_curve(m)
        patch = hb.bjorling_solve(curve)
        us = np.linspace(curve.domain[0], curve.domain[1], 48)
        for v in np.linspace(-0.05, 0.05, 5):
            got = patch.at(us, np.full_like(us, v))
            want = hb.eval_hm_even(m, math.exp(-v) * np.ones_like(us), us)
            worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    report(
        10,
        worst < 1e-6 and elapsed < 30.0,
        f"Björling vs closed forms (cusps 3,4,5,6) sup err {worst:.2e} "
        f"(< 1e-6) on |v|<=0.05 in {elapsed:.1f}s (< 30s)",
    )


def test_11_recursion_law():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        rs = np.exp(rng.uniform(np.log(1 / 3), np.log(3.0), m + 1))
        ts = rng.uniform(0, 2 * np.pi, m + 1)
        config = hb.BranchConfiguration(tuple(rs), tuple(ts))
        p = hb.expand_product(
            hb.BranchConfiguration(config.moduli[:2], config.angles[:2])
        )
        for r, t in zip(config.moduli[2:], config.angles[2:]):
            p = extend_by_pair(p, r * np.exp(1j * t))
        q = hb.expand_product(config)
        scale = float(np.abs(q.coeffs).max())
        diff = max(
            abs(p.coefficient(h) - q.coefficient(h))
            for h in range(0, 2 * m + 3)
        )
        worst = max(worst, diff / scale)
    report(
        11,
        worst < 1e-12,
        f"recursion vs product on 1000 random configs (m<=5): "
        f"max rel err {worst:.2e} (< 1e-12)",
    )


def test_12_property_suites():
    rng = np.random.default_rng(SEED)
    ok = True
    notes = []

    # conformality by finite differences
    data = hb.symmetric_example(2)
    imm = hb.Immersion(data)
    r = np.exp(rng.uniform(-0.6, 0.6, 50))
    th = rng.uniform(0, 2 * np.pi, 50)
    z = r * np.exp(1j * th)
    lam = metric_density(data, z)
    keep = lam > 0.1
    z, lam = z[keep], lam[keep]
    h = 1e-6 * np.abs(z)
    xu = (imm(z + h) - imm(z - h)) / (2 * h[:, None])
    xv = (imm(z + 1j * h) - imm(z - 1j * h)) / (2 * h[:, None])
    conf = max(
        float(np.abs(np.linalg.norm(xu, axis=1) / lam - 1).max()),
        float(np.abs(np.linalg.norm(xv, axis=1) / lam - 1).max()),
        float((np.abs(np.sum(xu * xv, axis=1)) / lam**2).max()),
    )
    ok &= conf < 1e-4
    notes.append(f"conformality {conf:.1e}")

    # antipodal invariance
    for d in (hb.symmetric_example(3), hb.family_theta2(0.83).weierstrass()):
        im = hb.Immersion(d)
        rr = np.exp(rng.uniform(-1, 1, 1000))
        tt = rng.uniform(0, 2 * np.pi, 1000)
        zz = rr * np.exp(1j * tt)
        x = im(zz)
        diam = float(np.linalg.norm(np.ptp(x, axis=0)))
        dev = float(np.abs(im(-1 / np.conj(zz)) - x).max())
        ok &= dev < 1e-9 * diam
    notes.append("antipodal invariance")

    # F symmetry in the two branch pairs
    worst_sym = 0.0
    for _ in range(100):
        r1, r2, r3 = np.exp(rng.uniform(-0.7, 0.7, 3))
        t2, t3 = rng.uniform(0, 2 * np.pi, 2)
        p = ModuliPoint(r1, r2, r3, t2, t3, math.pi / 2)
        q = ModuliPoint(r1, r3, r2, t3, t2, math.pi / 2)
        worst_sym = max(
            worst_sym,
            abs(hb.horizontal_residual_m2(p) - hb.horizontal_residual_m2(q)),
        )
        worst_sym = max(
            worst_sym,
            abs(
                hb.horizontal_residual_m2(p)
                - horizontal_residual_m2_alt(p)
            ),
        )
    ok &= worst_sym < 1e-12
    notes.append(f"F symmetry/forms {worst_sym:.1e}")

    # Lemma-12-style nonvanishing at solved family points
    for t in (0.8, 0.83, 0.9, 1.0):
        p = hb.family_theta2(t).moduli_point()
        coeff = hb.radial_gap(p.r2) * np.exp(1j * p.theta2) + hb.radial_gap(
            p.r3
        ) * np.exp(1j * p.theta3)
        ok &= abs(coeff) > 1e-8
    notes.append("R(r1)-coefficient nonvanishing")

    # congruence of the mirror family point: negated root multiset
    t = 0.83
    a = hb.family_theta2(t).weierstrass()
    b = hb.family_theta2(math.pi - t).weierstrass()
    roots_a = np.concatenate([a.config.branch_values(), antipodes(a.config)])
    roots_b = np.concatenate([b.config.branch_values(), antipodes(b.config)])
    remaining = list(-roots_a)
    match = True
    for w in roots_b:
        k = int(np.argmin([abs(w - u) for u in remaining]))
        match &= abs(w - remaining[k]) < 1e-10
        remaining.pop(k)
    ok &= match
    notes.append("mirror congruence multiset")

    report(12, bool(ok), "; ".join(notes))
