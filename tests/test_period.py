import logging
import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henneberg import (
    BranchConfiguration,
    ConvergenceError,
    DomainError,
    ModuliPoint,
    SearchHit,
    WeierstrassData,
    brute_search_m1,
    continue_from,
    family_theta2,
    h2_point,
    horizontal_residual_m2,
    m1_residual,
    period_jacobian_m2,
    period_residuals,
    radial_gap,
    symmetric_example,
    vertical_residual_m2,
)
from henneberg import period
from henneberg.period import (
    _damped_newton,
    _factored_minima,
    _m1_jacobian,
    _m1_search_terms,
    _m1_terms,
    _m1_vector,
)
from oracles import antipodes, fd_jacobian, horizontal_residual_m2_alt, period_jacobian_m2_fd

H2_FAMILY_GAUGE = ModuliPoint(1.0, 1.0, 1.0, math.pi / 3, -math.pi / 3, math.pi / 2)


def random_point(rng):
    r1, r2, r3 = np.exp(rng.uniform(-0.7, 0.7, 3))
    t2, t3 = rng.uniform(0, 2 * np.pi, 2)
    return ModuliPoint(r1, r2, r3, t2, t3, math.pi / 2)


class TestPeriodResiduals:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_symmetric_examples_exactly_zero(self, m):
        res = period_residuals(symmetric_example(m))
        assert res.horizontal == 0
        assert res.vertical == 0.0
        assert res.onesided == 0.0

    def test_h1_with_c_one(self):
        assert period_residuals(symmetric_example(1)).passes(1e-15)

    def test_failing_m1_example(self):
        config = BranchConfiguration.from_polar([(2.0, 0.0), (1.0, math.pi / 2)])
        res = period_residuals(WeierstrassData(1.0, config))
        assert abs(res.horizontal - (-3.0)) < 1e-14
        assert not res.passes()


class TestM1Residual:
    def test_henneberg_list_is_zero(self):
        assert m1_residual(1.0, 1.0, math.pi / 2, 0.0) < 1e-30

    def test_wrong_phase(self):
        val = m1_residual(1.0, 1.0, math.pi / 2, math.pi / 4)
        assert abs(val - 2.0) < 1e-12

    def test_real_pair_case_positive(self):
        # r1 = r2 = 2, theta2 = pi: the vertical condition cannot vanish
        for beta in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            assert m1_residual(2.0, 2.0, math.pi, beta) > 1e-4

    def test_real_form_matches_complex_form_on_grid(self):
        # the complex components, squared and summed, as a reference; the
        # real closed form reorders the arithmetic, so allow a few ulp
        rs = np.exp(np.linspace(math.log(0.1), math.log(10.0), 9))
        angles = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
        r1, r2 = rs[:, None, None, None], rs[None, :, None, None]
        t2, b = angles[None, None, :, None], angles[None, None, None, :]
        g1, g2 = radial_gap(r1), radial_gap(r2)
        horizontal = -2j * (g1 * np.exp(-1j * t2) + g2) * np.sin(b + t2)
        vertical = -(2.0 * np.cos(t2) - g1 * g2) * np.exp(1j * (b + t2))
        phase = np.exp(2j * (b + t2)) + 1.0
        want = np.abs(horizontal) ** 2 + vertical.imag**2 + np.abs(phase) ** 2
        got = m1_residual(r1, r2, t2, b)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-30)

    def test_factored_identity(self, rng):
        # sin^2 phi (4 |g1 + g2 e^{i theta2}|^2 + (2 cos theta2 - g1 g2)^2)
        # + 4 cos^2 phi, in complex arithmetic; the largest relative gap on
        # these points is 8.4e-16
        r1, r2 = np.exp(rng.uniform(-1.5, 1.5, (2, 10**5)))
        t2, b = rng.uniform(0.0, 2 * math.pi, (2, 10**5))
        g1, g2 = radial_gap(r1), radial_gap(r2)
        phi = t2 + b
        want = (np.sin(phi) ** 2 * (4 * np.abs(g1 + g2 * np.exp(1j * t2)) ** 2
                                    + (2 * np.cos(t2) - g1 * g2) ** 2)
                + 4 * np.cos(phi) ** 2)
        got = m1_residual(r1, r2, t2, b)
        assert (np.abs(got - want) / want).max() <= 2e-15

    @pytest.mark.parametrize("theta2", [math.pi / 2, 3 * math.pi / 2])
    @pytest.mark.parametrize("beta", [0.0, math.pi])
    def test_four_regular_zeros(self, theta2, beta):
        # each zero is isolated: the Jacobian has full rank there, with
        # singular values 4, 4, sqrt(5) + 1 and sqrt(5) - 1
        x = np.array([1.0, 1.0, theta2, beta])
        assert np.abs(_m1_vector(x)).max() <= 1e-15
        sv = np.linalg.svd(_m1_jacobian(x), compute_uv=False)
        want = [4.0, 4.0, math.sqrt(5) + 1, math.sqrt(5) - 1]
        assert np.abs(sv - want).max() <= 1e-12


def _m1_jacobian_mp(x, dps=40):
    """The Jacobian of _m1_vector's five components by mpmath.diff in
    dps-digit arithmetic, as floats."""
    def parts(r1, r2, t2, b):
        g1, g2 = r1 - 1 / r1, r2 - 1 / r2
        phi = t2 + b
        return (
            -2j * (g1 * mpmath.expj(-t2) + g2) * mpmath.sin(phi),
            -(2 * mpmath.cos(t2) - g1 * g2) * mpmath.expj(phi),
            mpmath.expj(2 * phi) + 1,
        )

    with mpmath.workdps(dps):
        point = [mpmath.mpf(float(v)) for v in x]
        jac = np.empty((5, 4))
        for j in range(4):
            def column(s, k, j=j):
                return parts(*point[:j], s, *point[j + 1:])[k]

            h, v, p = (mpmath.diff(lambda s: column(s, k), point[j]) for k in range(3))
            jac[:, j] = [float(h.real), float(h.imag), float(v.imag),
                         float(p.real), float(p.imag)]
    return jac


class TestM1Jacobian:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        log_r=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        angles=st.tuples(
            st.floats(0.0, 2 * math.pi, exclude_max=True),
            st.floats(0.0, 2 * math.pi, exclude_max=True),
        ),
    )
    def test_matches_extended_precision(self, log_r, angles):
        x = np.array([math.exp(log_r[0]), math.exp(log_r[1]), *angles])
        got, want = _m1_jacobian(x), _m1_jacobian_mp(x)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        fd = fd_jacobian(_m1_vector, x, 1e-7)
        assert np.abs(got - fd).max() <= 1e-7 * np.abs(got).max()


class TestBruteSearch:
    def test_default_grid_finds_only_henneberg(self):
        hits = brute_search_m1()
        assert len(hits) > 0
        for h in hits:
            assert h.is_henneberg(1e-6), h
            assert abs(h.r1 - 1) < 1e-6 and abs(h.r2 - 1) < 1e-6
            t2 = h.theta2 % (2 * math.pi)
            assert min(abs(t2 - math.pi / 2), abs(t2 - 3 * math.pi / 2)) < 1e-6

    def test_restricted_radial_grid_is_empty(self):
        assert brute_search_m1(span=(1.5, 3.0)) == []

    def test_grid_point_on_solution(self):
        # the default grid contains (1, 1, pi/2, 0) exactly
        rs = np.exp(np.linspace(np.log(0.25), np.log(4.0), 33))
        assert any(abs(r - 1) < 1e-15 for r in rs)
        angles = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        assert any(abs(a - math.pi / 2) < 1e-15 for a in angles)
        assert m1_residual(1.0, 1.0, math.pi / 2, 0.0) < 1e-30


def _dense_minima(res, threshold):
    """Reference: the grid-local minima below ``threshold`` from a dense 4-D
    mask built with padded and rolled copies of the whole grid, as
    (i, j, k, l) rows in lexicographic order."""
    is_min = np.ones_like(res, dtype=bool)
    for axis in (0, 1):
        pad = np.full_like(np.take(res, [0], axis=axis), np.inf)
        padded = np.concatenate([pad, res, pad], axis=axis)
        fwd = np.take(padded, range(2, padded.shape[axis]), axis=axis)
        bwd = np.take(padded, range(0, padded.shape[axis] - 2), axis=axis)
        is_min &= (res <= fwd) & (res <= bwd)
    for axis in (2, 3):
        is_min &= (res <= np.roll(res, 1, axis=axis)) & (
            res <= np.roll(res, -1, axis=axis)
        )
    return np.argwhere(is_min & (res < threshold))


def _search_axes(span, n_radial, n_angular):
    lo, hi = span
    rs = np.exp(np.linspace(math.log(lo), math.log(hi), n_radial))
    angles = np.linspace(0.0, 2 * math.pi, n_angular, endpoint=False)
    return rs, angles


def _search_terms(span, n_radial, n_angular):
    """The factors (S, B, C) of the search grid as brute_search_m1 builds
    them: S and C on (k, l), B packed on the radius pairs i <= j by k."""
    return _m1_search_terms(*_search_axes(span, n_radial, n_angular))


def _search_grid(span, n_radial, n_angular):
    rs, angles = _search_axes(span, n_radial, n_angular)
    return m1_residual(
        rs[:, None, None, None], rs[None, :, None, None],
        angles[None, None, :, None], angles[None, None, None, :],
    )


def _full_bracket(b):
    """The symmetric (n_r, n_r, n_a) bracket whose upper triangle the
    (n_r (n_r + 1) / 2, n_a) array ``b`` packs."""
    n_pairs, n_angular = b.shape
    n_radial = (math.isqrt(8 * n_pairs + 1) - 1) // 2
    iu, ju = np.triu_indices(n_radial)
    full = np.empty((n_radial, n_radial, n_angular))
    full[iu, ju] = b
    full[ju, iu] = b
    return full


def _product_grid(s, b, c):
    """The 4-D grid s[k, l] * B[i, j, k] + c[k, l], built whole from the
    packed bracket ``b``."""
    return s * _full_bracket(b)[..., None] + c


class TestStreamedMinima:
    """The minima found from the factors S, B, C, with B packed on the
    radius pairs i <= j, equal the dense 4-D mask on the whole grid."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        radii=st.lists(
            st.tuples(
                st.floats(0.0, 1e308, exclude_min=True),
                st.floats(0.0, 1e308, exclude_min=True),
            ),
            min_size=1, max_size=20,
        ),
        theta2=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=12),
    )
    def test_bracket_symmetric_bit_for_bit(self, radii, theta2):
        # the packing rests on B(r1, r2) == B(r2, r1) in every bit, for
        # every finite radius > 0 (overflow to inf included)
        r1, r2 = np.array(radii).T[:, :, None]
        t2 = np.array(theta2)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            b12 = _m1_terms(r1, r2, t2, 0.0)[1]
            b21 = _m1_terms(r2, r1, t2, 0.0)[1]
        np.testing.assert_array_equal(b12.view(np.int64), b21.view(np.int64))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_radial=st.integers(1, 9),
        n_angular=st.integers(1, 12),
        lo=st.floats(0.1, 1.5),
        width=st.floats(1.01, 20.0),
    )
    def test_factors_equal_residual_bit_for_bit(self, n_radial, n_angular, lo,
                                               width):
        span = (lo, lo * width)
        got = _product_grid(*_search_terms(span, n_radial, n_angular))
        want = _search_grid(span, n_radial, n_angular)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n_radial=st.integers(1, 9),
        n_angular=st.integers(1, 12),
        lo=st.floats(0.1, 1.5),
        width=st.floats(1.01, 20.0),
        threshold=st.sampled_from([0.05, 0.5, 1.0, 2.0, 4.0, 4.5, 20.0, np.inf]),
    )
    def test_residual_grids(self, n_radial, n_angular, lo, width, threshold):
        span = (lo, lo * width)
        got = _factored_minima(*_search_terms(span, n_radial, n_angular), threshold)
        want = _dense_minima(_search_grid(span, n_radial, n_angular), threshold)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 12)),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from([0.5, 1.5, 2.5, 3.5, 7.5, np.inf]),
    )
    def test_tied_values(self, shape, seed, threshold):
        # small integer factors make ties between neighbours common, and
        # S = 0 gives every point of a (k, l) pair the value C
        n_radial, n_angular = shape
        # the bracket is drawn packed: the search only ever passes a
        # symmetric one, and _product_grid mirrors it for the oracle
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 3, (n_angular, n_angular)).astype(float)
        n_pairs = n_radial * (n_radial + 1) // 2
        b = rng.integers(0, 4, (n_pairs, n_angular)).astype(float)
        c = rng.integers(0, 4, (n_angular, n_angular)).astype(float)
        got = _factored_minima(s, b, c, threshold)
        np.testing.assert_array_equal(
            got, _dense_minima(_product_grid(s, b, c), threshold)
        )

    @pytest.mark.parametrize("s, b, c, threshold", [
        # a bracket rounded to just below 0 brings s * b + c under c, which
        # alone reaches the threshold
        (0.75, -1e-16, 1.0, 1.0),
        # b lies one ulp above (threshold - c) / s, yet s * b + c rounds
        # below the threshold
        (0.10104853533656588, 2.792514049422561, 0.01782054539906766, 0.3),
    ])
    def test_cut_keeps_rounding_edges(self, s, b, c, threshold):
        s, b, c = np.full((1, 1), s), np.full((1, 1), b), np.full((1, 1), c)
        assert _product_grid(s, b, c) < threshold
        assert _factored_minima(s, b, c, threshold).tolist() == [[0, 0, 0, 0]]

    @pytest.mark.parametrize("n_radial, n_angular", [(33, 48), (41, 60)])
    def test_search_minima_equal_dense(self, n_radial, n_angular):
        # the pre-refinement minima of the default and the 41x60 search,
        # against the dense grids (20 and 48 MB)
        span = (0.25, 4.0)
        got = _factored_minima(*_search_terms(span, n_radial, n_angular), 1.0)
        want = _dense_minima(_search_grid(span, n_radial, n_angular), 1.0)
        assert len(want) > 0
        np.testing.assert_array_equal(got, want)


#: the four refined H1 minimizers that the original dense search returned
_H1_HITS = [
    (1.0, 1.0, 1.5707963267948966, 0.0, 2.999519565323715e-32),
    (1.0, 1.0, 1.5707963267948966, 3.141592653589793, 1.4997597826618574e-31),
    (1.0, 1.0, 4.71238898038469, 0.0, 2.6995676087913433e-31),
    (1.0, 1.0, 4.71238898038469, 3.141592653589793, 5.099183261050316e-31),
]

_PINNED_SEARCHES = [
    ({}, _H1_HITS),
    ({"n_radial": 65, "n_angular": 96}, _H1_HITS),
    ({"n_radial": 41, "n_angular": 60}, _H1_HITS),
    ({"span": (1.5, 3.0), "n_radial": 24, "n_angular": 37}, []),
    (
        {"span": (0.3, 5.0), "n_radial": 24, "n_angular": 37},
        [
            (1.0, 1.0, 1.5707963267948966, 2.0630334463310652e-17,
             2.999519565323715e-32),
            (1.0, 1.0, 1.5707963267948966, 3.1415926535897936,
             1.4997597826618574e-31),
            (1.0, 1.0, 4.71238898038469, 0.0,
             2.6995676087913433e-31),
            (1.0, 1.0, 4.71238898038469, 3.141592653589793,
             5.099183261050316e-31),
        ],
    ),
]


def _distance_to_h1_zeros(hit):
    """Distance of a hit to the exact zero set of m1_residual: r1 = r2 = 1,
    theta2 in {pi/2, 3 pi/2}, beta in {0, pi}, angles modulo 2 pi."""
    def angular(a, targets):
        return min(min(d, 2 * math.pi - d)
                   for d in (abs(a - t) % (2 * math.pi) for t in targets))

    return math.hypot(
        hit.r1 - 1.0, hit.r2 - 1.0,
        angular(hit.theta2, (math.pi / 2, 3 * math.pi / 2)),
        angular(hit.beta, (0.0, math.pi)),
    )


class TestIsHenneberg:
    @pytest.mark.parametrize("theta2, beta", [
        (math.pi / 2, 0.0), (math.pi / 2, math.pi), (3 * math.pi / 2, 0.0),
        (3 * math.pi / 2, math.pi), (-3 * math.pi / 2, 2 * math.pi - 1e-17),
        (math.pi / 2 + 1e-9, -1e-9), (5 * math.pi / 2, 3 * math.pi),
    ])
    def test_on_the_zero_set(self, theta2, beta):
        assert SearchHit(1.0, 1.0, theta2, beta, 0.0).is_henneberg() is True

    @pytest.mark.parametrize("r1, r2, theta2, beta", [
        (1.0, 1.0, math.pi / 2, math.pi / 2),
        (1.0, 1.0, 3 * math.pi / 2, 3 * math.pi / 2),
        (1.0, 1.0, math.pi / 2, 1e-3),
        (1.0, 1.0, math.pi, 0.0),
        (1.0 + 1e-3, 1.0, math.pi / 2, 0.0),
        (1.0, 0.999, math.pi / 2, math.pi),
    ])
    def test_off_the_zero_set(self, r1, r2, theta2, beta):
        # beta = pi/2 at r1 = r2 = 1, theta2 = pi/2 has m1_residual 4, not 0
        assert m1_residual(r1, r2, theta2, beta) > 1e-7
        assert SearchHit(r1, r2, theta2, beta, 0.0).is_henneberg() is False


class TestSearchPinned:
    @pytest.mark.parametrize(
        "kwargs",
        [kwargs for kwargs, _ in _PINNED_SEARCHES]
        + [{"span": 3.0, "n_radial": 20, "n_angular": 40}],
    )
    def test_hits_on_exact_zero_set(self, kwargs):
        # the pins hold the last bits of Newton's iterates; the hits
        # themselves are the exact zeros to within rounding
        for hit in brute_search_m1(**kwargs):
            assert _distance_to_h1_zeros(hit) < 1e-15, hit
            assert hit.is_henneberg(), hit

    def test_no_finite_differences(self):
        # the search refines on _m1_jacobian; the difference quotients are
        # test oracles (oracles.fd_jacobian), not part of the package
        assert not hasattr(period, "_fd_jacobian")
        for kwargs in ({}, {"n_radial": 65, "n_angular": 96}):
            hits = brute_search_m1(**kwargs)
            assert [(*h.params, h.residual) for h in hits] == _H1_HITS

    @pytest.mark.parametrize("threads", [None, "1", "3"])
    @pytest.mark.parametrize("kwargs, want", _PINNED_SEARCHES)
    def test_hits_bit_identical(self, monkeypatch, threads, kwargs, want):
        if threads is None:
            monkeypatch.delenv("HF_THREADS", raising=False)
        else:
            monkeypatch.setenv("HF_THREADS", threads)
        hits = brute_search_m1(**kwargs)
        assert [(*h.params, h.residual) for h in hits] == want

    def test_memory_peak_65x96(self):
        # the factors S, B and C take about 1.8 MB at 65x96 (B packed on the
        # 2,145 radius pairs i <= j) and the points below threshold a few MB
        # more, about 5 MB in all; the dense 4-D grid alone would take 311 MB
        tracemalloc.start()
        try:
            brute_search_m1(n_radial=65, n_angular=96)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7e6, f"peak {peak / 1e6:.1f} MB"


class TestThreads:
    def test_reads_environment_each_call(self, monkeypatch):
        monkeypatch.setenv("HF_THREADS", "3")
        assert period._thread_count() == 3
        monkeypatch.setenv("HF_THREADS", "0")
        assert period._thread_count() == 1

    def test_non_integer_warns(self, monkeypatch, caplog):
        monkeypatch.setenv("HF_THREADS", "two")
        with caplog.at_level(logging.WARNING, logger="henneberg"):
            n = period._thread_count()
        assert n == min(8, os.cpu_count() or 1)
        [record] = caplog.records
        assert "HF_THREADS" in record.getMessage()

    def test_integer_is_silent(self, monkeypatch, caplog):
        monkeypatch.setenv("HF_THREADS", "2")
        with caplog.at_level(logging.WARNING, logger="henneberg"):
            period._thread_count()
        assert not caplog.records


class TestSearchDomain:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_radial": 0},
            {"n_radial": -3},
            {"n_angular": 0},
            {"span": 0.0},
            {"span": -2.0},
            {"span": 1.0},
            {"span": 0.5},
            {"span": math.inf},
            {"span": math.nan},
            {"span": (0.0, 2.0)},
            {"span": (2.0, 1.0)},
            {"span": (1.0, 1.0)},
            {"span": (-1.0, 2.0)},
        ],
    )
    def test_bad_input_raises(self, kwargs):
        with pytest.raises(DomainError):
            brute_search_m1(**kwargs)

    def test_single_point_grid(self):
        assert brute_search_m1(span=(0.5, 2.0), n_radial=1, n_angular=1) == []


class TestM2System:
    def test_h2_point_is_solution(self):
        p = h2_point()
        assert abs(horizontal_residual_m2(p)) < 1e-15
        assert abs(vertical_residual_m2(p)) < 1e-15

    def test_lemma_case_value(self):
        # R(r2) e^{i t2} = -R(r3) e^{i t3} with r3 = 1/r2 and equal angles:
        # the horizontal condition reduces to 1 + e^{2 i t2}(r2^2 + 1/r2^2)
        r2, t2 = 1.6, 0.9
        p = ModuliPoint(1.3, r2, 1 / r2, t2, t2, math.pi / 2)
        want = 1 + np.exp(2j * t2) * (r2**2 + r2**-2)
        assert abs(horizontal_residual_m2(p) - want) < 1e-12

    def test_vertical_example(self):
        p = ModuliPoint(1.0, 1.0, 2.0, math.pi / 3, 2 * math.pi / 3, math.pi / 2)
        assert abs(vertical_residual_m2(p) - 0.75) < 1e-14

    def test_family_point_residuals(self):
        p = family_theta2(0.83).moduli_point()
        assert abs(horizontal_residual_m2(p)) < 1e-9
        assert abs(vertical_residual_m2(p)) < 1e-9

    def test_forms_agree(self, rng):
        for _ in range(50):
            p = random_point(rng)
            a = horizontal_residual_m2(p)
            b = horizontal_residual_m2_alt(p)
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_symmetry_in_pairs(self, rng):
        for _ in range(50):
            p = random_point(rng)
            q = ModuliPoint(p.r1, p.r3, p.r2, p.theta3, p.theta2, p.beta)
            assert abs(
                horizontal_residual_m2(p) - horizontal_residual_m2(q)
            ) < 1e-12

    def test_lemma12_nonvanishing_on_solutions(self):
        # where the horizontal condition holds, the coefficient of R(r1)
        # cannot vanish
        points = [family_theta2(t).moduli_point() for t in (0.8, 0.83, 0.9, 1.0)]
        points.append(h2_point())
        points.append(H2_FAMILY_GAUGE)
        for p in points:
            coeff = radial_gap(p.r2) * np.exp(1j * p.theta2) + radial_gap(
                p.r3
            ) * np.exp(1j * p.theta3)
            if p.r2 == 1.0 and p.r3 == 1.0:
                # symmetric point: coefficient vanishes but so do all R terms;
                # the lemma constrains genuine family points
                continue
            assert abs(coeff) > 1e-8


class TestFamily:
    def test_h2_limit(self):
        fp = family_theta2(math.pi / 3)
        assert abs(fp.r1 - 1) < 1e-7 and abs(fp.r2 - 1) < 1e-7

    def test_reference_values(self):
        fp = family_theta2(0.83)
        assert abs(radial_gap(fp.r1) - (-2.615594)) < 1e-5
        assert abs(radial_gap(fp.r2) - (-0.219179)) < 1e-5

    def test_divergence_toward_quarter_pi(self):
        gaps = [radial_gap(family_theta2(t).r1) for t in (0.80, 0.79, 0.786)]
        assert gaps[0] > gaps[1] > gaps[2]  # more and more negative
        assert gaps[2] < -20
        assert abs(radial_gap(family_theta2(0.786).r2)) < 0.05

    def test_domain_errors(self):
        for bad in (0.70, math.pi / 4, 1.2, 3 * math.pi / 4, 2.0):
            with pytest.raises(DomainError):
                family_theta2(bad)

    def test_second_interval_and_sign(self):
        t = 0.83
        fp = family_theta2(t)
        mirrored = family_theta2(math.pi - t)
        assert abs(mirrored.r1 - 1 / fp.r1) < 1e-10
        assert abs(mirrored.r2 - fp.r2) < 1e-10
        opp = family_theta2(t, sign=-1)
        assert abs(opp.r1 - 1 / fp.r1) < 1e-10
        assert abs(opp.r2 - 1 / fp.r2) < 1e-10

    def test_fifty_values_residuals(self):
        thetas = np.linspace(math.pi / 4 + 1e-3, math.pi / 3, 50)
        for t in thetas:
            p = family_theta2(float(t)).moduli_point()
            assert abs(horizontal_residual_m2(p)) + abs(
                vertical_residual_m2(p)
            ) < 1e-9

    def test_congruent_pair_has_negated_roots(self):
        t = 0.83
        a = family_theta2(t).weierstrass()
        b = family_theta2(math.pi - t).weierstrass()
        roots_a = np.concatenate(
            [a.config.branch_values(), antipodes(a.config)]
        )
        roots_b = np.concatenate(
            [b.config.branch_values(), antipodes(b.config)]
        )
        remaining = list(-roots_a)
        for w in roots_b:
            k = int(np.argmin([abs(w - u) for u in remaining]))
            assert abs(w - remaining[k]) < 1e-10
            remaining.pop(k)

    def test_period_residuals_of_family_data(self):
        res = period_residuals(family_theta2(0.9).weierstrass())
        assert res.passes(1e-10)


class TestJacobian:
    def test_determinant_at_h2(self):
        det = np.linalg.det(period_jacobian_m2(h2_point()))
        assert abs(det - 2 * math.sqrt(3)) < 1e-9

    def test_determinant_family_gauge(self):
        det = np.linalg.det(period_jacobian_m2(H2_FAMILY_GAUGE))
        assert abs(det - 2 * math.sqrt(3)) < 1e-9

    def test_analytic_vs_finite_difference(self, rng):
        worst = 0.0
        for _ in range(100):
            p = random_point(rng)
            diff = np.abs(
                period_jacobian_m2(p) - period_jacobian_m2_fd(p)
            ).max()
            worst = max(worst, diff)
        assert worst < 1e-5

    def test_family_point_nonsingular(self):
        det = np.linalg.det(period_jacobian_m2(family_theta2(0.83).moduli_point()))
        assert abs(det) > 1e-3


class TestContinuation:
    def test_fixed_point(self):
        q = continue_from(h2_point(), 1.0, 1.0)
        assert abs(q.r3 - 1.0) < 1e-12
        assert abs(q.theta2 - math.pi / 3) < 1e-12
        assert abs(q.theta3 - 2 * math.pi / 3) < 1e-12

    def test_matches_family(self):
        point = H2_FAMILY_GAUGE
        for t in np.linspace(math.pi / 3, 0.9, 25)[1:]:
            fp = family_theta2(float(t))
            point = continue_from(point, fp.r1, fp.r2)
            want = fp.moduli_point()
            assert abs(point.r3 - want.r3) < 1e-8
            assert abs(point.theta2 - want.theta2) < 1e-8
            assert abs(point.theta3 - want.theta3) < 1e-8
            # the angle constraint of the family branch
            assert abs(math.remainder(point.theta2 + point.theta3, math.pi)) < 1e-8

    def test_two_parameter_deformation(self):
        q = continue_from(h2_point(), 1.05, 1.0)
        assert abs(horizontal_residual_m2(q)) < 1e-12
        assert abs(vertical_residual_m2(q)) < 1e-12
        assert abs(np.linalg.det(period_jacobian_m2(q))) > 1e-6
        # beta satisfies the phase condition
        assert abs(
            np.exp(2j * (q.beta + q.theta2 + q.theta3)) + 1
        ) < 1e-12

    def test_divergent_target_raises(self):
        with pytest.raises((ConvergenceError, DomainError)):
            continue_from(h2_point(), -1.0, 1.0)

    @pytest.mark.parametrize("r1,r2", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                       (1.0, -math.inf), (0.0, 1.0)])
    def test_target_must_be_finite_and_positive(self, r1, r2):
        with pytest.raises(DomainError):
            continue_from(h2_point(), r1, r2)

    @pytest.mark.parametrize("index", range(6))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_moduli_point_coordinates_must_be_finite(self, index, bad):
        coords = [1.0, 1.0, 1.0, math.pi / 3, 2 * math.pi / 3, math.pi / 2]
        coords[index] = bad
        with pytest.raises(DomainError):
            ModuliPoint(*coords)


def _newton(vector, jacobian, x0, max_iter=50, admissible=lambda x: True):
    return _damped_newton(
        vector, jacobian, x0, lambda v: float(np.abs(v).max()), 1e-12, max_iter,
        admissible,
    )


def _square_minus(c):
    return lambda x: np.array([x[0] * x[0] - c]), lambda x: np.array([[2 * x[0]]])


class TestDampedNewton:
    def test_converged(self):
        x, norm, stop = _newton(*_square_minus(2.0), [3.0])
        assert stop == "converged"
        assert norm < 1e-12 and abs(x[0] - math.sqrt(2.0)) < 1e-12

    def test_max_iter(self):
        x, norm, stop = _newton(*_square_minus(2.0), [3.0], max_iter=2)
        assert stop == "max_iter" and norm >= 1e-12

    def test_stalled_at_a_non_zero_minimum(self):
        # x^2 + 1 has no root; Newton reaches x = 0, where J = 0 and no
        # step lowers the norm
        x, norm, stop = _newton(*_square_minus(-1.0), [1.0])
        assert stop == "stalled"
        assert x[0] == 0.0 and norm == 1.0

    def test_stalled_when_nothing_is_admissible(self):
        x, _, stop = _newton(*_square_minus(2.0), [3.0], admissible=lambda x: False)
        assert stop == "stalled" and x[0] == 3.0

    def test_domain(self, monkeypatch):
        # a residual or a Jacobian holding an inf or a NaN ends the solve at
        # the start point, before a step is solved for
        def lstsq(*args, **kwargs):
            raise AssertionError("lstsq called on a non-finite system")

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        vector, jacobian = _square_minus(2.0)
        for bad in (math.inf, -math.inf, math.nan):
            for vec, jac in [(lambda x: np.array([bad]), jacobian),
                             (vector, lambda x: np.array([[bad]]))]:
                x, _, stop = _newton(vec, jac, [3.0])
                assert stop == "domain" and x[0] == 3.0, (bad, stop)

    def test_overflow_ends_in_domain_without_warning(self):
        # the complexity-2 system at (1e300, 1e-300) overflows at the start
        # triple; under the suite's error::RuntimeWarning a warning would raise
        r1, r2 = 1e300, 1e-300
        x, norm, stop = _damped_newton(
            lambda x: period._system_vector(r1, r2, x),
            lambda x: period_jacobian_m2(ModuliPoint(r1, r2, *x, math.pi / 2)),
            h2_point().triple, period._system_norm, 1e-12, 50, lambda x: x[0] > 0,
        )
        assert stop == "domain" and tuple(x) == h2_point().triple


class TestSymmetricExample:
    def test_h1(self):
        d = symmetric_example(1)
        assert d.c == 1.0
        assert np.abs(
            d.config.branch_values() - np.array([1.0, 1.0j])
        ).max() < 1e-15

    def test_h2(self):
        d = symmetric_example(2)
        assert d.c == 1.0j

    def test_m5_phase(self):
        assert symmetric_example(5).c == 1.0

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            symmetric_example(0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_m2_reduction_matches_generic_residuals(seed):
    """|conj(cA_2) + cA_4| = 2|F| and |Im(cA_3)| = 2|G| under the phase
    condition, for any complexity-2 point with a_1 real positive."""
    rng = np.random.default_rng(seed)
    r1, r2, r3 = np.exp(rng.uniform(-0.7, 0.7, 3))
    t2, t3 = rng.uniform(0, 2 * np.pi, 2)
    beta = math.pi / 2 - t2 - t3
    p = ModuliPoint(r1, r2, r3, t2, t3, beta)
    res = period_residuals(p.weierstrass())
    f_val = horizontal_residual_m2(p)
    g_val = vertical_residual_m2(p)
    scale = max(1.0, abs(f_val), abs(g_val))
    assert abs(abs(res.horizontal) - 2 * abs(f_val)) < 1e-11 * scale
    assert abs(abs(res.vertical) - 2 * abs(g_val)) < 1e-11 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_m1_reduction_matches_generic_residuals(seed):
    """The complexity-1 residual components are literally the generic
    residuals: conj(cA_1)+cA_3, Im(cA_2), and the one-sided defect."""
    rng = np.random.default_rng(seed)
    r1, r2 = np.exp(rng.uniform(-0.8, 0.8, 2))
    t2, beta = rng.uniform(0, 2 * np.pi, 2)
    config = BranchConfiguration.from_polar([(r1, 0.0), (r2, t2)])
    res = period_residuals(WeierstrassData(np.exp(1j * beta), config))
    g1, g2 = radial_gap(r1), radial_gap(r2)
    horizontal = -2j * (g1 * np.exp(-1j * t2) + g2) * np.sin(beta + t2)
    vertical = (-(2 * np.cos(t2) - g1 * g2) * np.exp(1j * (beta + t2))).imag
    onesided = abs(np.exp(2j * (beta + t2)) + 1)
    assert abs(res.horizontal - horizontal) < 1e-12
    assert abs(res.vertical - vertical) < 1e-12
    assert abs(res.onesided - onesided) < 1e-12
    # and the scalar search objective is their squared norm
    want = abs(horizontal) ** 2 + vertical**2 + onesided**2
    assert abs(m1_residual(r1, r2, t2, beta) - want) < 1e-10 * max(1.0, want)


class TestContinuationContract:
    def test_returned_points_always_meet_tolerance(self):
        # random-walk targets near the symmetric point: every returned point
        # satisfies the full residual bound (complex modulus, not component)
        point = h2_point()
        rng = np.random.default_rng(7)
        for _ in range(40):
            r1 = float(np.clip(point.r1 + rng.normal(0, 0.02), 0.7, 1.4))
            r2 = float(np.clip(point.r2 + rng.normal(0, 0.02), 0.7, 1.4))
            point = continue_from(point, r1, r2)
            assert abs(horizontal_residual_m2(point)) < 1e-12
            assert abs(vertical_residual_m2(point)) < 1e-12

    def test_fold_raises_with_residual(self):
        # walking far from the symmetric point eventually crosses a fold of
        # the solution branch (the Jacobian determinant vanishes); the solver
        # must refuse rather than return an unconverged point
        point = h2_point()
        rng = np.random.default_rng(0)
        with pytest.raises(ConvergenceError) as err:
            for _ in range(25):
                r1 = float(np.clip(point.r1 + rng.normal(0, 0.03), 0.6, 1.6))
                r2 = float(np.clip(point.r2 + rng.normal(0, 0.03), 0.6, 1.6))
                point = continue_from(point, r1, r2)
        assert err.value.residual is not None
        assert any(stop in str(err.value) for stop in ("stalled", "max_iter"))

    @pytest.mark.parametrize("option", [{"tol": 0.0}, {"max_iter": 0}],
                             ids=["tol", "max_iter"])
    def test_solver_settings_are_not_options(self, option):
        # the Newton target and step count are CONTINUE_TOL and CONTINUE_STEPS
        with pytest.raises(TypeError):
            continue_from(h2_point(), 1.05, 1.0, **option)

    @pytest.mark.parametrize("r1, r2", [(1e300, 1e-300), (1e300, 0.5), (1e150, 1e-150)])
    def test_overflowing_target_raises(self, r1, r2):
        # the system overflows near the start triple: the solve ends, without
        # a warning, in a ConvergenceError that names its stop
        with pytest.raises(ConvergenceError, match="Newton (stalled|domain|max_iter)") as err:
            continue_from(h2_point(), r1, r2)
        assert err.value.residual > 0
