import contextlib
import decimal
import hashlib
import io
import json
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from henneberg import SamplingSpec, equator_curve, eval_hm_even, read_obj, read_ply
from henneberg import cli
from henneberg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_h1_default_counts(self, capsys, tmp_path):
        out = tmp_path / "h1.obj"
        code, stdout, _ = run(capsys, "generate", "h1", "--out", str(out))
        assert code == 0
        info = json.loads(stdout)
        assert info["vertices"] == 129 * 256 == 33024
        mesh = read_obj(out)
        assert len(mesh.vertices) == 33024

    def test_family_theta2_valid(self, capsys, tmp_path):
        out = tmp_path / "f.obj"
        code, stdout, _ = run(
            capsys, "generate", "family", "--theta2", "0.83",
            "--out", str(out), "--nr", "9", "--ntheta", "16",
        )
        assert code == 0

    def test_family_theta2_domain_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "family", "--theta2", "0.70",
            "--out", str(tmp_path / "f.obj"),
        )
        assert code == 2
        assert "theta2" in err

    def test_custom_bad_data_refused(self, capsys, tmp_path):
        data = tmp_path / "bad.json"
        data.write_text(json.dumps(
            {"c": [1, 0], "m": 1, "a": [[2, 0], [1, math.pi / 2]]}
        ))
        code, stdout, _ = run(
            capsys, "generate", "custom", "--data", str(data),
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 1
        info = json.loads(stdout)
        assert info["refused"]
        assert abs(info["horizontal"][0] - (-3.0)) < 1e-12

    def test_custom_good_data(self, capsys, tmp_path):
        data = tmp_path / "h1.json"
        data.write_text(json.dumps(
            {"c": [1, 0], "m": 1, "a": [[1, 0], [1, math.pi / 2]]}
        ))
        out = tmp_path / "h1c.ply"
        code, stdout, _ = run(
            capsys, "generate", "custom", "--data", str(data),
            "--out", str(out), "--format", "ply", "--nr", "5", "--ntheta", "8",
        )
        assert code == 0
        assert out.exists()

    def test_quotient_halves(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys, "generate", "h1", "--out", str(tmp_path / "q.obj"),
            "--quotient", "--nr", "9", "--ntheta", "16",
        )
        assert json.loads(stdout)["vertices"] == 9 * 8

    @pytest.mark.parametrize("extra", [[], ["--r-min", "0.2"]])
    def test_one_column_quotient_exits_2(self, capsys, tmp_path, extra):
        out = tmp_path / "q.obj"
        code, stdout, err = run(
            capsys, "generate", "h1", "--quotient", "--ntheta", "3", "--nr", "5",
            *extra, "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n_theta" in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt, name", [
        ("obj", "m.ply"), ("ply", "m.obj"), ("obj", "m.PLY"), ("ply", "m.Obj"),
    ])
    def test_out_extension_disagreeing_with_format_exits_2(self, capsys, tmp_path, fmt, name):
        out = tmp_path / name
        code, stdout, err = run(
            capsys, "generate", "h1", "--nr", "5", "--ntheta", "8",
            "--format", fmt, "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--format" in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt, name", [("obj", "m.OBJ"), ("ply", "m.Ply"), ("ply", "m.mesh")])
    def test_out_extension_agreeing_or_other(self, capsys, tmp_path, fmt, name):
        # an extension other than .obj and .ply leaves the choice to --format
        out = tmp_path / name
        code, stdout, _ = run(
            capsys, "generate", "h1", "--nr", "5", "--ntheta", "8",
            "--format", fmt, "--out", str(out),
        )
        assert code == 0 and json.loads(stdout)["format"] == fmt
        assert len((read_obj if fmt == "obj" else read_ply)(out).vertices) == 5 * 8

    @pytest.mark.parametrize("argv", [
        ["h1", "--r-max", "inf"],
        ["hm-even", "--m", "2", "--r-max", "1e100"],
        ["h1", "--r-min", "1e-200"],
        ["family", "--theta2", "1.0", "--r-max", "1e80"],
        ["h1", "--quotient", "--r-min", "1e-200", "--r-max", "1e200"],
    ])
    def test_overflowing_radii_exit_2(self, capsys, tmp_path, argv):
        # one error line, with no numpy warning before it
        out = tmp_path / "s.obj"
        code, stdout, err = run(capsys, "generate", *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [
        ["--r-min", "0.2"], ["--r-max", "5"], ["--r-min", "1e10", "--r-max", "1e300"],
    ])
    def test_quotient_without_inversion_symmetric_radii_exits_2(self, capsys, tmp_path, bounds):
        # the seam glues r to 1/r; an unglued half-sheet is not written
        out = tmp_path / "q.obj"
        code, stdout, err = run(capsys, "generate", "h1", "--quotient", "--nr", "9",
                                "--ntheta", "16", *bounds, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "r_min * r_max = 1" in err
        assert not out.exists()

    def test_quotient_with_inversion_symmetric_radii(self, capsys, tmp_path):
        out = tmp_path / "q.obj"
        code, stdout, _ = run(capsys, "generate", "h1", "--quotient", "--nr", "9",
                              "--ntheta", "16", "--r-min", "0.2", "--r-max", "5",
                              "--out", str(out))
        assert code == 0
        info = json.loads(stdout)
        assert info["sampling"] == {"n_r": 9, "n_theta": 16, "quotient": True,
                                    "r_max": 5.0, "r_min": 0.2, "wrap": True}
        # 8 columns and the glued seam: 8 quads in each of the 8 row gaps
        assert (info["vertices"], info["faces"]) == (9 * 8, 2 * 8 * 8)
        assert len(read_obj(out).faces) == 2 * 8 * 8

    @pytest.mark.parametrize("argv, want", [
        (["h1", "--config", "cfg.json"], "--config"),
        (["h1", "--no-wrap"], "--no-wrap"),
        (["custom"], "--data"),
    ], ids=["config", "no-wrap", "custom-without-data"])
    def test_deleted_inputs_exit_2(self, capsys, tmp_path, monkeypatch, argv, want):
        # the data file and the sampling flags carry what a config file did
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"sampling": {"n_r": 5, "n_theta": 8}}))
        code, stdout, err = run(
            capsys, "generate", *argv, "--nr", "5", "--ntheta", "8", "--out", "s.obj",
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert want in err
        assert not (tmp_path / "s.obj").exists()

    def test_parse_error_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"c": [1, 0], "m": 1,\n  "a": oops}')
        code, _, err = run(
            capsys, "generate", "custom", "--data", str(bad),
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2
        assert "line 2" in err

    def test_missing_field_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "missing.json"
        bad.write_text('{"c": [1, 0], "m": 1}')
        code, _, err = run(
            capsys, "generate", "custom", "--data", str(bad),
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2
        assert "'a'" in err

    @pytest.mark.parametrize("argv", [
        ["h1"], ["hm-odd", "--m", "3"], ["hm-even", "--m", "2"], ["conjugate", "--m", "3"],
        ["associated", "--m", "3", "--phi", "0.7"], ["limit-m2"],
        ["family", "--theta2", "1.0"], ["custom", "--data", "h1.json"],
    ], ids=lambda argv: argv[0])
    def test_every_selector_integrates_forms(self, capsys, tmp_path, monkeypatch, argv):
        # one evaluator: each selector integrates Laurent forms, and none
        # reaches the closed form the bjorling check keeps
        from henneberg.weierstrass import IntegratedForms

        monkeypatch.chdir(tmp_path)
        (tmp_path / "h1.json").write_text(json.dumps(
            {"c": [1, 0], "m": 1, "a": [[1, 0], [1, math.pi / 2]]}
        ))
        real, calls = IntegratedForms.evaluate, []

        def counting(self, z):
            calls.append(np.shape(z))
            return real(self, z)

        def poisoned(*args):
            raise AssertionError("closed form evaluated")

        monkeypatch.setattr(IntegratedForms, "evaluate", counting)
        monkeypatch.setattr(cli, "eval_hm_even", poisoned)
        code, _, _ = run(capsys, "generate", *argv, "--nr", "5", "--ntheta", "8",
                         "--out", "s.obj")
        assert code == 0 and (5, 8) in calls  # the mesh grid itself

    @pytest.mark.parametrize("route", ["--data"])  # keeps the case ids
    @pytest.mark.parametrize("fields, want", [
        ({"c": [1, 0], "m": 2, "a": [[1, 0], [1, math.pi / 2]]}, "m+1 = 3"),
        ({"c": ["1", 0], "m": 1, "a": [[1, 0], [1, math.pi / 2]]}, "'c'"),
        ({"c": [1, None], "m": 1, "a": [[1, 0], [1, math.pi / 2]]}, "'c'"),
        ({"c": [1, 0], "m": 1, "a": [[1, 0], [1, "pi/2"]]}, "'a'"),
        ({"c": [1, 0], "m": 1, "a": [[1, 0], [[1], 0.5]]}, "'a'"),
        ([1, 0], "JSON object"),
        ({"c": [0, 1], "m": True, "a": [[1, 0], [1, 1.5708]]}, "'m'"),
    ])
    def test_bad_custom_data_exits_2(self, capsys, tmp_path, route, fields, want):
        data = tmp_path / "data.json"
        data.write_text(json.dumps(fields))
        code, stdout, err = run(
            capsys, "generate", "custom", route, str(data),
            "--out", str(tmp_path / "x.obj"), "--nr", "5", "--ntheta", "8",
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert want in err
        assert not (tmp_path / "x.obj").exists()


class TestVerify:
    def test_hm2_report(self, capsys):
        code, stdout, _ = run(capsys, "verify", "hm", "--m", "2")
        assert code == 0
        rep = json.loads(stdout)
        assert rep["schema"] == 1
        assert rep["period"]["pass"]
        assert rep["flux"]["residues"] == [0.0, 0.0, 0.0]
        assert rep["isometries"]["count"] == 12
        images = sorted(
            tuple(round(x, 9) for x in b["image"]) for b in rep["branch_points"]
        )
        c = 3 * math.sqrt(3) / 8
        want = sorted(
            [(0.0, -0.75, 0.0), (-round(c, 9), 0.375, 0.0), (round(c, 9), 0.375, -0.0)]
        )
        for got, expected in zip(images, want):
            assert np.abs(np.array(got) - np.array(expected)).max() < 1e-9

    def test_h1_isometry_count(self, capsys):
        code, stdout, _ = run(capsys, "verify", "hm", "--m", "1")
        rep = json.loads(stdout)
        assert code == 0
        assert rep["isometries"]["count"] == 8

    def test_samples_default_is_silent(self, capsys, caplog):
        with caplog.at_level(logging.WARNING, logger="henneberg"):
            code, _, _ = run(capsys, "verify", "h1")
        assert code == 0 and not caplog.records

    def test_report_certifies_the_closed_form(self, capsys):
        # isometries_for certifies the symmetric example whatever the data
        from henneberg import family_theta2, symmetric_example, verification_report

        family = family_theta2(0.83).weierstrass()
        got = verification_report(family, isometries_for=2)["isometries"]
        want = verification_report(symmetric_example(2), isometries_for=2)["isometries"]
        assert got == want and got["count"] == 12 and got["all_pass"]

    def test_perturbed_h2_fails(self, capsys, tmp_path):
        data = tmp_path / "h2p.json"
        data.write_text(json.dumps({
            "c": [0, 1],
            "m": 2,
            "a": [[1, 0], [1, math.pi / 3], [1.01, 2 * math.pi / 3]],
        }))
        code, stdout, _ = run(capsys, "verify", "custom", "--data", str(data))
        assert code == 1
        rep = json.loads(stdout)
        assert not rep["pass"]
        assert abs(rep["m2_system"]["G"]) > 1e-3
        assert abs(rep["period"]["vertical"]) > 1e-3

    @pytest.mark.parametrize("pairs", [
        [[1e9, 0.3], [1e-9, 1.1]],
        [[1e8, 0.3], [1e-8, 1.1], [2.0, 2.0]],
    ])
    def test_far_moduli_exit_2(self, capsys, tmp_path, pairs):
        # their branch polynomial would lose its end terms to expand_product's
        # real/imaginary cut at DROP_TOL of its largest coefficient
        data = tmp_path / "far.json"
        data.write_text(json.dumps({"c": [0, 1], "m": len(pairs) - 1, "a": pairs}))
        code, stdout, err = run(capsys, "verify", "custom", "--data", str(data))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: branch moduli (") and err.count("\n") == 1

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify", "hm", "--m", "2")
        _, out2, _ = run(capsys, "verify", "hm", "--m", "2")
        assert out1 == out2

    def test_isometries_enumerated_once(self, capsys, monkeypatch):
        from henneberg import reports

        calls = []
        enumerate_isometries = reports.enumerate_isometries
        monkeypatch.setattr(reports, "enumerate_isometries",
                            lambda m: calls.append(m) or enumerate_isometries(m))
        code, _, _ = run(capsys, "verify", "hm", "--m", "3")
        assert code == 0 and calls == [3]

    def test_symmetric_algebra_built_once(self, capsys, monkeypatch):
        # the report and the isometry certificates share one
        # symmetric_example(3); each once built its own branch product
        from henneberg import weierstrass

        calls = []
        expand_product = weierstrass.expand_product
        monkeypatch.setattr(weierstrass, "expand_product",
                            lambda config: calls.append(config) or expand_product(config))
        code, _, _ = run(capsys, "verify", "hm", "--m", "3")
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["h1"], ["hm", "--m", "8"], ["family", "--theta2", "1.0"],
    ])
    def test_forms_derived_once_per_data(self, capsys, monkeypatch, argv):
        from henneberg import weierstrass

        calls = {"phi_forms": [], "integrate_forms": []}

        def counted(name):
            original = getattr(weierstrass, name)

            def wrapper(data):
                calls[name].append(data)
                return original(data)
            return wrapper

        for name in calls:
            monkeypatch.setattr(weierstrass, name, counted(name))
        code, _, _ = run(capsys, "verify", *argv)
        assert code == 0
        for name, seen in calls.items():
            # each WeierstrassData instance derives its forms at most once
            assert seen and all(sum(d is e for e in seen) == 1 for d in seen), name


class TestSearch:
    def test_default_exit_zero(self, capsys):
        code, stdout, _ = run(capsys, "search-m1")
        assert code == 0
        rep = json.loads(stdout)
        assert rep["all_henneberg"]
        assert len(rep["minimizers"]) > 0

    def test_restricted_grid(self, capsys):
        # a box without a minimizer certifies nothing: exit 1
        code, stdout, err = run(
            capsys, "search-m1", "--r-lo", "1.5", "--r-hi", "3.0"
        )
        assert code == 1 and err == ""
        rep = json.loads(stdout)
        assert rep["minimizers"] == [] and rep["all_henneberg"] is False

    def test_overflowing_box_fails_quietly(self, capsys):
        # the brackets of r = 1e-300 overflow to +inf and drop out unwarned
        code, stdout, err = run(capsys, "search-m1", "--r-lo", "1e-300", "--r-hi", "2",
                                "--n-radial", "4", "--n-angular", "1")
        assert code == 1 and err == ""
        assert json.loads(stdout)["minimizers"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n-radial", "0"],
            ["--n-radial", "-3"],
            ["--n-angular", "0"],
            ["--span", "inf"],
            ["--span", "0"],
            ["--span", "-2"],
            ["--span", "1"],
            ["--span", "nan"],
            ["--r-lo", "0", "--r-hi", "2"],
            ["--r-lo", "3", "--r-hi", "2"],
            ["--r-hi", "2"],
            ["--r-lo", "0.5"],
        ],
    )
    def test_bad_input_exits_2(self, capsys, argv):
        code, stdout, err = run(capsys, "search-m1", *argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, bounds",
        [
            ([], (0.25, 4.0)),
            (["--span", "2"], (0.5, 2.0)),
            (["--r-lo", "1.5", "--r-hi", "3.0"], (1.5, 3.0)),
        ],
    )
    def test_grid_reports_searched_bounds(self, capsys, argv, bounds):
        code, stdout, _ = run(
            capsys, "search-m1", "--n-radial", "5", "--n-angular", "8", *argv
        )
        # the box (1.5, 3) holds no minimizer, so it certifies nothing
        assert code == (1 if "--r-lo" in argv else 0)
        grid = json.loads(stdout)["grid"]
        assert (grid["r_lo"], grid["r_hi"]) == bounds
        assert set(grid) == {"span", "n_radial", "n_angular", "r_lo", "r_hi"}
        # the given or default span; none when the bounds were searched instead
        assert grid["span"] == (None if "--r-lo" in argv else 2.0 if "--span" in argv else 4.0)

    @pytest.mark.parametrize("argv", [
        ["--span", "2", "--r-lo", "1.5", "--r-hi", "3"],
        ["--r-lo", "1.5", "--r-hi", "3", "--span", "4"],
        ["--span", "4", "--r-hi", "3"],
    ])
    def test_span_and_bounds_are_alternatives(self, capsys, argv):
        # --span is refused next to --r-lo/--r-hi, even at its default value
        code, stdout, err = run(capsys, "search-m1", "--n-radial", "5", "--n-angular", "8", *argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("message", [
        "Unable to allocate 29.1 TiB for an array with shape "
        "(2000000, 2000000) and data type float64",
        "",
    ])
    def test_out_of_memory_exits_2(self, capsys, tmp_path, monkeypatch, message):
        # a grid too large to allocate is a bad input: one line, no file
        def search(**kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "brute_search_m1", search)
        out = tmp_path / "big.json"
        code, stdout, err = run(capsys, "search-m1", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_angles_wrapped_below_two_pi(self, capsys):
        # on this grid a refined beta of about -1e-17 used to be reported
        # as 2 pi
        code, stdout, _ = run(
            capsys, "search-m1", "--span", "3.0", "--n-radial", "20",
            "--n-angular", "40",
        )
        assert code == 0
        hits = json.loads(stdout)["minimizers"]
        assert len(hits) == 4
        for h in hits:
            assert 0.0 <= h["theta2"] < 2 * math.pi
            assert 0.0 <= h["beta"] < 2 * math.pi


@pytest.mark.parametrize("argv", [
    ["generate", "h1", "--nr", "5", "--ntheta", "8"],
    ["verify", "h1"],
    ["search-m1", "--n-radial", "5", "--n-angular", "6"],
    ["continue", "--r1", "1.0", "--r2", "1.0"],
    ["bjorling", "--cusps", "3", "--n-u", "8", "--n-v", "3"],
])
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "o.obj"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err


class TestParserReuse:
    def test_same_output_after_usage_error_and_help(self, capsys):
        # main builds its parser once per process; a usage error or a help
        # request must leave nothing behind that changes the next call
        argv = ["continue", "--r1", "1.05", "--r2", "1.0"]
        before = run(capsys, *argv)
        assert before[0] == 0
        error = run(capsys, "continue", "--r1", "x")
        assert error[0] == 2 and "--r1" in error[2]
        helps = [run(capsys, "--help"), run(capsys, "search-m1", "--help")]
        assert [h[0] for h in helps] == [0, 0]
        assert run(capsys, *argv) == before
        assert run(capsys, "continue", "--r1", "x") == error
        assert [run(capsys, "--help"), run(capsys, "search-m1", "--help")] == helps
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli._parser()

    @pytest.mark.parametrize("argv", [
        ["verify", "h1", "--samples", "4"],
        ["verify", "h1", "--seed", "1"],
        ["bjorling", "--cusps", "3", "--quad-order", "8"],
        ["bjorling", "--cusps", "x"],
        ["continue", "--r1", "x", "--r2", "1"],
        ["verify", "hm", "--m", "2", "--samples", "0"],
        ["verify", "hm", "--m", "2", "--samples=-5"],
        ["verify", "h1", "--samples", "1"],
        ["verify", "hm", "--m", "3", "--samples", "3"],
        ["search-m1", "--refine-steps", "-1"],
        ["search-m1", "--refine-steps", "50"],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_error_is_one_line(self, capsys, argv):
        # removed flags and unparsable values alike: no usage block
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class _Int(int):
    pass


class _Str(str):
    pass


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers().map(_Int)
                | st.floats() | st.floats().map(np.float64) | st.just(-0.0)
                | st.text() | st.text().map(_Str) | st.just({}) | st.just([]))

_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


class TestJsonText:
    """cli._json_text against json.dumps(indent=2, sort_keys=True)."""

    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        [math.nan, math.inf, -math.inf, -0.0, 1e-17, 1e300],
        [np.float64(math.nan), np.float64(-math.inf), 0.1],
        {"z": [1, "é\n", None, True, 2.5], "a": ({}, [], ())},
    ], ids=["floats", "np-float64", "mixed"])
    def test_spelled_as_json_spells_them(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        {1, 2},
        [np.int64(3)],
        {"a": {1: "x"}},
        {"a": 1, 2: "b"},
    ], ids=["set", "np-int64", "int-key", "mixed-keys"])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    @pytest.mark.parametrize("argv", [
        ["verify", "hm", "--m", "8"],
        ["search-m1"],
        ["continue", "--r1", "1.05", "--r2", "1.0"],
    ], ids=lambda argv: " ".join(argv))
    def test_out_file_is_stdout(self, capsys, tmp_path, argv):
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--out", str(out)) == (code, "", "")
        assert out.read_text() == stdout
        assert stdout == json.dumps(json.loads(stdout), indent=2, sort_keys=True) + "\n"

    def test_bjorling_stdout_is_json_layout(self, capsys, tmp_path):
        # bjorling's --out is the mesh; its report goes to stdout either way
        for extra in ([], ["--out", str(tmp_path / "b.ply")]):
            code, stdout, _ = run(capsys, "bjorling", "--cusps", "7", *extra)
            assert code == 0
            assert stdout == json.dumps(json.loads(stdout), indent=2, sort_keys=True) + "\n"

    def test_no_command_calls_json_dumps(self, capsys, tmp_path, monkeypatch):
        data = tmp_path / "far.json"
        data.write_text(json.dumps({"c": [0, 1], "m": 1, "a": [[1, 0], [2, 3.0]]}))

        def dumps(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", dumps)
        for argv, want in [
            (["generate", "h1", "--nr", "5", "--ntheta", "8",
              "--out", str(tmp_path / "h1.obj")], 0),
            (["generate", "custom", "--data", str(data),
              "--out", str(tmp_path / "c.obj")], 1),
            (["verify", "hm", "--m", "8"], 0),
            (["verify", "family", "--theta2", "1.0"], 0),
            (["search-m1"], 0),
            (["continue", "--r1", "1.05", "--r2", "1.0"], 0),
            (["bjorling", "--cusps", "7", "--out", str(tmp_path / "b.obj")], 0),
        ]:
            code, stdout, err = run(capsys, *argv)
            assert (code, err) == (want, "") and json.loads(stdout)


class TestContinue:
    def test_fixed_point(self, capsys):
        code, stdout, _ = run(capsys, "continue", "--r1", "1.0", "--r2", "1.0")
        assert code == 0
        rep = json.loads(stdout)
        assert abs(rep["r3"] - 1.0) < 1e-10
        assert max(abs(rep["F"][0]), abs(rep["F"][1]), abs(rep["G"])) < 1e-12

    def test_deformed(self, capsys):
        code, stdout, _ = run(capsys, "continue", "--r1", "1.05", "--r2", "1.0")
        rep = json.loads(stdout)
        assert code == 0
        assert abs(rep["det_jacobian"]) > 1e-6


#: `bjorling` at the default 64x9 grid and strip: closed_form_m, sup_error
#: and the SHA-256 of the --out OBJ and PLY files (numpy 2.4, x86-64
#: Linux), recorded on the closed band (64 columns over theta in [0, 2 pi)
#: and 2 * 64 * 8 faces, the seam quads included) once the curve's phases
#: became exact at quarter turns and LaurentPoly stopped dropping terms
BJORLING_PINS = {
    "3": (2.0, 3.3306690738754696e-16,
          "7661d9d6d769a8e734a63243073cc91b3cffdae1651ee3c95cb44233f3e995f8",
          "299e4d8b685b8380c248cf5e21455b4076bade1eab03a66bc31a161d18ddea74"),
    "4": (1.0, 6.661338147750939e-16,
          "cc56c338425b7c429e21449f0f97aed7ca919516e3800cbca3bdda9292741318",
          "1fc82b555951d0cd07743509e1bf361c5f174fa8dc3c748f5941ab11c3fd74d7"),
    "5": (4.0, 5.898059818321144e-16,
          "a245414be82f61f54e8d2c98d5e6f01ed1b950f29f1d4f0c13767c06e9d3aaf1",
          "82bfea8070295b482b1fb11d79f0166936dd223e85181c221a4f64fbc95ace69"),
    "6": (0.5, 1.3322676295501878e-15,
          "6a2098152dbf6f1e1ff3f0ced649821cf820d70323794aec87568833024ecf9d",
          "c28841ed83d0a00372881e74305b83e5bbd670aab509e8ad66887b426eb25e1b"),
    "7": (6.0, 6.38378239159465e-16,
          "c1082052c5c6ab2e33de456c33e20c91743f5ec606821942ea4de4a714a0ff2e",
          "9acdc062c27f6c597d2831a92d7a936f1eee9a1779c9a1948ecca6f45331d31b"),
    "8": (3.0, 4.996003610813204e-16,
          "5e3575cb624ee197591651ba55269be77a7aac75ffc2051fd47b847ef60ab8b9",
          "fbc595b0e53a77850366d6dda394201df7e1adc989613714d8d8dce2e8e712e3"),
    "9": (8.0, 4.718447854656915e-16,
          "5b00d9dc81cde710eb32e6ff7ab9b62925a841f259773c6d4bcb38274707d260",
          "82f29ba0bf9adfe16d0606e616ebc4c4afea19f20b28e36de73ff07f3fa5e79c"),
    "10": (0.25, 2.220446049250313e-15,
          "3f09c12bc84442eba00b34056af8c82e7847eb2546c9d155037d08df2a7e449c",
          "2f68b23fbb3f517d24dfdd42cf279ae2400e9aa989055ab1bb74c00db8bf0afe"),
    "11": (10.0, 1.096345236817342e-15,
          "47fd42100383e447eac536a382f6a1e34e3516d4b1ef205331cc03dc96a99a67",
          "3d528cde841485ce0f58d462e879333e3747aaa50baa5aaacef9972572cfd93e"),
    "12": (5.0, 5.828670879282072e-16,
          "d41e7b68b6f0b38baaf97bfb8ef1fb895a28271c459fc19a40973be08826a83d",
          "24cecfbefe24be418b6bac3ffe5b07f97f904d790c17ae876a76daf85586482b"),
    "astroid": (1.0, 6.661338147750939e-16,
          "cc56c338425b7c429e21449f0f97aed7ca919516e3800cbca3bdda9292741318",
          "1fc82b555951d0cd07743509e1bf361c5f174fa8dc3c748f5941ab11c3fd74d7"),
}


class TestBjorling:
    @pytest.mark.parametrize("cusps", [3, 4, 6])
    def test_cusp_selectors(self, capsys, cusps):
        code, stdout, _ = run(
            capsys, "bjorling", "--cusps", str(cusps), "--n-u", "24", "--n-v", "3"
        )
        assert code == 0
        rep = json.loads(stdout)
        assert rep["sup_error"] < 1e-6

    def test_astroid_alias(self, capsys):
        code, stdout, _ = run(capsys, "bjorling", "--astroid", "--n-u", "16", "--n-v", "3")
        assert code == 0
        assert json.loads(stdout)["cusps"] == 4

    def test_unsupported_count(self, capsys):
        code, _, err = run(capsys, "bjorling", "--cusps", "2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--astroid", "--cusps", "7"], ["--cusps", "4", "--astroid"], [],
    ], ids=["astroid-cusps", "cusps-astroid", "neither"])
    def test_one_curve_selector(self, capsys, tmp_path, argv):
        # --cusps and --astroid are alternatives: exactly one is given
        out = tmp_path / "b.obj"
        code, stdout, err = run(capsys, "bjorling", *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cusps", range(3, 13))
    def test_mesh_closes_its_seam(self, capsys, tmp_path, cusps):
        # n_u columns over theta in [0, 2 pi): no duplicated theta = 2 pi
        # column, and the seam quads join column n_u - 1 to column 0
        n_u, n_v = 16, 5
        out = tmp_path / "b.ply"
        code, stdout, _ = run(capsys, "bjorling", "--cusps", str(cusps), "--n-u", str(n_u),
                              "--n-v", str(n_v), "--out", str(out))
        assert code == 0 and json.loads(stdout)["vertices"] == n_u * n_v
        faces = read_ply(out).faces
        assert len(faces) == 2 * n_u * (n_v - 1)
        cols = faces % n_u
        assert ((cols == n_u - 1).any(axis=1) & (cols == 0).any(axis=1)).sum() == 2 * (n_v - 1)

    @pytest.mark.parametrize("name", ["b.stl", "b", "b.obj.txt", "b.ply.gz"])
    def test_out_extension_neither_obj_nor_ply_exits_2(self, capsys, tmp_path, name):
        out = tmp_path / name
        code, stdout, err = run(
            capsys, "bjorling", "--cusps", "3", "--n-u", "16", "--n-v", "3",
            "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ".obj or .ply" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, read", [("b.OBJ", read_obj), ("b.PLY", read_ply)])
    def test_out_extension_in_any_case(self, capsys, tmp_path, name, read):
        out = tmp_path / name
        code, _, _ = run(
            capsys, "bjorling", "--cusps", "3", "--n-u", "16", "--n-v", "3",
            "--out", str(out),
        )
        assert code == 0 and len(read(out).vertices) == 16 * 3

    def test_mesh_output(self, capsys, tmp_path):
        out = tmp_path / "b.obj"
        code, stdout, _ = run(
            capsys, "bjorling", "--cusps", "3", "--n-u", "16", "--n-v", "3",
            "--out", str(out),
        )
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("fmt", ["obj", "ply"])
    @pytest.mark.parametrize("target", [str(n) for n in range(3, 13)] + ["astroid"])
    def test_mesh_normals_finite_and_unit(self, capsys, tmp_path, target, fmt):
        # the default 64x9 grid puts vertices on cusps (theta = 0 at r = 1
        # for every count), where the normal needs the exact Gauss map
        out = tmp_path / f"b.{fmt}"
        argv = ["--astroid"] if target == "astroid" else ["--cusps", target]
        code, stdout, _ = run(capsys, "bjorling", *argv, "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["sup_error"] < 1e-6
        mesh = (read_obj if fmt == "obj" else read_ply)(out)
        assert len(mesh.vertices) == 64 * 9
        assert np.all(np.isfinite(mesh.normals))
        assert np.abs(np.linalg.norm(mesh.normals, axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("cusps", range(3, 13))
    def test_mesh_middle_row_is_the_equator(self, capsys, tmp_path, cusps):
        # 4k+2 cusps close over t in [0, 2 pi D], D = 2k, not [0, 2 pi]
        out = tmp_path / "b.ply"
        code, _, _ = run(capsys, "bjorling", "--cusps", str(cusps), "--out", str(out))
        assert code == 0
        curve = equator_curve(cli._closed_form_for_cusps(cusps))
        middle = read_ply(out).vertices.reshape(9, 64, 3)[4]
        ts = np.linspace(*curve.domain, 64, endpoint=False)
        assert np.abs(middle[:, :2] - curve.point(ts)).max() < 1e-12
        assert np.abs(middle[:, 2]).max() < 1e-12

    @pytest.mark.parametrize("cusps", range(3, 13))
    def test_full_mesh_matches_closed_form(self, capsys, tmp_path, cusps):
        # E = r e^{i theta} is w = D theta - i D ln r: the closed form at
        # (r^D, D theta), on every vertex of a 129 x 256 mesh
        out = tmp_path / "b.ply"
        code, _, _ = run(capsys, "bjorling", "--cusps", str(cusps), "--n-u", "256",
                         "--n-v", "129", "--out", str(out))
        assert code == 0
        m = cli._closed_form_for_cusps(cusps)
        denom = equator_curve(m).denom
        strip = 0.05 / denom
        spec = SamplingSpec(r_min=math.exp(-strip), r_max=math.exp(strip),
                            n_r=129, n_theta=256)
        want = eval_hm_even(m, spec.radii[:, None] ** denom, denom * spec.thetas)
        got = read_ply(out).vertices.reshape(want.shape)
        assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("target", BJORLING_PINS)
    def test_outputs_pinned(self, capsys, tmp_path, target):
        m, sup_error, obj_sha, ply_sha = BJORLING_PINS[target]
        argv = ["bjorling"] + (["--astroid"] if target == "astroid" else ["--cusps", target])
        want = {"closed_form_m": m, "cusps": 4 if target == "astroid" else int(target),
                "quad_order": 24, "schema": 1, "strip": 0.05, "sup_error": sup_error}
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and stdout == json.dumps(want, indent=2, sort_keys=True) + "\n"
        for fmt, sha in (("obj", obj_sha), ("ply", ply_sha)):
            out = tmp_path / f"b.{fmt}"
            code, stdout, _ = run(capsys, *argv, "--out", str(out))
            assert code == 0
            assert json.loads(stdout) == dict(want, out=str(out), vertices=64 * 9)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

    def test_quad_order_default_is_silent(self, capsys, caplog):
        with caplog.at_level(logging.WARNING, logger="henneberg"):
            code, stdout, _ = run(capsys, "bjorling", "--cusps", "3", "--n-u", "16", "--n-v", "3")
        assert code == 0
        assert json.loads(stdout)["quad_order"] == 24
        assert not caplog.records


    def test_sup_error_propagates_nan(self, capsys, monkeypatch):
        # one NaN row of the (n_v, n_u) grid must not hide behind the others
        real, calls = cli.eval_hm_even, []

        def poisoned(m, r, theta):
            calls.append(r)
            out = real(m, r, theta).copy()
            out[1] = math.nan
            return out

        monkeypatch.setattr(cli, "eval_hm_even", poisoned)
        code, stdout, _ = run(capsys, "bjorling", "--cusps", "3", "--n-u", "16", "--n-v", "3")
        assert code == 0 and len(calls) == 1
        assert math.isnan(json.loads(stdout)["sup_error"])

    def test_one_grid_evaluation(self, capsys, monkeypatch):
        # the check evaluates patch and closed form once each, on the grid
        real_solve, shapes = cli.bjorling_solve, []

        def solve(curve):
            patch = real_solve(curve)
            real_at = patch.at

            def at(u, v=0.0):
                shapes.append(np.broadcast_shapes(np.shape(u), np.shape(v)))
                return real_at(u, v)

            monkeypatch.setattr(patch, "at", at)  # the patch is shared
            return patch

        monkeypatch.setattr(cli, "bjorling_solve", solve)
        code, _, _ = run(capsys, "bjorling", "--cusps", "5", "--n-u", "16", "--n-v", "3")
        assert code == 0 and shapes == [(3, 16)]


#: `verify` stdout: its SHA-256, recorded before each surface's forms were
#: cached on its WeierstrassData, and for m = 9..12 before the isometry maps
#: were listed in closed form (numpy 2.4, x86-64 Linux)
VERIFY_PINS = {
    "h1": (["h1"], "7f249d4dc2671ba0cd6de10ab4326dbf4781e782677f48d49c0a644710500ac2"),
    "hm-1": (["hm", "--m", "1"],
             "8b9edccf006d813899a80378df0debee49cfcb73f31c6073fd78094aa71ce844"),
    "hm-2": (["hm", "--m", "2"],
             "ecbdfc98805b7898affb196aa0884fbf0f4f083681a9995d4213b1af84921206"),
    "hm-3": (["hm", "--m", "3"],
             "6d770e0f4f8b7640cc0f72b1567a070de2956d577f6865754b20ae49a8e6eac4"),
    "hm-4": (["hm", "--m", "4"],
             "83317ebe17c5e5b2da27d453a0da3dfed0240c88cfee41d1f8303f2d72d32bb5"),
    "hm-5": (["hm", "--m", "5"],
             "901788dd0c7a465fcf92f5e7837b47f20aa8219764d4731f622a52586bd92762"),
    "hm-6": (["hm", "--m", "6"],
             "edc69ebb2f9a5861d9a818f5efabb37f8f88d6927baf79adbd0c0d2fe27f3c34"),
    "hm-7": (["hm", "--m", "7"],
             "f72903d2b3c1dd1c4e786101c237813572469910b47815804621a07a293adaa6"),
    "hm-8": (["hm", "--m", "8"],
             "e127b984d969aad4cc4562c184e98f8a82fd8ae954fbb9a2078003154ec82956"),
    "hm-9": (["hm", "--m", "9"],
             "7977f1619e3326acf0682a08d53478fdad270ca73953f23f6605e6ac424e855a"),
    "hm-10": (["hm", "--m", "10"],
              "37060489b85d8cc05e0a4d35eb9d8b451a55c7287c03c12ab21622165db53f14"),
    "hm-11": (["hm", "--m", "11"],
              "20f53fd866cf30bdc8d95d7269823153bc5275dfceac5d8d8716730d7eb2f1c7"),
    "hm-12": (["hm", "--m", "12"],
              "442e12ff3f9d13594e5497b92e40b225147ecb23fbd7a2b422d54ad875d78d56"),
    "family": (["family", "--theta2", "1.0"],
               "97aa6a5f305ff1a35cd20c7717a1ff69b04c28be74f6031a3aadd16459644782"),
}


@pytest.mark.parametrize("name", VERIFY_PINS)
def test_verify_stdout_pinned(capsys, name):
    argv, sha = VERIFY_PINS[name]
    code, stdout, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == sha


#: `generate` to OBJ at a 9x16 grid: the SHA-256 of the output of the only
#: selectors that evaluate surface_integrated and surface_associated
#: (numpy 2.4, x86-64 Linux)
GENERATE_PINS = {
    "family": (["--theta2", "1.0"],
               "fe9fbf275eadfa3f422993b18f56aa8a9ba4e259e752a2a0d7fc873bdd31dfbe"),
    "associated": (["--m", "3", "--phi", "0.7"],
                   "b8d6b2b93665d7058dc5f68f59ccc4ac74efe2d6d71cdb81d12b0125c0cba73b"),
}


@pytest.mark.parametrize("selector", GENERATE_PINS)
def test_generate_outputs_pinned(capsys, tmp_path, selector):
    params, sha = GENERATE_PINS[selector]
    out = tmp_path / "s.obj"
    code, _, _ = run(capsys, "generate", selector, *params,
                     "--nr", "9", "--ntheta", "16", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


#: `generate` to OBJ at the default 129x256 grid, full and quotient: the
#: SHA-256 of the text that "%.17g" formatting of every float gives,
#: recorded once both selectors integrated their Laurent forms, the more
#: accurate path (TestIntegratedAccuracy) (numpy 2.4, x86-64 Linux)
FULL_GRID_PINS = {
    "h1": (["h1"], "dee9a0faf001de91c48d4b77e655dd3055611a53ba7c955b2e9aaee8e1244547"),
    "hm-even-2-quotient": (["hm-even", "--m", "2", "--quotient"],
                           "21280089118e08dc9c7a8f4677a08933f99d3d9f2c180905a3a1d7f05d9db7b2"),
}


@pytest.mark.parametrize("name", FULL_GRID_PINS)
def test_generate_full_grid_obj_pinned(capsys, tmp_path, name):
    argv, sha = FULL_GRID_PINS[name]
    out = tmp_path / "s.obj"
    code, _, _ = run(capsys, "generate", *argv, "--format", "obj", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_full_grid_obj_read_back_leaves_only_exponents_to_loadtxt(capsys, tmp_path, monkeypatch):
    # read_obj reads every face reference and every decimal without an
    # exponent as integers, so a silent fall back to np.loadtxt fails here
    argv, sha = FULL_GRID_PINS["h1"]
    out = tmp_path / "h1.obj"
    code, _, _ = run(capsys, "generate", *argv, "--format", "obj", "--out", str(out))
    assert code == 0 and hashlib.sha256(out.read_bytes()).hexdigest() == sha
    real, loaded = np.loadtxt, {}

    def counting(fname, dtype=float, **kwargs):
        loaded.setdefault(np.dtype(dtype).kind, []).extend(fname.getvalue().split())
        return real(io.StringIO(fname.getvalue()), dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    mesh = read_obj(out)
    assert mesh.faces.shape == (2 * 128 * 256, 3)
    exponents = [t for t in out.read_text().split() if "e" in t]
    fields = 2 * 3 * 129 * 256  # v and vn: 198,144
    assert 0 < len(exponents) < 0.01 * fields
    assert list(loaded) == ["f"] and sorted(loaded["f"]) == sorted(exponents)


def test_full_grid_obj_read_back_builds_no_per_byte_kind_array(capsys, tmp_path, monkeypatch):
    # write_obj writes each kind in one run, so read_obj takes every kind's
    # text of every chunk as a slice, with no np.repeat of the line kinds
    argv, sha = FULL_GRID_PINS["h1"]
    out = tmp_path / "h1.obj"
    code, _, _ = run(capsys, "generate", *argv, "--format", "obj", "--out", str(out))
    assert code == 0 and hashlib.sha256(out.read_bytes()).hexdigest() == sha
    from henneberg import meshing

    real_parse, real_repeat, texts, repeated = meshing._parse_records, np.repeat, [], []

    def parse(path, kind, text, lf):
        texts.append(text.base is not None)
        return real_parse(path, kind, text, lf)

    def repeat(a, *args, **kwargs):
        repeated.append(np.asarray(a).dtype)
        return real_repeat(a, *args, **kwargs)

    monkeypatch.setattr(meshing, "_parse_records", parse)
    monkeypatch.setattr(np, "repeat", repeat)
    mesh = read_obj(out)
    assert mesh.faces.shape == (2 * 128 * 256, 3)
    assert len(texts) > 3 and all(texts)  # several chunks, each kind a slice
    assert np.dtype(np.uint8) not in repeated  # the line kinds are uint8


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_associated_non_finite_phi_exits_2(capsys, tmp_path, phi):
    out = tmp_path / "a.obj"
    code, stdout, err = run(capsys, "generate", "associated", "--m", "3",
                            f"--phi={phi}", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", [True, False, None, "1.0", [1.0]])
@pytest.mark.parametrize("key", ["r1", "theta3", "beta"])
def test_continue_from_non_number_exits_2(capsys, tmp_path, key, value):
    # a JSON boolean is not a number, as for --data and --config
    point = {"r1": 1.0, "r2": 1.0, "r3": 1.0, "theta2": math.pi / 3,
             "theta3": 2 * math.pi / 3, "beta": math.pi / 2, key: value}
    start = tmp_path / "start.json"
    start.write_text(json.dumps(point))
    code, stdout, err = run(capsys, "continue", "--from", str(start), "--r1", "1", "--r2", "1")
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["bjorling", "--cusps", "3", "--strip", "nan"],
    ["bjorling", "--cusps", "3", "--strip", "inf"],
    ["bjorling", "--cusps", "3", "--strip=-inf"],
    ["bjorling", "--cusps", "3", "--strip", "0"],
    ["bjorling", "--cusps", "3", "--strip=-0.05"],
    ["bjorling", "--cusps", "3", "--strip", "30"],
    ["bjorling", "--cusps", "3", "--strip", "800"],
    ["bjorling", "--cusps", "3", "--n-u", "0"],
    ["bjorling", "--cusps", "3", "--n-u", "1"],
    ["bjorling", "--astroid", "--n-v", "1"],
    ["bjorling", "--astroid", "--n-v=-3"],
    ["continue", "--r1", "nan", "--r2", "1"],
    ["continue", "--r1", "inf", "--r2", "1"],
    ["continue", "--r1", "1", "--r2", "nan"],
    ["generate", "hm-odd", "--m", "-1"],
    ["generate", "hm-even", "--m", "0"],
    ["generate", "conjugate", "--m", "-1"],
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_input_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # generate without --out writes here
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["r1", "r3", "theta2", "beta"])
def test_continue_from_non_finite_point_exits_2(capsys, tmp_path, key, bad):
    # json writes and reads these as NaN, Infinity and -Infinity
    point = {"r1": 1.0, "r2": 1.0, "r3": 1.0, "theta2": math.pi / 3,
             "theta3": 2 * math.pi / 3, "beta": math.pi / 2, key: bad}
    start = tmp_path / "start.json"
    start.write_text(json.dumps(point))
    code, stdout, err = run(capsys, "continue", "--from", str(start), "--r1", "1", "--r2", "1")
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cusps,top", [(3, 4), (4, 3), (6, 2.5), (12, 7)])
def test_strip_bound_names_largest_strip(capsys, cusps, top):
    # K strip may reach 52 ln 2, K = m + 2 the closed form's top exponent
    largest = math.floor(52 * math.log(2) / top * 1e4) / 1e4
    code, _, err = run(capsys, "bjorling", "--cusps", str(cusps),
                       "--strip", str(largest + 1e-3), "--n-u", "8", "--n-v", "3")
    assert code == 2 and f"at most {largest} " in err
    code, stdout, _ = run(capsys, "bjorling", "--cusps", str(cusps),
                          "--strip", str(largest), "--n-u", "8", "--n-v", "3")
    assert code == 0 and math.isfinite(json.loads(stdout)["sup_error"])


@pytest.mark.parametrize("cusps,top", [(360435, 360436), (360437, 360438),
                                       (720876, 360439), (10_000_000, 5_000_001)])
def test_strip_bound_keeps_four_digits(capsys, cusps, top):
    # where 4 decimals would read 0.0 the bound keeps 4 significant digits,
    # rounded down; no curve is built for a refused strip
    bound = decimal.Decimal(52 * math.log(2) / top)
    digits = -4 if bound.adjusted() >= -4 else bound.adjusted() - 3
    largest = float(bound.quantize(decimal.Decimal(1).scaleb(digits), decimal.ROUND_FLOOR))
    assert largest > 0
    code, stdout, err = run(capsys, "bjorling", "--cusps", str(cusps))
    assert code == 2 and stdout == "" and err.count("\n") == 1
    assert f"--strip must be at most {largest} for {cusps} cusps" in err


def test_cusps_beyond_floats_refused(capsys):
    code, stdout, err = run(capsys, "bjorling", "--cusps", "9" * 400)
    assert code == 2 and stdout == ""
    assert err.startswith("error: --cusps") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--cusps", "3", "--strip", "5e-17"],
                                  ["--cusps", "6", "--strip", "1e-16"],
                                  ["--astroid", "--strip", "1e-17"]])
def test_strip_too_small_to_mesh_names_strip(capsys, tmp_path, argv):
    # e^(+-strip/D) both round to 1, so the band has one radius
    out = tmp_path / "b.obj"
    code, stdout, err = run(capsys, "bjorling", *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--strip" in err
    assert not out.exists()
    # without --out the strip is only sampled, and a band just wide enough meshes
    code, stdout, _ = run(capsys, "bjorling", *argv, "--n-u", "8", "--n-v", "3")
    assert code == 0 and math.isfinite(json.loads(stdout)["sup_error"])
    code, _, _ = run(capsys, "bjorling", "--cusps", "3", "--strip", "6e-17", "--n-u", "8",
                     "--n-v", "3", "--out", str(out))
    assert code == 0 and out.exists()


class TestGenerateSelectors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "hm-odd", "--m", "3"),
            ("generate", "hm-even", "--m", "2"),
            ("generate", "conjugate", "--m", "3"),
            ("generate", "associated", "--m", "1", "--phi", "1.5707963267948966"),
            ("generate", "limit-m2",),
        ],
    )
    def test_all_selectors_produce_meshes(self, capsys, tmp_path, argv):
        out = tmp_path / "s.obj"
        code, stdout, _ = run(
            capsys, *argv, "--out", str(out), "--nr", "5", "--ntheta", "8"
        )
        assert code == 0
        info = json.loads(stdout)
        assert info["vertices"] == 40
        assert out.exists()

    def test_parity_validation(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "hm-odd", "--m", "2",
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2

    def test_missing_m(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "hm-odd", "--out", str(tmp_path / "x.obj")
        )
        assert code == 2
        assert "--m" in err


class TestVerifyFamily:
    def test_family_report_includes_reduced_system(self, capsys):
        code, stdout, _ = run(capsys, "verify", "family", "--theta2", "0.83")
        assert code == 0
        rep = json.loads(stdout)
        assert rep["pass"]
        assert abs(rep["m2_system"]["F"][0]) < 1e-9
        assert abs(rep["m2_system"]["G"]) < 1e-9
        assert "isometries" not in rep
        assert rep["c_scale"] == 1.0


# Every command line ends: exit 0, 1 or 2, one stderr line on 2, at most one
# on 1 and none on 0, with no exception and no warning.  A line is a command
# that works plus up to three flags (a later flag overrides an earlier one)
# drawn from vocabularies of the values that broke commands before: NaN, the
# infinities, 1e+-300, bad ints, missing or malformed files and unwritable
# --out paths.  Every size is capped (m <= 12, cusps <= 24, grids <= 64), so
# no example allocates much.
_FLOATS = ["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300", "0", "-1",
           "0.5", "0.83", "1.05", "2", "x"]
_M = ["-1", "0", "1", "2", "3", "8", "12", "x", "1.5"]
_CUSPS = ["-3", "0", "2", "3", "4", "6", "7", "12", "24", "x"]
_GRID = ["-1", "0", "1", "2", "5", "17", "64", "x", "nan"]
_OUT = ["o.obj", "o.ply", "o.json", "o.txt", "missing/o.obj", "missing/o.json", ".", ""]
_PI_2 = math.pi / 2
_FILES = {
    "missing.json": None,
    "bad.json": "{not json",
    "list.json": "[1, 2]",
    "empty.json": "{}",
    "h1.json": json.dumps({"c": [1, 0], "m": 1, "a": [[1, 0], [1, _PI_2]]}),
    "off.json": json.dumps({"c": [1, 0], "m": 1, "a": [[2, 0], [1, _PI_2]]}),
    "huge.json": json.dumps({"c": [1e300, 0], "m": 1, "a": [[1e300, 0], [1e-300, 1]]}),
    "h2.json": json.dumps({"r1": 1, "r2": 1, "r3": 1, "theta2": math.pi / 3,
                           "theta3": 2 * math.pi / 3, "beta": _PI_2}),
    "far.json": json.dumps({"r1": 1e300, "r2": 1e-300, "r3": 1e300, "theta2": 1,
                            "theta3": 2, "beta": 0}),
    "nan.json": '{"r1": NaN, "r2": 1, "r3": 1, "theta2": 1, "theta3": 2, "beta": 0}',
}

#: per command, the lines that work and the flags that may follow them, each
#: with its vocabulary (None for a switch)
_BASES = {
    "generate": [[*sel, "--nr=9", "--ntheta=16"] for sel in (
        ["h1"], ["hm-odd", "--m=3"], ["hm-even", "--m=2"], ["conjugate", "--m=3"],
        ["associated", "--m=3", "--phi=0.7"], ["limit-m2"], ["family", "--theta2=1.0"],
        ["custom", "--data=h1.json"])],
    "verify": [["h1"], ["hm", "--m=3"], ["family", "--theta2=0.83"],
               ["custom", "--data=h1.json"]],
    "search-m1": [[], ["--span=2"], ["--r-lo=0.5", "--r-hi=2"],
                  ["--n-radial=5", "--n-angular=8"]],
    "continue": [["--r1=1.05", "--r2=1"], ["--r1=1", "--r2=1", "--from=h2.json"]],
    "bjorling": [["--cusps=3"], ["--astroid"], ["--cusps=6", "--n-u=8", "--n-v=3"]],
}
_FLAGS = {
    "generate": {"m": _M, "phi": _FLOATS, "theta2": _FLOATS, "data": list(_FILES),
                 "out": _OUT, "format": ["obj", "ply", "xyz"], "r-min": _FLOATS,
                 "r-max": _FLOATS, "nr": _GRID, "ntheta": _GRID, "quotient": None},
    "verify": {"m": _M, "theta2": _FLOATS, "data": list(_FILES), "out": _OUT},
    "search-m1": {"span": _FLOATS, "r-lo": _FLOATS, "r-hi": _FLOATS, "n-radial": _GRID,
                  "n-angular": _GRID, "out": _OUT},
    "continue": {"r1": _FLOATS, "r2": _FLOATS, "from": list(_FILES), "out": _OUT},
    "bjorling": {"cusps": _CUSPS, "astroid": None, "strip": _FLOATS, "n-u": _GRID,
                 "n-v": _GRID, "out": _OUT},
}


def _flag(name, values):
    if values is None:
        return st.just([f"--{name}"])
    return st.sampled_from(values).map(lambda v: [f"--{name}={v}"])


def _command_line(cmd):
    flags = st.one_of(*[_flag(name, values) for name, values in _FLAGS[cmd].items()])
    return st.tuples(st.sampled_from(_BASES[cmd]), st.lists(flags, max_size=3)).map(
        lambda drawn: [cmd, *drawn[0], *sum(drawn[1], [])])


_COMMAND_LINES = st.sampled_from(sorted(_BASES)).flatmap(_command_line)


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_COMMAND_LINES)
def test_every_command_line_ends(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # relative --out and --data paths, and generate's default
    for name, text in _FILES.items():
        if text is not None and not (tmp_path / name).exists():
            (tmp_path / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    assert len(lines) in {0: (0,), 1: (0, 1), 2: (1,)}[code], (argv, code, lines)
    assert not caught, (argv, [str(w.message) for w in caught])
