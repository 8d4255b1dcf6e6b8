import hashlib
import json
import logging
import math

import numpy as np
import pytest

from henneberg import read_obj, read_ply
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

    def test_config_file_sampling(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampling": {"n_r": 5, "n_theta": 8}}))
        code, stdout, _ = run(
            capsys, "generate", "h1", "--config", str(cfg),
            "--out", str(tmp_path / "c.obj"),
        )
        assert code == 0
        assert json.loads(stdout)["vertices"] == 40

    @pytest.mark.parametrize("sampling, want", [
        ({"bogus": 1}, "bogus"),
        ({"n_r": "9"}, "n_r"),
        ({"n_r": 9.5}, "n_r"),
        ({"n_r": True}, "n_r"),
        ({"r_max": False}, "r_max"),
        ({"quotient": "yes"}, "quotient"),
        ({"wrap": 0}, "wrap"),
        ([1], "sampling"),
    ])
    def test_bad_config_sampling_exits_2(self, capsys, tmp_path, sampling, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampling": sampling}))
        code, stdout, err = run(
            capsys, "generate", "h1", "--config", str(cfg),
            "--out", str(tmp_path / "c.obj"),
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert want in err
        assert not (tmp_path / "c.obj").exists()

    def test_config_sampling_int_for_float_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampling": {"r_min": 1, "n_r": 5, "n_theta": 8}}))
        code, stdout, _ = run(
            capsys, "generate", "h1", "--config", str(cfg), "--nr", "3",
            "--out", str(tmp_path / "c.obj"),
        )
        assert code == 0
        assert json.loads(stdout)["vertices"] == 3 * 8

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

    @pytest.mark.parametrize("route", ["--data", "--config"])
    @pytest.mark.parametrize("fields, want", [
        ({"c": [1, 0], "m": 2, "a": [[1, 0], [1, math.pi / 2]]}, "m+1 = 3"),
        ({"c": ["1", 0], "m": 1, "a": [[1, 0], [1, math.pi / 2]]}, "'c'"),
        ({"c": [1, None], "m": 1, "a": [[1, 0], [1, math.pi / 2]]}, "'c'"),
        ({"c": [1, 0], "m": 1, "a": [[1, 0], [1, "pi/2"]]}, "'a'"),
        ({"c": [1, 0], "m": 1, "a": [[1, 0], [[1], 0.5]]}, "'a'"),
        ([1, 0], "JSON object"),
    ])
    def test_bad_custom_data_exits_2(self, capsys, tmp_path, route, fields, want):
        # both routes go through the same loader and its checks
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

    def test_samples_and_seed_are_deprecated(self, capsys, caplog):
        _, want, _ = run(capsys, "verify", "hm", "--m", "3")
        for flag in (["--samples", "8"], ["--seed", "5"]):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="henneberg"):
                code, stdout, _ = run(capsys, "verify", "hm", "--m", "3", *flag)
            assert code == 0 and stdout == want
            [record] = caplog.records
            assert record.name.startswith("henneberg") and record.levelno == logging.WARNING
            assert "deprecated" in record.getMessage()

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

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify", "hm", "--m", "2")
        _, out2, _ = run(capsys, "verify", "hm", "--m", "2")
        assert out1 == out2


class TestSearch:
    def test_default_exit_zero(self, capsys):
        code, stdout, _ = run(capsys, "search-m1")
        assert code == 0
        rep = json.loads(stdout)
        assert rep["all_henneberg"]
        assert len(rep["minimizers"]) > 0

    def test_restricted_grid(self, capsys):
        code, stdout, _ = run(
            capsys, "search-m1", "--r-lo", "1.5", "--r-hi", "3.0"
        )
        assert code == 0
        assert json.loads(stdout)["minimizers"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n-radial", "0"],
            ["--n-radial", "-3"],
            ["--n-angular", "0"],
            ["--refine-steps", "-1"],
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
        assert code == 0
        grid = json.loads(stdout)["grid"]
        assert (grid["r_lo"], grid["r_hi"]) == bounds
        assert set(grid) == {"span", "n_radial", "n_angular", "r_lo", "r_hi"}


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
    ["verify", "h1", "--samples", "8"],
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
    def _exit_code(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    def test_same_output_after_usage_error_and_help(self, capsys):
        # main builds its parser once per process; a usage error or a help
        # request must leave nothing behind that changes the next call
        argv = ["continue", "--r1", "1.05", "--r2", "1.0"]
        before = run(capsys, *argv)
        assert before[0] == 0
        error = self._exit_code(capsys, "continue", "--r1", "x")
        assert error[0] == 2 and "--r1" in error[2]
        helps = [self._exit_code(capsys, "--help"),
                 self._exit_code(capsys, "search-m1", "--help")]
        assert [h[0] for h in helps] == [0, 0]
        assert run(capsys, *argv) == before
        assert self._exit_code(capsys, "continue", "--r1", "x") == error
        assert [self._exit_code(capsys, "--help"),
                self._exit_code(capsys, "search-m1", "--help")] == helps
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli._parser()


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
#: and the SHA-256 of the --out OBJ and PLY files, recorded before the
#: Gauss-map reduction became a synthetic division and the check one grid
#: (numpy 2.4, x86-64 Linux)
BJORLING_PINS = {
    "3": (2.0, 3.0531133177191805e-16,
          "14885c0be4b24225b54be3fd1fd350be72eedc4e25fa83b8882ce764a0050db5",
          "e26d91cc758cba9dc326801ab0fa8e7b124a460e84d3e94d0e911fe1014aa6b5"),
    "4": (1.0, 8.881784197001252e-16,
          "a166e722a11d331478f84ceb55369a52db50400e8555ded375b7875b8f74553b",
          "09b332d7012952d22dabbddea716a2dd4ae6734a286860e4ad30b91f3da66bab"),
    "5": (4.0, 5.689893001203927e-16,
          "2c9195fd5eb9f4a16cc34312aeb3eeaa2a780780ed85f44a24506020a85dd575",
          "933feea2cd75c7b698aa0319afdaf478d1aa0ba8b090c6de43c143c398d4e305"),
    "6": (0.5, 1.3322676295501878e-15,
          "59348c3406f9e3812841012d8b03913a78d8a32cb2448655dca562e76d3705ff",
          "f510443df8ac69e2eec579b08f81ed0251373021c1ce8223c7ef19f2e9c8f048"),
    "7": (6.0, 6.106226635438361e-16,
          "1f16c692eeefe027c91c64386e4a0bf3f35145b9a76688e7fec616459af50d10",
          "ac00ae3d07d7a9f54ae7bfeeac1357e599cd4fde770fb47673d6db3e93365d5b"),
    "8": (3.0, 5.273559366969494e-16,
          "eb05a2c3bd9c19d7771cc4743ab3c385e4d703d4a169433d65f3a9439660f02e",
          "5d9dcb3c719733e8c9483ba2061a7514a91a366ac43963c8b324a2c810d88f0e"),
    "9": (8.0, 4.718447854656915e-16,
          "522703c4100385999d5ff8b08dbba0421aa23719afca5bf90e0f95541dcd5bdd",
          "8cfdf4d75c53ef418101f4abf048e1bf5c2d037f08a8263e67a49b31281e15d6"),
    "10": (0.25, 2.6645352591003757e-15,
          "b2e7faa26efe7b0b0c9d3a313877698395ba0cbdf65bb8ad15fb5a4b977c3b10",
          "a6be449963a4a890094c4ff3f7b8be8e97ee040dc06baccaa20d75a034feefa4"),
    "11": (10.0, 1.1102230246251565e-15,
          "bb0b615d5dc5e3d410406f77a69cdc3cbce6eeeb04fe88bc51ecb10f4e1a216b",
          "e13af5e68fca18066f8d64473453416e6ba214d8b26d30669081fbed8c397476"),
    "12": (5.0, 6.106226635438361e-16,
          "3c39e2979ed85a6718d244f0b2c5566db6bb0f9341fbc33e36a54a8d3e60a0a9",
          "993c4ced5312a58247b84cef91105bada4b77a7b49d20a5022615f12f4bb6126"),
    "astroid": (1.0, 8.881784197001252e-16,
          "a166e722a11d331478f84ceb55369a52db50400e8555ded375b7875b8f74553b",
          "09b332d7012952d22dabbddea716a2dd4ae6734a286860e4ad30b91f3da66bab"),
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
        # the default 64x9 grid puts vertices on cusps (6 cusps: theta = 0,
        # 4 pi/3, ... at r = 1), where the normal needs the exact Gauss map
        out = tmp_path / f"b.{fmt}"
        argv = ["--astroid"] if target == "astroid" else ["--cusps", target]
        code, stdout, _ = run(capsys, "bjorling", *argv, "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["sup_error"] < 1e-6
        mesh = (read_obj if fmt == "obj" else read_ply)(out)
        assert len(mesh.vertices) == 64 * 9
        assert np.all(np.isfinite(mesh.normals))
        assert np.abs(np.linalg.norm(mesh.normals, axis=1) - 1.0).max() < 1e-12

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

    def test_quad_order_is_deprecated(self, capsys, caplog):
        with caplog.at_level(logging.WARNING, logger="henneberg"):
            code, stdout, _ = run(capsys, "bjorling", "--cusps", "3",
                                    "--n-u", "16", "--n-v", "3", "--quad-order", "8")
        assert code == 0
        rep = json.loads(stdout)
        assert rep["quad_order"] == 8 and rep["sup_error"] < 1e-6
        [record] = caplog.records
        assert record.name.startswith("henneberg") and record.levelno == logging.WARNING
        assert "deprecated" in record.getMessage()

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

            patch.at = at
            return patch

        monkeypatch.setattr(cli, "bjorling_solve", solve)
        code, _, _ = run(capsys, "bjorling", "--cusps", "5", "--n-u", "16", "--n-v", "3")
        assert code == 0 and shapes == [(3, 16)]


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
    ["verify", "hm", "--m", "2", "--samples", "0"],
    ["verify", "hm", "--m", "2", "--samples=-5"],
    ["verify", "h1", "--samples", "1"],
    ["verify", "hm", "--m", "3", "--samples", "3"],
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_input_exits_2(capsys, argv):
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


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


def test_verify_four_samples_suffice(capsys):
    code, stdout, _ = run(capsys, "verify", "h1", "--samples", "4")
    assert code == 0 and json.loads(stdout)["isometries"]["all_pass"]


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
