import numpy as np
import pytest

from henneberg import (
    DomainError,
    SamplingSpec,
    build_mesh,
    read_obj,
    read_ply,
    surface_h1,
    surface_hm,
    write_obj,
    write_ply,
)


SMALL = SamplingSpec(n_r=9, n_theta=16)


class TestSamplingSpec:
    def test_defaults(self):
        spec = SamplingSpec()
        assert spec.n_r == 129 and spec.n_theta == 256
        assert spec.inversion_symmetric

    def test_validation(self):
        with pytest.raises(DomainError):
            SamplingSpec(r_min=2.0, r_max=1.0)
        with pytest.raises(DomainError):
            SamplingSpec(n_r=1)


class TestBuildMesh:
    def test_default_vertex_count(self):
        mesh = build_mesh(surface_h1(), SamplingSpec(n_r=17, n_theta=32))
        assert len(mesh.vertices) == 17 * 32

    def test_wrap_closes_seam(self):
        spec = SamplingSpec(n_r=5, n_theta=8)
        mesh = build_mesh(surface_h1(), spec)
        # faces reference the last angular column and column zero
        cols = mesh.faces % 8
        assert ((cols == 7).any(axis=1) & (cols == 0).any(axis=1)).any()

    def test_quotient_halves_vertices(self):
        full = build_mesh(surface_hm(2), SamplingSpec(n_r=9, n_theta=16))
        quot = build_mesh(
            surface_hm(2), SamplingSpec(n_r=9, n_theta=16, quotient=True)
        )
        assert 2 * len(quot.vertices) == len(full.vertices)

    def test_quotient_seam_identifies_antipodes(self):
        from henneberg import eval_hm_even

        spec = SamplingSpec(n_r=9, n_theta=16, quotient=True)
        assert spec.inversion_symmetric
        mesh = build_mesh(surface_hm(2), spec)
        # on the surface, theta = pi is the antipode of theta = 0 with the
        # radius inverted; the seam faces must realize that pairing
        r3 = spec.radii[3]
        assert np.abs(
            eval_hm_even(2, r3, np.pi) - eval_hm_even(2, 1 / r3, 0.0)
        ).max() < 1e-12
        n_t = len(spec.thetas)
        vid = np.arange(len(mesh.vertices)).reshape(9, n_t)
        face_sets = {frozenset(f) for f in mesh.faces.tolist()}
        paired = any(
            any(
                {int(vid[i, n_t - 1]), int(vid[9 - 1 - i, 0])} <= fs
                for fs in face_sets
            )
            for i in range(9)
        )
        assert paired

    def test_normals_unit_and_finite(self):
        mesh = build_mesh(surface_hm(3), SMALL)
        assert np.abs(np.linalg.norm(mesh.normals, axis=1) - 1).max() < 1e-6
        mesh.validate()

    def test_face_indices_in_range(self):
        mesh = build_mesh(surface_h1(), SMALL)
        assert mesh.faces.min() >= 0
        assert mesh.faces.max() < len(mesh.vertices)


class TestExport:
    def test_obj_round_trip_bit_exact(self, tmp_path):
        mesh = build_mesh(surface_h1(), SMALL)
        path = tmp_path / "m.obj"
        write_obj(mesh, path)
        back = read_obj(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.normals, mesh.normals)
        assert np.array_equal(back.faces, mesh.faces)

    def test_ply_round_trip(self, tmp_path):
        mesh = build_mesh(surface_hm(2), SMALL)
        path = tmp_path / "m.ply"
        write_ply(mesh, path)
        back = read_ply(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.normals, mesh.normals)
        assert np.array_equal(back.faces, mesh.faces)

    @pytest.mark.parametrize("mangle", [
        lambda b: b"",
        lambda b: b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
        lambda b: b[: b.index(b"end_header")],
        lambda b: b.replace(b"binary_little_endian", b"ascii", 1),
        lambda b: b.replace(b"double nz", b"float nz", 1),
        lambda b: b.replace(b"element face", b"element edge", 1),
        lambda b: b[:-1],
        lambda b: b + b"\0",
    ], ids=["empty", "obj-text", "no-end-header", "ascii", "float-nz",
            "no-face-element", "truncated", "trailing-byte"])
    def test_ply_reader_rejects_other_layouts(self, tmp_path, mangle):
        path = tmp_path / "m.ply"
        write_ply(build_mesh(surface_hm(2), SamplingSpec(n_r=3, n_theta=4)), path)
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(DomainError):
            read_ply(path)

    def test_obj_uses_17_significant_digits(self, tmp_path):
        mesh = build_mesh(surface_h1(), SamplingSpec(n_r=3, n_theta=4))
        path = tmp_path / "m.obj"
        write_obj(mesh, path)
        line = path.read_text().splitlines()[0]
        assert line.startswith("v ")
        # a full-precision float repr must round-trip
        x = float(line.split()[1])
        assert x == mesh.vertices[0, 0]
