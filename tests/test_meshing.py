import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from henneberg import (
    DomainError,
    SamplingSpec,
    build_mesh,
    meshing,
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

    @pytest.mark.parametrize("n_theta", [2, 3])
    def test_quotient_needs_two_columns(self, n_theta):
        # one column would be glued to itself by the seam
        with pytest.raises(DomainError, match="n_theta >= 4"):
            SamplingSpec(n_r=5, n_theta=n_theta, quotient=True)
        assert len(SamplingSpec(n_r=5, n_theta=4, quotient=True).thetas) == 2
        assert len(SamplingSpec(n_r=5, n_theta=n_theta).thetas) == n_theta


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


@pytest.mark.parametrize("text", [
    "v 1 2\n",
    "v 1 2 x\n",
    "v 1 2 3 4\n",
    "v\n",
    "vn 1 2\n",
    "vn 1 2 3\nvn 4 5\n",
    "f 1 2 3 4\n",
    "f 1 2\n",
    "f 1 2 x\n",
    "f /1 2 3\n",
    "f 0 1 2\n",
    "f 1 2 4\n",
    "f -1 2 3\n",
    "f 1 2 4294967297\n",
], ids=["v-two", "v-word", "v-four", "v-bare", "vn-two", "vn-ragged",
        "f-quad", "f-two", "f-word", "f-no-vertex", "f-zero", "f-past-end",
        "f-negative", "f-wraps-int32"])
def test_obj_reader_rejects_malformed(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n" + text)
    with pytest.raises(DomainError):
        read_obj(path)


def test_obj_reader_face_forms_and_skipped_kinds(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text(
        "# comment\no name\ng group\ns off\n\n"
        "v 0 0 0\nv 1 0 0\n  v 0 1 0\nv\t1 1 0\n"
        "vt 0.5 0.5\nvn 0 0 1\nusemtl m\n"
        "f 1 2 3\nf 1/1 2/1 3/1\nf 2//1 4//1 3//1\nf 4/1/1 3/1/1 1/1/1\n"
    )
    mesh = read_obj(path)
    assert mesh.vertices.shape == (4, 3) and mesh.normals.shape == (1, 3)
    assert mesh.faces.dtype == np.int32
    assert mesh.faces.tolist() == [[0, 1, 2], [0, 1, 2], [1, 3, 2], [3, 2, 0]]


def test_obj_reader_checks_every_block(tmp_path, monkeypatch):
    # a bad record after the first block is still found
    monkeypatch.setattr(meshing, "OBJ_BLOCK", 2)
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 3\nv 1 2\n")
    with pytest.raises(DomainError):
        read_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 3 2 1\n")
    assert read_obj(path).faces.tolist() == [[0, 1, 2], [2, 1, 0]]


@pytest.mark.parametrize("normals", ["", "vn 0 0 1\n", "vn 0 0 1\n" * 4],
                         ids=["no-vn", "fewer-vn", "more-vn"])
def test_writers_need_one_normal_per_vertex(tmp_path, normals):
    # read_obj returns the normals a file has; the writers store one per
    # vertex (OBJ faces reference them as a//a), so they refuse the rest
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n" + normals + "f 1 2 3\n")
    mesh = read_obj(path)
    assert len(mesh.normals) == normals.count("vn")
    for writer, name in ((write_obj, "out.obj"), (write_ply, "out.ply")):
        out = tmp_path / name
        with pytest.raises(DomainError, match=name):
            writer(mesh, out)
        assert not out.exists()


@pytest.mark.parametrize("record", [
    struct.pack("<Biii", 3, 0, 1, 999),
    struct.pack("<Biii", 3, -1, 1, 2),
    struct.pack("<Biii", 3, 0, 1, 12),
    struct.pack("<Biii", 4, 0, 1, 2),
], ids=["index-999", "index-negative", "index-past-end", "quad-count"])
def test_ply_reader_rejects_bad_faces(tmp_path, record):
    mesh = build_mesh(surface_hm(2), SamplingSpec(n_r=3, n_theta=4))
    assert len(mesh.vertices) == 12
    path = tmp_path / "m.ply"
    write_ply(mesh, path)
    data = path.read_bytes()
    path.write_bytes(data[:-13] + record)
    with pytest.raises(DomainError):
        read_ply(path)


# ---------------------------------------------------------------------------
# The per-record implementations build_mesh, write_obj and write_ply had
# before they were vectorised, kept as oracles for the exact output.
# ---------------------------------------------------------------------------


def _loop_faces(spec):
    n_r, n_t = len(spec.radii), len(spec.thetas)
    vid = np.arange(n_r * n_t).reshape(n_r, n_t)
    faces = []

    def add_quad(a, b, c, d):
        faces.append((a, b, c))
        faces.append((a, c, d))

    for i in range(n_r - 1):
        for j in range(n_t - 1):
            add_quad(vid[i, j], vid[i, j + 1], vid[i + 1, j + 1], vid[i + 1, j])
    if spec.wrap:
        if spec.quotient:
            if spec.inversion_symmetric:
                for i in range(n_r - 1):
                    a, b = vid[i, n_t - 1], vid[n_r - 1 - i, 0]
                    c, d = vid[n_r - 2 - i, 0], vid[i + 1, n_t - 1]
                    add_quad(a, b, c, d)
        else:
            for i in range(n_r - 1):
                add_quad(vid[i, n_t - 1], vid[i, 0], vid[i + 1, 0], vid[i + 1, n_t - 1])
    return np.asarray(faces, dtype=np.int32)


def _per_record_obj(mesh) -> str:
    out = []
    for v in mesh.vertices:
        out.append("v %s %s %s\n" % tuple("%.17g" % x for x in v))
    for n in mesh.normals:
        out.append("vn %s %s %s\n" % tuple("%.17g" % x for x in n))
    for f in mesh.faces:
        out.append("f %d//%d %d//%d %d//%d\n"
                   % (f[0] + 1, f[0] + 1, f[1] + 1, f[1] + 1, f[2] + 1, f[2] + 1))
    return "".join(out)


def _struct_ply(mesh) -> bytes:
    out = [(
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(mesh.vertices)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property double nx\nproperty double ny\nproperty double nz\n"
        f"element face {len(mesh.faces)}\n"
        "property list uchar int vertex_indices\nend_header\n"
    ).encode("ascii")]
    out.append(np.hstack([mesh.vertices, mesh.normals]).astype("<f8").tobytes())
    for f in mesh.faces:
        out.append(struct.pack("<Biii", 3, int(f[0]), int(f[1]), int(f[2])))
    return b"".join(out)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n_r=st.integers(2, 12),
    n_theta=st.integers(2, 16),
    quotient=st.booleans(),
    wrap=st.booleans(),
    r_min=st.sampled_from([0.125, 0.2]),
    block=st.sampled_from([1, 7, meshing.OBJ_BLOCK]),
)
def test_vectorised_output_matches_per_record_oracles(
    tmp_path_factory, n_r, n_theta, quotient, wrap, r_min, block
):
    assume(not (quotient and n_theta < 4))
    spec = SamplingSpec(r_min=r_min, n_r=n_r, n_theta=n_theta,
                        quotient=quotient, wrap=wrap)
    mesh = build_mesh(surface_hm(3), spec)
    want = _loop_faces(spec)
    assert mesh.faces.dtype == want.dtype and mesh.faces.shape == want.shape
    assert np.array_equal(mesh.faces, want)

    out = tmp_path_factory.mktemp("oracle")
    with pytest.MonkeyPatch.context() as mp:
        # small blocks put block boundaries inside every record kind
        mp.setattr(meshing, "OBJ_BLOCK", block)
        write_obj(mesh, out / "m.obj")
        obj_back = read_obj(out / "m.obj")
    assert (out / "m.obj").read_text() == _per_record_obj(mesh)
    write_ply(mesh, out / "m.ply")
    assert (out / "m.ply").read_bytes() == _struct_ply(mesh)
    for back in (obj_back, read_ply(out / "m.ply")):
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.normals, mesh.normals)
        assert back.faces.dtype == np.int32 and np.array_equal(back.faces, want)
