import decimal
import io
import itertools
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from henneberg import (
    DomainError,
    Mesh,
    SamplingSpec,
    SurfaceMap,
    build_mesh,
    cli,
    family_theta2,
    meshing,
    read_obj,
    read_ply,
    surface_h1,
    surface_hm,
    surface_integrated,
    surface_limit_m2,
    symmetric_example,
    write_obj,
    write_ply,
)
from henneberg.surfaces import surface_associated, surface_conjugate


SMALL = SamplingSpec(n_r=9, n_theta=16)


class TestSamplingSpec:
    def test_defaults(self):
        spec = SamplingSpec()
        assert spec.n_r == 129 and spec.n_theta == 256
        assert np.abs(spec.radii[::-1] * spec.radii - 1.0).max() < 1e-9

    def test_validation(self):
        with pytest.raises(DomainError):
            SamplingSpec(r_min=2.0, r_max=1.0)
        with pytest.raises(DomainError):
            SamplingSpec(n_r=1)

    @pytest.mark.parametrize("bounds", [(0.125, math.inf), (0.125, math.nan),
                                        (math.nan, 8.0), (-math.inf, 8.0)])
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(DomainError, match="r_max < inf"):
            SamplingSpec(r_min=bounds[0], r_max=bounds[1])

    @pytest.mark.parametrize("n_theta", [2, 3])
    def test_quotient_needs_two_columns(self, n_theta):
        # one column would be glued to itself by the seam
        with pytest.raises(DomainError, match="n_theta >= 4"):
            SamplingSpec(n_r=5, n_theta=n_theta, quotient=True)
        assert len(SamplingSpec(n_r=5, n_theta=4, quotient=True).thetas) == 2
        assert len(SamplingSpec(n_r=5, n_theta=n_theta).thetas) == n_theta

    @pytest.mark.parametrize("bounds", [(0.2, 8.0), (0.125, 4.0), (1e10, 1e300), (0.5, 1.5)])
    def test_quotient_needs_inversion_symmetric_radii(self, bounds):
        # the seam glues r to 1/r: on any other grid it would join
        # points that are not the same point of the surface
        with pytest.raises(DomainError, match=r"r_min \* r_max = 1"):
            SamplingSpec(r_min=bounds[0], r_max=bounds[1], quotient=True)
        SamplingSpec(r_min=bounds[0], r_max=bounds[1])

    @pytest.mark.parametrize("bounds", [(0.2, 5.0), (0.5, 2.0), (1e-200, 1e200)])
    def test_quotient_accepts_inversion_symmetric_radii(self, bounds):
        spec = SamplingSpec(r_min=bounds[0], r_max=bounds[1], quotient=True)
        assert np.abs(spec.radii[::-1] * spec.radii - 1.0).max() < 1e-9


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


#: every selector whose deck map z -> -1/conj(z) fixes the surface
ONE_SIDED = {"h1": surface_h1(), "limit-m2": surface_limit_m2()}
ONE_SIDED.update({f"hm-{m}": surface_hm(m) for m in range(1, 13)})
ONE_SIDED.update({f"family-{t:.4g}": surface_integrated(family_theta2(t).weierstrass())
                  for t in (0.8, 0.9, 1.0, math.pi / 3, 2.2, 2.3)})
ONE_SIDED.update({f"associated-{m}-{phi:.4g}": surface_associated(symmetric_example(m), phi)
                  for m in range(1, 5) for phi in (0.0, math.pi, 2 * math.pi)})

#: selectors whose deck map is an isometry other than the identity
TWO_SIDED = {f"conjugate-{m}": surface_conjugate(m) for m in range(1, 12, 2)}
TWO_SIDED.update({f"associated-{m}-{phi:.4g}": surface_associated(symmetric_example(m), phi)
                  for m in range(1, 5) for phi in (0.1, 0.7, math.pi / 2, 2.5, 4.0)})


def _seam_gap(smap):
    """max |X(r_i, pi) - X(r_{n-1-i}, 0)| over the default quotient radii,
    the pairs the quotient seam glues, relative to max |X| there."""
    radii = SamplingSpec(quotient=True).radii
    at_pi, at_zero = smap(radii, math.pi), smap(radii[::-1], 0.0)
    return np.abs(at_pi - at_zero).max() / max(np.abs(at_pi).max(), np.abs(at_zero).max())


class TestQuotientSeam:
    @pytest.mark.parametrize("name", ONE_SIDED)
    def test_one_sided_seam_points_agree(self, name):
        # measured worst: 1.7e-15 (hm 12)
        assert _seam_gap(ONE_SIDED[name]) < 1e-14

    @pytest.mark.parametrize("name", TWO_SIDED)
    def test_two_sided_seam_points_differ(self, name):
        # their quotient seam would join distant points (measured: 2.0 for
        # every conjugate, at least 0.188 for associated m = 2, phi = 0.1)
        assert _seam_gap(TWO_SIDED[name]) > 0.1


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
    "f /1 2 3 3\n",
    "f 1 2 3 /3/3\n",
    "f 1 2 //3 3\n",
    "v 1e400 0 0\n",
    "vn 0 -1e999 0\n",
], ids=["v-two", "v-word", "v-four", "v-bare", "vn-two", "vn-ragged",
        "f-quad", "f-two", "f-word", "f-no-vertex", "f-zero", "f-past-end",
        "f-negative", "f-wraps-int32", "f-four-one-without-vertex",
        "f-four-last-without-vertex", "f-four-only-normal", "v-overflows",
        "vn-overflows"])
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
    # a bad record after the first block (write_obj) or chunk (read_obj)
    # is still found
    monkeypatch.setattr(meshing, "OBJ_BLOCK", 2)
    monkeypatch.setattr(meshing, "OBJ_CHUNK", 16)
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 3\nv 1 2\n")
    with pytest.raises(DomainError):
        read_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 3 2 1\n")
    assert read_obj(path).faces.tolist() == [[0, 1, 2], [2, 1, 0]]


def test_obj_reader_skips_any_bytes_in_skipped_lines(tmp_path):
    path = tmp_path / "m.obj"
    path.write_bytes(b"# caf\xe9\nv 0 0 0\nv 1 0 0\nv 0 1 0\no \xff\xfe\n"
                     b"vt \x80 0\n\xe9 v 1 2\nf 1 2 3\n")
    mesh = read_obj(path)
    assert mesh.vertices.shape == (3, 3) and mesh.faces.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("record", [
    b"v 0 0 0\xe9\n",
    b"vn 0 \xff 1\n",
    b"v 1 2 \xc3\xa93\n",
    b"f 1 2 3\xe9\n",
    b"f 1/\xe9 2 3\n",
], ids=["v-latin-1", "vn-byte", "v-utf-8", "f-latin-1", "f-in-tail"])
def test_obj_reader_refuses_bytes_outside_ascii_in_records(tmp_path, record):
    # the file once reached a raw UnicodeDecodeError
    path = tmp_path / "m.obj"
    path.write_bytes(b"v 0 0 0\nv 1 0 0\nv 0 1 0\n" + record)
    with pytest.raises(DomainError, match="m.obj"):
        read_obj(path)


@pytest.mark.parametrize("fmt", ["obj", "ply"])
@pytest.mark.parametrize("what", ["vertices", "normals"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_readers_refuse_non_finite(tmp_path, fmt, what, value):
    # the per-record oracles write the files the writers refuse to write
    mesh = build_mesh(surface_hm(2), SamplingSpec(n_r=3, n_theta=4))
    getattr(mesh, what)[5, 1] = value
    path = tmp_path / f"m.{fmt}"
    if fmt == "obj":
        path.write_text(_per_record_obj(mesh))
    else:
        path.write_bytes(_struct_ply(mesh))
    with pytest.raises(DomainError, match=rf"m\.{fmt} contains non-finite {what}"):
        (read_obj if fmt == "obj" else read_ply)(path)


@pytest.mark.parametrize("what", ["vertices", "normals"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_writers_refuse_non_finite(tmp_path, what, value):
    mesh = build_mesh(surface_hm(2), SamplingSpec(n_r=3, n_theta=4))
    getattr(mesh, what)[5, 1] = value
    for writer, name in ((write_obj, "out.obj"), (write_ply, "out.ply")):
        out = tmp_path / name
        with pytest.raises(DomainError, match=f"{name} contains non-finite {what}"):
            writer(mesh, out)
        assert not out.exists()


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


@pytest.mark.parametrize("index", [-1, -12, 12, 999])
def test_writers_refuse_face_indices_out_of_range(tmp_path, index):
    # write_obj once wrote "f 0//0" for -1, and both writers wrote indices
    # past the end that their own readers refuse
    mesh = build_mesh(surface_hm(2), SamplingSpec(n_r=3, n_theta=4))
    assert len(mesh.vertices) == 12
    mesh.faces = mesh.faces.copy()
    mesh.faces[-1, 1] = index
    for writer, name in ((write_obj, "out.obj"), (write_ply, "out.ply")):
        out = tmp_path / name
        with pytest.raises(DomainError, match="out of range"):
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
    if spec.quotient:
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
    r_min=st.sampled_from([0.125, 0.2]),
    block=st.sampled_from([1, 7, meshing.OBJ_BLOCK]),
)
def test_vectorised_output_matches_per_record_oracles(
    tmp_path_factory, n_r, n_theta, quotient, r_min, block
):
    assume(not (quotient and n_theta < 4))
    if quotient and r_min == 0.2:
        # 0.2 * 8 != 1: a quotient grid the seam cannot glue is refused
        with pytest.raises(DomainError, match=r"r_min \* r_max = 1"):
            SamplingSpec(r_min=r_min, n_r=n_r, n_theta=n_theta, quotient=True)
        return
    spec = SamplingSpec(r_min=r_min, n_r=n_r, n_theta=n_theta, quotient=quotient)
    mesh = build_mesh(surface_hm(3), spec)
    want = _loop_faces(spec)
    assert mesh.faces.dtype == want.dtype and mesh.faces.shape == want.shape
    assert np.array_equal(mesh.faces, want)

    out = tmp_path_factory.mktemp("oracle")
    with pytest.MonkeyPatch.context() as mp:
        # small blocks and chunks put their boundaries inside every record
        # kind, and small chunks inside records
        mp.setattr(meshing, "OBJ_BLOCK", block)
        mp.setattr(meshing, "OBJ_CHUNK", block)
        write_obj(mesh, out / "m.obj")
        obj_back = read_obj(out / "m.obj")
    assert (out / "m.obj").read_text() == _per_record_obj(mesh)
    write_ply(mesh, out / "m.ply")
    assert (out / "m.ply").read_bytes() == _struct_ply(mesh)
    for back in (obj_back, read_ply(out / "m.ply")):
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.normals, mesh.normals)
        assert back.faces.dtype == np.int32 and np.array_equal(back.faces, want)


def test_default_grid_obj_matches_per_record_oracle(tmp_path):
    mesh = build_mesh(surface_hm(3))
    write_obj(mesh, tmp_path / "m.obj")
    assert (tmp_path / "m.obj").read_text() == _per_record_obj(mesh)


def _kernel_text(values) -> list:
    """Each value as write_obj's float kernel renders it."""
    x = np.asarray(values, dtype=np.float64)
    text = np.zeros((len(x), meshing._FLOAT_WIDTH), np.uint8)
    keep = np.zeros(text.shape, bool)
    meshing._float_fields(x, text, keep)
    return [row[mask].tobytes().decode("ascii") for row, mask in zip(text, keep)]


#: every power of ten a double reaches, and its neighbours both ways; the
#: fast path covers 1e-6 <= |x| < 1e17
_TENS = np.array([float(f"1e{e}") for e in range(-323, 309)])
_NEAR_TENS = np.concatenate([np.nextafter(_TENS, 0), _TENS, np.nextafter(_TENS, np.inf)])

_FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
    .filter(np.isfinite),
    st.sampled_from(_NEAR_TENS.tolist()),
    st.integers(-2**54, 2**54).map(lambda n: n / 2),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(_FINITE_DOUBLES, min_size=1, max_size=40).map(
    lambda v: v + [-x for x in v]))
def test_float_kernel_matches_percent_format(values):
    assert _kernel_text(values) == ["%.17g" % v for v in values]


def test_float_kernel_edges_and_bulk():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64)
    values = np.concatenate([
        _NEAR_TENS, -_NEAR_TENS, [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308],
        bits.view(np.float64)[np.isfinite(bits.view(np.float64))],
        10 ** rng.uniform(-7, 18, 20000) * rng.choice([-1, 1], 20000),
        np.arange(-4000, 4000) / 2,
    ])
    assert _kernel_text(values) == ["%.17g" % v for v in values.tolist()]


# ---------------------------------------------------------------------------
# The line-by-line reader read_obj had before it parsed byte chunks by
# record kind, kept as an oracle for what it accepts and returns.
# ---------------------------------------------------------------------------

_ORACLE_BLOCK = 4096

# the optional /texture/normal fields after a face's vertex index; a token
# that starts with "/" keeps it, so its missing vertex index fails to parse
_FACE_FIELD_TAIL = re.compile(r"(?<=\S)/\S*")


def _line_by_line_read_obj(path) -> Mesh:
    parts = {"v": [np.empty((0, 3))], "vn": [np.empty((0, 3))],
             "f": [np.empty((0, 3), dtype=np.int64)]}
    with open(path) as fh:
        for block in iter(lambda: list(itertools.islice(fh, _ORACLE_BLOCK)), []):
            rests = {kind: [] for kind in parts}
            for line in block:
                head = line.split(None, 1)
                if head and head[0] in rests:
                    # a bare kind token stands in for its missing fields,
                    # and fails to parse as a number
                    rests[head[0]].append(head[-1])
            for kind, lines in rests.items():
                if lines:
                    parts[kind].append(_line_by_line_records(path, kind, lines))
    vertices, normals, faces = (np.concatenate(parts[k]) for k in ("v", "vn", "f"))
    mesh = Mesh(vertices=vertices, normals=normals, faces=faces).check_records(path)
    mesh.faces = faces.astype(np.int32)
    return mesh


def _line_by_line_records(path, kind: str, lines: list) -> np.ndarray:
    try:
        if kind == "f":
            text = io.StringIO(_FACE_FIELD_TAIL.sub("", "".join(lines)))
            rows = np.loadtxt(text, dtype=np.int64, ndmin=2, comments=None) - 1
        else:
            rows = np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError:  # a token that is not a number, or ragged rows
        pass
    else:
        if rows.shape == (len(lines), 3):
            return rows
    raise DomainError(f"{path}: malformed OBJ '{kind}' record")


#: wide enough for the exact decimal of any double
_EXACT = decimal.Context(prec=1200)


def _midpoint(x: float) -> decimal.Decimal:
    """The exact decimal halfway between x and the next double up."""
    up = decimal.Decimal(float(np.nextafter(x, np.inf)))
    return _EXACT.divide(_EXACT.add(decimal.Decimal(x), up), 2)


def _near_tie(x: float, digits: int, rounding: str) -> str:
    """x's midpoint rounded to digits significant digits, in fixed notation."""
    return f"{decimal.Context(prec=digits, rounding=rounding).plus(_midpoint(x)):f}"


def _with_point(digits: int, at: int, sign: str) -> str:
    text = str(digits)
    return f"{sign}{text[:at]}.{text[at:]}"


_BELOW_MAX = _FINITE_DOUBLES.filter(lambda x: abs(x) < 1.7e308)

#: every decimal form: integers, repr, "%.17g" and "%.20f" of any double,
#: exponents, signed zeros and bare points, 18- to 23-digit mantissas, and
#: the midpoints of doubles written in full or to 18 or 19 digits
_NUMBER = st.one_of(
    st.integers(-99, 99).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _FINITE_DOUBLES.map(lambda x: "%.17g" % x),
    _FINITE_DOUBLES.map(lambda x: "%.20f" % x),
    st.sampled_from(["0", "-0", "-0.0", "+0", "+1.5", ".5", "-.5", "1.", "007.25",
                     "1e5", "-2.5E-3", "+7e+2", "9223372036854775807", "-9223372036854775808",
                     "4611686018427387904", "4611686018427387903.5"]),
    st.builds(_with_point, st.integers(10**17, 10**23 - 1), st.integers(0, 23),
              st.sampled_from(["", "-", "+"])),
    _BELOW_MAX.map(lambda x: f"{_midpoint(x):f}"),
    st.builds(_near_tie, _BELOW_MAX, st.sampled_from([18, 19]),
              st.sampled_from([decimal.ROUND_FLOOR, decimal.ROUND_CEILING])),
)
_WORD = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)


@st.composite
def _obj_text(draw):
    """ASCII OBJ text: six vertices among well-formed v/vn/f records and
    skipped kinds, in every face form, with indents, tabs, the other ASCII
    whitespace and LF, CRLF and CR line ends; half the texts hold one
    malformed record as well."""
    ref = st.tuples(st.integers(1, 6), st.sampled_from(["", "/2", "//3", "/2/3", "/", "/x"]))
    lines = [["v", *draw(st.lists(_NUMBER, min_size=3, max_size=3))] for _ in range(6)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["v", "vn", "f", "f", "vt", "#", "o", ""]))
        if kind == "f":
            fields = [f"{a}{tail}" for a, tail in draw(st.lists(ref, min_size=3, max_size=3))]
        elif kind in ("v", "vn", "vt"):
            fields = draw(st.lists(_NUMBER, min_size=3, max_size=3))
        else:
            fields = draw(st.lists(_WORD, max_size=3))
        lines.append([kind, *fields])
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["v", "vn", "f"]))
        fields = ["1" if kind == "f" else "0.5"] * draw(st.integers(0, 4))
        if len(fields) >= 3:
            fields[draw(st.integers(0, 2))] = draw(
                st.sampled_from(["x", "/1", "0", "-1", "7", "1.5", "1e400"]))
        lines.append([kind, *fields])
    text = "".join(
        draw(st.sampled_from(["", "", "", " ", "\t", " \t ", "\x0c"]))
        + draw(st.sampled_from([" ", " ", "\t", "  ", "\x1f", " \x0b"])).join(line)
        + draw(st.sampled_from(["\n", "\r\n", "\r"]))
        for line in draw(st.permutations(lines))
    )
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_obj_text(), chunk=st.sampled_from([1, 7, 64]))
def test_chunked_obj_reader_matches_line_by_line_oracle(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("obj") / "m.obj"
    path.write_bytes(text.encode("ascii"))
    try:
        want = _line_by_line_read_obj(path)
    except DomainError:
        want = None
    with pytest.MonkeyPatch.context() as mp:
        # small chunks split records, and CRLF line ends, between chunks
        mp.setattr(meshing, "OBJ_CHUNK", chunk)
        if want is None:
            with pytest.raises(DomainError):
                read_obj(path)
            return
        got = read_obj(path)
    for what in ("vertices", "normals", "faces"):
        a, b = getattr(got, what), getattr(want, what)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _integer_route(token: str) -> bool:
    """Whether read_obj reads the decimal token without np.loadtxt."""
    m = re.fullmatch(r"[-+]?([0-9]*)\.?([0-9]*)", token)
    if not (m and (digits := m[1] + m[2])) or int(digits) >= 2**62 or len(m[2]) > 22:
        return False
    # and not an exact tie: halfway between two neighbouring doubles
    value, x = decimal.Decimal(token), float(token)
    below = x if value > decimal.Decimal(x) else float(np.nextafter(x, -np.inf))
    return value != _midpoint(below)


def test_decimal_fields_read_like_float(tmp_path, monkeypatch):
    # each field is the double float() gives for its token, and every token
    # that _integer_route names is read without np.loadtxt
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2**64, 3000, dtype=np.uint64).view(np.float64)
    scaled = 10 ** rng.uniform(-4, 18, 3000) * rng.choice([-1.0, 1.0], 3000)
    tokens = ["%.17g" % x for x in bits[np.isfinite(bits)].tolist()]
    tokens += ["%.17g" % x for x in scaled.tolist()] + ["%.20f" % x for x in scaled.tolist()]
    for x in scaled.tolist():
        tokens += [_near_tie(x, digits, rounding) for digits in (18, 19)
                   for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING)]
    wide = 2.0 ** rng.uniform(50, 54, 500)  # midpoints of at most 19 digits
    tokens += [f"{_midpoint(x):f}" for x in wide.tolist()]
    tokens += ["99999999999999999999.5", "-99999999999999999999.5", "-9223372036854775808",
               "9223372036854775808.0", "4611686018427387904", "4611686018427387903", "-0"]
    tokens += ["0"] * (-len(tokens) % 3)
    path = tmp_path / "m.obj"
    path.write_text("".join(f"v {a} {b} {c}\n" for a, b, c in zip(*[iter(tokens)] * 3)))
    real, loaded = np.loadtxt, []

    def counting(fname, **kwargs):
        loaded.extend(fname.getvalue().split())
        return real(io.StringIO(fname.getvalue()), **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    got = read_obj(path).vertices.ravel()
    assert got.tobytes() == np.array([float(t) for t in tokens]).tobytes()
    assert sorted(loaded) == sorted(t for t in tokens if not _integer_route(t))
    assert len(loaded) < len(tokens) / 2


@pytest.mark.parametrize("record, row", [
    (b"v 1.5.2 0 0\n", None),
    (b"v 1-2.5 0 0\n", None),
    (b"v --1.5 0 0\n", None),
    (b"v 1_0.5 0 0\n", None),
    (b"v 0x10 0 0\n", None),
    (b"v 1.5\x00 0 0\n", None),
    (b"v 1.5\x1c2\x1c3\n", [1.5, 2.0, 3.0]),
    (b"f 99999999999999999999//1 2//2 3//3\n", None),
    (b"f 000000001//1 00000002/5 +3\n", [0, 1, 2]),
], ids=["two-points", "inner-sign", "two-signs", "underscore", "hex", "nul",
        "file-separators", "f-past-int64", "f-nine-digits-and-sign"])
def test_obj_reader_odd_tokens(tmp_path, record, row):
    # np.loadtxt's outcome for the whole record: a token that float() or
    # np.loadtxt refuses is malformed, and bytes 28..31 split fields
    path = tmp_path / "m.obj"
    path.write_bytes(b"v 0 0 0\nv 1 0 0\nv 0 1 0\n" + record)
    if row is None:
        with pytest.raises(DomainError):
            read_obj(path)
    else:
        mesh = read_obj(path)
        assert (mesh.faces[0] if record.startswith(b"f") else mesh.vertices[3]).tolist() == row


@pytest.mark.parametrize("stop", ["warn", "raise"])
def test_decimals_fall_back_where_fromstring_stops(tmp_path, monkeypatch, stop):
    # on data it cannot read, np.fromstring raises in numpy 2 but in numpy
    # 1.x warns (DeprecationWarning) and returns what it read so far
    mesh = build_mesh(surface_h1(), SMALL)
    path = tmp_path / "m.obj"
    write_obj(mesh, path)
    real = np.fromstring
    message = "string or file could not be read to its end due to unmatched data"

    def stops_early(*args, **kwargs):
        if stop == "raise":
            raise ValueError(message)
        warnings.warn(message, DeprecationWarning)
        return real(*args, **kwargs)[:-1]

    monkeypatch.setattr(np, "fromstring", stops_early)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_obj(path)
    assert back.vertices.tobytes() == mesh.vertices.tobytes()
    assert back.normals.tobytes() == mesh.normals.tobytes()


@pytest.mark.parametrize("text", ["# only a comment\n", "v 1 2 3\nvn 0 0 1\n"],
                         ids=["empty", "point-cloud"])
@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_meshes_without_faces_or_vertices_round_trip(tmp_path, text, fmt):
    # write_obj once raised numpy's reshape ValueError on an empty kind,
    # after writing the v records
    source = tmp_path / "in.obj"
    source.write_text(text)
    mesh = read_obj(source)
    assert mesh.faces.shape == (0, 3)
    path = tmp_path / f"out.{fmt}"
    (write_obj if fmt == "obj" else write_ply)(mesh, path)
    if fmt == "obj":
        assert path.read_text() == _per_record_obj(mesh)
    back = (read_obj if fmt == "obj" else read_ply)(path)
    for what in ("vertices", "normals", "faces"):
        a, b = getattr(back, what), getattr(mesh, what)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_empty_mesh_validates():
    # validate() once raised numpy's "zero-size array to reduction" ValueError
    empty = np.empty((0, 3))
    mesh = Mesh(vertices=empty, normals=empty, faces=np.empty((0, 3), np.int32))
    assert mesh.validate() is mesh


def _parse_texts(monkeypatch) -> list:
    """Record, per text read_obj hands to _parse_records, whether it is a
    slice of the chunk's buffer (True) or a selection of its bytes."""
    seen, real = [], meshing._parse_records

    def spy(path, kind, text, lf):
        seen.append(text.base is not None)
        return real(path, kind, text, lf)

    monkeypatch.setattr(meshing, "_parse_records", spy)
    return seen


def _interleaved(text: str) -> str:
    """The lines of text taken in turn from its v, vn and f runs."""
    runs = {}
    for line in text.splitlines(keepends=True):
        runs.setdefault(line.split()[0], []).append(line)
    return "".join(itertools.chain(*itertools.zip_longest(*runs.values(), fillvalue="")))


_LAYOUTS = {
    "as-written": lambda t: t,
    "interleaved": _interleaved,
    "cr": lambda t: t.replace("\n", "\r"),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "indented": lambda t: re.sub("(?m)^", " \t", t),
    "interleaved-crlf": lambda t: _interleaved(t).replace("\n", "\r\n"),
}


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("chunk", [meshing.OBJ_CHUNK, 1000])
def test_obj_reader_layouts_match_line_by_line_oracle(tmp_path, monkeypatch, layout, chunk):
    # a kind's lines in one run (blank lines aside) are read as a slice of
    # the chunk, interleaved lines through a per-byte selection; at 1000
    # bytes a chunk ends inside each run, and a run starts inside a chunk
    mesh = build_mesh(surface_h1(), SMALL)
    path = tmp_path / "m.obj"
    write_obj(mesh, path)
    path.write_bytes(_LAYOUTS[layout](path.read_text()).encode("ascii"))
    want = _line_by_line_read_obj(path)
    monkeypatch.setattr(meshing, "OBJ_CHUNK", chunk)
    sliced = _parse_texts(monkeypatch)
    got = read_obj(path)
    for what in ("vertices", "normals", "faces"):
        a, b = getattr(got, what), getattr(want, what)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.vertices.tobytes() == mesh.vertices.tobytes()
    assert all(sliced) != layout.startswith("interleaved")


def test_writer_takes_any_array_layout(tmp_path):
    # the writer gathers rows of arrays it builds itself; a Fortran-ordered
    # or strided mesh and int64 faces write the bytes of their C-contiguous
    # int32 copy
    mesh = build_mesh(surface_hm(3), SMALL)
    write_obj(mesh, tmp_path / "c.obj")
    wide = np.zeros((len(mesh.vertices), 7))
    wide[:, 1:6:2] = mesh.normals
    odd = Mesh(vertices=np.asfortranarray(mesh.vertices), normals=wide[:, 1:6:2],
               faces=np.asfortranarray(mesh.faces.astype(np.int64)))
    assert not odd.vertices.flags.c_contiguous and not odd.normals.flags.c_contiguous
    write_obj(odd, tmp_path / "odd.obj")
    assert (tmp_path / "odd.obj").read_bytes() == (tmp_path / "c.obj").read_bytes()


def test_ply_writer_takes_any_dtype_and_layout(tmp_path):
    # write_ply fills one <f8 record buffer: float32 vertices, Fortran-ordered
    # normals and int64 faces write the bytes of their float64/int32 copy
    mesh = build_mesh(surface_h1(), SMALL)
    odd = Mesh(vertices=mesh.vertices.astype(np.float32),
               normals=np.asfortranarray(mesh.normals),
               faces=mesh.faces.astype(np.int64))
    assert not odd.normals.flags.c_contiguous
    write_ply(odd, tmp_path / "odd.ply")
    plain = Mesh(vertices=odd.vertices.astype(np.float64), normals=mesh.normals,
                 faces=mesh.faces.astype(np.int32))
    assert (tmp_path / "odd.ply").read_bytes() == _struct_ply(plain)


_ROWS = hnp.arrays(
    np.float64, st.tuples(st.integers(0, 40), st.just(3)),
    elements=st.floats(allow_nan=False, width=64)
    | st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 1.4e154, 1e300]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ROWS)
@example(np.zeros((2, 3)))
@example(np.array([[5e-324, 2.2e-308, -1e-310], [1e200, 1e154, -1e160]]))
def test_row_norm_is_linalg_norm(x):
    # squares of subnormals flush to zero and squares past 1.3e154 overflow
    # alike in both; the explicit sum is the reduction's left-to-right order
    with np.errstate(over="ignore"):
        assert meshing._row_norm(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()


@pytest.mark.parametrize("scale, ok", [(1 + 2e-6, False), (1 + 5e-7, True),
                                       (1 - 2e-6, False), (1 - 5e-7, True)])
def test_validate_refuses_non_unit_normals(scale, ok):
    mesh = build_mesh(surface_h1(), SMALL)
    mesh.normals[5] *= scale
    if ok:
        assert mesh.validate() is mesh
    else:
        with pytest.raises(DomainError, match="normals are not unit length"):
            mesh.validate()


def _meshgrid_mesh(smap, spec):
    """What build_mesh samples, from full (n_r, n_theta) meshgrid input."""
    rr, tt = np.meshgrid(spec.radii, spec.thetas, indexing="ij")
    nrm = smap.normal_at(rr, tt)
    return smap(rr, tt).reshape(-1, 3), (nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)).reshape(-1, 3)


_PARTIAL_MAPS = {
    # an evaluator that reads only r, a normal that reads only theta
    "radial": SurfaceMap("radial", lambda r, t: np.stack([r, 2 * r, 1 / r], axis=-1),
                         lambda r, t: np.stack([np.cos(t), np.sin(t), 0.5 + 0 * t], axis=-1)),
    # and the reverse
    "angular": SurfaceMap("angular", lambda r, t: np.stack([np.cos(t), np.sin(t), t], axis=-1),
                          lambda r, t: np.stack([r, 0 * r, 1 + 0 * r], axis=-1)),
    "h1": surface_h1(),
    "hm-6": surface_hm(6),
}


@pytest.mark.parametrize("name", _PARTIAL_MAPS)
@pytest.mark.parametrize("spec", [SMALL, SamplingSpec(n_r=7, n_theta=12, quotient=True),
                                  SamplingSpec(n_r=2, n_theta=3)])
def test_build_mesh_broadcasts_like_meshgrid(name, spec):
    # build_mesh passes a column of radii and a row of angles; a map that
    # reads one of them still meshes every grid point, and every map
    # gives the bytes of full meshgrid input
    smap = _PARTIAL_MAPS[name]
    mesh = build_mesh(smap, spec)
    vertices, normals = _meshgrid_mesh(smap, spec)
    n = spec.n_r * len(spec.thetas)
    assert mesh.vertices.shape == mesh.normals.shape == (n, 3)
    assert mesh.vertices.tobytes() == vertices.tobytes()
    assert mesh.normals.tobytes() == normals.tobytes()
    assert mesh.vertices.flags.writeable and mesh.vertices.flags.c_contiguous
    assert np.array_equal(mesh.faces, _loop_faces(spec))


@pytest.mark.parametrize("argv", [["h1"], ["hm-even", "--m", "6"], ["family", "--theta2", "1.0"]])
def test_generate_evaluates_each_map_once(tmp_path, monkeypatch, argv):
    # one SurfaceMap.__call__ for the points and one normal_at for the
    # normals per mesh: bench/tracing.py times each __call__ as one span
    calls = []
    for name in ("__call__", "normal_at"):
        real = getattr(SurfaceMap, name)
        monkeypatch.setattr(SurfaceMap, name, lambda self, r, t, real=real, name=name:
                            calls.append(name) or real(self, r, t))
    out = tmp_path / "m.ply"
    argv = ["generate", *argv, "--nr", "9", "--ntheta", "16", "--format", "ply", "--out", str(out)]
    assert cli.main(argv) == 0
    assert sorted(calls) == ["__call__", "normal_at"]
    assert len(read_ply(out).vertices) == 9 * 16
