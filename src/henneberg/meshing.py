"""Tessellation of surface patches and OBJ/PLY export.

Surfaces are sampled on a log-radial x angular grid over the punctured
plane.  The quotient flag halves the fundamental domain to theta in [0, pi)
and, when the radial grid is inversion-symmetric, glues the theta = pi seam
to theta = 0 with the radial order reversed (the antipodal identification,
producing the non-orientable quotient mesh).
"""

from __future__ import annotations

import io
import itertools
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .surfaces import SurfaceMap

#: decimal digits used for OBJ floats; 17 significant digits round-trip
OBJ_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class SamplingSpec:
    """Grid resolution and domain for tessellation."""

    r_min: float = 0.125
    r_max: float = 8.0
    n_r: int = 129
    n_theta: int = 256
    quotient: bool = False
    wrap: bool = True

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise DomainError("need 0 < r_min < r_max")
        if self.n_r < 2 or self.n_theta < 2:
            raise DomainError("resolutions must be at least 2")
        if self.quotient and self.n_theta < 4:
            raise DomainError("quotient grids need n_theta >= 4 (at least 2 columns)")

    @property
    def radii(self) -> np.ndarray:
        return np.exp(
            np.linspace(np.log(self.r_min), np.log(self.r_max), self.n_r)
        )

    @property
    def thetas(self) -> np.ndarray:
        if self.quotient:
            cols = self.n_theta // 2
            if self.wrap:
                return np.linspace(0.0, np.pi, cols, endpoint=False)
            return np.linspace(0.0, np.pi, cols)
        if self.wrap:
            return np.linspace(0.0, 2 * np.pi, self.n_theta, endpoint=False)
        return np.linspace(0.0, 2 * np.pi, self.n_theta)

    @property
    def inversion_symmetric(self) -> bool:
        r = self.radii
        return bool(np.abs(r[::-1] * r - 1.0).max() < 1e-9)

    def to_dict(self) -> dict:
        return {
            "r_min": self.r_min,
            "r_max": self.r_max,
            "n_r": self.n_r,
            "n_theta": self.n_theta,
            "quotient": self.quotient,
            "wrap": self.wrap,
        }


@dataclass
class Mesh:
    """Indexed triangle mesh with per-vertex unit normals."""

    vertices: np.ndarray
    normals: np.ndarray
    faces: np.ndarray
    metadata: dict = field(default_factory=dict)

    def validate(self):
        if not np.all(np.isfinite(self.vertices)):
            raise DomainError("mesh contains non-finite vertices")
        if not np.all(np.isfinite(self.normals)):
            raise DomainError("mesh contains non-finite normals")
        lengths = np.linalg.norm(self.normals, axis=1)
        if np.abs(lengths - 1.0).max() > 1e-6:
            raise DomainError("normals are not unit length")
        return self.check_face_range()

    def check_face_range(self, source="mesh"):
        """Raise DomainError, naming source, unless every face index lies in
        [0, len(vertices)); the readers check this much of a foreign file."""
        if self.faces.size and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise DomainError(f"{source}: face index out of range for "
                              f"{len(self.vertices)} vertices")
        return self


def build_mesh(smap: SurfaceMap, spec: SamplingSpec = SamplingSpec()) -> Mesh:
    """Sample the surface on the grid and triangulate.

    Vertex layout is row-major over (radius, theta); wrap closes the angular
    seam, and quotient meshes glue theta=pi back to theta=0 with the radial
    order reversed when the grid is inversion-symmetric.
    """
    radii = spec.radii
    thetas = spec.thetas
    rr, tt = np.meshgrid(radii, thetas, indexing="ij")
    pts = smap(rr, tt)
    nrm = smap.normal_at(rr, tt)
    nrm = nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)

    n_r, n_t = rr.shape
    vid = np.arange(n_r * n_t, dtype=np.int32).reshape(n_r, n_t)
    # a--b on row i, d--c on row i+1, one quad per row-major (i, j)
    quads = [(vid[:-1, :-1], vid[:-1, 1:], vid[1:, 1:], vid[1:, :-1])]
    if spec.wrap:
        if spec.quotient:
            if spec.inversion_symmetric:
                # antipodal gluing: (r, pi) ~ (1/r, 0), radial order reversed
                rev = vid[::-1, 0]
                quads.append((vid[:-1, -1], rev[:-1], rev[1:], vid[1:, -1]))
        else:
            quads.append((vid[:-1, -1], vid[:-1, 0], vid[1:, 0], vid[1:, -1]))
    # each quad splits into the triangles (a, b, c) and (a, c, d)
    faces = np.concatenate([
        np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
        for a, b, c, d in quads
    ])

    mesh = Mesh(
        vertices=pts.reshape(-1, 3),
        normals=nrm.reshape(-1, 3),
        faces=faces,
        metadata={"surface": smap.name, "sampling": spec.to_dict()},
    )
    return mesh.validate()


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

#: records formatted or parsed per block; bounds the text held in memory
OBJ_BLOCK = 4096

# the optional /texture/normal fields after a face's vertex index; a token
# that starts with "/" keeps it, so its missing vertex index fails to parse
_FACE_FIELD_TAIL = re.compile(r"(?<=\S)/\S*")


def _write_records(fh, fmt: str, rows: np.ndarray):
    for start in range(0, len(rows), OBJ_BLOCK):
        chunk = rows[start:start + OBJ_BLOCK]
        fh.write((fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


def _require_vertex_normals(mesh: Mesh, path):
    """Both writers store one normal per vertex (OBJ faces as a//a)."""
    if mesh.normals.shape != mesh.vertices.shape:
        raise DomainError(f"{path}: cannot write {len(mesh.normals)} normals "
                          f"for {len(mesh.vertices)} vertices (need one each)")


def write_obj(mesh: Mesh, path):
    """Write v/vn/f records; floats carry 17 significant digits so a
    re-parse reproduces the vertices bit-exactly."""
    _require_vertex_normals(mesh, path)
    xyz = " ".join([OBJ_FLOAT_FMT] * 3) + "\n"
    faces = mesh.faces.reshape(-1, 3).astype(np.int64) + 1
    with open(path, "w") as fh:
        _write_records(fh, "v " + xyz, mesh.vertices.reshape(-1, 3))
        _write_records(fh, "vn " + xyz, mesh.normals.reshape(-1, 3))
        _write_records(fh, "f %d//%d %d//%d %d//%d\n", np.repeat(faces, 2, axis=1))


def read_obj(path) -> Mesh:
    """Read v, vn and f records and skip every other kind.

    Each v and vn record needs exactly three numbers, and each f record
    exactly three vertex references of the form a, a/t, a//n or a/t/n, whose
    vertex index a lies in 1..len(vertices); anything else raises
    DomainError.  Lines are parsed in blocks of OBJ_BLOCK, each record kind
    of a block by one numpy call.
    """
    parts = {"v": [np.empty((0, 3))], "vn": [np.empty((0, 3))],
             "f": [np.empty((0, 3), dtype=np.int64)]}
    with open(path) as fh:
        for block in iter(lambda: list(itertools.islice(fh, OBJ_BLOCK)), []):
            rests = {kind: [] for kind in parts}
            for line in block:
                head = line.split(None, 1)
                if head and head[0] in rests:
                    # a bare kind token stands in for its missing fields,
                    # and fails to parse as a number
                    rests[head[0]].append(head[-1])
            for kind, lines in rests.items():
                if lines:
                    parts[kind].append(_parse_records(path, kind, lines))
    vertices, normals, faces = (np.concatenate(parts[k]) for k in ("v", "vn", "f"))
    # check the int64 indices, before the int32 cast could wrap one into range
    mesh = Mesh(vertices=vertices, normals=normals, faces=faces).check_face_range(path)
    mesh.faces = faces.astype(np.int32)
    return mesh


def _parse_records(path, kind: str, lines: list) -> np.ndarray:
    """One block's records of one kind, without the kind token, as an
    (n, 3) array: floats for v/vn, zero-based vertex indices for f."""
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
    what = "integer vertex references" if kind == "f" else "numbers"
    raise DomainError(f"{path}: each OBJ '{kind}' record needs exactly 3 {what}")


# ---------------------------------------------------------------------------
# PLY (binary little-endian, double-precision vertex data)
# ---------------------------------------------------------------------------

# one face record: a uchar vertex count (always 3) and three int32 indices
_PLY_FACE = np.dtype([("n", "u1"), ("i", "<i4", (3,))])


def _ply_header(n_vert: int, n_face: int) -> bytes:
    return (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {n_vert}\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property double nx\nproperty double ny\nproperty double nz\n"
        f"element face {n_face}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    ).encode("ascii")


def write_ply(mesh: Mesh, path):
    _require_vertex_normals(mesh, path)
    faces = np.empty(len(mesh.faces), dtype=_PLY_FACE)
    faces["n"] = 3
    faces["i"] = mesh.faces.reshape(-1, 3)
    with open(path, "wb") as fh:
        fh.write(_ply_header(len(mesh.vertices), len(mesh.faces)))
        data = np.hstack([mesh.vertices, mesh.normals]).astype("<f8")
        fh.write(data.tobytes())
        fh.write(faces.tobytes())


def read_ply(path) -> Mesh:
    """Read the layout write_ply writes: any other header, a body that is
    not exactly 48 bytes per vertex and 13 per face, a face that is not a
    triangle or a face index outside the vertex range raises DomainError."""
    with open(path, "rb") as fh:
        header = [fh.readline()]
        if header[0] != b"ply\n":
            raise DomainError(f"{path}: not a PLY file (first line is not 'ply')")
        while header[-1] != b"end_header\n":
            header.append(fh.readline())
            if not header[-1]:
                raise DomainError(f"{path}: PLY file ends before end_header")
        if header[1] != b"format binary_little_endian 1.0\n":
            raise DomainError(f"{path}: PLY format must be binary_little_endian 1.0")
        counts = [line.split()[-1] for line in header if line.startswith(b"element ")]
        if len(counts) != 2 or not all(c.isdigit() for c in counts):
            raise DomainError(f"{path}: PLY header needs one vertex and one face count")
        n_vert, n_face = map(int, counts)
        if b"".join(header) != _ply_header(n_vert, n_face):
            raise DomainError(f"{path}: PLY elements or properties differ from "
                              "the layout write_ply writes")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        want = 48 * n_vert + 13 * n_face
        if size != want:
            raise DomainError(f"{path}: PLY body has {size} bytes, the header needs {want}")
        data = np.frombuffer(fh.read(n_vert * 6 * 8), dtype="<f8").reshape(n_vert, 6)
        records = np.frombuffer(fh.read(n_face * _PLY_FACE.itemsize), dtype=_PLY_FACE)
    if (records["n"] != 3).any():
        raise DomainError(f"{path}: only triangle PLY faces are supported")
    return Mesh(
        vertices=data[:, :3].copy(), normals=data[:, 3:].copy(),
        faces=records["i"].astype(np.int32),
    ).check_face_range(path)
