"""Tessellation of surface patches and OBJ/PLY export.

Surfaces are sampled on a log-radial x angular grid over the punctured
plane.  The quotient flag halves the fundamental domain to theta in [0, pi)
and, when the radial grid is inversion-symmetric, glues the theta = pi seam
to theta = 0 with the radial order reversed (the antipodal identification,
producing the non-orientable quotient mesh).
"""

from __future__ import annotations

import os
import struct
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
        if self.faces.size and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise DomainError("face indices out of range")
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
    vid = np.arange(n_r * n_t).reshape(n_r, n_t)
    faces = []

    def add_quad(a, b, c, d):
        # a--b on row i, d--c on row i+1; split into two triangles
        faces.append((a, b, c))
        faces.append((a, c, d))

    for i in range(n_r - 1):
        for j in range(n_t - 1):
            add_quad(vid[i, j], vid[i, j + 1], vid[i + 1, j + 1], vid[i + 1, j])
    if spec.wrap:
        if spec.quotient:
            if spec.inversion_symmetric:
                # antipodal gluing: (r, pi) ~ (1/r, 0), radial order reversed
                for i in range(n_r - 1):
                    a, b = vid[i, n_t - 1], vid[n_r - 1 - i, 0]
                    c, d = vid[n_r - 2 - i, 0], vid[i + 1, n_t - 1]
                    add_quad(a, b, c, d)
        else:
            for i in range(n_r - 1):
                add_quad(vid[i, n_t - 1], vid[i, 0], vid[i + 1, 0], vid[i + 1, n_t - 1])

    mesh = Mesh(
        vertices=pts.reshape(-1, 3),
        normals=nrm.reshape(-1, 3),
        faces=np.asarray(faces, dtype=np.int32),
        metadata={"surface": smap.name, "sampling": spec.to_dict()},
    )
    return mesh.validate()


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------


def write_obj(mesh: Mesh, path):
    """Write v/vn/f records; floats carry 17 significant digits so a
    re-parse reproduces the vertices bit-exactly."""
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write("v %s %s %s\n" % tuple(OBJ_FLOAT_FMT % x for x in v))
        for n in mesh.normals:
            fh.write("vn %s %s %s\n" % tuple(OBJ_FLOAT_FMT % x for x in n))
        for f in mesh.faces:
            fh.write(
                "f %d//%d %d//%d %d//%d\n"
                % (f[0] + 1, f[0] + 1, f[1] + 1, f[1] + 1, f[2] + 1, f[2] + 1)
            )


def read_obj(path) -> Mesh:
    vertices, normals, faces = [], [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "vn":
                normals.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return Mesh(
        vertices=np.asarray(vertices, dtype=float),
        normals=np.asarray(normals, dtype=float),
        faces=np.asarray(faces, dtype=np.int32),
    )


# ---------------------------------------------------------------------------
# PLY (binary little-endian, double-precision vertex data)
# ---------------------------------------------------------------------------


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
    with open(path, "wb") as fh:
        fh.write(_ply_header(len(mesh.vertices), len(mesh.faces)))
        data = np.hstack([mesh.vertices, mesh.normals]).astype("<f8")
        fh.write(data.tobytes())
        for f in mesh.faces:
            fh.write(struct.pack("<Biii", 3, int(f[0]), int(f[1]), int(f[2])))


def read_ply(path) -> Mesh:
    """Read the layout write_ply writes: any other header, or a body that is
    not exactly 48 bytes per vertex and 13 per face, raises DomainError."""
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
        faces = np.empty((n_face, 3), dtype=np.int32)
        for i in range(n_face):
            count = struct.unpack("<B", fh.read(1))[0]
            if count != 3:
                raise DomainError("only triangle PLY faces are supported")
            faces[i] = struct.unpack("<iii", fh.read(12))
    return Mesh(
        vertices=data[:, :3].copy(), normals=data[:, 3:].copy(), faces=faces
    )
