"""Tessellation of surface patches and OBJ/PLY export.

Surfaces are sampled on a log-radial x angular grid over the punctured
plane.  The quotient flag halves the fundamental domain to theta in [0, pi)
and, when the radial grid is inversion-symmetric, glues the theta = pi seam
to theta = 0 with the radial order reversed (the antipodal identification,
producing the non-orientable quotient mesh).
"""

from __future__ import annotations

import io
import os
from dataclasses import asdict, dataclass, field

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


@dataclass
class Mesh:
    """Indexed triangle mesh with per-vertex unit normals."""

    vertices: np.ndarray
    normals: np.ndarray
    faces: np.ndarray
    metadata: dict = field(default_factory=dict)

    def validate(self):
        self.check_records()
        lengths = np.linalg.norm(self.normals, axis=1)
        if np.abs(lengths - 1.0).max() > 1e-6:
            raise DomainError("normals are not unit length")
        return self

    def check_records(self, source="mesh"):
        """Raise DomainError, naming source, unless every vertex and normal is
        finite and every face index lies in [0, len(vertices)); the readers
        check this much of a foreign file, and the writers of their mesh."""
        for what in ("vertices", "normals"):
            if not np.isfinite(getattr(self, what)).all():
                raise DomainError(f"{source} contains non-finite {what}")
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
        metadata={"surface": smap.name, "sampling": asdict(spec)},
    )
    return mesh.validate()


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

#: records formatted per block by write_obj; bounds the text held in memory
OBJ_BLOCK = 4096

#: bytes read_obj parses per chunk; bounds the memory a read holds
OBJ_CHUNK = 1 << 18


def _is_space(text: np.ndarray) -> np.ndarray:
    """Where the bytes are ASCII whitespace to both str.split and np.loadtxt:
    9..13 and 28..32 (the uint8 differences wrap below 0)."""
    return (text - np.uint8(9) <= 4) | (text - np.uint8(28) <= 4)


def _write_records(fh, fmt: str, rows: np.ndarray):
    for start in range(0, len(rows), OBJ_BLOCK):
        chunk = rows[start:start + OBJ_BLOCK]
        fh.write((fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


def _check_writable(mesh: Mesh, path):
    """What both writers need before they create the file: one normal per
    vertex (OBJ faces are a//a), finite coordinates and face indices in the
    vertex range."""
    if mesh.normals.shape != mesh.vertices.shape:
        raise DomainError(f"{path}: cannot write {len(mesh.normals)} normals "
                          f"for {len(mesh.vertices)} vertices (need one each)")
    mesh.check_records(path)


def write_obj(mesh: Mesh, path):
    """Write v/vn/f records; floats carry 17 significant digits so a
    re-parse reproduces the vertices bit-exactly.  Each face reference is
    looked up in a per-vertex table of "a//a" strings."""
    _check_writable(mesh, path)
    xyz = " ".join([OBJ_FLOAT_FMT] * 3) + "\n"
    refs = np.array([f"{a}//{a}" for a in range(1, len(mesh.vertices) + 1)],
                    dtype=object)
    with open(path, "w") as fh:
        _write_records(fh, "v " + xyz, mesh.vertices.reshape(-1, 3))
        _write_records(fh, "vn " + xyz, mesh.normals.reshape(-1, 3))
        _write_records(fh, "f %s %s %s\n", refs[mesh.faces.reshape(-1, 3)])


def read_obj(path) -> Mesh:
    """Read v, vn and f records and skip every other kind.

    Each v and vn record needs exactly three finite numbers, and each f
    record exactly three vertex references a, a/t, a//n or a/t/n whose vertex
    index a lies in 1..len(vertices); anything else raises DomainError.  The
    normals are the vn records as listed, not resolved per vertex from a//n.
    LF, CR and CRLF end lines; a kind token starts its line after any ASCII
    whitespace.  Skipped lines may hold any bytes, records only ASCII.  The
    file is read in chunks of OBJ_CHUNK bytes, each cut at its last line
    end, so memory is bounded by the chunk and the longest line.  numpy
    classifies a chunk's lines and one np.loadtxt call parses each kind, so
    no Python code runs per line.
    """
    parts = {"v": [np.empty((0, 3))], "vn": [np.empty((0, 3))],
             "f": [np.empty((0, 3), dtype=np.int64)]}
    rest = []  # the pieces of a line that no chunk has ended yet
    with open(path, "rb") as fh:
        while data := fh.read(OBJ_CHUNK):
            cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
            if cut:
                _read_chunk(path, b"".join([*rest, data[:cut]]), parts)
                rest = []
            rest.append(data[cut:])
    _read_chunk(path, b"".join(rest), parts)
    vertices, normals, faces = (np.concatenate(p) for p in parts.values())
    # check the int64 indices, before the int32 cast could wrap one into range
    mesh = Mesh(vertices=vertices, normals=normals, faces=faces).check_records(path)
    mesh.faces = faces.astype(np.int32)
    return mesh


def _read_chunk(path, chunk: bytes, parts: dict):
    """Append the chunk's v, vn and f records to parts, one array per kind."""
    # every line ends in LF: each CR becomes one (a CRLF leaves an empty
    # line), and one is appended after the chunk's last line
    buf = np.frombuffer(chunk + b"\n", dtype=np.uint8).copy()
    np.putmask(buf, buf == 13, 10)
    ends = np.flatnonzero(buf == 10)
    starts = np.r_[0, ends[:-1] + 1]
    indented = _is_space(buf[starts]) & (buf[starts] != 10)
    if indented.any():  # start at the first token, or at the end of a blank line
        token = np.r_[np.flatnonzero(~_is_space(buf)), len(buf)]
        starts[indented] = np.minimum(
            token[np.searchsorted(token, starts[indented])], ends[indented])
    # each line's first three bytes, or its line end where it is shorter
    c0, c1, c2 = (buf[np.minimum(starts + k, ends)] for k in range(3))
    kind = np.zeros(len(starts), dtype=np.uint8)
    kind[(c0 == ord("v")) & _is_space(c1)] = 1
    kind[(c0 == ord("v")) & (c1 == ord("n")) & _is_space(c2)] = 2
    kind[(c0 == ord("f")) & _is_space(c1)] = 3
    # blank the kind tokens; a bare token leaves a blank line, one row short
    buf[starts[kind > 0]] = buf[starts[kind == 2] + 1] = 32
    line_kind = np.repeat(kind, np.diff(ends, prepend=-1))
    for code, (name, out) in enumerate(parts.items(), 1):
        if count := np.count_nonzero(kind == code):
            out.append(_parse_records(path, name, buf[line_kind == code], count))


def _parse_records(path, kind: str, text: np.ndarray, count: int) -> np.ndarray:
    """One chunk's records of one kind, kind tokens blanked, as a (count, 3)
    array: floats for v/vn, zero-based vertex indices for f."""
    rows, in_ascii = np.empty(0), text.max() < 128
    slash = np.flatnonzero(text == ord("/")) if kind == "f" else ()
    if len(slash):  # blank each token from its first "/" on: the /t/n fields
        space = np.flatnonzero(_is_space(text))  # text ends in a line end
        token = np.searchsorted(space, slash)
        # a token that starts with "/" keeps it, and fails to parse
        first = np.r_[True, token[1:] != token[:-1]] & ~_is_space(text[slash - 1])
        flip = np.zeros(len(text), dtype=bool)  # on at a first "/", off at its token's end
        flip[slash[first]] = flip[space[token[first]]] = True
        np.putmask(text, np.logical_xor.accumulate(flip), 32)
    text = text.tobytes().decode("latin-1")
    try:  # a token that is not a number, or ragged rows
        if in_ascii and not text.isspace():  # np.loadtxt warns on text without data
            rows = np.loadtxt(io.StringIO(text), dtype=np.int64 if kind == "f" else float,
                              ndmin=2, comments=None)
    except ValueError:
        pass
    if rows.shape == (count, 3):
        return rows - 1 if kind == "f" else rows
    what = "integer vertex references" if kind == "f" else "numbers"
    raise DomainError(f"{path}: each OBJ '{kind}' record needs exactly 3 {what}, in ASCII")


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
    _check_writable(mesh, path)
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
    ).check_records(path)
