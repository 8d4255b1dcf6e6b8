"""Tessellation of surface patches and OBJ/PLY export.

Surfaces are sampled on a log-radial x angular grid over the punctured
plane.  The quotient flag halves the fundamental domain to theta in [0, pi)
and, when the radial grid is inversion-symmetric, glues the theta = pi seam
to theta = 0 with the radial order reversed (the antipodal identification,
producing the non-orientable quotient mesh).
"""

from __future__ import annotations

import functools
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
        span, count = (np.pi, self.n_theta // 2) if self.quotient else (2 * np.pi, self.n_theta)
        return np.linspace(0.0, span, count, endpoint=not self.wrap)

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


# "%.17g" in numpy.  A double x with 10^-6 <= |x| < 10^17 has a decimal
# exponent k in -6..16, so x * 10^(16-k) lies in [10^16, 10^17) and needs
# powers of ten up to 10^22, all exact doubles.  Dekker's two-product forms
# that product exactly as hi + lo; rounding it half-even to an integer gives
# the 17 significant digits of Python's correctly rounded conversion.

#: 10^0 .. 10^22, each an exact double
_POW10 = np.array([float(10**p) for p in range(23)])

#: Veltkamp's splitter 2^27 + 1: a double splits into two 26-bit halves
_SPLIT = 134217729.0

#: a float field: a sign byte, up to 22 mantissa bytes, a 4-byte exponent
_FLOAT_WIDTH = 27


@functools.cache
def _float_tables():
    """The read-only tables of _float_fields, built on first use:

    - the ASCII digits "0000" .. "9999", one 4-byte word each;
    - the trailing zero digits of each 4-digit group, 4 for "0000";
    - the field bytes "%.17g" keeps, in row (23 * negative + k + 6) * 17 +
      the trailing zeros of the 17 digits.  -4 <= k <= 16 is fixed
      notation, with 1 + max(k, 0) integer digits; k = -6, -5 is d.ddd
      plus the exponent.  Fraction zeros are stripped, and the point goes
      with the last fraction digit.
    """
    n = np.arange(10000, dtype=np.uint16)
    ascii4 = (np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
              .astype(np.uint8) + ord("0")).view(np.uint32).ravel()
    tz4 = sum((n % 10**j == 0).astype(np.int8) for j in range(1, 5))
    neg, k, tz = np.ix_([0, 1], np.arange(-6, 17), np.arange(17))
    e = np.where(k < -4, 0, k)
    fraction = np.maximum(16 - e - tz, 0)
    end = 2 + np.maximum(e, 0) + (fraction > 0) * (fraction + 1)
    col = np.arange(_FLOAT_WIDTH)
    keep = (((col >= 1 - neg[..., None]) & (col < end[..., None]))
            | ((k[..., None] < -4) & (col >= _FLOAT_WIDTH - 4))).reshape(-1, _FLOAT_WIDTH)
    for table in (ascii4, tz4, keep):
        table.flags.writeable = False
    return ascii4, tz4, keep


def _split(a):
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker 1971);
    numpy has no fused multiply-add."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _float_digits(x: np.ndarray):
    """(fast, key, digits) for the doubles x: where fast, x rounds to
    digits * 10^(k-16) with 10^16 <= digits < 10^17, and key = k + 6."""
    ax = np.abs(x)
    fast = (ax >= 1e-6) & (ax < 1e17)
    ax[~fast] = 1.0
    k = np.clip(np.floor(np.log10(ax)), -6, 16).astype(np.int64)
    # log10 can miss k by one near a power of ten; each step moves k towards
    # the exponent the exact product shows, until it stops or is clipped
    while True:
        hi, lo = _two_product(ax, _POW10[16 - k])
        step = (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
                - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))
        moved = np.clip(k + step, -6, 16)
        if (moved == k).all():
            break
        k = moved
    fast &= step == 0
    # hi is an even integer here, so half-even rounding of lo rounds hi + lo.
    # It never carries to 10^17: the largest double below each 10^(k+1)
    # scales to at least 4.5 below 10^17.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return fast, (k + 6).astype(np.uint8), digits


def _float_fields(x: np.ndarray, text: np.ndarray, keep: np.ndarray):
    """Write the doubles x as "%.17g" into the (len(x), _FLOAT_WIDTH) views
    text and keep: row i of text where keep is set.  Values outside the fast
    range, 0 and subnormals among them, are formatted one by one with %."""
    x = np.asarray(x, dtype=np.float64).ravel()
    ascii4, tz4, keep_rows = _float_tables()
    fast, key, digits = _float_digits(x)
    # sorted by exponent, each exponent's layout is one slice copy
    order = np.argsort(key, kind="stable")
    key, digits = key[order], digits[order]
    head, low = np.divmod(digits, 10**8)
    lead, mid = np.divmod(head, 10**8)
    groups = np.stack([lead, mid // 10**4, mid % 10**4, low // 10**4, low % 10**4], axis=1)
    tz = tz4[groups[:, 4]]
    for g in (3, 2, 1):  # the first digit is never 0, so tz <= 16
        tz += (tz == 4 * (4 - g)) * tz4[groups[:, g]]
    # "0" and the groups "000d0", then d1 ... d16 from byte 3 on
    src = np.empty((len(x), 24), np.uint8)
    src[:, 3] = ord("0")
    src.view(np.uint32)[:, 1:] = ascii4[groups]
    out = np.empty((len(x), _FLOAT_WIDTH), np.uint8)
    out[:, 0] = ord("-")
    bounds = np.r_[0, np.flatnonzero(np.diff(key)) + 1, len(x)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        k = int(key[start]) - 6
        e = 0 if k < -4 else k
        a = 7 + min(e, 0)  # the first byte of src shown
        q = 1 + max(e, 0)  # the digits before the point
        rows, digs = out[start:stop], src[start:stop]
        rows[:, 1:1 + q] = digs[:, a:a + q]
        rows[:, 1 + q] = ord(".")
        rows[:, 2 + q:26 - a] = digs[:, a + q:]
        if k < -4:
            rows[:, -4:] = np.frombuffer(b"e-0%d" % -k, np.uint8)
    text[order] = out
    code = np.empty(len(x), np.intp)
    code[order] = 17 * key.astype(np.intp) + tz
    keep[...] = keep_rows[code + 23 * 17 * np.signbit(x)]

    slow = np.flatnonzero(~fast)
    if len(slow):
        words = np.array([OBJ_FLOAT_FMT % v for v in x[slow].tolist()],
                         dtype=f"S{_FLOAT_WIDTH}").view(np.uint8).reshape(len(slow), -1)
        text[slow] = words
        keep[slow] = words != 0


def _ref_fields(n: int):
    """(width, fill) for references to vertices 0..n-1: fill(faces, text,
    keep) writes each index of faces as the field "a//a", a = index + 1.
    A table row holds a right-aligned in w bytes, "//", a left-aligned, w
    the digits of n; the mask for a's digit count keeps "a//a"."""
    w = len(str(n))
    table = np.empty((n, 2 * w + 2), np.uint8)
    digits = np.empty(n, np.uint8)
    for d in range(1, w + 1):  # the a with d digits form one slice
        lo, hi = 10**(d - 1) - 1, min(10**d - 1, n)
        a = np.arange(lo + 1, hi + 1)
        for c in range(d):
            table[lo:hi, w - 1 - c] = table[lo:hi, w + 1 + d - c] = a // 10**c % 10 + ord("0")
        digits[lo:hi] = d
    table[:, w:w + 2] = ord("/")
    d, col = np.arange(w + 1)[:, None], np.arange(2 * w + 2)
    masks = (col >= w - d) & (col < w + 2 + d)

    def fill(faces, text, keep):
        faces = faces.ravel()
        text[...] = table[faces]
        keep[...] = masks[digits[faces]]

    return 2 * w + 2, fill


def _write_records(fh, kind: bytes, rows: np.ndarray, width: int, fill):
    """Write one record "kind f0 f1 f2" per row of rows, OBJ_BLOCK rows at a
    time.  Each field is one buffer row: the record's head on the first,
    then width bytes that fill(block, text, keep) writes together with the
    mask of those to keep, then " " or the line end."""
    head = len(kind) + 1
    count = min(len(rows), OBJ_BLOCK)
    text = np.empty((count, 3, head + width + 1), np.uint8)
    keep = np.zeros(text.shape, bool)
    text[:, 0, :head] = np.frombuffer(kind + b" ", np.uint8)
    text[..., -1] = np.frombuffer(b"  \n", np.uint8)
    keep[:, 0, :head] = keep[..., -1] = True
    text, keep = text.reshape(3 * count, -1), keep.reshape(3 * count, -1)
    for start in range(0, len(rows), OBJ_BLOCK):
        block = rows[start:start + OBJ_BLOCK]
        n = 3 * len(block)
        fill(block, text[:n, head:-1], keep[:n, head:-1])
        fh.write(text[:n][keep[:n]])


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
    re-parse reproduces the vertices bit-exactly.

    The text is exactly what "%.17g" formatting gives, built in numpy
    blocks of OBJ_BLOCK records.  A float with 10^-6 <= |x| < 10^17 is
    formatted from an exact two-product x * 10^(16-k); any other value,
    0 and subnormals among them, goes through "%.17g" one by one.  Face
    references are gathered from a per-vertex byte table of "a//a".
    """
    _check_writable(mesh, path)
    ref_width, fill_refs = _ref_fields(len(mesh.vertices))
    with open(path, "wb") as fh:
        _write_records(fh, b"v", mesh.vertices.reshape(-1, 3), _FLOAT_WIDTH, _float_fields)
        _write_records(fh, b"vn", mesh.normals.reshape(-1, 3), _FLOAT_WIDTH, _float_fields)
        _write_records(fh, b"f", mesh.faces.reshape(-1, 3), ref_width, fill_refs)


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
