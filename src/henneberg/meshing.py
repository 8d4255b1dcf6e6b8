"""Tessellation of surface patches and OBJ/PLY export.

Surfaces are sampled on a log-radial x angular grid over the punctured
plane, and every mesh closes its angular seam.  The quotient flag halves
the fundamental domain to theta in [0, pi) on an inversion-symmetric radial
grid and glues theta = pi to theta = 0 with the radial order reversed (the
antipodal identification, producing the non-orientable quotient mesh).
"""

from __future__ import annotations

import functools
import io
import os
import warnings
from dataclasses import dataclass

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

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max < np.inf):
            raise DomainError("need 0 < r_min < r_max < inf")
        if self.n_r < 2 or self.n_theta < 2:
            raise DomainError("resolutions must be at least 2")
        if self.quotient:
            if self.n_theta < 4:
                raise DomainError("quotient grids need n_theta >= 4 (at least 2 columns)")
            r = self.radii
            with np.errstate(over="ignore"):  # a product past 1.8e308 is not 1
                gap = np.abs(r[::-1] * r - 1.0).max()
            if not gap < 1e-9:
                raise DomainError("quotient grids glue r to 1/r and need r_min * r_max = 1, "
                                  f"got {self.r_min!r} * {self.r_max!r}")

    @property
    def radii(self) -> np.ndarray:
        return np.exp(
            np.linspace(np.log(self.r_min), np.log(self.r_max), self.n_r)
        )

    @property
    def thetas(self) -> np.ndarray:
        span, count = (np.pi, self.n_theta // 2) if self.quotient else (2 * np.pi, self.n_theta)
        return np.linspace(0.0, span, count, endpoint=False)


@dataclass
class Mesh:
    """Indexed triangle mesh with per-vertex unit normals."""

    vertices: np.ndarray
    normals: np.ndarray
    faces: np.ndarray

    def validate(self):
        self.check_records()
        lengths = _row_norm(self.normals)
        if (np.abs(lengths - 1.0) > 1e-6).any():
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


def _row_norm(x):
    """np.linalg.norm(x, axis=-1) bit for bit, for a trailing axis of
    length 3: the squares summed left to right, as its reduction does."""
    out = x[..., 0] * x[..., 0]
    for k in (1, 2):
        out += x[..., k] * x[..., k]
    return np.sqrt(out, out=out)


def build_mesh(smap: SurfaceMap, spec: SamplingSpec = SamplingSpec()) -> Mesh:
    """Sample the surface on the grid and triangulate.

    Vertex layout is row-major over (radius, theta).  The seam glues the
    last column to the first, and on a quotient (r, pi) to (1/r, 0) with
    the radial order reversed.  That assumes the deck map z -> -1/conj(z)
    fixes the surface: true of the one-sided surfaces, not yet of the
    conjugate and associated ones.
    """
    # a column of radii and a row of angles, which each map broadcasts
    radii, thetas = spec.radii[:, None], spec.thetas[None, :]
    n_r, n_t = grid = (len(radii), thetas.size)
    # a sample that overflows is left non-finite for validate() to refuse
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pts = np.broadcast_to(smap(radii, thetas), (*grid, 3)).copy()
        nrm = np.broadcast_to(smap.normal_at(radii, thetas), (*grid, 3))
        nrm = nrm / _row_norm(nrm)[..., None]

    vid = np.arange(n_r * n_t, dtype=np.int32).reshape(n_r, n_t)
    # a--b on row i, d--c on row i+1, one quad per row-major (i, j)
    first = vid[::-1, 0] if spec.quotient else vid[:, 0]  # what the seam glues to
    quads = [(vid[:-1, :-1], vid[:-1, 1:], vid[1:, 1:], vid[1:, :-1]),
             (vid[:-1, -1], first[:-1], first[1:], vid[1:, -1])]
    # each quad splits into the triangles (a, b, c) and (a, c, d)
    faces = np.concatenate([
        np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
        for a, b, c, d in quads
    ])

    return Mesh(pts.reshape(-1, 3), nrm.reshape(-1, 3), faces).validate()


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

#: records formatted per block by write_obj; bounds the text held in memory
OBJ_BLOCK = 4096

#: bytes read_obj parses per chunk; bounds the memory a read holds
OBJ_CHUNK = 1 << 18


def _is_space(text: np.ndarray) -> np.ndarray:
    """Where the bytes are ASCII whitespace, 9..13 and 28..32 (the uint8
    differences wrap below 0): what str.split and np.loadtxt split at, and
    so what read_obj splits its lines and records at."""
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


def _take_rows(a: np.ndarray, index) -> np.ndarray:
    """a[index] for a 2-D array a of fixed-width rows.  Each row is viewed
    as one np.void item, so take copies it in one piece where fancy
    indexing would copy it element by element.  a must be C-contiguous:
    every caller passes a table or buffer that it built itself."""
    rows = a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).reshape(len(a))
    return rows.take(index).view(a.dtype).reshape(len(index), a.shape[1])


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
    # digits < 10^17: head < 10^9 and low < 10^8 both fit in uint32
    head, low = (h.astype(np.uint32) for h in np.divmod(digits, 10**8))
    lead, mid = np.divmod(head, np.uint32(10**8))
    groups = np.stack([lead, *np.divmod(mid, np.uint32(10**4)),
                       *np.divmod(low, np.uint32(10**4))], axis=1)
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
    back = np.empty_like(order)  # the inverse permutation of order
    back[order] = np.arange(len(x))
    text[...] = _take_rows(out, back)
    code = (17 * key.astype(np.intp) + tz)[back]
    keep[...] = _take_rows(keep_rows, code + 23 * 17 * np.signbit(x))

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
        text[...] = _take_rows(table, faces)
        keep[...] = _take_rows(masks, digits[faces])

    return 2 * w + 2, fill


def _write_records(fh, kind: bytes, rows: np.ndarray, width: int, fill):
    """Write one record "kind f0 f1 f2" per row of rows, OBJ_BLOCK rows at a
    time.  Each field is one buffer row: the record's head on the first,
    then width bytes that fill(block, text, keep) writes together with the
    mask of those to keep, then " " or the line end.  No rows, no text."""
    if not len(rows):
        return
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
    references are gathered from a per-vertex byte table of "a//a".  Each
    fixed-width text row is gathered as one np.void item (_take_rows).  An
    empty kind writes no records, so a mesh without faces or without
    vertices writes, and reads back, as it is.
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
    classifies a chunk's lines and splits its records into tokens, so no
    Python code runs per line.  A kind whose lines form one run in the
    chunk, blank lines aside, is parsed from a slice of it, as write_obj
    writes v, vn and f; only interleaved kinds are selected byte by byte
    through a per-byte kind array.  A vertex index of up to 8 digits is read
    from one 8-byte word.  A decimal [-+]digits[.digits] is read as the
    integer of its digits, one np.fromstring call per chunk, and rounded
    exactly in numpy.  Each other field (an exponent, a long mantissa, an
    exact tie between two doubles, a token that is not a number) goes to
    np.loadtxt, so every value is the double float() gives and every field
    np.loadtxt refuses raises DomainError.
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
    buf = np.empty(len(chunk) + 1, dtype=np.uint8)
    buf[:-1] = np.frombuffer(chunk, dtype=np.uint8)
    buf[-1] = 10
    if b"\r" in chunk:
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
    blank = starts == ends  # a CRLF leaves one after each record
    line_kind = None
    for code, (name, out) in enumerate(parts.items(), 1):
        lines = np.flatnonzero(kind == code)
        if not len(lines):
            continue
        span = slice(lines[0], lines[-1] + 1)
        if ((kind[span] == code) | blank[span]).all():
            # one run of this kind and blank lines, as write_obj writes: a
            # slice of buf, whose blank lines split no record
            lo = ends[span.start - 1] + 1 if span.start else 0
            text, lf = buf[lo:ends[span.stop - 1] + 1], ends[lines] - lo
        else:  # interleaved kinds: select the bytes of this kind's lines
            if line_kind is None:
                lengths = np.diff(ends, prepend=-1)
                line_kind = np.repeat(kind, lengths)
            text, lf = buf[line_kind == code], np.cumsum(lengths[lines]) - 1
        out.append(_parse_records(path, name, text, lf))


def _parse_records(path, kind: str, text: np.ndarray, lf: np.ndarray) -> np.ndarray:
    """One chunk's records of one kind, kind tokens blanked and line ends at
    lf, as a (len(lf), 3) array: floats for v/vn, zero-based vertex indices
    for f.  Each record is a line of three tokens split at ASCII whitespace.
    Vertex indices of up to 8 digits and decimals [-+]digits[.digits] are
    read as integers in numpy; np.loadtxt reads every other field."""
    what = "integer vertex references" if kind == "f" else "numbers"
    malformed = DomainError(f"{path}: each OBJ '{kind}' record needs exactly 3 {what}, in ASCII")
    space = _is_space(text)
    # text opens with a blanked kind token and ends in a line end, so its
    # edges alternate between token starts and token ends
    edges = np.flatnonzero(space[1:] != space[:-1]) + 1
    starts, ends = edges[::2], edges[1::2]
    if not (text.max() < 128 and len(starts) == 3 * len(lf)
            and (starts[2::3] < lf).all() and (starts[3::3] > lf[:-1]).all()):
        raise malformed
    read = _vertex_indices if kind == "f" else _decimals
    values, done, field_ends = read(text, space, starts, ends)
    if len(rest := np.flatnonzero(~done)):
        try:
            values[rest] = _load_fields(text, starts[rest], field_ends[rest], values.dtype)
        except ValueError:  # a field that is not a number
            raise malformed from None
    rows = values.reshape(-1, 3)
    return rows - 1 if kind == "f" else rows


def _load_fields(text: np.ndarray, starts, ends, dtype) -> np.ndarray:
    """np.loadtxt of the fields text[starts[i]:ends[i]], one per line."""
    n = ends - starts + 1  # each field and the byte after it, made a line end
    stops = np.cumsum(n)
    lines = text[np.repeat(starts - stops + n, n) + np.arange(stops[-1])]
    lines[stops - 1] = 10
    col = np.loadtxt(io.StringIO(lines.tobytes().decode("ascii")), dtype=dtype,
                     ndmin=2, comments=None)
    if col.shape != (len(starts), 1):
        raise ValueError("not one number per field")
    return col[:, 0]


def _vertex_indices(text, space, starts, ends):
    """(values, done, field_ends) for face references: the vertex index is
    the bytes before the token's first "/", unless that "/" leads it.
    Where it is 1..8 digits (done), it is read from the little-endian word
    of the token's first 8 bytes: shifted so that the digits fill its top
    bytes under zero bytes, then three multiplies join neighbouring digit
    groups (by 1 + 10 * 2^8, 1 + 100 * 2^16 and 1 + 10^4 * 2^32)."""
    padded = np.concatenate([text, np.zeros(8, np.uint8)])
    w = np.ndarray(len(text), "<u8", padded, strides=(1,))[starts]
    # x < 10 in a digit's byte; adding 6 carries any other ASCII byte into
    # its high half, and never into the next byte
    x = w ^ np.uint64(0x3030303030303030)
    odd = ((x + np.uint64(0x0606060606060606)) | x) & np.uint64(0xF0F0F0F0F0F0F0F0)
    lowest = (odd & (~odd + np.uint64(1))).astype(np.float64)
    n = np.where(odd == 0, 8, (np.frexp(lowest)[1] - 1) // 8)  # the leading digits
    stop = starts + n
    done = (n > 0) & (space[stop] | (text[stop] == ord("/")))
    n[~done] = 8
    w = x << (np.uint64(8) * (8 - n).astype(np.uint64))
    w = w * np.uint64(1 + 10 * 2**8) >> np.uint64(8)
    w = (w & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(1 + 100 * 2**16) >> np.uint64(16)
    w = (w & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(1 + 10**4 * 2**32) >> np.uint64(32)
    field_ends = ends.copy()
    if len(rest := np.flatnonzero(~done)):
        slash = np.flatnonzero(text == ord("/"))
        first = np.r_[slash, len(text)][np.searchsorted(slash, starts[rest])]
        cut = (first > starts[rest]) & (first < ends[rest])
        field_ends[rest[cut]] = first[cut]
    return w.astype(np.int64), done, field_ends


def _decimals(text, space, starts, ends):
    """(values, done, ends) for decimal tokens: a token [-+]digits[.digits]
    with at least one digit, whose digits read as an integer D < 2^62 with
    f <= 22 of them after the point (done), is rounded from D / 10^f.  One
    np.fromstring call reads the digits of every token as an integer."""
    size = len(starts)
    digit_or_space = space | (text - np.uint8(48) <= 9)
    at = np.flatnonzero(~digit_or_space)  # points, signs and any other byte
    odd = text[at]
    point = odd == ord(".")
    first = text[starts]
    signed = (first == ord("-")) | (first == ord("+"))
    leading_sign = space[at - 1] & ((odd == ord("-")) | (odd == ord("+")))
    dotted = np.searchsorted(starts, at[point], "right") - 1
    strays = np.searchsorted(starts, at[~(point | leading_sign)], "right") - 1
    points = np.bincount(dotted, minlength=size)
    has_digits = ends - starts > points + signed + np.bincount(strays, minlength=size)
    places = np.zeros(size, dtype=np.intp)
    places[dotted] = ends[dotted] - at[point] - 1
    done = has_digits & (points <= 1) & (places < len(_POW10))
    done[strays] = False
    runs = text[digit_or_space]
    np.putmask(runs, runs < 48, 32)  # np.fromstring skips only C whitespace
    try:
        with warnings.catch_warnings():  # numpy 1.x warns on unmatched data
            warnings.simplefilter("error", DeprecationWarning)
            parsed = np.fromstring(runs.tobytes(), dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        parsed = ()
    mantissa = np.zeros(size, dtype=np.int64)
    if len(parsed) == np.count_nonzero(has_digits):
        mantissa[has_digits] = parsed
    else:
        done[:] = False
    done &= mantissa < 2**62  # a saturated integer reads 2^63 - 1
    mantissa[~done] = places[~done] = 0
    values = _decimal_quotients(mantissa, places)
    done &= ~np.isnan(values)
    np.negative(values, out=values, where=first == ord("-"))
    return values, done, ends


def _decimal_quotients(mantissa: np.ndarray, places: np.ndarray) -> np.ndarray:
    """The doubles nearest mantissa / 10^places for 0 <= mantissa < 2^62 and
    0 <= places <= 22, or nan where a quotient lies within 1e-9 of a gap
    of the midpoint between two neighbouring doubles.

    Up to 2^53 both operands are exact doubles, so one division rounds
    correctly (Clinger 1990).  A larger mantissa rounds to a double first.
    The residual r = mantissa - q * 10^f, from the exact two-product the
    writer uses, corrects the quotient q once.  The corrected q is then the
    nearest double when |r| is below half of 10^f times the gap to q's lower
    neighbour, the smaller of its two gaps; the 1e-9 margin covers the
    roundings in r."""
    scale = _POW10[places]
    q = mantissa / scale
    big = np.flatnonzero(mantissa > 2**53)
    if len(big):
        m, p, q0 = mantissa[big], scale[big], q[big]
        hi, lo = _two_product(q0, p)
        r = (m - hi.astype(np.int64)) - lo  # hi is an integer, so m - hi is exact
        q1 = q0 + r / p
        r -= (q1 - q0) * p
        q1[np.abs(r) >= (0.5 - 1e-9) * p * (q1 - np.nextafter(q1, 0))] = np.nan
        q[big] = q1
    return q


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
    data = np.empty((len(mesh.vertices), 6), "<f8")
    data[:, :3], data[:, 3:] = mesh.vertices, mesh.normals
    faces = np.empty(len(mesh.faces), dtype=_PLY_FACE)
    faces["n"] = 3
    faces["i"] = mesh.faces.reshape(-1, 3)
    with open(path, "wb") as fh:
        fh.write(_ply_header(len(mesh.vertices), len(mesh.faces)))
        fh.write(data)
        fh.write(faces)


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
