"""Readers and writers: OBJ / MEDIT surface meshes and labeling files, a
reader of feature-edge sidecars, and colored PLY exports.

Each reader reads its file as one UTF-8 text, refusing other bytes with the
file name and offset, and converts whole blocks of numbers at once. A number
means what Python's ``float()`` or ``int()`` makes of it. Each reader tries
a bulk pass first and falls back to a slower one that takes every spelling
and names the first bad line or token:

- OBJ: one ``np.loadtxt`` over the vertex lines and one over the face
  lines, whose dtype (the ``f`` tag and three integers) refuses any line
  that is not a triangle. Else the file is read again line by line.
- MEDIT: a ``Vertices`` or ``Triangles`` section whose rows sit one per
  line is one ``np.loadtxt`` over those lines, and the ``(n, dim + 1)``
  shape proves the layout. Else the section's tokens are converted.
- Labelings: a file as ``write_labeling`` writes it, one digit 0-5 and
  ``"\n"`` per line, is one byte pass. Else the stripped lines are
  converted, and a bad file is read again line by line.

``np.loadtxt`` splits a line on the same whitespace as ``str.split`` and
takes the plain decimal spellings, to the values ``float()`` / ``int()``
give; a block it refuses goes to ``np.array`` over the tokens, which calls
``float()`` / ``int()`` and so also takes ``1_000`` and fails with their
messages. Errors name the file and line (OBJ, labelings, feature edges) or
the file and the token or triangle (MEDIT), whichever pass finds them.

All writers are byte-deterministic; coordinates are written with %.17g so
geometry round-trips bit-exact through the text formats. Rows are formatted
from one repeated row template, a bounded chunk at a time.
"""

from __future__ import annotations

import os
import re
from itertools import compress

import numpy as np

from .labeling import LABEL_COLORS, checked_labels
from .mesh import MeshError, NonTriangleFaceError, SurfaceMesh


class FileFormatError(MeshError):
    pass


_CHUNK = 1 << 12  # rows formatted per write


def _numbers(tokens, dtype):
    """A list of number strings as a 1-D array, as float() or int() reads
    each; raises their ValueError (or OverflowError past int64)."""
    if tokens:
        try:
            out = np.loadtxt(tokens, dtype=dtype, comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            if out.shape == (len(tokens),):  # one number per string
                return out
    return np.array(tokens, dtype=dtype)


def _write_rows(fh, row, rows):
    """Write each row of a 2-D array through the %-template ``row``."""
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start : start + _CHUNK]
        fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _read_text(path):
    """The whole file as text, line ends made "\n"; FileFormatError when it
    is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


# -- OBJ -----------------------------------------------------------------------

_OBJ_TAGS = {"v": 1, "f": 2}
_SLASH_TAIL = re.compile(r"(?<=\S)/\S*")  # "12/5/7" -> "12", as ref.split("/")[0]


def _obj_line_kinds(text, lines):
    """Per line of ``text`` (split into ``lines``): 1 for a vertex line, 2
    for a face line, 0 otherwise."""
    # lines that start "v " or "f " (or with a tab) are told apart by their
    # first two bytes; in UTF-8 no byte of a longer character is ASCII
    b = np.frombuffer(text.encode() + b"\0\0", dtype=np.uint8)
    start = np.r_[0, np.flatnonzero(b == ord("\n")) + 1]
    first, gap = b[start], (b[start + 1] == ord(" ")) | (b[start + 1] == ord("\t"))
    kind = np.zeros(len(start), dtype=np.int8)
    kind[gap & (first == ord("v"))] = 1
    kind[gap & (first == ord("f"))] = 2
    for i in np.flatnonzero(kind == 0).tolist():  # blank, comment, vn, "  v ...", ...
        kind[i] = _OBJ_TAGS.get((lines[i].split(None, 1) or [""])[0], 0)
    return kind


def _lines_of(lines, mask):
    """The lines where ``mask`` holds; a slice when they are one run, as
    ``write_obj`` writes its vertex and face lines."""
    at = np.flatnonzero(mask)
    if len(at) and at[-1] - at[0] + 1 == len(at):
        return lines[at[0] : at[-1] + 1]
    return list(compress(lines, mask.tolist()))


def _obj_vertices(lines):
    """Columns 1-3 of the vertex lines, or None when any line is malformed
    or holds a number the bulk parser does not take."""
    if not lines:
        return np.empty((0, 3))
    try:
        return np.loadtxt(lines, dtype=np.float64, comments=None, usecols=(1, 2, 3), ndmin=2)
    except ValueError:
        return None


_OBJ_FACE = np.dtype([("tag", "U1"), ("refs", np.int64, 3)])


def _obj_refs(lines):
    """The vertex indices of the face lines as written (1-based or negative),
    or None when any line is not a triangle of integer references."""
    if not lines:
        return np.empty((0, 3), dtype=np.int64)
    body = "\n".join(lines)
    if "/" in body:
        lines = _SLASH_TAIL.sub("", body).split("\n")
    # every line starts with its "f" tag, and the dtype takes exactly that
    # tag and three integers, so loadtxt refuses any other line
    try:
        return np.loadtxt(lines, dtype=_OBJ_FACE, comments=None, ndmin=1)["refs"]
    except (ValueError, OverflowError):
        return None


def _obj_line_by_line(path, lines, kind):
    """Vertices and face references read one line at a time; raises the
    error of the first malformed line."""
    verts, refs = [], []
    for i in np.flatnonzero(kind).tolist():
        parts = lines[i].split()
        if kind[i] == 1:
            try:
                x, y, z = parts[1:4]
                verts.append((float(x), float(y), float(z)))
            except ValueError:
                raise FileFormatError(f"{path}:{i + 1}: malformed vertex line") from None
            continue
        if len(parts) != 4:
            raise NonTriangleFaceError(
                f"{path}:{i + 1}: face with {len(parts) - 1} vertices; only triangles are supported"
            )
        try:
            idx = [int(ref.split("/")[0]) for ref in parts[1:]]
        except ValueError:
            raise FileFormatError(f"{path}:{i + 1}: malformed face line") from None
        refs.append([r if -(2**63) <= r < 2**63 else 0 for r in idx])  # 0 is out of range
    verts = np.array(verts, dtype=np.float64).reshape(-1, 3)
    return verts, np.array(refs, dtype=np.int64).reshape(-1, 3)


def read_obj(path):
    text = _read_text(path)
    lines = text.split("\n")
    kind = _obj_line_kinds(text, lines)
    del text
    verts = _obj_vertices(_lines_of(lines, kind == 1))
    refs = _obj_refs(_lines_of(lines, kind == 2))
    if verts is None or refs is None:
        verts, refs = _obj_line_by_line(path, lines, kind)
    if not len(refs):
        raise FileFormatError(f"{path}: no faces found")
    # OBJ is 1-based, and a negative index counts back from the last vertex
    # read above the face; 0 becomes -1, which the range check rejects
    tris = refs - 1
    if refs.min() <= 0:
        seen = np.cumsum(kind == 1)[kind == 2]
        tris = np.where(refs > 0, tris, np.where(refs < 0, refs + seen[:, None], -1))
    if tris.min() < 0 or tris.max() >= len(verts):
        bad = np.flatnonzero(((tris < 0) | (tris >= len(verts))).any(axis=1))
        raise FileFormatError(
            f"{path}:{np.flatnonzero(kind == 2)[bad[0]] + 1}: face vertex index out of range "
            f"for {len(verts)} vertices"
        )
    return verts, tris


def write_obj(path, verts, tris):
    with open(path, "w") as fh:
        _write_rows(fh, "v %.17g %.17g %.17g\n", np.asarray(verts, dtype=np.float64))
        _write_rows(fh, "f %d %d %d\n", np.asarray(tris, dtype=np.int64) + 1)


# -- MEDIT .mesh -----------------------------------------------------------------

_MEDIT_SKIP = {
    "edges": 3,
    "corners": 1,
    "ridges": 1,
    "requiredvertices": 1,
    "normals": 3,
    "tangents": 3,
}
_MEDIT_COMMENT = re.compile(r"#[^\n]*")


def read_medit(path):
    text = _read_text(path)
    if "#" in text:
        text = _MEDIT_COMMENT.sub("", text)
    lines = text.split("\n")
    del text
    # the tokens are split off the lines as they are needed: toks holds those
    # of lines[:row] not yet taken, from toks[pos] on
    row, toks, pos = 0, [], 0

    def more():
        """Whether any token is left."""
        nonlocal row, toks, pos
        while pos == len(toks) and row < len(lines):
            toks, pos, row = lines[row].split(), 0, row + 1
        return pos < len(toks)

    def take(n=1):
        """The next n tokens."""
        nonlocal row, toks, pos
        if n < 0:
            raise FileFormatError(f"{path}: negative count")
        while len(toks) - pos < n and row < len(lines):
            # a line that is not blank holds a token, so no more lines than
            # tokens missing are split
            ahead = lines[row : row + n - (len(toks) - pos)]
            toks, pos, row = toks[pos:] + "\n".join(ahead).split(), 0, row + len(ahead)
        if len(toks) - pos < n:
            raise FileFormatError(f"{path}: truncated file")
        pos += n
        return toks[pos - n : pos]

    def integer():
        tok = take()[0]
        try:
            return int(tok)
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from None

    def block(n, width, dtype):
        """The next n rows of width numbers: one loadtxt when they are the
        next n whole lines, else converted token by token."""
        nonlocal row
        # a first line of one row also keeps loadtxt from warning of no data
        if pos == len(toks) and 0 < n <= len(lines) - row and len(lines[row].split()) == width:
            try:
                out = np.loadtxt(lines[row : row + n], dtype=dtype, comments=None, ndmin=2)
            except (ValueError, OverflowError):
                out = None
            if out is not None and out.shape == (n, width):  # one row per line
                row += n
                return out
        tokens = take(n * width)
        try:
            return _numbers(tokens, dtype).reshape(n, width)
        except (ValueError, OverflowError) as exc:
            raise FileFormatError(f"{path}: {exc}") from None

    verts = tris = None
    dim = 3
    while more():
        key = take()[0].lower()
        if key == "meshversionformatted":
            take()
        elif key == "dimension":
            dim = integer()
            if dim != 3:
                raise FileFormatError(f"{path}: dimension {dim} not supported")
        elif key == "vertices":
            n = integer()
            verts = block(n, dim + 1, np.float64)[:, :dim]
        elif key == "triangles":
            n = integer()
            tris = block(n, 4, np.int64)[:, :3] - 1  # 1-based
        elif key in ("quadrilaterals", "tetrahedra", "hexahedra"):
            raise NonTriangleFaceError(f"{path}: contains {key}; only triangle surfaces are supported")
        elif key in _MEDIT_SKIP:
            take(integer() * _MEDIT_SKIP[key])
        elif key == "end":
            break
        else:
            raise FileFormatError(f"{path}: unknown keyword {key!r}")
    if verts is None or tris is None:
        raise FileFormatError(f"{path}: missing Vertices or Triangles section")
    bad = np.nonzero(((tris < 0) | (tris >= len(verts))).any(axis=1))[0]
    if bad.size:
        k = bad[0]
        raise FileFormatError(
            f"{path}: triangle {k + 1} has a vertex index outside 1..{len(verts)}: "
            f"{' '.join(str(i + 1) for i in tris[k].tolist())}"
        )
    return verts, tris


def write_medit(path, verts, tris):
    verts = np.asarray(verts, dtype=np.float64)
    tris = np.asarray(tris, dtype=np.int64)
    with open(path, "w") as fh:
        fh.write("MeshVersionFormatted 2\nDimension 3\n")
        fh.write(f"Vertices\n{len(verts)}\n")
        _write_rows(fh, "%.17g %.17g %.17g 0\n", verts)
        fh.write(f"Triangles\n{len(tris)}\n")
        _write_rows(fh, "%d %d %d 0\n", tris + 1)
        fh.write("End\n")


# -- labelings and feature edges ---------------------------------------------


def _written_labels(text):
    """The labels of a text laid out as ``write_labeling`` writes it, one
    digit 0-5 and "\n" per line, or None for any other text."""
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    if len(b) % 2 or not (b[1::2] == ord("\n")).all():
        return None
    digits = b[0::2] - np.uint8(ord("0"))  # a byte below "0" wraps past 5
    return digits.astype(np.int64) if (digits <= 5).all() else None


def _labels_of_lines(path, lines):
    """The labels on the non-blank lines; raises naming the first bad line."""
    try:
        labels = _numbers(list(filter(None, map(str.strip, lines))), np.int64)
    except (ValueError, OverflowError):
        labels = None
    if labels is None or not ((labels >= 0) & (labels <= 5)).all():
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: not an integer: {line!r}") from None
            if not 0 <= v <= 5:
                raise FileFormatError(f"{path}:{lineno}: label {v} outside 0..5")
    return labels


def read_labeling(path, n_triangles=None):
    text = _read_text(path)
    labels = _written_labels(text)
    if labels is None:
        labels = _labels_of_lines(path, text.split("\n"))
    if n_triangles is not None and len(labels) != n_triangles:
        raise FileFormatError(
            f"{path}: {len(labels)} labels for {n_triangles} triangles"
        )
    return labels


def write_labeling(path, labels):
    labels = checked_labels(labels)
    with open(path, "w") as fh:
        _write_rows(fh, "%d\n", labels.reshape(-1, 1))


def read_feature_edges(path):
    pairs = []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        parts = line.split()
        if not parts:
            continue
        try:
            a, b = map(int, parts)
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: expected 'v1 v2' (two integers)") from None
        pairs.append((a, b))
    return pairs


# -- colored PLY ---------------------------------------------------------------


def write_ply(path, mesh: SurfaceMesh, labels):
    """Ascii PLY with one RGB color per face according to its label."""
    labels = np.asarray(labels)
    if labels.shape != (mesh.n_triangles,):
        raise FileFormatError("labeling length does not match mesh")
    labels = checked_labels(labels)
    # each label's colour is formatted once, as the tail of its face rows
    colors = np.array([" %d %d %d\n" % rgb for rgb in LABEL_COLORS], dtype=object)
    with open(path, "w") as fh:
        fh.write(
            "ply\nformat ascii 1.0\n"
            f"element vertex {mesh.n_vertices}\n"
            "property double x\nproperty double y\nproperty double z\n"
            f"element face {mesh.n_triangles}\n"
            "property list uchar int vertex_indices\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        )
        _write_rows(fh, "%.17g %.17g %.17g\n", mesh.vertices)
        for start in range(0, len(labels), _CHUNK):
            tris = mesh.triangles[start : start + _CHUNK].astype(object)
            tails = colors[labels[start : start + _CHUNK]]
            _write_rows(fh, "3 %d %d %d%s", np.column_stack((tris, tails)))


# -- dispatch ---------------------------------------------------------------


def load_mesh(path, feature_edges=None, feature_angle=None) -> SurfaceMesh:
    """Load a surface mesh from .obj or .mesh (MEDIT).

    ``feature_edges`` may be a sidecar file path ('v1 v2' per line, 0-based)
    or an iterable of vertex pairs; by default sharp edges are detected from
    the dihedral angles.
    """
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".obj":
        verts, tris = read_obj(path)
    elif ext == ".mesh":
        verts, tris = read_medit(path)
    else:
        raise FileFormatError(f"{path}: unsupported mesh format {ext!r}")
    if isinstance(feature_edges, (str, os.PathLike)):
        feature_edges = read_feature_edges(feature_edges)
    kw = {} if feature_angle is None else {"feature_angle": feature_angle}
    return SurfaceMesh(verts, tris, feature_edges=feature_edges, **kw)
