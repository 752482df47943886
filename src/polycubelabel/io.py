"""Readers and writers: OBJ / MEDIT surface meshes, labeling files,
feature-edge sidecars and colored PLY exports.

All writers are byte-deterministic; coordinates are written with %.17g so
geometry round-trips bit-exact through the text formats.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .labeling import LABEL_COLORS
from .mesh import MeshError, NonTriangleFaceError, SurfaceMesh


class FileFormatError(MeshError):
    pass


def _fmt(x: float) -> str:
    return "%.17g" % x


# -- OBJ -----------------------------------------------------------------------


def read_obj(path):
    verts, tris = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            if tag == "v":
                try:
                    verts.append((float(parts[1]), float(parts[2]), float(parts[3])))
                except (IndexError, ValueError):
                    raise FileFormatError(f"{path}:{lineno}: malformed vertex line") from None
            elif tag == "f":
                refs = parts[1:]
                if len(refs) != 3:
                    raise NonTriangleFaceError(
                        f"{path}:{lineno}: face with {len(refs)} vertices; only triangles are supported"
                    )
                try:
                    idx = [int(ref.split("/")[0]) for ref in refs]
                except ValueError:
                    raise FileFormatError(f"{path}:{lineno}: malformed face line") from None
                # OBJ is 1-based, and a negative index counts back from the
                # last vertex read; 0 becomes -1, which the range check rejects
                tris.append(tuple(i - 1 if i > 0 else len(verts) + i if i else -1 for i in idx))
            # vn/vt/usemtl/o/g/s/mtllib are irrelevant here
    if not tris:
        raise FileFormatError(f"{path}: no faces found")
    tris = np.array(tris, dtype=np.int64)
    bad = np.nonzero(((tris < 0) | (tris >= len(verts))).any(axis=1))[0]
    if bad.size:
        raise FileFormatError(
            f"{path}:{_nth_face_line(path, bad[0])}: face vertex index out of range "
            f"for {len(verts)} vertices"
        )
    return np.array(verts, dtype=np.float64), tris


def _nth_face_line(path, k):
    """Line number of face k (0-based) of an OBJ file."""
    with open(path) as fh:
        lines = (n for n, line in enumerate(fh, 1) if line.split()[:1] == ["f"])
        return next(itertools.islice(lines, k, None))


def write_obj(path, verts, tris):
    with open(path, "w") as fh:
        for p in np.asarray(verts, dtype=np.float64):
            fh.write(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        for a, b, c in np.asarray(tris, dtype=np.int64):
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


# -- MEDIT .mesh -----------------------------------------------------------------

_MEDIT_SKIP = {
    "edges": 3,
    "corners": 1,
    "ridges": 1,
    "requiredvertices": 1,
    "normals": 3,
    "tangents": 3,
}


def read_medit(path):
    toks = []
    with open(path) as fh:
        for line in fh:
            toks.extend(line.split("#", 1)[0].split())
    pos = 0

    def take(n=1, kind=None):
        """The next n tokens, converted by ``kind`` when given."""
        nonlocal pos
        if n < 0:
            raise FileFormatError(f"{path}: negative count")
        if pos + n > len(toks):
            raise FileFormatError(f"{path}: truncated file")
        out = toks[pos : pos + n]
        if kind is not None:
            try:
                out = list(map(kind, out))
            except ValueError as exc:
                raise FileFormatError(f"{path}: {exc}") from None
        pos += n
        return out

    verts = tris = None
    dim = 3
    while pos < len(toks):
        key = take()[0].lower()
        if key == "meshversionformatted":
            take()
        elif key == "dimension":
            dim = take(1, int)[0]
            if dim != 3:
                raise FileFormatError(f"{path}: dimension {dim} not supported")
        elif key == "vertices":
            n = take(1, int)[0]
            flat = take(n * (dim + 1), float)
            verts = np.array(flat, dtype=np.float64).reshape(n, dim + 1)[:, :dim]
        elif key == "triangles":
            n = take(1, int)[0]
            flat = take(n * 4, int)
            tris = np.array(flat, dtype=np.int64).reshape(n, 4)[:, :3] - 1  # 1-based
        elif key in ("quadrilaterals", "tetrahedra", "hexahedra"):
            raise NonTriangleFaceError(f"{path}: contains {key}; only triangle surfaces are supported")
        elif key in _MEDIT_SKIP:
            take(take(1, int)[0] * _MEDIT_SKIP[key])
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
        for p in verts:
            fh.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} 0\n")
        fh.write(f"Triangles\n{len(tris)}\n")
        for a, b, c in tris:
            fh.write(f"{a + 1} {b + 1} {c + 1} 0\n")
        fh.write("End\n")


# -- labelings and feature edges ---------------------------------------------


def read_labeling(path, n_triangles=None):
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: not an integer: {line!r}") from None
            if not 0 <= v <= 5:
                raise FileFormatError(f"{path}:{lineno}: label {v} outside 0..5")
            labels.append(v)
    if n_triangles is not None and len(labels) != n_triangles:
        raise FileFormatError(
            f"{path}: {len(labels)} labels for {n_triangles} triangles"
        )
    return np.array(labels, dtype=np.int64)


def write_labeling(path, labels):
    with open(path, "w") as fh:
        fh.writelines(f"{int(v)}\n" for v in labels)


def read_feature_edges(path):
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise FileFormatError(f"{path}:{lineno}: expected 'v1 v2'")
            pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def write_feature_edges(path, pairs):
    canon = sorted((a, b) if a < b else (b, a) for a, b in pairs)
    with open(path, "w") as fh:
        fh.writelines(f"{a} {b}\n" for a, b in canon)


# -- colored PLY ---------------------------------------------------------------


def write_ply(path, mesh: SurfaceMesh, labels):
    """Ascii PLY with one RGB color per face according to its label."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (mesh.n_triangles,):
        raise FileFormatError("labeling length does not match mesh")
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
        for p in mesh.vertices:
            fh.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        for t, (a, b, c) in enumerate(mesh.triangles):
            r, g, bl = LABEL_COLORS[labels[t]]
            fh.write(f"3 {a} {b} {c} {r} {g} {bl}\n")


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
