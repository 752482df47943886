"""Readers and writers: OBJ / MEDIT surface meshes, labeling files,
feature-edge sidecars and colored PLY exports.

All writers are byte-deterministic; coordinates are written with %.17g so
geometry round-trips bit-exact through the text formats.
"""

from __future__ import annotations

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
                if len(parts) < 4:
                    raise FileFormatError(f"{path}:{lineno}: malformed vertex line")
                verts.append(tuple(float(x) for x in parts[1:4]))
            elif tag == "f":
                refs = parts[1:]
                if len(refs) != 3:
                    raise NonTriangleFaceError(
                        f"{path}:{lineno}: face with {len(refs)} vertices; only triangles are supported"
                    )
                idx = []
                for ref in refs:
                    i = int(ref.split("/")[0])
                    idx.append(i - 1 if i > 0 else len(verts) + i)  # OBJ is 1-based
                tris.append(tuple(idx))
            # vn/vt/usemtl/o/g/s/mtllib are irrelevant here
    if not tris:
        raise FileFormatError(f"{path}: no faces found")
    return np.array(verts, dtype=np.float64), np.array(tris, dtype=np.int64)


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

    def take(n=1):
        nonlocal pos
        if pos + n > len(toks):
            raise FileFormatError(f"{path}: truncated file")
        out = toks[pos : pos + n]
        pos += n
        return out

    verts = tris = None
    dim = 3
    while pos < len(toks):
        key = take()[0].lower()
        if key == "meshversionformatted":
            take()
        elif key == "dimension":
            dim = int(take()[0])
            if dim != 3:
                raise FileFormatError(f"{path}: dimension {dim} not supported")
        elif key == "vertices":
            n = int(take()[0])
            flat = [float(x) for x in take(n * (dim + 1))]
            verts = np.array(flat, dtype=np.float64).reshape(n, dim + 1)[:, :dim]
        elif key == "triangles":
            n = int(take()[0])
            flat = [int(x) for x in take(n * 4)]
            tris = np.array(flat, dtype=np.int64).reshape(n, 4)[:, :3] - 1  # 1-based
        elif key in ("quadrilaterals", "tetrahedra", "hexahedra"):
            raise NonTriangleFaceError(f"{path}: contains {key}; only triangle surfaces are supported")
        elif key in _MEDIT_SKIP:
            n = int(take()[0])
            take(n * _MEDIT_SKIP[key])
        elif key == "end":
            break
        else:
            raise FileFormatError(f"{path}: unknown keyword {key!r}")
    if verts is None or tris is None:
        raise FileFormatError(f"{path}: missing Vertices or Triangles section")
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
