"""Shared mesh builders for the tests."""

import math

import numpy as np

from polycubelabel import shapes
from polycubelabel.mesh import SurfaceMesh, detect_feature_edges


def build(verts, tris, feature_angle=math.pi / 4):
    """Mesh with feature edges detected at the given dihedral threshold."""
    m = SurfaceMesh(verts, tris)
    return SurfaceMesh(verts, tris, feature_edges=detect_feature_edges(m, feature_angle))


def grid_box(nx=4, ny=4, nz=4, size=1.0):
    """Axis-aligned box whose faces are regular quad grids (consistent
    diagonals), welded into one closed surface.

    Unlike the ear-clipped shapes, rectangular cells make it easy to paint
    label patterns: cell (a, b) of a face maps to triangles 2k and 2k+1.
    """
    try:
        sx, sy, sz = size
    except TypeError:
        sx = sy = sz = size
    step = (sx / nx, sy / ny, sz / nz)

    index = {}
    verts = []

    def vid(key):
        if key not in index:
            index[key] = len(verts)
            verts.append((key[0] * step[0], key[1] * step[1], key[2] * step[2]))
        return index[key]

    # (origin, u step, v step, u count, v count); u x v = outward normal
    faces = [
        ((nx, 0, 0), (0, 1, 0), (0, 0, 1), ny, nz),   # +X
        ((0, 0, 0), (0, 0, 1), (0, 1, 0), nz, ny),    # -X
        ((0, ny, 0), (0, 0, 1), (1, 0, 0), nz, nx),   # +Y
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), nx, nz),    # -Y
        ((0, 0, nz), (1, 0, 0), (0, 1, 0), nx, ny),   # +Z
        ((0, 0, 0), (0, 1, 0), (1, 0, 0), ny, nx),    # -Z
    ]
    tris = []
    for origin, u, v, nu, nv in faces:
        for a in range(nu):
            for b in range(nv):
                o = tuple(origin[i] + a * u[i] + b * v[i] for i in range(3))
                pu = tuple(o[i] + u[i] for i in range(3))
                puv = tuple(o[i] + u[i] + v[i] for i in range(3))
                pv = tuple(o[i] + v[i] for i in range(3))
                tris.append((vid(o), vid(pu), vid(puv)))
                tris.append((vid(o), vid(puv), vid(pv)))
    return np.array(verts, dtype=np.float64), np.array(tris, dtype=np.int64)


def face_mask(mesh, axis, value, tol=1e-9):
    """Triangles whose three vertices all lie on the plane axis=value."""
    coords = mesh.vertices[mesh.triangles][:, :, axis]
    return np.all(np.abs(coords - value) < tol, axis=1)


def chart_euler(mesh, chart):
    """V - E + F of one chart's triangle set; 1 for a disk, 0 for an annulus."""
    vs, es = set(), set()
    for t in chart.triangles:
        a, b, c = (int(x) for x in mesh.triangles[int(t)])
        vs.update((a, b, c))
        for p, q in ((a, b), (b, c), (c, a)):
            es.add((p, q) if p < q else (q, p))
    return len(vs) - len(es) + len(chart.triangles)


def two_cubes_sharing_a_vertex():
    """Two unit cubes whose only common vertex is the first one's (1, 1, 1)
    corner: (vertices, triangles, index of the shared vertex)."""
    v, f = shapes.cube()
    v = np.asarray(v, dtype=np.float64)
    corner = int(np.nonzero((v == 1.0).all(axis=1))[0][0])  # the cube's (1, 1, 1)
    other = np.nonzero((v != 0.0).any(axis=1))[0]  # all but the (0, 0, 0) vertex
    index = np.full(len(v), corner)
    index[other] = len(v) + np.arange(len(other))
    verts = np.vstack([v, v[other] + 1.0])
    return verts, np.vstack([f, index[f]]), corner


def two_disjoint_cubes():
    """Two unit cubes apart from each other: (vertices, triangles)."""
    v, f = shapes.cube()
    v = np.asarray(v, dtype=np.float64)
    return np.vstack([v, v + 3.0]), np.vstack([f, np.asarray(f) + len(v)])


def cube_with_a_stray_vertex():
    """A unit cube plus one vertex no triangle uses, the last one:
    (vertices, triangles)."""
    v, f = shapes.cube()
    return np.vstack([v, [[5.0, 5.0, 5.0]]]), np.asarray(f)
