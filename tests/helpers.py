"""Shared mesh builders for the tests, and a spy on the expansion moves."""

import math

import numpy as np

from polycubelabel import graphcut, shapes
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh

from oracles import ring_grow


def build(verts, tris, feature_angle=math.pi / 4):
    """Mesh with feature edges detected at the given dihedral threshold."""
    detected = SurfaceMesh(verts, tris, feature_angle=feature_angle).feature_edges
    return SurfaceMesh(verts, tris, feature_edges=detected)


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


def spy_moves(monkeypatch):
    """Record the label of every expansion move run from here on."""
    alphas, move = [], graphcut._expansion_move

    def spy(costs, pairs, weights, cur, alpha):
        alphas.append(alpha)
        return move(costs, pairs, weights, cur, alpha)

    monkeypatch.setattr(graphcut, "_expansion_move", spy)
    return alphas


# -- test shapes with label patterns for the graph and validity oracles -------------


def tilted_torus():
    """torus(24, 12) turned 0.3 rad about z, then 0.5 rad about x."""
    verts, tris = shapes.torus(nu=24, nv=12)
    cz, sz, cx, sx = math.cos(0.3), math.sin(0.3), math.cos(0.5), math.sin(0.5)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return SurfaceMesh(verts @ (rx @ rz).T, tris)


GRAPH_SHAPES = {
    "cube": lambda: SurfaceMesh(*shapes.subdivide(*shapes.cube(), 2)),
    "l-prism": lambda: SurfaceMesh(*shapes.subdivide(*shapes.l_prism(), 2)),
    "sphere": lambda: SurfaceMesh(*shapes.icosphere(2)),
    "torus": lambda: SurfaceMesh(*shapes.torus(nu=24, nv=12)),
    "cone": lambda: SurfaceMesh(*shapes.cone(16)),
    "tilted-torus": tilted_torus,
}
_graph_meshes = {}


def graph_mesh(shape):
    """The mesh of a GRAPH_SHAPES entry, built once."""
    if shape not in _graph_meshes:
        _graph_meshes[shape] = GRAPH_SHAPES[shape]()
    return _graph_meshes[shape]


def blob_labeling(shape, n_blobs, seed):
    """The naive labeling of a test shape with blobs of random labels painted
    over it: each blob is 1-3 triangle rings around a random triangle."""
    m = graph_mesh(shape)
    rng = np.random.default_rng(seed)
    labels = naive_labeling(m)
    for _ in range(n_blobs):
        blob = ring_grow(m, [int(rng.integers(m.n_triangles))], int(rng.integers(1, 4)))
        labels[sorted(blob)] = rng.integers(0, 6)
    return m, labels


def noisy_labeling(shape, noise, seed):
    """The naive labeling of a test shape with each triangle, at probability
    ``noise``, given a random label."""
    m = graph_mesh(shape)
    rng = np.random.default_rng(seed)
    labels = naive_labeling(m)
    flip = rng.random(m.n_triangles) < noise
    labels[flip] = rng.integers(0, 6, size=int(flip.sum()))
    return m, labels
