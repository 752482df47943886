"""Synthetic CAD-like solids used by tests and demos.

All generators return ``(vertices, triangles)`` arrays with outward (CCW)
orientation; wrap in :class:`~polycubelabel.mesh.SurfaceMesh` to use them.
"""

from __future__ import annotations

import math

import numpy as np

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def triangulate_polygon(poly) -> list:
    """Ear-clip a simple CCW polygon (list of 2D points) into index triples."""
    pts = [np.asarray(p, dtype=float) for p in poly]
    idx = list(range(len(pts)))
    tris = []
    while len(idx) > 3:
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % n]
            a, b, c = pts[i0], pts[i1], pts[i2]
            if _cross2(a, b, c) <= 1e-12:  # reflex or collinear corner
                continue
            if any(
                _cross2(a, b, pts[m]) >= -1e-12
                and _cross2(b, c, pts[m]) >= -1e-12
                and _cross2(c, a, pts[m]) >= -1e-12
                for m in idx
                if m not in (i0, i1, i2)
            ):
                continue
            tris.append((i0, i1, i2))
            del idx[k]
            break
        else:
            raise ValueError("ear clipping failed: polygon is not simple CCW")
    tris.append(tuple(idx))
    return tris


def extrude_polygon(poly, height=1.0):
    """Watertight prism over a simple CCW polygon in the xy-plane."""
    n = len(poly)
    poly = np.asarray(poly, dtype=float)
    verts = np.concatenate(
        [
            np.column_stack([poly, np.zeros(n)]),
            np.column_stack([poly, np.full(n, float(height))]),
        ]
    )
    tris = []
    for (i0, i1, i2) in triangulate_polygon(poly):
        tris.append((i0, i2, i1))  # bottom cap faces -z
        tris.append((n + i0, n + i1, n + i2))
    for i in range(n):
        j = (i + 1) % n
        tris.append((i, j, n + j))
        tris.append((i, n + j, n + i))
    return verts, np.array(tris, dtype=np.int64)


def cuboid(a=1.0, b=1.0, c=1.0):
    """Axis-aligned box [0,a] x [0,b] x [0,c], 12 triangles."""
    return extrude_polygon([(0, 0), (a, 0), (a, b), (0, b)], c)


def cube(size=1.0):
    return cuboid(size, size, size)


def l_prism(height=1.0):
    return extrude_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], height)


def t_prism(height=1.0):
    return extrude_polygon(
        [(0, 0), (3, 0), (3, 1), (2, 1), (2, 2), (1, 2), (1, 1), (0, 1)], height
    )


def u_prism(height=1.0):
    return extrude_polygon(
        [(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)], height
    )


def plus_prism(height=1.0):
    return extrude_polygon(
        [
            (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (2, 2),
            (2, 3), (1, 3), (1, 2), (0, 2), (0, 1), (1, 1),
        ],
        height,
    )


def staircase(steps=3, height=1.0):
    poly = [(0, 0), (steps, 0)]
    for k in range(steps):  # one riser + one tread per step, climbing toward -x
        poly += [(steps - k, k + 1), (steps - k - 1, k + 1)]
    return extrude_polygon(poly, height)


def notched_box(height=2.0):
    return extrude_polygon(
        [(0, 0), (4, 0), (4, 3), (3, 3), (3, 2), (1, 2), (1, 3), (0, 3)], height
    )


def wedge(height=1.0):
    """Right triangular prism; its slanted side is far from every axis."""
    return extrude_polygon([(0, 0), (2, 0), (0, 1)], height)


def cylinder(n=16, radius=1.0, height=2.0):
    poly = [
        (radius * math.cos(2 * math.pi * k / n), radius * math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]
    return extrude_polygon(poly, height)


def cone(n=16, radius=1.0, height=1.5):
    poly = np.array(
        [
            (radius * math.cos(2 * math.pi * k / n), radius * math.sin(2 * math.pi * k / n))
            for k in range(n)
        ]
    )
    verts = np.concatenate(
        [np.column_stack([poly, np.zeros(n)]), [[0.0, 0.0, float(height)]]]
    )
    tris = [(0, i + 1, i) for i in range(1, n - 1)]  # base fan, faces -z
    tris += [(i, (i + 1) % n, n) for i in range(n)]
    return verts, np.array(tris, dtype=np.int64)


def icosahedron():
    v = np.array(
        [
            (-1, PHI, 0), (1, PHI, 0), (-1, -PHI, 0), (1, -PHI, 0),
            (0, -1, PHI), (0, 1, PHI), (0, -1, -PHI), (0, 1, -PHI),
            (PHI, 0, -1), (PHI, 0, 1), (-PHI, 0, -1), (-PHI, 0, 1),
        ],
        dtype=float,
    )
    f = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return v, f


def icosphere(level=2, radius=1.0):
    v, f = icosahedron()
    for _ in range(level):
        v, f = subdivide(v, f)
        v = v / np.linalg.norm(v, axis=1)[:, None] * np.linalg.norm(v[0])
    return v / np.linalg.norm(v, axis=1)[:, None] * radius, f


def torus(R=2.0, r=1.0, nu=16, nv=8):
    # math.cos and math.sin per angle: np.cos can differ in the last bit
    th = [2 * math.pi * i / nu for i in range(nu)]
    ph = [2 * math.pi * j / nv for j in range(nv)]
    cos_th, sin_th = (np.array([f(x) for x in th]) for f in (math.cos, math.sin))
    ring = R + r * np.array([math.cos(x) for x in ph])
    verts = np.empty((nu, nv, 3))
    verts[..., 0] = ring * cos_th[:, None]
    verts[..., 1] = ring * sin_th[:, None]
    verts[..., 2] = r * np.array([math.sin(x) for x in ph])
    i, j = np.arange(nu)[:, None], np.arange(nv)
    v00 = i * nv + j
    v10 = (i + 1) % nu * nv + j
    v01 = i * nv + (j + 1) % nv
    v11 = (i + 1) % nu * nv + (j + 1) % nv
    tris = np.stack((np.stack((v00, v10, v11), axis=-1),
                     np.stack((v00, v11, v01), axis=-1)), axis=2)
    return verts.reshape(-1, 3), tris.reshape(-1, 3).astype(np.int64)


def subdivide(verts, tris, levels=1):
    """Midpoint 1-to-4 subdivision, ``levels`` times. The midpoints follow
    the vertices, numbered in the order their edges first appear, row by
    row as (ab, bc, ca)."""
    verts = np.asarray(verts, dtype=float)
    tris = np.asarray(tris, dtype=np.int64)
    for _ in range(levels):
        n = len(verts)
        ends = np.stack((tris, np.roll(tris, -1, axis=1)), axis=2).reshape(-1, 2)
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        _, first, inverse = np.unique(lo * n + hi, return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(len(order))
        ab, bc, ca = (n + number[inverse]).reshape(-1, 3).T
        a, b, c = tris.T
        seen = first[order]
        verts = np.concatenate((verts, (verts[lo[seen]] + verts[hi[seen]]) / 2.0))
        tris = np.stack((a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca), axis=1).reshape(-1, 3)
    return verts, tris


def rotate_z(verts, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return np.asarray(verts, dtype=float) @ rot.T


def jitter(verts, amplitude, seed=0):
    rng = np.random.default_rng(seed)
    verts = np.asarray(verts, dtype=float)
    return verts + rng.uniform(-amplitude, amplitude, verts.shape)
