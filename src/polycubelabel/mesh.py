"""Closed triangle surface mesh with the connectivity needed for labeling.

The mesh is immutable after construction: all derived quantities (normals,
areas, edge table, triangle adjacency, interior dihedral angles, feature
edges) are computed once and the underlying arrays are marked read-only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class MeshError(ValueError):
    """Base class for mesh construction / format errors."""


class NonTriangleFaceError(MeshError):
    pass


class NonManifoldEdgeError(MeshError):
    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"non-manifold edge {self.edge}: more than 2 incident triangles")


class OpenSurfaceError(MeshError):
    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"open boundary at edge {self.edge}: only 1 incident triangle")


class NonFiniteVertexError(MeshError):
    def __init__(self, vertex_index):
        self.vertex_index = int(vertex_index)
        super().__init__(f"vertex {self.vertex_index} has a non-finite coordinate")


class DegenerateTriangleError(MeshError):
    def __init__(self, triangle_index):
        self.triangle_index = int(triangle_index)
        super().__init__(f"degenerate triangle {self.triangle_index} (area below tolerance)")


class DihedralInfo(NamedTuple):
    """Interior dihedral angle of one mesh edge.

    ``theta_int`` is measured inside the solid, in (0, 2*pi): flat edges sit
    at pi, convex edges below, reflex edges (solid angle > 180 degrees) above.
    """

    theta_int: float
    is_convex: bool
    is_reflex: bool


class SurfaceMesh:
    """Indexed closed 2-manifold triangle mesh.

    Parameters
    ----------
    vertices : (V, 3) array_like
        Vertex coordinates in model units; all must be finite. Both
        arrays are copied, so the caller's arrays stay writeable.
    triangles : (F, 3) array_like
        Vertex indices, counter-clockwise when seen from outside (outward
        normals).
    feature_edges : iterable of (int, int), optional
        CAD feature edges as vertex pairs. When given, they take precedence
        over dihedral detection: pairs whose dihedral deviation is below
        ``feature_angle`` are kept aside as "ignored". When omitted, feature
        edges are detected from the dihedral angles.
    feature_angle : float
        Threshold on |theta_int - pi| (radians) above which an edge counts
        as sharp. Defaults to 45 degrees.

    Attributes
    ----------
    vertices : (V, 3) float ndarray
    triangles : (F, 3) int ndarray
    normals : (F, 3) float ndarray
        Unit outward normals.
    areas : (F,) float ndarray
    edges : (E, 2) int ndarray
        Undirected edges as (min, max) vertex pairs, lexicographically sorted.
    edge_tris : (E, 2) int ndarray
        The two incident triangles per edge; ``edge_tris[e, 0]`` contains the
        directed edge (edges[e, 0] -> edges[e, 1]) in its winding.
    triangle_adjacency : (F, 3) int ndarray
        Neighbor triangle across local edge j = (t[j], t[(j+1) % 3]).
    dihedral_angles : (E,) float ndarray
        Interior dihedral angle per edge, in (0, 2*pi).
    feature_edges : frozenset of (int, int)
        Active (sharp) feature edges.
    ignored_feature_edges : frozenset of (int, int)
        Supplied CAD edges whose dihedral deviation is below the threshold.
    """

    def __init__(self, vertices, triangles, feature_edges=None, feature_angle=math.pi / 4):
        v = np.array(vertices, dtype=np.float64, order="C")
        t = np.array(triangles, dtype=np.int64, order="C")
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError("vertices must be an (V, 3) array")
        finite = np.isfinite(v).all(axis=1)
        if not finite.all():
            raise NonFiniteVertexError(np.argmin(finite))
        if t.ndim != 2 or t.shape[1] != 3:
            raise NonTriangleFaceError("triangles must be an (F, 3) array")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshError("triangle vertex index out of range")

        self.vertices = v
        self.triangles = t
        self.feature_angle = float(feature_angle)

        self._compute_geometry()
        self._build_edge_table()
        self._compute_dihedrals()
        self._assign_feature_edges(feature_edges)

        # vertex -> incident triangles, in triangle order (fan order on demand)
        vertex_tris = [[] for _ in range(len(v))]
        for ti, tri in enumerate(t):
            for vi in tri:
                vertex_tris[vi].append(ti)
        self._vertex_tris = [tuple(lst) for lst in vertex_tris]

        for arr in (self.vertices, self.triangles, self.normals, self.areas,
                    self.edges, self.edge_tris, self.triangle_adjacency,
                    self.dihedral_angles):
            arr.flags.writeable = False

    # -- construction helpers -------------------------------------------------

    def _compute_geometry(self):
        v, t = self.vertices, self.triangles
        p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        cross = np.cross(p1 - p0, p2 - p0)
        double_area = np.linalg.norm(cross, axis=1)
        bbox_diag2 = float(np.sum((v.max(axis=0) - v.min(axis=0)) ** 2)) if len(v) else 0.0
        bad = np.nonzero(double_area < 2e-12 * max(bbox_diag2, 1e-300))[0]
        if bad.size:
            raise DegenerateTriangleError(bad[0])
        self.areas = double_area / 2.0
        self.normals = cross / double_area[:, None]

    def _build_edge_table(self):
        t = self.triangles
        incidence = {}  # (a, b) a < b -> list of (triangle, local edge, is_forward)
        for ti in range(len(t)):
            for j in range(3):
                a, b = int(t[ti, j]), int(t[ti, (j + 1) % 3])
                key = (a, b) if a < b else (b, a)
                lst = incidence.setdefault(key, [])
                lst.append((ti, j, a < b))
                if len(lst) > 2:
                    raise NonManifoldEdgeError(key)
        for key, lst in incidence.items():
            if len(lst) != 2:
                raise OpenSurfaceError(key)
            if lst[0][2] == lst[1][2]:
                raise MeshError(f"inconsistent triangle orientation at edge {key}")

        keys = sorted(incidence)
        self.edges = np.array(keys, dtype=np.int64).reshape(-1, 2)
        self.edge_index = {key: i for i, key in enumerate(keys)}

        edge_tris = np.empty((len(keys), 2), dtype=np.int64)
        adjacency = np.empty_like(t)
        for i, key in enumerate(keys):
            (ta, ja, fwd_a), (tb, jb, _) = incidence[key]
            if not fwd_a:
                (ta, ja), (tb, jb) = (tb, jb), (ta, ja)
            edge_tris[i] = (ta, tb)
            adjacency[ta, ja] = tb
            adjacency[tb, jb] = ta
        self.edge_tris = edge_tris
        self.triangle_adjacency = adjacency

    def _compute_dihedrals(self):
        # theta_int = pi - alpha on convex edges, pi + alpha on reflex ones,
        # with alpha the angle between the two face normals. Convexity is read
        # from cross(n_left, n_right) against the directed edge of the left
        # triangle, which makes the result independent of triangle order.
        n1 = self.normals[self.edge_tris[:, 0]]
        n2 = self.normals[self.edge_tris[:, 1]]
        e = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        e /= np.linalg.norm(e, axis=1)[:, None]
        cross = np.cross(n1, n2)
        alpha = np.arctan2(np.linalg.norm(cross, axis=1), np.einsum("ij,ij->i", n1, n2))
        sign = np.where(np.einsum("ij,ij->i", cross, e) >= 0.0, 1.0, -1.0)
        self.dihedral_angles = np.pi - sign * alpha

    def _assign_feature_edges(self, supplied):
        deviation = np.abs(self.dihedral_angles - np.pi)
        if supplied is None:
            sharp = np.nonzero(deviation >= self.feature_angle)[0]
            self.feature_edges = frozenset(
                (int(self.edges[i, 0]), int(self.edges[i, 1])) for i in sharp
            )
            self.ignored_feature_edges = frozenset()
            return
        active, ignored = [], []
        for pair in supplied:
            a, b = int(pair[0]), int(pair[1])
            key = (a, b) if a < b else (b, a)
            if key not in self.edge_index:
                raise MeshError(f"feature edge {key} is not a mesh edge")
            (active if deviation[self.edge_index[key]] >= self.feature_angle else ignored).append(key)
        self.feature_edges = frozenset(active)
        self.ignored_feature_edges = frozenset(ignored)

    # -- queries ---------------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def genus(self):
        chi = self.n_vertices - self.n_edges + self.n_triangles
        return (2 - chi) // 2

    def edge_id(self, a, b):
        key = (a, b) if a < b else (b, a)
        try:
            return self.edge_index[key]
        except KeyError:
            raise MeshError(f"no edge {key} in mesh") from None

    def edge_sides(self, a, b) -> tuple:
        """Triangles (left, right) of the directed edge a -> b, seen from
        outside."""
        eid = self.edge_id(a, b)
        left, right = self.edge_tris[eid]
        if self.edges[eid, 0] != a:
            left, right = right, left
        return int(left), int(right)

    def is_feature_edge(self, a, b) -> bool:
        key = (a, b) if a < b else (b, a)
        return key in self.feature_edges

    def is_feature_vertex(self, v) -> bool:
        """True when a sharp feature edge ends at vertex ``v``."""
        return any(self.is_feature_edge(v, nbr) for nbr in self.vertex_neighbors_ordered(v))

    def vertex_triangles(self, v) -> tuple:
        """Triangles incident to vertex ``v``, in triangle-index order."""
        return self._vertex_tris[v]

    def vertex_fan(self, v, start=None) -> list:
        """Incident triangles in cyclic order around ``v``.

        The orbit crosses, at each step, the triangle edge that leaves ``v``
        toward its cyclic successor, so the result is consistently oriented.
        Starts at ``start`` or at the lowest incident triangle index.
        """
        if start is None:
            start = min(self._vertex_tris[v])
        fan = [start]
        t = start
        while True:
            tri = self.triangles[t]
            j = int(np.nonzero(tri == v)[0][0])
            t = int(self.triangle_adjacency[t, j])  # across edge (v, next vertex)
            if t == start:
                return fan
            fan.append(t)
            if len(fan) > len(self._vertex_tris[v]):
                raise MeshError(f"broken fan around vertex {v}")

    def vertex_neighbors_ordered(self, v) -> list:
        """Neighbor vertices of ``v`` in fan cyclic order."""
        out = []
        for t in self.vertex_fan(v):
            tri = self.triangles[t]
            j = int(np.nonzero(tri == v)[0][0])
            out.append(int(tri[(j + 1) % 3]))
        return out

    def signed_volume(self) -> float:
        """Signed enclosed volume; positive for outward orientation."""
        v, t = self.vertices, self.triangles
        return float(np.einsum("ij,ij->i", v[t[:, 0]], np.cross(v[t[:, 1]], v[t[:, 2]])).sum() / 6.0)


def interior_dihedral(mesh: SurfaceMesh, edge) -> DihedralInfo:
    """Interior dihedral angle of one edge, given by id or vertex pair."""
    eid = mesh.edge_id(*edge) if not np.isscalar(edge) else int(edge)
    if not 0 <= eid < mesh.n_edges:
        raise MeshError(f"invalid edge id {eid}")
    theta = float(mesh.dihedral_angles[eid])
    return DihedralInfo(theta, theta < math.pi, theta > math.pi)


def detect_feature_edges(mesh: SurfaceMesh, threshold: float) -> frozenset:
    """Edges whose dihedral deviation |theta_int - pi| reaches ``threshold``."""
    deviation = np.abs(mesh.dihedral_angles - np.pi)
    return frozenset(tuple(mesh.edges[i]) for i in np.nonzero(deviation >= threshold)[0])
