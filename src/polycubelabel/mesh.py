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


class NonManifoldVertexError(MeshError):
    def __init__(self, vertex):
        self.vertex = int(vertex)
        super().__init__(
            f"non-manifold vertex {self.vertex}: its triangles form more than one fan"
        )


class NonFiniteVertexError(MeshError):
    def __init__(self, vertex_index):
        self.vertex_index = int(vertex_index)
        super().__init__(f"vertex {self.vertex_index} has a non-finite coordinate")


class DegenerateTriangleError(MeshError):
    def __init__(self, triangle_index):
        self.triangle_index = int(triangle_index)
        super().__init__(f"degenerate triangle {self.triangle_index} (area below tolerance)")


class UnreferencedVertexError(MeshError):
    def __init__(self, vertex):
        self.vertex = int(vertex)
        super().__init__(f"vertex {self.vertex} is used by no triangle")


class DisconnectedSurfaceError(MeshError):
    def __init__(self, n_components):
        self.n_components = int(n_components)
        super().__init__(
            f"surface has {self.n_components} connected components; only one is supported"
        )


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
        normals). Every edge needs exactly two triangles, the triangles
        around each vertex must form one fan (no pinched vertices), every
        vertex must be used, and the surface must be one connected piece.
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
        Edge ids index this table.
    triangle_edges : (F, 3) int ndarray
        Edge id of local edge j = (t[j], t[(j+1) % 3]) of each triangle.
    edge_tris : (E, 2) int ndarray
        The two incident triangles per edge; ``edge_tris[e, 0]`` contains the
        directed edge (edges[e, 0] -> edges[e, 1]) in its winding.
    triangle_adjacency : (F, 3) int ndarray
        Neighbor triangle across local edge j = (t[j], t[(j+1) % 3]).
    dihedral_angles : (E,) float ndarray
        Interior dihedral angle per edge, in (0, 2*pi).
    feature_edge_mask : (E,) bool ndarray
        True on the active (sharp) feature edges, by edge id.
    feature_vertex_mask : (V,) bool ndarray
        True on the vertices where an active feature edge ends.
    feature_edges : frozenset of (int, int)
        Active (sharp) feature edges as vertex pairs; the same edges as
        ``feature_edge_mask``, whose ascending ids give ``sorted(feature_edges)``.
    ignored_feature_edges : frozenset of (int, int)
        Supplied CAD edges whose dihedral deviation is below the threshold.

    ``vertex_triangles(v)`` lists the star of ``v`` in triangle-index order;
    ``vertex_fan(v)`` lists it in cyclic order around ``v``.
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
        self._build_connectivity()
        self._compute_dihedrals()
        self._assign_feature_edges(feature_edges)
        self._check_one_surface()

        for arr in (self.vertices, self.triangles, self.normals, self.areas,
                    self.edges, self.triangle_edges, self.edge_tris,
                    self.triangle_adjacency, self.dihedral_angles,
                    self.feature_edge_mask, self.feature_vertex_mask):
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

    def _build_connectivity(self):
        # Corner c = 3 * t + j stands for local edge j of triangle t. One sort
        # of the corner keys min(a, b) * V + max(a, b) numbers the edges in
        # lexicographic order; a stable argsort of the edge ids lists each
        # edge's corners in corner order.
        t = self.triangles
        n_v = len(self.vertices)
        a, b = t.ravel(), np.roll(t, -1, axis=1).ravel()
        keys, edge_of, counts = np.unique(
            np.minimum(a, b) * n_v + np.maximum(a, b), return_inverse=True, return_counts=True
        )
        self._edge_keys = keys
        self.edges = np.stack(np.divmod(keys, n_v), axis=1)
        self.triangle_edges = edge_of.reshape(-1, 3)
        by_edge = np.argsort(edge_of, kind="stable")
        first = np.cumsum(counts) - counts

        # a third corner on an edge is reported first, then a lone corner,
        # each at the edge where it shows earliest in corner order
        over = np.nonzero(counts > 2)[0]
        if over.size:
            e = over[np.argmin(by_edge[first[over] + 2])]
            raise NonManifoldEdgeError(self.edges[e].tolist())
        under = np.nonzero(counts < 2)[0]
        if under.size:
            e = under[np.argmin(by_edge[first[under]])]
            raise OpenSurfaceError(self.edges[e].tolist())
        c0, c1 = by_edge[0::2], by_edge[1::2]
        forward = a < b
        bad = np.nonzero(forward[c0] == forward[c1])[0]
        if bad.size:
            key = tuple(self.edges[bad[np.argmin(c0[bad])]].tolist())
            raise MeshError(f"inconsistent triangle orientation at edge {key}")

        fwd = forward[c0]  # the left triangle holds the edge as min -> max
        self.edge_tris = np.stack((np.where(fwd, c0, c1), np.where(fwd, c1, c0)), axis=1) // 3
        partner = np.empty_like(a)
        partner[c0], partner[c1] = c1, c0
        self.triangle_adjacency = (partner // 3).reshape(-1, 3)

        # vertex stars: corners grouped by vertex, in triangle order
        self._star_tris = np.argsort(a, kind="stable") // 3
        degree = np.bincount(a, minlength=n_v)
        self._star_start = np.concatenate(([0], np.cumsum(degree)))

        # Crossing the edge that leaves a corner's vertex leads to the next
        # corner of that vertex, so the corners of each vertex split into
        # cycles, one per fan. Min-label pointer doubling finds them.
        self._corner_next = partner - partner % 3 + (partner + 1) % 3
        label, step, span = np.arange(len(a)), self._corner_next, 1
        while span < degree.max(initial=0):
            label = np.minimum(label, label[step])
            step = step[step]
            span *= 2
        fans = np.bincount(a[label == np.arange(len(a))], minlength=n_v)
        pinched = np.nonzero(fans > 1)[0]
        if pinched.size:
            raise NonManifoldVertexError(pinched[0])

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
        sharp = np.abs(self.dihedral_angles - np.pi) >= self.feature_angle
        if supplied is None:
            given = sharp
        else:
            given = np.zeros_like(sharp)
            for pair in supplied:
                a, b = int(pair[0]), int(pair[1])
                try:
                    given[self.edge_id(a, b)] = True
                except MeshError:
                    key = (a, b) if a < b else (b, a)
                    raise MeshError(f"feature edge {key} is not a mesh edge") from None
        self.feature_edge_mask = given & sharp
        self.feature_vertex_mask = np.zeros(self.n_vertices, dtype=bool)
        self.feature_vertex_mask[self.edges[self.feature_edge_mask].ravel()] = True
        self.feature_edges = frozenset(map(tuple, self.edges[self.feature_edge_mask].tolist()))
        self.ignored_feature_edges = frozenset(map(tuple, self.edges[given & ~sharp].tolist()))

    def _check_one_surface(self):
        # The genus formula holds for one closed surface with no stray
        # vertices. Components by min-label hooking: hook the larger of two
        # adjacent roots onto the smaller, then jump pointers to the roots.
        unused = np.nonzero(np.diff(self._star_start) == 0)[0]
        if unused.size:
            raise UnreferencedVertexError(unused[0])
        root = np.arange(self.n_triangles)
        a, b = self.edge_tris[:, 0], self.edge_tris[:, 1]
        while (apart := root[a] != root[b]).any():
            ra, rb = root[a[apart]], root[b[apart]]
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while not np.array_equal(jumped := root[root], root):
                root = jumped
        n_components = np.count_nonzero(root == np.arange(self.n_triangles))
        if n_components > 1:
            raise DisconnectedSurfaceError(n_components)

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
        a, b = int(a), int(b)
        lo, hi = (a, b) if a < b else (b, a)
        if 0 <= lo and hi < self.n_vertices:
            key = lo * self.n_vertices + hi
            eid = int(self._edge_keys.searchsorted(key))
            if eid < self.n_edges and self._edge_keys[eid] == key:
                return eid
        raise MeshError(f"no edge {(lo, hi)} in mesh")

    def edge_sides(self, a, b) -> tuple:
        """Triangles (left, right) of the directed edge a -> b, seen from
        outside."""
        eid = self.edge_id(a, b)
        left, right = self.edge_tris[eid]
        if self.edges[eid, 0] != a:
            left, right = right, left
        return int(left), int(right)

    def is_feature_edge(self, a, b) -> bool:
        """True when (a, b) is an active feature edge; False for non-edges."""
        try:
            return bool(self.feature_edge_mask[self.edge_id(a, b)])
        except MeshError:
            return False

    def is_feature_vertex(self, v) -> bool:
        """True when a sharp feature edge ends at vertex ``v``."""
        return bool(self.feature_vertex_mask[v])

    def vertex_triangles(self, v) -> tuple:
        """Triangles incident to vertex ``v``, in triangle-index order."""
        return tuple(self._star_tris[self._star_start[v]:self._star_start[v + 1]].tolist())

    def _fan_corners(self, v, start=None) -> list:
        if start is None:
            start = int(self._star_tris[self._star_start[v]])
        c = first = 3 * start + int(np.nonzero(self.triangles[start] == v)[0][0])
        out = [c]
        while (c := int(self._corner_next[c])) != first:
            out.append(c)
        return out

    def vertex_fan(self, v, start=None) -> list:
        """Incident triangles in cyclic order around ``v``.

        The orbit crosses, at each step, the triangle edge that leaves ``v``
        toward its cyclic successor, so the result is consistently oriented.
        Starts at ``start`` or at the lowest incident triangle index.
        """
        return [c // 3 for c in self._fan_corners(v, start)]

    def vertex_ring(self, v) -> list:
        """(neighbor vertex, edge id) of each edge at ``v``, in fan cyclic order."""
        flat, edge_of = self.triangles.ravel(), self.triangle_edges.ravel()
        return [(int(flat[c - c % 3 + (c + 1) % 3]), int(edge_of[c])) for c in self._fan_corners(v)]

    def vertex_neighbors_ordered(self, v) -> list:
        """Neighbor vertices of ``v`` in fan cyclic order."""
        return [w for w, _ in self.vertex_ring(v)]

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
