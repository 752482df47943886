"""Closed triangle surface mesh with the connectivity needed for labeling.

The mesh is immutable after construction, and the arrays it exposes are
read-only. The constructor computes what every command reads and what can
refuse the input: normals, areas, the edge table with each edge's two
triangles, and the check of supplied feature edges. The rest is computed
once, on first use: the edge ids and neighbours of each triangle's corners
(read by a graph build from a parent graph and by the repair operators),
the interior dihedral angles and the feature edges derived from them (read
by labeling, validation and the metrics report, not by a graph build or a
PLY export), and the fan table of each vertex's corners, from the one in
its lowest triangle, which the repair operators read as rings in fan order
and as stars in triangle-index order.
"""

from __future__ import annotations

import functools
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


class GeometryRangeError(MeshError):
    """Coordinates at a scale where the triangle areas overflow or underflow
    float64: their squares, summed for each area, go past its range."""

    def __init__(self, kind, scale):
        self.kind = kind
        what = "largest coordinate" if kind == "overflow" else "largest extent"
        super().__init__(f"triangle areas {kind} at this scale ({what} {scale:.3g})")


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


_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def _cross(x, y):
    """Row-wise cross product of (N, 3) arrays, multiplied and subtracted as ``np.cross`` does."""
    out, tmp = np.empty_like(x), np.empty(len(x))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(x[:, i], y[:, j], out=out[:, k])
        out[:, k] -= np.multiply(x[:, j], y[:, i], out=tmp)
    return out


def _norm(x):
    """Row lengths of an (N, 3) array, summed left to right as ``np.linalg.norm`` does."""
    sq = x * x
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _stable_order(keys, n_values) -> tuple:
    """(order, sorted keys): ``np.argsort(keys, kind="stable")`` and the keys
    in that order, for int64 keys in 0..n_values-1. Adding its position
    ``i`` to each key times ``n = len(keys)`` makes the keys unique with the
    ties in position order, so one plain sort of ``key * n + i`` and a
    ``divmod`` by ``n`` give both, about three times faster; that needs
    ``n_values * n`` below 2**62, and past it the stable argsort runs."""
    n = len(keys)
    if n_values * n >= 2**62:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    unique = keys * n
    unique += np.arange(n)
    unique.sort()
    sorted_keys, order = np.divmod(unique, n)
    return order, sorted_keys


def component_roots(n, a, b, forest=None) -> np.ndarray:
    """The smallest node of each node's connected component, for nodes
    0..n-1 joined by the edges (a[i], b[i]). Min-label hooking: hook the
    larger of two adjacent roots onto the smaller, then jump pointers to
    the roots, until no edge joins two roots. The first round hooks the
    nodes themselves; later rounds see only the edges that still join two
    roots, as pairs of roots. Each test for the roots jumps twice.

    ``forest``, when given, is where hooking starts: each node's tree
    root, the smallest node of a tree inside its component, so that only
    the edges between trees need be given. Then only the roots those edges
    join are hooked, renumbered in order, and each tree takes the root its
    own root found; the forest is not modified."""
    if forest is not None:
        a, b = forest[a], forest[b]
        held = np.zeros(n, dtype=bool)
        held[a] = held[b] = True
        joined = held.nonzero()[0]
        top = np.arange(n)
        top[joined] = joined[component_roots(len(joined), joined.searchsorted(a),
                                             joined.searchsorted(b))]
        return top[forest]
    root = np.arange(n)
    while len(a):
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not ((jumped := root[root]) == root).all():
            root = jumped[jumped]
        a, b = root[a], root[b]
        apart = a != b
        a, b = a[apart], b[apart]
    return root


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
        as sharp; it must be 0 or more, and pi or more means no edge is
        sharp. Defaults to 45 degrees.

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

    ``vertices``, ``triangles``, ``normals``, ``areas``, ``edges`` and
    ``edge_tris`` are computed in the constructor. ``triangle_edges`` and
    ``triangle_adjacency`` are computed on first read, from the edge order
    the constructor keeps. ``dihedral_angles`` and the four feature
    attributes derived from it are each computed on first read too; a bad
    ``feature_angle`` and a supplied pair that is not a mesh edge are
    still refused by the constructor. The fan table is built on first use:
    ``vertex_ring(v)`` reads v's corners in fan order from the corner in v's
    lowest triangle, and ``vertex_triangles(v)`` in triangle-index order.
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
        if not len(t):
            raise MeshError("mesh has no triangles")
        if t.min() < 0 or t.max() >= len(v):
            raise MeshError("triangle vertex index out of range")
        if not float(feature_angle) >= 0.0:  # also refuses NaN
            raise MeshError(f"feature angle must be 0 or more radians, got {feature_angle}")

        self.vertices = v
        self.triangles = t
        self.feature_angle = float(feature_angle)

        self._compute_geometry()
        self._build_connectivity()
        # A closed, orientable, connected surface has V - E + F = 2 - 2g <= 2.
        # A mesh that passed the edge checks, uses every vertex and is one
        # piece becomes one when each pinched vertex is split into its k fans,
        # which adds k - 1 vertices: at V - E + F = 2 no vertex is pinched,
        # and the fan walk is skipped. Otherwise it runs first, so that a
        # pinch is named before a stray vertex or a second piece.
        n_components = self._count_components()
        if (n_components > 1 or self._degree.min() == 0
                or self.n_vertices - self.n_edges + self.n_triangles != 2):
            self._check_fans()
        self._supplied = self._supplied_feature_mask(feature_edges)
        self._check_one_surface(n_components)

        for arr in (self.vertices, self.triangles, self.normals, self.areas,
                    self.edges, self.edge_tris, self._by_edge):
            arr.flags.writeable = False

    # -- construction helpers -------------------------------------------------

    def _compute_geometry(self):
        v, t = self.vertices, self.triangles
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            p0, d1, d2 = (np.take(v, t[:, j], axis=0) for j in range(3))
            d1 -= p0
            d2 -= p0
            cross = _cross(d1, d2)
            double_area = _norm(cross)
            extent = v.max(axis=0) - v.min(axis=0)
            bbox_diag2 = float(np.sum(extent ** 2))
        if not (math.isfinite(bbox_diag2) and np.isfinite(double_area).all()):
            raise GeometryRangeError("overflow", float(np.abs(v).max()))
        # an area sums squares of products of two extents: below this squared
        # diagonal they are subnormal or zero, and the normals lose their length
        if bbox_diag2 < _SQRT_TINY and extent.max() > 0.0:
            raise GeometryRangeError("underflow", float(extent.max()))
        bad = np.nonzero(double_area < 2e-12 * max(bbox_diag2, 1e-300))[0]
        if bad.size:
            raise DegenerateTriangleError(bad[0])
        self.areas = double_area / 2.0
        self.normals = np.divide(cross, double_area[:, None], out=cross)

    def _build_connectivity(self):
        # Corner c = 3 * t + j stands for local edge j of triangle t. Sorting
        # the corner keys min(a, b) * V + max(a, b), ties in corner order,
        # numbers the edges in lexicographic order and lists each edge's
        # corners in corner order; a run of equal keys is one edge. The order
        # is kept: the corner tables are built from it on first read.
        t = self.triangles
        n_v = len(self.vertices)
        a, b = t.ravel(), np.roll(t, -1, axis=1).ravel()
        forward = a < b
        by_edge, keys = _stable_order(np.minimum(a, b) * n_v + np.maximum(a, b), n_v * n_v)
        starts = np.concatenate(([True], keys[1:] != keys[:-1]))
        first = np.flatnonzero(starts)
        counts = np.diff(first, append=len(keys))
        self._edge_keys = keys[first]
        del b, keys, starts  # free the sort's temporaries before the tables below
        self.edges = np.stack(np.divmod(self._edge_keys, n_v), axis=1)

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
        bad = np.nonzero(forward[c0] == forward[c1])[0]
        if bad.size:
            key = tuple(self.edges[bad[np.argmin(c0[bad])]].tolist())
            raise MeshError(f"inconsistent triangle orientation at edge {key}")

        fwd = forward[c0]  # the left triangle holds the edge as min -> max
        self.edge_tris = np.stack((np.where(fwd, c0, c1), np.where(fwd, c1, c0)), axis=1) // 3
        self._by_edge = by_edge  # edge e's corners at 2e and 2e + 1
        self._degree = np.bincount(a, minlength=n_v)

    def _check_fans(self):
        # Crossing the edge that leaves a corner's vertex leads to the next
        # corner of that vertex, so the corners of each vertex split into
        # cycles, one per fan. Min-label pointer doubling finds them.
        n = 3 * self.n_triangles
        label, step, span = np.arange(n), self._corner_next, 1
        while span < self._degree.max(initial=0):
            label = np.minimum(label, label[step])
            step = step[step]
            span *= 2
        fans = np.bincount(self.triangles.ravel()[label == np.arange(n)],
                           minlength=self.n_vertices)
        pinched = np.nonzero(fans > 1)[0]
        if pinched.size:
            raise NonManifoldVertexError(pinched[0])

    def _compute_dihedrals(self):
        # theta_int = pi - alpha on convex edges, pi + alpha on reflex ones,
        # with alpha the angle between the two face normals. Convexity is read
        # from cross(n_left, n_right) against the directed edge of the left
        # triangle, which makes the result independent of triangle order.
        # np.take gathers rows about three times faster than fancy indexing
        n1, n2 = (np.take(self.normals, self.edge_tris[:, k], axis=0) for k in (0, 1))
        v = self.vertices
        e = np.take(v, self.edges[:, 1], axis=0) - np.take(v, self.edges[:, 0], axis=0)
        e /= _norm(e)[:, None]
        cross = _cross(n1, n2)
        alpha = np.arctan2(_norm(cross), np.einsum("ij,ij->i", n1, n2))
        sign = np.where(np.einsum("ij,ij->i", cross, e) >= 0.0, 1.0, -1.0)
        return np.pi - sign * alpha

    def _supplied_feature_mask(self, supplied):
        """The supplied CAD edges by edge id, or None when none are given;
        refuses a pair that is not a mesh edge."""
        if supplied is None:
            return None
        given = np.zeros(self.n_edges, dtype=bool)
        for pair in supplied:
            a, b = int(pair[0]), int(pair[1])
            try:
                given[self.edge_id(a, b)] = True
            except MeshError:
                key = (a, b) if a < b else (b, a)
                raise MeshError(f"feature edge {key} is not a mesh edge") from None
        return _read_only(given)

    def _count_components(self) -> int:
        root = component_roots(self.n_triangles, *self.edge_tris.T)
        return int(np.count_nonzero(root == np.arange(self.n_triangles)))

    def _check_one_surface(self, n_components):
        # The genus formula holds for one closed surface with no stray vertices.
        unused = np.nonzero(self._degree == 0)[0]
        if unused.size:
            raise UnreferencedVertexError(unused[0])
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

    def _vertex(self, v) -> int:
        if not 0 <= (v := int(v)) < self.n_vertices:
            raise MeshError(f"no vertex {v} in mesh")
        return v

    def edge_sides(self, a, b) -> tuple:
        """Triangles (left, right) of the directed edge a -> b, seen from
        outside."""
        eid = self.edge_id(a, b)
        left, right = self.edge_tris[eid]
        if self.edges[eid, 0] != a:
            left, right = right, left
        return int(left), int(right)

    def is_feature_vertex(self, v) -> bool:
        """True when a sharp feature edge ends at vertex ``v``."""
        return bool(self.feature_vertex_mask[self._vertex(v)])

    @functools.cached_property
    def triangle_edges(self):
        edge_of = np.empty_like(self._by_edge)
        edge_of[self._by_edge] = np.arange(len(edge_of)) >> 1
        return _read_only(edge_of.reshape(-1, 3))

    @functools.cached_property
    def _partner(self):
        """The other corner on each corner's edge."""
        c0, c1 = self._by_edge[0::2], self._by_edge[1::2]
        partner = np.empty_like(self._by_edge)
        partner[c0], partner[c1] = c1, c0
        return _read_only(partner)

    @functools.cached_property
    def triangle_adjacency(self):
        return _read_only((self._partner // 3).reshape(-1, 3))

    @functools.cached_property
    def _corner_next(self):
        """The next corner of the vertex of each corner, around its fan: the
        corner after the partner in the partner's triangle."""
        after = np.arange(3 * self.n_triangles).reshape(-1, 3)[:, [1, 2, 0]].ravel()
        return _read_only(after.take(self._partner))

    @functools.cached_property
    def dihedral_angles(self):
        return _read_only(self._compute_dihedrals())

    @functools.cached_property
    def feature_edge_mask(self):
        sharp = np.abs(self.dihedral_angles - np.pi) >= self.feature_angle
        return _read_only(sharp if self._supplied is None else self._supplied & sharp)

    @functools.cached_property
    def feature_vertex_mask(self):
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.edges[self.feature_edge_mask].ravel()] = True
        return _read_only(mask)

    @functools.cached_property
    def feature_edges(self):
        return frozenset(map(tuple, self.edges[self.feature_edge_mask].tolist()))

    @functools.cached_property
    def ignored_feature_edges(self):
        if self._supplied is None:
            return frozenset()
        return frozenset(map(tuple, self.edges[self._supplied & ~self.feature_edge_mask].tolist()))

    @functools.cached_property
    def _fans(self):
        """(starts, triangles, neighbors, edge ids), v's corners at starts[v]:starts[v + 1]."""
        n, degree = 3 * self.n_triangles, self._degree
        at, corner = self.triangles.ravel(), np.arange(n)
        lowest = np.full(self.n_vertices, n)
        np.minimum.at(lowest, at, corner)
        # List ranking by pointer doubling: a corner's rank is its number of
        # steps along _corner_next from the lowest corner of its vertex.
        back = np.empty(n, dtype=np.int64)
        back[self._corner_next] = corner
        back[lowest] = lowest
        rank = (back != corner).astype(np.int64)
        for _ in range(int(degree.max() - 2).bit_length()):  # reach degree - 1 steps
            rank += rank[back]
            back = back[back]
        starts = np.concatenate(([0], np.cumsum(degree)))
        corners = np.empty(n, dtype=np.int64)
        corners[starts[at] + rank] = corner
        neighbors = np.roll(self.triangles, -1, axis=1).ravel()[corners]
        edge_ids = self.triangle_edges.ravel()[corners]
        return tuple(_read_only(arr) for arr in (starts, corners // 3, neighbors, edge_ids))

    def vertex_triangles(self, v) -> tuple:
        """Triangles incident to vertex ``v``, in triangle-index order."""
        v = self._vertex(v)
        starts, tris, _, _ = self._fans
        return tuple(sorted(tris[starts[v]:starts[v + 1]].tolist()))

    def _ring(self, v) -> tuple:
        """(neighbor vertices, edge ids) of the edges at ``v``, in fan order:
        read-only views of the fan table, to gather from."""
        starts, _, neighbors, edge_ids = self._fans
        lo, hi = starts[v], starts[v + 1]
        return neighbors[lo:hi], edge_ids[lo:hi]

    def vertex_ring(self, v) -> list:
        """(neighbor vertex, edge id) of each edge at ``v``, in fan order."""
        neighbors, edge_ids = self._ring(self._vertex(v))
        return list(zip(neighbors.tolist(), edge_ids.tolist()))

    def signed_volume(self) -> float:
        """Signed enclosed volume; positive for outward orientation."""
        v, t = self.vertices, self.triangles
        return float(np.einsum("ij,ij->i", v[t[:, 0]], _cross(v[t[:, 1]], v[t[:, 2]])).sum() / 6.0)


def interior_dihedral(mesh: SurfaceMesh, edge) -> DihedralInfo:
    """Interior dihedral angle of one edge, given by id or vertex pair."""
    eid = mesh.edge_id(*edge) if not np.isscalar(edge) else int(edge)
    if not 0 <= eid < mesh.n_edges:
        raise MeshError(f"invalid edge id {eid}")
    theta = float(mesh.dihedral_angles[eid])
    return DihedralInfo(theta, theta < math.pi, theta > math.pi)


def detect_feature_edges(mesh: SurfaceMesh, threshold: float) -> frozenset:
    """Edges whose dihedral deviation |theta_int - pi| reaches ``threshold``."""
    sharp = np.abs(mesh.dihedral_angles - np.pi) >= threshold
    return frozenset(map(tuple, mesh.edges[sharp].tolist()))
