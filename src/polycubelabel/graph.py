"""Structure extracted from a labeled mesh: charts of same-label triangles,
the boundaries between them, corners where boundaries meet, and per-boundary
turning points (where a boundary locally reverses along its polycube axis).

Everything here is ordered deterministically: charts by smallest triangle
index, boundaries in discovery order from the smallest corner / edge, corners
by vertex index. Rebuilding from the same labeling yields identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import SurfaceMesh

_SIGN_TOL = 1e-9


def discontinuity_edges(mesh: SurfaceMesh, labels) -> np.ndarray:
    """Bool mask over mesh edges whose two triangles carry different labels."""
    labels = np.asarray(labels)
    return labels[mesh.edge_tris[:, 0]] != labels[mesh.edge_tris[:, 1]]


@dataclass
class Chart:
    index: int
    label: int
    triangles: np.ndarray  # sorted triangle ids
    boundaries: tuple = ()
    neighbors: tuple = ()  # distinct adjacent chart indices, sorted

    @property
    def valence(self) -> int:
        return len(self.neighbors)


@dataclass
class Boundary:
    index: int
    left_chart: int
    right_chart: int
    left_label: int
    right_label: int
    vertices: tuple  # path v0..vk; cyclic boundaries do not repeat v0 at the end
    edge_ids: tuple
    cyclic: bool
    axis: Optional[int]  # polycube edge axis (the third axis); None if same-axis
    raw_signs: tuple = ()  # sign of each edge's projection onto `axis`
    edge_signs: tuple = ()  # optimal +-1 assignment from the direction DP
    turning_points: tuple = ()  # indices into `vertices`

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def endpoints(self) -> tuple:
        return () if self.cyclic else (self.vertices[0], self.vertices[-1])

    def turning_point_vertices(self) -> tuple:
        return tuple(self.vertices[i] for i in self.turning_points)


@dataclass
class Corner:
    vertex: int
    boundaries: tuple  # incident boundary ids, with multiplicity, sorted
    axis_counts: tuple  # how many incident boundaries run along X / Y / Z
    has_undefined_axis: bool

    @property
    def valence(self) -> int:
        return len(self.boundaries)


def optimal_edge_directions(signs, mu: float = 1.0, cyclic: bool = False):
    """Best +-1 direction per boundary edge.

    ``signs`` holds each edge's measured sign (+1/-1, or 0 when the edge is
    perpendicular to the boundary axis). Mismatching a nonzero sign costs 1,
    a zero sign costs 1/2 either way, and each direction flip between
    consecutive edges costs ``mu``. Exact DP; ties prefer +1 and fewer flips.
    Returns (directions, cost).
    """
    n = len(signs)
    if n == 0:
        return (), 0.0
    best = None
    for forced in ((1, -1) if cyclic else (None,)):
        # cost of the best prefix ending in +1 / -1; flips[i - 1] says
        # whether each state of edge i was reached by a flip, which happens
        # only when flipping is strictly cheaper
        plus = (1.0 - signs[0]) / 2.0 if forced != -1 else math.inf
        minus = (1.0 + signs[0]) / 2.0 if forced != 1 else math.inf
        flips = []
        for sign in signs[1:]:
            to_plus, to_minus = minus + mu < plus, plus + mu < minus
            plus, minus = (
                (minus + mu if to_plus else plus) + (1.0 - sign) / 2.0,
                (plus + mu if to_minus else minus) + (1.0 + sign) / 2.0,
            )
            flips.append((to_plus, to_minus))
        if forced == 1:
            minus += mu
        elif forced == -1:
            plus += mu
        state = 0 if plus <= minus else 1
        total = (plus, minus)[state]
        dirs = [state]
        for flip in reversed(flips):
            state ^= flip[state]
            dirs.append(state)
        dirs = tuple(1 - 2 * x for x in reversed(dirs))
        if best is None or total < best[1] - 1e-12:
            best = (dirs, total)
    return best


def _flip_positions(dirs, cyclic):
    out = [i for i in range(1, len(dirs)) if dirs[i] != dirs[i - 1]]
    if cyclic and len(dirs) > 1 and dirs[0] != dirs[-1]:
        out.insert(0, 0)
    return tuple(out)


class LabelingGraph:
    """Charts / boundaries / corners of one labeling of one mesh.

    Parameters
    ----------
    mesh : SurfaceMesh
    labels : (F,) int array, values 0..5
    turning_point_penalty : float
        Flip penalty mu of the per-boundary direction assignment.
    """

    def __init__(self, mesh: SurfaceMesh, labels, turning_point_penalty: float = 1.0):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (mesh.n_triangles,):
            raise ValueError("labeling length does not match mesh")
        if labels.size and (labels.min() < 0 or labels.max() > 5):
            raise ValueError("labels must be in 0..5")
        self.mesh = mesh
        self.labels = labels.copy()
        self.labels.flags.writeable = False
        self.mu = float(turning_point_penalty)

        self._build_charts()
        self._walk_boundaries()
        self._collect_corners()
        self._assign_directions()

    # -- charts -----------------------------------------------------------

    def _build_charts(self):
        mesh, labels = self.mesh, self.labels
        same = labels[mesh.edge_tris[:, 0]] == labels[mesh.edge_tris[:, 1]]
        a, b = mesh.edge_tris[same].T
        # min-label propagation between the roots of both ends of each
        # same-label edge, then pointer jumping; roots only ever point to
        # smaller triangles, so every triangle ends up holding the smallest
        # triangle index of its chart
        root = np.arange(mesh.n_triangles)
        while True:
            ra, rb = root[a], root[b]
            differ = ra != rb
            if not differ.any():
                break
            ra, rb = ra[differ], rb[differ]
            low = np.minimum(ra, rb)
            np.minimum.at(root, ra, low)
            np.minimum.at(root, rb, low)
            while True:
                jumped = root[root]
                if np.array_equal(jumped, root):
                    break
                root = jumped

        firsts, chart_of = np.unique(root, return_inverse=True)
        self.chart_of = chart_of.astype(np.int64)
        members = np.argsort(self.chart_of, kind="stable")
        splits = np.cumsum(np.bincount(self.chart_of, minlength=len(firsts)))[:-1]
        self.charts = [
            Chart(i, int(labels[first]), tris)
            for i, (first, tris) in enumerate(zip(firsts, np.split(members, splits)))
        ]

    # -- boundaries ----------------------------------------------------------

    def _walk_boundaries(self):
        mesh = self.mesh
        on_boundary = np.nonzero(discontinuity_edges(mesh, self.labels))[0]
        edges_at = {}
        for eid in on_boundary:
            a, b = mesh.edges[eid]
            edges_at.setdefault(int(a), []).append(int(eid))
            edges_at.setdefault(int(b), []).append(int(eid))
        for lst in edges_at.values():
            lst.sort()
        self._corner_vertices = {v for v, lst in edges_at.items() if len(lst) >= 3}

        visited = set()
        self.boundaries = []
        self._endpoint_map = {}  # corner vertex -> boundary ids (with multiplicity)

        def record(verts, eids, cyclic):
            # charts left and right of the walk's first edge
            left, right = (int(self.chart_of[t]) for t in mesh.edge_sides(verts[0], verts[1]))
            bid = len(self.boundaries)
            self.boundaries.append(
                Boundary(
                    bid, left, right,
                    int(self.charts[left].label), int(self.charts[right].label),
                    tuple(verts[:-1] if cyclic else verts), tuple(eids), cyclic,
                    self._boundary_axis(self.charts[left].label, self.charts[right].label),
                )
            )
            if not cyclic:
                self._endpoint_map.setdefault(verts[0], []).append(bid)
                self._endpoint_map.setdefault(verts[-1], []).append(bid)

        def walk(v0, e0):
            verts, eids = [v0], []
            v, e = v0, e0
            while True:
                visited.add(e)
                eids.append(e)
                a, b = mesh.edges[e]
                v = int(b) if v == a else int(a)
                verts.append(v)
                if v in self._corner_vertices or v == v0:
                    return verts, eids, v == v0 and v not in self._corner_vertices
                nbr = edges_at[v]
                e = nbr[0] if nbr[1] == e else nbr[1]

        for v in sorted(self._corner_vertices):
            for e in edges_at[v]:
                if e not in visited:
                    record(*walk(v, e))
        for eid in on_boundary:
            eid = int(eid)
            if eid not in visited:
                a, b = (int(x) for x in mesh.edges[eid])
                verts, eids, _ = walk(a, eid)
                record(verts, eids, True)

        # per-chart boundary lists and neighbor sets
        per_chart = [[] for _ in self.charts]
        neighbors = [set() for _ in self.charts]
        for b in self.boundaries:
            per_chart[b.left_chart].append(b.index)
            per_chart[b.right_chart].append(b.index)
            neighbors[b.left_chart].add(b.right_chart)
            neighbors[b.right_chart].add(b.left_chart)
        for c in self.charts:
            c.boundaries = tuple(per_chart[c.index])
            c.neighbors = tuple(sorted(neighbors[c.index]))

    @staticmethod
    def _boundary_axis(l1, l2):
        a1, a2 = l1 >> 1, l2 >> 1
        return None if a1 == a2 else 3 - a1 - a2

    # -- corners ---------------------------------------------------------------

    def _collect_corners(self):
        self.corners = []
        self.corner_at = {}
        for v in sorted(self._corner_vertices):
            bids = tuple(sorted(self._endpoint_map.get(v, ())))
            counts = [0, 0, 0]
            undefined = False
            for bid in bids:
                ax = self.boundaries[bid].axis
                if ax is None:
                    undefined = True
                else:
                    counts[ax] += 1
            self.corner_at[v] = len(self.corners)
            self.corners.append(Corner(v, bids, tuple(counts), undefined))

    # -- turning points ---------------------------------------------------------

    def _assign_directions(self):
        pts = self.mesh.vertices
        for b in self.boundaries:
            if b.axis is None or b.n_edges == 0:
                continue
            verts = b.vertices + ((b.vertices[0],) if b.cyclic else ())
            d = np.diff(pts[list(verts)], axis=0)
            proj = d[:, b.axis] / np.linalg.norm(d, axis=1)
            signs = np.sign(proj).astype(np.int64)
            signs[np.abs(proj) < _SIGN_TOL] = 0
            b.raw_signs = tuple(signs.tolist())
            b.edge_signs, _ = optimal_edge_directions(b.raw_signs, self.mu, b.cyclic)
            b.turning_points = _flip_positions(b.edge_signs, b.cyclic)

    # -- queries -----------------------------------------------------------------

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    @property
    def n_boundaries(self) -> int:
        return len(self.boundaries)

    @property
    def n_corners(self) -> int:
        return len(self.corners)

    @property
    def total_turning_points(self) -> int:
        return sum(len(b.turning_points) for b in self.boundaries)

    def turning_point_vertices(self) -> tuple:
        """Vertices holding a turning point of any boundary, sorted, once each."""
        return tuple(sorted({v for b in self.boundaries for v in b.turning_point_vertices()}))

    def boundaries_between(self, c1: int, c2: int) -> list:
        pair = {c1, c2}
        return [b for b in self.boundaries if {b.left_chart, b.right_chart} == pair]

    def chart_label_counts(self) -> np.ndarray:
        out = np.zeros(6, dtype=np.int64)
        for c in self.charts:
            out[c.label] += 1
        return out
