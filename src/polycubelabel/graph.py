"""Structure extracted from a labeled mesh: charts of same-label triangles,
the boundaries between them, corners where boundaries meet, and per-boundary
turning points (where a boundary locally reverses along its polycube axis).

Everything here is ordered deterministically. Charts go by smallest triangle
index and corners by vertex index. Open boundaries come first, ordered by the
smaller of their two ends (corner vertex, end edge id) and walked from that
end; cyclic boundaries follow, ordered by smallest edge id and walked from
that edge's smaller vertex. Rebuilding from the same labeling yields
identical output.

A build is a few whole-array passes: charts by pointer jumping, boundary
chains from the ends of the discontinuity edges, sides and edge signs in one
gather each. Only boundaries with mixed or zero signs run the direction DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .labeling import checked_labels
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
        self.labels = checked_labels(labels)
        if self.labels.shape != (mesh.n_triangles,):
            raise ValueError("labeling length does not match mesh")
        self.mesh = mesh
        self.labels.flags.writeable = False
        self.mu = float(turning_point_penalty)

        cut = discontinuity_edges(mesh, self.labels)
        self._build_charts(~cut)
        self._build_boundaries(np.flatnonzero(cut))
        self._collect_corners()

    # -- charts -----------------------------------------------------------

    def _build_charts(self, same):
        n = self.mesh.n_triangles
        a, b = self.mesh.edge_tris[same].T
        # min-label propagation between the roots of both ends of each
        # same-label edge, then pointer jumping; roots only ever point to
        # smaller triangles, so every triangle ends up holding the smallest
        # triangle index of its chart. Ends that share a root always will.
        root = np.arange(n)
        while True:
            ra, rb = root[a], root[b]
            differ = ra != rb
            if not differ.any():
                break
            a, b, ra, rb = a[differ], b[differ], ra[differ], rb[differ]
            low = np.minimum(ra, rb)
            np.minimum.at(root, ra, low)
            np.minimum.at(root, rb, low)
            while True:
                jumped = root[root]
                if np.array_equal(jumped, root):
                    break
                root = jumped

        first = root == np.arange(n)  # each chart's smallest triangle
        self.chart_of = (np.cumsum(first) - 1)[root]
        splits = np.cumsum(np.bincount(self.chart_of))[:-1]
        members = zip(self.labels[first].tolist(), np.split(root.argsort(kind="stable"), splits))
        self.charts = [Chart(i, label, tris) for i, (label, tris) in enumerate(members)]

    # -- boundaries ----------------------------------------------------------

    def _chain_edges(self, ends):
        """Walk order of boundary edges i, whose smaller vertex is in slot 2i of
        ``ends`` and larger in 2i + 1. Sets the corner vertices; returns the slot
        each edge arrives at, where each boundary starts and how many are open."""
        count = np.bincount(ends)
        degree = count[ends]
        self._corner_vertices = np.flatnonzero(count >= 3).tolist()
        # at a vertex of degree 2 the xor of its two slots turns either into the
        # other: the walk leaves by that edge to its far slot; it stops at corners
        slots = np.arange(len(ends))
        pair = np.zeros_like(count)
        np.bitwise_xor.at(pair, ends, slots)
        nxt = np.where(degree == 2, pair[ends] ^ slots ^ 1, -1).tolist()
        corner_slots = np.flatnonzero(degree >= 3)
        corner_slots = corner_slots[np.argsort(ends[corner_slots], kind="stable")]

        seen, order, starts = bytearray(len(ends) // 2), [], []  # seen by edge

        def walk(s):
            starts.append(len(order))
            first = s
            while True:
                order.append(s)
                seen[s >> 1] = 1
                s = nxt[s]
                if s < 0 or s == first:
                    return

        for s in corner_slots.tolist():  # open boundaries, by (corner vertex, edge id)
            if not seen[s >> 1]:
                walk(s ^ 1)
        n_open = len(starts)
        i = seen.find(0)  # then cyclic ones, by smallest edge, from its smaller vertex
        while i >= 0:
            walk(2 * i + 1)
            i = seen.find(0, i + 1)
        return np.array(order, dtype=np.int64), starts, n_open

    def _build_boundaries(self, cut):
        ends = self.mesh.edges[cut].ravel()
        arrive, starts, n_open = self._chain_edges(ends)
        eids = cut[arrive >> 1]
        head, tail = ends[arrive ^ 1], ends[arrive]  # each edge as walked
        bounds = starts + [len(arrive)]

        # triangles left and right of each boundary's first edge; edge_tris
        # lists them for the walk from the smaller vertex (odd arrival slot)
        sides = self.mesh.edge_tris[eids[starts]]
        sides = np.where(arrive[starts][:, None] & 1, sides, sides[:, ::-1])
        side_labels = self.labels[sides]
        a1, a2 = (side_labels >> 1).T
        axis = np.where(a1 == a2, -1, 3 - a1 - a2)

        # each edge's sign along its boundary's axis (any axis where none)
        d = self.mesh.vertices[tail] - self.mesh.vertices[head]
        proj = d[np.arange(len(d)), np.repeat(axis, np.diff(bounds))]
        proj /= np.sqrt((d * d).sum(axis=1))
        signs = np.sign(proj).astype(np.int64)
        signs[np.abs(proj) < _SIGN_TOL] = 0
        # a run of one nonzero sign is its own optimum (no flip, no cost) if mu >= 0
        flat = np.minimum.reduceat(signs, starts) == np.maximum.reduceat(signs, starts)

        self.boundaries = []
        self._endpoint_map = {}  # corner vertex -> boundary ids (with multiplicity)
        per_chart = [[] for _ in self.charts]
        neighbors = [set() for _ in self.charts]
        eids, tail, signs = eids.tolist(), tail.tolist(), signs.tolist()
        rows = zip(bounds, bounds[1:], head[starts].tolist(), self.chart_of[sides].tolist(),
                   side_labels.tolist(), axis.tolist(), flat.tolist())
        for bid, (a, b, v0, (left, right), (ll, rl), ax, one_sign) in enumerate(rows):
            cyclic = bid >= n_open
            verts = (v0, *tail[a : b - cyclic])
            bd = Boundary(bid, left, right, ll, rl, verts, tuple(eids[a:b]), cyclic,
                          None if ax < 0 else ax)
            if ax >= 0:
                bd.raw_signs = bd.edge_signs = tuple(signs[a:b])
                if not (one_sign and bd.raw_signs[0] and self.mu >= 0):
                    bd.edge_signs, _ = optimal_edge_directions(bd.raw_signs, self.mu, cyclic)
                    bd.turning_points = _flip_positions(bd.edge_signs, cyclic)
            if not cyclic:
                self._endpoint_map.setdefault(v0, []).append(bid)
                self._endpoint_map.setdefault(verts[-1], []).append(bid)
            for c, other in ((left, right), (right, left)):
                per_chart[c].append(bid)
                neighbors[c].add(other)
            self.boundaries.append(bd)
        for c, bids, nbrs in zip(self.charts, per_chart, neighbors):
            c.boundaries, c.neighbors = tuple(bids), tuple(sorted(nbrs))

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
