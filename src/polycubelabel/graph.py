"""Structure extracted from a labeled mesh: charts of same-label triangles,
the boundaries between them, corners where boundaries meet, and per-boundary
turning points (where a boundary locally reverses along its polycube axis).

The graph is the one index of that structure: callers look up which
vertices and edges lie on a boundary (`boundary_vertex_mask`,
`boundary_edge_mask`), which vertex is a corner (`corner_at`) and where a
turning point sits (`turning_point_at`) instead of rescanning boundaries.

Everything here is ordered deterministically. Charts go by smallest triangle
index and corners by vertex index. Open boundaries come first, ordered by the
smaller of their two ends (corner vertex, end edge id) and walked from that
end; cyclic boundaries follow, ordered by smallest edge id and walked from
that edge's smaller vertex. Rebuilding from the same labeling yields
identical output.

Rows of read-only arrays hold charts (``chart_of`` (F,), ``chart_label``,
``chart_valence``), boundaries (``boundary_charts`` and ``boundary_labels``,
(B, 2): left, right of the first edge as walked; ``boundary_axis``, -1 where
both sides share an axis; ``boundary_cyclic``) and corners
(``corner_vertex``, ``corner_axis_counts`` (K, 3) along X, Y, Z,
``corner_undefined``: a same-axis boundary is incident); per-edge arrays in
walk order, cut at ``boundary_offsets``, hold ``boundary_edges``,
``edge_heads``, ``edge_tails``, ``raw_signs`` and ``edge_signs``. A build is
a few whole-array passes: charts by min-label hooking, boundary chains from
the ends of the discontinuity edges, sides in one gather, corner axes in one
count. Edge signs (one projection; only boundaries whose signs are mixed or
zero run the direction DP) and turning points are computed on first use, as
are the read-only sequences ``charts``, ``boundaries`` and ``corners``
element by element.

A graph built with ``parent``, the graph of the labeling it was repainted
from, hooks its charts from the parent's: each triangle of a parent chart
that kept one label starts at that chart's smallest triangle, and only the
uncut edges of the repainted triangles and of the charts repainted in part
are hooked. That is exact: an untouched chart keeps its triangles, its
label and its smallest triangle, and no same-label edge joins two untouched
charts, so hooking from that forest ends on each chart's smallest triangle,
as the full build does. The direction DP of a boundary is a function of its
signs and whether it is cyclic, so the child looks those rows up among the
ones its parent read, and keeps only the rows it reads itself; it holds no
reference to the parent graph. Everything else is built as without a parent.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .labeling import checked_labels
from .mesh import SurfaceMesh, _norm, _read_only, component_roots

_SIGN_TOL = 1e-9
# axis of a boundary between labels l1 and l2: the third one, or -1 if shared
_PAIR_AXIS = np.array([[-1 if a == b else 3 - a - b for b in np.arange(6) >> 1]
                       for a in np.arange(6) >> 1])


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


def _csr(keys, n, values):
    """Read-only (row offsets, values) of the CSR whose row k holds, in
    order, the ``values`` keyed k; they come sorted stably by key."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return _read_only(offsets), _read_only(values)


def _row(csr, i):
    return tuple(csr[1][csr[0][i] : csr[0][i + 1]].tolist())


def _chain_edges(ends, count):
    """Walk order of boundary edges i, whose smaller vertex is in slot 2i of
    ``ends`` and larger in 2i + 1, given how many slots each vertex holds.
    Returns the slot each edge arrives at, where each boundary starts and
    how many are open."""
    slots = np.arange(len(ends))
    # at a vertex of degree 2 the xor of its two slots turns either into the
    # other: the walk leaves by that edge to its far slot; it stops at
    # corners, where 3 or more meet (on a closed surface no fewer than 2 do)
    pair = np.zeros_like(count)
    np.bitwise_xor.at(pair, ends, slots)
    nxt = pair[ends] ^ slots ^ 1
    corner_slots = (count[ends] >= 3).nonzero()[0]
    nxt[corner_slots] = -1
    nxt = nxt.tolist()
    corner_slots = corner_slots[ends[corner_slots].argsort(kind="stable")]

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


def _roots_from(parent, labels, cut):
    """`component_roots` of the same-label triangles of ``labels``, hooked
    from the parent's chart roots: each triangle of a parent chart whose
    triangles all keep one label starts at that chart's smallest triangle,
    every other one at itself, and only the uncut edges of the triangles
    that changed or lie in a chart that did not keep one label are hooked."""
    mesh, chart = parent.mesh, parent.chart_of
    changed = (labels != parent.labels).nonzero()[0]
    # a chart lost its one label when one of its own edges is cut now, and
    # such an edge has a changed triangle on at least one side
    nbrs = mesh.triangle_adjacency.take(changed, axis=0)
    own = chart.take(changed)[:, None]
    cut_inside = (chart[nbrs] == own) & (labels[nbrs] != labels.take(changed)[:, None])
    split = np.zeros(len(parent.chart_label), dtype=bool)
    split[own[cut_inside.any(axis=1), 0]] = True
    hooked = split[chart]
    forest = parent._tops[chart]
    alone = hooked.nonzero()[0]
    forest[alone] = alone  # the triangles of a split chart start as trees of their own
    hooked[changed] = True
    edges = mesh.triangle_edges[hooked].ravel()
    a, b = mesh.edge_tris.take(edges.compress(~cut[edges]), axis=0).T
    return component_roots(len(labels), a, b, forest)


class Elements(Sequence):
    """Read-only sequence whose element i is ``make(i)``, built when first
    read and kept in the list ``made``, so reading it again gives the same
    object. The graph keeps ``made`` and hands out a new sequence on each
    read, so that it holds no reference back to itself."""

    def __init__(self, made, make):
        self._made, self._make = made, make

    def __len__(self):
        return len(self._made)

    def __getitem__(self, i):
        i = operator.index(i)  # TypeError for a slice
        made = self._made[i]  # IndexError outside -n..n-1
        if made is None:
            made = self._made[i] = self._make(i % len(self._made))
        return made


class LabelingGraph:
    """Charts / boundaries / corners of one labeling of one mesh. Turning
    points come from `optimal_edge_directions` at its flip penalty of 1.

    Parameters
    ----------
    mesh : SurfaceMesh
    labels : (F,) int array, values 0..5; kept as a read-only copy
    parent : LabelingGraph, optional
        A graph of another labeling of the same mesh, to build from; the
        result is the same as without it.

    Besides the arrays and sequences of the module docstring it keeps the
    masks ``boundary_edge_mask`` (E,) and ``boundary_vertex_mask`` (V,),
    True on the edges and vertices of any boundary; ``corner_at``, corner
    vertex -> corner id; ``turning_point_at``, turning-point vertex ->
    (boundary id, position in its ``vertices``), one-to-one since a turning
    point is an interior vertex of its boundary and so lies on no other;
    and ``total_turning_points``.
    """

    def __init__(self, mesh: SurfaceMesh, labels, parent: "LabelingGraph" = None):
        labels = self.labels = checked_labels(labels)
        if labels.shape != (mesh.n_triangles,):
            raise ValueError("labeling length does not match mesh")
        if parent is not None and parent.mesh is not mesh:
            raise ValueError("the parent graph is of another mesh")
        self.mesh, n = mesh, mesh.n_triangles

        cut = self.boundary_edge_mask = discontinuity_edges(mesh, labels)
        cut_ids = cut.nonzero()[0]
        ends = mesh.edges.take(cut_ids, axis=0).ravel()
        self.boundary_vertex_mask = np.zeros(mesh.n_vertices, dtype=bool)
        self.boundary_vertex_mask[ends] = True
        if parent is None:
            root = component_roots(n, *mesh.edge_tris.compress(~cut, axis=0).T)
            self._rows = {}
        else:
            root = _roots_from(parent, labels, cut)
            self._rows = parent._rows
        tops = self._tops = (root == np.arange(n)).nonzero()[0]  # each chart's smallest triangle
        index = np.empty(n, dtype=np.int64)
        index[tops] = np.arange(len(tops))
        self.chart_of, self.chart_label = index[root], labels[tops]

        count = np.bincount(ends)
        arrive, starts, n_open = _chain_edges(ends, count)
        bounds = self.boundary_offsets = np.array(starts + [len(arrive)], dtype=np.int64)
        starts = bounds[:-1]
        self.boundary_edges = cut_ids[arrive >> 1]
        self.edge_heads, self.edge_tails = ends[arrive ^ 1], ends[arrive]  # each edge as walked
        self.boundary_cyclic = np.arange(len(starts)) >= n_open
        # triangles left and right of each boundary's first edge; edge_tris
        # lists them for the walk from the smaller vertex (odd arrival slot)
        sides = mesh.edge_tris.take(self.boundary_edges[starts], axis=0)
        sides = np.where(arrive[starts, None] & 1, sides, sides[:, ::-1])
        side_labels = self.boundary_labels = labels[sides]
        charts = self.boundary_charts = self.chart_of[sides]
        axis = self.boundary_axis = _PAIR_AXIS[side_labels[:, 0], side_labels[:, 1]]
        # each chart's distinct neighbours, from the sorted (chart, neighbour)
        # keys, each kept where its run of equal keys ends
        keys = np.sort((charts @ [[len(tops), 1], [1, len(tops)]]).ravel())
        keys = keys[keys != np.append(keys[1:], -1)]
        self._neighbors = _csr(keys // len(tops), len(tops), keys % len(tops))
        self.chart_valence = np.diff(self._neighbors[0])

        # corners: vertices where 3 or more boundary edges meet, with the open
        # boundaries that end there, by vertex and then boundary id
        self.corner_vertex = (count >= 3).nonzero()[0]
        k, ends_at = len(self.corner_vertex), bounds[: n_open + 1]
        corner = self.corner_vertex.searchsorted(
            np.concatenate((self.edge_heads[ends_at[:-1]], self.edge_tails[ends_at[1:] - 1])))
        owner = np.arange(2 * n_open) % max(n_open, 1)
        order = (corner * n_open + owner).argsort(kind="stable")
        self._corner_boundaries = _csr(corner, k, owner[order])
        tally = np.bincount(corner * 4 + (axis[owner] & 3), minlength=4 * k).reshape(k, 4)
        self.corner_axis_counts, self.corner_undefined = tally[:, :3], tally[:, 3] > 0
        self.corner_at = dict(zip(self.corner_vertex.tolist(), range(k)))
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                _read_only(a)
        self._made = ([None] * len(tops), [None] * len(axis), [None] * k)

    @functools.cached_property
    def _signs(self):
        """Each edge's sign along its boundary's axis (0 where there is none),
        its direction from the DP, and the turning points."""
        bounds, axis, heads = self.boundary_offsets, self.boundary_axis, self.edge_heads
        edge_axis = axis.repeat(bounds[1:] - bounds[:-1])
        d = self.mesh.vertices.take(self.edge_tails, axis=0)
        d -= self.mesh.vertices.take(heads, axis=0)
        proj = d[np.arange(len(d)), edge_axis] / _norm(d)
        raw = (proj >= _SIGN_TOL).astype(np.int64) - (proj <= -_SIGN_TOL)
        raw[edge_axis < 0] = 0
        # a run of one nonzero sign is its own optimum: no flip, no cost
        runs = np.minimum.reduceat(raw, bounds[:-1]) * np.maximum.reduceat(raw, bounds[:-1])
        signs, at, bounds = raw.tolist(), {}, bounds.tolist()
        # the DP rows read here, looked up first among those the parent read
        rows, known = {}, self._rows
        for bid in ((runs < 1) & (axis >= 0)).nonzero()[0].tolist():
            a, b, cyclic = bounds[bid], bounds[bid + 1], bool(self.boundary_cyclic[bid])
            key = (tuple(signs[a:b]), cyclic)
            row = rows.get(key) or known.get(key)
            if row is None:
                dirs, _ = optimal_edge_directions(key[0], cyclic=cyclic)
                row = dirs, _flip_positions(dirs, cyclic)
            rows[key] = row
            signs[a:b] = row[0]
            for pos in row[1]:
                at[int(heads[a + pos])] = (bid, pos)
        self._rows = rows
        return _read_only(raw), _read_only(np.array(signs, dtype=np.int64)), at

    raw_signs = property(lambda self: self._signs[0])
    edge_signs = property(lambda self: self._signs[1])
    turning_point_at = property(lambda self: self._signs[2])
    total_turning_points = property(lambda self: len(self._signs[2]))

    @functools.cached_property
    def _chart_rows(self):
        """Each chart's triangles and boundary ids."""
        n, sided = len(self.chart_label), self.boundary_charts.ravel()  # boundary k: 2k, 2k + 1
        return (_csr(self.chart_of, n, self.chart_of.argsort(kind="stable")),
                _csr(sided, n, sided.argsort(kind="stable") >> 1))

    def _chart(self, i) -> Chart:
        (offsets, members), boundaries = self._chart_rows
        return Chart(i, int(self.chart_label[i]), members[offsets[i] : offsets[i + 1]],
                     _row(boundaries, i), _row(self._neighbors, i))

    def _boundary(self, i) -> Boundary:
        a, b = self.boundary_offsets[i : i + 2].tolist()
        cyclic, ax = bool(self.boundary_cyclic[i]), int(self.boundary_axis[i])
        verts = self.edge_heads[a:b].tolist() + ([] if cyclic else [int(self.edge_tails[b - 1])])
        bd = Boundary(i, *self.boundary_charts[i].tolist(), *self.boundary_labels[i].tolist(),
                      tuple(verts), tuple(self.boundary_edges[a:b].tolist()), cyclic,
                      None if ax < 0 else ax)
        if ax >= 0:
            bd.raw_signs = tuple(self.raw_signs[a:b].tolist())
            bd.edge_signs = tuple(self.edge_signs[a:b].tolist())
            bd.turning_points = _flip_positions(bd.edge_signs, cyclic)
        return bd

    def _corner(self, i) -> Corner:
        return Corner(int(self.corner_vertex[i]), _row(self._corner_boundaries, i),
                      tuple(self.corner_axis_counts[i].tolist()), bool(self.corner_undefined[i]))

    charts = property(lambda self: Elements(self._made[0], self._chart))
    boundaries = property(lambda self: Elements(self._made[1], self._boundary))
    corners = property(lambda self: Elements(self._made[2], self._corner))
    n_charts = property(lambda self: len(self.chart_label))
    n_boundaries = property(lambda self: len(self.boundary_axis))
    n_corners = property(lambda self: len(self.corner_vertex))

    def turning_point_vertices(self) -> tuple:
        """Vertices holding a turning point of any boundary, sorted."""
        return tuple(sorted(self.turning_point_at))
