"""Labeling-repair operators.

Three operators adopted from earlier labeling pipelines (remove_chart,
fix_invalid_boundary, fix_invalid_corner) plus five newer ones
(increase_chart_valence, join_turning_points_pair, pull_closest_corner,
move_boundary_near_turning_point, straighten_boundary).

Every operator is a pure function (graph, *targets, ...) -> OperatorOutcome
that reads the mesh and the labeling off the LabelingGraph, and looks up
boundary vertices and edges, corners and turning points in the graph's
index rather than rescanning its boundaries. The graph's
labels are read-only, so the input labeling cannot be mutated. Callers
rebuild the LabelingGraph after an applied operator.

Every operator ends in one outcome step, `_apply`, which applies its edit
(region paints in order, or remove_chart's one restricted cut) to one copy
of the labels and reads `changed` off the labels that moved. An operator that
does not apply returns `_skip`: the graph's own read-only labels, nothing
changed, and a `reason` that names the exit, one fixed string each. A new
chart takes `_closest_label`, the allowed label nearest the region's
area-weighted mean normal.

A region is one thing from the primitive that finds it to the edit that
relabels it: a (F,) bool mask over the triangles, which selects them in
ascending id order. Seeds and barriers stay ids. Regions come from two
primitives. `_grow` takes a disk: the triangles within a few rings of the
seeds, ring by ring, inside an allowed mask (the strip of
fix_invalid_boundary, the disks around a corner or a turning point).
`_barrier_region` takes the triangles of some charts reached from the seeds
without crossing a traced path: the components of one `component_roots`
pass over the edges inside the charts that the path does not cut
(increase_chart_valence, join_turning_points_pair, pull_closest_corner,
straighten_boundary). remove_chart's region is its chart's mask.

All tie-breaks (label choices, path steps, target scans) resolve toward the
lowest encoding / index so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import LabelingGraph
from .labeling import LABEL_DIRECTIONS, CutEnergy, restricted_relabel
from .mesh import SurfaceMesh, component_roots
from .validity import ValidityRules, corner_is_valid

AXIS_DIRECTIONS = LABEL_DIRECTIONS[::2]  # unit +X, +Y, +Z
STRIP_WIDTH = 3  # triangle rings of the strip fix_invalid_boundary inserts
DISK_RADIUS = 3  # most triangle rings of a disk around a corner or turning point


@dataclass(frozen=True)
class OperatorOutcome:
    labels: np.ndarray
    changed: frozenset
    reason: str = ""  # why the operator did not apply; empty when it did

    @property
    def applied(self) -> bool:
        return bool(self.changed)


@dataclass(frozen=True)
class TracedPath:
    edges: tuple
    reason: str  # hit-boundary | hit-turning-point | max-steps


def _target(items, i, kind):
    """``items[i]``, refusing an id outside 0..len(items) - 1; a negative
    id would otherwise count back from the end."""
    if not 0 <= i < len(items):
        raise ValueError(f"{kind} id {i} outside 0..{len(items) - 1}" if items
                         else f"{kind} id {i}: the labeling has none")
    return items[i]


def _skip(graph: LabelingGraph, reason: str) -> OperatorOutcome:
    """Not applied, for `reason`: the graph's own read-only labels."""
    return OperatorOutcome(graph.labels, frozenset(), reason)


def _apply(graph: LabelingGraph, edit, energy: CutEnergy = CutEnergy()) -> OperatorOutcome:
    """The outcome of `edit`, an ordered tuple of `(region, label)` paints or
    a tuple of one `(region, allowed)` restricted cut, `allowed` a (6,) bool
    mask; every region is a (F,) bool mask over the triangles. `changed`
    holds the triangles whose label moved; an edit that moves none is not
    applied."""
    labels = graph.labels
    if isinstance(edit[0][1], np.ndarray):  # allowed labels: a restricted cut
        [(region, allowed)] = edit
        out = restricted_relabel(graph.mesh, labels, region, allowed=allowed, energy=energy)
    else:
        out = labels.copy()
        for region, label in edit:
            out[region] = label
    moved = np.flatnonzero(out != labels)
    if not moved.size:
        return _skip(graph, "the edit changes no label")
    return OperatorOutcome(out, frozenset(moved.tolist()))


def _unit(v):
    return v / np.linalg.norm(v)


def _closest_label(mesh: SurfaceMesh, region, candidates):
    """The candidate label nearest the area-weighted mean normal of `region`,
    or None without candidates. The highest dot wins; scanning the
    candidates in ascending order makes ties deterministic."""
    n = (mesh.normals[region] * mesh.areas[region, None]).sum(axis=0)
    norm = np.linalg.norm(n)
    direction = n / norm if norm > 0 else np.zeros(3)
    best, best_dot = None, -np.inf
    for l in candidates:
        d = float(np.dot(direction, LABEL_DIRECTIONS[l]))
        if d > best_dot + 1e-15:
            best, best_dot = l, d
    return best


def _fresh_label(mesh: SurfaceMesh, region, taken_axes):
    """The label off `taken_axes` nearest the region's mean normal, or None."""
    return _closest_label(mesh, region, [l for l in range(6) if l >> 1 not in taken_axes])


def _grow(mesh: SurfaceMesh, seeds, allowed=None, *, rings) -> np.ndarray:
    """The triangles within `rings` triangle rings of the allowed seed ids
    (the seeds being ring 1, also at `rings` 0), grown over edge-adjacent
    allowed triangles. The region and `allowed` are (F,) bool masks."""
    free = np.array(np.ones(mesh.n_triangles) if allowed is None else allowed, dtype=bool)
    region = np.zeros(mesh.n_triangles, dtype=bool)
    frontier = np.fromiter(seeds, dtype=np.int64)
    for _ in range(max(rings, 1)):
        ring = np.zeros(mesh.n_triangles, dtype=bool)
        ring[frontier] = True
        ring &= free
        free &= ~ring
        region |= ring
        frontier = mesh.triangle_adjacency[ring].ravel()
    return region


def _barrier_region(mesh: SurfaceMesh, seeds, allowed, barrier) -> np.ndarray:
    """The triangles reached from the allowed seed ids over edge-adjacent
    allowed triangles, never across a `barrier` edge id: the components of
    one `component_roots` pass over the edges between allowed triangles that
    are not barrier edges, those that hold an allowed seed. The region and
    `allowed` are (F,) bool masks."""
    t1, t2 = mesh.edge_tris.T
    joins = allowed[t1] & allowed[t2]
    joins[list(barrier)] = False
    root = component_roots(mesh.n_triangles, t1[joins], t2[joins])
    seeds = np.fromiter(seeds, dtype=np.int64)
    held = np.zeros(mesh.n_triangles, dtype=bool)
    held[root[seeds[allowed[seeds]]]] = True  # a triangle outside `allowed` is its own root
    return held[root]


def _chart_contour_loops(graph: LabelingGraph, chart_id: int) -> list:
    """Contour(s) of a chart as closed directed loops [(v, w, edge, boundary),
    ...], each edge oriented so the chart lies on its left. Every contour
    vertex has as many contour edges in as out, so each walk closes."""
    outgoing = {}  # v -> list of (w, eid, bid)
    for bid in graph.charts[chart_id].boundaries:
        b = graph.boundaries[bid]
        verts = b.vertices + ((b.vertices[0],) if b.cyclic else ())
        for k, eid in enumerate(b.edge_ids):
            a, w = verts[k], verts[k + 1]
            if b.left_chart != chart_id:
                a, w = w, a  # flip so the chart is on the left
            outgoing.setdefault(a, []).append((w, eid, b.index))
    for lst in outgoing.values():
        lst.sort(key=lambda x: x[1])

    loops, used = [], set()
    for start in sorted(outgoing):
        for (w0, e0, b0) in outgoing[start]:
            if e0 in used:
                continue
            loop = [(start, w0, e0, b0)]
            used.add(e0)
            v = w0
            while v != start:
                nxt = next(x for x in outgoing[v] if x[1] not in used)
                used.add(nxt[1])
                loop.append((v,) + nxt)
                v = nxt[0]
            loops.append(loop)
    return loops


def is_feature_surrounded(graph: LabelingGraph, chart_id: int) -> bool:
    """True when every contour edge of the chart is a sharp feature edge."""
    mesh, edges = graph.mesh, graph.boundary_edges
    edges = edges[(graph.chart_of[mesh.edge_tris.take(edges, axis=0)] == chart_id).any(axis=1)]
    return bool(edges.size) and bool(mesh.feature_edge_mask[edges].all())


def trace_path(
    graph: LabelingGraph,
    start: int,
    direction,
    stop_vertices,
    forbidden_edges=frozenset(),
    feature_only: bool = False,
    tp_vertices=frozenset(),
) -> TracedPath:
    """Greedy vertex walk along `direction` over the graph's mesh.

    At each vertex the outgoing mesh edge with the highest dot product to the
    goal direction is taken (no immediate backtracking, no revisits, no
    forbidden edges; only feature edges when `feature_only`). Stops on a
    vertex of `tp_vertices` (hit-turning-point), on a corner of the graph, on
    a vertex where the bool mask `stop_vertices` holds reached over an edge
    that is not a boundary edge (hit-boundary; the path may travel along
    boundaries), or when no edge is left or after one mesh-edge-count worth
    of steps (max-steps).
    """
    mesh = graph.mesh
    direction = _unit(np.asarray(direction, dtype=np.float64))
    eids = []
    cur, seen = start, {start}
    for _ in range(mesh.n_edges):
        best = None
        for nbr, eid in mesh.vertex_ring(cur):
            if nbr in seen or eid in forbidden_edges:
                continue
            if feature_only and not mesh.feature_edge_mask[eid]:
                continue
            d = float(np.dot(_unit(mesh.vertices[nbr] - mesh.vertices[cur]), direction))
            if best is None or d > best[0] + 1e-12 or (abs(d - best[0]) <= 1e-12 and nbr < best[1]):
                best = (d, nbr, eid)
        if best is None:
            break
        _, cur, eid = best
        eids.append(eid)
        seen.add(cur)
        if cur in tp_vertices:
            return TracedPath(tuple(eids), "hit-turning-point")
        if cur in graph.corner_at or (stop_vertices[cur] and not graph.boundary_edge_mask[eid]):
            return TracedPath(tuple(eids), "hit-boundary")
    return TracedPath(tuple(eids), "max-steps")


# ---------------------------------------------------------------------------
# adopted operators
# ---------------------------------------------------------------------------


def remove_chart(graph: LabelingGraph, chart_id: int,
                 energy: CutEnergy = CutEnergy()) -> OperatorOutcome:
    """Dissolve a chart by re-solving its triangles over the neighbors' labels."""
    chart = _target(graph.charts, chart_id, "chart")
    if not chart.neighbors:
        return _skip(graph, "the labeling is one chart")
    allowed = np.zeros(6, dtype=bool)
    allowed[graph.chart_label[list(chart.neighbors)]] = True
    return _apply(graph, ((graph.chart_of == chart_id, allowed),), energy)


def fix_invalid_boundary(
    graph: LabelingGraph, boundary_id: int, width: int = STRIP_WIDTH
) -> OperatorOutcome:
    """Insert a strip chart along a same-axis boundary, separating its charts."""
    mesh = graph.mesh
    b = _target(graph.boundaries, boundary_id, "boundary")
    if b.axis is not None:
        return _skip(graph, "the boundary is orthogonal")
    allowed = np.isin(graph.chart_of, (b.left_chart, b.right_chart))
    region = _grow(mesh, mesh.edge_tris[list(b.edge_ids)].ravel(), allowed, rings=width)
    shared_axis = b.left_label >> 1
    return _apply(graph, ((region, _fresh_label(mesh, region, {shared_axis})),))


def fix_invalid_corner(graph: LabelingGraph, corner_id: int, radius: int = DISK_RADIUS,
                       rules: ValidityRules = ValidityRules()) -> OperatorOutcome:
    """Bury an invalid corner under a small disk chart with a fresh axis.

    The disk is the widest one of at most `radius` triangle rings around the
    corner that stays inside the charts incident to it. Not applied, before
    any disk is grown, when those charts span all three axes: no fresh axis
    is left for the disk.
    """
    mesh = graph.mesh
    corner = _target(graph.corners, corner_id, "corner")
    if corner_is_valid(corner, rules)[0]:
        return _skip(graph, "the corner is valid")
    star = mesh.vertex_triangles(corner.vertex)
    incident_charts = sorted({int(graph.chart_of[t]) for t in star})
    used_axes = set((graph.chart_label[incident_charts] >> 1).tolist())
    if len(used_axes) == 3:
        return _skip(graph, "the incident charts span all three axes")
    allowed = np.isin(graph.chart_of, incident_charts)
    for r in range(max(radius, 1), 0, -1):
        region = _grow(mesh, star, rings=r)
        if not (region & ~allowed).any():
            break  # at r = 1 the disk is the vertex star, which always fits
    return _apply(graph, ((region, _fresh_label(mesh, region, used_axes)),))


# ---------------------------------------------------------------------------
# newer operators
# ---------------------------------------------------------------------------


def increase_chart_valence(graph: LabelingGraph, chart_id: int) -> OperatorOutcome:
    """Give a low-valence feature-bounded chart one more neighbor.

    Finds the contour vertex v where two same-axis contour edges meet at an
    acute angle, locates equilibrium split points on the two polyedges that
    leave v, traces two paths into the surrounding chart(s) along the axis of
    the target chart's label, and relabels the triangles caught between the
    paths to a fresh-axis label, creating a new chart adjacent to the target.
    """
    mesh, labels = graph.mesh, graph.labels
    chart = _target(graph.charts, chart_id, "chart")
    loops = _chart_contour_loops(graph, chart_id)
    pts = mesh.vertices

    # v: most acute same-axis contour vertex
    best = None  # (−dot, vertex, loop idx, position)
    for li, loop in enumerate(loops):
        for k in range(len(loop)):
            (u, v, e_in, b_in) = loop[k - 1]
            (_, w, e_out, b_out) = loop[k]
            ax_in = graph.boundaries[b_in].axis
            ax_out = graph.boundaries[b_out].axis
            if ax_in is None or ax_in != ax_out:
                continue
            d1 = _unit(pts[u] - pts[v])
            d2 = _unit(pts[w] - pts[v])
            dot = float(np.dot(d1, d2))
            if dot <= 0.0:  # not acute
                continue
            key = (-dot, v)
            if best is None or key < best[0]:
                best = (key, v, li, k, d1, d2, ax_in)
    if best is None:
        return _skip(graph, "no acute same-axis contour vertex")
    _, v, li, k, d1, d2, ax_cur = best
    loop = loops[li]
    n = len(loop)

    # axis to distribute along the contour: most aligned with both edges at v
    scores = [abs(np.dot(d1, AXIS_DIRECTIONS[a])) + abs(np.dot(d2, AXIS_DIRECTIONS[a])) for a in range(3)]
    new_axis = int(np.argmax(scores))

    def polyedge_dirs(step):
        """Contour edges leaving v in the +-1 loop direction, until a corner."""
        out = []
        prev = v
        idx = k if step == 1 else (k - 1) % n
        for _ in range(n):
            a, b_, eid, bid = loop[idx]
            tail = b_ if step == 1 else a
            out.append((eid, _unit(pts[tail] - pts[prev]), tail, bid))
            if tail in graph.corner_at and tail != v:
                break
            prev = tail
            idx = (idx + step) % n
        return out

    def angles(poly, axis):
        """Per-edge angles of a polyedge to an axis."""
        return [math.acos(min(1.0, abs(float(np.dot(d, AXIS_DIRECTIONS[axis])))))
                for _, d, _, _ in poly]

    def equilibrium(cn, cc):
        """Split index minimizing new-axis cost before + current-axis cost after."""
        best_s, best_total = 0, None
        for s in range(len(cn) + 1):
            total = sum(cn[:s]) + sum(cc[s:])
            if best_total is None or total < best_total - 1e-12:
                best_s, best_total = s, total
        return best_s

    poly_o = polyedge_dirs(+1)
    poly_s = polyedge_dirs(-1)
    # costs of the distributed axis and of the current one, the axis of both
    # boundaries at v
    cn_o, cc_o = angles(poly_o, new_axis), angles(poly_o, ax_cur)
    cn_s, cc_s = angles(poly_s, new_axis), angles(poly_s, ax_cur)
    s_o = equilibrium(cn_o, cc_o)
    s_s = equilibrium(cn_s, cc_s)
    # a corner must land on v itself: one equilibrium stays at v, the other
    # gives the far end of the new contour segment
    if s_o != 0 and s_s != 0:
        if s_o <= s_s:
            s_o = 0
        else:
            s_s = 0
    elif s_o == 0 and s_s == 0:
        # flat cost profile: force a minimal one-edge segment where the
        # reassignment is cheapest (each polyedge has at least one edge)
        if cn_o[0] - cc_o[0] <= cn_s[0] - cc_s[0]:
            s_o = 1
        else:
            s_s = 1

    far_poly, far_s = (poly_o, s_o) if s_o > 0 else (poly_s, s_s)
    o_far = far_poly[far_s - 1][2]
    # seeds: base-chart side of the contour segment that turns into the new
    # boundary (between v and the far equilibrium point)
    sides = mesh.edge_tris[[eid for eid, _, _, _ in far_poly[:far_s]]]
    seeds = sides[graph.chart_of[sides] != chart_id]
    allowed = np.isin(graph.chart_of, graph.chart_of[seeds])

    # trace the two cutting paths along the chart-label axis
    chart_axis = chart.label >> 1
    axis_vec = AXIS_DIRECTIONS[chart_axis]
    align = 0.0
    for nbr, _ in mesh.vertex_ring(v):
        align += float(np.dot(_unit(pts[nbr] - pts[v]), axis_vec))
    direction = axis_vec if align >= 0 else -axis_vec

    contour_edges = {e for _, _, e, _ in loop}
    barrier = set(contour_edges)
    for o in (v, o_far):
        p = trace_path(graph, o, direction, graph.boundary_vertex_mask,
                       forbidden_edges=contour_edges, tp_vertices=graph.turning_point_at)
        if not p.edges:
            return _skip(graph, "a cutting path takes no step")
        barrier |= set(p.edges)

    # region: flood the base chart between the two paths
    region = _barrier_region(mesh, seeds, allowed, barrier)
    if region.sum() == allowed.sum():
        return _skip(graph, "the paths pinch off no proper subregion")
    label = _fresh_label(mesh, region, {chart_axis} | set((labels[region] >> 1).tolist()))
    if label is None:
        return _skip(graph, "no axis is free for the new chart")
    return _apply(graph, ((region, label),))


def join_turning_points_pair(graph: LabelingGraph, t1: int, t2: int) -> OperatorOutcome:
    """Bond two turning-points with a new chart along their lost feature path."""
    mesh, labels = graph.mesh, graph.labels
    if t1 == t2 or t1 not in graph.turning_point_at or t2 not in graph.turning_point_at:
        return _skip(graph, "not two distinct turning points")

    # shortest path t1 -> t2 over lost feature edges, sharp but with equal
    # labels on both sides (BFS, deterministic neighbor order)
    lost = mesh.feature_edge_mask & ~graph.boundary_edge_mask
    prev = {t1: None}
    queue = [t1]
    while queue:
        nxt = []
        for u in queue:
            for w, eid in sorted(mesh.vertex_ring(u)):
                if lost[eid] and w not in prev:
                    prev[w] = (u, eid)
                    nxt.append(w)
        if t2 in prev:
            break
        queue = sorted(nxt)
    if t2 not in prev:
        return _skip(graph, "no lost feature path joins them")
    # facets left/right of the path, each edge directed from t1 toward t2
    sides, path_edges, w = [], [], t2
    while prev[w] is not None:
        u, eid = prev[w]
        sides.append(mesh.edge_sides(u, w))
        path_edges.append(eid)
        w = u
    sides = np.array(sides)  # (left, right) triangle per path edge
    left, right = np.zeros((2, mesh.n_triangles), dtype=bool)
    left[sides[:, 0]] = True
    right[sides[:, 1]] = True

    around = {int(labels[t]) for v in (t1, t2) for t in mesh.vertex_triangles(v)}
    label = _closest_label(mesh, left | right, [l for l in range(6) if l not in around])
    if label is None:
        return _skip(graph, "every label meets one of them")

    def side_fidelity(side):
        return float(np.mean(mesh.normals[side] @ LABEL_DIRECTIONS[label]))

    k = 0 if side_fidelity(left) >= side_fidelity(right) - 1e-12 else 1
    side = (left, right)[k]
    # extend to the adjacent facets on the same side of the crease
    allowed = np.isin(graph.chart_of, graph.chart_of[side])
    region = _barrier_region(mesh, sides[:, k], allowed, path_edges)
    if region.sum() == allowed.sum():
        region = side  # flood leaked around the path; keep the thin strip
    return _apply(graph, ((region, label),))


def _corner_angle(mesh: SurfaceMesh, t: int, v: int) -> float:
    tri = mesh.triangles[t]
    j = int(np.nonzero(tri == v)[0][0])
    p = mesh.vertices[v]
    a = _unit(mesh.vertices[tri[(j + 1) % 3]] - p)
    b = _unit(mesh.vertices[tri[(j + 2) % 3]] - p)
    return float(math.acos(np.clip(np.dot(a, b), -1.0, 1.0)))


def _angle_sums(mesh: SurfaceMesh, v: int, keys) -> dict:
    """The corner angles at vertex `v` of its triangles t, summed per key
    `keys[t]` in triangle order."""
    sums = {}
    for t in mesh.vertex_triangles(v):
        k = int(keys[t])
        sums[k] = sums.get(k, 0.0) + _corner_angle(mesh, t, v)
    return sums


def pull_closest_corner(graph: LabelingGraph, turning_point: int) -> OperatorOutcome:
    """Relocate the nearest corner of a boundary onto one of its turning-points.

    The boundary next to the corner on the side the turning-point pokes into
    is re-traced from the turning-point, and the wedge of triangles between
    the old and new position is relabeled to the chart across it.
    """
    mesh = graph.mesh
    if turning_point not in graph.turning_point_at:
        return _skip(graph, "not a turning point")
    bid, pos = graph.turning_point_at[turning_point]
    b, tp = graph.boundaries[bid], turning_point
    if b.cyclic:
        return _skip(graph, "the boundary is cyclic")

    # nearest endpoint corner along the path; a turning point is an interior
    # vertex of its boundary, so the segment has at least one edge
    toward_start = pos <= b.n_edges - pos
    c = b.vertices[0] if toward_start else b.vertices[-1]
    seg_edges = b.edge_ids[:pos] if toward_start else b.edge_ids[pos:]

    # which side does the turning-point lean into: the chart with the smaller
    # angular sector at the tp vertex (the side the V pokes into)
    sums = _angle_sums(mesh, tp, graph.chart_of)
    wedge_chart = min((b.left_chart, b.right_chart), key=lambda cid: (sums[cid], cid))

    # B_s: next boundary around corner c bordering the wedge chart
    corner = graph.corners[graph.corner_at[c]]
    bs = None
    for bid in corner.boundaries:
        cand = graph.boundaries[bid]
        if cand.index == b.index:
            continue
        if wedge_chart in (cand.left_chart, cand.right_chart):
            bs = cand
            break
    if bs is None:
        return _skip(graph, "no other boundary at the corner borders the wedge")
    other_chart = bs.right_chart if bs.left_chart == wedge_chart else bs.left_chart

    # direction of B_s leaving the corner, which is one of its ends
    nxt = bs.vertices[1] if bs.vertices[0] == c else bs.vertices[-2]
    direction = _unit(mesh.vertices[nxt] - mesh.vertices[c])

    stop = graph.boundary_vertex_mask.copy()
    stop[list(b.vertices[1:-1])] = False  # passing along b itself must not stop the trace
    path = trace_path(graph, tp, direction, stop, forbidden_edges=frozenset(b.edge_ids),
                      feature_only=mesh.is_feature_vertex(tp))
    if path.reason == "max-steps":
        return _skip(graph, "the new path reaches no boundary")

    allowed = graph.chart_of == wedge_chart
    region = _barrier_region(mesh, mesh.edge_tris[list(seg_edges)].ravel(), allowed, path.edges)
    if region.sum() == allowed.sum():
        return _skip(graph, "the new path pinches off no wedge")
    return _apply(graph, ((region, int(graph.chart_label[other_chart])),))


def move_boundary_near_turning_point(
    graph: LabelingGraph, turning_point: int, radius: int = DISK_RADIUS
) -> OperatorOutcome:
    """Push the better-anchored side's label over the other around a smooth
    turning-point; the larger sum of triangle corner angles at the vertex wins."""
    mesh = graph.mesh
    if turning_point not in graph.turning_point_at:
        return _skip(graph, "not a turning point")
    b = graph.boundaries[graph.turning_point_at[turning_point][0]]
    tp = turning_point
    if mesh.is_feature_vertex(tp):  # feature turning-points belong to pull_closest_corner
        return _skip(graph, "a feature turning point")

    sums = _angle_sums(mesh, tp, graph.labels)
    winner = min((b.left_label, b.right_label), key=lambda l: (-sums[l], l))
    loser = b.right_label if winner == b.left_label else b.left_label
    loser_chart = b.left_chart if b.left_label == loser else b.right_chart

    allowed = graph.chart_of == loser_chart
    region = _grow(mesh, mesh.vertex_triangles(tp), allowed, rings=radius)
    return _apply(graph, ((region, winner),))


def straighten_boundary(graph: LabelingGraph, boundary_id: int) -> OperatorOutcome:
    """Re-draw a boundary as a greedy shortest walk between its two corners,
    re-splitting the two adjacent charts along the new path."""
    mesh = graph.mesh
    b = _target(graph.boundaries, boundary_id, "boundary")
    if b.cyclic:
        return _skip(graph, "the boundary is cyclic")
    if mesh.feature_edge_mask[list(b.edge_ids)].any():
        return _skip(graph, "a feature boundary keeps its path")
    c_start, c_end = b.vertices[0], b.vertices[-1]
    union = (graph.chart_of == b.left_chart) | (graph.chart_of == b.right_chart)
    t1, t2 = mesh.edge_tris.T
    inside = union[t1] & union[t2]  # the edges with both triangles in the union
    points = mesh.vertices
    gx, gy, gz = points[c_end].tolist()
    verts, eids = [c_start], []
    cur, seen = c_start, {c_start}
    ok = False
    for _ in range(mesh.n_edges):
        best = None
        nbrs, ring = mesh._ring(cur)
        for nbr, eid, free, (x, y, z) in zip(nbrs.tolist(), ring.tolist(), inside[ring].tolist(),
                                             points[nbrs].tolist()):
            if nbr in seen or not free:
                continue
            dx, dy, dz = x - gx, y - gy, z - gz
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if best is None or d < best[0] - 1e-12 or (abs(d - best[0]) <= 1e-12 and nbr < best[1]):
                best = (d, nbr, eid)
        if best is None:
            break
        _, cur, eid = best
        eids.append(eid)
        verts.append(cur)
        seen.add(cur)
        if cur == c_end:
            ok = True
            break
    if not ok or len(eids) > b.n_edges or tuple(eids) == b.edge_ids:
        return _skip(graph, "the greedy walk gives no new path as short")

    # re-split the two charts along the new path: everything reachable from
    # the left side of the new path keeps the left label; an edge's first
    # triangle is on its left when it is walked from its smaller vertex
    path = np.array(eids)
    sides = mesh.edge_tris[path]
    left_seeds = np.where(mesh.edges[path, 0] == verts[:-1], sides[:, 0], sides[:, 1])
    region_left = _barrier_region(mesh, left_seeds, union, eids)
    if region_left.sum() == union.sum():
        return _skip(graph, "the new path does not separate the charts")
    return _apply(graph, ((union, b.right_label), (region_left, b.left_label)))
